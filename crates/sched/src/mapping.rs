//! Qubit mapping — §3.6.2.
//!
//! Kernels applied to high-order bit locations suffer a set-associativity
//! cliff (Fig. 6/9), so the bit-location of each qubit is optimized to
//! maximize the number of clusters acting on low-order locations. The
//! paper's heuristic, implemented verbatim:
//!
//! > Assign the qubit to bit-location 0 such that the number of clusters
//! > accessing bit-location 0 is maximal. From now on, ignore all clusters
//! > which act on this qubit and assign bit-locations 1, 2, and 3 in the
//! > same manner. Bit locations 4, 5, 6, and 7 are assigned the same way,
//! > except that after each step, only clusters acting on two of these
//! > four bit-locations are ignored when assigning the next higher
//! > bit-location.
//!
//! The heuristic consumes the cluster structure of a *preliminary*
//! schedule and produces a relabeling `map[old_qubit] = new_position`;
//! callers re-plan the remapped circuit.

use crate::config::SchedulerConfig;
use crate::schedule::StageOp;
use crate::stage::plan;
use qsim_circuit::Circuit;
use std::collections::HashSet;

/// Compute the §3.6.2 relabeling for a circuit: run a preliminary plan,
/// extract each cluster's logical qubit set, apply the heuristic.
pub fn optimize_qubit_mapping(circuit: &Circuit, cfg: &SchedulerConfig) -> Vec<u32> {
    let prelim = plan(circuit, cfg);
    // Cluster qubit sets in *logical* labels (translate through each
    // stage's mapping).
    let mut clusters: Vec<HashSet<u32>> = Vec::new();
    for stage in &prelim.stages {
        // physical -> logical for this stage.
        let mut p2l = vec![0u32; stage.mapping.len()];
        for (logical, &p) in stage.mapping.iter().enumerate() {
            p2l[p as usize] = logical as u32;
        }
        for op in &stage.ops {
            if let StageOp::Cluster(c) = op {
                clusters.push(c.qubits.iter().map(|&p| p2l[p as usize]).collect());
            }
        }
    }
    mapping_from_clusters(&clusters, circuit.n_qubits())
}

/// The bare heuristic: given cluster qubit sets, produce
/// `map[old] = new`.
pub fn mapping_from_clusters(clusters: &[HashSet<u32>], n: u32) -> Vec<u32> {
    let mut assigned: Vec<Option<u32>> = vec![None; n as usize]; // old -> new
    let mut active: Vec<bool> = vec![true; clusters.len()];
    // Qubits already holding new positions 4..7 (for the second phase's
    // "two of these four" rule).
    let mut high_block: Vec<u32> = Vec::new();

    for new_pos in 0..n {
        // Count active clusters per unassigned qubit.
        let mut count = vec![0usize; n as usize];
        for (ci, cl) in clusters.iter().enumerate() {
            if !active[ci] {
                continue;
            }
            for &q in cl {
                if assigned[q as usize].is_none() {
                    count[q as usize] += 1;
                }
            }
        }
        // Pick the unassigned qubit with maximal count (ties: lowest id).
        let winner = (0..n)
            .filter(|&q| assigned[q as usize].is_none())
            .max_by_key(|&q| (count[q as usize], std::cmp::Reverse(q)))
            .expect("unassigned qubit must exist");
        assigned[winner as usize] = Some(new_pos);

        // Deactivate clusters per the paper's rule.
        match new_pos {
            0..=3 => {
                for (ci, cl) in clusters.iter().enumerate() {
                    if active[ci] && cl.contains(&winner) {
                        active[ci] = false;
                    }
                }
            }
            4..=7 => {
                high_block.push(winner);
                for (ci, cl) in clusters.iter().enumerate() {
                    if active[ci] {
                        let hits = high_block.iter().filter(|q| cl.contains(q)).count();
                        if hits >= 2 {
                            active[ci] = false;
                        }
                    }
                }
            }
            _ => {
                // Positions >= 8: assignment by remaining frequency only.
            }
        }
    }
    assigned.into_iter().map(|a| a.unwrap()).collect()
}

/// Fraction of clusters touching at least one position `< cutoff` — the
/// objective the greedy heuristic directly maximizes ("the number of
/// clusters accessing bit-location 0 is maximal", then 1, 2, 3, …).
pub fn touch_low_fraction(clusters: &[HashSet<u32>], map: &[u32], cutoff: u32) -> f64 {
    if clusters.is_empty() {
        return 1.0;
    }
    let low = clusters
        .iter()
        .filter(|cl| cl.iter().any(|&q| map[q as usize] < cutoff))
        .count();
    low as f64 / clusters.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};

    fn set(v: &[u32]) -> HashSet<u32> {
        v.iter().copied().collect()
    }

    #[test]
    fn hottest_qubit_gets_position_zero() {
        // Qubit 7 appears in every cluster.
        let clusters = vec![set(&[7, 1]), set(&[7, 2]), set(&[7, 3]), set(&[4, 5])];
        let map = mapping_from_clusters(&clusters, 8);
        assert_eq!(map[7], 0);
        // Bijection check.
        let mut sorted = map.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn ignored_clusters_shift_focus() {
        // After qubit 0 takes position 0 (3 clusters), its clusters are
        // ignored; qubit 3 (2 remaining clusters) must beat qubit 1
        // (appears only in ignored clusters).
        let clusters = vec![
            set(&[0, 1]),
            set(&[0, 1]),
            set(&[0, 2]),
            set(&[3, 4]),
            set(&[3, 5]),
        ];
        let map = mapping_from_clusters(&clusters, 6);
        assert_eq!(map[0], 0);
        assert_eq!(map[3], 1);
    }

    #[test]
    fn mapping_improves_low_order_fraction() {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 4,
            cols: 4,
            depth: 20,
            seed: 3,
        });
        let cfg = SchedulerConfig::single_node(16, 4);
        let prelim = plan(&c, &cfg);
        let clusters: Vec<HashSet<u32>> = prelim
            .stages
            .iter()
            .flat_map(|s| {
                s.ops.iter().filter_map(|op| match op {
                    StageOp::Cluster(cl) => Some(cl.qubits.iter().copied().collect()),
                    _ => None,
                })
            })
            .collect();
        let identity: Vec<u32> = (0..16).collect();
        let optimized = mapping_from_clusters(&clusters, 16);
        // The greedy objective: clusters reached by the first 4 picks.
        let f_id = touch_low_fraction(&clusters, &identity, 4);
        let f_opt = touch_low_fraction(&clusters, &optimized, 4);
        assert!(
            f_opt >= f_id,
            "heuristic must not hurt its own objective: {f_opt:.3} vs identity {f_id:.3}"
        );
    }

    #[test]
    fn end_to_end_remap_still_verifies() {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 3,
            cols: 4,
            depth: 16,
            seed: 1,
        });
        let cfg = SchedulerConfig::single_node(12, 4);
        let map = optimize_qubit_mapping(&c, &cfg);
        let remapped = c.remapped(&map);
        let s = plan(&remapped, &cfg);
        s.verify(&remapped);
    }

    #[test]
    fn empty_cluster_list() {
        let map = mapping_from_clusters(&[], 4);
        let mut sorted = map.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert_eq!(touch_low_fraction(&[], &map, 2), 1.0);
    }
}
