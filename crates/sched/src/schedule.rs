//! The execution-plan data model.
//!
//! A [`Schedule`] is a sequence of [`Stage`]s separated by global-to-local
//! [`SwapOp`]s (§3.4/§3.6.1): every stage but the last is closed by a
//! full swap, and the last by none ([`Schedule::check_shape`]). The paper
//! cuts a run only at those swaps, so a stage together with its closing
//! swap is the one unit of execution, checkpoint and progress on every
//! engine. Within a stage, [`StageOp`]s execute in order on every rank:
//!
//! * [`Cluster`] — a fused dense k-qubit gate on *local* physical bit
//!   positions;
//! * [`DiagonalOp`] — a (possibly multi-qubit) diagonal gate whose
//!   operands may include *global* positions: §3.5 specialization turns it
//!   into a rank-conditional local phase, no communication.
//!
//! Positions are *physical* bit locations (0..l local, l..n global) under
//! the stage's logical→physical mapping, which the schedule records so
//! executors and verifiers can translate back.

use qsim_circuit::{Circuit, DependencyTracker};
use qsim_util::c64;
use qsim_util::matrix::GateMatrix;

/// A fused dense gate on local physical positions.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// Sorted physical local positions (all `< local_qubits`), little-
    /// endian operand order of `matrix`.
    pub qubits: Vec<u32>,
    /// Indices into the source circuit of the merged gates, in
    /// application order.
    pub gate_indices: Vec<usize>,
    /// The fused 2^k × 2^k unitary.
    pub matrix: GateMatrix<f64>,
}

/// A diagonal gate executed via §3.5 specialization; operands may be
/// global positions.
#[derive(Clone, Debug)]
pub struct DiagonalOp {
    /// Physical positions, little-endian operand order of `diag`.
    pub positions: Vec<u32>,
    /// 2^k diagonal entries.
    pub diag: Vec<c64>,
    /// Source gate indices merged into this op.
    pub gate_indices: Vec<usize>,
}

/// One stage operation.
#[derive(Clone, Debug)]
pub enum StageOp {
    Cluster(Cluster),
    Diagonal(DiagonalOp),
}

impl StageOp {
    pub fn gate_indices(&self) -> &[usize] {
        match self {
            StageOp::Cluster(c) => &c.gate_indices,
            StageOp::Diagonal(d) => &d.gate_indices,
        }
    }
}

/// A full global-to-local swap boundary (§3.4): ALL `g = n − l` global
/// bits are exchanged with the local bits at `local_slots`.
///
/// Semantics: the logical qubit at global position `l + i` moves to local
/// position `local_slots[i]`, and vice versa. Executors realize this as
/// (local permutation) → all-to-all → (local permutation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwapOp {
    /// Ascending local positions given up to the incoming globals;
    /// `len() == n − l`.
    pub local_slots: Vec<u32>,
}

/// A communication-free run of operations under one fixed mapping.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Logical→physical mapping in effect during this stage:
    /// `mapping[logical] = physical`.
    pub mapping: Vec<u32>,
    pub ops: Vec<StageOp>,
    /// The swap executed *after* this stage; `None` for the final stage.
    pub swap: Option<SwapOp>,
}

/// The complete plan.
#[derive(Clone, Debug)]
pub struct Schedule {
    pub n_qubits: u32,
    pub local_qubits: u32,
    pub kmax: u32,
    pub stages: Vec<Stage>,
}

impl Schedule {
    /// Number of global-to-local swaps — the headline metric of Fig. 5.
    pub fn n_swaps(&self) -> usize {
        self.stages.iter().filter(|s| s.swap.is_some()).count()
    }

    /// Total number of dense clusters (Table 1's metric).
    pub fn n_clusters(&self) -> usize {
        self.stages
            .iter()
            .map(|s| {
                s.ops
                    .iter()
                    .filter(|op| matches!(op, StageOp::Cluster(_)))
                    .count()
            })
            .sum()
    }

    /// Total number of specialized diagonal ops.
    pub fn n_diagonal_ops(&self) -> usize {
        self.stages
            .iter()
            .map(|s| {
                s.ops
                    .iter()
                    .filter(|op| matches!(op, StageOp::Diagonal(_)))
                    .count()
            })
            .sum()
    }

    /// Mean gates per dense cluster (Table 1 shows > kmax on average).
    pub fn gates_per_cluster(&self) -> f64 {
        let mut gates = 0usize;
        let mut clusters = 0usize;
        for s in &self.stages {
            for op in &s.ops {
                if let StageOp::Cluster(c) = op {
                    gates += c.gate_indices.len();
                    clusters += 1;
                }
            }
        }
        if clusters == 0 {
            0.0
        } else {
            gates as f64 / clusters as f64
        }
    }

    /// Mapping in effect after the final stage (needed to interpret the
    /// output state's bit order).
    pub fn final_mapping(&self) -> &[u32] {
        &self.stages.last().expect("empty schedule").mapping
    }

    /// The one shape every executable plan has: at least one stage, every
    /// stage but the last closed by a full `g`-slot swap, the last by
    /// none. Every plan the planner produces has it, and the engines
    /// execute nothing else; `Err` says which stage breaks it.
    pub fn check_shape(&self) -> Result<(), String> {
        let g = self.n_qubits.saturating_sub(self.local_qubits) as usize;
        let Some(last) = self.stages.len().checked_sub(1) else {
            return Err("schedule has no stage".into());
        };
        for (si, stage) in self.stages.iter().enumerate() {
            match (&stage.swap, si == last) {
                (None, false) => {
                    return Err(format!(
                        "stage {si} of {} is not closed by a swap (only the last stage may be swap-free)",
                        self.stages.len()
                    ))
                }
                (Some(_), true) => {
                    return Err("the last stage ends in a swap (nothing would apply it)".into())
                }
                (Some(s), false) if s.local_slots.len() != g => {
                    return Err(format!(
                        "stage {si}: full swap expected, {} slots for g = {g}",
                        s.local_slots.len()
                    ))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Validate the plan against its source circuit. Checks:
    /// 1. the plan has the executable shape ([`Schedule::check_shape`]);
    /// 2. every circuit gate appears in exactly one op, in a position
    ///    consistent with per-qubit program order;
    /// 3. cluster operands are local and within kmax;
    /// 4. diagonal ops only contain diagonal gates;
    /// 5. swaps are well-formed and each stage's mapping is the previous
    ///    one moved through its swap;
    /// 6. cluster matrices are unitary.
    ///
    /// Panics with a description on the first violation (test/debug aid).
    pub fn verify(&self, circuit: &Circuit) {
        let n = self.n_qubits;
        let l = self.local_qubits;
        let g = n - l;
        assert_eq!(circuit.n_qubits(), n, "qubit count mismatch");
        if let Err(why) = self.check_shape() {
            panic!("{why}");
        }
        let mut tracker = DependencyTracker::new(circuit);
        // The previous stage's mapping moved through its closing swap.
        let mut expected: Option<Vec<u32>> = None;
        for (si, stage) in self.stages.iter().enumerate() {
            assert_eq!(stage.mapping.len(), n as usize, "stage {si} mapping arity");
            // Mapping must be a bijection.
            let mut seen = vec![false; n as usize];
            for &p in &stage.mapping {
                assert!(
                    (p as usize) < n as usize && !seen[p as usize],
                    "stage {si} mapping not bijective"
                );
                seen[p as usize] = true;
            }
            // Mapping continuity: stage 0 free; later stages must equal
            // the previous mapping transformed by the previous swap.
            if let Some(want) = &expected {
                assert_eq!(
                    &stage.mapping, want,
                    "stage {si} mapping inconsistent with swap"
                );
            }
            for (oi, op) in stage.ops.iter().enumerate() {
                match op {
                    StageOp::Cluster(c) => {
                        // Clusters obey kmax except when a single gate is
                        // wider than kmax (it must still run somewhere).
                        let widest = c
                            .gate_indices
                            .iter()
                            .map(|&gi| circuit.gates()[gi].arity())
                            .max()
                            .unwrap_or(0);
                        let cap = (self.kmax as usize).max(widest);
                        assert!(
                            !c.qubits.is_empty() && c.qubits.len() <= cap,
                            "stage {si} op {oi}: cluster size {}",
                            c.qubits.len()
                        );
                        assert!(
                            c.qubits.windows(2).all(|w| w[0] < w[1]),
                            "cluster qubits unsorted"
                        );
                        assert!(
                            c.qubits.iter().all(|&q| q < l),
                            "cluster touches global position"
                        );
                        assert_eq!(c.matrix.k() as usize, c.qubits.len(), "matrix arity");
                        assert!(
                            c.matrix.unitarity_residual() < 1e-9,
                            "cluster matrix not unitary"
                        );
                        for &gi in &c.gate_indices {
                            // Gate qubits must lie inside the cluster under
                            // the stage mapping.
                            for q in circuit.gates()[gi].qubits() {
                                let p = stage.mapping[q as usize];
                                assert!(
                                    c.qubits.contains(&p),
                                    "stage {si} gate {gi}: qubit outside cluster"
                                );
                            }
                            tracker.execute(gi); // panics if out of order
                        }
                    }
                    StageOp::Diagonal(d) => {
                        assert_eq!(d.diag.len(), 1usize << d.positions.len(), "diag size");
                        for &gi in &d.gate_indices {
                            assert!(
                                circuit.gates()[gi].is_diagonal(),
                                "non-diagonal gate {gi} in diagonal op"
                            );
                            tracker.execute(gi);
                        }
                    }
                }
            }
            if let Some(swap) = &stage.swap {
                assert!(
                    swap.local_slots.windows(2).all(|w| w[0] < w[1]),
                    "swap slots unsorted"
                );
                assert!(
                    swap.local_slots.iter().all(|&s| s < l),
                    "swap slot not local"
                );
                expected = Some(apply_swap_to_mapping(&stage.mapping, swap, l, g));
            }
        }
        assert!(
            tracker.is_done(),
            "{} gates never scheduled",
            tracker.n_remaining()
        );
    }
}

/// Transform a logical→physical mapping through a full swap: qubits at
/// `swap.local_slots[i]` and global position `l + i` exchange places.
pub fn apply_swap_to_mapping(mapping: &[u32], swap: &SwapOp, l: u32, g: u32) -> Vec<u32> {
    assert_eq!(swap.local_slots.len(), g as usize);
    let mut phys_to_logical = vec![0u32; mapping.len()];
    for (logical, &p) in mapping.iter().enumerate() {
        phys_to_logical[p as usize] = logical as u32;
    }
    let mut out = mapping.to_vec();
    for (i, &slot) in swap.local_slots.iter().enumerate() {
        let global_pos = l + i as u32;
        let ql = phys_to_logical[slot as usize];
        let qg = phys_to_logical[global_pos as usize];
        out[ql as usize] = global_pos;
        out[qg as usize] = slot;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_mapping_transform() {
        // n=4, l=2, g=2: logical i at physical i. Swap slots [0,1].
        let mapping = vec![0u32, 1, 2, 3];
        let swap = SwapOp {
            local_slots: vec![0, 1],
        };
        let out = apply_swap_to_mapping(&mapping, &swap, 2, 2);
        // logical 0 (phys 0) <-> logical 2 (phys 2); 1 <-> 3.
        assert_eq!(out, vec![2, 3, 0, 1]);
        // Swapping twice restores.
        let back = apply_swap_to_mapping(&out, &swap, 2, 2);
        assert_eq!(back, mapping);
    }

    #[test]
    fn swap_mapping_partial_slots() {
        // n=5, l=3, g=2, swap slots [0, 2]: global 3 <-> slot 0,
        // global 4 <-> slot 2; position 1 untouched.
        let mapping = vec![0u32, 1, 2, 3, 4];
        let swap = SwapOp {
            local_slots: vec![0, 2],
        };
        let out = apply_swap_to_mapping(&mapping, &swap, 3, 2);
        assert_eq!(out, vec![3, 1, 4, 0, 2]);
    }

    #[test]
    fn schedule_counters() {
        let sched = Schedule {
            n_qubits: 2,
            local_qubits: 2,
            kmax: 2,
            stages: vec![Stage {
                mapping: vec![0, 1],
                ops: vec![
                    StageOp::Cluster(Cluster {
                        qubits: vec![0, 1],
                        gate_indices: vec![0, 1, 2],
                        matrix: GateMatrix::identity(2),
                    }),
                    StageOp::Diagonal(DiagonalOp {
                        positions: vec![1],
                        diag: vec![c64::one(), c64::i()],
                        gate_indices: vec![3],
                    }),
                ],
                swap: None,
            }],
        };
        assert_eq!(sched.n_swaps(), 0);
        assert_eq!(sched.n_clusters(), 1);
        assert_eq!(sched.n_diagonal_ops(), 1);
        assert!((sched.gates_per_cluster() - 3.0).abs() < 1e-12);
        assert_eq!(sched.final_mapping(), &[0, 1]);
    }

    #[test]
    fn only_swap_closed_stages_then_one_open_stage_have_the_shape() {
        // n = 3, l = 2, g = 1.
        let stage = |swap: Option<Vec<u32>>| Stage {
            mapping: vec![0, 1, 2],
            ops: vec![],
            swap: swap.map(|local_slots| SwapOp { local_slots }),
        };
        let shaped = |stages: Vec<Stage>| {
            Schedule {
                n_qubits: 3,
                local_qubits: 2,
                kmax: 2,
                stages,
            }
            .check_shape()
        };
        assert!(shaped(vec![stage(None)]).is_ok());
        assert!(shaped(vec![stage(Some(vec![0])), stage(None)]).is_ok());
        for bad in [
            vec![],
            vec![stage(Some(vec![0]))],
            vec![stage(None), stage(None)],
            vec![stage(Some(vec![0, 1])), stage(None)],
        ] {
            assert!(shaped(bad.clone()).is_err(), "{bad:?}");
        }
    }
}
