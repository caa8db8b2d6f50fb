//! Stage-sweep planning for the cache-tiled executor.
//!
//! Two passes over a stage's op list feed `qsim-kernels::sweep`:
//!
//! * [`order_ops_for_sweep`] (run inside `build_stage_ops` when
//!   `SchedulerConfig::sweep_order` is set) reorders ops so consecutive
//!   clusters share qubit-footprint bits. Only ops on *disjoint* position
//!   sets are ever commuted — any shared position (dense or diagonal) is
//!   treated as a dependency — so the reordered list executes gates in the
//!   same per-qubit program order and `Schedule::verify` still passes.
//! * [`plan_stage_sweeps`] groups the (already ordered) ops into
//!   *passes*: a run of consecutive ops whose dense footprints fit in one
//!   cache tile becomes a [`SweepPass::Tiled`] (one streaming pass over
//!   the state applies them all); a cluster wider than the tile becomes a
//!   [`SweepPass::Full`] fallback. Diagonal ops never cost tile budget —
//!   operands outside the tile resolve to per-tile constant bits — so
//!   they always join the current pass.
//!
//! Planning never reorders: grouping respects the op list exactly, which
//! is what makes the tiled executor bit-exact against the per-gate
//! oracle (both walk the same op order).

use crate::schedule::StageOp;
use std::collections::BTreeSet;

/// Default tile budget (log2 amplitudes) of the footprint-ordering
/// pass, the cost model's pass counts and the stage executor alike
/// (2^14 amplitudes = 256 KiB at f64).
pub const DEFAULT_TILE_QUBITS: u32 = 14;

/// One streaming pass of a stage sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepPass {
    /// Consecutive ops applied tile-by-tile in a single pass. `tile` is
    /// the sorted physical position set spanned by the tile's low bits
    /// (dense footprints padded with the lowest unused local positions).
    Tiled {
        op_indices: Vec<usize>,
        tile: Vec<u32>,
    },
    /// A dense cluster wider than the tile: dedicated full sweep.
    Full { op_index: usize },
}

/// A stage's execution plan for the tiled executor.
#[derive(Clone, Debug)]
pub struct SweepPlan {
    pub passes: Vec<SweepPass>,
    /// Tile budget the plan was built for (min(requested, local_qubits)).
    pub tile_qubits: u32,
    /// Total ops planned (= per-gate baseline pass count).
    pub n_ops: usize,
}

/// Positions an op occupies: cluster qubits or diagonal positions
/// (diagonal positions may be >= local_qubits — rank bits).
fn op_positions(op: &StageOp) -> &[u32] {
    match op {
        StageOp::Cluster(c) => &c.qubits,
        StageOp::Diagonal(d) => &d.positions,
    }
}

/// True when the op folds into a pass as per-tile phases: specialized
/// diagonal ops, and fused clusters whose matrix happens to be diagonal
/// (the same deterministic test the executor uses).
fn is_diagonal_like(op: &StageOp) -> bool {
    match op {
        StageOp::Diagonal(_) => true,
        StageOp::Cluster(c) => c.matrix.as_diagonal().is_some(),
    }
}

/// Group a stage's ops into sweep passes under a `tile_qubits` budget.
pub fn plan_stage_sweeps(ops: &[StageOp], local_qubits: u32, tile_qubits: u32) -> SweepPlan {
    let cap = tile_qubits.min(local_qubits).max(1) as usize;
    let mut passes: Vec<SweepPass> = Vec::new();
    let mut group: Vec<usize> = Vec::new();
    let mut union: BTreeSet<u32> = BTreeSet::new();

    let flush = |group: &mut Vec<usize>, union: &mut BTreeSet<u32>, passes: &mut Vec<SweepPass>| {
        if group.is_empty() {
            return;
        }
        // Pad the dense union with the lowest unused local positions up
        // to the full tile budget: bigger tiles amortize the gather, and
        // a union within {0..cap} yields a contiguous (zero-copy) tile.
        let mut tile: Vec<u32> = union.iter().copied().collect();
        let mut next = 0u32;
        while tile.len() < cap && next < local_qubits {
            if !union.contains(&next) {
                tile.push(next);
            }
            next += 1;
        }
        tile.sort_unstable();
        passes.push(SweepPass::Tiled {
            op_indices: std::mem::take(group),
            tile,
        });
        union.clear();
    };

    for (oi, op) in ops.iter().enumerate() {
        if is_diagonal_like(op) {
            group.push(oi);
            continue;
        }
        let qs = op_positions(op);
        if qs.len() > cap {
            flush(&mut group, &mut union, &mut passes);
            passes.push(SweepPass::Full { op_index: oi });
            continue;
        }
        let grown = qs.iter().filter(|p| !union.contains(p)).count();
        if union.len() + grown > cap {
            flush(&mut group, &mut union, &mut passes);
        }
        union.extend(qs.iter().copied());
        group.push(oi);
    }
    flush(&mut group, &mut union, &mut passes);

    SweepPlan {
        passes,
        tile_qubits: cap as u32,
        n_ops: ops.len(),
    }
}

/// Reorder a stage's ops by qubit footprint (list scheduling).
///
/// An op is *ready* when every earlier op sharing a position with it has
/// been emitted — shared positions are dependencies regardless of
/// commutation, so per-qubit program order (what `Schedule::verify`
/// checks) is preserved exactly. Among ready ops, diagonal-like ops are
/// emitted eagerly (they are free for any pass), then the cluster whose
/// footprint grows the running tile union least; when even the best
/// candidate would overflow the budget the union resets (a new pass will
/// start there anyway).
pub fn order_ops_for_sweep(ops: Vec<StageOp>, tile_qubits: u32) -> Vec<StageOp> {
    let n = ops.len();
    if n <= 1 {
        return ops;
    }
    let budget = tile_qubits.max(1) as usize;
    let conflicts: Vec<Vec<usize>> = (0..n)
        .map(|j| {
            let pj = op_positions(&ops[j]);
            (0..j)
                .filter(|&i| op_positions(&ops[i]).iter().any(|p| pj.contains(p)))
                .collect()
        })
        .collect();
    let diag_like: Vec<bool> = ops.iter().map(is_diagonal_like).collect();

    let mut emitted = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut union: BTreeSet<u32> = BTreeSet::new();
    while order.len() < n {
        let ready: Vec<usize> = (0..n)
            .filter(|&j| !emitted[j] && conflicts[j].iter().all(|&i| emitted[i]))
            .collect();
        debug_assert!(!ready.is_empty(), "footprint ordering stuck");
        // Diagonals first, in index order: free to fold into any pass.
        let mut took_diag = false;
        for &j in &ready {
            if diag_like[j] {
                emitted[j] = true;
                order.push(j);
                took_diag = true;
            }
        }
        if took_diag {
            continue;
        }
        let &best = ready
            .iter()
            .min_by_key(|&&j| {
                let qs = op_positions(&ops[j]);
                let grown = qs.iter().filter(|p| !union.contains(p)).count();
                (grown, j)
            })
            .unwrap();
        let qs = op_positions(&ops[best]);
        let grown = qs.iter().filter(|p| !union.contains(p)).count();
        if union.len() + grown > budget {
            union.clear();
        }
        union.extend(qs.iter().copied());
        emitted[best] = true;
        order.push(best);
    }

    let mut slots: Vec<Option<StageOp>> = ops.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|j| slots[j].take().expect("op emitted twice"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Cluster, DiagonalOp};
    use qsim_util::c64;
    use qsim_util::matrix::GateMatrix;

    fn dense_cluster(qubits: Vec<u32>) -> StageOp {
        // A Hadamard-like non-diagonal matrix embedded at arity |qubits|.
        let k = qubits.len() as u32;
        let h = GateMatrix::from_rows(
            1,
            vec![
                c64::new(0.5f64.sqrt(), 0.0),
                c64::new(0.5f64.sqrt(), 0.0),
                c64::new(0.5f64.sqrt(), 0.0),
                c64::new(-(0.5f64.sqrt()), 0.0),
            ],
        );
        let mut m = h.clone();
        for _ in 1..k {
            m = m.kron(&h);
        }
        StageOp::Cluster(Cluster {
            qubits,
            gate_indices: vec![],
            matrix: m,
        })
    }

    fn diag_op(positions: Vec<u32>) -> StageOp {
        let d = vec![c64::one(); 1 << positions.len()];
        StageOp::Diagonal(DiagonalOp {
            positions,
            diag: d,
            gate_indices: vec![],
        })
    }

    fn diag_cluster(qubits: Vec<u32>) -> StageOp {
        StageOp::Cluster(Cluster {
            matrix: GateMatrix::identity(qubits.len() as u32),
            qubits,
            gate_indices: vec![],
        })
    }

    #[test]
    fn groups_consecutive_ops_under_budget() {
        let ops = vec![
            dense_cluster(vec![0, 1]),
            dense_cluster(vec![2, 3]),
            dense_cluster(vec![0, 2]),
        ];
        let plan = plan_stage_sweeps(&ops, 10, 4);
        assert_eq!(plan.passes.len(), 1);
        match &plan.passes[0] {
            SweepPass::Tiled { op_indices, tile } => {
                assert_eq!(op_indices, &vec![0, 1, 2]);
                assert_eq!(tile, &vec![0, 1, 2, 3]);
            }
            _ => panic!("expected tiled pass"),
        }
    }

    #[test]
    fn splits_when_budget_exceeded_without_reordering() {
        let ops = vec![
            dense_cluster(vec![0, 1]),
            dense_cluster(vec![4, 5]),
            dense_cluster(vec![0, 1]),
        ];
        let plan = plan_stage_sweeps(&ops, 8, 2);
        // Budget 2: each distinct footprint forces a new pass; op 2 can't
        // join pass 0 because planning never reorders.
        assert_eq!(plan.passes.len(), 3);
        assert_eq!(plan.n_ops, 3);
    }

    #[test]
    fn wide_cluster_falls_back_to_full_pass() {
        let ops = vec![dense_cluster(vec![0, 1, 2]), dense_cluster(vec![0, 1])];
        let plan = plan_stage_sweeps(&ops, 12, 2);
        assert_eq!(
            plan.passes[0],
            SweepPass::Full { op_index: 0 },
            "3-qubit cluster exceeds the 2-qubit tile"
        );
        assert!(matches!(plan.passes[1], SweepPass::Tiled { .. }));
    }

    #[test]
    fn diagonals_and_diagonal_clusters_never_cost_budget() {
        let ops = vec![
            dense_cluster(vec![0, 1]),
            diag_op(vec![7]),
            diag_cluster(vec![5, 6]),
            dense_cluster(vec![0, 1]),
        ];
        let plan = plan_stage_sweeps(&ops, 8, 2);
        assert_eq!(plan.passes.len(), 1, "diagonals fold into the pass");
    }

    #[test]
    fn tile_is_padded_to_budget_with_low_positions() {
        let ops = vec![dense_cluster(vec![5, 7])];
        let plan = plan_stage_sweeps(&ops, 10, 4);
        match &plan.passes[0] {
            SweepPass::Tiled { tile, .. } => assert_eq!(tile, &vec![0, 1, 5, 7]),
            _ => panic!(),
        }
    }

    #[test]
    fn ordering_groups_shared_footprints() {
        // Interleaved footprints {0,1} / {4,5}: ordering should bring the
        // {0,1} clusters together (they are independent of the {4,5} one).
        let ops = vec![
            dense_cluster(vec![0, 1]),
            dense_cluster(vec![4, 5]),
            dense_cluster(vec![0, 1]),
        ];
        let ordered = order_ops_for_sweep(ops, 2);
        let footprints: Vec<Vec<u32>> = ordered.iter().map(|o| op_positions(o).to_vec()).collect();
        assert_eq!(footprints, vec![vec![0, 1], vec![0, 1], vec![4, 5]]);
        // And the plan now needs only 2 passes instead of 3.
        let plan = plan_stage_sweeps(&ordered, 8, 2);
        assert_eq!(plan.passes.len(), 2);
    }

    #[test]
    fn ordering_respects_shared_position_dependencies() {
        // Two ops sharing qubit 1 must keep their relative order even
        // though one is diagonal.
        let ops = vec![
            dense_cluster(vec![0, 1]),
            diag_op(vec![1]),
            dense_cluster(vec![1, 2]),
        ];
        let ordered = order_ops_for_sweep(ops, 8);
        assert!(matches!(&ordered[0], StageOp::Cluster(c) if c.qubits == vec![0, 1]));
        assert!(matches!(&ordered[1], StageOp::Diagonal(_)));
        assert!(matches!(&ordered[2], StageOp::Cluster(c) if c.qubits == vec![1, 2]));
    }

    #[test]
    fn ordering_emits_independent_diagonals_early() {
        let ops = vec![dense_cluster(vec![0, 1]), diag_op(vec![9])];
        let ordered = order_ops_for_sweep(ops, 8);
        // The independent diagonal on qubit 9 moves first (free fold).
        assert!(matches!(&ordered[0], StageOp::Diagonal(_)));
    }

    #[test]
    fn ordering_preserves_multiset() {
        let ops = vec![
            dense_cluster(vec![0, 1]),
            dense_cluster(vec![2, 3]),
            diag_op(vec![0]),
            dense_cluster(vec![0, 2]),
        ];
        let ordered = order_ops_for_sweep(ops.clone(), 4);
        assert_eq!(ordered.len(), ops.len());
    }
}
