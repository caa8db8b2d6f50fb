//! Clustering — §3.6.1 step 2.
//!
//! Within a stage, runs of single- and two-qubit gates are merged into one
//! k ≤ kmax fused gate, executed by a single k-qubit kernel sweep instead
//! of many cheap sweeps. The greedy grower absorbs every ready gate whose
//! operands fit in the cluster's qubit set (growing the set while
//! `|Q| ≤ kmax`); a small local search tries several seeds and keeps the
//! cluster that captured the most gates, "before assigning the remaining
//! gates to new clusters".
//!
//! Diagonal gates with a global operand cannot join a dense cluster
//! (their operand is not addressable by a local kernel); they are emitted
//! as §3.5 specialized [`DiagonalOp`]s, interleaved in dependency order.
//!
//! Qubit sets are `u64` position masks (`Circuit::new` caps n at 63), and
//! every trial runs on the live tracker and rolls back through its
//! execution log, so growing a cluster allocates nothing.

use crate::config::SchedulerConfig;
use crate::fuse::diagonal_of;
use crate::schedule::{mask_of, positions_of, Cluster, DiagonalOp, StageOp};
use qsim_circuit::{Circuit, DependencyTracker, Operands};
use qsim_util::matrix::GateMatrix;

/// One stage's frontier: a [`DependencyTracker`] over the stage's gate
/// list (a gate is known by its position in the list), every position's
/// physical footprint, and the log of executed positions that a trial
/// rolls back through ([`StageTracker::undo`]).
struct StageTracker {
    deps: DependencyTracker,
    /// Physical footprint of each position under the stage mapping.
    masks: Vec<u64>,
    /// The logical qubit (dependency chain) at each physical position.
    logical: Vec<u32>,
    /// Executed positions, in execution order.
    log: Vec<usize>,
    /// The ready frontier, ascending ([`StageTracker::fill_ready`]).
    ready: Vec<usize>,
}

impl StageTracker {
    fn new(circuit: &Circuit, stage_gates: &[usize], mapping: &[u32]) -> Self {
        let operands: Vec<Operands> = stage_gates
            .iter()
            .map(|&gi| circuit.gates()[gi].qubits())
            .collect();
        let masks = operands
            .iter()
            .map(|qs| mask_of(qs.into_iter().map(|q| mapping[q as usize])))
            .collect();
        let mut logical = vec![0; mapping.len()];
        for (q, &p) in mapping.iter().enumerate() {
            logical[p as usize] = q as u32;
        }
        Self {
            deps: DependencyTracker::over(circuit.n_qubits(), operands),
            masks,
            logical,
            log: Vec::with_capacity(stage_gates.len()),
            ready: Vec::new(),
        }
    }

    fn execute(&mut self, pos: usize) {
        self.deps.execute(pos);
        self.log.push(pos);
    }

    /// A point [`StageTracker::undo`] can roll back to.
    fn mark(&self) -> usize {
        self.log.len()
    }

    /// Un-execute everything executed since `mark`, latest first.
    fn undo(&mut self, mark: usize) {
        for pos in self.log.drain(mark..).rev() {
            self.deps.unexecute(pos);
        }
    }

    fn fill_ready(&mut self) {
        self.deps.ready_gates_into(&mut self.ready);
    }

    /// Execute every ready position whose footprint lies inside `qset`,
    /// round by round to a fixpoint (a round can unblock deeper gates on
    /// the same qubits); returns how many ran. Such a position fronts
    /// its operands' chains, all in `qset`, so a round reads only those
    /// fronts, and runs them ascending, as a full frontier scan would.
    fn absorb(&mut self, qset: u64) -> usize {
        let start = self.log.len();
        loop {
            self.ready.clear();
            let mut bits = qset;
            while bits != 0 {
                let q = self.logical[bits.trailing_zeros() as usize];
                bits &= bits - 1;
                if let Some(pos) = self.deps.next_on_qubit(q) {
                    if self.masks[pos] & !qset == 0 && self.deps.is_ready(pos) {
                        self.ready.push(pos);
                    }
                }
            }
            if self.ready.is_empty() {
                return self.log.len() - start;
            }
            self.ready.sort_unstable();
            self.ready.dedup();
            for i in 0..self.ready.len() {
                let pos = self.ready[i];
                self.execute(pos);
            }
        }
    }

    /// Greedily grow a cluster from `seed`, executing its members: they
    /// are the log's tail from the call on, in execution order.
    fn grow_cluster(
        &mut self,
        seed: usize,
        local: u64,
        cfg: &SchedulerConfig,
        cands: &mut Vec<(u32, usize)>,
    ) {
        let mut qset = self.masks[seed];
        // Global-diagonal gates are drained before seeding (build_stage_ops).
        debug_assert!(
            qset & !local == 0,
            "global-diagonal gate reached cluster seeding"
        );
        // A single gate wider than kmax still has to execute: the cap is
        // max(kmax, seed arity).
        let cap = cfg.kmax.max(qset.count_ones());
        self.execute(seed);
        loop {
            // Phase 1: absorb every ready gate already contained in Q —
            // these are free (no qubit budget) and unblock deeper gates on
            // the same qubits, so run to a fixpoint before spending budget.
            self.absorb(qset);
            // Phase 2: expand Q. Candidates are ready gates that fit in the
            // kmax budget; each is scored by a one-step lookahead (how many
            // contained gates the expansion immediately unlocks), preferring
            // fewer new qubits on ties — the "small local search" of §3.6.1.
            self.fill_ready();
            cands.clear();
            for &pos in &self.ready {
                let m = self.masks[pos];
                if m & !local != 0 {
                    continue; // global-diagonal: separate op
                }
                let new = (m & !qset).count_ones();
                debug_assert!(new > 0, "contained gate survived phase 1");
                if qset.count_ones() + new <= cap {
                    cands.push((new, pos));
                }
            }
            cands.sort_unstable();
            cands.truncate(cfg.cluster_trials.max(1));
            // (score, pos): every trial scores at least 1, so the first
            // candidate with the strictly highest score wins.
            let mut best = (0usize, 0usize);
            for &(_, pos) in cands.iter() {
                let mark = self.mark();
                self.execute(pos);
                let score = 1 + self.absorb(qset | self.masks[pos]);
                self.undo(mark);
                if score > best.0 {
                    best = (score, pos);
                }
            }
            if best.0 == 0 {
                return;
            }
            qset |= self.masks[best.1];
            self.execute(best.1);
        }
    }
}

/// Build the ordered op list for one stage, its clusters unfused.
///
/// `stage_gates` are circuit gate indices in a dependency-consistent
/// order; `mapping[logical] = physical`.
pub(crate) fn build_stage_ops(
    circuit: &Circuit,
    stage_gates: &[usize],
    mapping: &[u32],
    cfg: &SchedulerConfig,
) -> Vec<StageOp> {
    let l = cfg.local_qubits;
    let local = mask_of(0..l);
    let mut tr = StageTracker::new(circuit, stage_gates, mapping);
    let mut ops: Vec<StageOp> = Vec::new();
    let (mut seeds, mut members, mut cands) = (Vec::new(), Vec::new(), Vec::new());

    while !tr.deps.is_done() {
        tr.fill_ready();
        debug_assert!(!tr.ready.is_empty(), "stage tracker stuck");

        // Emit any ready specialized diagonal ops first: they are cheap
        // and unblock chains for clustering.
        let mut emitted_diag = false;
        for i in 0..tr.ready.len() {
            let pos = tr.ready[i];
            if tr.masks[pos] & !local != 0 {
                let gi = stage_gates[pos];
                debug_assert!(
                    circuit.gates()[gi].is_diagonal(),
                    "global dense gate in stage"
                );
                let (positions, diag) = diagonal_of(&circuit.gates()[gi], mapping);
                ops.push(StageOp::Diagonal(DiagonalOp {
                    positions,
                    diag,
                    gate_indices: vec![gi],
                }));
                tr.execute(pos);
                emitted_diag = true;
            }
        }
        if emitted_diag {
            continue;
        }

        // Local search over seeds: grow a candidate cluster from each of
        // the first `cluster_trials` ready gates and keep the biggest (the
        // first on ties). Every trial is rolled back; the winner is then
        // re-executed to commit it.
        seeds.clear();
        seeds.extend(tr.ready.iter().take(cfg.cluster_trials.max(1)));
        members.clear();
        for &seed in &seeds {
            let mark = tr.mark();
            tr.grow_cluster(seed, local, cfg, &mut cands);
            if tr.log.len() - mark > members.len() {
                members.clear();
                members.extend_from_slice(&tr.log[mark..]);
            }
            tr.undo(mark);
        }
        for &pos in &members {
            tr.execute(pos);
        }
        let gate_indices: Vec<usize> = members.iter().map(|&p| stage_gates[p]).collect();
        let footprint = members.iter().fold(0, |m, &p| m | tr.masks[p]);
        debug_assert!(footprint & !local == 0);
        let diagonal = gate_indices
            .iter()
            .all(|&gi| circuit.gates()[gi].is_diagonal());
        ops.push(StageOp::Cluster(Cluster {
            qubits: positions_of(footprint),
            gate_indices,
            diagonal,
            // Placeholder (k = 0): `fuse_schedule` fills it.
            matrix: GateMatrix::identity(0),
        }));
    }
    if cfg.sweep_order {
        // Group ops by qubit footprint so the cache-tiled executor folds
        // more of them into each streaming pass. Dependency-safe (only
        // position-disjoint ops commute) and applied here, not at
        // execution time, so every executor sees the same op order.
        ops = crate::sweep::order_ops_for_sweep(ops, crate::sweep::DEFAULT_TILE_QUBITS.min(l));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::StageOp;
    use qsim_circuit::Circuit;

    fn cfg(l: u32, kmax: u32) -> SchedulerConfig {
        SchedulerConfig::distributed(l, kmax)
    }

    fn identity_mapping(n: u32) -> Vec<u32> {
        (0..n).collect()
    }

    #[test]
    fn merges_more_than_k_gates_per_cluster() {
        // A dense run on 3 qubits: 7 gates must fit in one 3-qubit cluster
        // (the Fig. 4 scenario: "7 individual gates" -> one 3-qubit gate).
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2).cz(0, 1).cz(1, 2).t(0).sqrt_x(1);
        let gates: Vec<usize> = (0..c.len()).collect();
        let ops = build_stage_ops(&c, &gates, &identity_mapping(3), &cfg(3, 3));
        assert_eq!(ops.len(), 1, "expected a single cluster");
        if let StageOp::Cluster(cl) = &ops[0] {
            assert_eq!(cl.gate_indices.len(), 7);
            assert_eq!(cl.qubits, vec![0, 1, 2]);
            assert!(!cl.diagonal, "H and X^1/2 are dense");
        } else {
            panic!("not a cluster");
        }
    }

    #[test]
    fn kmax_limits_cluster_arity() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3).cz(0, 1).cz(2, 3).cz(1, 2);
        let gates: Vec<usize> = (0..c.len()).collect();
        let ops = build_stage_ops(&c, &gates, &identity_mapping(4), &cfg(4, 2));
        for op in &ops {
            if let StageOp::Cluster(cl) = op {
                assert!(cl.qubits.len() <= 2, "cluster too wide: {:?}", cl.qubits);
            }
        }
        // With kmax=2 the CZ(1,2) bridges two clusters: >= 3 clusters.
        let n_clusters = ops
            .iter()
            .filter(|o| matches!(o, StageOp::Cluster(_)))
            .count();
        assert!(n_clusters >= 3);
    }

    #[test]
    fn global_diagonal_becomes_specialized_op() {
        // Two qubits, position 1 global (l = 1): CZ(0,1) must be a
        // DiagonalOp, H(0) a cluster.
        let mut c = Circuit::new(2);
        c.h(0).cz(0, 1).t(1);
        let gates: Vec<usize> = (0..c.len()).collect();
        let ops = build_stage_ops(&c, &gates, &identity_mapping(2), &cfg(1, 1));
        let diag_count = ops
            .iter()
            .filter(|o| matches!(o, StageOp::Diagonal(_)))
            .count();
        assert_eq!(diag_count, 2, "CZ and T on global qubit are specialized");
        let cluster_count = ops.len() - diag_count;
        assert_eq!(cluster_count, 1);
    }

    #[test]
    fn ordering_between_diagonal_and_dense_preserved() {
        // CZ(0,1) then H(0): with qubit 1 global, the CZ's diagonal op
        // must be emitted before the H cluster.
        let mut c = Circuit::new(2);
        c.cz(0, 1).h(0);
        let gates: Vec<usize> = (0..c.len()).collect();
        let ops = build_stage_ops(&c, &gates, &identity_mapping(2), &cfg(1, 1));
        assert!(matches!(ops[0], StageOp::Diagonal(_)));
        assert!(matches!(ops[1], StageOp::Cluster(_)));
    }

    #[test]
    fn trials_do_not_lose_gates() {
        let mut c = Circuit::new(5);
        for q in 0..5 {
            c.h(q);
        }
        c.cz(0, 1).cz(2, 3).cz(3, 4).t(2).sqrt_y(0);
        let gates: Vec<usize> = (0..c.len()).collect();
        for trials in [1usize, 2, 8] {
            let mut cf = cfg(5, 3);
            cf.cluster_trials = trials;
            let ops = build_stage_ops(&c, &gates, &identity_mapping(5), &cf);
            let total: usize = ops.iter().map(|o| o.gate_indices().len()).sum();
            assert_eq!(total, c.len(), "trials={trials}");
        }
    }

    #[test]
    fn empty_stage_produces_no_ops() {
        let c = Circuit::new(2);
        let ops = build_stage_ops(&c, &[], &identity_mapping(2), &cfg(2, 2));
        assert!(ops.is_empty());
    }
}
