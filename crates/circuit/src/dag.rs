//! Per-qubit dependency tracking.
//!
//! "Gates acting on the same qubit never commute for quantum supremacy
//! circuits by design … Nevertheless, we can reorder gates which act on
//! different qubits as they commute trivially." (§3.6.1). The dependency
//! structure of a circuit is therefore exactly the per-qubit program
//! order: gate `g` is *ready* when it is the earliest unexecuted gate on
//! every one of its qubits. [`DependencyTracker`] maintains that frontier
//! for the scheduler's greedy passes.

use crate::circuit::Circuit;
use crate::gate::{Gate, Operands};
use std::sync::Arc;

/// Tracks which gates are ready/executed under per-qubit ordering.
///
/// The frontier is maintained, never rebuilt from the chains: each gate
/// counts the chains it currently fronts, and a gate is ready exactly
/// when that count reaches its arity (its bit in `ready` is set). A
/// cursor move touches one chain front, so `execute` and `unexecute`
/// cost O(arity).
///
/// The chains and operand lists are immutable and shared, so a clone
/// (one per scheduler search branch) copies only the cursors, the front
/// counts, the ready bits and the executed flags.
#[derive(Clone, Debug)]
pub struct DependencyTracker {
    /// Gate indices touching each qubit, in program order.
    chains: Arc<[Vec<usize>]>,
    /// Qubits of each gate.
    gate_qubits: Arc<[Operands]>,
    /// Next unexecuted position within each qubit's chain.
    cursor: Vec<usize>,
    /// How many chains each gate currently fronts.
    fronts: Vec<u8>,
    /// Bit `gi` is set iff gate `gi` fronts all of its chains.
    ready: Vec<u64>,
    executed: Vec<bool>,
    n_executed: usize,
}

impl DependencyTracker {
    pub fn new(circuit: &Circuit) -> Self {
        let gate_qubits = circuit.gates().iter().map(Gate::qubits).collect();
        Self::over(circuit.n_qubits(), gate_qubits)
    }

    /// A tracker over any gate list on `n_qubits` qubits, given each
    /// gate's operands (one stage's share of a circuit, say).
    ///
    /// # Panics
    ///
    /// If a gate lists a qubit twice: it would front that chain once and
    /// never count as ready.
    pub fn over(n_qubits: u32, gate_qubits: Vec<Operands>) -> Self {
        let mut chains = vec![Vec::new(); n_qubits as usize];
        for (gi, qs) in gate_qubits.iter().enumerate() {
            for (i, &q) in qs.iter().enumerate() {
                assert!(!qs[..i].contains(&q), "gate {gi} lists qubit {q} twice");
                chains[q as usize].push(gi);
            }
        }
        let mut t = Self {
            cursor: vec![0; chains.len()],
            fronts: vec![0; gate_qubits.len()],
            ready: vec![0; gate_qubits.len().div_ceil(64)],
            executed: vec![false; gate_qubits.len()],
            n_executed: 0,
            chains: chains.into(),
            gate_qubits: gate_qubits.into(),
        };
        for q in 0..n_qubits {
            t.gain_front(q);
        }
        t
    }

    /// Is gate `gi` at the front of all its qubits' chains?
    pub fn is_ready(&self, gi: usize) -> bool {
        self.ready[gi / 64] >> (gi % 64) & 1 == 1
    }

    /// Mark a ready gate as executed, advancing its qubits' cursors.
    /// Panics if the gate is not ready (scheduling bug).
    pub fn execute(&mut self, gi: usize) {
        assert!(self.is_ready(gi), "gate {gi} executed out of order");
        for q in self.gate_qubits[gi] {
            self.lose_front(q);
            self.cursor[q as usize] += 1;
            self.gain_front(q);
        }
        self.executed[gi] = true;
        self.n_executed += 1;
    }

    /// Undo [`DependencyTracker::execute`] of `gi`, which must be the
    /// latest gate executed on each of its qubits: trials roll back in
    /// reverse execution order.
    pub fn unexecute(&mut self, gi: usize) {
        for q in self.gate_qubits[gi] {
            self.lose_front(q);
            self.cursor[q as usize] -= 1;
            self.gain_front(q);
        }
        self.executed[gi] = false;
        self.n_executed -= 1;
        debug_assert!(self.is_ready(gi), "gate {gi} unexecuted out of order");
    }

    /// Has gate `gi` been executed?
    pub fn is_executed(&self, gi: usize) -> bool {
        self.executed[gi]
    }

    /// All gates executed?
    pub fn is_done(&self) -> bool {
        self.n_executed == self.executed.len()
    }

    pub fn n_remaining(&self) -> usize {
        self.executed.len() - self.n_executed
    }

    /// Current frontier: every ready gate, in program order.
    pub fn ready_gates(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.ready_gates_into(&mut out);
        out
    }

    /// [`DependencyTracker::ready_gates`] into a caller-owned buffer: the
    /// set bits of the ready set, ascending.
    pub fn ready_gates_into(&self, out: &mut Vec<usize>) {
        out.clear();
        for (w, &word) in self.ready.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Next unexecuted gate on qubit `q`, if any.
    pub fn next_on_qubit(&self, q: u32) -> Option<usize> {
        self.chains[q as usize]
            .get(self.cursor[q as usize])
            .copied()
    }

    /// Qubit `q`'s front (if any) stops fronting it: no longer ready.
    fn lose_front(&mut self, q: u32) {
        if let Some(gi) = self.next_on_qubit(q) {
            self.fronts[gi] -= 1;
            self.ready[gi / 64] &= !(1 << (gi % 64));
        }
    }

    /// Qubit `q`'s front (if any) fronts it: ready once it fronts all.
    fn gain_front(&mut self, q: u32) {
        if let Some(gi) = self.next_on_qubit(q) {
            self.fronts[gi] += 1;
            if usize::from(self.fronts[gi]) == self.gate_qubits[gi].len() {
                self.ready[gi / 64] |= 1 << (gi % 64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Circuit {
        // q0: H --- CZ(0,1) --- T
        // q1:       CZ(0,1) --- H
        // q2: X ---------------- CZ(1,2)? no: build explicit
        let mut c = Circuit::new(3);
        c.h(0); // 0
        c.x(2); // 1
        c.cz(0, 1); // 2
        c.t(0); // 3
        c.h(1); // 4
        c.cz(1, 2); // 5
        c
    }

    #[test]
    fn initial_frontier() {
        let t = DependencyTracker::new(&sample());
        // H(0) and X(2) are ready; CZ(0,1) waits on H(0) but q1 side is
        // free — still not ready because q0's front is H.
        assert_eq!(t.ready_gates(), vec![0, 1]);
        assert!(t.is_ready(0));
        assert!(!t.is_ready(2));
    }

    #[test]
    fn execution_unlocks_dependents() {
        let mut t = DependencyTracker::new(&sample());
        t.execute(0);
        assert!(t.is_ready(2), "CZ ready after H");
        t.execute(2);
        assert_eq!(t.ready_gates(), vec![1, 3, 4]);
        t.execute(4);
        // CZ(1,2) needs X(2) executed too.
        assert!(!t.is_ready(5));
        t.execute(1);
        assert!(t.is_ready(5));
        t.execute(5);
        t.execute(3);
        assert!(t.is_done());
        assert_eq!(t.n_remaining(), 0);
    }

    #[test]
    fn unexecute_rolls_back_and_clones_are_independent() {
        let mut t = DependencyTracker::new(&sample());
        t.execute(0);
        let mut copy = t.clone();
        for gi in [2, 3, 4] {
            t.execute(gi);
        }
        for gi in [4, 3, 2] {
            t.unexecute(gi);
        }
        assert_eq!(t.ready_gates(), vec![1, 2]);
        copy.execute(2);
        assert!(copy.is_executed(2) && !t.is_executed(2));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_execution_panics() {
        let mut t = DependencyTracker::new(&sample());
        t.execute(2); // CZ before H(0)
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn double_execution_panics() {
        let mut t = DependencyTracker::new(&sample());
        t.execute(0);
        t.execute(0);
    }

    #[test]
    fn commuting_gates_any_order() {
        // Gates on disjoint qubits can execute in any order.
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        let mut t = DependencyTracker::new(&c);
        assert_eq!(t.ready_gates(), vec![0, 1, 2, 3]);
        t.execute(3);
        t.execute(0);
        t.execute(2);
        t.execute(1);
        assert!(t.is_done());
    }

    #[test]
    fn next_on_qubit_walks_chain() {
        let mut t = DependencyTracker::new(&sample());
        assert_eq!(t.next_on_qubit(0), Some(0));
        t.execute(0);
        assert_eq!(t.next_on_qubit(0), Some(2));
        assert_eq!(t.next_on_qubit(1), Some(2));
        assert_eq!(t.next_on_qubit(2), Some(1));
    }

    #[test]
    fn serialized_supremacy_order_is_valid() {
        // Executing any circuit in program order must always succeed.
        let c = crate::supremacy::supremacy_circuit(&crate::supremacy::SupremacySpec {
            rows: 3,
            cols: 3,
            depth: 12,
            seed: 5,
        });
        let mut t = DependencyTracker::new(&c);
        for gi in 0..c.len() {
            t.execute(gi);
        }
        assert!(t.is_done());
    }

    #[test]
    #[should_panic(expected = "gate 1 lists qubit 2 twice")]
    fn over_rejects_a_repeated_operand() {
        let mut c = Circuit::new(3);
        c.h(0).cz(1, 2);
        let mut qs: Vec<Operands> = c.gates().iter().map(Gate::qubits).collect();
        // `Circuit::push` refuses CZ(2, 2); only `over` can be handed one.
        qs[1] = Gate::CZ(2, 2).qubits();
        DependencyTracker::over(3, qs);
    }

    /// The frontier by its definition, rebuilt from scratch: every chain
    /// front that fronts all of its chains, sorted and deduplicated.
    fn oracle(n: u32, ops: &[Operands], executed: &[bool]) -> (Vec<Option<usize>>, Vec<usize>) {
        let front: Vec<Option<usize>> = (0..n)
            .map(|q| (0..ops.len()).find(|&gi| !executed[gi] && ops[gi].contains(&q)))
            .collect();
        let mut ready: Vec<usize> = front
            .iter()
            .flatten()
            .copied()
            .filter(|&gi| ops[gi].iter().all(|&q| front[q as usize] == Some(gi)))
            .collect();
        ready.sort_unstable();
        ready.dedup();
        (front, ready)
    }

    fn check(t: &DependencyTracker, n: u32, ops: &[Operands], log: &[usize]) {
        let mut executed = vec![false; ops.len()];
        for &gi in log {
            executed[gi] = true;
        }
        let (front, ready) = oracle(n, ops, &executed);
        for q in 0..n {
            assert_eq!(t.next_on_qubit(q), front[q as usize], "front of qubit {q}");
        }
        assert_eq!(t.ready_gates(), ready, "after {log:?}");
        for (gi, &done) in executed.iter().enumerate() {
            assert_eq!(t.is_ready(gi), ready.contains(&gi), "is_ready({gi})");
            assert_eq!(t.is_executed(gi), done, "is_executed({gi})");
        }
        assert_eq!(t.n_remaining(), ops.len() - log.len());
    }

    /// A random walk: each step executes a ready gate (picked by `s`) or
    /// rolls back the latest one, checking against the oracle after each.
    fn walk(
        t: &mut DependencyTracker,
        n: u32,
        ops: &[Operands],
        log: &mut Vec<usize>,
        steps: &[u32],
    ) {
        for &s in steps {
            let ready = t.ready_gates();
            if ready.is_empty() || (s % 3 == 0 && !log.is_empty()) {
                if let Some(gi) = log.pop() {
                    t.unexecute(gi);
                }
            } else {
                let gi = ready[s as usize % ready.len()];
                t.execute(gi);
                log.push(gi);
            }
            check(t, n, ops, log);
        }
    }

    /// Distinct operands for a 1-, 2- or 3-qubit gate from three draws.
    fn gate(n: u32, kind: u8, r: [u32; 3]) -> Gate {
        let a = r[0] % n;
        let b = (a + 1 + r[1] % (n - 1)) % n;
        // The (r2 mod n-2)-th qubit other than a and b.
        let mut c = r[2] % (n - 2);
        for skip in [a.min(b), a.max(b)] {
            if c >= skip {
                c += 1;
            }
        }
        match kind {
            0 => Gate::H(a),
            1 => Gate::CZ(a, b),
            2 => Gate::CNot {
                target: a,
                control: b,
            },
            3 => Gate::CCZ(a, b, c),
            _ => Gate::Toffoli {
                target: a,
                c1: b,
                c2: c,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_live_frontier_matches_its_definition(
            n in 3u32..=7,
            draws in prop::collection::vec((0u8..5, 0u32..1000, 0u32..1000, 0u32..1000, 0u8..2), 0..40),
            steps in prop::collection::vec(0u32..1 << 20, 0..80),
        ) {
            let mut c = Circuit::new(n);
            for &(kind, r0, r1, r2, _) in &draws {
                c.push(gate(n, kind, [r0, r1, r2]));
            }
            let all: Vec<Operands> = c.gates().iter().map(Gate::qubits).collect();
            // A random subset of the gates, through `over`.
            let subset: Vec<Operands> = all
                .iter()
                .zip(&draws)
                .filter(|(_, d)| d.4 == 1)
                .map(|(&qs, _)| qs)
                .collect();
            for (mut t, ops) in [
                (DependencyTracker::new(&c), all.clone()),
                (DependencyTracker::over(n, subset.clone()), subset),
            ] {
                let mut log = Vec::new();
                check(&t, n, &ops, &log);
                let (first, second) = steps.split_at(steps.len() / 2);
                walk(&mut t, n, &ops, &mut log, first);
                // A clone diverges from the original on other choices.
                let (mut u, mut ulog) = (t.clone(), log.clone());
                let other: Vec<u32> = second.iter().map(|s| s / 7 + 1).collect();
                walk(&mut t, n, &ops, &mut log, second);
                walk(&mut u, n, &ops, &mut ulog, &other);
                // Roll both back in reverse to the start.
                for (t, log) in [(&mut t, &mut log), (&mut u, &mut ulog)] {
                    while let Some(gi) = log.pop() {
                        t.unexecute(gi);
                        check(t, n, &ops, log);
                    }
                }
            }
        }
    }
}
