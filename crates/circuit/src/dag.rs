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
/// The chains and operand lists are immutable and shared, so a clone
/// (one per scheduler search branch) copies only the cursors and the
/// executed flags.
#[derive(Clone, Debug)]
pub struct DependencyTracker {
    /// Gate indices touching each qubit, in program order.
    chains: Arc<[Vec<usize>]>,
    /// Qubits of each gate.
    gate_qubits: Arc<[Operands]>,
    /// Next unexecuted position within each qubit's chain.
    cursor: Vec<usize>,
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
    pub fn over(n_qubits: u32, gate_qubits: Vec<Operands>) -> Self {
        let mut chains = vec![Vec::new(); n_qubits as usize];
        for (gi, qs) in gate_qubits.iter().enumerate() {
            for &q in qs.iter() {
                chains[q as usize].push(gi);
            }
        }
        Self {
            cursor: vec![0; chains.len()],
            executed: vec![false; gate_qubits.len()],
            n_executed: 0,
            chains: chains.into(),
            gate_qubits: gate_qubits.into(),
        }
    }

    /// Is gate `gi` at the front of all its qubits' chains?
    pub fn is_ready(&self, gi: usize) -> bool {
        !self.executed[gi]
            && self.gate_qubits[gi]
                .iter()
                .all(|&q| self.next_on_qubit(q) == Some(gi))
    }

    /// Mark a ready gate as executed, advancing its qubits' cursors.
    /// Panics if the gate is not ready (scheduling bug).
    pub fn execute(&mut self, gi: usize) {
        assert!(self.is_ready(gi), "gate {gi} executed out of order");
        for q in self.gate_qubits[gi] {
            self.cursor[q as usize] += 1;
        }
        self.executed[gi] = true;
        self.n_executed += 1;
    }

    /// Undo [`DependencyTracker::execute`] of `gi`, which must be the
    /// latest gate executed on each of its qubits: trials roll back in
    /// reverse execution order.
    pub fn unexecute(&mut self, gi: usize) {
        for q in self.gate_qubits[gi] {
            self.cursor[q as usize] -= 1;
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

    /// [`DependencyTracker::ready_gates`] into a caller-owned buffer. The
    /// frontier is a subset of the chain fronts, and a gate ready on k
    /// qubits fronts k chains: sort and dedup.
    pub fn ready_gates_into(&self, out: &mut Vec<usize>) {
        out.clear();
        for q in 0..self.cursor.len() as u32 {
            if let Some(gi) = self.next_on_qubit(q) {
                if self.is_ready(gi) {
                    out.push(gi);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Next unexecuted gate on qubit `q`, if any.
    pub fn next_on_qubit(&self, q: u32) -> Option<usize> {
        self.chains[q as usize]
            .get(self.cursor[q as usize])
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
