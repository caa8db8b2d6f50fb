//! Circuit container: a flat gate list with clock-cycle annotations.
//!
//! Supremacy circuits are naturally organized in clock cycles (Fig. 1);
//! the per-gate baseline simulator of \[5\] executes cycle by cycle, while
//! our scheduler is free to reorder across cycles (§3.6.1). The container
//! keeps both views: `gates` in program order and `cycle_bounds` marking
//! where each clock cycle starts.

use crate::gate::Gate;

/// An n-qubit circuit.
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    n_qubits: u32,
    gates: Vec<Gate>,
    /// `cycle_bounds[c]` = index of the first gate of clock cycle `c`.
    /// Always starts with 0 once any cycle is opened; a trailing implicit
    /// bound is `gates.len()`.
    cycle_bounds: Vec<usize>,
}

impl Circuit {
    /// An empty `n_qubits`-qubit circuit; `1 ≤ n ≤ 63`, the bound the
    /// scheduler's `u64` position masks rely on.
    pub fn new(n_qubits: u32) -> Self {
        assert!((1..=63).contains(&n_qubits), "unsupported qubit count");
        Self {
            n_qubits,
            gates: Vec::new(),
            cycle_bounds: Vec::new(),
        }
    }

    #[inline]
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Append a gate, validating operands.
    pub fn push(&mut self, g: Gate) -> &mut Self {
        let qs = g.qubits();
        for (i, &q) in qs.iter().enumerate() {
            assert!(
                q < self.n_qubits,
                "qubit {q} out of range (n={})",
                self.n_qubits
            );
            assert!(!qs[..i].contains(&q), "gate needs distinct operands");
        }
        self.gates.push(g);
        self
    }

    /// Mark the start of a new clock cycle at the current position.
    pub fn begin_cycle(&mut self) -> &mut Self {
        self.cycle_bounds.push(self.gates.len());
        self
    }

    /// Number of annotated clock cycles (0 if the circuit was built
    /// without cycle marks).
    pub fn n_cycles(&self) -> usize {
        self.cycle_bounds.len()
    }

    /// Gate index range of clock cycle `c`.
    pub fn cycle_range(&self, c: usize) -> core::ops::Range<usize> {
        let start = self.cycle_bounds[c];
        let end = self
            .cycle_bounds
            .get(c + 1)
            .copied()
            .unwrap_or(self.gates.len());
        start..end
    }

    /// Gates of clock cycle `c`.
    pub fn cycle(&self, c: usize) -> &[Gate] {
        &self.gates[self.cycle_range(c)]
    }

    /// Builder sugar.
    pub fn h(&mut self, q: u32) -> &mut Self {
        self.push(Gate::H(q))
    }
    pub fn t(&mut self, q: u32) -> &mut Self {
        self.push(Gate::T(q))
    }
    pub fn x(&mut self, q: u32) -> &mut Self {
        self.push(Gate::X(q))
    }
    pub fn z(&mut self, q: u32) -> &mut Self {
        self.push(Gate::Z(q))
    }
    pub fn sqrt_x(&mut self, q: u32) -> &mut Self {
        self.push(Gate::SqrtX(q))
    }
    pub fn sqrt_y(&mut self, q: u32) -> &mut Self {
        self.push(Gate::SqrtY(q))
    }
    pub fn cz(&mut self, a: u32, b: u32) -> &mut Self {
        self.push(Gate::CZ(a, b))
    }
    pub fn cnot(&mut self, control: u32, target: u32) -> &mut Self {
        self.push(Gate::CNot { target, control })
    }

    /// Count gates satisfying a predicate.
    pub fn count(&self, pred: impl Fn(&Gate) -> bool) -> usize {
        self.gates.iter().filter(|g| pred(g)).count()
    }

    /// Relabel all qubits through a mapping (§3.6.2 qubit remapping).
    /// `map[old] = new`; must be a bijection on `0..n`.
    pub fn remapped(&self, map: &[u32]) -> Circuit {
        assert_eq!(map.len(), self.n_qubits as usize);
        let mut seen = vec![false; map.len()];
        for &m in map {
            assert!(
                (m as usize) < map.len() && !seen[m as usize],
                "invalid qubit map"
            );
            seen[m as usize] = true;
        }
        Circuit {
            n_qubits: self.n_qubits,
            gates: self
                .gates
                .iter()
                .map(|g| g.map_qubits(|q| map[q as usize]))
                .collect(),
            cycle_bounds: self.cycle_bounds.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_cycles() {
        let mut c = Circuit::new(3);
        c.begin_cycle().h(0).h(1).h(2);
        c.begin_cycle().cz(0, 1);
        c.begin_cycle().t(0).sqrt_x(1);
        assert_eq!(c.len(), 6);
        assert_eq!(c.n_cycles(), 3);
        assert_eq!(c.cycle(0).len(), 3);
        assert_eq!(c.cycle(1).len(), 1);
        assert_eq!(c.cycle(2).len(), 2);
        assert_eq!(c.cycle_range(2), 4..6);
        assert_eq!(c.count(|g| g.is_diagonal()), 2); // CZ + T
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_operand() {
        Circuit::new(2).h(2);
    }

    #[test]
    #[should_panic(expected = "distinct operands")]
    fn rejects_degenerate_two_qubit_gate() {
        Circuit::new(2).cz(1, 1);
    }

    #[test]
    fn remap_is_bijective_relabeling() {
        let mut c = Circuit::new(3);
        c.h(0).cz(1, 2);
        let r = c.remapped(&[2, 0, 1]);
        assert_eq!(r.gates()[0], Gate::H(2));
        assert_eq!(r.gates()[1], Gate::CZ(0, 1));
        assert_eq!(r.n_qubits(), 3);
    }

    #[test]
    #[should_panic(expected = "invalid qubit map")]
    fn remap_rejects_non_bijection() {
        let mut c = Circuit::new(2);
        c.h(0);
        let _ = c.remapped(&[0, 0]);
    }

    #[test]
    fn empty_circuit() {
        let c = Circuit::new(5);
        assert!(c.is_empty());
        assert_eq!(c.n_cycles(), 0);
    }
}
