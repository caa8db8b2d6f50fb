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

    /// The inverse circuit C†: the gates in reverse order, each replaced
    /// by its inverse — T ↔ T†, S ↔ S†, √X, √Y and the dense unitaries by
    /// their conjugate transposes, the rotations and the controlled phase
    /// by their negated angles, and every other gate by itself. Clock
    /// cycles are not carried over.
    pub fn adjoint(&self) -> Circuit {
        use Gate::*;
        let dense = |g: &Gate| Box::new(g.matrix::<f64>().dagger());
        let mut out = Circuit::new(self.n_qubits);
        for g in self.gates.iter().rev() {
            out.push(match g {
                T(q) => Tdg(*q),
                Tdg(q) => T(*q),
                S(q) => Sdg(*q),
                Sdg(q) => S(*q),
                SqrtX(q) | SqrtY(q) | U1(q, _) => U1(*q, dense(g)),
                U2(a, b, m) => U2(*a, *b, Box::new(m.dagger())),
                Rz(q, t) => Rz(*q, -t),
                Rx(q, t) => Rx(*q, -t),
                Ry(q, t) => Ry(*q, -t),
                CPhase(a, b, t) => CPhase(*a, *b, -t),
                H(_)
                | X(_)
                | Y(_)
                | Z(_)
                | CZ(..)
                | CNot { .. }
                | Swap(..)
                | CCZ(..)
                | Toffoli { .. } => g.clone(),
            });
        }
        out
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
    fn adjoint_undoes_every_gate() {
        use crate::dense::simulate_dense;
        use qsim_util::matrix::GateMatrix;
        let u1 = Box::new(Gate::SqrtY(0).matrix::<f64>().matmul(&Gate::T(0).matrix()));
        let u2: Box<GateMatrix<f64>> = Box::new(
            Gate::CNot {
                target: 0,
                control: 1,
            }
            .matrix()
            .matmul(&Gate::H(0).matrix().kron(&Gate::SqrtX(0).matrix())),
        );
        let mut c = Circuit::new(3);
        c.x(0).x(2);
        let prep = c.len();
        for g in [
            Gate::H(0),
            Gate::T(1),
            Gate::Tdg(2),
            Gate::S(0),
            Gate::Sdg(1),
            Gate::Y(2),
            Gate::Z(0),
            Gate::SqrtX(1),
            Gate::SqrtY(2),
            Gate::Rz(0, 0.3),
            Gate::Rx(1, -1.1),
            Gate::Ry(2, 2.0),
            Gate::CZ(0, 1),
            Gate::CNot {
                target: 2,
                control: 0,
            },
            Gate::Swap(1, 2),
            Gate::CPhase(0, 2, 0.7),
            Gate::CCZ(0, 1, 2),
            Gate::Toffoli {
                target: 1,
                c1: 0,
                c2: 2,
            },
            Gate::U1(2, u1.clone()),
            Gate::U2(1, 0, u2.clone()),
        ] {
            c.push(g);
        }
        let mut body = Circuit::new(3);
        for g in &c.gates()[prep..] {
            body.push(g.clone());
        }
        for g in body.adjoint().gates() {
            c.push(g.clone());
        }
        // X on qubits 0 and 2 prepared |101⟩ = index 5; C·C† returns it.
        let out = simulate_dense::<f64>(&c);
        for (i, a) in out.iter().enumerate() {
            let want = if i == 5 { 1.0 } else { 0.0 };
            assert!((a.norm_sqr() - want).abs() < 1e-12, "index {i}: {a:?}");
        }
        assert_eq!(body.adjoint().adjoint().len(), body.len());
    }

    #[test]
    fn empty_circuit() {
        let c = Circuit::new(5);
        assert!(c.is_empty());
        assert_eq!(c.n_cycles(), 0);
    }
}
