//! The gate set.
//!
//! Matrix conventions follow §2 of the paper (and `qsim_util::matrix`):
//! little-endian operand order, so for two-operand gates the operand list
//! `[a, b]` maps `a` to index bit 0 and `b` to bit 1. CZ is symmetric; for
//! CNOT the operand order is `[target, control]`.
//!
//! The scheduler cares about three structural classes (§3.5):
//! * **diagonal** gates (T, T†, S, S†, Z, Rz, CZ, CPhase) — on global
//!   qubits they reduce to rank-conditional phases, no communication;
//! * **permutation** gates (X, CNOT) — on global qubits they reduce to a
//!   rank renumbering;
//! * everything else is **dense** and must act on local qubits.

use qsim_util::complex::Complex;
use qsim_util::matrix::GateMatrix;
use qsim_util::Real;

/// A quantum gate instance (operation + operand qubits).
#[derive(Clone, Debug, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H(u32),
    /// T = diag(1, e^{iπ/4}).
    T(u32),
    /// T† = diag(1, e^{−iπ/4}).
    Tdg(u32),
    /// Phase gate S = diag(1, i).
    S(u32),
    /// S† = diag(1, −i).
    Sdg(u32),
    /// Pauli-X (NOT).
    X(u32),
    /// Pauli-Y.
    Y(u32),
    /// Pauli-Z = diag(1, −1).
    Z(u32),
    /// X^{1/2} = ((1+i, 1−i), (1−i, 1+i))/2 — supremacy-circuit gate.
    SqrtX(u32),
    /// Y^{1/2} = ((1+i, −1−i), (1+i, 1+i))/2 — supremacy-circuit gate.
    SqrtY(u32),
    /// Z-rotation diag(1, e^{iθ}) (phase convention: R_z up to global
    /// phase).
    Rz(u32, f64),
    /// X-rotation cos(θ/2)·I − i·sin(θ/2)·X.
    Rx(u32, f64),
    /// Y-rotation cos(θ/2)·I − i·sin(θ/2)·Y.
    Ry(u32, f64),
    /// Controlled-Z (symmetric).
    CZ(u32, u32),
    /// Controlled-NOT; operand order `[target, control]`.
    CNot { target: u32, control: u32 },
    /// SWAP.
    Swap(u32, u32),
    /// Controlled phase diag(1,1,1,e^{iθ}) (symmetric).
    CPhase(u32, u32, f64),
    /// Doubly-controlled Z (symmetric in all three operands; diagonal).
    CCZ(u32, u32, u32),
    /// Toffoli (CCX); operand order `[target, control1, control2]`.
    Toffoli { target: u32, c1: u32, c2: u32 },
    /// Arbitrary dense single-qubit unitary.
    U1(u32, Box<GateMatrix<f64>>),
    /// Arbitrary dense two-qubit unitary, operands `[a, b]` little-endian.
    U2(u32, u32, Box<GateMatrix<f64>>),
}

/// A gate's operand list, held inline (no gate has more than three
/// operands). Derefs to `&[u32]`; iterating it by value yields the
/// qubits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Operands {
    qs: [u32; 3],
    len: u8,
}

impl std::ops::Deref for Operands {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        &self.qs[..self.len as usize]
    }
}

impl IntoIterator for Operands {
    type Item = u32;
    type IntoIter = std::iter::Take<std::array::IntoIter<u32, 3>>;
    fn into_iter(self) -> Self::IntoIter {
        self.qs.into_iter().take(self.len as usize)
    }
}

impl Gate {
    /// Operand qubits, in matrix (little-endian) order.
    pub fn qubits(&self) -> Operands {
        use Gate::*;
        let (qs, len) = match *self {
            H(q)
            | T(q)
            | Tdg(q)
            | S(q)
            | Sdg(q)
            | X(q)
            | Y(q)
            | Z(q)
            | SqrtX(q)
            | SqrtY(q)
            | Rz(q, _)
            | Rx(q, _)
            | Ry(q, _)
            | U1(q, _) => ([q, 0, 0], 1),
            CZ(a, b) | Swap(a, b) | CPhase(a, b, _) | U2(a, b, _) => ([a, b, 0], 2),
            CNot { target, control } => ([target, control, 0], 2),
            CCZ(a, b, c) => ([a, b, c], 3),
            Toffoli { target, c1, c2 } => ([target, c1, c2], 3),
        };
        Operands { qs, len }
    }

    /// Number of operand qubits.
    pub fn arity(&self) -> usize {
        self.qubits().len()
    }

    /// Diagonal in the computational basis? Diagonal gates on global
    /// qubits need no communication (§3.5).
    pub fn is_diagonal(&self) -> bool {
        use Gate::*;
        match self {
            T(_)
            | Tdg(_)
            | S(_)
            | Sdg(_)
            | Z(_)
            | Rz(_, _)
            | CZ(_, _)
            | CPhase(_, _, _)
            | CCZ(_, _, _) => true,
            U1(_, m) => m.as_diagonal().is_some(),
            U2(_, _, m) => m.as_diagonal().is_some(),
            _ => false,
        }
    }

    /// A basis-state permutation (possibly with phases on the *local*
    /// part)? X and CNOT on global qubits reduce to rank renumbering
    /// (§3.5).
    pub fn is_permutation(&self) -> bool {
        matches!(
            self,
            Gate::X(_) | Gate::CNot { .. } | Gate::Swap(_, _) | Gate::Toffoli { .. }
        )
    }

    /// Dense (neither diagonal nor a permutation): must be executed on
    /// local qubits.
    pub fn is_dense(&self) -> bool {
        !self.is_diagonal() && !self.is_permutation()
    }

    /// Short mnemonic for debug output.
    pub fn name(&self) -> &'static str {
        use Gate::*;
        match self {
            H(_) => "H",
            T(_) => "T",
            Tdg(_) => "Tdg",
            S(_) => "S",
            Sdg(_) => "Sdg",
            X(_) => "X",
            Y(_) => "Y",
            Z(_) => "Z",
            SqrtX(_) => "X^1/2",
            SqrtY(_) => "Y^1/2",
            Rz(_, _) => "Rz",
            Rx(_, _) => "Rx",
            Ry(_, _) => "Ry",
            CZ(_, _) => "CZ",
            CNot { .. } => "CNOT",
            Swap(_, _) => "SWAP",
            CPhase(_, _, _) => "CPhase",
            CCZ(_, _, _) => "CCZ",
            Toffoli { .. } => "Toffoli",
            U1(_, _) => "U1",
            U2(_, _, _) => "U2",
        }
    }

    /// Dense matrix in the operand order returned by [`Gate::qubits`].
    pub fn matrix<P: Real>(&self) -> GateMatrix<P> {
        use Gate::*;
        let h = P::HALF;
        let s = P::frac_1_sqrt_2();
        let z = Complex::<P>::zero;
        let o = Complex::<P>::one;
        let m1 = |e: [Complex<P>; 4]| GateMatrix::from_rows(1, e.to_vec());
        match *self {
            H(_) => m1([
                Complex::new(s, P::ZERO),
                Complex::new(s, P::ZERO),
                Complex::new(s, P::ZERO),
                Complex::new(-s, P::ZERO),
            ]),
            T(_) => diag1(Complex::from_polar(P::ONE, P::pi() * P::from_f64(0.25))),
            Tdg(_) => diag1(Complex::from_polar(P::ONE, -P::pi() * P::from_f64(0.25))),
            S(_) => diag1(Complex::i()),
            Sdg(_) => diag1(-Complex::i()),
            Z(_) => diag1(-o()),
            Rz(_, theta) => diag1(Complex::from_polar(P::ONE, P::from_f64(theta))),
            X(_) => m1([z(), o(), o(), z()]),
            Y(_) => m1([z(), -Complex::i(), Complex::i(), z()]),
            SqrtX(_) => m1([
                Complex::new(h, h),
                Complex::new(h, -h),
                Complex::new(h, -h),
                Complex::new(h, h),
            ]),
            SqrtY(_) => m1([
                Complex::new(h, h),
                Complex::new(-h, -h),
                Complex::new(h, h),
                Complex::new(h, h),
            ]),
            Rx(_, theta) => {
                let (c, sn) = half_angle::<P>(theta);
                m1([
                    Complex::new(c, P::ZERO),
                    Complex::new(P::ZERO, -sn),
                    Complex::new(P::ZERO, -sn),
                    Complex::new(c, P::ZERO),
                ])
            }
            Ry(_, theta) => {
                let (c, sn) = half_angle::<P>(theta);
                m1([
                    Complex::new(c, P::ZERO),
                    Complex::new(-sn, P::ZERO),
                    Complex::new(sn, P::ZERO),
                    Complex::new(c, P::ZERO),
                ])
            }
            CZ(_, _) => {
                let mut m = GateMatrix::identity(2);
                m.set(3, 3, -o());
                m
            }
            CPhase(_, _, theta) => {
                let mut m = GateMatrix::identity(2);
                m.set(3, 3, Complex::from_polar(P::ONE, P::from_f64(theta)));
                m
            }
            CNot { .. } => {
                // Operands [target, control]: flip bit 0 when bit 1 set.
                let mut m = GateMatrix::identity(2);
                m.set(2, 2, z());
                m.set(3, 3, z());
                m.set(2, 3, o());
                m.set(3, 2, o());
                m
            }
            Swap(_, _) => {
                let mut m = GateMatrix::identity(2);
                m.set(1, 1, z());
                m.set(2, 2, z());
                m.set(1, 2, o());
                m.set(2, 1, o());
                m
            }
            CCZ(_, _, _) => {
                let mut m = GateMatrix::identity(3);
                m.set(7, 7, -o());
                m
            }
            Toffoli { .. } => {
                // Operands [target, c1, c2]: flip bit 0 when bits 1,2 set.
                let mut m = GateMatrix::identity(3);
                m.set(6, 6, z());
                m.set(7, 7, z());
                m.set(6, 7, o());
                m.set(7, 6, o());
                m
            }
            U1(_, ref m) => m.convert(),
            U2(_, _, ref m) => m.convert(),
        }
    }

    /// Remap operand qubits through `f` (used by qubit mapping, §3.6.2).
    pub fn map_qubits(&self, f: impl Fn(u32) -> u32) -> Gate {
        use Gate::*;
        match self.clone() {
            H(q) => H(f(q)),
            T(q) => T(f(q)),
            Tdg(q) => Tdg(f(q)),
            S(q) => S(f(q)),
            Sdg(q) => Sdg(f(q)),
            X(q) => X(f(q)),
            Y(q) => Y(f(q)),
            Z(q) => Z(f(q)),
            SqrtX(q) => SqrtX(f(q)),
            SqrtY(q) => SqrtY(f(q)),
            Rz(q, t) => Rz(f(q), t),
            Rx(q, t) => Rx(f(q), t),
            Ry(q, t) => Ry(f(q), t),
            CZ(a, b) => CZ(f(a), f(b)),
            CNot { target, control } => CNot {
                target: f(target),
                control: f(control),
            },
            Swap(a, b) => Swap(f(a), f(b)),
            CPhase(a, b, t) => CPhase(f(a), f(b), t),
            CCZ(a, b, c2) => CCZ(f(a), f(b), f(c2)),
            Toffoli { target, c1, c2 } => Toffoli {
                target: f(target),
                c1: f(c1),
                c2: f(c2),
            },
            U1(q, m) => U1(f(q), m),
            U2(a, b, m) => U2(f(a), f(b), m),
        }
    }
}

fn diag1<T: Real>(phase: Complex<T>) -> GateMatrix<T> {
    let mut m = GateMatrix::identity(1);
    m.set(1, 1, phase);
    m
}

fn half_angle<T: Real>(theta: f64) -> (T, T) {
    let t = T::from_f64(theta) * T::HALF;
    (t.cos(), t.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_util::c64;

    fn all_test_gates() -> Vec<Gate> {
        vec![
            Gate::H(0),
            Gate::T(1),
            Gate::Tdg(0),
            Gate::S(2),
            Gate::Sdg(0),
            Gate::X(1),
            Gate::Y(0),
            Gate::Z(3),
            Gate::SqrtX(0),
            Gate::SqrtY(1),
            Gate::Rz(0, 0.7),
            Gate::Rx(0, 1.1),
            Gate::Ry(0, -0.4),
            Gate::CZ(0, 1),
            Gate::CNot {
                target: 0,
                control: 1,
            },
            Gate::Swap(0, 2),
            Gate::CPhase(1, 2, 0.3),
            Gate::CCZ(0, 1, 2),
            Gate::Toffoli {
                target: 0,
                c1: 1,
                c2: 2,
            },
        ]
    }

    #[test]
    fn every_gate_matrix_is_unitary() {
        for g in all_test_gates() {
            let m: GateMatrix<f64> = g.matrix();
            assert!(
                m.unitarity_residual() < 1e-12,
                "{} not unitary: {}",
                g.name(),
                m.unitarity_residual()
            );
            assert_eq!(m.k() as usize, g.arity(), "{}", g.name());
        }
    }

    #[test]
    fn diagonality_classification_matches_matrices() {
        for g in all_test_gates() {
            let m: GateMatrix<f64> = g.matrix();
            assert_eq!(
                g.is_diagonal(),
                m.as_diagonal().is_some(),
                "{} diagonality mismatch",
                g.name()
            );
        }
    }

    #[test]
    fn sqrt_gates_square_to_paulis() {
        let sx: GateMatrix<f64> = Gate::SqrtX(0).matrix();
        let xx = sx.matmul(&sx);
        let x: GateMatrix<f64> = Gate::X(0).matrix();
        assert!(qsim_util::complex::max_dist(xx.entries(), x.entries()) < 1e-12);

        let sy: GateMatrix<f64> = Gate::SqrtY(0).matrix();
        let yy = sy.matmul(&sy);
        let y: GateMatrix<f64> = Gate::Y(0).matrix();
        // Y^{1/2}² = Y up to global phase; check |entries| and phase ratio.
        let ratio = yy.get(1, 0) / y.get(1, 0);
        for r in 0..2 {
            for c in 0..2 {
                let lhs = yy.get(r, c);
                let rhs = y.get(r, c) * ratio;
                assert!((lhs - rhs).abs() < 1e-12, "Y^1/2 squared mismatch");
            }
        }
        assert!((ratio.abs() - 1.0).abs() < 1e-12, "phase must be unit");
    }

    #[test]
    fn t_eighth_power_is_identity() {
        let t: GateMatrix<f64> = Gate::T(0).matrix();
        let mut p = GateMatrix::identity(1);
        for _ in 0..8 {
            p = p.matmul(&t);
        }
        assert!(
            qsim_util::complex::max_dist(p.entries(), GateMatrix::identity(1).entries()) < 1e-12
        );
    }

    #[test]
    fn s_equals_t_squared() {
        let t: GateMatrix<f64> = Gate::T(0).matrix();
        let s: GateMatrix<f64> = Gate::S(0).matrix();
        assert!(qsim_util::complex::max_dist(t.matmul(&t).entries(), s.entries()) < 1e-12);
    }

    #[test]
    fn cnot_operand_convention() {
        let m: GateMatrix<f64> = Gate::CNot {
            target: 5,
            control: 9,
        }
        .matrix();
        // qubits() = [target, control] = [5, 9]; bit0 = target, bit1 = control.
        assert_eq!(
            Gate::CNot {
                target: 5,
                control: 9
            }
            .qubits()[..],
            [5, 9]
        );
        // |control=1, target=0> = index 2 maps to index 3.
        assert_eq!(m.get(3, 2), c64::one());
        assert_eq!(m.get(0, 0), c64::one());
        assert_eq!(m.get(1, 1), c64::one());
    }

    #[test]
    fn rz_is_diagonal_phase() {
        let m: GateMatrix<f64> = Gate::Rz(0, 1.5).matrix();
        let d = m.as_diagonal().unwrap();
        assert_eq!(d[0], c64::one());
        assert!((d[1] - c64::from_polar(1.0, 1.5)).abs() < 1e-15);
    }

    #[test]
    fn permutation_classification() {
        assert!(Gate::X(0).is_permutation());
        assert!(Gate::CNot {
            target: 0,
            control: 1
        }
        .is_permutation());
        assert!(!Gate::H(0).is_permutation());
        assert!(Gate::H(0).is_dense());
        assert!(!Gate::T(0).is_dense());
        assert!(!Gate::X(0).is_dense());
        assert!(Gate::SqrtX(0).is_dense());
    }

    #[test]
    fn map_qubits_relabels() {
        let g = Gate::CNot {
            target: 1,
            control: 4,
        };
        let mapped = g.map_qubits(|q| q + 10);
        assert_eq!(mapped.qubits()[..], [11, 14]);
        assert_eq!(mapped.name(), "CNOT");
        // Matrix is label-independent.
        let a: GateMatrix<f64> = g.matrix();
        let b: GateMatrix<f64> = mapped.matrix();
        assert_eq!(a, b);
    }

    #[test]
    fn ccz_and_toffoli_semantics() {
        let ccz: GateMatrix<f64> = Gate::CCZ(0, 1, 2).matrix();
        let d = ccz.as_diagonal().expect("CCZ is diagonal");
        assert_eq!(d[7], -c64::one());
        assert!(d[..7].iter().all(|&x| x == c64::one()));

        let tof: GateMatrix<f64> = Gate::Toffoli {
            target: 0,
            c1: 1,
            c2: 2,
        }
        .matrix();
        // |c2 c1 t> = |110> (idx 6) -> |111> (idx 7).
        assert_eq!(tof.get(7, 6), c64::one());
        assert_eq!(tof.get(6, 7), c64::one());
        assert_eq!(tof.get(5, 5), c64::one());
        assert!(tof.as_diagonal().is_none());
        assert!(Gate::Toffoli {
            target: 0,
            c1: 1,
            c2: 2
        }
        .is_permutation());
        // H(t)·CCZ·H(t) == Toffoli.
        let h_on_t: GateMatrix<f64> = Gate::H(0).matrix();
        let h3 = h_on_t.embed(3, &[0]);
        let composed = h3.matmul(&ccz).matmul(&h3);
        assert!(qsim_util::complex::max_dist(composed.entries(), tof.entries()) < 1e-12);
    }

    #[test]
    fn f32_matrices_match_f64() {
        for g in all_test_gates() {
            let a: GateMatrix<f64> = g.matrix();
            let b: GateMatrix<f32> = g.matrix();
            for i in 0..a.dim() {
                for j in 0..a.dim() {
                    assert!(
                        (a.get(i, j).re - b.get(i, j).re as f64).abs() < 1e-6
                            && (a.get(i, j).im - b.get(i, j).im as f64).abs() < 1e-6,
                        "{} precision mismatch",
                        g.name()
                    );
                }
            }
        }
    }
}
