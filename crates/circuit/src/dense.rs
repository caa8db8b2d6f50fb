//! Dense reference simulator — the workspace's ground truth.
//!
//! Applies a k-qubit gate the way §2 of the paper states it: as its
//! 2^k × 2^k matrix on each of the 2^(n−k) groups of amplitudes that
//! differ only in the operand bits. Each output is `Σ_j U[i][j]·in[j]` from
//! zero, zero entries skipped, j in ascending order of its amplitude's
//! index — the terms, order and skips of a row of the explicit 2^n × 2^n
//! Kronecker embedding times the state, so the bits are the same at
//! O(2^n·2^k) per gate instead of O(4^n), in place. The group offsets come
//! from a bit loop of this module's own: nothing here calls
//! `GateMatrix::embed`, the scheduler's fusion primitive. Every optimized
//! execution path (kernels, fused clusters, scheduled circuits, the
//! distributed simulator, the baseline simulator) is tested against this
//! module.

use crate::circuit::Circuit;
use crate::gate::Gate;
use qsim_util::complex::Complex;
use qsim_util::matrix::GateMatrix;
use qsim_util::Real;

/// Largest state the reference accepts: 2^20 amplitudes, where a 4×5 d25
/// circuit takes seconds in a release build.
pub const MAX_DENSE_QUBITS: u32 = 20;

/// The all-zeros initial state |0…0⟩.
pub fn zero_state<T: Real>(n: u32) -> Vec<Complex<T>> {
    assert!(n <= MAX_DENSE_QUBITS, "state too large");
    let mut v = vec![Complex::zero(); 1usize << n];
    v[0] = Complex::one();
    v
}

/// The uniform superposition 2^{−n/2}·(1,…,1)ᵀ — the state after the
/// initial Hadamard layer, which the paper's simulator starts from
/// directly (§3.6).
pub fn uniform_state<T: Real>(n: u32) -> Vec<Complex<T>> {
    let len = 1usize << n;
    let amp = T::ONE / T::from_usize(len).sqrt();
    vec![Complex::new(amp, T::ZERO); len]
}

/// Apply the k-qubit matrix `m` to an n-qubit state in place; operand `j`
/// of `m` (bit `j` of its row and column indices) acts on `qubits[j]`.
pub fn apply_matrix_dense<T: Real>(
    state: &mut [Complex<T>],
    n: u32,
    qubits: &[u32],
    m: &GateMatrix<T>,
) {
    assert!(
        n <= MAX_DENSE_QUBITS,
        "dense reference limited to {MAX_DENSE_QUBITS} qubits"
    );
    assert_eq!(state.len(), 1usize << n);
    assert_eq!(qubits.len(), m.k() as usize, "operand count mismatch");
    let mut mask = 0usize;
    for &q in qubits {
        assert!(q < n && mask >> q & 1 == 0, "bad operands {qubits:?}");
        mask |= 1 << q;
    }
    // Offset of local index j within its group: bit t of j at qubits[t].
    let offset = |j: usize| {
        let bits = qubits.iter().enumerate().filter(|&(t, _)| j >> t & 1 == 1);
        bits.fold(0, |o, (_, &q)| o | 1usize << q)
    };
    // (offset, local index) in ascending offset: the order a row of the
    // explicit embedding visits its nonzero columns in.
    let mut cols: Vec<(usize, usize)> = (0..m.dim()).map(|j| (offset(j), j)).collect();
    cols.sort_unstable();
    let mut group = vec![Complex::zero(); cols.len()];
    // Every index with zeros at the operand bits, ascending.
    let mut base = 0;
    while base < state.len() {
        for (g, &(o, _)) in group.iter_mut().zip(&cols) {
            *g = state[base | o];
        }
        for &(o, i) in &cols {
            let mut acc = Complex::zero();
            for (&(_, j), &s) in cols.iter().zip(&group) {
                let x = m.get(i, j);
                if x != Complex::zero() {
                    acc += x * s;
                }
            }
            state[base | o] = acc;
        }
        base = ((base | mask) + 1) & !mask;
    }
}

/// Apply one gate: its matrix on its operands.
pub fn apply_gate_dense<T: Real>(state: &mut [Complex<T>], n: u32, gate: &Gate) {
    apply_matrix_dense(state, n, &gate.qubits(), &gate.matrix());
}

/// Run a whole circuit from |0…0⟩ and return the final state.
pub fn simulate_dense<T: Real>(circuit: &Circuit) -> Vec<Complex<T>> {
    let n = circuit.n_qubits();
    let mut state = zero_state::<T>(n);
    for g in circuit.gates() {
        apply_gate_dense(&mut state, n, g);
    }
    state
}

/// Output probabilities |α_i|².
pub fn probabilities<T: Real>(state: &[Complex<T>]) -> Vec<T> {
    state.iter().map(|a| a.norm_sqr()).collect()
}

/// Shannon entropy of the output distribution in bits — the observable
/// the paper computes for the 36-qubit Edison run (§4.2.2).
pub fn entropy<T: Real>(state: &[Complex<T>]) -> T {
    let mut h = T::ZERO;
    for a in state {
        let p = a.norm_sqr();
        if p > T::ZERO {
            h -= p * p.log2();
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supremacy::{supremacy_circuit, SupremacySpec};
    use qsim_util::{c64, Xoshiro256};

    #[test]
    fn zero_and_uniform_states() {
        let z = zero_state::<f64>(3);
        assert_eq!(z[0], c64::one());
        assert!(z[1..].iter().all(|&a| a == c64::zero()));
        let u = uniform_state::<f64>(3);
        let norm: f64 = u.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-12);
        assert!((u[5].re - 1.0 / 8f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn bell_state() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let s = simulate_dense::<f64>(&c);
        let r = std::f64::consts::FRAC_1_SQRT_2;
        assert!((s[0] - c64::new(r, 0.0)).abs() < 1e-12);
        assert!((s[3] - c64::new(r, 0.0)).abs() < 1e-12);
        assert!(s[1].abs() < 1e-12 && s[2].abs() < 1e-12);
        // Entropy of a Bell state's computational distribution is 1 bit.
        assert!((entropy(&s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_layer_gives_uniform_state() {
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.h(q);
        }
        let s = simulate_dense::<f64>(&c);
        let u = uniform_state::<f64>(4);
        assert!(qsim_util::complex::max_dist(&s, &u) < 1e-12);
    }

    #[test]
    fn ghz_probabilities() {
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).cnot(1, 2);
        let s = simulate_dense::<f64>(&c);
        let p = probabilities(&s);
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[7] - 0.5).abs() < 1e-12);
        assert!(p[1..7].iter().all(|&x| x < 1e-12));
    }

    #[test]
    fn supremacy_circuit_preserves_norm_and_entangles() {
        let spec = SupremacySpec {
            rows: 3,
            cols: 3,
            depth: 14,
            seed: 2,
        };
        let c = supremacy_circuit(&spec);
        let s = simulate_dense::<f64>(&c);
        let norm: f64 = s.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-10);
        // Deep random circuits approach Porter–Thomas: entropy close to
        // (n − 1/ln2·(1−γ)) ≈ n − 0.61 bits; far above a product state's.
        let h = entropy(&s);
        assert!(h > 7.0, "entropy {h} too low for a deep 9-qubit circuit");
        assert!(h <= 9.0 + 1e-9);
    }

    #[test]
    fn cz_phase_only_affects_11_component() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cz(0, 1);
        let s = simulate_dense::<f64>(&c);
        assert!((s[0].re - 0.5).abs() < 1e-12);
        assert!((s[1].re - 0.5).abs() < 1e-12);
        assert!((s[2].re - 0.5).abs() < 1e-12);
        assert!((s[3].re + 0.5).abs() < 1e-12);
    }

    #[test]
    fn x_half_twice_equals_x() {
        let mut c1 = Circuit::new(1);
        c1.sqrt_x(0).sqrt_x(0);
        let mut c2 = Circuit::new(1);
        c2.x(0);
        let a = simulate_dense::<f64>(&c1);
        let b = simulate_dense::<f64>(&c2);
        assert!(qsim_util::complex::max_dist(&a, &b) < 1e-12);
    }

    #[test]
    fn f32_reference_close_to_f64() {
        let spec = SupremacySpec {
            rows: 2,
            cols: 3,
            depth: 10,
            seed: 9,
        };
        let c = supremacy_circuit(&spec);
        let a = simulate_dense::<f64>(&c);
        let b = simulate_dense::<f32>(&c);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x.re - y.re as f64).abs() < 1e-4);
            assert!((x.im - y.im as f64).abs() < 1e-4);
        }
    }

    /// The explicit loop the reference replaced: a row of the 2^n × 2^n
    /// embedding times the state, zero entries skipped.
    fn apply_gate_explicit<T: Real>(state: &mut [Complex<T>], n: u32, gate: &Gate) {
        let big = gate.matrix::<T>().embed(n, &gate.qubits());
        let mut out = vec![Complex::zero(); state.len()];
        for (r, o) in out.iter_mut().enumerate() {
            let mut acc = Complex::zero();
            for (c, &s) in state.iter().enumerate() {
                let m = big.get(r, c);
                if m != Complex::zero() {
                    acc += m * s;
                }
            }
            *o = acc;
        }
        state.copy_from_slice(&out);
    }

    /// One gate of every variant on distinct random operands of `n`
    /// qubits, in random order, each variant that fits.
    fn every_variant(n: u32, rng: &mut Xoshiro256) -> Vec<Gate> {
        use Gate::*;
        let mut qs: Vec<u32> = (0..n).collect();
        rng.shuffle(&mut qs);
        let (a, b, c) = (qs[0], qs[n as usize / 2], qs[n as usize - 1]);
        let theta = rng.next_f64() * 6.0;
        let mut entry = || c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5);
        let u1 = GateMatrix::from_rows(1, (0..4).map(|_| entry()).collect());
        // Zeros on the diagonal, for the skips.
        let u2 = (0..16).map(|i| [entry(), c64::zero()][usize::from(i % 5 == 0)]);
        let u2 = GateMatrix::from_rows(2, u2.collect());
        let mut gates = vec![
            H(a),
            T(a),
            Tdg(a),
            S(a),
            Sdg(a),
            X(a),
            Y(a),
            Z(a),
            SqrtX(a),
            SqrtY(a),
            Rz(a, theta),
            Rx(a, theta),
            Ry(a, theta),
            U1(a, Box::new(u1)),
        ];
        if n >= 2 {
            let cnot = CNot {
                target: a,
                control: c,
            };
            gates.extend([CZ(a, c), cnot, Swap(c, a), CPhase(c, a, theta)]);
            gates.push(U2(c, a, Box::new(u2)));
        }
        if n >= 3 {
            gates.extend([
                CCZ(b, c, a),
                Toffoli {
                    target: c,
                    c1: a,
                    c2: b,
                },
            ]);
        }
        gates
    }

    fn random_state<T: Real>(n: u32, rng: &mut Xoshiro256) -> Vec<Complex<T>> {
        let mut amp = || T::from_f64(rng.next_f64() - 0.5);
        (0..1usize << n)
            .map(|_| Complex::new(amp(), amp()))
            .collect()
    }

    fn bits<T: Real>(state: &[Complex<T>]) -> Vec<u64> {
        state
            .iter()
            .flat_map(|z| [z.re, z.im])
            .map(T::to_bits_u64)
            .collect()
    }

    /// Every gate of `gates` through both loops from one random state.
    fn assert_same_bits<T: Real>(n: u32, gates: &[Gate], rng: &mut Xoshiro256) {
        let mut grouped = random_state::<T>(n, rng);
        let mut explicit = grouped.clone();
        for g in gates {
            apply_gate_dense(&mut grouped, n, g);
            apply_gate_explicit(&mut explicit, n, g);
            assert_eq!(bits(&grouped), bits(&explicit), "{g:?} at n = {n}");
        }
    }

    #[test]
    fn grouped_apply_matches_the_explicit_embedding_to_the_bit() {
        let mut rng = Xoshiro256::seed_from_u64(49);
        for n in 1..=8 {
            let gates = every_variant(n, &mut rng);
            assert_same_bits::<f64>(n, &gates, &mut rng);
            assert_same_bits::<f32>(n, &gates, &mut rng);
        }
        // Multi-operand gates with their operands out of order; a dense U2,
        // so the order of its sums shows.
        let u = (0..16).map(|_| c64::new(rng.next_f64(), rng.next_f64() - 0.5));
        let gates = [
            Gate::CNot {
                target: 3,
                control: 1,
            },
            Gate::Toffoli {
                target: 0,
                c1: 4,
                c2: 2,
            },
            Gate::U2(4, 1, Box::new(GateMatrix::from_rows(2, u.collect()))),
        ];
        assert_same_bits::<f64>(6, &gates, &mut rng);
        assert_same_bits::<f32>(6, &gates, &mut rng);
    }
}
