//! Textbook circuit constructions for tests: the quantum Fourier
//! transform, GHZ preparation and a 1-D CZ brickwork — structured
//! workloads beside the supremacy circuits the paper simulates.

use crate::circuit::Circuit;
use crate::gate::Gate;

/// The quantum Fourier transform on `n` qubits, little-endian:
/// `QFT|x⟩ = 2^{−n/2} Σ_k e^{2πi·xk/2^n} |k⟩`.
///
/// Standard construction: per qubit a Hadamard followed by controlled
/// phases of angle π/2^d, then a bit-reversal swap network.
pub fn qft(n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    // Build in big-endian order, then reverse with swaps.
    for j in (0..n).rev() {
        c.push(Gate::H(j));
        for d in 1..=j {
            let angle = std::f64::consts::PI / (1u64 << d) as f64;
            c.push(Gate::CPhase(j, j - d, angle));
        }
    }
    for q in 0..n / 2 {
        c.push(Gate::Swap(q, n - 1 - q));
    }
    c
}

/// GHZ preparation: H on qubit 0 then a CNOT ladder.
pub fn ghz(n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 1..n {
        c.cnot(q - 1, q);
    }
    c
}

/// A brickwork random-entangling circuit (alternating CZ layers with
/// random single-qubit gates) on a 1-D chain — a lighter workload than
/// the 2-D supremacy circuits for quick tests.
pub fn brickwork_1d(n: u32, layers: u32, seed: u64) -> Circuit {
    let mut rng = qsim_util::Xoshiro256::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    c.begin_cycle();
    for q in 0..n {
        c.h(q);
    }
    for layer in 0..layers {
        c.begin_cycle();
        for q in 0..n {
            match rng.next_below(3) {
                0 => c.push(Gate::T(q)),
                1 => c.push(Gate::SqrtX(q)),
                _ => c.push(Gate::SqrtY(q)),
            };
        }
        let start = layer % 2;
        let mut q = start;
        while q + 1 < n {
            c.cz(q, q + 1);
            q += 2;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{simulate_dense, zero_state};
    use qsim_util::c64;

    /// Direct DFT of a basis state |x⟩ for cross-checking the QFT.
    fn dft_of_basis(n: u32, x: usize) -> Vec<c64> {
        let len = 1usize << n;
        let norm = 1.0 / (len as f64).sqrt();
        (0..len)
            .map(|k| {
                let theta = 2.0 * std::f64::consts::PI * (x as f64) * (k as f64) / len as f64;
                c64::from_polar(norm, theta)
            })
            .collect()
    }

    #[test]
    fn qft_matches_dft_on_basis_states() {
        for n in [1u32, 2, 3, 4] {
            for x in [0usize, 1, (1usize << n) - 1, (1usize << n) / 2] {
                let mut init = zero_state::<f64>(n);
                init[0] = c64::zero();
                init[x] = c64::one();
                // Run the QFT circuit on |x⟩ via the dense reference.
                let circuit = qft(n);
                let mut state = init;
                for g in circuit.gates() {
                    crate::dense::apply_gate_dense(&mut state, n, g);
                }
                let expect = dft_of_basis(n, x);
                assert!(
                    qsim_util::complex::max_dist(&state, &expect) < 1e-12,
                    "n={n} x={x}"
                );
            }
        }
    }

    #[test]
    fn qft_gate_count() {
        // n H gates + n(n−1)/2 controlled phases + ⌊n/2⌋ swaps.
        let c = qft(6);
        assert_eq!(c.len() as u32, 6 + 15 + 3);
    }

    #[test]
    fn ghz_state_shape() {
        let s = simulate_dense::<f64>(&ghz(4));
        let r = 0.5f64.sqrt();
        assert!((s[0].abs() - r).abs() < 1e-12);
        assert!((s[15].abs() - r).abs() < 1e-12);
        assert!(s[1..15].iter().all(|a| a.abs() < 1e-12));
    }

    #[test]
    fn brickwork_preserves_norm_and_entangles() {
        let c = brickwork_1d(8, 12, 3);
        let s = simulate_dense::<f64>(&c);
        let norm: f64 = s.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-10);
        let h: f64 = s
            .iter()
            .map(|a| {
                let p = a.norm_sqr();
                if p > 0.0 {
                    -p * p.log2()
                } else {
                    0.0
                }
            })
            .sum();
        assert!(h > 5.0, "brickwork entropy {h}");
    }
}
