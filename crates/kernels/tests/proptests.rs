//! Property-based tests for the kernel crate: every execution path must
//! agree with the scalar in-place reference on arbitrary matrices, states
//! and operand choices.

use proptest::prelude::*;
use qsim_kernels::apply::{apply_gate, KernelConfig, Simd};
use qsim_kernels::matrix::GateMatrix;
use qsim_kernels::opt::{apply_fma, apply_inplace, apply_twovec};
use qsim_util::c64;
use qsim_util::complex::max_dist;

fn arb_c64() -> impl Strategy<Value = c64> {
    (-1.0f64..1.0, -1.0f64..1.0).prop_map(|(r, i)| c64::new(r, i))
}

fn arb_state(n: u32) -> impl Strategy<Value = Vec<c64>> {
    prop::collection::vec(arb_c64(), 1usize << n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_paths_agree_with_inplace_reference(
        k in 1u32..=5,
        seedless_state in arb_state(9),
        // matrix depends on k: regenerate inside.
        raw in prop::collection::vec(arb_c64(), 1024),
        qsel in prop::collection::vec(0u32..9, 8),
    ) {
        let d = 1usize << k;
        let m = GateMatrix::from_rows(k, raw[..d * d].to_vec());
        // Build k distinct positions from qsel.
        let mut qubits: Vec<u32> = Vec::new();
        for &q in &qsel {
            if !qubits.contains(&q) {
                qubits.push(q);
            }
            if qubits.len() == k as usize {
                break;
            }
        }
        prop_assume!(qubits.len() == k as usize);

        let mut reference = seedless_state.clone();
        apply_inplace(&mut reference, &qubits, &m);

        let mut two_vector = vec![c64::zero(); seedless_state.len()];
        apply_twovec(&seedless_state, &mut two_vector, &qubits, &m);
        let mut fma = seedless_state.clone();
        apply_fma(&mut fma, &qubits, &m);
        for (rung, s) in [("two-vector", two_vector), ("fma", fma)] {
            prop_assert!(max_dist(&s, &reference) < 1e-10, "{} diverges", rung);
        }
        for simd in [Simd::Scalar, Simd::Avx2, Simd::Auto] {
            let cfg = KernelConfig { simd, threads: 1 };
            let mut s = seedless_state.clone();
            apply_gate(&mut s, &qubits, &m, &cfg);
            prop_assert!(
                max_dist(&s, &reference) < 1e-10,
                "{:?} diverges: {}", simd, max_dist(&s, &reference)
            );
        }
    }

    #[test]
    fn unitary_gates_preserve_norm(
        state in arb_state(8),
        phase in -3.0f64..3.0,
        q in 0u32..8,
    ) {
        // Diagonal unitary: norm must be exactly preserved.
        let mut m = GateMatrix::<f64>::identity(1);
        m.set(1, 1, c64::from_polar(1.0, phase));
        let mut s = state.clone();
        apply_gate(&mut s, &[q], &m, &KernelConfig::sequential());
        let before: f64 = state.iter().map(|a| a.norm_sqr()).sum();
        let after: f64 = s.iter().map(|a| a.norm_sqr()).sum();
        prop_assert!((before - after).abs() < 1e-10);
    }

    #[test]
    fn identity_matrix_is_noop(
        k in 1u32..=4,
        state in arb_state(8),
    ) {
        let m = GateMatrix::<f64>::identity(k);
        let qubits: Vec<u32> = (0..k).map(|j| j * 2).collect();
        let mut s = state.clone();
        apply_gate(&mut s, &qubits, &m, &KernelConfig::default());
        prop_assert!(max_dist(&s, &state) < 1e-12);
    }

    #[test]
    fn composition_equals_matrix_product(
        raw_a in prop::collection::vec(arb_c64(), 16),
        raw_b in prop::collection::vec(arb_c64(), 16),
        state in arb_state(6),
    ) {
        let a = GateMatrix::from_rows(2, raw_a);
        let b = GateMatrix::from_rows(2, raw_b);
        let qubits = vec![1u32, 4];
        // Apply a then b...
        let mut s1 = state.clone();
        apply_gate(&mut s1, &qubits, &a, &KernelConfig::sequential());
        apply_gate(&mut s1, &qubits, &b, &KernelConfig::sequential());
        // ...equals applying b·a fused.
        let ba = b.matmul(&a);
        let mut s2 = state.clone();
        apply_gate(&mut s2, &qubits, &ba, &KernelConfig::sequential());
        prop_assert!(max_dist(&s1, &s2) < 1e-9, "{}", max_dist(&s1, &s2));
    }
}
