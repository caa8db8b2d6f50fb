//! Specialized kernels for structured gates (§3.5) and local qubit swaps
//! (§3.4).
//!
//! Diagonal gates (CZ, T, Z, S, controlled-phase) never mix amplitudes, so
//! they reduce to per-amplitude phase multiplications — and on *global*
//! qubits to rank-conditional phases, which is how the paper removes a
//! third of the 45-qubit circuit's communication steps. Permutation gates
//! (X, CNOT) only relabel basis states. The qubit-pair swap kernel is the
//! building block of the local reordering that brackets every
//! global-to-local all-to-all.

use qsim_util::bits::{gather_bits, get_bit, BitPermutation, IndexExpander};
use qsim_util::complex::Complex;
use qsim_util::Real;

/// Multiply the whole state by a scalar phase (e.g. a T-gate acting on a
/// global qubit contributes a rank-conditional global phase).
pub fn apply_global_phase<T: Real>(state: &mut [Complex<T>], phase: Complex<T>) {
    for a in state.iter_mut() {
        *a *= phase;
    }
}

/// Apply a diagonal k-qubit gate: `state[i] *= diag[bits of i at qubits]`.
///
/// `diag` has 2^k entries indexed little-endian by the operand order of
/// `qubits` (same convention as `GateMatrix`).
pub fn apply_diagonal<T: Real>(state: &mut [Complex<T>], qubits: &[u32], diag: &[Complex<T>]) {
    let k = qubits.len();
    assert_eq!(diag.len(), 1usize << k, "diagonal size mismatch");
    let n = qsim_util::bits::log2_exact(state.len());
    for &q in qubits {
        assert!(q < n, "qubit {q} out of range");
    }
    // Fast path: 1-qubit diagonal with unit first entry (T, Z, S, phase):
    // only the stride-offset half needs touching.
    if k == 1 && (diag[0] - Complex::one()).abs() <= T::EPSILON {
        let exp = IndexExpander::new(qubits);
        let stride = exp.strides()[0];
        let phase = diag[1];
        let blocks = state.len() >> 1;
        for c in 0..blocks {
            let idx = exp.expand(c) + stride;
            state[idx] *= phase;
        }
        return;
    }
    for (i, a) in state.iter_mut().enumerate() {
        *a *= diag[gather_bits(i, qubits)];
    }
}

/// Apply a controlled-Z on (`a`, `b`): phase −1 on basis states with both
/// bits set. The most common gate of supremacy circuits gets its own
/// kernel: no gather, no temporary, one conditional negate.
pub fn apply_cz<T: Real>(state: &mut [Complex<T>], a: u32, b: u32) {
    assert_ne!(a, b, "CZ needs distinct qubits");
    let n = qsim_util::bits::log2_exact(state.len());
    assert!(a < n && b < n, "qubit out of range");
    // Walk only the quarter of the state with both bits set.
    let (lo, hi) = (a.min(b), a.max(b));
    let exp = IndexExpander::new(&[lo, hi]);
    let both = (1usize << lo) + (1usize << hi);
    let blocks = state.len() >> 2;
    for c in 0..blocks {
        let idx = exp.expand(c) + both;
        state[idx] = -state[idx];
    }
}

/// Swap the amplitudes of two qubit positions in place: the SWAP gate, and
/// the unit step of local qubit reordering (§3.4: "we first use our
/// optimized kernels to achieve local swaps").
pub fn swap_qubit_pair<T: Real>(state: &mut [Complex<T>], a: u32, b: u32) {
    if a == b {
        return;
    }
    let n = qsim_util::bits::log2_exact(state.len());
    assert!(a < n && b < n, "qubit out of range");
    let (lo, hi) = (a.min(b), a.max(b));
    let exp = IndexExpander::new(&[lo, hi]);
    let (slo, shi) = (1usize << lo, 1usize << hi);
    let blocks = state.len() >> 2;
    // Only amplitudes whose two bits differ move: (01) <-> (10).
    for c in 0..blocks {
        let base = exp.expand(c);
        state.swap(base + slo, base + shi);
    }
}

/// Apply an arbitrary bit-position permutation to the state, in place,
/// as a sequence of pairwise qubit swaps (minimal transposition
/// decomposition). O(#transpositions · 2^n/4) moves, no scratch buffer.
pub fn permute_qubits_inplace<T: Real>(state: &mut [Complex<T>], perm: &BitPermutation) {
    assert_eq!(state.len(), 1usize << perm.n_bits(), "size mismatch");
    for (a, b) in perm.transpositions() {
        swap_qubit_pair(state, a, b);
    }
}

/// Probability of qubit `q` being 1 — used by measurement and by tests.
pub fn prob_one<T: Real>(state: &[Complex<T>], q: u32) -> T {
    let n = qsim_util::bits::log2_exact(state.len());
    assert!(q < n);
    let mut p = T::ZERO;
    for (i, a) in state.iter().enumerate() {
        if get_bit(i, q) == 1 {
            p += a.norm_sqr();
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::GateMatrix;
    use crate::opt::apply_fma;
    use qsim_util::c64;
    use qsim_util::complex::max_dist;
    use qsim_util::Xoshiro256;

    fn random_state(n: u32, seed: u64) -> Vec<c64> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..1usize << n)
            .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect()
    }

    fn t_matrix() -> GateMatrix<f64> {
        GateMatrix::from_rows(
            1,
            vec![
                c64::one(),
                c64::zero(),
                c64::zero(),
                c64::from_polar(1.0, std::f64::consts::FRAC_PI_4),
            ],
        )
    }

    fn cz_matrix() -> GateMatrix<f64> {
        let mut m = GateMatrix::identity(2);
        m.set(3, 3, -c64::one());
        m
    }

    #[test]
    fn diagonal_t_matches_dense_kernel() {
        for q in [0u32, 3, 6] {
            let state0 = random_state(7, 42 + q as u64);
            let mut a = state0.clone();
            apply_diagonal(&mut a, &[q], &t_matrix().as_diagonal().unwrap());
            let mut b = state0;
            apply_fma(&mut b, &[q], &t_matrix());
            assert!(max_dist(&a, &b) < 1e-14, "q={q}");
        }
    }

    #[test]
    fn cz_kernel_matches_dense_and_is_symmetric() {
        let state0 = random_state(6, 7);
        let mut a = state0.clone();
        apply_cz(&mut a, 1, 4);
        let mut b = state0.clone();
        apply_fma(&mut b, &[1, 4], &cz_matrix());
        assert!(max_dist(&a, &b) < 1e-14);
        // Symmetry: CZ(a,b) == CZ(b,a).
        let mut c = state0;
        apply_cz(&mut c, 4, 1);
        assert!(max_dist(&a, &c) == 0.0);
    }

    #[test]
    fn multi_qubit_diagonal() {
        // CZ as a 2-qubit diagonal.
        let state0 = random_state(5, 9);
        let mut a = state0.clone();
        apply_diagonal(&mut a, &[0, 3], &cz_matrix().as_diagonal().unwrap());
        let mut b = state0;
        apply_cz(&mut b, 0, 3);
        assert!(max_dist(&a, &b) < 1e-15);
    }

    #[test]
    fn global_phase_preserves_probabilities() {
        let mut s = random_state(5, 13);
        let before: Vec<f64> = s.iter().map(|a| a.norm_sqr()).collect();
        apply_global_phase(&mut s, c64::from_polar(1.0, 1.234));
        let after: Vec<f64> = s.iter().map(|a| a.norm_sqr()).collect();
        for (x, y) in before.iter().zip(after.iter()) {
            assert!((x - y).abs() < 1e-14);
        }
    }

    #[test]
    fn swap_pair_exchanges_marginals() {
        let mut s = random_state(6, 17);
        // Make the marginals distinguishable.
        s[0b000001] = c64::new(2.0, 0.0);
        let p0 = prob_one(&s, 0);
        let p5 = prob_one(&s, 5);
        swap_qubit_pair(&mut s, 0, 5);
        assert!((prob_one(&s, 0) - p5).abs() < 1e-12);
        assert!((prob_one(&s, 5) - p0).abs() < 1e-12);
        // Involution.
        swap_qubit_pair(&mut s, 5, 0);
        assert!((prob_one(&s, 0) - p0).abs() < 1e-12);
    }

    #[test]
    fn swap_matches_permutation() {
        let s0 = random_state(5, 19);
        let mut a = s0.clone();
        swap_qubit_pair(&mut a, 1, 3);
        let perm = BitPermutation::transposition(5, 1, 3);
        let mut b = vec![c64::zero(); s0.len()];
        perm.permute_slice(&s0, &mut b);
        assert!(max_dist(&a, &b) < 1e-15);
    }

    #[test]
    fn inplace_permutation_matches_out_of_place_permutation() {
        let s0 = random_state(6, 23);
        let perm = BitPermutation::new(vec![3, 5, 0, 1, 4, 2]);
        let mut a = s0.clone();
        permute_qubits_inplace(&mut a, &perm);
        let mut b = vec![c64::zero(); s0.len()];
        perm.permute_slice(&s0, &mut b);
        assert!(max_dist(&a, &b) < 1e-15);
        // Undo with the inverse.
        permute_qubits_inplace(&mut a, &perm.inverse());
        assert!(max_dist(&a, &s0) < 1e-15);
    }

    #[test]
    fn diagonal_fast_path_matches_general_path() {
        // T has unit first entry -> fast path; compare against the generic
        // per-amplitude loop via a diagonal with non-unit first entry that
        // represents the same physical gate up to global phase.
        let state0 = random_state(6, 29);
        let t = t_matrix().as_diagonal().unwrap();
        let mut fast = state0.clone();
        apply_diagonal(&mut fast, &[4], &t);
        // Force the slow path: multiply the same diagonal but written as
        // phase * [conj(phase/|..|)...]; simpler: 2-qubit diagonal T⊗I.
        // T on operand 1 (-> qubit 4), identity on operand 0 (-> qubit 0).
        let ti = t_matrix().kron(&GateMatrix::identity(1));
        let mut slow = state0;
        apply_diagonal(&mut slow, &[0, 4], &ti.as_diagonal().unwrap());
        assert!(max_dist(&fast, &slow) < 1e-15);
    }
}
