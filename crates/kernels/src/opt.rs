//! The optimization-step ladder of §3.1–3.2, measured in Fig. 2.
//!
//! Four functionally identical kernels apply a dense k-qubit gate to an
//! n-qubit state; each step folds in one of the paper's optimizations:
//!
//! | step | name | paper optimization |
//! |------|------|--------------------|
//! | 0 | [`apply_twovec`]  | textbook two-vector matrix-free product |
//! | 1 | [`apply_inplace`] | in-place / "lazy evaluation" — halves memory and traffic |
//! | 2 | [`apply_fma`]     | Eq. (2)–(3) re-association into pure FMA streams |
//! | 3 | [`apply_blocked`] | register blocking over inputs + packed, pre-permuted matrix |
//!
//! All kernels share the same indexing: qubit positions are sorted and the
//! matrix is permuted once per call (§3.2, "permute the matrix entries
//! before-hand in order to always have sorted qubit indices"), then the
//! state is walked in 2^{n−k} blocks whose member indices come from an
//! [`IndexExpander`].

use crate::matrix::{GateMatrix, PackedMatrix};
use qsim_util::bits::IndexExpander;
use qsim_util::complex::Complex;
use qsim_util::Real;

/// Largest k the fixed-size temporaries support. The paper evaluates
/// k ∈ {1..5}; we allow one extra for ablation headroom.
pub const MAX_K: u32 = 6;
const MAX_DIM: usize = 1 << MAX_K;

/// Step 0: two-vector application. Reads `src`, writes `dst`.
///
/// This is the "standard implementation featuring two state vectors"
/// of §3.1 — the roofline baseline with the worst memory traffic.
pub fn apply_twovec<T: Real>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    qubits: &[u32],
    m: &GateMatrix<T>,
) {
    assert_eq!(src.len(), dst.len());
    let (exp, pm) = prepare(src.len(), qubits, m);
    let dim = pm.dim();
    let blocks = src.len() >> pm.k();
    let offs = offsets(&exp, dim);
    for c in 0..blocks {
        let base = exp.expand(c);
        for l in 0..dim {
            let mut acc = Complex::zero();
            for (i, &off) in offs.iter().enumerate() {
                acc += pm.get(l, i) * src[base + off];
            }
            dst[base + offs[l]] = acc;
        }
    }
}

/// Step 1: in-place application with a 2^k temporary ("lazy evaluation").
/// Classic complex arithmetic (Eq. 1), no FMA re-association yet.
pub fn apply_inplace<T: Real>(state: &mut [Complex<T>], qubits: &[u32], m: &GateMatrix<T>) {
    let (exp, pm) = prepare(state.len(), qubits, m);
    let dim = pm.dim();
    let offs = offsets(&exp, dim);
    let blocks = state.len() >> pm.k();
    let mut tmp = [Complex::<T>::zero(); MAX_DIM];
    for c in 0..blocks {
        let base = exp.expand(c);
        for (x, &off) in offs.iter().enumerate() {
            tmp[x] = state[base + off];
        }
        for l in 0..dim {
            let mut acc = Complex::zero();
            for (i, &t) in tmp[..dim].iter().enumerate() {
                acc += pm.get(l, i) * t;
            }
            state[base + offs[l]] = acc;
        }
    }
}

/// Step 2: in-place + Eq. (2)–(3) FMA re-association. Each inner update is
/// two fused multiply-adds per component, no separate multiply/add/permute.
pub fn apply_fma<T: Real>(state: &mut [Complex<T>], qubits: &[u32], m: &GateMatrix<T>) {
    let (exp, pm) = prepare(state.len(), qubits, m);
    let dim = pm.dim();
    let offs = offsets(&exp, dim);
    let blocks = state.len() >> pm.k();
    let mut tmp = [Complex::<T>::zero(); MAX_DIM];
    let mut out = [Complex::<T>::zero(); MAX_DIM];
    for c in 0..blocks {
        let base = exp.expand(c);
        for (x, &off) in offs.iter().enumerate() {
            tmp[x] = state[base + off];
        }
        for (l, o) in out[..dim].iter_mut().enumerate() {
            let mut acc = Complex::zero();
            for (i, &t) in tmp[..dim].iter().enumerate() {
                acc.mul_add_eq23(t, pm.get(l, i));
            }
            *o = acc;
        }
        for (l, &off) in offs.iter().enumerate() {
            state[base + off] = out[l];
        }
    }
}

/// Inputs the step-3 scalar kernel keeps live per output sweep — the
/// register-blocking width of §3.2. One value was ever in use, and it
/// cannot reach the bits: every output row sees its inputs ascending
/// whatever the grouping.
const BLOCK: usize = 4;

/// Step 3: step 2 plus register blocking over inputs and the packed
/// `(m_R,m_R)/(−m_I,m_I)` matrix built once per call.
///
/// For each input block, `BLOCK` gathered amplitudes (and their swapped
/// copies) stay live in registers while all 2^k outputs are updated — the
/// §3.2 scheme `ṽ_l += Σ_{j<B} m_{l,i(b,j)} v_{i(b,j)}`.
pub fn apply_blocked<T: Real>(state: &mut [Complex<T>], qubits: &[u32], m: &GateMatrix<T>) {
    let (exp, pm) = prepare(state.len(), qubits, m);
    let packed = PackedMatrix::pack(&pm);
    let offs = offsets(&exp, pm.dim());
    let blocks = state.len() >> pm.k();
    apply_blocked_packed_range(state, &exp, &packed, &offs, 0, blocks);
}

/// Step-3 inner loop over a sub-range of blocks `[c0, c1)` on
/// pre-prepared operands — the one scalar row kernel: every ragged end
/// the block-lane kernel leaves, and every range when no SIMD is selected
/// or present.
pub(crate) fn apply_blocked_packed_range<T: Real>(
    state: &mut [Complex<T>],
    exp: &IndexExpander,
    packed: &PackedMatrix<T>,
    offs: &[usize],
    c0: usize,
    c1: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::avx::avx2_available() {
            // SAFETY: AVX2 and FMA presence checked at runtime above.
            unsafe { blocked_range_fma(state, exp, packed, offs, c0, c1) };
            return;
        }
    }
    blocked_range(state, exp, packed, offs, c0, c1);
}

/// [`blocked_range`] compiled with FMA enabled: `mul_add` is a libm call
/// per component without the feature and one `vfmadd` with it — the same
/// single-rounding operation, so the same bits.
///
/// # Safety
/// The host must have AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn blocked_range_fma<T: Real>(
    state: &mut [Complex<T>],
    exp: &IndexExpander,
    packed: &PackedMatrix<T>,
    offs: &[usize],
    c0: usize,
    c1: usize,
) {
    blocked_range(state, exp, packed, offs, c0, c1);
}

#[inline(always)]
fn blocked_range<T: Real>(
    state: &mut [Complex<T>],
    exp: &IndexExpander,
    packed: &PackedMatrix<T>,
    offs: &[usize],
    c0: usize,
    c1: usize,
) {
    let dim = packed.dim();
    let mut tmp = [Complex::<T>::zero(); MAX_DIM];
    let mut out = [Complex::<T>::zero(); MAX_DIM];
    for c in c0..c1 {
        let base = exp.expand(c);
        for (x, &off) in offs.iter().enumerate().take(dim) {
            tmp[x] = state[base + off];
        }
        // Blocked sweep: inputs j in [i0, i0+BLOCK) stay in registers
        // while all output pairs are updated, from zero accumulators.
        for i0 in (0..dim).step_by(BLOCK) {
            let iend = (i0 + BLOCK).min(dim);
            for lp in 0..dim / 2 {
                let (mut a0, mut a1) = if i0 == 0 {
                    (Complex::zero(), Complex::zero())
                } else {
                    (out[2 * lp], out[2 * lp + 1])
                };
                for (i, &v) in tmp[..iend].iter().enumerate().skip(i0) {
                    let e = packed.entry(lp, i);
                    // Row 2lp: (rr0, rr0) then (−im0, im0).
                    a0.re = v.re.mul_add(e[0], a0.re);
                    a0.im = v.im.mul_add(e[1], a0.im);
                    a0.re = v.im.mul_add(e[4], a0.re);
                    a0.im = v.re.mul_add(e[5], a0.im);
                    // Row 2lp+1.
                    a1.re = v.re.mul_add(e[2], a1.re);
                    a1.im = v.im.mul_add(e[3], a1.im);
                    a1.re = v.im.mul_add(e[6], a1.re);
                    a1.im = v.re.mul_add(e[7], a1.im);
                }
                out[2 * lp] = a0;
                out[2 * lp + 1] = a1;
            }
        }
        for (l, &off) in offs.iter().enumerate().take(dim) {
            state[base + off] = out[l];
        }
    }
}

/// Shared preamble: validate, sort operands ascending, permute the matrix
/// once (§3.2 pre-permutation), and build the index expander.
pub(crate) fn prepare<T: Real>(
    len: usize,
    qubits: &[u32],
    m: &GateMatrix<T>,
) -> (IndexExpander, GateMatrix<T>) {
    assert!(len.is_power_of_two(), "state length must be 2^n");
    let n = len.trailing_zeros();
    for &q in qubits {
        assert!(q < n, "qubit {q} out of range for n={n}");
    }
    prepare_free(qubits, m)
}

/// Length-free half of [`prepare`]: sort operands and pre-permute the
/// matrix without knowing the state size. Used by the tiled sweep
/// executor, whose gates are prepared once per stage and then applied to
/// many differently-sized slices (full state and cache tiles).
pub(crate) fn prepare_free<T: Real>(
    qubits: &[u32],
    m: &GateMatrix<T>,
) -> (IndexExpander, GateMatrix<T>) {
    let k = m.k();
    assert_eq!(qubits.len(), k as usize, "operand arity mismatch");
    assert!((1..=MAX_K).contains(&k), "unsupported kernel size k={k}");
    // order[j] = index into `qubits` of the j-th smallest position.
    let mut order: Vec<usize> = (0..qubits.len()).collect();
    order.sort_by_key(|&j| qubits[j]);
    let sorted: Vec<u32> = order.iter().map(|&j| qubits[j]).collect();
    let already_sorted = order.iter().enumerate().all(|(a, &b)| a == b);
    let pm = if already_sorted {
        m.clone()
    } else {
        m.permuted_qubits(&order)
    };
    (IndexExpander::new(&sorted), pm)
}

/// Offset table: `offs[x]` = state offset of local index `x` from a block
/// base, for sorted operands.
#[inline]
pub(crate) fn offsets(exp: &IndexExpander, dim: usize) -> Vec<usize> {
    (0..dim).map(|x| exp.offset(x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_bits_eq, random_amps};
    use qsim_circuit::dense::apply_matrix_dense;
    use qsim_util::c64;
    use qsim_util::complex::max_dist;
    use qsim_util::{SplitMix64, Xoshiro256};

    fn random_state(n: u32, seed: u64) -> Vec<c64> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut v: Vec<c64> = (0..1usize << n)
            .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect();
        let norm: f64 = v.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        v.iter_mut().for_each(|a| *a = a.scale(1.0 / norm));
        v
    }

    fn random_unitary(k: u32, seed: u64) -> GateMatrix<f64> {
        // Gram–Schmidt on a random complex matrix: good enough for tests.
        let d = 1usize << k;
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xabcd);
        let mut rows: Vec<Vec<c64>> = (0..d)
            .map(|_| {
                (0..d)
                    .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
                    .collect()
            })
            .collect();
        for i in 0..d {
            for j in 0..i {
                let dot: c64 = (0..d).map(|t| rows[j][t].conj() * rows[i][t]).sum();
                let (lo, hi) = rows.split_at_mut(i);
                for (x, &rjt) in hi[0].iter_mut().zip(lo[j].iter()) {
                    let s = dot * rjt;
                    *x -= s;
                }
            }
            let norm: f64 = rows[i].iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
            rows[i].iter_mut().for_each(|a| *a = a.scale(1.0 / norm));
        }
        GateMatrix::from_rows(k, rows.into_iter().flatten().collect())
    }

    /// The workspace's dense reference, on a copy of `state`.
    fn reference_apply(state: &[c64], qubits: &[u32], m: &GateMatrix<f64>) -> Vec<c64> {
        let mut out = state.to_vec();
        apply_matrix_dense(&mut out, state.len().trailing_zeros(), qubits, m);
        out
    }

    #[test]
    fn all_steps_agree_with_reference_k1_to_k4() {
        let n = 8;
        let mut sm = SplitMix64::new(2024);
        for k in 1..=4u32 {
            let m = random_unitary(k, sm.next_u64());
            // Unsorted, non-adjacent operands exercise permutation.
            let qubits: Vec<u32> = match k {
                1 => vec![5],
                2 => vec![6, 2],
                3 => vec![7, 0, 4],
                _ => vec![3, 7, 1, 5],
            };
            let state = random_state(n, sm.next_u64());
            let expect = reference_apply(&state, &qubits, &m);

            let mut dst = vec![c64::zero(); state.len()];
            apply_twovec(&state, &mut dst, &qubits, &m);
            assert!(max_dist(&dst, &expect) < 1e-12, "twovec k={k}");

            let mut s1 = state.clone();
            apply_inplace(&mut s1, &qubits, &m);
            assert!(max_dist(&s1, &expect) < 1e-12, "inplace k={k}");

            let mut s2 = state.clone();
            apply_fma(&mut s2, &qubits, &m);
            assert!(max_dist(&s2, &expect) < 1e-12, "fma k={k}");

            let mut s3 = state.clone();
            apply_blocked(&mut s3, &qubits, &m);
            assert!(max_dist(&s3, &expect) < 1e-12, "blocked k={k}");
        }
    }

    #[test]
    fn k5_blocked_agrees_with_fma() {
        let n = 9;
        let m = random_unitary(5, 77);
        let qubits = vec![8, 1, 6, 3, 0];
        let state = random_state(n, 78);
        let mut a = state.clone();
        apply_fma(&mut a, &qubits, &m);
        let mut b = state.clone();
        apply_blocked(&mut b, &qubits, &m);
        assert!(max_dist(&a, &b) < 1e-12);
        // And against the dense reference.
        let expect = reference_apply(&state, &qubits, &m);
        assert!(max_dist(&a, &expect) < 1e-11);
    }

    #[test]
    fn norm_is_preserved() {
        let mut state = random_state(10, 5);
        for k in 1..=5u32 {
            let m = random_unitary(k, 100 + k as u64);
            let qubits: Vec<u32> = (0..k).map(|j| 9 - 2 * (j % 5)).collect::<Vec<_>>();
            let mut qs = qubits.clone();
            qs.sort_unstable();
            qs.dedup();
            if qs.len() != qubits.len() {
                continue;
            }
            apply_blocked(&mut state, &qubits, &m);
            let norm: f64 = state.iter().map(|a| a.norm_sqr()).sum();
            assert!((norm - 1.0).abs() < 1e-10, "k={k} norm={norm}");
        }
    }

    #[test]
    fn x_gate_on_each_qubit_permutes_basis() {
        let x = GateMatrix::from_rows(1, vec![c64::zero(), c64::one(), c64::one(), c64::zero()]);
        let n = 6;
        for q in 0..n {
            let mut state = vec![c64::zero(); 1 << n];
            state[0] = c64::one();
            apply_fma(&mut state, &[q], &x);
            // |0..0⟩ -> |0..1_q..0⟩.
            let expect_idx = 1usize << q;
            for (i, &a) in state.iter().enumerate() {
                let expect = if i == expect_idx {
                    c64::one()
                } else {
                    c64::zero()
                };
                assert!((a - expect).abs() < 1e-15, "q={q} i={i}");
            }
        }
    }

    #[test]
    fn operand_order_convention() {
        // CNOT(control=operand1, target=operand0) applied to qubits [t, c]:
        // flips qubit t iff qubit c is 1.
        let mut cnot = GateMatrix::<f64>::identity(2);
        cnot.set(2, 2, c64::zero());
        cnot.set(3, 3, c64::zero());
        cnot.set(2, 3, c64::one());
        cnot.set(3, 2, c64::one());
        let n = 4;
        // target = qubit 0, control = qubit 3.
        let mut state = vec![c64::zero(); 1 << n];
        state[0b1000] = c64::one(); // control set
        apply_fma(&mut state, &[0, 3], &cnot);
        assert!((state[0b1001] - c64::one()).abs() < 1e-15);
        // Control clear: nothing happens.
        let mut state2 = vec![c64::zero(); 1 << n];
        state2[0b0010] = c64::one();
        apply_fma(&mut state2, &[0, 3], &cnot);
        assert!((state2[0b0010] - c64::one()).abs() < 1e-15);
    }

    #[test]
    fn f32_kernels_work() {
        use qsim_util::c32;
        let m64 = random_unitary(2, 9);
        let m: GateMatrix<f32> = m64.convert();
        let mut state: Vec<c32> = random_state(6, 10).iter().map(|a| a.convert()).collect();
        let before: f32 = state.iter().map(|a| a.norm_sqr()).sum();
        apply_blocked(&mut state, &[1, 4], &m);
        let after: f32 = state.iter().map(|a| a.norm_sqr()).sum();
        assert!((before - after).abs() < 1e-5);
    }

    #[test]
    fn fma_wrapper_has_the_plain_bodys_bits() {
        // The hardware `vfmadd` of the `#[target_feature]` wrapper and the
        // libm `fma` of the plain body are the same single-rounding
        // operation; on a host without FMA both sides are the plain body.
        fn case<T: Real>(k: u32) {
            let n = 9u32;
            let mut rng = Xoshiro256::seed_from_u64(600 + k as u64);
            let m = GateMatrix::from_rows(k, random_amps::<T>(1 << (2 * k), &mut rng));
            let state0 = random_amps::<T>(1 << n, &mut rng);
            let qubits: Vec<u32> = (0..k).map(|j| (j * 5 + 2) % n).collect();
            let (exp, pm) = prepare(state0.len(), &qubits, &m);
            let packed = PackedMatrix::pack(&pm);
            let offs = offsets(&exp, pm.dim());
            let blocks = state0.len() >> k;
            let mut wrapped = state0.clone();
            apply_blocked_packed_range(&mut wrapped, &exp, &packed, &offs, 0, blocks);
            let mut plain = state0;
            blocked_range(&mut plain, &exp, &packed, &offs, 0, blocks);
            assert_bits_eq(&wrapped, &plain, &format!("k={k}"));
        }
        for k in 1..=MAX_K {
            case::<f64>(k);
            case::<f32>(k);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_qubit() {
        let m = GateMatrix::<f64>::identity(1);
        let mut state = vec![c64::zero(); 8];
        apply_fma(&mut state, &[3], &m);
    }
}
