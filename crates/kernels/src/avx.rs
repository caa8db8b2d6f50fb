//! Explicit AVX2+FMA vectorization of the step-3 kernel (f64 only).
//!
//! This is the Rust analogue of the paper's compiler-intrinsics layer
//! (§3.2): updates for two consecutive temporary-vector entries are packed
//! into one 256-bit lane, the gathered input amplitude is kept in register
//! in both its `(v_R, v_I)` and swapped `(v_I, v_R)` forms (one permute per
//! input, hoisted out of the output loop), and each packed matrix entry
//! contributes exactly two `vfmadd` instructions — the Eq. (2)–(3) scheme.
//!
//! Register blocking: for k ≤ 4 all 2^k/2 ≤ 8 accumulator vectors stay
//! resident in ymm registers across the full input sweep; for k = 5..6 the
//! output rows are processed in half/quarter sweeps to avoid spills —
//! "blocking to reduce register-spilling" (§3).
//!
//! Feature detection happens once per call via
//! `is_x86_feature_detected!`; non-x86 targets or older CPUs fall back to
//! the portable scalar step-3 kernel, which keeps the crate
//! performance-portable (the role the paper assigns to its code generator).

use crate::matrix::PackedMatrix;
use crate::opt;
use qsim_util::bits::IndexExpander;
use qsim_util::c64;

/// Does this host support the explicit AVX2+FMA path?
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Apply a packed k-qubit gate to blocks `[c0, c1)` with the AVX2 kernel,
/// falling back to the scalar step-3 kernel when AVX2 is unavailable.
///
/// `offs` is the offset table for the (sorted) expander; `b` is the scalar
/// fallback's block size.
pub fn apply_avx_range(
    state: &mut [c64],
    exp: &IndexExpander,
    packed: &PackedMatrix<f64>,
    offs: &[usize],
    b: usize,
    c0: usize,
    c1: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: feature presence checked at runtime above.
            unsafe { apply_avx_range_impl(state, exp, packed, offs, c0, c1) };
            return;
        }
    }
    opt::apply_blocked_packed_range(state, exp, packed, offs, b, c0, c1);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn apply_avx_range_impl(
    state: &mut [c64],
    exp: &IndexExpander,
    packed: &PackedMatrix<f64>,
    offs: &[usize],
    c0: usize,
    c1: usize,
) {
    use core::arch::x86_64::*;
    let dim = packed.dim();
    debug_assert!(dim <= 1 << opt::MAX_K);
    let raw = packed.raw().as_ptr();
    let sp = state.as_mut_ptr() as *mut f64;
    // Temporary gathered inputs, interleaved (re, im).
    let mut tmp = [0f64; 2 << opt::MAX_K];
    // Output row pairs processed per sweep: keep <= 8 accumulators in ymm.
    let pairs = dim / 2;
    let sweep = pairs.min(8);
    for c in c0..c1 {
        let base = exp.expand(c);
        for (x, &off) in offs.iter().enumerate().take(dim) {
            let p = sp.add(2 * (base + off));
            tmp[2 * x] = *p;
            tmp[2 * x + 1] = *p.add(1);
        }
        let mut lp0 = 0usize;
        while lp0 < pairs {
            let lpe = (lp0 + sweep).min(pairs);
            let nacc = lpe - lp0;
            // Accumulators for up to 8 output pairs.
            let mut acc = [_mm256_setzero_pd(); 8];
            for i in 0..dim {
                // v = (vR, vI, vR, vI), vswap = (vI, vR, vI, vR).
                let v128 = _mm_loadu_pd(tmp.as_ptr().add(2 * i));
                let v = _mm256_set_m128d(v128, v128);
                let vswap = _mm256_permute_pd(v, 0b0101);
                for (a, lp) in (lp0..lpe).enumerate() {
                    let e = raw.add((lp * dim + i) * 8);
                    // (m_R, m_R) pairs for rows 2lp and 2lp+1.
                    let mrr = _mm256_load_pd(e);
                    // (−m_I, m_I) pairs.
                    let mim = _mm256_load_pd(e.add(4));
                    acc[a] = _mm256_fmadd_pd(v, mrr, acc[a]);
                    acc[a] = _mm256_fmadd_pd(vswap, mim, acc[a]);
                }
            }
            for (a, lp) in (lp0..lpe).enumerate().take(nacc) {
                // acc lanes: (row 2lp re, im, row 2lp+1 re, im).
                let lo = _mm256_castpd256_pd128(acc[a]);
                let hi = _mm256_extractf128_pd(acc[a], 1);
                let o0 = offs[2 * lp];
                let o1 = offs[2 * lp + 1];
                _mm_storeu_pd(sp.add(2 * (base + o0)), lo);
                _mm_storeu_pd(sp.add(2 * (base + o1)), hi);
            }
            lp0 = lpe;
        }
    }
}

/// The paper's *step 2 before re-ordering*: explicit vectorization of the
/// textbook complex product (Eq. 1), one 128-bit lane per amplitude, with
/// multiplies, horizontal adds and permutes — the "wasted compute
/// resources due to artificial dependencies and additional permutes" that
/// Eq. (2)–(3) then eliminates. Exists so the Fig. 2 ladder can measure
/// vectorization and re-association as separate steps.
pub fn apply_avx_eq1(state: &mut [c64], qubits: &[u32], m: &crate::matrix::GateMatrix<f64>) {
    let (exp, pm) = opt::prepare(state.len(), qubits, m);
    let offs = opt::offsets(&exp, pm.dim());
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: feature presence checked at runtime above.
            unsafe { apply_avx_eq1_impl(state, &exp, &pm, &offs) };
            return;
        }
    }
    let blocks = state.len() >> pm.k();
    let packed = PackedMatrix::pack(&pm);
    opt::apply_blocked_packed_range(state, &exp, &packed, &offs, 1, 0, blocks);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn apply_avx_eq1_impl(
    state: &mut [c64],
    exp: &IndexExpander,
    pm: &crate::matrix::GateMatrix<f64>,
    offs: &[usize],
) {
    use core::arch::x86_64::*;
    let dim = pm.dim();
    let blocks = state.len() >> pm.k();
    let sp = state.as_mut_ptr() as *mut f64;
    let me = pm.entries().as_ptr() as *const f64;
    let mut tmp = [0f64; 2 << opt::MAX_K];
    let mut out = [0f64; 2 << opt::MAX_K];
    for c in 0..blocks {
        let base = exp.expand(c);
        for (x, &off) in offs.iter().enumerate().take(dim) {
            let p = sp.add(2 * (base + off));
            tmp[2 * x] = *p;
            tmp[2 * x + 1] = *p.add(1);
        }
        for l in 0..dim {
            // Accumulate (m_R·v_R, m_I·v_I) and (m_R·v_I, m_I·v_R) lanes,
            // then reduce: re = hsub, im = hadd — Eq. (1) verbatim.
            let mut acc_re = _mm_setzero_pd();
            let mut acc_im = _mm_setzero_pd();
            for i in 0..dim {
                let mv = _mm_loadu_pd(me.add(2 * (l * dim + i)));
                let v = _mm_loadu_pd(tmp.as_ptr().add(2 * i));
                let vswap = _mm_permute_pd(v, 0b01);
                acc_re = _mm_add_pd(acc_re, _mm_mul_pd(mv, v));
                acc_im = _mm_add_pd(acc_im, _mm_mul_pd(mv, vswap));
            }
            let res = _mm_hsub_pd(acc_re, acc_re); // (re, re)
            let ims = _mm_hadd_pd(acc_im, acc_im); // (im, im)
            out[2 * l] = _mm_cvtsd_f64(res);
            out[2 * l + 1] = _mm_cvtsd_f64(ims);
        }
        for (l, &off) in offs.iter().enumerate().take(dim) {
            let p = sp.add(2 * (base + off));
            *p = out[2 * l];
            *p.add(1) = out[2 * l + 1];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::GateMatrix;
    use crate::opt::{apply_fma, offsets, prepare};
    use qsim_util::complex::max_dist;
    use qsim_util::Xoshiro256;

    fn random_state(n: u32, seed: u64) -> Vec<c64> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..1usize << n)
            .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect()
    }

    fn random_unitaryish(k: u32, seed: u64) -> GateMatrix<f64> {
        // Any matrix works for kernel-equivalence tests.
        let d = 1usize << k;
        let mut rng = Xoshiro256::seed_from_u64(seed);
        GateMatrix::from_rows(
            k,
            (0..d * d)
                .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
                .collect(),
        )
    }

    fn run_avx(state: &mut [c64], qubits: &[u32], m: &GateMatrix<f64>) {
        let (exp, pm) = prepare(state.len(), qubits, m);
        let packed = PackedMatrix::pack(&pm);
        let offs = offsets(&exp, packed.dim());
        let blocks = state.len() >> packed.k();
        apply_avx_range(state, &exp, &packed, &offs, 4, 0, blocks);
    }

    #[test]
    fn avx_matches_scalar_for_all_k() {
        if !avx2_available() {
            eprintln!("AVX2 unavailable; fallback path exercised instead");
        }
        let n = 10;
        for k in 1..=5u32 {
            let m = random_unitaryish(k, 1000 + k as u64);
            let qubits: Vec<u32> = (0..k).map(|j| (j * 2 + 1) % n).collect();
            let state0 = random_state(n, 2000 + k as u64);
            let mut a = state0.clone();
            run_avx(&mut a, &qubits, &m);
            let mut b = state0;
            apply_fma(&mut b, &qubits, &m);
            assert!(max_dist(&a, &b) < 1e-12, "k={k}");
        }
    }

    #[test]
    fn avx_handles_high_order_qubits() {
        let n = 12;
        let m = random_unitaryish(3, 31);
        let qubits = vec![11, 10, 9];
        let state0 = random_state(n, 32);
        let mut a = state0.clone();
        run_avx(&mut a, &qubits, &m);
        let mut b = state0;
        apply_fma(&mut b, &qubits, &m);
        assert!(max_dist(&a, &b) < 1e-12);
    }

    #[test]
    fn avx_eq1_matches_scalar_for_all_k() {
        let n = 10;
        for k in 1..=5u32 {
            let m = random_unitaryish(k, 4000 + k as u64);
            let qubits: Vec<u32> = (0..k).map(|j| (j * 3 + 2) % n).collect();
            let mut qs = qubits.clone();
            qs.sort_unstable();
            qs.dedup();
            if qs.len() != qubits.len() {
                continue;
            }
            let state0 = random_state(n, 5000 + k as u64);
            let mut a = state0.clone();
            apply_avx_eq1(&mut a, &qubits, &m);
            let mut b = state0;
            apply_fma(&mut b, &qubits, &m);
            assert!(max_dist(&a, &b) < 1e-12, "eq1 k={k}");
        }
    }

    #[test]
    fn avx_partial_range_composes() {
        // Applying [0, mid) then [mid, blocks) must equal one full sweep.
        let n = 9;
        let m = random_unitaryish(2, 55);
        let qubits = vec![4, 7];
        let state0 = random_state(n, 56);
        let (exp, pm) = prepare(state0.len(), &qubits, &m);
        let packed = PackedMatrix::pack(&pm);
        let offs = offsets(&exp, packed.dim());
        let blocks = state0.len() >> 2;
        let mut a = state0.clone();
        apply_avx_range(&mut a, &exp, &packed, &offs, 4, 0, blocks / 2);
        apply_avx_range(&mut a, &exp, &packed, &offs, 4, blocks / 2, blocks);
        let mut b = state0;
        apply_avx_range(&mut b, &exp, &packed, &offs, 4, 0, blocks);
        assert!(max_dist(&a, &b) < 1e-13);
    }
}
