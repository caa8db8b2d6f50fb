//! AVX2+FMA detection, and the Fig. 2 step-2 rung.
//!
//! [`avx2_available`] is the runtime check behind the 256-bit form of the
//! block-lane kernel ([`crate::lane`]) and the FMA-compiled scalar
//! kernels. [`apply_avx_eq1`] is a paper-figure reference, not a
//! production path: explicit vectorization of Eq. (1) *before* the
//! Eq. (2)–(3) re-association, so the ladder can show the two steps apart.

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
    opt::apply_blocked_packed_range(state, &exp, &packed, &offs, 0, blocks);
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
    use crate::opt::apply_fma;
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
}
