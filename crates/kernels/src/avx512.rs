//! Explicit AVX-512 vectorization of the step-3 kernel (f64).
//!
//! The paper's KNL target uses AVX512 + FMA for a theoretical 4× speedup
//! over scalar (§3.2: "a factor of 2x or even 4x when using AVX or
//! AVX512"). The packing extends the AVX2 scheme to 512-bit lanes: FOUR
//! consecutive temporary-vector entries per register, the matrix
//! pre-packed as `(m_R,m_R)×4` / `(−m_I,m_I)×4` runs, two `vfmadd`
//! per packed entry.
//!
//! Lane layout per accumulator (rows `4L..4L+3` of the temp vector):
//! `[re(4L) im(4L) re(4L+1) im(4L+1) ... im(4L+3)]`.
//!
//! Only k ≥ 2 uses this path (a 1-qubit gate has 2 outputs — not enough
//! rows to fill a 512-bit quad); dispatch falls back to AVX2 otherwise.

use crate::matrix::GateMatrix;
use crate::opt;
use qsim_util::bits::IndexExpander;
use qsim_util::{c64, AlignedVec};

/// Does this host support the AVX-512 path?
#[inline]
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Matrix packed for 512-bit lanes: for every (row quad `Lq`, input `i`),
/// 16 scalars: `(m_R, m_R)` for rows 4Lq..4Lq+3, then `(−m_I, m_I)` for
/// the same rows.
pub struct Packed512 {
    k: u32,
    data: AlignedVec<f64>,
}

impl Packed512 {
    /// Pack a (pre-permuted) gate matrix; requires `k >= 2`.
    pub fn pack(m: &GateMatrix<f64>) -> Self {
        let d = m.dim();
        assert!(d >= 4, "512-bit packing needs k >= 2");
        let quads = d / 4;
        let mut data = AlignedVec::new_zeroed(quads * d * 16);
        for lq in 0..quads {
            for i in 0..d {
                let base = (lq * d + i) * 16;
                for r in 0..4 {
                    let e = m.get(4 * lq + r, i);
                    data[base + 2 * r] = e.re;
                    data[base + 2 * r + 1] = e.re;
                    data[base + 8 + 2 * r] = -e.im;
                    data[base + 8 + 2 * r + 1] = e.im;
                }
            }
        }
        Self { k: m.k(), data }
    }

    #[inline(always)]
    pub fn k(&self) -> u32 {
        self.k
    }

    #[inline(always)]
    pub fn dim(&self) -> usize {
        1usize << self.k
    }

    #[inline(always)]
    pub fn raw(&self) -> &[f64] {
        &self.data
    }
}

/// Apply a 512-packed k-qubit gate to blocks `[c0, c1)`. Falls back to
/// the AVX2/scalar path when AVX-512 is unavailable.
pub fn apply_avx512_range(
    state: &mut [c64],
    exp: &IndexExpander,
    packed: &Packed512,
    offs: &[usize],
    c0: usize,
    c1: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if avx512_available() {
            // SAFETY: runtime feature check above.
            unsafe { apply_avx512_range_impl(state, exp, packed, offs, c0, c1) };
            return;
        }
    }
    unreachable!("caller must check avx512_available() or use the AVX2 path");
}

/// # Safety
/// AVX-512F must be available and every block of `[c0, c1)` must lie
/// inside `state` under `exp`/`offs`.
/// The AVX-512 *row* kernel over the whole state, sequentially — the
/// Fig. 2 ladder rung between AVX2 rows and the block-lane kernel
/// (`Simd::Auto` runs the latter wherever a whole lane group exists, so
/// no `KernelConfig` selects this rung on its own). Takes the AVX2 path
/// for k = 1 or without AVX-512F.
pub fn apply_avx512_rows(state: &mut [c64], qubits: &[u32], m: &GateMatrix<f64>) {
    let (exp, pm) = opt::prepare(state.len(), qubits, m);
    let offs = opt::offsets(&exp, pm.dim());
    let blocks = state.len() >> pm.k();
    if pm.k() >= 2 && avx512_available() {
        apply_avx512_range(state, &exp, &Packed512::pack(&pm), &offs, 0, blocks);
    } else {
        let packed = crate::matrix::PackedMatrix::pack(&pm);
        crate::avx::apply_avx_range(state, &exp, &packed, &offs, 4, 0, blocks);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn apply_avx512_range_impl(
    state: &mut [c64],
    exp: &IndexExpander,
    packed: &Packed512,
    offs: &[usize],
    c0: usize,
    c1: usize,
) {
    // Keep <= 4 zmm accumulators live per sweep (z0..z31 is roomy, but a
    // short sweep keeps the matrix stream hot in L1). The count is a
    // const parameter so the accumulators are registers, not an array
    // indexed under a runtime bound.
    match packed.dim() / 4 {
        1 => row_sweeps::<1>(state, exp, packed, offs, c0, c1),
        2 => row_sweeps::<2>(state, exp, packed, offs, c0, c1),
        _ => row_sweeps::<4>(state, exp, packed, offs, c0, c1),
    }
}

/// Body of [`apply_avx512_range_impl`] at `S` row quads per input sweep.
/// `inline(always)` without a `target_feature` of its own: it exists only
/// inside that function, where every intrinsic inlines.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn row_sweeps<const S: usize>(
    state: &mut [c64],
    exp: &IndexExpander,
    packed: &Packed512,
    offs: &[usize],
    c0: usize,
    c1: usize,
) {
    use core::arch::x86_64::*;
    let dim = packed.dim();
    let quads = dim / 4;
    debug_assert!(quads.is_multiple_of(S) && offs.len() >= dim && dim <= 1 << opt::MAX_K);
    debug_assert!(c0 >= c1 || exp.expand(c1 - 1) + offs[dim - 1] < state.len());
    let raw = packed.raw().as_ptr();
    let sp = state.as_mut_ptr() as *mut f64;
    let mut tmp = [0f64; 2 << opt::MAX_K];
    for c in c0..c1 {
        let base = exp.expand(c);
        for (x, &off) in offs.iter().enumerate().take(dim) {
            let p = sp.add(2 * (base + off));
            tmp[2 * x] = *p;
            tmp[2 * x + 1] = *p.add(1);
        }
        for lq0 in (0..quads).step_by(S) {
            let mut acc = [_mm512_setzero_pd(); S];
            for i in 0..dim {
                // v = (vR, vI) broadcast to all four complex lanes — as a
                // 4 x f32 broadcast, the AVX-512F spelling
                // (`_mm512_broadcast_f64x2` is AVX-512DQ, which KNL lacks).
                let v128 = _mm_castpd_ps(_mm_loadu_pd(tmp.as_ptr().add(2 * i)));
                let v = _mm512_castps_pd(_mm512_broadcast_f32x4(v128));
                let vswap = _mm512_permute_pd(v, 0b01010101);
                for (a, acc) in acc.iter_mut().enumerate() {
                    let e = raw.add(((lq0 + a) * dim + i) * 16);
                    let mrr = _mm512_load_pd(e);
                    let mim = _mm512_load_pd(e.add(8));
                    *acc = _mm512_fmadd_pd(v, mrr, *acc);
                    *acc = _mm512_fmadd_pd(vswap, mim, *acc);
                }
            }
            for (a, acc) in acc.iter().enumerate() {
                // Scatter the four complex outputs of this quad.
                let mut lanes = [0f64; 8];
                _mm512_storeu_pd(lanes.as_mut_ptr(), *acc);
                for r in 0..4 {
                    let off = offs[4 * (lq0 + a) + r];
                    let p = sp.add(2 * (base + off));
                    *p = lanes[2 * r];
                    *p.add(1) = lanes[2 * r + 1];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::apply_fma;
    use qsim_util::Xoshiro256;

    /// Same FMA chain as the scalar step-2 kernel, so the same bits.
    fn assert_bits_eq(a: &[c64], b: &[c64], what: &str) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "{what}: amplitude {i} differs: {x:?} vs {y:?}"
            );
        }
    }

    fn random_state(n: u32, seed: u64) -> Vec<c64> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..1usize << n)
            .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect()
    }

    fn random_matrix(k: u32, seed: u64) -> GateMatrix<f64> {
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
    fn avx512_matches_scalar_k2_to_k5() {
        if !avx512_available() {
            eprintln!("AVX-512 unavailable on this host; skipping");
            return;
        }
        let n = 11;
        for k in 2..=5u32 {
            let m = random_matrix(k, 100 + k as u64);
            let qubits: Vec<u32> = (0..k).map(|j| (3 * j + 1) % n).collect();
            let mut qs = qubits.clone();
            qs.sort_unstable();
            qs.dedup();
            if qs.len() != qubits.len() {
                continue;
            }
            let state0 = random_state(n, 200 + k as u64);
            let mut a = state0.clone();
            apply_avx512_rows(&mut a, &qubits, &m);
            let mut b = state0;
            apply_fma(&mut b, &qubits, &m);
            assert_bits_eq(&a, &b, &format!("k={k}"));
        }
    }

    #[test]
    fn packed512_layout() {
        let m = GateMatrix::<f64>::identity(2);
        let p = Packed512::pack(&m);
        assert_eq!(p.k(), 2);
        // (row quad 0, input 0): rows 0..3 of column 0 = [1,0,0,0].
        let e = &p.raw()[0..16];
        assert_eq!(&e[0..8], &[1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        // All imaginary parts zero.
        assert!(e[8..16].iter().all(|&x| x == 0.0));
        assert_eq!(
            p.raw().as_ptr() as usize % 64,
            0,
            "zmm loads need 64B alignment"
        );
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn pack512_rejects_single_qubit() {
        let _ = Packed512::pack(&GateMatrix::<f64>::identity(1));
    }

    #[test]
    fn avx512_high_order_qubits() {
        if !avx512_available() {
            return;
        }
        let n = 12;
        let m = random_matrix(4, 7);
        let qubits = vec![8, 9, 10, 11];
        let state0 = random_state(n, 8);
        let mut a = state0.clone();
        apply_avx512_rows(&mut a, &qubits, &m);
        let mut b = state0;
        apply_fma(&mut b, &qubits, &m);
        assert_bits_eq(&a, &b, "high-order operands");
    }
}
