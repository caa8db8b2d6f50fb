//! Block-lane dense kernel: the step-3 kernel vectorised across *blocks*
//! — the one SIMD shape of the crate, instantiated at two vector widths.
//!
//! A kernel that puts consecutive output rows of ONE 2^k-amplitude block
//! into a vector pays a scalar gather of the block's inputs and a scalar
//! scatter of its outputs next to its FMAs. This kernel turns the layout
//! by 90°, the way qsim lays out its SIMD gate kernels: one vector holds
//! the *same* gate-local amplitude `x` of `L` consecutive blocks, matrix
//! entries enter as broadcast operands, and inputs and outputs move as
//! whole vectors. The paper generated its AVX and AVX-512 kernels from
//! one generator (§3.2); here that generator is `x86::LaneVec`, with
//! four impls:
//!
//! | vector    | ISA        | blocks `L` | `LANE_BITS` | rows × groups at k = 1 / 2 / ≥ 3 |
//! |-----------|------------|------------|-------------|-----------------------------------|
//! | `__m256d` | AVX2 + FMA | 2 f64      | 1           | 2 × 4 / 4 × 2 / 4 × 2             |
//! | `__m256`  | AVX2 + FMA | 4 f32      | 2           | 2 × 4 / 4 × 2 / 4 × 2             |
//! | `__m512d` | AVX-512F   | 4 f64      | 2           | 2 × 4 / 4 × 4 / 8 × 2             |
//! | `__m512`  | AVX-512F   | 8 f32      | 3           | 2 × 4 / 4 × 4 / 8 × 2             |
//!
//! **The register block.** One pass over the inputs accumulates `R`
//! output rows of `G` lane groups: `R · G` accumulators, the `G` inputs
//! with their swapped copies, and the `(m_R, m_I)` pair of the row in
//! flight, broadcast into registers *once* and consumed by the FMAs of
//! all `G` groups (the paper's register blocking, §3.2). Blocking over
//! rows alone leaves every FMA with a broadcast of its own — folded into
//! the instruction as a `{1toN}` memory operand at 512 bits, which this
//! core issues at barely more than one a cycle against two FMAs on
//! register operands (`fig2_roofline` prints the three ceilings: 84 / 47 /
//! 84 GFLOP/s for register operands / a broadcast per FMA / a broadcast
//! per two). `(R, G)` is read off the register file, per width and `k`:
//! 8 × 2 is 16 + 4 + 2 of 32 zmm, 4 × 4 is 16 + 8 + 2, 4 × 2 is 8 + 4 + 2
//! of 16 ymm; `R` divides `2^k`, and `R · G` independent chains of two
//! dependent FMAs cover the FMA latency several times over. The groups a
//! range leaves over after its whole sets of `G` run one at a time
//! through the same body at `G = 1`.
//!
//! **Who picks the width.** [`PackedLane::pack`], from `KernelConfig::simd`
//! and CPUID alone: `Simd::Auto` is the widest form the host has,
//! `Simd::Avx2` the 256-bit form (also how an AVX-512 host tests and
//! measures it), `Simd::Scalar` none. Nothing is timed.
//!
//! **Lane groups.** Block counters map to the free (non-operand) index
//! bits in order, so the `L` blocks `[c, c + L)` with `c` a multiple of
//! `L` differ exactly in the `b = log2 L` lowest free bits. When no
//! operand sits on positions `0..b` those are index bits `0..b`, and the
//! vector for local index `x` is one load from
//! `state[expand(c) + offs[x] ..]`.
//!
//! **Lane-bit operands.** With `m` operands on positions `< b`, a loaded
//! vector mixes `2^m` gate-local indices of only `L / 2^m` blocks. The
//! kernel then loads `2^m` vectors — the same address in the `2^m` block
//! sub-groups selected by the next `m` free bits — and exchanges, one
//! operand at a time, a register-index bit with the operand's lane bit
//! (`bitswap`: two `vpermt2pd` per register pair at 512 bits, a
//! `vperm2f128` or `vunpck{l,h}pd` pair at 256). After `m` exchanges
//! register `z` holds local index `z` of all `L` blocks. The exchange is
//! an involution, so the store path runs the same code.
//!
//! **Bit-exactness.** Per output row the kernel issues exactly the chain
//! the scalar step-3 kernel issues, for inputs `i` ascending from a zero
//! accumulator: `acc = fma(v_i, (m_R, m_R), acc)` then
//! `acc = fma(swap(v_i), (−m_I, m_I), acc)`. The second is computed as
//! `fma((−v_I, v_R), (m_I, m_I), acc)`: negation is exact and
//! `(−a)·b = a·(−b)` bit for bit, so the fused result is identical while
//! both matrix operands become plain scalar broadcasts. Lanes never
//! interact, so neither which blocks share a vector nor how many do can
//! reach the result: both widths and the scalar kernel agree to the bit.
//!
//! Only whole lane groups are handled here; callers run the ragged ends
//! of a block range (and every range on hosts without AVX2+FMA) through
//! [`crate::opt`]'s scalar blocked kernel, which produces the same bits.

use crate::apply::Simd;
use crate::matrix::GateMatrix;
use qsim_util::bits::IndexExpander;
use qsim_util::complex::Complex;
use qsim_util::Real;

/// Vector width of the block-lane kernel (and of the diagonal fold in
/// [`crate::sweep`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Width {
    /// 256-bit vectors, AVX2 + FMA.
    V256,
    /// 512-bit vectors, AVX-512F.
    V512,
}

impl Width {
    /// The width `simd` selects on this host, from CPUID alone.
    pub(crate) fn pick(simd: Simd) -> Option<Self> {
        match simd {
            Simd::Scalar => None,
            Simd::Auto if crate::avx512::avx512_available() => Some(Self::V512),
            Simd::Auto | Simd::Avx2 => crate::avx::avx2_available().then_some(Self::V256),
        }
    }
}

/// Vector width in bits of the kernel `simd` selects on this host — 512,
/// 256, or 0 where every range runs the scalar kernel. The one thing the
/// planner's cost table (`qsim_core::planner`) asks of the kernels.
pub fn vector_bits(simd: Simd) -> u32 {
    match Width::pick(simd) {
        Some(Width::V512) => 512,
        Some(Width::V256) => 256,
        None => 0,
    }
}

/// Gate matrix packed for the block-lane kernel: `(m_R, m_I)` scalar
/// pairs, column-major (`[input i][row r]`), so the rows of one input
/// stream linearly and every entry is a scalar-broadcast FMA operand.
/// The layout is the same at both widths; the width travels with it.
pub struct PackedLane<T> {
    k: u32,
    data: Vec<T>,
    /// Only ever set by [`Width::pick`]: holding a `PackedLane` is the
    /// proof that the host has the ISA of its width.
    width: Width,
}

impl<T: Real> PackedLane<T> {
    /// Pack a (pre-permuted) gate matrix for the vector width `simd`
    /// selects on this host; `None` when that is no SIMD at all.
    pub fn pack(m: &GateMatrix<T>, simd: Simd) -> Option<Self> {
        let width = Width::pick(simd)?;
        let d = m.dim();
        let mut data = Vec::with_capacity(2 * d * d);
        for i in 0..d {
            for r in 0..d {
                let e = m.get(r, i);
                data.push(e.re);
                data.push(e.im);
            }
        }
        Some(Self {
            k: m.k(),
            data,
            width,
        })
    }

    #[inline(always)]
    pub fn k(&self) -> u32 {
        self.k
    }

    #[inline(always)]
    pub fn dim(&self) -> usize {
        1usize << self.k
    }
}

/// Precisions that have a block-lane kernel.
pub trait LaneKernel: Real {
    /// Apply `packed` to every whole lane group (of `packed`'s width)
    /// inside block counters `[c0, c1)` and return the sub-range
    /// `[b0, b1)` that was covered (`b0 == b1` when the range holds no
    /// whole group). The caller applies `[c0, b0)` and `[b1, c1)` with the
    /// scalar kernel.
    fn apply_lane_groups(
        state: &mut [Complex<Self>],
        exp: &IndexExpander,
        packed: &PackedLane<Self>,
        offs: &[usize],
        c0: usize,
        c1: usize,
    ) -> (usize, usize);
}

macro_rules! impl_lane_kernel {
    ($t:ty, $v256:ident, $v512:ident) => {
        impl LaneKernel for $t {
            #[allow(unused_variables)]
            fn apply_lane_groups(
                state: &mut [Complex<$t>],
                exp: &IndexExpander,
                packed: &PackedLane<$t>,
                offs: &[usize],
                c0: usize,
                c1: usize,
            ) -> (usize, usize) {
                #[cfg(target_arch = "x86_64")]
                {
                    use core::arch::x86_64::{$v256, $v512};
                    match packed.width {
                        Width::V256 => {
                            x86::apply_lane_groups::<$v256>(state, exp, packed, offs, c0, c1)
                        }
                        Width::V512 => {
                            x86::apply_lane_groups::<$v512>(state, exp, packed, offs, c0, c1)
                        }
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    (c0, c0)
                }
            }
        }
    };
}

impl_lane_kernel!(f64, __m256d, __m512d);
impl_lane_kernel!(f32, __m256, __m512);

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{PackedLane, Width};
    use crate::opt::MAX_K;
    use core::arch::x86_64::*;
    use core::ops::Range;
    use qsim_util::bits::IndexExpander;
    use qsim_util::complex::Complex;
    use qsim_util::Real;

    const MAX_DIM: usize = 1 << MAX_K;
    /// Most operands that can sit on lane bits (f32 at 512 bits:
    /// positions 0, 1, 2).
    const MAX_LANE_OPS: usize = 3;

    /// One vector of `2^LANE_BITS` complex amplitudes, one per block.
    ///
    /// The methods are `inline(always)` and carry no `target_feature` of
    /// their own: they are only ever instantiated inside the
    /// `#[target_feature]` entry points in [`LaneVec::ENTRIES`], where
    /// every intrinsic inlines (checked by `scripts/check_kernel_asm.sh`).
    ///
    /// # Safety
    /// Every method requires the ISA of [`LaneVec::WIDTH`]; `load`,
    /// `store` and `splat` additionally require `p` to be valid for one
    /// vector (one scalar for `splat`) of reads or writes. No alignment
    /// is required.
    pub(super) trait LaneVec: Copy {
        type Scalar: Real;
        /// The width whose ISA the methods need.
        const WIDTH: Width;
        /// log2 of the amplitudes (= blocks) per vector.
        const LANE_BITS: u32;
        /// The entry points of this vector, one per rows-per-sweep
        /// `R = 2, 4, …` (index `log2 R − 1`; the last serves every wider
        /// gate), each with the lane groups `G` it blocks over: `R · G`
        /// accumulators, `G` inputs with their swapped copies and one
        /// broadcast `(m_R, m_I)` pair must fit the register file.
        const ENTRIES: &'static [Entry<Self::Scalar>];
        unsafe fn zero() -> Self;
        unsafe fn load(p: *const Self::Scalar) -> Self;
        unsafe fn store(p: *mut Self::Scalar, v: Self);
        /// Broadcast the scalar at `p` to every component.
        unsafe fn splat(p: *const Self::Scalar) -> Self;
        /// `a * b + acc`, fused.
        unsafe fn fmadd(a: Self, b: Self, acc: Self) -> Self;
        /// `(v_R, v_I) -> (−v_I, v_R)` per amplitude.
        unsafe fn swap_neg(v: Self) -> Self;
        /// Exchange lane bit `p < LANE_BITS` between a register pair: `a'`
        /// keeps its lanes with bit `p` clear and takes, into its lanes
        /// with bit `p` set, `b`'s lanes with the bit clear; `b'`
        /// symmetrically. Its own inverse.
        unsafe fn bitswap(a: Self, b: Self, p: u32) -> (Self, Self);
    }

    /// `vpermt2pd` index pairs for the 512-bit [`LaneVec::bitswap`] at a
    /// lane-bit stride of 1, 2 and 4 64-bit elements (index bit 3 selects
    /// `b`).
    static BITSWAP_IDX: [[[i64; 8]; 2]; 3] = [bitswap_idx(1), bitswap_idx(2), bitswap_idx(4)];

    const fn bitswap_idx(stride: usize) -> [[i64; 8]; 2] {
        let mut t = [[0i64; 8]; 2];
        let mut e = 0;
        while e < 8 {
            let set = e & stride != 0;
            t[0][e] = if set {
                8 + (e ^ stride) as i64
            } else {
                e as i64
            };
            t[1][e] = if set {
                8 + e as i64
            } else {
                (e ^ stride) as i64
            };
            e += 1;
        }
        t
    }

    /// # Safety
    /// AVX-512F; `table < 3`.
    #[inline(always)]
    unsafe fn bitswap_512(a: __m512d, b: __m512d, table: usize) -> (__m512d, __m512d) {
        let idx = &BITSWAP_IDX[table];
        let ia = _mm512_loadu_epi64(idx[0].as_ptr());
        let ib = _mm512_loadu_epi64(idx[1].as_ptr());
        (
            _mm512_permutex2var_pd(a, ia, b),
            _mm512_permutex2var_pd(a, ib, b),
        )
    }

    /// Exchange the 128-bit halves: `(a.lo, b.lo)` and `(a.hi, b.hi)` —
    /// the lane bit with a stride of two 64-bit elements.
    ///
    /// # Safety
    /// AVX.
    #[inline(always)]
    unsafe fn bitswap_256_halves(a: __m256d, b: __m256d) -> (__m256d, __m256d) {
        (
            _mm256_permute2f128_pd(a, b, 0x20),
            _mm256_permute2f128_pd(a, b, 0x31),
        )
    }

    // Only AVX-512F intrinsics are used (KNL has F without DQ).
    impl LaneVec for __m512d {
        type Scalar = f64;
        const WIDTH: Width = Width::V512;
        const LANE_BITS: u32 = 2;
        /// 8 × 2: 16 accumulators + 4 inputs + 2 broadcasts of the 32 zmm
        /// registers (4 × 4: 16 + 8 + 2).
        const ENTRIES: &'static [Entry<f64>] = &[f64x4_r2g4, f64x4_r4g4, f64x4_r8g2];
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm512_setzero_pd()
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            _mm512_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f64, v: Self) {
            _mm512_storeu_pd(p, v)
        }
        #[inline(always)]
        unsafe fn splat(p: *const f64) -> Self {
            _mm512_set1_pd(*p)
        }
        #[inline(always)]
        unsafe fn fmadd(a: Self, b: Self, acc: Self) -> Self {
            _mm512_fmadd_pd(a, b, acc)
        }
        #[inline(always)]
        unsafe fn swap_neg(v: Self) -> Self {
            // (v_I, v_R), then flip the sign bit of the even components
            // (integer xor: `_mm512_xor_pd` would need AVX-512DQ).
            let s = _mm512_castpd_si512(_mm512_permute_pd(v, 0b0101_0101));
            let sign = _mm512_set_epi64(0, i64::MIN, 0, i64::MIN, 0, i64::MIN, 0, i64::MIN);
            _mm512_castsi512_pd(_mm512_xor_si512(s, sign))
        }
        #[inline(always)]
        unsafe fn bitswap(a: Self, b: Self, p: u32) -> (Self, Self) {
            // An amplitude is two 64-bit elements: lane bit p has stride
            // 2 << p.
            bitswap_512(a, b, p as usize + 1)
        }
    }

    impl LaneVec for __m512 {
        type Scalar = f32;
        const WIDTH: Width = Width::V512;
        const LANE_BITS: u32 = 3;
        const ENTRIES: &'static [Entry<f32>] = &[f32x8_r2g4, f32x8_r4g4, f32x8_r8g2];
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm512_setzero_ps()
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: Self) {
            _mm512_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn splat(p: *const f32) -> Self {
            _mm512_set1_ps(*p)
        }
        #[inline(always)]
        unsafe fn fmadd(a: Self, b: Self, acc: Self) -> Self {
            _mm512_fmadd_ps(a, b, acc)
        }
        #[inline(always)]
        unsafe fn swap_neg(v: Self) -> Self {
            let s = _mm512_castps_si512(_mm512_permute_ps(v, 0b10_11_00_01));
            let sign = _mm512_set1_epi64(0x8000_0000);
            _mm512_castsi512_ps(_mm512_xor_si512(s, sign))
        }
        #[inline(always)]
        unsafe fn bitswap(a: Self, b: Self, p: u32) -> (Self, Self) {
            // An amplitude is one 64-bit element: stride 1 << p.
            let (x, y) = bitswap_512(_mm512_castps_pd(a), _mm512_castps_pd(b), p as usize);
            (_mm512_castpd_ps(x), _mm512_castpd_ps(y))
        }
    }

    impl LaneVec for __m256d {
        type Scalar = f64;
        const WIDTH: Width = Width::V256;
        const LANE_BITS: u32 = 1;
        /// 4 × 2: 8 accumulators + 4 inputs + 2 broadcasts, 14 of the 16
        /// ymm registers.
        const ENTRIES: &'static [Entry<f64>] = &[f64x2_r2g4, f64x2_r4g2];
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_pd()
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            _mm256_loadu_pd(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f64, v: Self) {
            _mm256_storeu_pd(p, v)
        }
        #[inline(always)]
        unsafe fn splat(p: *const f64) -> Self {
            _mm256_set1_pd(*p)
        }
        #[inline(always)]
        unsafe fn fmadd(a: Self, b: Self, acc: Self) -> Self {
            _mm256_fmadd_pd(a, b, acc)
        }
        #[inline(always)]
        unsafe fn swap_neg(v: Self) -> Self {
            // (v_I, v_R), then flip the sign of the even components.
            let s = _mm256_permute_pd(v, 0b0101);
            _mm256_xor_pd(s, _mm256_set_pd(0.0, -0.0, 0.0, -0.0))
        }
        #[inline(always)]
        unsafe fn bitswap(a: Self, b: Self, p: u32) -> (Self, Self) {
            // The one lane bit: an amplitude is one 128-bit half.
            debug_assert_eq!(p, 0);
            bitswap_256_halves(a, b)
        }
    }

    impl LaneVec for __m256 {
        type Scalar = f32;
        const WIDTH: Width = Width::V256;
        const LANE_BITS: u32 = 2;
        const ENTRIES: &'static [Entry<f32>] = &[f32x4_r2g4, f32x4_r4g2];
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(p: *mut f32, v: Self) {
            _mm256_storeu_ps(p, v)
        }
        #[inline(always)]
        unsafe fn splat(p: *const f32) -> Self {
            _mm256_set1_ps(*p)
        }
        #[inline(always)]
        unsafe fn fmadd(a: Self, b: Self, acc: Self) -> Self {
            _mm256_fmadd_ps(a, b, acc)
        }
        #[inline(always)]
        unsafe fn swap_neg(v: Self) -> Self {
            let s = _mm256_permute_ps(v, 0b10_11_00_01);
            _mm256_xor_ps(s, _mm256_set_ps(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0))
        }
        #[inline(always)]
        unsafe fn bitswap(a: Self, b: Self, p: u32) -> (Self, Self) {
            // An amplitude is one 64-bit element. Lane bit 0 pairs
            // neighbours inside each 128-bit half: (a0, b0, a2, b2) and
            // (a1, b1, a3, b3). Lane bit 1 is the half itself.
            debug_assert!(p < 2);
            let (a, b) = (_mm256_castps_pd(a), _mm256_castps_pd(b));
            let (x, y) = if p == 0 {
                (_mm256_unpacklo_pd(a, b), _mm256_unpackhi_pd(a, b))
            } else {
                bitswap_256_halves(a, b)
            };
            (_mm256_castpd_ps(x), _mm256_castpd_ps(y))
        }
    }

    /// Per-call constants of one gate on one state slice.
    pub(super) struct Geom<'a> {
        /// Amplitude offset of gate-local index `x` from a block base
        /// (`2^k` entries).
        offs: &'a [usize],
        /// How many operands sit on lane bits; they are the `m` lowest
        /// gate-local bits.
        m: usize,
        /// Their positions (`< LANE_BITS`), ascending.
        lane_ops: [u32; MAX_LANE_OPS],
        /// Amplitude offset of block sub-group `y < 2^m`: the free bits
        /// that stand in for the operand-occupied lane bits.
        sub: [usize; 1 << MAX_LANE_OPS],
        /// The amplitudes of the block range the front door checked
        /// against the state: first of its first block to one past the
        /// last of its last block.
        span: Range<usize>,
    }

    /// Entry point of one `(vector, rows, groups)` instantiation.
    pub(super) type Entry<S> = unsafe fn(*mut S, &IndexExpander, &Geom<'_>, *const S, usize, usize);

    /// Safe front door: validate, derive the lane geometry, and run the
    /// whole lane groups of `[c0, c1)` through the instantiation for this
    /// gate width. Returns the covered block range.
    pub(super) fn apply_lane_groups<V: LaneVec>(
        state: &mut [Complex<V::Scalar>],
        exp: &IndexExpander,
        packed: &PackedLane<V::Scalar>,
        offs: &[usize],
        c0: usize,
        c1: usize,
    ) -> (usize, usize) {
        assert_eq!(packed.width, V::WIDTH);
        let lanes = 1usize << V::LANE_BITS;
        let b0 = c0.next_multiple_of(lanes);
        let b1 = c1 & !(lanes - 1);
        if b0 >= b1 {
            return (c0, c0);
        }
        let dim = packed.dim();
        let k = packed.k() as usize;
        assert!(dim <= MAX_DIM && exp.k() == k && offs.len() >= dim);
        assert_eq!(packed.data.len(), 2 * dim * dim);
        // Memory safety of every access below rests on these two checks:
        // `offs` is the expander's own offset table, and the last block of
        // the range lies inside the state. The kernel touches exactly the
        // amplitudes of blocks [b0, b1); block bases grow with the counter
        // and `offs[dim - 1]` (every operand bit set) is the largest offset.
        assert!(
            offs[..dim]
                .iter()
                .enumerate()
                .all(|(x, &o)| o == exp.offset(x)),
            "offset table does not belong to the expander"
        );
        let last = exp.expand(b1 - 1) + offs[dim - 1];
        assert!(
            last < state.len(),
            "block range [{c0}, {c1}) exceeds a state of {} amplitudes",
            state.len()
        );
        // Sorted operands: local bit j sits at position log2(offs[1 << j]).
        let mut lane_ops = [0u32; MAX_LANE_OPS];
        let mut m = 0;
        while m < k && offs[1 << m] < lanes {
            lane_ops[m] = offs[1 << m].trailing_zeros();
            m += 1;
        }
        // Sub-group y sets, for each of its bits j, the free bit that
        // counter bit (LANE_BITS − m + j) expands to.
        let mut sub = [0usize; 1 << MAX_LANE_OPS];
        for (y, s) in sub.iter_mut().enumerate().take(1 << m) {
            *s = exp.expand(y << (V::LANE_BITS as usize - m));
        }
        let geom = Geom {
            offs: &offs[..dim],
            m,
            lane_ops,
            sub,
            span: exp.expand(b0)..last + 1,
        };
        let entry = V::ENTRIES[(k - 1).min(V::ENTRIES.len() - 1)];
        // SAFETY: `packed.width == V::WIDTH` was set by `Width::pick`,
        // which found that width's ISA in CPUID; `Complex<S>` is
        // `repr(C) { re, im }`, so the slice is 2·len scalars; `offs` is
        // cut to 2^k <= MAX_DIM entries and `m`, `lane_ops`, `sub` are
        // derived from it and from `exp`; `entry` is the instantiation
        // for min(2^k, 2^ENTRIES.len()) rows; and the index bound the
        // kernel relies on is asserted above.
        unsafe {
            entry(
                state.as_mut_ptr() as *mut V::Scalar,
                exp,
                &geom,
                packed.data.as_ptr(),
                b0 >> V::LANE_BITS,
                b1 >> V::LANE_BITS,
            )
        };
        (b0, b1)
    }

    /// `R` output rows `r0..r0 + R` of `G` lane groups: the shared FMA
    /// chain, inputs `0..dim` ascending, from zero accumulators. Each
    /// `(m_R, m_I)` pair is broadcast once and feeds the FMAs of all `G`
    /// groups; the chain of any one lane is the same at every `G`.
    ///
    /// # Safety
    /// `V`'s ISA must be available; `input(i, j)` must be readable as one
    /// vector for every `i < dim` and `j < G`, and `mat` must hold `2·dim²`
    /// packed scalars with `r0 + R <= dim`.
    #[inline(always)]
    unsafe fn rows<V: LaneVec, const R: usize, const G: usize>(
        mat: *const V::Scalar,
        dim: usize,
        r0: usize,
        input: impl Fn(usize, usize) -> *const V::Scalar,
    ) -> [[V; G]; R] {
        debug_assert!(r0 + R <= dim);
        let mut acc = [[V::zero(); G]; R];
        for i in 0..dim {
            let mut v = [V::zero(); G];
            let mut w = [V::zero(); G];
            for j in 0..G {
                v[j] = V::load(input(i, j));
                w[j] = V::swap_neg(v[j]);
            }
            // SAFETY: i < dim and r0 + r < dim, so both scalars of entry
            // (i, r0 + r) lie inside the 2·dim² of `mat`.
            let col = mat.add(2 * (i * dim + r0));
            for (r, a) in acc.iter_mut().enumerate() {
                let m_re = V::splat(col.add(2 * r));
                let m_im = V::splat(col.add(2 * r + 1));
                for j in 0..G {
                    a[j] = V::fmadd(v[j], m_re, a[j]);
                    a[j] = V::fmadd(w[j], m_im, a[j]);
                }
            }
        }
        acc
    }

    /// Move the `2^M` local indices `xhi << M | z` of one lane group
    /// between the state and `buf`, transposing the `M` lane-bit operands
    /// out of (`GATHER`) or back into the lanes. Local index `x` lives at
    /// `buf[x * stride]`, so the groups of one pass interleave.
    ///
    /// # Safety
    /// As [`run`], with `M == g.m`, `base` the base of a lane group of the
    /// range and `buf` holding `2^k` vectors `stride` apart.
    #[inline(always)]
    unsafe fn transpose<V: LaneVec, const M: usize, const GATHER: bool>(
        sp: *mut V::Scalar,
        base: usize,
        g: &Geom,
        buf: *mut V,
        stride: usize,
    ) {
        // What `apply_lane_groups` established, re-checked next to the
        // raw loads it licenses.
        debug_assert!(M == g.m && g.m <= V::LANE_BITS as usize);
        debug_assert!(g.lane_ops[..M].iter().all(|&p| p < V::LANE_BITS));
        for xhi in 0..g.offs.len() >> M {
            // SAFETY: xhi << M < offs.len().
            let at = base + *g.offs.get_unchecked(xhi << M);
            let mut w = [V::zero(); 1 << MAX_LANE_OPS];
            for (y, v) in w.iter_mut().enumerate().take(1 << M) {
                // A whole vector of the group's amplitudes: sub-group y
                // of a group inside the range, at an offset with the lane
                // bits clear.
                debug_assert!(
                    g.span.start <= at + g.sub[y]
                        && at + g.sub[y] + (1 << V::LANE_BITS) <= g.span.end
                );
                *v = if GATHER {
                    // SAFETY: inside `g.span`, which the front door
                    // checked against the state.
                    V::load(sp.add(2 * (at + g.sub[y])))
                } else {
                    // SAFETY: xhi << M | y < 2^k, the length of `buf`.
                    *buf.add((xhi << M | y) * stride)
                };
            }
            for j in 0..M {
                for y in 0..1usize << M {
                    if y & (1 << j) == 0 {
                        let (a, b) = V::bitswap(w[y], w[y | 1 << j], g.lane_ops[j]);
                        w[y] = a;
                        w[y | 1 << j] = b;
                    }
                }
            }
            for (y, v) in w.iter().enumerate().take(1 << M) {
                // SAFETY: the same addresses as above.
                if GATHER {
                    *buf.add((xhi << M | y) * stride) = *v;
                } else {
                    V::store(sp.add(2 * (at + g.sub[y])), *v);
                }
            }
        }
    }

    /// [`transpose`] at `M = g.m >= 1`.
    ///
    /// # Safety
    /// As [`transpose`].
    #[inline(always)]
    unsafe fn transpose_m<V: LaneVec, const GATHER: bool>(
        sp: *mut V::Scalar,
        base: usize,
        g: &Geom,
        buf: *mut V,
        stride: usize,
    ) {
        match g.m {
            1 => transpose::<V, 1, GATHER>(sp, base, g, buf, stride),
            2 if V::LANE_BITS >= 2 => transpose::<V, 2, GATHER>(sp, base, g, buf, stride),
            3 if V::LANE_BITS == 3 => transpose::<V, 3, GATHER>(sp, base, g, buf, stride),
            m => unreachable!("{m} operands on {} lane bits", V::LANE_BITS),
        }
    }

    /// Most vectors one pass of [`run`] stages: `G · dim`, where only
    /// gates of `dim <= 4` block over more than two groups.
    const STAGE: usize = 2 * MAX_DIM;

    /// As many of the lane groups `[g0, g1)` (group `g` = blocks
    /// `[g·L, (g+1)·L)`) as make whole sets of `G`, one set per pass
    /// through the `R × G` register block; returns the first group left
    /// over.
    ///
    /// # Safety
    /// `V`'s ISA must be available; `sp` must point to a state holding
    /// every amplitude of those blocks under `exp` and `g.offs` (and
    /// `g.span` must be their extent); `g.offs` must have
    /// `dim = 2^k <= MAX_DIM` entries and `g.m`, `g.lane_ops`, `g.sub`
    /// describe its operands below `LANE_BITS`; `mat` must hold `2·dim²`
    /// packed scalars; and `R == min(dim, 2^V::ENTRIES.len())`.
    #[inline(always)]
    unsafe fn run<V: LaneVec, const R: usize, const G: usize>(
        sp: *mut V::Scalar,
        exp: &IndexExpander,
        g: &Geom,
        mat: *const V::Scalar,
        g0: usize,
        g1: usize,
    ) -> usize {
        let dim = g.offs.len();
        debug_assert!(dim <= MAX_DIM && R == dim.min(1 << V::ENTRIES.len()));
        // Every index into `staged` and `out` below is `< G · dim`.
        assert!(G * dim <= STAGE);
        // SAFETY (all `get_unchecked` below): indices are `< dim`. The
        // address is local index x of every block of the group at `base`:
        // one vector inside `g.span` when no operand sits on a lane bit
        // (the only case `at` is used in).
        let at = |base: usize, x: usize| {
            let a = base + *g.offs.get_unchecked(x);
            debug_assert!(g.span.start <= a && a + (1 << V::LANE_BITS) <= g.span.end);
            sp.add(2 * a)
        };
        // Local index x of group j of the pass lives at `[x * G + j]`.
        // Written before read: `staged[..G·dim]` by the gather of each
        // pass, `out[..G·dim]` by its row sweeps.
        let mut staged = [core::mem::MaybeUninit::<V>::uninit(); STAGE];
        let mut out = [core::mem::MaybeUninit::<V>::uninit(); STAGE];
        let staged = staged.as_mut_ptr() as *mut V;
        let out = out.as_mut_ptr() as *mut V;
        let mut grp = g0;
        while grp + G <= g1 {
            let mut base = [0usize; G];
            for (j, b) in base.iter_mut().enumerate() {
                *b = exp.expand((grp + j) << V::LANE_BITS);
                debug_assert!(g.span.contains(b));
            }
            grp += G;
            if g.m == 0 && dim == R {
                // Every row fits one sweep: inputs straight from the
                // state, outputs straight back once all are consumed.
                // (`R` for `dim`: the sweep's trip count is a constant.)
                let acc = rows::<V, R, G>(mat, R, 0, |i, j| at(base[j], i) as _);
                for (r, a) in acc.iter().enumerate() {
                    for (j, a) in a.iter().enumerate() {
                        V::store(at(base[j], r), *a);
                    }
                }
                continue;
            }
            for (j, &b) in base.iter().enumerate() {
                if g.m == 0 {
                    for i in 0..dim {
                        *staged.add(i * G + j) = V::load(at(b, i));
                    }
                } else {
                    transpose_m::<V, true>(sp, b, g, staged.add(j), G);
                }
            }
            for r0 in (0..dim).step_by(R) {
                let acc = rows::<V, R, G>(mat, dim, r0, |i, j| staged.add(i * G + j) as _);
                for (r, a) in acc.iter().enumerate() {
                    for (j, a) in a.iter().enumerate() {
                        if g.m == 0 {
                            V::store(at(base[j], r0 + r), *a);
                        } else {
                            *out.add((r0 + r) * G + j) = *a;
                        }
                    }
                }
            }
            if g.m > 0 {
                for (j, &b) in base.iter().enumerate() {
                    transpose_m::<V, false>(sp, b, g, out.add(j), G);
                }
            }
        }
        grp
    }

    macro_rules! lane_entry {
        ($feat:literal, $v:ty, $($name:ident + $tail:ident = ($r:literal, $g:literal)),+) => {$(
            /// Whole sets of `G` lane groups of `[g0, g1)` through the
            /// `R × G` register block, then the `G = 1` symbol below.
            ///
            /// # Safety
            /// See [`run`]; the target features enabled here are the ISA
            /// `run` needs for this vector.
            #[target_feature(enable = $feat)]
            unsafe fn $name(
                sp: *mut <$v as LaneVec>::Scalar,
                exp: &IndexExpander,
                g: &Geom,
                mat: *const <$v as LaneVec>::Scalar,
                g0: usize,
                g1: usize,
            ) {
                // SAFETY: the caller's contract is `run`'s, and the tail's
                // target features are this function's.
                let rest = run::<$v, $r, $g>(sp, exp, g, mat, g0, g1);
                if rest < g1 {
                    $tail(sp, exp, g, mat, rest, g1);
                }
            }

            /// The groups the entry above leaves over, one at a time
            /// through the same body. A symbol of its own so that
            /// `scripts/check_kernel_asm.sh` can hold the blocked entry to
            /// one broadcast per `G` FMAs.
            ///
            /// # Safety
            /// As the entry above.
            #[inline(never)]
            #[target_feature(enable = $feat)]
            unsafe fn $tail(
                sp: *mut <$v as LaneVec>::Scalar,
                exp: &IndexExpander,
                g: &Geom,
                mat: *const <$v as LaneVec>::Scalar,
                g0: usize,
                g1: usize,
            ) {
                // SAFETY: the caller's contract is `run`'s.
                run::<$v, $r, 1>(sp, exp, g, mat, g0, g1);
            }
        )+};
    }
    lane_entry!(
        "avx2,fma",
        __m256d,
        f64x2_r2g4 + f64x2_r2g1 = (2, 4),
        f64x2_r4g2 + f64x2_r4g1 = (4, 2)
    );
    lane_entry!(
        "avx2,fma",
        __m256,
        f32x4_r2g4 + f32x4_r2g1 = (2, 4),
        f32x4_r4g2 + f32x4_r4g1 = (4, 2)
    );
    lane_entry!(
        "avx512f",
        __m512d,
        f64x4_r2g4 + f64x4_r2g1 = (2, 4),
        f64x4_r4g4 + f64x4_r4g1 = (4, 4),
        f64x4_r8g2 + f64x4_r8g1 = (8, 2)
    );
    lane_entry!(
        "avx512f",
        __m512,
        f32x8_r2g4 + f32x8_r2g1 = (2, 4),
        f32x8_r4g4 + f32x8_r4g1 = (4, 4),
        f32x8_r8g2 + f32x8_r8g1 = (8, 2)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::PackedMatrix;
    use crate::opt::{apply_blocked_packed_range, offsets, prepare};
    use crate::testutil::{assert_bits_eq, random_amps};
    use proptest::prelude::*;
    use qsim_util::Xoshiro256;

    /// The two `Simd` values with a lane form; with the two precisions
    /// they reach all four vector types on an AVX-512 host.
    const WIDTHS: [Simd; 2] = [Simd::Avx2, Simd::Auto];

    /// Bytes of the vector `simd` must select on this host (0: none),
    /// stated independently of `Width::pick`.
    fn vector_bytes(simd: Simd) -> usize {
        let avx512 = crate::avx512::avx512_available();
        let avx2 = crate::avx::avx2_available();
        match simd {
            Simd::Auto if avx512 => 64,
            Simd::Auto | Simd::Avx2 if avx2 => 32,
            _ => 0,
        }
    }

    /// Lane kernel of `simd`'s width on `[c0, c1)` against the scalar
    /// blocked kernel on the range it reports as covered — which must be
    /// the whole lane groups of that width; every amplitude must match bit
    /// for bit, including the ones outside the range (untouched).
    fn check<T: LaneKernel>(simd: Simd, n: u32, qubits: &[u32], c0: usize, c1: usize, seed: u64) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let k = qubits.len() as u32;
        let m = GateMatrix::from_rows(k, random_amps::<T>(1 << (2 * k), &mut rng));
        let state0 = random_amps::<T>(1 << n, &mut rng);
        let (exp, pm) = prepare(state0.len(), qubits, &m);
        let offs = offsets(&exp, pm.dim());

        let l = vector_bytes(simd) / std::mem::size_of::<Complex<T>>();
        let packed = PackedLane::pack(&pm, simd);
        assert_eq!(packed.is_some(), l > 0, "{simd:?}: lane form vs host ISA");
        let Some(packed) = packed else { return };
        let mut lane = state0.clone();
        let (b0, b1) = T::apply_lane_groups(&mut lane, &exp, &packed, &offs, c0, c1);
        let want = (c0.next_multiple_of(l), c1 / l * l);
        if want.0 < want.1 {
            assert_eq!((b0, b1), want, "whole {l}-block groups of [{c0}, {c1})");
        } else {
            assert_eq!((b0, b1), (c0, c0));
        }

        let mut scalar = state0;
        let rows = PackedMatrix::pack(&pm);
        apply_blocked_packed_range(&mut scalar, &exp, &rows, &offs, b0, b1);
        assert_bits_eq(
            &lane,
            &scalar,
            &format!("x{l} n={n} qubits={qubits:?} [{c0},{c1})"),
        );
    }

    /// [`check`] at both precisions and both widths: all four vectors.
    fn check_all(n: u32, qubits: &[u32], c0: usize, c1: usize, seed: u64) {
        for simd in WIDTHS {
            check::<f64>(simd, n, qubits, c0, c1, seed);
            check::<f32>(simd, n, qubits, c0, c1, seed);
        }
    }

    /// Operand set from the proptest draws: chosen lane bits, `top`
    /// operands at the top of the register, the rest from the middle;
    /// 1..=5 distinct positions below `n`, shuffled.
    fn operands(n: u32, low_mask: u32, top: u32, mid: &[u32], order: u64) -> Vec<u32> {
        let mut qs: Vec<u32> = (0..3).filter(|p| low_mask >> p & 1 == 1).collect();
        qs.extend((0..top).map(|t| n - 1 - t));
        qs.extend(mid.iter().map(|&q| 3 + q % (n - 3)));
        qs.retain(|&q| q < n);
        qs.sort_unstable();
        qs.dedup();
        if qs.is_empty() {
            qs.push(n / 2);
        }
        let mut rng = Xoshiro256::seed_from_u64(order);
        for i in (1..qs.len()).rev() {
            qs.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        qs.truncate(5);
        qs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn lane_kernel_is_bit_identical_to_blocked_scalar(
            n in 4u32..=10,
            low_mask in 0u32..8,
            top in 0u32..=2,
            mid in prop::collection::vec(0u32..16, 0..=3),
            order in 0u64..1 << 32,
            range in (0usize..1 << 10, 0usize..1 << 10),
            seed in 0u64..1 << 32,
        ) {
            let qubits = operands(n, low_mask, top, &mid, order);
            let blocks = 1usize << (n - qubits.len() as u32);
            // Unaligned ends, empty ranges and ranges shorter than one
            // lane group all occur; small n leaves fewer blocks than lanes.
            let (a, b) = (range.0 % (blocks + 1), range.1 % (blocks + 1));
            check_all(n, &qubits, a.min(b), a.max(b), seed);
            check_all(n, &qubits, 0, blocks, seed);
        }
    }

    /// Operand sets of width `k` over every choice of which of positions
    /// 0, 1, 2 carry an operand — every subset of the lane bits of every
    /// vector (LANE_BITS 1, 2 and 3; a position at or above LANE_BITS is
    /// an ordinary low operand) — filled up from positions below 11.
    fn lane_bit_subsets(k: u32) -> Vec<Vec<u32>> {
        (0u32..8)
            .filter(|low_mask| low_mask.count_ones() <= k)
            .map(|low_mask| {
                let mut qs: Vec<u32> = (0..3).filter(|p| low_mask >> p & 1 == 1).collect();
                let fill = [4u32, 6, 7, 9, 10, 3];
                qs.extend(&fill[..k as usize - qs.len()]);
                qs.reverse();
                qs
            })
            .collect()
    }

    #[test]
    fn every_lane_bit_subset_at_every_width() {
        // k = 6 runs eight 8-row or sixteen 4-row sweeps per pass.
        let n = 11u32;
        for k in 1..=6u32 {
            for qs in lane_bit_subsets(k) {
                let blocks = 1usize << (n - k);
                check_all(n, &qs, 0, blocks, 7 + k as u64);
                check_all(n, &qs, 3, blocks - 5, 9 + k as u64);
            }
        }
    }

    #[test]
    fn group_seam_is_invisible() {
        // A range of w whole lane groups runs w / G passes of the R × G
        // register block and w % G groups through the G = 1 symbol: with
        // G = 2 and 4 in the entry table, w = 1, 2, 3, 5 reaches a lone
        // tail, a lone pass, a pass plus one and plus three tail groups.
        // Both ends ragged, so the covered range starts and stops inside
        // [c0, c1) and everything outside it must come back untouched.
        fn seams<T: LaneKernel>(simd: Simd, n: u32, qs: &[u32], seed: u64) {
            let l = vector_bytes(simd) / std::mem::size_of::<Complex<T>>();
            for w in [1usize, 2, 3, 5] {
                if l > 0 {
                    check::<T>(simd, n, qs, l - 1, l * (1 + w) + l / 2, seed + w as u64);
                }
            }
        }
        let n = 12u32;
        for k in 1..=6u32 {
            for qs in lane_bit_subsets(k) {
                for simd in WIDTHS {
                    seams::<f64>(simd, n, &qs, 20 + k as u64);
                    seams::<f32>(simd, n, &qs, 30 + k as u64);
                }
            }
        }
    }

    #[test]
    fn block_range_past_the_state_is_rejected() {
        fn rejected<T: LaneKernel>(simd: Simd) {
            let m = GateMatrix::<T>::identity(2);
            let mut state = vec![Complex::<T>::zero(); 1 << 6];
            let (exp, pm) = prepare(state.len(), &[2, 4], &m);
            let offs = offsets(&exp, 4);
            let Some(packed) = PackedLane::pack(&pm, simd) else {
                return; // no such vector on this host: nothing to reject
            };
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                T::apply_lane_groups(&mut state, &exp, &packed, &offs, 0, 32)
            }))
            .expect_err("32 blocks of 4 amplitudes in a 64-amplitude state");
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("exceeds a state"), "{simd:?}: {msg}");
        }
        for simd in WIDTHS {
            rejected::<f64>(simd);
            rejected::<f32>(simd);
        }
    }
}
