//! Block-lane dense kernel: the step-3 kernel vectorised across *blocks*.
//!
//! The row kernels ([`crate::avx`], [`crate::avx512`], [`crate::avxf32`])
//! put consecutive output rows of ONE 2^k-amplitude block into a vector,
//! so every block pays a scalar gather of its inputs and a scalar scatter
//! of its outputs next to its FMAs. This kernel turns the layout by 90°,
//! the way qsim lays out its SIMD gate kernels: one 512-bit vector holds
//! the *same* gate-local amplitude `x` of `L` consecutive blocks (`L` = 4
//! for f64, 8 for f32 — one cache line), matrix entries enter as
//! broadcast operands, and inputs and outputs move as whole vectors.
//!
//! **Lane groups.** Block counters map to the free (non-operand) index
//! bits in order, so the `L` blocks `[c, c + L)` with `c` a multiple of
//! `L` differ exactly in the `b = log2 L` lowest free bits. When no
//! operand sits on positions `0..b` those are index bits `0..b`, and the
//! vector for local index `x` is one aligned load from
//! `state[expand(c) + offs[x] ..]`.
//!
//! **Lane-bit operands.** With `m` operands on positions `< b`, a loaded
//! vector mixes `2^m` gate-local indices of only `L / 2^m` blocks. The
//! kernel then loads `2^m` vectors — the same address in the `2^m` block
//! sub-groups selected by the next `m` free bits — and exchanges, one
//! operand at a time, a register-index bit with the operand's lane bit
//! (`bitswap`: two `vpermt2pd` per register pair). After `m` exchanges
//! register `z` holds local index `z` of all `L` blocks. The exchange is
//! an involution, so the store path runs the same code.
//!
//! **Bit-exactness.** Per output row the kernel issues exactly the chain
//! every other step-3 kernel issues, for inputs `i` ascending from a zero
//! accumulator: `acc = fma(v_i, (m_R, m_R), acc)` then
//! `acc = fma(swap(v_i), (−m_I, m_I), acc)`. The second is computed as
//! `fma((−v_I, v_R), (m_I, m_I), acc)`: negation is exact and
//! `(−a)·b = a·(−b)` bit for bit, so the fused result is identical while
//! both matrix operands become plain scalar broadcasts. Lanes never
//! interact, so which blocks share a vector cannot reach the result.
//!
//! Only whole lane groups are handled here; callers run the ragged ends
//! of a block range (and every range on hosts without AVX-512F) through
//! the row kernels, which produce the same bits.

use crate::matrix::GateMatrix;
use qsim_util::bits::IndexExpander;
use qsim_util::complex::Complex;
use qsim_util::Real;

/// Gate matrix packed for the block-lane kernel: `(m_R, m_I)` scalar
/// pairs, column-major (`[input i][row r]`), so the rows of one input
/// stream linearly and every entry is a scalar-broadcast FMA operand.
pub struct PackedLane<T> {
    k: u32,
    data: Vec<T>,
}

impl<T: Real> PackedLane<T> {
    /// Pack a (pre-permuted) gate matrix.
    pub fn pack(m: &GateMatrix<T>) -> Self {
        let d = m.dim();
        let mut data = Vec::with_capacity(2 * d * d);
        for i in 0..d {
            for r in 0..d {
                let e = m.get(r, i);
                data.push(e.re);
                data.push(e.im);
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
}

/// Precisions that have a block-lane kernel.
pub trait LaneKernel: Real {
    /// Apply `packed` to every whole lane group inside block counters
    /// `[c0, c1)` and return the sub-range `[b0, b1)` that was covered
    /// (`b0 == b1` when none was: range too short, or no AVX-512F). The
    /// caller applies `[c0, b0)` and `[b1, c1)` with a row kernel.
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
    ($t:ty, $v:ident, $($entry:ident),+) => {
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
                    let entries = [$(x86::$entry),+];
                    x86::apply_lane_groups::<core::arch::x86_64::$v>(
                        state, exp, packed, offs, c0, c1, &entries,
                    )
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    (c0, c0)
                }
            }
        }
    };
}

impl_lane_kernel!(f64, __m512d, f64_r2, f64_r4, f64_r8, f64_r16);
impl_lane_kernel!(f32, __m512, f32_r2, f32_r4, f32_r8, f32_r16);

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::PackedLane;
    use crate::opt::MAX_K;
    use core::arch::x86_64::*;
    use qsim_util::bits::IndexExpander;
    use qsim_util::complex::Complex;
    use qsim_util::Real;

    const MAX_DIM: usize = 1 << MAX_K;
    /// Most operands that can sit on lane bits (f32: positions 0, 1, 2).
    const MAX_LANE_OPS: usize = 3;
    /// Output rows accumulated per input sweep: 16 accumulators + input +
    /// swapped input leave a dozen of the 32 zmm registers spare, and 16
    /// independent chains of two dependent FMAs cover the FMA latency.
    const MAX_ROWS: usize = 16;

    /// One 512-bit vector of `LANES` complex amplitudes, one per block.
    ///
    /// The methods are `inline(always)` and carry no `target_feature` of
    /// their own: they are only ever instantiated inside the
    /// `#[target_feature(enable = "avx512f")]` entry points below, where
    /// every intrinsic inlines (checked by `scripts/check_kernel_asm.sh`).
    /// Only AVX-512F intrinsics are used (KNL has F without DQ).
    pub(super) trait LaneVec: Copy {
        type Scalar: Real;
        /// log2 of the amplitudes (= blocks) per vector.
        const LANE_BITS: u32;
        unsafe fn zero() -> Self;
        unsafe fn load(p: *const Self::Scalar) -> Self;
        unsafe fn store(p: *mut Self::Scalar, v: Self);
        /// Broadcast the scalar at `p` to every component.
        unsafe fn splat(p: *const Self::Scalar) -> Self;
        /// `a * b + acc`, fused.
        unsafe fn fmadd(a: Self, b: Self, acc: Self) -> Self;
        /// `(v_R, v_I) -> (−v_I, v_R)` per amplitude.
        unsafe fn swap_neg(v: Self) -> Self;
        /// Exchange lane bit `p` between a register pair: `a'` keeps its
        /// lanes with bit `p` clear and takes, into its lanes with bit `p`
        /// set, `b`'s lanes with the bit clear; `b'` symmetrically. Its
        /// own inverse.
        unsafe fn bitswap(a: Self, b: Self, p: u32) -> (Self, Self);
    }

    /// `vpermt2pd` index pairs for [`LaneVec::bitswap`] at a lane-bit
    /// stride of 1, 2 and 4 64-bit elements (index bit 3 selects `b`).
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

    #[inline(always)]
    unsafe fn bitswap_pd(a: __m512d, b: __m512d, table: usize) -> (__m512d, __m512d) {
        let idx = &BITSWAP_IDX[table];
        let ia = _mm512_loadu_epi64(idx[0].as_ptr());
        let ib = _mm512_loadu_epi64(idx[1].as_ptr());
        (
            _mm512_permutex2var_pd(a, ia, b),
            _mm512_permutex2var_pd(a, ib, b),
        )
    }

    impl LaneVec for __m512d {
        type Scalar = f64;
        const LANE_BITS: u32 = 2;
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
            bitswap_pd(a, b, p as usize + 1)
        }
    }

    impl LaneVec for __m512 {
        type Scalar = f32;
        const LANE_BITS: u32 = 3;
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
            let (x, y) = bitswap_pd(_mm512_castps_pd(a), _mm512_castps_pd(b), p as usize);
            (_mm512_castpd_ps(x), _mm512_castpd_ps(y))
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
    }

    /// Entry point of one `(vector, rows-per-sweep)` instantiation.
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
        entries: &[Entry<V::Scalar>; 4],
    ) -> (usize, usize) {
        let lanes = 1usize << V::LANE_BITS;
        let b0 = c0.next_multiple_of(lanes);
        let b1 = c1 & !(lanes - 1);
        if b0 >= b1 || !crate::avx512::avx512_available() {
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
        assert!(
            exp.expand(b1 - 1) + offs[dim - 1] < state.len(),
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
        };
        let entry = entries[dim.min(MAX_ROWS).trailing_zeros() as usize - 1];
        // SAFETY: AVX-512F presence checked above; `Complex<S>` is
        // `repr(C) { re, im }`, so the slice is 2·len scalars; `offs` is
        // cut to 2^k <= MAX_DIM entries and `m`, `lane_ops`, `sub` are
        // derived from it and from `exp`; `entry` is the instantiation
        // for min(2^k, MAX_ROWS) rows; and the index bound the kernel
        // relies on is asserted above.
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

    /// `R` output rows `r0..r0 + R` of one lane group: the shared FMA
    /// chain, inputs `0..dim` ascending, from zero accumulators.
    ///
    /// # Safety
    /// `input(i)` must be readable as one vector for every `i < dim`, and
    /// `mat` must hold `2·dim²` packed scalars with `r0 + R <= dim`.
    #[inline(always)]
    unsafe fn rows<V: LaneVec, const R: usize>(
        mat: *const V::Scalar,
        dim: usize,
        r0: usize,
        input: impl Fn(usize) -> *const V::Scalar,
    ) -> [V; R] {
        debug_assert!(r0 + R <= dim);
        let mut acc = [V::zero(); R];
        for i in 0..dim {
            let v = V::load(input(i));
            let w = V::swap_neg(v);
            let col = mat.add(2 * (i * dim + r0));
            for (r, a) in acc.iter_mut().enumerate() {
                *a = V::fmadd(v, V::splat(col.add(2 * r)), *a);
                *a = V::fmadd(w, V::splat(col.add(2 * r + 1)), *a);
            }
        }
        acc
    }

    /// Move the `2^M` local indices `xhi << M | z` of one lane group
    /// between the state and `buf`, transposing the `M` lane-bit operands
    /// out of (`GATHER`) or back into the lanes.
    ///
    /// # Safety
    /// As [`run`], with `M == g.m` and `buf` holding `2^k` vectors.
    #[inline(always)]
    unsafe fn transpose<V: LaneVec, const M: usize, const GATHER: bool>(
        sp: *mut V::Scalar,
        base: usize,
        g: &Geom,
        buf: *mut V,
    ) {
        debug_assert_eq!(M, g.m);
        for xhi in 0..g.offs.len() >> M {
            // SAFETY: xhi << M < offs.len().
            let at = base + *g.offs.get_unchecked(xhi << M);
            let mut w = [V::zero(); 1 << MAX_LANE_OPS];
            for (y, v) in w.iter_mut().enumerate().take(1 << M) {
                *v = if GATHER {
                    V::load(sp.add(2 * (at + g.sub[y])))
                } else {
                    *buf.add(xhi << M | y)
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
                if GATHER {
                    *buf.add(xhi << M | y) = *v;
                } else {
                    V::store(sp.add(2 * (at + g.sub[y])), *v);
                }
            }
        }
    }

    /// [`transpose`] at `M = g.m >= 1`.
    #[inline(always)]
    unsafe fn transpose_m<V: LaneVec, const GATHER: bool>(
        sp: *mut V::Scalar,
        base: usize,
        g: &Geom,
        buf: *mut V,
    ) {
        match g.m {
            1 => transpose::<V, 1, GATHER>(sp, base, g, buf),
            2 => transpose::<V, 2, GATHER>(sp, base, g, buf),
            3 if V::LANE_BITS == 3 => transpose::<V, 3, GATHER>(sp, base, g, buf),
            m => unreachable!("{m} operands on {} lane bits", V::LANE_BITS),
        }
    }

    /// Lane groups `[g0, g1)` (group `g` = blocks `[g·L, (g+1)·L)`).
    ///
    /// # Safety
    /// AVX-512F must be available; `sp` must point to a state holding
    /// every amplitude of those blocks under `exp` and `g.offs`; `g.offs`
    /// must have `dim = 2^k <= MAX_DIM` entries and `g.m`, `g.lane_ops`,
    /// `g.sub` describe its operands below `LANE_BITS`; `mat` must hold
    /// `2·dim²` packed scalars; and `R == min(dim, MAX_ROWS)`.
    #[inline(always)]
    unsafe fn run<V: LaneVec, const R: usize>(
        sp: *mut V::Scalar,
        exp: &IndexExpander,
        g: &Geom,
        mat: *const V::Scalar,
        g0: usize,
        g1: usize,
    ) {
        let dim = g.offs.len();
        debug_assert!(dim <= MAX_DIM && R == dim.min(MAX_ROWS));
        // SAFETY (all `get_unchecked` below): indices are `< dim`.
        let at = |base: usize, x: usize| sp.add(2 * (base + *g.offs.get_unchecked(x)));
        // Written before read: `staged[..dim]` by the gather of each
        // group, `out[..dim]` by its row sweeps.
        let mut staged = [core::mem::MaybeUninit::<V>::uninit(); MAX_DIM];
        let mut out = [core::mem::MaybeUninit::<V>::uninit(); MAX_DIM];
        let staged = staged.as_mut_ptr() as *mut V;
        let out = out.as_mut_ptr() as *mut V;
        for grp in g0..g1 {
            let base = exp.expand(grp << V::LANE_BITS);
            if g.m == 0 && dim == R {
                // Every row fits one sweep: inputs straight from the
                // state, outputs straight back once all are consumed.
                let acc = rows::<V, R>(mat, dim, 0, |i| at(base, i) as _);
                for (r, a) in acc.iter().enumerate() {
                    V::store(at(base, r), *a);
                }
                continue;
            }
            if g.m == 0 {
                for i in 0..dim {
                    *staged.add(i) = V::load(at(base, i));
                }
            } else {
                transpose_m::<V, true>(sp, base, g, staged);
            }
            for r0 in (0..dim).step_by(R) {
                let acc = rows::<V, R>(mat, dim, r0, |i| staged.add(i) as _);
                for (r, a) in acc.iter().enumerate() {
                    if g.m == 0 {
                        V::store(at(base, r0 + r), *a);
                    } else {
                        *out.add(r0 + r) = *a;
                    }
                }
            }
            if g.m > 0 {
                transpose_m::<V, false>(sp, base, g, out);
            }
        }
    }

    macro_rules! lane_entry {
        ($name:ident, $v:ty, $r:expr) => {
            /// # Safety
            /// See [`run`].
            #[target_feature(enable = "avx512f")]
            pub(super) unsafe fn $name(
                sp: *mut <$v as LaneVec>::Scalar,
                exp: &IndexExpander,
                g: &Geom,
                mat: *const <$v as LaneVec>::Scalar,
                g0: usize,
                g1: usize,
            ) {
                run::<$v, $r>(sp, exp, g, mat, g0, g1)
            }
        };
    }
    lane_entry!(f64_r2, __m512d, 2);
    lane_entry!(f64_r4, __m512d, 4);
    lane_entry!(f64_r8, __m512d, 8);
    lane_entry!(f64_r16, __m512d, 16);
    lane_entry!(f32_r2, __m512, 2);
    lane_entry!(f32_r4, __m512, 4);
    lane_entry!(f32_r8, __m512, 8);
    lane_entry!(f32_r16, __m512, 16);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::PackedMatrix;
    use crate::opt::{apply_blocked_packed_range, offsets, prepare};
    use proptest::prelude::*;
    use qsim_util::Xoshiro256;

    /// Bit pattern of a scalar: the comparisons below are `to_bits()`
    /// equality, not `==` (which would let `-0.0` pass for `0.0`).
    trait Bits: LaneKernel {
        fn bits(self) -> u64;
    }
    impl Bits for f64 {
        fn bits(self) -> u64 {
            self.to_bits()
        }
    }
    impl Bits for f32 {
        fn bits(self) -> u64 {
            self.to_bits() as u64
        }
    }

    fn random_amps<T: Bits>(len: usize, rng: &mut Xoshiro256) -> Vec<Complex<T>> {
        (0..len)
            .map(|_| {
                Complex::new(
                    T::from_f64(rng.next_f64() - 0.5),
                    T::from_f64(rng.next_f64() - 0.5),
                )
            })
            .collect()
    }

    /// Lane kernel on `[c0, c1)` against the scalar blocked kernel on the
    /// range it reports as covered; every amplitude must match bit for
    /// bit, including the ones outside the range (untouched).
    fn check<T: Bits>(n: u32, qubits: &[u32], c0: usize, c1: usize, seed: u64) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let k = qubits.len() as u32;
        let m = GateMatrix::from_rows(k, random_amps::<T>(1 << (2 * k), &mut rng));
        let state0 = random_amps::<T>(1 << n, &mut rng);
        let (exp, pm) = prepare(state0.len(), qubits, &m);
        let offs = offsets(&exp, pm.dim());

        let mut lane = state0.clone();
        let packed = PackedLane::pack(&pm);
        let (b0, b1) = T::apply_lane_groups(&mut lane, &exp, &packed, &offs, c0, c1);
        assert!(c0 <= b0 && b0 <= b1 && b1 <= c1.max(b0), "[{b0}, {b1})");
        if crate::avx512::avx512_available() {
            let l = 64 / std::mem::size_of::<Complex<T>>();
            let want = (c0.next_multiple_of(l), c1 / l * l);
            if want.0 < want.1 {
                assert_eq!((b0, b1), want, "whole lane groups of [{c0}, {c1})");
            } else {
                assert_eq!(b0, b1);
            }
        } else {
            assert_eq!(b0, b1, "no AVX-512F: nothing may be covered");
        }

        let mut scalar = state0;
        let rows = PackedMatrix::pack(&pm);
        apply_blocked_packed_range(&mut scalar, &exp, &rows, &offs, 4, b0, b1);
        for (i, (a, b)) in lane.iter().zip(&scalar).enumerate() {
            assert!(
                a.re.bits() == b.re.bits() && a.im.bits() == b.im.bits(),
                "{} n={n} qubits={qubits:?} [{c0},{c1}) amp {i}: {a:?} vs {b:?}",
                T::NAME
            );
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
            let (c0, c1) = (a.min(b), a.max(b));
            check::<f64>(n, &qubits, c0, c1, seed);
            check::<f32>(n, &qubits, c0, c1, seed);
            check::<f64>(n, &qubits, 0, blocks, seed);
            check::<f32>(n, &qubits, 0, blocks, seed);
        }
    }

    #[test]
    fn every_lane_bit_subset_at_every_width() {
        // Exhaustive over which of positions 0, 1, 2 carry an operand,
        // for k = 1..=6 (k = 6 runs four 16-row sweeps per group).
        let n = 11u32;
        for k in 1..=6u32 {
            for low_mask in 0u32..8 {
                let mut qs: Vec<u32> = (0..3).filter(|p| low_mask >> p & 1 == 1).collect();
                if qs.len() > k as usize {
                    continue;
                }
                let fill = [4u32, 6, 7, 9, 10, 3];
                qs.extend(&fill[..k as usize - qs.len()]);
                qs.reverse();
                let blocks = 1usize << (n - k);
                check::<f64>(n, &qs, 0, blocks, 7 + k as u64);
                check::<f32>(n, &qs, 0, blocks, 7 + k as u64);
                check::<f64>(n, &qs, 3, blocks - 5, 9 + k as u64);
                check::<f32>(n, &qs, 3, blocks - 5, 9 + k as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds a state")]
    fn block_range_past_the_state_is_rejected() {
        if !crate::avx512::avx512_available() {
            panic!("exceeds a state (no AVX-512F here: nothing to reject)");
        }
        let m = GateMatrix::<f64>::identity(2);
        let mut state = vec![Complex::<f64>::zero(); 1 << 6];
        let (exp, pm) = prepare(state.len(), &[2, 4], &m);
        let offs = offsets(&exp, 4);
        let packed = PackedLane::pack(&pm);
        f64::apply_lane_groups(&mut state, &exp, &packed, &offs, 0, 32);
    }
}
