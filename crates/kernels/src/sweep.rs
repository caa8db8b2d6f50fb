//! Cache-tiled stage execution — one streaming pass per stage.
//!
//! The per-gate executors stream the whole state vector once per fused
//! gate, so a communication-free stage with a dozen clusters reads and
//! writes 2^n amplitudes a dozen times and the local compute path is
//! memory-bandwidth-bound (§3.3's motivation for fusion, taken one level
//! further). This module partitions the state into cache-resident *tiles*
//! of 2^T amplitudes and, per tile, applies **every** gate of the stage
//! whose operands fall inside the tile — dense clusters through the same
//! packed step-3 kernels as the per-gate dispatch ([`PackedDense`]: the
//! block-lane kernel over whole lane groups, the scalar kernel for the
//! rest), diagonals as phase multiplications at vector width. One pass
//! over DRAM then applies the whole stage; only clusters wider than the
//! tile fall back to a dedicated full sweep.
//!
//! **Diagonal folds.** A diagonal is tabulated once per pass as phase
//! patterns, one per value of its operand bits outside compact in-tile
//! positions 0–2 (the lane bits of every vector): eight amplitudes laid
//! out as the tile's are when an operand sits on those positions, one
//! broadcast phase otherwise. Each span of the tile whose other in-tile
//! operand bits are constant picks its pattern once and multiplies whole
//! vectors by it, at the width `KernelConfig::simd` and CPUID select for
//! the block-lane kernel.
//!
//! Bit-exactness contract: for the same op order and [`KernelConfig`],
//! the tiled executor produces *bitwise identical* amplitudes to the
//! per-gate oracle. Every step-3 kernel issues the same FMA chain per
//! output amplitude over the same 2^k-amplitude groups (tile
//! decomposition only regroups the independent block counters, and which
//! kernel takes which counter cannot reach the bits), and the diagonal
//! fold multiplies each amplitude by the entry `specialized::apply_diagonal`
//! / the rank reduction in `qsim-core::exec` would, as the same `Complex`
//! product — including the 1-qubit unit-first-entry fast path, whose
//! untouched half is masked off (never multiplied by one). The unit tests below compare `to_bits()`, signed zeros
//! included; the proptests in `qsim-core` assert `max_dist == 0.0`.

use crate::apply::KernelConfig;
use crate::lane::{LaneKernel, PackedLane, Width};
use crate::matrix::{GateMatrix, PackedMatrix};
use crate::opt::{self, apply_blocked_packed_range, MAX_K};
use crate::parallel::{self, chunk_ranges, DisjointSlice, PAR_THRESHOLD};
use qsim_util::align::grown;
use qsim_util::bits::{get_bit, IndexExpander};
use qsim_util::complex::Complex;
use qsim_util::Real;
use rayon::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Smallest tile the auto-clamp will shrink to: a tile narrower than the
/// widest kernel (k = [`MAX_K`]) would push dense clusters onto the
/// full-sweep fallback and defeat the point of tiling.
pub const MIN_TILE_QUBITS: u32 = MAX_K;

/// Traffic and pass counters for the tiled executor, surfaced through
/// `fig7_kernel_scaling --mode sweep` and `table2_endtoend`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Full-state streaming passes this executor performed (one per tiled
    /// pass, one per fallback full sweep).
    pub sweep_passes: u64,
    /// Passes the per-gate executor would have performed on the same ops
    /// (one per cluster, one per diagonal).
    pub baseline_passes: u64,
    /// Dense clusters applied inside cache tiles.
    pub tile_local_gates: u64,
    /// Dense clusters wider than the tile, applied as full sweeps.
    pub fallback_gates: u64,
    /// Diagonal ops folded into tiled passes as phase multiplications.
    pub diagonals_folded: u64,
    /// Bytes streamed to/from DRAM by this executor: 2 x state bytes per
    /// pass (read + write; tile gather/scatter stays cache-resident).
    pub bytes_streamed: u64,
    /// Bytes the per-gate executor would have streamed.
    pub baseline_bytes: u64,
}

impl SweepStats {
    /// Accumulate another counter set (per-stage or per-rank merging).
    pub fn merge(&mut self, o: &SweepStats) {
        self.sweep_passes += o.sweep_passes;
        self.baseline_passes += o.baseline_passes;
        self.tile_local_gates += o.tile_local_gates;
        self.fallback_gates += o.fallback_gates;
        self.diagonals_folded += o.diagonals_folded;
        self.bytes_streamed += o.bytes_streamed;
        self.baseline_bytes += o.baseline_bytes;
    }

    /// Pass-reduction factor over the per-gate baseline (the acceptance
    /// metric: >= 1.5x on depth-25 supremacy stages).
    pub fn pass_ratio(&self) -> f64 {
        self.baseline_passes as f64 / (self.sweep_passes as f64).max(1.0)
    }

    /// Flatten these counters into the unified metrics registry under
    /// `prefix` (e.g. `single.sweep`). The struct remains the typed
    /// view; the registry feeds the exported metrics snapshot.
    pub fn publish_into(&self, metrics: &qsim_telemetry::MetricsRegistry, prefix: &str) {
        metrics.counter_add(&format!("{prefix}.sweep_passes"), self.sweep_passes);
        metrics.counter_add(&format!("{prefix}.baseline_passes"), self.baseline_passes);
        metrics.counter_add(&format!("{prefix}.tile_local_gates"), self.tile_local_gates);
        metrics.counter_add(&format!("{prefix}.fallback_gates"), self.fallback_gates);
        metrics.counter_add(&format!("{prefix}.diagonals_folded"), self.diagonals_folded);
        metrics.counter_add(&format!("{prefix}.bytes_streamed"), self.bytes_streamed);
        metrics.counter_add(&format!("{prefix}.baseline_bytes"), self.baseline_bytes);
        metrics.gauge_set(&format!("{prefix}.pass_ratio"), self.pass_ratio());
    }
}

/// Tile budget (log2 amplitudes) of the cache-tiled stage executor:
/// 2^14 amplitudes are 256 KiB at f64, an L2-resident tile. A constant,
/// not a measurement, so the pass count of a run is a function of its
/// inputs alone; `qsim_core::exec` asserts it equals
/// `qsim_sched::sweep::DEFAULT_TILE_QUBITS`, the size the planner's pass
/// model prices schedules under.
pub const fn tune_tile_qubits() -> u32 {
    14
}

/// Clamp a tile size to the local register and, with multiple
/// worker threads, shrink it until the pass has at least ~4x threads
/// tiles to steal — but never below [`MIN_TILE_QUBITS`].
pub fn effective_tile_qubits(tile: u32, local_qubits: u32, threads: usize) -> u32 {
    let mut t = tile.min(local_qubits).max(1);
    if threads > 1 {
        let want = (threads * 4).next_power_of_two().trailing_zeros();
        let cap = local_qubits
            .saturating_sub(want)
            .max(MIN_TILE_QUBITS.min(local_qubits));
        t = t.min(cap.max(1));
    }
    t
}

/// The precisions the engines run at — the bound `qsim-core`, `qsim-ooc`
/// and the benchmark harness name. Nothing more than "has a block-lane
/// kernel" ([`LaneKernel`]) and a vector diagonal fold ([`DiagFold`]):
/// every other step-3 piece is generic over [`Real`].
pub trait SweepDispatch: LaneKernel + DiagFold {}

impl<T: LaneKernel + DiagFold> SweepDispatch for T {}

/// A dense gate matrix packed for the production step-3 path: the
/// block-lane form at the vector width `cfg.simd` selects on this host
/// (none for `Simd::Scalar` or without AVX2+FMA), and always the scalar
/// row form, which takes the block ranges the lane kernel leaves (the ends
/// of a range that are not a whole lane group; everything when there is no
/// lane form). Both produce the same bits, so where the seam falls cannot
/// reach the result.
pub struct PackedDense<R: SweepDispatch> {
    lane: Option<PackedLane<R>>,
    rows: PackedMatrix<R>,
}

impl<R: SweepDispatch> PackedDense<R> {
    /// Pack `pm` (already pre-permuted by the operand sort) under `cfg`.
    pub fn pack(pm: &GateMatrix<R>, cfg: &KernelConfig) -> Self {
        Self {
            lane: PackedLane::pack(pm, cfg.simd),
            rows: PackedMatrix::pack(pm),
        }
    }

    /// Apply to block counters `[c0, c1)` of `state`, sequentially.
    pub fn apply_range(
        &self,
        state: &mut [Complex<R>],
        exp: &IndexExpander,
        offs: &[usize],
        c0: usize,
        c1: usize,
    ) {
        let (b0, b1) = match &self.lane {
            Some(lane) => R::apply_lane_groups(state, exp, lane, offs, c0, c1),
            None => (c0, c0),
        };
        apply_blocked_packed_range(state, exp, &self.rows, offs, c0, b0);
        apply_blocked_packed_range(state, exp, &self.rows, offs, b1, c1);
    }

    /// Apply to the whole state through the parallel range driver
    /// (including the `PAR_THRESHOLD` seam).
    pub fn apply_full(&self, state: &mut [Complex<R>], exp: &IndexExpander, threads: usize) {
        let blocks = state.len() >> exp.k();
        let offs = opt::offsets(exp, 1 << exp.k());
        parallel::par_block_ranges(state, blocks, threads, |s, c0, c1| {
            self.apply_range(s, exp, &offs, c0, c1)
        });
    }
}

/// A dense cluster prepared once per stage: operands sorted, matrix
/// pre-permuted and packed for the kernel path the per-gate dispatch
/// would pick (no re-packing on every apply call).
pub struct PreparedGate<R: SweepDispatch = f64> {
    exp: IndexExpander,
    offs: Vec<usize>,
    packed: PackedDense<R>,
    k: u32,
}

impl<R: SweepDispatch> PreparedGate<R> {
    /// Prepare a gate at physical positions `qubits` under `cfg`.
    pub fn new(qubits: &[u32], m: &GateMatrix<R>, cfg: &KernelConfig) -> Self {
        let (exp, pm) = opt::prepare_free(qubits, m);
        let k = pm.k();
        let offs = opt::offsets(&exp, pm.dim());
        let packed = PackedDense::pack(&pm, cfg);
        Self {
            exp,
            offs,
            packed,
            k,
        }
    }

    /// Re-index the operands onto their compact positions inside the
    /// sorted position set `tile`. The map is monotone, so the operand
    /// order — and with it the packed matrix — is unchanged.
    fn compact_into(&mut self, tile: &[u32]) {
        let compact: Vec<u32> = self
            .exp
            .strides()
            .iter()
            .map(|s| {
                tile.binary_search(&s.trailing_zeros())
                    .expect("dense operand in tile") as u32
            })
            .collect();
        self.exp = IndexExpander::new(&compact);
        self.offs = opt::offsets(&self.exp, 1 << self.k);
    }

    /// Apply to one cache tile (all blocks of `chunk`).
    #[inline]
    pub fn apply_chunk(&self, chunk: &mut [Complex<R>]) {
        self.packed
            .apply_range(chunk, &self.exp, &self.offs, 0, chunk.len() >> self.k);
    }

    /// Apply to the whole state through the parallel driver — the
    /// fallback full sweep for clusters wider than the tile. Identical
    /// code path (including the `PAR_THRESHOLD` seam) to the per-gate
    /// dispatch, minus the re-packing.
    pub fn apply_full(&self, state: &mut [Complex<R>], threads: usize) {
        self.packed.apply_full(state, &self.exp, threads);
    }
}

/// Compact in-tile positions a phase pattern spans, `0..PATTERN_BITS`:
/// the lane bits of every vector the fold runs at (eight f32 amplitudes
/// at 512 bits, fewer at every other width).
const PATTERN_BITS: u32 = 3;
/// Amplitudes of one phase pattern.
const PATTERN: usize = 1 << PATTERN_BITS;

/// What the fold does to the amplitudes of one pattern.
#[derive(Copy, Clone)]
enum Kind {
    /// Nothing: every amplitude is one the fast path skips.
    Skip,
    /// Multiply every amplitude.
    Full,
    /// Multiply the amplitudes [`PreparedDiag::mask`] selects; the others
    /// keep their bits.
    Masked,
}

/// A diagonal op prepared for per-tile folding. [`TiledPass::new`]
/// resolves each operand once against the tile it stages — inside the
/// tile (a bit of the in-tile index), outside the tile but local (a bit
/// of the tile's base index), or global (a bit of the rank) — and
/// tabulates the diagonal as one phase pattern per value of the operand
/// bits that do not vary inside an aligned block of [`PATTERN`]
/// amplitudes.
pub struct PreparedDiag<R: Real = f64> {
    diag: Vec<Complex<R>>,
    positions: Vec<u32>,
    local_qubits: u32,
    /// Vector width of the fold, picked as the block-lane kernel's is.
    width: Option<Width>,
    /// (pattern-index bit, rank-bit shift `p - local_qubits`).
    from_rank: Vec<(u32, u32)>,
    /// (pattern-index bit, physical position < local_qubits, not in tile).
    from_base: Vec<(u32, u32)>,
    /// (pattern-index bit, compact in-tile position >= PATTERN_BITS).
    in_tile: Vec<(u32, u32)>,
    /// log2 of the in-tile span one pattern covers: the lowest position
    /// of `in_tile` (`u32::MAX` with none: the whole tile).
    span_bits: u32,
    /// Amplitudes per pattern: [`PATTERN`], laid out as the amplitudes
    /// of a block are, when an operand sits on compact positions
    /// `0..PATTERN_BITS`; else 1, the phase of every amplitude.
    pattern_len: usize,
    /// The patterns, `pattern_len` phases each, by pattern index.
    phases: Vec<Complex<R>>,
    /// What the fold does with each pattern.
    kinds: Vec<Kind>,
    /// Of a [`Kind::Masked`] pattern: every bit set on both components of
    /// an amplitude the fold multiplies, clear on one the fast path skips.
    mask: [R; 2 * PATTERN],
}

impl<R: Real> PreparedDiag<R> {
    /// A diagonal on physical `positions`; those `>= local_qubits` are
    /// rank bits. The fold runs at the vector width `cfg.simd` selects on
    /// this host.
    pub fn new(
        positions: &[u32],
        diag: Vec<Complex<R>>,
        local_qubits: u32,
        cfg: &KernelConfig,
    ) -> Self {
        assert_eq!(diag.len(), 1usize << positions.len(), "diagonal size");
        Self {
            diag,
            positions: positions.to_vec(),
            local_qubits,
            width: Width::pick(cfg.simd),
            from_rank: Vec::new(),
            from_base: Vec::new(),
            in_tile: Vec::new(),
            span_bits: u32::MAX,
            pattern_len: 1,
            phases: Vec::new(),
            kinds: Vec::new(),
            mask: [R::ZERO; 2 * PATTERN],
        }
    }

    /// Classify the operands against a sorted `tile` position set and
    /// tabulate the patterns.
    ///
    /// Mirrors `apply_rank_diagonal` + `specialized::apply_diagonal`
    /// entry for entry, so the fold is bit-exact against the per-gate
    /// oracle: every amplitude is multiplied by its entry as one
    /// `Complex` product — also by an entry of exactly one — except where
    /// the oracle takes its fast path: a lone local operand whose clear
    /// entry is one leaves the amplitudes with its bit clear untouched
    /// (masked off, never multiplied by one).
    fn resolve(&mut self, tile: &[u32]) {
        self.from_rank.clear();
        self.from_base.clear();
        self.in_tile.clear();
        // (operand slot, compact position) of the operands whose bits vary
        // inside a pattern, and the operand slot of each pattern-index bit.
        let mut lanes = Vec::new();
        let mut slots = Vec::new();
        for (j, &p) in self.positions.iter().enumerate() {
            let bit = slots.len() as u32;
            match tile.binary_search(&p) {
                Ok(cp) if (cp as u32) < PATTERN_BITS => {
                    lanes.push((j, cp as u32));
                    continue;
                }
                Ok(cp) => self.in_tile.push((bit, cp as u32)),
                Err(_) if p < self.local_qubits => self.from_base.push((bit, p)),
                Err(_) => self.from_rank.push((bit, p - self.local_qubits)),
            }
            slots.push(j);
        }
        self.span_bits = self
            .in_tile
            .iter()
            .map(|&(_, cp)| cp)
            .min()
            .unwrap_or(u32::MAX);
        let mut local =
            (0..self.positions.len()).filter(|&j| self.positions[j] < self.local_qubits);
        let lone = match (local.next(), local.next()) {
            (Some(j), None) => Some(j),
            _ => None,
        };
        // A lone local operand on the lane bits: the bit a masked
        // pattern multiplies the amplitudes of.
        let lone_lane = lanes
            .iter()
            .find(|&&(j, _)| Some(j) == lone)
            .map(|&(_, cp)| cp);
        self.mask = std::array::from_fn(|c| match lone_lane {
            Some(cp) if (c / 2) >> cp & 1 == 0 => R::ZERO,
            _ => R::from_bits_u64(u64::MAX),
        });
        self.pattern_len = if lanes.is_empty() { 1 } else { PATTERN };
        self.phases.clear();
        self.kinds.clear();
        for r in 0..1usize << slots.len() {
            let rest = slots
                .iter()
                .enumerate()
                .fold(0, |e, (b, &j)| e | (r >> b & 1) << j);
            let mut multiplied = 0;
            for a in 0..self.pattern_len {
                let e = lanes
                    .iter()
                    .fold(rest, |e, &(j, cp)| e | (a >> cp & 1) << j);
                let d = self.diag[e];
                let skip = lone.is_some_and(|j| e >> j & 1 == 0)
                    && (d - Complex::one()).abs() <= R::EPSILON;
                self.phases.push(d);
                multiplied += usize::from(!skip);
            }
            self.kinds.push(match multiplied {
                0 => Kind::Skip,
                m if m == self.pattern_len => Kind::Full,
                _ => Kind::Masked,
            });
        }
    }

    /// The pattern-index bits of a tile at state index `base` on rank
    /// `rank`: those of its rank and base operands.
    #[inline(always)]
    fn fixed(&self, base: usize, rank: usize) -> usize {
        let mut idx = 0;
        for &(b, s) in &self.from_rank {
            idx |= (rank >> s & 1) << b;
        }
        for &(b, p) in &self.from_base {
            idx |= get_bit(base, p) << b;
        }
        idx
    }

    /// Fold the diagonal into `chunk`, the tile at state index `base` on
    /// rank `rank`: per value of its in-tile operand bits, the pattern
    /// that value picks multiplies every span of the tile that has it.
    ///
    /// # Safety
    /// `V`'s ISA must be available; `chunk.len()` must be a power of two,
    /// and at least [`PATTERN`] unless `V::AMPS == 1`.
    #[inline(always)]
    unsafe fn fold<V: PhaseVec<Scalar = R>>(
        &self,
        chunk: &mut [Complex<R>],
        base: usize,
        rank: usize,
    ) {
        let len = chunk.len();
        debug_assert!(len.is_power_of_two() && (V::AMPS == 1 || len >= PATTERN));
        // `Complex<R>` is `repr(C) { re, im }`: the chunk is 2·len scalars.
        let sp = chunk.as_mut_ptr() as *mut R;
        let fixed = self.fixed(base, rank);
        let span = 1usize << self.span_bits.min(len.ilog2());
        let operand_bits = self.in_tile.iter().fold(0, |m, &(_, cp)| m | 1 << cp);
        // The bits of a span's offset that pick no pattern.
        let free = (len - 1) & !(span - 1) & !operand_bits;
        for c in 0..1usize << self.in_tile.len() {
            let (start, idx) = self
                .in_tile
                .iter()
                .enumerate()
                .fold((0, fixed), |(at, i), (k, &(b, cp))| {
                    (at | (c >> k & 1) << cp, i | (c >> k & 1) << b)
                });
            if start >= len {
                continue;
            }
            let pat = self.phases[idx * self.pattern_len..].as_ptr();
            // SAFETY: every span `scale` visits, `start` with any bits of
            // `free`, lies inside the chunk; `span` (a power of two, at
            // least a pattern whenever `len` is) keeps its length
            // contract, and pattern `idx` is `pattern_len` phases.
            match self.kinds[idx] {
                Kind::Skip => {}
                Kind::Full => scale::<V, false>(sp, start, span, free, pat, self),
                Kind::Masked => scale::<V, true>(sp, start, span, free, pat, self),
            }
        }
    }
}

/// Multiply by the pattern at `pat` the spans of `span` amplitudes at
/// `sp` whose offsets are `start` with any bits of `free` set, the
/// pattern repeated over each; `MASKED` keeps the bits of the amplitudes
/// `d.mask` leaves out. The pattern's vectors stay in registers over
/// every span.
///
/// # Safety
/// `V`'s ISA must be available; `sp` must be valid for reads and writes
/// of every span; `pat` for reads of `d.pattern_len` phases; `span` must
/// be a multiple of [`PATTERN`], or smaller than it with `V::AMPS == 1`.
#[inline(always)]
unsafe fn scale<V: PhaseVec, const MASKED: bool>(
    sp: *mut V::Scalar,
    start: usize,
    span: usize,
    free: usize,
    pat: *const Complex<V::Scalar>,
    d: &PreparedDiag<V::Scalar>,
) {
    // The pattern's `PATTERN / V::AMPS` vectors (one phase: that phase
    // in every slot of each), repeating every `PATTERN` amplitudes.
    let x = |v: usize| 2 * V::AMPS * v.min(PATTERN / V::AMPS - 1);
    let p: [V; PATTERN] = std::array::from_fn(|v| {
        if d.pattern_len == 1 {
            V::splat(pat.cast())
        } else {
            V::load(pat.cast::<V::Scalar>().add(x(v)))
        }
    });
    let s: [V; PATTERN] = std::array::from_fn(|v| V::swap(p[v]));
    let m: [V; PATTERN] = std::array::from_fn(|v| V::load(d.mask.as_ptr().add(x(v))));
    // Every offset `start | f`, `f` over the subsets of `free` (a masked
    // increment).
    let mut f = 0usize;
    loop {
        let off = start | f;
        for blk in (off..off + span).step_by(PATTERN) {
            for v in 0..PATTERN / V::AMPS {
                // A span shorter than a pattern (the scalar form only).
                if V::AMPS == 1 && v >= span {
                    break;
                }
                step::<V, MASKED>(sp.add(2 * (blk + v * V::AMPS)), p[v], s[v], m[v]);
            }
        }
        f = (f | !free).wrapping_add(1) & free;
        if f == 0 {
            break;
        }
    }
}

/// Multiply the amplitudes at `a` by `p` (`s` its swap); `MASKED` keeps
/// those `m` leaves out.
///
/// # Safety
/// `V`'s ISA must be available; `a` must be valid for reads and writes
/// of `V::AMPS` amplitudes.
#[inline(always)]
unsafe fn step<V: PhaseVec, const MASKED: bool>(a: *mut V::Scalar, p: V, s: V, m: V) {
    let old = V::load(a);
    let new = V::mul(old, p, s);
    V::store(a, if MASKED { V::select(m, new, old) } else { new });
}

/// One vector of `AMPS` interleaved amplitudes for the diagonal fold: the
/// 256- and 512-bit vectors of [`crate::lane`], and one `Complex` — the
/// scalar form.
///
/// The methods are `inline(always)` and carry no `target_feature` of their
/// own: they are only instantiated inside the `#[target_feature]` entry
/// points of `x86` (checked by `scripts/check_kernel_asm.sh`) and, for
/// `Complex`, in the portable fallback.
///
/// # Safety
/// Every method requires the vector's ISA; `load` and `store` require `p`
/// to be valid for `AMPS` amplitudes of reads or writes. No alignment is
/// required.
trait PhaseVec: Copy {
    type Scalar: Real;
    /// Amplitudes per vector; divides [`PATTERN`].
    const AMPS: usize;
    unsafe fn load(p: *const Self::Scalar) -> Self;
    unsafe fn store(p: *mut Self::Scalar, v: Self);
    /// The amplitude at `p` in every slot.
    unsafe fn splat(p: *const Self::Scalar) -> Self;
    /// `(d_I, d_R)` per amplitude `(d_R, d_I)` of `d`.
    unsafe fn swap(d: Self) -> Self;
    /// `v · d` per amplitude, bit for bit `Complex`'s product
    /// `(fma(v_R, d_R, −(v_I·d_I)), fma(v_R, d_I, v_I·d_R))`, given
    /// `s = swap(d)`: one `fmaddsub` of `(v_R, v_R)·d` and
    /// `(v_I, v_I)·s`, which rounds the `v_I` products once each.
    unsafe fn mul(v: Self, d: Self, s: Self) -> Self;
    /// `a`'s amplitudes where `m`'s bits are set, `b`'s where clear.
    unsafe fn select(m: Self, a: Self, b: Self) -> Self;
}

impl<S: Real> PhaseVec for Complex<S> {
    type Scalar = S;
    const AMPS: usize = 1;
    #[inline(always)]
    unsafe fn load(p: *const S) -> Self {
        Complex::new(*p, *p.add(1))
    }
    #[inline(always)]
    unsafe fn store(p: *mut S, v: Self) {
        *p = v.re;
        *p.add(1) = v.im;
    }
    #[inline(always)]
    unsafe fn splat(p: *const S) -> Self {
        Self::load(p)
    }
    #[inline(always)]
    unsafe fn swap(d: Self) -> Self {
        Complex::new(d.im, d.re)
    }
    #[inline(always)]
    unsafe fn mul(v: Self, d: Self, _s: Self) -> Self {
        v * d
    }
    #[inline(always)]
    unsafe fn select(m: Self, a: Self, b: Self) -> Self {
        if m.re.to_bits_u64() != 0 {
            a
        } else {
            b
        }
    }
}

/// Precisions with a vector form of the diagonal fold — what
/// [`TiledPass`] needs of a precision beside its block-lane kernel.
pub trait DiagFold: Real {
    /// [`PreparedDiag::apply_chunk`] at the vector width `d` was prepared
    /// for.
    fn fold(d: &PreparedDiag<Self>, chunk: &mut [Complex<Self>], base: usize, rank: usize);
}

impl<R: DiagFold> PreparedDiag<R> {
    /// Fold the diagonal into one tile. `base` is the full-state index
    /// whose in-tile bits are zero (tile base); `rank` supplies bits of
    /// positions >= local_qubits.
    ///
    /// Every span of the tile whose in-tile operand bits above the lane
    /// bits are constant picks its phase pattern once (see
    /// [`Self::resolve`]) and multiplies whole vectors by it — a
    /// unit-first fast path's untouched amplitudes masked off — at the
    /// vector width of `KernelConfig::simd` on this host.
    pub fn apply_chunk(&self, chunk: &mut [Complex<R>], base: usize, rank: usize) {
        assert!(chunk.len().is_power_of_two(), "a tile is 2^T amplitudes");
        R::fold(self, chunk, base, rank);
    }
}

macro_rules! impl_diag_fold {
    ($t:ty, $x1:ident, $v256:ident, $v512:ident) => {
        impl DiagFold for $t {
            fn fold(d: &PreparedDiag<$t>, chunk: &mut [Complex<$t>], base: usize, rank: usize) {
                #[cfg(target_arch = "x86_64")]
                {
                    // SAFETY: a width is only ever set by `Width::pick`,
                    // which found its ISA in CPUID; the vector forms take
                    // a power-of-two chunk of at least a pattern, the
                    // scalar entry (AVX2 + FMA, checked here) any power
                    // of two, which `apply_chunk` asserted.
                    unsafe {
                        match d.width.filter(|_| chunk.len() >= PATTERN) {
                            Some(Width::V512) => return x86::$v512(d, chunk, base, rank),
                            Some(Width::V256) => return x86::$v256(d, chunk, base, rank),
                            None if crate::avx::avx2_available() => {
                                return x86::$x1(d, chunk, base, rank)
                            }
                            None => {}
                        }
                    }
                }
                // SAFETY: the scalar form needs no ISA, and `apply_chunk`
                // asserted the power-of-two chunk it needs.
                unsafe { d.fold::<Complex<$t>>(chunk, base, rank) }
            }
        }
    };
}

impl_diag_fold!(f64, fold_f64x1, fold_f64x2, fold_f64x4);
impl_diag_fold!(f32, fold_f32x1, fold_f32x4, fold_f32x8);

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{PhaseVec, PreparedDiag};
    use core::arch::x86_64::*;
    use qsim_util::complex::Complex;

    impl PhaseVec for __m256d {
        type Scalar = f64;
        const AMPS: usize = 2;
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
            let c = _mm_loadu_pd(p);
            _mm256_set_m128d(c, c)
        }
        #[inline(always)]
        unsafe fn swap(d: Self) -> Self {
            _mm256_permute_pd(d, 0b0101)
        }
        #[inline(always)]
        unsafe fn mul(v: Self, d: Self, s: Self) -> Self {
            let im = _mm256_permute_pd(v, 0b1111);
            _mm256_fmaddsub_pd(_mm256_movedup_pd(v), d, _mm256_mul_pd(im, s))
        }
        #[inline(always)]
        unsafe fn select(m: Self, a: Self, b: Self) -> Self {
            _mm256_blendv_pd(b, a, m)
        }
    }

    impl PhaseVec for __m256 {
        type Scalar = f32;
        const AMPS: usize = 4;
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
            _mm256_castsi256_ps(_mm256_set1_epi64x(p.cast::<i64>().read_unaligned()))
        }
        #[inline(always)]
        unsafe fn swap(d: Self) -> Self {
            _mm256_permute_ps(d, 0b10_11_00_01)
        }
        #[inline(always)]
        unsafe fn mul(v: Self, d: Self, s: Self) -> Self {
            let im = _mm256_movehdup_ps(v);
            _mm256_fmaddsub_ps(_mm256_moveldup_ps(v), d, _mm256_mul_ps(im, s))
        }
        #[inline(always)]
        unsafe fn select(m: Self, a: Self, b: Self) -> Self {
            _mm256_blendv_ps(b, a, m)
        }
    }

    // Only AVX-512F intrinsics (KNL has F without DQ).
    impl PhaseVec for __m512d {
        type Scalar = f64;
        const AMPS: usize = 4;
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
            let c = _mm_castpd_ps(_mm_loadu_pd(p));
            _mm512_castps_pd(_mm512_broadcast_f32x4(c))
        }
        #[inline(always)]
        unsafe fn swap(d: Self) -> Self {
            _mm512_permute_pd(d, 0b0101_0101)
        }
        #[inline(always)]
        unsafe fn mul(v: Self, d: Self, s: Self) -> Self {
            let im = _mm512_permute_pd(v, 0b1111_1111);
            _mm512_fmaddsub_pd(_mm512_movedup_pd(v), d, _mm512_mul_pd(im, s))
        }
        #[inline(always)]
        unsafe fn select(m: Self, a: Self, b: Self) -> Self {
            let m = _mm512_castpd_si512(m);
            _mm512_mask_blend_pd(_mm512_test_epi64_mask(m, m), b, a)
        }
    }

    impl PhaseVec for __m512 {
        type Scalar = f32;
        const AMPS: usize = 8;
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
            _mm512_castsi512_ps(_mm512_set1_epi64(p.cast::<i64>().read_unaligned()))
        }
        #[inline(always)]
        unsafe fn swap(d: Self) -> Self {
            _mm512_permute_ps(d, 0b10_11_00_01)
        }
        #[inline(always)]
        unsafe fn mul(v: Self, d: Self, s: Self) -> Self {
            let im = _mm512_movehdup_ps(v);
            _mm512_fmaddsub_ps(_mm512_moveldup_ps(v), d, _mm512_mul_ps(im, s))
        }
        #[inline(always)]
        unsafe fn select(m: Self, a: Self, b: Self) -> Self {
            let m = _mm512_castps_si512(m);
            _mm512_mask_blend_ps(_mm512_test_epi32_mask(m, m), b, a)
        }
    }

    macro_rules! fold_entry {
        ($feat:literal, $($name:ident: $v:ty),+) => {$(
            /// [`PreparedDiag::fold`] at this vector; the one `Complex`
            /// forms are the scalar fold, compiled with FMA so that
            /// `mul_add` is one instruction, not a libm call per component.
            ///
            /// # Safety
            /// As [`PreparedDiag::fold`]; the target features enabled here
            /// are the ISA it needs for this vector.
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name(
                d: &PreparedDiag<<$v as PhaseVec>::Scalar>,
                chunk: &mut [Complex<<$v as PhaseVec>::Scalar>],
                base: usize,
                rank: usize,
            ) {
                // SAFETY: the caller's contract is `fold`'s.
                d.fold::<$v>(chunk, base, rank)
            }
        )+};
    }
    fold_entry!(
        "avx2,fma",
        fold_f64x1: Complex<f64>,
        fold_f32x1: Complex<f32>,
        fold_f64x2: __m256d,
        fold_f32x4: __m256
    );
    fold_entry!("avx512f", fold_f64x4: __m512d, fold_f32x8: __m512);
}

/// One op of a tiled pass, at physical positions.
pub enum TileOp<R: SweepDispatch = f64> {
    /// Dense cluster whose operands all lie inside the pass's tile.
    Dense(PreparedGate<R>),
    /// Diagonal folded as per-tile phases (operands may be anywhere).
    Diag(PreparedDiag<R>),
}

/// A group of stage ops applied in one streaming pass over the state.
pub struct TiledPass<R: SweepDispatch = f64> {
    /// Sorted physical positions spanned by the staged tile.
    tile: Vec<u32>,
    /// Tile positions are exactly `0..T`: tiles are contiguous slices and
    /// the gather/scatter staging is skipped entirely (zero-copy).
    contiguous: bool,
    /// Expands a tile counter into the state index of its first
    /// amplitude (tile bits zero).
    exp: IndexExpander,
    /// The tile's leading positions `0..run_bits` are contiguous in the
    /// state, so staging copies runs of `2^run_bits` amplitudes; the
    /// other positions, as the index mask `hi_mask`, enumerate the run
    /// offsets by masked increment.
    run_bits: usize,
    hi_mask: usize,
    /// Where a gathered pass stages its tiles: the free list its
    /// executor shares among all its passes ([`TiledPass::staged_by`]);
    /// a pass built alone has one of its own.
    staging: Arc<TileStaging<R>>,
    ops: Vec<TileOp<R>>,
}

/// A free list of staging buffers for gathered tiles, one per compiled
/// stage executor, shared by all its gathered passes on every engine: a
/// tile stager takes a buffer for its tiles and gives it back after. The
/// executor stocks the list where it is built ([`TileStaging::stock`]),
/// with one buffer for each stager that can run at once (see
/// [`TiledPass::staging_demand`]), so no pass allocates. The stock is
/// made on the building thread because rank threads, which stage tiles
/// too, exit with their run, and buffers they allocated would stay in
/// their heaps; the pool's workers are parked for the process.
pub struct TileStaging<R: Real>(Mutex<Vec<Vec<Complex<R>>>>);

impl<R: Real> Default for TileStaging<R> {
    fn default() -> Self {
        Self(Mutex::new(Vec::new()))
    }
}

impl<R: Real> TileStaging<R> {
    /// Every update is one push or pop, so a list a panicking worker
    /// left behind is still a list of buffers.
    fn list(&self) -> MutexGuard<'_, Vec<Vec<Complex<R>>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A buffer of at least `len` amplitudes. Every amplitude a tile uses
    /// is gathered before it is read, so what a buffer held is never seen.
    /// A list stocked short allocates here, on the stager's thread.
    fn take(&self, len: usize) -> Vec<Complex<R>> {
        let mut buf = self.list().pop().unwrap_or_default();
        grown(&mut buf, len);
        buf
    }

    /// Add `n` buffers of `len` amplitudes, so that `n` more stagers can
    /// take one each without allocating.
    pub fn stock(&self, n: usize, len: usize) {
        self.list()
            .extend((0..n).map(|_| vec![Complex::zero(); len]));
    }

    fn give(&self, buf: Vec<Complex<R>>) {
        self.list().push(buf);
    }
}

impl<R: SweepDispatch> TiledPass<R> {
    /// A pass over tiles spanning the sorted physical positions `tile`,
    /// which must contain every dense operand of `ops`.
    ///
    /// A non-contiguous tile is staged through a scratch buffer. When it
    /// lacks some of the lowest positions — the ones that index within a
    /// cache line — they are added to the staged tile: the adjacent tiles
    /// that share each cache line are staged together, so staging moves
    /// whole lines instead of one amplitude per line, and every gate of
    /// the pass sees free lane bits.
    pub fn new(mut tile: Vec<u32>, mut ops: Vec<TileOp<R>>) -> Self {
        assert!(!tile.is_empty(), "empty tile");
        assert!(tile.windows(2).all(|w| w[0] < w[1]), "tile must be sorted");
        let is_contiguous = |t: &[u32]| t.iter().enumerate().all(|(i, &p)| p == i as u32);
        if !is_contiguous(&tile) {
            let line_bits = (64 / std::mem::size_of::<Complex<R>>()).ilog2();
            // Below the top tile position, so inside any state the tile
            // fits in.
            let top = tile[tile.len() - 1];
            let missing: Vec<u32> = (0..line_bits.min(top))
                .filter(|p| !tile.contains(p))
                .collect();
            tile.extend(missing);
            tile.sort_unstable();
        }
        for op in &mut ops {
            match op {
                TileOp::Dense(g) => g.compact_into(&tile),
                TileOp::Diag(d) => d.resolve(&tile),
            }
        }
        let run_bits = tile
            .iter()
            .enumerate()
            .take_while(|&(i, &p)| p == i as u32)
            .count();
        let hi_mask = tile[run_bits..].iter().fold(0usize, |m, &p| m | 1 << p);
        Self {
            contiguous: is_contiguous(&tile),
            exp: IndexExpander::new(&tile),
            run_bits,
            hi_mask,
            staging: Arc::default(),
            tile,
            ops,
        }
    }

    /// Stage gathered tiles through `staging`, the free list of the
    /// executor this pass belongs to.
    pub fn staged_by(mut self, staging: &Arc<TileStaging<R>>) -> Self {
        self.staging = Arc::clone(staging);
        self
    }

    /// What [`TiledPass::run`] on `state_len` amplitudes at `threads`
    /// stages at once: `(stagers, len)`, `len` amplitudes for each of
    /// `stagers` buffers. A contiguous pass stages nothing; a sequential
    /// one has one stager; a parallel one has one per worker the pool
    /// runs, which is its own size, not `threads`.
    pub fn staging_demand(&self, state_len: usize, threads: usize) -> (usize, usize) {
        if self.contiguous {
            return (0, 0);
        }
        let n_tiles = state_len >> self.tile.len();
        let stagers = if self.parallel(state_len, threads) {
            rayon::current_num_threads().min(chunk_ranges(n_tiles, threads, 1).len())
        } else {
            1
        };
        (stagers, 1 << self.tile.len())
    }

    /// Whether [`TiledPass::run`] spreads the tiles over the pool.
    fn parallel(&self, state_len: usize, threads: usize) -> bool {
        state_len >= PAR_THRESHOLD && threads > 1 && state_len >> self.tile.len() > 1
    }

    /// Number of ops folded into this pass.
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    #[inline]
    fn apply_ops(&self, chunk: &mut [Complex<R>], base: usize, rank: usize) {
        for op in &self.ops {
            match op {
                TileOp::Dense(g) => g.apply_chunk(chunk),
                TileOp::Diag(d) => d.apply_chunk(chunk, base, rank),
            }
        }
    }

    /// Stage tiles `[t0, t1)` of a non-contiguous pass through a staging
    /// buffer: gather, apply every op, scatter.
    fn run_gathered_tiles(&self, state: &mut [Complex<R>], t0: usize, t1: usize, rank: usize) {
        let tile_len = 1 << self.tile.len();
        let mut buf = self.staging.take(tile_len);
        let scratch = &mut buf[..tile_len];
        let (hi_mask, run_bits) = (self.hi_mask, self.run_bits);
        for t in t0..t1 {
            let base = self.exp.expand(t);
            copy_runs::<R, true>(state, scratch, base, hi_mask, run_bits);
            self.apply_ops(scratch, base, rank);
            copy_runs::<R, false>(state, scratch, base, hi_mask, run_bits);
        }
        self.staging.give(buf);
    }

    /// Stream the state once, applying every op of the pass per tile.
    pub fn run(
        &self,
        state: &mut [Complex<R>],
        rank: usize,
        threads: usize,
        stats: &mut SweepStats,
    ) {
        let tb = self.tile.len() as u32;
        let tile_len = 1usize << tb;
        assert!(state.len().is_power_of_two() && state.len() >= tile_len);
        let n_tiles = state.len() >> tb;
        let par = self.parallel(state.len(), threads);
        if self.contiguous {
            if par {
                state
                    .par_chunks_mut(tile_len)
                    .enumerate()
                    .for_each(|(t, chunk)| self.apply_ops(chunk, t << tb, rank));
            } else {
                for t in 0..n_tiles {
                    let base = t << tb;
                    self.apply_ops(&mut state[base..base + tile_len], base, rank);
                }
            }
        } else if par {
            let shared = DisjointSlice(state.as_mut_ptr(), state.len());
            chunk_ranges(n_tiles, threads, 1)
                .into_par_iter()
                .for_each(|(t0, t1)| {
                    // SAFETY: distinct tile counters expand to
                    // disjoint index sets (DisjointSlice contract),
                    // and counter ranges partition [0, n_tiles).
                    let s = unsafe { shared.slice() };
                    self.run_gathered_tiles(s, t0, t1, rank);
                });
        } else {
            self.run_gathered_tiles(state, 0, n_tiles, rank);
        }
        let bytes = 2 * std::mem::size_of_val(state) as u64;
        stats.sweep_passes += 1;
        stats.bytes_streamed += bytes;
        stats.baseline_passes += self.ops.len() as u64;
        stats.baseline_bytes += bytes * self.ops.len() as u64;
        for op in &self.ops {
            match op {
                TileOp::Dense(_) => stats.tile_local_gates += 1,
                TileOp::Diag(_) => stats.diagonals_folded += 1,
            }
        }
    }
}

/// Copy the staged tile at `base` into `scratch` (`GATHER`) or back, as
/// runs of `2^run_bits` contiguous amplitudes. `hi_mask` has a bit per
/// tile position `>= run_bits`; `(off | !mask) + 1 & mask` steps `off`
/// through the subsets of the mask in ascending order, which is the order
/// of the runs in `scratch`.
#[inline]
fn copy_runs<R: Real, const GATHER: bool>(
    state: &mut [Complex<R>],
    scratch: &mut [Complex<R>],
    base: usize,
    hi_mask: usize,
    run_bits: usize,
) {
    #[inline(always)]
    fn go<R: Real, const GATHER: bool>(
        state: &mut [Complex<R>],
        scratch: &mut [Complex<R>],
        base: usize,
        hi_mask: usize,
        run: usize,
    ) {
        let mut off = 0usize;
        for s in scratch.chunks_exact_mut(run) {
            let at = base + off;
            let st = &mut state[at..at + run];
            if GATHER {
                s.copy_from_slice(st);
            } else {
                st.copy_from_slice(s);
            }
            off = (off | !hi_mask).wrapping_add(1) & hi_mask;
        }
    }
    // One and two cache lines as constant lengths, so the copy compiles to
    // straight vector moves instead of a `memcpy` call per run.
    match run_bits {
        2 => go::<R, GATHER>(state, scratch, base, hi_mask, 4),
        3 => go::<R, GATHER>(state, scratch, base, hi_mask, 8),
        4 => go::<R, GATHER>(state, scratch, base, hi_mask, 16),
        r => go::<R, GATHER>(state, scratch, base, hi_mask, 1 << r),
    }
}

/// Fallback: apply one prepared gate as a dedicated full sweep (cluster
/// wider than the tile).
pub fn run_full_pass<R: SweepDispatch>(
    state: &mut [Complex<R>],
    gate: &PreparedGate<R>,
    threads: usize,
    stats: &mut SweepStats,
) {
    gate.apply_full(state, threads);
    let bytes = 2 * std::mem::size_of_val(state) as u64;
    stats.sweep_passes += 1;
    stats.baseline_passes += 1;
    stats.fallback_gates += 1;
    stats.bytes_streamed += bytes;
    stats.baseline_bytes += bytes;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::{apply_gate, Simd};
    use crate::specialized::apply_diagonal;
    use crate::testutil::assert_bits_eq;
    use qsim_util::{c32, c64, Xoshiro256};

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

    fn t_diag() -> Vec<c64> {
        vec![
            c64::one(),
            c64::from_polar(1.0, std::f64::consts::FRAC_PI_4),
        ]
    }

    #[test]
    fn contiguous_pass_is_bit_exact_vs_per_gate() {
        let n = 10u32;
        for simd in [Simd::Scalar, Simd::Avx2, Simd::Auto] {
            let cfg = KernelConfig { simd, threads: 1 };
            let m1 = random_matrix(2, 1);
            let m2 = random_matrix(3, 2);
            let state0 = random_state(n, 3);

            let mut oracle = state0.clone();
            apply_gate(&mut oracle, &[0, 3], &m1, &cfg);
            apply_diagonal(&mut oracle, &[5], &t_diag());
            apply_gate(&mut oracle, &[1, 2, 4], &m2, &cfg);

            // Tile over positions 0..6: both clusters tile-local, the T
            // on qubit 5 is in-tile; qubits 6..9 are per-tile base bits.
            let tile: Vec<u32> = (0..6).collect();
            let pass = TiledPass::new(
                tile.clone(),
                vec![
                    TileOp::Dense(PreparedGate::new(&[0, 3], &m1, &cfg)),
                    TileOp::Diag(PreparedDiag::new(&[5], t_diag(), n, &cfg)),
                    TileOp::Dense(PreparedGate::new(&[1, 2, 4], &m2, &cfg)),
                ],
            );
            let mut tiled = state0;
            let mut stats = SweepStats::default();
            pass.run(&mut tiled, 0, 1, &mut stats);
            assert_bits_eq(&tiled, &oracle, &format!("simd={simd:?}"));
            assert_eq!(stats.sweep_passes, 1);
            assert_eq!(stats.baseline_passes, 3);
            assert_eq!(stats.tile_local_gates, 2);
            assert_eq!(stats.diagonals_folded, 1);
        }
    }

    #[test]
    fn f32_pass_is_bit_exact_vs_per_gate_f32() {
        let n = 10u32;
        for simd in [Simd::Scalar, Simd::Avx2, Simd::Auto] {
            let cfg = KernelConfig { simd, threads: 1 };
            let m1 = random_matrix(2, 41).convert::<f32>();
            let m2 = random_matrix(3, 42).convert::<f32>();
            let state0: Vec<c32> = random_state(n, 43).iter().map(|a| a.convert()).collect();
            let diag32: Vec<c32> = t_diag().iter().map(|a| a.convert()).collect();

            let mut oracle = state0.clone();
            apply_gate(&mut oracle, &[0, 3], &m1, &cfg);
            apply_diagonal(&mut oracle, &[5], &diag32);
            apply_gate(&mut oracle, &[1, 2, 4], &m2, &cfg);

            let tile: Vec<u32> = (0..6).collect();
            let pass = TiledPass::new(
                tile.clone(),
                vec![
                    TileOp::Dense(PreparedGate::new(&[0, 3], &m1, &cfg)),
                    TileOp::Diag(PreparedDiag::new(&[5], diag32.clone(), n, &cfg)),
                    TileOp::Dense(PreparedGate::new(&[1, 2, 4], &m2, &cfg)),
                ],
            );
            let mut tiled = state0;
            let mut stats = SweepStats::default();
            pass.run(&mut tiled, 0, 1, &mut stats);
            assert_bits_eq(&tiled, &oracle, &format!("simd={simd:?}"));
            // f32 amplitudes are 8 bytes, not 16: the streamed-bytes
            // counter must show half the f64 traffic per pass.
            assert_eq!(stats.bytes_streamed, 2 * (1u64 << n) * 8);
        }
    }

    #[test]
    fn gathered_pass_is_bit_exact_vs_per_gate() {
        let n = 11u32;
        let cfg = KernelConfig::sequential();
        // Cluster on high, scattered qubits: the tile {2,5,7,8,10} is
        // non-contiguous, so the gather/scatter staging path runs.
        let tile = vec![2u32, 5, 7, 8, 10];
        let m = random_matrix(3, 7);
        let qubits = [5u32, 7, 10];
        let state0 = random_state(n, 8);

        let mut oracle = state0.clone();
        apply_gate(&mut oracle, &qubits, &m, &cfg);
        // Diagonal on an out-of-tile qubit exercises the base-bit path.
        apply_diagonal(&mut oracle, &[3], &t_diag());

        let pass = TiledPass::new(
            tile.clone(),
            vec![
                TileOp::Dense(PreparedGate::new(&qubits, &m, &cfg)),
                TileOp::Diag(PreparedDiag::new(&[3], t_diag(), n, &cfg)),
            ],
        );
        let mut tiled = state0;
        let mut stats = SweepStats::default();
        pass.run(&mut tiled, 0, 1, &mut stats);
        assert_bits_eq(&tiled, &oracle, "gathered pass");
    }

    #[test]
    fn parallel_pass_matches_sequential_pass() {
        let n = 15u32; // above PAR_THRESHOLD
        let cfg = KernelConfig {
            threads: 4,
            ..KernelConfig::sequential()
        };
        let m = random_matrix(4, 11);
        let state0 = random_state(n, 12);
        let mk_pass = || {
            let tile: Vec<u32> = (0..8).collect();
            TiledPass::new(
                tile.clone(),
                vec![
                    TileOp::Dense(PreparedGate::new(&[0, 2, 4, 6], &m, &cfg)),
                    TileOp::Diag(PreparedDiag::new(&[9], t_diag(), n, &cfg)),
                ],
            )
        };
        let mut seq = state0.clone();
        let mut par = state0;
        let mut stats = SweepStats::default();
        mk_pass().run(&mut seq, 0, 1, &mut stats);
        mk_pass().run(&mut par, 0, 4, &mut stats);
        assert_bits_eq(&seq, &par, "parallel pass");
    }

    #[test]
    fn rank_conditional_diagonal_matches_reduction() {
        // Two-operand diagonal with operand 1 global: rank bit selects
        // the reduced half, matching the dist-path reduction.
        let l = 8u32;
        let diag: Vec<c64> = (0..4)
            .map(|i| c64::from_polar(1.0, 0.3 * i as f64))
            .collect();
        let tile: Vec<u32> = (0..6).collect();
        let state0 = random_state(l, 21);
        for rank in [0usize, 1] {
            // Oracle: reduce by the rank bit, then apply locally.
            let fixed = (rank & 1) << 1;
            let reduced = vec![diag[fixed], diag[fixed | 1]];
            let mut oracle = state0.clone();
            apply_diagonal(&mut oracle, &[4], &reduced);

            let pd = PreparedDiag::new(&[4, l], diag.clone(), l, &KernelConfig::default());
            let pass = TiledPass::new(tile.clone(), vec![TileOp::Diag(pd)]);
            let mut tiled = state0.clone();
            let mut stats = SweepStats::default();
            pass.run(&mut tiled, rank, 1, &mut stats);
            assert_bits_eq(&tiled, &oracle, &format!("rank={rank}"));
        }
    }

    /// One staged-tile case: a k=3 and a k=2 cluster plus a two-operand
    /// diagonal (one operand in the tile, one on a base bit) through a
    /// `TiledPass` under the production config, against the per-gate
    /// scalar path.
    fn staged_case<R: SweepDispatch>(n: u32, threads: usize, tile: &[u32]) {
        let t = tile.len();
        let m3 = random_matrix(3, 51).convert::<R>();
        let m2 = random_matrix(2, 52).convert::<R>();
        let q3 = [tile[t - 1], tile[t - 3], tile[t - 2]];
        let q2 = [tile[1], tile[0]];
        let outside = (0..n).rev().find(|p| !tile.contains(p)).unwrap();
        let dq = [tile[1], outside];
        let diag: Vec<Complex<R>> = (0..4)
            .map(|i| c64::from_polar(1.0, 0.4 * i as f64 + 0.1).convert())
            .collect();
        let state0: Vec<Complex<R>> = random_state(n, 53).iter().map(|a| a.convert()).collect();

        let mut oracle = state0.clone();
        let seq = KernelConfig::sequential();
        apply_gate(&mut oracle, &q3, &m3, &seq);
        apply_diagonal(&mut oracle, &dq, &diag);
        apply_gate(&mut oracle, &q2, &m2, &seq);

        let cfg = KernelConfig {
            threads,
            ..KernelConfig::default()
        };
        let pass = TiledPass::new(
            tile.to_vec(),
            vec![
                TileOp::Dense(PreparedGate::new(&q3, &m3, &cfg)),
                TileOp::Diag(PreparedDiag::new(&dq, diag, n, &cfg)),
                TileOp::Dense(PreparedGate::new(&q2, &m2, &cfg)),
            ],
        );
        let mut tiled = state0;
        pass.run(&mut tiled, 0, threads, &mut SweepStats::default());
        assert_bits_eq(
            &tiled,
            &oracle,
            &format!("n={n} threads={threads} tile={tile:?}"),
        );
    }

    #[test]
    fn staged_tiles_are_bit_exact_vs_per_gate() {
        // Tiles without the cache-line positions (adjacent tiles staged
        // together), with all of them (runs of one line or more), with
        // some; one and two threads; both sides of the PAR_THRESHOLD seam
        // (2^14 amplitudes).
        let tiles: [&[u32]; 6] = [
            &[2, 5, 7, 8, 10],
            &[3, 4, 6, 9, 11, 12],
            &[0, 1, 5, 8, 10, 12],
            &[0, 1, 2, 3, 6, 9],
            &[1, 4, 6, 9, 11],
            &[0, 3, 4, 7, 12],
        ];
        for n in [13u32, 15] {
            for threads in [1usize, 2] {
                for tile in tiles {
                    staged_case::<f64>(n, threads, tile);
                    staged_case::<f32>(n, threads, tile);
                }
            }
        }
    }

    #[test]
    fn staged_tile_takes_the_missing_cache_line_positions() {
        let cfg = KernelConfig::sequential();
        let staged = |tile: &[u32]| {
            TiledPass::<f64>::new(
                tile.to_vec(),
                vec![TileOp::Dense(PreparedGate::new(
                    &tile[tile.len() - 1..],
                    &random_matrix(1, 3),
                    &cfg,
                ))],
            )
            .tile
        };
        assert_eq!(staged(&[2, 5, 7]), [0, 1, 2, 5, 7]);
        assert_eq!(staged(&[1, 5, 7]), [0, 1, 5, 7]);
        assert_eq!(staged(&[0, 1, 4]), [0, 1, 4]);
        // Contiguous tiles are zero-copy and stay as planned; positions
        // are only added below the tile's top.
        assert_eq!(staged(&[0, 1, 2]), [0, 1, 2]);
        assert_eq!(staged(&[1]), [0, 1]);
        assert_eq!(
            TiledPass::<f32>::new(vec![3, 6], vec![]).tile,
            [0, 1, 2, 3, 6]
        );
    }

    #[test]
    fn run_wise_diagonal_fold_matches_reduction_and_apply_diagonal() {
        // Four-operand diagonal: in-tile low and high, base bit, rank bit.
        // Oracle: reduce by the rank bit (the dist-path reduction), then
        // `apply_diagonal` on the whole local state.
        let l = 10u32;
        let cfg = KernelConfig::default();
        let state0 = random_state(l, 61);
        let diag: Vec<c64> = (0..16)
            .map(|i| c64::from_polar(1.0, 0.37 * i as f64 + 0.2))
            .collect();
        let tiles: [&[u32]; 3] = [&[0, 1, 2, 3, 4, 5], &[0, 1, 2, 3, 5, 8], &[2, 3, 5, 8]];
        // (positions, which slot is the rank operand); slot order is the
        // diagonal's index order, so it is shuffled against position.
        for positions in [[3u32, l, 8, 6], [0, l, 5, 7], [l, 2, 1, 9]] {
            let rank_slot = positions.iter().position(|&p| p == l).unwrap();
            let local: Vec<u32> = positions.iter().copied().filter(|&p| p != l).collect();
            for rank in [0usize, 1] {
                let reduced: Vec<c64> = (0..8)
                    .map(|x| {
                        let lo = x & ((1 << rank_slot) - 1);
                        let hi = x >> rank_slot << (rank_slot + 1);
                        diag[hi | rank << rank_slot | lo]
                    })
                    .collect();
                let mut oracle = state0.clone();
                apply_diagonal(&mut oracle, &local, &reduced);
                for tile in tiles {
                    let pd = PreparedDiag::new(&positions, diag.clone(), l, &cfg);
                    let pass = TiledPass::new(tile.to_vec(), vec![TileOp::Diag(pd)]);
                    let mut tiled = state0.clone();
                    pass.run(&mut tiled, rank, 1, &mut SweepStats::default());
                    assert_bits_eq(
                        &tiled,
                        &oracle,
                        &format!("positions={positions:?} rank={rank} tile={tile:?}"),
                    );
                }
            }
        }
        // The skip-don't-multiply fast path: T on an in-tile position
        // (runs of 2^cp), on a base bit, and on the lowest position.
        for q in [5u32, 9, 0] {
            let mut oracle = state0.clone();
            apply_diagonal(&mut oracle, &[q], &t_diag());
            for tile in tiles {
                let pd = PreparedDiag::new(&[q], t_diag(), l, &cfg);
                let pass = TiledPass::new(tile.to_vec(), vec![TileOp::Diag(pd)]);
                let mut tiled = state0.clone();
                pass.run(&mut tiled, 0, 1, &mut SweepStats::default());
                assert_bits_eq(&tiled, &oracle, &format!("T on {q}, tile={tile:?}"));
            }
        }
    }

    /// Amplitudes whose components are +0.0, −0.0 or uniform in [−½, ½),
    /// a third each: a fold that multiplies an amplitude the oracle
    /// skips, or skips a multiplication by exactly (1, 0), flips the sign
    /// of some zero.
    fn signed_zero_amps<T: Real>(len: usize, rng: &mut Xoshiro256) -> Vec<Complex<T>> {
        let mut c = || match rng.next_u64() % 3 {
            0 => T::ZERO,
            1 => -T::ZERO,
            _ => T::from_f64(rng.next_f64() - 0.5),
        };
        (0..len).map(|_| Complex::new(c(), c())).collect()
    }

    /// `qsim_core::exec::apply_rank_diagonal`, which this crate cannot
    /// call (`qsim-core` depends on it): reduce by the rank's bits, then
    /// one global phase with no local operand, else `apply_diagonal` on the
    /// local ones.
    fn rank_diagonal<T: Real>(
        amps: &mut [Complex<T>],
        positions: &[u32],
        diag: &[Complex<T>],
        rank: usize,
        l: u32,
    ) {
        let (mut local, mut fixed) = (Vec::new(), 0usize);
        for (j, &p) in positions.iter().enumerate() {
            if p < l {
                local.push((j, p));
            } else {
                fixed |= (rank >> (p - l) & 1) << j;
            }
        }
        if local.is_empty() {
            crate::specialized::apply_global_phase(amps, diag[fixed]);
            return;
        }
        let reduced: Vec<Complex<T>> = (0..1usize << local.len())
            .map(|x| {
                let idx = local
                    .iter()
                    .enumerate()
                    .fold(fixed, |i, (b, &(j, _))| i | (x >> b & 1) << j);
                diag[idx]
            })
            .collect();
        let qs: Vec<u32> = local.iter().map(|&(_, p)| p).collect();
        apply_diagonal(amps, &qs, &reduced);
    }

    /// A diagonal of `k` entries of one of three shapes: random phases
    /// (the general path), a controlled phase — ones but the last entry,
    /// so T at k = 1 and CZ-like above (the unit-first fast path on a lone
    /// local operand, and exact (1, 0) entries on the general path) — and
    /// a first entry of exactly one before random phases.
    fn test_diag<T: Real>(k: usize, shape: usize, rng: &mut Xoshiro256) -> Vec<Complex<T>> {
        (0..1usize << k)
            .map(|e| {
                let phase = c64::from_polar(1.0, 6.3 * rng.next_f64()).convert();
                match shape % 3 {
                    0 => phase,
                    1 if e + 1 < 1 << k => Complex::one(),
                    1 => phase,
                    _ if e == 0 => Complex::one(),
                    _ => phase,
                }
            })
            .collect()
    }

    /// Every case of [`diagonal_runs_fold_bit_exact_at_every_width`] at
    /// one precision and width: passes of 1–5 consecutive diagonals of
    /// widths 1–4 over tiles of 2^2 and 2^5–2^10 amplitudes (contiguous and
    /// staged), the first operand of each pass on compact position 0–6 of
    /// the staged tile, a base bit or a rank bit, the others anywhere,
    /// ranks 0 and 1 — one pass of the run and one pass per diagonal,
    /// each against the oracle one diagonal at a time.
    fn fold_cases<T: SweepDispatch>(simd: Simd) {
        let l = 11u32;
        let cfg = KernelConfig { simd, threads: 1 };
        let mut rng = Xoshiro256::seed_from_u64(71);
        let state0 = signed_zero_amps::<T>(1 << l, &mut rng);
        let mut case = 0usize;
        for t in [2u32, 5, 6, 7, 8, 9, 10] {
            let mut scattered: Vec<u32> = (0..l).collect();
            for i in (1..scattered.len()).rev() {
                scattered.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            scattered.truncate(t as usize);
            scattered.sort_unstable();
            for tile in [(0..t).collect::<Vec<u32>>(), scattered] {
                let staged = TiledPass::<T>::new(tile.clone(), vec![]).tile;
                let base_bits: Vec<u32> = (0..l).filter(|p| !staged.contains(p)).collect();
                for rank in [0usize, 1] {
                    for first in 0..9usize {
                        let p0 = match first {
                            cp @ 0..=6 => match staged.get(cp) {
                                Some(&p) => p,
                                None => continue,
                            },
                            7 => base_bits[case % base_bits.len()],
                            _ => l + (case % 2) as u32,
                        };
                        case += 1;
                        let run: Vec<(Vec<u32>, Vec<Complex<T>>)> = (0..1 + case % 5)
                            .map(|i| {
                                let k = 1 + (case + i) % 4;
                                let mut qs = vec![p0];
                                while qs.len() < k {
                                    let q = (rng.next_u64() % (l as u64 + 2)) as u32;
                                    if !qs.contains(&q) {
                                        qs.push(q);
                                    }
                                }
                                (qs, test_diag(k, case + i, &mut rng))
                            })
                            .collect();
                        let what = format!(
                            "{} {simd:?} tile={tile:?} rank={rank} case={case} run={:?}",
                            T::NAME,
                            run.iter().map(|(qs, _)| qs).collect::<Vec<_>>()
                        );
                        let mut oracle = state0.clone();
                        let mut single = state0.clone();
                        for (qs, d) in &run {
                            rank_diagonal(&mut oracle, qs, d, rank, l);
                            let one = PreparedDiag::new(qs, d.clone(), l, &cfg);
                            TiledPass::new(tile.clone(), vec![TileOp::Diag(one)]).run(
                                &mut single,
                                rank,
                                1,
                                &mut SweepStats::default(),
                            );
                        }
                        let ops = run
                            .iter()
                            .map(|(qs, d)| TileOp::Diag(PreparedDiag::new(qs, d.clone(), l, &cfg)))
                            .collect();
                        let pass = TiledPass::new(tile.clone(), ops);
                        let mut one_pass = state0.clone();
                        let mut stats = SweepStats::default();
                        pass.run(&mut one_pass, rank, 1, &mut stats);
                        assert_eq!(stats.diagonals_folded, run.len() as u64);
                        assert_eq!(stats.baseline_passes, run.len() as u64);
                        assert_bits_eq(&one_pass, &oracle, &format!("{what}: one pass vs oracle"));
                        assert_bits_eq(&single, &oracle, &format!("{what}: per op vs oracle"));
                    }
                }
            }
        }
    }

    #[test]
    fn diagonal_runs_fold_bit_exact_at_every_width() {
        for simd in [Simd::Auto, Simd::Avx2, Simd::Scalar] {
            fold_cases::<f64>(simd);
            fold_cases::<f32>(simd);
        }
    }

    #[test]
    fn full_pass_fallback_is_bit_exact() {
        let n = 12u32;
        let cfg = KernelConfig::sequential();
        let m = random_matrix(5, 31);
        let qubits = [1u32, 3, 5, 8, 11];
        let state0 = random_state(n, 32);
        let mut oracle = state0.clone();
        apply_gate(&mut oracle, &qubits, &m, &cfg);
        let mut swept = state0;
        let mut stats = SweepStats::default();
        let g = PreparedGate::new(&qubits, &m, &cfg);
        run_full_pass(&mut swept, &g, 1, &mut stats);
        assert_bits_eq(&swept, &oracle, "full pass");
        assert_eq!(stats.fallback_gates, 1);
        assert_eq!(stats.pass_ratio(), 1.0);
    }

    #[test]
    fn effective_tile_clamps() {
        assert_eq!(effective_tile_qubits(14, 10, 1), 10);
        assert_eq!(effective_tile_qubits(14, 24, 1), 14);
        // 8 threads want 2^5 tiles: 24-qubit register caps the tile at 19,
        // leaving the tuned 14 untouched; a 16-qubit register shrinks it.
        assert_eq!(effective_tile_qubits(14, 24, 8), 14);
        assert_eq!(effective_tile_qubits(14, 16, 8), 11);
        // Never below MIN_TILE_QUBITS when the register allows it.
        assert_eq!(effective_tile_qubits(14, 8, 64), 6);
    }
}
