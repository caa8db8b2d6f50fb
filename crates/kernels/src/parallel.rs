//! Node-level parallelism: the paper's §3.3 OpenMP layer, on rayon.
//!
//! A k-qubit gate sweep is 2^{n−k} independent block updates; different
//! block counters touch disjoint amplitude sets, so the block index space
//! is embarrassingly parallel. Like the paper's `collapse` directive, we
//! parallelize over the *flattened* counter range rather than any outer
//! loop of the nested index structure, so strong scaling does not degrade
//! when a gate acts on high-order qubits (few outer iterations).
//!
//! Safety: the state is shared across workers through `DisjointSlice`,
//! whose single invariant — distinct block counters expand to disjoint
//! index sets — is exactly the kernel indexing theorem tested in
//! `qsim_util::bits` (`expander_enumerates_disjoint_blocks`).

use core::ops::Range;
use qsim_util::bits::BitPermutation;
use qsim_util::complex::Complex;
use qsim_util::Real;
use rayon::prelude::*;

/// Below this many amplitudes a gate is applied sequentially: thread
/// fork/join overhead dominates tiny sweeps.
pub const PAR_THRESHOLD: usize = 1 << 14;

/// A shared mutable state-vector pointer handed to rayon workers.
///
/// Each worker receives a disjoint block-counter range `[c0, c1)` and only
/// dereferences indices `expand(c) + off` for `c` in its range. Because the
/// expander enumerates disjoint index sets per counter, no two workers
/// alias — the standard argument for gate-level parallelism in state-vector
/// simulators.
pub(crate) struct DisjointSlice<T>(pub(crate) *mut Complex<T>, pub(crate) usize);
unsafe impl<T: Send> Send for DisjointSlice<T> {}
unsafe impl<T: Send> Sync for DisjointSlice<T> {}

impl<T> DisjointSlice<T> {
    /// Reconstitute the full slice. Caller must uphold the disjointness
    /// contract described on the type: each worker derives a &mut only to
    /// indices no other worker touches, so the aliasing clippy flags here
    /// cannot occur.
    #[inline(always)]
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice(&self) -> &mut [Complex<T>] {
        core::slice::from_raw_parts_mut(self.0, self.1)
    }
}

/// Block-range boundaries handed to workers are multiples of this many
/// blocks, so a range never splits a lane group of the block-lane kernel
/// (8 blocks per vector at f32, 4 at f64) and only the two ends of the
/// whole sweep can be ragged.
const LANE_ALIGN: usize = 8;

/// Run `f(state, c0, c1)` over a partition of the block counters
/// `[0, blocks)`: one call below [`PAR_THRESHOLD`] amplitudes or at one
/// thread, otherwise one call per [`chunk_ranges`] range on the pool.
/// `f` may touch only the amplitudes of the blocks it is handed.
pub(crate) fn par_block_ranges<T: Send>(
    state: &mut [Complex<T>],
    blocks: usize,
    threads_hint: usize,
    f: impl Fn(&mut [Complex<T>], usize, usize) + Sync,
) {
    if state.len() < PAR_THRESHOLD || threads_hint <= 1 {
        f(state, 0, blocks);
        return;
    }
    let shared = DisjointSlice(state.as_mut_ptr(), state.len());
    chunk_ranges(blocks, threads_hint, LANE_ALIGN)
        .into_par_iter()
        .for_each(|(c0, c1)| {
            // SAFETY: chunk ranges partition [0, blocks); per-counter index
            // sets are disjoint (DisjointSlice contract).
            let s = unsafe { shared.slice() };
            f(s, c0, c1);
        });
}

/// Amplitudes per block of the table walk: one low-byte table's worth.
const PERM_BLOCK: usize = 256;

/// Cover `range` with runs `f(t, hi, lo)`: for `j < lo.len()`,
/// `perm.apply(base + t + j) == hi | lo[j]`. A run is the part of one
/// 256-aligned block of `base + t` that falls in `range`, and `lo` the
/// matching slice of the low-byte table (a bit permutation moves the low
/// byte independently of the rest), so each block costs one `apply`
/// however `base` and the range ends sit on the block grid.
#[inline(always)]
fn for_each_run(
    perm: &BitPermutation,
    base: usize,
    range: Range<usize>,
    mut f: impl FnMut(usize, usize, &[usize]),
) {
    let lo = perm.low_byte_table();
    let mut t = range.start;
    while t < range.end {
        let i = base + t;
        let off = i % PERM_BLOCK;
        let len = (PERM_BLOCK - off).min(range.end - t);
        f(t, perm.apply(i - off), &lo[off..off + len]);
        t += len;
    }
}

/// Elements per parallel chunk of a gather/scatter of `len` elements: a
/// multiple of 256, so a chunk splits no block when `base` is aligned.
fn perm_chunk(len: usize) -> usize {
    (len / (rayon::current_num_threads() * 8))
        .max(1024)
        .next_multiple_of(PERM_BLOCK)
}

/// Parallel gather: `dst[t] = src[perm.apply(base + t)]` — the pack half
/// of the fused permute-scatter swap data path (contiguous writes,
/// scattered reads). Sequential at one thread or below [`PAR_THRESHOLD`]
/// destination elements.
pub fn par_gather<T: Real>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    perm: &BitPermutation,
    base: usize,
    threads: usize,
) {
    let gather = |t0: usize, ch: &mut [Complex<T>]| {
        for_each_run(perm, base, t0..t0 + ch.len(), |t, hi, lo| {
            for (d, &l) in ch[t - t0..].iter_mut().zip(lo) {
                *d = src[hi | l];
            }
        })
    };
    if dst.len() < PAR_THRESHOLD || threads <= 1 {
        gather(0, dst);
        return;
    }
    let chunk = perm_chunk(dst.len());
    dst.par_chunks_mut(chunk)
        .enumerate()
        .for_each(|(ci, ch)| gather(ci * chunk, ch));
}

/// Parallel scatter: `dst[perm.apply(base + t)] = src[t]` — the unpack
/// half of the fused gather-unpermute swap data path (contiguous reads,
/// scattered writes). A bit permutation is a bijection on `0..2^n`, so
/// distinct source positions write disjoint destinations (the same
/// contract as `DisjointSlice`). Sequential at one thread or below
/// [`PAR_THRESHOLD`] source elements.
///
/// Panics unless `base + src.len() ≤ 2^n`: past it, `apply` drops the
/// high bits and two positions would write one destination.
pub fn par_scatter<T: Real>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    perm: &BitPermutation,
    base: usize,
    threads: usize,
) {
    assert!(
        base + src.len() <= 1usize << perm.n_bits(),
        "scatter range past the permutation's 2^n indices"
    );
    let scatter = |t0: usize, ch: &[Complex<T>], d: &mut [Complex<T>]| {
        for_each_run(perm, base, t0..t0 + ch.len(), |t, hi, lo| {
            for (&v, &l) in ch[t - t0..].iter().zip(lo) {
                d[hi | l] = v;
            }
        })
    };
    if src.len() < PAR_THRESHOLD || threads <= 1 {
        scatter(0, src, dst);
        return;
    }
    let shared = DisjointSlice(dst.as_mut_ptr(), dst.len());
    let chunk = perm_chunk(src.len());
    src.par_chunks(chunk).enumerate().for_each(|(ci, ch)| {
        // SAFETY: source chunks are disjoint, `base + t` stays below 2^n
        // (asserted above) and `perm` is a bijection there, so no two
        // workers write the same destination element.
        let d = unsafe { shared.slice() };
        scatter(ci * chunk, ch, d);
    });
}

/// Split `[0, blocks)` into roughly `parts * 4` contiguous ranges (over-
/// decomposition keeps rayon's work stealing effective when ranges have
/// unequal cache behaviour) whose interior boundaries are multiples of
/// `align`.
pub(crate) fn chunk_ranges(blocks: usize, parts: usize, align: usize) -> Vec<(usize, usize)> {
    let want = (parts * 4).clamp(1, blocks.max(1));
    let per = blocks.div_ceil(want).next_multiple_of(align);
    let mut out = Vec::with_capacity(want);
    let mut c = 0;
    while c < blocks {
        let e = (c + per).min(blocks);
        out.push((c, e));
        c = e;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{GateMatrix, PackedMatrix};
    use crate::opt::{apply_blocked_packed_range, apply_fma, offsets, prepare};
    use qsim_util::complex::max_dist;
    use qsim_util::{c64, Xoshiro256};

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

    /// The scalar step-3 kernel through the block-range driver.
    fn blocked_via_driver(state: &mut [c64], qubits: &[u32], m: &GateMatrix<f64>, threads: usize) {
        let (exp, pm) = prepare(state.len(), qubits, m);
        let packed = PackedMatrix::pack(&pm);
        let offs = offsets(&exp, packed.dim());
        let blocks = state.len() >> packed.k();
        par_block_ranges(state, blocks, threads, |s, c0, c1| {
            apply_blocked_packed_range(s, &exp, &packed, &offs, c0, c1)
        });
    }

    #[test]
    fn parallel_matches_sequential_above_threshold() {
        let n = 16; // 65536 amplitudes > PAR_THRESHOLD
        for (k, qubits) in [
            (1, vec![9u32]),
            (3, vec![15, 2, 8]),
            (5, vec![0, 3, 7, 11, 14]),
        ] {
            let m = random_matrix(k, 7 + k as u64);
            let state0 = random_state(n, 13 + k as u64);
            let mut a = state0.clone();
            blocked_via_driver(&mut a, &qubits, &m, 8);
            let mut b = state0.clone();
            apply_fma(&mut b, &qubits, &m);
            assert!(max_dist(&a, &b) < 1e-12, "scalar k={k}");
            // The production dispatch rides the same range driver.
            let mut c = state0;
            crate::apply::apply_gate(
                &mut c,
                &qubits,
                &m,
                &crate::apply::KernelConfig {
                    threads: 8,
                    ..Default::default()
                },
            );
            assert!(max_dist(&c, &b) < 1e-12, "auto k={k}");
        }
    }

    #[test]
    fn small_states_take_sequential_path() {
        let m = random_matrix(2, 3);
        let qubits = vec![1u32, 3];
        let state0 = random_state(6, 4);
        let mut a = state0.clone();
        blocked_via_driver(&mut a, &qubits, &m, 8);
        let mut b = state0;
        apply_fma(&mut b, &qubits, &m);
        assert!(max_dist(&a, &b) < 1e-13);
    }

    #[test]
    fn gather_scatter_invert_each_other() {
        for n in [10u32, 15] {
            // n=15 exceeds PAR_THRESHOLD and exercises the parallel paths.
            let src = random_state(n, 31 + n as u64);
            let perm = BitPermutation::new((0..n).map(|i| (i + 3) % n).collect());
            let mut gathered = vec![c64::zero(); src.len()];
            par_gather(&src, &mut gathered, &perm, 0, 8);
            let mut back = vec![c64::zero(); src.len()];
            par_scatter(&gathered, &mut back, &perm, 0, 8);
            assert_eq!(back, src, "n={n}");
            // Gather by perm equals the inverse permutation's permute_slice.
            let mut expect = vec![c64::zero(); src.len()];
            perm.inverse().permute_slice(&src, &mut expect);
            assert_eq!(gathered, expect, "n={n}");
        }
    }

    fn bits<T: Real>(v: &[Complex<T>]) -> Vec<(u64, u64)> {
        v.iter()
            .map(|c| (c.re.to_bits_u64(), c.im.to_bits_u64()))
            .collect()
    }

    /// Gather and scatter against the per-element definition, bit for
    /// bit, over every (length, base) pair around the 256-amplitude block
    /// and the parallel threshold — aligned and unaligned bases, ragged
    /// heads and tails — at one thread and eight, plus a permutation of
    /// under 8 bits, whose one table is narrower than a block.
    fn gather_scatter_match_per_element<T: Real>() {
        let random = |len: usize, seed: u64| -> Vec<Complex<T>> {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            (0..len)
                .map(|_| Complex::new(T::from_f64(rng.next_f64()), T::from_f64(rng.next_f64())))
                .collect()
        };
        let t = PAR_THRESHOLD;
        let lens = [1, 255, 256, 257, 1000, t - 1, t, t + 300];
        let bases = [0, 1, 255, 256, 300, 4096, t - 7, t + 256];
        let cases = [
            (16u32, &lens[..], &bases[..]),
            (5, &[1, 7, 32][..], &[0, 3][..]),
        ];
        for (n, lens, bases) in cases {
            let mut map: Vec<u32> = (0..n).collect();
            Xoshiro256::seed_from_u64(n as u64).shuffle(&mut map);
            let perm = BitPermutation::new(map);
            let state = random(1 << n, 5);
            for (&len, threads) in lens.iter().flat_map(|l| [(l, 1), (l, 8)]) {
                for &base in bases.iter().filter(|&&b| b + len <= 1 << n) {
                    let at = format!("n={n} len={len} base={base} threads={threads}");
                    let mut got = vec![Complex::zero(); len];
                    par_gather(&state, &mut got, &perm, base, threads);
                    let want: Vec<_> = (0..len).map(|t| state[perm.apply(base + t)]).collect();
                    assert_eq!(bits(&got), bits(&want), "gather {at}");

                    let piece = random(len, 7 + len as u64);
                    let mut got = state.clone();
                    par_scatter(&piece, &mut got, &perm, base, threads);
                    let mut want = state.clone();
                    for (t, &v) in piece.iter().enumerate() {
                        want[perm.apply(base + t)] = v;
                    }
                    assert_eq!(bits(&got), bits(&want), "scatter {at}");
                }
            }
        }
    }

    #[test]
    fn gather_scatter_match_per_element_f64() {
        gather_scatter_match_per_element::<f64>();
    }

    #[test]
    fn gather_scatter_match_per_element_f32() {
        gather_scatter_match_per_element::<f32>();
    }

    #[test]
    fn chunk_ranges_partition() {
        for blocks in [1usize, 7, 1024, 4097] {
            for parts in [1usize, 2, 8] {
                for align in [1usize, LANE_ALIGN] {
                    let r = chunk_ranges(blocks, parts, align);
                    assert_eq!(r[0].0, 0);
                    assert_eq!(r.last().unwrap().1, blocks);
                    for w in r.windows(2) {
                        assert_eq!(w[0].1, w[1].0);
                        assert_eq!(w[0].1 % align, 0, "interior boundary off a lane group");
                    }
                }
            }
        }
    }
}
