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

/// Parallel gather: `dst[t] = src[index(t)]` — the pack half of the fused
/// permute-scatter swap data path (contiguous writes, scattered reads).
/// Sequential below [`PAR_THRESHOLD`] destination elements.
pub fn par_gather<T: Real>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    index: impl Fn(usize) -> usize + Sync,
) {
    if dst.len() < PAR_THRESHOLD {
        for (t, d) in dst.iter_mut().enumerate() {
            *d = src[index(t)];
        }
        return;
    }
    let chunk = (dst.len() / (rayon::current_num_threads() * 8)).max(1024);
    dst.par_chunks_mut(chunk).enumerate().for_each(|(ci, ch)| {
        let base = ci * chunk;
        for (j, d) in ch.iter_mut().enumerate() {
            *d = src[index(base + j)];
        }
    });
}

/// Parallel scatter: `dst[index(t)] = src[t]` — the unpack half of the
/// fused gather-unpermute swap data path (contiguous reads, scattered
/// writes). `index` must be injective on `0..src.len()`: callers pass bit
/// permutations, which are bijective, so distinct source positions write
/// disjoint destinations (the same contract as `DisjointSlice`).
/// Sequential below [`PAR_THRESHOLD`] source elements.
pub fn par_scatter<T: Real>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    index: impl Fn(usize) -> usize + Sync,
) {
    if src.len() < PAR_THRESHOLD {
        for (t, &v) in src.iter().enumerate() {
            dst[index(t)] = v;
        }
        return;
    }
    let shared = DisjointSlice(dst.as_mut_ptr(), dst.len());
    let chunk = (src.len() / (rayon::current_num_threads() * 8)).max(1024);
    src.par_chunks(chunk).enumerate().for_each(|(ci, ch)| {
        // SAFETY: source chunks are disjoint and `index` is injective, so
        // no two workers write the same destination element.
        let d = unsafe { shared.slice() };
        let base = ci * chunk;
        for (j, &v) in ch.iter().enumerate() {
            d[index(base + j)] = v;
        }
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
        use qsim_util::bits::BitPermutation;
        for n in [10u32, 15] {
            // n=15 exceeds PAR_THRESHOLD and exercises the parallel paths.
            let src = random_state(n, 31 + n as u64);
            let perm = BitPermutation::new((0..n).map(|i| (i + 3) % n).collect());
            let mut gathered = vec![c64::zero(); src.len()];
            par_gather(&src, &mut gathered, |t| perm.apply(t));
            let mut back = vec![c64::zero(); src.len()];
            par_scatter(&gathered, &mut back, |t| perm.apply(t));
            assert_eq!(back, src, "n={n}");
            // Gather by perm equals the inverse permutation's permute_slice.
            let mut expect = vec![c64::zero(); src.len()];
            perm.inverse().permute_slice(&src, &mut expect);
            assert_eq!(gathered, expect, "n={n}");
        }
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
