//! Runtime kernel autotuning — the paper's "automatic code-generation /
//! benchmarking feedback loop" (§3.2) recast for a compiled library.
//!
//! The paper generates kernel variants offline and benchmarks them to pick
//! the block size and the largest profitable kernel size `kmax`. Here the
//! variants already exist (macro-/generic-compiled); the feedback loop
//! runs at startup on a small state vector and selects:
//!
//! * `block` — the register-blocking width of the scalar step-3 kernel;
//! * `kmax`  — the largest k whose kernel still delivers good *effective*
//!   throughput. Because a k-qubit fused gate replaces ≥ k single/two-qubit
//!   gates (Table 1 shows more than k on average), the figure of merit is
//!   amplitude-sweeps avoided per second: `gflops_equivalent(k) =
//!   k × amplitudes/second`, the same "larger gates in (almost) the same
//!   time" argument of §3.3.
//!
//! Tuning takes tens of milliseconds and is cached by callers (the
//! distributed simulator tunes once per process).

use crate::apply::{apply_gate, KernelConfig, OptLevel, Simd};
use crate::matrix::GateMatrix;
use crate::parallel::PAR_THRESHOLD;
use crate::sweep::PreparedGate;
use qsim_util::c64;
use qsim_util::flops::gate_flops;
use qsim_util::stats::{summarize, time_reps};
use qsim_util::Xoshiro256;

/// Autotuning result.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TunedParams {
    /// Largest profitable fused-kernel size (paper finds 4 on Edison, 4–5
    /// on KNL).
    pub kmax: u32,
    /// Scalar register-blocking width.
    pub block: usize,
    /// GFLOPS per kernel size k (index 0 ↔ k=1) on `threads` workers,
    /// operands spread evenly over the tuning register: measured through
    /// the parallel driver when the tuning state is large enough to engage
    /// it, otherwise one worker's measured rate times `threads`.
    pub gflops_by_k: [f64; 5],
}

/// Candidate block widths swept by the feedback loop.
pub const BLOCK_CANDIDATES: [usize; 4] = [1, 2, 4, 8];

/// Run the tuning loop on a 2^n_test state (n_test ∈ [10, 26] is sane;
/// benchmarks use 22+, tests use small values for speed).
pub fn autotune(n_test: u32, threads: usize) -> TunedParams {
    assert!(
        (8..=28).contains(&n_test),
        "unreasonable tuning size {n_test}"
    );
    let len = 1usize << n_test;
    let mut rng = Xoshiro256::seed_from_u64(0x7ae5);
    let mut state: Vec<c64> = (0..len)
        .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
        .collect();

    // Sweep block width on the k=4 scalar kernel (the size the paper
    // identifies as the workhorse).
    let m4 = random_dense(4);
    let q4: Vec<u32> = (0..4).collect();
    let mut best_block = BLOCK_CANDIDATES[0];
    let mut best_time = f64::INFINITY;
    for &b in &BLOCK_CANDIDATES {
        let cfg = KernelConfig {
            opt: OptLevel::Blocked,
            simd: Simd::Scalar,
            block: b,
            threads,
        };
        let t = summarize(&time_reps(1, 3, || {
            apply_gate(&mut state, &q4, &m4, &cfg);
        }))
        .median;
        if t < best_time {
            best_time = t;
            best_block = b;
        }
    }

    // Measure per-k GFLOPS with the production config and pick kmax by
    // effective throughput. Operands are spread over the register, not
    // packed onto the lowest positions: a cluster inside a cache tile
    // rarely sits on the lane bits, and the cost model prices schedules
    // from this ladder. The gate is prepared once, as the tiled executor
    // prepares it, and a short sweep is repeated so that the timer sees
    // the kernel.
    let cfg = KernelConfig {
        opt: OptLevel::Blocked,
        simd: Simd::Auto,
        block: best_block,
        threads,
    };
    let reps = (1usize << 16 >> n_test.min(16)).max(1);
    // Below the parallel drivers' threshold a sweep runs on one thread
    // whatever `threads` says. The tiled executor runs one such
    // cache-resident sweep per worker, so the ladder reports `threads`
    // times the measured rate — without starting a thread: a process that
    // only plans stays single-threaded (and keeps malloc's lock-free path).
    let workers = if len < PAR_THRESHOLD {
        threads.max(1)
    } else {
        1
    };
    let mut gflops_by_k = [0f64; 5];
    let mut best_k = 1u32;
    let mut best_score = 0f64;
    for k in 1..=5u32 {
        let qs: Vec<u32> = (0..k).map(|j| (j * n_test + n_test / 2) / k).collect();
        let gate = PreparedGate::new(&qs, &random_dense(k), &cfg);
        let t = summarize(&time_reps(1, 3, || {
            for _ in 0..reps {
                gate.apply_full(&mut state, threads);
            }
        }))
        .median
            / reps as f64;
        gflops_by_k[(k - 1) as usize] = workers as f64 * gate_flops(n_test, k) as f64 / t / 1e9;
        // Effective figure of merit: gates fused per sweep ~ k, so a
        // k-kernel is worth k single-gate sweeps.
        let score = k as f64 / t;
        if score > best_score {
            best_score = score;
            best_k = k;
        }
    }

    TunedParams {
        kmax: best_k,
        block: best_block,
        gflops_by_k,
    }
}

/// Memoized [`autotune`]: the measurement loop runs once per distinct
/// `(n_test, threads)` pair per process and later callers get the cached
/// result — `SingleNodeSimulator::autotuned` no longer re-tunes per
/// construction in benches and tests.
pub fn autotune_cached(n_test: u32, threads: usize) -> TunedParams {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<(u32, usize), TunedParams>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(p) = cache.lock().unwrap().get(&(n_test, threads)) {
        return *p;
    }
    // Tune outside the lock: concurrent first callers may race and tune
    // twice, but never deadlock or serialize later lookups.
    let p = autotune(n_test, threads);
    cache.lock().unwrap().insert((n_test, threads), p);
    p
}

/// Candidate tile sizes (log2 amplitudes) for the cache-tiled stage
/// executor — 2^12..2^16 amplitudes are 64 KiB..1 MiB, bracketing L2.
pub const TILE_CANDIDATES: [u32; 3] = [12, 14, 16];

/// Tune the tile size for the tiled stage executor with the same
/// measure-then-pick loop as [`autotune`]'s block sweep: run a surrogate
/// three-cluster tiled pass over a 2^18 state at each candidate size and
/// keep the fastest. Cached per process (the choice is a property of the
/// cache hierarchy, not of the circuit).
pub fn tune_tile_qubits() -> u32 {
    use std::sync::OnceLock;
    static CHOICE: OnceLock<u32> = OnceLock::new();
    *CHOICE.get_or_init(|| {
        let n = 18u32;
        let mut rng = Xoshiro256::seed_from_u64(0x711e);
        let mut state: Vec<c64> = (0..1usize << n)
            .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect();
        let cfg = KernelConfig {
            opt: OptLevel::Blocked,
            simd: Simd::Auto,
            block: 4,
            threads: 1,
        };
        let mut best = TILE_CANDIDATES[0];
        let mut best_time = f64::INFINITY;
        for &tq in &TILE_CANDIDATES {
            let tile: Vec<u32> = (0..tq).collect();
            let ops: Vec<crate::sweep::TileOp> = (0..3)
                .map(|i| {
                    let qs: Vec<u32> = (4 * i..4 * i + 4).collect();
                    crate::sweep::TileOp::Dense(crate::sweep::PreparedGate::new(
                        &qs,
                        &random_dense(4),
                        &cfg,
                    ))
                })
                .collect();
            let pass = crate::sweep::TiledPass::new(tile, ops);
            let mut stats = crate::sweep::SweepStats::default();
            let t = summarize(&time_reps(1, 3, || {
                pass.run(&mut state, 0, 1, &mut stats);
            }))
            .median;
            if t < best_time {
                best_time = t;
                best = tq;
            }
        }
        best
    })
}

/// Candidate pipeline depths (sub-chunks per peer segment) for the fused
/// global-swap engine.
pub const SUB_CHUNK_CANDIDATES: [usize; 4] = [1, 2, 4, 8];

/// A sub-chunk whose pack takes less time than this is dominated by
/// per-message overhead; the tuner never splits below it.
const SUB_CHUNK_FLOOR_SECONDS: f64 = 50e-6;

/// Tune the pipeline depth `S` for a fused global swap whose per-peer
/// segments hold `seg_len` amplitudes — the same measure-then-pick
/// feedback loop as [`autotune`], applied to the swap data path: the
/// permuted-gather (pack) bandwidth is measured on a surrogate buffer, and
/// the deepest candidate whose sub-chunk pack time still clears the
/// per-message overhead floor wins. Deeper pipelines overlap more packing
/// with other ranks' progress but pay one message per sub-chunk.
pub fn tune_swap_sub_chunks(seg_len: usize) -> usize {
    if seg_len < 2 {
        return 1;
    }
    // Measure on a power-of-two surrogate in [2^10, 2^18] so tuning stays
    // in the tens of milliseconds even for huge segments.
    let bits = seg_len.clamp(1 << 10, 1 << 18).ilog2();
    let len = 1usize << bits;
    let mut rng = Xoshiro256::seed_from_u64(0xc0f);
    let src: Vec<c64> = (0..len)
        .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
        .collect();
    let mut dst = vec![c64::zero(); len];
    let perm =
        qsim_util::bits::BitPermutation::new((0..bits).map(|i| (i + bits / 2) % bits).collect());
    let t = summarize(&time_reps(1, 3, || {
        crate::parallel::par_gather(&src, &mut dst, |i| perm.apply(i));
    }))
    .median;
    let seg_seconds = t / len as f64 * seg_len as f64;
    let mut best = 1usize;
    for &s in &SUB_CHUNK_CANDIDATES {
        if s <= seg_len && seg_seconds / s as f64 >= SUB_CHUNK_FLOOR_SECONDS {
            best = s;
        }
    }
    best
}

fn random_dense(k: u32) -> GateMatrix<f64> {
    let d = 1usize << k;
    let mut rng = Xoshiro256::seed_from_u64(0x51ed ^ k as u64);
    GateMatrix::from_rows(
        k,
        (0..d * d)
            .map(|_| c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_on_small_state_returns_sane_params() {
        let p = autotune(12, 1);
        assert!((1..=5).contains(&p.kmax), "kmax={}", p.kmax);
        assert!(BLOCK_CANDIDATES.contains(&p.block));
        for (i, &g) in p.gflops_by_k.iter().enumerate() {
            assert!(g > 0.0, "k={} has zero throughput", i + 1);
            assert!(g.is_finite());
        }
    }

    #[test]
    fn larger_kernels_do_more_flops_per_second_or_so() {
        // Weak sanity property: the k=4 kernel should not be an order of
        // magnitude slower in GFLOPS than k=1 (it does 9x the FLOPs for
        // roughly the same traffic).
        let p = autotune(14, 1);
        assert!(
            p.gflops_by_k[3] > p.gflops_by_k[0] * 0.8,
            "k=4 {} vs k=1 {}",
            p.gflops_by_k[3],
            p.gflops_by_k[0]
        );
    }

    #[test]
    #[should_panic(expected = "unreasonable tuning size")]
    fn rejects_huge_tuning_state() {
        let _ = autotune(40, 1);
    }

    #[test]
    fn cached_autotune_returns_identical_params() {
        let a = autotune_cached(10, 1);
        let b = autotune_cached(10, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn tile_tuning_picks_a_candidate() {
        let t = tune_tile_qubits();
        assert!(TILE_CANDIDATES.contains(&t), "tile {t} not a candidate");
        assert_eq!(t, tune_tile_qubits(), "choice must be stable");
    }

    #[test]
    fn sub_chunk_tuning_is_sane_and_monotone() {
        // Tiny segments must not be split; the chosen depth is always a
        // candidate and never exceeds the segment.
        assert_eq!(tune_swap_sub_chunks(1), 1);
        let small = tune_swap_sub_chunks(1 << 8);
        let large = tune_swap_sub_chunks(1 << 24);
        for s in [small, large] {
            assert!(
                SUB_CHUNK_CANDIDATES.contains(&s),
                "depth {s} not a candidate"
            );
        }
        assert!(
            small <= large,
            "bigger segments must not pick shallower pipelines ({small} > {large})"
        );
    }
}
