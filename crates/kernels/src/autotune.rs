//! Start-up kernel measurement — what is left of the paper's "automatic
//! code-generation / benchmarking feedback loop" (§3.2) in a compiled
//! library.
//!
//! The paper generates kernel variants offline and benchmarks them to pick
//! a block size and the largest profitable kernel size. Here nothing is
//! picked by stopwatch: the kernel shape and vector width follow from
//! CPUID ([`crate::lane`]), the tile size is a constant
//! ([`tune_tile_qubits`]) and `kmax` is the caller's. What the loop still
//! measures is the per-k GFLOPS ladder of the production kernels, the one
//! input of the planner's cost model (`qsim_core::planner`).
//!
//! Measuring takes a few milliseconds and is cached per process
//! ([`autotune_cached`]).

use crate::apply::KernelConfig;
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
    /// GFLOPS per kernel size k (index 0 ↔ k=1) on `threads` workers,
    /// operands spread evenly over the tuning register: measured through
    /// the parallel driver when the tuning state is large enough to engage
    /// it, otherwise one worker's measured rate times `threads`.
    pub gflops_by_k: [f64; 5],
}

/// Measure the ladder on a 2^n_test state (n_test ∈ [10, 26] is sane;
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

    // Per-k GFLOPS with the production config. Operands are spread over
    // the register, not packed onto the lowest positions: a cluster
    // inside a cache tile rarely sits on the lane bits, and the cost
    // model prices schedules from this ladder. The gate is prepared once,
    // as the tiled executor prepares it, and a short sweep is repeated so
    // that the timer sees the kernel.
    let cfg = KernelConfig {
        threads,
        ..KernelConfig::default()
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
    }

    TunedParams { gflops_by_k }
}

/// Memoized [`autotune`]: the measurement loop runs once per distinct
/// `(n_test, threads)` pair per process and later callers get the cached
/// result.
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

/// Tile budget (log2 amplitudes) of the cache-tiled stage executor:
/// 2^14 amplitudes are 256 KiB at f64, an L2-resident tile. A constant,
/// not a measurement, so the pass count of a run is a function of its
/// inputs alone; `qsim_core::exec` asserts it equals
/// `qsim_sched::sweep::DEFAULT_TILE_QUBITS`, the size the planner's pass
/// model prices schedules under.
pub const fn tune_tile_qubits() -> u32 {
    14
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
}
