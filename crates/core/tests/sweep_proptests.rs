//! Property-based equivalence of the cache-tiled stage executor against
//! the per-gate oracle.
//!
//! The single-node engine's run through [`Backend`] (the shared
//! [`StageExecutor`] in compiled mode) must be *bitwise* identical to the
//! same executor's per-gate mode over the same plan: same op order, same packed-matrix kernels over the same 2^k-amplitude groups,
//! same specialized diagonal branches — tiling only regroups independent
//! block counters. So every comparison here asserts `max_dist == 0.0`,
//! not a tolerance, across random circuits, cluster sizes, tile budgets,
//! thread counts and SIMD selections.

use proptest::prelude::*;
use qsim_core::dist::physical_to_logical;
use qsim_core::{Backend, SingleBackend, SingleNodeSimulator, StageExecutor, StateVector};
use qsim_kernels::apply::{KernelConfig, Simd};
use qsim_kernels::SweepStats;
use qsim_util::complex::max_dist;
use qsim_util::Xoshiro256;

/// A random circuit mixing dense (H, √X, √Y, CNOT) and diagonal
/// (T, Z, CZ) gates — enough variety to exercise dense clusters,
/// diagonal fusion, and diagonal-cluster detection.
fn random_circuit(n: u32, n_gates: usize, seed: u64) -> qsim_circuit::Circuit {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut c = qsim_circuit::Circuit::new(n);
    for _ in 0..n_gates {
        let q = (rng.next_u64() % n as u64) as u32;
        let mut q2 = (rng.next_u64() % n as u64) as u32;
        if q2 == q {
            q2 = (q + 1) % n;
        }
        match rng.next_u64() % 8 {
            0 => c.h(q),
            1 => c.t(q),
            2 => c.sqrt_x(q),
            3 => c.sqrt_y(q),
            4 => c.z(q),
            5 => c.cz(q, q2),
            6 => c.cnot(q, q2),
            _ => c.x(q),
        };
    }
    c
}

/// Run the engine and the per-gate oracle on the same plan and start
/// state; the tiled result must be bit-identical.
fn assert_sweep_bit_exact(
    n: u32,
    n_gates: usize,
    seed: u64,
    kmax: u32,
    tile: u32,
    threads: usize,
    simd: Simd,
) {
    let c = random_circuit(n, n_gates, seed);
    let cfg = KernelConfig { simd, threads };
    let mut engine = SingleBackend::new(SingleNodeSimulator {
        kernel: cfg,
        kmax,
        tile_qubits: Some(tile),
        ..Default::default()
    });
    Backend::<f64>::gather_state(&mut engine, true);
    let plan = Backend::<f64>::plan(&engine, &c).unwrap();
    let schedule = &plan.schedule;
    schedule.verify(&plan.exec);
    let out = Backend::<f64>::run(&mut engine, &plan).unwrap();

    let mut oracle = if plan.init_uniform {
        StateVector::<f64>::uniform(n)
    } else {
        StateVector::<f64>::zero(n)
    };
    StageExecutor::per_gate(&schedule.stages, n, &cfg).apply(
        0..schedule.stages.len(),
        oracle.amplitudes_mut(),
        0,
        &mut SweepStats::default(),
    );
    let oracle = physical_to_logical(oracle.amplitudes(), schedule.final_mapping());
    assert_eq!(
        max_dist(&out.state.unwrap(), &oracle),
        0.0,
        "n={n} seed={seed} kmax={kmax} tile={tile} threads={threads} simd={simd:?}"
    );
    let stats = out.stats.sweep();
    assert_eq!(
        stats.baseline_passes as usize,
        schedule.stages.iter().map(|s| s.ops.len()).sum::<usize>(),
        "baseline pass accounting must match the op count"
    );
    assert!(stats.sweep_passes <= stats.baseline_passes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits, cluster budgets and tile sizes: bit-exact.
    #[test]
    fn tiled_executor_matches_per_gate_oracle(
        n in 4u32..=8,
        n_gates in 8usize..=60,
        seed in 0u64..10_000,
        kmax in 2u32..=6,
        tile in 2u32..=12,
        par in 0u8..2,
    ) {
        let threads = if par == 1 { 4 } else { 1 };
        assert_sweep_bit_exact(n, n_gates, seed, kmax, tile, threads, Simd::Scalar);
    }

    /// Both widths of the block-lane kernel (256-bit, and the widest the
    /// host has) stay bit-exact too: both executors share one dispatch
    /// decision.
    #[test]
    fn tiled_executor_matches_oracle_with_simd(
        n in 5u32..=8,
        n_gates in 10usize..=40,
        seed in 0u64..10_000,
        tile in 3u32..=10,
        widest in 0u8..2,
    ) {
        let simd = if widest == 1 { Simd::Auto } else { Simd::Avx2 };
        assert_sweep_bit_exact(n, n_gates, seed, 4, tile, 1, simd);
    }
}

/// The parallel drivers engage at `PAR_THRESHOLD` (2^14 amplitudes):
/// check bit-exactness just below, at, and above the seam with multiple
/// threads, where tile chunking and rayon splits actually differ.
#[test]
fn par_threshold_boundary_is_bit_exact() {
    for n in [13u32, 14, 15] {
        for simd in [Simd::Avx2, Simd::Auto] {
            assert_sweep_bit_exact(n, 80, 0xB0DA + n as u64, 4, 10, 4, simd);
        }
    }
}
