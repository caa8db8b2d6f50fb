//! Property-based tests (proptest) on the core invariants:
//! random circuits through every engine, random bit permutations, random
//! cluster fusions — all must preserve unitarity/norm and agree with the
//! dense reference.

mod common;

use common::random_circuit;
use proptest::prelude::*;
use qsim45::circuit::dense::simulate_dense;
use qsim45::circuit::Circuit;
use qsim45::core::single::strip_initial_hadamards;
use qsim45::core::{
    Backend, BackendOutcome, BackendPlan, DistBackend, DistConfig, DistSimulator,
    SingleNodeSimulator, SingleOutcome,
};
use qsim45::kernels::apply::KernelConfig;
use qsim45::kernels::SweepDispatch;
use qsim45::sched::Schedule;
use qsim45::sched::{plan, SchedulerConfig};
use qsim45::util::bits::BitPermutation;
use qsim45::util::complex::max_dist;
use qsim45::util::Xoshiro256;

fn run_single(c: &Circuit) -> SingleOutcome {
    SingleNodeSimulator::default().try_run_t(c).unwrap()
}

/// A hand-planned schedule on four sequential-kernel ranks, gathered.
fn run_dist4<R: SweepDispatch>(
    exec: &Circuit,
    schedule: &Schedule,
    uniform: bool,
) -> BackendOutcome<R> {
    let plan = BackendPlan::from_schedule(exec.clone(), schedule.clone(), uniform);
    DistBackend::new(DistSimulator::new(DistConfig {
        n_ranks: 4,
        kernel: KernelConfig::sequential(),
        gather_state: true,
        ..Default::default()
    }))
    .run(&plan)
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn single_node_matches_dense_on_random_circuits(n_gates in 1usize..40, seed in 0u64..100_000) {
        let c = random_circuit(6, n_gates, seed);
        let reference = simulate_dense::<f64>(&c);
        let out = run_single(&c);
        prop_assert!(max_dist(out.state.amplitudes(), &reference) < 1e-9);
    }

    #[test]
    fn distributed_matches_dense_on_random_circuits(n_gates in 1usize..30, seed in 0u64..100_000) {
        let c = random_circuit(6, n_gates, seed);
        let reference = simulate_dense::<f64>(&c);
        let (exec, uniform) = strip_initial_hadamards(&c);
        let schedule = plan(&exec, &SchedulerConfig::distributed(4, 3));
        schedule.verify(&exec);
        let state = run_dist4::<f64>(&exec, &schedule, uniform).state.unwrap();
        prop_assert!(max_dist(&state, &reference) < 1e-9,
            "distance {}", max_dist(&state, &reference));
    }

    #[test]
    fn f32_tracks_f64_within_depth_scaled_bound(n_gates in 1usize..40, seed in 0u64..100_000) {
        let c = random_circuit(6, n_gates, seed);
        let f64_out = run_single(&c);
        let f32_out = SingleNodeSimulator::default().try_run_t::<f32>(&c).unwrap();
        let norm = f32_out.state.norm_sqr() as f64;
        prop_assert!((norm - 1.0).abs() < 1e-4, "f32 norm {}", norm);
        // Both tiers execute the identical compiled passes, and
        // Complex<f32> is exactly half the bytes of Complex<f64>: the
        // f32 run streams exactly half the bytes.
        prop_assert_eq!(f32_out.sweep.sweep_passes, f64_out.sweep.sweep_passes);
        prop_assert_eq!(2 * f32_out.sweep.bytes_streamed, f64_out.sweep.bytes_streamed);
        // Rounding error grows with circuit depth; a unitary circuit
        // accumulates O(eps) per gate, so budget eps-per-gate with
        // headroom rather than a flat tolerance.
        let bound = 2e-6 * (c.len() as f64 + 1.0);
        let mut worst = 0.0f64;
        for (a, b) in f64_out.state.amplitudes().iter().zip(f32_out.state.amplitudes()) {
            worst = worst
                .max((a.re - b.re as f64).abs())
                .max((a.im - b.im as f64).abs());
        }
        prop_assert!(worst < bound, "f32 drift {:e} exceeds {:e} at {} gates",
            worst, bound, c.len());
    }

    #[test]
    fn f32_distributed_matches_f32_single_node(n_gates in 1usize..30, seed in 0u64..100_000) {
        let c = random_circuit(6, n_gates, seed);
        let single = SingleNodeSimulator {
            kernel: KernelConfig::sequential(),
            ..Default::default()
        }.try_run_t::<f32>(&c).unwrap();
        let (exec, uniform) = strip_initial_hadamards(&c);
        let schedule = plan(&exec, &SchedulerConfig::distributed(4, 3));
        let state = run_dist4::<f32>(&exec, &schedule, uniform).state.unwrap();
        let mut worst = 0.0f64;
        for (a, b) in single.state.amplitudes().iter().zip(&state) {
            worst = worst
                .max((a.re as f64 - b.re as f64).abs())
                .max((a.im as f64 - b.im as f64).abs());
        }
        prop_assert!(worst < 2e-6 * (c.len() as f64 + 1.0), "drift {:e}", worst);
    }

    #[test]
    fn norm_preserved_under_random_circuits(n_gates in 1usize..60, seed in 0u64..100_000) {
        let c = random_circuit(8, n_gates, seed);
        let out = run_single(&c);
        let norm = out.state.norm_sqr();
        prop_assert!((norm - 1.0).abs() < 1e-8, "norm {norm}");
    }

    #[test]
    fn schedule_covers_every_gate_exactly_once(
        n_gates in 1usize..50,
        seed in 0u64..100_000,
        l in 4u32..7,
        kmax in 2u32..5,
    ) {
        let c = random_circuit(7, n_gates, seed);
        let schedule = plan(&c, &SchedulerConfig::distributed(l, kmax));
        schedule.verify(&c); // panics on violation
        let mut seen = vec![false; c.len()];
        for stage in &schedule.stages {
            for op in &stage.ops {
                for &gi in op.gate_indices() {
                    prop_assert!(!seen[gi]);
                    seen[gi] = true;
                }
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn bit_permutations_compose_and_invert(
        map in prop::sample::subsequence((0..8u32).collect::<Vec<_>>(), 8)
            .prop_shuffle()
    ) {
        let p = BitPermutation::new(map);
        let inv = p.inverse();
        for i in 0..256usize {
            prop_assert_eq!(inv.apply(p.apply(i)), i);
        }
        prop_assert!(p.then(&inv).is_identity());
        // Transposition decomposition reconstructs the permutation.
        let mut q = BitPermutation::identity(8);
        for (a, b) in p.transpositions() {
            q = q.then(&BitPermutation::transposition(8, a, b));
        }
        for i in 0..256usize {
            prop_assert_eq!(q.apply(i), p.apply(i));
        }
    }

    /// The table form of `apply` equals the bit-loop definition, splits
    /// at the low byte as block copies read it, inverts through `inverse`
    /// and composes through `then`, on random permutations at widths
    /// around and across the byte boundaries.
    #[test]
    fn bit_permutation_tables_match_the_bit_loop(seed in 0u64..1_000_000) {
        let bit_loop = |map: &[u32], idx: usize| {
            let mut out = 0usize;
            for (i, &j) in map.iter().enumerate() {
                out |= ((idx >> i) & 1) << j;
            }
            out
        };
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for n in [0usize, 1, 7, 8, 9, 16, 17, 20, 24, 30] {
            let mut map: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut map);
            let mut other = map.clone();
            rng.shuffle(&mut other);
            let (p, q) = (BitPermutation::new(map.clone()), BitPermutation::new(other));
            let (inv, pq) = (p.inverse(), p.then(&q));
            let mask = (1usize << n) - 1;
            for _ in 0..64 {
                // Bits at or above n are dropped by both forms.
                let wide = rng.next_u64() as usize;
                prop_assert_eq!(p.apply(wide), bit_loop(&map, wide), "n = {}", n);
                let x = wide & mask;
                let lo = p.low_byte_table()[x & 0xff];
                prop_assert_eq!(p.apply(x & !0xff) | lo, p.apply(x), "n = {}", n);
                prop_assert_eq!(inv.apply(p.apply(x)), x, "n = {}", n);
                prop_assert_eq!(pq.apply(x), q.apply(p.apply(x)), "n = {}", n);
            }
        }
    }

    #[test]
    fn fused_cluster_matrices_stay_unitary(n_gates in 1usize..50, seed in 0u64..100_000) {
        let c = random_circuit(6, n_gates, seed);
        let schedule = plan(&c, &SchedulerConfig::single_node(6, 4));
        for stage in &schedule.stages {
            for op in &stage.ops {
                if let qsim45::sched::StageOp::Cluster(cl) = op {
                    prop_assert!(cl.matrix.unitarity_residual() < 1e-8);
                }
            }
        }
    }

    #[test]
    fn baseline_and_scheduled_agree_on_entropy(n_gates in 1usize..30, seed in 0u64..100_000) {
        let c = random_circuit(6, n_gates, seed);
        let single = run_single(&c);
        let mut base = qsim45::core::BaselineSimulator::new(
            1,
            KernelConfig::sequential(),
        );
        base.gather_state = false;
        let out = base.run(&c);
        prop_assert!((out.entropy - single.state.entropy()).abs() < 1e-8);
    }
}
