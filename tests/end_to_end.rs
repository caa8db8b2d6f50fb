//! Cross-crate integration: the four execution paths — dense reference,
//! single-node scheduled engine, distributed engine, per-gate baseline —
//! must produce identical physics on the paper's workload.

use qsim45::circuit::dense::simulate_dense;
use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::circuit::Circuit;
use qsim45::core::single::strip_initial_hadamards;
use qsim45::core::{
    Backend, BackendOutcome, BackendPlan, BackendStats, BaselineSimulator, DistBackend, DistConfig,
    DistSimulator, SingleNodeSimulator, SingleOutcome, StageExecutor,
};
use qsim45::kernels::apply::KernelConfig;
use qsim45::kernels::SweepStats;
use qsim45::sched::{plan, Schedule, SchedulerConfig};
use qsim45::util::c64;
use qsim45::util::complex::max_dist;

fn supremacy(rows: u32, cols: u32, depth: u32, seed: u64) -> Circuit {
    supremacy_circuit(&SupremacySpec {
        rows,
        cols,
        depth,
        seed,
    })
}

fn run_single(circuit: &Circuit) -> SingleOutcome {
    SingleNodeSimulator::default().try_run_t(circuit).unwrap()
}

/// A hand-planned schedule through the distributed engine's trait.
fn dist(cfg: DistConfig, exec: &Circuit, schedule: &Schedule, uniform: bool) -> BackendOutcome {
    let plan = BackendPlan::from_schedule(exec.clone(), schedule.clone(), uniform);
    DistBackend::new(DistSimulator::new(cfg))
        .run(&plan)
        .unwrap()
}

fn run_dist(circuit: &Circuit, ranks: usize, kmax: u32) -> Vec<c64> {
    let n = circuit.n_qubits();
    let l = n - ranks.trailing_zeros();
    let (exec, uniform) = strip_initial_hadamards(circuit);
    let schedule = plan(&exec, &SchedulerConfig::distributed(l, kmax));
    schedule.verify(&exec);
    let cfg = DistConfig {
        n_ranks: ranks,
        kernel: KernelConfig::sequential(),
        gather_state: true,
        ..Default::default()
    };
    dist(cfg, &exec, &schedule, uniform).state.unwrap()
}

fn run_baseline(circuit: &Circuit, ranks: usize) -> Vec<c64> {
    let mut sim = BaselineSimulator::new(ranks, KernelConfig::sequential());
    sim.gather_state = true;
    sim.run(circuit).state.unwrap()
}

#[test]
fn four_engines_agree_on_small_supremacy_circuit() {
    let c = supremacy(3, 3, 16, 42);
    let reference = simulate_dense::<f64>(&c);
    let single = run_single(&c);
    assert!(max_dist(single.state.amplitudes(), &reference) < 1e-10);
    for ranks in [2usize, 4] {
        let dist = run_dist(&c, ranks, 3);
        assert!(
            max_dist(&dist, &reference) < 1e-10,
            "distributed engine diverges at {ranks} ranks"
        );
        let base = run_baseline(&c, ranks);
        assert!(
            max_dist(&base, &reference) < 1e-10,
            "baseline engine diverges at {ranks} ranks"
        );
    }
}

#[test]
fn engines_agree_on_larger_circuit_without_dense_reference() {
    // 12 qubits is beyond comfortable dense-matrix territory; the
    // single-node engine (itself validated against the dense reference
    // at 9–10 qubits) becomes the baseline.
    let c = supremacy(3, 4, 25, 7);
    let single = run_single(&c);
    for ranks in [2usize, 8] {
        let dist = run_dist(&c, ranks, 4);
        assert!(
            max_dist(&dist, single.state.amplitudes()) < 1e-9,
            "ranks={ranks}"
        );
    }
    let base = run_baseline(&c, 4);
    assert!(max_dist(&base, single.state.amplitudes()) < 1e-9);
}

#[test]
fn all_kmax_values_and_rank_counts_preserve_entropy() {
    let c = supremacy(4, 3, 20, 11);
    let reference = run_single(&c).state.entropy();
    for kmax in [2u32, 4, 5] {
        for ranks in [2usize, 4] {
            let n = c.n_qubits();
            let l = n - ranks.trailing_zeros();
            let (exec, uniform) = strip_initial_hadamards(&c);
            let schedule = plan(&exec, &SchedulerConfig::distributed(l, kmax));
            let cfg = DistConfig {
                n_ranks: ranks,
                kernel: KernelConfig::sequential(),
                gather_state: false,
                ..Default::default()
            };
            let out = dist(cfg, &exec, &schedule, uniform);
            assert!(
                (out.entropy - reference).abs() < 1e-8,
                "kmax={kmax} ranks={ranks}: {} vs {reference}",
                out.entropy
            );
            assert!((out.norm - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn scheduler_ablations_do_not_change_physics() {
    let c = supremacy(3, 3, 20, 3);
    let reference = simulate_dense::<f64>(&c);
    let (exec, uniform) = strip_initial_hadamards(&c);
    let configs = [
        SchedulerConfig::distributed(7, 3),
        SchedulerConfig::naive(7, 3),
        {
            let mut cfg = SchedulerConfig::distributed(7, 3);
            cfg.specialize_diagonal = false;
            cfg
        },
        {
            let mut cfg = SchedulerConfig::distributed(7, 3);
            cfg.adjust_swaps = false;
            cfg.worst_case_dense = false;
            cfg
        },
    ];
    for (i, cfg) in configs.iter().enumerate() {
        let schedule = plan(&exec, cfg);
        schedule.verify(&exec);
        let cfg = DistConfig {
            n_ranks: 4,
            kernel: KernelConfig::sequential(),
            gather_state: true,
            ..Default::default()
        };
        let out = dist(cfg, &exec, &schedule, uniform);
        let state = out.state.unwrap();
        assert!(
            max_dist(&state, &reference) < 1e-10,
            "ablation config {i} changed the physics"
        );
    }
}

#[test]
fn f32_distributed_run_tracks_f64() {
    // §5: single precision doubles the reachable qubit count. The f32
    // path runs through the same scheduler; amplitudes agree to ~1e-4.
    let c = supremacy(3, 3, 12, 19);
    let single64 = run_single(&c);
    let state32: qsim45::core::StateVector<f32> = single64.state.convert();
    // Direct f32 execution of the same schedule.
    let (exec, _uniform) = strip_initial_hadamards(&c);
    let schedule = plan(&exec, &SchedulerConfig::single_node(9, 4));
    let mut s32 = qsim45::core::StateVector::<f32>::uniform(9);
    StageExecutor::per_gate(&schedule.stages, 9, &KernelConfig::sequential()).apply(
        0..schedule.stages.len(),
        s32.amplitudes_mut(),
        0,
        &mut SweepStats::default(),
    );
    for (a, b) in s32.amplitudes().iter().zip(state32.amplitudes()) {
        assert!((a.re - b.re).abs() < 1e-4 && (a.im - b.im).abs() < 1e-4);
    }
}

#[test]
fn distributed_with_parallel_kernels_inside_ranks() {
    // Rank threads and rayon kernel workers must compose: run with the
    // default (parallel, SIMD) kernel config inside every rank.
    let c = supremacy(3, 4, 20, 21);
    let single = run_single(&c);
    let (exec, uniform) = strip_initial_hadamards(&c);
    let n = c.n_qubits();
    let ranks = 4usize;
    let schedule = plan(&exec, &SchedulerConfig::distributed(n - 2, 4));
    let cfg = DistConfig {
        n_ranks: ranks,
        kernel: KernelConfig::default(),
        gather_state: true,
        ..Default::default()
    };
    let out = dist(cfg, &exec, &schedule, uniform);
    let state = out.state.unwrap();
    assert!(max_dist(&state, single.state.amplitudes()) < 1e-9);
}

#[test]
fn comm_bytes_scale_with_swap_count() {
    let c = supremacy(3, 4, 25, 0);
    let n = c.n_qubits();
    let ranks = 4usize;
    let l = n - 2;
    let (exec, uniform) = strip_initial_hadamards(&c);
    let schedule = plan(&exec, &SchedulerConfig::distributed(l, 4));
    let cfg = DistConfig {
        n_ranks: ranks,
        kernel: KernelConfig::sequential(),
        gather_state: false,
        ..Default::default()
    };
    let out = dist(cfg, &exec, &schedule, uniform);
    // Each swap: every rank ships (ranks-1)/ranks of 2^l amplitudes.
    let per_swap = (ranks as u64) * (1u64 << l) * 16 * (ranks as u64 - 1) / ranks as u64;
    let expected = per_swap * schedule.n_swaps() as u64;
    // Reductions add a handful of 8-byte messages.
    let slack = 1024;
    let BackendStats::Dist { fabric, .. } = &out.stats else {
        panic!("dist stats expected");
    };
    assert!(
        fabric.total_bytes_sent >= expected && fabric.total_bytes_sent <= expected + slack,
        "bytes {} vs expected {expected}",
        fabric.total_bytes_sent
    );
}
