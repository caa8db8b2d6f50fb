//! Schedule search end-to-end: a searched plan is just another valid
//! schedule — every engine must execute it to the same physics as the
//! greedy plan, the modeled cost must be monotone (search never returns
//! a plan it models worse than greedy), and the fingerprint-keyed cache
//! in front of the search must round-trip plans faithfully and reject
//! corrupted artifacts instead of loading them.

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::circuit::Circuit;
use qsim45::core::single::{strip_initial_hadamards, SingleNodeSimulator};
use qsim45::core::{
    plan_schedule, Backend, BackendPlan, DistBackend, DistConfig, DistSimulator, PlanOptions,
    ScheduleMode,
};
use qsim45::kernels::apply::KernelConfig;
use qsim45::ooc::{OocConfig, OocSimulator, ScratchDir};
use qsim45::sched::{plan, SchedulerConfig};
use qsim45::telemetry::Telemetry;
use qsim45::util::c64;
use qsim45::util::complex::max_dist;

fn workload(seed: u64) -> Circuit {
    supremacy_circuit(&SupremacySpec {
        rows: 3,
        cols: 4,
        depth: 20,
        seed,
    })
}

fn search_opts(budget: usize) -> PlanOptions {
    PlanOptions {
        mode: ScheduleMode::Search,
        search_budget: budget,
        ..PlanOptions::default()
    }
}

/// Gathered final state of `plan` on sequential-kernel ranks.
fn dist_state(n_ranks: usize, plan: &BackendPlan) -> Vec<c64> {
    let mut dist = DistBackend::new(DistSimulator::new(DistConfig {
        n_ranks,
        kernel: KernelConfig::sequential(),
        gather_state: true,
        ..Default::default()
    }));
    dist.run(plan).unwrap().state.unwrap()
}

#[test]
fn searched_schedule_is_bit_exact_across_engines() {
    // The backend-equivalence property of tests/backends.rs, under a
    // searched plan: dist and OOC execute the identical schedule, so
    // they must agree bit for bit; the single-node engine plans its own
    // schedule and agrees to f64 tolerance.
    let c = workload(77);
    let n = c.n_qubits();
    let single = SingleNodeSimulator::default().try_run_t(&c).unwrap();
    let (exec, uniform) = strip_initial_hadamards(&c);
    for g in [2u32, 3] {
        let base = SchedulerConfig::distributed(n - g, 4);
        let planned = plan_schedule(&exec, &base, &search_opts(16));
        planned.schedule.verify(&exec);

        let plan = BackendPlan::from_schedule(exec.clone(), planned.schedule, uniform);
        let dist_state = dist_state(1usize << g, &plan);
        let ooc_state = OocSimulator::<f64>::new(OocConfig::sequential())
            .run_plan(&plan, true, None)
            .unwrap()
            .state
            .unwrap();

        assert_eq!(
            max_dist(&ooc_state, &dist_state),
            0.0,
            "ooc vs dist must be bit-exact on a searched plan, g={g}"
        );
        assert!(
            max_dist(&dist_state, single.state.amplitudes()) < 1e-9,
            "searched plan diverged from single-node physics, g={g}"
        );
    }
}

#[test]
fn search_is_cost_monotone_across_geometries() {
    // Whatever the search explores, what it returns never models worse
    // than greedy, never schedules more swaps, and always verifies.
    for (seed, g, kmax) in [(1u64, 2u32, 4u32), (2, 3, 4), (3, 2, 3), (5, 4, 4)] {
        let c = workload(seed);
        let n = c.n_qubits();
        let (exec, _) = strip_initial_hadamards(&c);
        let base = SchedulerConfig::distributed(n - g, kmax);
        let greedy = plan(&exec, &base);
        let planned = plan_schedule(&exec, &base, &search_opts(12));
        planned.schedule.verify(&exec);
        assert!(
            planned.best_cost <= planned.greedy_cost,
            "seed {seed}: searched plan modeled above greedy"
        );
        assert!(planned.schedule.n_swaps() <= greedy.n_swaps());
        if planned.adopted {
            assert!(planned.best_cost < planned.greedy_cost);
        } else {
            assert_eq!(planned.schedule.n_swaps(), greedy.n_swaps());
        }
    }
}

#[test]
fn schedule_cache_round_trips_and_skips_search() {
    let c = workload(9);
    let n = c.n_qubits();
    let (exec, uniform) = strip_initial_hadamards(&c);
    let base = SchedulerConfig::distributed(n - 2, 4);
    let dir = ScratchDir::new("sched_cache_roundtrip");

    let telemetry = Telemetry::enabled();
    let opts = |t: &Telemetry| PlanOptions {
        mode: ScheduleMode::Search,
        cache_dir: Some(dir.path().to_path_buf()),
        search_budget: 12,
        telemetry: t.clone(),
        ..PlanOptions::default()
    };
    let cold = plan_schedule(&exec, &base, &opts(&Telemetry::disabled()));
    assert!(!cold.cache_hit);
    assert!(cold.candidates > 1, "cold run must actually search");

    let warm = plan_schedule(&exec, &base, &opts(&telemetry));
    assert!(warm.cache_hit, "second run must hit the cache");
    assert_eq!(warm.candidates, 1, "a hit spends no search budget");
    assert_eq!(
        warm.schedule.n_swaps(),
        cold.schedule.n_swaps(),
        "cached schedule differs from the one stored"
    );
    assert!(
        warm.tile_qubits.is_some(),
        "a hit must return the stored tile budget so autotune is skipped"
    );
    assert!(warm.plan_seconds <= cold.plan_seconds);
    let metrics = telemetry.metrics_json();
    assert!(metrics.contains("sched.cache_hit"));

    // The cached plan executes to the same physics as the cold one.
    let a = dist_state(
        4,
        &BackendPlan::from_schedule(exec.clone(), cold.schedule, uniform),
    );
    let b = dist_state(4, &BackendPlan::from_schedule(exec, warm.schedule, uniform));
    assert_eq!(max_dist(&a, &b), 0.0);
}

#[test]
fn corrupted_cache_artifacts_are_rejected_not_loaded() {
    let c = workload(13);
    let n = c.n_qubits();
    let (exec, _) = strip_initial_hadamards(&c);
    let base = SchedulerConfig::distributed(n - 2, 4);
    let dir = ScratchDir::new("sched_cache_corrupt");
    let opts = PlanOptions {
        mode: ScheduleMode::Search,
        cache_dir: Some(dir.path().to_path_buf()),
        search_budget: 12,
        ..PlanOptions::default()
    };
    let cold = plan_schedule(&exec, &base, &opts);
    assert!(!cold.cache_hit);

    // Flip one payload byte in every stored artifact.
    let mut flipped = 0;
    for entry in std::fs::read_dir(dir.path()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("bin") {
            continue;
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        flipped += 1;
    }
    assert!(flipped > 0, "cold run must have stored an artifact");

    // The corrupted artifact must be a silent miss: the planner searches
    // again and lands on the same deterministic schedule.
    let replan = plan_schedule(&exec, &base, &opts);
    assert!(!replan.cache_hit, "corrupted artifact was served as a hit");
    assert!(replan.candidates > 1, "corrupt miss must re-search");
    assert_eq!(replan.schedule.n_swaps(), cold.schedule.n_swaps());

    // And the re-store repaired the artifact: next run hits again.
    let repaired = plan_schedule(&exec, &base, &opts);
    assert!(repaired.cache_hit);
}
