//! Schedule search end-to-end: a searched plan is just another valid
//! schedule — every engine must execute it to the same physics as the
//! greedy plan, the modeled cost must be monotone (search never returns
//! a plan it models worse than greedy), and searching twice must return
//! the same plan.

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::circuit::Circuit;
use qsim45::core::checkpoint::schedule_fingerprint;
use qsim45::core::single::{strip_initial_hadamards, SingleNodeSimulator};
use qsim45::core::{
    plan_schedule, Backend, BackendPlan, DistBackend, DistConfig, DistSimulator, PlanOptions,
    ScheduleMode,
};
use qsim45::kernels::apply::KernelConfig;
use qsim45::ooc::{OocConfig, OocSimulator};
use qsim45::sched::{plan, SchedulerConfig};
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

fn search_opts() -> PlanOptions {
    PlanOptions {
        mode: ScheduleMode::Search,
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
        let planned = plan_schedule(&exec, &base, &search_opts());
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
        let planned = plan_schedule(&exec, &base, &search_opts());
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
fn repeated_search_returns_the_same_plan() {
    // Nothing is kept between runs, so a rerun replans: the search must
    // be a pure function of its inputs.
    let c = workload(9);
    let n = c.n_qubits();
    let (exec, _) = strip_initial_hadamards(&c);
    let base = SchedulerConfig::distributed(n - 2, 4);

    let first = plan_schedule(&exec, &base, &search_opts());
    assert!(first.candidates > 1, "must actually search");
    let second = plan_schedule(&exec, &base, &search_opts());
    assert_eq!(second.candidates, first.candidates);
    assert_eq!(
        schedule_fingerprint(&second.schedule),
        schedule_fingerprint(&first.schedule)
    );
}
