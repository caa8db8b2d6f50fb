//! The engines' planning entry point: greedy or cost-guided search.
//!
//! All three engines (and the CLI) plan through [`plan_schedule`] so the
//! schedule policy is decided in exactly one place:
//!
//! 1. **Greedy** — the paper's one-shot heuristics
//!    ([`qsim_sched::plan`]); cheap, deterministic, always the floor.
//! 2. **Search** — [`qsim_sched::search_plan`] scored by the
//!    [`process_cost_model`], a table of constants. Redone per run:
//!    planning is pure precomputation (§3.6), and the same circuit on
//!    the same host class plans the same schedule in every process.
//!
//! Planning is also the one phase PR 4 left untimed — [`plan_schedule`]
//! records a `sched.plan_ns` histogram plus a `sched.search_candidates`
//! counter into the run's metrics registry.

use qsim_circuit::Circuit;
use qsim_kernels::Simd;
use qsim_sched::{plan, search_plan, CostModel, Schedule, SchedulerConfig, SearchConfig};
use qsim_telemetry::{RunState, Telemetry};
use std::sync::OnceLock;
use std::time::Instant;

/// How the schedule is produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// The paper's greedy heuristics only.
    #[default]
    Greedy,
    /// Cost-model-guided search on top of greedy (greedy stays the
    /// floor: search never adopts a modeled-costlier plan).
    Search,
}

impl ScheduleMode {
    /// Parse a CLI value (`"greedy"` / `"search"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "greedy" => Some(ScheduleMode::Greedy),
            "search" => Some(ScheduleMode::Search),
            _ => None,
        }
    }
}

/// Policy knobs for [`plan_schedule`]. A backend carries one of these;
/// `amp_bytes` and `telemetry` are properties of the run, so the engines
/// fill them at plan time from the precision tier and their own
/// telemetry handle.
#[derive(Clone, Debug)]
pub struct PlanOptions {
    pub mode: ScheduleMode,
    /// Bytes per amplitude of the target precision (16 f64, 8 f32).
    pub amp_bytes: u64,
    pub telemetry: Telemetry,
}

impl Default for PlanOptions {
    fn default() -> Self {
        Self {
            mode: ScheduleMode::Greedy,
            amp_bytes: 16,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// What planning produced, with enough provenance for reports and tests.
#[derive(Clone, Debug)]
pub struct PlannedSchedule {
    pub schedule: Schedule,
    /// A searched plan beat greedy (false for greedy mode and for
    /// searches that failed to improve).
    pub adopted: bool,
    /// `plan()` evaluations spent (1 for pure greedy).
    pub candidates: usize,
    /// Modeled seconds of the greedy baseline / returned plan.
    pub greedy_cost: f64,
    pub best_cost: f64,
    /// Wall-clock seconds spent planning (search included).
    pub plan_seconds: f64,
}

/// The cost model of this process's host: [`CostModel::host`] at the
/// vector width the kernels run at (CPUID) and the worker count
/// (`available_parallelism`). Nothing is measured, so every process on
/// the same host class prices a schedule to the same bits.
pub fn process_cost_model() -> &'static CostModel {
    static MODEL: OnceLock<CostModel> = OnceLock::new();
    MODEL.get_or_init(|| CostModel::host(qsim_kernels::vector_bits(Simd::Auto), host_threads()))
}

fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Plan `circuit` under `base` according to `opts`. See the module docs
/// for the policy; the returned schedule always `verify`s against
/// `circuit` (greedy by construction, searched plans are verified before
/// adoption).
pub fn plan_schedule(
    circuit: &Circuit,
    base: &SchedulerConfig,
    opts: &PlanOptions,
) -> PlannedSchedule {
    let t0 = Instant::now();
    if let Some(p) = opts.telemetry.progress() {
        p.set_state(RunState::Planning);
    }
    let track = opts.telemetry.track("sched");
    let planned = {
        let _span = track.span("plan");
        plan_inner(circuit, base, opts, t0)
    };
    if let Some(m) = opts.telemetry.metrics() {
        m.record_hist("sched.plan_ns", (planned.plan_seconds * 1e9) as u64);
        m.gauge_set("sched.plan_seconds", planned.plan_seconds);
        m.counter_add("sched.search_candidates", planned.candidates as u64);
    }
    planned
}

fn plan_inner(
    circuit: &Circuit,
    base: &SchedulerConfig,
    opts: &PlanOptions,
    t0: Instant,
) -> PlannedSchedule {
    if opts.mode == ScheduleMode::Greedy {
        return PlannedSchedule {
            schedule: plan(circuit, base),
            adopted: false,
            candidates: 1,
            greedy_cost: 0.0,
            best_cost: 0.0,
            plan_seconds: t0.elapsed().as_secs_f64(),
        };
    }

    let search_cfg = SearchConfig {
        amp_bytes: opts.amp_bytes,
        // The single-node engine reads the final state in physical
        // order without translating through the schedule's mapping, so
        // the relabeling axis is only sound when globals exist and every
        // consumer translates via final_mapping.
        permute_labels: base.local_qubits < circuit.n_qubits(),
    };
    let outcome = search_plan(circuit, base, process_cost_model(), &search_cfg);
    PlannedSchedule {
        schedule: outcome.schedule,
        adopted: outcome.adopted,
        candidates: outcome.candidates,
        greedy_cost: outcome.greedy_cost,
        best_cost: outcome.best_cost,
        plan_seconds: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::schedule_fingerprint;
    use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};

    fn workload() -> Circuit {
        supremacy_circuit(&SupremacySpec {
            rows: 3,
            cols: 4,
            depth: 20,
            seed: 5,
        })
    }

    #[test]
    fn process_cost_model_is_the_table_entry_for_this_host() {
        let bits = qsim_kernels::vector_bits(Simd::Auto);
        assert!(matches!(bits, 0 | 256 | 512));
        let entry = CostModel::host(bits, host_threads());
        let m = process_cost_model();
        let weights = |m: &CostModel| {
            let scalars = [
                m.swap_byte_seconds,
                m.stream_byte_seconds,
                m.pass_seconds,
                m.run_seconds,
            ];
            (
                scalars.map(f64::to_bits),
                m.flop_seconds_by_k.map(f64::to_bits),
            )
        };
        assert_eq!(weights(m), weights(&entry));
        // The entry is the recorded k = 4 pivot per worker, nothing else.
        let k4_gflops = match bits {
            512 => 47.3,
            256 => 36.6,
            _ => 9.67,
        };
        assert_eq!(
            m.flop_seconds_by_k[4].to_bits(),
            (1.0 / (host_threads() as f64 * k4_gflops * 1e9)).to_bits()
        );
    }

    #[test]
    fn greedy_mode_matches_direct_plan() {
        let c = workload();
        let base = SchedulerConfig::distributed(9, 4);
        let p = plan_schedule(&c, &base, &PlanOptions::default());
        let direct = plan(&c, &base);
        assert_eq!(
            schedule_fingerprint(&p.schedule),
            schedule_fingerprint(&direct)
        );
        assert!(!p.adopted);
    }

    #[test]
    fn search_mode_never_models_worse_and_verifies() {
        let c = workload();
        let base = SchedulerConfig::distributed(9, 4);
        let p = plan_schedule(
            &c,
            &base,
            &PlanOptions {
                mode: ScheduleMode::Search,
                ..PlanOptions::default()
            },
        );
        assert!(p.best_cost <= p.greedy_cost);
        p.schedule.verify(&c);
    }

    #[test]
    fn planning_metrics_are_published() {
        let tel = Telemetry::enabled();
        let opts = PlanOptions {
            mode: ScheduleMode::Search,
            telemetry: tel.clone(),
            ..PlanOptions::default()
        };
        plan_schedule(&workload(), &SchedulerConfig::distributed(9, 4), &opts);
        let json = tel.metrics_json();
        assert!(json.contains("sched.plan_ns"), "{json}");
        assert!(json.contains("sched.search_candidates"), "{json}");
    }
}
