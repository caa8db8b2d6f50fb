//! The unified [`Backend`] surface over the three execution engines.
//!
//! The paper's central claim — that the slow tier (network or SSD) is
//! interchangeable once the schedule needs only two all-to-alls — is
//! embodied by three engines with historically incompatible
//! run/checkpoint/resume/stats APIs. This module extracts the one
//! contract they all satisfy, so the CLI, the conformance suite and any
//! future backend (e.g. qsimh-style path slices) program against a
//! single trait instead of a per-engine copy of the plumbing.
//!
//! ## Contract
//!
//! * **Bit-exactness.** `plan` + `run` through the trait executes the
//!   exact code path of the engine's native entry point (the trait
//!   impls delegate; they never re-derive schedules or reorder
//!   arithmetic), so every `max_dist == 0.0` equivalence suite holds
//!   through the trait unchanged.
//! * **Checkpoint granularity** is engine-defined: the single-node
//!   engine checkpoints per *stage*, the distributed and out-of-core
//!   engines per *stage run* (the unit between all-to-alls; out of core
//!   it is also one streaming pass). `BackendPlan::total_units` reports
//!   the unit count so callers can pick a valid `run_to_stage` stop
//!   point without knowing which engine they hold.
//! * **Kill/resume.** `run_to_stage(plan, Some(u))` completes `u` units,
//!   makes them durable, and returns [`SimError::InjectedStop`] with
//!   `unit == u`; a subsequent `resume(dir)` + `run` continues from the
//!   manifest and must reproduce the uninterrupted run bit for bit.
//!   Stopping requires a configured checkpoint directory — the trait
//!   rejects an unresumable kill as [`SimError::Checkpoint`].
//! * **Stats normalization.** Engine-native counters surface as one
//!   [`BackendStats`] enum (`SweepStats` everywhere, plus
//!   `FabricStats` for the fabric and `IoStats` for the chunk store)
//!   rather than three outcome shapes.
//! * **Cross-precision resume rejection** is inherited from the
//!   manifest layer: the precision is part of the validated manifest,
//!   so resuming an f64 checkpoint at f32 (or vice versa) is a typed
//!   checkpoint error in every engine.

use crate::planner::ProgressBackend;
use crate::single::SinglePlan;
use crate::{DistSimulator, SingleCheckpoint, SingleNodeSimulator};
use qsim_circuit::Circuit;
use qsim_kernels::{SweepDispatch, SweepStats};
use qsim_net::fabric::FabricStats;
use qsim_net::SimError;
use qsim_sched::Schedule;
use qsim_telemetry::{IoStats, Telemetry};
use qsim_util::Complex;
use std::path::{Path, PathBuf};

/// Flush the armed flight recorder (when one is armed) and abort with
/// the run's root cause. Every infallible-looking engine wrapper funnels
/// its failure through here, so a checkpoint IO error or injected fault
/// can never abort the process without leaving a FLIGHT.json behind.
/// A second flush attempt (e.g. the panic hook) is a no-op: the
/// recorder's flush is write-once.
pub fn abort_run(context: &str, e: &SimError) -> ! {
    let reason = format!("{context}: {e}");
    let _ = qsim_telemetry::recorder::flush_armed(&reason);
    panic!("{reason}");
}

/// A planned execution, produced by [`Backend::plan`] and consumed by
/// [`Backend::run_to_stage`]. Carries the schedule plus the provenance
/// the CLI reports (cache hit, search adoption, plan wall-clock).
#[derive(Clone, Debug)]
pub struct BackendPlan {
    /// The circuit the schedule executes (initial Hadamard layer
    /// stripped when `init_uniform`).
    pub exec: Circuit,
    pub schedule: Schedule,
    /// Start from the uniform superposition (§3.6 supremacy start).
    pub init_uniform: bool,
    /// Wall-clock seconds spent planning.
    pub plan_seconds: f64,
    /// The schedule came from the plan cache.
    pub cache_hit: bool,
    /// Cost-guided search beat the greedy baseline and was adopted.
    pub adopted: bool,
    /// Tile budget recovered from a cache hit (skips the autotune
    /// probe); `None` resolves at execution time.
    pub tile_qubits: Option<u32>,
    /// Checkpoint units this plan executes (stages / stage runs — see
    /// the module docs on granularity). Valid
    /// `run_to_stage` stop points are `1..=total_units`.
    pub total_units: usize,
}

/// Engine-native counters, normalized: every backend reports the tiled
/// executor's [`SweepStats`]; the fabric and the chunk store add their
/// own views.
#[derive(Clone, Debug)]
pub enum BackendStats {
    Single {
        sweep: SweepStats,
    },
    Dist {
        fabric: FabricStats,
        sweep: SweepStats,
        /// Amplitude bytes copied by the swap engine on one rank.
        swap_bytes_copied: u64,
        /// Seconds in the final entropy all-reduce (§4.2.2).
        entropy_seconds: f64,
    },
    Ooc {
        io: IoStats,
        sweep: SweepStats,
        /// Stage runs executed (`== io.traversals`: one pass each).
        runs: usize,
    },
}

impl BackendStats {
    /// The engine that produced these stats (matches
    /// [`Backend::name`] and the checkpoint manifest's engine tag).
    pub fn engine(&self) -> &'static str {
        match self {
            BackendStats::Single { .. } => "single",
            BackendStats::Dist { .. } => "dist",
            BackendStats::Ooc { .. } => "ooc",
        }
    }

    /// The tiled stage executor's counters, whichever engine ran.
    pub fn sweep(&self) -> &SweepStats {
        match self {
            BackendStats::Single { sweep }
            | BackendStats::Dist { sweep, .. }
            | BackendStats::Ooc { sweep, .. } => sweep,
        }
    }
}

/// Execution report of any backend. Norm and entropy are always
/// accumulated and reported in f64, whatever the state precision `R`,
/// so the paper's observables are comparable across tiers.
#[derive(Clone, Debug)]
pub struct BackendOutcome<R: SweepDispatch = f64> {
    /// Σ|α|² over the full state.
    pub norm: f64,
    /// Shannon entropy (bits) of the outcome distribution (§4.2.2).
    pub entropy: f64,
    /// Wall-clock seconds executing (excludes planning).
    pub sim_seconds: f64,
    pub stats: BackendStats,
    /// Full state in logical basis order; `None` unless state gathering
    /// was requested via [`Backend::gather_state`] (small n only).
    pub state: Option<Vec<Complex<R>>>,
}

/// One engine behind the unified surface. Implementations are generic
/// over the [`SweepDispatch`] precision tier `R`; the trait is
/// dyn-compatible, so the CLI holds a `Box<dyn Backend<R>>`.
///
/// See the module docs for the cross-engine contract.
pub trait Backend<R: SweepDispatch> {
    /// Engine tag: `"single"`, `"dist"` or `"ooc"` (matches the
    /// checkpoint manifest's engine field).
    fn name(&self) -> &'static str;

    /// The engine's telemetry handle (cloned; handles share state).
    fn telemetry(&self) -> Telemetry;

    /// Which cost-model phase split prices this engine's ETA.
    fn progress_backend(&self) -> ProgressBackend;

    /// Checkpoint every completed unit into `dir`.
    fn checkpoint(&mut self, dir: &Path);

    /// Resume from the manifest in `dir` when one exists (implies
    /// [`Backend::checkpoint`] into the same directory; a fresh start
    /// when nothing was published yet).
    fn resume(&mut self, dir: &Path);

    /// Gather the full state (logical order) into the outcome.
    fn gather_state(&mut self, gather: bool);

    /// Plan `circuit` for this engine: strip the initial Hadamard
    /// layer, produce the schedule (greedy or search, through the
    /// engine's plan-cache policy) and report the unit structure.
    fn plan(&self, circuit: &Circuit) -> Result<BackendPlan, SimError>;

    /// Execute `plan`, stopping with [`SimError::InjectedStop`] after
    /// `stop_after` checkpoint units when set (kill-point injection for
    /// resume testing; requires a checkpoint directory).
    fn run_to_stage(
        &mut self,
        plan: &BackendPlan,
        stop_after: Option<usize>,
    ) -> Result<BackendOutcome<R>, SimError>;

    /// Execute `plan` to completion.
    fn run(&mut self, plan: &BackendPlan) -> Result<BackendOutcome<R>, SimError> {
        self.run_to_stage(plan, None)
    }

    /// Seed the live-progress engine's predicted-seconds denominators
    /// from the plan's cost model (PR 9's ETA prior), through one
    /// engine-agnostic path. A disabled telemetry handle makes this a
    /// no-op; engines re-seed identically at run start, so calling it
    /// early (e.g. between plan and run, while the CLI prints the plan)
    /// is idempotent.
    fn seed_progress(&self, plan: &BackendPlan) {
        crate::planner::seed_progress(
            &self.telemetry(),
            &plan.schedule,
            2 * R::BYTES as u64,
            plan.tile_qubits
                .unwrap_or(qsim_sched::sweep::DEFAULT_TILE_QUBITS),
            self.progress_backend(),
        );
    }
}

/// [`Backend`] over the single-node engine. Checkpoint unit: one
/// *stage*.
pub struct SingleBackend {
    pub sim: SingleNodeSimulator,
    gather: bool,
}

impl SingleBackend {
    pub fn new(sim: SingleNodeSimulator) -> Self {
        Self { sim, gather: false }
    }
}

impl<R: SweepDispatch> Backend<R> for SingleBackend {
    fn name(&self) -> &'static str {
        "single"
    }

    fn telemetry(&self) -> Telemetry {
        self.sim.telemetry.clone()
    }

    fn progress_backend(&self) -> ProgressBackend {
        ProgressBackend::Single
    }

    fn checkpoint(&mut self, dir: &Path) {
        self.sim.checkpoint = Some(SingleCheckpoint::new(dir));
    }

    fn resume(&mut self, dir: &Path) {
        let mut cp = SingleCheckpoint::new(dir);
        cp.resume = true;
        self.sim.checkpoint = Some(cp);
    }

    fn gather_state(&mut self, gather: bool) {
        self.gather = gather;
    }

    fn plan(&self, circuit: &Circuit) -> Result<BackendPlan, SimError> {
        let (exec, _) = crate::single::strip_initial_hadamards(circuit);
        let p = self.sim.plan_t::<R>(circuit);
        let total_units = p.schedule.stages.len();
        Ok(BackendPlan {
            exec,
            schedule: p.schedule,
            init_uniform: p.init_uniform,
            plan_seconds: p.plan_seconds,
            cache_hit: p.cache_hit,
            adopted: p.adopted,
            tile_qubits: p.tile_qubits,
            total_units,
        })
    }

    fn run_to_stage(
        &mut self,
        plan: &BackendPlan,
        stop_after: Option<usize>,
    ) -> Result<BackendOutcome<R>, SimError> {
        if let Some(stop) = stop_after {
            let cp = self.sim.checkpoint.as_mut().ok_or_else(|| {
                SimError::Checkpoint(
                    "run_to_stage with a stop point requires a checkpoint directory".into(),
                )
            })?;
            cp.stop_after = Some(stop);
        }
        let sp = SinglePlan {
            schedule: plan.schedule.clone(),
            init_uniform: plan.init_uniform,
            plan_seconds: plan.plan_seconds,
            tile_qubits: plan.tile_qubits,
            cache_hit: plan.cache_hit,
            adopted: plan.adopted,
            n_qubits: plan.schedule.n_qubits,
        };
        let out = self.sim.run_planned_t::<R>(sp);
        // One-shot kill switch: a later run on this backend must not
        // stop again.
        if let Some(cp) = self.sim.checkpoint.as_mut() {
            cp.stop_after = None;
        }
        let out = out?;
        // The engine holds the full state either way; the logical-order
        // copy is made only on request (it doubles the footprint).
        let state = self.gather.then(|| {
            crate::dist::physical_to_logical(out.state.amplitudes(), out.schedule.final_mapping())
        });
        Ok(BackendOutcome {
            norm: out.state.norm_sqr().to_f64(),
            entropy: out.state.entropy().to_f64(),
            sim_seconds: out.sim_seconds,
            stats: BackendStats::Single { sweep: out.sweep },
            state,
        })
    }
}

/// [`Backend`] over the distributed engine. Checkpoint unit: one *stage
/// run* (the stretch between all-to-alls). Planning knobs live here —
/// the engine itself takes a pre-planned schedule.
pub struct DistBackend {
    pub sim: DistSimulator,
    pub kmax: u32,
    pub schedule_mode: crate::planner::ScheduleMode,
    pub schedule_cache: Option<PathBuf>,
    pub search_budget: usize,
}

impl DistBackend {
    pub fn new(sim: DistSimulator) -> Self {
        Self {
            sim,
            kmax: 4,
            schedule_mode: crate::planner::ScheduleMode::Greedy,
            schedule_cache: None,
            search_budget: qsim_sched::SearchConfig::default().budget,
        }
    }
}

impl<R: SweepDispatch> Backend<R> for DistBackend {
    fn name(&self) -> &'static str {
        "dist"
    }

    fn telemetry(&self) -> Telemetry {
        self.sim.config.telemetry.clone()
    }

    fn progress_backend(&self) -> ProgressBackend {
        ProgressBackend::Dist
    }

    fn checkpoint(&mut self, dir: &Path) {
        self.sim.config.checkpoint_dir = Some(dir.to_path_buf());
    }

    fn resume(&mut self, dir: &Path) {
        self.sim.config.checkpoint_dir = Some(dir.to_path_buf());
        self.sim.config.resume = true;
    }

    fn gather_state(&mut self, gather: bool) {
        self.sim.config.gather_state = gather;
    }

    fn plan(&self, circuit: &Circuit) -> Result<BackendPlan, SimError> {
        plan_partitioned::<R>(
            circuit,
            self.sim.config.n_ranks,
            self.kmax,
            self.schedule_mode,
            self.schedule_cache.clone(),
            self.search_budget,
            &self.sim.config.telemetry,
        )
    }

    fn run_to_stage(
        &mut self,
        plan: &BackendPlan,
        stop_after: Option<usize>,
    ) -> Result<BackendOutcome<R>, SimError> {
        if stop_after.is_some() && self.sim.config.checkpoint_dir.is_none() {
            return Err(SimError::Checkpoint(
                "run_to_stage with a stop point requires a checkpoint directory".into(),
            ));
        }
        // Adopt the plan cache's measured tile budget unless pinned.
        self.sim.config.tile_qubits = self.sim.config.tile_qubits.or(plan.tile_qubits);
        self.sim.config.stop_after = stop_after;
        let out = self
            .sim
            .try_run_t::<R>(&plan.exec, &plan.schedule, plan.init_uniform);
        self.sim.config.stop_after = None;
        let out = out?;
        Ok(BackendOutcome {
            norm: out.norm,
            entropy: out.entropy,
            sim_seconds: out.sim_seconds,
            stats: BackendStats::Dist {
                fabric: out.fabric,
                sweep: out.sweep,
                swap_bytes_copied: out.swap_bytes_copied,
                entropy_seconds: out.entropy_seconds,
            },
            state: out.state,
        })
    }
}

/// Shared planning path of the partitioned engines (dist and OOC): both
/// execute `2^g`-way schedules with `l = n − g` local/chunk qubits, so
/// they plan identically and differ only in which tier holds the
/// non-resident amplitudes.
pub fn plan_partitioned<R: SweepDispatch>(
    circuit: &Circuit,
    n_parts: usize,
    kmax: u32,
    mode: crate::planner::ScheduleMode,
    cache_dir: Option<PathBuf>,
    search_budget: usize,
    telemetry: &Telemetry,
) -> Result<BackendPlan, SimError> {
    assert!(
        n_parts.is_power_of_two(),
        "partition count must be a power of two"
    );
    let n = circuit.n_qubits();
    let g = qsim_util::bits::log2_exact(n_parts);
    assert!(g < n, "more partitions than amplitudes");
    let l = n - g;
    let (exec, init_uniform) = crate::single::strip_initial_hadamards(circuit);
    let planned = crate::planner::plan_schedule(
        &exec,
        &qsim_sched::SchedulerConfig::distributed(l, kmax),
        &crate::planner::PlanOptions {
            mode,
            cache_dir,
            search_budget,
            amp_bytes: 2 * R::BYTES as u64,
            telemetry: telemetry.clone(),
        },
    );
    let total_units = qsim_sched::plan_runs(&planned.schedule).len();
    Ok(BackendPlan {
        exec,
        schedule: planned.schedule,
        init_uniform,
        plan_seconds: planned.plan_seconds,
        cache_hit: planned.cache_hit,
        adopted: planned.adopted,
        tile_qubits: planned.tile_qubits,
        total_units,
    })
}
