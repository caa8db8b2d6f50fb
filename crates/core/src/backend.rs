//! The [`Backend`] surface — the only way to execute a schedule.
//!
//! The paper's central claim is that the slow tier (network or SSD) is
//! interchangeable once the schedule needs only two all-to-alls. Two
//! engines embody it — in memory over `P ≥ 1` partitions (a single node
//! is `P = 1`) and out of core — each a partition store under the one
//! run driver ([`crate::run::drive`]), taking a [`BackendPlan`] and
//! returning a [`BackendOutcome`]. The three backends (single-node,
//! distributed, out-of-core) wrap them, and the CLI, the test suites, the
//! benchmark and any future backend (e.g. qsimh-style path slices) reach
//! them through this one trait.
//!
//! ## Contract
//!
//! * **Bit-exactness.** Between swaps every engine runs the same
//!   [`crate::exec::StageExecutor`] over its partitions, so for one
//!   schedule, kernel config and tile budget the amplitudes agree bit
//!   for bit across engines (`max_dist == 0.0` in the equivalence
//!   suites).
//! * **One unit.** Every engine executes, checkpoints and reports
//!   progress in the same unit: the *stage*, with the swap that closes
//!   it — in memory one stage application plus one all-to-all, out of
//!   core one streaming pass. A plan has `plan.schedule.stages.len()`
//!   units, so callers pick a valid `run_to_stage` stop point without
//!   knowing which engine they hold. Every engine runs only plans of the
//!   one executable shape, split into its partitions
//!   ([`crate::run::drive`]).
//! * **One run state.** `/status` reports `running` from the first unit
//!   on, then `done`, or `failed` after any error, a stop included — on
//!   every engine, because the driver sets it.
//! * **One checkpoint policy.** [`Backend::checkpoint`] takes the
//!   [`CheckpointPolicy`] (`{dir, resume}`) all three engines share.
//! * **Kill/resume.** `run_to_stage(plan, Some(u))` completes `u` units,
//!   makes them durable, and returns [`SimError::InjectedStop`] with
//!   `unit == u`; a subsequent run under `CheckpointPolicy::resume(dir)`
//!   continues from the manifest and must reproduce the uninterrupted
//!   run bit for bit. The stop point is an argument, never engine state:
//!   a later `run` on the same backend does not stop again. Stopping
//!   requires a checkpoint policy — an unresumable kill is rejected as
//!   [`SimError::Checkpoint`].
//! * **Stats normalization.** Engine-native counters surface as one
//!   [`BackendStats`] enum (`SweepStats` everywhere, plus
//!   `FabricStats` for the fabric and `IoStats` for the chunk store).
//! * **Cross-precision resume rejection** is inherited from the
//!   manifest layer: the precision is part of the validated manifest,
//!   so resuming an f64 checkpoint at f32 (or vice versa) is a typed
//!   checkpoint error in every engine.

use crate::checkpoint::CheckpointPolicy;
use crate::planner::{PlanOptions, PlannedSchedule};
use crate::{DistSimulator, SingleNodeSimulator};
use qsim_circuit::Circuit;
use qsim_kernels::{SweepDispatch, SweepStats};
use qsim_net::fabric::FabricStats;
use qsim_net::SimError;
use qsim_sched::Schedule;
use qsim_telemetry::{IoStats, Telemetry};
use qsim_util::Complex;

/// A planned execution, produced by [`Backend::plan`] and consumed by
/// [`Backend::run_to_stage`]. Carries the schedule plus the provenance
/// the CLI reports (search adoption, plan wall-clock).
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
    /// Cost-guided search beat the greedy baseline and was adopted.
    pub adopted: bool,
}

impl BackendPlan {
    /// Adopt a hand-planned schedule (tests, benches, ablations): no
    /// planner provenance.
    pub fn from_schedule(exec: Circuit, schedule: Schedule, init_uniform: bool) -> Self {
        Self {
            exec,
            schedule,
            init_uniform,
            plan_seconds: 0.0,
            adopted: false,
        }
    }

    /// Wrap what [`crate::planner::plan_schedule`] produced for `exec`.
    pub(crate) fn from_planned(exec: Circuit, init_uniform: bool, p: PlannedSchedule) -> Self {
        Self {
            plan_seconds: p.plan_seconds,
            adopted: p.adopted,
            ..Self::from_schedule(exec, p.schedule, init_uniform)
        }
    }
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
        /// Stages executed, one streaming pass each (`== io.traversals`,
        /// except that resuming a finished run executes none and reads
        /// the state once to reduce it).
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

    /// Checkpoint every completed unit under `policy` (and resume from
    /// its directory's manifest when the policy says so).
    fn checkpoint(&mut self, policy: CheckpointPolicy);

    /// Gather the full state (logical order) into the outcome.
    fn gather_state(&mut self, gather: bool);

    /// Plan `circuit` for this engine: strip the initial Hadamard
    /// layer, produce the schedule (greedy or search, per the backend's
    /// [`PlanOptions`]). A partition count the circuit
    /// cannot be split into, or a circuit the planner cannot schedule at
    /// that partition count, is [`std::io::ErrorKind::InvalidInput`].
    fn plan(&self, circuit: &Circuit) -> Result<BackendPlan, SimError>;

    /// Execute `plan` — the only way to run a schedule — stopping with
    /// [`SimError::InjectedStop`] after `stop_after` stages when set
    /// (kill-point injection for resume testing; requires a checkpoint
    /// directory; valid stop points are `1..=plan.schedule.stages.len()`).
    /// A plan the engine cannot execute ([`crate::run::drive`]) is
    /// [`std::io::ErrorKind::InvalidInput`].
    fn run_to_stage(
        &mut self,
        plan: &BackendPlan,
        stop_after: Option<usize>,
    ) -> Result<BackendOutcome<R>, SimError>;

    /// Execute `plan` to completion.
    fn run(&mut self, plan: &BackendPlan) -> Result<BackendOutcome<R>, SimError> {
        self.run_to_stage(plan, None)
    }
}

/// [`Backend`] over the in-memory engine on one partition, the whole
/// register.
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

    fn checkpoint(&mut self, policy: CheckpointPolicy) {
        self.sim.checkpoint = Some(policy);
    }

    fn gather_state(&mut self, gather: bool) {
        self.gather = gather;
    }

    fn plan(&self, circuit: &Circuit) -> Result<BackendPlan, SimError> {
        self.sim.plan::<R>(circuit)
    }

    fn run_to_stage(
        &mut self,
        plan: &BackendPlan,
        stop_after: Option<usize>,
    ) -> Result<BackendOutcome<R>, SimError> {
        self.sim
            .one_partition(self.gather)
            .run_partitions("single", plan, stop_after)
            .map(|(out, _)| out)
    }
}

/// [`Backend`] over the in-memory engine on `2^g` ranks. Planning knobs
/// live here — the engine itself takes a pre-planned schedule.
pub struct DistBackend {
    pub sim: DistSimulator,
    pub kmax: u32,
    pub plan_options: PlanOptions,
}

impl DistBackend {
    pub fn new(sim: DistSimulator) -> Self {
        Self {
            sim,
            kmax: 4,
            plan_options: PlanOptions::default(),
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

    fn checkpoint(&mut self, policy: CheckpointPolicy) {
        self.sim.config.checkpoint = Some(policy);
    }

    fn gather_state(&mut self, gather: bool) {
        self.sim.config.gather_state = gather;
    }

    fn plan(&self, circuit: &Circuit) -> Result<BackendPlan, SimError> {
        plan_partitioned::<R>(
            circuit,
            self.sim.config.n_ranks,
            self.kmax,
            &PlanOptions {
                telemetry: self.sim.config.telemetry.clone(),
                ..self.plan_options.clone()
            },
        )
    }

    fn run_to_stage(
        &mut self,
        plan: &BackendPlan,
        stop_after: Option<usize>,
    ) -> Result<BackendOutcome<R>, SimError> {
        self.sim
            .run_partitions("dist", plan, stop_after)
            .map(|(out, _)| out)
    }
}

/// The `(l, g)` split of an `n`-qubit register into `n_parts = 2^g`
/// partitions of `2^l` amplitudes — ranks or chunks, the arithmetic is
/// the same. The all-to-all hands every partition one piece of every
/// other, so it needs `l ≥ g`; anything else is
/// [`std::io::ErrorKind::InvalidInput`], on every engine.
pub fn partition_geometry(n: u32, n_parts: usize) -> std::io::Result<(u32, u32)> {
    let invalid = |why: String| Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why));
    if !n_parts.is_power_of_two() {
        return invalid(format!(
            "partition count must be a power of two, got {n_parts}"
        ));
    }
    let g = n_parts.trailing_zeros();
    if g >= n {
        return invalid(format!(
            "{n_parts} partitions leave no local qubit of a {n}-qubit register"
        ));
    }
    let l = n - g;
    if l < g {
        return invalid(format!(
            "all-to-all needs at least as many local as global qubits, got l = {l}, g = {g}"
        ));
    }
    Ok((l, g))
}

/// Shared planning path of the partitioned engines (dist and OOC): both
/// execute `2^g`-way schedules with `l = n − g` local/chunk qubits, so
/// they plan identically and differ only in which tier holds the
/// non-resident amplitudes. `opts.amp_bytes` is set from `R` here. A
/// circuit the planner cannot schedule at this geometry
/// ([`qsim_sched::check_schedulable`]) is
/// [`std::io::ErrorKind::InvalidInput`].
pub fn plan_partitioned<R: SweepDispatch>(
    circuit: &Circuit,
    n_parts: usize,
    kmax: u32,
    opts: &PlanOptions,
) -> Result<BackendPlan, SimError> {
    let (l, _) = partition_geometry(circuit.n_qubits(), n_parts)?;
    let (exec, init_uniform) = crate::single::strip_initial_hadamards(circuit);
    let cfg = qsim_sched::SchedulerConfig::distributed(l, kmax);
    qsim_sched::check_schedulable(&exec, &cfg)
        .map_err(|why| std::io::Error::new(std::io::ErrorKind::InvalidInput, why))?;
    let planned = crate::planner::plan_schedule(
        &exec,
        &cfg,
        &PlanOptions {
            amp_bytes: 2 * R::BYTES as u64,
            ..opts.clone()
        },
    );
    Ok(BackendPlan::from_planned(exec, init_uniform, planned))
}

#[cfg(test)]
mod tests {
    use super::partition_geometry;
    use std::io::ErrorKind::InvalidInput;

    #[test]
    fn partition_geometry_accepts_only_splittable_registers() {
        assert_eq!(partition_geometry(9, 1).unwrap(), (9, 0));
        assert_eq!(partition_geometry(9, 4).unwrap(), (7, 2));
        assert_eq!(partition_geometry(9, 16).unwrap(), (5, 4));
        for bad in [0usize, 3, 32, 512, 1024] {
            let e = partition_geometry(9, bad).unwrap_err();
            assert_eq!(e.kind(), InvalidInput, "{bad}: {e}");
        }
    }
}
