//! The run driver: the one stage loop of every engine.
//!
//! A run is the same sequence on every engine: check the plan and the
//! stop point, resolve the checkpoint directory into a resume cursor,
//! seed the live progress, compile the stages once, then walk the units
//! from the cursor on — each stage, with the swap that closes it, run
//! over every partition, then committed, reported and refreshed in
//! `/status` — and reduce. Only where the partitions live differs (paper
//! §5: a chunk is a rank): a [`PartitionStore`] holds them — rank slices
//! in memory (`crate::dist::Resident`), chunk files out of core — and
//! runs each stage over them. [`drive`] owns the rest, on the calling
//! thread, so resume, progress, the manifest flip, the stop and the
//! `/status` run state are decided in one place.

use crate::backend::{partition_geometry, BackendOutcome, BackendPlan};
use crate::checkpoint::{CheckpointError, CheckpointPolicy, RunKey};
use crate::exec::{resolve_tile_qubits, StageExecutor};
use crate::planner::process_cost_model;
use qsim_kernels::apply::KernelConfig;
use qsim_kernels::SweepDispatch;
use qsim_net::SimError;
use qsim_sched::Schedule;
use qsim_telemetry::{MetricsRegistry, RunState, Telemetry, TrackHandle};
use std::time::Instant;

/// Where the partitions of one run live, and how a stage runs over them.
pub trait PartitionStore<R: SweepDispatch> {
    /// Run stage `si` over every partition, the swap that closes it
    /// included. Under a checkpoint policy the store also makes the
    /// generation it wrote, `si + 1`, durable and returns one digest per
    /// partition for the manifest that commits it.
    fn run_stage(
        &mut self,
        si: usize,
        exec: &StageExecutor<R>,
    ) -> Result<Option<Vec<u64>>, SimError>;

    /// Refresh the live gauges `/status` reads between units.
    fn gauges(&self, metrics: &MetricsRegistry);

    /// Reduce the final state to `(norm, entropy)`, gather it in logical
    /// order when `gather`, and report the store's stats: the outcome
    /// but its `sim_seconds`, which the driver sets.
    fn finish(&mut self, gather: bool) -> Result<BackendOutcome<R>, SimError>;
}

/// What an engine hands [`drive`] besides its store.
pub struct RunSpec<'a> {
    /// `"single"`, `"dist"` or `"ooc"`: the prefix of the engine's
    /// metrics. The durable artifacts do not depend on it: every store
    /// commits one layout ([`crate::checkpoint::generation_layout`]).
    pub engine: &'static str,
    pub plan: &'a BackendPlan,
    /// Chunk codec name (`"none"` in memory).
    pub codec: &'a str,
    /// Partitions (ranks or chunks): `2^(n − l)`.
    pub n_parts: usize,
    /// How many partitions apply a stage at once: what the compiled
    /// executor's tile staging is stocked for.
    pub at_once: usize,
    pub kernel: KernelConfig,
    pub tile_qubits: Option<u32>,
    pub telemetry: &'a Telemetry,
    /// Where the driver records `resume.validate` and `compile`.
    pub track: &'a TrackHandle,
    pub checkpoint: Option<&'a CheckpointPolicy>,
}

/// Run `spec.plan` on the store `open` returns, from the resume cursor on.
///
/// Before any partition is touched, a plan the engine cannot execute on
/// `spec.n_parts` partitions is [`std::io::ErrorKind::InvalidInput`] and a
/// stop point nothing could resume from [`SimError::Checkpoint`]; under a
/// checkpoint policy the directory resolves to a cursor and the digests of
/// the generation it names (span `resume.validate`), which `open(cursor,
/// digests)` loads — or, on a fresh start (cursor 0, no digests), the
/// initial state. Then, for each stage from the cursor on: run it over
/// every partition ([`PartitionStore::run_stage`]), publish the manifest
/// naming the generation it wrote, refresh the gauges and report the unit;
/// at `stop_after` units, with the unit committed, return
/// [`SimError::InjectedStop`]. `/status` reports `running` from the first
/// unit on, then `done`, or `failed` after any error, a stop included. A
/// completed run also publishes its executor counters (`sweep.*`),
/// `sim_seconds`, `bytes_per_amp` and `precision_bits` under the engine's
/// prefix, and hands back the store with the outcome.
pub fn drive<R, S>(
    spec: RunSpec<'_>,
    stop_after: Option<usize>,
    gather: bool,
    open: impl FnOnce(usize, &[u64]) -> Result<S, SimError>,
) -> Result<(BackendOutcome<R>, S), SimError>
where
    R: SweepDispatch,
    S: PartitionStore<R>,
{
    let schedule = &spec.plan.schedule;
    let (l, total) = (schedule.local_qubits, schedule.stages.len());
    let key = RunKey {
        schedule,
        precision: R::NAME,
        codec: spec.codec,
        init_uniform: spec.plan.init_uniform,
        n_artifacts: spec.n_parts,
    };
    let tile = resolve_tile_qubits(spec.tile_qubits, l, spec.kernel.threads);
    let telemetry = spec.telemetry;
    let result = (|| {
        check_plan(schedule, spec.n_parts)?;
        let refuse = |why: &str| Err(SimError::Checkpoint(why.into()));
        let (cursor, digests) = match (spec.checkpoint, stop_after) {
            (None, Some(_)) => {
                refuse("run_to_stage with a stop point requires a checkpoint directory")
            }
            (_, Some(0)) => refuse("stop point must name at least one completed unit"),
            (None, None) => Ok((0, Vec::new())),
            (Some(cp), _) => {
                let _s = spec.track.span("resume.validate");
                Ok(key.resume_point(cp)?.unwrap_or_default())
            }
        }?;
        if let Some(p) = telemetry.progress() {
            // The units still to run (a resume pre-credits nothing) and
            // the prior the live ETA starts from, before measured unit
            // times take over: the plan priced by the process cost model.
            let r = qsim_sched::plan_resources(schedule, 2 * R::BYTES as u64, tile);
            p.set_planned_units((total - cursor) as u64);
            p.set_predicted_seconds(process_cost_model().seconds(&r));
            p.set_state(RunState::Running);
        }
        telemetry.publish_progress_gauges();

        let t0 = Instant::now();
        let mut store = open(cursor, &digests)?;
        // Compiled once, on this thread, and shared read-only by every
        // partition: the SPMD partitions run identical ops.
        let exec = {
            let _s = spec.track.span("compile");
            StageExecutor::<R>::new(&schedule.stages, l, &spec.kernel, Some(tile), spec.at_once)
        };
        for si in cursor..total {
            let t = Instant::now();
            let written = store.run_stage(si, &exec)?;
            // The manifest flip is the only commit ([`crate::checkpoint`]):
            // no partition overwrites generation `si` (the next unit's
            // parity) before the manifest naming `si + 1` is durable.
            if let (Some(cp), Some(digests)) = (spec.checkpoint, written) {
                key.manifest(si + 1, digests)
                    .write_atomic(&cp.dir)
                    .map_err(CheckpointError::Io)?;
            }
            if let Some(m) = telemetry.metrics() {
                store.gauges(m);
            }
            if let Some(p) = telemetry.progress() {
                p.set_stage(si as u64 + 1, total as u64);
                p.unit_done(t.elapsed().as_nanos() as u64);
            }
            if stop_after == Some(si + 1) {
                return Err(SimError::InjectedStop { unit: si + 1 });
            }
        }
        let mut out = store.finish(gather)?;
        out.sim_seconds = t0.elapsed().as_secs_f64();
        Ok((out, store))
    })();

    if let (Ok((out, _)), Some(m)) = (&result, telemetry.metrics()) {
        let engine = spec.engine;
        out.stats
            .sweep()
            .publish_into(m, &format!("{engine}.sweep"));
        for (gauge, value) in [
            ("sim_seconds", out.sim_seconds),
            ("bytes_per_amp", (2 * R::BYTES) as f64),
            ("precision_bits", (R::BYTES * 8) as f64),
        ] {
            m.gauge_set(&format!("{engine}.{gauge}"), value);
        }
    }
    if let Some(p) = telemetry.progress() {
        p.set_state(match &result {
            Ok(_) => RunState::Done,
            Err(_) => RunState::Failed,
        });
    }
    telemetry.publish_progress_gauges();
    result
}

/// The register splits into `n_parts` partitions (ranks or chunks) of
/// exactly the schedule's local qubits ([`partition_geometry`]), and the
/// schedule has the executable shape ([`Schedule::check_shape`]).
fn check_plan(schedule: &Schedule, n_parts: usize) -> std::io::Result<()> {
    let invalid = |why: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, why);
    let (l, _) = partition_geometry(schedule.n_qubits, n_parts)?;
    if l != schedule.local_qubits {
        return Err(invalid(format!(
            "partition count must be 2^(n-l): {n_parts} partitions for n = {}, l = {}",
            schedule.n_qubits, schedule.local_qubits
        )));
    }
    schedule.check_shape().map_err(invalid)
}
