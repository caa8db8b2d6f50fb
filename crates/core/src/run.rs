//! The run frame: everything around a stage that both engines share.
//!
//! A run is the same sequence on every engine: check the plan and the
//! stop point, resolve the checkpoint directory into a resume cursor,
//! seed the live progress, execute the stages from the cursor on — each
//! stage, with the swap that closes it, one unit of execution, checkpoint
//! and progress — and report. Only the stage itself differs: in memory
//! every rank applies it to its slice and swaps over the fabric, out of
//! core one streaming pass over the chunk files does both. [`Run`] owns
//! the rest, and each engine hands it its stage as the closure of
//! [`Run::units`], so resume, progress, the manifest flip, the stop and
//! the `/status` run state are decided in one place.

use crate::backend::{partition_geometry, BackendOutcome};
use crate::checkpoint::{CheckpointError, CheckpointPolicy, RunKey};
use crate::planner::process_cost_model;
use qsim_kernels::SweepDispatch;
use qsim_net::SimError;
use qsim_sched::Schedule;
use qsim_telemetry::{RunState, Telemetry, TrackHandle};
use std::marker::PhantomData;
use std::path::Path;
use std::time::Instant;

/// One run of `key` at precision `R`, from [`Run::begin`] to
/// [`Run::end`]. Shared read-only by every rank of an SPMD run.
pub struct Run<'a, R> {
    key: RunKey<'a>,
    telemetry: &'a Telemetry,
    checkpoint: Option<&'a CheckpointPolicy>,
    stop_after: Option<usize>,
    /// First stage still to run, and the digests the manifest promises
    /// for the generation it names (empty on a fresh start).
    cursor: usize,
    digests: Vec<u64>,
    precision: PhantomData<fn() -> R>,
}

impl<'a, R: SweepDispatch> Run<'a, R> {
    /// Open the run before any partition is touched: reject a plan the
    /// engine cannot execute on `key.n_artifacts` partitions
    /// ([`std::io::ErrorKind::InvalidInput`]) and a stop point nothing
    /// could resume from ([`SimError::Checkpoint`]); under a checkpoint
    /// policy resolve the resume cursor (span `resume.validate` on
    /// `track`); then seed the live progress with the stages from the
    /// cursor on, priced for tiles of `tile_qubits`, and report
    /// `running`. A run that fails to open reports `failed`.
    pub fn begin(
        key: RunKey<'a>,
        telemetry: &'a Telemetry,
        track: &TrackHandle,
        checkpoint: Option<&'a CheckpointPolicy>,
        stop_after: Option<usize>,
        tile_qubits: u32,
    ) -> Result<Self, SimError> {
        let opened = (|| -> Result<(usize, Vec<u64>), SimError> {
            check_plan(key.schedule, key.n_artifacts)?;
            let refuse = |why: &str| Err(SimError::Checkpoint(why.into()));
            match (checkpoint, stop_after) {
                (None, Some(_)) => {
                    refuse("run_to_stage with a stop point requires a checkpoint directory")
                }
                (_, Some(0)) => refuse("stop point must name at least one completed unit"),
                (None, None) => Ok((0, Vec::new())),
                (Some(cp), _) => {
                    let _s = track.span("resume.validate");
                    Ok(key.resume_point(cp)?.unwrap_or_default())
                }
            }
        })();
        let (cursor, digests) = opened.inspect_err(|_| settle(telemetry, RunState::Failed))?;
        if let Some(p) = telemetry.progress() {
            // The units still to run (a resume pre-credits nothing) and
            // the prior the live ETA starts from, before measured unit
            // times take over: the plan priced by the process cost model.
            let r = qsim_sched::plan_resources(key.schedule, 2 * R::BYTES as u64, tile_qubits);
            p.set_planned_units((key.schedule.stages.len() - cursor) as u64);
            p.set_predicted_seconds(process_cost_model().seconds(&r));
            p.set_state(RunState::Running);
        }
        telemetry.publish_progress_gauges();
        Ok(Self {
            key,
            telemetry,
            checkpoint,
            stop_after,
            cursor,
            digests,
            precision: PhantomData,
        })
    }

    /// First stage still to run: 0 on a fresh start, the manifest's
    /// cursor on resume.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The checkpoint directory, when the run checkpoints.
    pub fn checkpoint_dir(&self) -> Option<&Path> {
        self.checkpoint.map(|cp| cp.dir.as_path())
    }

    /// Where a resumed run loads generation [`Run::cursor`] from: the
    /// checkpoint directory and one digest per artifact to check what it
    /// loads against. `None` when the run starts from the initial state.
    pub fn resumed(&self) -> Option<(&Path, &[u64])> {
        let dir = self.checkpoint_dir().filter(|_| self.cursor > 0)?;
        Some((dir, &self.digests))
    }

    /// The one stage loop: for each stage `si` from the cursor on, run
    /// `unit(si)` — the engine's work for the stage, the swap that closes
    /// it and, under a checkpoint policy, the unit's commit — time it and,
    /// when `reporter` (one per run: rank 0 of the SPMD ranks), report it
    /// to the live progress. At the stop point, with the unit committed,
    /// return [`SimError::InjectedStop`].
    pub fn units(
        &self,
        reporter: bool,
        mut unit: impl FnMut(usize) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        let total = self.key.schedule.stages.len();
        for si in self.cursor..total {
            let t = Instant::now();
            unit(si)?;
            if let Some(p) = self.telemetry.progress().filter(|_| reporter) {
                p.set_stage(si as u64 + 1, total as u64);
                p.unit_done(t.elapsed().as_nanos() as u64);
            }
            if self.stop_after == Some(si + 1) {
                return Err(SimError::InjectedStop { unit: si + 1 });
            }
        }
        Ok(())
    }

    /// Commit unit `unit` once the generation it wrote is durable: publish
    /// the manifest naming it, with one digest per artifact. The manifest
    /// flip is the only commit ([`crate::checkpoint`]); without a
    /// checkpoint policy there is nothing to commit.
    pub fn publish(&self, unit: usize, digests: Vec<u64>) -> Result<(), SimError> {
        let Some(cp) = self.checkpoint else {
            return Ok(());
        };
        let manifest = self.key.manifest(unit, digests);
        Ok(manifest
            .write_atomic(&cp.dir)
            .map_err(CheckpointError::Io)?)
    }

    /// Close the run: report `done` on success and `failed` on any error,
    /// a stop included, and publish the progress gauges. A completed run
    /// also publishes, under the engine's prefix, its executor counters
    /// (`sweep.*`), `sim_seconds`, `bytes_per_amp` and `precision_bits`.
    pub fn end(
        self,
        result: Result<BackendOutcome<R>, SimError>,
    ) -> Result<BackendOutcome<R>, SimError> {
        if let (Ok(out), Some(m)) = (&result, self.telemetry.metrics()) {
            let engine = self.key.engine;
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
        let state = match result {
            Ok(_) => RunState::Done,
            Err(_) => RunState::Failed,
        };
        settle(self.telemetry, state);
        result
    }
}

/// Report the run's final `state` and publish the progress gauges.
fn settle(telemetry: &Telemetry, state: RunState) {
    if let Some(p) = telemetry.progress() {
        p.set_state(state);
    }
    telemetry.publish_progress_gauges();
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
