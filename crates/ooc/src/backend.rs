//! [`Backend`] implementation over the out-of-core engine.
//!
//! Lives here rather than in `qsim_core::backend` because the OOC
//! engine sits above the core crate in the dependency order; the trait
//! itself (and the single/dist impls) are defined below. Checkpoint
//! unit: one *stage run* (= one streaming pass), exactly as on
//! [`qsim_core::DistBackend`].

use crate::exec::{CrashPoint, OocCheckpoint, OocSimulator};
use crate::scratch::ScratchDir;
use qsim_circuit::Circuit;
use qsim_core::backend::{plan_partitioned, Backend, BackendOutcome, BackendPlan, BackendStats};
use qsim_core::planner::{ProgressBackend, ScheduleMode};
use qsim_core::SimError;
use qsim_kernels::SweepDispatch;
use qsim_telemetry::Telemetry;
use std::path::{Path, PathBuf};

/// [`Backend`] over [`OocSimulator`]: `2^g` chunk files play the role
/// of the distributed engine's ranks, so planning is identical to
/// [`qsim_core::DistBackend`] and only the execution tier differs.
///
/// The chunk store needs a directory even when the caller never asked
/// for checkpointing; a run without [`Backend::checkpoint`] configured
/// materializes its state in a fresh self-cleaning [`ScratchDir`].
pub struct OocBackend<R: SweepDispatch = f64> {
    pub sim: OocSimulator<R>,
    /// Chunk count (`2^g`) — the partition analogue of `n_ranks`.
    pub n_chunks: usize,
    pub kmax: u32,
    pub schedule_mode: ScheduleMode,
    pub schedule_cache: Option<PathBuf>,
    pub search_budget: usize,
    dir: Option<PathBuf>,
    resume: bool,
    gather: bool,
    scratch: Option<ScratchDir>,
}

impl<R: SweepDispatch> OocBackend<R> {
    pub fn new(sim: OocSimulator<R>, n_chunks: usize) -> Self {
        Self {
            sim,
            n_chunks,
            kmax: 4,
            schedule_mode: ScheduleMode::Greedy,
            schedule_cache: None,
            search_budget: qsim_sched::SearchConfig::default().budget,
            dir: None,
            resume: false,
            gather: false,
            scratch: None,
        }
    }

    /// The chunk-store directory this backend runs against, when one is
    /// pinned (checkpointing); `None` means each run uses a fresh
    /// scratch directory.
    pub fn store_dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }
}

impl<R: SweepDispatch> Backend<R> for OocBackend<R> {
    fn name(&self) -> &'static str {
        "ooc"
    }

    fn telemetry(&self) -> Telemetry {
        self.sim.config.telemetry.clone()
    }

    fn progress_backend(&self) -> ProgressBackend {
        ProgressBackend::Ooc
    }

    fn checkpoint(&mut self, dir: &Path) {
        self.dir = Some(dir.to_path_buf());
    }

    fn resume(&mut self, dir: &Path) {
        self.dir = Some(dir.to_path_buf());
        self.resume = true;
    }

    fn gather_state(&mut self, gather: bool) {
        self.gather = gather;
    }

    fn plan(&self, circuit: &Circuit) -> Result<BackendPlan, SimError> {
        plan_partitioned::<R>(
            circuit,
            self.n_chunks,
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
        if let Some(stop) = stop_after {
            if self.dir.is_none() {
                return Err(SimError::Checkpoint(
                    "run_to_stage with a stop point requires a checkpoint directory".into(),
                ));
            }
            if stop == 0 {
                return Err(SimError::Checkpoint(
                    "stop point must name at least one completed unit".into(),
                ));
            }
        }
        // Adopt the plan cache's measured tile budget unless pinned.
        self.sim.config.tile_qubits = self.sim.config.tile_qubits.or(plan.tile_qubits);
        // A pinned directory implies per-pass checkpointing (the chunk
        // store doubles as the checkpoint directory); the injected stop
        // is the crash fired right after pass `stop − 1` committed.
        self.sim.config.checkpoint = self.dir.as_ref().map(|_| OocCheckpoint {
            resume: self.resume,
            crash: stop_after.map(|stop| (stop - 1, CrashPoint::AfterCommit)),
        });
        let dir = match &self.dir {
            Some(d) => d.clone(),
            None => {
                // Fresh scratch per run: the previous run's guard (and
                // its chunk files) drop here.
                let s = ScratchDir::new("backend");
                let path = s.path().to_path_buf();
                self.scratch = Some(s);
                path
            }
        };
        let result = if self.gather {
            self.sim
                .try_run_gather(&dir, &plan.schedule, plan.init_uniform)
                .map(|(out, state)| (out, Some(state)))
        } else {
            self.sim
                .try_run(&dir, &plan.schedule, plan.init_uniform)
                .map(|out| (out, None))
        };
        // One-shot kill switch: a later run on this backend must not
        // crash again.
        if let Some(cp) = self.sim.config.checkpoint.as_mut() {
            cp.crash = None;
        }
        let (out, state) = result?;
        Ok(BackendOutcome {
            norm: out.norm,
            entropy: out.entropy,
            sim_seconds: out.sim_seconds,
            stats: BackendStats::Ooc {
                io: out.io,
                sweep: out.sweep,
                runs: out.runs,
            },
            state,
        })
    }
}
