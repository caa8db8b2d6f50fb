//! [`Backend`] implementation over the out-of-core engine.
//!
//! Lives here rather than in `qsim_core::backend` because the OOC
//! engine sits above the core crate in the dependency order; the trait
//! itself (and the single/dist impls) are defined below. The unit of
//! execution, checkpoint and progress is one *stage* (= one streaming
//! pass), exactly as on [`qsim_core::DistBackend`].

use crate::exec::OocSimulator;
use qsim_circuit::Circuit;
use qsim_core::backend::{plan_partitioned, Backend, BackendOutcome, BackendPlan};
use qsim_core::checkpoint::CheckpointPolicy;
use qsim_core::planner::PlanOptions;
use qsim_core::SimError;
use qsim_kernels::SweepDispatch;
use qsim_telemetry::Telemetry;

/// [`Backend`] over [`OocSimulator`]: `2^g` chunk files play the role
/// of the distributed engine's ranks, so planning is identical to
/// [`qsim_core::DistBackend`] and only the execution tier differs.
///
/// The chunk store needs a directory even when the caller never asked
/// for checkpointing; a run without [`Backend::checkpoint`] configured
/// materializes its state in a fresh self-cleaning scratch directory.
pub struct OocBackend<R: SweepDispatch = f64> {
    pub sim: OocSimulator<R>,
    /// Chunk count (`2^g`) — the partition analogue of `n_ranks`.
    pub n_chunks: usize,
    pub kmax: u32,
    pub plan_options: PlanOptions,
    gather: bool,
}

impl<R: SweepDispatch> OocBackend<R> {
    pub fn new(sim: OocSimulator<R>, n_chunks: usize) -> Self {
        Self {
            sim,
            n_chunks,
            kmax: 4,
            plan_options: PlanOptions::default(),
            gather: false,
        }
    }
}

impl<R: SweepDispatch> Backend<R> for OocBackend<R> {
    fn name(&self) -> &'static str {
        "ooc"
    }

    fn telemetry(&self) -> Telemetry {
        self.sim.config.telemetry.clone()
    }

    fn checkpoint(&mut self, policy: CheckpointPolicy) {
        self.sim.config.checkpoint = Some(policy);
    }

    fn gather_state(&mut self, gather: bool) {
        self.gather = gather;
    }

    fn plan(&self, circuit: &Circuit) -> Result<BackendPlan, SimError> {
        plan_partitioned::<R>(
            circuit,
            self.n_chunks,
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
        self.sim.run_plan(plan, self.gather, stop_after)
    }
}
