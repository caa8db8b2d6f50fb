//! Tiled stage execution — the glue between the scheduler's sweep plan
//! ([`qsim_sched::sweep`]) and the kernel-level tiled executor
//! ([`qsim_kernels::sweep`]).
//!
//! [`compile_stage`] turns a stage's op list into prepared passes: gate
//! matrices are permuted/packed ONCE (per stage, not per apply), and
//! diagonal ops — including fused clusters whose matrix happens to be
//! diagonal — fold into the sweep as phase multiplications; the kernel
//! crate's `TiledPass` resolves both kinds of operand against the tile
//! it stages. [`execute_compiled_stage`] then streams the state
//! once per pass. Both simulators adopt this path at
//! [`OptLevel::Blocked`]: `SingleNodeSimulator::run` via
//! [`execute_schedule_sweep`], and the distributed rank loop by compiling
//! each stage once on the driver and sharing the (immutable) compiled
//! stages across all SPMD ranks.
//!
//! Bit-exactness: compilation preserves the stage's op order exactly, the
//! per-tile kernels reuse the per-gate dispatch's packed-matrix ladder,
//! and the diagonal fold mirrors `specialized::apply_diagonal` /
//! `apply_rank_diagonal` branch for branch — so the tiled executor is
//! bitwise identical to the per-gate oracle (asserted by the proptests in
//! `tests/sweep_proptests.rs`).

use crate::state::StateVector;
use qsim_kernels::apply::{KernelConfig, OptLevel};
use qsim_kernels::sweep::{
    effective_tile_qubits, run_full_pass, PreparedDiag, PreparedGate, SweepDispatch, SweepStats,
    TileOp, TiledPass,
};
use qsim_kernels::tune_tile_qubits;
use qsim_sched::{plan_stage_sweeps, Schedule, StageOp, SweepPass};
use qsim_telemetry::Telemetry;
use qsim_util::complex::Complex;

/// One pass of a compiled stage.
enum CompiledPass<R: SweepDispatch> {
    /// Consecutive ops applied tile-by-tile in one streaming pass.
    Tiled(TiledPass<R>),
    /// A cluster wider than the tile: dedicated full sweep.
    Full(PreparedGate<R>),
}

/// A stage compiled for tiled execution: matrices packed, operands
/// resolved, ops grouped into streaming passes. Immutable after
/// compilation, so one compiled stage is shared by every rank of an SPMD
/// run.
///
/// The precision parameter selects the execution tier: schedules always
/// carry f64 matrices, and compilation converts them once — so an f32
/// run rounds each gate entry exactly once, at compile time, never per
/// amplitude.
pub struct CompiledStage<R: SweepDispatch = f64> {
    passes: Vec<CompiledPass<R>>,
}

impl<R: SweepDispatch> CompiledStage<R> {
    /// Streaming passes this stage will perform (≤ the op count).
    pub fn n_passes(&self) -> usize {
        self.passes.len()
    }
}

/// Compile a stage's ops under a `tile_qubits` budget. `local_qubits` is
/// the per-rank register width l (= n on a single node); diagonal
/// operands at positions ≥ l resolve to rank bits at execution time.
pub fn compile_stage<R: SweepDispatch>(
    ops: &[StageOp],
    local_qubits: u32,
    kernel: &KernelConfig,
    tile_qubits: u32,
) -> CompiledStage<R> {
    let plan = plan_stage_sweeps(ops, local_qubits, tile_qubits);
    let mut passes = Vec::with_capacity(plan.passes.len());
    for pass in &plan.passes {
        match pass {
            SweepPass::Tiled { op_indices, tile } => {
                let tile_ops = op_indices
                    .iter()
                    .map(|&oi| match &ops[oi] {
                        StageOp::Cluster(c) => match c.matrix.as_diagonal() {
                            // Diagonal fused cluster: fold as phases
                            // (same deterministic test as the planner).
                            Some(diag) => {
                                let diag: Vec<Complex<R>> =
                                    diag.iter().map(|a| a.convert()).collect();
                                TileOp::Diag(PreparedDiag::new(&c.qubits, diag, local_qubits))
                            }
                            None => TileOp::Dense(PreparedGate::new(
                                &c.qubits,
                                &c.matrix.convert::<R>(),
                                kernel,
                            )),
                        },
                        StageOp::Diagonal(d) => TileOp::Diag(PreparedDiag::new(
                            &d.positions,
                            d.diag.iter().map(|a| a.convert()).collect(),
                            local_qubits,
                        )),
                    })
                    .collect();
                passes.push(CompiledPass::Tiled(TiledPass::new(tile.clone(), tile_ops)));
            }
            SweepPass::Full { op_index } => {
                let StageOp::Cluster(c) = &ops[*op_index] else {
                    unreachable!("planner never emits a full pass for a diagonal")
                };
                passes.push(CompiledPass::Full(PreparedGate::new(
                    &c.qubits,
                    &c.matrix.convert::<R>(),
                    kernel,
                )));
            }
        }
    }
    CompiledStage { passes }
}

/// Execute a compiled stage on one rank's slice.
pub fn execute_compiled_stage<R: SweepDispatch>(
    state: &mut [Complex<R>],
    stage: &CompiledStage<R>,
    rank: usize,
    threads: usize,
    stats: &mut SweepStats,
) {
    for pass in &stage.passes {
        match pass {
            CompiledPass::Tiled(p) => p.run(state, rank, threads, stats),
            CompiledPass::Full(g) => run_full_pass(state, g, threads, stats),
        }
    }
}

/// Compile a consecutive slice of stages under one tile budget — the
/// shared entry point for engines that execute several stages per state
/// residency (the distributed driver compiling once for all SPMD ranks,
/// the out-of-core engine compiling once per stage-run).
pub fn compile_stages<R: SweepDispatch>(
    stages: &[qsim_sched::Stage],
    local_qubits: u32,
    kernel: &KernelConfig,
    tile_qubits: u32,
) -> Vec<CompiledStage<R>> {
    stages
        .iter()
        .map(|s| compile_stage(&s.ops, local_qubits, kernel, tile_qubits))
        .collect()
}

/// Resolve the tile budget for an l-qubit register: an explicit request
/// is clamped to the register; otherwise the measured
/// [`tune_tile_qubits`] size, shrunk so multi-threaded passes keep
/// enough tiles to steal.
pub fn resolve_tile_qubits(requested: Option<u32>, local_qubits: u32, threads: usize) -> u32 {
    match requested {
        Some(t) => t.min(local_qubits).max(1),
        None => effective_tile_qubits(tune_tile_qubits(), local_qubits, threads),
    }
}

/// Execute a swap-free schedule with the tiled stage executor — the
/// single-node counterpart of `execute_schedule_local`, one streaming
/// pass per group of ops instead of one per op. Requires
/// [`OptLevel::Blocked`] (the packed-kernel ladder).
pub fn execute_schedule_sweep<R: SweepDispatch>(
    state: &mut StateVector<R>,
    schedule: &Schedule,
    kernel: &KernelConfig,
    tile_qubits: Option<u32>,
) -> SweepStats {
    execute_schedule_sweep_with(state, schedule, kernel, tile_qubits, &Telemetry::disabled())
}

/// [`execute_schedule_sweep`] with a telemetry sink: per-stage compile
/// and apply spans land on the `single` track, and each stage apply
/// feeds the `stage_apply_ns` histogram.
pub fn execute_schedule_sweep_with<R: SweepDispatch>(
    state: &mut StateVector<R>,
    schedule: &Schedule,
    kernel: &KernelConfig,
    tile_qubits: Option<u32>,
    telemetry: &Telemetry,
) -> SweepStats {
    assert_eq!(schedule.n_swaps(), 0, "local execution cannot swap");
    assert_eq!(
        kernel.opt,
        OptLevel::Blocked,
        "tiled sweep requires the blocked kernel ladder"
    );
    let l = state.n_qubits();
    let tile = resolve_tile_qubits(tile_qubits, l, kernel.threads);
    let track = telemetry.track("single");
    let n_stages = schedule.stages.len() as u64;
    if let Some(p) = telemetry.progress() {
        p.set_planned_units(qsim_telemetry::Phase::Stage, n_stages);
    }
    let mut stats = SweepStats::default();
    for (si, stage) in schedule.stages.iter().enumerate() {
        if let Some(p) = telemetry.progress() {
            p.set_stage(si as u64, n_stages);
        }
        let compiled = {
            let _s = track.span_id("compile", si as u64);
            compile_stage(&stage.ops, l, kernel, tile)
        };
        let t_stage = std::time::Instant::now();
        {
            let _s = track.span_timed("stage", si as u64, "stage_apply_ns");
            execute_compiled_stage(
                state.amplitudes_mut(),
                &compiled,
                0,
                kernel.threads,
                &mut stats,
            );
        }
        telemetry.progress_unit(
            qsim_telemetry::Phase::Stage,
            t_stage.elapsed().as_nanos() as u64,
        );
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::{execute_schedule_local, strip_initial_hadamards};
    use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
    use qsim_sched::{plan, SchedulerConfig};
    use qsim_util::complex::max_dist;

    #[test]
    fn sweep_executor_is_bit_exact_on_supremacy_stage() {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 3,
            cols: 4,
            depth: 20,
            seed: 2,
        });
        let n = c.n_qubits();
        let (exec, uniform) = strip_initial_hadamards(&c);
        assert!(uniform);
        let schedule = plan(&exec, &SchedulerConfig::single_node(n, 4));
        let cfg = KernelConfig {
            threads: 1,
            ..KernelConfig::default()
        };

        let mut oracle = StateVector::<f64>::uniform(n);
        execute_schedule_local(&mut oracle, &schedule, &cfg);

        for tile in [6u32, 8, 10] {
            let mut swept = StateVector::<f64>::uniform(n);
            let stats = execute_schedule_sweep(&mut swept, &schedule, &cfg, Some(tile));
            assert_eq!(
                max_dist(swept.amplitudes(), oracle.amplitudes()),
                0.0,
                "tile={tile}"
            );
            assert!(stats.sweep_passes <= stats.baseline_passes);
            assert!(stats.pass_ratio() >= 1.0, "tile={tile}");
        }
    }

    #[test]
    fn sweep_executor_reduces_passes() {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 4,
            cols: 4,
            depth: 25,
            seed: 0,
        });
        let n = c.n_qubits();
        let (exec, _) = strip_initial_hadamards(&c);
        let schedule = plan(&exec, &SchedulerConfig::single_node(n, 4));
        let cfg = KernelConfig {
            threads: 1,
            ..KernelConfig::default()
        };
        let mut state = StateVector::<f64>::uniform(n);
        let stats = execute_schedule_sweep(&mut state, &schedule, &cfg, Some(12));
        assert!(
            stats.pass_ratio() >= 1.5,
            "pass ratio {} below acceptance floor",
            stats.pass_ratio()
        );
        assert!(stats.bytes_streamed < stats.baseline_bytes);
    }

    #[test]
    fn resolve_tile_clamps_explicit_request() {
        assert_eq!(resolve_tile_qubits(Some(20), 10, 1), 10);
        assert_eq!(resolve_tile_qubits(Some(0), 10, 1), 1);
        assert_eq!(resolve_tile_qubits(Some(8), 24, 1), 8);
        let auto = resolve_tile_qubits(None, 24, 1);
        assert!((1..=24).contains(&auto));
    }
}
