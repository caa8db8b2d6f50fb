//! Stage execution — the one routine every engine runs between swaps.
//!
//! [`StageExecutor`] applies a slice of a schedule's stages to one
//! partition's amplitudes: the full register on a single node, a rank
//! slice in the distributed engine, a chunk out of core. The paper's
//! point (§3.4, §5) is that these are the *same* local computation —
//! only the tier holding the other `2^g − 1` partitions differs — so the
//! engines share this code instead of each spelling out a stage loop.
//!
//! Two modes, bit-identical to each other (asserted by the proptests in
//! `tests/sweep_proptests.rs`):
//!
//! * **compiled** ([`StageExecutor::new`], what every engine runs): the
//!   glue between the scheduler's sweep plan ([`qsim_sched::sweep`]) and
//!   the kernel crate's tiled executor ([`qsim_kernels::sweep`]).
//!   [`compile_stages`]
//!   turns each stage's op list into prepared passes: gate matrices are
//!   permuted/packed ONCE (per stage, not per apply), and diagonal ops —
//!   including clusters of diagonal gates (`Cluster::diagonal`) — fold
//!   into the sweep as phase multiplications; `TiledPass` resolves both
//!   kinds of operand against the tile it stages. Every gathered pass of
//!   one compilation stages its tiles through one [`TileStaging`] list,
//!   stocked as it is compiled. [`execute_compiled_stage`] then streams
//!   the partition once per pass. Compiled stages are immutable, so every
//!   engine compiles once per run and the distributed driver shares them
//!   across all SPMD ranks.
//! * **per-gate** ([`StageExecutor::per_gate`], the oracle the compiled
//!   mode is tested against): one full traversal per op through
//!   `apply_gate` / the specialized diagonal kernels.
//!
//! In both modes a diagonal operand at a position ≥ l is a *global*
//! qubit: its bit comes from the partition index (§3.5).
//!
//! Bit-exactness: compilation preserves the stage's op order exactly, the
//! per-tile kernels reuse the per-gate dispatch's packed-matrix ladder,
//! and the diagonal fold mirrors `specialized::apply_diagonal` and the
//! rank-conditional reduction below branch for branch.

use qsim_kernels::apply::{apply_gate, KernelConfig};
use qsim_kernels::specialized;
use qsim_kernels::sweep::{
    effective_tile_qubits, run_full_pass, PreparedDiag, PreparedGate, SweepDispatch, SweepStats,
    TileOp, TileStaging, TiledPass,
};
use qsim_sched::sweep::DEFAULT_TILE_QUBITS;
use qsim_sched::{plan_stage_sweeps, Cluster, DiagonalOp, Stage, StageOp, SweepPass};
use qsim_util::complex::Complex;
use qsim_util::Real;
use std::ops::Range;
use std::sync::Arc;

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

/// Compile a stage's ops under a `tile_qubits` budget, its gathered
/// passes staging tiles through `staging`. `local_qubits` is the
/// per-rank register width l (= n on a single node); diagonal operands at
/// positions ≥ l resolve to rank bits at execution time.
fn compile_stage<R: SweepDispatch>(
    ops: &[StageOp],
    local_qubits: u32,
    kernel: &KernelConfig,
    tile_qubits: u32,
    staging: &Arc<TileStaging<R>>,
) -> CompiledStage<R> {
    let plan = plan_stage_sweeps(ops, local_qubits, tile_qubits);
    let mut passes = Vec::with_capacity(plan.passes.len());
    for pass in &plan.passes {
        match pass {
            SweepPass::Tiled { op_indices, tile } => {
                let tile_ops = op_indices
                    .iter()
                    .map(|&oi| match &ops[oi] {
                        // A cluster of diagonal gates folds as phases
                        // (`Cluster::diagonal`, the planner's test).
                        StageOp::Cluster(c) if c.diagonal => TileOp::Diag(PreparedDiag::new(
                            &c.qubits,
                            cluster_diagonal(c),
                            local_qubits,
                            kernel,
                        )),
                        StageOp::Cluster(c) => TileOp::Dense(PreparedGate::new(
                            &c.qubits,
                            &c.matrix.convert::<R>(),
                            kernel,
                        )),
                        StageOp::Diagonal(d) => TileOp::Diag(PreparedDiag::new(
                            &d.positions,
                            d.diag.iter().map(|a| a.convert()).collect(),
                            local_qubits,
                            kernel,
                        )),
                    })
                    .collect();
                let pass = TiledPass::new(tile.clone(), tile_ops).staged_by(staging);
                passes.push(CompiledPass::Tiled(pass));
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

/// The diagonal of a cluster flagged `diagonal`, rounded to `R`.
fn cluster_diagonal<R: Real>(c: &Cluster) -> Vec<Complex<R>> {
    (0..c.matrix.dim())
        .map(|i| c.matrix.get(i, i).convert())
        .collect()
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

/// Compile a consecutive slice of stages under one tile budget, for one
/// partition at a time: what [`StageExecutor::new`] compiles at
/// `partitions` 1, one staging list stocked here included.
pub fn compile_stages<R: SweepDispatch>(
    stages: &[Stage],
    local_qubits: u32,
    kernel: &KernelConfig,
    tile_qubits: u32,
) -> Vec<CompiledStage<R>> {
    compile_shared(stages, local_qubits, kernel, tile_qubits, 1)
}

/// Compile `stages` for `partitions` partitions that apply them at once,
/// with one [`TileStaging`] list shared by every gathered pass. The list
/// is stocked here, on the compiling thread, with one buffer, as long as
/// the largest staged tile, for each tile stager that can run at once:
/// the most any one pass runs at `kernel.threads`
/// ([`TiledPass::staging_demand`]) times `partitions`.
fn compile_shared<R: SweepDispatch>(
    stages: &[Stage],
    local_qubits: u32,
    kernel: &KernelConfig,
    tile_qubits: u32,
    partitions: usize,
) -> Vec<CompiledStage<R>> {
    let staging = Arc::default();
    let compiled: Vec<CompiledStage<R>> = stages
        .iter()
        .map(|s| compile_stage(&s.ops, local_qubits, kernel, tile_qubits, &staging))
        .collect();
    let (stagers, len) = compiled
        .iter()
        .flat_map(|c| &c.passes)
        .filter_map(|p| match p {
            CompiledPass::Tiled(p) => Some(p.staging_demand(1 << local_qubits, kernel.threads)),
            CompiledPass::Full(_) => None,
        })
        .fold((0, 0), |(n, len), (m, l)| (n.max(m), len.max(l)));
    staging.stock(stagers * partitions, len);
    compiled
}

// The executor tiles at the size the planner's pass model
// (`qsim_sched::cost`, `qsim_sched::search`) prices schedules under.
const _: () = assert!(qsim_kernels::tune_tile_qubits() == DEFAULT_TILE_QUBITS);

/// Resolve the tile budget for an l-qubit register: an explicit request
/// is clamped to the register; otherwise [`DEFAULT_TILE_QUBITS`], shrunk
/// so multi-threaded passes keep enough tiles to steal.
pub fn resolve_tile_qubits(requested: Option<u32>, local_qubits: u32, threads: usize) -> u32 {
    match requested {
        Some(t) => t.min(local_qubits).max(1),
        None => effective_tile_qubits(DEFAULT_TILE_QUBITS, local_qubits, threads),
    }
}

/// A slice of stages prepared for execution on partitions of
/// `2^local_qubits` amplitudes. Built once per run on every engine and
/// shared read-only by every partition.
pub struct StageExecutor<'a, R: SweepDispatch = f64> {
    stages: &'a [Stage],
    /// Index-aligned with `stages`; `None` is per-gate mode.
    compiled: Option<Vec<CompiledStage<R>>>,
    local_qubits: u32,
    kernel: KernelConfig,
}

impl<'a, R: SweepDispatch> StageExecutor<'a, R> {
    /// Compiled under `tile_qubits` (see [`resolve_tile_qubits`]) for
    /// `partitions` partitions that apply it at once: the ranks of the
    /// in-memory driver (1 on a single node), 1 out of core, where one
    /// compute thread applies it chunk after chunk. Its gathered passes
    /// share one staging list, stocked here on the building thread for
    /// that many partitions, so no apply allocates one.
    pub fn new(
        stages: &'a [Stage],
        local_qubits: u32,
        kernel: &KernelConfig,
        tile_qubits: Option<u32>,
        partitions: usize,
    ) -> Self {
        let tile = resolve_tile_qubits(tile_qubits, local_qubits, kernel.threads);
        let compiled = compile_shared(stages, local_qubits, kernel, tile, partitions);
        Self {
            compiled: Some(compiled),
            ..Self::per_gate(stages, local_qubits, kernel)
        }
    }

    /// Per-gate mode: the oracle of the bit-exactness suites.
    pub fn per_gate(stages: &'a [Stage], local_qubits: u32, kernel: &KernelConfig) -> Self {
        Self {
            stages,
            compiled: None,
            local_qubits,
            kernel: *kernel,
        }
    }

    /// Apply stages `range` (indices into the slice this executor was
    /// built over) to partition `partition`'s amplitudes. `stats` only
    /// moves in compiled mode.
    pub fn apply(
        &self,
        range: Range<usize>,
        amps: &mut [Complex<R>],
        partition: usize,
        stats: &mut SweepStats,
    ) {
        match &self.compiled {
            Some(compiled) => {
                for stage in &compiled[range] {
                    execute_compiled_stage(amps, stage, partition, self.kernel.threads, stats);
                }
            }
            None => {
                for op in self.stages[range].iter().flat_map(|s| &s.ops) {
                    match op {
                        // Clusters of diagonal gates take the specialized
                        // phase-multiply kernel (§3.5) — the flag
                        // `compile_stage` reads, `Cluster::diagonal`.
                        StageOp::Cluster(c) if c.diagonal => {
                            specialized::apply_diagonal(amps, &c.qubits, &cluster_diagonal(c))
                        }
                        StageOp::Cluster(c) => {
                            apply_gate(amps, &c.qubits, &c.matrix.convert::<R>(), &self.kernel)
                        }
                        StageOp::Diagonal(d) => {
                            apply_rank_diagonal(amps, d, partition, self.local_qubits)
                        }
                    }
                }
            }
        }
    }
}

/// Reduce a (possibly global-operand) diagonal op to partition `rank`'s
/// local action and apply it (§3.5). Diagonal entries (always carried at
/// f64 by the schedule) are rounded to `R` here, once per op application
/// — identical to the compiled path's compile-time rounding because each
/// entry is converted exactly once from the same f64 value.
pub fn apply_rank_diagonal<R: Real>(amps: &mut [Complex<R>], d: &DiagonalOp, rank: usize, l: u32) {
    // Split operands into local and global; global bits come from the
    // rank id.
    let mut local_ops: Vec<(usize, u32)> = Vec::new(); // (operand j, position)
    let mut fixed_bits = 0usize; // operand-indexed bits from the rank
    for (j, &p) in d.positions.iter().enumerate() {
        if p < l {
            local_ops.push((j, p));
        } else {
            let bit = (rank >> (p - l)) & 1;
            fixed_bits |= bit << j;
        }
    }
    if local_ops.is_empty() {
        // Pure rank-conditional global phase.
        specialized::apply_global_phase(amps, d.diag[fixed_bits].convert());
        return;
    }
    // Reduced diagonal over the local operands (preserving their order).
    let k = local_ops.len();
    let mut reduced = vec![Complex::<R>::zero(); 1usize << k];
    for (x, r) in reduced.iter_mut().enumerate() {
        let mut idx = fixed_bits;
        for (b, &(j, _)) in local_ops.iter().enumerate() {
            idx |= ((x >> b) & 1) << j;
        }
        *r = d.diag[idx].convert();
    }
    let positions: Vec<u32> = local_ops.iter().map(|&(_, p)| p).collect();
    specialized::apply_diagonal(amps, &positions, &reduced);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::strip_initial_hadamards;
    use crate::state::StateVector;
    use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
    use qsim_circuit::Circuit;
    use qsim_sched::{plan, Schedule, SchedulerConfig};
    use qsim_util::c64;
    use qsim_util::complex::max_dist;

    fn planned(rows: u32, cols: u32, depth: u32, seed: u64) -> (u32, Schedule) {
        let c = supremacy_circuit(&SupremacySpec {
            rows,
            cols,
            depth,
            seed,
        });
        let n = c.n_qubits();
        let (exec, uniform) = strip_initial_hadamards(&c);
        assert!(uniform);
        (n, plan(&exec, &SchedulerConfig::single_node(n, 4)))
    }

    fn run_uniform(exec: &StageExecutor, n: u32) -> (Vec<c64>, SweepStats) {
        let mut state = StateVector::<f64>::uniform(n);
        let mut stats = SweepStats::default();
        exec.apply(0..exec.stages.len(), state.amplitudes_mut(), 0, &mut stats);
        (state.amplitudes().to_vec(), stats)
    }

    #[test]
    fn compiled_mode_is_bit_exact_on_supremacy_stage() {
        let (n, schedule) = planned(3, 4, 20, 2);
        let cfg = KernelConfig {
            threads: 1,
            ..KernelConfig::default()
        };
        let (oracle, idle) = run_uniform(&StageExecutor::per_gate(&schedule.stages, n, &cfg), n);
        assert_eq!(idle.sweep_passes, 0, "per-gate mode streams no tiled pass");

        for tile in [6u32, 8, 10] {
            let exec = StageExecutor::new(&schedule.stages, n, &cfg, Some(tile), 1);
            let (swept, stats) = run_uniform(&exec, n);
            assert_eq!(max_dist(&swept, &oracle), 0.0, "tile={tile}");
            assert!(stats.sweep_passes <= stats.baseline_passes);
            assert!(stats.pass_ratio() >= 1.0, "tile={tile}");
        }
    }

    #[test]
    fn compiled_mode_reduces_passes() {
        let (n, schedule) = planned(4, 4, 25, 0);
        let cfg = KernelConfig {
            threads: 1,
            ..KernelConfig::default()
        };
        let exec = StageExecutor::new(&schedule.stages, n, &cfg, Some(12), 1);
        let (_, stats) = run_uniform(&exec, n);
        assert!(
            stats.pass_ratio() >= 1.5,
            "pass ratio {} below acceptance floor",
            stats.pass_ratio()
        );
        assert!(stats.bytes_streamed < stats.baseline_bytes);
    }

    #[test]
    fn the_cluster_flag_is_the_one_diagonal_predicate() {
        // T·CZ·T: every gate diagonal, so the cluster folds as phases in
        // the sweep planner (it costs no tile budget: the pass's 1-qubit
        // tile is padded from position 0) and in the executor.
        let mut tczt = Circuit::new(2);
        tczt.t(0).cz(0, 1).t(1);
        // H(1)·H(1) fuses to the identity, numerically diagonal, but H is
        // dense, so the cluster is dense in both. This is deliberate: the
        // fused matrix's numeric test used to decide, and folded such
        // clusters; on supremacy circuits the two tests agree.
        let mut hh = Circuit::new(2);
        hh.h(1).h(1);
        let cfg = KernelConfig {
            threads: 1,
            ..KernelConfig::default()
        };
        for (c, diagonal, tile) in [(tczt, true, 0), (hh, false, 1)] {
            let s = plan(&c, &SchedulerConfig::single_node(2, 2));
            let [StageOp::Cluster(cl)] = &s.stages[0].ops[..] else {
                panic!("one cluster expected");
            };
            assert_eq!(cl.diagonal, diagonal);
            assert!(cl.matrix.as_diagonal().is_some());
            let sweeps = plan_stage_sweeps(&s.stages[0].ops, 2, 1);
            let want = SweepPass::Tiled {
                op_indices: vec![0],
                tile: vec![tile],
            };
            assert_eq!(sweeps.passes, vec![want]);
            let compiled = compile_stages::<f64>(&s.stages[..1], 2, &cfg, 1);
            let mut state = StateVector::<f64>::uniform(2);
            let mut stats = SweepStats::default();
            execute_compiled_stage(state.amplitudes_mut(), &compiled[0], 0, 1, &mut stats);
            assert_eq!(stats.diagonals_folded, diagonal as u64);
            assert_eq!(stats.tile_local_gates, !diagonal as u64);
            let (oracle, _) = run_uniform(&StageExecutor::per_gate(&s.stages, 2, &cfg), 2);
            assert_eq!(max_dist(state.amplitudes(), &oracle), 0.0);
        }
    }

    #[test]
    fn resolve_tile_clamps_explicit_request() {
        assert_eq!(resolve_tile_qubits(Some(20), 10, 1), 10);
        assert_eq!(resolve_tile_qubits(Some(0), 10, 1), 1);
        assert_eq!(resolve_tile_qubits(Some(8), 24, 1), 8);
    }

    #[test]
    fn default_tile_is_a_function_of_register_and_threads() {
        for l in 1..=24 {
            for t in [1, 2, 8] {
                assert_eq!(
                    resolve_tile_qubits(None, l, t),
                    effective_tile_qubits(DEFAULT_TILE_QUBITS, l, t),
                    "l={l} t={t}"
                );
            }
        }
    }

    #[test]
    fn rank_diagonal_reduction() {
        // CZ on (local 0, global l+1) with l = 2: phase -1 only on ranks
        // with global bit 1 set, and only on local amplitudes with bit 0.
        let d = DiagonalOp {
            positions: vec![0, 3],
            diag: vec![c64::one(), c64::one(), c64::one(), -c64::one()],
            gate_indices: vec![],
        };
        // rank 0b10 -> global bit (3-2)=1 set.
        let mut s = StateVector::<f64>::uniform(2);
        apply_rank_diagonal(s.amplitudes_mut(), &d, 0b10, 2);
        assert!(
            (s.amplitudes()[1].re + 0.5).abs() < 1e-12,
            "bit0 set flipped"
        );
        assert!((s.amplitudes()[0].re - 0.5).abs() < 1e-12);
        // rank 0b01 -> global bit clear: no action.
        let mut s2 = StateVector::<f64>::uniform(2);
        apply_rank_diagonal(s2.amplitudes_mut(), &d, 0b01, 2);
        assert!((s2.amplitudes()[1].re - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pure_global_diagonal_is_phase() {
        // T on a global qubit: ranks with the bit set get the phase.
        let d = DiagonalOp {
            positions: vec![2],
            diag: vec![c64::one(), c64::from_polar(1.0, 0.25)],
            gate_indices: vec![],
        };
        let mut s = StateVector::<f64>::uniform(2);
        apply_rank_diagonal(s.amplitudes_mut(), &d, 0b1, 2);
        let expect = c64::new(0.5, 0.0) * c64::from_polar(1.0, 0.25);
        assert!((s.amplitudes()[0] - expect).abs() < 1e-12);
    }
}
