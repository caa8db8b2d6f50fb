//! The in-memory engine (§3.4–3.6): the distributed simulator, and the
//! single-node one as its `g = 0` case.
//!
//! Executes a [`qsim_sched::Schedule`] across `2^g` fabric ranks. Each rank owns a
//! 2^l-amplitude slice of the physical state: bit positions `0..l` index
//! within the slice, positions `l..n` are the rank id. A single-node run
//! is one rank holding the whole register, where the swap, the
//! all-reduce and the barrier have no peer and do nothing. Per stage:
//!
//! * **clusters** run the fused k-qubit kernels on the local slice — all
//!   ranks execute identical operations (SPMD);
//! * **diagonal ops** with global operands become rank-conditional local
//!   phases (§3.5): the global bits are read from the rank id and the
//!   diagonal is reduced to the local operands (or to a pure scalar);
//! * **swaps** realize §3.4's permutation → all-to-all → inverse
//!   permutation as a single *fused, in-place, pipelined* data path: the
//!   permutation is folded into the pack/unpack index mapping, so each
//!   swap packs amplitudes straight from the state into pooled wire
//!   buffers (one copy), exchanges them sub-chunk by sub-chunk, and
//!   unpacks straight back into the state (one copy) — no staging vectors,
//!   no separate permutation passes, and zero heap allocations in steady
//!   state. The self segment is an exact identity and is never touched.
//!   [`perform_swap_reference`] keeps the textbook three-pass path as the
//!   equivalence oracle.

use crate::backend::{partition_geometry, BackendOutcome, BackendPlan, BackendStats};
use crate::checkpoint::{
    check_stop_point, load_snapshot, save_snapshot, CheckpointError, CheckpointPolicy, RunKey,
};
use crate::exec::{resolve_tile_qubits, StageExecutor};
use crate::observables::norm_entropy;
use crate::state::StateVector;
use qsim_kernels::apply::KernelConfig;
use qsim_kernels::parallel::{par_gather, par_scatter};
use qsim_kernels::{SweepDispatch, SweepStats};
use qsim_net::collective::{
    all_reduce_sum, all_to_all, all_to_all_inplace, all_to_all_with, Communicator,
};
use qsim_net::fabric::{try_run_cluster_hooked, RankCtx};
use qsim_net::{FaultPlan, PoisonHook, SimError};
use qsim_sched::SwapOp;
use qsim_telemetry::{Phase, RunState, Telemetry, TrackHandle};
use qsim_util::bits::BitPermutation;
use qsim_util::complex::Complex;
use qsim_util::Real;
use std::time::Instant;

/// Distributed run configuration.
#[derive(Clone)]
pub struct DistConfig {
    /// Rank count; must equal `2^(n − schedule.local_qubits)`.
    pub n_ranks: usize,
    pub kernel: KernelConfig,
    /// The outcome carries the full state in logical basis order (small
    /// n only; used by tests and examples).
    pub gather_state: bool,
    /// Tile budget (log2 amplitudes) of the cache-tiled stage executor;
    /// `None` is [`crate::exec::resolve_tile_qubits`]'s default.
    pub tile_qubits: Option<u32>,
    /// Span/metrics sink: each rank records stage/swap/reduce spans on
    /// its own `rank {r}` track (feeding the `stage_apply_ns` and
    /// `swap_ns` histograms), and the driver publishes `FabricStats` and
    /// `SweepStats` under the `dist.*` metric prefix. The default
    /// disabled handle makes all of it a no-op.
    pub telemetry: Telemetry,
    /// When set, every rank snapshots its slice after each stage (and
    /// the swap that closes it) and rank 0 publishes an atomic manifest
    /// in the policy's directory, so a killed run can restart from the
    /// last completed stage instead of from scratch (and does, under
    /// `resume`, after the manifest validates against the schedule
    /// fingerprint).
    pub checkpoint: Option<CheckpointPolicy>,
    /// Scripted rank failures for fault-injection testing (see
    /// [`qsim_net::FaultPlan`]); checked before every swap.
    pub fault_plan: Option<FaultPlan>,
    /// Fired once, with the root-cause rank, when the fabric is first
    /// poisoned (rank error, panic, or scripted kill) — the flight
    /// recorder's tap. Runs on the dying rank's thread before any peer
    /// is woken, so a crash dump written here captures that rank's final
    /// spans and counters.
    pub poison_hook: Option<PoisonHook>,
}

impl std::fmt::Debug for DistConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistConfig")
            .field("n_ranks", &self.n_ranks)
            .field("kernel", &self.kernel)
            .field("gather_state", &self.gather_state)
            .field("tile_qubits", &self.tile_qubits)
            .field("checkpoint", &self.checkpoint)
            .field("fault_plan", &self.fault_plan)
            .field("poison_hook", &self.poison_hook.is_some())
            .finish_non_exhaustive()
    }
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            n_ranks: 1,
            kernel: KernelConfig::default(),
            gather_state: false,
            tile_qubits: None,
            telemetry: Telemetry::disabled(),
            checkpoint: None,
            fault_plan: None,
            poison_hook: None,
        }
    }
}

/// The in-memory engine. A single-node run is this engine on one
/// partition under the `"single"` tag (`SingleBackend`,
/// `SingleNodeSimulator::try_run_t`).
pub struct DistSimulator {
    pub config: DistConfig,
}

impl DistSimulator {
    pub fn new(config: DistConfig) -> Self {
        Self { config }
    }

    /// [`DistSimulator::run_partitions`], with the ranks' slices
    /// reordered into the outcome's logical-order state under
    /// `gather_state`.
    pub(crate) fn run_plan<R: SweepDispatch>(
        &self,
        engine: &'static str,
        plan: &BackendPlan,
        stop_after: Option<usize>,
    ) -> Result<BackendOutcome<R>, SimError> {
        let (mut out, parts) = self.run_partitions(engine, plan, stop_after)?;
        if self.config.gather_state {
            out.state = Some(gather_logical(&parts, plan.schedule.final_mapping()));
        }
        Ok(out)
    }

    /// The in-memory engine's one run function: execute `plan.schedule`
    /// across `2^g` fabric ranks, starting from the uniform superposition
    /// when `plan.init_uniform` (the §3.6 supremacy-circuit start), else
    /// |0…0⟩. Every rank slice, compiled stage and swap wire buffer holds
    /// `Complex<R>` amplitudes, so f32 runs move half the bytes end to
    /// end. Returns the report and every rank's final slice, in rank
    /// order (physical order).
    ///
    /// `engine` is what the run reports as: the manifest's engine tag,
    /// the metric prefix, the track names and the [`BackendStats`]
    /// variant (`"single"` or `"dist"`).
    ///
    /// The checkpoint unit is the stage (with the swap that closes it).
    /// Injected faults, lost ranks and checkpoint IO surface as a typed
    /// [`SimError`] after all rank threads have been joined — never a
    /// panic or a hang. `stop_after` makes every rank return
    /// [`SimError::InjectedStop`] after that many stages, past the unit's
    /// checkpoint barrier, so the manifest for the unit is durable and
    /// the run is resumable.
    pub(crate) fn run_partitions<R: SweepDispatch>(
        &self,
        engine: &'static str,
        plan: &BackendPlan,
        stop_after: Option<usize>,
    ) -> Result<(BackendOutcome<R>, Vec<StateVector<R>>), SimError> {
        let schedule = &plan.schedule;
        let n = schedule.n_qubits;
        let l = schedule.local_qubits;
        if partition_geometry(n, self.config.n_ranks)?.0 != l {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "rank count must be 2^(n-l): {} ranks for n = {n}, l = {l}",
                    self.config.n_ranks
                ),
            )
            .into());
        }
        check_stop_point(self.config.checkpoint.as_ref(), stop_after)?;
        let cfg = &self.config.kernel;
        let tele = &self.config.telemetry;
        let tile_qubits = self.config.tile_qubits;
        let key = RunKey {
            engine,
            schedule,
            precision: R::NAME,
            codec: "none",
            init_uniform: plan.init_uniform,
            total_units: schedule.stages.len(),
            n_artifacts: self.config.n_ranks,
        };

        // Resolve checkpoint/resume state on the driver before any rank
        // spawns, so a mismatched manifest fails fast and loudly.
        let driver = tele.track(&track_name(engine, None));
        let resume = match &self.config.checkpoint {
            Some(cp) => {
                let _s = driver.span("resume.validate");
                key.resume_point(cp)?
            }
            None => None,
        };

        // Prepare the stages ONCE on the driver: the SPMD ranks run
        // identical ops, so they share the packed matrices and tile
        // plans instead of re-deriving them 2^g times.
        let exec = {
            let _s = driver.span("compile");
            StageExecutor::<R>::new(&schedule.stages, l, cfg, tile_qubits)
        };

        // Seed the live-progress denominators with the units this run
        // will actually execute (a resume pre-credits nothing: skipped
        // stages are simply not planned). Only rank 0 reports completions,
        // so planned counts are schedule-level, not ×2^g.
        let start = resume.as_ref().map_or(0, |(unit, _)| *unit);
        if let Some(p) = tele.progress() {
            let rest = &schedule.stages[start..];
            let swaps = rest.iter().filter(|s| s.swap.is_some()).count();
            p.set_planned_units(Phase::Stage, rest.len() as u64);
            p.set_planned_units(Phase::Swap, swaps as u64);
            crate::planner::seed_progress(
                tele,
                schedule,
                2 * R::BYTES as u64,
                resolve_tile_qubits(tile_qubits, l, cfg.threads),
                crate::planner::ProgressBackend::Dist,
            );
            p.set_state(RunState::Running);
        }

        let shared = RankShared {
            key,
            parallel_init: cfg.threads > 1,
            exec: &exec,
            tele,
            checkpoint: self.config.checkpoint.as_ref(),
            resume: resume.as_ref(),
            stop_after,
        };
        let cluster = try_run_cluster_hooked(
            self.config.n_ranks,
            self.config.fault_plan.clone(),
            self.config.poison_hook.clone(),
            |ctx| run_rank(ctx, &shared),
        );
        if let Some(p) = tele.progress() {
            p.set_state(match cluster {
                Ok(_) => RunState::Done,
                Err(_) => RunState::Failed,
            });
        }
        tele.publish_progress_gauges();
        let (rank_results, fabric) = cluster?;

        // Wall-clock of the rank bodies / of the entropy all-reduce
        // alone (the paper reports 8.1 s of 99 s for that step): max
        // over ranks. Swap copies and sweep counters are ONE rank's —
        // all ranks run identical passes.
        let sim_seconds = rank_results.iter().map(|r| r.seconds).fold(0.0, f64::max);
        let entropy_seconds = rank_results
            .iter()
            .map(|r| r.entropy_seconds)
            .fold(0.0, f64::max);
        let RankResult {
            norm,
            entropy,
            swap_bytes_copied,
            sweep,
            ..
        } = rank_results[0];
        if let Some(m) = tele.metrics() {
            fabric.publish_into(m, &format!("{engine}.fabric"));
            sweep.publish_into(m, &format!("{engine}.sweep"));
            m.counter_add(&format!("{engine}.swap_bytes_copied"), swap_bytes_copied);
            for (gauge, value) in [
                ("plan_seconds", plan.plan_seconds),
                ("sim_seconds", sim_seconds),
                ("entropy_seconds", entropy_seconds),
                ("bytes_per_amp", std::mem::size_of::<Complex<R>>() as f64),
                ("precision_bits", (R::BYTES * 8) as f64),
            ] {
                m.gauge_set(&format!("{engine}.{gauge}"), value);
            }
        }
        let stats = match engine {
            "single" => BackendStats::Single { sweep },
            _ => BackendStats::Dist {
                fabric,
                sweep,
                swap_bytes_copied,
                entropy_seconds,
            },
        };
        let out = BackendOutcome {
            norm,
            entropy,
            sim_seconds,
            stats,
            state: None,
        };
        Ok((out, rank_results.into_iter().map(|r| r.state).collect()))
    }
}

/// Timeline rows of an in-memory run: a single-node run records on its
/// one `single` track; a distributed run on `dist driver` (`rank: None`)
/// and one `rank {r}` track per rank.
fn track_name(engine: &str, rank: Option<usize>) -> String {
    match (engine, rank) {
        ("single", _) => engine.to_string(),
        (_, Some(r)) => format!("rank {r}"),
        (_, None) => format!("{engine} driver"),
    }
}

/// The full state in logical basis order, read straight from the rank
/// slices (physical order, rank `r` holding indices `r·2^l..`).
fn gather_logical<R: SweepDispatch>(parts: &[StateVector<R>], mapping: &[u32]) -> Vec<Complex<R>> {
    let l = parts[0].n_qubits();
    let mask = (1usize << l) - 1;
    logical_order(mapping, |p| parts[p >> l].amplitudes()[p & mask])
}

struct RankResult<R: SweepDispatch> {
    norm: f64,
    entropy: f64,
    seconds: f64,
    entropy_seconds: f64,
    swap_bytes_copied: u64,
    sweep: SweepStats,
    state: StateVector<R>,
}

/// Read-only inputs shared by every rank body (the SPMD program).
struct RankShared<'a, R: SweepDispatch> {
    /// The run's identity (engine, schedule, precision, start state,
    /// units).
    key: RunKey<'a>,
    /// The kernel runs more than one thread, so the same pool writes the
    /// start state (first touch, §3.3); otherwise the rank thread does.
    parallel_init: bool,
    exec: &'a StageExecutor<'a, R>,
    tele: &'a Telemetry,
    checkpoint: Option<&'a CheckpointPolicy>,
    /// Validated resume cursor and the per-rank snapshot digests the
    /// manifest promises, resolved once by the driver.
    resume: Option<&'a (usize, Vec<u64>)>,
    stop_after: Option<usize>,
}

fn run_rank<R: SweepDispatch>(
    ctx: &mut RankCtx,
    sh: &RankShared<'_, R>,
) -> Result<RankResult<R>, SimError> {
    let schedule = sh.key.schedule;
    let stages = &schedule.stages;
    let n = schedule.n_qubits;
    let l = schedule.local_qubits;
    let rank = ctx.rank();
    let track = sh.tele.track(&track_name(sh.key.engine, Some(rank)));
    let _rank_span = track.span_id("rank", rank as u64);
    let t0 = Instant::now();

    // Resume loads the slice snapshot of the last completed stage,
    // verified against the digest the manifest recorded for this rank.
    // Otherwise start from the §3.6 initial state.
    let (mut state, start) = match (sh.checkpoint, sh.resume) {
        (Some(cp), Some((unit, digests))) if *unit > 0 => {
            let amps = load_snapshot::<R>(&cp.dir, rank, *unit, 1usize << l, digests[rank])?;
            (StateVector::from_amplitudes(amps), *unit)
        }
        _ => {
            let _s = track.span("init");
            let state = if sh.key.init_uniform {
                StateVector::<R>::uniform_part(l, n, sh.parallel_init)
            } else if rank == 0 {
                StateVector::<R>::zero(l)
            } else {
                StateVector::<R>::null(l)
            };
            (state, 0)
        }
    };

    // One scratch for the whole run: every swap reuses it (and the
    // fabric's wire pools), so only the first swap pays any allocation.
    let mut swap_bufs = SwapBuffers::new(None);
    let mut sweep = SweepStats::default();
    // Swap indices are absolute over the schedule (fault points and the
    // paper's swap count are schedule-level), so count the ones the
    // resume skipped.
    let mut swap_index = stages[..start].iter().filter(|s| s.swap.is_some()).count();

    for (si, stage) in stages.iter().enumerate().skip(start) {
        if rank == 0 {
            if let Some(p) = sh.tele.progress() {
                p.set_stage(si as u64, stages.len() as u64);
            }
        }
        let t_stage = Instant::now();
        {
            let _s = track.span_timed("stage", si as u64, "stage_apply_ns");
            // Rank bits resolve global diagonal operands.
            sh.exec
                .apply(si..si + 1, state.amplitudes_mut(), rank, &mut sweep);
        }
        // Rank 0 speaks for the SPMD cluster: all ranks run the same
        // stage, so one completion report per stage is the truth.
        if rank == 0 {
            sh.tele
                .progress_unit(Phase::Stage, t_stage.elapsed().as_nanos() as u64);
        }
        if let Some(swap) = &stage.swap {
            ctx.fault_point(swap_index)?;
            let t_swap = Instant::now();
            let _s = track.span_timed("swap", si as u64, "swap_ns");
            perform_swap(ctx, &mut state, swap, l, &mut swap_bufs);
            swap_index += 1;
            if rank == 0 {
                sh.tele
                    .progress_unit(Phase::Swap, t_swap.elapsed().as_nanos() as u64);
            }
        }
        let unit = si + 1;
        if let Some(cp) = sh.checkpoint {
            checkpoint_unit(ctx, cp, &sh.key, &track, &state, unit)?;
        }
        // Injected stop: every rank returns the same typed error at the
        // same stage boundary (post-barrier, so the manifest for the unit
        // is already durable everywhere).
        if sh.stop_after == Some(unit) {
            return Err(SimError::InjectedStop { unit });
        }
        // Per-rank straggler gauges, refreshed at every stage boundary
        // so /status shows live comm/blocked skew across ranks mid-run.
        // Keys are distinct per rank, so concurrent sets from the 2^g
        // rank threads never collide.
        if let Some(m) = sh.tele.metrics() {
            m.gauge_set(&format!("live.rank{rank}.comm_seconds"), ctx.comm_seconds());
            m.gauge_set(
                &format!("live.rank{rank}.blocked_seconds"),
                ctx.blocked_seconds(),
            );
            m.gauge_set(
                &format!("live.rank{rank}.bytes_sent"),
                ctx.bytes_sent() as f64,
            );
        }
    }

    // Reductions (§4.2.2: the entropy needs a final all-reduce): one
    // traversal of the slice for both partials, in f64 regardless of R.
    let (local_norm, local_entropy) = norm_entropy(state.amplitudes());
    let seconds = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (norm, entropy) = {
        let _s = track.span("reduce");
        let norm = all_reduce_sum(ctx, local_norm);
        let entropy = all_reduce_sum(ctx, local_entropy);
        (norm, entropy)
    };
    let entropy_seconds = t1.elapsed().as_secs_f64();
    Ok(RankResult {
        norm,
        entropy,
        seconds,
        entropy_seconds,
        swap_bytes_copied: swap_bufs.bytes_copied,
        sweep,
        state,
    })
}

/// Publish one completed stage (`unit` = stages finished so far).
///
/// Every rank writes its slice as generation `unit` — into the parity
/// the durable manifest does not name — fsyncs it and ships its digest to
/// rank 0, which publishes the manifest naming `unit`: that flip is the
/// commit. A crash at any point leaves either the old manifest naming the
/// intact generation `unit − 1`, or the new one naming this generation.
fn checkpoint_unit<R: SweepDispatch>(
    ctx: &mut RankCtx,
    cp: &CheckpointPolicy,
    key: &RunKey<'_>,
    track: &TrackHandle,
    state: &StateVector<R>,
    unit: usize,
) -> Result<(), SimError> {
    let _s = track.span_timed("checkpoint.write", unit as u64, "checkpoint_ns");
    let rank = ctx.rank();
    let digest = save_snapshot(&cp.dir, rank, unit, state.amplitudes())?;
    if rank == 0 {
        let mut digests = vec![digest; 1];
        digests.resize(ctx.n_ranks(), 0);
        for (r, d) in digests.iter_mut().enumerate().skip(1) {
            *d = ctx.recv_with::<u64, _>(r, |wire| wire[0]);
        }
        key.manifest(unit, digests)
            .write_atomic(&cp.dir)
            .map_err(CheckpointError::Io)?;
    } else {
        ctx.send_with::<u64>(0, 1, |wire| wire[0] = digest);
    }
    // Barrier: no rank overwrites generation `unit − 1` (the next unit's
    // parity) before the manifest naming `unit` is durable.
    ctx.barrier();
    Ok(())
}

/// Per-rank scratch and tuning state of the fused swap engine. Allocated
/// once (by `run_rank` or the caller) and reused across every swap of a
/// run: together with the fabric's recycled wire buffers this makes
/// steady-state swaps allocation-free.
#[derive(Clone, Debug, Default)]
pub struct SwapBuffers {
    /// Pipeline depth override; `None` picks a size-based default.
    sub_chunks: Option<usize>,
    /// Permutation tables of the most recent swap shape, so repeated
    /// swaps over the same slots rebuild (and heap-allocate) nothing.
    cache: Option<PermCache>,
    /// Swaps executed through this scratch.
    pub swaps: u64,
    /// Amplitude bytes moved by pack + unpack — the fused path's 2
    /// full-slice copies per swap (the reference path takes ~6).
    pub bytes_copied: u64,
}

#[derive(Clone, Debug)]
struct PermCache {
    slots: Vec<u32>,
    l: u32,
    perm: BitPermutation,
    inv: BitPermutation,
}

impl SwapBuffers {
    pub fn new(sub_chunks: Option<usize>) -> Self {
        Self {
            sub_chunks,
            ..Self::default()
        }
    }

    /// Pipeline depth for a peer segment of `seg_len` amplitudes of
    /// `amp_bytes` each (16 for f64 pairs, 8 for f32).
    pub fn depth_for(&self, seg_len: usize, amp_bytes: usize) -> usize {
        match self.sub_chunks {
            Some(s) => s.max(1),
            None => default_sub_chunks_sized(seg_len, amp_bytes),
        }
    }

    fn account(&mut self, group_size: usize, seg_len: usize, amp_bytes: usize) {
        self.swaps += 1;
        self.bytes_copied += 2 * (group_size as u64 - 1) * seg_len as u64 * amp_bytes as u64;
    }

    /// Permutation tables for a swap over `slots`, cached: a hit (the
    /// common steady-state case of a schedule reusing one swap shape, and
    /// the zero-alloc invariant's precondition) is allocation-free.
    fn perm_for(&mut self, slots: &[u32], l: u32) -> &PermCache {
        let hit = self
            .cache
            .as_ref()
            .is_some_and(|c| c.l == l && c.slots == slots);
        if !hit {
            let perm = slots_to_top_permutation(slots, l);
            let inv = perm.inverse();
            self.cache = Some(PermCache {
                slots: slots.to_vec(),
                l,
                perm,
                inv,
            });
        }
        self.cache.as_ref().unwrap()
    }
}

/// Size-based default pipeline depth: roughly one sub-chunk per MiB of
/// peer segment (`seg_len` amplitudes of `amp_bytes` each — the depth
/// tracks wire *bytes*, so an f32 segment splits into half as many),
/// clamped to `[1, 8]` — deep enough to overlap packing with the peers'
/// progress on large slices, and 1 (no split) on small ones where
/// per-message overhead would dominate.
pub fn default_sub_chunks_sized(seg_len: usize, amp_bytes: usize) -> usize {
    const PIPELINE_TARGET_BYTES: usize = 1 << 20;
    ((seg_len * amp_bytes) / PIPELINE_TARGET_BYTES).clamp(1, 8)
}

/// §3.4 global-to-local swap, fused: instead of permuting the slice,
/// exchanging, and permuting back, the permutation is folded into the
/// pack/unpack index mapping. Writing `p` for the slots→top permutation
/// and `q = p⁻¹`, the classic path computes
/// `final[x] = recv[p(x)]` with `recv[i·seg + t] = state_i[q(me·seg + t)]`,
/// so rank `r` packs `wire_to_d[t] = state_r[q(d·seg + t)]` for each
/// destination `d` and unpacks `state_r[q(i·seg + t)] = wire_from_i[t]` —
/// two copies total, in place, with the self segment (`d = r`) an exact
/// identity that is skipped. Sub-chunks of the same segment are disjoint
/// under `q`, and within a round all packs precede all unpacks, so the
/// in-place exchange is race-free at any pipeline depth.
pub fn perform_swap<R: SweepDispatch>(
    ctx: &mut RankCtx,
    state: &mut StateVector<R>,
    swap: &SwapOp,
    l: u32,
    bufs: &mut SwapBuffers,
) {
    let g = swap.local_slots.len() as u32;
    debug_assert!(1usize << g == ctx.n_ranks());
    let p = ctx.n_ranks();
    if p == 1 {
        return;
    }
    let amp_bytes = std::mem::size_of::<Complex<R>>();
    let comm = Communicator::world(ctx);
    let seg = state.len() / p;
    let depth = bufs.depth_for(seg, amp_bytes);
    {
        let cache = bufs.perm_for(&swap.local_slots, l);
        if cache.perm.is_identity() {
            // The outgoing qubits already sit at the top local positions:
            // the index mapping is trivial and pack/unpack degenerate to
            // memcpy.
            all_to_all_inplace(ctx, comm, state.amplitudes_mut(), depth);
        } else {
            let inv = &cache.inv;
            all_to_all_with::<Complex<R>, [Complex<R>]>(
                ctx,
                comm,
                seg,
                depth,
                state.amplitudes_mut(),
                |amps, d, r, wire| par_gather(amps, wire, |t| inv.apply(d * seg + r.start + t)),
                |amps, i, r, wire| par_scatter(wire, amps, |t| inv.apply(i * seg + r.start + t)),
            );
        }
    }
    bufs.account(p, seg, amp_bytes);
}

/// The textbook §3.4 swap data path (local permutation → allocating
/// all-to-all → copy back → inverse permutation). Kept as the equivalence
/// oracle for [`perform_swap`] and for before/after copy accounting — it
/// traverses the full slice ~6 times where the fused engine does 2.
pub fn perform_swap_reference<R: SweepDispatch>(
    ctx: &mut RankCtx,
    state: &mut StateVector<R>,
    swap: &SwapOp,
    l: u32,
) {
    let g = swap.local_slots.len() as u32;
    debug_assert!(1usize << g == ctx.n_ranks());
    let perm = slots_to_top_permutation(&swap.local_slots, l);
    if !perm.is_identity() {
        state.permute_qubits(&perm);
    }
    let recv = all_to_all(ctx, Communicator::world(ctx), state.amplitudes());
    state.amplitudes_mut().copy_from_slice(&recv);
    if !perm.is_identity() {
        state.permute_qubits(&perm.inverse());
    }
}

/// Build the local bit permutation taking `slots[i]` to position
/// `l − g + i` (the highest-order local bits), keeping all other
/// positions in ascending order.
pub fn slots_to_top_permutation(slots: &[u32], l: u32) -> BitPermutation {
    let g = slots.len() as u32;
    let mut map = vec![u32::MAX; l as usize];
    for (i, &s) in slots.iter().enumerate() {
        map[s as usize] = l - g + i as u32;
    }
    let mut next = 0u32;
    for m in map.iter_mut() {
        if *m == u32::MAX {
            *m = next;
            next += 1;
        }
    }
    BitPermutation::new(map)
}

/// Reorder a full physical state into logical basis order:
/// `out[b] = physical[p]` with `p`'s bit `mapping[q]` equal to `b`'s bit
/// `q`.
pub fn physical_to_logical<R: Real>(physical: &[Complex<R>], mapping: &[u32]) -> Vec<Complex<R>> {
    assert_eq!(physical.len(), 1usize << mapping.len());
    logical_order(mapping, |p| physical[p])
}

/// `out[b] = amp(p)` over the register, `p` as in
/// [`physical_to_logical`].
fn logical_order<R: Real>(mapping: &[u32], amp: impl Fn(usize) -> Complex<R>) -> Vec<Complex<R>> {
    let perm = BitPermutation::new(mapping.to_vec());
    (0..1usize << mapping.len())
        .map(|b| amp(perm.apply(b)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::{strip_initial_hadamards, SingleNodeSimulator};
    use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
    use qsim_net::fabric::FabricStats;
    use qsim_sched::{plan, SchedulerConfig};
    use qsim_util::c64;
    use qsim_util::complex::max_dist;

    fn dist_run(
        rows: u32,
        cols: u32,
        depth: u32,
        seed: u64,
        l: u32,
        kmax: u32,
    ) -> (Vec<c64>, BackendOutcome) {
        let c = supremacy_circuit(&SupremacySpec {
            rows,
            cols,
            depth,
            seed,
        });
        let n = c.n_qubits();
        let (exec, uniform) = strip_initial_hadamards(&c);
        assert!(uniform);
        let schedule = plan(&exec, &SchedulerConfig::distributed(l, kmax));
        schedule.verify(&exec);
        let sim = DistSimulator::new(DistConfig {
            n_ranks: 1usize << (n - l),
            kernel: KernelConfig::sequential(),
            gather_state: true,
            ..Default::default()
        });
        let out = sim
            .run_plan(
                "dist",
                &BackendPlan::from_schedule(exec, schedule, true),
                None,
            )
            .unwrap();
        // Reference: single-node run of the same circuit.
        let single = SingleNodeSimulator::default().try_run_t(&c).unwrap();
        (single.state.amplitudes().to_vec(), out)
    }

    fn dist_stats(out: &BackendOutcome) -> (&FabricStats, f64) {
        match &out.stats {
            BackendStats::Dist {
                fabric,
                entropy_seconds,
                ..
            } => (fabric, *entropy_seconds),
            other => panic!("dist run reported {} stats", other.engine()),
        }
    }

    #[test]
    fn distributed_matches_single_node_2_ranks() {
        let (expect, out) = dist_run(3, 3, 14, 0, 8, 4);
        let got = out.state.clone().unwrap();
        assert!(max_dist(&got, &expect) < 1e-10);
        assert!((out.norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distributed_matches_single_node_4_and_8_ranks() {
        for l in [8u32, 7] {
            let (expect, out) = dist_run(2, 5, 16, 3, l, 3);
            let got = out.state.clone().unwrap();
            assert!(
                max_dist(&got, &expect) < 1e-10,
                "l={l}: {}",
                max_dist(&got, &expect)
            );
            assert!(
                dist_stats(&out).0.total_bytes_sent > 0,
                "must actually communicate"
            );
        }
    }

    #[test]
    fn entropy_reduction_matches_gathered_state() {
        let (_, out) = dist_run(3, 3, 12, 9, 7, 3);
        let state = out.state.clone().unwrap();
        let mut h = 0.0;
        for a in &state {
            let p = a.norm_sqr();
            if p > 0.0 {
                h -= p * p.log2();
            }
        }
        assert!((h - out.entropy).abs() < 1e-9);
        assert!(dist_stats(&out).1 >= 0.0);
    }

    #[test]
    fn slots_to_top_permutation_shapes() {
        // l=4, slots=[0,2] -> 0->2, 2->3; others ascending: 1->0, 3->1.
        let p = slots_to_top_permutation(&[0, 2], 4);
        assert_eq!(p.target(0), 2);
        assert_eq!(p.target(2), 3);
        assert_eq!(p.target(1), 0);
        assert_eq!(p.target(3), 1);
        // Top slots already: identity.
        let p2 = slots_to_top_permutation(&[2, 3], 4);
        assert!(p2.is_identity());
    }

    #[test]
    fn physical_to_logical_reorders() {
        // 2 qubits, mapping logical0->phys1, logical1->phys0.
        let phys = vec![
            c64::new(0.0, 0.0),
            c64::new(1.0, 0.0),
            c64::new(2.0, 0.0),
            c64::new(3.0, 0.0),
        ];
        let out = physical_to_logical(&phys, &[1, 0]);
        // logical b=01 (q0=1) -> physical bit1 set -> index 2.
        assert_eq!(out[1].re, 2.0);
        assert_eq!(out[2].re, 1.0);
        assert_eq!(out[0].re, 0.0);
        assert_eq!(out[3].re, 3.0);
    }

    #[test]
    fn zero_state_init_distributed() {
        // Identity circuit from |0..0>: amplitude must stay on rank 0.
        let mut c = qsim_circuit::Circuit::new(4);
        c.t(0); // phase on |..1>, no-op on |0..0>
        let schedule = plan(&c, &SchedulerConfig::distributed(3, 2));
        let sim = DistSimulator::new(DistConfig {
            n_ranks: 2,
            kernel: KernelConfig::sequential(),
            gather_state: true,
            ..Default::default()
        });
        let out = sim
            .run_plan::<f64>(
                "dist",
                &BackendPlan::from_schedule(c, schedule, false),
                None,
            )
            .unwrap();
        let state = out.state.unwrap();
        assert!((state[0] - c64::one()).abs() < 1e-12);
        assert!((out.norm - 1.0).abs() < 1e-12);
    }
}
