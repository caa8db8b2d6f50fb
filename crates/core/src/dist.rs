//! The in-memory engine (§3.4–3.6): the distributed simulator, and the
//! single-node one as its `g = 0` case — the `Resident` partition store
//! under the one run driver ([`drive`]).
//!
//! Executes a [`qsim_sched::Schedule`] across `2^g` fabric ranks. Each rank
//! owns a 2^l-amplitude slice of the physical state: bit positions `0..l`
//! index within the slice, positions `l..n` are the rank id. A single-node
//! run is one rank holding the whole register, where the swap and the
//! all-reduce have no peer and do nothing. Per stage:
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
//!   equivalence oracle;
//! * **checkpoint** (under a policy): every rank fsyncs its slice as the
//!   next generation, in every store's layout ([`generation_layout`]), and
//!   hands its digest to the driver, which commits the unit once every rank
//!   has joined.

use crate::backend::{BackendOutcome, BackendPlan, BackendStats};
use crate::checkpoint::{generation_layout, read_part, write_part, CheckpointPolicy};
use crate::exec::StageExecutor;
use crate::observables::norm_entropy;
use crate::run::{drive, PartitionStore, RunSpec};
use crate::state::StateVector;
use qsim_kernels::apply::KernelConfig;
use qsim_kernels::parallel::{par_gather, par_scatter};
use qsim_kernels::{SweepDispatch, SweepStats};
use qsim_net::collective::{
    all_reduce_sum, all_to_all, all_to_all_inplace, all_to_all_with, Communicator,
};
use qsim_net::fabric::{Cluster, RankCtx};
use qsim_net::{FaultPlan, PoisonHook, SimError};
use qsim_sched::SwapOp;
use qsim_telemetry::{MetricsRegistry, Telemetry};
use qsim_util::bits::BitPermutation;
use qsim_util::complex::Complex;
use qsim_util::Real;
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// its own `rank {r}` track (feeding the `stage_apply_ns` histogram;
    /// rank 0's swaps feed `swap_ns`), and the driver publishes
    /// `FabricStats` and `SweepStats` under the `dist.*` metric prefix.
    /// The default disabled handle makes all of it a no-op.
    pub telemetry: Telemetry,
    /// When set, every rank snapshots its slice after each stage (and
    /// the swap that closes it) and the driver publishes an atomic
    /// manifest in the policy's directory, so a killed run can restart
    /// from the last completed stage instead of from scratch (and does,
    /// under `resume`, after the manifest validates against the schedule
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

    /// Execute `plan.schedule` across `2^g` fabric ranks, starting from
    /// the uniform superposition when `plan.init_uniform` (the §3.6
    /// supremacy-circuit start), else |0…0⟩, at precision `R` end to end:
    /// the run driver ([`drive`]) over the [`Resident`] store. Returns the
    /// report — with the full state in logical order under
    /// `gather_state` — and every rank's final slice in rank (physical)
    /// order. `engine` (`"single"` or `"dist"`) names the metric prefix,
    /// the tracks and the [`BackendStats`] variant.
    ///
    /// Injected faults, lost ranks and checkpoint IO surface as a typed
    /// [`SimError`] after all rank threads have been joined — never a
    /// panic or a hang; at a `stop_after` point the driver returns
    /// [`SimError::InjectedStop`] once the unit is committed.
    pub(crate) fn run_partitions<R: SweepDispatch>(
        &self,
        engine: &'static str,
        plan: &BackendPlan,
        stop_after: Option<usize>,
    ) -> Result<(BackendOutcome<R>, Vec<StateVector<R>>), SimError> {
        let config = &self.config;
        let track = config.telemetry.track(&track_name(engine, None));
        let spec = RunSpec {
            engine,
            plan,
            codec: "none",
            n_parts: config.n_ranks,
            at_once: config.n_ranks,
            kernel: config.kernel,
            tile_qubits: config.tile_qubits,
            telemetry: &config.telemetry,
            track: &track,
            checkpoint: config.checkpoint.as_ref(),
        };
        // Each rank loads its slice on its own thread: generation `cursor`,
        // checked against its manifest digest and placed through its layout,
        // on resume; otherwise the §3.6 initial state, written by the kernel
        // pool when it has more than one thread (first touch, §3.3).
        let (n, l) = (plan.schedule.n_qubits, plan.schedule.local_qubits);
        let open = |cursor: usize, digests: &[u64]| {
            let layout = generation_layout(&plan.schedule, cursor);
            let mut cluster = Cluster::new(
                config.n_ranks,
                config.fault_plan.clone(),
                config.poison_hook.clone(),
            );
            let resume = config.checkpoint.as_ref().filter(|_| cursor > 0);
            let ranks = cluster.run(&mut vec![(); config.n_ranks], |ctx, ()| {
                let rank = ctx.rank();
                let track = config.telemetry.track(&track_name(engine, Some(rank)));
                let _rank = track.span_id("rank", rank as u64);
                let mut block = Vec::new();
                let state = match resume {
                    Some(cp) => {
                        let mut state = StateVector::<R>::null(l);
                        let out = state.amplitudes_mut();
                        read_part(
                            &cp.dir,
                            rank,
                            cursor,
                            digests[rank],
                            out,
                            layout.as_ref(),
                            &mut block,
                        )?;
                        state
                    }
                    None => {
                        let _s = track.span("init");
                        match (plan.init_uniform, rank) {
                            (true, _) => StateVector::uniform_part(l, n, config.kernel.threads > 1),
                            (false, 0) => StateVector::zero(l),
                            (false, _) => StateVector::null(l),
                        }
                    }
                };
                Ok(Rank {
                    state,
                    swap: SwapBuffers::new(None),
                    sweep: SweepStats::default(),
                    block,
                })
            })?;
            Ok(Resident {
                engine,
                config,
                plan,
                cluster,
                ranks,
            })
        };
        let (out, store) = drive(spec, stop_after, config.gather_state, open)?;
        Ok((out, store.ranks.into_iter().map(|r| r.state).collect()))
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

/// The in-memory [`PartitionStore`]: one slice per rank of a run-scoped
/// fabric ([`Cluster`]). Each unit runs as one rank cluster on it — every
/// rank applies the stage to its slice, swaps over the fabric and, under
/// a checkpoint policy, writes its slice as the next generation — and the
/// join hands the driver every rank's digest: no rank starts the next
/// unit before the driver has committed this one. Wire pools, counters,
/// fault points and the poison hook persist across units.
struct Resident<'a, R: SweepDispatch> {
    engine: &'static str,
    config: &'a DistConfig,
    plan: &'a BackendPlan,
    cluster: Cluster,
    ranks: Vec<Rank<R>>,
}

/// One rank's slice and what it keeps across units.
struct Rank<R: SweepDispatch> {
    state: StateVector<R>,
    /// One scratch for the whole run: every swap reuses it (and the
    /// fabric's wire pools), so only the first swap pays any allocation.
    swap: SwapBuffers,
    sweep: SweepStats,
    /// The block a checkpoint write gathers its slice through.
    block: Vec<Complex<R>>,
}

impl<R: SweepDispatch> PartitionStore<R> for Resident<'_, R> {
    fn run_stage(
        &mut self,
        si: usize,
        exec: &StageExecutor<R>,
    ) -> Result<Option<Vec<u64>>, SimError> {
        let Self { engine, config, .. } = *self;
        let stages = &self.plan.schedule.stages;
        let swap = stages[si].swap.as_ref();
        let l = self.plan.schedule.local_qubits;
        // Fault points and the paper's swap count are schedule-level.
        let swap_index = stages[..si].iter().filter(|s| s.swap.is_some()).count();
        let unit = si + 1;
        let layout = generation_layout(&self.plan.schedule, unit);
        let digests = self.cluster.run(&mut self.ranks, |ctx, part| {
            let rank = ctx.rank();
            let track = config.telemetry.track(&track_name(engine, Some(rank)));
            let _rank = track.span_id("rank", rank as u64);
            {
                let _s = track.span_timed("stage", si as u64, "stage_apply_ns");
                // Rank bits resolve global diagonal operands.
                exec.apply(
                    si..si + 1,
                    part.state.amplitudes_mut(),
                    rank,
                    &mut part.sweep,
                );
            }
            if let Some(swap) = swap {
                ctx.fault_point(swap_index)?;
                // Rank 0 speaks for the cluster in `swap_ns`: one sample
                // per swap.
                let _s = match rank {
                    0 => track.span_timed("swap", si as u64, "swap_ns"),
                    _ => track.span_id("swap", si as u64),
                };
                perform_swap(ctx, &mut part.state, swap, l, &mut part.swap);
            }
            let Some(cp) = &config.checkpoint else {
                return Ok(None);
            };
            let _s = track.span_timed("checkpoint.write", unit as u64, "checkpoint_ns");
            let (amps, layout) = (part.state.amplitudes(), layout.as_ref());
            Ok(Some(write_part(
                &cp.dir,
                rank,
                unit,
                amps,
                layout,
                &mut part.block,
            )?))
        })?;
        Ok(digests.into_iter().collect())
    }

    /// Per-rank straggler gauges, so `/status` shows the comm/blocked
    /// skew across ranks mid-run.
    fn gauges(&self, m: &MetricsRegistry) {
        for rank in 0..self.cluster.n_ranks() {
            let c = self.cluster.counters(rank);
            let secs = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1e9;
            for (gauge, value) in [
                ("comm_seconds", secs(&c.comm_nanos)),
                ("blocked_seconds", secs(&c.blocked_nanos)),
                ("bytes_sent", c.bytes_sent.load(Ordering::Relaxed) as f64),
            ] {
                m.gauge_set(&format!("live.rank{rank}.{gauge}"), value);
            }
        }
    }

    /// §4.2.2: the entropy needs a final all-reduce. One traversal of each
    /// slice for both partials, in f64 regardless of `R`, on the rank's
    /// kernel threads.
    fn finish(&mut self, gather: bool) -> Result<BackendOutcome<R>, SimError> {
        let Self { engine, config, .. } = *self;
        let reduced = self.cluster.run(&mut self.ranks, |ctx, part| {
            let track = config
                .telemetry
                .track(&track_name(engine, Some(ctx.rank())));
            let _rank = track.span_id("rank", ctx.rank() as u64);
            let (norm, entropy) = norm_entropy(part.state.amplitudes(), config.kernel.threads);
            let t = Instant::now();
            let _s = track.span("reduce");
            let norm = all_reduce_sum(ctx, norm);
            let entropy = all_reduce_sum(ctx, entropy);
            Ok((norm, entropy, t.elapsed().as_secs_f64()))
        })?;
        // The entropy all-reduce alone (the paper reports 8.1 s of 99 s
        // for that step): max over ranks. Swap copies and sweep counters
        // are ONE rank's — all ranks run identical passes.
        let entropy_seconds = reduced.iter().map(|r| r.2).fold(0.0, f64::max);
        let (norm, entropy, _) = reduced[0];
        let (fabric, rank0) = (self.cluster.stats(), &self.ranks[0]);
        let (swap_bytes_copied, sweep) = (rank0.swap.bytes_copied, rank0.sweep);
        if let Some(m) = config.telemetry.metrics() {
            fabric.publish_into(m, &format!("{engine}.fabric"));
            m.counter_add(&format!("{engine}.swap_bytes_copied"), swap_bytes_copied);
            m.gauge_set(&format!("{engine}.plan_seconds"), self.plan.plan_seconds);
            m.gauge_set(&format!("{engine}.entropy_seconds"), entropy_seconds);
        }
        let state = gather.then(|| {
            let physical: Vec<_> = self
                .ranks
                .iter()
                .flat_map(|r| r.state.amplitudes())
                .copied()
                .collect();
            physical_to_logical(&physical, self.plan.schedule.final_mapping())
        });
        let stats = match engine {
            "single" => BackendStats::Single { sweep },
            _ => BackendStats::Dist {
                fabric,
                sweep,
                swap_bytes_copied,
                entropy_seconds,
            },
        };
        Ok(BackendOutcome {
            norm,
            entropy,
            sim_seconds: 0.0,
            stats,
            state,
        })
    }
}

/// Per-rank scratch and tuning state of the fused swap engine. Allocated
/// once (by the rank body or the caller) and reused across every swap of a
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
    /// The slots already sit at the top local positions.
    identity: bool,
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
        if !self
            .cache
            .as_ref()
            .is_some_and(|c| c.l == l && c.slots == slots)
        {
            self.cache = None;
        }
        self.cache.get_or_insert_with(|| {
            let perm = slots_to_top_permutation(slots, l);
            PermCache {
                slots: slots.to_vec(),
                l,
                identity: perm.is_identity(),
                inv: perm.inverse(),
            }
        })
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
        if cache.identity {
            // The outgoing qubits already sit at the top local positions:
            // the index mapping is trivial and pack/unpack degenerate to
            // memcpy.
            all_to_all_inplace(ctx, comm, state.amplitudes_mut(), depth);
        } else {
            // The 2^g ranks are threads of one process sharing its cores,
            // so each packs and unpacks on its share of the pool: at one
            // thread per rank a parallel pack only oversubscribes them.
            let (inv, threads) = (&cache.inv, (rayon::current_num_threads() >> g).max(1));
            all_to_all_with::<Complex<R>, [Complex<R>]>(
                ctx,
                comm,
                seg,
                depth,
                state.amplitudes_mut(),
                |amps, d, r, wire| par_gather(amps, wire, inv, d * seg + r.start, threads),
                |amps, i, r, wire| par_scatter(wire, amps, inv, i * seg + r.start, threads),
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
    let perm = BitPermutation::new(mapping.to_vec());
    let mut out = vec![Complex::zero(); physical.len()];
    par_gather(physical, &mut out, &perm, 0, rayon::current_num_threads());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::strip_initial_hadamards;
    use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
    use qsim_sched::{plan, SchedulerConfig};
    use qsim_util::c64;

    #[test]
    fn entropy_reduction_matches_gathered_state() -> Result<(), SimError> {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 3,
            cols: 3,
            depth: 12,
            seed: 9,
        });
        let (exec, uniform) = strip_initial_hadamards(&c);
        let schedule = plan(&exec, &SchedulerConfig::distributed(7, 3));
        let sim = DistSimulator::new(DistConfig {
            n_ranks: 4,
            kernel: KernelConfig::sequential(),
            gather_state: true,
            ..Default::default()
        });
        let plan = BackendPlan::from_schedule(exec, schedule, uniform);
        let (out, _) = sim.run_partitions::<f64>("dist", &plan, None)?;
        let mut h = 0.0;
        for a in out.state.as_ref().unwrap() {
            let p = a.norm_sqr();
            if p > 0.0 {
                h -= p * p.log2();
            }
        }
        assert!((h - out.entropy).abs() < 1e-9);
        let seconds = match out.stats {
            BackendStats::Dist {
                entropy_seconds, ..
            } => entropy_seconds,
            _ => -1.0,
        };
        assert!(seconds >= 0.0, "dist stats with an entropy time");
        Ok(())
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
    fn zero_state_init_distributed() -> Result<(), SimError> {
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
        let plan = BackendPlan::from_schedule(c, schedule, false);
        let (out, _) = sim.run_partitions::<f64>("dist", &plan, None)?;
        let state = out.state.unwrap();
        assert!((state[0] - c64::one()).abs() < 1e-12);
        assert!((out.norm - 1.0).abs() < 1e-12);
        Ok(())
    }
}
