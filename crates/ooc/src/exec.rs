//! Out-of-core schedule execution: the `Files` partition store under
//! the one run driver ([`drive`]), chunk files in place of ranks (§5: the
//! chunk index *is* the rank id).
//!
//! Each stage, with the swap that closes it, is one streaming pass over
//! every chunk through the prefetch/compute/writeback pipeline of
//! `crate::pipeline` (`read(c+1)` / `write(c−1)` hidden behind
//! `compute(c)`, pooled aligned buffers, zero steady-state allocations);
//! each chunk residency applies the stage through the driver's compiled
//! [`StageExecutor`], stocked for one partition, since one chunk is
//! computed at a time. [`OocConfig::prefetch_depth`] is the only
//! pass-shape value: at depth 1 a single chunk buffer circulates and
//! read → compute → write serialise ([`OocConfig::sync_baseline`]).
//!
//! The start state is synthesised in the first pass's prefetch stage
//! instead of being written and read back, and each global-to-local swap
//! — the data path of the in-memory `perform_swap`, with file ranges as
//! the network — rides in the two passes around it. Its fused
//! permute-scatter closes the stage before it (each computed chunk's
//! permuted piece for every destination goes straight into the
//! destination's file of the next generation); its unpermute is the next
//! pass's read, which places each block it reads through `p⁻¹` on the
//! prefetch thread (a plain read when the slots already sit at the top
//! positions). Neither half holds a chunk buffer of its own.
//!
//! Pass `u` reads generation `u` and writes generation `u + 1` into the
//! other file parity, so it never overwrites what it reads. That is the
//! whole checkpoint protocol: under a [`CheckpointPolicy`] each pass
//! digests the bytes it writes as it writes them and fsyncs the generation
//! it wrote, and the driver publishes the manifest naming it — the flip is
//! the commit, and it reads nothing. A resume opens the named generation
//! without reading it; the first pass checks each chunk as it reads it.
//!
//! Disk traffic for a schedule with `S` swaps is thus `2S + 1` state
//! transfers, checkpointed or not — the minimum an all-to-all through
//! files can take, and why the paper's 2-swap schedules make SSD-resident
//! states viable (§5). The final norm/entropy reduction is folded into the
//! last stage's pass, so it costs no extra traversal.

use crate::chunkstore::{BufferPool, ChunkStore};
use crate::pipeline::{run_pass, Dest, PassConfig, PassSource};
use crate::scratch::ScratchDir;
use qsim_compress::Codec;
use qsim_core::checkpoint::{generation_layout, CheckpointPolicy};
use qsim_core::dist::physical_to_logical;
use qsim_core::exec::StageExecutor;
use qsim_core::observables::{norm_entropy, tree_sum};
use qsim_core::run::{drive, PartitionStore, RunSpec};
use qsim_core::{BackendOutcome, BackendPlan, BackendStats, SimError};
use qsim_kernels::apply::KernelConfig;
use qsim_kernels::parallel::par_gather;
use qsim_kernels::{SweepDispatch, SweepStats};
use qsim_telemetry::{MetricsRegistry, Telemetry, TrackHandle};
use std::time::{Duration, Instant};

/// Out-of-core engine configuration.
#[derive(Clone, Debug)]
pub struct OocConfig {
    pub kernel: KernelConfig,
    /// Chunk buffers circulating through a pass's prefetch → compute →
    /// writeback loop (values below 1 run as 1). With one buffer the
    /// three steps of consecutive chunks serialise; more let the IO
    /// threads run ahead of and behind compute.
    pub prefetch_depth: usize,
    /// Tile budget (log2 amplitudes) for compiled stages; `None` is
    /// [`qsim_core::exec::resolve_tile_qubits`]'s default.
    pub tile_qubits: Option<u32>,
    /// Chunk codec on the IO path: encode on writeback, decode on
    /// prefetch, both off the compute thread. The default
    /// [`Codec::None`] keeps the raw on-disk format byte for byte;
    /// [`Codec::ShuffleRle`] is lossless (bit-exact state);
    /// [`Codec::Lossy`] truncates low mantissa bits before encoding.
    pub compress: Codec,
    /// Span/metrics sink. The engine records its timeline on the
    /// `ooc.compute` / `ooc.prefetch` / `ooc.writeback` tracks and
    /// publishes `IoStats`/`SweepStats` under the `ooc.*` metric prefix;
    /// the default disabled handle makes all of it a no-op.
    pub telemetry: Telemetry,
    /// Crash-consistent checkpointing: after every streaming *pass*
    /// (= stage), make the generation it wrote durable and publish a
    /// manifest naming it, so a crash anywhere resumes from the last
    /// completed pass. The policy's directory *is* the chunk store — the
    /// manifest sits next to the chunk files it describes. `None` (the
    /// default) runs the same passes in a self-cleaning scratch store and
    /// takes no durability step at all.
    pub checkpoint: Option<CheckpointPolicy>,
}

impl Default for OocConfig {
    fn default() -> Self {
        Self {
            kernel: KernelConfig::default(),
            prefetch_depth: 3,
            tile_qubits: None,
            compress: Codec::None,
            telemetry: Telemetry::disabled(),
            checkpoint: None,
        }
    }
}

impl OocConfig {
    /// The default pass shape on a single-threaded scalar kernel
    /// (deterministic; the test workhorse).
    pub fn sequential() -> Self {
        Self {
            kernel: KernelConfig::sequential(),
            ..Self::default()
        }
    }

    /// The synchronous case of the one path: a single chunk buffer, so
    /// nothing overlaps. What the benchmark's `ooc.pipeline_speedup`
    /// divides by.
    pub fn sync_baseline(kernel: KernelConfig) -> Self {
        Self {
            kernel,
            prefetch_depth: 1,
            ..Self::default()
        }
    }
}

/// The out-of-core engine. Owns the chunk and wire buffer pools, so
/// repeated runs over the same geometry allocate no chunk buffer after
/// the first; the tile staging list belongs to the run's
/// [`StageExecutor`]. Generic over the working precision
/// `R`; the default `f64` preserves the original data path byte for
/// byte.
pub struct OocSimulator<R: SweepDispatch = f64> {
    pub config: OocConfig,
    chunk_pool: BufferPool<R>,
    wire_pool: BufferPool<R>,
}

impl<R: SweepDispatch> Default for OocSimulator<R> {
    fn default() -> Self {
        Self::new(OocConfig::default())
    }
}

impl<R: SweepDispatch> OocSimulator<R> {
    pub fn new(config: OocConfig) -> Self {
        Self {
            config,
            chunk_pool: BufferPool::default(),
            wire_pool: BufferPool::default(),
        }
    }

    /// Execute `plan.schedule` against the chunk store — the checkpoint
    /// policy's directory when one is configured, a fresh self-cleaning
    /// [`ScratchDir`] otherwise: the run driver ([`drive`]) over the
    /// `Files` store, one streaming pass per stage (module docs), and, on
    /// request, gather the full state in logical order (small n).
    ///
    /// `stop_after = Some(u)` (requires a checkpoint policy) returns
    /// [`SimError::InjectedStop`] right after pass `u − 1` published the
    /// manifest naming unit `u`. A plan the driver rejects is
    /// [`std::io::ErrorKind::InvalidInput`], a rejected manifest or chunk
    /// digest [`SimError::Checkpoint`], any other IO failure
    /// [`SimError::Io`].
    pub fn run_plan(
        &mut self,
        plan: &BackendPlan,
        gather: bool,
        stop_after: Option<usize>,
    ) -> Result<BackendOutcome<R>, SimError> {
        let Self {
            config,
            chunk_pool,
            wire_pool,
        } = self;
        let config = &*config;
        let track = &config.telemetry.track("ooc.compute");
        let _run_span = track.span("run");
        let scratch_dir;
        let dir = match &config.checkpoint {
            Some(cp) => cp.dir.clone(),
            None => {
                scratch_dir = ScratchDir::new("run");
                scratch_dir.path().to_path_buf()
            }
        };
        // The directory is the chunk store: a dead one is the store's IO
        // failure, before the driver looks for a manifest in it.
        std::fs::create_dir_all(&dir)?;
        let codec = config.compress.name();
        let g = plan.schedule.n_qubits - plan.schedule.local_qubits;
        let spec = RunSpec {
            engine: "ooc",
            plan,
            codec: &codec,
            n_parts: 1 << g,
            // One compute thread applies the stage chunk after chunk.
            at_once: 1,
            kernel: config.kernel,
            tile_qubits: config.tile_qubits,
            telemetry: &config.telemetry,
            track,
            checkpoint: config.checkpoint.as_ref(),
        };
        // The pools are prewarmed once the driver has accepted the plan:
        // `depth` chunk buffers feed the pipeline, and wire buffers stage
        // all-to-all pieces, so only a plan with a swap has any. That makes
        // the passes themselves miss-free (`io.buffer_allocs` counts any
        // slip).
        let opened = drive(spec, stop_after, gather, |cursor, digests| {
            let (l, codec) = (plan.schedule.local_qubits, config.compress);
            let store = match cursor {
                0 => ChunkStore::create_empty_with(&dir, l, g, codec).map_err(io_to_sim)?,
                _ => ChunkStore::open_named(&dir, l, g, cursor, digests, codec),
            };
            let depth = config.prefetch_depth.max(1);
            let wires = (2 * depth).min(store.n_chunks());
            chunk_pool.ensure_len(store.chunk_len());
            wire_pool.ensure_len(store.chunk_len() >> g);
            chunk_pool.prewarm(depth);
            if plan.schedule.stages.iter().any(|s| s.swap.is_some()) {
                wire_pool.prewarm(wires);
            }
            let allocs0 = chunk_pool.allocs() + wire_pool.allocs();
            Ok(Files {
                store,
                config,
                plan,
                chunk_pool,
                wire_pool,
                track,
                depth,
                wires,
                allocs0,
                sweep: SweepStats::default(),
                partials: None,
                runs: 0,
            })
        });
        opened.map(|(out, _)| out)
    }
}

/// The out-of-core [`PartitionStore`]: `2^g` chunk files in two
/// generations, each stage one streaming pass over them (module docs).
struct Files<'a, R: SweepDispatch> {
    store: ChunkStore<R>,
    config: &'a OocConfig,
    plan: &'a BackendPlan,
    chunk_pool: &'a mut BufferPool<R>,
    wire_pool: &'a mut BufferPool<R>,
    track: &'a TrackHandle,
    /// Chunk buffers in flight, and wire buffers of a scattering pass.
    depth: usize,
    wires: usize,
    /// Pool misses before the first pass: the run's `buffer_allocs` are
    /// the misses past it.
    allocs0: u64,
    sweep: SweepStats,
    /// Per-chunk reduction partials of the swap-free last stage, folded
    /// into its pass and `tree_sum`med at the end: the chunk is the rank
    /// analogue, so this reproduces the in-memory engine's `norm_entropy`
    /// and recursive-doubling all-reduce bit for bit. `None` until that
    /// pass ran.
    partials: Option<Vec<(f64, f64)>>,
    /// Stages executed, one pass each.
    runs: usize,
}

impl<R: SweepDispatch> PartitionStore<R> for Files<'_, R> {
    /// Pass `si`, for each chunk, takes its source — read through the
    /// gather-unpermute half of swap `si − 1` — applies stage `si`, and
    /// then either the permute-scatter half of swap `si` into the next
    /// generation's files or — on the last stage — the final chunk write
    /// with the norm/entropy reduction folded in. Piece `s` of destination
    /// chunk `d` is `chunk_s[p⁻¹(d·piece + t)]` ([`generation_layout`]).
    fn run_stage(
        &mut self,
        si: usize,
        exec: &StageExecutor<R>,
    ) -> Result<Option<Vec<u64>>, SimError> {
        let schedule = &self.plan.schedule;
        let (track, telemetry) = (self.track, &self.config.telemetry);
        let threads = self.config.kernel.threads;
        let n_chunks = self.store.n_chunks();
        let piece = self.store.chunk_len() / n_chunks;
        let _ss = track.span_id("stage", si as u64);
        // The one layout of every store: the read puts file offset `y` of
        // generation `si` at `p⁻¹(y)`, and the scatter assembles generation
        // `si + 1` as `buf[p⁻¹(·)]` (`None`: an identity `p`, a plain copy).
        let unpermute = generation_layout(schedule, si);
        let scatter = generation_layout(schedule, si + 1);
        let swaps = schedule.stages[si].swap.is_some();
        let source = match si {
            0 => PassSource::Start {
                uniform: self.plan.init_uniform,
            },
            _ => PassSource::Live,
        };
        let cfg = PassConfig {
            source,
            unpermute,
            depth: self.depth,
            wires: if swaps { self.wires } else { 0 },
            digest: self.config.checkpoint.is_some(),
            telemetry: telemetry.clone(),
        };
        let sweep = &mut self.sweep;
        let mut partials = vec![(0.0, 0.0); n_chunks];
        // `swap_ns` gets one sample per swap, from the unit the swap
        // closes: its permute-scatter half. (The gather-unpermute half is
        // the next pass's read, under `unpermute` spans on the prefetch
        // track.)
        let mut scatter_t = Duration::ZERO;
        let digests = run_pass(
            &mut self.store,
            self.chunk_pool,
            self.wire_pool,
            &cfg,
            |c, mut buf, sink| {
                {
                    let _cs = track.span_timed("compute", c as u64, "stage_apply_ns");
                    exec.apply(si..si + 1, &mut buf, c, sweep);
                }
                if !swaps {
                    // Last stage: fold the final reduction into the pass —
                    // it costs no extra traversal.
                    partials[c] = norm_entropy(&buf, threads);
                    sink.retire(Dest::Chunk(c), buf);
                    return Ok(());
                }
                // Fused permute-scatter: this chunk's permuted piece for
                // destination `dst` lands at offset `c·piece` of `dst` in
                // the next generation, behind the one this pass still
                // reads.
                let _s = track.span_id("scatter", c as u64);
                let t = Instant::now();
                for dst in 0..n_chunks {
                    let mut wire = sink.take_wire()?;
                    match &scatter {
                        None => wire.copy_from_slice(&buf[dst * piece..(dst + 1) * piece]),
                        Some(inv) => par_gather(&buf, &mut wire, inv, dst * piece, threads),
                    }
                    let off = c * piece;
                    sink.retire(Dest::Piece { c: dst, off }, wire);
                }
                scatter_t += t.elapsed();
                sink.retire(Dest::Nowhere, buf);
                Ok(())
            },
        )
        .map_err(io_to_sim)?;
        self.runs += 1;
        match swaps {
            true => telemetry.record_duration_ns("swap_ns", scatter_t.as_nanos() as u64),
            false => self.partials = Some(partials),
        }
        let Some(digests) = digests else {
            return Ok(None);
        };
        let _s = track.span_timed("checkpoint.write", si as u64, "checkpoint_ns");
        self.store.sync().map_err(io_to_sim)?;
        Ok(Some(digests))
    }

    /// The `live.ooc.*` gauges: the prefetch/compute/writeback thread
    /// split, overlap fraction, and cumulative disk traffic so far.
    fn gauges(&self, m: &MetricsRegistry) {
        let io = self.store.stats();
        for (gauge, value) in [
            ("io_wait_seconds", io.io_wait_seconds),
            ("compute_seconds", io.compute_seconds),
            ("read_seconds", io.read_seconds),
            ("write_seconds", io.write_seconds),
            ("overlap_fraction", io.overlap_fraction()),
            ("bytes_read", io.bytes_read as f64),
            ("bytes_written", io.bytes_written as f64),
        ] {
            m.gauge_set(&format!("live.ooc.{gauge}"), value);
        }
    }

    fn finish(&mut self, gather: bool) -> Result<BackendOutcome<R>, SimError> {
        let threads = self.config.kernel.threads;
        let partials = match self.partials.take() {
            Some(partials) => partials,
            None => {
                // Resume of a finished run: no pass is left to fold the
                // reduction into, so read the named final chunks once,
                // each checked as it is read. Bitwise identical to the
                // folded reduction — same bytes, same fold order.
                let mut buf = self.chunk_pool.get();
                let partials = (0..self.store.n_chunks())
                    .map(|c| {
                        self.store.read_chunk_into(c, &mut buf)?;
                        Ok(norm_entropy(&buf, threads))
                    })
                    .collect::<std::io::Result<_>>();
                self.chunk_pool.put(buf);
                self.store.count_traversal();
                partials.map_err(io_to_sim)?
            }
        };
        let (norm, entropy) = tree_sum(partials);
        let mut io = self.store.stats();
        io.buffer_allocs = self.chunk_pool.allocs() + self.wire_pool.allocs() - self.allocs0;
        if let Some(m) = self.config.telemetry.metrics() {
            io.publish_into(m, "ooc.io");
            m.counter_add("ooc.runs", self.runs as u64);
            m.counter_add("ooc.compressed_bytes", io.bytes_written);
            m.gauge_set("ooc.compression_ratio", io.compression_ratio());
        }
        let state = gather
            .then(|| self.store.to_vec())
            .transpose()
            .map_err(io_to_sim)?;
        let mapping = self.plan.schedule.final_mapping();
        Ok(BackendOutcome {
            norm,
            entropy,
            sim_seconds: 0.0,
            stats: BackendStats::Ooc {
                io,
                sweep: self.sweep,
                runs: self.runs,
            },
            state: state.map(|s| physical_to_logical(&s, mapping)),
        })
    }
}

/// Map an OOC engine IO failure onto the typed [`SimError`] surface.
/// A named chunk the store rejects ([`ChunkStore::open_named`]) or an
/// undecodable frame surfaces as `InvalidData`: normalize it to the typed
/// checkpoint error a rejected manifest is, so callers match one variant
/// for "durable state rejected" on every backend. Everything else stays
/// an IO error.
fn io_to_sim(e: std::io::Error) -> SimError {
    if e.kind() == std::io::ErrorKind::InvalidData {
        return SimError::Checkpoint(e.to_string());
    }
    SimError::Io(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunkstore::IoStats;
    use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
    use qsim_circuit::Circuit;
    use qsim_core::single::{strip_initial_hadamards, SingleNodeSimulator};
    use qsim_core::{Backend, DistBackend, DistConfig, DistSimulator};
    use qsim_sched::{plan, Schedule, SchedulerConfig};
    use qsim_util::c64;
    use qsim_util::complex::max_dist;

    fn sequential() -> OocSimulator {
        OocSimulator::new(OocConfig::sequential())
    }

    /// Run a hand-planned schedule in a scratch store, state gathered.
    fn run(
        sim: &mut OocSimulator,
        exec: &Circuit,
        schedule: &Schedule,
        uniform: bool,
    ) -> Result<BackendOutcome, SimError> {
        let plan = BackendPlan::from_schedule(exec.clone(), schedule.clone(), uniform);
        sim.run_plan(&plan, true, None)
    }

    fn ooc_stats(out: &BackendOutcome) -> (&IoStats, usize) {
        match &out.stats {
            BackendStats::Ooc { io, runs, .. } => (io, *runs),
            other => panic!("ooc run reported {} stats", other.engine()),
        }
    }

    /// The distributed engine on the same hand-planned schedule: the
    /// oracle for state, norm and entropy.
    fn dist_oracle(
        exec: &Circuit,
        schedule: &Schedule,
        uniform: bool,
    ) -> Result<BackendOutcome, SimError> {
        let mut dist = DistBackend::new(DistSimulator::new(DistConfig {
            n_ranks: 1 << (schedule.n_qubits - schedule.local_qubits),
            kernel: KernelConfig::sequential(),
            gather_state: true,
            ..Default::default()
        }));
        let plan = BackendPlan::from_schedule(exec.clone(), schedule.clone(), uniform);
        Backend::<f64>::run(&mut dist, &plan)
    }

    fn at_depth(prefetch_depth: usize) -> OocSimulator {
        OocSimulator::new(OocConfig {
            prefetch_depth,
            ..OocConfig::sequential()
        })
    }

    #[test]
    fn one_traversal_per_stage_at_every_depth() -> Result<(), SimError> {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 3,
            cols: 3,
            depth: 20,
            seed: 2,
        });
        let (exec, uniform) = strip_initial_hadamards(&c);
        let schedule = plan(&exec, &SchedulerConfig::distributed(7, 3));
        let swaps = schedule.n_swaps() as u64;
        assert!(swaps >= 1, "want several stages");
        let want = dist_oracle(&exec, &schedule, uniform)?;
        let single = SingleNodeSimulator::default().try_run_t(&c)?;

        for depth in [1usize, 2, 3, 4] {
            let mut sim = at_depth(depth);
            let out = run(&mut sim, &exec, &schedule, uniform)?;
            let (io, runs) = ooc_stats(&out);
            // `depth` buffers circulate (one at depth 1, where nothing
            // can overlap); the unpermute rides in the read and holds
            // no chunk buffer of its own.
            assert_eq!(sim.chunk_pool.allocs(), depth as u64);
            assert_eq!(io.buffer_allocs, 0, "nothing beyond the prewarm");
            assert_eq!(runs, schedule.stages.len(), "one unit per stage");
            // One traversal per stage: both halves of every swap ride
            // inside the passes around it.
            assert_eq!(io.traversals, swaps + 1, "depth {depth}");
            assert_eq!(out.state, want.state, "depth {depth}");
            assert_eq!(out.norm.to_bits(), want.norm.to_bits(), "depth {depth}");
            assert_eq!(
                out.entropy.to_bits(),
                want.entropy.to_bits(),
                "depth {depth}"
            );
            assert!(max_dist(out.state.as_ref().unwrap(), single.state.amplitudes()) < 1e-10);
        }
        Ok(())
    }

    #[test]
    fn io_traffic_is_constant_per_swap() -> Result<(), SimError> {
        // The §5 argument: disk traffic scales with swaps, not gates —
        // and at exactly the all-to-all's own minimum. Each swap costs
        // one state write (scatter) and the stage after it one read and
        // one write; the start state is never written and the final
        // reduction is folded into the last stage.
        let c = supremacy_circuit(&SupremacySpec {
            rows: 3,
            cols: 4,
            depth: 25,
            seed: 1,
        });
        let (exec, uniform) = strip_initial_hadamards(&c);
        // A checkpoint changes none of it: the commit publishes the
        // digests the writer took and reads nothing back.
        let state_bytes = (1u64 << 12) * 16;
        for g in [1u32, 2, 3] {
            let schedule = plan(&exec, &SchedulerConfig::distributed(12 - g, 4));
            let swaps = schedule.n_swaps() as u64;
            assert!(swaps >= 1, "g={g}: want a swap to count");
            let plan = BackendPlan::from_schedule(exec.clone(), schedule, uniform);
            let dir = ScratchDir::new("traffic_ckpt");
            for checkpoint in [None, Some(CheckpointPolicy::new(dir.path()))] {
                let at = format!("g={g}, checkpoint {}", checkpoint.is_some());
                let mut sim = OocSimulator::new(OocConfig {
                    checkpoint,
                    ..OocConfig::sequential()
                });
                let out = sim.run_plan(&plan, false, None)?;
                let (io, runs) = ooc_stats(&out);
                assert_eq!(
                    io.logical_bytes_read + io.logical_bytes_written,
                    (2 * swaps + 1) * state_bytes,
                    "{at}: 2S + 1 state transfers, exactly"
                );
                assert_eq!(io.logical_bytes_read, swaps * state_bytes, "{at}");
                assert_eq!(io.bytes_read, io.logical_bytes_read, "{at}");
                assert_eq!(runs as u64, swaps + 1, "{at}");
                assert_eq!(io.traversals, swaps + 1, "{at}");
            }
        }
        Ok(())
    }

    #[test]
    fn op_free_schedule_leaves_a_readable_store() -> Result<(), SimError> {
        // Nothing to apply: the single pass synthesises the start state,
        // reduces it and writes it, so the gather finds chunk files.
        for uniform in [true, false] {
            let circ = Circuit::new(5);
            let schedule = plan(&circ, &SchedulerConfig::distributed(3, 2));
            let out = run(&mut sequential(), &circ, &schedule, uniform)?;
            let want = if uniform {
                vec![c64::new(1.0 / 32f64.sqrt(), 0.0); 32]
            } else {
                let mut v = vec![c64::zero(); 32];
                v[0] = c64::one();
                v
            };
            assert_eq!(out.state.as_ref().unwrap(), &want);
            let (io, runs) = ooc_stats(&out);
            assert_eq!((runs, io.traversals), (1, 1));
            assert_eq!(io.logical_bytes_read, 0);
            assert!((out.norm - 1.0).abs() < 1e-12);
        }
        Ok(())
    }

    #[test]
    fn repeated_runs_reuse_pooled_buffers() -> Result<(), SimError> {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 2,
            cols: 3,
            depth: 12,
            seed: 4,
        });
        let (exec, uniform) = strip_initial_hadamards(&c);
        let schedule = plan(&exec, &SchedulerConfig::distributed(4, 3));
        let mut sim = sequential();
        let first = run(&mut sim, &exec, &schedule, uniform)?;
        let second = run(&mut sim, &exec, &schedule, uniform)?;
        assert_eq!(
            ooc_stats(&second).0.buffer_allocs,
            0,
            "second run over the same geometry must be pool-hit only"
        );
        assert_eq!(first.norm, second.norm);
        Ok(())
    }

    /// A swap-free plan scatters nothing, so it makes no wire buffer:
    /// none prewarmed, none taken by a pass, on a first run or a repeat.
    #[test]
    fn swap_free_runs_make_no_wire_buffers() -> Result<(), SimError> {
        let mut circ = Circuit::new(6);
        circ.h(0).sqrt_x(3).cz(0, 1).t(2).cz(1, 3);
        let schedule = plan(&circ, &SchedulerConfig::distributed(4, 3));
        assert_eq!(schedule.n_swaps(), 0, "every gate is local");
        let mut sim = sequential();
        for rep in 0..2 {
            let out = run(&mut sim, &circ, &schedule, true)?;
            assert_eq!(ooc_stats(&out).0.buffer_allocs, 0, "run {rep}");
            assert_eq!(sim.wire_pool.allocs(), 0, "run {rep}");
        }
        Ok(())
    }

    #[test]
    fn zero_state_init() -> Result<(), SimError> {
        let mut circ = Circuit::new(4);
        circ.t(0).cz(0, 3);
        let schedule = plan(&circ, &SchedulerConfig::distributed(3, 2));
        let out = run(&mut sequential(), &circ, &schedule, false)?;
        assert!((out.state.as_ref().unwrap()[0] - c64::one()).abs() < 1e-12);
        assert!((out.norm - 1.0).abs() < 1e-12);
        Ok(())
    }
}
