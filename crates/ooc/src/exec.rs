//! Out-of-core schedule execution.
//!
//! The distributed engine's rank loop with chunk files in place of
//! ranks, over the same unit and inside the same run frame ([`Run`]):
//! one *stage*, with the swap that closes it, is one streaming pass, the
//! closure of [`Run::units`]. Each pass streams every chunk once through
//! the prefetch/compute/writeback pipeline of `crate::pipeline`
//! (`read(c+1)` / `write(c−1)` hidden behind `compute(c)`, pooled aligned
//! buffers, zero steady-state allocations), and each chunk residency
//! applies the stage through `qsim_core::exec`'s [`StageExecutor`],
//! prepared once per pass and reused for all 2^g chunks (the chunk index
//! *is* the rank id). [`OocConfig::prefetch_depth`] is the only
//! pass-shape value: at depth 1 a single chunk buffer circulates and
//! read → compute → write serialise — the synchronous case of the same
//! path ([`OocConfig::sync_baseline`]).
//!
//! The start state is synthesised in the first pass's prefetch stage
//! instead of being written and read back, and each global-to-local swap
//! — the same data path as the in-memory `perform_swap`, with file
//! ranges as the network — rides in the two passes around it. Its fused
//! permute-scatter closes the stage before it (each computed chunk's
//! permuted piece for every destination goes straight into the
//! destination's file of the next generation); its fused gather-unpermute
//! opens the stage after it (skipped entirely when the slots already sit
//! at the top positions). See [`OocSimulator::run_plan`].
//!
//! Pass `u` reads generation `u` of the chunk store and writes generation
//! `u + 1` into the other file parity, so it never overwrites what it
//! reads. That is also the whole checkpoint protocol: with a
//! [`CheckpointPolicy`] each pass ends by fsyncing and digesting the
//! generation it wrote, and the frame publishes the manifest naming it
//! ([`Run::publish`]) — the flip is the commit. A crash anywhere in pass `u` leaves the manifest naming
//! generation `u`, intact, beside garbage that the replay of pass `u`
//! overwrites.
//!
//! Disk traffic for a schedule with `S` swaps is thus `2S + 1` state
//! transfers — one write per swap, one read and one write per later stage
//! — which is the minimum an all-to-all through files can take, and why
//! the paper's 2-swap schedules make SSD-resident states viable (§5).
//! The final norm/entropy reduction is folded into the last stage's pass,
//! so it costs no extra traversal.

use crate::chunkstore::{BufferPool, ChunkStore};
use crate::pipeline::{run_pass, Dest, PassConfig, PassSource};
use crate::scratch::ScratchDir;
use qsim_compress::Codec;
use qsim_core::checkpoint::{CheckpointPolicy, RunKey};
use qsim_core::dist::{physical_to_logical, slots_to_top_permutation};
use qsim_core::exec::{resolve_tile_qubits, StageExecutor};
use qsim_core::observables::{norm_entropy, tree_sum};
use qsim_core::run::Run;
use qsim_core::{BackendOutcome, BackendPlan, BackendStats, SimError};
use qsim_kernels::apply::KernelConfig;
use qsim_kernels::parallel::par_gather;
use qsim_kernels::{SweepDispatch, SweepStats};
use qsim_sched::SwapOp;
use qsim_telemetry::Telemetry;
use qsim_util::align::AlignedVec;
use qsim_util::complex::Complex;
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
    /// [`resolve_tile_qubits`]'s default.
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

/// The out-of-core engine. Owns the buffer pools, so repeated runs over
/// the same geometry are allocation-free after the first. Generic over
/// the working precision `R`; the default `f64` preserves the original
/// data path byte for byte.
pub struct OocSimulator<R: SweepDispatch = f64> {
    pub config: OocConfig,
    chunk_pool: BufferPool<R>,
    wire_pool: BufferPool<R>,
    /// Double-buffer for the unpermute pass (the `+1` chunk buffer).
    scratch: Option<AlignedVec<Complex<R>>>,
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
            scratch: None,
        }
    }

    /// Execute `plan.schedule` against the chunk store — the checkpoint
    /// policy's directory when one is configured, a fresh self-cleaning
    /// [`ScratchDir`] otherwise — inside the run frame ([`Run`]), one
    /// streaming pass per stage (module docs), and, on request, gather the
    /// full state in logical order (small n).
    ///
    /// Pass `s`, for each chunk, takes its source, applies the
    /// gather-unpermute half of swap `s − 1`, stage `s`, and then either
    /// the permute-scatter half of swap `s` into the next generation's
    /// files or — on the last stage — the final chunk write with the
    /// norm/entropy reduction folded in. Writing `p` for a swap's
    /// slots→top permutation, destination chunk `d` must end up holding
    /// `final[x] = buf[p(x)]` where piece `s` of its exchange buffer is
    /// `buf[s·piece + t] = chunk_s[p⁻¹(d·piece + t)]`.
    ///
    /// `stop_after = Some(u)` (requires a checkpoint policy) returns
    /// [`SimError::InjectedStop`] right after pass `u − 1` published the
    /// manifest naming unit `u`. A plan the frame rejects is
    /// [`std::io::ErrorKind::InvalidInput`], a rejected manifest or chunk
    /// digest [`SimError::Checkpoint`], any other IO failure
    /// [`SimError::Io`].
    pub fn run_plan(
        &mut self,
        plan: &BackendPlan,
        gather: bool,
        stop_after: Option<usize>,
    ) -> Result<BackendOutcome<R>, SimError> {
        let schedule = &plan.schedule;
        let stages = &schedule.stages;
        let l = schedule.local_qubits;
        let g = schedule.n_qubits - l;
        let telemetry = self.config.telemetry.clone();
        let track = telemetry.track("ooc.compute");
        let _run_span = track.span("run");
        let checkpoint = self.config.checkpoint.clone();
        let scratch_dir;
        let dir = match &checkpoint {
            Some(cp) => cp.dir.clone(),
            None => {
                scratch_dir = ScratchDir::new("run");
                scratch_dir.path().to_path_buf()
            }
        };
        // The directory is the chunk store: a dead one is the store's IO
        // failure, before the frame looks for a manifest in it.
        std::fs::create_dir_all(&dir)?;
        let codec = self.config.compress;
        let codec_name = codec.name();
        let key = RunKey {
            engine: "ooc",
            schedule,
            precision: R::NAME,
            codec: &codec_name,
            init_uniform: plan.init_uniform,
            n_artifacts: 1 << g,
        };
        let kernel = self.config.kernel;
        let tile = resolve_tile_qubits(self.config.tile_qubits, l, kernel.threads);
        let t0 = Instant::now();
        let run = Run::<R>::begin(
            key,
            &telemetry,
            &track,
            checkpoint.as_ref(),
            stop_after,
            tile,
        )?;

        let out = (|| -> Result<BackendOutcome<R>, SimError> {
            let mut store = match run.resumed() {
                Some((dir, digests)) => {
                    ChunkStore::open_verified_with(dir, l, g, run.cursor(), digests, codec)
                }
                None => ChunkStore::create_empty_with(&dir, l, g, codec),
            }
            .map_err(io_to_sim)?;
            let n_chunks = store.n_chunks();
            let chunk_len = store.chunk_len();
            let piece = chunk_len / n_chunks;

            // Pool setup: `depth` chunk buffers feed the pipeline, one
            // more is the unpermute scratch; wire buffers stage all-to-all
            // pieces. Prewarming here makes the passes themselves
            // miss-free (`io.buffer_allocs` counts any slip).
            let depth = self.config.prefetch_depth.max(1);
            let wires = (2 * depth).min(n_chunks);
            self.chunk_pool.ensure_len(chunk_len);
            self.wire_pool.ensure_len(piece);
            if self.scratch.as_ref().is_some_and(|s| s.len() != chunk_len) {
                self.scratch = None;
            }
            // The engine-held unpermute scratch counts toward the chunk
            // population: prewarm one extra only when it must be
            // (re)built, so a repeat run over the same geometry prewarms
            // exactly what the free list already holds.
            self.chunk_pool
                .prewarm(depth + usize::from(self.scratch.is_none()));
            self.wire_pool.prewarm(wires);
            let chunk_pool = &mut self.chunk_pool;
            let wire_pool = &mut self.wire_pool;
            // Double-buffers the unpermute gather, trading places with the
            // pipeline's chunk buffer on every use.
            let scratch = self.scratch.get_or_insert_with(|| chunk_pool.get());
            let allocs0 = chunk_pool.allocs() + wire_pool.allocs();

            let mut sweep = SweepStats::default();
            // Per-chunk reduction partials, `tree_sum`med afterwards: the
            // chunk is the rank analogue, so this reproduces the
            // distributed engine's `norm_entropy` + recursive-doubling
            // all-reduce bit for bit.
            let mut partials: Vec<(f64, f64)> = vec![(0.0, 0.0); n_chunks];
            let slots_to_top = |s: &SwapOp| slots_to_top_permutation(&s.local_slots, l);
            run.units(true, |si| {
                let stage = &stages[si];
                let _ss = track.span_id("stage", si as u64);
                let exec = StageExecutor::new(std::slice::from_ref(stage), l, &kernel, Some(tile));
                let prev_swap = si.checked_sub(1).and_then(|p| stages[p].swap.as_ref());
                // `final[x] = buf[p(x)]` places the previous swap's
                // incoming qubits at its slots; an identity `p` means the
                // written assembly is already final.
                let unpermute = prev_swap.map(slots_to_top).filter(|p| !p.is_identity());
                let scatter = stage.swap.as_ref().map(|s| slots_to_top(s).inverse());
                let source = match si {
                    0 => PassSource::Start {
                        uniform: plan.init_uniform,
                    },
                    _ => PassSource::Live,
                };
                let cfg = PassConfig {
                    source,
                    depth,
                    wires: if scatter.is_some() { wires } else { 0 },
                    telemetry: telemetry.clone(),
                };
                // `swap_ns` gets one sample per swap, from the unit the
                // swap closes: its permute-scatter half. (The
                // gather-unpermute half opens the next pass, under its
                // `unpermute` spans.)
                let mut scatter_t = Duration::ZERO;
                run_pass(
                    &mut store,
                    chunk_pool,
                    wire_pool,
                    &cfg,
                    |c, mut buf, sink| {
                        if let Some(perm) = &unpermute {
                            let _s = track.span_id("unpermute", c as u64);
                            par_gather(&buf, scratch, |x| perm.apply(x));
                            std::mem::swap(&mut buf, scratch);
                        }
                        {
                            let _cs = track.span_timed("compute", c as u64, "stage_apply_ns");
                            exec.apply(0..1, &mut buf, c, &mut sweep);
                        }
                        let Some(inv) = &scatter else {
                            // Last stage: fold the final reduction into the
                            // pass — it costs no extra traversal.
                            partials[c] = norm_entropy(&buf);
                            sink.retire(Dest::Chunk(c), buf);
                            return Ok(());
                        };
                        // Fused permute-scatter: this chunk's permuted piece
                        // for destination `dst` lands at offset `c·piece` of
                        // `dst` in the next generation, behind the one this
                        // pass still reads.
                        let _s = track.span_id("scatter", c as u64);
                        let t = Instant::now();
                        for dst in 0..n_chunks {
                            let mut wire = sink.take_wire()?;
                            if inv.is_identity() {
                                wire.copy_from_slice(&buf[dst * piece..(dst + 1) * piece]);
                            } else {
                                par_gather(&buf, &mut wire, |t| inv.apply(dst * piece + t));
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
                if scatter.is_some() {
                    telemetry.record_duration_ns("swap_ns", scatter_t.as_nanos() as u64);
                }
                if run.checkpoint_dir().is_some() {
                    let _s = track.span_timed("checkpoint.write", si as u64, "checkpoint_ns");
                    run.publish(si + 1, store.sync_digests().map_err(io_to_sim)?)?;
                }
                // The `live.ooc.*` gauges `/status` reads mid-run: the
                // prefetch/compute/writeback thread split, overlap
                // fraction, and cumulative disk traffic so far.
                if let Some(m) = telemetry.metrics() {
                    let io = store.stats();
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
                Ok(())
            })?;
            if run.cursor() >= stages.len() {
                // Resume of a finished run: no pass is left to fold the
                // reduction into, so read the final chunks once. Bitwise
                // identical to the folded reduction — same bytes, same
                // fold order.
                let mut buf = chunk_pool.get();
                for (c, partial) in partials.iter_mut().enumerate() {
                    store.read_chunk_into(c, &mut buf).map_err(io_to_sim)?;
                    *partial = norm_entropy(&buf);
                }
                chunk_pool.put(buf);
                store.count_traversal();
            }
            let (norm, entropy) = tree_sum(partials);
            let executed = stages.len().saturating_sub(run.cursor());

            let mut io = store.stats();
            io.buffer_allocs = chunk_pool.allocs() + wire_pool.allocs() - allocs0;
            let sim_seconds = t0.elapsed().as_secs_f64();
            if let Some(m) = telemetry.metrics() {
                io.publish_into(m, "ooc.io");
                m.counter_add("ooc.runs", executed as u64);
                m.counter_add("ooc.compressed_bytes", io.bytes_written);
                m.gauge_set("ooc.compression_ratio", io.compression_ratio());
            }
            let state = gather
                .then(|| store.to_vec())
                .transpose()
                .map_err(io_to_sim)?;
            Ok(BackendOutcome {
                norm,
                entropy,
                sim_seconds,
                stats: BackendStats::Ooc {
                    io,
                    sweep,
                    runs: executed,
                },
                state: state.map(|s| physical_to_logical(&s, schedule.final_mapping())),
            })
        })();
        run.end(out)
    }
}

/// Map an OOC engine IO failure onto the typed [`SimError`] surface.
/// A torn chunk (`ChunkStore::open_verified_with`) or an undecodable
/// frame surfaces as `InvalidData`: normalize it to the typed checkpoint
/// error the frame returns for a rejected manifest, so callers match one
/// variant for "durable state rejected" on every backend. Everything
/// else stays an IO error.
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

    #[test]
    fn ooc_matches_in_memory_engine() {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 3,
            cols: 3,
            depth: 16,
            seed: 5,
        });
        let single = SingleNodeSimulator::default().try_run_t(&c).unwrap();
        let (exec, uniform) = strip_initial_hadamards(&c);
        for g in [1u32, 2, 3] {
            let l = 9 - g;
            let schedule = plan(&exec, &SchedulerConfig::distributed(l, 3));
            schedule.verify(&exec);
            let out = run(&mut sequential(), &exec, &schedule, uniform).unwrap();
            let state = out.state.as_ref().unwrap();
            assert!(
                max_dist(state, single.state.amplitudes()) < 1e-10,
                "g={g}: {}",
                max_dist(state, single.state.amplitudes())
            );
            assert!((out.norm - 1.0).abs() < 1e-9);
            assert!((out.entropy - single.state.entropy()).abs() < 1e-8);
            assert!(
                out.stats.sweep().sweep_passes > 0,
                "compiled executor engaged"
            );
        }
    }

    /// The distributed engine on the same hand-planned schedule: the
    /// oracle for state, norm and entropy.
    fn dist_oracle(exec: &Circuit, schedule: &Schedule, uniform: bool) -> BackendOutcome {
        let mut dist = DistBackend::new(DistSimulator::new(DistConfig {
            n_ranks: 1 << (schedule.n_qubits - schedule.local_qubits),
            kernel: KernelConfig::sequential(),
            gather_state: true,
            ..Default::default()
        }));
        let plan = BackendPlan::from_schedule(exec.clone(), schedule.clone(), uniform);
        Backend::<f64>::run(&mut dist, &plan).unwrap()
    }

    fn at_depth(prefetch_depth: usize) -> OocSimulator {
        OocSimulator::new(OocConfig {
            prefetch_depth,
            ..OocConfig::sequential()
        })
    }

    #[test]
    fn one_traversal_per_stage_at_every_depth() {
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
        let want = dist_oracle(&exec, &schedule, uniform);
        let single = SingleNodeSimulator::default().try_run_t(&c).unwrap();

        for depth in [1usize, 3] {
            let out = run(&mut at_depth(depth), &exec, &schedule, uniform).unwrap();
            let (io, runs) = ooc_stats(&out);
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
    }

    #[test]
    fn every_depth_matches_dist_bitwise() {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 2,
            cols: 4,
            depth: 18,
            seed: 7,
        });
        let (exec, uniform) = strip_initial_hadamards(&c);
        let schedule = plan(&exec, &SchedulerConfig::distributed(6, 3));
        let oracle = dist_oracle(&exec, &schedule, uniform).state.unwrap();
        for depth in [1usize, 2, 4] {
            let mut sim = at_depth(depth);
            let out = run(&mut sim, &exec, &schedule, uniform).unwrap();
            assert_eq!(
                max_dist(out.state.as_ref().unwrap(), &oracle),
                0.0,
                "prefetch depth must not change a single bit (depth {depth})"
            );
            // `depth` buffers circulate (one at depth 1, where nothing
            // can overlap) beside the engine-held unpermute scratch.
            assert_eq!(sim.chunk_pool.allocs(), depth as u64 + 1);
            let (io, _) = ooc_stats(&out);
            assert_eq!(io.buffer_allocs, 0, "nothing beyond the prewarm");
            let f = io.overlap_fraction();
            assert!((0.0..=1.0).contains(&f), "depth {depth}: {f}");
        }
    }

    #[test]
    fn io_traffic_is_constant_per_swap() {
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
        let state_bytes = (1u64 << 12) * 16;
        for g in [1u32, 2, 3] {
            let schedule = plan(&exec, &SchedulerConfig::distributed(12 - g, 4));
            let swaps = schedule.n_swaps() as u64;
            assert!(swaps >= 1, "g={g}: want a swap to count");
            let plan = BackendPlan::from_schedule(exec.clone(), schedule, uniform);
            let out = sequential().run_plan(&plan, false, None).unwrap();
            let (io, runs) = ooc_stats(&out);
            assert_eq!(
                io.logical_bytes_read + io.logical_bytes_written,
                (2 * swaps + 1) * state_bytes,
                "g={g}: 2S + 1 state transfers, exactly"
            );
            assert_eq!(io.logical_bytes_read, swaps * state_bytes, "g={g}");
            assert_eq!(runs as u64, swaps + 1, "g={g}");
            assert_eq!(io.traversals, swaps + 1, "g={g}");
        }
    }

    #[test]
    fn op_free_schedule_leaves_a_readable_store() {
        // Nothing to apply: the single pass synthesises the start state,
        // reduces it and writes it, so the gather finds chunk files.
        for uniform in [true, false] {
            let circ = Circuit::new(5);
            let schedule = plan(&circ, &SchedulerConfig::distributed(3, 2));
            let out = run(&mut sequential(), &circ, &schedule, uniform).unwrap();
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
    }

    #[test]
    fn repeated_runs_reuse_pooled_buffers() {
        let c = supremacy_circuit(&SupremacySpec {
            rows: 2,
            cols: 3,
            depth: 12,
            seed: 4,
        });
        let (exec, uniform) = strip_initial_hadamards(&c);
        let schedule = plan(&exec, &SchedulerConfig::distributed(4, 3));
        let mut sim = sequential();
        let first = run(&mut sim, &exec, &schedule, uniform).unwrap();
        let second = run(&mut sim, &exec, &schedule, uniform).unwrap();
        assert_eq!(
            ooc_stats(&second).0.buffer_allocs,
            0,
            "second run over the same geometry must be pool-hit only"
        );
        assert_eq!(first.norm, second.norm);
    }

    #[test]
    fn zero_state_init() {
        let mut circ = Circuit::new(4);
        circ.t(0).cz(0, 3);
        let schedule = plan(&circ, &SchedulerConfig::distributed(3, 2));
        let out = run(&mut sequential(), &circ, &schedule, false).unwrap();
        assert!((out.state.as_ref().unwrap()[0] - c64::one()).abs() < 1e-12);
        assert!((out.norm - 1.0).abs() < 1e-12);
    }
}
