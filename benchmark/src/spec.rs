//! The benchmark's fixed vocabulary: workloads, scales and metric names.
//!
//! `BENCHMARK.json` at the repository root mirrors these tables; the
//! smoke test asserts the two stay equal, so a name is defined once here
//! and every later issue refers to it.

use qsim_compress::Codec;

/// Which engine a workload drives through `Box<dyn Backend<R>>`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Engine {
    /// `SingleBackend`, `threads` kernel threads.
    Single { threads: usize },
    /// `DistBackend`, `ranks` in-process ranks × 1 kernel thread.
    Dist { ranks: usize },
    /// `OocBackend`, `chunks` chunk files, default pipelined config.
    Ooc { chunks: usize, codec: Codec },
    /// No amplitudes: `plan_schedule` at the paper's 45-qubit scale.
    Plan,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub engine: Engine,
    pub depth: u32,
    pub f32: bool,
    pub why: &'static str,
}

/// The six workloads. Every amplitude workload runs the same grid (see
/// [`Scale`]) so their wall-clocks and entropies are directly comparable;
/// they differ in which crates do the work.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "single_n21_d25",
        engine: Engine::Single { threads: 2 },
        depth: 25,
        f32: false,
        why: "kernels + core.exec do ~all the work; net, ooc and compress do none: the executor-vs-kernel gap lives here",
    },
    Workload {
        name: "single_n21_d25_f32",
        engine: Engine::Single { threads: 2 },
        depth: 25,
        f32: true,
        why: "same circuit through the packed-f32 kernels: a gain for the f64 path that costs the f32 tier shows here",
    },
    Workload {
        name: "dist2_n21_d25",
        engine: Engine::Dist { ranks: 2 },
        depth: 25,
        f32: false,
        why: "adds net + the core.dist swap (pack, all-to-all, unpack); a swap-engine change moves this and no single_* row",
    },
    Workload {
        name: "ooc16_n21_d25",
        engine: Engine::Ooc { chunks: 16, codec: Codec::None },
        depth: 25,
        f32: false,
        why: "ooc chunk IO + pipeline at full stretch, codec bypassed, resident window well under the state size",
    },
    Workload {
        name: "ooc16_rle_n21_d10",
        engine: Engine::Ooc { chunks: 16, codec: Codec::ShuffleRle },
        depth: 10,
        f32: false,
        why: "same ooc path with compress on the IO threads over a compressible depth-10 state: encode time vs bytes saved",
    },
    Workload {
        name: "plan_n45_d25",
        engine: Engine::Plan,
        depth: 25,
        f32: false,
        why: "sched does all the work and kernels none, at the paper's 45-qubit scale: greedy plan + cost-guided search",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Problem sizes. `full` is what `BENCHMARK.json` measures; `smoke` is the
/// same code on tiny grids for `cargo test` (counts and names, no timing
/// claims).
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub name: &'static str,
    /// Grid of every amplitude workload.
    pub rows: u32,
    pub cols: u32,
    /// Grid and local-qubit count of the planning workload.
    pub plan_rows: u32,
    pub plan_cols: u32,
    pub plan_local: u32,
    /// Bytes per array of the triad/memcpy bandwidth ceilings.
    pub ceiling_bytes: usize,
    /// Bytes per rank of the bare all-to-all.
    pub a2a_bytes: usize,
}

pub const FULL: Scale = Scale {
    name: "full",
    rows: 3,
    cols: 7,
    plan_rows: 5,
    plan_cols: 9,
    plan_local: 30,
    ceiling_bytes: 256 << 20,
    a2a_bytes: 128 << 20,
};

pub const SMOKE: Scale = Scale {
    name: "smoke",
    rows: 3,
    cols: 4,
    plan_rows: 4,
    plan_cols: 5,
    plan_local: 14,
    ceiling_bytes: 1 << 20,
    a2a_bytes: 1 << 20,
};

pub fn scale(name: &str) -> Option<Scale> {
    [FULL, SMOKE].into_iter().find(|s| s.name == name)
}

/// Grid of the once-per-setup correctness check against the dense
/// Kronecker reference (`qsim_circuit::dense`).
pub const VERIFY_GRID: (u32, u32, u32) = (3, 3, 25);

/// Fresh processes whose set-up time is sampled per run (this one plus
/// `SETUP_SAMPLES − 1` children); `setup_s` is the fastest of them.
pub const SETUP_SAMPLES: usize = 5;

/// Timed repetitions never drop below this, however short `--seconds` is.
pub const MIN_REPS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median the metric may worsen by before `compare`
    /// (and the driver) call it a regression.
    pub bound: f64,
}

/// Every workload emits every one of these, and none is ever 0 (see the
/// README for what each means on the workloads it was not designed for).
///
/// Each metric's value is its smallest sample (`Summary::value`). The
/// bounds are sized for the driver's protocol, ten fresh processes on ten
/// different seeds, on a shared host: quiet, every timing spreads by under
/// 6 % (IQR / median over the ten values), but the host has episodes in
/// which whole runs are 15–30 % slower, fastest repetition included, so
/// the four timings take the contract's maximum. The two counters repeat
/// exactly for a given seed (`compare` demands equality); a single-node
/// plan has 6 or 7 sweep passes depending on the seed, hence the wide
/// bound on `slow_tier_bytes_per_amp`.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "plan_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "search_plan_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "slow_tier_bytes_per_amp",
        unit: "B/amp",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "stage_runs",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
];

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Layer = crate/module name. A workload reports 0 for a layer it does not
/// exercise. Sources and the end-to-end metric each one should move are in
/// the README's metric table.
pub const PER_LAYER: [PerLayer; 92] = [
    lo("circuit.gen_s", "s"),
    lo("circuit.gates", "count"),
    lo("sched.greedy_plan_s", "s"),
    lo("sched.search_plan_s", "s"),
    lo("sched.search_candidates", "count"),
    lo("sched.swaps", "count"),
    lo("sched.stages", "count"),
    lo("sched.clusters", "count"),
    hi("sched.gates_per_cluster", "gates"),
    lo("sched.model_predicted_s", "s"),
    lo("sched.model_err_frac", "frac"),
    hi("kernels.k1_lo_gflops", "GFLOP/s"),
    hi("kernels.k2_lo_gflops", "GFLOP/s"),
    hi("kernels.k3_lo_gflops", "GFLOP/s"),
    hi("kernels.k4_lo_gflops", "GFLOP/s"),
    hi("kernels.k5_lo_gflops", "GFLOP/s"),
    hi("kernels.k4_hi_gflops", "GFLOP/s"),
    hi("kernels.k4_lo_gflops_t1", "GFLOP/s"),
    hi("kernels.k4_lo_gflops_f32", "GFLOP/s"),
    hi("kernels.triad_gbps", "GB/s"),
    hi("kernels.memcpy_gbps", "GB/s"),
    hi("kernels.k1_frac_of_triad", "frac"),
    lo("kernels.autotune_s", "s"),
    lo("kernels.tile_qubits", "qubits"),
    lo("core.exec.compile_s", "s"),
    lo("core.exec.stage_s", "s"),
    lo("core.exec.stage_s_tuned", "s"),
    lo("core.exec.stage_s_t1", "s"),
    lo("core.exec.stage_s_f32", "s"),
    hi("core.exec.gflops", "GFLOP/s"),
    hi("core.exec.frac_of_kernel", "frac"),
    hi("core.exec.stream_gbps", "GB/s"),
    hi("core.exec.frac_of_triad", "frac"),
    lo("core.exec.sweep_passes", "count"),
    lo("core.exec.baseline_passes", "count"),
    lo("core.exec.bytes_streamed", "B"),
    hi("core.exec.tile_local_gates", "count"),
    lo("core.exec.fallback_gates", "count"),
    hi("core.exec.diagonals_folded", "count"),
    lo("core.single.sim_s", "s"),
    lo("core.single.init_s", "s"),
    lo("core.single.reduce_s", "s"),
    lo("core.single.t1_wall_s", "s"),
    hi("core.single.parallel_eff", "frac"),
    lo("core.single.decomp_residual_frac", "frac"),
    lo("core.single.f32_reported_norm_err", "abs"),
    lo("core.dist.swap_s", "s"),
    hi("core.dist.swap_gbps", "GB/s"),
    hi("core.dist.swap_frac_of_memcpy", "frac"),
    lo("core.dist.swap_bytes_copied", "B"),
    lo("core.dist.entropy_s", "s"),
    lo("core.dist.sim_s", "s"),
    lo("net.bytes_sent", "B"),
    lo("net.comm_s", "s"),
    lo("net.blocked_s", "s"),
    hi("net.overlap_frac", "frac"),
    lo("net.wire_allocs", "count"),
    hi("net.all_to_all_gbps", "GB/s"),
    lo("ooc.sim_s", "s"),
    lo("ooc.read_s", "s"),
    lo("ooc.write_s", "s"),
    lo("ooc.io_wait_s", "s"),
    lo("ooc.compute_s", "s"),
    hi("ooc.overlap_frac", "frac"),
    lo("ooc.traversals", "count"),
    lo("ooc.runs", "count"),
    lo("ooc.bytes_read", "B"),
    lo("ooc.bytes_written", "B"),
    lo("ooc.logical_bytes_written", "B"),
    lo("ooc.buffer_allocs", "count"),
    lo("ooc.store_create_s", "s"),
    hi("ooc.chunk_read_gbps", "GB/s"),
    hi("ooc.chunk_write_gbps", "GB/s"),
    hi("ooc.fs_write_gbps", "GB/s"),
    lo("ooc.sync_wall_s", "s"),
    hi("ooc.pipeline_speedup", "x"),
    hi("compress.enc_gbps_structured", "GB/s"),
    hi("compress.dec_gbps_structured", "GB/s"),
    hi("compress.ratio_structured", "x"),
    hi("compress.enc_gbps_dense", "GB/s"),
    hi("compress.dec_gbps_dense", "GB/s"),
    hi("compress.ratio_dense", "x"),
    lo("compress.encode_s", "s"),
    lo("compress.decode_s", "s"),
    hi("compress.ratio", "x"),
    lo("telemetry.overhead_frac", "frac"),
    lo("telemetry.spans", "count"),
    hi("telemetry.leaf_coverage", "frac"),
    lo("harness.traced_wall_s", "s"),
    lo("harness.untraced_wall_s", "s"),
    lo("harness.probe_s", "s"),
    lo("harness.bit_mismatch_reps", "count"),
];
