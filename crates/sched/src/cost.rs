//! Cost model for schedule search.
//!
//! The planner's greedy heuristics minimize swap *count*; the search
//! layer ([`crate::search`]) needs a single scalar that also weighs the
//! quantities a swap count cannot see — streaming passes of the tiled
//! executor and the per-stage overhead of every engine (one disk
//! traversal per stage out of core) — so that trading one resource for
//! another is a principled decision instead of a tie-break.
//! [`PlanResources`] extracts the machine-independent counts from a
//! schedule (swap bytes via [`CommStats`], stage passes and streamed
//! bytes via the sweep planner; a valid schedule has `n_swaps + 1`
//! stages); [`CostModel`] converts them to modeled seconds with
//! per-machine weights. There is one model and it measures nothing: the
//! weights are constants — [`CostModel::host`] for the machine a run is
//! on (kernel rate by vector width, recorded offline as the paper
//! benchmarks its generated kernels, §3.2), [`CostModel::cori_aries`]
//! for the paper's machine — so a plan, its ETA prior (priced by
//! [`CostModel::seconds`] on every engine) and a search outcome are
//! functions of (circuit, host class) alone.
//!
//! The model does not need to be *accurate* — only *monotone enough*
//! that ranking candidate plans by modeled seconds ranks them by real
//! cost. All weights are therefore simple bandwidth reciprocals plus
//! fixed per-pass overheads.

use crate::comm::CommStats;
use crate::schedule::Schedule;
use crate::sweep::{plan_stage_sweeps, DEFAULT_TILE_QUBITS};

/// Machine-independent resource counts of one schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanResources {
    /// Global-to-local swaps (the Fig. 5 metric).
    pub n_swaps: usize,
    /// Bytes through the slow tier per swap × swap count.
    pub swap_bytes: u64,
    /// Streaming passes of the tiled executor, summed over stages.
    pub stage_passes: usize,
    /// Bytes streamed through memory by those passes (passes × state
    /// bytes — every pass touches the whole register once).
    pub streamed_bytes: u64,
    /// Dense kernel flops: Σ over clusters of `8 · 2^k · 2^n` — the term
    /// that keeps `kmax` a genuine trade-off (a bigger cluster saves a
    /// pass but squares its matrix work).
    pub cluster_flops: u64,
    /// The same flops binned by cluster width (`flops_by_k[k]`, k ≥ 8
    /// folded into the last bin). Kernel efficiency is strongly
    /// k-dependent — small-k kernels are overhead-bound, so a plan with
    /// fewer *raw* flops in k=3 clusters can be slower than one with
    /// more flops in k=4 clusters; the per-k weights of [`CostModel`]
    /// capture that.
    pub flops_by_k: [u64; MAX_COST_K + 1],
}

/// Largest cluster width with its own flop-weight bin; wider clusters
/// (possible only via the single-wide-gate exception) share the top bin.
pub const MAX_COST_K: usize = 7;

/// Extract the resource counts of `schedule`. `amp_bytes` is 16 for f64
/// amplitudes, 8 for f32; `tile_qubits` is the tile budget the pass
/// counts are modeled under ([`DEFAULT_TILE_QUBITS`] unless the engine
/// config pins another — ranking is insensitive to the exact budget).
pub fn plan_resources(schedule: &Schedule, amp_bytes: u64, tile_qubits: u32) -> PlanResources {
    let n = schedule.n_qubits;
    let l = schedule.local_qubits;
    let n_swaps = schedule.n_swaps();
    let swap_bytes = if l < n {
        CommStats::new(n, l, 0, n_swaps, amp_bytes).scheduled_bytes()
    } else {
        0
    };
    let stage_passes: usize = schedule
        .stages
        .iter()
        .map(|s| plan_stage_sweeps(&s.ops, l, tile_qubits).passes.len())
        .sum();
    let mut cluster_flops = 0u64;
    let mut flops_by_k = [0u64; MAX_COST_K + 1];
    for stage in &schedule.stages {
        for op in &stage.ops {
            if let crate::schedule::StageOp::Cluster(c) = op {
                let f = 8u64 << (c.qubits.len() as u32 + n);
                cluster_flops += f;
                flops_by_k[c.qubits.len().min(MAX_COST_K)] += f;
            }
        }
    }
    let state_bytes = (1u64 << n) * amp_bytes;
    PlanResources {
        n_swaps,
        swap_bytes,
        stage_passes,
        // Each pass reads and writes the full register once.
        streamed_bytes: 2 * state_bytes * stage_passes as u64,
        cluster_flops,
        flops_by_k,
    }
}

/// Per-machine weights converting [`PlanResources`] to modeled seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Seconds per byte crossing the slow tier (network all-to-all or
    /// disk) during a full swap.
    pub swap_byte_seconds: f64,
    /// Seconds per byte streamed through memory by a compute pass.
    pub stream_byte_seconds: f64,
    /// Fixed overhead per streaming pass (tile scheduling, barriers).
    pub pass_seconds: f64,
    /// Fixed overhead per stage, the unit every engine executes (one
    /// out-of-core traversal: handle churn, seeks).
    pub run_seconds: f64,
    /// Seconds per dense kernel flop, per cluster width k (reciprocal
    /// effective GFLOPS of the k-qubit kernel). Small-k kernels pay more
    /// per flop (overhead-bound), so this table is what stops the model
    /// from preferring "fewer raw flops in smaller clusters" when the
    /// real machine disagrees.
    pub flop_seconds_by_k: [f64; MAX_COST_K + 1],
}

/// Per-flop cost by cluster width relative to k = 4, shaped like a
/// measured fused-kernel ladder (Fig. 2/7): k ≤ 2 is overhead/bandwidth
/// bound (expensive per flop), k = 4–5 is the sweet spot, very wide
/// kernels start spilling registers.
const FLOP_SHAPE: [f64; MAX_COST_K + 1] = [4.0, 4.0, 2.0, 1.4, 1.0, 0.95, 1.05, 1.25];

/// Memory streaming rate of a compute pass, bytes/s: the stream-triad
/// row recorded beside the benchmark's ceilings (benchmark/README.md).
/// Memory bandwidth is the machine's, not a thread's, so it does not
/// scale with the worker count.
const HOST_STREAM_BYTES_PER_S: f64 = 25.6e9;

impl CostModel {
    /// The model's shape at given absolute rates: [`FLOP_SHAPE`] scaled
    /// by the k = 4 kernel rate, and a slow tier 4× slower than memory
    /// (the in-process fabric is a memcpy; a real network or SSD is
    /// slower still — the ratio only has to preserve the ordering "a
    /// swap is more expensive than a pass").
    fn with_rates(k4_flops_per_s: f64, stream_bytes_per_s: f64) -> Self {
        let stream = 1.0 / stream_bytes_per_s;
        Self {
            swap_byte_seconds: 4.0 * stream,
            stream_byte_seconds: stream,
            pass_seconds: 50e-6,
            run_seconds: 500e-6,
            flop_seconds_by_k: FLOP_SHAPE.map(|s| s / k4_flops_per_s),
        }
    }

    /// Machine-free defaults: 10 GB/s streaming and a 10 GFLOP/s k = 4
    /// kernel. Only the shape matters for ranking.
    pub fn analytic() -> Self {
        Self::with_rates(10e9, 10e9)
    }

    /// The model of a host whose widest block-lane kernel has
    /// `vector_bits`-bit vectors running `threads` workers: one
    /// tile-resident kernel per worker, all behind one memory system. A
    /// table of constants recorded offline, so the same host class prices
    /// the same schedule identically in every process. The pivot is the
    /// per-thread k = 4 rate (GFLOP/s; spread operands, 2^14 amplitudes,
    /// f64) of EXPERIMENTS.md's tile-resident table at 512 and 256 bits,
    /// `simd_compare`'s scalar column (n = 16) for everything else.
    pub fn host(vector_bits: u32, threads: usize) -> Self {
        let k4_gflops = match vector_bits {
            512 => 47.3,
            256 => 36.6,
            _ => 9.67,
        };
        let workers = threads.max(1) as f64;
        Self::with_rates(workers * k4_gflops * 1e9, HOST_STREAM_BYTES_PER_S)
    }

    /// The paper's machine, for the §4.1.2 projection: `nodes` KNL nodes
    /// of a Cori-II-scale Cray Aries dragonfly (public figures: ~10 GB/s
    /// injection per node, ~5.6 TB/s global bisection at full scale).
    /// With uniform all-to-all traffic a node moves its bytes at
    /// `min(injection, 2·bisection / nodes)` times an achieved fraction —
    /// big dragonfly installations reach 15–30 % of that bound, and the
    /// paper's own 78 % comm share implies ≈ 0.3 GB/s/node, i.e. 22 %.
    /// Compute is the paper's ~250 GFLOPS *sustained* per node on these
    /// kernels at every k: the streaming it takes is inside that figure,
    /// so the stream and per-pass weights are zero. [`PlanResources`]
    /// counts are machine totals, so every weight is divided by `nodes`.
    pub fn cori_aries(nodes: usize) -> Self {
        let p = nodes.max(1) as f64;
        let node_bytes_per_s = 10e9_f64.min(2.0 * 5.6e12 / p) * 0.22;
        Self {
            swap_byte_seconds: 1.0 / (p * node_bytes_per_s),
            stream_byte_seconds: 0.0,
            pass_seconds: 0.0,
            run_seconds: 0.0,
            flop_seconds_by_k: [1.0 / (p * 250e9); MAX_COST_K + 1],
        }
    }

    /// Modeled seconds of the compute passes: streaming, per-pass
    /// overhead and kernel flops.
    pub fn stage_seconds(&self, r: &PlanResources) -> f64 {
        let flops: f64 = r
            .flops_by_k
            .iter()
            .zip(self.flop_seconds_by_k.iter())
            .map(|(&f, &w)| f as f64 * w)
            .sum();
        r.streamed_bytes as f64 * self.stream_byte_seconds
            + r.stage_passes as f64 * self.pass_seconds
            + flops
    }

    /// Modeled seconds of the swaps' slow-tier traffic.
    pub fn swap_seconds(&self, r: &PlanResources) -> f64 {
        r.swap_bytes as f64 * self.swap_byte_seconds
    }

    /// Modeled seconds of a plan with resource counts `r`: swaps, compute
    /// passes, and the per-stage overhead of its `n_swaps + 1` stages.
    pub fn seconds(&self, r: &PlanResources) -> f64 {
        self.swap_seconds(r) + self.stage_seconds(r) + (r.n_swaps + 1) as f64 * self.run_seconds
    }

    /// Convenience: resources + modeled seconds of `schedule`.
    pub fn cost(&self, schedule: &Schedule, amp_bytes: u64) -> (PlanResources, f64) {
        let r = plan_resources(schedule, amp_bytes, DEFAULT_TILE_QUBITS);
        let s = self.seconds(&r);
        (r, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerConfig;
    use crate::stage::plan;
    use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};

    fn workload() -> qsim_circuit::Circuit {
        supremacy_circuit(&SupremacySpec {
            rows: 3,
            cols: 4,
            depth: 20,
            seed: 2,
        })
    }

    #[test]
    fn resources_match_schedule_counters() {
        let c = workload();
        let s = plan(&c, &SchedulerConfig::distributed(9, 4));
        let r = plan_resources(&s, 16, DEFAULT_TILE_QUBITS);
        assert_eq!(r.n_swaps, s.n_swaps());
        assert_eq!(r.n_swaps + 1, s.stages.len());
        assert!(
            r.stage_passes >= s.stages.len() - s.stages.iter().filter(|x| x.ops.is_empty()).count()
        );
        assert_eq!(
            r.swap_bytes,
            CommStats::new(12, 9, 0, s.n_swaps(), 16).scheduled_bytes()
        );
        assert_eq!(
            r.streamed_bytes,
            2 * (1u64 << 12) * 16 * r.stage_passes as u64
        );
    }

    #[test]
    fn single_node_plan_has_no_swap_bytes() {
        let c = workload();
        let s = plan(&c, &SchedulerConfig::single_node(12, 4));
        let r = plan_resources(&s, 16, DEFAULT_TILE_QUBITS);
        assert_eq!(r.n_swaps, 0);
        assert_eq!(r.swap_bytes, 0);
        assert_eq!(s.stages.len(), 1);
        assert!(r.stage_passes > 0);
    }

    fn flops_in_bin(k: usize, flops: u64) -> [u64; MAX_COST_K + 1] {
        let mut f = [0u64; MAX_COST_K + 1];
        f[k] = flops;
        f
    }

    /// Every model a run can be priced under on a host: the machine-free
    /// defaults and the three vector-width entries of the host table.
    fn host_models() -> [CostModel; 4] {
        [
            CostModel::analytic(),
            CostModel::host(512, 2),
            CostModel::host(256, 4),
            CostModel::host(0, 1),
        ]
    }

    #[test]
    fn cost_is_monotone_in_every_resource() {
        let base = PlanResources {
            n_swaps: 2,
            swap_bytes: 1 << 20,
            stage_passes: 10,
            streamed_bytes: 1 << 24,
            cluster_flops: 1 << 30,
            flops_by_k: flops_in_bin(4, 1 << 30),
        };
        for bump in [
            PlanResources {
                swap_bytes: base.swap_bytes * 2,
                ..base
            },
            PlanResources {
                streamed_bytes: base.streamed_bytes * 2,
                ..base
            },
            PlanResources {
                stage_passes: base.stage_passes + 1,
                ..base
            },
            PlanResources {
                n_swaps: base.n_swaps + 1,
                ..base
            },
            PlanResources {
                cluster_flops: base.cluster_flops * 2,
                flops_by_k: flops_in_bin(4, 2 << 30),
                ..base
            },
        ] {
            for m in host_models() {
                assert!(m.seconds(&bump) > m.seconds(&base), "{m:?}");
            }
        }
    }

    #[test]
    fn small_clusters_pay_more_per_flop() {
        // The same raw flop count in k=3 clusters must model costlier
        // than in k=4 clusters — otherwise search prefers "fewer raw
        // flops via smaller kmax", which real kernels punish.
        let base = PlanResources {
            n_swaps: 0,
            swap_bytes: 0,
            stage_passes: 4,
            streamed_bytes: 1 << 24,
            cluster_flops: 1 << 30,
            flops_by_k: flops_in_bin(4, 1 << 30),
        };
        let small_k = PlanResources {
            flops_by_k: flops_in_bin(3, 1 << 30),
            ..base
        };
        for m in host_models() {
            assert!(m.seconds(&small_k) > m.seconds(&base), "{m:?}");
        }
    }

    #[test]
    fn host_table_scales_with_width_and_threads() {
        let (wide, narrow, scalar) = (
            CostModel::host(512, 1),
            CostModel::host(256, 1),
            CostModel::host(0, 1),
        );
        assert!(wide.flop_seconds_by_k[4] < narrow.flop_seconds_by_k[4]);
        assert!(narrow.flop_seconds_by_k[4] < scalar.flop_seconds_by_k[4]);
        // Workers multiply the kernel rate, not the memory system.
        let two = CostModel::host(512, 2);
        assert_eq!(two.flop_seconds_by_k[4] * 2.0, wide.flop_seconds_by_k[4]);
        assert_eq!(two.stream_byte_seconds, wide.stream_byte_seconds);
        // An unknown width is the scalar kernel, not a panic.
        assert_eq!(CostModel::host(128, 1), scalar);
    }

    #[test]
    fn fewer_swaps_cost_less_all_else_equal() {
        // A swap is modeled strictly more expensive than the pass it
        // replaces — the property that makes swap count the primary
        // objective, matching the paper.
        let c = workload();
        let good = plan(&c, &SchedulerConfig::distributed(9, 4));
        let mut naive_cfg = SchedulerConfig::naive(9, 4);
        naive_cfg.worst_case_dense = true;
        let bad = plan(&c, &naive_cfg);
        assert!(bad.n_swaps() >= good.n_swaps());
        if bad.n_swaps() > good.n_swaps() {
            let m = CostModel::analytic();
            let (_, cg) = m.cost(&good, 16);
            let (_, cb) = m.cost(&bad, 16);
            assert!(cg < cb, "fewer swaps must model cheaper: {cg} vs {cb}");
        }
    }

    #[test]
    fn cori_aries_prices_the_45_qubit_run_comm_dominated() {
        // The paper's record run: 45 qubits, depth 25, 8192 nodes —
        // 553 s at 78 % communication (§4.1.2). The projection prices the
        // real full-scale schedule and must land in the same regime.
        let c = supremacy_circuit(&SupremacySpec {
            rows: 9,
            cols: 5,
            depth: 25,
            seed: 0,
        });
        let s = plan(&c, &SchedulerConfig::distributed(45 - 13, 4));
        assert_eq!(s.n_swaps(), 2);
        let m = CostModel::cori_aries(8192);
        let (r, total) = m.cost(&s, 16);
        assert_eq!(total, m.swap_seconds(&r) + m.stage_seconds(&r));
        let comm_frac = m.swap_seconds(&r) / total;
        assert!(
            comm_frac > 0.6 && comm_frac < 0.9,
            "comm fraction {comm_frac}"
        );
        assert!(total > 300.0 && total < 1200.0, "total {total}");
        // Injection-bound on a small partition, bisection-bound at scale:
        // a byte costs the machine less per node-second at 16 nodes.
        let small = CostModel::cori_aries(16);
        assert!((1.0 / (16.0 * small.swap_byte_seconds) - 2.2e9).abs() < 1.0);
        assert!(8192.0 * m.swap_byte_seconds > 16.0 * small.swap_byte_seconds);
    }
}
