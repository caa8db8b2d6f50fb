//! Cost model for schedule search.
//!
//! The planner's greedy heuristics minimize swap *count*; the search
//! layer ([`crate::search`]) needs a single scalar that also weighs the
//! quantities a swap count cannot see — streaming passes of the tiled
//! executor and disk traversals of the out-of-core engine — so that
//! trading one resource for another is a principled decision instead of
//! a tie-break. [`PlanResources`] extracts the machine-independent
//! counts from a schedule (swap bytes via [`CommStats`], stage passes
//! and streamed bytes via the sweep planner, traversal count via
//! [`plan_runs`]); [`CostModel`] converts them to modeled seconds with
//! per-machine weights, either analytic defaults or calibrated from a
//! short memory-bandwidth probe.
//!
//! The model does not need to be *accurate* — only *monotone enough*
//! that ranking candidate plans by modeled seconds ranks them by real
//! cost. All weights are therefore simple bandwidth reciprocals plus
//! fixed per-pass overheads.

use crate::comm::CommStats;
use crate::runs::plan_runs;
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
    /// Full-state traversals of the out-of-core engine
    /// (`plan_runs().len()`).
    pub ooc_runs: usize,
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
        ooc_runs: plan_runs(schedule).len(),
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
    /// Fixed overhead per out-of-core traversal (handle churn, seeks).
    pub run_seconds: f64,
    /// Seconds per dense kernel flop, per cluster width k (reciprocal
    /// effective GFLOPS of the k-qubit kernel). Small-k kernels pay more
    /// per flop (overhead-bound), so this table is what stops the model
    /// from preferring "fewer raw flops in smaller clusters" when the
    /// real machine disagrees. Calibrate from a measured kernel ladder
    /// (e.g. `autotune` GFLOPS) when available.
    pub flop_seconds_by_k: [f64; MAX_COST_K + 1],
}

impl CostModel {
    /// Analytic defaults: 10 GB/s effective memory streaming, slow tier
    /// 4× slower than memory (the in-process fabric is a memcpy; a real
    /// network or SSD is slower still — the ratio only has to preserve
    /// the ordering "a swap is more expensive than a pass").
    pub fn analytic() -> Self {
        let stream = 1.0 / 10e9;
        // Relative per-flop cost by cluster width, shaped like a measured
        // fused-kernel ladder (Fig. 2/7): k ≤ 2 is overhead/bandwidth
        // bound (expensive per flop), k = 4–5 is the sweet spot, very
        // wide kernels start spilling registers. Absolute scale is the
        // same 10 GFLOPS as streaming; only the shape matters for
        // ranking.
        let shape = [4.0, 4.0, 2.0, 1.4, 1.0, 0.95, 1.05, 1.25];
        Self {
            swap_byte_seconds: 4.0 * stream,
            stream_byte_seconds: stream,
            pass_seconds: 50e-6,
            run_seconds: 500e-6,
            flop_seconds_by_k: shape.map(|s| s / 10e9),
        }
    }

    /// Replace the per-k flop weights with a measured kernel ladder:
    /// `gflops_by_k[i]` is the effective GFLOPS of the (i+1)-qubit
    /// kernel (the `autotune` convention). Widths beyond the ladder
    /// extrapolate from the last measured point with a mild 10%/qubit
    /// penalty; non-finite or non-positive entries fall back the same
    /// way.
    ///
    /// The measured *shape* (each weight relative to the k=4 sweet
    /// spot) is clamped to within 1.1× of the analytic shape: search
    /// decisions hinge on per-flop ratios between *adjacent* k, where
    /// the true machine-to-machine spread is small but the rung-to-rung
    /// noise of a quick probe on a loaded host is not — at 1.5× a noisy
    /// k=5 rung could price kmax 5 below kmax 4 and flip a correction
    /// the ground-truth A/B confirms. The ladder therefore sets the
    /// absolute scale (via the k=4 pivot) while the analytic profile
    /// pins the relative shape to ±10%.
    pub fn with_kernel_gflops(mut self, gflops_by_k: &[f64]) -> Self {
        let clamp_abs = |s: f64| s.clamp(1.0 / 500e9, 1.0 / 0.05e9);
        let mut w = [0f64; MAX_COST_K + 1];
        let mut last = self.flop_seconds_by_k[1];
        for (k, slot) in w.iter_mut().enumerate().skip(1) {
            let measured = gflops_by_k
                .get(k - 1)
                .copied()
                .filter(|g| g.is_finite() && *g > 0.0);
            last = match measured {
                Some(g) => clamp_abs(1.0 / (g * 1e9)),
                None => clamp_abs(last * 1.1),
            };
            *slot = last;
        }
        // Width-0 clusters cannot occur; mirror k=1 to keep the table
        // total.
        w[0] = w[1];
        let analytic = Self::analytic().flop_seconds_by_k;
        let pivot = w[4];
        for k in 0..=MAX_COST_K {
            let shape = analytic[k] / analytic[4];
            let rel = (w[k] / pivot).clamp(shape / 1.1, shape * 1.1);
            self.flop_seconds_by_k[k] = clamp_abs(rel * pivot);
        }
        self
    }

    /// Calibrate the streaming weight from a short measured probe: one
    /// pass over `probe_bytes` of memory (default-sized when 0). The
    /// swap weight keeps the analytic 4× ratio — the probe measures the
    /// fast tier only, and the model needs relative, not absolute,
    /// fidelity.
    pub fn calibrated(probe_bytes: usize) -> Self {
        let len = if probe_bytes == 0 {
            1usize << 22
        } else {
            probe_bytes
        }
        .div_ceil(8);
        let mut buf = vec![1u64; len];
        // Warm the pages, then time a read-modify-write sweep.
        for v in buf.iter_mut() {
            *v = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        let t0 = std::time::Instant::now();
        let mut acc = 0u64;
        for v in buf.iter_mut() {
            *v = v.wrapping_add(1);
            acc ^= *v;
        }
        let dt = t0.elapsed().as_secs_f64().max(1e-9);
        std::hint::black_box(acc);
        let bytes = (len * 8) as f64;
        // 2× for the read+write traffic of the probe loop; clamp to a
        // sane band so a noisy probe cannot invert the model's ordering.
        let stream = (dt / (2.0 * bytes)).clamp(1.0 / 200e9, 1.0 / 0.5e9);
        Self {
            stream_byte_seconds: stream,
            swap_byte_seconds: 4.0 * stream,
            ..Self::analytic()
        }
    }

    /// Modeled seconds of a plan with resource counts `r`.
    pub fn seconds(&self, r: &PlanResources) -> f64 {
        let flops: f64 = r
            .flops_by_k
            .iter()
            .zip(self.flop_seconds_by_k.iter())
            .map(|(&f, &w)| f as f64 * w)
            .sum();
        r.swap_bytes as f64 * self.swap_byte_seconds
            + r.streamed_bytes as f64 * self.stream_byte_seconds
            + r.stage_passes as f64 * self.pass_seconds
            + r.ooc_runs as f64 * self.run_seconds
            + flops
    }

    /// Convenience: resources + modeled seconds of `schedule`.
    pub fn cost(&self, schedule: &Schedule, amp_bytes: u64) -> (PlanResources, f64) {
        let r = plan_resources(schedule, amp_bytes, DEFAULT_TILE_QUBITS);
        let s = self.seconds(&r);
        (r, s)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::analytic()
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
        assert_eq!(r.ooc_runs, plan_runs(&s).len());
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
        assert_eq!(r.ooc_runs, 1);
        assert!(r.stage_passes > 0);
    }

    fn flops_in_bin(k: usize, flops: u64) -> [u64; MAX_COST_K + 1] {
        let mut f = [0u64; MAX_COST_K + 1];
        f[k] = flops;
        f
    }

    #[test]
    fn cost_is_monotone_in_every_resource() {
        let m = CostModel::analytic();
        let base = PlanResources {
            n_swaps: 2,
            swap_bytes: 1 << 20,
            stage_passes: 10,
            streamed_bytes: 1 << 24,
            ooc_runs: 3,
            cluster_flops: 1 << 30,
            flops_by_k: flops_in_bin(4, 1 << 30),
        };
        let c0 = m.seconds(&base);
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
                ooc_runs: base.ooc_runs + 1,
                ..base
            },
            PlanResources {
                cluster_flops: base.cluster_flops * 2,
                flops_by_k: flops_in_bin(4, 2 << 30),
                ..base
            },
        ] {
            assert!(m.seconds(&bump) > c0);
        }
    }

    #[test]
    fn small_clusters_pay_more_per_flop() {
        // The same raw flop count in k=3 clusters must model costlier
        // than in k=4 clusters — otherwise search prefers "fewer raw
        // flops via smaller kmax", which real kernels punish.
        let m = CostModel::analytic();
        let base = PlanResources {
            n_swaps: 0,
            swap_bytes: 0,
            stage_passes: 4,
            streamed_bytes: 1 << 24,
            ooc_runs: 1,
            cluster_flops: 1 << 30,
            flops_by_k: flops_in_bin(4, 1 << 30),
        };
        let small_k = PlanResources {
            flops_by_k: flops_in_bin(3, 1 << 30),
            ..base
        };
        assert!(m.seconds(&small_k) > m.seconds(&base));
        // And the measured-ladder constructor preserves that shape even
        // from a partial ladder with junk entries.
        let cal = CostModel::analytic().with_kernel_gflops(&[2.0, 4.0, 7.0, 10.0, f64::NAN]);
        assert!(cal.flop_seconds_by_k[1] > cal.flop_seconds_by_k[4]);
        assert!(cal.flop_seconds_by_k[5] > cal.flop_seconds_by_k[4]);
        assert!(cal
            .flop_seconds_by_k
            .iter()
            .all(|w| w.is_finite() && *w > 0.0));
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
    fn calibrated_model_is_sane() {
        let m = CostModel::calibrated(1 << 20);
        assert!(m.stream_byte_seconds > 0.0 && m.stream_byte_seconds.is_finite());
        assert!(m.swap_byte_seconds > m.stream_byte_seconds);
    }
}
