//! §4.1.2 / §5 — petascale projection for the 45-qubit record run and
//! the 49-qubit feasibility argument.
//!
//! Everything scale-free is computed at full scale: the 45-qubit depth-25
//! schedule (swap count, cluster count, byte volume per node) comes from
//! the real scheduler, priced by the same `CostModel::seconds` every
//! other consumer calls; only the machine is modelled
//! (`CostModel::cori_aries`). The paper's measured values for comparison:
//! 553 s total, 78 % communication, 0.428 PFLOPS sustained on 8192 nodes
//! and 0.5 PB; §5 projects 2 swaps for 49 qubits (8 PB, SSD option).

use qsim_bench::harness::*;
use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim_sched::{plan, CostModel, SchedulerConfig};

fn main() {
    let kmax = arg_u32("--kmax", 4);
    println!("# Petascale projection (full-scale schedules, modelled machine)");
    row(&[
        cell("case", 10),
        cell("nodes", 6),
        cell("mem", 8),
        cell("swaps", 6),
        cell("clusters", 9),
        cell("time[s]", 9),
        cell("comm%", 7),
        cell("PFLOPS", 8),
    ]);
    // (label, rows, cols, nodes)
    for (label, rows, cols, nodes) in [
        ("45-qubit", 9u32, 5u32, 8192usize),
        ("49-qubit", 7, 7, 8192),
    ] {
        let n = rows * cols;
        let l = n - (nodes.trailing_zeros());
        let c = supremacy_circuit(&SupremacySpec {
            rows,
            cols,
            depth: 25,
            seed: 0,
        });
        let schedule = plan(&c, &SchedulerConfig::distributed(l, kmax));
        let model = CostModel::cori_aries(nodes);
        let (r, total) = model.cost(&schedule, 16);
        let comm_frac = model.swap_seconds(&r) / total;
        let pflops = r.cluster_flops as f64 / total / 1e15;
        let mem_pb = (1u64 << n) as f64 * 16.0 / 1e15;
        row(&[
            cell(label, 10),
            cell(nodes, 6),
            cell(format!("{mem_pb:.2}PB",), 8),
            cell(schedule.n_swaps(), 6),
            cell(schedule.n_clusters(), 9),
            cell(format!("{total:.0}"), 9),
            cell(format!("{:.1}", comm_frac * 100.0), 7),
            cell(format!("{pflops:.3}"), 8),
        ]);
    }
    println!("# paper: 45q = 0.5 PB, 8192 nodes, 553 s, 78 % comm, 0.428 PFLOPS.");
    println!("# 49q = 8 PB (beyond DRAM; the 2-3 all-to-alls make SSDs viable).");
}
