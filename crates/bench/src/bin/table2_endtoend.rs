//! Table 2 — end-to-end simulations: circuit size, gate count, rank
//! count, wall-clock, communication share, and speedup over the per-gate
//! baseline of \[5\]/\[19\].
//!
//! Paper rows (depth-25): 30q/1 node 9.58 s (14.8x), 36q/64 nodes 28.92 s
//! 42.9 % comm (12.8x), 42q/4096 nodes 79.53 s 71.8 % comm (12.4x),
//! 45q/8192 nodes 552.61 s 78 % comm. Scaled rows here keep the paper's
//! structure: one single-rank case plus three distributed cases with
//! growing qubit and rank counts, measured against the baseline engine
//! (same kernels, per-gate execution, pairwise exchanges).
//!
//! The entropy of the final distribution is also computed with its
//! reduction timed separately (§4.2.2's "99 s = 90.9 sim + 8.1 entropy").

use qsim_bench::harness::*;
use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim_core::single::strip_initial_hadamards;
use qsim_core::{
    Backend, BackendOutcome, BackendPlan, BackendStats, BaselineSimulator, DistBackend, DistConfig,
    DistSimulator,
};
use qsim_kernels::apply::KernelConfig;
use qsim_sched::{plan, SchedulerConfig};

fn main() {
    let kmax = arg_u32("--kmax", 4);
    let large = arg_flag("--large");
    // (rows, cols, ranks) scaled stand-ins for the paper's
    // (6x5, 1), (6x6, 64), (7x6, 4096), (9x5, 8192).
    let cases: Vec<(u32, u32, usize)> = if large {
        vec![(4, 4, 1), (5, 4, 4), (5, 5, 8), (6, 4, 16)]
    } else {
        vec![(4, 4, 1), (4, 4, 4), (5, 4, 8), (5, 4, 16)]
    };
    println!("# Table 2 — end-to-end (scaled), depth-25 circuits, kmax={kmax}");
    row(&[
        cell("grid", 6),
        cell("qubits", 7),
        cell("gates", 6),
        cell("ranks", 6),
        cell("time[s]", 9),
        cell("comm%", 7),
        cell("baseline[s]", 12),
        cell("speedup", 8),
        cell("entropy", 9),
        cell("H-time[s]", 10),
        cell("passes", 7),
        cell("pass-x", 7),
    ]);
    for (rows, cols, ranks) in cases {
        let c = supremacy_circuit(&SupremacySpec {
            rows,
            cols,
            depth: 25,
            seed: 0,
        });
        let n = c.n_qubits();
        let g = ranks.trailing_zeros();
        let l = n - g;
        let (exec, uniform) = strip_initial_hadamards(&c);
        let kernel = KernelConfig {
            threads: if ranks == 1 { 2 } else { 1 },
            ..KernelConfig::default()
        };

        // Optimized engine.
        let schedule = plan(&exec, &SchedulerConfig::distributed(l, kmax));
        let mut sim = DistBackend::new(DistSimulator::new(DistConfig {
            n_ranks: ranks,
            kernel,
            gather_state: false,
            ..Default::default()
        }));
        let out: BackendOutcome = sim
            .run(&BackendPlan::from_schedule(exec, schedule, uniform))
            .expect("distributed run failed");
        let BackendStats::Dist {
            fabric,
            sweep,
            entropy_seconds,
            ..
        } = &out.stats
        else {
            unreachable!("the distributed engine reports Dist stats")
        };
        // Comm time runs through the final all-reduce (`entropy_seconds`).
        let wall = out.sim_seconds + entropy_seconds;
        let comm_pct = 100.0 * fabric.max_comm_seconds / wall.max(1e-12);

        // Baseline engine ([5]/[19]-style).
        let base = BaselineSimulator::new(ranks, kernel).run(&c);

        row(&[
            cell(format!("{rows}x{cols}"), 6),
            cell(n, 7),
            cell(c.len(), 6),
            cell(ranks, 6),
            cell(format!("{:.3}", out.sim_seconds), 9),
            cell(format!("{comm_pct:.1}"), 7),
            cell(format!("{:.3}", base.sim_seconds), 12),
            cell(
                format!("{:.1}x", base.sim_seconds / out.sim_seconds.max(1e-12)),
                8,
            ),
            cell(format!("{:.3}", out.entropy), 9),
            cell(format!("{entropy_seconds:.4}"), 10),
            cell(sweep.sweep_passes, 7),
            cell(format!("{:.2}x", sweep.pass_ratio()), 7),
        ]);
        // Physics cross-check: both engines must agree on the entropy.
        assert!(
            (out.entropy - base.entropy).abs() < 1e-6,
            "engines disagree: {} vs {}",
            out.entropy,
            base.entropy
        );
    }
    println!("# paper shape: the scheduled engine beats the per-gate baseline by");
    println!("# ~an order of magnitude at every scale; comm share grows with");
    println!("# rank count toward the 45-qubit run's 78 %.");
    println!("# passes/pass-x: full-state streaming passes of the tiled stage");
    println!("# executor and its pass-reduction factor over per-gate execution.");
}
