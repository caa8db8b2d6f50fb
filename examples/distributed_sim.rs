//! Distributed simulation across simulated MPI ranks — the paper's §3.4
//! pipeline: schedule → stage kernels → global-to-local swaps as
//! all-to-alls, with communication accounting.
//!
//! ```text
//! cargo run --release --example distributed_sim -- [ranks]
//! ```
//! Runs a 20-qubit depth-25 supremacy circuit on 1..=ranks ranks
//! (default 8) and compares against the per-gate baseline of \[5\]/\[19\].

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::core::{
    Backend, BackendStats, BaselineSimulator, DistBackend, DistConfig, DistSimulator,
};
use qsim45::kernels::apply::KernelConfig;

fn main() {
    let max_ranks: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8);
    let spec = SupremacySpec {
        rows: 4,
        cols: 5,
        depth: 25,
        seed: 1,
    };
    let circuit = supremacy_circuit(&spec);
    let n = circuit.n_qubits();
    println!(
        "{n}-qubit depth-25 supremacy circuit, {} gates\n",
        circuit.len()
    );
    println!(
        "{:>6} {:>4} {:>6} {:>10} {:>9} {:>12} {:>9} {:>9}",
        "ranks", "l", "swaps", "bytes", "time[s]", "baseline[s]", "speedup", "entropy"
    );

    let mut ranks = 1usize;
    while ranks <= max_ranks {
        let l = n - ranks.trailing_zeros();
        let kernel = KernelConfig {
            threads: 1,
            ..KernelConfig::default()
        };
        // Every engine runs through the `Backend` trait: plan, then run.
        let mut engine: Box<dyn Backend<f64>> =
            Box::new(DistBackend::new(DistSimulator::new(DistConfig {
                n_ranks: ranks,
                kernel,
                ..Default::default()
            })));
        let plan = engine.plan(&circuit).expect("planning failed");
        plan.schedule.verify(&plan.exec);
        let out = engine.run(&plan).expect("distributed run failed");
        let BackendStats::Dist { fabric, .. } = &out.stats else {
            unreachable!("the distributed engine reports Dist stats")
        };
        let base = BaselineSimulator::new(ranks, kernel).run(&circuit);
        assert!(
            (out.entropy - base.entropy).abs() < 1e-6,
            "engines must agree on the physics"
        );
        println!(
            "{:>6} {:>4} {:>6} {:>10} {:>9.3} {:>12.3} {:>8.1}x {:>9.4}",
            ranks,
            l,
            plan.schedule.n_swaps(),
            fabric.total_bytes_sent,
            out.sim_seconds,
            base.sim_seconds,
            base.sim_seconds / out.sim_seconds.max(1e-12),
            out.entropy,
        );
        ranks *= 2;
    }
    println!("\nswap count stays flat as ranks grow (the paper's Fig. 5a");
    println!("l-independence); the scheduled engine outruns the per-gate");
    println!("baseline by roughly the comm-step ratio (paper: >10x).");
}
