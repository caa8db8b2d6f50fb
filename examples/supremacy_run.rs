//! Simulate a quantum supremacy circuit end to end on one node — the
//! workload of the paper's §4 — and verify its output statistics against
//! the Porter–Thomas predictions used for supremacy benchmarking.
//!
//! ```text
//! cargo run --release --example supremacy_run -- [rows] [cols] [depth]
//! ```
//! Defaults: a 4×5 grid (20 qubits), depth 25 — the paper's depth at a
//! laptop-friendly width.

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::core::observables::{linear_xeb, porter_thomas_entropy_gap, sample_bitstrings};
use qsim45::core::SingleNodeSimulator;
use qsim45::util::Xoshiro256;
use std::time::Instant;

fn main() {
    let args: Vec<u32> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let (rows, cols, depth) = match args.as_slice() {
        [r, c, d, ..] => (*r, *c, *d),
        _ => (4, 5, 25),
    };
    let spec = SupremacySpec {
        rows,
        cols,
        depth,
        seed: 2017,
    };
    let n = spec.n_qubits();
    println!("generating a {rows}x{cols} ({n}-qubit) depth-{depth} supremacy circuit");
    let circuit = supremacy_circuit(&spec);
    println!(
        "  {} gates ({} CZ, {} single-qubit)",
        circuit.len(),
        circuit.count(|g| matches!(g, qsim45::circuit::Gate::CZ(_, _))),
        circuit.count(|g| g.arity() == 1),
    );

    let sim = SingleNodeSimulator::default();
    let t0 = Instant::now();
    let out = sim.try_run_t::<f64>(&circuit).expect("simulation failed");
    println!(
        "simulated in {:.2} s ({:.3} s planning, {} clusters, {:.1} gates/cluster)",
        t0.elapsed().as_secs_f64(),
        out.plan_seconds,
        out.schedule.n_clusters(),
        out.schedule.gates_per_cluster()
    );

    println!("norm    : {:.12}", out.state.norm_sqr());
    let h = out.state.entropy();
    println!(
        "entropy : {h:.4} bits (Porter–Thomas expects ≈ {:.4})",
        n as f64 - 0.6099
    );
    println!(
        "PT gap  : {:+.4} bits",
        porter_thomas_entropy_gap(&out.state)
    );

    // Cross-entropy benchmarking: sampling this distribution from itself
    // must score near 1 (the supremacy experiment's success criterion).
    let mut rng = Xoshiro256::seed_from_u64(99);
    let samples = sample_bitstrings(&out.state, &mut rng, 2000);
    println!(
        "linear XEB (own samples): {:.3} (ideal ≈ 1)",
        linear_xeb(&out.state, &samples)
    );
    let uniform: Vec<usize> = (0..2000)
        .map(|_| rng.next_below(out.state.len() as u64) as usize)
        .collect();
    println!(
        "linear XEB (uniform)    : {:.3} (ideal ≈ 0)",
        linear_xeb(&out.state, &uniform)
    );
}
