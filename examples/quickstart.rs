//! Quickstart: build a circuit, simulate it, inspect the output.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qsim45::circuit::Circuit;
use qsim45::core::observables::{marginals, sample_bitstrings};
use qsim45::core::SingleNodeSimulator;
use qsim45::util::Xoshiro256;

fn main() {
    // A 3-qubit GHZ state: H on qubit 0, then a CNOT chain.
    let mut circuit = Circuit::new(3);
    circuit.h(0).cnot(0, 1).cnot(1, 2);

    // The single-node engine plans the circuit (gate clustering, §3.6.1)
    // and executes fused kernels (§3.1–3.3).
    // `try_run_t` hands back the owned state; engines that only report
    // observables (or run distributed / out of core) go through the
    // `Backend` trait — see examples/distributed_sim.rs.
    let sim = SingleNodeSimulator::default();
    let out = sim.try_run_t::<f64>(&circuit).expect("simulation failed");

    println!("final state (|q2 q1 q0⟩ amplitudes):");
    for (i, a) in out.state.amplitudes().iter().enumerate() {
        if a.abs() > 1e-12 {
            println!("  |{i:03b}⟩  {a}");
        }
    }
    println!("norm            : {:.12}", out.state.norm_sqr());
    println!("entropy         : {:.6} bits", out.state.entropy());
    println!("P(q=1) marginals: {:?}", marginals(&out.state));
    println!(
        "schedule        : {} cluster(s), {:.1} gates/cluster",
        out.schedule.n_clusters(),
        out.schedule.gates_per_cluster()
    );

    // Sample measurement outcomes: a GHZ state yields only 000 and 111.
    let mut rng = Xoshiro256::seed_from_u64(7);
    let shots = sample_bitstrings(&out.state, &mut rng, 10);
    println!("10 shots        : {shots:?}");
    assert!(shots.iter().all(|&s| s == 0 || s == 7));
}
