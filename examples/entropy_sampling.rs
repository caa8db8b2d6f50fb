//! The §4.2.2 measurement, scaled down: compute the entropy of a
//! supremacy circuit's output distribution on the distributed engine,
//! timing simulation and the final entropy reduction separately (the
//! paper: "99 seconds, of which 90.9 s simulation and 8.1 s entropy"),
//! then cross-check entropy and samples against a single-node run.
//!
//! ```text
//! cargo run --release --example entropy_sampling
//! ```

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::core::observables::{norm_entropy, sample_bitstrings};
use qsim45::core::{
    Backend, BackendStats, DistBackend, DistConfig, DistSimulator, SingleNodeSimulator,
};
use qsim45::kernels::apply::KernelConfig;
use qsim45::util::Xoshiro256;

fn main() {
    let spec = SupremacySpec {
        rows: 4,
        cols: 4,
        depth: 25,
        seed: 36,
    };
    let circuit = supremacy_circuit(&spec);
    let n = circuit.n_qubits();
    println!("{n}-qubit depth-25 supremacy circuit (Edison §4.2.2, scaled)\n");

    // Distributed run on 4 ranks, entropy via all-reduce.
    let mut engine: Box<dyn Backend<f64>> =
        Box::new(DistBackend::new(DistSimulator::new(DistConfig {
            n_ranks: 4,
            kernel: KernelConfig {
                threads: 1,
                ..KernelConfig::default()
            },
            ..Default::default()
        })));
    engine.gather_state(true);
    let plan = engine.plan(&circuit).expect("planning failed");
    let out = engine.run(&plan).expect("distributed run failed");
    let BackendStats::Dist {
        fabric,
        entropy_seconds,
        ..
    } = &out.stats
    else {
        unreachable!("the distributed engine reports Dist stats")
    };
    println!("distributed (4 ranks):");
    println!("  simulation : {:.4} s", out.sim_seconds - entropy_seconds);
    println!("  entropy    : {entropy_seconds:.4} s (final reduction)");
    println!("  H          = {:.6} bits", out.entropy);
    println!(
        "  comm       : {:.1} %",
        100.0 * fabric.max_comm_seconds / out.sim_seconds
    );

    // Single-node cross-check.
    let single = SingleNodeSimulator::default()
        .try_run_t::<f64>(&circuit)
        .expect("single-node run failed");
    println!("\nsingle-node cross-check:");
    println!("  H          = {:.6} bits", single.state.entropy());
    assert!((single.state.entropy() - out.entropy).abs() < 1e-8);

    // The gathered distributed state matches, amplitude for amplitude.
    let gathered = out.state.as_ref().expect("gather_state requested");
    let dist_probs: Vec<f64> = gathered.iter().map(|a| a.norm_sqr()).collect();
    assert!((norm_entropy(gathered).1 - out.entropy).abs() < 1e-9);

    // Sample bitstrings (what a supremacy experiment would measure).
    let mut rng = Xoshiro256::seed_from_u64(1);
    let shots = sample_bitstrings(&single.state, &mut rng, 8);
    println!("\n8 sampled bitstrings:");
    for s in shots {
        println!(
            "  |{s:0width$b}⟩  p = {:.3e}",
            dist_probs[s],
            width = n as usize
        );
    }
    println!("\nengines agree to 1e-8 bits — the §4.2.2 pipeline, reproduced.");
}
