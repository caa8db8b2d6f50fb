//! Noise study — one of the simulator use-cases the paper's introduction
//! names ("carrying out studies of their behavior under noise").
//!
//! Sweeps the depolarizing strength on a supremacy circuit, measuring how
//! trajectory fidelity and the cross-entropy benchmarking score decay —
//! exactly the calibration curves a quantum-hardware team would extract
//! from such a simulator.
//!
//! ```text
//! cargo run --release --example noise_study
//! ```

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::core::noise::{average_fidelity, predicted_fidelity, run_trajectory, NoiseModel};
use qsim45::core::observables::{linear_xeb, sample_bitstrings};
use qsim45::core::SingleNodeSimulator;
use qsim45::kernels::apply::KernelConfig;
use qsim45::util::Xoshiro256;

fn main() {
    let spec = SupremacySpec {
        rows: 3,
        cols: 4,
        depth: 16,
        seed: 8,
    };
    let circuit = supremacy_circuit(&spec);
    let pairs: usize = circuit.gates().iter().map(|g| g.arity()).sum();
    println!(
        "{}-qubit depth-{} supremacy circuit, {} gates ({} gate-qubit pairs)\n",
        spec.n_qubits(),
        spec.depth,
        circuit.len(),
        pairs
    );

    let ideal = SingleNodeSimulator::default()
        .try_run_t::<f64>(&circuit)
        .expect("ideal run failed")
        .state;
    let kernel = KernelConfig::default();
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "p", "fidelity", "(1-p)^pairs", "XEB"
    );
    for p in [0.0, 0.001, 0.003, 0.01, 0.03] {
        let noise = NoiseModel::depolarizing(p);
        let f = average_fidelity(&circuit, &noise, 10, 7, &kernel);
        // XEB of noisy samples scored against the IDEAL distribution —
        // the experiment's supremacy metric; decays with fidelity.
        let mut rng = Xoshiro256::seed_from_u64(17);
        let mut xeb_acc = 0.0;
        let runs = 6;
        for _ in 0..runs {
            let noisy = run_trajectory(&circuit, &noise, &mut rng, &kernel);
            let samples = sample_bitstrings(&noisy, &mut rng, 300);
            xeb_acc += linear_xeb(&ideal, &samples);
        }
        println!(
            "{:>8.3} {:>12.4} {:>12.4} {:>10.3}",
            p,
            f,
            predicted_fidelity(p, pairs),
            xeb_acc / runs as f64
        );
    }
    println!("\nfidelity and XEB decay together as noise grows — the curve a");
    println!("hardware team calibrates against (paper §1: calibration,");
    println!("validation, and benchmarking of near-term devices).");
}
