//! Single-precision simulation — the paper's §5 remark:
//!
//! > "With the same amount of compute resources, the simulation of 46
//! > qubits is feasible when using single-precision floating point
//! > numbers to represent the complex amplitudes."
//!
//! Halving bytes per amplitude buys one extra qubit at fixed memory AND
//! doubles the SIMD lane count. This example quantifies both sides of
//! the trade at laptop scale: memory, speed, and the accumulated rounding
//! error after a depth-25 supremacy circuit.
//!
//! ```text
//! cargo run --release --example single_precision -- [n_qubits]
//! ```

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::circuit::Circuit;
use qsim45::core::{Backend, BackendOutcome, SingleBackend, SingleNodeSimulator};
use qsim45::kernels::SweepDispatch;
use std::time::Instant;

/// Plan and run `circuit` at precision `R` through the `Backend` trait —
/// the same call for both tiers; only the type parameter differs.
fn run_at<R: SweepDispatch>(circuit: &Circuit) -> (BackendOutcome<R>, f64) {
    let mut engine: Box<dyn Backend<R>> =
        Box::new(SingleBackend::new(SingleNodeSimulator::default()));
    engine.gather_state(true);
    let t0 = Instant::now();
    let plan = engine.plan(circuit).expect("planning failed");
    let out = engine.run(&plan).expect("simulation failed");
    (out, t0.elapsed().as_secs_f64())
}

fn main() {
    let n: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20);
    let rows = match n {
        16 => 4,
        18 => 3,
        20 => 4,
        22 => 2,
        24 => 4,
        _ => 4,
    };
    let cols = n / rows;
    let spec = SupremacySpec {
        rows,
        cols,
        depth: 25,
        seed: 46,
    };
    let n = spec.n_qubits();
    let circuit = supremacy_circuit(&spec);
    println!(
        "{n}-qubit depth-25 supremacy circuit, {} gates\n",
        circuit.len()
    );

    let (f64_out, t_f64) = run_at::<f64>(&circuit);
    let (f32_out, t_f32) = run_at::<f32>(&circuit);

    let mb64 = (1u64 << n) as f64 * 16.0 / (1 << 20) as f64;
    let mb32 = mb64 / 2.0;
    println!("              f64          f32");
    println!("memory     {mb64:8.1} MiB {mb32:8.1} MiB   (one extra qubit at fixed RAM)");
    println!(
        "time       {t_f64:8.3} s   {t_f32:8.3} s   ({:.2}x)",
        t_f64 / t_f32
    );
    // Both tiers report norm and entropy accumulated in f64.
    println!("norm       {:10.8}   {:10.8}", f64_out.norm, f32_out.norm);
    println!(
        "entropy    {:10.6}   {:10.6}  bits",
        f64_out.entropy, f32_out.entropy
    );

    let mut worst = 0.0f64;
    let (s64, s32) = (f64_out.state.unwrap(), f32_out.state.unwrap());
    for (a, b) in s64.iter().zip(&s32) {
        worst = worst
            .max((a.re - b.re as f64).abs())
            .max((a.im - b.im as f64).abs());
    }
    // Amplitudes are O(2^{-n/2}); express the error relative to that.
    let typical = 1.0 / ((1u64 << n) as f64).sqrt();
    println!(
        "max |Δamp| {worst:.3e}  ({:.4} of a typical amplitude)",
        worst / typical
    );
    assert!(worst / typical < 0.05, "f32 drift too large");
    println!("\nsingle precision stays within a few percent of a typical");
    println!("amplitude after depth 25 — the §5 trade-off, validated.");
}
