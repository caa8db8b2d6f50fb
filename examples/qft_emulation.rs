//! Gate-level QFT vs FFT emulation — the paper's §1 contrast (ref \[7\]):
//! emulation shortcuts beat gate-by-gate simulation when an operation's
//! action is known in advance, but supremacy circuits admit no shortcut.
//!
//! ```text
//! cargo run --release --example qft_emulation -- [n_qubits]
//! ```

use qsim45::circuit::algorithms::{brickwork_1d, qft};
use qsim45::core::emulate::emulate_qft;
use qsim45::core::{SingleNodeSimulator, StateVector};
use qsim45::kernels::apply::KernelConfig;
use qsim45::util::complex::max_dist;
use std::time::Instant;

fn main() {
    let n: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20);
    println!("QFT on {n} qubits: gate-level kernels vs FFT emulation\n");

    // A scrambled input state (emulation must work on arbitrary states).
    let input = SingleNodeSimulator::default()
        .try_run_t::<f64>(&brickwork_1d(n, 6, 1))
        .expect("scramble run failed")
        .state;

    // Gate-level execution through the fused-kernel engine.
    let circuit = qft(n);
    println!(
        "gate-level circuit: {} gates ({} H, {} controlled-phase, {} swap)",
        circuit.len(),
        n,
        n * (n - 1) / 2,
        n / 2
    );
    let mut gate_state = StateVector::from_amplitudes(input.amplitudes().to_vec());
    let cfg = KernelConfig::default();
    let t0 = Instant::now();
    for g in circuit.gates() {
        let m: qsim45::util::matrix::GateMatrix<f64> = g.matrix();
        if let Some(d) = m.as_diagonal() {
            gate_state.apply_diagonal(&g.qubits(), &d);
        } else {
            gate_state.apply(&g.qubits(), &m, &cfg);
        }
    }
    let t_gates = t0.elapsed().as_secs_f64();

    // FFT emulation.
    let mut fft_state = StateVector::from_amplitudes(input.amplitudes().to_vec());
    let t1 = Instant::now();
    emulate_qft(&mut fft_state);
    let t_fft = t1.elapsed().as_secs_f64();

    let dist = max_dist(gate_state.amplitudes(), fft_state.amplitudes());
    println!("gate-level : {t_gates:.4} s");
    println!(
        "emulated   : {t_fft:.4} s  ({:.1}x faster)",
        t_gates / t_fft
    );
    println!("max |Δamp| : {dist:.2e}");
    assert!(
        dist < 1e-8,
        "emulation must agree with gate-level execution"
    );
    println!("\nsupremacy circuits are *designed* so no such shortcut exists —");
    println!("which is why the paper's kernels/scheduling matter (§1).");
}
