//! Out-of-core simulation — the paper's §5 outlook, demonstrated: run a
//! supremacy circuit whose state lives on disk, touching the slow tier a
//! constant number of times thanks to the 2-swap schedules.
//!
//! ```text
//! cargo run --release --example out_of_core -- [n_qubits] [chunk_qubits]
//! ```
//! Defaults: 18 qubits total, 2^15-amplitude chunks (8 chunk files).

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::core::{Backend, BackendStats, SingleNodeSimulator};
use qsim45::ooc::{OocBackend, OocSimulator};

fn main() {
    let args: Vec<u32> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let (rows, cols, l) = match args.as_slice() {
        [n, l, ..] => {
            let rows = (*n as f64).sqrt().round() as u32;
            (rows, n / rows, *l)
        }
        _ => (3, 6, 15),
    };
    let spec = SupremacySpec {
        rows,
        cols,
        depth: 25,
        seed: 45,
    };
    let n = spec.n_qubits();
    let g = n - l;
    let circuit = supremacy_circuit(&spec);
    // The same trait call as the in-memory engines; without a checkpoint
    // policy the chunk store lives in a self-cleaning scratch directory.
    let mut engine: Box<dyn Backend<f64>> =
        Box::new(OocBackend::new(OocSimulator::<f64>::default(), 1usize << g));
    let plan = engine.plan(&circuit).expect("planning failed");
    let schedule = &plan.schedule;
    println!(
        "{n}-qubit depth-25 circuit, state on disk as {} chunks of {} MiB",
        1u32 << g,
        (1u64 << l) * 16 / (1 << 20)
    );
    println!(
        "schedule: {} stages, {} global-to-local swaps (external all-to-alls)",
        schedule.stages.len(),
        schedule.n_swaps()
    );

    let out = engine.run(&plan).expect("out-of-core run failed");
    let BackendStats::Ooc { io, runs, .. } = &out.stats else {
        unreachable!("the out-of-core engine reports Ooc stats")
    };
    println!("\nout-of-core run:");
    println!("  time      : {:.2} s", out.sim_seconds);
    println!(
        "  runs      : {} (one state traversal per swap boundary; {} traversals total)",
        runs, io.traversals
    );
    println!(
        "  overlap   : {:.0}% of IO hidden behind compute",
        100.0 * io.overlap_fraction()
    );
    println!(
        "  disk read : {:.1} MiB",
        io.bytes_read as f64 / (1 << 20) as f64
    );
    println!(
        "  disk write: {:.1} MiB",
        io.bytes_written as f64 / (1 << 20) as f64
    );
    let state_mb = (1u64 << n) as f64 * 16.0 / (1 << 20) as f64;
    println!(
        "  traffic   : {:.1}x the state size (constant in circuit depth!)",
        (io.bytes_read + io.bytes_written) as f64 / (1 << 20) as f64 / state_mb
    );
    println!("  norm      : {:.10}", out.norm);
    println!("  entropy   : {:.5} bits", out.entropy);

    // Cross-check against the in-memory engine.
    let single = SingleNodeSimulator::default()
        .try_run_t::<f64>(&circuit)
        .expect("in-memory run failed");
    assert!((single.state.entropy() - out.entropy).abs() < 1e-8);
    println!("\nmatches the in-memory engine to 1e-8 bits of entropy.");
}
