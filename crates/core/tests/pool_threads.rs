//! A warm single-node run starts no OS thread: its parallel passes, its
//! reduction and its start state run on the pool's parked workers, which
//! were started by the first run.
//!
//! `ThreadId`s are handed out in spawn order, so a probe thread spawned
//! just after the run has the id directly after that of a probe spawned
//! just before it exactly when nothing in between started a thread. Alone
//! in its own test binary, so no other test spawns threads meanwhile.

use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim_core::{Backend, SingleBackend, SingleNodeSimulator};
use qsim_kernels::apply::KernelConfig;

/// The number in a `ThreadId`'s `Debug` form, `ThreadId(N)`.
fn probe() -> u64 {
    let id = std::thread::spawn(|| std::thread::current().id())
        .join()
        .unwrap();
    let digits: String = format!("{id:?}")
        .chars()
        .filter(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

#[test]
fn a_warm_single_run_starts_no_thread() {
    if rayon::current_num_threads() < 2 {
        eprintln!("skipped: one CPU available, so the pool has no worker and no run spawns one");
        return;
    }
    let circuit = supremacy_circuit(&SupremacySpec {
        rows: 4,
        cols: 4,
        depth: 25,
        seed: 1,
    });
    let mut backend = SingleBackend::new(SingleNodeSimulator {
        kernel: KernelConfig {
            threads: 2,
            ..KernelConfig::default()
        },
        ..Default::default()
    });
    let plan = Backend::<f64>::plan(&backend, &circuit).unwrap();
    let cold = Backend::<f64>::run(&mut backend, &plan).unwrap();
    let before = probe();
    let warm = Backend::<f64>::run(&mut backend, &plan).unwrap();
    let after = probe();
    assert_eq!(warm.norm.to_bits(), cold.norm.to_bits());
    assert_eq!(
        after,
        before + 1,
        "the warm run started {} threads",
        after - before - 1
    );
}
