//! Regressions for the panic-path sweep: a checkpoint IO failure, a dead
//! chunk-store directory and an injected stop must each surface as a
//! typed [`SimError`] through the [`Backend`] trait — a run may fail,
//! but never by panicking. (The CLI turns the typed error into a flight
//! record and exit code 1.)

use std::path::PathBuf;

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::core::{
    Backend, CheckpointPolicy, DistBackend, DistConfig, DistSimulator, SimError, SingleBackend,
    SingleNodeSimulator,
};
use qsim45::kernels::KernelConfig;
use qsim45::ooc::{OocBackend, OocConfig, OocSimulator, ScratchDir};

fn workload() -> qsim45::circuit::Circuit {
    supremacy_circuit(&SupremacySpec {
        rows: 3,
        cols: 3,
        depth: 8,
        seed: 3,
    })
}

/// A path that exists and is a *file*, so `create_dir_all` on it fails —
/// the cheapest portable stand-in for a dead checkpoint disk.
fn dead_checkpoint_dir(scratch: &ScratchDir, tag: &str) -> PathBuf {
    std::fs::create_dir_all(scratch.path()).unwrap();
    let p = scratch.path().join(tag);
    std::fs::write(&p, b"not a directory").unwrap();
    p
}

/// Plan and run `c` on `b`, checkpointing into `dir`.
fn run_into(
    mut b: Box<dyn Backend<f64>>,
    dir: PathBuf,
    stop_after: Option<usize>,
) -> Result<(), SimError> {
    b.checkpoint(CheckpointPolicy::new(dir));
    let plan = b.plan(&workload())?;
    b.run_to_stage(&plan, stop_after).map(|_| ())
}

#[test]
fn checkpoint_io_failures_are_typed() {
    let scratch = ScratchDir::new("panic_paths");
    let single = || {
        Box::new(SingleBackend::new(SingleNodeSimulator {
            kernel: KernelConfig::sequential(),
            ..Default::default()
        }))
    };
    let dist = || {
        Box::new(DistBackend::new(DistSimulator::new(DistConfig {
            n_ranks: 4,
            kernel: KernelConfig::sequential(),
            ..Default::default()
        })))
    };
    let ooc = || {
        Box::new(OocBackend::new(
            OocSimulator::<f64>::new(OocConfig::sequential()),
            4,
        ))
    };

    // 1. The single-node engine reports a checkpoint IO failure as
    // `SimError::Checkpoint`, not a panic.
    match run_into(single(), dead_checkpoint_dir(&scratch, "single"), None) {
        Err(SimError::Checkpoint(m)) => assert!(m.contains("single"), "path lost: {m}"),
        Err(e) => panic!("expected Checkpoint error, got {e}"),
        Ok(_) => panic!("a file for a checkpoint dir must fail"),
    }

    // 2. Same for the distributed engine.
    match run_into(dist(), dead_checkpoint_dir(&scratch, "dist"), None) {
        Err(SimError::Checkpoint(_)) => {}
        Err(e) => panic!("expected Checkpoint error, got {e}"),
        Ok(_) => panic!("a file for a checkpoint dir must fail"),
    }

    // 3. The OOC engine normalizes its io-flavored failures: a dead
    // store directory is `SimError::Io`, an injected stop is the same
    // typed `InjectedStop` the other engines return.
    match run_into(ooc(), dead_checkpoint_dir(&scratch, "ooc"), None) {
        Err(SimError::Io(_)) => {}
        Err(e) => panic!("expected Io error, got {e}"),
        Ok(_) => panic!("a file for a chunk store must fail"),
    }
    match run_into(ooc(), scratch.path().join("ooc_store"), Some(1)) {
        Err(SimError::InjectedStop { unit }) => assert_eq!(unit, 1),
        Err(e) => panic!("expected InjectedStop, got {e}"),
        Ok(_) => panic!("injected stop must fire"),
    }
}
