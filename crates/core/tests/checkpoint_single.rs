//! Checkpoint directories the single-node engine must refuse or treat as
//! a fresh start: a foreign manifest, a manifest of the other precision,
//! no manifest, a stop point past the last stage. (That a kill at any
//! stage resumes bit-exactly is the differential oracle's,
//! `tests/differential.rs` at the workspace root.)

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use qsim_circuit::Circuit;
use qsim_core::{Backend, CheckpointPolicy, SingleBackend, SingleNodeSimulator};
use qsim_kernels::SweepDispatch;
use qsim_net::SimError;
use qsim_util::complex::{max_dist, Complex};
use qsim_util::Xoshiro256;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let id = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "qsim_single_ckpt_{tag}_{}_{id}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Random mix of dense and diagonal gates (same generator as the sweep
/// property tests) so checkpoints land between stages of every flavor.
fn random_circuit(n: u32, n_gates: usize, seed: u64) -> qsim_circuit::Circuit {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut c = qsim_circuit::Circuit::new(n);
    for _ in 0..n_gates {
        let q = (rng.next_u64() % n as u64) as u32;
        let mut q2 = (rng.next_u64() % n as u64) as u32;
        if q2 == q {
            q2 = (q + 1) % n;
        }
        match rng.next_u64() % 8 {
            0 => c.h(q),
            1 => c.t(q),
            2 => c.sqrt_x(q),
            3 => c.sqrt_y(q),
            4 => c.z(q),
            5 => c.cz(q, q2),
            6 => c.cnot(q, q2),
            _ => c.x(q),
        };
    }
    c
}

/// Plan `c` and run it through the trait (stopping after `stop` stages
/// when set); the gathered final state and the plan's stage count.
fn run<R: SweepDispatch>(
    kmax: u32,
    checkpoint: Option<CheckpointPolicy>,
    c: &Circuit,
    stop: Option<usize>,
) -> Result<(Vec<Complex<R>>, usize), SimError> {
    let mut b = SingleBackend::new(SingleNodeSimulator {
        kmax,
        checkpoint,
        ..Default::default()
    });
    Backend::<R>::gather_state(&mut b, true);
    let plan = Backend::<R>::plan(&b, c)?;
    let total = plan.schedule.stages.len();
    let out: qsim_core::BackendOutcome<R> = b.run_to_stage(&plan, stop)?;
    Ok((out.state.expect("gathered state"), total))
}

#[test]
fn resume_rejects_a_foreign_manifest() {
    let c = random_circuit(6, 20, 42);
    let dir = tmpdir("foreign");
    run::<f64>(3, Some(CheckpointPolicy::new(&dir)), &c, None).unwrap();

    let other = random_circuit(6, 24, 43);
    let err = match run::<f64>(3, Some(CheckpointPolicy::resume(&dir)), &other, None) {
        Err(e) => e,
        Ok(_) => panic!("foreign manifest must be rejected"),
    };
    assert!(matches!(err, SimError::Checkpoint(_)), "got {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn assert_precision_rejected<T>(r: Result<T, SimError>) {
    match r {
        Err(SimError::Checkpoint(m)) => {
            assert!(m.contains("precision"), "unhelpful message: {m}")
        }
        Err(e) => panic!("expected Checkpoint error, got {e}"),
        Ok(_) => panic!("cross-precision resume must be rejected"),
    }
}

#[test]
fn resume_rejects_cross_precision_manifests() {
    let c = random_circuit(6, 20, 99);

    // Checkpoint an f64 run, then try to pick it up at f32: the raw
    // amplitude bytes would be reinterpreted, so this must be a typed
    // error, not a garbage resume.
    let dir = tmpdir("prec64");
    run::<f64>(3, Some(CheckpointPolicy::new(&dir)), &c, None).unwrap();
    assert_precision_rejected(run::<f32>(
        3,
        Some(CheckpointPolicy::resume(&dir)),
        &c,
        None,
    ));

    // And the reverse direction (f32 checkpoint, f64 resume).
    let dir32 = tmpdir("prec32");
    run::<f32>(3, Some(CheckpointPolicy::new(&dir32)), &c, None).unwrap();
    assert_precision_rejected(run::<f64>(
        3,
        Some(CheckpointPolicy::resume(&dir32)),
        &c,
        None,
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir32);
}

#[test]
fn resume_without_a_manifest_is_a_fresh_start() {
    let c = random_circuit(5, 16, 7);
    let (plain, _) = run::<f64>(3, None, &c, None).unwrap();
    let dir = tmpdir("fresh");
    let (out, _) = run::<f64>(3, Some(CheckpointPolicy::resume(&dir)), &c, None).unwrap();
    assert_eq!(max_dist(&out, &plain), 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stop_past_the_last_stage_never_fires() {
    let c = random_circuit(5, 12, 11);
    let dir = tmpdir("past");
    let out = run::<f64>(3, Some(CheckpointPolicy::new(&dir)), &c, Some(usize::MAX));
    assert!(out.is_ok(), "a stop point past the end must not trigger");
    let _ = std::fs::remove_dir_all(&dir);
}
