//! Kill-and-resume and fault-injection coverage for the distributed
//! engine: a rank killed mid-run by a [`FaultPlan`] must surface as a
//! typed [`SimError`] (never a panic or a hang), and resuming from the
//! published checkpoint must reproduce the uninterrupted run *bit
//! exactly* — the amplitudes are compared with `max_dist == 0.0`, not a
//! tolerance, because a resumed rank replays the identical instruction
//! stream on the identical snapshot.

use std::path::PathBuf;

use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim_circuit::Circuit;
use qsim_core::single::strip_initial_hadamards;
use qsim_core::{
    Backend, BackendOutcome, BackendPlan, CheckpointPolicy, DistBackend, DistConfig, DistSimulator,
};
use qsim_kernels::apply::KernelConfig;
use qsim_net::{FaultPlan, SimError};
use qsim_sched::{plan, Schedule, SchedulerConfig};
use qsim_telemetry::{FlightRecorder, Telemetry};
use qsim_util::complex::max_dist;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "qsim_dist_ckpt_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A small supremacy instance planned for distribution; returns the
/// executable circuit (initial Hadamards stripped) and its schedule.
fn planned(l: u32, kmax: u32) -> (Circuit, Schedule) {
    let c = supremacy_circuit(&SupremacySpec {
        rows: 2,
        cols: 5,
        depth: 24, // deep enough for a multi-swap (multi-checkpoint) schedule
        seed: 3,
    });
    let (exec, uniform) = strip_initial_hadamards(&c);
    assert!(uniform);
    let schedule = plan(&exec, &SchedulerConfig::distributed(l, kmax));
    schedule.verify(&exec);
    (exec, schedule)
}

fn config(schedule: &Schedule) -> DistConfig {
    DistConfig {
        n_ranks: 1usize << (schedule.n_qubits - schedule.local_qubits),
        kernel: KernelConfig::sequential(),
        gather_state: true,
        ..Default::default()
    }
}

/// Run the hand-planned schedule (uniform start) through the trait.
fn run(cfg: DistConfig, exec: &Circuit, schedule: &Schedule) -> Result<BackendOutcome, SimError> {
    let plan = BackendPlan::from_schedule(exec.clone(), schedule.clone(), true);
    DistBackend::new(DistSimulator::new(cfg)).run(&plan)
}

#[test]
fn injected_kill_then_resume_is_bit_exact() {
    let (exec, schedule) = planned(7, 3);
    assert!(schedule.n_swaps() >= 2, "test needs a multi-swap schedule");

    // Uninterrupted baseline.
    let baseline = run(config(&schedule), &exec, &schedule)
        .unwrap()
        .state
        .unwrap();

    // Checkpointed run, killed at the second swap: at least one stage
    // has completed and published a manifest by then.
    let dir = tmpdir("kill_resume");
    let mut cfg = config(&schedule);
    cfg.checkpoint = Some(CheckpointPolicy::new(&dir));
    cfg.fault_plan = Some(FaultPlan::new().kill(1, 1));
    let err = run(cfg, &exec, &schedule).expect_err("killed run must fail");
    match err {
        SimError::InjectedFault { rank, swap_index } => {
            assert_eq!((rank, swap_index), (1, 1));
        }
        other => panic!("expected InjectedFault, got {other}"),
    }
    assert!(
        dir.join("MANIFEST.json").exists(),
        "a completed stage must have published a manifest"
    );

    // Resume from the manifest: the final state must equal the
    // uninterrupted run bit for bit.
    let mut cfg = config(&schedule);
    cfg.checkpoint = Some(CheckpointPolicy::resume(&dir));
    let out = run(cfg, &exec, &schedule).expect("resume must succeed");
    let got = out.state.unwrap();
    assert_eq!(
        max_dist(&got, &baseline),
        0.0,
        "resumed amplitudes must be bit-exact"
    );
    assert!((out.norm - 1.0).abs() < 1e-9);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_kill_without_checkpoint_is_a_typed_error() {
    let (exec, schedule) = planned(7, 3);
    let mut cfg = config(&schedule);
    cfg.fault_plan = Some(FaultPlan::new().kill(0, 0));
    let err = run(cfg, &exec, &schedule).expect_err("killed run must fail");
    assert!(
        matches!(
            err,
            SimError::InjectedFault {
                rank: 0,
                swap_index: 0
            }
        ),
        "got {err}"
    );
}

#[test]
fn injected_kill_flushes_a_flight_record() {
    let (exec, schedule) = planned(7, 3);
    let dir = tmpdir("flight");

    let telemetry = Telemetry::enabled();
    let recorder = FlightRecorder::new(telemetry.clone(), &dir);
    recorder.record_snapshot();

    let mut cfg = config(&schedule);
    cfg.telemetry = telemetry.clone();
    cfg.checkpoint = Some(CheckpointPolicy::new(&dir));
    cfg.fault_plan = Some(FaultPlan::new().kill(1, 1));
    let hook_rec = recorder.clone();
    cfg.poison_hook = Some(std::sync::Arc::new(move |rank: usize| {
        let _ = hook_rec.flush(&format!("fabric poisoned by rank {rank}"));
    }));
    run(cfg, &exec, &schedule).expect_err("killed run must fail");

    // The hook flushed on the dying rank's thread: the record names the
    // root-cause rank and carries its final spans plus the last metrics
    // snapshot.
    let path = qsim_core::checkpoint::flight_path(&dir);
    let doc = std::fs::read_to_string(&path).expect("FLIGHT.json written");
    let j = qsim_telemetry::json::parse(&doc).expect("flight record is valid JSON");
    assert_eq!(
        j.get("reason").unwrap().as_str(),
        Some("fabric poisoned by rank 1")
    );
    let tracks = j.get("tracks").unwrap().as_array().unwrap();
    let rank1 = tracks
        .iter()
        .find(|t| t.get("name").unwrap().as_str() == Some("rank 1"))
        .expect("dying rank's track present");
    assert!(
        !rank1.get("spans").unwrap().as_array().unwrap().is_empty(),
        "dying rank's final spans present"
    );
    assert!(j.get("metrics").unwrap().get("counters").is_some());
    assert!(
        !j.get("history").unwrap().as_array().unwrap().is_empty(),
        "rolling snapshot window present"
    );

    // Write-once: the driver's error epilogue must not clobber the
    // poison-time record.
    assert!(recorder.flush("error: late epilogue").unwrap().is_none());
    assert!(std::fs::read_to_string(&path).unwrap().contains("poisoned"));
    let _ = std::fs::remove_dir_all(&dir);
}
