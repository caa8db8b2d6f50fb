//! Crash-consistency tests for the out-of-core engine: a kill at *any*
//! byte of *any* pass — which leaves the manifest naming the previous
//! pass's generation next to whatever the killed pass left in the other
//! file parity — must leave a directory that resumes to the bit-exact
//! final state of an uninterrupted run (`max_dist == 0.0`, not a
//! tolerance).

use std::path::Path;

use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim_core::checkpoint::{Manifest, MANIFEST_FILE};
use qsim_core::single::strip_initial_hadamards;
use qsim_core::{
    Backend, BackendOutcome, BackendPlan, BackendStats, CheckpointPolicy, DistBackend, DistConfig,
    DistSimulator, SimError,
};
use qsim_kernels::{KernelConfig, SweepDispatch};
use qsim_ooc::{Codec, OocConfig, OocSimulator, ScratchDir};
use qsim_sched::{plan, SchedulerConfig};
use qsim_util::c64;
use qsim_util::complex::max_dist;

/// A small supremacy instance with a one-swap distributed plan.
fn planned(l: u32, kmax: u32) -> BackendPlan {
    planned_for(2, 4, 18, l, kmax)
}

fn planned_for(rows: u32, cols: u32, depth: u32, l: u32, kmax: u32) -> BackendPlan {
    let c = supremacy_circuit(&SupremacySpec {
        rows,
        cols,
        depth,
        seed: 7,
    });
    let (exec, uniform) = strip_initial_hadamards(&c);
    let schedule = plan(&exec, &SchedulerConfig::distributed(l, kmax));
    schedule.verify(&exec);
    BackendPlan::from_schedule(exec, schedule, uniform)
}

fn ckpt_sim(prefetch_depth: usize, checkpoint: CheckpointPolicy) -> OocSimulator {
    OocSimulator::new(OocConfig {
        prefetch_depth,
        checkpoint: Some(checkpoint),
        ..OocConfig::sequential()
    })
}

/// Checkpoint into the scratch store, starting fresh / resuming.
fn fresh(dir: &ScratchDir) -> CheckpointPolicy {
    CheckpointPolicy::new(dir.path())
}

fn resume(dir: &ScratchDir) -> CheckpointPolicy {
    CheckpointPolicy::resume(dir.path())
}

/// (traversals, bytes written, runs) of an OOC outcome.
fn io_of<R: SweepDispatch>(out: &BackendOutcome<R>) -> (u64, u64, usize) {
    match &out.stats {
        BackendStats::Ooc { io, runs, .. } => (io.traversals, io.bytes_written, *runs),
        other => panic!("ooc run reported {} stats", other.engine()),
    }
}

/// Uninterrupted checkpointed oracle state for the given plan.
fn oracle(plan: &BackendPlan) -> Vec<c64> {
    let dir = ScratchDir::new("ooc_ckpt_oracle");
    let out = ckpt_sim(3, fresh(&dir)).run_plan(plan, true, None);
    out.unwrap().state.unwrap()
}

#[test]
fn checkpointing_does_not_change_a_single_bit() {
    let plan = planned(6, 3);
    // The oracle is the distributed engine on the same plan.
    let mut dist = DistBackend::new(DistSimulator::new(DistConfig {
        n_ranks: 1 << (plan.schedule.n_qubits - plan.schedule.local_qubits),
        kernel: KernelConfig::sequential(),
        gather_state: true,
        ..Default::default()
    }));
    let pout = Backend::<f64>::run(&mut dist, &plan).unwrap();
    for depth in [1usize, 3] {
        let dir = ScratchDir::new("ooc_ckpt_on");
        let cout = ckpt_sim(depth, fresh(&dir))
            .run_plan(&plan, true, None)
            .unwrap();
        assert_eq!(
            max_dist(cout.state.as_ref().unwrap(), pout.state.as_ref().unwrap()),
            0.0,
            "checkpoint mode must be bit-exact (depth {depth})"
        );
        assert_eq!(cout.norm, pout.norm, "bitwise-equal reductions");
        assert!(
            dir.path().join("MANIFEST.json").exists(),
            "a finished run leaves its final manifest"
        );
    }
}

/// What a kill inside the pass writing a generation can leave in its
/// files.
#[derive(Clone, Copy, Debug)]
enum Leftover {
    Garbage,
    Truncated,
    Longer,
    Deleted,
}

const LEFTOVERS: [Leftover; 4] = [
    Leftover::Garbage,
    Leftover::Truncated,
    Leftover::Longer,
    Leftover::Deleted,
];

/// Replace each file of the generation the manifest does not name (the
/// `*.g{other}.amps` twin of every `*.g{named}.amps`) with `how`;
/// returns how many were replaced.
fn tear_unnamed_generation(dir: &Path, named: usize, how: Leftover) -> usize {
    let keep = format!(".g{}.amps", named % 2);
    let tear = format!(".g{}.amps", (named + 1) % 2);
    let named_files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_str().unwrap().ends_with(&keep))
        .collect();
    for path in &named_files {
        let len = std::fs::metadata(path).unwrap().len();
        let victim = dir.join(
            path.file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .replace(&keep, &tear),
        );
        let garbage = |len: u64| (0..len).map(|i| (i * 151 + 7) as u8).collect::<Vec<_>>();
        match how {
            Leftover::Garbage => std::fs::write(&victim, garbage(len)).unwrap(),
            Leftover::Truncated => std::fs::OpenOptions::new()
                .create(true)
                .truncate(false)
                .write(true)
                .open(&victim)
                .and_then(|f| f.set_len(len / 3))
                .unwrap(),
            Leftover::Longer => std::fs::write(&victim, garbage(len + 4099)).unwrap(),
            Leftover::Deleted => {
                let _ = std::fs::remove_file(&victim);
            }
        }
    }
    named_files.len()
}

/// Stop after every pass under `codec`, leave the other file parity in
/// every state a kill in the next pass can leave it, resume, and compare
/// with the uninterrupted uncompressed oracle (`codec` must be lossless).
///
/// Stop `u` plus a torn parity is a kill at any byte of pass `u`: its
/// manifest cursor names the generation pass `u − 1` wrote, and the torn
/// files are the ones pass `u` was writing. Stop 0 is a kill in pass 0 of
/// a fresh start over an older run's store: no manifest, old chunk files
/// in both parities, so the resume starts over. The protocol digests
/// chunk bytes *as stored*, so it has to hold unchanged when the store
/// holds codec frames.
fn kill_everywhere_then_resume(codec: Codec, prefetch_depth: usize) {
    // Three swaps (the first an identity slots→top permutation, so its
    // unpermute is skipped), four passes.
    let plan = planned_for(3, 3, 25, 5, 3);
    let runs = plan.schedule.n_swaps() + 1;
    assert!(runs >= 3, "want a middle pass to resume into");
    let n_chunks = 1usize << (plan.schedule.n_qubits - plan.schedule.local_qubits);
    let expect = oracle(&plan);
    let sim = |checkpoint: CheckpointPolicy| {
        OocSimulator::<f64>::new(OocConfig {
            prefetch_depth,
            checkpoint: Some(checkpoint),
            compress: codec,
            ..OocConfig::sequential()
        })
    };
    for stop in 0..=runs {
        for how in LEFTOVERS {
            let at = format!("{codec:?} depth {prefetch_depth}, stop {stop}, {how:?}");
            let dir = ScratchDir::new("ooc_ckpt_kill");
            if stop == 0 {
                sim(fresh(&dir)).run_plan(&plan, false, None).unwrap();
                std::fs::remove_file(dir.path().join(MANIFEST_FILE)).unwrap();
            } else {
                match sim(fresh(&dir)).run_plan(&plan, false, Some(stop)) {
                    Err(SimError::InjectedStop { unit }) => assert_eq!(unit, stop, "{at}"),
                    Err(e) => panic!("{at}: stop must surface typed: {e}"),
                    Ok(_) => panic!("{at}: stop never fired"),
                }
                let m = Manifest::load(dir.path()).unwrap().expect("manifest");
                assert_eq!(m.next_unit, stop, "{at}");
            }
            assert_eq!(
                tear_unnamed_generation(dir.path(), stop, how),
                n_chunks,
                "{at}"
            );
            let out = sim(resume(&dir)).run_plan(&plan, true, None).unwrap();
            assert_eq!(
                max_dist(out.state.as_ref().unwrap(), &expect),
                0.0,
                "{at}: resume diverged"
            );
            // Only the passes past the durable ones run again.
            let (traversals, _, runs) = io_of(&out);
            assert_eq!(traversals as usize, (runs - stop).max(1), "{at}");
        }
    }
}

#[test]
fn a_kill_in_any_pass_resumes_bit_exactly() {
    kill_everywhere_then_resume(Codec::None, 1);
    kill_everywhere_then_resume(Codec::None, 3);
}

#[test]
fn compressed_crash_resume_is_bit_exact() {
    kill_everywhere_then_resume(Codec::ShuffleRle, 1);
    kill_everywhere_then_resume(Codec::ShuffleRle, 3);
}

#[test]
fn a_version_3_manifest_is_a_typed_mismatch() {
    // Version 3 named staged/live chunk files this build never reads:
    // a directory it wrote is a foreign format, not a missing file.
    let plan = planned(6, 3);
    let dir = ScratchDir::new("ooc_ckpt_v3");
    ckpt_sim(3, fresh(&dir))
        .run_plan(&plan, false, Some(1))
        .expect_err("stop fires");
    let path = dir.path().join(MANIFEST_FILE);
    let v4 = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, v4.replace("\"version\": 4", "\"version\": 3")).unwrap();
    let err = ckpt_sim(3, resume(&dir))
        .run_plan(&plan, false, None)
        .expect_err("a v3 manifest must be rejected");
    assert!(matches!(err, SimError::Checkpoint(_)), "got {err}");
    assert!(
        err.to_string().contains("version 3"),
        "unhelpful error: {err}"
    );
}

#[test]
fn live_progress_plans_stage_runs_and_a_resume_pre_credits_nothing() {
    let plan = planned_for(3, 3, 25, 5, 3);
    let runs = plan.schedule.n_swaps() as u64 + 1;
    // Stream-phase (planned, done) units and swap_ns samples of one run.
    let observe = |checkpoint: CheckpointPolicy, stop: Option<usize>| {
        let telemetry = qsim_telemetry::Telemetry::enabled();
        let mut sim = OocSimulator::<f64>::new(OocConfig {
            checkpoint: Some(checkpoint),
            telemetry: telemetry.clone(),
            ..OocConfig::sequential()
        });
        let result = sim.run_plan(&plan, false, stop);
        let snap = telemetry.progress().unwrap().snapshot();
        let stream = snap.phases.iter().find(|p| p.name == "stream").unwrap();
        let swaps = match telemetry.metrics().unwrap().get("swap_ns") {
            Some(qsim_telemetry::Metric::Histogram(h)) => h.count,
            _ => 0,
        };
        (result.is_ok(), stream.planned, stream.done, swaps)
    };
    let dir = ScratchDir::new("ooc_ckpt_progress");
    assert_eq!(
        observe(fresh(&dir), None),
        (true, runs, runs, runs - 1),
        "a fresh run plans one unit per stage run, one swap_ns sample per swap"
    );
    let dir = ScratchDir::new("ooc_ckpt_progress_crash");
    // (The stop fires right after pass 1's manifest, before it reports
    // done.)
    assert_eq!(observe(fresh(&dir), Some(2)), (false, runs, 1, 1));
    assert_eq!(
        observe(resume(&dir), None),
        (true, runs - 2, runs - 2, runs - 2),
        "only the runs past the manifest cursor are planned"
    );
}

#[test]
fn resume_of_a_finished_run_replays_no_pass() {
    let plan = planned(6, 3);
    let dir = ScratchDir::new("ooc_ckpt_done");
    let first = ckpt_sim(3, fresh(&dir)).run_plan(&plan, true, None);
    let expect = first.unwrap().state.unwrap();

    let out = ckpt_sim(3, resume(&dir))
        .run_plan(&plan, true, None)
        .unwrap();
    assert_eq!(max_dist(out.state.as_ref().unwrap(), &expect), 0.0);
    // Every pass is skipped: the only traffic is the resume
    // verification read plus one reduction read (no pass is left to fold
    // it into) — no writes.
    let (traversals, bytes_written, _) = io_of(&out);
    assert_eq!(bytes_written, 0, "a finished run must not re-run");
    assert_eq!(traversals, 1);
}

#[test]
fn resume_rejects_a_foreign_manifest() {
    let ours = planned(6, 3);
    let dir = ScratchDir::new("ooc_ckpt_foreign");
    ckpt_sim(3, fresh(&dir))
        .run_plan(&ours, false, None)
        .unwrap();

    let other = supremacy_circuit(&SupremacySpec {
        rows: 2,
        cols: 4,
        depth: 12,
        seed: 9,
    });
    let (exec2, _) = strip_initial_hadamards(&other);
    let schedule2 = plan(&exec2, &SchedulerConfig::distributed(6, 3));
    let plan2 = BackendPlan::from_schedule(exec2, schedule2, ours.init_uniform);
    let err = ckpt_sim(3, resume(&dir))
        .run_plan(&plan2, false, None)
        .expect_err("foreign manifest must be rejected");
    assert!(matches!(err, SimError::Checkpoint(_)), "got {err}");
}

#[test]
fn resume_rejects_cross_precision_manifests() {
    let plan = planned(6, 3);
    // Publish f64 checkpoints, then point an f32 engine at the same
    // store: the chunk files hold raw f64 amplitude bytes, so resuming
    // at another precision must fail up front.
    let dir = ScratchDir::new("ooc_ckpt_prec");
    ckpt_sim(3, fresh(&dir))
        .run_plan(&plan, false, None)
        .unwrap();
    let mut sim32 = OocSimulator::<f32>::new(OocConfig {
        checkpoint: Some(resume(&dir)),
        ..OocConfig::sequential()
    });
    let err = sim32
        .run_plan(&plan, false, None)
        .expect_err("cross-precision resume must be rejected");
    assert!(
        err.to_string().contains("precision"),
        "unhelpful error: {err}"
    );
}

#[test]
fn resume_rejects_cross_codec_manifests() {
    // Chunk records are raw bytes under `none` and self-describing
    // frames under a codec; resuming with a different codec than the
    // manifest records would mis-read every record, so it must be
    // rejected up front — in both directions.
    let plan = planned(6, 3);
    let codec_sim = |codec: Codec, checkpoint: CheckpointPolicy| {
        OocSimulator::<f64>::new(OocConfig {
            checkpoint: Some(checkpoint),
            compress: codec,
            ..OocConfig::sequential()
        })
    };
    for (wrote, resumes) in [
        (Codec::ShuffleRle, Codec::None),
        (Codec::None, Codec::ShuffleRle),
        (Codec::ShuffleRle, Codec::Lossy(8)),
    ] {
        let dir = ScratchDir::new("ooc_ckpt_codec");
        codec_sim(wrote, fresh(&dir))
            .run_plan(&plan, false, None)
            .unwrap();
        let err = codec_sim(resumes, resume(&dir))
            .run_plan(&plan, false, None)
            .expect_err("cross-codec resume must be rejected");
        assert!(matches!(err, SimError::Checkpoint(_)), "got {err}");
        assert!(err.to_string().contains("codec"), "unhelpful error: {err}");
    }
}

#[test]
fn resume_without_a_manifest_is_a_fresh_start() {
    let plan = planned(6, 3);
    let expect = oracle(&plan);
    let dir = ScratchDir::new("ooc_ckpt_fresh");
    let out = ckpt_sim(3, resume(&dir)).run_plan(&plan, true, None);
    assert_eq!(max_dist(&out.unwrap().state.unwrap(), &expect), 0.0);
}
