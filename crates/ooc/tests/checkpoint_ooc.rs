//! Crash-consistency tests for the out-of-core engine: an injected
//! crash at *any* point of *any* pass's commit protocol (before the
//! manifest flips, between manifest and staged commit, after the
//! commit) must leave a directory that resumes to the bit-exact final
//! state of an uninterrupted run (`max_dist == 0.0`, not a tolerance).

use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim_core::single::strip_initial_hadamards;
use qsim_core::{
    Backend, BackendOutcome, BackendPlan, BackendStats, CheckpointPolicy, DistBackend, DistConfig,
    DistSimulator, SimError,
};
use qsim_kernels::{KernelConfig, SweepDispatch};
use qsim_ooc::{Codec, CrashPoint, InjectedCrash, OocConfig, OocSimulator, ScratchDir};
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

/// Crash at every pass × point under `codec`, resume, and compare with
/// the uninterrupted uncompressed oracle (`codec` must be lossless).
///
/// The protocol digests chunk bytes *as stored*, so it has to hold
/// unchanged when the store holds codec frames. Two windows get an
/// explicit look: pass 0, which reads no chunk — before its commit the
/// directory holds staged files only, and a crash before the manifest
/// leaves nothing to resume from — and every later pass, whose resume
/// finds live chunks holding the previous swap's exchange buffers, still
/// awaiting their unpermute.
fn crash_everywhere_then_resume(codec: Codec, prefetch_depth: usize) {
    // Three swaps (the first an identity slots→top permutation, so its
    // unpermute is skipped), four passes.
    let plan = planned_for(3, 3, 25, 5, 3);
    let n_swaps = plan.schedule.n_swaps();
    assert!(n_swaps >= 2, "want a middle pass to resume into");
    let expect = oracle(&plan);
    let sim = |checkpoint: CheckpointPolicy| {
        OocSimulator::<f64>::new(OocConfig {
            prefetch_depth,
            checkpoint: Some(checkpoint),
            compress: codec,
            ..OocConfig::sequential()
        })
    };
    for point in [
        CrashPoint::BeforeManifest,
        CrashPoint::BeforeCommit,
        CrashPoint::AfterCommit,
    ] {
        // Walk crash targets upward until one no longer fires (the run
        // has fewer passes than that index).
        let mut pass = 0usize;
        loop {
            let dir = ScratchDir::new("ooc_ckpt_crash");
            match sim(fresh(&dir)).run_plan(&plan, false, Some((pass, point))) {
                Ok(_) => break, // past the last pass: nothing to crash
                Err(SimError::InjectedStop { unit }) => assert_eq!(
                    unit,
                    InjectedCrash { pass, point }.durable_units(),
                    "pass {pass} ({point:?})"
                ),
                Err(e) => panic!("injected crash must surface typed: {e}"),
            }
            let live = dir.path().join("chunk_000000.amps").exists();
            let manifest = dir.path().join("MANIFEST.json").exists();
            let want = match (pass, point) {
                (0, CrashPoint::BeforeManifest) => (false, false),
                (0, CrashPoint::BeforeCommit) => (false, true),
                _ => (true, true),
            };
            assert_eq!((live, manifest), want, "pass {pass} ({point:?})");
            let out = sim(resume(&dir)).run_plan(&plan, true, None).unwrap();
            assert_eq!(
                max_dist(out.state.as_ref().unwrap(), &expect),
                0.0,
                "{codec:?}: resume after crash at pass {pass} ({point:?}) diverged"
            );
            // Only the passes past the durable ones run again.
            let durable = pass + usize::from(point != CrashPoint::BeforeManifest);
            let (traversals, _, runs) = io_of(&out);
            assert_eq!(
                traversals as usize,
                (runs - durable).max(1),
                "pass {pass} ({point:?})"
            );
            pass += 1;
        }
        assert_eq!(pass, n_swaps + 1, "one crash window per stage run");
    }
}

#[test]
fn crash_at_every_pass_and_point_then_resume_is_bit_exact() {
    crash_everywhere_then_resume(Codec::None, 1);
    crash_everywhere_then_resume(Codec::None, 3);
}

#[test]
fn compressed_crash_resume_is_bit_exact() {
    crash_everywhere_then_resume(Codec::ShuffleRle, 3);
}

#[test]
fn live_progress_plans_stage_runs_and_a_resume_pre_credits_nothing() {
    let plan = planned_for(3, 3, 25, 5, 3);
    let runs = plan.schedule.n_swaps() as u64 + 1;
    // Stream-phase (planned, done) units and swap_ns samples of one run.
    let observe = |checkpoint: CheckpointPolicy, crash: Option<(usize, CrashPoint)>| {
        let telemetry = qsim_telemetry::Telemetry::enabled();
        let mut sim = OocSimulator::<f64>::new(OocConfig {
            checkpoint: Some(checkpoint),
            telemetry: telemetry.clone(),
            ..OocConfig::sequential()
        });
        let result = sim.run_plan(&plan, false, crash);
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
    // (The crash fires inside pass 1's commit, before it reports done.)
    assert_eq!(
        observe(fresh(&dir), Some((1, CrashPoint::AfterCommit))),
        (false, runs, 1, 1)
    );
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
