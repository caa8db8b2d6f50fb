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
use qsim_kernels::SweepDispatch;
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

/// (traversals, bytes read, stages executed) of an OOC outcome.
fn io_of<R: SweepDispatch>(out: &BackendOutcome<R>) -> (u64, u64, usize) {
    match &out.stats {
        BackendStats::Ooc { io, runs, .. } => (io.traversals, io.bytes_read, *runs),
        other => panic!("ooc run reported {} stats", other.engine()),
    }
}

/// Uninterrupted checkpointed oracle state for the given plan.
fn oracle(plan: &BackendPlan) -> Vec<c64> {
    let dir = ScratchDir::new("ooc_ckpt_oracle");
    let out = ckpt_sim(3, fresh(&dir)).run_plan(plan, true, None);
    out.unwrap().state.unwrap()
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
    let units = plan.schedule.stages.len();
    assert!(units >= 3, "want a middle pass to resume into");
    let n_chunks = 1usize << (plan.schedule.n_qubits - plan.schedule.local_qubits);
    let state_bytes = 16u64 << plan.schedule.n_qubits;
    let expect = oracle(&plan);
    let sim = |checkpoint: CheckpointPolicy| {
        OocSimulator::<f64>::new(OocConfig {
            prefetch_depth,
            checkpoint: Some(checkpoint),
            compress: codec,
            ..OocConfig::sequential()
        })
    };
    for stop in 0..=units {
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
            let (traversals, bytes_read, executed) = io_of(&out);
            assert_eq!(executed, units - stop, "{at}");
            assert_eq!(traversals as usize, executed.max(1), "{at}");
            // The named generation is read once, checked as it is read:
            // one state per pass that reads (all but a fresh start's
            // first), and one for the reduction of a finished run.
            if codec.is_none() {
                let reads = if stop == 0 {
                    units - 1
                } else {
                    executed.max(1)
                };
                assert_eq!(bytes_read, reads as u64 * state_bytes, "{at}");
            }
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
    // The in-memory store reads raw partitions only: it refuses a
    // compressed directory by its codec, though the layout is the same.
    let dir = ScratchDir::new("ooc_ckpt_codec_dist");
    codec_sim(Codec::ShuffleRle, fresh(&dir))
        .run_plan(&plan, false, None)
        .unwrap();
    let mut dist = DistBackend::new(DistSimulator::new(DistConfig {
        n_ranks: 1 << (plan.schedule.n_qubits - plan.schedule.local_qubits),
        ..DistConfig::default()
    }));
    Backend::<f64>::checkpoint(&mut dist, resume(&dir));
    let err = Backend::<f64>::run(&mut dist, &plan).expect_err("in-memory resume of frames");
    assert!(matches!(err, SimError::Checkpoint(_)), "got {err}");
    assert!(err.to_string().contains("codec"), "unhelpful error: {err}");
}
