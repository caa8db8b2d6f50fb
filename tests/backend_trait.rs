//! Conformance suite for the unified [`Backend`] trait: one generic
//! harness drives every engine — single-node, distributed, out-of-core —
//! through the same plan → seed → run → kill → resume sequence, at both
//! precisions. This is the contract a fourth backend must satisfy to
//! plug into the CLI (DESIGN.md §16): plan once, run bit-exactly with
//! or without checkpointing, die with a typed `InjectedStop` at the
//! requested unit, and resume to the bit-exact uninterrupted state —
//! whatever a kill in the next unit left in the generation the manifest
//! does not name.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::circuit::Circuit;
use qsim45::core::{
    Backend, BackendPlan, CheckpointPolicy, DistBackend, DistConfig, DistSimulator, SimError,
    SingleBackend, SingleNodeSimulator,
};
use qsim45::kernels::{KernelConfig, SweepDispatch};
use qsim45::ooc::{OocBackend, OocConfig, OocSimulator};
use qsim45::telemetry::Telemetry;
use qsim45::util::complex::max_dist;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let id = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("qsim_backend_{tag}_{}_{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn workload() -> Circuit {
    supremacy_circuit(&SupremacySpec {
        rows: 3,
        cols: 4,
        depth: 20,
        seed: 77,
    })
}

/// 2^4 ranks / chunks: small enough to thread cheaply, enough global
/// qubits that the schedule needs at least one swap — so every backend
/// has a genuine mid-run checkpoint unit to kill at.
const RANKS: usize = 16;

/// Every [`Backend`] implementation in the workspace, built over the
/// same telemetry handle with sequential kernels (determinism across
/// repeated runs is part of what the harness asserts). The single-node
/// plan of this workload is one swap-free stage, so its one checkpoint
/// unit is the whole run.
fn backends<R: SweepDispatch>(t: &Telemetry) -> Vec<Box<dyn Backend<R>>> {
    vec![
        Box::new(SingleBackend::new(SingleNodeSimulator {
            kernel: KernelConfig::sequential(),
            kmax: 3,
            telemetry: t.clone(),
            ..Default::default()
        })),
        Box::new(DistBackend::new(DistSimulator::new(DistConfig {
            n_ranks: RANKS,
            kernel: KernelConfig::sequential(),
            telemetry: t.clone(),
            ..Default::default()
        }))),
        Box::new(OocBackend::new(
            OocSimulator::<R>::new(OocConfig {
                telemetry: t.clone(),
                ..OocConfig::sequential()
            }),
            RANKS,
        )),
    ]
}

/// What a kill inside the unit writing a generation can leave in its
/// files.
#[derive(Clone, Copy, Debug)]
enum Leftover {
    Garbage,
    Truncated,
    Longer,
    Deleted,
}

/// Replace each file of the generation the manifest does not name (the
/// `*.g{other}.amps` twin of every `*.g{named}.amps`, for rank snapshots
/// and chunk files alike) with `how`; returns how many were replaced.
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

/// The shared conformance pass: replaces the per-engine copies that
/// used to live in `tests/backends.rs` and the engine-specific halves
/// of the checkpoint suites.
fn conformance<R: SweepDispatch>(norm_tol: f64) {
    let c = workload();
    let t = Telemetry::enabled();
    for mut b in backends::<R>(&t) {
        let name = b.name();

        // Plan: a valid schedule with a positive unit count. Swapful
        // plans (dist, ooc) must expose more than one checkpoint unit
        // so the kill below lands strictly mid-run; the single-node
        // plan has one unit, so its kill fires after its one stage,
        // at the end of the run.
        let plan = b.plan(&c).expect(name);
        let total_units = b.total_units(&plan);
        assert!(total_units >= 1, "{name}: empty plan");
        if name != "single" {
            assert!(
                total_units >= 2,
                "{name}: want >= 2 checkpoint units, got {total_units}"
            );
        }
        plan.schedule.verify(&plan.exec);

        // Progress seeding: the cost-model prior must land in the live
        // progress engine before any unit executes.
        b.seed_progress(&plan);
        let snap = t.progress().expect("enabled telemetry").snapshot();
        assert!(
            snap.phases.iter().any(|p| p.predicted_seconds > 0.0),
            "{name}: seed_progress left no cost-model prior"
        );

        // Plain gathered run: normalized state, stats tagged with the
        // engine that produced them.
        b.gather_state(true);
        let out = b.run(&plan).expect(name);
        assert_eq!(out.stats.engine(), name);
        assert!(
            (out.norm - 1.0).abs() < norm_tol,
            "{name}: norm {}",
            out.norm
        );
        let plain = out.state.expect("gathered state");
        assert_eq!(plain.len(), 1usize << c.n_qubits());

        // Checkpointed uninterrupted run: checkpointing must be bitwise
        // invisible to the physics.
        let dir = tmpdir(&format!("{name}_base"));
        b.checkpoint(CheckpointPolicy::new(&dir));
        let base = b.run(&plan).expect(name).state.expect("gathered state");
        assert_eq!(
            max_dist(&base, &plain).to_f64(),
            0.0,
            "{name}: checkpointed run diverged from the plain run"
        );
        let _ = std::fs::remove_dir_all(&dir);

        // At every unit: a kill lands as a typed InjectedStop naming
        // exactly the unit count that is durable in the checkpoint
        // directory...
        for stop in 1..=total_units {
            for how in [
                Leftover::Garbage,
                Leftover::Truncated,
                Leftover::Longer,
                Leftover::Deleted,
            ] {
                let at = format!("{name}: kill at {stop}/{total_units}, {how:?}");
                let dir = tmpdir(&format!("{name}_kill"));
                b.checkpoint(CheckpointPolicy::new(&dir));
                match b.run_to_stage(&plan, Some(stop)) {
                    Err(SimError::InjectedStop { unit }) => assert_eq!(unit, stop, "{at}"),
                    Err(e) => panic!("{at}: expected InjectedStop, got {e}"),
                    Ok(_) => panic!("{at}: the stop never fired"),
                }
                // ...the generation being written when the next unit
                // dies is in any state...
                assert!(tear_unnamed_generation(&dir, stop, how) > 0, "{at}");

                // ...and resume replays the identical tail: bit-exact.
                // (The stop point was an argument of that one call: this
                // run completes.)
                b.checkpoint(CheckpointPolicy::resume(&dir));
                let resumed = b.run(&plan).expect(name).state.expect("gathered state");
                assert_eq!(
                    max_dist(&resumed, &plain).to_f64(),
                    0.0,
                    "{at}: resume diverged"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

#[test]
fn every_backend_conforms_at_f64() {
    conformance::<f64>(1e-9);
}

#[test]
fn every_backend_conforms_at_f32() {
    // Norm and entropy accumulate in f64 on every engine, so the f32
    // tier's reported norm carries only the state's own rounding.
    conformance::<f32>(1e-6);
}

#[test]
fn backends_agree_with_each_other_through_the_trait() {
    // The equivalence half of the old per-engine suite, restated once
    // over the trait: every backend's gathered state against the first.
    let c = workload();
    let t = Telemetry::default();
    let mut states = Vec::new();
    for mut b in backends::<f64>(&t) {
        b.gather_state(true);
        let plan = b.plan(&c).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        let out = b.run(&plan).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        states.push((b.name(), out.state.expect("gathered state")));
    }
    let (ref_name, reference) = &states[0];
    for (name, state) in &states[1..] {
        let d = max_dist(state, reference);
        assert!(d < 1e-9, "{name} vs {ref_name}: max dist {d:e}");
    }
}

#[test]
fn a_stop_point_requires_a_checkpoint_directory() {
    // Killing a run that has nowhere to persist its progress would lose
    // the state: every backend must refuse up front with a typed error,
    // not run-and-discard.
    let c = workload();
    let t = Telemetry::default();
    for mut b in backends::<f64>(&t) {
        let name = b.name();
        let plan = b.plan(&c).expect(name);
        match b.run_to_stage(&plan, Some(1)) {
            Err(SimError::Checkpoint(_)) => {}
            Err(e) => panic!("{name}: expected Checkpoint error, got {e}"),
            Ok(_) => panic!("{name}: stop without a checkpoint dir must be rejected"),
        }
    }
}

#[test]
fn resume_rejects_cross_precision_checkpoints_through_the_trait() {
    // An f64 checkpoint picked up by an f32 backend would reinterpret
    // the raw amplitude bytes: the manifest's precision field must turn
    // this into a typed rejection on every engine.
    let c = workload();
    let t = Telemetry::default();
    for (mut b64, mut b32) in backends::<f64>(&t).into_iter().zip(backends::<f32>(&t)) {
        let name = b64.name();
        let dir = tmpdir(&format!("{name}_xprec"));
        b64.checkpoint(CheckpointPolicy::new(&dir));
        let plan = b64.plan(&c).expect(name);
        let stop = (b64.total_units(&plan) / 2).max(1);
        match b64.run_to_stage(&plan, Some(stop)) {
            Err(SimError::InjectedStop { .. }) => {}
            other => panic!("{name}: expected InjectedStop, got {:?}", other.map(|_| ())),
        }

        b32.checkpoint(CheckpointPolicy::resume(&dir));
        let plan32 = b32.plan(&c).expect(name);
        match b32.run(&plan32) {
            Err(SimError::Checkpoint(m)) => {
                assert!(m.contains("precision"), "{name}: unhelpful message: {m}")
            }
            Err(e) => panic!("{name}: expected Checkpoint error, got {e}"),
            Ok(_) => panic!("{name}: cross-precision resume must be rejected"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `SimError::Io` of kind `InvalidInput` — the one typed error for a
/// partition count the register cannot be split into.
fn assert_invalid_input<T>(what: &str, r: Result<T, SimError>) {
    match r {
        Err(SimError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidInput => {}
        Err(e) => panic!("{what}: expected InvalidInput, got {e}"),
        Ok(_) => panic!("{what}: must be rejected"),
    }
}

#[test]
fn bad_partition_counts_are_typed_errors_not_panics() {
    // n = 12. 3 is not a power of two; 2^12 leaves no local qubit;
    // 2^7 ranks means l = 5 < g = 7, which the all-to-all cannot serve.
    let c = workload();
    for parts in [3usize, 1 << 12, 1 << 13, 1 << 7] {
        let dist: Box<dyn Backend<f64>> =
            Box::new(DistBackend::new(DistSimulator::new(DistConfig {
                n_ranks: parts,
                ..Default::default()
            })));
        let ooc: Box<dyn Backend<f64>> = Box::new(OocBackend::new(
            OocSimulator::<f64>::new(OocConfig::sequential()),
            parts,
        ));
        for b in [dist, ooc] {
            assert_invalid_input(&format!("{} plan, {parts} parts", b.name()), b.plan(&c));
        }
    }

    // A hand-planned schedule whose geometry disagrees with the engine
    // is the same error from the run function, before any rank spawns.
    let mut four = DistBackend::new(DistSimulator::new(DistConfig {
        n_ranks: 4,
        ..Default::default()
    }));
    let plan = Backend::<f64>::plan(&four, &c).unwrap();
    four.sim.config.n_ranks = 8;
    assert_invalid_input(
        "dist run, 8 ranks on a 4-way plan",
        Backend::<f64>::run(&mut four, &plan),
    );
    four.sim.config.n_ranks = 3;
    assert_invalid_input("dist run, 3 ranks", Backend::<f64>::run(&mut four, &plan));
    // l < g, hand-planned (n = 4, l = 1, g = 3; no swap is needed, so the
    // planner itself never meets the impossible exchange).
    let mut tiny = Circuit::new(4);
    tiny.t(0).h(1);
    let narrow = qsim45::sched::plan(&tiny, &qsim45::sched::SchedulerConfig::distributed(1, 1));
    let narrow = BackendPlan::from_schedule(tiny, narrow, false);
    let mut wide = DistBackend::new(DistSimulator::new(DistConfig {
        n_ranks: 8,
        ..Default::default()
    }));
    assert_invalid_input("dist run, l < g", Backend::<f64>::run(&mut wide, &narrow));
    let mut ooc = OocBackend::new(OocSimulator::<f64>::new(OocConfig::sequential()), 8);
    assert_invalid_input("ooc run, l < g", ooc.run(&narrow));
    // A swapful hand-planned schedule (l < n) on the single-node engine,
    // whose one partition is the whole register.
    assert!(plan.schedule.n_swaps() > 0);
    let swapful = BackendPlan::from_schedule(plan.exec.clone(), plan.schedule.clone(), true);
    let mut single = SingleBackend::new(SingleNodeSimulator::default());
    assert_invalid_input(
        "single run, 4-way plan",
        Backend::<f64>::run(&mut single, &swapful),
    );
}
