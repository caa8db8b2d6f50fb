//! Conformance suite for the unified [`Backend`] trait: one generic
//! harness drives every engine — single-node, distributed, out-of-core —
//! through the same plan → run → kill → resume sequence, at both
//! precisions. This is the contract a fourth backend must satisfy to
//! plug into the CLI (DESIGN.md §16): plan once, run bit-exactly with
//! or without checkpointing, die with a typed `InjectedStop` at the
//! requested unit, and resume to the bit-exact uninterrupted state —
//! whatever a kill in the next unit left in the generation the manifest
//! does not name. The unit is the stage, with the swap that closes it,
//! on every engine: progress counts it and checkpoints cut at it. Every
//! engine writes the same partition artifacts under the same manifest, so
//! what a resume must refuse — another run's manifest, an older format,
//! another precision, a damaged artifact — is checked here once, on all
//! of them.

use std::io::Write;
use std::path::Path;

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::circuit::{Circuit, Gate};
use qsim45::core::checkpoint::{MANIFEST_FILE, MANIFEST_VERSION};
use qsim45::core::{
    Backend, BackendPlan, BackendStats, CheckpointPolicy, DistBackend, DistConfig, DistSimulator,
    SimError, SingleBackend, SingleNodeSimulator,
};
use qsim45::kernels::{KernelConfig, SweepDispatch, SweepStats};
use qsim45::ooc::{OocBackend, OocConfig, OocSimulator, ScratchDir};
use qsim45::sched::{Stage, SwapOp};
use qsim45::telemetry::{Metric, RunState, Telemetry};
use qsim45::util::complex::max_dist;

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

/// Every [`Backend`] implementation in the workspace, the partitioned
/// ones over `ranks` ranks / chunks, built over the same telemetry
/// handle with sequential kernels (determinism across repeated runs is
/// part of what the harness asserts). The single-node plan of this
/// workload is one swap-free stage, so its one unit is the whole run.
fn backends<R: SweepDispatch>(t: &Telemetry, ranks: usize) -> Vec<Box<dyn Backend<R>>> {
    vec![
        Box::new(SingleBackend::new(SingleNodeSimulator {
            kernel: KernelConfig::sequential(),
            kmax: 3,
            telemetry: t.clone(),
            ..Default::default()
        })),
        Box::new(DistBackend::new(DistSimulator::new(DistConfig {
            n_ranks: ranks,
            kernel: KernelConfig::sequential(),
            telemetry: t.clone(),
            ..Default::default()
        }))),
        Box::new(OocBackend::new(
            OocSimulator::<R>::new(OocConfig {
                telemetry: t.clone(),
                ..OocConfig::sequential()
            }),
            ranks,
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

/// Apply `damage` to every file of the generation the manifest names: a
/// resume from it must be rejected.
fn damage_named_generation(dir: &Path, named: usize, damage: impl Fn(&Path)) {
    let keep = format!(".g{}.amps", named % 2);
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.to_str().unwrap().ends_with(&keep) {
            damage(&path);
        }
    }
}

/// What `/status` and the trace show of one run of backend `which` (its
/// index in [`backends`]) on fresh telemetry: progress `(planned, done)`
/// units, `swap_ns` samples, the final run state and the number of
/// `resume.validate` spans. Every run, resumed or not, has the
/// cost-model prior of its plan seeded before its first unit.
fn progress_of<R: SweepDispatch>(
    which: usize,
    plan: &BackendPlan,
    policy: CheckpointPolicy,
    stop: Option<usize>,
) -> (u64, u64, u64, RunState, usize) {
    let t = Telemetry::enabled();
    let mut b = backends::<R>(&t, RANKS).swap_remove(which);
    b.checkpoint(policy);
    let _ = b.run_to_stage(plan, stop);
    let snap = t.progress().expect("enabled telemetry").snapshot();
    assert!(snap.predicted_seconds > 0.0, "no cost-model prior");
    let swaps = match t.metrics().expect("enabled telemetry").get("swap_ns") {
        Some(Metric::Histogram(h)) => h.count,
        _ => 0,
    };
    let validations = t
        .tracks_snapshot()
        .iter()
        .flat_map(|(_, events, _)| events)
        .filter(|e| e.name == "resume.validate")
        .count();
    (snap.planned, snap.done, swaps, snap.state, validations)
}

/// The shared conformance pass, the same for every engine.
fn conformance<R: SweepDispatch>(norm_tol: f64) {
    let c = workload();
    let t = Telemetry::enabled();
    for (which, mut b) in backends::<R>(&t, RANKS).into_iter().enumerate() {
        let name = b.name();

        // Plan: a valid schedule, one unit per stage. Swapful plans
        // (dist, ooc) must have more than one stage so the kill below
        // lands strictly mid-run; the single-node plan has one, so its
        // kill fires after its one stage, at the end of the run.
        let plan = b.plan(&c).expect(name);
        let stages = &plan.schedule.stages;
        let total_units = stages.len();
        assert!(total_units >= 1, "{name}: empty plan");
        if name != "single" {
            assert!(
                total_units >= 2,
                "{name}: want >= 2 checkpoint units, got {total_units}"
            );
        }
        plan.schedule.verify(&plan.exec);

        // Progress accounting: a fresh run plans and completes one unit
        // per stage with one `swap_ns` sample per swap executed; a kill
        // at unit `k` has completed `k`; the resume plans only the
        // stages past the manifest cursor — it pre-credits nothing. The
        // run state ends `done` after a full run and `failed` after a
        // stop or a torn resume, and every checkpointed run validates
        // its directory exactly once.
        let swaps_in = |s: &[Stage]| s.iter().filter(|s| s.swap.is_some()).count() as u64;
        let units = total_units as u64;
        let dir = ScratchDir::new(&format!("{name}_progress"));
        let (done, failed) = (RunState::Done, RunState::Failed);
        // The run frame seeds one unit per stage before the first runs.
        assert_eq!(
            progress_of::<R>(which, &plan, CheckpointPolicy::new(dir.path()), Some(1)).0,
            units,
            "{name}: seeded"
        );
        assert_eq!(
            progress_of::<R>(which, &plan, CheckpointPolicy::new(dir.path()), None),
            (units, units, swaps_in(stages), done, 1),
            "{name}: fresh run"
        );
        let k = (total_units / 2).max(1);
        assert_eq!(
            progress_of::<R>(which, &plan, CheckpointPolicy::new(dir.path()), Some(k)),
            (units, k as u64, swaps_in(&stages[..k]), failed, 1),
            "{name}: killed at unit {k}"
        );
        let rest = &stages[k..];
        let rest_units = rest.len() as u64;
        assert_eq!(
            progress_of::<R>(which, &plan, CheckpointPolicy::resume(dir.path()), None),
            (rest_units, rest_units, swaps_in(rest), done, 1),
            "{name}: resumed from unit {k}"
        );
        progress_of::<R>(which, &plan, CheckpointPolicy::new(dir.path()), Some(k));
        damage_named_generation(dir.path(), k, |p| std::fs::write(p, [0u8; 4]).unwrap());
        let (.., state, validations) =
            progress_of::<R>(which, &plan, CheckpointPolicy::resume(dir.path()), None);
        assert_eq!((state, validations), (failed, 1), "{name}: torn resume");

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
        let dir = ScratchDir::new(&format!("{name}_base"));
        b.checkpoint(CheckpointPolicy::new(dir.path()));
        let base = b.run(&plan).expect(name).state.expect("gathered state");
        assert_eq!(
            max_dist(&base, &plain).to_f64(),
            0.0,
            "{name}: checkpointed run diverged from the plain run"
        );

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
                let dir = ScratchDir::new(&format!("{name}_kill"));
                b.checkpoint(CheckpointPolicy::new(dir.path()));
                match b.run_to_stage(&plan, Some(stop)) {
                    Err(SimError::InjectedStop { unit }) => assert_eq!(unit, stop, "{at}"),
                    Err(e) => panic!("{at}: expected InjectedStop, got {e}"),
                    Ok(_) => panic!("{at}: the stop never fired"),
                }
                // ...the generation being written when the next unit
                // dies is in any state...
                assert!(tear_unnamed_generation(dir.path(), stop, how) > 0, "{at}");

                // ...and resume replays the identical tail: bit-exact.
                // (The stop point was an argument of that one call: this
                // run completes.)
                b.checkpoint(CheckpointPolicy::resume(dir.path()));
                let resumed = b.run(&plan).expect(name).state.expect("gathered state");
                assert_eq!(
                    max_dist(&resumed, &plain).to_f64(),
                    0.0,
                    "{at}: resume diverged"
                );
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
    for mut b in backends::<f64>(&t, RANKS) {
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
    for mut b in backends::<f64>(&t, RANKS) {
        let name = b.name();
        let plan = b.plan(&c).expect(name);
        match b.run_to_stage(&plan, Some(1)) {
            Err(SimError::Checkpoint(_)) => {}
            Err(e) => panic!("{name}: expected Checkpoint error, got {e}"),
            Ok(_) => panic!("{name}: stop without a checkpoint dir must be rejected"),
        }
    }
}

/// Resume `plan` on `b` from `dir`, which must be refused with a typed
/// [`SimError::Checkpoint`] whose message names `why`.
fn assert_resume_refused<R: SweepDispatch>(
    b: &mut dyn Backend<R>,
    plan: &BackendPlan,
    dir: &Path,
    why: &str,
) {
    let name = b.name();
    b.checkpoint(CheckpointPolicy::resume(dir));
    match b.run(plan) {
        Err(SimError::Checkpoint(m)) => assert!(m.contains(why), "{name}: unhelpful message: {m}"),
        Err(e) => panic!("{name}: expected a Checkpoint error naming {why}, got {e}"),
        Ok(_) => panic!("{name}: resume must be refused ({why})"),
    }
}

/// Checkpoint `c` on `writer` up to its middle unit, then resume it on
/// `reader`, the same engine at the other precision.
fn cross_precision<A: SweepDispatch, B: SweepDispatch>(
    writer: &mut dyn Backend<A>,
    reader: &mut dyn Backend<B>,
    c: &Circuit,
) {
    let name = writer.name();
    let dir = ScratchDir::new(&format!("{name}_xprec"));
    writer.checkpoint(CheckpointPolicy::new(dir.path()));
    let plan = writer.plan(c).expect(name);
    let stop = (plan.schedule.stages.len() / 2).max(1);
    match writer.run_to_stage(&plan, Some(stop)) {
        Err(SimError::InjectedStop { .. }) => {}
        other => panic!("{name}: expected InjectedStop, got {:?}", other.map(|_| ())),
    }
    let plan = reader.plan(c).expect(name);
    assert_resume_refused(reader, &plan, dir.path(), "precision");
}

#[test]
fn resume_rejects_cross_precision_checkpoints_through_the_trait() {
    // A checkpoint picked up at the other precision would reinterpret the
    // raw amplitude bytes: the manifest's precision field must turn this
    // into a typed rejection on every engine, in both directions.
    let c = workload();
    let t = Telemetry::default();
    for (mut b64, mut b32) in backends::<f64>(&t, RANKS)
        .into_iter()
        .zip(backends::<f32>(&t, RANKS))
    {
        cross_precision(b64.as_mut(), b32.as_mut(), &c);
        cross_precision(b32.as_mut(), b64.as_mut(), &c);
    }
}

#[test]
fn resume_rejects_another_run_or_an_older_format() {
    // A directory some other run wrote is a typed rejection, never a
    // resume from it: a different circuit's manifest (its schedule
    // fingerprint), or a manifest of the previous format version.
    let c = workload();
    let other = supremacy_circuit(&SupremacySpec {
        rows: 3,
        cols: 4,
        depth: 12,
        seed: 78,
    });
    let t = Telemetry::default();
    for mut b in backends::<f64>(&t, RANKS) {
        let name = b.name();
        let plan = b.plan(&c).expect(name);
        let dir = ScratchDir::new(&format!("{name}_foreign"));
        b.checkpoint(CheckpointPolicy::new(dir.path()));
        b.run(&plan).expect(name);
        let foreign = b.plan(&other).expect(name);
        assert_resume_refused(b.as_mut(), &foreign, dir.path(), "schedule hash");

        let path = dir.path().join(MANIFEST_FILE);
        let older = MANIFEST_VERSION - 1;
        let text = std::fs::read_to_string(&path).unwrap().replace(
            &format!("\"version\": {MANIFEST_VERSION}"),
            &format!("\"version\": {older}"),
        );
        std::fs::write(&path, text).unwrap();
        assert_resume_refused(b.as_mut(), &plan, dir.path(), &format!("version {older}"));
    }
}

#[test]
fn resume_rejects_bytes_appended_to_the_named_generation() {
    // The named generation of a finished run, each artifact followed by
    // 4,099 more bytes: the partition's bytes are intact, the file is not.
    // One whole-file digest and one size make this a typed rejection on
    // every engine, not a resume that reads the first bytes and stops.
    let c = workload();
    let t = Telemetry::default();
    for mut b in backends::<f64>(&t, RANKS) {
        let name = b.name();
        let plan = b.plan(&c).expect(name);
        let dir = ScratchDir::new(&format!("{name}_appended"));
        b.checkpoint(CheckpointPolicy::new(dir.path()));
        b.run(&plan).expect(name);
        damage_named_generation(dir.path(), plan.schedule.stages.len(), |p| {
            let mut f = std::fs::OpenOptions::new().append(true).open(p).unwrap();
            f.write_all(&[0x5a; 4099]).unwrap();
        });
        assert_resume_refused(b.as_mut(), &plan, dir.path(), "partition");
    }
}

#[test]
fn resume_before_the_first_and_after_the_last_unit() {
    // No manifest yet (the kill landed before the first commit): a resume
    // is a fresh start. Every unit durable: a resume loads the final
    // generation, re-runs no stage, swap or pass, and reduces — the same
    // state on every engine. A stop point past the last unit never fires.
    let c = workload();
    let t = Telemetry::default();
    for mut b in backends::<f64>(&t, RANKS) {
        let name = b.name();
        b.gather_state(true);
        let plan = b.plan(&c).expect(name);
        let total = plan.schedule.stages.len();
        let plain = b.run(&plan).expect(name).state.expect("gathered state");
        let dir = ScratchDir::new(&format!("{name}_bracket"));
        for (policy, stop) in [
            (CheckpointPolicy::resume(dir.path()), None),
            (CheckpointPolicy::new(dir.path()), Some(total + 1)),
            (CheckpointPolicy::new(dir.path()), Some(usize::MAX)),
        ] {
            b.checkpoint(policy);
            let out = b.run_to_stage(&plan, stop);
            let state = out
                .unwrap_or_else(|e| panic!("{name}, stop {stop:?}: {e}"))
                .state;
            assert_eq!(
                max_dist(&state.unwrap(), &plain),
                0.0,
                "{name}, stop {stop:?}"
            );
        }
        b.checkpoint(CheckpointPolicy::resume(dir.path()));
        let out = b.run(&plan).expect(name);
        assert_eq!(
            max_dist(&out.state.unwrap(), &plain),
            0.0,
            "{name}: finished"
        );
        assert_eq!(
            *out.stats.sweep(),
            SweepStats::default(),
            "{name}: a stage re-ran"
        );
        match out.stats {
            BackendStats::Dist {
                swap_bytes_copied, ..
            } => assert_eq!(swap_bytes_copied, 0, "dist: a swap re-ran"),
            // The only traffic: one read to reduce (no pass is left to
            // fold it into), checked as it reads — no write.
            BackendStats::Ooc { io, runs, .. } => {
                assert_eq!((io.bytes_written, io.traversals, runs), (0, 1, 0), "ooc")
            }
            BackendStats::Single { .. } => {}
        }
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
    // is the same error when the run opens, before any rank spawns.
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

#[test]
fn unschedulable_circuits_are_typed_errors_not_panics() {
    // At 4 ranks or chunks a 4-qubit register keeps l = 2 qubits local. A
    // CNOT mesh must run some CNOT across the two halves, which every swap
    // exchanges; a Toffoli is wider than the local qubits. The planner
    // refuses both with the typed error, on dist and OOC alike.
    let (mut mesh, mut toffoli) = (Circuit::new(4), Circuit::new(4));
    for (control, target) in (0..4).flat_map(|a| (0..4).map(move |b| (a, b))) {
        if control != target {
            mesh.cnot(control, target);
        }
    }
    toffoli.push(Gate::Toffoli {
        target: 0,
        c1: 1,
        c2: 2,
    });
    let t = Telemetry::default();
    for c in [&mesh, &toffoli] {
        for b in backends::<f64>(&t, 4).into_iter().skip(1) {
            assert_invalid_input(&format!("{} plan, {:?}", b.name(), c.gates()[0]), b.plan(c));
        }
    }
}

#[test]
fn schedules_of_the_wrong_shape_are_typed_errors_on_every_backend() {
    // x(0) on 4 qubits, each engine's own plan reshaped two ways the
    // planner never produces. A trailing swap (on the slot holding qubit
    // 0) would leave the state relabelled behind the final mapping; a
    // swap-free interior stage would be a unit no swap closes. Both are
    // the one typed error on every engine, before any amplitude moves.
    let mut c = Circuit::new(4);
    c.x(0);
    let t = Telemetry::default();
    for mut b in backends::<f64>(&t, 2) {
        let name = b.name();
        b.gather_state(true);
        let plan = b.plan(&c).expect(name);
        assert_eq!(plan.schedule.stages.len(), 1, "{name}");
        let g = (plan.schedule.n_qubits - plan.schedule.local_qubits) as usize;

        let mut trailing = plan.clone();
        let last = &mut trailing.schedule.stages[0];
        last.swap = Some(SwapOp {
            local_slots: vec![last.mapping[0]; g],
        });
        assert_invalid_input(&format!("{name}, trailing swap"), b.run(&trailing));

        let mut open = plan.clone();
        let first = Stage {
            mapping: open.schedule.stages[0].mapping.clone(),
            ops: Vec::new(),
            swap: None,
        };
        open.schedule.stages.insert(0, first);
        assert_invalid_input(&format!("{name}, swap-free interior stage"), b.run(&open));
    }
}
