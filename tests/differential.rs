//! The differential oracle: one seeded generator over the configuration
//! product the engines expose. Every run goes through [`Backend::plan`]
//! and [`Backend::run_to_stage`] and keeps three rules:
//!
//! 1. Runs whose plans share a [`schedule_fingerprint`] at one precision
//!    are `to_bits`-identical in amplitudes, norm and entropy, whatever
//!    the engine, SIMD width, threads, tile, prefetch depth, lossless
//!    codec or kill/resume point — the slow tier is interchangeable (§5).
//! 2. Every result lies within 1e-10 (f64) or 2e-6·(gates + 1) (f32) of
//!    [`simulate_dense`], which shares no engine code.
//! 3. Stat invariants: norm, pass counts, bytes moved, overlap fraction,
//!    and one greedy plan at both precisions, twice the bytes at f64.
//!
//! A failure is shrunk to the gates the same pair of configs still fails
//! on, and printed as one `replay:` line. Only plans refused with a typed
//! `InvalidInput` are skipped, counted and capped.

mod common;

use common::{grid_asym, TwoQubit};
use qsim45::circuit::dense::{entropy as dense_entropy, simulate_dense};
use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::circuit::{Circuit, Gate};
use qsim45::compress::FRAME_HEADER_LEN;
use qsim45::core::checkpoint::schedule_fingerprint;
use qsim45::core::dist::slots_to_top_permutation;
use qsim45::core::{
    Backend, BackendStats, CheckpointPolicy, DistBackend, DistConfig, DistSimulator, PlanOptions,
    ScheduleMode, SimError, SingleBackend, SingleNodeSimulator,
};
use qsim45::kernels::{KernelConfig, Simd, SweepDispatch};
use qsim45::ooc::{Codec, OocBackend, OocConfig, OocSimulator, ScratchDir};
use qsim45::sched::Schedule;
use qsim45::util::complex::max_dist;
use qsim45::util::{c64, Xoshiro256};

/// Seed of the random sweep; case `i` draws from `SEED + i`.
const SEED: u64 = 45;
const CASES: u64 = 60;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Engine {
    Single,
    Dist,
    Ooc,
}

/// What planning depends on.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Key {
    parts: usize,
    kmax: u32,
    search: bool,
    f32: bool,
}

impl Key {
    fn other_precision(self) -> Key {
        Key {
            f32: !self.f32,
            ..self
        }
    }
}

/// What execution depends on besides the plan. `stop`: stop after that
/// many units (at most the plan's) under a checkpoint, then resume.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Exec {
    engine: Engine,
    simd: Simd,
    threads: usize,
    tile: Option<u32>,
    prefetch: usize,
    codec: Codec,
    stop: Option<usize>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Config {
    key: Key,
    exec: Exec,
}

/// One run, its amplitudes widened to f64 (which keeps every f32 bit).
struct Outcome {
    schedule: Schedule,
    amps: Vec<c64>,
    norm: f64,
    entropy: f64,
    stats: BackendStats,
}

type Run<'a> = (&'a Config, &'a Outcome);

fn backend<R: SweepDispatch>(key: &Key, x: &Exec) -> Box<dyn Backend<R>> {
    let kernel = KernelConfig {
        simd: x.simd,
        threads: x.threads,
    };
    let mode = [ScheduleMode::Greedy, ScheduleMode::Search][usize::from(key.search)];
    let plan_options = PlanOptions {
        mode,
        ..PlanOptions::default()
    };
    match x.engine {
        Engine::Single => Box::new(SingleBackend::new(SingleNodeSimulator {
            kernel,
            kmax: key.kmax,
            tile_qubits: x.tile,
            plan_options,
            ..SingleNodeSimulator::default()
        })),
        Engine::Dist => {
            let mut b = DistBackend::new(DistSimulator::new(DistConfig {
                n_ranks: key.parts,
                kernel,
                tile_qubits: x.tile,
                ..DistConfig::default()
            }));
            (b.kmax, b.plan_options) = (key.kmax, plan_options);
            Box::new(b)
        }
        Engine::Ooc => {
            let config = OocConfig {
                kernel,
                prefetch_depth: x.prefetch,
                tile_qubits: x.tile,
                compress: x.codec,
                ..OocConfig::default()
            };
            let mut b = OocBackend::new(OocSimulator::<R>::new(config), key.parts);
            (b.kmax, b.plan_options) = (key.kmax, plan_options);
            Box::new(b)
        }
    }
}

/// Plan and run `c` under `cfg`, gathered; `None` when the plan is a
/// typed `InvalidInput`.
fn run(c: &Circuit, cfg: &Config) -> Result<Option<Outcome>, String> {
    match cfg.key.f32 {
        true => run_as::<f32>(c, cfg),
        false => run_as::<f64>(c, cfg),
    }
}

fn run_as<R: SweepDispatch>(c: &Circuit, cfg: &Config) -> Result<Option<Outcome>, String> {
    let mut b = backend::<R>(&cfg.key, &cfg.exec);
    b.gather_state(true);
    let plan = match b.plan(c) {
        Ok(plan) => plan,
        Err(SimError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidInput => return Ok(None),
        Err(e) => return Err(format!("plan: {e}")),
    };
    let dir = ScratchDir::new("differential");
    if let Some(stop) = cfg.exec.stop {
        let stop = stop.min(plan.schedule.stages.len());
        b.checkpoint(CheckpointPolicy::new(dir.path()));
        match b.run_to_stage(&plan, Some(stop)) {
            Err(SimError::InjectedStop { unit }) if unit == stop => {}
            other => return Err(format!("stop at {stop}: {:?}", other.map(|_| ()))),
        }
        b.checkpoint(CheckpointPolicy::resume(dir.path()));
    }
    let out = b.run(&plan).map_err(|e| format!("run: {e}"))?;
    let amps = out.state.ok_or("no state")?;
    Ok(Some(Outcome {
        schedule: plan.schedule,
        amps: amps.iter().map(|a| a.convert()).collect(),
        norm: out.norm,
        entropy: out.entropy,
        stats: out.stats,
    }))
}

/// `Err(what)` unless `ok`.
fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    ok.then_some(()).ok_or_else(what)
}

/// Rules 2 and 3: what one run must satisfy on its own.
fn solo_rules(c: &Circuit, dense: &[c64], (cfg, out): Run) -> Result<(), String> {
    let s = &out.schedule;
    let (whole, coded) = (cfg.exec.stop.is_none(), cfg.exec.codec != Codec::None);
    let (n, l, swaps) = (s.n_qubits, s.local_qubits, s.n_swaps() as u64);
    let (amp_bytes, tol, norm_tol) = match cfg.key.f32 {
        true => (8, 2e-6 * (c.len() as f64 + 1.0), 1e-4),
        false => (16, 1e-10, 1e-9),
    };
    let d = max_dist(&out.amps, dense);
    ensure(d < tol, || format!("dense: {d:e}"))?;
    let dh = (out.entropy - dense_entropy(dense)).abs();
    ensure(cfg.key.f32 || dh < 1e-8, || format!("entropy: {dh:e}"))?;
    let norm = out.norm;
    ensure((norm - 1.0).abs() < norm_tol, || format!("norm {norm}"))?;
    let idle = s.stages.iter().all(|st| st.ops.is_empty());
    let swept = out.stats.sweep().sweep_passes > 0;
    ensure(!whole || idle || swept, || "never swept".into())?;
    let (parts, state_bytes) = (1u64 << (n - l), (1u64 << n) * amp_bytes);
    match &out.stats {
        BackendStats::Ooc { io, runs, .. } => {
            let f = io.overlap_fraction();
            ensure((0.0..=1.0).contains(&f), || format!("overlap {f}"))?;
            // A frame the codec cannot shrink is stored raw behind its
            // header: one per piece a swap scatters, one per chunk of the
            // last pass.
            let frames = swaps * parts * parts + parts;
            let bound = io.logical_bytes_written + frames * FRAME_HEADER_LEN as u64;
            ensure(!coded || io.bytes_written <= bound, || format!("{io:?}"))?;
            let logical = (io.logical_bytes_read, io.logical_bytes_written);
            let passes = (*runs as u64, io.traversals);
            let moved = (swaps * state_bytes, (swaps + 1) * state_bytes);
            let ok = passes == (swaps + 1, swaps + 1) && logical == moved;
            ensure(!whole || ok, || format!("{passes:?} {io:?}"))?;
            let raw = (io.bytes_read, io.bytes_written) == logical;
            ensure(!whole || coded || raw, || format!("{io:?}"))?;
        }
        BackendStats::Dist { fabric, .. } => {
            // Each swap ships all but the own piece of every rank; the
            // norm and entropy all-reduces add one f64 per rank per
            // doubling round each: 16·P·log2 P bytes, 1 KiB at 16 ranks.
            let volume = swaps * (parts - 1) * state_bytes / parts;
            let reduce = 16 * parts * u64::from(parts.trailing_zeros());
            let sent = fabric.total_bytes_sent;
            let ok = sent == volume + reduce;
            ensure(!whole || ok, || format!("sent {sent}, swaps move {volume}"))?;
        }
        BackendStats::Single { .. } => {}
    }
    Ok(())
}

fn same_class((a_cfg, a): Run, (b_cfg, b): Run) -> bool {
    let fingerprint = |o: &Outcome| schedule_fingerprint(&o.schedule);
    a_cfg.key.f32 == b_cfg.key.f32 && fingerprint(a) == fingerprint(b)
}

/// The rule run `b` keeps against an earlier run `a` of the same
/// circuit, if any: rule 1 within a class, the precision-twin rule
/// between a greedy key's two precisions on one execution.
fn pair_rule(a: Run, b: Run) -> Option<Result<(), String>> {
    let ((a_cfg, a_out), (b_cfg, b_out)) = (a, b);
    if same_class(a, b) {
        let bits = |o: &Outcome| {
            let scalars = o.amps.iter().flat_map(|z| [z.re, z.im]);
            let all = scalars.chain([o.norm, o.entropy]).map(f64::to_bits);
            all.collect::<Vec<_>>()
        };
        let d = max_dist(&a_out.amps, &b_out.amps);
        let same = bits(a_out) == bits(b_out);
        Some(ensure(same, || format!("bits differ: {d:e}")))
    } else if !a_cfg.key.search
        && b_cfg.key == a_cfg.key.other_precision()
        && a_cfg.exec == b_cfg.exec
    {
        // Plan, passes and bytes streamed, the f32 bytes doubled.
        let sweep = |(cfg, o): Run| {
            let s = o.stats.sweep();
            let bytes = s.bytes_streamed << u32::from(cfg.key.f32);
            (schedule_fingerprint(&o.schedule), s.sweep_passes, bytes)
        };
        let (x, y) = (sweep(a), sweep(b));
        Some(ensure(x == y, || format!("{x:?} vs {y:?}")))
    } else {
        None
    }
}

/// Does `b` (after `a`, when given) still break a rule on `c`?
fn fails(c: &Circuit, a: Option<Config>, b: Config) -> bool {
    let mut oracle = Oracle::new(String::new(), c);
    let a = a.map_or(Ok(true), |a| oracle.try_check(a));
    a.and_then(|_| oracle.try_check(b)).is_err()
}

/// Drop gates from `c` while the same pair still fails.
fn minimise(c: &Circuit, a: Option<Config>, b: Config) -> Vec<Gate> {
    let mut gates = c.gates().to_vec();
    let mut i = 0;
    while i < gates.len() {
        let mut fewer = Circuit::new(c.n_qubits());
        for (_, g) in gates.iter().enumerate().filter(|&(j, _)| j != i) {
            fewer.push(g.clone());
        }
        if fails(&fewer, a, b) {
            gates.remove(i);
        } else {
            i += 1;
        }
    }
    gates
}

/// Every run of one circuit, each checked on its own and against its
/// partner: the first earlier run of its class, else the first earlier
/// run a rule pairs it with.
struct Oracle<'c> {
    label: String,
    circuit: &'c Circuit,
    dense: Vec<c64>,
    done: Vec<(Config, Outcome)>,
    /// Within-class comparisons made.
    compared: usize,
}

impl<'c> Oracle<'c> {
    fn new(label: String, circuit: &'c Circuit) -> Self {
        Self {
            label,
            circuit,
            dense: simulate_dense::<f64>(circuit),
            done: Vec::new(),
            compared: 0,
        }
    }

    /// Run `cfg` and check it: `Ok(false)` when its plan is a typed
    /// `InvalidInput`, else the rule it broke and its partner then.
    fn try_check(&mut self, cfg: Config) -> Result<bool, (String, Option<Config>)> {
        let out = run(self.circuit, &cfg).map_err(|why| (why, None))?;
        let Some(out) = out else { return Ok(false) };
        let b = (&cfg, &out);
        solo_rules(self.circuit, &self.dense, b).map_err(|why| (why, None))?;
        let earlier = || self.done.iter().map(|(a_cfg, a)| (a_cfg, a));
        let paired = |&a: &Run| pair_rule(a, b).is_some();
        let partner = earlier().find(|&a| same_class(a, b));
        if let Some(a) = partner.or_else(|| earlier().find(paired)) {
            self.compared += usize::from(same_class(a, b));
            if let Some(Err(why)) = pair_rule(a, b) {
                return Err((why, Some(*a.0)));
            }
        }
        self.done.push((cfg, out));
        Ok(true)
    }

    /// [`Oracle::try_check`], a failure shrunk and printed for replay.
    fn check(&mut self, cfg: Config) -> bool {
        self.try_check(cfg).unwrap_or_else(|(why, a)| {
            let (gates, n) = (minimise(self.circuit, a, cfg), self.circuit.n_qubits());
            let case = &self.label;
            panic!("{why}\nreplay: {case}, {n} qubits, gates {gates:?}, configs {a:?} | {cfg:?}");
        })
    }
}

/// Draw and check the random cases `cases`: (runs, within-class
/// comparisons, plan keys, keys skipped).
fn sweep(cases: impl Iterator<Item = u64>) -> [usize; 4] {
    let (mut runs, mut compared, mut keys, mut skipped) = (0, 0, 0, 0);
    for case in cases {
        let mut rng = Xoshiro256::seed_from_u64(SEED + case);
        let n = 4 + rng.next_below(7) as u32;
        let h_layer = if rng.next_below(3) == 0 { n } else { 0 };
        let body = common::random_circuit(n, rng.next_below(41) as usize, rng.next_u64());
        let mut c = Circuit::new(n);
        for g in (0..h_layer)
            .map(Gate::H)
            .chain(body.gates().iter().cloned())
        {
            c.push(g);
        }
        let mut oracle = Oracle::new(format!("seed {SEED} case {case}"), &c);
        // Plan keys first, then several executions of each, so most runs
        // land in a class with an earlier run.
        for _ in 0..2 + rng.next_below(2) {
            let key = Key {
                parts: 1 << rng.next_below(n as u64 / 2 + 1),
                kmax: 1 + rng.next_below(6) as u32,
                search: rng.next_below(2) == 1,
                f32: rng.next_below(2) == 1,
            };
            let l = n - key.parts.trailing_zeros();
            keys += 1;
            for i in 0..3 {
                let engines = [Engine::Dist, Engine::Ooc, Engine::Single];
                let engine = *rng.choose(&engines[..2 + usize::from(key.parts == 1)]);
                let ooc = engine == Engine::Ooc;
                let exec = Exec {
                    engine,
                    simd: *rng.choose(&[Simd::Scalar, Simd::Avx2, Simd::Auto]),
                    threads: 1 + rng.next_below(2) as usize,
                    tile: (rng.next_below(2) == 1).then(|| 1 + rng.next_below(l as u64) as u32),
                    prefetch: 1 + rng.next_below(4) as usize,
                    codec: *rng.choose(&[Codec::None, Codec::ShuffleRle][..1 + usize::from(ooc)]),
                    stop: (rng.next_below(4) == 0).then(|| 1 + rng.next_below(3) as usize),
                };
                if !oracle.check(Config { key, exec }) {
                    assert_eq!(i, 0, "{key:?}: a typed skip on one engine only");
                    skipped += 1;
                    break;
                }
                if i == 0 && !key.search {
                    let key = key.other_precision();
                    assert!(oracle.check(Config { key, exec }), "{key:?}");
                }
            }
        }
        (runs, compared) = (runs + oracle.done.len(), compared + oracle.compared);
    }
    [runs, compared, keys, skipped]
}

#[test]
fn random_circuits_hold_every_rule_on_every_configuration() {
    // Two workers, even and odd cases: the dense references dominate.
    let [runs, compared, keys, skipped] = std::thread::scope(|s| {
        let halves = [0, 1].map(|h| s.spawn(move || sweep((h..CASES).step_by(2))));
        let [a, b] = halves.map(|half| half.join().expect("a worker panicked"));
        [0, 1, 2, 3].map(|i| a[i] + b[i])
    });
    println!(
        "differential: {runs} runs, {compared} within-class comparisons, \
         {skipped} of {keys} plan keys skipped as InvalidInput"
    );
    assert!(runs >= 400 && compared >= 150, "{runs} runs, {compared}");
    assert!(5 * skipped <= keys, "{skipped} of {keys} plan keys skipped");
}

/// Sequential scalar execution of `engine`.
fn seq(engine: Engine, prefetch: usize, codec: Codec, tile: Option<u32>) -> Exec {
    Exec {
        engine,
        simd: Simd::Scalar,
        threads: 1,
        tile,
        prefetch,
        codec,
        stop: None,
    }
}

/// Every key × execution of one fixed circuit, single-node only at one
/// part.
fn corpus<'c>(label: &str, c: &'c Circuit, keys: &[Key], execs: &[Exec]) -> Oracle<'c> {
    let mut oracle = Oracle::new(format!("corpus {label}"), c);
    for (&key, &exec) in keys.iter().flat_map(|k| execs.iter().map(move |x| (k, x))) {
        if exec.engine != Engine::Single || key.parts == 1 {
            assert!(oracle.check(Config { key, exec }), "{label}: {key:?}");
        }
    }
    // Each key's runs after its first were bit-compared.
    assert!(oracle.compared + keys.len() >= oracle.done.len(), "{label}");
    oracle
}

/// Greedy keys at `parts` parts, f64 then f32.
fn greedy(parts: usize, kmax: u32) -> [Key; 2] {
    [false, true].map(|f32| Key {
        parts,
        kmax,
        search: false,
        f32,
    })
}

fn supremacy(rows: u32, cols: u32, depth: u32, seed: u64) -> Circuit {
    supremacy_circuit(&SupremacySpec {
        rows,
        cols,
        depth,
        seed,
    })
}

#[test]
fn corpus_at_prefetch_depths_1_and_3() {
    // Dist, then OOC at prefetch depths 1 and 3, both precisions.
    let execs = [(Engine::Dist, 3), (Engine::Ooc, 1), (Engine::Ooc, 3)];
    let execs = execs.map(|(e, depth)| seq(e, depth, Codec::None, None));
    // Three swaps; the first one's slots are already the top ones, so the
    // unpermute it would need is skipped.
    let c = supremacy(3, 3, 25, 7);
    let oracle = corpus("3x3 d25 seed 7", &c, &greedy(16, 4), &execs);
    let s = &oracle.done[0].1.schedule;
    let swaps = s.stages.iter().filter_map(|st| st.swap.as_ref());
    let perms = swaps.map(|sw| slots_to_top_permutation(&sw.local_slots, s.local_qubits));
    let identity: Vec<bool> = perms.map(|p| p.is_identity()).collect();
    assert_eq!(identity, [true, false, false]);
    // The op-free starts: one pass each synthesises, reduces and writes.
    let mut hadamards = Circuit::new(6);
    for q in 0..6 {
        hadamards.h(q);
    }
    for (label, c) in [("H layer", hadamards), ("empty", Circuit::new(6))] {
        let oracle = corpus(label, &c, &greedy(4, 4), &execs);
        assert_eq!(oracle.done[0].1.schedule.n_swaps(), 0, "{label}");
    }
}

#[test]
fn corpus_at_16_qubits() {
    // 4×4 d25 at 16 parts: Dist, then OOC at prefetch depths 1 and 3.
    let execs = [(Engine::Dist, 3), (Engine::Ooc, 1), (Engine::Ooc, 3)];
    let execs = execs.map(|(e, depth)| seq(e, depth, Codec::None, None));
    let c = supremacy(4, 4, 25, 7);
    corpus("4x4 d25 seed 7", &c, &greedy(16, 4), &execs);
}

#[test]
fn corpus_of_dense_two_qubit_gates_at_16_qubits() {
    // 4×4 d25 with a seeded dense U2 in place of every CZ, at 16 parts:
    // Dist, then OOC at prefetch depths 1 and 3. Unlike CZ, a U2 is
    // neither symmetric nor diagonal, so operand order shows.
    let execs = [(Engine::Dist, 3), (Engine::Ooc, 1), (Engine::Ooc, 3)];
    let execs = execs.map(|(e, depth)| seq(e, depth, Codec::None, None));
    let c = grid_asym(4, 4, 25, 7, TwoQubit::U2);
    corpus("4x4 d25 U2 seed 7", &c, &greedy(16, 4), &execs);
}

#[test]
#[ignore = "n = 20: a release-build case"]
fn corpus_at_20_qubits() {
    // 4×5 d25, with CZ and with dense U2s, on one node, 4 ranks and 16
    // chunks, with the default kernel and two workers.
    let circuits = [
        ("4x5 d25 seed 0", supremacy(4, 5, 25, 0)),
        ("4x5 d25 U2 seed 0", grid_asym(4, 5, 25, 0, TwoQubit::U2)),
    ];
    for (label, c) in &circuits {
        let mut oracle = Oracle::new(format!("corpus {label}"), c);
        for (engine, parts) in [(Engine::Single, 1), (Engine::Dist, 4), (Engine::Ooc, 16)] {
            let exec = Exec {
                simd: Simd::Auto,
                threads: 2,
                ..seq(engine, 3, Codec::None, None)
            };
            for key in greedy(parts, 4) {
                assert!(oracle.check(Config { key, exec }), "{label}: {key:?}");
            }
        }
    }
}

#[test]
fn corpus_pinned_draw() {
    // A draw an earlier out-of-core suite pinned: kmax 3 at 4 chunks,
    // tile 5, prefetch depths 1 and 2.
    use Gate::*;
    let cnot = |target, control| CNot { target, control };
    #[rustfmt::skip]
    let gates = [
        Z(7), T(5), CZ(3, 6), SqrtY(1), Z(2), SqrtX(2), CZ(3, 4), cnot(5, 4), Z(0), X(1),
        cnot(4, 7), X(6), T(7), SqrtX(7), cnot(0, 5), CZ(5, 4), cnot(6, 2), CZ(4, 2),
        cnot(3, 1), H(4), SqrtY(0), X(7), Z(4), T(2), X(4), Z(5), H(4), X(2), T(1), Z(5),
        Z(7), CZ(1, 0),
    ];
    let mut c = Circuit::new(8);
    for g in gates {
        c.push(g);
    }
    let execs = [(Engine::Dist, 3), (Engine::Ooc, 1), (Engine::Ooc, 2)];
    let execs = execs.map(|(e, depth)| seq(e, depth, Codec::None, Some(5)));
    corpus("pinned draw", &c, &greedy(4, 3)[..1], &execs);
}
