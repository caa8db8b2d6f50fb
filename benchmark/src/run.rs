//! One workload, one process: set-up, timed repetitions with tracing
//! off, then (with `--trace 1`) one traced repetition and the direct
//! layer calls.

use crate::env::{self, EnvFacts};
use crate::json::{num, obj, s, Json};
use crate::probes;
use crate::spans::Spans;
use crate::spec::{
    Engine, Scale, Workload, END_TO_END, MIN_REPS, PER_LAYER, SETUP_SAMPLES, VERIFY_GRID,
};
use crate::stats::Summary;
use qsim_circuit::dense::simulate_dense;
use qsim_circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim_circuit::Circuit;
use qsim_core::exec::resolve_tile_qubits;
use qsim_core::planner::{plan_schedule, process_cost_model, PlanOptions, PlannedSchedule};
use qsim_core::single::strip_initial_hadamards;
use qsim_core::{
    Backend, BackendOutcome, BackendPlan, BackendStats, DistBackend, DistConfig, DistSimulator,
    ScheduleMode, SingleBackend, SingleNodeSimulator, StateVector,
};
use qsim_kernels::{tune_tile_qubits, KernelConfig, SweepDispatch};
use qsim_ooc::{OocBackend, OocConfig, OocSimulator, ScratchDir};
use qsim_sched::sweep::DEFAULT_TILE_QUBITS;
use qsim_sched::{plan_resources, Schedule, SchedulerConfig};
use qsim_telemetry::Telemetry;
use qsim_util::bits::log2_exact;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

/// The tile budget every engine runs with. Left alone, each process
/// adopts whatever `tune_tile_qubits` measures, and that pick is close to
/// a coin toss between 12, 14 and 16 (see the README's findings): the
/// same workload then differs by ±8 % in wall-clock, by a whole sweep
/// pass, and in peak RSS from one process to the next, which no
/// regression bound could see through. The tuner is still run (it is part
/// of `setup_s`) and reported as its own layer; `core.exec.stage_s_tuned`
/// shows what its choice would have cost in this process.
const TILE_QUBITS: u32 = DEFAULT_TILE_QUBITS;

/// Traced repetitions per traced run; `telemetry.overhead_frac` compares
/// the fastest of them with the fastest untraced one.
const TRACED_REPS: usize = 3;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// In `END_TO_END` order.
    pub end_to_end: Vec<Summary>,
    /// In `PER_LAYER` order; `None` without `--trace 1`.
    pub per_layer: Option<Vec<f64>>,
    /// The complete run file (`out/run_<workload>_t<trace>.json`).
    pub record: Json,
}

/// Per-layer values of one traced run, by metric name. Names are checked
/// against `PER_LAYER` so a typo fails the smoke test instead of silently
/// reporting 0.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "per-layer metric '{name}' is not in spec::PER_LAYER"
        );
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What the timed phase of any workload produces.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    plan_s: Vec<f64>,
    search_plan_s: Vec<f64>,
    wall_s: Vec<f64>,
    peak_rss_mib: f64,
    slow_tier_bytes_per_amp: f64,
    stage_runs: f64,
    /// `plan()` evaluations the search plan spent.
    search_candidates: usize,
    /// (norm, entropy) of repetition 0; amplitude workloads only.
    observables: Option<(f64, f64)>,
    /// Repetitions within tolerance of repetition 0 but not bit-identical.
    bit_mismatch_reps: usize,
    failed: usize,
    notes: Vec<String>,
}

/// Qubits resident per partition under `engine` on an `n`-qubit register.
fn local_qubits(engine: Engine, n: u32, scale: &Scale) -> u32 {
    match engine {
        Engine::Single { .. } => n,
        Engine::Dist { ranks } => n - log2_exact(ranks),
        Engine::Ooc { chunks, .. } => n - log2_exact(chunks),
        Engine::Plan => scale.plan_local,
    }
}

/// Build the workload's backend through the public configs. Every knob is
/// the engine's default except the tile budget, pinned to [`TILE_QUBITS`].
fn make_backend<R: SweepDispatch>(engine: Engine, telemetry: Telemetry) -> Box<dyn Backend<R>> {
    match engine {
        Engine::Single { threads } => Box::new(SingleBackend::new(SingleNodeSimulator {
            kernel: KernelConfig {
                threads: threads.min(env::nproc()),
                ..KernelConfig::default()
            },
            tile_qubits: Some(TILE_QUBITS),
            telemetry,
            ..Default::default()
        })),
        Engine::Dist { ranks } => Box::new(DistBackend::new(DistSimulator::new(DistConfig {
            n_ranks: ranks,
            kernel: KernelConfig {
                threads: 1,
                ..KernelConfig::default()
            },
            tile_qubits: Some(TILE_QUBITS),
            telemetry,
            ..Default::default()
        }))),
        Engine::Ooc { chunks, codec } => Box::new(OocBackend::new(
            OocSimulator::<R>::new(OocConfig {
                compress: codec,
                tile_qubits: Some(TILE_QUBITS),
                telemetry,
                ..Default::default()
            }),
            chunks,
        )),
        Engine::Plan => unreachable!("the planning workload has no backend"),
    }
}

/// `plan_schedule` the way the engines call it (Hadamard layer stripped,
/// kmax 4) for `l` local qubits.
fn plan_direct(circuit: &Circuit, l: u32, mode: ScheduleMode, amp_bytes: u64) -> PlannedSchedule {
    let (exec, _) = strip_initial_hadamards(circuit);
    plan_schedule(
        &exec,
        &SchedulerConfig::distributed(l, 4),
        &PlanOptions {
            mode,
            amp_bytes,
            ..PlanOptions::default()
        },
    )
}

/// The once-per-set-up correctness check: the workload's backend
/// configuration on the small verify grid, full state gathered, against
/// the dense Kronecker reference. The norm is accumulated here in f64 —
/// the engine-reported f32 norm is not trusted.
fn verify<R: SweepDispatch>(engine: Engine, seed: u64) -> Result<(), String> {
    let (rows, cols, depth) = VERIFY_GRID;
    let circuit = supremacy_circuit(&SupremacySpec {
        rows,
        cols,
        depth,
        seed,
    });
    let mut backend = make_backend::<R>(engine, Telemetry::disabled());
    backend.gather_state(true);
    let plan = backend
        .plan(&circuit)
        .map_err(|e| format!("verify plan: {e}"))?;
    let out = backend.run(&plan).map_err(|e| format!("verify run: {e}"))?;
    let state = out
        .state
        .ok_or("verify: backend returned no gathered state")?;
    let expect = simulate_dense::<f64>(&circuit);
    let (mut worst, mut norm) = (0f64, 0f64);
    for (got, want) in state.iter().zip(&expect) {
        let (re, im) = (got.re.to_f64(), got.im.to_f64());
        worst = worst.max((re - want.re).abs()).max((im - want.im).abs());
        norm += re * re + im * im;
    }
    let tol = if R::BYTES == 8 { 1e-12 } else { 1e-4 };
    if state.len() != expect.len() || worst > tol || (norm - 1.0).abs() > tol.max(1e-9) {
        return Err(format!(
            "verify: max |delta| {worst:e}, norm {norm} against the dense reference (tolerance {tol:e})"
        ));
    }
    Ok(())
}

struct AmpSetup<R: SweepDispatch> {
    circuit: Circuit,
    engine: Box<dyn Backend<R>>,
    gen_s: f64,
    autotune_s: f64,
    tile_qubits: u32,
}

/// Everything before the first timed repetition of an amplitude workload.
/// `tune_tile_qubits` is called here explicitly — the engines would call
/// the same memoized probe inside the warm-up — so it has its own span.
fn setup_amplitude<R: SweepDispatch>(
    w: &Workload,
    spec: &SupremacySpec,
    seed: u64,
    spans: &mut Spans,
) -> Result<AmpSetup<R>, String> {
    let (circuit, gen_s) = spans.scope("circuit.gen", |_| supremacy_circuit(spec));
    let (tile_qubits, autotune_s) = spans.scope("kernels.autotune", |_| tune_tile_qubits());
    let (mut engine, _) = spans.scope("backend.new", |_| {
        make_backend::<R>(w.engine, Telemetry::disabled())
    });
    spans.scope("verify", |_| verify::<R>(w.engine, seed)).0?;
    spans
        .scope("warmup", |_| -> Result<(), String> {
            let plan = engine
                .plan(&circuit)
                .map_err(|e| format!("warm-up plan: {e}"))?;
            engine.run(&plan).map_err(|e| format!("warm-up run: {e}"))?;
            Ok(())
        })
        .0?;
    Ok(AmpSetup {
        circuit,
        engine,
        gen_s,
        autotune_s,
        tile_qubits,
    })
}

struct PlanSetup {
    circuit: Circuit,
    gen_s: f64,
}

/// Set-up of the planning workload: generate the circuit, then one
/// greedy and one search plan, both `verify`-ed against it (the search
/// warm-up also pays the per-process cost-model calibration).
fn setup_plan(spec: &SupremacySpec, l: u32, spans: &mut Spans) -> PlanSetup {
    let (circuit, gen_s) = spans.scope("circuit.gen", |_| supremacy_circuit(spec));
    spans.scope("warmup", |_| {
        let (exec, _) = strip_initial_hadamards(&circuit);
        for mode in [ScheduleMode::Greedy, ScheduleMode::Search] {
            // `verify` panics on a schedule that does not implement the
            // circuit: a planner bug, not a measurement.
            plan_direct(&circuit, l, mode, 16).schedule.verify(&exec);
        }
    });
    PlanSetup { circuit, gen_s }
}

/// Set-up only, for the `--setup-probe` children: seconds from process
/// start to the point the first timed repetition would begin.
pub fn setup_only(w: &Workload, o: &Opts, start: Instant) -> Result<f64, String> {
    let mut spans = Spans::new(start);
    let spec = supremacy_spec(w, o);
    match w.engine {
        Engine::Plan => drop(setup_plan(&spec, o.scale.plan_local, &mut spans)),
        _ if w.f32 => drop(setup_amplitude::<f32>(w, &spec, o.seed, &mut spans)?),
        _ => drop(setup_amplitude::<f64>(w, &spec, o.seed, &mut spans)?),
    }
    Ok(start.elapsed().as_secs_f64())
}

fn supremacy_spec(w: &Workload, o: &Opts) -> SupremacySpec {
    let (rows, cols) = match w.engine {
        Engine::Plan => (o.scale.plan_rows, o.scale.plan_cols),
        _ => (o.scale.rows, o.scale.cols),
    };
    SupremacySpec {
        rows,
        cols,
        depth: w.depth,
        seed: o.seed,
    }
}

/// Sample set-up time in `SETUP_SAMPLES − 1` more fresh processes, one at
/// a time. In-process repetition would hit the engines' per-process
/// caches (tile tune, cost model) and under-report exactly the work a
/// later change might move into set-up.
fn sample_setup_children(w: &Workload, o: &Opts, own: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = vec![own];
    for _ in 1..SETUP_SAMPLES {
        let out = Command::new(&exe)
            .args(["run", "--workload", w.name, "--setup-probe"])
            .args(["--seed", &o.seed.to_string(), "--scale", o.scale.name])
            .output()
            .map_err(|e| format!("spawn setup probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let value = text
            .lines()
            .last()
            .and_then(|l| crate::json::parse(l).ok())
            .and_then(|j| j.get("setup_s").and_then(Json::as_f64))
            .filter(|_| out.status.success())
            .ok_or_else(|| {
                format!(
                    "setup probe failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                )
            })?;
        samples.push(value);
    }
    Ok(samples)
}

/// Bytes the run moved through the slowest tier its engine touches (see
/// the README on `slow_tier_bytes_per_amp`): DRAM sweep traffic on a
/// single node, fabric bytes between ranks, logical chunk bytes read +
/// written out of core. All three are counts the engine makes itself.
fn slow_tier_bytes(stats: &BackendStats) -> u64 {
    match stats {
        BackendStats::Single { sweep } => sweep.bytes_streamed,
        BackendStats::Dist { fabric, .. } => fabric.total_bytes_sent,
        BackendStats::Ooc { io, .. } => io.logical_bytes_read + io.logical_bytes_written,
    }
}

/// Closed loop, one client: repeat `rep` until `seconds` have passed and
/// at least `MIN_REPS` repetitions ran.
fn timed_loop(seconds: f64, mut rep: impl FnMut(usize)) -> usize {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut reps = 0;
    while reps < MIN_REPS || Instant::now() < deadline {
        rep(reps);
        reps += 1;
    }
    reps
}

fn measure_amplitude<R: SweepDispatch>(
    w: &Workload,
    o: &Opts,
    setup: &mut AmpSetup<R>,
    spans: &mut Spans,
) -> (Measured, Option<BackendPlan>, Vec<f64>) {
    let n = setup.circuit.n_qubits();
    let mut m = Measured::default();
    let mut sims = Vec::new();
    let mut last_plan = None;
    let mut reference: Option<Reference> = None;
    // One search plan is sampled per repetition rather than in a block of
    // its own: a block is over in 0.2 s, and interference on this host
    // comes in bursts that would cover all of it. The untimed first call
    // pays the per-process cost-model calibration.
    let l = local_qubits(w.engine, n, &o.scale);
    let search = || plan_direct(&setup.circuit, l, ScheduleMode::Search, 2 * R::BYTES as u64);
    m.search_candidates = spans
        .scope("sched.search_warmup", |_| search())
        .0
        .candidates;
    // With tracing on, half the window goes to the traced pass.
    let window = if o.trace { o.seconds / 2.0 } else { o.seconds };
    timed_loop(window, |rep| {
        spans.scope("rep", |s| {
            m.search_plan_s.push(s.scope("search_plan", |_| search()).1);
            let (plan, plan_s) = s.scope("plan", |_| setup.engine.plan(&setup.circuit));
            let plan = match plan {
                Ok(p) => p,
                Err(e) => {
                    m.failed += 1;
                    m.notes.push(format!("rep {rep}: plan: {e}"));
                    return;
                }
            };
            let (out, wall) = s.scope("run", |_| setup.engine.run(&plan));
            m.plan_s.push(plan_s);
            m.wall_s.push(wall);
            match out {
                Err(e) => {
                    m.failed += 1;
                    m.notes.push(format!("rep {rep}: run: {e}"));
                }
                Ok(out) => {
                    sims.push(out.sim_seconds);
                    match check_rep(&out, &mut reference) {
                        Ok(bit_identical) => m.bit_mismatch_reps += usize::from(!bit_identical),
                        Err(why) => {
                            m.failed += 1;
                            m.notes.push(format!("rep {rep}: {why}"));
                        }
                    }
                }
            }
            m.stage_runs = (plan.schedule.n_swaps() + 1) as f64;
            last_plan = Some(plan);
        });
    });
    m.peak_rss_mib = env::peak_rss_mib();
    if let Some(r) = reference {
        m.slow_tier_bytes_per_amp = r.bytes as f64 / (1u64 << n) as f64;
        m.observables = Some((r.norm, r.entropy));
    }
    (m, last_plan, sims)
}

/// Norm, entropy and slow-tier bytes of repetition 0, which every later
/// repetition is held against.
#[derive(Clone, Copy)]
struct Reference {
    norm: f64,
    entropy: f64,
    bytes: u64,
}

/// A repetition fails if f64 `|norm − 1| > 1e-9`, if norm or entropy
/// drift from repetition 0 by more than 1e-9, or if the slow-tier byte
/// count differs from repetition 0. `Ok(false)` flags a repetition that
/// agrees within tolerance but not bit for bit: the multi-rank entropy
/// reduce sums its partials in arrival order, so that is counted
/// (`harness.bit_mismatch_reps`), not failed.
fn check_rep<R: SweepDispatch>(
    out: &BackendOutcome<R>,
    reference: &mut Option<Reference>,
) -> Result<bool, String> {
    if R::BYTES == 8 && (out.norm - 1.0).abs() > 1e-9 {
        return Err(format!("norm {} is not 1 within 1e-9", out.norm));
    }
    let got = Reference {
        norm: out.norm,
        entropy: out.entropy,
        bytes: slow_tier_bytes(&out.stats),
    };
    let want = *reference.get_or_insert(got);
    if (got.norm - want.norm).abs() > 1e-9
        || (got.entropy - want.entropy).abs() > 1e-9
        || got.bytes != want.bytes
    {
        return Err(format!(
            "norm {}, entropy {}, {} slow-tier bytes differ from repetition 0",
            got.norm, got.entropy, got.bytes
        ));
    }
    Ok(
        got.norm.to_bits() == want.norm.to_bits()
            && got.entropy.to_bits() == want.entropy.to_bits(),
    )
}

/// Counters and timings the engines already return (source (a)).
fn layers_from_stats<R: SweepDispatch>(out: &BackendOutcome<R>, layers: &mut Layers) {
    let sweep = out.stats.sweep();
    layers.set("core.exec.sweep_passes", sweep.sweep_passes as f64);
    layers.set("core.exec.baseline_passes", sweep.baseline_passes as f64);
    layers.set("core.exec.bytes_streamed", sweep.bytes_streamed as f64);
    layers.set("core.exec.tile_local_gates", sweep.tile_local_gates as f64);
    layers.set("core.exec.fallback_gates", sweep.fallback_gates as f64);
    layers.set("core.exec.diagonals_folded", sweep.diagonals_folded as f64);
    match &out.stats {
        BackendStats::Single { .. } => layers.set("core.single.sim_s", out.sim_seconds),
        BackendStats::Dist {
            fabric,
            swap_bytes_copied,
            entropy_seconds,
            ..
        } => {
            layers.set("core.dist.sim_s", out.sim_seconds);
            layers.set("core.dist.swap_bytes_copied", *swap_bytes_copied as f64);
            layers.set("core.dist.entropy_s", *entropy_seconds);
            layers.set("net.bytes_sent", fabric.total_bytes_sent as f64);
            layers.set("net.comm_s", fabric.max_comm_seconds);
            layers.set("net.blocked_s", fabric.max_blocked_seconds);
            layers.set("net.overlap_frac", fabric.overlap_fraction());
            layers.set("net.wire_allocs", fabric.wire_allocs as f64);
        }
        BackendStats::Ooc { io, runs, .. } => {
            layers.set("ooc.sim_s", out.sim_seconds);
            layers.set("ooc.read_s", io.read_seconds);
            layers.set("ooc.write_s", io.write_seconds);
            layers.set("ooc.io_wait_s", io.io_wait_seconds);
            layers.set("ooc.compute_s", io.compute_seconds);
            layers.set("ooc.overlap_frac", io.overlap_fraction());
            layers.set("ooc.traversals", io.traversals as f64);
            layers.set("ooc.runs", *runs as f64);
            layers.set("ooc.bytes_read", io.bytes_read as f64);
            layers.set("ooc.bytes_written", io.bytes_written as f64);
            layers.set("ooc.logical_bytes_written", io.logical_bytes_written as f64);
            layers.set("ooc.buffer_allocs", io.buffer_allocs as f64);
            layers.set("compress.encode_s", io.encode_seconds);
            layers.set("compress.decode_s", io.decode_seconds);
            layers.set("compress.ratio", io.compression_ratio());
        }
    }
}

fn layers_from_schedule(sch: &Schedule, layers: &mut Layers) {
    layers.set("sched.swaps", sch.n_swaps() as f64);
    layers.set("sched.stages", sch.stages.len() as f64);
    layers.set("sched.clusters", sch.n_clusters() as f64);
    layers.set("sched.gates_per_cluster", sch.gates_per_cluster());
}

/// The traced engine's own spans inside `window` (harness-epoch
/// nanoseconds of one traced `run`): how many there are, and the share of
/// the window that the best-covered engine track accounts for with its
/// top-level (depth 0) spans.
fn telemetry_layers(tel: &Telemetry, tel_offset_ns: u64, window: (u64, u64), layers: &mut Layers) {
    let mut events = 0usize;
    let mut best_ns = 0u64;
    for (_, evs, _) in tel.tracks_snapshot() {
        let mut top: Vec<(u64, u64)> = Vec::new();
        for e in &evs {
            let (start, end) = (tel_offset_ns + e.start_ns, tel_offset_ns + e.end_ns);
            if start < window.0 || start > window.1 {
                continue;
            }
            events += 1;
            if e.depth == 0 {
                top.push((start, end.min(window.1)));
            }
        }
        // Union length, so a track shared by several threads cannot
        // count the same instant twice.
        top.sort_unstable();
        let (mut covered, mut reach) = (0u64, window.0);
        for (start, end) in top {
            covered += end.saturating_sub(start.max(reach));
            reach = reach.max(end);
        }
        best_ns = best_ns.max(covered);
    }
    layers.set("telemetry.spans", events as f64);
    layers.set(
        "telemetry.leaf_coverage",
        best_ns as f64 / (window.1 - window.0) as f64,
    );
}

/// What the traced pass and its probes take over from the timed phase.
struct Timed<'a, R: SweepDispatch> {
    w: &'a Workload,
    o: &'a Opts,
    setup: &'a AmpSetup<R>,
    /// The plan the last timed repetition executed.
    plan: &'a BackendPlan,
    /// Fastest untraced repetition: harness wall-clock, engine `sim_seconds`.
    wall_best: f64,
    sim_best: f64,
}

/// The traced pass of an amplitude workload: a warm-up and
/// `TRACED_REPS` repetitions with `Telemetry::enabled()` passed through
/// the public config, then the direct layer calls this workload is
/// responsible for.
fn traced_pass<R: SweepDispatch>(
    t: &Timed<'_, R>,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<PathBuf, String> {
    let Timed {
        w,
        o,
        setup,
        plan,
        wall_best,
        sim_best,
    } = *t;
    let n = setup.circuit.n_qubits();
    let now_ns = |spans: &Spans| spans.epoch().elapsed().as_nanos() as u64;
    let tel_offset_ns = now_ns(spans);
    let tel = Telemetry::enabled();
    let mut traced = make_backend::<R>(w.engine, tel.clone());
    // The traced backend gets the warm-up the untraced one had, so the
    // two wall-clocks differ by tracing alone.
    spans
        .scope("traced.warmup", |_| {
            traced.plan(&setup.circuit).and_then(|p| traced.run(&p))
        })
        .0
        .map_err(|e| format!("traced warm-up: {e}"))?;
    let mut run_secs = Vec::new();
    let mut last = None;
    for _ in 0..TRACED_REPS {
        let (rep, _) = spans.scope("traced", |s| {
            let (plan, _) = s.scope("plan", |_| traced.plan(&setup.circuit));
            let begin = now_ns(s);
            let (out, run_s) = s.scope("run", |_| plan.and_then(|p| traced.run(&p)));
            out.map(|out| (out, run_s, (begin, now_ns(s))))
        });
        let (out, run_s, window) = rep.map_err(|e| format!("traced repetition: {e}"))?;
        run_secs.push(run_s);
        last = Some((out, window));
    }
    drop(traced);
    let (out, window) = last.expect("TRACED_REPS >= 1");
    let traced_wall = Summary::of(&run_secs).value();
    layers_from_stats(&out, layers);
    telemetry_layers(&tel, tel_offset_ns, window, layers);
    layers.set("harness.traced_wall_s", traced_wall);
    layers.set("harness.untraced_wall_s", wall_best);
    layers.set("telemetry.overhead_frac", traced_wall / wall_best - 1.0);

    let threads = match w.engine {
        Engine::Single { threads } => threads.min(env::nproc()),
        Engine::Dist { .. } => 1,
        _ => env::nproc(),
    };
    let l = local_qubits(w.engine, n, &o.scale);
    let amp_bytes = 2 * R::BYTES as u64;
    let tile = resolve_tile_qubits(Some(TILE_QUBITS), l, threads);
    let predicted = process_cost_model().seconds(&plan_resources(&plan.schedule, amp_bytes, tile));
    layers.set("sched.model_predicted_s", predicted);
    layers.set("sched.model_err_frac", predicted / sim_best - 1.0);

    let (probed, probe_s) = spans.scope("probes", |s| match w.engine {
        Engine::Single { .. } => probe_single(t, threads, tile, &out, s, layers),
        Engine::Dist { ranks } => {
            probe_dist::<R>(o, plan, n, ranks, s, layers);
            Ok(())
        }
        Engine::Ooc { chunks, codec } if codec.is_none() => {
            probe_ooc::<R>(setup, n, chunks, wall_best, s, layers)
        }
        Engine::Ooc { chunks, .. } => probe_compress(o, n, chunks, s, layers),
        Engine::Plan => unreachable!(),
    });
    probed?;
    layers.set("harness.probe_s", probe_s);
    write_trace(w, spans, &tel, tel_offset_ns)
}

/// `kernels`, `core.exec` and `core.single` from outside, on the
/// workload's own plan and state size. The f64 workload owns the kernel
/// ladder and the ceilings; the f32 workload reports only the `_f32`
/// variants, so one change to the packed-f32 path reads off one row.
fn probe_single<R: SweepDispatch>(
    t: &Timed<'_, R>,
    threads: usize,
    tile: u32,
    traced: &BackendOutcome<R>,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let Timed {
        w,
        o,
        setup,
        plan,
        wall_best,
        ..
    } = *t;
    let n = setup.circuit.n_qubits();
    let (mut state, init_s) = spans.scope("core.single.init", |_| StateVector::<R>::uniform(n));
    let lo = |k: u32| (0..k).collect::<Vec<u32>>();
    if w.f32 {
        let (gf, _) = spans.scope("kernels.apply_gate", |_| {
            probes::kernel_gflops(state.amplitudes_mut(), &lo(4), threads)
        });
        layers.set("kernels.k4_lo_gflops_f32", gf);
        let mut fresh = StateVector::<R>::uniform(n);
        let (p, _) = spans.scope("core.exec.stage", |_| {
            probes::stage_probe(&mut fresh, &plan.schedule, threads, tile)
        });
        layers.set("core.exec.stage_s_f32", p.stage_s);
        layers.set(
            "core.single.f32_reported_norm_err",
            (traced.norm - 1.0).abs(),
        );
        return Ok(());
    }

    let mut ladder = [0f64; 6];
    for k in 1..=5u32 {
        let (gf, _) = spans.scope("kernels.apply_gate", |_| {
            probes::kernel_gflops(state.amplitudes_mut(), &lo(k), threads)
        });
        ladder[k as usize] = gf;
    }
    let names = [
        "kernels.k1_lo_gflops",
        "kernels.k2_lo_gflops",
        "kernels.k3_lo_gflops",
        "kernels.k4_lo_gflops",
        "kernels.k5_lo_gflops",
    ];
    for (name, gf) in names.into_iter().zip(&ladder[1..]) {
        layers.set(name, *gf);
    }
    // Operands on the top 4 bits: the §3.3 cache-associativity cliff.
    let hi: Vec<u32> = (n - 4..n).collect();
    let (gf, _) = spans.scope("kernels.apply_gate", |_| {
        probes::kernel_gflops(state.amplitudes_mut(), &hi, threads)
    });
    layers.set("kernels.k4_hi_gflops", gf);
    let (gf, _) = spans.scope("kernels.apply_gate", |_| {
        probes::kernel_gflops(state.amplitudes_mut(), &lo(4), 1)
    });
    layers.set("kernels.k4_lo_gflops_t1", gf);
    drop(state);

    let (triad, _) = spans.scope("ceiling.triad", |_| {
        probes::triad_gbps(o.scale.ceiling_bytes, threads)
    });
    let (memcpy, _) = spans.scope("ceiling.memcpy", |_| {
        probes::memcpy_gbps(o.scale.ceiling_bytes, threads)
    });
    layers.set("kernels.triad_gbps", triad);
    layers.set("kernels.memcpy_gbps", memcpy);
    // A k = 1 sweep reads and writes every amplitude once.
    let state_bytes = (1u64 << n) as f64 * 2.0 * R::BYTES as f64;
    let k1_gbps = ladder[1] * 2.0 * state_bytes / qsim_util::flops::gate_flops(n, 1) as f64;
    layers.set("kernels.k1_frac_of_triad", k1_gbps / triad);

    let mut fresh = StateVector::<R>::uniform(n);
    let (p, _) = spans.scope("core.exec.stage", |_| {
        probes::stage_probe(&mut fresh, &plan.schedule, threads, tile)
    });
    let (_, reduce_s) = spans.scope("core.single.reduce", |_| {
        std::hint::black_box((fresh.norm_sqr(), fresh.entropy()))
    });
    let mut fresh = StateVector::<R>::uniform(n);
    let (p1, _) = spans.scope("core.exec.stage_t1", |_| {
        probes::stage_probe(&mut fresh, &plan.schedule, 1, tile)
    });
    // The same stages at the tile budget this process's tuner picked.
    let tuned_tile = resolve_tile_qubits(None, n, threads);
    let mut fresh = StateVector::<R>::uniform(n);
    let (tuned, _) = spans.scope("core.exec.stage_tuned", |_| {
        probes::stage_probe(&mut fresh, &plan.schedule, threads, tuned_tile)
    });
    drop(fresh);
    let by_k = probes::dense_flops_by_k(&plan.schedule, n);
    let flops: u64 = by_k.iter().sum();
    // Seconds the dense clusters would take at the measured per-k ladder
    // (widths past the ladder priced at its last rung).
    let ideal_s: f64 = by_k
        .iter()
        .enumerate()
        .skip(1)
        .map(|(k, &f)| f as f64 / (ladder[k.min(5)] * 1e9))
        .sum();
    let stream_gbps = p.stats.bytes_streamed as f64 / p.stage_s / 1e9;
    layers.set("core.exec.compile_s", p.compile_s);
    layers.set("core.exec.stage_s", p.stage_s);
    layers.set("core.exec.stage_s_tuned", tuned.stage_s);
    layers.set("core.exec.stage_s_t1", p1.stage_s);
    layers.set("core.exec.gflops", flops as f64 / p.stage_s / 1e9);
    layers.set("core.exec.frac_of_kernel", ideal_s / p.stage_s);
    layers.set("core.exec.stream_gbps", stream_gbps);
    layers.set("core.exec.frac_of_triad", stream_gbps / triad);
    layers.set("core.single.init_s", init_s);
    layers.set("core.single.reduce_s", reduce_s);
    layers.set(
        "core.single.decomp_residual_frac",
        (wall_best - init_s - p.compile_s - p.stage_s - reduce_s) / wall_best,
    );

    // The plain single-threaded baseline of the same problem.
    let mut t1 = make_backend::<R>(Engine::Single { threads: 1 }, Telemetry::disabled());
    let t1_plan = t1
        .plan(&setup.circuit)
        .map_err(|e| format!("t1 plan: {e}"))?;
    let (t1_out, t1_wall) = spans.scope("core.single.t1_run", |_| t1.run(&t1_plan));
    t1_out.map_err(|e| format!("t1 run: {e}"))?;
    layers.set("core.single.t1_wall_s", t1_wall);
    layers.set(
        "core.single.parallel_eff",
        t1_wall / (threads as f64 * wall_best),
    );
    Ok(())
}

/// `core.dist` swap and the bare `net` collective, against the memcpy
/// ceiling measured in the same process.
fn probe_dist<R: SweepDispatch>(
    o: &Opts,
    plan: &BackendPlan,
    n: u32,
    ranks: usize,
    spans: &mut Spans,
    layers: &mut Layers,
) {
    let (memcpy, _) = spans.scope("ceiling.memcpy", |_| {
        probes::memcpy_gbps(o.scale.ceiling_bytes, ranks)
    });
    layers.set("kernels.memcpy_gbps", memcpy);
    if let Some(swap) = plan.schedule.stages.iter().find_map(|s| s.swap.as_ref()) {
        let (p, _) = spans.scope("core.dist.perform_swap", |_| {
            probes::swap_probe::<R>(swap, n, ranks)
        });
        // Every copied amplitude byte is one read and one write, the
        // same accounting as the memcpy ceiling.
        let gbps = 2.0 * p.bytes_copied as f64 / p.swap_s / 1e9;
        layers.set("core.dist.swap_s", p.swap_s);
        layers.set("core.dist.swap_gbps", gbps);
        layers.set("core.dist.swap_frac_of_memcpy", gbps / memcpy);
    }
    let (gbps, _) = spans.scope("net.all_to_all", |_| {
        probes::all_to_all_gbps(o.scale.a2a_bytes, ranks)
    });
    layers.set("net.all_to_all_gbps", gbps);
}

/// The chunk store from outside, and one repetition of the synchronous
/// engine the pipelined default has to beat.
fn probe_ooc<R: SweepDispatch>(
    setup: &AmpSetup<R>,
    n: u32,
    chunks: usize,
    wall_best: f64,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let g = log2_exact(chunks);
    let dir = ScratchDir::new("probe");
    let (p, _) = spans.scope("ooc.chunk_store", |_| {
        probes::store_probe::<R>(dir.path(), n - g, g)
    });
    let p = p.map_err(|e| format!("chunk store probe: {e}"))?;
    layers.set("ooc.store_create_s", p.create_s);
    layers.set("ooc.chunk_read_gbps", p.chunk_read_gbps);
    layers.set("ooc.chunk_write_gbps", p.chunk_write_gbps);
    layers.set("ooc.fs_write_gbps", p.fs_write_gbps);

    let mut sync: Box<dyn Backend<R>> = Box::new(OocBackend::new(
        OocSimulator::<R>::new(OocConfig::sync_baseline(KernelConfig::default())),
        chunks,
    ));
    let plan = sync
        .plan(&setup.circuit)
        .map_err(|e| format!("sync plan: {e}"))?;
    let (out, sync_wall) = spans.scope("ooc.sync_run", |_| sync.run(&plan));
    out.map_err(|e| format!("sync run: {e}"))?;
    layers.set("ooc.sync_wall_s", sync_wall);
    layers.set("ooc.pipeline_speedup", sync_wall / wall_best);
    Ok(())
}

/// `compress` from outside: the codec on one chunk of the depth-10 state
/// (structured, compressible) and one of the depth-25 state (dense).
fn probe_compress(
    o: &Opts,
    n: u32,
    chunks: usize,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let chunk_len = 1usize << (n - log2_exact(chunks));
    let cells = [
        (
            10u32,
            [
                "compress.enc_gbps_structured",
                "compress.dec_gbps_structured",
                "compress.ratio_structured",
            ],
        ),
        (
            25,
            [
                "compress.enc_gbps_dense",
                "compress.dec_gbps_dense",
                "compress.ratio_dense",
            ],
        ),
    ];
    for (depth, [enc, dec, ratio]) in cells {
        let circuit = supremacy_circuit(&SupremacySpec {
            rows: o.scale.rows,
            cols: o.scale.cols,
            depth,
            seed: o.seed,
        });
        let (out, _) = spans.scope("compress.make_state", |_| {
            SingleNodeSimulator::default().try_run_t::<f64>(&circuit)
        });
        let state = out.map_err(|e| format!("depth-{depth} state: {e}"))?.state;
        let (p, _) = spans.scope("compress.codec", |_| {
            probes::codec_probe(&state.amplitudes()[..chunk_len])
        });
        layers.set(enc, p.enc_gbps);
        layers.set(dec, p.dec_gbps);
        layers.set(ratio, p.ratio);
    }
    Ok(())
}

/// Write the harness spans and the traced engine's tracks as one Chrome
/// `trace_event` file (`chrome://tracing`, ui.perfetto.dev): track 0 is
/// the harness, the engine's tracks follow on the same time base.
fn write_trace(
    w: &Workload,
    spans: &Spans,
    tel: &Telemetry,
    tel_offset_ns: u64,
) -> Result<PathBuf, String> {
    let event = |tid: usize, name: &str, start_ns: u64, dur_ns: u64, args: Json| {
        obj(vec![
            ("ph", s("X")),
            ("pid", num(0.0)),
            ("tid", num(tid as f64)),
            ("cat", s("qsim")),
            ("name", s(name)),
            ("ts", num(start_ns as f64 / 1e3)),
            ("dur", num(dur_ns as f64 / 1e3)),
            ("args", args),
        ])
    };
    let thread_name = |tid: usize, name: &str| {
        obj(vec![
            ("ph", s("M")),
            ("pid", num(0.0)),
            ("tid", num(tid as f64)),
            ("name", s("thread_name")),
            ("args", obj(vec![("name", s(name))])),
        ])
    };
    let mut events = vec![thread_name(0, &format!("harness {}", w.name))];
    for (i, sp) in spans.spans().iter().enumerate() {
        let args = obj(vec![
            ("id", num(i as f64)),
            ("parent", sp.parent.map_or(Json::Null, |p| num(p as f64))),
            ("workload", s(w.name)),
        ]);
        events.push(event(
            0,
            sp.name,
            sp.start_ns,
            sp.end_ns - sp.start_ns,
            args,
        ));
    }
    for (t, (name, evs, _dropped)) in tel.tracks_snapshot().iter().enumerate() {
        events.push(thread_name(t + 1, name));
        for e in evs {
            let args = obj(vec![
                ("id", num(e.id as f64)),
                ("depth", num(e.depth as f64)),
            ]);
            events.push(event(
                t + 1,
                e.name,
                tel_offset_ns + e.start_ns,
                e.duration_ns(),
                args,
            ));
        }
    }
    let doc = obj(vec![
        ("traceEvents", Json::Array(events)),
        ("displayTimeUnit", s("ns")),
    ]);
    let path = env::out_dir().join(format!("trace_{}.json", w.name));
    std::fs::write(&path, crate::json::write(&doc))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Run one workload in this process. `start` is the process start.
pub fn run_workload(w: &Workload, o: &Opts, start: Instant) -> Result<RunResult, String> {
    let loadavg_start = env::loadavg_1min();
    std::fs::create_dir_all(env::out_dir()).map_err(|e| format!("out dir: {e}"))?;
    match w.engine {
        Engine::Plan => run_plan(w, o, start, loadavg_start),
        _ if w.f32 => run_amplitude::<f32>(w, o, start, loadavg_start),
        _ => run_amplitude::<f64>(w, o, start, loadavg_start),
    }
}

fn run_amplitude<R: SweepDispatch>(
    w: &Workload,
    o: &Opts,
    start: Instant,
    loadavg_start: f64,
) -> Result<RunResult, String> {
    let mut spans = Spans::new(start);
    let mut layers = Layers::default();
    let spec = supremacy_spec(w, o);
    let n = spec.n_qubits();
    let mut setup = spans
        .scope("setup", |s| setup_amplitude::<R>(w, &spec, o.seed, s))
        .0?;
    let setup_s = sample_setup_children(w, o, start.elapsed().as_secs_f64())?;

    let (mut m, plan, sims) = measure_amplitude(w, o, &mut setup, &mut spans);
    m.setup_s = setup_s;
    let attempted = m.wall_s.len().max(1);
    let mut trace_file = None;
    if o.trace {
        let plan = plan.as_ref().ok_or("no repetition produced a plan")?;
        let wall_best = Summary::of(&m.wall_s).value();
        let sim_best = if sims.is_empty() {
            wall_best
        } else {
            Summary::of(&sims).value()
        };
        layers.set("circuit.gen_s", setup.gen_s);
        layers.set("circuit.gates", setup.circuit.len() as f64);
        layers.set("harness.bit_mismatch_reps", m.bit_mismatch_reps as f64);
        layers.set("kernels.autotune_s", setup.autotune_s);
        layers.set("kernels.tile_qubits", setup.tile_qubits as f64);
        layers.set("sched.greedy_plan_s", Summary::of(&m.plan_s).value());
        layers.set("sched.search_plan_s", Summary::of(&m.search_plan_s).value());
        layers.set("sched.search_candidates", m.search_candidates as f64);
        layers_from_schedule(&plan.schedule, &mut layers);
        let timed = Timed {
            w,
            o,
            setup: &setup,
            plan,
            wall_best,
            sim_best,
        };
        match traced_pass(&timed, &mut spans, &mut layers) {
            Ok(path) => trace_file = Some(path),
            Err(e) => {
                m.failed += 1;
                m.notes.push(e);
            }
        }
    }
    // The backend holds its last run's scratch store until dropped.
    drop(setup.engine);
    let facts = EnvFacts {
        seed: o.seed,
        scale: o.scale.name,
        state_bytes: (1u64 << n) * 2 * R::BYTES as u64,
        tile_qubits: Some(setup.tile_qubits),
        repetitions: attempted,
        loadavg_start,
    };
    Ok(finish(w, o, &spans, m, layers, facts, trace_file))
}

fn run_plan(
    w: &Workload,
    o: &Opts,
    start: Instant,
    loadavg_start: f64,
) -> Result<RunResult, String> {
    let mut spans = Spans::new(start);
    let mut layers = Layers::default();
    let spec = supremacy_spec(w, o);
    let n = spec.n_qubits();
    let l = o.scale.plan_local;
    let setup = spans.scope("setup", |s| setup_plan(&spec, l, s)).0;
    let mut m = Measured {
        setup_s: sample_setup_children(w, o, start.elapsed().as_secs_f64())?,
        ..Measured::default()
    };
    let (exec, _) = strip_initial_hadamards(&setup.circuit);
    let mut last: Option<(PlannedSchedule, PlannedSchedule)> = None;
    // (greedy swaps, planned swap bytes) of repetition 0: planning is
    // deterministic, so any later difference is a failure.
    let mut reference: Option<(usize, u64)> = None;
    let window = if o.trace { o.seconds / 2.0 } else { o.seconds };
    timed_loop(window, |rep| {
        let ((greedy, searched), wall) = spans.scope("rep", |s| {
            let (greedy, plan_s) = s.scope("plan", |_| {
                plan_direct(&setup.circuit, l, ScheduleMode::Greedy, 16)
            });
            let (searched, search_s) = s.scope("search", |_| {
                plan_direct(&setup.circuit, l, ScheduleMode::Search, 16)
            });
            m.plan_s.push(plan_s);
            m.search_plan_s.push(search_s);
            (greedy, searched)
        });
        m.wall_s.push(wall);
        let got = (
            greedy.schedule.n_swaps(),
            plan_resources(&greedy.schedule, 16, DEFAULT_TILE_QUBITS).swap_bytes,
        );
        if *reference.get_or_insert(got) != got || searched.best_cost > searched.greedy_cost {
            m.failed += 1;
            m.notes.push(format!(
                "rep {rep}: greedy plan changed or search modeled worse than greedy"
            ));
        }
        m.search_candidates = searched.candidates;
        last = Some((greedy, searched));
    });
    m.peak_rss_mib = env::peak_rss_mib();
    let (greedy, searched) = last.expect("MIN_REPS >= 1");
    // The search may relabel qubits; the schedule it returns still has to
    // implement the circuit.
    searched.schedule.verify(&exec);
    let (swaps, swap_bytes) = reference.expect("MIN_REPS >= 1");
    m.stage_runs = (swaps + 1) as f64;
    m.slow_tier_bytes_per_amp = swap_bytes as f64 / 2f64.powi(n as i32);

    let attempted = m.wall_s.len();
    if o.trace {
        layers.set("circuit.gen_s", setup.gen_s);
        layers.set("circuit.gates", setup.circuit.len() as f64);
        layers.set("sched.greedy_plan_s", Summary::of(&m.plan_s).value());
        layers.set("sched.search_plan_s", Summary::of(&m.search_plan_s).value());
        layers.set("sched.search_candidates", m.search_candidates as f64);
        layers_from_schedule(&greedy.schedule, &mut layers);
        layers.set("harness.untraced_wall_s", Summary::of(&m.wall_s).value());
    }
    let facts = EnvFacts {
        seed: o.seed,
        scale: o.scale.name,
        state_bytes: 0,
        tile_qubits: None,
        repetitions: attempted,
        loadavg_start,
    };
    Ok(finish(w, o, &spans, m, layers, facts, None))
}

/// Fold the measurements into the result: metric summaries in table
/// order, the run record, the correctness verdict.
fn finish(
    w: &Workload,
    o: &Opts,
    spans: &Spans,
    m: Measured,
    layers: Layers,
    facts: EnvFacts,
    trace_file: Option<PathBuf>,
) -> RunResult {
    let attempted = facts.repetitions;
    let samples = |name: &str| -> Vec<f64> {
        match name {
            "setup_s" => m.setup_s.clone(),
            "plan_s" => m.plan_s.clone(),
            "search_plan_s" => m.search_plan_s.clone(),
            "wall_s" => m.wall_s.clone(),
            "peak_rss_mib" => vec![m.peak_rss_mib],
            "slow_tier_bytes_per_amp" => vec![m.slow_tier_bytes_per_amp],
            "stage_runs" => vec![m.stage_runs],
            other => unreachable!("end-to-end metric '{other}' has no source"),
        }
    };
    // A metric with no sample (every repetition failed to plan, say)
    // reads 0, which the non-zero check below turns into `correct: false`.
    let sampled: Vec<Vec<f64>> = END_TO_END
        .iter()
        .map(|e| {
            Some(samples(e.name))
                .filter(|v| !v.is_empty())
                .unwrap_or(vec![0.0])
        })
        .collect();
    let end_to_end: Vec<Summary> = sampled.iter().map(|v| Summary::of(v)).collect();
    // Every end-to-end metric is defined to be non-zero on every
    // workload; a zero means a source above went missing.
    let all_nonzero = end_to_end.iter().all(|s| s.value() > 0.0);
    let correct = m.failed == 0 && all_nonzero;
    let per_layer: Option<Vec<f64>> = o
        .trace
        .then(|| PER_LAYER.iter().map(|p| layers.get(p.name)).collect());

    let mut members = vec![
        ("schema", s("qsim-benchmark/1")),
        ("workload", s(w.name)),
        ("why", s(w.why)),
        ("env", env::env_block(&facts)),
        ("correct", Json::Bool(correct)),
        ("attempted", num(attempted as f64)),
        ("failed", num(m.failed as f64)),
        ("fail_frac", num(m.failed as f64 / attempted.max(1) as f64)),
        (
            "notes",
            Json::Array(m.notes.iter().map(|n| s(n.as_str())).collect()),
        ),
        (
            "end_to_end",
            Json::Object(
                END_TO_END
                    .iter()
                    .zip(end_to_end.iter().zip(&sampled))
                    .map(|(e, (sm, v))| (e.name.to_string(), sm.to_json(e.unit, v)))
                    .collect(),
            ),
        ),
    ];
    if let Some((norm, entropy)) = m.observables {
        members.push(("norm", num(norm)));
        members.push(("entropy", num(entropy)));
    }
    if let Some(values) = &per_layer {
        members.push((
            "per_layer",
            Json::Object(
                PER_LAYER
                    .iter()
                    .zip(values)
                    .map(|(p, v)| {
                        (
                            p.name.to_string(),
                            obj(vec![("unit", s(p.unit)), ("value", num(*v))]),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    members.push((
        "spans",
        Json::Array(
            spans
                .self_times()
                .into_iter()
                .map(|(name, count, total, own)| {
                    obj(vec![
                        ("name", s(name)),
                        ("count", num(count as f64)),
                        ("total_s", num(total)),
                        ("self_s", num(own)),
                    ])
                })
                .collect(),
        ),
    ));
    if let Some(p) = trace_file {
        members.push(("trace_file", s(p.display().to_string())));
    }
    RunResult {
        correct,
        attempted,
        failed: m.failed,
        end_to_end,
        per_layer,
        record: obj(members),
    }
}
