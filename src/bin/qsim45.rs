//! `qsim45` — command-line driver for the workspace.
//!
//! ```text
//! qsim45 plan   --rows 9 --cols 5 --depth 25 [--seed S] --local 30 [--kmax 4]
//! qsim45 run    --rows 4 --cols 5 --depth 25 [--seed S] [--ranks 4] [--backend mem|ooc]
//!               [--precision f64|f32] [--compress none|shuffle-rle|lossy-<bits>]
//!               [--kmax K] [--schedule greedy|search] [--search-budget N]
//!               [--checkpoint-dir DIR [--resume]]
//!               [--trace-out trace.json] [--metrics-out metrics.json]
//!               [--status-addr HOST:PORT] [--progress]
//! qsim45 sample --rows 4 --cols 4 --depth 25 [--seed S] --shots 16 [--sample-seed S]
//! qsim45 kernels [--state-qubits 22]
//! ```
//!
//! `--seed` picks the random circuit; `sample` draws its shots with a
//! separate generator seeded by `--sample-seed` (default 1).
//!
//! `plan` works at the paper's full scale (pure pre-computation); `run`
//! allocates amplitudes and should stay ≤ ~26 qubits on a laptop.
//!
//! `--precision f32` runs the whole hot path — compiled stages, swap
//! wire format, OOC chunk files — in single precision (§5 of the
//! paper: half the bytes per amplitude end to end). The default `f64`
//! path is bit-identical to the pre-tiering engine. Checkpoints record
//! the precision; resuming across precisions is rejected.
//!
//! `--compress` (OOC backend only) selects the chunk codec on the IO
//! path: `shuffle-rle` is lossless — the simulated state is bit-exact —
//! while `lossy-<bits>` additionally truncates that many low mantissa
//! bits before encoding. Encoding happens on the writeback thread and
//! decoding on the prefetch thread, so the codec hides behind compute.
//! Checkpoints record the codec; resuming across codecs is rejected.
//! Composes with `--precision`.
//!
//! `--schedule search` runs the cost-model-guided schedule search on
//! top of the greedy planner (greedy stays the floor: a searched plan is
//! adopted only when its modeled cost is strictly lower).
//! `--search-budget N` caps the extra planning evaluations.
//!
//! `--checkpoint-dir` makes the run crash-recoverable: every engine
//! publishes an atomic manifest per completed unit of work (a stage,
//! with the swap that closes it), and `--resume` picks the run back up
//! from the last one — bit-exact with an uninterrupted run. A missing
//! manifest under `--resume` is a fresh start, so the flag pair is safe
//! to use unconditionally in retry loops.
//!
//! `--trace-out` writes a Chrome `trace_event` timeline of the run (one
//! track per rank / pipeline thread; open in `chrome://tracing` or
//! <https://ui.perfetto.dev>); `--metrics-out` writes the flat metrics
//! snapshot. Either flag enables telemetry for the run.
//!
//! `--status-addr HOST:PORT` serves the run live over HTTP while it
//! executes: `/metrics` is a Prometheus text exposition of every
//! counter/gauge/histogram (with `_approx` quantile summaries), and
//! `/status` is a JSON document with the run phase, progress fraction,
//! cost-model-anchored ETA, and per-rank / per-pipeline-thread live
//! gauges. Port `0` binds an ephemeral port; the chosen address is
//! printed on startup. `--progress` prints a one-line progress/ETA
//! report to stderr every ticker beat. Either flag enables telemetry.
//!
//! Any `run` with telemetry enabled also arms a crash **flight
//! recorder**: on a panic, a rank failure (fabric poisoning), a run
//! error, or SIGTERM, the final spans, the metrics snapshot, and a
//! rolling window of recent snapshots are written to `FLIGHT.json` —
//! next to the checkpoint manifest when `--checkpoint-dir` is set, else
//! in the working directory. A clean exit writes nothing.

use qsim45::circuit::supremacy::{supremacy_circuit, SupremacySpec};
use qsim45::core::observables::sample_bitstrings;
use qsim45::core::{
    Backend, BackendStats, CheckpointPolicy, DistBackend, DistConfig, DistSimulator, PlanOptions,
    ScheduleMode, SimError, SingleBackend, SingleNodeSimulator,
};
use qsim45::kernels::apply::KernelConfig;
use qsim45::kernels::opt::MAX_K;
use qsim45::kernels::SweepDispatch;
use qsim45::ooc::{OocBackend, OocConfig, OocSimulator};
use qsim45::sched::{global_gate_count, plan, SchedulerConfig, SearchConfig};
use qsim45::telemetry::Telemetry;
use qsim45::util::Xoshiro256;

fn main() {
    // `qsim45 run … | head -1` ends quietly, not in a `println!` panic.
    qsim45::telemetry::recorder::restore_default_sigpipe();
    let mode = std::env::args().nth(1).unwrap_or_default();
    let Some(&(_, flags, cmd)) = SUBCOMMANDS.iter().find(|(name, ..)| *name == mode) else {
        usage()
    };
    reject_unknown_flags(&mode, flags);
    cmd()
}

/// Misuse, not a failed run: one line on stderr, exit code 2.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// A flag as the usage text shows it: its name and its value's
/// placeholder (empty for a switch).
type Flag = (&'static str, &'static str);

/// The circuit flags every subcommand but `kernels` reads ([`spec`]).
const GRID_FLAGS: &[Flag] = &[
    ("--rows", "R"),
    ("--cols", "C"),
    ("--depth", "D"),
    ("--seed", "S"),
];

const RUN_FLAGS: &[Flag] = &[
    ("--ranks", "N"),
    ("--backend", "mem|ooc"),
    ("--precision", "f64|f32"),
    ("--compress", "none|shuffle-rle|lossy-<bits>"),
    ("--kmax", "K"),
    ("--schedule", "greedy|search"),
    ("--search-budget", "N"),
    ("--checkpoint-dir", "DIR"),
    ("--resume", ""),
    ("--trace-out", "FILE"),
    ("--metrics-out", "FILE"),
    ("--status-addr", "HOST:PORT"),
    ("--progress", ""),
];

/// A subcommand: its name, its flag tables and its body.
type Subcommand = (&'static str, &'static [&'static [Flag]], fn());

/// Every subcommand: the one list both [`reject_unknown_flags`] and
/// [`usage`] read.
const SUBCOMMANDS: &[Subcommand] = &[
    (
        "plan",
        &[GRID_FLAGS, &[("--local", "L"), ("--kmax", "K")]],
        cmd_plan,
    ),
    ("run", &[GRID_FLAGS, RUN_FLAGS], cmd_run),
    (
        "sample",
        &[GRID_FLAGS, &[("--shots", "N"), ("--sample-seed", "S")]],
        cmd_sample,
    ),
    ("kernels", &[&[("--state-qubits", "N")]], cmd_kernels),
];

/// Every subcommand with every flag it accepts, wrapped at 80 columns.
fn usage() -> ! {
    eprintln!("usage: qsim45 <plan|run|sample|kernels> [options]");
    for &(name, flags, _) in SUBCOMMANDS {
        let mut line = format!("  {name:<7}");
        for &(flag, value) in flags.iter().copied().flatten() {
            let item = match value {
                "" => format!(" [{flag}]"),
                _ => format!(" [{flag} {value}]"),
            };
            if line.len() + item.len() > 80 {
                eprintln!("{line}");
                line = " ".repeat(9);
            }
            line.push_str(&item);
        }
        eprintln!("{line}");
    }
    std::process::exit(2);
}

/// A mistyped flag must not run something else than was asked for
/// (`run --rnks 4` used to run single-node and exit 0): any `--option`
/// the subcommand does not define is a usage error.
fn reject_unknown_flags(mode: &str, known: &[&[Flag]]) {
    for a in std::env::args().skip(2).filter(|a| a.starts_with("--")) {
        if !known.iter().copied().flatten().any(|&(flag, _)| flag == a) {
            usage_error(format!("unknown option '{a}' for `qsim45 {mode}`"));
        }
    }
}

fn arg(name: &str, default: u32) -> u32 {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == name) {
        None => default,
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage_error(format!("bad {name} (expected an unsigned integer)"))),
    }
}

/// `--kmax`. `plan` only counts clusters, so any width goes; `run`
/// executes them (`executes`) and the kernels stop at `MAX_K`.
fn kmax_arg(executes: bool) -> u32 {
    match arg("--kmax", 4) {
        0 => usage_error("bad --kmax 0 (expected at least 1)"),
        k if executes && k > MAX_K => {
            usage_error(format!("bad --kmax {k} (kernels support 1..={MAX_K})"))
        }
        k => k,
    }
}

/// Refuse grids of more than `max` qubits — `run` and `sample` allocate
/// all `2^n` amplitudes.
fn check_allocatable(s: &SupremacySpec, max: u32) {
    let n = s.n_qubits();
    if n > max {
        usage_error(format!(
            "bad --rows/--cols: {n} qubits, but this subcommand allocates 2^n amplitudes \
             (at most {max} qubits; use `plan` for full scale)"
        ));
    }
}

fn arg_str(name: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == name {
            return args.get(i + 1).cloned().unwrap_or_else(|| default.into());
        }
    }
    default.into()
}

fn arg_opt(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Write the requested telemetry exports after a `run`.
fn write_exports(t: &Telemetry, trace: &Option<String>, metrics: &Option<String>) {
    if let Some(p) = trace {
        t.write_chrome_trace(std::path::Path::new(p))
            .expect("write --trace-out");
        println!("trace       : {p}");
    }
    if let Some(p) = metrics {
        t.write_metrics(std::path::Path::new(p))
            .expect("write --metrics-out");
        println!("metrics     : {p}");
    }
}

fn spec() -> SupremacySpec {
    let s = SupremacySpec {
        rows: arg("--rows", 4),
        cols: arg("--cols", 5),
        depth: arg("--depth", 25),
        seed: arg("--seed", 0) as u64,
    };
    // `supremacy_circuit` asserts both.
    if s.rows == 0 || s.cols == 0 {
        usage_error("bad --rows/--cols: empty grid");
    }
    if s.depth == 0 {
        usage_error("bad --depth 0 (expected at least one CZ cycle)");
    }
    // `Circuit::new` asserts this too: the scheduler keeps position sets
    // in `u64` masks.
    if s.rows.checked_mul(s.cols).is_none_or(|n| n > 63) {
        usage_error(format!(
            "bad --rows/--cols: the {}x{} grid has more than 63 qubits",
            s.rows, s.cols
        ));
    }
    s
}

/// The `--local` values `plan` accepts for `n` qubits: every two-qubit
/// gate must fit locally (l ≥ 2), and a full swap gives up one local
/// position per global qubit (2·l ≥ n).
fn local_range(n: u32) -> std::ops::RangeInclusive<u32> {
    n.div_ceil(2).max(n.min(2))..=n
}

fn cmd_plan() {
    let s = spec();
    let n = s.n_qubits();
    let valid = local_range(n);
    let l = arg("--local", n.saturating_sub(2).max(*valid.start()));
    if !valid.contains(&l) {
        usage_error(format!(
            "bad --local {l} (expected {}..={n} for {n} qubits: l >= 2 and 2*l >= n)",
            valid.start()
        ));
    }
    let kmax = kmax_arg(false);
    let circuit = supremacy_circuit(&s);
    let t0 = std::time::Instant::now();
    let schedule = plan(&circuit, &SchedulerConfig::distributed(l, kmax));
    let dt = t0.elapsed().as_secs_f64();
    schedule.verify(&circuit);
    println!(
        "{}x{} = {n} qubits, depth {}, {} gates",
        s.rows,
        s.cols,
        s.depth,
        circuit.len()
    );
    println!("local qubits    : {l} ({} ranks)", 1u64 << (n - l));
    println!("swaps           : {}", schedule.n_swaps());
    println!(
        "clusters        : {} ({:.1} gates/cluster, kmax {kmax})",
        schedule.n_clusters(),
        schedule.gates_per_cluster()
    );
    println!("diagonal ops    : {}", schedule.n_diagonal_ops());
    println!(
        "per-gate scheme : {} comm steps (worst case)",
        global_gate_count(&circuit, l, true)
    );
    println!("plan time       : {dt:.3} s");
}

fn cmd_run() {
    match arg_str("--precision", "f64").as_str() {
        "f64" => run_at::<f64>(),
        "f32" => run_at::<f32>(),
        other => usage_error(format!("bad --precision '{other}' (expected f64 or f32)")),
    }
}

/// The `run` subcommand at working precision `R` — one code path for
/// both tiers; `R = f64` is bit-identical to the pre-tiering driver.
fn run_at<R: SweepDispatch>() {
    let s = spec();
    check_allocatable(&s, 28);
    let ranks = arg("--ranks", 1) as usize;
    let backend = arg_str("--backend", "mem");
    if !matches!(backend.as_str(), "mem" | "ooc") {
        usage_error(format!("bad --backend '{backend}' (expected mem or ooc)"));
    }
    let trace_out = arg_opt("--trace-out");
    let metrics_out = arg_opt("--metrics-out");
    let checkpoint_dir = arg_opt("--checkpoint-dir");
    let resume = flag("--resume");
    if resume && checkpoint_dir.is_none() {
        // Silently ignoring the flag would rerun from scratch while the
        // caller believes they resumed — make it a hard usage error.
        usage_error("--resume requires --checkpoint-dir (no directory to resume from)");
    }
    let status_addr = arg_opt("--status-addr");
    let progress = flag("--progress");
    let telemetry =
        if trace_out.is_some() || metrics_out.is_some() || status_addr.is_some() || progress {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
    // Crash flight recorder: armed for the whole run whenever telemetry
    // is on, disarmed only on a clean exit. Lands next to the checkpoint
    // manifest when there is one, else in the working directory.
    let recorder = telemetry.is_enabled().then(|| {
        let dir = checkpoint_dir
            .as_deref()
            .map_or_else(|| std::path::PathBuf::from("."), std::path::PathBuf::from);
        let rec = qsim45::telemetry::FlightRecorder::new(telemetry.clone(), dir);
        qsim45::telemetry::recorder::arm_process(&rec);
        qsim45::telemetry::recorder::install_sigterm_recorder();
        rec
    });
    let _status = status_addr.as_deref().map(|addr| {
        let srv = qsim45::telemetry::StatusServer::bind(telemetry.clone(), addr)
            .unwrap_or_else(|e| usage_error(format!("status: cannot bind {addr}: {e}")));
        // Printed before the run starts so a harness using port 0 can
        // discover the ephemeral port and poll mid-run.
        println!("status      : listening on http://{}", srv.local_addr());
        srv
    });
    let _ticker = telemetry.is_enabled().then(|| {
        qsim45::telemetry::ProgressTicker::spawn(
            telemetry.clone(),
            recorder.clone(),
            progress,
            std::time::Duration::from_millis(500),
        )
    });
    let fail = |e: &SimError| -> ! {
        if let SimError::Io(io) = e {
            if io.kind() == std::io::ErrorKind::InvalidInput {
                // No flight record for misuse.
                usage_error(format!("bad --ranks {ranks}: {io}"));
            }
        }
        eprintln!("run failed: {e}");
        let _ = qsim45::telemetry::recorder::flush_armed(&format!("error: {e}"));
        std::process::exit(1);
    };
    let disarm = || {
        if let Some(r) = &recorder {
            r.disarm();
        }
        qsim45::telemetry::recorder::disarm_process();
    };
    let schedule_mode = {
        let v = arg_str("--schedule", "greedy");
        ScheduleMode::parse(&v).unwrap_or_else(|| {
            usage_error(format!("bad --schedule '{v}' (expected greedy or search)"))
        })
    };
    let plan_options = PlanOptions {
        mode: schedule_mode,
        search_budget: arg("--search-budget", SearchConfig::default().budget as u32) as usize,
        ..PlanOptions::default()
    };
    let circuit = supremacy_circuit(&s);
    let kmax = kmax_arg(true);
    // Only the out-of-core engine has a chunk codec to hand this to.
    let compress = qsim45::ooc::Codec::parse(&arg_str("--compress", "none"))
        .unwrap_or_else(|e| usage_error(format!("bad --compress: {e}")));

    // One dispatch for all three engines: build the Backend, point it at
    // the checkpoint directory, plan, run. Everything below the match is
    // engine-agnostic.
    let single = ranks == 1 && backend == "mem";
    let mut engine: Box<dyn Backend<R>> = if single {
        Box::new(SingleBackend::new(SingleNodeSimulator {
            kmax,
            telemetry: telemetry.clone(),
            plan_options,
            ..Default::default()
        }))
    } else if backend == "ooc" {
        let sim = OocSimulator::<R>::new(OocConfig {
            telemetry: telemetry.clone(),
            compress,
            ..Default::default()
        });
        let mut b = OocBackend::new(sim, ranks);
        b.kmax = kmax;
        b.plan_options = plan_options;
        Box::new(b)
    } else {
        let sim = DistSimulator::new(DistConfig {
            n_ranks: ranks,
            kernel: KernelConfig {
                threads: 1,
                ..KernelConfig::default()
            },
            telemetry: telemetry.clone(),
            // A rank death flushes the flight record from the dying
            // rank's own thread, before the poison wakes its peers.
            poison_hook: recorder.as_ref().map(|r| {
                let r = r.clone();
                std::sync::Arc::new(move |rank: usize| {
                    let _ = r.flush(&format!("fabric poisoned by rank {rank}"));
                }) as qsim45::net::PoisonHook
            }),
            ..Default::default()
        });
        let mut b = DistBackend::new(sim);
        b.kmax = kmax;
        b.plan_options = plan_options;
        Box::new(b)
    };
    if let Some(d) = &checkpoint_dir {
        engine.checkpoint(CheckpointPolicy {
            dir: d.into(),
            resume,
        });
    }

    let plan = engine.plan(&circuit).unwrap_or_else(|e| fail(&e));
    if !single {
        println!(
            "schedule    : {} ({} swaps, {:.3} s plan{})",
            if schedule_mode == ScheduleMode::Search {
                "search"
            } else {
                "greedy"
            },
            plan.schedule.n_swaps(),
            plan.plan_seconds,
            if plan.adopted {
                ", searched plan adopted"
            } else {
                ""
            },
        );
    }
    // Seed the live ETA from the plan before execution starts, so the
    // status endpoint has a cost-model prior while the state allocates.
    engine.seed_progress(&plan);
    let out = engine.run(&plan).unwrap_or_else(|e| fail(&e));

    match &out.stats {
        BackendStats::Single { .. } => {
            println!(
                "single-node ({}): {:.3} s sim, {:.3} s plan",
                R::NAME,
                out.sim_seconds,
                plan.plan_seconds
            );
        }
        BackendStats::Dist {
            fabric,
            entropy_seconds,
            ..
        } => {
            // The fabric's comm time runs through the final norm/entropy
            // all-reduce, which `sim_seconds` stops short of.
            let wall = out.sim_seconds + entropy_seconds;
            println!(
                "distributed ({ranks} ranks, {}): {:.3} s ({:.1}% comm, {} swaps)",
                R::NAME,
                out.sim_seconds,
                100.0 * fabric.max_comm_seconds / wall.max(1e-12),
                plan.schedule.n_swaps()
            );
        }
        BackendStats::Ooc { io, runs, .. } => {
            println!(
                "out-of-core ({} chunks, {}): {:.3} s ({} runs, {} traversals)",
                ranks,
                R::NAME,
                out.sim_seconds,
                runs,
                io.traversals
            );
            println!(
                "disk traffic: {:.1} MiB read, {:.1} MiB written, {:.0}% IO overlapped",
                io.bytes_read as f64 / (1 << 20) as f64,
                io.bytes_written as f64 / (1 << 20) as f64,
                100.0 * io.overlap_fraction()
            );
            if !compress.is_none() {
                println!(
                    "compression : {} — {:.2}x ({:.1} MiB logical -> {:.1} MiB on disk)",
                    compress.name(),
                    io.compression_ratio(),
                    io.logical_bytes_written as f64 / (1 << 20) as f64,
                    io.bytes_written as f64 / (1 << 20) as f64
                );
            }
        }
    }
    println!("entropy     : {:.6} bits", out.entropy);
    println!("norm        : {:.12}", out.norm);
    disarm();
    write_exports(&telemetry, &trace_out, &metrics_out);
}

fn cmd_sample() {
    let s = spec();
    check_allocatable(&s, 26);
    let shots = match arg("--shots", 16) {
        0 => usage_error("bad --shots 0 (expected at least 1)"),
        n => n as usize,
    };
    let circuit = supremacy_circuit(&s);
    let out = SingleNodeSimulator::default()
        .try_run_t::<f64>(&circuit)
        .unwrap_or_else(|e| {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        });
    let mut rng = Xoshiro256::seed_from_u64(arg("--sample-seed", 1) as u64);
    let n = s.n_qubits() as usize;
    for shot in sample_bitstrings(&out.state, &mut rng, shots) {
        println!("{shot:0n$b}");
    }
}

fn cmd_kernels() {
    let n = arg("--state-qubits", 20);
    // The widest gate timed (k = 5) needs 5 qubits; 28 is the most `run`
    // allocates.
    if !(5..=28).contains(&n) {
        usage_error(format!("bad --state-qubits {n} (expected 5..=28)"));
    }
    println!("k-qubit kernel throughput, state 2^{n} (GFLOPS, low-order qubits)");
    for k in 1..=5u32 {
        let qubits: Vec<u32> = (0..k).collect();
        let m = {
            let d = 1usize << k;
            let mut rng = Xoshiro256::seed_from_u64(k as u64);
            qsim45::util::matrix::GateMatrix::from_rows(
                k,
                (0..d * d)
                    .map(|_| qsim45::util::c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
                    .collect(),
            )
        };
        let mut rng = Xoshiro256::seed_from_u64(99);
        let mut state: Vec<qsim45::util::c64> = (0..1usize << n)
            .map(|_| qsim45::util::c64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect();
        let cfg = KernelConfig::default();
        let t0 = std::time::Instant::now();
        let reps = 3;
        for _ in 0..reps {
            qsim45::kernels::apply_gate(&mut state, &qubits, &m, &cfg);
        }
        let dt = t0.elapsed().as_secs_f64() / reps as f64;
        let gf = qsim45::util::flops::gate_flops(n, k) as f64 / dt / 1e9;
        println!("  k={k}: {gf:7.2} GFLOPS");
    }
}
