//! CLI contract smoke tests, driven against the real binary.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn qsim45() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qsim45"))
}

/// Held by the one test that times the binary and by the one that
/// keeps every core busy for seconds, so they never overlap.
static QUIET_HOST: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The `entropy` and `norm` report lines of a run's stdout.
fn observables(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| l.starts_with("entropy") || l.starts_with("norm"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Lookup in one section (`"counters"`, `"gauges"`) of the
/// `--metrics-out` document at `path`.
fn metrics(path: &std::path::Path, section: &'static str) -> impl Fn(&str) -> f64 {
    let doc = std::fs::read_to_string(path).expect("metrics written");
    let json = qsim45::telemetry::json::parse(&doc).expect("metrics are valid JSON");
    move |name| {
        json.get(section)
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("no {name} under {section} in {doc}"))
    }
}

/// Counter lookup in the `--metrics-out` document at `path` (removed
/// after reading).
fn counters(path: &std::path::Path) -> impl Fn(&str) -> f64 {
    let get = metrics(path, "counters");
    let _ = std::fs::remove_file(path);
    get
}

#[test]
fn resume_without_a_checkpoint_dir_is_a_usage_error() {
    // `--resume` with nowhere to resume from used to be silently
    // ignored — the run restarted from scratch while the caller
    // believed it picked up where it left off. It must be a hard
    // usage error instead.
    let out = qsim45()
        .args([
            "run", "--rows", "2", "--cols", "4", "--depth", "4", "--resume",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--resume requires --checkpoint-dir"),
        "unhelpful usage error: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("entropy"),
        "the run must not have executed: {stdout}"
    );
}

#[test]
fn resume_with_a_checkpoint_dir_is_accepted() {
    // The guard must reject only the missing-directory case: a
    // checkpointed run followed by a resume of the same directory
    // reproduces the run's observables.
    let dir = std::env::temp_dir().join(format!("qsim_cli_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let args = [
        "run",
        "--rows",
        "2",
        "--cols",
        "4",
        "--depth",
        "4",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
    ];
    let first = qsim45().args(args).output().expect("binary runs");
    assert!(first.status.success(), "checkpointed run failed");
    let second = qsim45()
        .args(args)
        .arg("--resume")
        .output()
        .expect("binary runs");
    assert!(second.status.success(), "resume run failed");
    assert_eq!(observables(&first.stdout), observables(&second.stdout));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kmax_reaches_the_single_node_planner() {
    // `--kmax` used to be dropped on the floor by the single-node
    // backend: the exported sweep counters of a kmax-2 and a kmax-5 run
    // were identical. A different cluster budget is a different plan.
    let sweep = |kmax: &str| {
        let path =
            std::env::temp_dir().join(format!("qsim_cli_kmax{kmax}_{}.json", std::process::id()));
        let out = qsim45()
            .args(["run", "--rows", "3", "--cols", "4", "--depth", "20"])
            .args(["--kmax", kmax, "--metrics-out", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "kmax {kmax} run failed");
        let get = counters(&path);
        (
            get("single.sweep.baseline_passes"),
            get("single.sweep.tile_local_gates"),
        )
    };
    assert_ne!(sweep("2"), sweep("5"));
}

#[test]
fn bad_partition_counts_are_usage_errors_not_panics() {
    // 3x3 grid, n = 9: 3 is not a power of two, 1024 exceeds the
    // register, and 32 ranks would leave l = 4 < g = 5.
    for backend in ["mem", "ooc"] {
        for ranks in ["3", "1024", "32"] {
            let out = qsim45()
                .args(["run", "--rows", "3", "--cols", "3", "--depth", "8"])
                .args(["--ranks", ranks, "--backend", backend])
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "--ranks {ranks} ({backend}) must be a usage error: {stderr}"
            );
            assert_eq!(
                stderr.lines().count(),
                1,
                "one line, no backtrace: {stderr}"
            );
            assert!(
                stderr.contains("--ranks"),
                "unhelpful usage error: {stderr}"
            );
        }
    }
}

/// The usage text is read from the same flag tables as the
/// unknown-flag check, so every flag a subcommand accepts is named under
/// that subcommand.
#[test]
fn the_usage_text_names_every_accepted_flag() {
    let out = qsim45().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Each subcommand's entry: its first line and the indented ones after.
    let entry = |name: &str| -> String {
        let mut lines = stderr
            .lines()
            .skip_while(|l| !l.starts_with(&format!("  {name} ")));
        let first = lines
            .next()
            .unwrap_or_else(|| panic!("no `{name}` in {stderr}"));
        let rest = lines.take_while(|l| l.starts_with("         "));
        std::iter::once(first)
            .chain(rest)
            .collect::<Vec<_>>()
            .join("\n")
    };
    for (name, flags) in [
        ("plan", &["--seed", "--local", "--kmax"][..]),
        (
            "run",
            &[
                "--seed",
                "--kmax",
                "--trace-out",
                "--metrics-out",
                "--ranks",
            ],
        ),
        ("sample", &["--seed", "--shots", "--sample-seed"]),
        ("kernels", &["--state-qubits"]),
    ] {
        let entry = entry(name);
        for flag in flags {
            assert!(
                entry.contains(&format!("[{flag} ")),
                "{name} lacks {flag}: {entry}"
            );
        }
    }
}

#[test]
fn misuse_is_a_one_line_usage_error() {
    // (arguments, what the message must name). None of these may run,
    // panic (exit 101) or be silently accepted (exit 0).
    let grid = ["--rows", "3", "--cols", "3", "--depth", "8"];
    let cases: [(&[&str], &str); 24] = [
        (&["run", "--backend", "bogus", "--ranks", "2"], "--backend"),
        (&["run", "--rows", "x"], "--rows"),
        (&["run", "--rows"], "--rows"),
        (&["run", "--kmax", "0"], "--kmax"),
        // One past the widest kernel (`plan` alone may go wider).
        (&["run", "--kmax", "7"], "kernels support 1..=6"),
        (&["run", "--kmax", "7", "--ranks", "2"], "--kmax 7"),
        (&["sample", "--shots", "0"], "--shots"),
        (&["plan", "--local", "0"], "--local"),
        (&["plan", "--local", "12"], "--local"),
        // Geometry the planner cannot schedule (each used to panic in it):
        // 2·l < n leaves no room for a full swap, l = 1 cannot hold a CZ,
        // and more than 63 qubits overflow its position masks.
        (
            &["plan", "--rows", "5", "--cols", "9", "--local", "22"],
            "--local",
        ),
        (
            &["plan", "--rows", "2", "--cols", "2", "--local", "1"],
            "--local",
        ),
        (&["plan", "--rows", "8", "--cols", "8"], "--rows/--cols"),
        (&["plan", "--rows", "5", "--cols", "13"], "--rows/--cols"),
        (&["run", "--rows", "6", "--cols", "6"], "--rows"),
        (&["sample", "--rows", "6", "--cols", "5"], "--rows"),
        (&["run", "--compress", "bogus"], "--compress"),
        (&["run", "--depth", "0"], "--depth"),
        // Narrower than the widest gate timed; 2^40 amplitudes.
        (&["kernels", "--state-qubits", "3"], "bad --state-qubits 3"),
        (
            &["kernels", "--state-qubits", "40"],
            "bad --state-qubits 40",
        ),
        // A flag the subcommand does not define — a typo, or another
        // subcommand's — must not run something else than was asked for.
        (&["run", "--rnks", "4"], "unknown option '--rnks'"),
        (&["run", "--qubits", "8"], "unknown option '--qubits'"),
        (&["run", "--shots", "4"], "unknown option '--shots'"),
        (&["plan", "--ranks", "4"], "unknown option '--ranks'"),
        (&["sample", "--local", "4"], "unknown option '--local'"),
    ];
    for (args, names) in cases {
        // The grid goes last: `arg()` reads a flag's first occurrence,
        // so a case's own `--rows`/`--cols` wins. `kernels` has no grid.
        let grid: &[&str] = if args[0] == "kernels" { &[] } else { &grid };
        let out = qsim45()
            .args(args)
            .args(grid)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not have run");
    }
    // Pure planning never builds a cluster matrix: wider is fine.
    let out = qsim45()
        .args(["plan", "--kmax", "7"])
        .args(grid)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "plan --kmax 7 must be accepted");
    // Both ends of the `--local` range plan: l = ⌈n/2⌉ and l = 2.
    for grid in [
        ["--rows", "5", "--cols", "9", "--local", "23"],
        ["--rows", "2", "--cols", "2", "--local", "2"],
    ] {
        let out = qsim45()
            .arg("plan")
            .args(grid)
            .args(["--depth", "8"])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{grid:?} must be accepted");
    }
}

#[test]
fn the_comm_share_is_a_share() {
    // The fabric's comm time runs through the final all-reduce, which
    // `sim_seconds` stops short of: small runs printed 247.9 % and
    // 2061.1 % comm.
    let cases: [&[&str]; 2] = [
        &[
            "--rows",
            "3",
            "--cols",
            "3",
            "--ranks",
            "2",
            "--schedule",
            "search",
        ],
        &["--rows", "2", "--cols", "2", "--ranks", "4"],
    ];
    for args in cases {
        let out = qsim45()
            .arg("run")
            .args(args)
            .args(["--depth", "5"])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with("distributed"))
            .expect("distributed report");
        let (_, rest) = line.split_once(" s (").expect("report shape");
        let (share, _) = rest.split_once("% comm").expect("comm share");
        let share: f64 = share.parse().expect("a number");
        assert!((0.0..=100.0).contains(&share), "{line}");
    }
}

#[test]
fn a_closed_stdout_ends_the_run_without_a_panic() {
    // `qsim45 run … | head -1`: the schedule line is printed before the
    // run, the report after it, into a pipe nobody reads any more.
    let mut child = qsim45()
        .args(["run", "--rows", "4", "--cols", "4", "--depth", "20"])
        .args(["--ranks", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(first.starts_with("schedule"), "{first}");
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

#[test]
fn fresh_processes_run_the_same_configuration() {
    // Nothing between process start and the first kernel is measured:
    // the tile size, hence the pass count, is a function of the inputs.
    let _busy = QUIET_HOST.lock().unwrap_or_else(|e| e.into_inner());
    let run = |i: usize| {
        let path =
            std::env::temp_dir().join(format!("qsim_cli_det{i}_{}.json", std::process::id()));
        let out = qsim45()
            .args(["run", "--rows", "4", "--cols", "5", "--depth", "25"])
            .args(["--metrics-out", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "run {i} failed");
        (
            counters(&path)("single.sweep.sweep_passes"),
            observables(&out.stdout),
        )
    };
    let first = run(0);
    assert!(first.1.contains("entropy") && first.1.contains("norm"));
    for i in 1..3 {
        assert_eq!(run(i), first, "process {i} differs from process 0");
    }

    // Nor does planning measure anything: the cost model is a table of
    // constants, so a search-mode run examines the same candidates,
    // reaches the same verdict and publishes the same modeled seconds in
    // every process (a timed kernel ladder used to move the last by
    // ±15 %). Bits, not tolerances: the f64s are compared by `to_bits`.
    let search = |i: usize| {
        let path =
            std::env::temp_dir().join(format!("qsim_cli_search{i}_{}.json", std::process::id()));
        let out = qsim45()
            .args(["run", "--rows", "4", "--cols", "5", "--depth", "25"])
            .args(["--ranks", "4", "--schedule", "search"])
            .args(["--metrics-out", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "search run {i} failed");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        // "schedule    : search (S swaps, T s plan[, searched plan adopted])":
        // everything but the plan's own wall-clock.
        let line = stdout.lines().next().expect("schedule line");
        let (swaps, rest) = line.split_once(" swaps").expect("swap count");
        assert!(swaps.starts_with("schedule    : search ("), "{line}");
        let verdict = (swaps.to_owned(), rest.contains("adopted"));
        let predicted = metrics(&path, "gauges")("sched.predicted_seconds");
        assert!(predicted > 0.0);
        (
            verdict,
            predicted.to_bits(),
            counters(&path)("sched.search_candidates").to_bits(),
            observables(&out.stdout),
        )
    };
    let first = search(0);
    for i in 1..3 {
        assert_eq!(search(i), first, "search process {i} differs");
    }
}

#[test]
fn sim_seconds_excludes_start_up_work() {
    // A 512-amplitude state simulates in well under a millisecond; a
    // probe lazily initialised inside the timed region would show up as
    // tens of milliseconds in every process — so the best of ten runs
    // tells the two apart whatever else the test host is doing.
    let _quiet = QUIET_HOST.lock().unwrap_or_else(|e| e.into_inner());
    let sim_seconds = || {
        let out = qsim45()
            .args(["run", "--rows", "3", "--cols", "3", "--depth", "10"])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().next().expect("report line");
        let (_, rest) = line.split_once(": ").expect("single-node report");
        let (secs, _) = rest.split_once(" s sim").expect("sim time");
        secs.parse::<f64>().expect("seconds")
    };
    let best = (0..10).map(|_| sim_seconds()).fold(f64::INFINITY, f64::min);
    assert!(best < 0.005, "9-qubit sim took {best} s at best");
}
