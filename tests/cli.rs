//! CLI contract smoke tests, driven against the real binary.

use std::process::Command;

fn qsim45() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qsim45"))
}

#[test]
fn resume_without_a_checkpoint_dir_is_a_usage_error() {
    // `--resume` with nowhere to resume from used to be silently
    // ignored — the run restarted from scratch while the caller
    // believed it picked up where it left off. It must be a hard
    // usage error instead.
    let out = qsim45()
        .args(["run", "--qubits", "8", "--depth", "4", "--resume"])
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
        "--qubits",
        "8",
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
    let observables = |bytes: &[u8]| {
        String::from_utf8_lossy(bytes)
            .lines()
            .filter(|l| l.starts_with("entropy") || l.starts_with("norm"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(observables(&first.stdout), observables(&second.stdout));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kmax_reaches_the_single_node_planner() {
    // `--kmax` used to be dropped on the floor by the single-node
    // backend: the exported sweep counters of a kmax-2 and a kmax-5 run
    // were identical. A different cluster budget is a different plan.
    let counters = |kmax: &str| {
        let path =
            std::env::temp_dir().join(format!("qsim_cli_kmax{kmax}_{}.json", std::process::id()));
        let out = qsim45()
            .args(["run", "--rows", "3", "--cols", "4", "--depth", "20"])
            .args(["--kmax", kmax, "--metrics-out", path.to_str().unwrap()])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "kmax {kmax} run failed");
        let doc = std::fs::read_to_string(&path).expect("metrics written");
        let _ = std::fs::remove_file(&path);
        let json = qsim45::telemetry::json::parse(&doc).expect("metrics are valid JSON");
        let get = |name: &str| {
            json.get("counters")
                .and_then(|c| c.get(name))
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("no counter {name} in {doc}"))
        };
        (
            get("single.sweep.baseline_passes"),
            get("single.sweep.tile_local_gates"),
        )
    };
    assert_ne!(counters("2"), counters("5"));
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
