//! `--scale smoke` over all six workloads: names, units and exact counts.
//!
//! Gates on what repeats exactly (metric names, counters, parseability),
//! never on seconds. Every run goes through the built binary, one fresh
//! process per workload, the way the driver runs it.

use qsim_telemetry::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;

const EXE: &str = env!("CARGO_BIN_EXE_qsim-benchmark");

/// The harness writes `out/run_<workload>_t<trace>.json`; tests that run
/// workloads take this lock so they never race on those files.
static OUT_DIR: Mutex<()> = Mutex::new(());

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(doc: &Json, list: &str) -> Vec<String> {
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{list}' list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Run the harness and return the JSON object on its last stdout line.
fn run(args: &[&str]) -> Json {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("spawn harness");
    assert!(
        out.status.success(),
        "{args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("last line of {args:?} is not JSON ({e}): {last}"))
}

fn smoke(workload: &str, trace: &str) -> Json {
    run(&[
        "run",
        "--workload",
        workload,
        "--seed",
        "45",
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--scale",
        "smoke",
    ])
}

/// The result line has exactly the contract's keys and is marked correct;
/// returns its metrics as (name, value, unit).
fn metrics(line: &Json) -> Vec<(String, f64, String)> {
    let keys: Vec<&str> = line
        .as_object()
        .expect("result line is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{line:?}");
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    line.get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            assert!(!unit.is_empty(), "{name} has no unit");
            assert!(value.is_finite(), "{name} is not finite");
            (name.clone(), value, unit.to_string())
        })
        .collect()
}

fn value(ms: &[(String, f64, String)], name: &str) -> f64 {
    ms.iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .1
}

#[test]
fn benchmark_json_is_generated_from_the_spec_tables() {
    let out = Command::new(EXE)
        .arg("spec")
        .output()
        .expect("spawn harness");
    assert!(out.status.success());
    let generated = parse(&String::from_utf8_lossy(&out.stdout)).expect("spec output parses");
    assert_eq!(
        generated,
        benchmark_json(),
        "BENCHMARK.json drifted from src/spec.rs: regenerate it with `qsim-benchmark spec`"
    );
}

#[test]
fn every_metric_is_emitted_once_and_counts_repeat_exactly() {
    let _lock = OUT_DIR.lock().unwrap_or_else(|e| e.into_inner());
    let doc = benchmark_json();
    let end_to_end = names(&doc, "end_to_end");
    let per_layer = names(&doc, "per_layer");
    // Counters that must agree between two consecutive runs.
    let exact_layers = [
        "circuit.gates",
        "sched.swaps",
        "sched.stages",
        "sched.clusters",
        "core.exec.sweep_passes",
        "core.exec.baseline_passes",
        "core.exec.bytes_streamed",
        "core.exec.tile_local_gates",
        "core.exec.fallback_gates",
        "core.exec.diagonals_folded",
        "core.dist.swap_bytes_copied",
        "net.bytes_sent",
        "ooc.traversals",
        "ooc.runs",
        "ooc.bytes_read",
        "ooc.bytes_written",
        "ooc.logical_bytes_written",
    ];
    for w in names(&doc, "workloads") {
        let untraced = metrics(&smoke(&w, "0"));
        let got: Vec<&str> = untraced.iter().map(|m| m.0.as_str()).collect();
        assert_eq!(
            got, end_to_end,
            "{w}: end-to-end metric names, each once, in order"
        );
        for (name, v, _) in &untraced {
            assert!(*v > 0.0, "{w}: end-to-end metric {name} must never be 0");
        }
        let again = metrics(&smoke(&w, "0"));
        for name in ["slow_tier_bytes_per_amp", "stage_runs"] {
            assert_eq!(value(&untraced, name), value(&again, name), "{w}: {name}");
        }

        let traced = [metrics(&smoke(&w, "1")), metrics(&smoke(&w, "1"))];
        let got: Vec<&str> = traced[0].iter().map(|m| m.0.as_str()).collect();
        assert_eq!(
            got, per_layer,
            "{w}: per-layer metric names, each once, in order"
        );
        for name in exact_layers {
            assert_eq!(
                value(&traced[0], name),
                value(&traced[1], name),
                "{w}: {name}"
            );
        }
        assert!(value(&traced[0], "circuit.gates") > 0.0, "{w}");

        for trace in ["0", "1"] {
            let path = manifest_dir().join(format!("out/run_{w}_t{trace}.json"));
            let record = parse(&std::fs::read_to_string(&path).expect("run file"))
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert!(record.get("env").and_then(|e| e.get("rustc")).is_some());
            assert!(record.get("spans").and_then(Json::as_array).is_some());
        }
        let trace = manifest_dir().join(format!("out/trace_{w}.json"));
        if w.starts_with("plan_") {
            continue; // no engine runs, so no engine trace
        }
        let doc =
            parse(&std::fs::read_to_string(&trace).expect("trace file")).expect("trace parses");
        assert!(doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .is_some_and(|e| e.len() > 4));
    }
    let leftovers: Vec<PathBuf> = std::fs::read_dir(manifest_dir().join("out"))
        .expect("out dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    assert!(
        leftovers.is_empty(),
        "chunk stores left behind: {leftovers:?}"
    );
}

#[test]
fn run_all_writes_a_result_file_that_compare_reads() {
    let _lock = OUT_DIR.lock().unwrap_or_else(|e| e.into_inner());
    let out = manifest_dir().join("out/smoke_result.json");
    let out = out.to_str().expect("utf-8 path");
    let status = Command::new(EXE)
        .args([
            "run",
            "--all",
            "--scale",
            "smoke",
            "--seconds",
            "0.2",
            "--out",
            out,
        ])
        .output()
        .expect("spawn harness");
    assert!(
        status.status.success(),
        "run --all: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    let doc = parse(&std::fs::read_to_string(out).expect("result file")).expect("result parses");
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    assert_eq!(workloads.len(), names(&benchmark_json(), "workloads").len());
    for w in workloads {
        assert!(w.get("env").and_then(|e| e.get("cpu_model")).is_some());
        assert!(w.get("end_to_end").and_then(|m| m.get("wall_s")).is_some());
        assert!(w
            .get("per_layer")
            .and_then(|m| m.get("telemetry.spans"))
            .is_some());
    }
    // A/A: same file on both sides. Exact counters are equal by
    // construction; timings may be unresolved at smoke scale, so only the
    // exit code class is checked (0 clean, 1 regressed/unresolved, 2 error).
    let cmp = Command::new(EXE)
        .args(["compare", out, out])
        .output()
        .expect("spawn compare");
    assert!(
        matches!(cmp.status.code(), Some(0 | 1)),
        "compare: {:?}",
        cmp.status
    );
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(
        !table.contains("regressed"),
        "A/A compare found a regression:\n{table}"
    );
    assert!(table.contains("stage_runs"));
}
