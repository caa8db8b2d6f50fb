//! The canonical benchmark of the qsim45 engines (see `README.md` here
//! and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! qsim-benchmark run --workload NAME [--seed 45] [--seconds 10] [--trace 0|1] [--scale full|smoke]
//! qsim-benchmark run --all [--seed 45] [--seconds 10] [--scale full|smoke] [--out FILE]
//! qsim-benchmark compare A.json B.json
//! qsim-benchmark spec
//! ```
//!
//! `run --workload` measures one workload in this process and prints, as
//! the last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). `run --all` runs every workload
//! both ways, one fresh process each, and writes one result file. `spec`
//! prints `BENCHMARK.json` from the tables in `spec.rs`.

mod compare;
mod env;
mod json;
mod probes;
mod run;
mod spans;
mod spec;
mod stats;

use json::{num, obj, s, Json};
use run::{Opts, RunResult};
use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// `run_seconds` of `BENCHMARK.json`: the default measuring window.
const DEFAULT_SECONDS: f64 = 10.0;

/// `command` of `BENCHMARK.json`; the driver appends
/// `--workload NAME --seed N --seconds S --trace 0|1`.
const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// The text of `BENCHMARK.json`, one list entry per line.
fn benchmark_json() -> String {
    let list = |items: Vec<Json>| -> String {
        let lines: Vec<String> = items
            .iter()
            .map(|j| format!("    {}", json::write(j)))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let strings = |v: &[&str]| json::write(&Json::Array(v.iter().map(|x| s(*x)).collect()));
    let workloads = WORKLOADS
        .iter()
        .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|e| {
            obj(vec![
                ("name", s(e.name)),
                ("unit", s(e.unit)),
                ("better", s(e.better.as_str())),
                ("bound", num(e.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|p| {
            obj(vec![
                ("name", s(p.name)),
                ("unit", s(p.unit)),
                ("better", s(p.better.as_str())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(&COMMAND),
        strings(&["benchmark"]),
        DEFAULT_SECONDS,
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

fn usage() -> ExitCode {
    eprintln!("usage: qsim-benchmark run (--all | --workload NAME) [--seed N] [--seconds S]");
    eprintln!("                          [--trace 0|1] [--scale full|smoke] [--out FILE]");
    eprintln!("       qsim-benchmark compare A.json B.json");
    eprintln!("       qsim-benchmark spec");
    eprintln!("workloads: {}", WORKLOADS.map(|w| w.name).join(", "));
    ExitCode::from(2)
}

struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value '{v}' for {name}")),
        }
    }
}

/// The chunk store goes through `ScratchDir`, which honours `TMPDIR`:
/// point it at a fresh directory under `benchmark/out/` (the harness
/// writes nowhere else) and remove it on the way out, so no OOC run
/// leaves files behind.
struct StoreDir(PathBuf);

impl StoreDir {
    fn install() -> Result<Self, String> {
        let dir = env::out_dir().join(format!("store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        // Before any thread starts: the environment is process-global.
        std::env::set_var("TMPDIR", &dir);
        Ok(Self(dir))
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Make glibc serve every allocation of 4 MiB or more by `mmap` and give
/// it back on free. Left to its dynamic threshold, malloc keeps one to
/// three freed state vectors on its heap depending on thread timing, and
/// the same f32 workload peaks anywhere between 25 and 56 MiB; pinned,
/// `peak_rss_mib` is the program's live data. Only state-sized blocks are
/// that large: pooled chunk, wire and tile buffers stay on the heap.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` is glibc's own tuning call, declared with its C
    // prototype `int mallopt(int, int)`; it only stores the threshold.
    // Called first thing in `main`, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 4 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    let start = Instant::now();
    pin_mmap_threshold();
    let args = Args(std::env::args().skip(1).collect());
    let outcome = match args.0.first().map(String::as_str) {
        Some("run") => cmd_run(&args, start),
        Some("compare") => match (args.0.get(1), args.0.get(2)) {
            (Some(a), Some(b)) => compare::compare(a, b),
            _ => return usage(),
        },
        Some("spec") => {
            print!("{}", benchmark_json());
            Ok(true)
        }
        _ => return usage(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("qsim-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_run(args: &Args, start: Instant) -> Result<bool, String> {
    let scale_name = args.value("--scale").unwrap_or("full");
    let opts = Opts {
        seed: args.parsed("--seed", 45u64)?,
        seconds: args.parsed("--seconds", DEFAULT_SECONDS)?,
        trace: match args.value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad value '{other}' for --trace (0 or 1)")),
        },
        scale: spec::scale(scale_name).ok_or_else(|| format!("unknown scale '{scale_name}'"))?,
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", opts.seconds));
    }
    if args.flag("--all") {
        let out = args
            .value("--out")
            .map_or_else(|| env::out_dir().join("result.json"), PathBuf::from);
        return run_all(&opts, &out);
    }
    let name = args
        .value("--workload")
        .ok_or("run needs --workload NAME or --all")?;
    let w = spec::workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let _store = StoreDir::install()?;
    if args.flag("--setup-probe") {
        let secs = run::setup_only(w, &opts, start)?;
        println!("{}", json::write(&obj(vec![("setup_s", num(secs))])));
        return Ok(true);
    }
    let result = run::run_workload(w, &opts, start)?;
    let path = run_file(w, opts.trace);
    std::fs::write(&path, json::write(&result.record))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    print_metrics(w, &result);
    println!("{}", json::write(&contract_line(&result)));
    Ok(true)
}

fn run_file(w: &Workload, trace: bool) -> PathBuf {
    env::out_dir().join(format!("run_{}_t{}.json", w.name, u8::from(trace)))
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn contract_line(r: &RunResult) -> Json {
    let metric = |unit: &str, value: f64| obj(vec![("value", num(value)), ("unit", s(unit))]);
    let metrics: Vec<(String, Json)> = match &r.per_layer {
        Some(values) => PER_LAYER
            .iter()
            .zip(values)
            .map(|(p, v)| (p.name.to_string(), metric(p.unit, *v)))
            .collect(),
        None => END_TO_END
            .iter()
            .zip(&r.end_to_end)
            .map(|(e, sm)| (e.name.to_string(), metric(e.unit, sm.value())))
            .collect(),
    };
    obj(vec![
        ("correct", Json::Bool(r.correct)),
        ("attempted", num(r.attempted as f64)),
        ("failed", num(r.failed as f64)),
        ("metrics", Json::Object(metrics)),
    ])
}

fn print_metrics(w: &Workload, r: &RunResult) {
    println!("# {} — {}", w.name, w.why);
    println!(
        "# correct {}, {} attempted, {} failed",
        r.correct, r.attempted, r.failed
    );
    for (e, sm) in END_TO_END.iter().zip(&r.end_to_end) {
        println!(
            "{:<28} {:>16.6} {:<8} (median {:.6}, max {:.6}, n {}; regression bound {:.0} %)",
            e.name,
            sm.value(),
            e.unit,
            sm.median,
            sm.max,
            sm.n,
            e.bound * 100.0
        );
    }
    if let Some(values) = &r.per_layer {
        for (p, v) in PER_LAYER.iter().zip(values) {
            println!("{:<38} {:>18.6} {}", p.name, v, p.unit);
        }
    }
}

/// Every workload twice (tracing off, then on), each in a fresh process,
/// exactly the way the driver runs them; merge the run files into `out`.
fn run_all(o: &Opts, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut merged = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let mut records = Vec::new();
        for trace in [false, true] {
            let t = Instant::now();
            let status = Command::new(&exe)
                .args(["run", "--workload", w.name, "--scale", o.scale.name])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdout(if trace {
                    Stdio::null()
                } else {
                    Stdio::inherit()
                })
                .status()
                .map_err(|e| format!("spawn {}: {e}", w.name))?;
            if !status.success() {
                return Err(format!(
                    "{} (--trace {}) exited with {status}",
                    w.name,
                    u8::from(trace)
                ));
            }
            eprintln!(
                "# {} --trace {} took {:.1} s",
                w.name,
                u8::from(trace),
                t.elapsed().as_secs_f64()
            );
            let path = run_file(w, trace);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            records.push(json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
        let (untraced, traced) = (&records[0], &records[1]);
        ok &= [untraced, traced]
            .iter()
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        let Json::Object(mut members) = untraced.clone() else {
            return Err(format!("{}: run file is not an object", w.name));
        };
        for key in ["per_layer", "trace_file"] {
            if let Some(v) = traced.get(key) {
                members.push((key.to_string(), v.clone()));
            }
        }
        if let Some(v) = traced.get("spans") {
            members.push(("traced_spans".to_string(), v.clone()));
        }
        if let Some(values) = traced.get("per_layer").and_then(Json::as_object) {
            println!(
                "# {} per-layer (0 = layer not exercised by this workload)",
                w.name
            );
            for (name, v) in values {
                let value = v.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("{name:<38} {value:>18.6} {unit}");
            }
        }
        merged.push(Json::Object(members));
    }
    ok &= entropies_agree(&merged);
    let doc = obj(vec![
        ("schema", s("qsim-benchmark/1")),
        ("seed", num(o.seed as f64)),
        ("seconds", num(o.seconds)),
        ("scale", s(o.scale.name)),
        ("correct", Json::Bool(ok)),
        ("workloads", Json::Array(merged)),
    ]);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, json::write(&doc)).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("# wrote {}", out.display());
    Ok(ok)
}

/// The f64 depth-25 amplitude workloads run the same circuit through
/// three engines; their entropies must agree to 1e-9.
fn entropies_agree(records: &[Json]) -> bool {
    let entropies: Vec<(String, f64)> = records
        .iter()
        .filter_map(|r| {
            let name = r.get("workload")?.as_str()?;
            let w = spec::workload(name)?;
            (w.depth == 25 && !w.f32)
                .then(|| r.get("entropy").and_then(Json::as_f64))
                .flatten()
                .map(|h| (name.to_string(), h))
        })
        .collect();
    let agree = entropies
        .iter()
        .all(|(_, h)| (h - entropies[0].1).abs() <= 1e-9);
    if !agree {
        eprintln!("# entropy disagreement across engines: {entropies:?}");
    }
    agree
}
