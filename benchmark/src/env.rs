//! The environment block written into every result file, and the small
//! `/proc` readers the harness needs (peak RSS, load average, filesystem
//! of the chunk store).

use crate::json::{num, obj, s, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Above this 1-minute load average at start the run is flagged `noisy`.
const NOISY_LOADAVG: f64 = 0.5;

/// Where everything the harness writes goes: `benchmark/out/`, named at
/// compile time because the harness is always built inside the checkout
/// it measures.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn loadavg_1min() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Filesystem type holding `path`: the `/proc/mounts` entry with the
/// longest mount point that prefixes it.
pub fn fs_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string())
}

/// The last-level cache size as the kernel reports it (on a VM this is
/// the host socket's, not this guest's share).
fn reported_llc() -> String {
    (0..8)
        .rev()
        .map(|i| read(&format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size")))
        .find(|v| !v.trim().is_empty())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

pub fn simd_path() -> &'static str {
    if qsim_kernels::avx512::avx512_available() {
        "avx512"
    } else if qsim_kernels::avx::avx2_available() {
        "avx2+fma"
    } else {
        "scalar"
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Facts about one run that are not metrics. `loadavg_start` is read
/// before any work; everything else is gathered after the measurements
/// so it never lands in `setup_s`.
pub struct EnvFacts {
    pub seed: u64,
    pub scale: &'static str,
    pub state_bytes: u64,
    pub tile_qubits: Option<u32>,
    pub repetitions: usize,
    pub loadavg_start: f64,
}

pub fn env_block(f: &EnvFacts) -> Json {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    obj(vec![
        (
            "git_commit",
            s(command_line("git", &["rev-parse", "HEAD"], manifest_dir)),
        ),
        (
            "rustc",
            s(command_line("rustc", &["--version"], manifest_dir)),
        ),
        ("nproc", num(nproc() as f64)),
        ("cpu_model", s(cpu_model())),
        ("reported_llc", s(reported_llc())),
        ("state_bytes", num(f.state_bytes as f64)),
        // The chunk store goes wherever `TMPDIR` points (see `main`).
        ("store_fs", s(fs_of(&std::env::temp_dir()))),
        ("simd", s(simd_path())),
        (
            "tile_qubits",
            f.tile_qubits.map_or(Json::Null, |t| num(t as f64)),
        ),
        ("loadavg_1min_start", num(f.loadavg_start)),
        ("noisy", Json::Bool(f.loadavg_start > NOISY_LOADAVG)),
        ("seed", num(f.seed as f64)),
        ("scale", s(f.scale)),
        ("repetitions", num(f.repetitions as f64)),
    ])
}
