//! Live run observability: the progress/ETA engine, the `/metrics` +
//! `/status` status server, and the periodic progress ticker.
//!
//! PR 4 made telemetry strictly post-mortem; this module is the
//! in-flight half. The design splits the denominator from the
//! numerator:
//!
//! * **Planned work** comes from the schedule: the unit of progress is
//!   the stage (with the swap that closes it) on every engine. At run
//!   start the engine seeds the stages it will execute via
//!   [`Progress::set_planned_units`] and their cost-model price via
//!   [`Progress::set_predicted_seconds`].
//! * **Live counters** are fed at the engines' unit boundaries
//!   ([`Progress::unit_done`]) — one relaxed atomic add per stage, so the
//!   taps are far off the per-amplitude hot path.
//!
//! The ETA blends the cost-model prior with measured unit times as a
//! pseudo-count average (see [`ProgressSnapshot::unit_estimate_seconds`]):
//! before any unit completes the estimate is pure model; each completed
//! unit shifts weight toward the measured mean, so the ETA tightens
//! monotonically under steady unit times and can never go negative
//! (remaining units saturate at zero).
//!
//! The status server is dependency-free `std::net`: one listener
//! thread, blocking per-request handling, `Connection: close`. It
//! serves `/metrics` (Prometheus text exposition via [`crate::prom`])
//! and `/status` (a JSON document of run state, progress, ETA and the
//! `live.*` gauges the engines refresh at unit boundaries — per-rank
//! straggler stats, per-pipeline-thread overlap).

use crate::metrics::Metric;
use crate::{MetricsRegistry, Telemetry};
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Coarse run state reported on `/status`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunState {
    Idle = 0,
    Planning = 1,
    Running = 2,
    Done = 3,
    Failed = 4,
}

impl RunState {
    pub fn name(self) -> &'static str {
        match self {
            RunState::Idle => "idle",
            RunState::Planning => "planning",
            RunState::Running => "running",
            RunState::Done => "done",
            RunState::Failed => "failed",
        }
    }

    fn from_usize(v: usize) -> Self {
        match v {
            1 => RunState::Planning,
            2 => RunState::Running,
            3 => RunState::Done,
            4 => RunState::Failed,
            _ => RunState::Idle,
        }
    }
}

/// Pseudo-count weight of the cost-model prior in the per-unit blend:
/// the prior counts as this many "virtual" completed units, so the
/// first few measured samples already dominate a wrong model while a
/// single noisy sample cannot swing the estimate alone.
const PRIOR_WEIGHT: f64 = 2.0;

/// Shared live progress state. All fields are relaxed atomics — the
/// engines' taps are single adds, the status thread reads are
/// tear-tolerant monitoring data.
pub struct Progress {
    planned: AtomicU64,
    /// Total predicted nanoseconds of the planned units (cost-model
    /// priced).
    predicted_ns: AtomicU64,
    done: AtomicU64,
    measured_ns: AtomicU64,
    state: AtomicUsize,
    stage: AtomicU64,
    stages_total: AtomicU64,
}

impl Default for Progress {
    fn default() -> Self {
        Self::new()
    }
}

impl Progress {
    pub fn new() -> Self {
        Self {
            planned: AtomicU64::new(0),
            predicted_ns: AtomicU64::new(0),
            done: AtomicU64::new(0),
            measured_ns: AtomicU64::new(0),
            state: AtomicUsize::new(RunState::Idle as usize),
            stage: AtomicU64::new(0),
            stages_total: AtomicU64::new(0),
        }
    }

    /// Seed the planned unit count (engine side, at run start: the
    /// stages this run will execute).
    pub fn set_planned_units(&self, units: u64) {
        self.planned.store(units, Ordering::Relaxed);
    }

    /// Seed the cost-model predicted wall seconds of the planned units.
    ///
    /// A degenerate cost-model prior (a zero or non-finite weight in a
    /// hand-built model) can produce NaN or ±∞ here. The `as u64` cast saturates —
    /// +∞ would become `u64::MAX` ns (~585 years), poisoning every ETA
    /// blend downstream — so non-finite inputs are dropped to 0 (i.e.
    /// "no prior"), which the ETA math already handles.
    pub fn set_predicted_seconds(&self, seconds: f64) {
        let seconds = if seconds.is_finite() { seconds } else { 0.0 };
        let ns = (seconds.max(0.0) * 1e9) as u64;
        self.predicted_ns.store(ns, Ordering::Relaxed);
    }

    /// Record one completed unit that took `measured_ns`.
    pub fn unit_done(&self, measured_ns: u64) {
        self.done.fetch_add(1, Ordering::Relaxed);
        self.measured_ns.fetch_add(measured_ns, Ordering::Relaxed);
    }

    pub fn set_state(&self, s: RunState) {
        self.state.store(s as usize, Ordering::Relaxed);
    }

    pub fn state(&self) -> RunState {
        RunState::from_usize(self.state.load(Ordering::Relaxed))
    }

    /// Update the coarse position indicator (current stage / total
    /// stages of the driving loop).
    pub fn set_stage(&self, stage: u64, total: u64) {
        self.stage.store(stage, Ordering::Relaxed);
        self.stages_total.store(total, Ordering::Relaxed);
    }

    /// A coherent-enough copy for rendering (individual fields are
    /// atomically read; cross-field skew of one unit is fine for
    /// monitoring).
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            state: self.state(),
            stage: self.stage.load(Ordering::Relaxed),
            stages_total: self.stages_total.load(Ordering::Relaxed),
            planned: self.planned.load(Ordering::Relaxed),
            done: self.done.load(Ordering::Relaxed),
            predicted_seconds: self.predicted_ns.load(Ordering::Relaxed) as f64 / 1e9,
            measured_seconds: self.measured_ns.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }

    /// Publish the derived progress gauges into `m`:
    /// `run.progress_permille`, `run.state` and (once seeded)
    /// `sched.eta_seconds` + `sched.predicted_seconds`. Called by the
    /// ticker, the status server and the engines' run epilogues, so
    /// `/metrics`, `BENCH_*.json` and `--metrics-out` all carry them.
    pub fn publish_gauges(&self, m: &MetricsRegistry) {
        let snap = self.snapshot();
        m.gauge_set("run.progress_permille", snap.permille() as f64);
        m.gauge_set("run.state", self.state.load(Ordering::Relaxed) as f64);
        if let Some(eta) = snap.eta_seconds() {
            m.gauge_set("sched.eta_seconds", eta);
        }
        if snap.predicted_seconds > 0.0 {
            m.gauge_set("sched.predicted_seconds", snap.predicted_seconds);
        }
    }
}

/// Point-in-time progress.
#[derive(Clone, Copy, Debug)]
pub struct ProgressSnapshot {
    pub state: RunState,
    pub stage: u64,
    pub stages_total: u64,
    pub planned: u64,
    pub done: u64,
    pub predicted_seconds: f64,
    pub measured_seconds: f64,
}

impl ProgressSnapshot {
    /// Blended per-unit estimate: the cost-model prior weighted as
    /// [`PRIOR_WEIGHT`] virtual units, averaged with the measured unit
    /// times. Pure prior before the first sample, asymptotically the
    /// measured mean.
    pub fn unit_estimate_seconds(&self) -> f64 {
        let done = self.done as f64;
        let prior_unit = if self.planned > 0 && self.predicted_seconds > 0.0 {
            self.predicted_seconds / self.planned as f64
        } else {
            0.0
        };
        if prior_unit > 0.0 {
            (prior_unit * PRIOR_WEIGHT + self.measured_seconds) / (PRIOR_WEIGHT + done)
        } else if self.done > 0 {
            self.measured_seconds / done
        } else {
            0.0
        }
    }

    /// Units still to run (saturating: overruns report zero, never a
    /// negative remainder).
    pub fn remaining_units(&self) -> u64 {
        self.planned.saturating_sub(self.done)
    }

    /// Completion fraction in `[0, 1]` (0 before any unit is planned).
    pub fn fraction(&self) -> f64 {
        if self.planned == 0 {
            return 0.0;
        }
        (self.done as f64 / self.planned as f64).min(1.0)
    }

    /// `fraction()` in integer permille (0..=1000).
    pub fn permille(&self) -> u64 {
        (self.fraction() * 1000.0).round().clamp(0.0, 1000.0) as u64
    }

    /// Estimated remaining wall seconds (≥ 0 by construction), or `None`
    /// before any unit is planned.
    pub fn eta_seconds(&self) -> Option<f64> {
        (self.planned > 0).then(|| self.remaining_units() as f64 * self.unit_estimate_seconds())
    }

    /// The `/status` fragment for this snapshot (an object, no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"state\":\"{}\",\"stage\":{},\"stages_total\":{},\"progress\":{},\"progress_permille\":{},\"eta_seconds\":{},\"planned\":{},\"done\":{},\"predicted_seconds\":{},\"measured_seconds\":{}}}",
            self.state.name(),
            self.stage,
            self.stages_total,
            crate::export::fmt_f64(self.fraction()),
            self.permille(),
            match self.eta_seconds() {
                Some(eta) => crate::export::fmt_f64(eta),
                None => "null".to_string(),
            },
            self.planned,
            self.done,
            crate::export::fmt_f64(self.predicted_seconds),
            crate::export::fmt_f64(self.measured_seconds),
        );
        out
    }
}

/// The `/status` JSON document: progress, the engines' `live.*` gauges
/// (per-rank straggler stats, per-pipeline-thread overlap) and a
/// per-track span census.
pub fn status_json(telemetry: &Telemetry) -> String {
    let progress = telemetry
        .progress()
        .map(|p| p.snapshot().to_json())
        .unwrap_or_else(|| "null".to_string());
    let mut live = String::new();
    if let Some(m) = telemetry.metrics() {
        for (name, metric) in m.snapshot().metrics {
            let Some(key) = name.strip_prefix("live.") else {
                continue;
            };
            let value = match metric {
                Metric::Counter(c) => c.to_string(),
                Metric::Gauge(g) => crate::export::fmt_f64(g),
                Metric::Histogram(_) => continue,
            };
            if !live.is_empty() {
                live.push(',');
            }
            live.push('"');
            crate::export::escape_into(&mut live, key);
            let _ = write!(live, "\":{value}");
        }
    }
    let mut tracks = String::new();
    for (name, recorded, capacity) in telemetry.tracks_census() {
        if !tracks.is_empty() {
            tracks.push(',');
        }
        tracks.push_str("{\"name\":\"");
        crate::export::escape_into(&mut tracks, &name);
        let _ = write!(tracks, "\",\"events\":{recorded},\"capacity\":{capacity}}}");
    }
    format!(
        "{{\"elapsed_seconds\":{},\"progress\":{progress},\"live\":{{{live}}},\"tracks\":[{tracks}]}}\n",
        crate::export::fmt_f64(telemetry.elapsed_seconds()),
    )
}

/// A dependency-free HTTP status endpoint on a background thread.
/// `GET /metrics` serves the Prometheus exposition, `GET /status` the
/// JSON status document; everything else is 404. Bind with port 0 to
/// let the OS pick — [`StatusServer::local_addr`] reports the real
/// port. Dropping the handle stops the thread.
pub struct StatusServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl StatusServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start serving `telemetry`.
    pub fn bind(telemetry: Telemetry, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("qsim-status".into())
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = serve_one(stream, &telemetry);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(20)),
                    }
                }
            })?;
        Ok(Self {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve_one(mut stream: TcpStream, telemetry: &Telemetry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 2048];
    let mut used = 0;
    // Read until the end of the request head (we ignore any body).
    while used < buf.len() {
        match stream.read(&mut buf[used..]) {
            Ok(0) => break,
            Ok(n) => {
                used += n;
                if buf[..used].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&buf[..used]);
    let mut request = head.lines().next().unwrap_or("").split(' ');
    let method = request.next().unwrap_or("");
    let path = request.next().unwrap_or("");
    let (status, ctype, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "only GET\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => {
                // Refresh the derived progress gauges so a scrape always
                // sees current run.progress_permille / sched.eta_seconds
                // even between ticker beats.
                telemetry.publish_progress_gauges();
                (
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    telemetry.metrics_snapshot().to_prometheus(),
                )
            }
            "/status" => ("200 OK", "application/json", status_json(telemetry)),
            "/" => (
                "200 OK",
                "text/plain",
                "qsim45 status endpoint: /metrics (Prometheus), /status (JSON)\n".to_string(),
            ),
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// A periodic background reporter: every `period` it republishes the
/// derived progress gauges, feeds the flight recorder's rolling
/// snapshot window, and (optionally) prints a one-line progress report
/// to stderr. Dropping the handle stops the thread after the current
/// beat.
pub struct ProgressTicker {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ProgressTicker {
    pub fn spawn(
        telemetry: Telemetry,
        recorder: Option<crate::recorder::FlightRecorder>,
        stderr_progress: bool,
        period: Duration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("qsim-progress".into())
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    // Sleep in short steps so drop doesn't stall a full
                    // period.
                    let mut slept = Duration::ZERO;
                    while slept < period && !thread_stop.load(Ordering::Relaxed) {
                        let step = Duration::from_millis(50).min(period - slept);
                        std::thread::sleep(step);
                        slept += step;
                    }
                    if thread_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    telemetry.publish_progress_gauges();
                    if let Some(rec) = &recorder {
                        rec.record_snapshot();
                    }
                    if stderr_progress {
                        if let Some(p) = telemetry.progress() {
                            eprintln!(
                                "{}",
                                progress_line(&p.snapshot(), telemetry.elapsed_seconds())
                            );
                        }
                    }
                }
            })
            .expect("spawn progress ticker");
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for ProgressTicker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The one-line stderr progress report.
pub fn progress_line(snap: &ProgressSnapshot, elapsed_seconds: f64) -> String {
    let eta = match snap.eta_seconds() {
        Some(eta) => format!("{eta:.1}s"),
        None => "--".to_string(),
    };
    format!(
        "[qsim45] {:5.1}%  {}  unit {}/{}  eta {}  elapsed {:.1}s",
        100.0 * snap.fraction(),
        snap.state.name(),
        snap.stage,
        snap.stages_total,
        eta,
        elapsed_seconds,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// A synthetic clock: hands out deterministic "measured" unit
    /// durations without touching `Instant`, so the ETA math is tested
    /// against exact arithmetic.
    struct SyntheticClock {
        now_ns: u64,
    }

    impl SyntheticClock {
        fn new() -> Self {
            Self { now_ns: 0 }
        }

        /// Advance by `ns` and return the elapsed interval.
        fn tick(&mut self, ns: u64) -> u64 {
            self.now_ns += ns;
            ns
        }
    }

    #[test]
    fn eta_refines_monotonically_toward_truth_and_never_negative() {
        let p = Progress::new();
        // The cost model predicts 2 s/unit over 10 units; the "real"
        // machine does 1 s/unit.
        p.set_planned_units(10);
        p.set_predicted_seconds(20.0);
        let true_unit_ns = 1_000_000_000u64;
        let mut clock = SyntheticClock::new();

        // Before any sample: ETA is the pure model prediction.
        let eta0 = p.snapshot().eta_seconds().unwrap();
        assert!((eta0 - 20.0).abs() < 1e-9);

        let mut prev_err = f64::INFINITY;
        for k in 1..=10u64 {
            p.unit_done(clock.tick(true_unit_ns));
            let snap = p.snapshot();
            let eta = snap.eta_seconds().unwrap();
            let true_remaining = (10 - k) as f64;
            assert!(eta >= 0.0, "ETA must never be negative (k={k}: {eta})");
            let err = (eta - true_remaining).abs();
            assert!(
                err <= prev_err + 1e-12,
                "ETA error must tighten as samples accumulate: k={k}, {err} > {prev_err}"
            );
            prev_err = err;
            // The blend stays between the (high) prior and the measured
            // truth, so it converges from above here.
            assert!(eta >= true_remaining - 1e-9);
        }
        let done = p.snapshot();
        assert_eq!(done.eta_seconds(), Some(0.0));
        assert_eq!(done.permille(), 1000);
        // Convergence is substantial, not just monotone: the final error
        // is zero because no units remain.
        assert!(prev_err < 1e-9);
    }

    #[test]
    fn eta_never_negative_on_overrun() {
        // The engine runs MORE units than planned (replans, retries):
        // remaining saturates at zero instead of going negative.
        let p = Progress::new();
        p.set_planned_units(3);
        p.set_predicted_seconds(3.0);
        let mut clock = SyntheticClock::new();
        for _ in 0..7 {
            p.unit_done(clock.tick(2_000_000_000));
            let snap = p.snapshot();
            assert!(snap.eta_seconds().unwrap() >= 0.0);
            assert!(snap.fraction() <= 1.0);
        }
        assert_eq!(p.snapshot().eta_seconds(), Some(0.0));
    }

    #[test]
    fn measured_samples_dominate_a_wrong_prior() {
        // Prior says 1 ms/unit, reality is 100 ms/unit: after a handful
        // of samples the ETA must be within 25% of truth.
        let p = Progress::new();
        p.set_planned_units(100);
        p.set_predicted_seconds(0.1); // 1 ms/unit prior
        let mut clock = SyntheticClock::new();
        for _ in 0..20 {
            p.unit_done(clock.tick(100_000_000));
        }
        let eta = p.snapshot().eta_seconds().unwrap();
        let truth = 80.0 * 0.1; // 80 units × 100 ms
        assert!(
            (eta - truth).abs() / truth < 0.25,
            "eta {eta} should approach {truth}"
        );
    }

    #[test]
    fn unseeded_progress_has_no_eta() {
        let p = Progress::new();
        assert_eq!(p.snapshot().eta_seconds(), None);
        assert_eq!(p.snapshot().permille(), 0);
        // Units completing against an unseeded plan still never go
        // negative / above 1.
        p.unit_done(5);
        let snap = p.snapshot();
        assert!(snap.fraction() <= 1.0);
    }

    #[test]
    fn status_json_is_valid_and_carries_live_gauges() {
        let t = Telemetry::enabled();
        let p = t.progress().unwrap();
        p.set_planned_units(4);
        p.set_predicted_seconds(8.0);
        p.set_state(RunState::Running);
        p.set_stage(1, 4);
        p.unit_done(2_000_000_000);
        let m = t.metrics().unwrap();
        m.gauge_set("live.rank0.comm_seconds", 0.5);
        m.gauge_set("live.rank1.comm_seconds", 1.5);
        m.counter_add("dist.fabric.bytes_sent", 1); // not a live.* gauge
        {
            let track = t.track("rank 0");
            let _s = track.span("stage");
        }
        let doc = status_json(&t);
        let j = parse(&doc).expect("valid status JSON");
        let progress = j.get("progress").unwrap();
        assert_eq!(progress.get("state").unwrap().as_str(), Some("running"));
        assert_eq!(progress.get("stages_total").unwrap().as_f64(), Some(4.0));
        for (field, want) in [
            ("planned", 4.0),
            ("done", 1.0),
            ("predicted_seconds", 8.0),
            ("measured_seconds", 2.0),
        ] {
            assert_eq!(progress.get(field).unwrap().as_f64(), Some(want), "{field}");
        }
        assert!(progress.get("phases").is_none());
        assert!(progress.get("eta_seconds").unwrap().as_f64().unwrap() >= 0.0);
        let live = j.get("live").unwrap();
        assert_eq!(live.get("rank1.comm_seconds").unwrap().as_f64(), Some(1.5));
        assert!(live.get("dist.fabric.bytes_sent").is_none());
        let tracks = j.get("tracks").unwrap().as_array().unwrap();
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].get("events").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn status_server_serves_metrics_and_status() {
        let t = Telemetry::enabled();
        let p = t.progress().unwrap();
        p.set_planned_units(8);
        p.set_predicted_seconds(4.0);
        p.unit_done(500_000_000);
        t.metrics().unwrap().counter_add("ooc.runs", 2);
        let server = StatusServer::bind(t.clone(), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0, "port 0 must resolve to a real port");

        let fetch = |path: &str| -> (String, String) {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let mut resp = String::new();
            s.read_to_string(&mut resp).unwrap();
            let (head, body) = resp.split_once("\r\n\r\n").expect("head/body");
            (head.to_string(), body.to_string())
        };

        let (head, body) = fetch("/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("# TYPE qsim_ooc_runs counter\n"));
        assert!(body.contains("qsim_ooc_runs 2\n"));
        // The scrape itself refreshes the derived gauges.
        assert!(body.contains("qsim_run_progress_permille"));
        assert!(body.contains("qsim_sched_eta_seconds"));

        let (head, body) = fetch("/status");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        let j = parse(&body).expect("status body parses");
        assert!(j.get("progress").unwrap().get("eta_seconds").is_some());

        let (head, _) = fetch("/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");
        drop(server);
        // After drop the port no longer accepts (give the thread a beat).
        std::thread::sleep(Duration::from_millis(60));
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn progress_line_is_humane() {
        let p = Progress::new();
        p.set_planned_units(4);
        p.set_predicted_seconds(8.0);
        p.set_state(RunState::Running);
        p.set_stage(2, 4);
        p.unit_done(2_000_000_000);
        p.unit_done(2_000_000_000);
        let line = progress_line(&p.snapshot(), 4.0);
        assert!(line.contains("50.0%"), "{line}");
        assert!(line.contains("unit 2/4"), "{line}");
        assert!(line.contains("eta 4.0s"), "{line}");
        let unseeded = progress_line(&Progress::new().snapshot(), 0.0);
        assert!(unseeded.contains("eta --"), "{unseeded}");
    }
}
