//! The crash flight recorder: last-known-state forensics for runs that
//! die.
//!
//! A [`FlightRecorder`] is armed next to a run's checkpoint directory.
//! While the run is healthy the progress ticker feeds it a rolling
//! window of periodic metrics snapshots; when the run dies — typed
//! `SimError`, panic, fabric poison, or SIGTERM — [`FlightRecorder::
//! flush`] drains the span ring buffers, the current metrics snapshot,
//! the snapshot history and the progress state into a single
//! `FLIGHT.json` beside the checkpoint manifest. Flushing is
//! write-once: the first fault wins and later triggers (a poisoned
//! rank's follow-on panics, the driver's error epilogue) are no-ops, so
//! the record always describes the root cause's instant.
//!
//! # Mid-crash span snapshots
//!
//! The span rings are single-producer and normally snapshotted only
//! after producers quiesce. A flight recorder cannot wait: at flush
//! time other ranks/pipeline threads may still be recording. The
//! snapshot is therefore *best effort* — it only reads slots below each
//! ring's published head (Release/Acquire ordered), so every span it
//! reports was fully written; at worst a concurrently-overwritten slot
//! from a wrapped ring yields one stale event. That trade — a possibly
//! slightly-torn tail versus no forensics at all — is the right one for
//! a crash path, and is documented in DESIGN.md §15.

use crate::{MetricsSnapshot, Telemetry};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// File name of the flight record, written next to the checkpoint
/// manifest (`MANIFEST.json`) when a run dies.
pub const FLIGHT_FILE: &str = "FLIGHT.json";

/// How many periodic metrics snapshots the rolling window retains.
const SNAPSHOT_WINDOW: usize = 8;

struct RecorderInner {
    telemetry: Telemetry,
    dir: PathBuf,
    /// `(elapsed_seconds, snapshot)` beats, oldest first.
    window: Mutex<VecDeque<(f64, MetricsSnapshot)>>,
    written: AtomicBool,
}

/// A cheaply-clonable handle on one run's flight recorder.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
}

impl FlightRecorder {
    /// Arm a recorder writing into `dir` (the checkpoint / store
    /// directory; created on flush if missing).
    pub fn new(telemetry: Telemetry, dir: impl Into<PathBuf>) -> Self {
        Self {
            inner: Arc::new(RecorderInner {
                telemetry,
                dir: dir.into(),
                window: Mutex::new(VecDeque::new()),
                written: AtomicBool::new(false),
            }),
        }
    }

    /// Where the flight record will be written.
    pub fn path(&self) -> PathBuf {
        self.inner.dir.join(FLIGHT_FILE)
    }

    /// Append the current metrics snapshot to the rolling window
    /// (called by the progress ticker each beat).
    pub fn record_snapshot(&self) {
        let snap = self.inner.telemetry.metrics_snapshot();
        let elapsed = self.inner.telemetry.elapsed_seconds();
        let mut w = self.inner.window.lock();
        if w.len() >= SNAPSHOT_WINDOW {
            w.pop_front();
        }
        w.push_back((elapsed, snap));
    }

    /// Mark the run as completed successfully: no flight record will be
    /// written by any later trigger.
    pub fn disarm(&self) {
        self.inner.written.store(true, Ordering::SeqCst);
    }

    /// Write the flight record (once). Returns the written path, or
    /// `Ok(None)` if an earlier trigger already flushed (or the
    /// recorder was disarmed).
    pub fn flush(&self, reason: &str) -> std::io::Result<Option<PathBuf>> {
        if self.inner.written.swap(true, Ordering::SeqCst) {
            return Ok(None);
        }
        let doc = self.render(reason);
        std::fs::create_dir_all(&self.inner.dir)?;
        let path = self.path();
        // Tmp + rename: a crash mid-flush leaves no torn FLIGHT.json.
        let tmp = self.inner.dir.join(".FLIGHT.json.tmp");
        std::fs::write(&tmp, doc)?;
        std::fs::rename(&tmp, &path)?;
        Ok(Some(path))
    }

    fn render(&self, reason: &str) -> String {
        let t = &self.inner.telemetry;
        let mut out = String::from("{\n  \"reason\": \"");
        crate::export::escape_into(&mut out, reason);
        let _ = write!(
            out,
            "\",\n  \"elapsed_seconds\": {},\n",
            crate::export::fmt_f64(t.elapsed_seconds())
        );
        let progress = t
            .progress()
            .map(|p| p.snapshot().to_json())
            .unwrap_or_else(|| "null".to_string());
        let _ = writeln!(out, "  \"progress\": {progress},");
        out.push_str("  \"tracks\": [");
        let mut first = true;
        for (name, events, dropped) in t.tracks_snapshot() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    {\"name\": \"");
            crate::export::escape_into(&mut out, &name);
            let _ = write!(out, "\", \"dropped\": {dropped}, \"spans\": [");
            for (i, ev) in events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n      {\"name\":\"");
                crate::export::escape_into(&mut out, ev.name);
                let _ = write!(
                    out,
                    "\",\"id\":{},\"depth\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    ev.id, ev.depth, ev.start_ns, ev.end_ns
                );
            }
            out.push_str("]}");
        }
        out.push_str("\n  ],\n  \"metrics\": ");
        let metrics = t.metrics_snapshot().to_json();
        out.push_str(metrics.trim_end());
        out.push_str(",\n  \"history\": [");
        let window = self.inner.window.lock();
        for (i, (elapsed, snap)) in window.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"elapsed_seconds\": {}, \"metrics\": {}}}",
                crate::export::fmt_f64(*elapsed),
                snap.to_json().trim_end()
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

// ---------------------------------------------------------------------
// Global arming: the panic hook and the SIGTERM watcher need a
// process-wide place to find "the run's recorder".

fn armed() -> &'static Mutex<Option<FlightRecorder>> {
    static ARMED: OnceLock<Mutex<Option<FlightRecorder>>> = OnceLock::new();
    ARMED.get_or_init(|| Mutex::new(None))
}

/// Make `recorder` the process-wide crash target and install the
/// chaining panic hook (once per process). Any later panic — including
/// the fabric's poison-marker panics on victim ranks — flushes the
/// armed recorder before normal panic handling continues.
pub fn arm_process(recorder: &FlightRecorder) {
    *armed().lock() = Some(recorder.clone());
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            flush_armed(&format!("panic: {msg}"));
            prev(info);
        }));
    });
}

/// Drop the process-wide recorder (end of run).
pub fn disarm_process() {
    *armed().lock() = None;
}

/// Flush the armed recorder, if any. Returns the written path when this
/// call performed the (single) write.
pub fn flush_armed(reason: &str) -> Option<PathBuf> {
    let rec = armed().lock().clone();
    rec.and_then(|r| r.flush(reason).ok().flatten())
}

/// Has this process received SIGTERM since
/// [`install_sigterm_recorder`]?
pub fn sigterm_seen() -> bool {
    SIGTERM_SEEN.load(Ordering::SeqCst)
}

static SIGTERM_SEEN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigterm(_sig: i32) {
    // Async-signal-safe: a single atomic store. The watcher thread does
    // the file IO.
    SIGTERM_SEEN.store(true, Ordering::SeqCst);
}

// Raw `signal(2)` binding — the workspace carries no libc crate.
#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Restore the default SIGPIPE disposition (Rust's runtime ignores it),
/// so a CLI whose stdout reader went away — `qsim45 run … | head -1` —
/// is terminated by the signal instead of panicking in `println!`.
/// A no-op on non-unix platforms.
pub fn restore_default_sigpipe() {
    #[cfg(unix)]
    {
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: `signal` with SIG_DFL installs no handler code; it only
        // resets the process's disposition for SIGPIPE.
        unsafe { signal(SIGPIPE, SIG_DFL) };
    }
}

/// Install a SIGTERM handler plus a watcher thread that, on delivery,
/// flushes the armed recorder and exits with the conventional 143.
/// Returns `false` on non-unix platforms or if the handler could not be
/// installed. Idempotent.
pub fn install_sigterm_recorder() -> bool {
    #[cfg(unix)]
    {
        static INSTALLED: OnceLock<bool> = OnceLock::new();
        *INSTALLED.get_or_init(|| {
            const SIGTERM: i32 = 15;
            const SIG_ERR: usize = usize::MAX;
            let prev = unsafe { signal(SIGTERM, on_sigterm as *const () as usize) };
            if prev == SIG_ERR {
                return false;
            }
            std::thread::Builder::new()
                .name("qsim-sigterm".into())
                .spawn(|| loop {
                    if sigterm_seen() {
                        flush_armed("sigterm");
                        std::process::exit(143);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(50));
                })
                .is_ok()
        })
    }
    #[cfg(not(unix))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::live::RunState;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("qsim-flight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn instrumented() -> Telemetry {
        let t = Telemetry::enabled();
        let track = t.track("rank 1");
        for i in 0..3u64 {
            let _s = track.span_id("stage", i);
        }
        t.metrics()
            .unwrap()
            .counter_add("dist.swap_bytes_copied", 4096);
        if let Some(p) = t.progress() {
            p.set_planned_units(8);
            p.set_state(RunState::Running);
            for _ in 0..3 {
                p.unit_done(1000);
            }
        }
        t
    }

    #[test]
    fn flush_writes_spans_metrics_and_history_once() {
        let dir = tmpdir("flush");
        let t = instrumented();
        let rec = FlightRecorder::new(t.clone(), &dir);
        rec.record_snapshot();
        t.metrics()
            .unwrap()
            .counter_add("dist.swap_bytes_copied", 4096);
        rec.record_snapshot();

        let path = rec.flush("fabric poisoned by rank 1").unwrap().unwrap();
        assert_eq!(path, dir.join(FLIGHT_FILE));
        let doc = std::fs::read_to_string(&path).unwrap();
        let j = parse(&doc).expect("flight record is valid JSON");
        assert_eq!(
            j.get("reason").unwrap().as_str(),
            Some("fabric poisoned by rank 1")
        );
        // The dying rank's final spans are present.
        let tracks = j.get("tracks").unwrap().as_array().unwrap();
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].get("name").unwrap().as_str(), Some("rank 1"));
        let spans = tracks[0].get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].get("id").unwrap().as_f64(), Some(2.0));
        // The last metrics snapshot and the rolling window.
        assert_eq!(
            j.get("metrics")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("dist.swap_bytes_copied")
                .unwrap()
                .as_f64(),
            Some(8192.0)
        );
        let history = j.get("history").unwrap().as_array().unwrap();
        assert_eq!(history.len(), 2);
        assert_eq!(
            history[0]
                .get("metrics")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("dist.swap_bytes_copied")
                .unwrap()
                .as_f64(),
            Some(4096.0)
        );
        // Progress state rode along.
        assert_eq!(
            j.get("progress").unwrap().get("state").unwrap().as_str(),
            Some("running")
        );

        // Write-once: the second trigger is a no-op and the file keeps
        // the first reason.
        assert!(rec.flush("later panic").unwrap().is_none());
        let again = std::fs::read_to_string(&path).unwrap();
        assert!(again.contains("fabric poisoned by rank 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rolling_window_is_bounded() {
        let dir = tmpdir("window");
        let t = Telemetry::enabled();
        t.metrics().unwrap().counter_add("beat", 1);
        let rec = FlightRecorder::new(t, &dir);
        for _ in 0..30 {
            rec.record_snapshot();
        }
        let path = rec.flush("test").unwrap().unwrap();
        let j = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let history = j.get("history").unwrap().as_array().unwrap();
        assert_eq!(history.len(), super::SNAPSHOT_WINDOW);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disarm_suppresses_the_record() {
        let dir = tmpdir("disarm");
        let rec = FlightRecorder::new(Telemetry::enabled(), &dir);
        rec.disarm();
        assert!(rec.flush("should not write").unwrap().is_none());
        assert!(!rec.path().exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_telemetry_still_yields_a_record() {
        // A run with telemetry off can still crash; the record is then
        // just the reason + empty sections, never a write failure.
        let dir = tmpdir("disabled");
        let rec = FlightRecorder::new(Telemetry::disabled(), &dir);
        let path = rec.flush("sigterm").unwrap().unwrap();
        let j = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(j.get("reason").unwrap().as_str(), Some("sigterm"));
        assert!(matches!(j.get("progress"), Some(Json::Null)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn armed_recorder_flushes_from_free_function() {
        let dir = tmpdir("armed");
        let rec = FlightRecorder::new(instrumented(), &dir);
        // NOTE: arm_process installs a panic hook; other tests' panics
        // in this process would then also try to flush — harmless
        // (write-once + this recorder only), but keep the armed window
        // short.
        arm_process(&rec);
        let path = flush_armed("SimError: injected fault at rank 1").unwrap();
        assert!(path.exists());
        disarm_process();
        assert!(flush_armed("after disarm").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
