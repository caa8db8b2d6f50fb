//! Unified telemetry for the qsim45 engines: structured spans, a named
//! metrics registry, and machine-readable exporters.
//!
//! The paper's performance story (§4, Fig. 5–7) is an attribution
//! argument — wall-clock split into kernels vs communication vs IO.
//! Before this crate each engine kept its own ad-hoc counters
//! (`FabricStats`, `SweepStats`, `IoStats`) with no per-stage timing and
//! no common schema. This crate is the shared plumbing those views now
//! publish into:
//!
//! * **Spans** ([`TrackHandle::span`], the [`span!`] macro): nested
//!   begin/end intervals with monotonic nanosecond timestamps, recorded
//!   into a per-track lock-free ring buffer on guard drop. One track per
//!   rank / pipeline thread. When telemetry is disabled every span call
//!   is an `Option` check — no clock read, no allocation.
//! * **Metrics** ([`MetricsRegistry`]): named counters, gauges and
//!   log2-bucketed latency histograms (`swap_ns`, `chunk_io_ns`,
//!   `stage_apply_ns`). The engines' typed stat structs remain the
//!   ergonomic views; they gain `publish_into` methods that flatten into
//!   the registry.
//! * **Exporters**: a Chrome `trace_event` JSON timeline (open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>) and a flat metrics
//!   snapshot. Both are hand-rolled JSON (no serde in the workspace);
//!   [`json`] is a minimal parser so tests can round-trip the output.
//!
//! # Threading contract
//!
//! A [`Track`]'s ring buffer is single-producer: at most one thread may
//! hold a live [`TrackHandle`] to a given track name at a time (re-
//! acquiring a name later — e.g. one pass after another — returns the
//! same ring and is fine). Snapshots and exports must happen after the
//! producing threads have quiesced (joined or barriered); the engines
//! export after `run` returns, which satisfies this by construction.
//! The one sanctioned exception is the crash flight recorder
//! ([`recorder`]): at flush time producers may still be live, so its
//! snapshot is best-effort — see the module docs for the exact
//! guarantee. [`Telemetry::tracks_census`] (counts only) is always
//! race-free.

mod export;
mod iostats;
pub mod json;
pub mod live;
mod metrics;
pub mod prom;
pub mod recorder;
mod span;

pub use iostats::IoStats;
pub use live::{Progress, ProgressTicker, RunState, StatusServer};
pub use metrics::{
    Histogram, Metric, MetricsRegistry, MetricsSnapshot, HISTOGRAM_BUCKETS, SUMMARY_QUANTILES,
};
pub use recorder::{FlightRecorder, FLIGHT_FILE};
pub use span::{SpanEvent, SpanGuard, Track, TrackHandle};

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// Default per-track ring capacity (events kept per track; the ring
/// overwrites the oldest events past this).
pub const DEFAULT_TRACK_CAPACITY: usize = 1 << 14;

pub(crate) struct Inner {
    /// Common time base of every track (chrome-trace `ts` origin).
    pub(crate) t0: Instant,
    pub(crate) track_capacity: usize,
    pub(crate) tracks: Mutex<Vec<Arc<Track>>>,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) progress: live::Progress,
}

/// A cheaply-clonable telemetry handle. [`Telemetry::disabled`] (the
/// `Default`) carries no state: every operation through it is a branch
/// on `None` — no timestamps, no allocation, no synchronization.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// The no-op handle (near-zero cost everywhere it is threaded).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recording handle with the default per-track ring capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_TRACK_CAPACITY)
    }

    /// A recording handle keeping the most recent `track_capacity` span
    /// events per track.
    pub fn with_capacity(track_capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                t0: Instant::now(),
                track_capacity: track_capacity.max(1),
                tracks: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::new(),
                progress: live::Progress::new(),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Acquire the span track named `name`, registering it on first use.
    /// Re-acquiring a name returns a handle to the same ring — see the
    /// crate-level single-producer contract.
    pub fn track(&self, name: &str) -> TrackHandle {
        match &self.inner {
            None => TrackHandle::disabled(),
            Some(inner) => {
                let mut tracks = inner.tracks.lock();
                let track = match tracks.iter().find(|t| t.name() == name) {
                    Some(t) => Arc::clone(t),
                    None => {
                        let t = Arc::new(Track::new(name, inner.track_capacity));
                        tracks.push(Arc::clone(&t));
                        t
                    }
                };
                TrackHandle::new(track, Arc::clone(inner))
            }
        }
    }

    /// The shared metrics registry, when enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|i| &i.metrics)
    }

    /// The live progress/ETA state, when enabled.
    pub fn progress(&self) -> Option<&live::Progress> {
        self.inner.as_deref().map(|i| &i.progress)
    }

    /// Publish the derived progress gauges (`run.progress_permille`,
    /// `sched.eta_seconds`, …) into the metrics registry (no-op when
    /// disabled).
    pub fn publish_progress_gauges(&self) {
        if let Some(inner) = &self.inner {
            inner.progress.publish_gauges(&inner.metrics);
        }
    }

    /// Seconds since this telemetry handle was created (the common time
    /// base of every track); 0 when disabled.
    pub fn elapsed_seconds(&self) -> f64 {
        match &self.inner {
            None => 0.0,
            Some(inner) => inner.t0.elapsed().as_secs_f64(),
        }
    }

    /// Record `ns` into the log2-bucketed histogram `name` (no-op when
    /// disabled).
    pub fn record_duration_ns(&self, name: &str, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.record_hist(name, ns);
        }
    }

    /// Snapshot every track: `(name, events, dropped)` where `dropped`
    /// counts events overwritten by ring wraparound.
    pub fn tracks_snapshot(&self) -> Vec<(String, Vec<SpanEvent>, u64)> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner
                .tracks
                .lock()
                .iter()
                .map(|t| {
                    let (events, dropped) = t.snapshot();
                    (t.name().to_string(), events, dropped)
                })
                .collect(),
        }
    }

    /// A `(name, events_recorded, capacity)` census of every track —
    /// reads only the published head counters, so it is race-free even
    /// while producers are live (unlike [`Telemetry::tracks_snapshot`]).
    pub fn tracks_census(&self) -> Vec<(String, u64, usize)> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner
                .tracks
                .lock()
                .iter()
                .map(|t| (t.name().to_string(), t.recorded(), t.capacity()))
                .collect(),
        }
    }

    /// The Chrome `trace_event` JSON timeline of every track (empty
    /// object-with-no-events when disabled).
    pub fn chrome_trace_json(&self) -> String {
        export::chrome_trace_json(&self.tracks_snapshot())
    }

    /// An ordered point-in-time copy of the metrics registry (empty
    /// when disabled). All renderers hang off [`MetricsSnapshot`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match self.metrics() {
            Some(m) => m.snapshot(),
            None => MetricsSnapshot::empty(),
        }
    }

    /// The flat metrics-snapshot JSON (counters, gauges, histograms).
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().to_json()
    }

    /// Write [`Telemetry::chrome_trace_json`] to `path`.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }

    /// Write [`Telemetry::metrics_json`] to `path`.
    pub fn write_metrics(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.metrics_json())
    }
}

/// Open a span on a track: `span!(track, "stage")` or
/// `span!(track, "stage", id)`. Evaluates to the guard; bind it
/// (`let _s = span!(...)`) so it lives to the end of the scope.
#[macro_export]
macro_rules! span {
    ($track:expr, $name:expr) => {
        $track.span($name)
    };
    ($track:expr, $name:expr, $id:expr) => {
        $track.span_id($name, $id as u64)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let track = t.track("anything");
        {
            let _a = track.span("outer");
            let _b = span!(track, "inner", 3);
        }
        assert!(t.tracks_snapshot().is_empty());
        assert!(t.metrics().is_none());
        t.record_duration_ns("swap_ns", 123);
        // Exports still emit valid (empty) documents.
        assert!(json::parse(&t.chrome_trace_json()).is_ok());
        assert!(json::parse(&t.metrics_json()).is_ok());
    }

    #[test]
    fn span_nesting_round_trips() {
        let t = Telemetry::enabled();
        let track = t.track("main");
        {
            let _outer = track.span_id("outer", 7);
            {
                let _mid = track.span("mid");
                let _leaf = span!(track, "leaf", 2);
            }
            let _mid2 = track.span("mid2");
        }
        let snap = t.tracks_snapshot();
        assert_eq!(snap.len(), 1);
        let (name, events, dropped) = &snap[0];
        assert_eq!(name, "main");
        assert_eq!(*dropped, 0);
        // Guards drop innermost-first, so events arrive leaf → root.
        let by_name: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert_eq!(by_name, ["leaf", "mid", "mid2", "outer"]);
        let get = |n: &str| events.iter().find(|e| e.name == n).unwrap();
        assert_eq!(get("outer").depth, 0);
        assert_eq!(get("mid").depth, 1);
        assert_eq!(get("leaf").depth, 2);
        assert_eq!(get("mid2").depth, 1);
        assert_eq!(get("outer").id, 7);
        assert_eq!(get("leaf").id, 2);
        // Containment: children start/end inside their parent.
        let o = get("outer");
        for n in ["mid", "leaf", "mid2"] {
            let e = get(n);
            assert!(o.start_ns <= e.start_ns && e.end_ns <= o.end_ns, "{n}");
        }
        let (m, l) = (get("mid"), get("leaf"));
        assert!(m.start_ns <= l.start_ns && l.end_ns <= m.end_ns);
        // And depth returned to 0: a fresh span is a root again.
        {
            let _again = track.span("again");
        }
        let snap = t.tracks_snapshot();
        assert_eq!(snap[0].1.last().unwrap().depth, 0);
    }

    #[test]
    fn reacquired_track_shares_the_ring() {
        let t = Telemetry::enabled();
        {
            let track = t.track("pass");
            let _s = track.span("first");
        }
        {
            let track = t.track("pass");
            let _s = track.span("second");
        }
        let snap = t.tracks_snapshot();
        assert_eq!(snap.len(), 1, "same name, same track");
        assert_eq!(snap[0].1.len(), 2);
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let t = Telemetry::with_capacity(4);
        let track = t.track("small");
        for i in 0..10u64 {
            let _s = track.span_id("e", i);
        }
        let (_, events, dropped) = t.tracks_snapshot().remove(0);
        assert_eq!(events.len(), 4);
        assert_eq!(dropped, 6);
        let ids: Vec<u64> = events.iter().map(|e| e.id).collect();
        assert_eq!(ids, [6, 7, 8, 9]);
    }

    #[test]
    fn timed_span_feeds_histogram() {
        let t = Telemetry::enabled();
        let track = t.track("main");
        for i in 0..3u64 {
            let _s = track.span_timed("swap", i, "swap_ns");
        }
        match t.metrics().unwrap().get("swap_ns") {
            Some(Metric::Histogram(h)) => assert_eq!(h.count, 3),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
