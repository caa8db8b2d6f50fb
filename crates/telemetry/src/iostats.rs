//! Disk-traffic and pipeline-overlap counters ([`IoStats`]).
//!
//! Authored by the out-of-core engine's chunk store (see
//! `qsim_ooc::chunkstore`, which re-exports the type), but defined here —
//! below every engine crate — so the unified backend outcome in
//! `qsim_core` can carry the OOC stats variant without a dependency
//! cycle. The struct is pure counters plus derived ratios; all the IO
//! machinery that fills it stays in `qsim_ooc`.

/// Disk-traffic and pipeline-overlap counters.
///
/// `read_seconds` / `write_seconds` accrue where the file operations run
/// (the prefetch/writeback threads of a pass; the engine's direct store
/// reads); `io_wait_seconds` is the portion of the *compute loop's* time
/// spent blocked on IO — waiting on a prefetched chunk or a free buffer.
/// The pipeline wins exactly when `io_wait_seconds` falls below the raw
/// IO time, which [`IoStats::overlap_fraction`] reports.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IoStats {
    /// Physical bytes read from disk (encoded bytes under a codec).
    pub bytes_read: u64,
    /// Physical bytes written to disk (encoded bytes under a codec).
    pub bytes_written: u64,
    /// Amplitude bytes delivered to compute (equals `bytes_read` with no
    /// codec).
    pub logical_bytes_read: u64,
    /// Amplitude bytes retired by compute (equals `bytes_written` with
    /// no codec).
    pub logical_bytes_written: u64,
    /// Wall-clock spent inside read syscalls.
    pub read_seconds: f64,
    /// Wall-clock spent inside write syscalls.
    pub write_seconds: f64,
    /// Wall-clock spent encoding chunk frames (writeback side).
    pub encode_seconds: f64,
    /// Wall-clock spent decoding chunk frames (prefetch side).
    pub decode_seconds: f64,
    /// Compute-loop time blocked on IO (see type docs).
    pub io_wait_seconds: f64,
    /// Compute-loop time spent applying operations to resident chunks.
    pub compute_seconds: f64,
    /// Full-state streaming passes over the chunk set: one per stage
    /// run, both halves of each swap riding inside the runs around it.
    pub traversals: u64,
    /// Buffer-pool misses (allocations); zero once the pool is warm.
    pub buffer_allocs: u64,
}

impl IoStats {
    /// Stats contribution of one pass's compute loop: the blocked-on-IO /
    /// op-apply wall-clock split (no bytes — those come from the
    /// reader/writer views), folded in via [`IoStats::merge`].
    pub fn compute_loop(io_wait_seconds: f64, compute_seconds: f64) -> Self {
        Self {
            io_wait_seconds,
            compute_seconds,
            ..Self::default()
        }
    }

    /// Accumulate counters from a reader/writer view or a sub-pass.
    pub fn merge(&mut self, other: &IoStats) {
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.logical_bytes_read += other.logical_bytes_read;
        self.logical_bytes_written += other.logical_bytes_written;
        self.read_seconds += other.read_seconds;
        self.write_seconds += other.write_seconds;
        self.encode_seconds += other.encode_seconds;
        self.decode_seconds += other.decode_seconds;
        self.io_wait_seconds += other.io_wait_seconds;
        self.compute_seconds += other.compute_seconds;
        self.traversals += other.traversals;
        self.buffer_allocs += other.buffer_allocs;
    }

    /// Fraction of raw IO time hidden behind compute:
    /// `1 − io_wait / (read + write)`, clamped to [0, 1]. A fully
    /// synchronous engine reports ~0; a perfectly overlapped pipeline
    /// approaches 1. Zero when no IO time was recorded.
    pub fn overlap_fraction(&self) -> f64 {
        let io = self.read_seconds + self.write_seconds;
        if io <= 0.0 {
            0.0
        } else {
            (1.0 - self.io_wait_seconds / io).clamp(0.0, 1.0)
        }
    }

    /// Written-side compression achieved: amplitude bytes retired per
    /// physical byte on disk. Exactly 1.0 with no codec; > 1.0 when
    /// the codec wins; 1.0 when nothing was written.
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_written == 0 {
            1.0
        } else {
            self.logical_bytes_written as f64 / self.bytes_written as f64
        }
    }

    /// Flatten these counters into the unified metrics registry under
    /// `prefix` (e.g. `ooc.io`). The struct remains the typed view; the
    /// registry feeds the exported metrics snapshot.
    pub fn publish_into(&self, metrics: &crate::MetricsRegistry, prefix: &str) {
        metrics.counter_add(&format!("{prefix}.bytes_read"), self.bytes_read);
        metrics.counter_add(&format!("{prefix}.bytes_written"), self.bytes_written);
        metrics.counter_add(
            &format!("{prefix}.logical_bytes_read"),
            self.logical_bytes_read,
        );
        metrics.counter_add(
            &format!("{prefix}.logical_bytes_written"),
            self.logical_bytes_written,
        );
        metrics.counter_add(&format!("{prefix}.traversals"), self.traversals);
        metrics.counter_add(&format!("{prefix}.buffer_allocs"), self.buffer_allocs);
        metrics.gauge_set(&format!("{prefix}.read_seconds"), self.read_seconds);
        metrics.gauge_set(&format!("{prefix}.write_seconds"), self.write_seconds);
        metrics.gauge_set(&format!("{prefix}.encode_seconds"), self.encode_seconds);
        metrics.gauge_set(&format!("{prefix}.decode_seconds"), self.decode_seconds);
        metrics.gauge_set(&format!("{prefix}.io_wait_seconds"), self.io_wait_seconds);
        metrics.gauge_set(&format!("{prefix}.compute_seconds"), self.compute_seconds);
        metrics.gauge_set(
            &format!("{prefix}.overlap_fraction"),
            self.overlap_fraction(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::IoStats;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `overlap_fraction` is a derived ratio and must stay in [0, 1]
        /// for *any* accumulation of non-negative counters — including
        /// blocked time exceeding raw IO time (clock skew between the
        /// compute loop and the IO threads) and the zero-IO degenerate
        /// case.
        #[test]
        fn io_stats_overlap_fraction_bounded(
            read in 0.0f64..1e6,
            write in 0.0f64..1e6,
            wait in 0.0f64..4e6,
            compute in 0.0f64..1e6,
            bytes_read in 0u64..=1u64 << 40,
            bytes_written in 0u64..=1u64 << 40,
            loops in prop::collection::vec((0.0f64..1e3, 0.0f64..1e3), 0..8),
        ) {
            let mut io = IoStats {
                bytes_read,
                bytes_written,
                read_seconds: read,
                write_seconds: write,
                io_wait_seconds: wait,
                compute_seconds: compute,
                ..IoStats::default()
            };
            let f = io.overlap_fraction();
            prop_assert!((0.0..=1.0).contains(&f), "overlap_fraction {} out of [0, 1]", f);
            // Folding in compute-loop contributions must preserve the bound.
            for (w, c) in loops {
                io.merge(&IoStats::compute_loop(w, c));
                let f = io.overlap_fraction();
                prop_assert!((0.0..=1.0).contains(&f), "after merge: overlap_fraction {} out of [0, 1]", f);
            }
        }
    }
}
