//! The harness's own spans, kept in memory until the workload ends.
//!
//! Every layer is measured from outside: a span around each call into a
//! crate's public functions. A span's *self* time is its duration minus
//! its direct children's, so `setup` and `rep` show what their named
//! parts leave unexplained.

use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, `None` at top level.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch (process start).
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals over a recording: `(name, count, total_s, self_s)`.
pub type SelfTimes = Vec<(&'static str, usize, f64, f64)>;

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f` inside a span named `name` (nested under whichever span is
    /// open) and return its result with the span's duration in seconds —
    /// the one timing source for every metric the harness derives itself.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans[idx].end_ns = end;
        (out, (end - self.spans[idx].start_ns) as f64 / 1e9)
    }

    /// Duration of span `idx` in nanoseconds.
    fn dur(&self, idx: usize) -> u64 {
        self.spans[idx].end_ns - self.spans[idx].start_ns
    }

    pub fn self_times(&self) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ns[p] += self.dur(i);
            }
        }
        let mut out: SelfTimes = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = self.dur(i) as f64 / 1e9;
            let own = self.dur(i).saturating_sub(child_ns[i]) as f64 / 1e9;
            match out.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => out.push((s.name, 1, total, own)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut s = Spans::new(Instant::now());
        s.scope("outer", |s| {
            s.scope("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            s.scope("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let st = s.self_times();
        let outer = st.iter().find(|r| r.0 == "outer").unwrap();
        let inner = st.iter().find(|r| r.0 == "inner").unwrap();
        assert_eq!(inner.1, 2);
        assert!(inner.2 >= 0.010);
        assert!((outer.2 - outer.3 - inner.2).abs() < 1e-9);
        assert_eq!(s.spans()[1].parent, Some(0));
    }
}
