//! Small timing/statistics helpers shared by the benchmark harnesses.
//!
//! The figure/table binaries in `qsim-bench` report medians over repeated
//! runs (as the paper reports "median hard instances" in Fig. 5); this
//! module provides the summary statistics and a best-of-N measurement loop.

use std::time::Instant;

/// Summary statistics of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub stddev: f64,
}

/// Compute summary statistics. Panics on an empty sample.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "empty sample");
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    };
    Summary {
        n,
        mean,
        median,
        min: sorted[0],
        max: sorted[n - 1],
        stddev: var.sqrt(),
    }
}

/// Run `f` `reps` times (after `warmup` unmeasured runs) and return the
/// per-run durations in seconds. The closure's result is returned through a
/// black-box style sink to keep the optimizer honest.
pub fn time_reps(warmup: usize, reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..warmup {
        f();
    }
    let mut out = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        out.push(t0.elapsed().as_secs_f64());
    }
    out
}

/// Prevent the optimizer from discarding a value (stable `black_box`).
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 22.0).abs() < 1e-12);
        assert!(s.stddev > 0.0);
    }

    #[test]
    fn median_of_even_sample_interpolates() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        let _ = summarize(&[]);
    }

    #[test]
    fn timing_produces_positive_durations() {
        let reps = time_reps(1, 3, || {
            black_box((0..100).product::<u128>());
        });
        assert_eq!(reps.len(), 3);
        assert!(reps.iter().all(|&d| d >= 0.0));
    }
}
