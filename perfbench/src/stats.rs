//! Exact percentiles over raw samples.
//!
//! Latencies are kept as raw nanosecond samples and ranked exactly; the
//! engine's power-of-two `Histogram` interpolates inside a bucket and can
//! misplace a p99 by up to half its value, far more than any regression
//! bound this benchmark sets.

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are less than or equal to it. `sorted` must be
/// sorted ascending and non-empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly ranked beyond percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Median of a list of values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Raw latency samples of one operation type, in nanoseconds.
#[derive(Default, Clone, Debug)]
pub struct Samples(Vec<u64>);

/// Median and tail percentiles of a sample set, with the counts that
/// make them trustworthy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples taken.
    pub n: usize,
    /// Median, microseconds.
    pub p50_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Samples ranked beyond the p99.
    pub beyond_p99: usize,
}

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Sum of all samples, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Exact p50/p95/p99, or `None` without samples.
    pub fn summary(&self) -> Option<Summary> {
        if self.0.is_empty() {
            return None;
        }
        let mut s = self.0.clone();
        s.sort_unstable();
        Some(Summary {
            n: s.len(),
            p50_us: percentile(&s, 50.0) as f64 / 1e3,
            p95_us: percentile(&s, 95.0) as f64 / 1e3,
            p99_us: percentile(&s, 99.0) as f64 / 1e3,
            beyond_p99: beyond(s.len(), 99.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hand_built_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        // 1000 samples leave exactly 10 beyond the p99.
        let s: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&s, 99.0), 989);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 10 - 1);
        assert_eq!(beyond(0, 99.0), 0);
    }

    #[test]
    fn a_power_of_two_bucket_would_blur_this_tail() {
        // 98 fast samples and two slow ones of different size: the p99
        // is the smaller slow sample exactly, not an interpolated value.
        let mut samples = Samples::default();
        for _ in 0..98 {
            samples.push(1_000);
        }
        samples.push(2_100_000);
        samples.push(3_900_000);
        let sum = samples.summary().unwrap();
        assert_eq!(sum.n, 100);
        assert_eq!(sum.p50_us, 1.0);
        assert_eq!(sum.p95_us, 1.0);
        assert_eq!(sum.p99_us, 2_100.0);
        assert_eq!(sum.beyond_p99, 1);
        assert!(Samples::default().summary().is_none());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
