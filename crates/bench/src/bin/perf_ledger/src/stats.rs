//! Sample statistics: the median, quartiles, and the percentile rule of the
//! choosing-metrics guide ("report a timing as a median and the highest
//! percentile that has at least ten samples beyond it").

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// First quartile, median and third quartile by the exclusive method, i.e.
/// exactly what Python's `statistics.quantiles(values, n=4)` returns — the
/// rule the benchmark contract's spread check uses. Needs two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The candidate tail percentiles in per mille, highest first.
const TAILS: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest candidate percentile that has at least ten samples beyond it
/// among `n` samples, or `None` when even p75 is not supported (n < 40).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) / 1000 >= 10)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// Latency samples of one operation kind, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies(pub Vec<u64>);

/// Median and tail of a latency sample, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub samples: usize,
    pub p50_us: f64,
    /// The value at `min(99, supported_tail)`: p99 whenever the sample
    /// supports it, otherwise the highest percentile it does support.
    pub tail_us: f64,
    /// Which percentile `tail_us` is.
    pub tail_pct: f64,
}

impl Latencies {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn extend(&mut self, other: &Latencies) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn summary(&self) -> Option<LatencySummary> {
        let tail_pct = supported_tail(self.0.len())?.min(99.0);
        let mut us: Vec<f64> = self.0.iter().map(|&ns| ns as f64 / 1e3).collect();
        us.sort_by(f64::total_cmp);
        Some(LatencySummary {
            samples: us.len(),
            p50_us: quantile(&us, 0.5),
            tail_us: quantile(&us, tail_pct / 100.0),
            tail_pct,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_p99_only_when_supported() {
        let many = Latencies((1..=2000u64).map(|i| i * 1000).collect());
        let s = many.summary().unwrap();
        assert_eq!((s.samples, s.tail_pct), (2000, 99.0));
        assert!((s.p50_us - 1000.5).abs() < 1e-9);
        assert!((s.tail_us - 1980.01).abs() < 0.01);
        // 20k samples support p99.9, but the metric is named p99.
        let more = Latencies((1..=20_000u64).collect());
        assert_eq!(more.summary().unwrap().tail_pct, 99.0);
        let few = Latencies((1..=150u64).collect());
        assert_eq!(few.summary().unwrap().tail_pct, 90.0);
        assert!(Latencies((1..=12u64).collect()).summary().is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }
}
