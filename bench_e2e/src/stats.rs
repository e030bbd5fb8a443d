//! One percentile rule for the whole benchmark.
//!
//! `http_bench` rounds ranks and `ServeStats` floors them; every timing this
//! benchmark prints uses nearest-rank (`ceil(p * n)`-th smallest) instead,
//! and is printed beside its sample count.

/// Sorts samples ascending (timings are never NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples
}

/// Nearest-rank percentile of an ascending slice, `p` in `[0, 1]`.
/// Empty input reports 0 so an idle phase prints "no latency", not a panic.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0, 1]");
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest-rank, so always one of the samples).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 0.5)
}

/// The best repetition: the highest rate or the lowest latency. Interference
/// on a shared machine only ever slows a repetition down, so the best one
/// moves least from run to run (the repository's `gate::time_best_ms` uses
/// the same estimator), while a change to the program still moves every
/// repetition. Empty input reports 0.
pub fn best(samples: &[f64], better: crate::metrics::Better) -> f64 {
    let pick = match better {
        crate::metrics::Better::Higher => f64::max,
        crate::metrics::Better::Lower => f64::min,
    };
    samples.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method,
/// linear interpolation) — the rule the benchmark's acceptance check uses.
/// Fewer than two samples have no spread: all three report the sample (or 0).
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let s = sorted(samples.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return [v, v, v];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Signed: the clamp makes Python extrapolate on tiny inputs.
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    })
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The tail percentiles the benchmark knows how to name.
const TAILS: [(f64, &str); 4] = [(0.999, "p99.9"), (0.99, "p99"), (0.95, "p95"), (0.90, "p90")];

/// The highest percentile with at least ten samples beyond it, and its
/// label; `None` when even p90 has fewer (under 100 samples).
pub fn highest_supported_tail(n: usize) -> Option<(f64, &'static str)> {
    TAILS.into_iter().find(|(p, _)| {
        let rank = (p * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= 10
    })
}

/// `"p50 1.234 / p99 5.678 ms (n=4000)"` — a timing with its sample count
/// and the highest tail the count supports.
pub fn describe(samples: &[f64], unit: &str) -> String {
    let s = sorted(samples.to_vec());
    let mut out = format!("p50 {:.3}", percentile(&s, 0.5));
    if let Some((p, label)) = highest_supported_tail(s.len()) {
        out.push_str(&format!(" / {label} {:.3}", percentile(&s, p)));
    }
    out.push_str(&format!(" {unit} (n={})", s.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_reports_zero_everywhere() {
        assert_eq!(percentile(&[], 0.95), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quartiles(&[]), [0.0; 3]);
        assert_eq!(spread(&[]), 0.0);
        assert_eq!(highest_supported_tail(0), None);
        assert_eq!(describe(&[], "ms"), "p50 0.000 ms (n=0)");
    }

    #[test]
    fn one_sample_is_every_percentile() {
        for p in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(percentile(&[7.0], p), 7.0);
        }
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(spread(&[7.0]), 0.0);
        assert_eq!(highest_supported_tail(1), None);
    }

    #[test]
    fn ten_samples_use_nearest_rank_and_python_quartiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.95), 10.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&s), [2.75, 5.5, 8.25]);
        assert_eq!(spread(&s), 1.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(highest_supported_tail(10), None, "no tail has ten samples beyond it");
    }

    #[test]
    fn best_is_the_fastest_repetition() {
        use crate::metrics::Better::{Higher, Lower};
        assert_eq!(best(&[300.0, 310.0, 305.0, 200.0, 220.0], Higher), 310.0);
        assert_eq!(best(&[5.2, 5.3, 5.25, 9.0, 8.0], Lower), 5.2);
        assert_eq!(best(&[], Higher), 0.0);
        assert_eq!(best(&[7.0], Lower), 7.0);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25], "Python extrapolates two samples");
    }

    #[test]
    fn a_thousand_samples_support_p99_but_not_p999() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 500.0);
        assert_eq!(percentile(&s, 0.99), 990.0);
        assert_eq!(percentile(&s, 1.0), 1000.0);
        assert_eq!(highest_supported_tail(1000), Some((0.99, "p99")));
        assert_eq!(highest_supported_tail(400), Some((0.95, "p95")), "400 requests: p95");
        assert_eq!(highest_supported_tail(100), Some((0.90, "p90")));
        assert_eq!(highest_supported_tail(10_000), Some((0.999, "p99.9")));
        assert_eq!(describe(&s, "ms"), "p50 500.000 / p99 990.000 ms (n=1000)");
    }
}
