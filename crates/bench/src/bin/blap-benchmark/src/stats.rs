//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread printed by `--repeat` is the
//! same number an outside check computes from the same values.

/// The median: the middle value, or the mean of the middle two.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile. One sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let len = data.len();
    assert!(len > 0, "quartiles of no samples");
    if len == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The interquartile range as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The percentiles worth reporting for `n` samples: the median, plus the
/// highest of p90, p99 and p99.9 that has at least ten samples beyond it.
pub fn reported_percentiles(n: usize) -> Vec<f64> {
    let mut out = vec![50.0];
    // Per mille, so the count beyond the nearest rank is exact.
    if let Some(per_mille) = [999, 990, 900]
        .into_iter()
        .find(|p| n - (p * n).div_ceil(1000) >= 10)
    {
        out.push(per_mille as f64 / 10.0);
    }
    out
}

/// Nearest-rank percentile `p` (0–100) of the samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_for_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&nine), (2.5, 5.0, 7.5));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: it
        // extrapolates past the data for tiny samples.
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 3.0, 6.0));
        // statistics.quantiles([2, 4, 6, 9], n=4) == [2.5, 5.0, 8.25]
        assert_eq!(quartiles(&[9.0, 2.0, 6.0, 4.0]), (2.5, 5.0, 8.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        for n in [0, 1, 19, 20, 99] {
            assert_eq!(reported_percentiles(n), [50.0], "{n} samples");
        }
        assert_eq!(reported_percentiles(100), [50.0, 90.0]);
        assert_eq!(reported_percentiles(999), [50.0, 90.0]);
        assert_eq!(reported_percentiles(1000), [50.0, 99.0]);
        assert_eq!(reported_percentiles(10_000), [50.0, 99.9]);
    }

    #[test]
    fn nearest_rank_percentile() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 90.0), 90.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }
}
