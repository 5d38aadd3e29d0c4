//! The percentile rule and the quartile spread used by the A/A mode.

/// Percentiles a tail may be reported at, highest first, in parts per 10 000
/// (integers, so "ten samples beyond" is not decided by a rounding error).
const TAIL_CANDIDATES: [usize; 6] = [9_999, 9_990, 9_900, 9_500, 9_000, 7_500];

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest candidate percentile with at least ten samples beyond it, if any.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|per_10k| samples * (10_000 - per_10k) / 10_000 >= 10)
        .map(|per_10k| per_10k as f64 / 10_000.0)
}

/// A timing reported by the rule: the median, the sample count, and the highest
/// percentile the sample supports.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50: f64,
    /// `(percentile, value)`; `None` below forty samples.
    pub tail: Option<(f64, f64)>,
    pub max: f64,
}

/// Summarises a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        samples: sorted.len(),
        p50: median(&sorted),
        tail: tail_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p))),
        max: *sorted.last().expect("non-empty sample"),
    }
}

/// The quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// "exclusive" method), so the A/A report matches the acceptance check.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(9_999), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn summaries_report_the_median_and_the_supported_tail() {
        let values: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let summary = summarize(&values);
        assert_eq!(summary.samples, 1_000);
        assert_eq!(summary.p50, 500.5);
        assert_eq!(summary.tail, Some((0.99, 990.0)));
        assert_eq!(summary.max, 1_000.0);
        assert_eq!(summarize(&[5.0, 7.0]).tail, None);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4)
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert_eq!(quartile_spread(&ten), 1.0);
    }
}
