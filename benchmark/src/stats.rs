//! Order statistics over timing samples.

/// Samples a percentile needs beyond it before it means something.
const SAMPLES_BEYOND: f64 = 10.0;

/// Sorts and returns the values (NaN never occurs in a timing).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile of an ascending slice; 0 when empty, so an
/// idle layer reads zero instead of going missing.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Whether `n` samples leave at least ten beyond percentile `p`: below
/// that a "p99" is the maximum under another name.
pub fn supports(n: usize, p: f64) -> bool {
    // In percent-samples, with slack for `100.0 - 99.9` not being 0.1.
    n as f64 * (100.0 - p) >= SAMPLES_BEYOND * 100.0 - 1e-6
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them (the acceptance
/// rule for run-to-run spread is stated in those terms).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values.to_vec());
    let n = data.len();
    if n < 2 {
        let only = data.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |q: usize| {
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        data[j - 1] + (data[j] - data[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_highest_percentile_reported_has_ten_samples_beyond_it() {
        let highest = |n| {
            [99.9, 99.0, 95.0, 90.0, 50.0]
                .into_iter()
                .find(|&p| supports(n, p))
        };
        assert_eq!(highest(19), None);
        assert_eq!(highest(20), Some(50.0));
        assert_eq!(highest(99), Some(50.0));
        assert_eq!(highest(100), Some(90.0));
        assert_eq!(highest(199), Some(90.0));
        assert_eq!(highest(200), Some(95.0));
        assert_eq!(highest(999), Some(95.0));
        assert_eq!(highest(1000), Some(99.0));
        assert_eq!(highest(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 50.0), 50.0);
        assert_eq!(percentile(&data, 95.0), 95.0);
        assert_eq!(percentile(&data, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }
}
