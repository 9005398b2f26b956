//! Order statistics over latency samples.

/// Sorts samples ascending (NaN-free input).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The `q`-quantile (0..=1) of ascending `sorted` samples, by linear
/// interpolation between the two nearest order statistics; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let low = rank.floor() as usize;
            let high = (low + 1).min(n - 1);
            sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
        }
    }
}

/// Median of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 0.5)
}

/// Samples a percentile needs so that at least ten lie beyond it
/// (`1 - q` is not exact in binary: 10 / 0.1 must still read 100).
pub fn samples_needed(q: f64) -> usize {
    (10.0 / (1.0 - q) - 1e-6).ceil() as usize
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let n = data.len();
    if n < 2 {
        return None;
    }
    let cut = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Inter-quartile range as a share of the median — the run-to-run
/// spread the benchmark contract bounds. `None` below two values or on
/// a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let data: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 0.5), 3.0);
        assert_eq!(percentile(&data, 1.0), 5.0);
        assert_eq!(percentile(&data, 0.125), 1.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 1.0]), 5.0);
    }

    #[test]
    fn a_tail_wants_ten_samples_beyond_it() {
        assert_eq!(samples_needed(0.90), 100);
        assert_eq!(samples_needed(0.95), 200);
        assert_eq!(samples_needed(0.99), 1_000);
        assert_eq!(samples_needed(0.999), 10_000);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartile_spread(&data), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
