//! Order statistics over the small samples the benchmark reports.

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The typical value of a non-empty sample: the mean of its densest
/// majority, the ⌊n/2⌋ + 1 values that lie closest together (the
/// "shorth"). Unlike the median it stays put when just under half of the
/// sample is off to *either* side in any proportion, which is how a shared
/// host disturbs repeats: some run during a speed-up, some during a stall.
pub fn typical(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "typical value of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let half = sorted.len() / 2 + 1;
    let densest = sorted
        .windows(half)
        .min_by(|a, b| (a[half - 1] - a[0]).total_cmp(&(b[half - 1] - b[0])))
        .expect("a non-empty sample has a window of its majority's length");
    densest.iter().sum::<f64>() / half as f64
}

/// Nearest-rank `q`-quantile of a sorted, non-empty sample — the same rule
/// as `ChaosReport::recovery_quantile`.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// `(max - min) / median` of a sample, in percent; 0 for an empty one.
pub fn spread_pct(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    100.0 * (max - min) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn typical_ignores_outliers_on_both_sides() {
        // Five clean repeats agree near 600; one ran in a stall, three in
        // a speed-up.
        let sample = [
            601.0, 455.0, 599.0, 700.0, 598.0, 720.0, 602.0, 710.0, 600.0,
        ];
        assert_eq!(typical(&sample), 600.0);
        assert_eq!(typical(&[7.0]), 7.0);
        assert_eq!(typical(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.0), 1);
        assert_eq!(quantile(&s, 0.5), 51);
        assert_eq!(quantile(&s, 0.95), 95);
        assert_eq!(quantile(&s, 1.0), 100);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        assert_eq!(spread_pct(&[90.0, 100.0, 110.0]), 20.0);
    }
}
