//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks (the "type 7" rule: the minimum at q = 0, the
/// maximum at q = 1). `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `samples`, or 0.0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// How many samples lie strictly above the `q`-quantile: a percentile is
/// only reported as measured when at least ten samples lie beyond it.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    match quantile(samples, q) {
        Some(cut) => samples.iter().filter(|&&s| s > cut).count(),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_closest_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&s, 0.5), Some(2.5));
        // pos = 0.9 * 3 = 2.7 → 3 + 0.7 * (4 - 3)
        assert!((quantile(&s, 0.9).unwrap() - 3.7).abs() < 1e-12);
    }

    #[test]
    fn quantile_of_one_sample_is_that_sample() {
        assert_eq!(quantile(&[7.5], 0.99), Some(7.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_count_is_the_middle_sample() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn beyond_counts_the_tail_above_a_percentile() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1..=1000 is 990.01; 991..=1000 lie beyond it.
        assert_eq!(beyond(&s, 0.99), 10);
        assert_eq!(beyond(&s, 1.0), 0);
    }
}
