//! Small statistics helpers: medians, nearest-rank percentiles, the
//! tail-percentile rule, and geometric means.

/// Percentiles the tail rule may report, lowest first.
pub const TAIL_CANDIDATES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float noise (99.9 × 10000 / 100 = 9990.000…1)
    // from pushing an exact rank up by one.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of ascending `sorted`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of [`TAIL_CANDIDATES`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it, with its value; `None` when even
/// the median does not.
pub fn highest_supported(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .find(|&&p| beyond(sorted.len(), p) >= MIN_BEYOND)
        .map(|&p| (p, percentile(sorted, p)))
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geomean of nothing");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn medians_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let r = ramp(100);
        assert_eq!(percentile(&r, 50.0), 50.0);
        assert_eq!(percentile(&r, 90.0), 90.0);
        assert_eq!(percentile(&r, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        assert_eq!(highest_supported(&ramp(19)), None, "median leaves only 9");
        assert_eq!(highest_supported(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(highest_supported(&ramp(99)).map(|x| x.0), Some(50.0));
        assert_eq!(highest_supported(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(highest_supported(&ramp(999)).map(|x| x.0), Some(90.0));
        assert_eq!(highest_supported(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(highest_supported(&ramp(10_000)).map(|x| x.0), Some(99.9));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.1]) - 1.1).abs() < 1e-12);
    }
}
