//! Percentiles over latency samples.

/// Samples a tail percentile must have beyond it before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of all samples at or below it.  `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// 1-based nearest rank of the `p`-th percentile among `n > 0` samples.
fn rank(n: usize, p: f64) -> usize {
    let exact = (p.clamp(0.0, 100.0) / 100.0) * n as f64;
    // Guard against 0.95 * 100 = 95.00000000000001 rounding up a rank.
    let rank = (exact - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_of_one_to_one_hundred() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 95.0), Some(95.0));
        assert_eq!(percentile(&samples, 99.0), Some(99.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
    }

    #[test]
    fn small_and_empty_samples() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        // Even counts take the lower middle sample.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0], 99.0), Some(2.0));
    }

    #[test]
    fn tail_sample_counts() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 95.0), 5);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(0, 50.0), 0);
        assert_eq!(beyond(3, 50.0), 1);
    }
}
