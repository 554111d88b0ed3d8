//! Order statistics for the reported timings.
//!
//! A tail percentile is only as good as the samples beyond it: with fewer
//! than [`MIN_TAIL`] of them, one slow sample decides the value and the
//! number moves from run to run on noise alone. [`tail_percentile`] refuses
//! to report in that case instead of printing a number nobody should gate
//! on.

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported.
pub const MIN_TAIL: usize = 10;

/// Median of a sample (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty sample: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`) of a sample, or an error
/// when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn tail_percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let n = xs.len();
    // Nearest rank: the smallest value with at least p% of the sample at or
    // below it.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_TAIL {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_TAIL} are needed"
        ));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

/// Smallest sample count whose `p`-th percentile has [`MIN_TAIL`] samples
/// beyond it.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n - rank >= MIN_TAIL
        })
        .expect("some sample count satisfies every percentile below 100")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(median(&ramp(4)), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 199 samples: rank 190, only 9 beyond.
        let err = tail_percentile(&ramp(199), 95.0).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        // 200 samples: rank 190, exactly 10 beyond.
        assert_eq!(tail_percentile(&ramp(200), 95.0), Ok(190.0));
        assert_eq!(min_samples_for(95.0), 200);
    }

    #[test]
    fn small_samples_are_refused_at_any_tail() {
        assert!(tail_percentile(&ramp(10), 50.0).is_err());
        assert!(tail_percentile(&[], 50.0).is_err());
        assert_eq!(tail_percentile(&ramp(20), 50.0), Ok(10.0));
        assert_eq!(min_samples_for(50.0), 20);
    }
}
