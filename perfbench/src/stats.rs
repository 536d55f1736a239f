//! Order statistics over timing samples.

/// The percentiles a tail is read at, highest first.
const TAIL_LADDER: [f64; 3] = [99.0, 90.0, 50.0];

/// Samples a percentile must leave beyond it to count as a tail.
const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile of `values` by linear interpolation between
/// closest ranks (the `numpy` default).
///
/// # Panics
///
/// On an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// A tail read off a sample set: the percentile, its value, and how
/// many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it; the median when even that
/// has too few (tiny runs).
///
/// # Panics
///
/// On an empty slice.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    let beyond = |p: f64| ((n as f64) * (100.0 - p) / 100.0).floor() as usize;
    let p = TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    Tail {
        percentile: p,
        value: percentile(values, p),
        beyond: beyond(p),
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 91.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: 1% is exactly 10 beyond, so p99 qualifies.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.beyond, t.samples), (99.0, 10, 1000));
        assert!((t.value - 990.01).abs() < 1e-9);
        // 999 samples: p99 leaves 9, so p90 (99 beyond) is the tail.
        let t = tail(&v[..999]);
        assert_eq!((t.percentile, t.beyond), (90.0, 99));
        // 150 samples: p90 leaves 15.
        let t = tail(&v[..150]);
        assert_eq!((t.percentile, t.beyond), (90.0, 15));
        assert!((t.value - 135.1).abs() < 1e-9);
        // 99 samples: p90 leaves 9, p50 leaves 49.
        assert_eq!(tail(&v[..99]).percentile, 50.0);
        // 12 samples: nothing but the fallback median.
        let t = tail(&v[..12]);
        assert_eq!((t.percentile, t.beyond), (50.0, 6));
        assert_eq!(t.value, 6.5);
    }
}
