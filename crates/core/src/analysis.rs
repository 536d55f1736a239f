//! Latency histograms used by the figure harnesses.

use std::collections::BTreeMap;
use std::fmt;

/// A latency histogram over integer cycle readouts (Figs. 3 and 13).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<u32, u64>,
    total: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn add(&mut self, value: u32) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Relative frequency of `value` (0.0 when empty).
    pub fn frequency(&self, value: u32) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts.get(&value).copied().unwrap_or(0) as f64 / self.total as f64
        }
    }

    /// `(value, frequency)` pairs in ascending value order.
    pub fn rows(&self) -> Vec<(u32, f64)> {
        self.counts
            .iter()
            .map(|(&v, &c)| (v, c as f64 / self.total.max(1) as f64))
            .collect()
    }

    /// Mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts
            .iter()
            .map(|(&v, &c)| v as f64 * c as f64)
            .sum::<f64>()
            / self.total as f64
    }

    /// Smallest and largest observed values, if any.
    pub fn range(&self) -> Option<(u32, u32)> {
        let min = self.counts.keys().next()?;
        let max = self.counts.keys().next_back()?;
        Some((*min, *max))
    }

    /// Fraction of observations overlapping another histogram
    /// (shared values weighted by the smaller frequency) — used to
    /// assert Fig. 13's "same distribution" claim.
    pub fn overlap(&self, other: &Histogram) -> f64 {
        let mut acc = 0.0;
        for &v in self.counts.keys() {
            acc += self.frequency(v).min(other.frequency(v));
        }
        acc
    }
}

impl FromIterator<u32> for Histogram {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for v in iter {
            h.add(v);
        }
        h
    }
}

impl Extend<u32> for Histogram {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, iter: I) {
        for v in iter {
            self.add(v);
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (v, freq) in self.rows() {
            writeln!(
                f,
                "{v:>6}  {:>6.2}%  {}",
                freq * 100.0,
                "#".repeat((freq * 60.0) as usize)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_mean() {
        let h: Histogram = [10u32, 10, 20, 20, 20, 30].into_iter().collect();
        assert_eq!(h.total(), 6);
        assert!((h.frequency(20) - 0.5).abs() < 1e-12);
        assert!((h.mean() - 18.333).abs() < 0.01);
        assert_eq!(h.range(), Some((10, 30)));
    }

    #[test]
    fn identical_histograms_fully_overlap() {
        let a: Histogram = [1u32, 2, 2, 3].into_iter().collect();
        let b = a.clone();
        assert!((a.overlap(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_histograms_do_not_overlap() {
        let a: Histogram = [1u32, 2].into_iter().collect();
        let b: Histogram = [10u32, 11].into_iter().collect();
        assert_eq!(a.overlap(&b), 0.0);
    }

    #[test]
    fn display_renders_rows() {
        let h: Histogram = [5u32, 5].into_iter().collect();
        let text = h.to_string();
        assert!(text.contains("100.00%"));
    }
}
