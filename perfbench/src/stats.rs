//! Order statistics and the deterministic digest used by the pins.

/// The `p`-quantile (0..=1) of `values` by the exclusive method (R type 6,
/// Python's `statistics.quantiles` default), clamped to the sample range.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let h = (n as f64 + 1.0) * p;
    if h <= 1.0 {
        return sorted[0];
    }
    if h >= n as f64 {
        return sorted[n - 1];
    }
    let lo = h.floor() as usize;
    sorted[lo - 1] + (h - lo as f64) * (sorted[lo] - sorted[lo - 1])
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / median(values)
}

/// The highest percentile of a fixed ladder with at least ten samples
/// beyond it: `(percentile, value)`. Fewer than 20 samples give the
/// maximum, reported as percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    for pct in [99.9, 99.0, 95.0, 90.0, 75.0, 50.0] {
        if n * (1.0 - pct / 100.0) >= 10.0 {
            return (pct, quantile(values, pct / 100.0));
        }
    }
    (100.0, quantile(values, 1.0))
}

/// FNV-1a over a stream of `u64`s: the exact pin of a set of tallies.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_exclusive() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&v).0, 95.0);
        assert_eq!(tail(&v[..40]).0, 75.0);
        assert_eq!(tail(&v[..10]).0, 100.0);
    }
}
