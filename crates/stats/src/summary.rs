//! Streaming summary statistics (mean / variance / extrema).
//!
//! Used throughout the workspace for trace statistics (degradation
//! *degree*, *gradient* and *fluctuation* features are all summaries of
//! loss series, §3.2) and for reporting benchmark results.

/// Online mean/variance accumulator (Welford's algorithm) with extrema.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary from a slice.
    pub fn of(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Adds one observation.
    ///
    /// # Panics
    /// Panics on non-finite input.
    pub fn push(&mut self, v: f64) {
        assert!(v.is_finite(), "non-finite observation {v}");
        self.n += 1;
        let delta = v - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Range `max - min` (0 when empty or single-element).
    pub fn range(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.max - self.min
        }
    }

    /// Merges another summary into this one (parallel-friendly).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn merge_equals_single_pass() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let full = Summary::of(&all);
        let mut a = Summary::of(&all[..37]);
        let b = Summary::of(&all[37..]);
        a.merge(&b);
        assert_eq!(a.count(), full.count());
        assert!((a.mean() - full.mean()).abs() < 1e-10);
        assert!((a.variance() - full.variance()).abs() < 1e-10);
        assert_eq!(a.min(), full.min());
        assert_eq!(a.max(), full.max());
    }

    #[test]
    fn empty_and_single() {
        let e = Summary::new();
        assert_eq!(e.count(), 0);
        assert_eq!(e.variance(), 0.0);
        let s = Summary::of(&[3.0]);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.range(), 0.0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::of(&[1.0, 2.0]);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
