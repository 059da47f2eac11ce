//! Equal-width binning of continuous features.
//!
//! §3.2: *"As the gradient value is continuous, we perform equal-width
//! binning, which divides the range of values into intervals with equal
//! width, and calculates the number of values that fall into each
//! interval"* — the binned counts then feed the chi-square test of
//! Table 1 and the failure-proportion curves of Figure 6.

/// The result of binning a set of values.
#[derive(Debug, Clone, PartialEq)]
pub struct Binned {
    /// Lower edge of the first bin.
    pub lo: f64,
    /// Upper edge of the last bin.
    pub hi: f64,
    /// Number of bins.
    pub bins: usize,
    /// Count of values per bin.
    pub counts: Vec<usize>,
    /// Bin index assigned to each input value, in input order.
    pub assignment: Vec<usize>,
}

impl Binned {
    /// Width of each bin.
    pub fn width(&self) -> f64 {
        (self.hi - self.lo) / self.bins as f64
    }

    /// Midpoint of bin `i` (useful as the x-coordinate when plotting
    /// failure proportion per bin, as in Figure 6).
    pub fn center(&self, i: usize) -> f64 {
        assert!(i < self.bins);
        self.lo + (i as f64 + 0.5) * self.width()
    }

    /// Returns the bin a fresh value would fall into (clamped to the
    /// first/last bin if outside the fitted range).
    pub fn bin_of(&self, v: f64) -> usize {
        if self.hi <= self.lo {
            return 0;
        }
        let raw = ((v - self.lo) / self.width()).floor();
        raw.clamp(0.0, (self.bins - 1) as f64) as usize
    }
}

/// Bins `values` into `bins` equal-width intervals spanning
/// `[min(values), max(values)]`.
///
/// The maximum value is assigned to the last bin (closed upper edge),
/// matching the usual histogram convention.
///
/// # Panics
/// Panics if `values` is empty, contains non-finite numbers, or `bins`
/// is zero.
pub fn equal_width_bins(values: &[f64], bins: usize) -> Binned {
    assert!(!values.is_empty(), "cannot bin an empty slice");
    assert!(bins > 0, "need at least one bin");
    assert!(values.iter().all(|v| v.is_finite()), "non-finite value");
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut counts = vec![0usize; bins];
    let mut assignment = Vec::with_capacity(values.len());
    let width = (hi - lo) / bins as f64;
    for &v in values {
        let b = if width == 0.0 {
            0
        } else {
            (((v - lo) / width).floor() as usize).min(bins - 1)
        };
        counts[b] += 1;
        assignment.push(b);
    }
    Binned {
        lo,
        hi,
        bins,
        counts,
        assignment,
    }
}

/// Computes, per bin, the fraction of observations whose boolean label
/// is `true` — the paper's *failure proportion* (Figure 6: "the number
/// of fiber cuts to fiber degradations at a specific x-axis value").
///
/// Bins with no observations yield `None`.
pub fn proportion_per_bin(binned: &Binned, labels: &[bool]) -> Vec<Option<f64>> {
    assert_eq!(
        binned.assignment.len(),
        labels.len(),
        "label/value length mismatch"
    );
    let mut pos = vec![0usize; binned.bins];
    for (&b, &l) in binned.assignment.iter().zip(labels) {
        if l {
            pos[b] += 1;
        }
    }
    binned
        .counts
        .iter()
        .zip(&pos)
        .map(|(&n, &p)| {
            if n == 0 {
                None
            } else {
                Some(p as f64 / n as f64)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_cover_range() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b = equal_width_bins(&v, 10);
        assert_eq!(b.counts.iter().sum::<usize>(), 100);
        assert_eq!(b.counts, vec![10; 10]);
        assert_eq!(b.lo, 0.0);
        assert_eq!(b.hi, 99.0);
    }

    #[test]
    fn max_value_goes_to_last_bin() {
        let v = [0.0, 1.0, 2.0, 3.0, 4.0];
        let b = equal_width_bins(&v, 4);
        assert_eq!(b.assignment[4], 3);
    }

    #[test]
    fn constant_input_single_bin() {
        let v = [5.0; 7];
        let b = equal_width_bins(&v, 3);
        assert_eq!(b.counts[0], 7);
        assert_eq!(b.counts[1], 0);
    }

    #[test]
    fn centers_are_midpoints() {
        let v = [0.0, 10.0];
        let b = equal_width_bins(&v, 5);
        assert!((b.center(0) - 1.0).abs() < 1e-12);
        assert!((b.center(4) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn bin_of_clamps() {
        let v = [0.0, 10.0];
        let b = equal_width_bins(&v, 5);
        assert_eq!(b.bin_of(-100.0), 0);
        assert_eq!(b.bin_of(100.0), 4);
        assert_eq!(b.bin_of(4.9), 2);
    }

    #[test]
    fn proportions() {
        let v = [0.0, 0.1, 5.0, 5.1, 9.9, 10.0];
        let b = equal_width_bins(&v, 2);
        let labels = [true, false, true, true, false, false];
        let p = proportion_per_bin(&b, &labels);
        assert!((p[0].unwrap() - 0.5).abs() < 1e-12); // 0.0,0.1,5.0(?),...
                                                      // values < 5.0 go to bin 0: 0.0, 0.1 → 1 positive of 2;
                                                      // wait: width = 5, so 5.0 and 5.1 land in bin 1.
        assert!((p[1].unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_input_panics() {
        let _ = equal_width_bins(&[], 3);
    }
}
