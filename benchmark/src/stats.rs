//! Order statistics used for every reported number: medians, nearest-rank
//! percentiles, the tail-selection rule, and the quartile spread the
//! regression gate compares against each metric's bound.

/// Sorted copy of `values` (all finite by construction of the callers).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Median (mean of the two middle samples for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile (`pct` in 0–100); 0 when empty.
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (pct as usize * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// The highest of p95/p90/p75 that still has at least ten samples beyond
/// it, or `None` when even p75 does not (n < 40): a tail read off fewer
/// than ten samples is one slow epoch, not a percentile.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [95u32, 90, 75]
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= 10 * 100)
}

/// First and third quartile by the exclusive method, i.e. what Python's
/// `statistics.quantiles(values, n=4)` returns — the definition the
/// acceptance gate uses, so `compare` reproduces its arithmetic.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 on a 1-based scale, clamped to the data.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median; `None` below two
/// samples or when the median is 0.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(120), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&v, 75), 30.0);
        assert_eq!(percentile(&v, 100), 40.0);
        assert_eq!(percentile(&v, 0), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }
}
