//! Counters, gauges and fixed-bucket histograms.
//!
//! The histogram uses a fixed, log-spaced bucket ladder (50 µs to 5 s,
//! in milliseconds) so recording is a couple of comparisons and an
//! increment — no allocation, no sorting — and snapshots from any two
//! runs are structurally comparable. Percentiles are read off the
//! bucket ladder (upper bound of the bucket containing the quantile),
//! except the maximum, which is tracked exactly.

use serde::Serialize;

/// Upper bounds (ms) of the histogram buckets; one overflow bucket
/// follows the last bound.
pub const BUCKET_BOUNDS_MS: [f64; 16] = [
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
    5000.0,
];

/// A fixed-bucket latency histogram.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; BUCKET_BOUNDS_MS.len() + 1],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKET_BOUNDS_MS.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Records one observation (non-finite values are dropped).
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = BUCKET_BOUNDS_MS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(BUCKET_BOUNDS_MS.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Immutable snapshot with derived percentiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
            buckets: BUCKET_BOUNDS_MS
                .iter()
                .copied()
                .chain(std::iter::once(f64::INFINITY))
                .zip(self.counts.iter().copied())
                .filter(|&(_, c)| c > 0)
                .collect(),
        }
    }

    /// Quantile estimate: the upper bound of the bucket containing the
    /// `q`-quantile observation, clamped to the exact maximum. The
    /// overflow bucket reports the exact maximum.
    fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = BUCKET_BOUNDS_MS.get(i).copied().unwrap_or(self.max);
                return bound.min(self.max);
            }
        }
        self.max
    }
}

/// Serializable view of a [`Histogram`]: exact count/sum/min/max plus
/// ladder percentiles and the non-empty buckets (`(upper_bound_ms,
/// count)`; the overflow bucket serializes its bound as `null`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations (ms).
    pub sum: f64,
    /// Exact minimum.
    pub min: f64,
    /// Exact maximum.
    pub max: f64,
    /// Median estimate (bucket upper bound).
    pub p50: f64,
    /// 95th percentile estimate.
    pub p95: f64,
    /// 99th percentile estimate.
    pub p99: f64,
    /// `(bucket upper bound in ms, observations)` for non-empty buckets.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.max, 0.0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn percentiles_track_the_ladder() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(0.8); // bucket ≤ 1.0
        }
        h.record(400.0); // bucket ≤ 500
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 1.0);
        assert_eq!(s.p95, 1.0);
        // The 99th observation is still in the 1 ms bucket; the 100th
        // (p100 > p99) is the outlier.
        assert_eq!(s.p99, 1.0);
        assert_eq!(s.max, 400.0);
    }

    #[test]
    fn single_observation_percentiles_clamp_to_max() {
        let mut h = Histogram::default();
        h.record(0.3);
        let s = h.snapshot();
        // Ladder bound is 0.5 but the exact max is tighter.
        assert_eq!(s.p50, 0.3);
        assert_eq!(s.p99, 0.3);
        assert_eq!(s.min, 0.3);
    }

    #[test]
    fn overflow_bucket_reports_exact_max() {
        let mut h = Histogram::default();
        h.record(9_000.0);
        h.record(12_000.0);
        let s = h.snapshot();
        assert_eq!(s.p99, 12_000.0);
        assert_eq!(s.buckets.len(), 1);
        assert!(s.buckets[0].0.is_infinite());
        assert_eq!(s.buckets[0].1, 2);
    }

    #[test]
    fn exact_bucket_edges_land_in_their_bucket() {
        // Bounds are inclusive upper bounds: recording exactly each
        // ladder value must fill exactly one bucket per bound, tagged
        // with that bound.
        let mut h = Histogram::default();
        for b in BUCKET_BOUNDS_MS {
            h.record(b);
        }
        let s = h.snapshot();
        assert_eq!(s.count, BUCKET_BOUNDS_MS.len() as u64);
        assert_eq!(s.buckets.len(), BUCKET_BOUNDS_MS.len());
        for ((bound, count), expect) in s.buckets.iter().zip(BUCKET_BOUNDS_MS) {
            assert_eq!(*bound, expect);
            assert_eq!(*count, 1);
        }
        // One ulp above the first bound spills into the second bucket.
        let mut h = Histogram::default();
        h.record(BUCKET_BOUNDS_MS[0].next_up());
        assert_eq!(h.snapshot().buckets, vec![(BUCKET_BOUNDS_MS[1], 1)]);
    }

    #[test]
    fn underflow_lands_in_the_first_bucket() {
        // Everything at or below the smallest bound — including zero
        // and (nonsensical but finite) negative durations — counts in
        // the first bucket rather than vanishing.
        let mut h = Histogram::default();
        h.record(0.0);
        h.record(1e-9);
        h.record(-3.0);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets, vec![(BUCKET_BOUNDS_MS[0], 3)]);
        assert_eq!(s.min, -3.0);
        assert_eq!(s.p50, 1e-9, "percentile clamps to exact max");
    }

    #[test]
    fn overflow_boundary_is_one_ulp_past_the_last_bound() {
        let last = BUCKET_BOUNDS_MS[BUCKET_BOUNDS_MS.len() - 1];
        let mut h = Histogram::default();
        h.record(last);
        h.record(last.next_up());
        let s = h.snapshot();
        assert_eq!(s.buckets.len(), 2);
        assert_eq!(s.buckets[0], (last, 1));
        assert!(s.buckets[1].0.is_infinite());
        assert_eq!(s.buckets[1].1, 1);
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut h = Histogram::default();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(1.0);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn mean_matches_sum_over_count() {
        let mut h = Histogram::default();
        for v in [1.0, 2.0, 3.0] {
            h.record(v);
        }
        assert!((h.snapshot().mean() - 2.0).abs() < 1e-12);
    }
}
