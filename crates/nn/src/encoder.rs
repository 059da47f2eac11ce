//! Feature encoding (Appendix A.2).
//!
//! *"The variables degree, gradient, fluctuation, and length are scaled
//! into \[0,1\] using Min-Max normalization … The variables time, region
//! and fiber ID are encoded into binary vectors with one-hot encoding.
//! To reduce the curse of dimensionality, we represent variables region
//! and fiber ID with a low-dimensional vector … namely variable
//! embedding."*
//!
//! The encoder is fitted on the training split only (min/max leakage
//! from test data would flatter the metrics) and produces the
//! categorical indices the MLP's embedding tables consume.

use prete_optical::DegradationEvent;
use serde::Serialize;

/// Which features the model may see — the knob behind the Table 8
/// leave-one-out ablation (`NN w/o fiber ID` etc.).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FeatureMask {
    /// Include the time-of-day one-hot.
    pub time: bool,
    /// Include the degradation degree.
    pub degree: bool,
    /// Include the gradient.
    pub gradient: bool,
    /// Include the fluctuation count.
    pub fluctuation: bool,
    /// Include the region embedding.
    pub region: bool,
    /// Include the fiber-ID embedding.
    pub fiber_id: bool,
    /// Include the vendor one-hot.
    pub vendor: bool,
}

impl FeatureMask {
    /// All features enabled ("NN-all").
    pub const ALL: FeatureMask = FeatureMask {
        time: true,
        degree: true,
        gradient: true,
        fluctuation: true,
        region: true,
        fiber_id: true,
        vendor: true,
    };

    /// Disables exactly one named feature (Table 8 rows). Recognised
    /// names: `time`, `degree`, `gradient`, `fluctuation`, `region`,
    /// `fiber_id`, `vendor`.
    pub fn without(feature: &str) -> FeatureMask {
        let mut m = FeatureMask::ALL;
        match feature {
            "time" => m.time = false,
            "degree" => m.degree = false,
            "gradient" => m.gradient = false,
            "fluctuation" => m.fluctuation = false,
            "region" => m.region = false,
            "fiber_id" => m.fiber_id = false,
            "vendor" => m.vendor = false,
            other => panic!("unknown feature {other:?}"),
        }
        m
    }
}

/// Min-max range of one continuous feature.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
struct Range {
    lo: f64,
    hi: f64,
}

impl Range {
    fn fit(values: impl Iterator<Item = f64>) -> Range {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!(lo.is_finite() && hi.is_finite(), "empty feature column");
        Range { lo, hi }
    }

    /// `x* = (x - MIN)/(MAX - MIN)`, clamped for out-of-range test
    /// values.
    fn scale(&self, v: f64) -> f64 {
        if self.hi <= self.lo {
            return 0.5;
        }
        ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }
}

/// An event encoded for the network.
#[derive(Debug, Clone, PartialEq)]
pub struct Encoded {
    /// Scaled continuous features `[degree, gradient, fluctuation,
    /// length]` (masked entries are zeroed).
    pub cont: [f64; 4],
    /// Hour of day (0–23) for the one-hot block.
    pub hour: usize,
    /// Region index for the region embedding.
    pub region: usize,
    /// Fiber index for the fiber embedding.
    pub fiber: usize,
    /// Vendor index for the vendor one-hot.
    pub vendor: usize,
}

/// Fitted encoder: min-max ranges plus category counts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FeatureEncoder {
    degree: Range,
    gradient: Range,
    fluctuation: Range,
    length: Range,
    /// Number of region categories.
    pub n_regions: usize,
    /// Number of fiber categories.
    pub n_fibers: usize,
    /// Number of vendor categories.
    pub n_vendors: usize,
    /// The feature mask in effect.
    pub mask: FeatureMask,
}

impl FeatureEncoder {
    /// Fits on the training events.
    ///
    /// # Panics
    /// Panics on an empty training set.
    pub fn fit(train: &[&DegradationEvent], mask: FeatureMask) -> FeatureEncoder {
        Self::fit_recorded(train, mask, &prete_obs::Recorder::disabled())
    }

    /// [`FeatureEncoder::fit`] reporting the fitted category counts as
    /// `encoder.*` gauges and an `encoder-fitted` event.
    ///
    /// # Panics
    /// Panics on an empty training set.
    pub fn fit_recorded(
        train: &[&DegradationEvent],
        mask: FeatureMask,
        obs: &prete_obs::Recorder,
    ) -> FeatureEncoder {
        assert!(!train.is_empty(), "cannot fit encoder on empty training set");
        let enc = Self::fit_inner(train, mask);
        obs.gauge("encoder.n_regions", enc.n_regions as f64);
        obs.gauge("encoder.n_fibers", enc.n_fibers as f64);
        obs.gauge("encoder.n_vendors", enc.n_vendors as f64);
        obs.event_with("encoder-fitted", || {
            format!(
                "samples={} regions={} fibers={} vendors={}",
                train.len(),
                enc.n_regions,
                enc.n_fibers,
                enc.n_vendors
            )
        });
        enc
    }

    fn fit_inner(train: &[&DegradationEvent], mask: FeatureMask) -> FeatureEncoder {
        FeatureEncoder {
            degree: Range::fit(train.iter().map(|e| e.features.degree_db)),
            gradient: Range::fit(train.iter().map(|e| e.features.gradient_db)),
            fluctuation: Range::fit(train.iter().map(|e| e.features.fluctuation as f64)),
            length: Range::fit(train.iter().map(|e| e.features.length_km)),
            n_regions: train.iter().map(|e| e.features.region).max().unwrap() + 1,
            n_fibers: train.iter().map(|e| e.features.fiber_id).max().unwrap() + 1,
            n_vendors: train.iter().map(|e| e.features.vendor).max().unwrap() + 1,
            mask,
        }
    }

    /// Encodes one event. Unknown categorical values (unseen in
    /// training) are clamped to the last known index.
    pub fn encode(&self, e: &DegradationEvent) -> Encoded {
        let f = &e.features;
        let m = self.mask;
        Encoded {
            cont: [
                if m.degree { self.degree.scale(f.degree_db) } else { 0.0 },
                if m.gradient { self.gradient.scale(f.gradient_db) } else { 0.0 },
                if m.fluctuation { self.fluctuation.scale(f.fluctuation as f64) } else { 0.0 },
                self.length.scale(f.length_km),
            ],
            hour: if m.time { f.hour as usize } else { 0 },
            region: if m.region { f.region.min(self.n_regions - 1) } else { 0 },
            fiber: if m.fiber_id { f.fiber_id.min(self.n_fibers - 1) } else { 0 },
            vendor: if m.vendor { f.vendor.min(self.n_vendors - 1) } else { 0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prete_optical::DegradationFeatures;
    use prete_topology::FiberId;

    fn event(degree: f64, fiber: usize, hour: u8) -> DegradationEvent {
        DegradationEvent {
            fiber: FiberId(fiber),
            start_s: 0,
            duration_s: 10,
            features: DegradationFeatures {
                hour,
                degree_db: degree,
                gradient_db: 0.2,
                fluctuation: 5,
                region: fiber % 3,
                fiber_id: fiber,
                length_km: 100.0 + fiber as f64,
                vendor: fiber % 2,
            },
            led_to_cut: false,
            cut_delay_s: None,
        }
    }

    #[test]
    fn minmax_scaling_hits_unit_interval() {
        let evs = [event(3.0, 0, 0), event(10.0, 1, 12), event(6.5, 2, 23)];
        let refs: Vec<&DegradationEvent> = evs.iter().collect();
        let enc = FeatureEncoder::fit(&refs, FeatureMask::ALL);
        let lo = enc.encode(&evs[0]);
        let hi = enc.encode(&evs[1]);
        assert_eq!(lo.cont[0], 0.0);
        assert_eq!(hi.cont[0], 1.0);
        let mid = enc.encode(&evs[2]);
        assert!((mid.cont[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_values_clamped() {
        let evs = [event(4.0, 0, 0), event(8.0, 1, 1)];
        let refs: Vec<&DegradationEvent> = evs.iter().collect();
        let enc = FeatureEncoder::fit(&refs, FeatureMask::ALL);
        let big = event(100.0, 0, 0);
        assert_eq!(enc.encode(&big).cont[0], 1.0);
        let unseen_fiber = event(5.0, 99, 0);
        assert_eq!(enc.encode(&unseen_fiber).fiber, enc.n_fibers - 1);
    }

    #[test]
    fn mask_zeroes_features() {
        let evs = [event(3.0, 0, 5), event(10.0, 1, 6)];
        let refs: Vec<&DegradationEvent> = evs.iter().collect();
        let enc = FeatureEncoder::fit(&refs, FeatureMask::without("degree"));
        assert_eq!(enc.encode(&evs[1]).cont[0], 0.0);
        let enc2 = FeatureEncoder::fit(&refs, FeatureMask::without("time"));
        assert_eq!(enc2.encode(&evs[1]).hour, 0);
        let enc3 = FeatureEncoder::fit(&refs, FeatureMask::without("fiber_id"));
        assert_eq!(enc3.encode(&evs[1]).fiber, 0);
    }

    #[test]
    #[should_panic(expected = "unknown feature")]
    fn bad_mask_name_panics() {
        let _ = FeatureMask::without("frobnication");
    }

    #[test]
    fn category_counts() {
        let evs = [event(3.0, 0, 0), event(4.0, 7, 0)];
        let refs: Vec<&DegradationEvent> = evs.iter().collect();
        let enc = FeatureEncoder::fit(&refs, FeatureMask::ALL);
        assert_eq!(enc.n_fibers, 8);
        assert_eq!(enc.n_regions, 2);
        assert_eq!(enc.n_vendors, 2);
    }
}
