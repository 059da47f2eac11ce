//! Degradation and cut event records with their prediction features.
//!
//! §3.2 identifies four critical features of a degradation event —
//! *time*, *degree*, *gradient*, *fluctuation* — plus intrinsic fiber
//! features (*region*, *length*; Appendix A.6 adds *fiber ID* and
//! *vendor*). [`DegradationFeatures`] carries all of them; the NN crate
//! consumes them directly.

use prete_topology::FiberId;
use serde::Serialize;

/// One fiber-degradation event as observed by the telemetry system.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DegradationEvent {
    /// The degraded fiber.
    pub fiber: FiberId,
    /// Epoch second at which the degradation started.
    pub start_s: u64,
    /// Duration of the degraded state in seconds (50 % are < 10 s,
    /// Figure 4(a)).
    pub duration_s: u64,
    /// The prediction features extracted from the degraded window.
    pub features: DegradationFeatures,
    /// Ground truth: did this degradation lead to a cut within the next
    /// TE period (5 minutes, §3.1's definition of a predictable cut)?
    pub led_to_cut: bool,
    /// If `led_to_cut`, the delay from degradation start to cut (s).
    pub cut_delay_s: Option<u64>,
}

/// One fiber-cut event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CutEvent {
    /// The cut fiber.
    pub fiber: FiberId,
    /// Epoch second at which the cut happened.
    pub at_s: u64,
    /// Whether a degradation preceded this cut within the predictable
    /// window (the `α` fraction of §4.1.2).
    pub predictable: bool,
    /// Seconds until repair completes (submarine cuts take days).
    pub repair_s: u64,
}

/// The §3.2 critical features plus intrinsic fiber features.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DegradationFeatures {
    /// Hour of day when the degradation appeared (0–23). Failure
    /// proportion peaks around midnight (~60 %) and bottoms out in the
    /// morning (~20 %) — Figure 6.
    pub hour: u8,
    /// *Degree*: loss change (dB) when transitioning healthy → degraded
    /// (3–10 dB by definition). Larger degree → higher failure
    /// probability.
    pub degree_db: f64,
    /// *Gradient*: mean absolute loss change between adjacent samples
    /// during the degraded state (dB/s). Small gradients (slow aging)
    /// rarely lead to cuts.
    pub gradient_db: f64,
    /// *Fluctuation*: number of adjacent-sample changes larger than
    /// 0.01 dB during the degradation (noise-filtered). Frequent
    /// fluctuation → higher failure probability.
    pub fluctuation: u32,
    /// Intrinsic: region index of the fiber.
    pub region: usize,
    /// Intrinsic: fiber identity (the most informative feature —
    /// Appendix A.6).
    pub fiber_id: usize,
    /// Intrinsic: span length in km.
    pub length_km: f64,
    /// Intrinsic: vendor index.
    pub vendor: usize,
}

/// Threshold below which an adjacent-sample change counts as noise
/// rather than fluctuation (§3.2: "larger than 0.01 dB").
pub const FLUCTUATION_NOISE_DB: f64 = 0.01;

impl DegradationFeatures {
    /// Computes *gradient* and *fluctuation* from the loss samples of a
    /// degraded window, per the §3.2 definitions.
    pub fn series_features(samples: &[f64]) -> (f64, u32) {
        if samples.len() < 2 {
            return (0.0, 0);
        }
        let mut abs_sum = 0.0;
        let mut fluct = 0u32;
        for w in samples.windows(2) {
            let d = (w[1] - w[0]).abs();
            abs_sum += d;
            if d > FLUCTUATION_NOISE_DB {
                fluct += 1;
            }
        }
        (abs_sum / (samples.len() - 1) as f64, fluct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_features_flat() {
        let (g, f) = DegradationFeatures::series_features(&[5.0, 5.0, 5.0]);
        assert_eq!(g, 0.0);
        assert_eq!(f, 0);
    }

    #[test]
    fn series_features_ramp() {
        // steps of 0.5 dB: gradient 0.5, every step a fluctuation.
        let (g, f) = DegradationFeatures::series_features(&[3.0, 3.5, 4.0, 4.5]);
        assert!((g - 0.5).abs() < 1e-12);
        assert_eq!(f, 3);
    }

    #[test]
    fn noise_below_threshold_not_counted() {
        let (g, f) = DegradationFeatures::series_features(&[3.0, 3.005, 3.0, 3.005]);
        assert!(g < 0.01);
        assert_eq!(f, 0);
    }

    #[test]
    fn short_series_degenerate() {
        assert_eq!(DegradationFeatures::series_features(&[4.0]), (0.0, 0));
        assert_eq!(DegradationFeatures::series_features(&[]), (0.0, 0));
    }
}
