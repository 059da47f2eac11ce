//! Per-second loss-trace synthesis, detection, and downsampling.
//!
//! This is the OpTel-shaped half of the substrate: the paper's
//! telemetry system samples Tx/Rx power each second and computes the
//! fiber's transmission loss (§2.1); degradations appear as 3–10 dB
//! excursions above the healthy baseline, cuts as ≥ 10 dB (Figure 4(b)
//! shows a healthy → degraded → cut trace). The module provides
//!
//! * [`LossTrace`] — a fixed-rate loss series with optional missing
//!   samples and linear interpolation (the paper interpolates missing
//!   fine-grained data, §3.1);
//! * [`synthesize`] — builds a trace from a scripted event timeline;
//! * [`detect`] — the threshold detector that recovers degradation /
//!   cut events and their §3.2 features from a raw trace;
//! * [`LossTrace::downsample`] — coarser sampling for the granularity
//!   study (Appendix A.8: 25 % of cuts are predictable at 1 s
//!   granularity, 2 % at 5 min).

use crate::events::DegradationFeatures;
use crate::state::{classify_excess, FiberState};
use prete_topology::FiberId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Configuration for trace synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TraceConfig {
    /// Healthy-state loss baseline (dB).
    pub baseline_db: f64,
    /// Standard deviation of healthy-state measurement noise (dB).
    pub noise_db: f64,
    /// Loss excess once cut (dB above baseline; ≥ 10 by definition).
    pub cut_excess_db: f64,
    /// Probability that any one sample is missing (telemetry loss).
    pub missing_prob: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            baseline_db: 8.0,
            noise_db: 0.02,
            cut_excess_db: 30.0,
            missing_prob: 0.0,
        }
    }
}

/// A scripted degradation for synthesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScriptedDegradation {
    /// Offset from trace start (s).
    pub start_s: u64,
    /// Duration (s).
    pub duration_s: u64,
    /// Loss excess when degraded (dB; 3–10).
    pub degree_db: f64,
    /// Within-degradation sample-to-sample wobble amplitude (dB).
    pub wobble_db: f64,
}

/// A per-second transmission-loss series for one fiber.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LossTrace {
    /// The fiber this trace belongs to.
    pub fiber: FiberId,
    /// Epoch second of the first sample.
    pub start_s: u64,
    /// Sampling interval in seconds (1 for the fine-grained system).
    pub dt_s: u64,
    /// Loss samples in dB; `NaN` marks a missing sample.
    pub samples: Vec<f64>,
}

impl LossTrace {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of missing (NaN) samples.
    pub fn missing_count(&self) -> usize {
        self.samples.iter().filter(|s| s.is_nan()).count()
    }

    /// Linearly interpolates missing samples in place (§3.1: "we apply
    /// interpolation methods to complete the missing data"). Leading /
    /// trailing gaps are filled with the nearest valid sample.
    pub fn interpolate(&mut self) {
        let n = self.samples.len();
        if n == 0 {
            return;
        }
        let mut i = 0;
        while i < n {
            if !self.samples[i].is_nan() {
                i += 1;
                continue;
            }
            let gap_start = i;
            while i < n && self.samples[i].is_nan() {
                i += 1;
            }
            let gap_end = i; // first valid after gap, or n
            let left = gap_start.checked_sub(1).map(|j| self.samples[j]);
            let right = if gap_end < n {
                Some(self.samples[gap_end])
            } else {
                None
            };
            match (left, right) {
                (Some(l), Some(r)) => {
                    let span = (gap_end - gap_start + 1) as f64;
                    for (k, j) in (gap_start..gap_end).enumerate() {
                        let t = (k + 1) as f64 / span;
                        self.samples[j] = l + (r - l) * t;
                    }
                }
                (Some(l), None) => self.samples[gap_start..gap_end].fill(l),
                (None, Some(r)) => self.samples[gap_start..gap_end].fill(r),
                (None, None) => self.samples.fill(0.0),
            }
        }
    }

    /// Returns a coarser trace keeping every `factor`-th sample —
    /// modelling a minute-level legacy telemetry system (Appendix A.8).
    pub fn downsample(&self, factor: usize) -> LossTrace {
        assert!(factor >= 1);
        LossTrace {
            fiber: self.fiber,
            start_s: self.start_s,
            dt_s: self.dt_s * factor as u64,
            samples: self.samples.iter().step_by(factor).copied().collect(),
        }
    }

    /// Estimates the healthy baseline as the 5th-percentile loss:
    /// the healthy state is the lowest-loss regime, and even a trace
    /// dominated by a long outage keeps its pre-event healthy samples
    /// in the bottom tail.
    ///
    /// Non-finite samples (missing markers, sensor overflows) are
    /// excluded; a trace with no finite sample at all gets a baseline
    /// of 0 — its states are all treated as missing anyway.
    pub fn estimate_baseline(&self) -> f64 {
        let mut vals: Vec<f64> = self
            .samples
            .iter()
            .copied()
            .filter(|s| s.is_finite())
            .collect();
        if vals.is_empty() {
            return 0.0;
        }
        vals.sort_by(f64::total_cmp);
        vals[vals.len() / 20]
    }

    /// Classifies each sample against the estimated baseline.
    /// Non-finite samples — NaN missing markers but also ±inf sensor
    /// overflows — are treated as missing (benign): a single garbage
    /// reading must not register as a fiber cut.
    pub fn states(&self) -> Vec<FiberState> {
        let base = self.estimate_baseline();
        self.samples
            .iter()
            .map(|s| {
                if !s.is_finite() {
                    FiberState::Healthy // missing / corrupt samples are benign
                } else {
                    classify_excess(s - base)
                }
            })
            .collect()
    }
}

/// Synthesizes a loss trace with scripted degradations and an optional
/// cut. Deterministic in `seed`.
pub fn synthesize(
    fiber: FiberId,
    start_s: u64,
    duration_s: u64,
    degradations: &[ScriptedDegradation],
    cut_at_s: Option<u64>,
    cfg: TraceConfig,
    seed: u64,
) -> LossTrace {
    let mut rng = StdRng::seed_from_u64(seed ^ fiber.index() as u64);
    let mut samples = Vec::with_capacity(duration_s as usize);
    for t in 0..duration_s {
        if cfg.missing_prob > 0.0 && rng.gen::<f64>() < cfg.missing_prob {
            samples.push(f64::NAN);
            continue;
        }
        let mut loss = cfg.baseline_db + cfg.noise_db * normal(&mut rng);
        if let Some(cut) = cut_at_s {
            if t >= cut {
                samples.push(cfg.baseline_db + cfg.cut_excess_db + 0.5 * normal(&mut rng));
                continue;
            }
        }
        for d in degradations {
            if t >= d.start_s && t < d.start_s + d.duration_s {
                loss += d.degree_db + d.wobble_db * normal(&mut rng);
            }
        }
        samples.push(loss);
    }
    LossTrace {
        fiber,
        start_s,
        dt_s: 1,
        samples,
    }
}

fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A degradation recovered from a trace by the detector.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedDegradation {
    /// Sample index where the degraded window starts.
    pub start_idx: usize,
    /// Number of degraded samples.
    pub len: usize,
    /// Extracted features (region/fiber/length/vendor left for the
    /// caller to fill from topology metadata; `hour` from the
    /// degradation's start, `trace.start_s + start_idx · dt_s`).
    pub degree_db: f64,
    /// Mean |Δ| between adjacent samples in the window.
    pub gradient_db: f64,
    /// Count of |Δ| > 0.01 dB in the window.
    pub fluctuation: u32,
}

/// What the detector saw in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Degradation windows, in order.
    pub degradations: Vec<DetectedDegradation>,
    /// Sample index of the first cut sample, if the fiber was cut.
    pub cut_at_idx: Option<usize>,
}

/// [`detect`] under a `"detect"` span, emitting a
/// `degradation-detected` event per recovered window and a
/// `cut-detected` event when the trace ends in a cut.
pub fn detect_recorded(trace: &LossTrace, obs: &prete_obs::Recorder) -> Detection {
    let _span = obs.span("detect");
    let detection = detect(trace);
    for d in &detection.degradations {
        obs.event_with("degradation-detected", || {
            format!(
                "fiber={} start_idx={} len={} degree_db={:.3}",
                trace.fiber.0, d.start_idx, d.len, d.degree_db
            )
        });
    }
    if let Some(idx) = detection.cut_at_idx {
        obs.event_with("cut-detected", || {
            format!("fiber={} at_idx={idx}", trace.fiber.0)
        });
    }
    obs.add("detector.traces", 1);
    obs.add("detector.degradations", detection.degradations.len() as u64);
    if detection.cut_at_idx.is_some() {
        obs.add("detector.cuts", 1);
    }
    detection
}

/// Runs the threshold detector over a trace: estimates the baseline,
/// classifies samples, groups consecutive degraded samples into events
/// and extracts their §3.2 features.
pub fn detect(trace: &LossTrace) -> Detection {
    let states = trace.states();
    let base = trace.estimate_baseline();
    let mut degradations = Vec::new();
    let mut cut_at_idx = None;
    let mut i = 0;
    while i < states.len() {
        match states[i] {
            FiberState::Cut => {
                cut_at_idx = Some(i);
                break;
            }
            FiberState::Degraded => {
                let start = i;
                while i < states.len() && states[i] == FiberState::Degraded {
                    i += 1;
                }
                let window: Vec<f64> = trace.samples[start..i]
                    .iter()
                    .copied()
                    .filter(|s| s.is_finite())
                    .collect();
                // Degraded states only arise from finite samples, so the
                // window is non-empty — but guard anyway: feature
                // extraction on an empty window must not produce NaN.
                if window.is_empty() {
                    continue;
                }
                let degree_db = window.iter().copied().sum::<f64>() / window.len() as f64 - base;
                let (gradient_db, fluctuation) = DegradationFeatures::series_features(&window);
                degradations.push(DetectedDegradation {
                    start_idx: start,
                    len: i - start,
                    degree_db,
                    gradient_db,
                    fluctuation,
                });
            }
            FiberState::Healthy => i += 1,
        }
    }
    Detection {
        degradations,
        cut_at_idx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TraceConfig {
        TraceConfig::default()
    }

    #[test]
    fn healthy_trace_detects_nothing() {
        let t = synthesize(FiberId(0), 0, 600, &[], None, cfg(), 1);
        let d = detect(&t);
        assert!(d.degradations.is_empty());
        assert!(d.cut_at_idx.is_none());
    }

    #[test]
    fn figure4b_scenario_detected() {
        // The §5 testbed reproduction: healthy 0–65 s, degraded
        // 65–110 s, cut at 110 s.
        let deg = ScriptedDegradation {
            start_s: 65,
            duration_s: 45,
            degree_db: 6.0,
            wobble_db: 0.2,
        };
        let t = synthesize(FiberId(1), 0, 400, &[deg], Some(110), cfg(), 2);
        let d = detect(&t);
        assert_eq!(d.degradations.len(), 1);
        let ev = &d.degradations[0];
        assert!((60..=70).contains(&ev.start_idx), "start {}", ev.start_idx);
        assert!((40..=50).contains(&ev.len), "len {}", ev.len);
        assert!(
            (5.0..=7.0).contains(&ev.degree_db),
            "degree {}",
            ev.degree_db
        );
        assert!(ev.fluctuation > 10, "wobble produces fluctuations");
        let cut = d.cut_at_idx.unwrap();
        assert!((108..=112).contains(&cut));
    }

    #[test]
    fn three_minute_sampling_misses_short_degradation() {
        // Figure 4(b)'s black circles: a 9-second degradation is caught
        // at 1 s granularity but missed at 180 s granularity.
        let deg = ScriptedDegradation {
            start_s: 100,
            duration_s: 9,
            degree_db: 5.0,
            wobble_db: 0.1,
        };
        let t = synthesize(FiberId(2), 0, 400, &[deg], None, cfg(), 3);
        assert_eq!(detect(&t).degradations.len(), 1);
        let coarse = t.downsample(180);
        // samples at 0, 180, 360 — none inside [100, 109).
        assert!(detect(&coarse).degradations.is_empty());
    }

    #[test]
    fn interpolation_fills_gaps() {
        let mut t = LossTrace {
            fiber: FiberId(0),
            start_s: 0,
            dt_s: 1,
            samples: vec![1.0, f64::NAN, f64::NAN, 4.0, f64::NAN],
        };
        assert_eq!(t.missing_count(), 3);
        t.interpolate();
        assert_eq!(t.missing_count(), 0);
        assert!((t.samples[1] - 2.0).abs() < 1e-12);
        assert!((t.samples[2] - 3.0).abs() < 1e-12);
        assert_eq!(t.samples[4], 4.0); // trailing gap takes last value
    }

    #[test]
    fn interpolation_of_synthesized_missing_data() {
        let mut c = cfg();
        c.missing_prob = 0.1;
        let mut t = synthesize(FiberId(0), 0, 1000, &[], None, c, 4);
        assert!(t.missing_count() > 50);
        t.interpolate();
        assert_eq!(t.missing_count(), 0);
        // Still detects nothing (interpolation doesn't invent events).
        assert!(detect(&t).degradations.is_empty());
    }

    #[test]
    fn downsample_arithmetic() {
        let t = LossTrace {
            fiber: FiberId(0),
            start_s: 10,
            dt_s: 1,
            samples: (0..10).map(|i| i as f64).collect(),
        };
        let d = t.downsample(3);
        assert_eq!(d.dt_s, 3);
        assert_eq!(d.samples, vec![0.0, 3.0, 6.0, 9.0]);
    }

    #[test]
    fn baseline_robust_to_events() {
        let deg = ScriptedDegradation {
            start_s: 0,
            duration_s: 150,
            degree_db: 8.0,
            wobble_db: 0.1,
        };
        // Degradation covers 37% of the trace; baseline should still be
        // the healthy level (~8 dB), not the degraded level.
        let t = synthesize(FiberId(0), 0, 400, &[deg], None, cfg(), 5);
        let b = t.estimate_baseline();
        assert!((7.5..=8.5).contains(&b), "baseline {b}");
    }

    #[test]
    fn detector_ignores_missing_samples() {
        let mut t = synthesize(FiberId(0), 0, 300, &[], None, cfg(), 6);
        t.samples[50] = f64::NAN;
        let d = detect(&t);
        assert!(d.degradations.is_empty());
    }

    #[test]
    fn empty_trace_does_not_panic() {
        let t = LossTrace {
            fiber: FiberId(0),
            start_s: 0,
            dt_s: 1,
            samples: vec![],
        };
        assert_eq!(t.estimate_baseline(), 0.0);
        assert!(t.states().is_empty());
        let d = detect(&t);
        assert!(d.degradations.is_empty());
        assert!(d.cut_at_idx.is_none());
    }

    #[test]
    fn all_missing_trace_does_not_panic() {
        let t = LossTrace {
            fiber: FiberId(0),
            start_s: 0,
            dt_s: 1,
            samples: vec![f64::NAN; 120],
        };
        assert_eq!(t.estimate_baseline(), 0.0);
        assert!(t.states().iter().all(|s| *s == FiberState::Healthy));
        let d = detect(&t);
        assert!(d.degradations.is_empty());
        assert!(d.cut_at_idx.is_none());
    }

    #[test]
    fn infinite_samples_are_treated_as_missing() {
        // A sensor overflow (+inf) must neither register as a cut nor
        // poison the baseline percentile; -inf must not become the
        // baseline.
        let mut t = synthesize(FiberId(0), 0, 300, &[], None, cfg(), 7);
        t.samples[40] = f64::INFINITY;
        t.samples[41] = f64::NEG_INFINITY;
        let b = t.estimate_baseline();
        assert!((7.5..=8.5).contains(&b), "baseline {b}");
        let d = detect(&t);
        assert!(d.degradations.is_empty());
        assert!(d.cut_at_idx.is_none());
    }
}
