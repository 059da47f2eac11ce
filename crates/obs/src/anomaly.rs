//! Deterministic anomaly detectors over solver-statistics streams.
//!
//! "Taming Imbalance and Complexity in WAN TE" shows solver behavior
//! (pivot counts, cut growth) drifting pathologically as scenario
//! sets grow; these detectors catch that drift *while the fleet is
//! running* instead of post-mortem. A [`SolverAnomalyDetector`] folds
//! one [`SolverSample`] per `(tenant, epoch)` and compares each
//! statistic against a trailing-window baseline:
//!
//! - **Pivot / eta-churn explosions** — the current count exceeds
//!   `factor ×` the trailing mean (and an absolute activity floor, so
//!   tiny problems never fire).
//! - **Refactorization-cadence drift** — pivots-per-refactorization
//!   leaves a `band ×` envelope around its trailing mean in either
//!   direction (the LU core refactorizes on a fixed interval plus
//!   stability triggers, so sustained cadence drift means numerical
//!   trouble).
//! - **Ladder-exhaustion / pivot-rollback spikes** — any occurrence
//!   after a clean trailing window (these are exceptional recovery
//!   paths; one firing after quiet history is signal, a constant
//!   background rate is baseline).
//! - **Warm-cache hit-rate collapse** — the hit rate falls below
//!   `drop ×` its trailing mean after the cache had warmed up.
//!
//! Detection is pure integer/float arithmetic over logical epochs —
//! no wall clock, no randomness — so the event stream is
//! byte-identical across repeat runs. Every event
//! carries the offending `(tenant, epoch, stat)` plus the observed
//! value and baseline, so an operator can jump straight from an alert
//! to the epoch journal.

use std::collections::VecDeque;

use serde::Serialize;

/// One epoch's solver statistics, as fed by the fleet from
/// `SolverStats` (kept as a plain struct so `prete-obs` stays
/// dependency-free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverSample {
    /// Simplex pivots this epoch.
    pub pivots: u64,
    /// Eta-file entries appended this epoch.
    pub etas: u64,
    /// Basis refactorizations this epoch.
    pub refactorizations: u64,
    /// LP solves whose recovery ladder ran out this epoch
    /// (`SolverStats::dense_fallbacks`, named for the dense fallback
    /// engine that once caught them).
    pub dense_fallbacks: u64,
    /// Dual-simplex pivot rollbacks this epoch.
    pub rollbacks: u64,
    /// Warm-start cache hits this epoch.
    pub warm_hits: u64,
    /// Warm-start cache misses this epoch.
    pub warm_misses: u64,
    /// Iterative refinements of basic solutions this epoch.
    pub refinements: u64,
    /// Peel-tolerance tightenings (recovery rungs) this epoch.
    pub tightenings: u64,
    /// Singular basis columns patched during warm restores this epoch.
    pub patched_columns: u64,
    /// LP solves downgraded to `NumericallySuspect` this epoch.
    pub suspect_solves: u64,
    /// Decimal exponent (`log10`, rounded down, clamped at 0) of the
    /// largest basis condition estimate this epoch; 0 when none was
    /// computed. Kept as an integer so the sample stays `Eq` for
    /// byte-identical replay comparison.
    pub condition_exponent: u64,
}

/// What the detectors flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AnomalyKind {
    /// Pivot count exploded vs the trailing baseline.
    PivotExplosion,
    /// Eta-file churn exploded vs the trailing baseline.
    EtaChurn,
    /// Pivots-per-refactorization left the baseline envelope.
    RefactorCadenceDrift,
    /// A recovery ladder ran out after a clean trailing window.
    DenseFallbackSpike,
    /// Pivot rollback fired after a clean trailing window.
    RollbackSpike,
    /// Warm-cache hit rate collapsed vs the trailing baseline.
    WarmCacheCollapse,
    /// Numerical recovery activity (refinements, tolerance
    /// tightenings, column patches or suspect solves) after a clean
    /// trailing window.
    NumericalInstability,
    /// Basis condition estimate jumped ≥ 3 decades above the trailing
    /// baseline exponent.
    ConditionBlowup,
}

impl AnomalyKind {
    /// Stable label used in event details and Prometheus labels.
    pub fn as_str(&self) -> &'static str {
        match self {
            AnomalyKind::PivotExplosion => "pivot_explosion",
            AnomalyKind::EtaChurn => "eta_churn",
            AnomalyKind::RefactorCadenceDrift => "refactor_cadence_drift",
            AnomalyKind::DenseFallbackSpike => "dense_fallback_spike",
            AnomalyKind::RollbackSpike => "rollback_spike",
            AnomalyKind::WarmCacheCollapse => "warm_cache_collapse",
            AnomalyKind::NumericalInstability => "numerical_instability",
            AnomalyKind::ConditionBlowup => "condition_blowup",
        }
    }
}

/// Detector thresholds. The defaults are tuned so a *stable* solver
/// stream — including warm-up (a growing hit rate never collapses)
/// and budget-degraded epochs (explosions are upward-only and gated
/// on `min_activity`) — produces zero events; see DESIGN.md for the
/// tuning rationale.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyConfig {
    /// Trailing-window length used as the baseline.
    pub window: usize,
    /// Epochs of history required before any detector arms.
    pub min_history: usize,
    /// Explosion factor: current > factor × trailing mean fires.
    pub factor: f64,
    /// Absolute activity floor (pivots / etas) below which explosion
    /// and cadence detectors never fire.
    pub min_activity: u64,
    /// Cadence envelope: pivots-per-refactorization outside
    /// `[mean / band, mean × band]` fires.
    pub cadence_band: f64,
    /// Hit-rate collapse: rate < drop × trailing mean fires (only
    /// once the baseline mean itself is ≥ 0.5, i.e. the cache had
    /// actually warmed up).
    pub hit_rate_drop: f64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        Self {
            window: 16,
            min_history: 4,
            factor: 4.0,
            min_activity: 64,
            cadence_band: 4.0,
            hit_rate_drop: 0.5,
        }
    }
}

impl AnomalyConfig {
    /// Rejects configurations that would fire constantly or never arm.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 || self.min_history == 0 {
            return Err("window and min_history must be positive".into());
        }
        if self.min_history > self.window {
            return Err("min_history cannot exceed window".into());
        }
        let above_one = |v: f64| v.is_finite() && v > 1.0;
        if !above_one(self.factor) || !above_one(self.cadence_band) {
            return Err("factor and cadence_band must be > 1.0".into());
        }
        let in_unit = self.hit_rate_drop > 0.0 && self.hit_rate_drop < 1.0;
        if !in_unit {
            return Err("hit_rate_drop must be in (0, 1)".into());
        }
        Ok(())
    }
}

/// A structured anomaly: `(tenant, epoch, stat)` plus the observed
/// value and the trailing baseline it was judged against.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AnomalyEvent {
    /// Tenant whose solver stream fired.
    pub tenant: String,
    /// Logical epoch of the offending sample.
    pub epoch: u64,
    /// Statistic name (`pivots`, `etas`, `refactor_cadence`,
    /// `dense_fallbacks`, `rollbacks`, `warm_hit_rate`).
    pub stat: String,
    /// Detector that fired.
    pub kind: AnomalyKind,
    /// Observed value at the offending epoch.
    pub value: f64,
    /// Trailing-window baseline the value was compared against.
    pub baseline: f64,
    /// Human-readable context.
    pub detail: String,
}

#[derive(Debug, Clone, Default)]
struct TrailingWindow {
    vals: VecDeque<f64>,
    sum: f64,
}

impl TrailingWindow {
    fn push(&mut self, v: f64, cap: usize) {
        self.vals.push_back(v);
        self.sum += v;
        while self.vals.len() > cap {
            if let Some(old) = self.vals.pop_front() {
                self.sum -= old;
            }
        }
    }

    fn len(&self) -> usize {
        self.vals.len()
    }

    fn mean(&self) -> f64 {
        if self.vals.is_empty() {
            0.0
        } else {
            self.sum / self.vals.len() as f64
        }
    }
}

/// Per-tenant deterministic detector state (see module docs).
#[derive(Debug, Clone)]
pub struct SolverAnomalyDetector {
    config: AnomalyConfig,
    pivots: TrailingWindow,
    etas: TrailingWindow,
    cadence: TrailingWindow,
    dense: TrailingWindow,
    rollbacks: TrailingWindow,
    hit_rate: TrailingWindow,
    recovery: TrailingWindow,
    condition: TrailingWindow,
}

impl Default for SolverAnomalyDetector {
    fn default() -> Self {
        Self::new(AnomalyConfig::default())
    }
}

impl SolverAnomalyDetector {
    /// Creates a detector with the given thresholds.
    pub fn new(config: AnomalyConfig) -> Self {
        Self {
            config,
            pivots: TrailingWindow::default(),
            etas: TrailingWindow::default(),
            cadence: TrailingWindow::default(),
            dense: TrailingWindow::default(),
            rollbacks: TrailingWindow::default(),
            hit_rate: TrailingWindow::default(),
            recovery: TrailingWindow::default(),
            condition: TrailingWindow::default(),
        }
    }

    /// The thresholds this detector runs with.
    pub fn config(&self) -> &AnomalyConfig {
        &self.config
    }

    /// Folds one `(tenant, epoch)` sample and returns every anomaly
    /// it triggers. The sample is judged against the *prior* trailing
    /// window, then absorbed into it — so a sustained shift fires once
    /// and then becomes the new baseline rather than alerting forever.
    pub fn observe(
        &mut self,
        tenant: &str,
        epoch: u64,
        sample: &SolverSample,
    ) -> Vec<AnomalyEvent> {
        let cfg = self.config.clone();
        let mut events = Vec::new();
        let mut fire =
            |kind: AnomalyKind, stat: &str, value: f64, baseline: f64, detail: String| {
                events.push(AnomalyEvent {
                    tenant: tenant.to_string(),
                    epoch,
                    stat: stat.to_string(),
                    kind,
                    value,
                    baseline,
                    detail,
                });
            };

        // Explosions: upward-only, activity-gated.
        let pivots = sample.pivots as f64;
        if self.pivots.len() >= cfg.min_history
            && sample.pivots >= cfg.min_activity
            && pivots > cfg.factor * self.pivots.mean()
        {
            fire(
                AnomalyKind::PivotExplosion,
                "pivots",
                pivots,
                self.pivots.mean(),
                format!(
                    "pivots {} > {:.1}x trailing mean {:.1}",
                    sample.pivots,
                    cfg.factor,
                    self.pivots.mean()
                ),
            );
        }
        let etas = sample.etas as f64;
        if self.etas.len() >= cfg.min_history
            && sample.etas >= cfg.min_activity
            && etas > cfg.factor * self.etas.mean()
        {
            fire(
                AnomalyKind::EtaChurn,
                "etas",
                etas,
                self.etas.mean(),
                format!(
                    "etas {} > {:.1}x trailing mean {:.1}",
                    sample.etas,
                    cfg.factor,
                    self.etas.mean()
                ),
            );
        }

        // Cadence drift: both directions, gated on real activity on
        // both sides of the comparison.
        let cadence = pivots / (sample.refactorizations.max(1) as f64);
        let cadence_base = self.cadence.mean();
        if self.cadence.len() >= cfg.min_history
            && sample.pivots >= cfg.min_activity
            && self.pivots.mean() >= cfg.min_activity as f64
            && cadence_base > 0.0
            && (cadence > cfg.cadence_band * cadence_base
                || cadence < cadence_base / cfg.cadence_band)
        {
            fire(
                AnomalyKind::RefactorCadenceDrift,
                "refactor_cadence",
                cadence,
                cadence_base,
                format!(
                    "pivots/refactorization {:.1} outside [{:.1}, {:.1}]",
                    cadence,
                    cadence_base / cfg.cadence_band,
                    cadence_base * cfg.cadence_band
                ),
            );
        }

        // Spikes: any occurrence after a clean trailing window.
        if self.dense.len() >= cfg.min_history
            && self.dense.sum == 0.0
            && sample.dense_fallbacks > 0
        {
            fire(
                AnomalyKind::DenseFallbackSpike,
                "dense_fallbacks",
                sample.dense_fallbacks as f64,
                0.0,
                format!(
                    "{} recovery-ladder run-out(s) after {} clean epochs",
                    sample.dense_fallbacks,
                    self.dense.len()
                ),
            );
        }
        if self.rollbacks.len() >= cfg.min_history
            && self.rollbacks.sum == 0.0
            && sample.rollbacks > 0
        {
            fire(
                AnomalyKind::RollbackSpike,
                "rollbacks",
                sample.rollbacks as f64,
                0.0,
                format!(
                    "{} rollback(s) after {} clean epochs",
                    sample.rollbacks,
                    self.rollbacks.len()
                ),
            );
        }

        // Numerical instability: any recovery activity (refinements,
        // tolerance tightenings, column patches, suspect solves) after
        // a clean trailing window. Mirrors the spike detectors above.
        let recovery = sample.refinements
            + sample.tightenings
            + sample.patched_columns
            + sample.suspect_solves;
        if self.recovery.len() >= cfg.min_history
            && self.recovery.sum == 0.0
            && recovery > 0
        {
            fire(
                AnomalyKind::NumericalInstability,
                "numerics",
                recovery as f64,
                0.0,
                format!(
                    "{} refinement(s), {} tightening(s), {} patch(es), \
                     {} suspect solve(s) after {} clean epochs",
                    sample.refinements,
                    sample.tightenings,
                    sample.patched_columns,
                    sample.suspect_solves,
                    self.recovery.len()
                ),
            );
        }

        // Condition blow-up: the decimal exponent of the worst basis
        // condition estimate jumped >= 3 decades above its baseline.
        let cond = sample.condition_exponent as f64;
        let cond_base = self.condition.mean();
        if self.condition.len() >= cfg.min_history
            && sample.condition_exponent > 0
            && cond > cond_base + 3.0
        {
            fire(
                AnomalyKind::ConditionBlowup,
                "condition_exponent",
                cond,
                cond_base,
                format!(
                    "condition ~1e{} vs trailing mean ~1e{:.1}",
                    sample.condition_exponent, cond_base
                ),
            );
        }

        // Warm-cache collapse: only once the cache had warmed up.
        let lookups = sample.warm_hits + sample.warm_misses;
        let rate = if lookups == 0 {
            None
        } else {
            Some(sample.warm_hits as f64 / lookups as f64)
        };
        if let Some(rate) = rate {
            let base = self.hit_rate.mean();
            if self.hit_rate.len() >= cfg.min_history
                && base >= 0.5
                && rate < cfg.hit_rate_drop * base
            {
                fire(
                    AnomalyKind::WarmCacheCollapse,
                    "warm_hit_rate",
                    rate,
                    base,
                    format!(
                        "warm hit rate {:.3} < {:.2}x trailing mean {:.3}",
                        rate, cfg.hit_rate_drop, base
                    ),
                );
            }
        }

        // Absorb the sample into every baseline.
        self.pivots.push(pivots, cfg.window);
        self.etas.push(etas, cfg.window);
        self.cadence.push(cadence, cfg.window);
        self.dense.push(sample.dense_fallbacks as f64, cfg.window);
        self.rollbacks.push(sample.rollbacks as f64, cfg.window);
        self.recovery.push(recovery as f64, cfg.window);
        self.condition.push(cond, cfg.window);
        if let Some(rate) = rate {
            self.hit_rate.push(rate, cfg.window);
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady() -> SolverSample {
        SolverSample {
            pivots: 500,
            etas: 400,
            refactorizations: 8,
            dense_fallbacks: 0,
            rollbacks: 0,
            warm_hits: 9,
            warm_misses: 1,
            refinements: 0,
            tightenings: 0,
            patched_columns: 0,
            suspect_solves: 0,
            condition_exponent: 6,
        }
    }

    fn warm_up(det: &mut SolverAnomalyDetector, epochs: u64) {
        for e in 0..epochs {
            assert!(det.observe("t0", e, &steady()).is_empty());
        }
    }

    #[test]
    fn steady_stream_is_silent() {
        let mut det = SolverAnomalyDetector::default();
        warm_up(&mut det, 50);
    }

    #[test]
    fn pivot_explosion_fires_exactly_once_then_rebaselines() {
        let mut det = SolverAnomalyDetector::default();
        warm_up(&mut det, 8);
        let spike = SolverSample {
            pivots: 5_000,
            etas: 400,
            refactorizations: 80,
            ..steady()
        };
        let events = det.observe("t0", 8, &spike);
        assert_eq!(events.len(), 1, "exactly the pivot detector: {events:?}");
        assert_eq!(events[0].kind, AnomalyKind::PivotExplosion);
        assert_eq!(events[0].stat, "pivots");
        assert_eq!(events[0].tenant, "t0");
        assert_eq!(events[0].epoch, 8);
        assert_eq!(events[0].value, 5_000.0);
        // A sustained shift becomes the new baseline quickly: mean of
        // [500×8, 5000] ≈ 1000, and 5000 > 4× that still fires once
        // more, then the window absorbs it.
        let mut extra = 0;
        for e in 9..30 {
            extra += det.observe("t0", e, &spike).len();
        }
        assert!(extra <= 2, "sustained shift must rebaseline, got {extra}");
    }

    #[test]
    fn eta_churn_is_distinguished_from_pivots() {
        let mut det = SolverAnomalyDetector::default();
        warm_up(&mut det, 8);
        let churn = SolverSample { etas: 4_000, ..steady() };
        let events = det.observe("t0", 8, &churn);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, AnomalyKind::EtaChurn);
        assert_eq!(events[0].stat, "etas");
    }

    #[test]
    fn cadence_drift_fires_in_both_directions() {
        let mut det = SolverAnomalyDetector::default();
        warm_up(&mut det, 8); // cadence 500/8 = 62.5
        // Same pivots, 10x refactorizations → cadence 6.25, below
        // 62.5 / 4.
        let thrash = SolverSample { refactorizations: 80, ..steady() };
        let events = det.observe("t0", 8, &thrash);
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].kind, AnomalyKind::RefactorCadenceDrift);

        let mut det = SolverAnomalyDetector::default();
        warm_up(&mut det, 8);
        // Refactorization starvation: cadence 500/1 = 500 > 62.5 × 4.
        let starve = SolverSample { refactorizations: 1, ..steady() };
        let events = det.observe("t0", 8, &starve);
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].kind, AnomalyKind::RefactorCadenceDrift);
    }

    #[test]
    fn fallback_and_rollback_spikes_need_clean_history() {
        let mut det = SolverAnomalyDetector::default();
        // Constant background fallbacks from epoch 0: never a spike.
        let noisy = SolverSample { dense_fallbacks: 1, ..steady() };
        for e in 0..20 {
            assert!(det.observe("t0", e, &noisy).is_empty());
        }

        let mut det = SolverAnomalyDetector::default();
        warm_up(&mut det, 8);
        let spike = SolverSample { dense_fallbacks: 1, rollbacks: 2, ..steady() };
        let events = det.observe("t0", 8, &spike);
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(events[0].kind, AnomalyKind::DenseFallbackSpike);
        assert_eq!(events[1].kind, AnomalyKind::RollbackSpike);
        assert_eq!(events[1].value, 2.0);
    }

    #[test]
    fn numerical_instability_fires_after_clean_window() {
        // Constant background refinements from epoch 0: never a spike.
        let mut det = SolverAnomalyDetector::default();
        let noisy = SolverSample { refinements: 2, ..steady() };
        for e in 0..20 {
            assert!(det.observe("t0", e, &noisy).is_empty());
        }

        let mut det = SolverAnomalyDetector::default();
        warm_up(&mut det, 8);
        let spike = SolverSample {
            refinements: 1,
            tightenings: 1,
            suspect_solves: 1,
            ..steady()
        };
        let events = det.observe("t0", 8, &spike);
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].kind, AnomalyKind::NumericalInstability);
        assert_eq!(events[0].stat, "numerics");
        assert_eq!(events[0].value, 3.0);
    }

    #[test]
    fn condition_blowup_needs_a_three_decade_jump() {
        let mut det = SolverAnomalyDetector::default();
        warm_up(&mut det, 8); // baseline exponent 6
        // Two decades up: within band, silent.
        let drift = SolverSample { condition_exponent: 8, ..steady() };
        assert!(det.observe("t0", 8, &drift).is_empty());
        // Four decades above the (slightly moved) baseline: fires.
        let blowup = SolverSample { condition_exponent: 12, ..steady() };
        let events = det.observe("t0", 9, &blowup);
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].kind, AnomalyKind::ConditionBlowup);
        assert_eq!(events[0].stat, "condition_exponent");
        assert_eq!(events[0].value, 12.0);
    }

    #[test]
    fn warm_cache_collapse_requires_a_warmed_baseline() {
        // Cold cache throughout (rate 0) never collapses.
        let mut det = SolverAnomalyDetector::default();
        let cold = SolverSample { warm_hits: 0, warm_misses: 10, ..steady() };
        for e in 0..20 {
            assert!(det.observe("t0", e, &cold).is_empty());
        }

        // Warm baseline (0.9) then collapse to 0.1.
        let mut det = SolverAnomalyDetector::default();
        warm_up(&mut det, 8);
        let collapse = SolverSample { warm_hits: 1, warm_misses: 9, ..steady() };
        let events = det.observe("t0", 8, &collapse);
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].kind, AnomalyKind::WarmCacheCollapse);
        assert!((events[0].baseline - 0.9).abs() < 1e-12);
    }

    #[test]
    fn warm_up_growth_never_fires() {
        // A cache warming from 0% to ~100% over 30 epochs must stay
        // silent: collapse is a drop vs baseline, growth is healthy.
        let mut det = SolverAnomalyDetector::default();
        for e in 0..30u64 {
            let hits = e.min(10);
            let s = SolverSample {
                warm_hits: hits,
                warm_misses: 10 - hits.min(10),
                ..steady()
            };
            assert!(det.observe("t0", e, &s).is_empty(), "epoch {e}");
        }
    }

    #[test]
    fn small_problems_never_explode() {
        let mut det = SolverAnomalyDetector::default();
        let tiny = SolverSample { pivots: 2, etas: 1, refactorizations: 1, ..steady() };
        for e in 0..8 {
            det.observe("t0", e, &tiny);
        }
        // 30 pivots is 15x the baseline but below min_activity.
        let bump = SolverSample { pivots: 30, etas: 20, refactorizations: 1, ..steady() };
        assert!(det.observe("t0", 8, &bump).is_empty());
    }

    #[test]
    fn config_validation_rejects_degenerate_thresholds() {
        assert!(AnomalyConfig::default().validate().is_ok());
        let bad = AnomalyConfig { window: 0, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = AnomalyConfig { min_history: 20, window: 10, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = AnomalyConfig { factor: 1.0, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = AnomalyConfig { hit_rate_drop: 1.0, ..Default::default() };
        assert!(bad.validate().is_err());
    }
}
