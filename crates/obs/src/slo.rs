//! Per-tenant SLO definitions with error-budget burn-rate tracking.
//!
//! An [`SloSpec`] declares what "healthy" means for one tenant:
//! an availability floor (on `1 − policy_max_loss`), stage-latency
//! targets expressed in deterministic units (solver work-units and
//! modeled decision milliseconds — never wall clock), and a shed
//! budget (the fraction of rounds the tenant may be degraded,
//! deferred or rejected). An [`SloTracker`] folds one observation per
//! epoch (plus one shed observation per round) into sliding violation
//! windows and converts them to **burn rates**:
//!
//! ```text
//! burn(kind) = (violations_in_window / window_len) / budget(kind)
//! ```
//!
//! A burn rate of 1.0 means the tenant is consuming its error budget
//! exactly as fast as the budget allows; 2.0 means twice as fast. An
//! alert latches when burn reaches [`SloSpec::burn_threshold`] and
//! de-latches only when burn falls back below 1.0, so a flapping
//! signal yields one alert per excursion rather than one per epoch.
//! All state is integer-counted over logical epochs, so trackers are
//! byte-identical across repeat runs.

use std::collections::VecDeque;

use serde::Serialize;

/// What "healthy" means for one tenant. All thresholds compare
/// deterministic quantities; the default spec is fully lenient (no
/// kind can ever violate), so attaching a tracker is opt-in per
/// threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Minimum acceptable availability, where availability is
    /// `1 − policy_max_loss` (worst-case served fraction under the
    /// policy's failure set). 0.0 never violates.
    pub availability_floor: f64,
    /// Maximum acceptable solver work-units per epoch
    /// (pivots + lp_solves + mip_nodes + benders_iters +
    /// rhs_resolves). `u64::MAX` never violates.
    pub solve_units_target: u64,
    /// Maximum acceptable modeled decision latency per epoch in
    /// milliseconds (detect → predict → tunnel → solve).
    /// `f64::INFINITY` never violates.
    pub decision_ms_target: f64,
    /// Error budget for availability / latency kinds: the fraction of
    /// epochs in a window that may violate before burn reaches 1.0.
    pub error_budget: f64,
    /// Budget for the shed kind: the fraction of rounds the tenant
    /// may be shed (anything but a full admit).
    pub shed_budget: f64,
    /// Sliding window length, in epochs (or rounds for shed).
    pub window: usize,
    /// Burn rate at which an alert fires. Must be ≥ 1.0; alerts
    /// de-latch when burn drops below 1.0.
    pub burn_threshold: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        Self {
            availability_floor: 0.0,
            solve_units_target: u64::MAX,
            decision_ms_target: f64::INFINITY,
            error_budget: 0.05,
            shed_budget: 0.25,
            window: 32,
            burn_threshold: 2.0,
        }
    }
}

impl SloSpec {
    /// Rejects specs whose budgets or thresholds cannot produce a
    /// meaningful burn rate.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.availability_floor) {
            return Err("availability_floor must be in [0, 1]".into());
        }
        let unit_budget = |v: f64| v > 0.0 && v <= 1.0;
        if !unit_budget(self.error_budget) {
            return Err("error_budget must be in (0, 1]".into());
        }
        if !unit_budget(self.shed_budget) {
            return Err("shed_budget must be in (0, 1]".into());
        }
        if self.window == 0 {
            return Err("window must be positive".into());
        }
        if self.burn_threshold.is_nan() || self.burn_threshold < 1.0 {
            return Err("burn_threshold must be >= 1.0".into());
        }
        if self.decision_ms_target.is_nan() || self.decision_ms_target <= 0.0 {
            return Err("decision_ms_target must be positive".into());
        }
        Ok(())
    }
}

/// The dimensions an [`SloTracker`] scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SloKind {
    /// Availability (`1 − policy_max_loss`) vs the floor.
    Availability,
    /// Solver work-units per epoch vs the target.
    SolveWork,
    /// Modeled decision latency per epoch vs the target.
    DecisionLatency,
    /// Rounds shed (degrade / defer / reject) vs the shed budget.
    Shed,
}

impl SloKind {
    /// All kinds, in report order.
    pub const ALL: [SloKind; 4] = [
        SloKind::Availability,
        SloKind::SolveWork,
        SloKind::DecisionLatency,
        SloKind::Shed,
    ];

    /// Stable label used in event details and Prometheus labels.
    pub fn as_str(&self) -> &'static str {
        match self {
            SloKind::Availability => "availability",
            SloKind::SolveWork => "solve_work",
            SloKind::DecisionLatency => "decision_latency",
            SloKind::Shed => "shed",
        }
    }
}

/// One epoch's worth of SLO inputs, all deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloObservation {
    /// Logical epoch the controller just completed.
    pub epoch: u64,
    /// Worst-case fraction of demand lost under the committed policy.
    pub policy_max_loss: f64,
    /// Solver work-units spent this epoch.
    pub solve_work_units: u64,
    /// Modeled decision latency (ms) for the epoch's pipeline.
    pub decision_ms: f64,
}

/// A fired SLO alert: the tenant's burn rate for `kind` crossed the
/// spec's threshold at `epoch`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloAlert {
    /// Tenant the alert belongs to.
    pub tenant: String,
    /// Epoch (or round, for shed) at which burn crossed the threshold.
    pub epoch: u64,
    /// Which SLO dimension is burning.
    pub kind: SloKind,
    /// Burn rate at fire time.
    pub burn_rate: f64,
    /// Fraction of the lifetime error budget still unspent (may go
    /// negative once the budget is exhausted; clamped to [-1, 1]).
    pub budget_remaining: f64,
    /// Human-readable context (observed value vs threshold).
    pub detail: String,
}

#[derive(Debug, Clone, Default)]
struct KindState {
    window: VecDeque<bool>,
    window_violations: u64,
    total: u64,
    total_violations: u64,
    latched: bool,
    alerts_fired: u64,
}

impl KindState {
    fn push(&mut self, violated: bool, cap: usize) {
        self.window.push_back(violated);
        if violated {
            self.window_violations += 1;
            self.total_violations += 1;
        }
        self.total += 1;
        while self.window.len() > cap {
            if self.window.pop_front() == Some(true) {
                self.window_violations -= 1;
            }
        }
    }

    fn burn_rate(&self, budget: f64) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        (self.window_violations as f64 / self.window.len() as f64) / budget
    }

    fn budget_remaining(&self, budget: f64) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let spent = (self.total_violations as f64 / self.total as f64) / budget;
        (1.0 - spent).clamp(-1.0, 1.0)
    }

    /// Scores one observation; returns `Some((burn, remaining))` only
    /// when the alert newly latches.
    fn score(
        &mut self,
        violated: bool,
        window: usize,
        budget: f64,
        threshold: f64,
    ) -> Option<(f64, f64)> {
        self.push(violated, window);
        let burn = self.burn_rate(budget);
        if self.latched {
            if burn < 1.0 {
                self.latched = false;
            }
            return None;
        }
        if burn >= threshold {
            self.latched = true;
            self.alerts_fired += 1;
            return Some((burn, self.budget_remaining(budget)));
        }
        None
    }
}

/// Sliding-window burn-rate tracker for one tenant (see module docs).
#[derive(Debug, Clone)]
pub struct SloTracker {
    spec: SloSpec,
    availability: KindState,
    solve_work: KindState,
    decision_latency: KindState,
    shed: KindState,
}

impl SloTracker {
    /// Creates a tracker for the given spec.
    pub fn new(spec: SloSpec) -> Self {
        Self {
            spec,
            availability: KindState::default(),
            solve_work: KindState::default(),
            decision_latency: KindState::default(),
            shed: KindState::default(),
        }
    }

    /// The spec this tracker scores against.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    fn state(&self, kind: SloKind) -> &KindState {
        match kind {
            SloKind::Availability => &self.availability,
            SloKind::SolveWork => &self.solve_work,
            SloKind::DecisionLatency => &self.decision_latency,
            SloKind::Shed => &self.shed,
        }
    }

    fn budget(&self, kind: SloKind) -> f64 {
        match kind {
            SloKind::Shed => self.spec.shed_budget,
            _ => self.spec.error_budget,
        }
    }

    /// Burn rate for one kind over the current window.
    pub fn burn_rate(&self, kind: SloKind) -> f64 {
        self.state(kind).burn_rate(self.budget(kind))
    }

    /// True when the availability budget is burning at or above 1.0 —
    /// the fleet treats such tenants as *protected*: shedding them
    /// further would spend budget they no longer have, so admission
    /// prefers a deferred full solve over a degraded one.
    pub fn pressure(&self) -> bool {
        self.burn_rate(SloKind::Availability) >= 1.0
    }

    /// Scores one epoch's observation against the availability,
    /// solve-work and decision-latency SLOs, returning any alerts
    /// that newly latched.
    pub fn observe_epoch(
        &mut self,
        tenant: &str,
        obs: &SloObservation,
    ) -> Vec<SloAlert> {
        let (window, budget, threshold) = (
            self.spec.window,
            self.spec.error_budget,
            self.spec.burn_threshold,
        );
        let mut alerts = Vec::new();
        let mut push = |kind: SloKind, fired: Option<(f64, f64)>, detail: String| {
            if let Some((burn_rate, budget_remaining)) = fired {
                alerts.push(SloAlert {
                    tenant: tenant.to_string(),
                    epoch: obs.epoch,
                    kind,
                    burn_rate,
                    budget_remaining,
                    detail,
                });
            }
        };
        let availability = 1.0 - obs.policy_max_loss;
        let v = availability < self.spec.availability_floor;
        push(
            SloKind::Availability,
            self.availability.score(v, window, budget, threshold),
            format!(
                "availability {:.4} < floor {:.4}",
                availability, self.spec.availability_floor
            ),
        );
        let v = obs.solve_work_units > self.spec.solve_units_target;
        push(
            SloKind::SolveWork,
            self.solve_work.score(v, window, budget, threshold),
            format!(
                "solve work {} units > target {}",
                obs.solve_work_units, self.spec.solve_units_target
            ),
        );
        let v = obs.decision_ms > self.spec.decision_ms_target;
        push(
            SloKind::DecisionLatency,
            self.decision_latency.score(v, window, budget, threshold),
            format!(
                "decision latency {:.3} ms > target {:.3} ms",
                obs.decision_ms, self.spec.decision_ms_target
            ),
        );
        alerts
    }

    /// Scores one round's admission outcome against the shed budget.
    /// `shed` is true for anything but a full admit.
    pub fn observe_shed(
        &mut self,
        tenant: &str,
        round: u64,
        shed: bool,
    ) -> Option<SloAlert> {
        let fired = self.shed.score(
            shed,
            self.spec.window,
            self.spec.shed_budget,
            self.spec.burn_threshold,
        );
        fired.map(|(burn_rate, budget_remaining)| SloAlert {
            tenant: tenant.to_string(),
            epoch: round,
            kind: SloKind::Shed,
            burn_rate,
            budget_remaining,
            detail: format!(
                "shed rate over budget {:.3} in window of {}",
                self.spec.shed_budget, self.spec.window
            ),
        })
    }

    /// Serializable per-kind status for reports and exports.
    pub fn status(&self) -> SloStatusReport {
        SloStatusReport {
            kinds: SloKind::ALL
                .iter()
                .map(|&kind| {
                    let state = self.state(kind);
                    let budget = self.budget(kind);
                    SloKindStatus {
                        kind,
                        observed: state.total,
                        window_len: state.window.len() as u64,
                        window_violations: state.window_violations,
                        burn_rate: state.burn_rate(budget),
                        budget_remaining: state.budget_remaining(budget),
                        latched: state.latched,
                        alerts_fired: state.alerts_fired,
                    }
                })
                .collect(),
        }
    }
}

/// Serializable SLO status for one tenant: one row per kind.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloStatusReport {
    /// Per-kind burn/budget status, in [`SloKind::ALL`] order.
    pub kinds: Vec<SloKindStatus>,
}

impl SloStatusReport {
    /// Total alerts fired across all kinds.
    pub fn alerts_fired(&self) -> u64 {
        self.kinds.iter().map(|k| k.alerts_fired).sum()
    }
}

/// One kind's burn-rate status inside an [`SloStatusReport`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloKindStatus {
    /// The SLO dimension.
    pub kind: SloKind,
    /// Lifetime observations scored.
    pub observed: u64,
    /// Observations currently in the sliding window.
    pub window_len: u64,
    /// Violations currently in the sliding window.
    pub window_violations: u64,
    /// Current burn rate (see module docs).
    pub burn_rate: f64,
    /// Lifetime budget remaining, clamped to [-1, 1].
    pub budget_remaining: f64,
    /// True while the alert is latched (burn has not dropped below 1).
    pub latched: bool,
    /// Alerts fired over the tracker's lifetime.
    pub alerts_fired: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict_spec() -> SloSpec {
        SloSpec {
            availability_floor: 0.95,
            solve_units_target: 1_000,
            decision_ms_target: 50.0,
            error_budget: 0.1,
            shed_budget: 0.25,
            window: 8,
            burn_threshold: 2.0,
        }
    }

    fn healthy(epoch: u64) -> SloObservation {
        SloObservation {
            epoch,
            policy_max_loss: 0.0,
            solve_work_units: 100,
            decision_ms: 10.0,
        }
    }

    #[test]
    fn default_spec_never_violates() {
        let mut t = SloTracker::new(SloSpec::default());
        for e in 0..100 {
            let obs = SloObservation {
                epoch: e,
                policy_max_loss: 1.0,
                solve_work_units: u64::MAX,
                decision_ms: 1e18,
            };
            assert!(t.observe_epoch("t0", &obs).is_empty());
        }
        assert_eq!(t.status().alerts_fired(), 0);
        assert!(!t.pressure());
    }

    #[test]
    fn availability_drop_fires_exactly_one_alert() {
        let mut t = SloTracker::new(strict_spec());
        for e in 0..8 {
            assert!(t.observe_epoch("t0", &healthy(e)).is_empty());
        }
        // Window 8, budget 0.1, threshold 2.0 → burn hits 2.0 once
        // ⌈2.0 · 0.1 · 8⌉ = 2 of the last 8 epochs violate.
        let mut fired = Vec::new();
        for e in 8..16 {
            let obs = SloObservation {
                policy_max_loss: 0.2, // availability 0.8 < 0.95
                ..healthy(e)
            };
            fired.extend(t.observe_epoch("t0", &obs));
        }
        assert_eq!(fired.len(), 1, "alert latches after the first fire");
        assert_eq!(fired[0].kind, SloKind::Availability);
        assert_eq!(fired[0].tenant, "t0");
        assert_eq!(fired[0].epoch, 9);
        assert!(fired[0].burn_rate >= 2.0);
        assert!(t.pressure());
    }

    #[test]
    fn alert_delatches_below_burn_one_and_can_refire() {
        let mut t = SloTracker::new(strict_spec());
        let bad = |e| SloObservation { decision_ms: 100.0, ..healthy(e) };
        let mut epoch = 0u64;
        let mut fire = |t: &mut SloTracker, n: u64, is_bad: bool| -> usize {
            let mut count = 0;
            for _ in 0..n {
                let obs = if is_bad { bad(epoch) } else { healthy(epoch) };
                count += t
                    .observe_epoch("t0", &obs)
                    .iter()
                    .filter(|a| a.kind == SloKind::DecisionLatency)
                    .count();
                epoch += 1;
            }
            count
        };
        assert_eq!(fire(&mut t, 4, true), 1, "first excursion fires once");
        // Enough healthy epochs to push burn below 1.0 (window 8,
        // budget 0.1 → fewer than 1 violation per window needed, i.e.
        // the window must fully drain).
        assert_eq!(fire(&mut t, 8, false), 0);
        assert!(t.burn_rate(SloKind::DecisionLatency) < 1.0);
        assert_eq!(fire(&mut t, 4, true), 1, "second excursion re-fires");
        assert_eq!(t.status().alerts_fired(), 2);
    }

    #[test]
    fn shed_budget_tracks_rounds_not_epochs() {
        let mut t = SloTracker::new(strict_spec());
        // Budget 0.25, window 8, threshold 2.0 → 4 shed rounds in a
        // window of 8 reaches burn 2.0.
        let mut fired = 0;
        for round in 0..8 {
            if t.observe_shed("t0", round, round % 2 == 0).is_some() {
                fired += 1;
            }
        }
        assert_eq!(fired, 1);
        assert!(t.burn_rate(SloKind::Shed) >= 2.0);
    }

    #[test]
    fn budget_remaining_decreases_and_clamps() {
        let mut t = SloTracker::new(strict_spec());
        for e in 0..50 {
            let obs = SloObservation { policy_max_loss: 1.0, ..healthy(e) };
            t.observe_epoch("t0", &obs);
        }
        let status = t.status();
        let avail = &status.kinds[0];
        assert_eq!(avail.kind, SloKind::Availability);
        assert_eq!(avail.budget_remaining, -1.0, "clamped after exhaustion");
        assert_eq!(avail.observed, 50);
    }

    #[test]
    fn spec_validation_rejects_degenerate_budgets() {
        assert!(SloSpec::default().validate().is_ok());
        assert!(strict_spec().validate().is_ok());
        let bad = SloSpec { error_budget: 0.0, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = SloSpec { shed_budget: 1.5, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = SloSpec { window: 0, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = SloSpec { burn_threshold: 0.5, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = SloSpec { availability_floor: 1.5, ..Default::default() };
        assert!(bad.validate().is_err());
        let bad = SloSpec { decision_ms_target: f64::NAN, ..Default::default() };
        assert!(bad.validate().is_err());
    }
}
