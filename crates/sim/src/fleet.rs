//! The multi-tenant controller fleet: one deterministic event loop
//! driving N concurrent tenant controllers under a shared work budget.
//!
//! ROADMAP item 4 targets an always-on service multiplexing many TE
//! instances. This module composes the per-instance pieces — the
//! robust fallback ladder ([`RobustController`]), crash-safe state
//! ([`DurableController`]) — into a [`Fleet`] that degrades predictably
//! under overload instead of falling over:
//!
//! * **Admission control and shedding** — every round (one scheduling
//!   pass over the fleet) runs under a shared work-unit budget.
//!   Each tenant epoch is admitted, degraded to a tight
//!   [`SolveBudget`] (driving the solve into the robust fallback
//!   chain), deferred to the end of the round, or rejected outright —
//!   a typed [`ShedDecision`] per tenant per round, logged in
//!   [`ShedRecord`]s. Budgets are work units (simplex pivots, LP
//!   solves, MIP nodes…), never wall clock, so every decision is a
//!   pure function of the run's inputs and replays identically on any
//!   machine.
//! * **Fault isolation** — each tenant owns its topology, trace
//!   stream, seed stream, [`Store`](crate::checkpoint::Store) and
//!   warm-start cache. A tenant that crashes or corrupts its
//!   checkpoint is recovered via [`DurableController::recover`]; a
//!   tenant that fails `max_consecutive_failures` times (e.g. a
//!   poisoned workload that re-fails on every recovery) is
//!   quarantined. Neither path perturbs any other tenant's
//!   bit-identical replay.
//! * **Watchdog** — an epoch whose measured cost exceeds
//!   `watchdog_factor ×` its admitted estimate trips the watchdog;
//!   the tenant's next epoch is forced onto the degraded budget (the
//!   PR 1 degraded-mode ladder) until an epoch completes in budget.
//! * **Fleet observability** — one deterministic logical clock records
//!   per-round and per-tenant span trees plus
//!   `fleet.shed.*` / `fleet.quarantined` / `fleet.recoveries` /
//!   `fleet.watchdog_trips` counters; [`FleetReport`] embeds the
//!   [`RunReport`] and a digest over every decision and fingerprint
//!   for cheap cross-run determinism comparison.
//! * **Chaos soak** — [`fleet_chaos_soak`] injects
//!   crash/corrupt/stale-journal events across tenants (one tenant is
//!   the single-controller soak) and checks, after every epoch
//!   execution and recovery: the availability floor, a finite
//!   allocation, well-formed span trees, bit-identity with an
//!   uninterrupted solo run, and monotone warm-cache counters across
//!   crash/restore — plus cross-tenant isolation at the end. Any
//!   violation is shrunk to a minimal `(seed, tenant, epoch, event)`
//!   repro.

use crate::checkpoint::{
    fnv_fold, CheckpointError, DurableConfig, DurableController, EpochOutcome, EpochWorkload,
    MemStore, FNV_OFFSET,
};
use crate::faults::PlanError;
use crate::robust::RobustController;
use prete_core::prelude::{Recorder, RunReport, SolveBudget};
use prete_obs::{
    AnomalyConfig, AnomalyEvent, SeriesConfig, SeriesSet, SloAlert, SloObservation, SloSpec,
    SloTracker, SolverAnomalyDetector, SolverSample, TelemetrySnapshot, TenantTelemetry,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Tenant specification
// ---------------------------------------------------------------------------

/// Everything the fleet needs to run (and re-run) one tenant: a name,
/// a closure building a *fresh* genesis controller over the tenant's
/// own leaves (topology, flows, predictor, scheme — the closure
/// borrows them from the caller's scope), the tenant's workload, and
/// its durable-run parameters.
pub struct TenantSpec<'a> {
    /// Tenant name, used in span names and reports.
    pub name: String,
    /// Builds a fresh (genesis) controller; invoked once at fleet
    /// construction and once per recovery.
    pub build: Box<dyn Fn() -> RobustController<'a> + 'a>,
    /// The tenant's epoch workload.
    pub workload: Box<dyn EpochWorkload + 'a>,
    /// Seed of the tenant's master seed stream.
    pub run_seed: u64,
    /// Checkpoint cadence (0 = journal only).
    pub checkpoint_every: u64,
    /// Optional SLO declaration. When set, the fleet attaches a
    /// burn-rate tracker: violations feed `slo.alert` events and a
    /// tenant under availability pressure is sheltered by admission
    /// (deferred instead of degraded in phase one). `None` leaves
    /// admission behavior byte-identical to a fleet without SLOs.
    pub slo: Option<SloSpec>,
}

impl<'a> TenantSpec<'a> {
    /// A spec with the default checkpoint cadence (every 5 epochs).
    pub fn new(
        name: impl Into<String>,
        build: impl Fn() -> RobustController<'a> + 'a,
        workload: impl EpochWorkload + 'a,
        run_seed: u64,
    ) -> Self {
        Self {
            name: name.into(),
            build: Box::new(build),
            workload: Box::new(workload),
            run_seed,
            checkpoint_every: 5,
            slo: None,
        }
    }

    /// Declares this tenant's SLO (see [`TenantSpec::slo`]).
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = Some(slo);
        self
    }

    fn durable_config(&self) -> DurableConfig {
        DurableConfig { run_seed: self.run_seed, checkpoint_every: self.checkpoint_every }
    }
}

// ---------------------------------------------------------------------------
// Scheduling types
// ---------------------------------------------------------------------------

/// The admission decision for one tenant in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedDecision {
    /// Run at the full latency-derived budget.
    Admit,
    /// Run now, but on [`FleetConfig::degraded_budget`] — the solve is
    /// pushed into the robust fallback chain (heuristic →
    /// last-known-good) instead of consuming scarce budget.
    Degrade,
    /// Not enough projected budget now; retry after the admitted
    /// tenants run (their *actual* cost may undershoot the estimates).
    Defer,
    /// No budget even after the admitted tenants ran; the tenant skips
    /// this round entirely and keeps its standing policy.
    Reject,
}

/// One admission decision, as logged: which tenant, which round, what
/// was decided, and the numbers that drove it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShedRecord {
    /// Scheduling round.
    pub round: u64,
    /// Tenant index (fleet order).
    pub tenant: usize,
    /// Tenant name.
    pub name: String,
    /// The decision.
    pub decision: ShedDecision,
    /// The tenant's work-unit estimate at decision time.
    pub estimate: u64,
    /// Budget remaining (projected in phase one, actual in phase two)
    /// at decision time; `u64::MAX` when the budget is unlimited.
    pub remaining: u64,
}

/// One watchdog firing: an epoch ran over its admitted estimate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WatchdogTrip {
    /// Scheduling round.
    pub round: u64,
    /// Tenant index.
    pub tenant: usize,
    /// Measured epoch cost in work units.
    pub cost: u64,
    /// The cap it blew through (`watchdog_factor × estimate`).
    pub allowed: f64,
}

/// Per-decision counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ShedCounts {
    /// Epochs admitted at full budget.
    pub admitted: u64,
    /// Epochs run on the degraded budget.
    pub degraded: u64,
    /// Defer decisions (each later resolves to admit/degrade/reject).
    pub deferred: u64,
    /// Epochs rejected outright.
    pub rejected: u64,
}

/// Fleet-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FleetConfig {
    /// Shared work-unit budget per scheduling round (0 = unlimited).
    pub round_budget: u64,
    /// Work-unit estimate for a tenant that has never run (replaced by
    /// the measured cost after its first epoch).
    pub initial_estimate: u64,
    /// The tight budget a degraded epoch runs under.
    pub degraded_budget: SolveBudget,
    /// Consecutive failures (epoch execution or recovery) before a
    /// tenant is quarantined.
    pub max_consecutive_failures: u32,
    /// Watchdog trip threshold: an epoch costing more than this factor
    /// times its admitted estimate forces the tenant's next epoch onto
    /// the degraded budget. Use `f64::INFINITY` to disable.
    pub watchdog_factor: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            round_budget: 0,
            initial_estimate: 500,
            degraded_budget: SolveBudget { max_mip_nodes: 1_000, max_benders_iters: 2 },
            max_consecutive_failures: 3,
            watchdog_factor: 8.0,
        }
    }
}

impl FleetConfig {
    /// Validates the config: a positive failure threshold, a non-NaN
    /// watchdog factor, a positive initial estimate.
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.max_consecutive_failures == 0 {
            return Err(PlanError::ZeroAttempts { field: "fleet.max_consecutive_failures" });
        }
        if self.watchdog_factor.is_nan() || self.watchdog_factor <= 0.0 {
            return Err(PlanError::OutOfDomain {
                field: "fleet.watchdog_factor",
                value: self.watchdog_factor,
                requirement: "positive (INFINITY disables)",
            });
        }
        if self.initial_estimate == 0 {
            return Err(PlanError::ZeroAttempts { field: "fleet.initial_estimate" });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Tenants
// ---------------------------------------------------------------------------

enum TenantState<'a> {
    /// Live, with its durable controller.
    Running(Box<DurableController<'a, MemStore>>),
    /// Crashed (in-memory state gone); the store survives and the next
    /// round recovers from it.
    Crashed(MemStore),
    /// Permanently parked after too many consecutive failures.
    Quarantined {
        reason: String,
        at_round: u64,
    },
}

struct Tenant<'a> {
    spec: TenantSpec<'a>,
    state: TenantState<'a>,
    /// Work-unit estimate for the next epoch (last measured cost).
    estimate: u64,
    consecutive_failures: u32,
    /// Watchdog latch: the next epoch runs degraded.
    force_degrade: bool,
    recoveries: u64,
    executions: u64,
    counts: ShedCounts,
    watchdog_trips: u64,
    /// Chained FNV-1a over the fingerprints of epochs `0..fp_next`,
    /// each folded exactly once (recovery re-executions of
    /// already-folded epochs are skipped), so two runs that completed
    /// the same epochs with the same bytes agree regardless of where
    /// crashes fell.
    fp_digest: u64,
    fp_next: u64,
    /// Per-tenant telemetry series (work units, availability loss,
    /// decision latency…), fed once per first-fold epoch.
    series: SeriesSet,
    /// Burn-rate tracker, present iff the spec declared an SLO.
    slo: Option<SloTracker>,
    /// Solver anomaly detector over the tenant's stats stream.
    anomaly: SolverAnomalyDetector,
    /// SLO alerts fired over the run, chronological.
    alerts: Vec<SloAlert>,
    /// Solver anomalies fired over the run, chronological.
    anomalies: Vec<AnomalyEvent>,
}

impl<'a> Tenant<'a> {
    fn epoch(&self) -> u64 {
        match &self.state {
            TenantState::Running(ctl) => ctl.epoch(),
            // A crashed tenant's progress is whatever the journal
            // proves; conservatively 0 until recovery reports it. The
            // fleet only reads this for display/caps, and recovers
            // crashed tenants before scheduling them.
            TenantState::Crashed(_) => self.fp_next,
            TenantState::Quarantined { .. } => self.fp_next,
        }
    }

    fn is_active(&self) -> bool {
        !matches!(self.state, TenantState::Quarantined { .. })
    }

    /// The [`RoundOutcome::cache_ops`] sample of a running tenant at
    /// fleet index `i`.
    fn cache_sample(&self, i: usize) -> Option<(usize, u64, u64)> {
        let TenantState::Running(ctl) = &self.state else { return None };
        let cache = ctl.robust.inner.cache.borrow();
        Some((i, ctl.epoch(), (cache.hits() + cache.misses()) as u64))
    }

    fn fold_outcome(&mut self, out: &EpochOutcome, obs: &Recorder) -> Result<(), CheckpointError> {
        self.executions += 1;
        if out.record.epoch == self.fp_next {
            let (a, b) = out.fingerprint()?;
            self.fp_digest = fnv_fold(fnv_fold(self.fp_digest, a.as_bytes()), b.as_bytes());
            self.fp_next += 1;
            self.observe_telemetry(out, obs);
        }
        Ok(())
    }

    /// Feeds one epoch outcome into the tenant's telemetry: series,
    /// SLO burn tracking, and solver anomaly detection. Called only on
    /// first-fold epochs (recovery re-executions of already-folded
    /// epochs never reach here), so every epoch is observed exactly
    /// once regardless of where crashes fell — the telemetry stream is
    /// as bit-reproducible as the fingerprint digest.
    fn observe_telemetry(&mut self, out: &EpochOutcome, obs: &Recorder) {
        let epoch = out.record.epoch;
        let stats = &out.report.solver;
        let decision_ms =
            out.report.pipeline.as_ref().map(|p| p.decision_ms()).unwrap_or(0.0);
        self.series.record("solve.work_units", epoch, stats.work_units() as f64);
        self.series.record("solve.pivots", epoch, stats.pivots as f64);
        self.series.record("availability.loss", epoch, out.report.policy_max_loss);
        self.series.record("pipeline.decision_ms", epoch, decision_ms);
        self.series.record("warm.hit_rate", epoch, stats.warm_hit_rate());

        let sample = SolverSample {
            pivots: stats.pivots as u64,
            etas: stats.etas,
            refactorizations: stats.refactorizations,
            dense_fallbacks: stats.dense_fallbacks as u64,
            rollbacks: stats.rollbacks,
            warm_hits: stats.warm_hits as u64,
            warm_misses: stats.warm_misses as u64,
            refinements: stats.refinements,
            tightenings: stats.tightenings,
            patched_columns: stats.patched_columns,
            suspect_solves: stats.suspect_solves as u64,
            // Fold the float condition summary down to its decimal
            // exponent so the sample stays integral (Eq / replay-safe).
            condition_exponent: if stats.max_condition_estimate.is_finite()
                && stats.max_condition_estimate >= 1.0
            {
                stats.max_condition_estimate.log10().floor() as u64
            } else {
                0
            },
        };
        for ev in self.anomaly.observe(&self.spec.name, epoch, &sample) {
            obs.add("solver.anomalies", 1);
            obs.event_with("solver.anomaly", || {
                format!(
                    "tenant={} epoch={} stat={} kind={} value={} baseline={}",
                    ev.tenant,
                    ev.epoch,
                    ev.stat,
                    ev.kind.as_str(),
                    ev.value,
                    ev.baseline
                )
            });
            self.anomalies.push(ev);
        }

        if let Some(tracker) = &mut self.slo {
            let o = SloObservation {
                epoch,
                policy_max_loss: out.report.policy_max_loss,
                solve_work_units: stats.work_units(),
                decision_ms,
            };
            for alert in tracker.observe_epoch(&self.spec.name, &o) {
                obs.add("slo.alerts", 1);
                obs.event_with("slo.alert", || {
                    format!(
                        "tenant={} epoch={} kind={} burn_rate={:.3}",
                        alert.tenant,
                        alert.epoch,
                        alert.kind.as_str(),
                        alert.burn_rate
                    )
                });
                self.alerts.push(alert);
            }
        }
    }

    /// Scores one round's admission decision against the shed budget
    /// (anything but a full admit counts as shed). Called exactly once
    /// per tenant per round, at phase-one decision time — a deferred
    /// tenant's phase-two resolution never double-counts the round.
    fn observe_shed(&mut self, decision: ShedDecision, round: u64, obs: &Recorder) {
        let Some(tracker) = &mut self.slo else { return };
        let shed = decision != ShedDecision::Admit;
        if let Some(alert) = tracker.observe_shed(&self.spec.name, round, shed) {
            obs.add("slo.alerts", 1);
            obs.event_with("slo.alert", || {
                format!(
                    "tenant={} round={} kind={} burn_rate={:.3}",
                    alert.tenant,
                    alert.epoch,
                    alert.kind.as_str(),
                    alert.burn_rate
                )
            });
            self.alerts.push(alert);
        }
    }

    /// Whether admission should shelter this tenant: its availability
    /// error budget is burning at or above the sustainable rate.
    fn protected(&self) -> bool {
        self.slo.as_ref().is_some_and(|t| t.pressure())
    }

    /// Recovers a crashed tenant (or confirms a running one). Counts a
    /// failed recovery toward the quarantine threshold; on reaching
    /// it, parks the tenant. Returns the recovery's re-executed
    /// outcomes for invariant checking.
    fn ensure_running(
        &mut self,
        cfg: &FleetConfig,
        obs: &Recorder,
        round: u64,
    ) -> Result<Vec<EpochOutcome>, CheckpointError> {
        loop {
            match &mut self.state {
                TenantState::Running(_) | TenantState::Quarantined { .. } => {
                    return Ok(Vec::new())
                }
                TenantState::Crashed(store) => {
                    let snapshot = store.clone();
                    let robust = (self.spec.build)();
                    let w: &dyn EpochWorkload = self.spec.workload.as_ref();
                    match DurableController::recover(
                        robust,
                        snapshot,
                        self.spec.durable_config(),
                        &w,
                    ) {
                        Ok((ctl, rec)) => {
                            self.recoveries += 1;
                            self.consecutive_failures = 0;
                            obs.add("fleet.recoveries", 1);
                            obs.event_with("fleet.recovered", || {
                                format!(
                                    "tenant={} resumed_at={} reexecuted={}",
                                    self.spec.name,
                                    rec.resumed_at,
                                    rec.reexecuted.len()
                                )
                            });
                            let outcomes = rec.reexecuted;
                            for out in &outcomes {
                                self.fold_outcome(out, obs)?;
                            }
                            self.state = TenantState::Running(Box::new(ctl));
                            return Ok(outcomes);
                        }
                        Err(e) => {
                            self.consecutive_failures += 1;
                            obs.add("fleet.failures", 1);
                            if self.consecutive_failures >= cfg.max_consecutive_failures {
                                obs.add("fleet.quarantined", 1);
                                obs.event_with("fleet.quarantined", || {
                                    format!("tenant={} reason={e}", self.spec.name)
                                });
                                self.state =
                                    TenantState::Quarantined { reason: e.to_string(), at_round: round };
                                return Ok(Vec::new());
                            }
                            // Deterministic retry (the store is
                            // untouched); loops until quarantine.
                        }
                    }
                }
            }
        }
    }

    /// Runs one epoch under `decision` (Admit at the full budget,
    /// Degrade on the tight one). On execution failure the tenant
    /// crashes in place and recovery is attempted; repeated failure
    /// quarantines it. Returns the epoch's cost in work units and its
    /// outcome when one completed.
    fn run_epoch(
        &mut self,
        decision: ShedDecision,
        cfg: &FleetConfig,
        obs: &Recorder,
        round: u64,
    ) -> Result<(u64, Option<EpochOutcome>), CheckpointError> {
        let TenantState::Running(ctl) = &mut self.state else {
            return Ok((0, None));
        };
        let degraded = matches!(decision, ShedDecision::Degrade);
        ctl.robust.budget_override = degraded.then_some(cfg.degraded_budget);
        let w: &dyn EpochWorkload = self.spec.workload.as_ref();
        let result = ctl.run_epoch(&w);
        ctl.robust.budget_override = None;
        match result {
            Ok(out) => {
                // Deterministic work units — the currency of the
                // admission budget, identical across machines and
                // replays.
                let cost = out.report.solver.work_units();
                self.fold_outcome(&out, obs)?;
                let allowed = cfg.watchdog_factor * self.estimate as f64;
                let tripped = !degraded && (cost as f64) > allowed;
                if tripped {
                    self.watchdog_trips += 1;
                    obs.add("fleet.watchdog_trips", 1);
                    obs.event_with("fleet.watchdog-trip", || {
                        format!("tenant={} cost={cost} allowed={allowed}", self.spec.name)
                    });
                }
                // The latch: a tripped epoch degrades the next one; a
                // completed degraded epoch clears it.
                self.force_degrade = tripped;
                self.estimate = cost.max(1);
                self.consecutive_failures = 0;
                Ok((cost, Some(out)))
            }
            Err(e) => {
                // Crash in place: the in-memory controller dies, the
                // store survives, recovery runs (and counts the
                // failure toward quarantine).
                self.consecutive_failures += 1;
                obs.add("fleet.failures", 1);
                obs.event_with("fleet.epoch-failed", || {
                    format!("tenant={} error={e}", self.spec.name)
                });
                let state = std::mem::replace(
                    &mut self.state,
                    TenantState::Quarantined { reason: String::new(), at_round: round },
                );
                let TenantState::Running(ctl) = state else { unreachable!() };
                self.state = TenantState::Crashed(ctl.into_store());
                if self.consecutive_failures >= cfg.max_consecutive_failures {
                    obs.add("fleet.quarantined", 1);
                    self.state =
                        TenantState::Quarantined { reason: e.to_string(), at_round: round };
                } else {
                    // Recovery may itself fail (a poisoned journal
                    // record re-fails deterministically) and quarantine.
                    self.ensure_running(cfg, obs, round)?;
                }
                Ok((0, None))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The fleet runtime
// ---------------------------------------------------------------------------

/// Summary of one tenant at report time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Epochs completed (each folded into the fingerprint digest).
    pub epochs: u64,
    /// Epoch executions including recovery re-executions.
    pub executions: u64,
    /// Crash/restart cycles survived.
    pub recoveries: u64,
    /// Watchdog trips charged to this tenant.
    pub watchdog_trips: u64,
    /// Per-decision counters.
    pub shed: ShedCounts,
    /// Quarantine reason, if parked.
    pub quarantined: Option<String>,
    /// Round the quarantine happened at, if parked.
    pub quarantined_at_round: Option<u64>,
    /// Chained FNV-1a over every completed epoch's fingerprint.
    pub fingerprint_digest: u64,
}

/// Everything a fleet run produced: per-tenant summaries, the full
/// decision logs, fleet counters, and the deterministic [`RunReport`].
#[derive(Debug, Serialize)]
pub struct FleetReport {
    /// Scheduling rounds completed.
    pub rounds: u64,
    /// Per-tenant summaries, in fleet order.
    pub tenants: Vec<TenantSummary>,
    /// Every admission decision, in order.
    pub shed_log: Vec<ShedRecord>,
    /// Every watchdog trip, in order.
    pub watchdog_trips: Vec<WatchdogTrip>,
    /// Fleet-wide decision counters.
    pub shed: ShedCounts,
    /// Tenants currently quarantined.
    pub quarantined: usize,
    /// Total recoveries across the fleet.
    pub recoveries: u64,
    /// The fleet recorder's deterministic report (round and tenant
    /// spans under one logical clock, `fleet.*` / `slo.*` /
    /// `solver.*` counters and events).
    pub run: RunReport,
    /// The streaming-telemetry snapshot: per-tenant series, SLO
    /// status, fired alerts and solver anomalies, plus the
    /// order-independent fleet-wide series merge.
    pub telemetry: TelemetrySnapshot,
}

impl FleetReport {
    /// A single digest over every scheduling decision and every
    /// tenant's fingerprint digest. Two fleet runs with equal digests
    /// made the same decisions and produced bit-identical tenant
    /// epochs — the cheap way to assert determinism across repeat
    /// runs.
    pub fn decision_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for rec in &self.shed_log {
            h = fnv_fold(h, format!("{rec:?}").as_bytes());
        }
        for t in &self.tenants {
            h = fnv_fold(h, t.name.as_bytes());
            h = fnv_fold(h, &t.fingerprint_digest.to_le_bytes());
            h = fnv_fold(h, &t.epochs.to_le_bytes());
            h = fnv_fold(h, &[t.quarantined.is_some() as u8]);
        }
        h
    }
}

/// What one scheduling round did, for callers (the chaos soak) that
/// check invariants per epoch.
#[derive(Debug, Default)]
pub struct RoundOutcome {
    /// The round index.
    pub round: u64,
    /// Epochs executed this round: `(tenant index, outcome)`.
    pub executed: Vec<(usize, EpochOutcome)>,
    /// Recovery re-executions this round: `(tenant index, outcome)`.
    pub reexecuted: Vec<(usize, EpochOutcome)>,
    /// Decisions made this round.
    pub decisions: Vec<ShedRecord>,
    /// `(tenant index, epochs completed, cumulative warm-cache
    /// lookups)`, sampled after each recovery and each executed epoch.
    pub cache_ops: Vec<(usize, u64, u64)>,
}

/// The deterministic multi-tenant event loop. See the module docs.
pub struct Fleet<'a> {
    cfg: FleetConfig,
    tenants: Vec<Tenant<'a>>,
    obs: Recorder,
    round: u64,
    shed_log: Vec<ShedRecord>,
    watchdog_log: Vec<WatchdogTrip>,
}

impl<'a> Fleet<'a> {
    /// Builds a fleet: every tenant starts at genesis over an empty
    /// in-memory store.
    pub fn new(specs: Vec<TenantSpec<'a>>, cfg: FleetConfig) -> Result<Self, CheckpointError> {
        cfg.validate().map_err(CheckpointError::InvalidPlan)?;
        let obs = Recorder::deterministic();
        let mut tenants = Vec::with_capacity(specs.len());
        for spec in specs {
            if let Some(slo) = &spec.slo {
                slo.validate().map_err(|_| {
                    CheckpointError::InvalidPlan(PlanError::OutOfDomain {
                        field: "tenant.slo",
                        value: slo.error_budget,
                        requirement: "a valid SloSpec (see SloSpec::validate)",
                    })
                })?;
            }
            let robust = (spec.build)();
            let w: &dyn EpochWorkload = spec.workload.as_ref();
            let (ctl, _) =
                DurableController::recover(robust, MemStore::default(), spec.durable_config(), &w)?;
            let slo = spec.slo.clone().map(SloTracker::new);
            tenants.push(Tenant {
                spec,
                state: TenantState::Running(Box::new(ctl)),
                estimate: cfg.initial_estimate,
                consecutive_failures: 0,
                force_degrade: false,
                recoveries: 0,
                executions: 0,
                counts: ShedCounts::default(),
                watchdog_trips: 0,
                fp_digest: FNV_OFFSET,
                fp_next: 0,
                series: SeriesSet::new(SeriesConfig::default()),
                slo,
                anomaly: SolverAnomalyDetector::new(AnomalyConfig::default()),
                alerts: Vec::new(),
                anomalies: Vec::new(),
            });
        }
        Ok(Self { cfg, tenants, obs, round: 0, shed_log: Vec::new(), watchdog_log: Vec::new() })
    }

    /// Number of tenants (including quarantined ones).
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the fleet has no tenants.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Epochs completed by tenant `i`.
    pub fn tenant_epoch(&self, i: usize) -> u64 {
        self.tenants[i].epoch()
    }

    /// Whether tenant `i` is quarantined, and why.
    pub fn quarantine_reason(&self, i: usize) -> Option<&str> {
        match &self.tenants[i].state {
            TenantState::Quarantined { reason, .. } => Some(reason),
            _ => None,
        }
    }

    /// Simulates a process crash of tenant `i`: its in-memory state
    /// dies and `damage` is applied to the surviving store (checkpoint
    /// corruption, journal truncation — or nothing, for a clean kill).
    /// The next round recovers it. No-op on non-running tenants;
    /// returns whether the crash landed.
    pub fn inject_crash(&mut self, i: usize, damage: impl FnOnce(&mut MemStore)) -> bool {
        let t = &mut self.tenants[i];
        if !matches!(t.state, TenantState::Running(_)) {
            return false;
        }
        let state = std::mem::replace(
            &mut t.state,
            TenantState::Quarantined { reason: String::new(), at_round: self.round },
        );
        let TenantState::Running(ctl) = state else { unreachable!() };
        let mut store = ctl.into_store();
        damage(&mut store);
        t.state = TenantState::Crashed(store);
        self.obs.event_with("fleet.chaos-crash", || format!("tenant={}", t.spec.name));
        true
    }

    /// Simulates a crash *between* the write-ahead journal append and
    /// the epoch execution of tenant `i`: the staged epoch must
    /// re-execute on recovery. Returns whether the crash landed.
    pub fn inject_crash_mid_solve(&mut self, i: usize) -> Result<bool, CheckpointError> {
        let t = &mut self.tenants[i];
        let TenantState::Running(ctl) = &mut t.state else {
            return Ok(false);
        };
        ctl.stage_epoch()?;
        Ok(self.inject_crash(i, |_| {}))
    }

    /// Runs one scheduling round: recover crashed tenants, make one
    /// [`ShedDecision`] per active tenant under the shared budget,
    /// execute the admitted and degraded epochs (deferred ones retry
    /// on the actual leftover), and log everything. Tenants whose
    /// epoch count is at or past `cap` idle this round (no decision);
    /// pass `None` for the always-on service shape.
    pub fn run_round(&mut self, cap: Option<u64>) -> Result<RoundOutcome, CheckpointError> {
        self.round += 1;
        let round = self.round;
        let Self { cfg, tenants, obs, shed_log, watchdog_log, .. } = self;
        let span = obs.span("round");
        obs.annotate("round", &round.to_string());
        let mut out = RoundOutcome { round, ..RoundOutcome::default() };

        // Recover any tenant the chaos layer (or a failure) crashed.
        for (i, t) in tenants.iter_mut().enumerate() {
            if matches!(t.state, TenantState::Crashed(_)) {
                let _t_span = obs.span(&format!("tenant:{}", t.spec.name));
                for o in t.ensure_running(cfg, obs, round)? {
                    out.reexecuted.push((i, o));
                }
                out.cache_ops.extend(t.cache_sample(i));
            }
        }

        let eligible = |t: &Tenant<'_>| {
            matches!(t.state, TenantState::Running(_)) && cap.is_none_or(|c| t.epoch() < c)
        };

        // Phase one: project admissions against the budget using the
        // estimates, running admitted/degraded tenants immediately.
        let budget = if cfg.round_budget == 0 { u64::MAX } else { cfg.round_budget };
        let mut reserved = 0u64;
        let mut spent = 0u64;
        let mut deferred: Vec<usize> = Vec::new();
        for (i, tenant) in tenants.iter_mut().enumerate() {
            if !eligible(tenant) {
                continue;
            }
            let est = tenant.estimate;
            let degraded_cost = (est / 4).max(1);
            let decision = if tenant.force_degrade {
                ShedDecision::Degrade
            } else if reserved.saturating_add(est) <= budget {
                ShedDecision::Admit
            } else if tenant.protected() {
                // Budget-aware shedding: a tenant burning its
                // availability error budget is not pushed into the
                // degraded ladder; it defers to phase two, where the
                // actual leftover (admitted epochs often undershoot
                // their estimates) may admit it at full budget.
                obs.add("fleet.shed.protect", 1);
                ShedDecision::Defer
            } else if reserved.saturating_add(degraded_cost) <= budget {
                ShedDecision::Degrade
            } else {
                ShedDecision::Defer
            };
            let remaining = budget - reserved.min(budget);
            let rec = ShedRecord {
                round,
                tenant: i,
                name: tenant.spec.name.clone(),
                decision,
                estimate: est,
                remaining,
            };
            obs.event_with("fleet.shed", || {
                format!(
                    "tenant={} round={round} decision={decision:?} estimate={est} remaining={remaining}",
                    rec.name
                )
            });
            tenant.observe_shed(decision, round, obs);
            shed_log.push(rec.clone());
            out.decisions.push(rec);
            match decision {
                ShedDecision::Admit | ShedDecision::Degrade => {
                    reserved = reserved
                        .saturating_add(if decision == ShedDecision::Admit { est } else { degraded_cost });
                    if decision == ShedDecision::Admit {
                        tenant.counts.admitted += 1;
                        obs.add("fleet.shed.admit", 1);
                    } else {
                        tenant.counts.degraded += 1;
                        obs.add("fleet.shed.degrade", 1);
                    }
                    let _t_span = obs.span(&format!("tenant:{}", tenant.spec.name));
                    obs.annotate("decision", &format!("{decision:?}"));
                    let est_before = tenant.estimate;
                    let trips_before = tenant.watchdog_trips;
                    let (cost, outcome) = tenant.run_epoch(decision, cfg, obs, round)?;
                    if tenant.watchdog_trips > trips_before {
                        watchdog_log.push(WatchdogTrip {
                            round,
                            tenant: i,
                            cost,
                            allowed: cfg.watchdog_factor * est_before as f64,
                        });
                    }
                    spent = spent.saturating_add(cost);
                    if let Some(o) = outcome {
                        out.executed.push((i, o));
                        out.cache_ops.extend(tenant.cache_sample(i));
                    }
                }
                ShedDecision::Defer => {
                    tenant.counts.deferred += 1;
                    obs.add("fleet.shed.defer", 1);
                    deferred.push(i);
                }
                ShedDecision::Reject => unreachable!("phase one never rejects"),
            }
        }

        // Phase two: deferred tenants get the *actual* leftover (the
        // admitted epochs may have cost less than their estimates).
        for i in deferred {
            if !eligible(&tenants[i]) {
                continue;
            }
            let est = tenants[i].estimate;
            let degraded_cost = (est / 4).max(1);
            let remaining = budget - spent.min(budget);
            let decision = if remaining >= est {
                ShedDecision::Admit
            } else if remaining >= degraded_cost {
                ShedDecision::Degrade
            } else {
                ShedDecision::Reject
            };
            let rec = ShedRecord {
                round,
                tenant: i,
                name: tenants[i].spec.name.clone(),
                decision,
                estimate: est,
                remaining,
            };
            // The phase-one Defer already fed the shed-budget tracker
            // for this round; only the event is emitted here.
            obs.event_with("fleet.shed", || {
                format!(
                    "tenant={} round={round} decision={decision:?} estimate={est} remaining={remaining}",
                    rec.name
                )
            });
            shed_log.push(rec.clone());
            out.decisions.push(rec);
            match decision {
                ShedDecision::Reject => {
                    tenants[i].counts.rejected += 1;
                    obs.add("fleet.shed.reject", 1);
                }
                decision => {
                    if decision == ShedDecision::Admit {
                        tenants[i].counts.admitted += 1;
                        obs.add("fleet.shed.admit", 1);
                    } else {
                        tenants[i].counts.degraded += 1;
                        obs.add("fleet.shed.degrade", 1);
                    }
                    let _t_span = obs.span(&format!("tenant:{}", tenants[i].spec.name));
                    obs.annotate("decision", &format!("{decision:?}"));
                    let est_before = tenants[i].estimate;
                    let trips_before = tenants[i].watchdog_trips;
                    let (cost, outcome) = tenants[i].run_epoch(decision, cfg, obs, round)?;
                    if tenants[i].watchdog_trips > trips_before {
                        watchdog_log.push(WatchdogTrip {
                            round,
                            tenant: i,
                            cost,
                            allowed: cfg.watchdog_factor * est_before as f64,
                        });
                    }
                    spent = spent.saturating_add(cost);
                    if let Some(o) = outcome {
                        out.executed.push((i, o));
                        out.cache_ops.extend(tenants[i].cache_sample(i));
                    }
                }
            }
        }

        obs.add("fleet.epochs", out.executed.len() as u64);
        drop(span);
        Ok(out)
    }

    /// Runs `rounds` scheduling rounds with no per-tenant epoch cap.
    pub fn run(&mut self, rounds: u64) -> Result<(), CheckpointError> {
        for _ in 0..rounds {
            self.run_round(None)?;
        }
        Ok(())
    }

    /// The fleet report: summaries, logs, counters, and the
    /// deterministic run report.
    pub fn report(&self) -> FleetReport {
        let tenants: Vec<TenantSummary> = self
            .tenants
            .iter()
            .map(|t| TenantSummary {
                name: t.spec.name.clone(),
                epochs: t.fp_next,
                executions: t.executions,
                recoveries: t.recoveries,
                watchdog_trips: t.watchdog_trips,
                shed: t.counts,
                quarantined: match &t.state {
                    TenantState::Quarantined { reason, .. } => Some(reason.clone()),
                    _ => None,
                },
                quarantined_at_round: match &t.state {
                    TenantState::Quarantined { at_round, .. } => Some(*at_round),
                    _ => None,
                },
                fingerprint_digest: t.fp_digest,
            })
            .collect();
        let shed = tenants.iter().fold(ShedCounts::default(), |mut acc, t| {
            acc.admitted += t.shed.admitted;
            acc.degraded += t.shed.degraded;
            acc.deferred += t.shed.deferred;
            acc.rejected += t.shed.rejected;
            acc
        });
        let mut fleet_series = SeriesSet::new(SeriesConfig::default());
        let mut telemetry_tenants: Vec<TenantTelemetry> = self
            .tenants
            .iter()
            .map(|t| {
                fleet_series.merge(&t.series);
                TenantTelemetry {
                    tenant: t.spec.name.clone(),
                    series: t.series.snapshot(),
                    slo: t.slo.as_ref().map(|s| s.status()),
                    alerts: t.alerts.clone(),
                    anomalies: t.anomalies.clone(),
                }
            })
            .collect();
        telemetry_tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        let telemetry = TelemetrySnapshot {
            tenants: telemetry_tenants,
            fleet: fleet_series.snapshot(),
        };
        FleetReport {
            rounds: self.round,
            quarantined: tenants.iter().filter(|t| t.quarantined.is_some()).count(),
            recoveries: tenants.iter().map(|t| t.recoveries).sum(),
            tenants,
            shed_log: self.shed_log.clone(),
            watchdog_trips: self.watchdog_log.clone(),
            shed,
            run: self.obs.report(),
            telemetry,
        }
    }
}

// ---------------------------------------------------------------------------
// Chaos soak
// ---------------------------------------------------------------------------

/// A process-level chaos event, injected at one `(tenant, epoch)` of a
/// soak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetChaosEvent {
    /// Kill the tenant after the epoch completes; recover next round.
    Crash,
    /// Kill the tenant after the write-ahead append, before execution.
    CrashMidSolve,
    /// Overwrite the tenant's checkpoint blob with garbage, then
    /// crash.
    CorruptCheckpoint,
    /// Drop the tenant's final journal record (torn tail), then crash.
    StaleJournalTail,
}

impl FleetChaosEvent {
    const ALL: [FleetChaosEvent; 4] = [
        FleetChaosEvent::Crash,
        FleetChaosEvent::CrashMidSolve,
        FleetChaosEvent::CorruptCheckpoint,
        FleetChaosEvent::StaleJournalTail,
    ];
}

/// A seeded chaos schedule over a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetChaosPlan {
    /// Master seed for the event schedule.
    pub seed: u64,
    /// Epochs each tenant must complete.
    pub epochs: u64,
    /// Per-(tenant, epoch) probability of injecting an event.
    pub crash_prob: f64,
    /// Invariant: every policy's max β-loss stays at or below this.
    pub availability_floor: f64,
}

impl FleetChaosPlan {
    /// A plan with the default soak shape.
    pub fn new(seed: u64, epochs: u64) -> Self {
        Self { seed, epochs, crash_prob: 0.3, availability_floor: 1.0 }
    }

    /// Validates the plan.
    pub fn validate(&self) -> Result<(), PlanError> {
        if !(0.0..=1.0).contains(&self.crash_prob) || self.crash_prob.is_nan() {
            return Err(PlanError::ProbabilityOutOfRange {
                field: "fleet_chaos.crash_prob",
                value: self.crash_prob,
            });
        }
        if self.epochs == 0 {
            return Err(PlanError::ZeroAttempts { field: "fleet_chaos.epochs" });
        }
        if !self.availability_floor.is_finite() || self.availability_floor < 0.0 {
            return Err(PlanError::OutOfDomain {
                field: "fleet_chaos.availability_floor",
                value: self.availability_floor,
                requirement: "finite and >= 0",
            });
        }
        Ok(())
    }

    /// The deterministic schedule: `schedule[tenant][epoch]`. Each
    /// tenant's stream is salted with its index, so adding a tenant
    /// never reshuffles the others' events.
    pub fn schedule(&self, tenants: usize) -> Vec<Vec<Option<FleetChaosEvent>>> {
        (0..tenants)
            .map(|t| {
                let mut rng =
                    StdRng::seed_from_u64(self.seed ^ 0xf1ee_7c40 ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                (0..self.epochs)
                    .map(|_| {
                        rng.gen_bool(self.crash_prob)
                            .then(|| FleetChaosEvent::ALL[rng.gen_range(0..FleetChaosEvent::ALL.len())])
                    })
                    .collect()
            })
            .collect()
    }
}

/// One invariant violation in a fleet soak.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetViolation {
    /// Tenant index the violating epoch belongs to.
    pub tenant: usize,
    /// Tenant name.
    pub name: String,
    /// Epoch whose execution violated the invariant.
    pub epoch: u64,
    /// The chaos event charged with it, if any.
    pub event: Option<FleetChaosEvent>,
    /// Which invariant broke.
    pub invariant: String,
    /// Human-readable evidence.
    pub detail: String,
}

/// A minimal reproducing tuple: replaying `seed` with exactly one
/// `event` against `tenant` at `epoch` (or no event at all)
/// reproduces the violation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetShrunkRepro {
    /// The plan seed.
    pub seed: u64,
    /// The tenant the minimal event fires against.
    pub tenant: usize,
    /// The epoch it fires at.
    pub epoch: u64,
    /// The single event needed, or `None` if the violation is
    /// chaos-independent.
    pub event: Option<FleetChaosEvent>,
    /// The invariant the minimal repro violates.
    pub invariant: String,
}

/// Everything one fleet soak produced.
#[derive(Debug, Serialize)]
pub struct FleetSoakReport {
    /// The plan that ran.
    pub plan: FleetChaosPlan,
    /// Tenants in the fleet.
    pub tenants: usize,
    /// Scheduling rounds used.
    pub rounds: u64,
    /// Events injected: `(tenant, epoch, event)`.
    pub events_injected: Vec<(usize, u64, FleetChaosEvent)>,
    /// The first invariant violation, if any.
    pub violation: Option<FleetViolation>,
    /// The minimized repro, present iff `violation` is.
    pub shrunk: Option<FleetShrunkRepro>,
    /// The fleet report of the soak run.
    pub fleet: FleetReport,
}

/// Per-tenant golden fingerprints from uninterrupted solo runs.
fn solo_fingerprints(
    specs: &[TenantSpec<'_>],
    epochs: u64,
) -> Result<Vec<Vec<(String, String)>>, CheckpointError> {
    specs
        .iter()
        .map(|spec| {
            let w: &dyn EpochWorkload = spec.workload.as_ref();
            let (mut ctl, _) = DurableController::recover(
                (spec.build)(),
                MemStore::default(),
                spec.durable_config(),
                &w,
            )?;
            (0..epochs).map(|_| ctl.run_epoch(&w)?.fingerprint()).collect()
        })
        .collect()
}

fn check_outcome(
    tenant: usize,
    name: &str,
    out: &EpochOutcome,
    event: Option<FleetChaosEvent>,
    floor: f64,
    golden: &[(String, String)],
) -> Option<FleetViolation> {
    let fail = |invariant: &str, detail: String| {
        Some(FleetViolation {
            tenant,
            name: name.to_string(),
            epoch: out.record.epoch,
            event,
            invariant: invariant.into(),
            detail,
        })
    };
    let loss = out.report.policy_max_loss;
    if !loss.is_finite() || loss > floor {
        return fail("availability-floor", format!("policy_max_loss={loss} exceeds floor={floor}"));
    }
    if let Some(bad) = out.report.policy.allocation.iter().find(|a| !a.is_finite()) {
        return fail("finite-allocation", format!("non-finite allocation entry {bad}"));
    }
    if let Err(e) = out.run.validate_spans() {
        return fail("span-tree", e);
    }
    match out.fingerprint() {
        Err(e) => fail("bit-identity", format!("fingerprint failed: {e}")),
        Ok(fp) => match golden.get(out.record.epoch as usize) {
            None => fail(
                "bit-identity",
                format!("epoch {} past the golden horizon", out.record.epoch),
            ),
            Some(want) if &fp != want => fail(
                "bit-identity",
                format!("epoch {} diverged from the solo run", out.record.epoch),
            ),
            Some(_) => None,
        },
    }
}

/// Samples one tenant's cumulative warm-cache lookups at `epoch` epochs
/// completed. Re-visiting an epoch count (a crash rolled the tenant
/// back, or restored it in place) must find the same value — the
/// checkpoint resumes the exact counters — and a later count must not
/// regress.
fn sample_counters(
    seen: &mut BTreeMap<u64, u64>,
    tenant: usize,
    name: &str,
    epoch: u64,
    ops: u64,
) -> Option<FleetViolation> {
    let detail = match seen.get(&epoch) {
        Some(&prev) if prev != ops => {
            format!("cache ops at {epoch} epochs changed across recovery: {prev} → {ops}")
        }
        Some(_) => return None,
        None => match seen.range(..epoch).next_back() {
            Some((&at, &prev)) if ops < prev => {
                format!("cache ops regressed: {prev}@{at} → {ops}@{epoch}")
            }
            _ => {
                seen.insert(epoch, ops);
                return None;
            }
        },
    };
    Some(FleetViolation {
        tenant,
        name: name.to_string(),
        epoch,
        event: None,
        invariant: "monotone-counters".into(),
        detail,
    })
}

/// Runs one fleet soak under an explicit schedule. The soak disables
/// shedding and the watchdog (`round_budget = 0`, infinite factor):
/// its invariant is *isolation* — every surviving tenant must match
/// its uninterrupted solo run byte for byte, which a deliberately
/// degraded epoch would (correctly, but uninterestingly) break. Shed
/// determinism is asserted separately via [`FleetReport::decision_digest`].
fn fleet_soak_with_schedule<'a>(
    specs: Vec<TenantSpec<'a>>,
    base_cfg: &FleetConfig,
    plan: &FleetChaosPlan,
    schedule: &[Vec<Option<FleetChaosEvent>>],
    goldens: &[Vec<(String, String)>],
) -> Result<FleetSoakReport, CheckpointError> {
    let cfg = FleetConfig {
        round_budget: 0,
        watchdog_factor: f64::INFINITY,
        ..*base_cfg
    };
    // Every soak tenant gets at least a fully lenient SLO: no kind can
    // ever violate on a healthy stream, so any alert fired during the
    // soak is spurious by construction (checked below).
    let specs: Vec<TenantSpec<'a>> = specs
        .into_iter()
        .map(|mut s| {
            s.slo.get_or_insert_with(SloSpec::default);
            s
        })
        .collect();
    let n = specs.len();
    let mut fleet = Fleet::new(specs, cfg)?;
    let mut schedule: Vec<Vec<Option<FleetChaosEvent>>> = schedule.to_vec();
    let mut events_injected = Vec::new();
    let mut violation: Option<FleetViolation> = None;
    let mut counters = vec![BTreeMap::new(); n];
    // A tenant completes `plan.epochs` epochs in at most that many
    // rounds plus one round per injected event; anything past that is
    // a stuck fleet, itself a violation.
    let max_rounds = plan.epochs * 2 + n as u64 * plan.epochs + 8;

    let done = |fleet: &Fleet<'_>| {
        (0..fleet.len()).all(|i| {
            !fleet.tenants[i].is_active() || fleet.tenant_epoch(i) >= plan.epochs
        })
    };

    while violation.is_none() && !done(&fleet) {
        if fleet.round >= max_rounds {
            violation = Some(FleetViolation {
                tenant: 0,
                name: "<fleet>".into(),
                epoch: 0,
                event: None,
                invariant: "progress".into(),
                detail: format!("fleet stuck after {max_rounds} rounds"),
            });
            break;
        }
        // Pre-round: mid-solve crashes fire before the epoch runs.
        // (Indexing rather than iterating: `fleet` is re-borrowed
        // mutably inside the loop body.)
        #[allow(clippy::needless_range_loop)]
        for t in 0..n {
            if !matches!(fleet.tenants[t].state, TenantState::Running(_)) {
                continue;
            }
            let e = fleet.tenant_epoch(t);
            if e >= plan.epochs {
                continue;
            }
            if let Some(slot) = schedule[t].get_mut(e as usize) {
                if *slot == Some(FleetChaosEvent::CrashMidSolve) {
                    slot.take();
                    if fleet.inject_crash_mid_solve(t)? {
                        events_injected.push((t, e, FleetChaosEvent::CrashMidSolve));
                    }
                }
            }
        }

        let round_out = fleet.run_round(Some(plan.epochs))?;

        // Invariants over recovery re-executions and fresh epochs.
        for (t, out) in round_out.reexecuted.iter().chain(round_out.executed.iter()) {
            let name = fleet.tenants[*t].spec.name.clone();
            if let Some(v) =
                check_outcome(*t, &name, out, None, plan.availability_floor, &goldens[*t])
            {
                violation = Some(v);
                break;
            }
        }
        // Warm-cache counters and the recovery lifecycle report, after
        // every recovery and every fresh epoch.
        violation = violation.or_else(|| {
            round_out.cache_ops.iter().find_map(|&(t, epoch, ops)| {
                let tenant = &fleet.tenants[t];
                let name = &tenant.spec.name;
                sample_counters(&mut counters[t], t, name, epoch, ops).or_else(|| {
                    let TenantState::Running(ctl) = &tenant.state else { return None };
                    let e = ctl.lifecycle_report().validate_spans().err()?;
                    Some(FleetViolation {
                        tenant: t,
                        name: name.clone(),
                        epoch,
                        event: None,
                        invariant: "span-tree".into(),
                        detail: format!("lifecycle report: {e}"),
                    })
                })
            })
        });
        if violation.is_some() {
            break;
        }

        // Post-round: crash/corrupt/stale events charged to the epoch
        // that just completed.
        for (t, out) in &round_out.executed {
            let e = out.record.epoch;
            let Some(slot) = schedule[*t].get_mut(e as usize) else { continue };
            let Some(event) = *slot else { continue };
            if event == FleetChaosEvent::CrashMidSolve {
                continue; // fires pre-round, at its own epoch
            }
            slot.take();
            let landed = match event {
                FleetChaosEvent::Crash => fleet.inject_crash(*t, |_| {}),
                FleetChaosEvent::CorruptCheckpoint => fleet.inject_crash(*t, |s| {
                    s.checkpoint = Some("{corrupted by fleet chaos".into());
                }),
                FleetChaosEvent::StaleJournalTail => fleet.inject_crash(*t, |s| {
                    s.journal.pop();
                }),
                FleetChaosEvent::CrashMidSolve => unreachable!(),
            };
            if landed {
                events_injected.push((*t, e, event));
            }
        }
    }

    // The fleet-level span tree must stay well-formed.
    let report = fleet.report();
    if violation.is_none() {
        if let Err(e) = report.run.validate_spans() {
            violation = Some(FleetViolation {
                tenant: 0,
                name: "<fleet>".into(),
                epoch: 0,
                event: None,
                invariant: "span-tree".into(),
                detail: format!("fleet report: {e}"),
            });
        }
    }
    // Spurious alerts: under the lenient soak SLOs, recoverable chaos
    // must never fire a burn-rate alert — telemetry is fed exactly
    // once per epoch, so crash/recover cycles cannot double-count
    // violations into a window.
    if violation.is_none() {
        if let Some((i, t)) = report
            .telemetry
            .tenants
            .iter()
            .enumerate()
            .find(|(_, t)| !t.alerts.is_empty())
        {
            let a = &t.alerts[0];
            violation = Some(FleetViolation {
                tenant: i,
                name: t.tenant.clone(),
                epoch: a.epoch,
                event: None,
                invariant: "spurious-alert".into(),
                detail: format!(
                    "lenient SLO fired {} alert(s); first: kind={} burn_rate={}",
                    t.alerts.len(),
                    a.kind.as_str(),
                    a.burn_rate
                ),
            });
        }
    }
    // Isolation: with only crash/corrupt/stale events injected, no
    // tenant may end up quarantined — recovery must absorb them all.
    if violation.is_none() {
        if let Some((i, t)) =
            report.tenants.iter().enumerate().find(|(_, t)| t.quarantined.is_some())
        {
            violation = Some(FleetViolation {
                tenant: i,
                name: t.name.clone(),
                epoch: t.epochs,
                event: None,
                invariant: "isolation".into(),
                detail: format!(
                    "tenant quarantined by recoverable chaos: {}",
                    t.quarantined.clone().unwrap_or_default()
                ),
            });
        }
    }

    Ok(FleetSoakReport {
        plan: *plan,
        tenants: n,
        rounds: report.rounds,
        events_injected,
        violation,
        shrunk: None,
        fleet: report,
    })
}

/// Shrinks a fleet violation to a minimal `(seed, tenant, epoch,
/// event)` tuple: first an eventless fleet run (is the violation
/// chaos-independent?), then each injected event alone. Falls back to
/// the original coordinates when no single event reproduces it.
fn fleet_shrink<'a, F>(
    mk_specs: &F,
    cfg: &FleetConfig,
    plan: &FleetChaosPlan,
    events: &[(usize, u64, FleetChaosEvent)],
    goldens: &[Vec<(String, String)>],
    found: &FleetViolation,
) -> Result<FleetShrunkRepro, CheckpointError>
where
    F: Fn() -> Vec<TenantSpec<'a>>,
{
    let n = goldens.len();
    let empty = vec![vec![None; plan.epochs as usize]; n];
    let clean = fleet_soak_with_schedule(mk_specs(), cfg, plan, &empty, goldens)?;
    if let Some(v) = clean.violation {
        return Ok(FleetShrunkRepro {
            seed: plan.seed,
            tenant: v.tenant,
            epoch: v.epoch,
            event: None,
            invariant: v.invariant,
        });
    }
    for &(tenant, epoch, event) in events {
        let mut single = vec![vec![None; plan.epochs as usize]; n];
        single[tenant][epoch as usize] = Some(event);
        let run = fleet_soak_with_schedule(mk_specs(), cfg, plan, &single, goldens)?;
        if let Some(v) = run.violation {
            return Ok(FleetShrunkRepro {
                seed: plan.seed,
                tenant,
                epoch,
                event: Some(event),
                invariant: v.invariant,
            });
        }
    }
    Ok(FleetShrunkRepro {
        seed: plan.seed,
        tenant: found.tenant,
        epoch: found.epoch,
        event: found.event,
        invariant: found.invariant.clone(),
    })
}

/// Runs one full fleet chaos soak: per-tenant golden solo runs, then
/// the seeded cross-tenant kill/corrupt schedule with invariant
/// checking, then — on violation — shrinking to a minimal
/// `(seed, tenant, epoch, event)` repro.
///
/// `mk_specs` must build fresh genesis specs on every call (it is
/// invoked for the golden runs, the soak itself, and each shrink
/// candidate).
pub fn fleet_chaos_soak<'a, F>(
    mk_specs: &F,
    cfg: &FleetConfig,
    plan: &FleetChaosPlan,
) -> Result<FleetSoakReport, CheckpointError>
where
    F: Fn() -> Vec<TenantSpec<'a>>,
{
    plan.validate().map_err(CheckpointError::InvalidPlan)?;
    cfg.validate().map_err(CheckpointError::InvalidPlan)?;
    let golden_specs = mk_specs();
    let goldens = solo_fingerprints(&golden_specs, plan.epochs)?;
    drop(golden_specs);
    let schedule = plan.schedule(goldens.len());
    let mut report = fleet_soak_with_schedule(mk_specs(), cfg, plan, &schedule, &goldens)?;
    if let Some(v) = report.violation.clone() {
        report.shrunk = Some(fleet_shrink(
            mk_specs,
            cfg,
            plan,
            &report.events_injected.clone(),
            &goldens,
            &v,
        )?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::ScriptedWorkload;
    use crate::faults::{FaultPlan, TunnelFaults};
    use crate::robust::RetryPolicy;
    use crate::Controller;
    use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
    use prete_core::examples::{triangle, triangle_flows};
    use prete_core::prelude::*;
    use prete_nn::Predictor;
    use prete_optical::trace::LossTrace;
    use prete_optical::DegradationEvent;

    struct OptimistPredictor;
    impl Predictor for OptimistPredictor {
        fn predict_proba(&self, _e: &DegradationEvent) -> f64 {
            0.8
        }
    }

    /// Leaves for one tenant, fully owned so a test can hold several.
    struct Leaves {
        net: Network,
        model: FailureModel,
        flows: Vec<Flow>,
        base: TunnelSet,
        scheme: PreTeScheme,
        predictor: OptimistPredictor,
    }

    fn leaves(seed: u64) -> Leaves {
        leaves_with_demand(seed, 4.0)
    }

    /// Like [`leaves`], with a custom per-flow demand. Demands past
    /// the triangle's protected capacity leave `policy_max_loss > 0`,
    /// which availability-SLO tests rely on.
    fn leaves_with_demand(seed: u64, demand_gbps: f64) -> Leaves {
        let net = triangle();
        let model = FailureModel::new(&net, seed);
        let flows: Vec<Flow> =
            triangle_flows().into_iter().map(|f| Flow { demand_gbps, ..f }).collect();
        let base = TunnelSet::initialize(&net, &flows, 1);
        let truth = TrueConditionals::ground_truth(&net, &model, 50, 1);
        let scheme = PreTeScheme::new(0.99, ProbabilityEstimator::prete(&model, &truth));
        Leaves { net, model, flows, base, scheme, predictor: OptimistPredictor }
    }

    fn spec_over<'a>(l: &'a Leaves, name: &str, run_seed: u64) -> TenantSpec<'a> {
        TenantSpec::new(
            name,
            move || {
                RobustController::new(
                    Controller::new(&l.net, &l.model, &l.flows, &l.base, &l.predictor, &l.scheme),
                    SolveMethod::benders(),
                    RetryPolicy::default(),
                )
            },
            ScriptedWorkload::new(l.net.fibers().len()),
            run_seed,
        )
    }

    #[test]
    fn fleet_runs_tenants_in_isolation_and_matches_solo_runs() {
        let la = leaves(42);
        let lb = leaves(43);
        let epochs = 4u64;

        // Solo goldens.
        let solo = |spec: &TenantSpec<'_>| -> Vec<(String, String)> {
            let w: &dyn EpochWorkload = spec.workload.as_ref();
            let (mut ctl, _) = DurableController::recover(
                (spec.build)(),
                MemStore::default(),
                spec.durable_config(),
                &w,
            )
            .unwrap();
            (0..epochs).map(|_| ctl.run_epoch(&w).unwrap().fingerprint().unwrap()).collect()
        };
        let golden_a = solo(&spec_over(&la, "a", 7));
        let golden_b = solo(&spec_over(&lb, "b", 8));

        let mut fleet = Fleet::new(
            vec![spec_over(&la, "a", 7), spec_over(&lb, "b", 8)],
            FleetConfig::default(),
        )
        .unwrap();
        let mut got: Vec<Vec<(String, String)>> = vec![Vec::new(), Vec::new()];
        while (0..2).any(|i| fleet.tenant_epoch(i) < epochs) {
            let out = fleet.run_round(Some(epochs)).unwrap();
            for (t, o) in out.executed {
                got[t].push(o.fingerprint().unwrap());
            }
        }
        assert_eq!(got[0], golden_a, "tenant a diverged from its solo run");
        assert_eq!(got[1], golden_b, "tenant b diverged from its solo run");

        let report = fleet.report();
        assert_eq!(report.tenants[0].epochs, epochs);
        assert_eq!(report.tenants[1].epochs, epochs);
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.shed.admitted, 2 * epochs);
        report.run.validate_spans().unwrap();
        // Fleet counters made it into the run report.
        assert_eq!(report.run.counters["fleet.shed.admit"], 2 * epochs);
    }

    #[test]
    fn tight_budget_sheds_deterministically() {
        let run = || {
            let la = leaves(42);
            let lb = leaves(43);
            let lc = leaves(44);
            let cfg = FleetConfig {
                // Enough for roughly one full-budget tenant per round:
                // the others degrade, defer or reject.
                round_budget: 600,
                initial_estimate: 500,
                ..FleetConfig::default()
            };
            let mut fleet = Fleet::new(
                vec![
                    spec_over(&la, "a", 7),
                    spec_over(&lb, "b", 8),
                    spec_over(&lc, "c", 9),
                ],
                cfg,
            )
            .unwrap();
            fleet.run(5).unwrap();
            let report = fleet.report();
            (report.decision_digest(), report.shed, report.shed_log.clone())
        };
        let (d1, shed, log) = run();
        let (d2, shed2, log2) = run();
        assert_eq!(d1, d2, "shed decisions diverged across identical runs");
        assert_eq!(shed, shed2);
        assert_eq!(log, log2);
        // The budget actually bit: not every epoch was admitted full.
        assert!(
            shed.degraded + shed.deferred + shed.rejected > 0,
            "budget 600 must shed something: {shed:?}"
        );
        // And shedding kept the fleet alive: every decision logged.
        assert!(!log.is_empty());
    }

    #[test]
    fn watchdog_trips_and_degrades_the_next_epoch() {
        let la = leaves(42);
        let cfg = FleetConfig {
            // Impossible estimate: the first epoch trips the watchdog.
            initial_estimate: 1,
            watchdog_factor: 1.0,
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(vec![spec_over(&la, "a", 7)], cfg).unwrap();
        fleet.run(3).unwrap();
        let report = fleet.report();
        assert!(report.tenants[0].watchdog_trips >= 1, "first epoch must trip");
        assert!(report.shed.degraded >= 1, "the trip must degrade the next epoch");
        assert!(report.run.counters.get("fleet.watchdog_trips").copied().unwrap_or(0) >= 1);
        // The tenant is still healthy: degraded epochs complete.
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.tenants[0].epochs, 3);
    }

    /// A workload that yields an invalid fault plan at one epoch: the
    /// epoch fails, the journaled record re-fails on every recovery,
    /// and the tenant must be quarantined.
    struct PoisonedWorkload {
        inner: ScriptedWorkload,
        poison_epoch: u64,
    }

    impl EpochWorkload for PoisonedWorkload {
        fn trace(&self, epoch: u64, trace_seed: u64) -> LossTrace {
            self.inner.trace(epoch, trace_seed)
        }

        fn plan(&self, epoch: u64, fault_seed: u64) -> FaultPlan {
            let mut plan = self.inner.plan(epoch, fault_seed);
            if epoch == self.poison_epoch {
                plan.tunnels = Some(TunnelFaults { fail_prob: 2.0, permanent_prob: 0.0 });
            }
            plan
        }
    }

    #[test]
    fn poisoned_tenant_is_quarantined_without_perturbing_the_rest() {
        let la = leaves(42);
        let lb = leaves(43);
        let epochs = 4u64;

        // Solo golden for the healthy tenant.
        let solo_b: Vec<(String, String)> = {
            let spec = spec_over(&lb, "b", 8);
            let w: &dyn EpochWorkload = spec.workload.as_ref();
            let (mut ctl, _) = DurableController::recover(
                (spec.build)(),
                MemStore::default(),
                spec.durable_config(),
                &w,
            )
            .unwrap();
            (0..epochs).map(|_| ctl.run_epoch(&w).unwrap().fingerprint().unwrap()).collect()
        };

        let mut poisoned = spec_over(&la, "poisoned", 7);
        poisoned.workload = Box::new(PoisonedWorkload {
            inner: ScriptedWorkload::new(la.net.fibers().len()),
            poison_epoch: 1,
        });
        let mut fleet = Fleet::new(
            vec![poisoned, spec_over(&lb, "b", 8)],
            FleetConfig::default(),
        )
        .unwrap();
        let mut got_b = Vec::new();
        for _ in 0..epochs {
            let out = fleet.run_round(Some(epochs)).unwrap();
            for (t, o) in out.executed {
                if t == 1 {
                    got_b.push(o.fingerprint().unwrap());
                }
            }
        }
        let report = fleet.report();
        assert!(
            report.tenants[0].quarantined.is_some(),
            "the poisoned tenant must be quarantined"
        );
        assert_eq!(report.tenants[0].epochs, 1, "only the pre-poison epoch completed");
        assert_eq!(report.quarantined, 1);
        assert!(report.run.counters["fleet.quarantined"] >= 1);
        // The healthy tenant is untouched: bit-identical to solo.
        assert_eq!(got_b, solo_b, "quarantine of tenant 0 perturbed tenant 1");
        assert_eq!(report.tenants[1].epochs, epochs);
        assert_eq!(report.tenants[1].quarantined, None);
    }

    #[test]
    fn fleet_chaos_soak_passes_with_events_across_tenants() {
        let la = leaves(42);
        let lb = leaves(43);
        // Two tenants, and the single-controller soak as a one-tenant
        // fleet under a dense schedule (most epochs inject an event, so
        // every event kind occurs across 12 epochs).
        let cases = [
            (2, FleetChaosPlan { crash_prob: 0.6, ..FleetChaosPlan::new(91, 5) }),
            (1, FleetChaosPlan { crash_prob: 0.8, ..FleetChaosPlan::new(33, 12) }),
        ];
        for (tenants, plan) in cases {
            let mk = || {
                let mut specs = vec![spec_over(&la, "a", 7), spec_over(&lb, "b", 8)];
                specs.truncate(tenants);
                specs
            };
            let report = fleet_chaos_soak(&mk, &FleetConfig::default(), &plan).unwrap();
            assert_eq!(report.violation, None, "soak violated: {:?}", report.violation);
            assert_eq!(report.shrunk, None);
            assert!(!report.events_injected.is_empty(), "no chaos fired: {plan:?}");
            assert_eq!(report.fleet.tenants.len(), tenants);
            for t in &report.fleet.tenants {
                assert_eq!(t.epochs, plan.epochs, "{} did not finish", t.name);
                assert!(t.executions >= t.epochs, "re-executions can only add epochs");
                assert_eq!(t.quarantined, None);
            }
            // Every event except a post-final-epoch crash forces a
            // recovery (a tenant crashed after its last epoch has
            // nothing left to run, so the soak ends without reviving
            // it).
            let must_recover = report
                .events_injected
                .iter()
                .filter(|(_, e, ev)| {
                    *ev == FleetChaosEvent::CrashMidSolve || e + 1 < plan.epochs
                })
                .count();
            assert!(
                report.fleet.recoveries as usize >= must_recover,
                "recoveries {} < required {}",
                report.fleet.recoveries,
                must_recover
            );
        }
    }

    #[test]
    fn every_event_kind_alone_keeps_the_fleet_clean() {
        let la = leaves(42);
        let lb = leaves(43);
        let mk = || vec![spec_over(&la, "a", 7), spec_over(&lb, "b", 8)];
        let plan = FleetChaosPlan { crash_prob: 0.0, ..FleetChaosPlan::new(92, 4) };
        let goldens = solo_fingerprints(&mk(), plan.epochs).unwrap();
        for event in FleetChaosEvent::ALL {
            for tenant in 0..2 {
                let mut schedule = vec![vec![None; 4]; 2];
                schedule[tenant][2] = Some(event);
                let report =
                    fleet_soak_with_schedule(mk(), &FleetConfig::default(), &plan, &schedule, &goldens)
                        .unwrap();
                assert_eq!(
                    report.violation, None,
                    "{event:?} against tenant {tenant} violated"
                );
                assert_eq!(report.events_injected, vec![(tenant, 2, event)]);
                assert_eq!(report.fleet.recoveries, 1);
                assert!(report.fleet.tenants.iter().all(|t| t.epochs == 4));
            }
        }
        // The counter invariant those runs passed does fire: a restore
        // that changes the count at an epoch already seen, and a later
        // epoch whose count regressed.
        let mut seen = BTreeMap::new();
        assert_eq!(sample_counters(&mut seen, 1, "b", 2, 10), None);
        assert_eq!(sample_counters(&mut seen, 1, "b", 2, 10), None);
        assert_eq!(sample_counters(&mut seen, 1, "b", 3, 10), None);
        for (epoch, ops) in [(2, 11), (4, 9)] {
            let v = sample_counters(&mut seen, 1, "b", epoch, ops).expect("must violate");
            assert_eq!((v.tenant, v.epoch, v.invariant.as_str()), (1, epoch, "monotone-counters"));
        }
    }

    #[test]
    fn mismatched_golden_shrinks_to_a_minimal_tenant_repro() {
        let la = leaves(42);
        let lb = leaves(43);
        let mk = || vec![spec_over(&la, "a", 7), spec_over(&lb, "b", 8)];
        let plan = FleetChaosPlan { crash_prob: 0.0, ..FleetChaosPlan::new(93, 3) };
        // Golden for tenant 1 from a different seed stream: its every
        // epoch "diverges" — a synthetic isolation violation localized
        // to one tenant.
        let mut goldens = solo_fingerprints(&mk(), plan.epochs).unwrap();
        let wrong = {
            let lb2 = leaves(43);
            let spec = spec_over(&lb2, "b", 9999);
            solo_fingerprints(std::slice::from_ref(&spec), plan.epochs).unwrap().remove(0)
        };
        goldens[1] = wrong;
        let schedule = plan.schedule(2);
        let report =
            fleet_soak_with_schedule(mk(), &FleetConfig::default(), &plan, &schedule, &goldens)
                .unwrap();
        let v = report.violation.clone().expect("mismatched golden must violate");
        assert_eq!(v.tenant, 1, "violation must localize to the divergent tenant");
        assert_eq!(v.invariant, "bit-identity");
        let shrunk =
            fleet_shrink(&mk, &FleetConfig::default(), &plan, &report.events_injected, &goldens, &v)
                .unwrap();
        // Chaos-independent: the eventless run reproduces it.
        assert_eq!(shrunk.event, None);
        assert_eq!(shrunk.tenant, 1);
        assert_eq!(shrunk.invariant, "bit-identity");
    }

    #[test]
    fn unsatisfiable_floor_shrinks_to_an_eventless_repro() {
        let la = leaves(42);
        let mk = || vec![spec_over(&la, "a", 7)];
        let cfg = FleetConfig::default();
        // Bypass FleetChaosPlan::validate to force an unsatisfiable
        // floor (losses are >= 0 by construction): the violation fires
        // with no chaos at all, so the minimal repro carries no event.
        let plan = FleetChaosPlan {
            crash_prob: 0.8,
            availability_floor: -1.0,
            ..FleetChaosPlan::new(55, 4)
        };
        let goldens = solo_fingerprints(&mk(), plan.epochs).unwrap();
        let report =
            fleet_soak_with_schedule(mk(), &cfg, &plan, &plan.schedule(1), &goldens).unwrap();
        let v = report.violation.clone().expect("unsatisfiable floor must violate");
        assert_eq!((v.invariant.as_str(), v.tenant, v.epoch), ("availability-floor", 0, 0));
        let shrunk =
            fleet_shrink(&mk, &cfg, &plan, &report.events_injected, &goldens, &v).unwrap();
        assert_eq!(
            shrunk,
            FleetShrunkRepro {
                seed: 55,
                tenant: 0,
                epoch: 0,
                event: None,
                invariant: "availability-floor".into()
            }
        );
    }

    #[test]
    fn shrink_falls_back_to_the_original_triple() {
        let la = leaves(42);
        let mk = || vec![spec_over(&la, "a", 7)];
        // The system is actually crash-safe, so neither the eventless
        // run nor the single injected event reproduces this synthetic
        // violation; shrink must hand back the original coordinates.
        let plan = FleetChaosPlan { crash_prob: 0.0, ..FleetChaosPlan::new(77, 3) };
        let goldens = solo_fingerprints(&mk(), plan.epochs).unwrap();
        let found = FleetViolation {
            tenant: 0,
            name: "a".into(),
            epoch: 2,
            event: Some(FleetChaosEvent::Crash),
            invariant: "synthetic".into(),
            detail: String::new(),
        };
        let events = [(0, 1, FleetChaosEvent::Crash)];
        let shrunk =
            fleet_shrink(&mk, &FleetConfig::default(), &plan, &events, &goldens, &found).unwrap();
        assert_eq!(
            shrunk,
            FleetShrunkRepro {
                seed: 77,
                tenant: 0,
                epoch: 2,
                event: Some(FleetChaosEvent::Crash),
                invariant: "synthetic".into()
            }
        );
    }

    #[test]
    fn telemetry_snapshot_is_deterministic_and_merges_fleet_wide() {
        let epochs = 4u64;
        let run = || {
            let la = leaves(42);
            let lb = leaves(43);
            // Tenant b declares an impossible solve-work target: every
            // epoch violates, burn = (1/1)/0.5 = 2.0 hits the
            // threshold on the first observation.
            let strict = SloSpec {
                solve_units_target: 0,
                error_budget: 0.5,
                window: 4,
                ..SloSpec::default()
            };
            let mut fleet = Fleet::new(
                vec![
                    spec_over(&la, "a", 7),
                    spec_over(&lb, "b", 8).with_slo(strict),
                ],
                FleetConfig::default(),
            )
            .unwrap();
            while (0..2).any(|i| fleet.tenant_epoch(i) < epochs) {
                fleet.run_round(Some(epochs)).unwrap();
            }
            fleet.report()
        };
        let report = run();

        // Per-tenant series landed, sorted by tenant name.
        let names: Vec<&str> =
            report.telemetry.tenants.iter().map(|t| t.tenant.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        for t in &report.telemetry.tenants {
            let series: Vec<&str> = t.series.iter().map(|s| s.name.as_str()).collect();
            for want in
                ["availability.loss", "pipeline.decision_ms", "solve.pivots", "solve.work_units", "warm.hit_rate"]
            {
                assert!(series.contains(&want), "{} missing {want}: {series:?}", t.tenant);
            }
        }

        // The strict SLO fired: tracker status, alert log, run report.
        assert_eq!(report.telemetry.tenants[0].slo, None);
        let b = &report.telemetry.tenants[1];
        let status = b.slo.as_ref().expect("tenant b declared an SLO");
        assert!(status.alerts_fired() >= 1, "{status:?}");
        assert!(!b.alerts.is_empty());
        assert!(matches!(b.alerts[0].kind, prete_obs::SloKind::SolveWork));
        assert!(report.run.counters["slo.alerts"] >= 1);
        assert!(!report.run.events_of_kind("slo.alert").is_empty());

        // Fleet-wide series are the merge of both tenants' streams.
        let fleet_wu = report
            .telemetry
            .fleet
            .iter()
            .find(|s| s.name == "solve.work_units")
            .expect("merged work-unit series");
        let tenant_points: usize = report
            .telemetry
            .tenants
            .iter()
            .map(|t| {
                t.series
                    .iter()
                    .find(|s| s.name == "solve.work_units")
                    .map_or(0, |s| s.series.points.len())
            })
            .sum();
        assert_eq!(fleet_wu.series.points.len(), tenant_points);
        assert_eq!(tenant_points as u64, 2 * epochs);

        // Byte-identical telemetry across identical runs.
        let again = serde_json::to_string(&run().telemetry).unwrap();
        assert_eq!(serde_json::to_string(&report.telemetry).unwrap(), again);
    }

    #[test]
    fn availability_pressure_defers_instead_of_degrading() {
        // One over-subscribed tenant (policy_max_loss = 0.875, so
        // availability 0.125 sits far below the 0.5 floor) under a
        // budget its estimate never fits: phase one must Degrade it
        // while its SLO is quiet, and Defer it once the availability
        // budget burns.
        let slo = SloSpec {
            availability_floor: 0.5,
            error_budget: 0.5,
            window: 8,
            ..SloSpec::default()
        };
        let run = |with_slo: bool| {
            let la = leaves_with_demand(42, 40.0);
            let mut spec = spec_over(&la, "a", 7);
            if with_slo {
                spec = spec.with_slo(slo.clone());
            }
            let cfg = FleetConfig {
                round_budget: 20,
                initial_estimate: 50,
                ..FleetConfig::default()
            };
            let mut fleet = Fleet::new(vec![spec], cfg).unwrap();
            fleet.run(4).unwrap();
            fleet.report()
        };

        let protected = run(true);
        // Pressure engaged at least once after the first epoch burned.
        assert!(
            protected.run.counters.get("fleet.shed.protect").copied().unwrap_or(0) >= 1,
            "protection never fired: {:?}",
            protected.run.counters
        );
        // The availability alert latched and surfaced everywhere.
        let t = &protected.telemetry.tenants[0];
        assert!(t.alerts.iter().any(|a| matches!(a.kind, prete_obs::SloKind::Availability)));
        assert!(protected.run.counters["slo.alerts"] >= 1);
        // Protection changed admission: the no-SLO twin makes
        // different decisions (phase-one Degrade instead of Defer).
        let plain = run(false);
        assert_ne!(protected.decision_digest(), plain.decision_digest());
        assert!(!plain.run.counters.contains_key("fleet.shed.protect"));
        // And the protected run repeats exactly.
        assert_eq!(protected.decision_digest(), run(true).decision_digest());
    }

    #[test]
    fn lenient_slo_and_detectors_stay_silent_on_clean_runs() {
        let la = leaves(42);
        let mut fleet = Fleet::new(
            vec![spec_over(&la, "a", 7).with_slo(SloSpec::default())],
            FleetConfig::default(),
        )
        .unwrap();
        fleet.run(6).unwrap();
        let report = fleet.report();
        let t = &report.telemetry.tenants[0];
        assert!(t.alerts.is_empty(), "spurious SLO alerts: {:?}", t.alerts);
        assert!(t.anomalies.is_empty(), "spurious anomalies: {:?}", t.anomalies);
        assert!(!report.run.counters.contains_key("slo.alerts"));
        assert!(!report.run.counters.contains_key("solver.anomalies"));
        // The tracker still observed every epoch.
        let status = t.slo.as_ref().unwrap();
        assert!(status.kinds.iter().all(|k| k.burn_rate == 0.0), "{status:?}");
    }

    #[test]
    fn plans_and_configs_validate_and_round_trip() {
        let plan = FleetChaosPlan::new(5, 20);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FleetChaosPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(plan.validate(), Ok(()));
        assert_eq!(
            FleetChaosPlan { crash_prob: 1.5, ..plan }.validate(),
            Err(PlanError::ProbabilityOutOfRange { field: "fleet_chaos.crash_prob", value: 1.5 })
        );
        assert!(matches!(
            FleetChaosPlan { crash_prob: f64::NAN, ..plan }.validate(),
            Err(PlanError::ProbabilityOutOfRange { .. })
        ));
        assert_eq!(
            FleetChaosPlan { epochs: 0, ..plan }.validate(),
            Err(PlanError::ZeroAttempts { field: "fleet_chaos.epochs" })
        );
        for floor in [-1.0, f64::INFINITY] {
            assert!(matches!(
                FleetChaosPlan { availability_floor: floor, ..plan }.validate(),
                Err(PlanError::OutOfDomain { .. })
            ));
        }

        assert_eq!(FleetConfig::default().validate(), Ok(()));
        assert!(FleetConfig { max_consecutive_failures: 0, ..FleetConfig::default() }
            .validate()
            .is_err());
        assert!(FleetConfig { watchdog_factor: f64::NAN, ..FleetConfig::default() }
            .validate()
            .is_err());

        // Schedules: deterministic, per-tenant salted.
        let s1 = plan.schedule(3);
        assert_eq!(s1, plan.schedule(3));
        assert_eq!(s1.len(), 3);
        assert_eq!(s1[0].len(), 20);
        assert_ne!(s1[0], s1[1], "tenant streams must differ");
        // Adding a tenant never reshuffles existing streams.
        let s2 = plan.schedule(4);
        assert_eq!(&s2[..3], &s1[..]);
        // Seed-sensitive, and crash_prob 0.3 over 100 epochs fires some
        // slots but not all.
        let long = FleetChaosPlan::new(5, 100).schedule(1);
        assert_ne!(long, FleetChaosPlan::new(6, 100).schedule(1));
        let hits = long[0].iter().filter(|s| s.is_some()).count();
        assert!(hits > 10 && hits < 70, "implausible event density {hits}/100");
    }
}
