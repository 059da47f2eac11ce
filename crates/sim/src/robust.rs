//! The robust PreTE controller: explicit degraded modes and fallback
//! chains around every pipeline stage.
//!
//! This module holds the one epoch pipeline (`Controller::run_epoch`)
//! with the failure semantics a production deployment needs;
//! [`Controller::replay_trace`] is its fault-free projection. Each
//! stage has a fallback chain, tried in order:
//!
//! | stage | fault | chain |
//! |---|---|---|
//! | telemetry | drops / spikes / NaN / out-of-order | sanitize, then detect |
//! | prediction | NaN, out-of-range, latency, RPC down | retry w/ backoff → static prior |
//! | TE solve | budget exceeded, infeasible | heuristic method → last-known-good policy |
//! | tunnel RPC | transient / permanent failures | per-tunnel retry → partial commit |
//!
//! Every fallback taken is logged in
//! [`RobustReport::fallbacks_fired`], and the degraded modes entered
//! are summarized by [`RobustReport::worst_mode`]. All retry/backoff
//! schedules and solver budgets are deterministic (work units, not
//! wall clock), so a replay under a fixed [`FaultPlan`] is
//! bit-reproducible: the acceptance bar is that two replays with the
//! same fault seed produce *identical* reports, event for event.

use crate::controller::estimate_probs;
use crate::faults::{FaultInjector, FaultPlan, PredictorFaultKind, SolverFaultKind, TunnelOutcome};
use crate::latency::{LatencyModel, PipelineTiming, Stage};
use crate::{Controller, ControllerEvent};
use prete_core::prelude::*;
use prete_core::schemes::TeContext;
use prete_nn::{PredictError, Predictor, TryPredictor};
use prete_optical::trace::{detect_recorded, LossTrace};
use prete_optical::{DegradationEvent, DegradationFeatures};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// A degraded operating mode the controller can fall into, ordered by
/// severity (later variants are worse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum DegradedMode {
    /// Telemetry was corrupted; detection ran on a sanitized stream.
    SanitizedTelemetry,
    /// The predictor was unusable; the static prior stood in.
    PriorProbability,
    /// The primary solve method failed; the heuristic produced the
    /// policy.
    HeuristicSolver,
    /// Some tunnels could not be established; the plan committed
    /// partially.
    PartialTunnelCommit,
    /// No fresh policy could be computed; the last-known-good policy
    /// stayed in force.
    LastKnownGoodPolicy,
}

impl std::fmt::Display for DegradedMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DegradedMode::SanitizedTelemetry => "sanitized-telemetry",
            DegradedMode::PriorProbability => "prior-probability",
            DegradedMode::HeuristicSolver => "heuristic-solver",
            DegradedMode::PartialTunnelCommit => "partial-tunnel-commit",
            DegradedMode::LastKnownGoodPolicy => "last-known-good-policy",
        };
        f.write_str(s)
    }
}

/// The pipeline stage a fallback fired in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FaultStage {
    /// Telemetry ingest.
    Telemetry,
    /// NN inference.
    Prediction,
    /// TE recompute.
    Solve,
    /// Tunnel-establishment RPCs.
    TunnelEstablishment,
}

/// How a fallback chain resolved.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FallbackOutcome {
    /// Retries cleared the fault; no degraded mode was entered.
    RecoveredAfterRetry {
        /// Attempts consumed, including the successful one.
        attempts: u32,
        /// Backoff delay spent, in milliseconds.
        backoff_ms: f64,
    },
    /// The chain fell through to a degraded mode.
    DegradedTo(DegradedMode),
}

/// One fallback firing: where, why, and how it resolved.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FallbackRecord {
    /// Stage the fault hit.
    pub stage: FaultStage,
    /// Human-readable fault description.
    pub fault: String,
    /// How the chain resolved.
    pub outcome: FallbackOutcome,
}

/// Deterministic truncated-exponential retry/backoff policy.
///
/// The schedule is monotone non-decreasing, capped per-interval at
/// `max_delay_ms`, and a pure function of the seed — three properties
/// the property tests in `tests/properties.rs` pin down.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `max_attempts - 1`
    /// waits).
    pub max_attempts: u32,
    /// First backoff interval in milliseconds.
    pub base_delay_ms: f64,
    /// Exponential growth factor (≥ 1).
    pub multiplier: f64,
    /// Per-interval cap in milliseconds.
    pub max_delay_ms: f64,
    /// Jitter fraction in `[0, 1]`: each interval is stretched by up
    /// to this fraction before capping.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_delay_ms: 50.0,
            multiplier: 2.0,
            max_delay_ms: 1_000.0,
            jitter: 0.1,
        }
    }
}

impl RetryPolicy {
    /// Validates the policy: at least one attempt, jitter a valid
    /// fraction, delays finite and non-negative, multiplier ≥ 1.
    pub fn validate(&self) -> Result<(), crate::faults::PlanError> {
        use crate::faults::PlanError;
        if self.max_attempts == 0 {
            return Err(PlanError::ZeroAttempts { field: "retry.max_attempts" });
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err(PlanError::ProbabilityOutOfRange {
                field: "retry.jitter",
                value: self.jitter,
            });
        }
        for (field, value) in
            [("retry.base_delay_ms", self.base_delay_ms), ("retry.max_delay_ms", self.max_delay_ms)]
        {
            if !value.is_finite() || value < 0.0 {
                return Err(PlanError::OutOfDomain {
                    field,
                    value,
                    requirement: "finite and >= 0",
                });
            }
        }
        if !self.multiplier.is_finite() || self.multiplier < 1.0 {
            return Err(PlanError::OutOfDomain {
                field: "retry.multiplier",
                value: self.multiplier,
                requirement: "finite and >= 1",
            });
        }
        Ok(())
    }

    /// The backoff schedule for one fault site: `max_attempts - 1`
    /// waits in milliseconds. Deterministic per seed; monotone
    /// non-decreasing; each interval ≤ `max_delay_ms`.
    pub fn schedule(&self, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut prev = 0.0f64;
        (1..self.max_attempts)
            .map(|i| {
                let raw = self.base_delay_ms * self.multiplier.powi(i as i32 - 1);
                let jittered = raw * (1.0 + self.jitter * rng.gen::<f64>());
                let d = jittered.min(self.max_delay_ms).max(prev);
                prev = d;
                d
            })
            .collect()
    }

    /// Upper bound on the total backoff of one full schedule.
    pub fn worst_case_total_ms(&self) -> f64 {
        self.max_delay_ms * self.max_attempts.saturating_sub(1) as f64
    }
}

/// Outcome of a fault-injected replay: the plain controller report
/// plus the robustness bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RobustReport {
    /// Chronological event log (same vocabulary as the plain
    /// controller).
    pub events: Vec<ControllerEvent>,
    /// Pipeline timing of the degradation reaction, including any
    /// retry backoff.
    pub pipeline: Option<PipelineTiming>,
    /// Whether preparation completed before the cut.
    pub prepared_before_cut: Option<bool>,
    /// Every fallback that fired, in order.
    pub fallbacks_fired: Vec<FallbackRecord>,
    /// Max β-loss of the policy in force at the end of the replay —
    /// always present: a failed recompute leaves the last-known-good
    /// policy standing.
    pub policy_max_loss: f64,
    /// Tunnels the plan asked for.
    pub requested_tunnels: usize,
    /// Tunnels actually established.
    pub committed_tunnels: usize,
    /// Aggregated solver observability across every TE solve attempt in
    /// the replay (zeroed when no recompute ran). Equality ignores the
    /// wall-clock fields, so report comparisons stay bit-reproducible.
    pub solver: SolverStats,
    /// The full policy in force at the end of the replay (the solution
    /// whose max β-loss is `policy_max_loss`). Chaos invariants check
    /// its allocation vector for non-finite entries.
    pub policy: TeSolution,
}

impl RobustReport {
    /// Degraded modes entered, in severity order (deduplicated).
    pub fn degraded_modes(&self) -> Vec<DegradedMode> {
        let mut modes: Vec<DegradedMode> = self
            .fallbacks_fired
            .iter()
            .filter_map(|f| match f.outcome {
                FallbackOutcome::DegradedTo(m) => Some(m),
                FallbackOutcome::RecoveredAfterRetry { .. } => None,
            })
            .collect();
        modes.sort();
        modes.dedup();
        modes
    }

    /// The most severe degraded mode entered, if any.
    pub fn worst_mode(&self) -> Option<DegradedMode> {
        self.degraded_modes().into_iter().max()
    }
}

/// Work-rate constants converting the latency model's TE-compute
/// deadline into deterministic solver work units. Work units (B&B
/// nodes, Benders iterations) rather than wall clock keep replays
/// bit-reproducible across machines; the constants are calibrated to
/// the repo's bench numbers (a few hundred nodes or a handful of
/// Benders iterations per 100 ms on the reference instances).
const MIP_NODES_PER_MS: f64 = 50.0;
const BENDERS_ITERS_PER_MS: f64 = 0.25;

/// Derives the deterministic solve budget from a latency model's
/// TE-compute deadline.
pub fn budget_from_latency(latency: &LatencyModel) -> SolveBudget {
    SolveBudget {
        max_mip_nodes: (latency.te_compute_ms * MIP_NODES_PER_MS).max(1.0) as usize,
        max_benders_iters: (latency.te_compute_ms * BENDERS_ITERS_PER_MS).max(1.0) as usize,
    }
}

/// Replaces non-finite samples with missing markers, interpolates the
/// gaps, and removes single-sample spikes (a lone reading more than
/// 10 dB above both neighbours is a glitch, not physics — real
/// degradations and cuts are sustained).
pub fn sanitize_trace(trace: &LossTrace) -> LossTrace {
    let mut out = trace.clone();
    for s in &mut out.samples {
        if !s.is_finite() {
            *s = f64::NAN;
        }
    }
    out.interpolate();
    let n = out.samples.len();
    for i in 1..n.saturating_sub(1) {
        let (l, c, r) = (out.samples[i - 1], out.samples[i], out.samples[i + 1]);
        if c - l.max(r) > 10.0 {
            out.samples[i] = 0.5 * (l + r);
        }
    }
    out
}

/// Records a fallback firing both as a structured recorder event
/// (`degraded-mode` / `fallback-recovered`) and in the report's
/// chronological list.
fn note_fallback(obs: &Recorder, fallbacks: &mut Vec<FallbackRecord>, r: FallbackRecord) {
    match &r.outcome {
        FallbackOutcome::DegradedTo(mode) => {
            obs.add("robust.degraded_modes", 1);
            obs.event_with("degraded-mode", || {
                format!("stage={:?} mode={mode} fault={}", r.stage, r.fault)
            });
        }
        FallbackOutcome::RecoveredAfterRetry { attempts, .. } => {
            obs.add("robust.recoveries", 1);
            obs.event_with("fallback-recovered", || {
                format!("stage={:?} attempts={attempts} fault={}", r.stage, r.fault)
            });
        }
    }
    fallbacks.push(r);
}

/// A predictor wrapper that injects scripted faults ahead of the real
/// model.
struct FaultyPredictor<'a> {
    inner: &'a dyn Predictor,
    fault: std::cell::RefCell<&'a mut FaultInjector>,
}

impl TryPredictor for FaultyPredictor<'_> {
    fn try_predict_proba(&self, event: &DegradationEvent) -> Result<prete_nn::Prediction, PredictError> {
        if let Some(kind) = self.fault.borrow_mut().next_predictor_fault() {
            return Err(match kind {
                PredictorFaultKind::NonFinite => PredictError::NonFinite,
                PredictorFaultKind::OutOfRange => PredictError::OutOfRange,
                PredictorFaultKind::LatencySpike => PredictError::LatencyExceeded,
                PredictorFaultKind::Unavailable => PredictError::Unavailable,
            });
        }
        self.inner.try_predict_proba(event)
    }
}

/// The robust controller: the plain pipeline plus fault injection,
/// retry/backoff, deadline budgets and per-stage fallback chains.
pub struct RobustController<'a> {
    /// The wrapped plain controller (network, model, flows, tunnels,
    /// predictor, scheme, latency).
    pub inner: Controller<'a>,
    /// Primary TE solve method; the heuristic is the fallback.
    pub method: SolveMethod,
    /// Retry/backoff policy for prediction and tunnel RPCs.
    pub retry: RetryPolicy,
    /// The last-known-good policy, computed over the base tunnels at
    /// construction; the terminal fallback when no fresh policy can be
    /// computed.
    last_known_good: TeSolution,
    /// Static per-fiber cut priors (Eqn 1's off-signal term): the
    /// probability assumed for a degraded fiber when no model is
    /// usable. Part of the durable controller state.
    priors: Vec<f64>,
    /// When set, replaces the latency-derived [`SolveBudget`] for the
    /// next replays. The fleet scheduler uses this to shed load by
    /// degrading a tenant's epoch to a tighter budget (driving the
    /// solve into the heuristic/last-known-good fallback chain) without
    /// rebuilding the controller. Scheduling state, not durable state:
    /// it is not journaled, so a crash mid-degraded-epoch re-executes
    /// at the canonical latency-derived budget.
    pub budget_override: Option<SolveBudget>,
}

impl<'a> RobustController<'a> {
    /// Wraps a controller, precomputing the last-known-good policy
    /// (heuristic solve over the base tunnels under static priors, at
    /// the scheme's β — infallible by construction).
    pub fn new(inner: Controller<'a>, method: SolveMethod, retry: RetryPolicy) -> Self {
        let priors = estimate_probs(inner.model, &DegradationState::healthy(), 0.0);
        let scenarios = ScenarioSet::enumerate(&priors, 1, 0.0);
        let problem = TeProblem::new(inner.net, inner.flows, inner.base_tunnels, &scenarios);
        // Deliberately cold (no warm cache): the standing policy must
        // not depend on whatever was solved before construction.
        let last_known_good = TeSolver::new(&problem)
            .beta(inner.scheme.beta())
            .method(SolveMethod::Heuristic)
            .threads(inner.threads)
            .backend(inner.backend)
            .pricing(inner.pricing)
            .eta_update(inner.eta_update)
            .solve()
            .expect("heuristic solve under the default budget is infallible");
        Self { inner, method, retry, last_known_good, priors, budget_override: None }
    }

    /// The standing policy used when every solve fallback fails.
    pub fn last_known_good(&self) -> &TeSolution {
        &self.last_known_good
    }

    /// Replaces the standing policy — checkpoint restore installs the
    /// policy that was in force when the checkpoint was taken.
    pub fn set_last_known_good(&mut self, sol: TeSolution) {
        self.last_known_good = sol;
    }

    /// The static per-fiber cut priors in force.
    pub fn priors(&self) -> &[f64] {
        &self.priors
    }

    /// Replaces the static priors — checkpoint restore installs the
    /// prior vector captured at checkpoint time.
    pub fn set_priors(&mut self, priors: Vec<f64>) {
        self.priors = priors;
    }

    /// Replays a telemetry trace under a fault plan.
    ///
    /// Never panics for any fault combination; always leaves a policy
    /// in force (fresh, heuristic, or last-known-good). Two replays of
    /// the same trace and fault plan return identical reports.
    pub fn replay_trace(&self, trace: &LossTrace, plan: &FaultPlan) -> RobustReport {
        let budget =
            self.budget_override.unwrap_or_else(|| budget_from_latency(&self.inner.latency));
        self.inner.run_epoch(
            trace,
            plan,
            self.method,
            &self.retry,
            budget,
            Some((&self.last_known_good, &self.priors)),
        )
    }
}

impl Controller<'_> {
    /// The one controller epoch: telemetry → detect → predict → Algorithm 1
    /// → TE solve → tunnel establishment, with every stage's fallback
    /// chain, under an `"epoch"` span with `"detect"`, `"predict"`,
    /// `"tunnel"` and `"solve"` children.
    ///
    /// `standing` is the durable fallback state — the last-known-good
    /// policy and the static priors. Without it a failed prediction falls
    /// back to the model's static prior, a double solve failure panics,
    /// and the report's `policy` is empty unless a recompute ran.
    pub(crate) fn run_epoch(
        &self,
        trace: &LossTrace,
        plan: &FaultPlan,
        method: SolveMethod,
        retry: &RetryPolicy,
        budget: SolveBudget,
        standing: Option<(&TeSolution, &[f64])>,
    ) -> RobustReport {
        let obs = &self.obs;
        let _epoch = obs.span("epoch");
        obs.add("controller.epochs", 1);
        let mut inj = FaultInjector::new(plan);
        let mut fallbacks: Vec<FallbackRecord> = Vec::new();

        // ---- Stage 1: telemetry. Corrupt per the script, then
        // sanitize before detection.
        let sanitized = inj.corrupt_trace(trace).map(|corrupted| {
            note_fallback(
                obs,
                &mut fallbacks,
                FallbackRecord {
                    stage: FaultStage::Telemetry,
                    fault: "telemetry corruption (drops/spikes/reorder)".into(),
                    outcome: FallbackOutcome::DegradedTo(DegradedMode::SanitizedTelemetry),
                },
            );
            sanitize_trace(&corrupted)
        });
        let observed = sanitized.as_ref().unwrap_or(trace);

        let mut events = Vec::new();
        let mut pipeline = None;
        let mut prepared_before_cut = None;
        let mut policy = standing.map_or_else(
            || TeSolution {
                allocation: Vec::new(),
                max_loss: 0.0,
                delta: Vec::new(),
                lp_solves: 0,
                benders_iters: 0,
                quality: None,
            },
            |(last_known_good, _)| last_known_good.clone(),
        );
        let mut requested_tunnels = 0;
        let mut committed_tunnels = 0;
        let mut solver_stats = SolverStats::default();

        let detection = detect_recorded(observed, obs);
        let cut_at = detection.cut_at_idx.map(|i| i as f64 * observed.dt_s as f64);

        if let Some(deg) = detection.degradations.first() {
            // The online detector needs a handful of consecutive degraded
            // samples to flag the event — it does not wait for the window
            // to end (the window often ends *because* the fiber cut).
            const CONFIRM_SAMPLES: usize = 3;
            let at_s =
                (deg.start_idx + deg.len.min(CONFIRM_SAMPLES)) as f64 * observed.dt_s as f64;
            let fiber = observed.fiber;
            let fiber_meta = self.net.fiber(fiber);
            let event = DegradationEvent {
                fiber,
                start_s: observed.start_s + deg.start_idx as u64,
                duration_s: deg.len as u64,
                features: DegradationFeatures {
                    hour: ((observed.start_s / 3600) % 24) as u8,
                    degree_db: deg.degree_db,
                    gradient_db: deg.gradient_db,
                    fluctuation: deg.fluctuation,
                    region: fiber_meta.region,
                    fiber_id: fiber.index(),
                    length_km: fiber_meta.length_km,
                    vendor: fiber_meta.vendor,
                },
                led_to_cut: false,
                cut_delay_s: None,
            };

            // ---- Stage 2: prediction, with retry → static prior.
            let mut retry_backoff_ms = 0.0;
            let p = {
                let _predict = obs.span("predict");
                let schedule = retry.schedule(plan.seed ^ 0x9d1c_0002);
                let faulty = FaultyPredictor {
                    inner: self.predictor,
                    fault: std::cell::RefCell::new(&mut inj),
                };
                let mut result = None;
                let mut attempts = 0u32;
                let mut last_err = None;
                while attempts < retry.max_attempts {
                    attempts += 1;
                    match faulty.try_predict_proba(&event) {
                        Ok(pred) => {
                            result = Some(pred.p_cut);
                            break;
                        }
                        Err(e) => {
                            last_err = Some(e);
                            if (attempts as usize) <= schedule.len() {
                                retry_backoff_ms += schedule[attempts as usize - 1];
                            }
                        }
                    }
                }
                match result {
                    Some(p) => {
                        if attempts > 1 {
                            note_fallback(
                                obs,
                                &mut fallbacks,
                                FallbackRecord {
                                    stage: FaultStage::Prediction,
                                    fault: last_err
                                        .as_ref()
                                        .map(|e| e.to_string())
                                        .unwrap_or_else(|| "unknown fault".into()),
                                    outcome: FallbackOutcome::RecoveredAfterRetry {
                                        attempts,
                                        backoff_ms: retry_backoff_ms,
                                    },
                                },
                            );
                        }
                        p
                    }
                    None => {
                        // Static prior for the degraded fiber (Eqn 1's
                        // off-signal term): the probability PreTE would
                        // assume with no model at all.
                        let prior = match standing {
                            Some((_, priors)) => priors[fiber.index()],
                            None => estimate_probs(self.model, &DegradationState::healthy(), 0.0)
                                [fiber.index()],
                        };
                        note_fallback(
                            obs,
                            &mut fallbacks,
                            FallbackRecord {
                                stage: FaultStage::Prediction,
                                fault: last_err
                                    .as_ref()
                                    .map(|e| e.to_string())
                                    .unwrap_or_else(|| "unknown fault".into()),
                                outcome: FallbackOutcome::DegradedTo(
                                    DegradedMode::PriorProbability,
                                ),
                            },
                        );
                        prior
                    }
                }
            };
            obs.event_with("prediction-fired", || {
                format!("fiber={} p_cut={p:.4}", fiber.index())
            });
            events.push(ControllerEvent::DegradationDetected {
                fiber,
                at_s,
                predicted_cut_prob: p,
            });

            // ---- Stage 3: plan + TE solve with deadline budget, then
            // heuristic, then last-known-good.
            let ctx = TeContext {
                net: self.net,
                model: self.model,
                flows: self.flows,
                base_tunnels: self.base_tunnels,
            };
            let state = DegradationState::single(fiber);
            let tunnels = {
                let _tunnel = obs.span("tunnel");
                self.scheme.tunnels(&ctx, &state)
            };
            // Schemes may *prune* tunnels as well as add them, so the set
            // can be smaller than the base set — saturate instead of
            // underflowing (an update that removes tunnels installs nothing
            // new).
            requested_tunnels = tunnels.len().saturating_sub(self.base_tunnels.len());

            let probs = estimate_probs(self.model, &state, p);
            let (scenarios, enum_stats) = self.enumerate_scenarios(&probs);
            let problem = TeProblem::new(self.net, self.flows, &tunnels, &scenarios);
            let mut attempt = |method: SolveMethod| -> Result<TeSolution, TeSolveError> {
                if let Some(kind) = inj.next_solver_fault() {
                    return Err(match kind {
                        SolverFaultKind::BudgetExceeded => TeSolveError::BudgetExceeded { nodes: 0 },
                        SolverFaultKind::Infeasible => TeSolveError::Infeasible,
                    });
                }
                let mut cache = self.cache.borrow_mut();
                let mut solver_b = TeSolver::new(&problem)
                    .beta(self.scheme.beta())
                    .method(method)
                    .budget(budget)
                    .threads(self.threads)
                    .backend(self.backend)
                    .pricing(self.pricing)
                    .eta_update(self.eta_update)
                    .warm_cache(&mut cache)
                    .recorder(obs);
                if let Some(st) = enum_stats.as_ref() {
                    solver_b = solver_b.scenario_stats(st);
                }
                let (sol, stats) = solver_b.solve_with_stats()?;
                solver_stats.merge(&stats);
                Ok(sol)
            };
            let (sol, used_last_known_good) = match attempt(method) {
                Ok(sol) => (sol, false),
                Err(primary_err) => match attempt(SolveMethod::Heuristic) {
                    Ok(sol) => {
                        note_fallback(
                            obs,
                            &mut fallbacks,
                            FallbackRecord {
                                stage: FaultStage::Solve,
                                fault: primary_err.to_string(),
                                outcome: FallbackOutcome::DegradedTo(
                                    DegradedMode::HeuristicSolver,
                                ),
                            },
                        );
                        (sol, false)
                    }
                    Err(heuristic_err) => {
                        let (last_known_good, _) = standing.unwrap_or_else(|| {
                            panic!("heuristic solve failed with no standing policy: {heuristic_err}")
                        });
                        note_fallback(
                            obs,
                            &mut fallbacks,
                            FallbackRecord {
                                stage: FaultStage::Solve,
                                fault: format!(
                                    "{primary_err}; heuristic also failed: {heuristic_err}"
                                ),
                                outcome: FallbackOutcome::DegradedTo(
                                    DegradedMode::LastKnownGoodPolicy,
                                ),
                            },
                        );
                        (last_known_good.clone(), true)
                    }
                },
            };
            policy = sol;

            // ---- Stage 4: tunnel establishment with per-tunnel retry
            // and partial commit. A stale policy has no new tunnels to
            // bring up.
            let to_establish = if used_last_known_good { 0 } else { requested_tunnels };
            let mut tunnel_backoff_ms = 0.0;
            let tunnel_schedule = retry.schedule(plan.seed ^ 0x9d1c_0004);
            for _ in 0..to_establish {
                match inj.tunnel_outcome(retry.max_attempts) {
                    TunnelOutcome::Committed { attempts } => {
                        committed_tunnels += 1;
                        if attempts > 1 {
                            let backoff: f64 =
                                tunnel_schedule[..(attempts as usize - 1).min(tunnel_schedule.len())]
                                    .iter()
                                    .sum();
                            tunnel_backoff_ms += backoff;
                            note_fallback(
                                obs,
                                &mut fallbacks,
                                FallbackRecord {
                                    stage: FaultStage::TunnelEstablishment,
                                    fault: "transient tunnel RPC failure".into(),
                                    outcome: FallbackOutcome::RecoveredAfterRetry {
                                        attempts,
                                        backoff_ms: backoff,
                                    },
                                },
                            );
                        }
                    }
                    TunnelOutcome::Abandoned { attempts } => {
                        tunnel_backoff_ms += tunnel_schedule.iter().sum::<f64>();
                        note_fallback(
                            obs,
                            &mut fallbacks,
                            FallbackRecord {
                                stage: FaultStage::TunnelEstablishment,
                                fault: format!("tunnel RPC failed {attempts}× (permanent)"),
                                outcome: FallbackOutcome::DegradedTo(
                                    DegradedMode::PartialTunnelCommit,
                                ),
                            },
                        );
                    }
                }
            }

            // ---- Timing: the plain pipeline for the committed tunnel
            // count, plus explicit retry-backoff stages.
            let mut timing = self.latency.pipeline(committed_tunnels);
            if retry_backoff_ms > 0.0 {
                // Retry backoff extends the inference stage's slot.
                let idx = timing
                    .stages
                    .iter()
                    .position(|s| s.name == "inference")
                    .map(|i| i + 1)
                    .unwrap_or(timing.stages.len());
                let start = idx
                    .checked_sub(1)
                    .and_then(|i| timing.stages.get(i))
                    .map(|s| s.start_ms + s.duration_ms)
                    .unwrap_or(0.0);
                for s in &mut timing.stages[idx..] {
                    s.start_ms += retry_backoff_ms;
                }
                timing.stages.insert(
                    idx,
                    Stage {
                        name: "prediction-retry-backoff".into(),
                        start_ms: start,
                        duration_ms: retry_backoff_ms,
                    },
                );
            }
            if tunnel_backoff_ms > 0.0 {
                let start = timing.total_ms();
                timing.stages.push(Stage {
                    name: "tunnel-retry-backoff".into(),
                    start_ms: start,
                    duration_ms: tunnel_backoff_ms,
                });
            }
            let ready_at_s = at_s + timing.total_ms() / 1000.0;
            let decision_at_s = at_s + timing.decision_ms() / 1000.0;
            obs.event_with("policy-recomputed", || {
                format!("max_loss={:.6} at_s={decision_at_s:.3}", policy.max_loss)
            });
            events.push(ControllerEvent::PolicyRecomputed {
                max_loss: policy.max_loss,
                at_s: decision_at_s,
            });
            if committed_tunnels > 0 {
                obs.event_with("tunnels-established", || {
                    format!(
                        "count={committed_tunnels} requested={requested_tunnels} \
                         ready_at_s={ready_at_s:.3}"
                    )
                });
                events.push(ControllerEvent::TunnelsEstablished {
                    count: committed_tunnels,
                    ready_at_s,
                });
            }
            pipeline = Some(timing);
            prepared_before_cut = cut_at.map(|c| ready_at_s <= c);
        }

        if let Some(at) = cut_at {
            obs.event_with("cut-observed", || {
                format!("fiber={} at_s={at:.1}", observed.fiber.index())
            });
            events.push(ControllerEvent::CutObserved { fiber: observed.fiber, at_s: at });
        }
        if let Some(ok) = prepared_before_cut {
            obs.add(if ok { "controller.prepared_before_cut" } else { "controller.missed_cut" }, 1);
        }

        RobustReport {
            events,
            pipeline,
            prepared_before_cut,
            fallbacks_fired: fallbacks,
            policy_max_loss: policy.max_loss,
            requested_tunnels,
            committed_tunnels,
            solver: solver_stats,
            policy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{
        FaultPersistence, PredictorFaults, SolverFaults, TelemetryFaults, TunnelFaults,
    };
    use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
    use prete_core::examples::{triangle, triangle_flows};
    use prete_core::schemes::PreTeScheme;
    use prete_optical::trace::{synthesize, ScriptedDegradation, TraceConfig};
    use prete_topology::FiberId;

    struct OptimistPredictor;
    impl Predictor for OptimistPredictor {
        fn predict_proba(&self, _e: &DegradationEvent) -> f64 {
            0.8
        }
    }

    fn fig4b_trace() -> LossTrace {
        let deg = ScriptedDegradation {
            start_s: 65,
            duration_s: 45,
            degree_db: 6.0,
            wobble_db: 0.15,
        };
        synthesize(FiberId(0), 0, 400, &[deg], Some(110), TraceConfig::default(), 9)
    }

    /// Builds the standard triangle testbed and replays the Figure 4(b)
    /// trace through the robust controller under `plan`.
    fn replay(plan: &FaultPlan) -> RobustReport {
        let net = triangle();
        let model = FailureModel::new(&net, 42);
        let flows: Vec<Flow> = triangle_flows()
            .into_iter()
            .map(|f| Flow { demand_gbps: 4.0, ..f })
            .collect();
        let base = TunnelSet::initialize(&net, &flows, 1);
        let truth = TrueConditionals::ground_truth(&net, &model, 50, 1);
        let scheme = PreTeScheme::new(0.99, ProbabilityEstimator::prete(&model, &truth));
        let predictor = OptimistPredictor;
        let inner = Controller::new(&net, &model, &flows, &base, &predictor, &scheme);
        let robust = RobustController::new(inner, SolveMethod::Heuristic, RetryPolicy::default());
        robust.replay_trace(&fig4b_trace(), plan)
    }

    #[test]
    fn clean_plan_matches_plain_controller() {
        let net = triangle();
        let model = FailureModel::new(&net, 42);
        let flows: Vec<Flow> = triangle_flows()
            .into_iter()
            .map(|f| Flow { demand_gbps: 4.0, ..f })
            .collect();
        let base = TunnelSet::initialize(&net, &flows, 1);
        let truth = TrueConditionals::ground_truth(&net, &model, 50, 1);
        let predictor = OptimistPredictor;
        // A 2-cut budget capped below the 7 candidate scenarios, so the
        // enumerator prunes and leaves a tail: the robust stack must
        // honour it exactly as the plain controller does.
        let budgeted =
            ScenarioBudget { max_cuts: 2, max_scenarios: 5, ..ScenarioBudget::default() };
        // One tunnel per flow: flow 1 dies with its fiber (p ≈ 0.003),
        // which β = 0.99 can leave unprotected and β = 0.999 cannot —
        // so Φ = 1 tells that both stacks solved at the scheme's β.
        for (beta, scenario_budget) in [(0.99, None), (0.99, Some(budgeted)), (0.999, None)] {
            let scheme = PreTeScheme::new(beta, ProbabilityEstimator::prete(&model, &truth));
            let mk = || Controller {
                scenario_budget,
                obs: Recorder::deterministic(),
                ..Controller::new(&net, &model, &flows, &base, &predictor, &scheme)
            };
            let plain_ctl = mk();
            let plain = plain_ctl.replay_trace(&fig4b_trace());
            let robust =
                RobustController::new(mk(), SolveMethod::Heuristic, RetryPolicy::default());
            let report = robust.replay_trace(&fig4b_trace(), &FaultPlan::none(11));
            // One TE solve — subproblem + polish — and none in the tunnel span.
            assert_eq!(report.solver.lp_solves, 2);
            let (plain_run, robust_run) = (plain_ctl.obs.report(), robust.inner.obs.report());
            crate::controller::assert_one_solve_per_epoch(&robust_run, 1);
            // With nothing injected the robust path IS the plain path:
            // same events (Φ included), same timing, the same solver
            // work on the same scenario set, the same counters and
            // recorder events, no fallbacks, no degraded modes.
            assert_eq!(report.events, plain.events);
            assert_eq!(report.policy_max_loss == 1.0, beta == 0.999, "β = {beta}");
            assert_eq!(report.pipeline, plain.pipeline);
            assert_eq!(report.prepared_before_cut, plain.prepared_before_cut);
            assert_eq!(report.prepared_before_cut, Some(true));
            let plain_solver = plain.solver.expect("the degradation triggered a solve");
            assert_eq!(report.solver, plain_solver);
            assert_eq!(report.solver.tail_mass, plain_solver.tail_mass);
            assert_eq!(report.solver.scenarios_pruned > 0, scenario_budget.is_some());
            assert_eq!(report.solver.tail_mass > 0.0, scenario_budget.is_some());
            assert_eq!(robust_run.counters, plain_run.counters);
            assert_eq!(robust_run.counters["controller.prepared_before_cut"], 1);
            let kinds = |run: &RunReport| -> Vec<String> {
                run.events.iter().map(|e| e.kind.clone()).collect()
            };
            assert_eq!(kinds(&robust_run), kinds(&plain_run));
            assert!(report.fallbacks_fired.is_empty());
            assert!(report.degraded_modes().is_empty());
            assert_eq!(report.worst_mode(), None);
        }
    }

    #[test]
    fn fault_matrix_never_panics_and_names_the_mode() {
        // Every fault kind x {transient, permanent}: the replay must
        // not panic, must leave a policy in force (finite max loss)
        // and must name the exact degraded mode it entered — or record
        // the recovery when retries cleared a transient fault.
        let predictor_kinds = [
            PredictorFaultKind::NonFinite,
            PredictorFaultKind::OutOfRange,
            PredictorFaultKind::LatencySpike,
            PredictorFaultKind::Unavailable,
        ];
        let solver_kinds = [SolverFaultKind::BudgetExceeded, SolverFaultKind::Infeasible];

        let mut cases: Vec<(String, FaultPlan, Option<DegradedMode>)> = vec![
            (
                "telemetry/permanent".into(),
                FaultPlan {
                    telemetry: Some(TelemetryFaults::light()),
                    ..FaultPlan::none(21)
                },
                Some(DegradedMode::SanitizedTelemetry),
            ),
            (
                "telemetry/transient".into(),
                FaultPlan {
                    telemetry: Some(TelemetryFaults {
                        persistence: FaultPersistence::Transient(30),
                        drop_prob: 0.5,
                        spike_prob: 0.2,
                        spike_db: f64::INFINITY,
                        swap_batch: Some(5),
                    }),
                    ..FaultPlan::none(22)
                },
                Some(DegradedMode::SanitizedTelemetry),
            ),
            (
                "tunnels/permanent".into(),
                FaultPlan {
                    tunnels: Some(TunnelFaults { fail_prob: 1.0, permanent_prob: 1.0 }),
                    ..FaultPlan::none(23)
                },
                Some(DegradedMode::PartialTunnelCommit),
            ),
            (
                "tunnels/transient".into(),
                FaultPlan {
                    tunnels: Some(TunnelFaults { fail_prob: 1.0, permanent_prob: 0.0 }),
                    ..FaultPlan::none(24)
                },
                None, // retries always land within the allowance
            ),
        ];
        for kind in predictor_kinds {
            cases.push((
                format!("predictor/{kind:?}/permanent"),
                FaultPlan {
                    predictor: Some(PredictorFaults {
                        kind,
                        persistence: FaultPersistence::Permanent,
                    }),
                    ..FaultPlan::none(25)
                },
                Some(DegradedMode::PriorProbability),
            ));
            cases.push((
                format!("predictor/{kind:?}/transient"),
                FaultPlan {
                    predictor: Some(PredictorFaults {
                        kind,
                        persistence: FaultPersistence::Transient(1),
                    }),
                    ..FaultPlan::none(26)
                },
                None, // one retry clears it
            ));
        }
        for kind in solver_kinds {
            cases.push((
                format!("solver/{kind:?}/permanent"),
                FaultPlan {
                    solver: Some(SolverFaults { kind, persistence: FaultPersistence::Permanent }),
                    ..FaultPlan::none(27)
                },
                Some(DegradedMode::LastKnownGoodPolicy),
            ));
            cases.push((
                format!("solver/{kind:?}/transient"),
                FaultPlan {
                    solver: Some(SolverFaults {
                        kind,
                        persistence: FaultPersistence::Transient(1),
                    }),
                    ..FaultPlan::none(28)
                },
                Some(DegradedMode::HeuristicSolver),
            ));
        }

        for (label, plan, expected_mode) in &cases {
            let report = replay(plan);
            // A policy is always in force.
            assert!(report.policy_max_loss.is_finite(), "{label}: no policy");
            assert!(
                report
                    .events
                    .iter()
                    .any(|e| matches!(e, ControllerEvent::PolicyRecomputed { .. })),
                "{label}: no PolicyRecomputed event"
            );
            match expected_mode {
                Some(mode) => assert!(
                    report.degraded_modes().contains(mode),
                    "{label}: expected {mode}, got {:?}",
                    report.degraded_modes()
                ),
                None => {
                    assert!(
                        report.degraded_modes().is_empty(),
                        "{label}: unexpected degraded modes {:?}",
                        report.degraded_modes()
                    );
                    assert!(
                        report.fallbacks_fired.iter().any(|f| matches!(
                            f.outcome,
                            FallbackOutcome::RecoveredAfterRetry { .. }
                        )),
                        "{label}: transient fault left no recovery record"
                    );
                }
            }
        }
    }

    #[test]
    fn partial_commit_establishes_nothing_under_permanent_rpc_failure() {
        let report = replay(&FaultPlan {
            tunnels: Some(TunnelFaults { fail_prob: 1.0, permanent_prob: 1.0 }),
            ..FaultPlan::none(31)
        });
        assert!(report.requested_tunnels > 0);
        assert_eq!(report.committed_tunnels, 0);
        assert!(!report
            .events
            .iter()
            .any(|e| matches!(e, ControllerEvent::TunnelsEstablished { .. })));
    }

    #[test]
    fn everything_at_once_still_produces_a_policy() {
        // The kitchen sink: all four fault classes in one replay.
        let plan = FaultPlan {
            seed: 99,
            telemetry: Some(TelemetryFaults::light()),
            predictor: Some(PredictorFaults {
                kind: PredictorFaultKind::Unavailable,
                persistence: FaultPersistence::Permanent,
            }),
            solver: Some(SolverFaults {
                kind: SolverFaultKind::Infeasible,
                persistence: FaultPersistence::Permanent,
            }),
            tunnels: Some(TunnelFaults { fail_prob: 1.0, permanent_prob: 1.0 }),
        };
        let report = replay(&plan);
        assert!(report.policy_max_loss.is_finite());
        assert_eq!(report.worst_mode(), Some(DegradedMode::LastKnownGoodPolicy));
        let modes = report.degraded_modes();
        assert!(modes.contains(&DegradedMode::SanitizedTelemetry));
        assert!(modes.contains(&DegradedMode::PriorProbability));
        assert!(modes.contains(&DegradedMode::LastKnownGoodPolicy));
    }

    #[test]
    fn replays_are_bit_identical_per_fault_seed() {
        let plan = FaultPlan {
            seed: 1234,
            telemetry: Some(TelemetryFaults { swap_batch: Some(8), ..TelemetryFaults::light() }),
            predictor: Some(PredictorFaults {
                kind: PredictorFaultKind::NonFinite,
                persistence: FaultPersistence::Transient(2),
            }),
            solver: Some(SolverFaults {
                kind: SolverFaultKind::BudgetExceeded,
                persistence: FaultPersistence::Transient(1),
            }),
            tunnels: Some(TunnelFaults { fail_prob: 0.7, permanent_prob: 0.3 }),
        };
        let a = replay(&plan);
        let b = replay(&plan);
        // Event-for-event identity, including every fallback record.
        assert_eq!(a, b);
        // A different fault seed perturbs the replay (the plan is
        // probabilistic enough that some draw changes).
        let c = replay(&FaultPlan { seed: 4321, ..plan });
        assert_ne!(a.fallbacks_fired, c.fallbacks_fired);
    }

    #[test]
    fn sanitize_interpolates_and_despikes() {
        let mut t = synthesize(FiberId(0), 0, 60, &[], None, TraceConfig::default(), 3);
        t.samples[10] = f64::NAN;
        t.samples[20] = f64::INFINITY;
        t.samples[30] += 40.0; // lone glitch, not a degradation
        let clean = sanitize_trace(&t);
        assert!(clean.samples.iter().all(|s| s.is_finite()));
        assert!(clean.samples[30] < t.samples[30] - 30.0, "spike survived");
    }

    #[test]
    fn sanitize_survives_an_all_cut_trace() {
        // Every sample missing/non-finite (a cut from sample zero, or a
        // dead sensor): sanitize must not panic and must return a fully
        // finite trace — interpolation has no anchor points and falls
        // back to a flat baseline.
        let mut t = synthesize(FiberId(0), 0, 50, &[], None, TraceConfig::default(), 3);
        for (i, s) in t.samples.iter_mut().enumerate() {
            *s = if i % 2 == 0 { f64::NAN } else { f64::INFINITY };
        }
        let clean = sanitize_trace(&t);
        assert_eq!(clean.samples.len(), 50);
        assert!(clean.samples.iter().all(|s| s.is_finite()), "{:?}", clean.samples);
    }

    #[test]
    fn sanitize_survives_a_single_sample_trace() {
        let mut t = synthesize(FiberId(0), 0, 1, &[], None, TraceConfig::default(), 3);
        assert_eq!(t.samples.len(), 1);
        // Finite sample passes through untouched (no neighbours to
        // despike against).
        let v = t.samples[0];
        let clean = sanitize_trace(&t);
        assert_eq!(clean.samples, vec![v]);
        // A lone non-finite sample interpolates to the empty-trace
        // fallback instead of panicking.
        t.samples[0] = f64::NEG_INFINITY;
        let clean = sanitize_trace(&t);
        assert_eq!(clean.samples.len(), 1);
        assert!(clean.samples[0].is_finite());
    }

    #[test]
    fn retry_schedule_is_deterministic_across_seeds() {
        // Same seed ⇒ same schedule, for many seeds; different seeds
        // jitter differently (with jitter > 0 the schedules cannot all
        // collide).
        let policy = RetryPolicy::default();
        let mut distinct = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            let a = policy.schedule(seed);
            let b = policy.schedule(seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            distinct.insert(a.iter().map(|d| d.to_bits()).collect::<Vec<_>>());
        }
        assert!(distinct.len() > 32, "jitter barely varies: {} distinct", distinct.len());
        // Zero jitter collapses every seed to one schedule.
        let flat = RetryPolicy { jitter: 0.0, ..policy };
        assert_eq!(flat.schedule(1), flat.schedule(2));
    }

    #[test]
    fn retry_policy_validation_rejects_bad_budgets() {
        use crate::faults::PlanError;
        assert_eq!(RetryPolicy::default().validate(), Ok(()));
        let zero = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
        assert_eq!(zero.validate(), Err(PlanError::ZeroAttempts { field: "retry.max_attempts" }));
        let bad_jitter = RetryPolicy { jitter: 1.5, ..RetryPolicy::default() };
        assert!(matches!(
            bad_jitter.validate(),
            Err(PlanError::ProbabilityOutOfRange { field: "retry.jitter", .. })
        ));
        let neg_delay = RetryPolicy { base_delay_ms: -1.0, ..RetryPolicy::default() };
        assert!(matches!(neg_delay.validate(), Err(PlanError::OutOfDomain { .. })));
        let shrink = RetryPolicy { multiplier: 0.5, ..RetryPolicy::default() };
        assert!(matches!(shrink.validate(), Err(PlanError::OutOfDomain { .. })));
    }

    #[test]
    fn report_carries_the_policy_in_force() {
        // Clean replay: the report's policy is the fresh solution.
        let clean = replay(&FaultPlan::none(11));
        assert_eq!(clean.policy.max_loss, clean.policy_max_loss);
        assert!(clean.policy.allocation.iter().all(|a| a.is_finite()));
        // Permanent solver faults: the report's policy IS the
        // last-known-good (loss matches, and the policy is over the
        // base tunnels).
        let stale = replay(&FaultPlan {
            solver: Some(SolverFaults {
                kind: SolverFaultKind::Infeasible,
                persistence: FaultPersistence::Permanent,
            }),
            ..FaultPlan::none(12)
        });
        assert_eq!(stale.worst_mode(), Some(DegradedMode::LastKnownGoodPolicy));
        assert_eq!(stale.policy.max_loss, stale.policy_max_loss);
    }

    #[test]
    fn retry_schedule_is_monotone_bounded_and_deterministic() {
        let policy = RetryPolicy::default();
        let s1 = policy.schedule(77);
        let s2 = policy.schedule(77);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), (policy.max_attempts - 1) as usize);
        for w in s1.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(s1.iter().all(|&d| d <= policy.max_delay_ms));
        assert!(s1.iter().sum::<f64>() <= policy.worst_case_total_ms());
    }

    #[test]
    fn degraded_modes_order_by_severity() {
        assert!(DegradedMode::SanitizedTelemetry < DegradedMode::PriorProbability);
        assert!(DegradedMode::PriorProbability < DegradedMode::HeuristicSolver);
        assert!(DegradedMode::HeuristicSolver < DegradedMode::PartialTunnelCommit);
        assert!(DegradedMode::PartialTunnelCommit < DegradedMode::LastKnownGoodPolicy);
    }
}
