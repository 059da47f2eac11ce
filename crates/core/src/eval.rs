//! Availability evaluation (Figures 13, 15, 16, 17; Table 4).
//!
//! The evaluator replays the probabilistic world against each scheme's
//! plans and charges outage time per the scheme's reaction model:
//!
//! 1. **Degradation states.** The world is in the all-healthy state
//!    with probability `Π_n (1 − p_d,n)`, or has (approximately) one
//!    degraded fiber. We evaluate the healthy state exactly plus the
//!    `top_k` most-likely single-degradation states, scaling their
//!    contribution up to the full single-degradation mass (documented
//!    approximation; the tail states have the smallest `p_d` and
//!    near-identical per-state behaviour).
//! 2. **True failure probabilities.** Regardless of what a scheme
//!    *believes*, failures are drawn from the ground truth: a degraded
//!    fiber cuts with its mean conditional probability (≈ 40 %), others
//!    with `(1 − α) p_i` (Theorem 4.1). Static schemes therefore
//!    underestimate failures exactly when it hurts (degradations) and
//!    overestimate otherwise — the paper's core observation.
//! 3. **Outage accounting.** Per scenario, the flow's outage fraction
//!    of the 15-minute epoch depends on the reaction model: persistent
//!    loss = full epoch; Flexile's centralized recompute = convergence
//!    time (or full epoch if even the recomputed optimum loses
//!    traffic); ARROW = 8 s when the plan leans on restoration;
//!    proactive local rate adaptation = no outage when residual
//!    capacity suffices.
//!
//! The oracle variant of PreTE is evaluated by splitting each degraded
//! state into will-cut / won't-cut outcomes with ground-truth weights
//! and handing the scheme the corresponding certainty vector.

use crate::capacity::{tunnel_sum, CapacityGroups};
use crate::estimator::TrueConditionals;
use crate::scenario::{DegradationState, ScenarioSet};
use crate::schemes::{
    Plan, ReactionModel, TeContext, TeScheme, ARROW_LATENCY_S, ARROW_RESTORE_FRACTION,
    FLEXILE_CONVERGENCE_S,
};
use prete_lp::{solve, LinearProgram, Sense, SolveStatus, VarId};
use prete_optical::{FailureModel, ALPHA_PREDICTABLE};
use prete_stats::dist::failure_prob_without_degradation;
use prete_topology::{FiberId, Flow, Network, TunnelSet};
use serde::Serialize;

/// Relative loss below which a flow counts as unaffected.
const LOSS_TOL: f64 = 1e-6;

/// SLA outage threshold in seconds: a loss burst at least this long
/// marks the epoch unavailable for the flow. Millisecond-scale local
/// rate adaptation stays below it; ARROW's 8 s restoration and
/// Flexile's convergence exceed it (the paper's Table 9 reaction-speed
/// taxonomy: "ms" vs "Seconds").
const SLA_OUTAGE_THRESHOLD_S: f64 = 1.0;

/// Evaluator configuration.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Number of single-degradation states to evaluate explicitly
    /// (most-probable first); the rest are represented by mass scaling.
    pub top_k_degraded: usize,
    /// The predictable-cut fraction `α` of the world under evaluation
    /// (Theorem 4.1's off-signal discount); defaults to the paper's
    /// 25 %, overridden by the Figure 20(b) α sweep.
    pub alpha: f64,
    /// Whether to split degraded states into oracle outcome branches
    /// (needed only when evaluating oracle-grade estimators; costs 2×
    /// plans per degraded state). When false, degraded states are
    /// planned once with the scheme's own beliefs.
    pub oracle_outcome_split: bool,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            top_k_degraded: 8,
            alpha: ALPHA_PREDICTABLE,
            oracle_outcome_split: false,
        }
    }
}

/// Per-scheme availability results.
#[derive(Debug, Clone, Serialize)]
pub struct AvailabilityReport {
    /// Scheme label.
    pub scheme: String,
    /// Availability per flow.
    pub per_flow: Vec<f64>,
    /// Demand-weighted mean availability.
    pub mean: f64,
    /// Worst-flow availability.
    pub min: f64,
    /// Total admitted bandwidth in the healthy state (Gbps) — the
    /// throughput side of the trade-off.
    pub admitted_gbps: f64,
}

impl AvailabilityReport {
    /// Mean unavailability in "nines": `-log10(1 - mean)`.
    pub fn nines(&self) -> f64 {
        -(1.0 - self.mean).max(1e-12).log10()
    }
}

/// The availability evaluator for one (topology, traffic, model)
/// configuration.
pub struct AvailabilityEvaluator<'a> {
    /// Network under test.
    pub net: &'a Network,
    /// Failure model (rates + ground truth).
    pub model: &'a FailureModel,
    /// Flows with scaled demands.
    pub flows: Vec<Flow>,
    /// Pre-established tunnels.
    pub base_tunnels: &'a TunnelSet,
    /// Ground-truth conditional cut probabilities.
    pub truth: &'a TrueConditionals,
    /// Configuration.
    pub cfg: EvalConfig,
    groups: CapacityGroups,
}

impl<'a> AvailabilityEvaluator<'a> {
    /// Builds an evaluator.
    pub fn new(
        net: &'a Network,
        model: &'a FailureModel,
        flows: Vec<Flow>,
        base_tunnels: &'a TunnelSet,
        truth: &'a TrueConditionals,
        cfg: EvalConfig,
    ) -> Self {
        let groups = CapacityGroups::build(net);
        Self { net, model, flows, base_tunnels, truth, cfg, groups }
    }

    /// The true per-fiber cut probabilities for a degradation state,
    /// with optional oracle outcome pinning of the degraded fiber.
    fn true_probs(&self, state: &DegradationState, outcome: Option<bool>) -> Vec<f64> {
        self.model
            .profiles()
            .iter()
            .enumerate()
            .map(|(n, p)| {
                if state.is_degraded(FiberId(n)) {
                    match outcome {
                        Some(true) => 1.0,
                        Some(false) => 0.0,
                        None => self.truth.per_fiber[n],
                    }
                } else {
                    failure_prob_without_degradation(p.p_cut, self.cfg.alpha)
                }
            })
            .collect()
    }

    /// Evaluates one scheme, returning per-flow availability.
    pub fn evaluate(&self, scheme: &dyn TeScheme) -> AvailabilityReport {
        let ctx = TeContext {
            net: self.net,
            model: self.model,
            flows: &self.flows,
            base_tunnels: self.base_tunnels,
        };
        let n_flows = self.flows.len();
        let mut unavail = vec![0.0f64; n_flows];
        let mut mass_seen = 0.0f64;

        // --- Healthy state.
        let p_d: Vec<f64> = self.model.profiles().iter().map(|p| p.p_degradation).collect();
        let p_healthy: f64 = p_d.iter().map(|p| 1.0 - p).product();
        let healthy_plan = scheme.plan(&ctx, &DegradationState::healthy(), None);
        let admitted_gbps: f64 = healthy_plan.admitted.iter().sum();
        let healthy_truth = self.true_probs(&DegradationState::healthy(), None);
        self.accumulate(
            scheme,
            &healthy_plan,
            &healthy_truth,
            p_healthy,
            &mut unavail,
        );
        mass_seen += p_healthy;

        // --- Degraded states: top-k by degradation probability, scaled
        // to the full single-degradation mass.
        let mut order: Vec<usize> = (0..p_d.len()).collect();
        order.sort_by(|&a, &b| p_d[b].partial_cmp(&p_d[a]).expect("finite").then(a.cmp(&b)));
        let single_mass: f64 = (0..p_d.len())
            .map(|n| p_d[n] / (1.0 - p_d[n]) * p_healthy)
            .sum();
        let covered: f64 = order
            .iter()
            .take(self.cfg.top_k_degraded)
            .map(|&n| p_d[n] / (1.0 - p_d[n]) * p_healthy)
            .sum();
        let scale = if covered > 0.0 { single_mass / covered } else { 1.0 };
        for &n in order.iter().take(self.cfg.top_k_degraded) {
            let state = DegradationState::single(FiberId(n));
            let p_state = p_d[n] / (1.0 - p_d[n]) * p_healthy * scale;
            if p_state <= 0.0 {
                continue;
            }
            if self.cfg.oracle_outcome_split {
                // Oracle branch: the scheme is told the exact outcome.
                let p_cut = self.truth.per_fiber[n];
                for (outcome, w) in [(true, p_cut), (false, 1.0 - p_cut)] {
                    if w <= 0.0 {
                        continue;
                    }
                    let probs = self.true_probs(&state, Some(outcome));
                    let plan = if scheme.state_aware() {
                        scheme.plan(&ctx, &state, Some(&probs))
                    } else {
                        healthy_plan.clone()
                    };
                    self.accumulate(scheme, &plan, &probs, p_state * w, &mut unavail);
                }
            } else {
                let plan = if scheme.state_aware() {
                    scheme.plan(&ctx, &state, None)
                } else {
                    healthy_plan.clone()
                };
                let probs = self.true_probs(&state, None);
                self.accumulate(scheme, &plan, &probs, p_state, &mut unavail);
            }
            mass_seen += p_state;
        }

        let per_flow: Vec<f64> = unavail
            .iter()
            .map(|&u| (1.0 - u / mass_seen).clamp(0.0, 1.0))
            .collect();
        let total_demand: f64 = self.flows.iter().map(|f| f.demand_gbps).sum();
        let mean = self
            .flows
            .iter()
            .zip(&per_flow)
            .map(|(f, &a)| f.demand_gbps * a)
            .sum::<f64>()
            / total_demand;
        let min = per_flow.iter().cloned().fold(1.0, f64::min);
        AvailabilityReport { scheme: scheme.name(), per_flow, mean, min, admitted_gbps }
    }

    /// Adds `weight × p_q × outage(q)` for every failure scenario under
    /// `true_probs`.
    fn accumulate(
        &self,
        scheme: &dyn TeScheme,
        plan: &Plan,
        true_probs: &[f64],
        weight: f64,
        unavail: &mut [f64],
    ) {
        let scenarios = ScenarioSet::enumerate(true_probs, 1, 0.0);
        // Cache Flexile's recomputed optima per scenario.
        let mut recompute_cache: Vec<Option<Vec<f64>>> = vec![None; scenarios.len()];
        for (qi, q) in scenarios.scenarios.iter().enumerate() {
            if q.prob <= 0.0 {
                continue;
            }
            for (f, acc) in unavail.iter_mut().enumerate().take(self.flows.len()) {
                let u = self.outage_fraction(
                    scheme,
                    plan,
                    f,
                    &q.cut,
                    qi,
                    &mut recompute_cache,
                );
                if u > 0.0 {
                    *acc += weight * q.prob * u;
                }
            }
        }
    }

    /// Outage fraction of the epoch for flow `f` in scenario `cut`.
    fn outage_fraction(
        &self,
        scheme: &dyn TeScheme,
        plan: &Plan,
        f: usize,
        cut: &[FiberId],
        qi: usize,
        recompute_cache: &mut [Option<Vec<f64>>],
    ) -> f64 {
        let d = self.flows[f].demand_gbps;
        if d <= 0.0 {
            return 0.0;
        }
        let tol = LOSS_TOL * d;
        let delivered = plan.delivered(self.net, &self.groups, f, &self.flows, cut);
        // Availability is binary per (flow, scenario): any loss beyond
        // tolerance marks the flow unavailable for the whole epoch, so
        // an admitted `b_f < d_f` (TeaVaR/FFC/ARROW under load) reads as
        // unavailable even when every admitted bit arrives. ROADMAP
        // item 4 decides whether a partial rule replaces this.
        let healthy_ok = delivered + tol >= d;
        let outage = if healthy_ok { 0.0 } else { 1.0 };
        match scheme.reaction() {
            // Nothing failed, or nothing reacts: the plan's delivery decides.
            _ if cut.is_empty() => outage,
            ReactionModel::None | ReactionModel::LocalRateAdaptation => outage,
            ReactionModel::CentralizedRecompute => {
                // Was the flow touched by the failure at all? A reactive
                // scheme loses the traffic of killed tunnels until the
                // centralized recompute converges.
                let touched = plan.killed_allocation(self.net, f, &self.flows, cut) > tol
                    || !healthy_ok;
                if !touched {
                    return 0.0;
                }
                // Post-convergence optimum for this scenario.
                let post = recompute_cache[qi]
                    .get_or_insert_with(|| self.recompute_optimum(plan, cut));
                let post_ok = post[f] + tol >= d;
                if !post_ok || FLEXILE_CONVERGENCE_S >= SLA_OUTAGE_THRESHOLD_S {
                    1.0
                } else {
                    0.0
                }
            }
            ReactionModel::OpticalRestoration => {
                let restored = (delivered
                    + ARROW_RESTORE_FRACTION
                        * plan.killed_allocation(self.net, f, &self.flows, cut))
                .min(plan.admitted[f]);
                let restored_ok = restored + tol >= d;
                if !restored_ok {
                    1.0
                } else if !healthy_ok {
                    // The flow relies on restoration: it loses traffic
                    // for the restoration latency (8 s), which breaches
                    // the SLA burst threshold — the reason ARROW cannot
                    // reach 99.95 % in Figure 13.
                    if ARROW_LATENCY_S >= SLA_OUTAGE_THRESHOLD_S {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    0.0
                }
            }
        }
    }

    /// Flexile's post-convergence delivery: the max-throughput LP on
    /// the failed topology (every flow capped at its demand).
    fn recompute_optimum(&self, plan: &Plan, cut: &[FiberId]) -> Vec<f64> {
        let (lp, b_vars) = self.recompute_lp(plan, cut);
        let sol = solve(&lp);
        assert_eq!(sol.status, SolveStatus::Optimal);
        b_vars.iter().map(|&v| sol.value(v).max(0.0)).collect()
    }

    /// The LP [`recompute_optimum`](Self::recompute_optimum) solves:
    /// capacity rows over the tunnels that survive `cut`, and per flow
    /// `Σ surviving a ≥ b_f`. Returns the program and the `b` columns.
    pub(crate) fn recompute_lp(&self, plan: &Plan, cut: &[FiberId]) -> (LinearProgram, Vec<VarId>) {
        let mut lp = LinearProgram::new();
        let a_vars: Vec<VarId> = (0..plan.tunnels.len()).map(|_| lp.var_nonneg(0.0)).collect();
        let b_vars: Vec<VarId> = self
            .flows
            .iter()
            .map(|fl| lp.var_bounded(0.0, fl.demand_gbps, -1.0))
            .collect();
        let surviving = plan.tunnels.tunnels().iter().filter(|t| t.survives(self.net, cut));
        self.groups.add_rows(&mut lp, &a_vars, surviving);
        for (f, fl) in self.flows.iter().enumerate() {
            let mut terms = tunnel_sum(&a_vars, &plan.tunnels.surviving(self.net, fl.id, cut));
            terms.push((b_vars[f], -1.0));
            lp.add_constraint(terms, Sense::Ge, 0.0);
        }
        (lp, b_vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::ProbabilityEstimator;
    use crate::examples::{triangle, triangle_flows};
    use crate::schemes::{EcmpScheme, FfcScheme, PreTeScheme, TeaVarScheme};
    use prete_topology::TunnelSet;

    struct Fixture {
        net: Network,
        model: FailureModel,
        flows: Vec<Flow>,
        tunnels: TunnelSet,
        truth: TrueConditionals,
    }

    /// Triangle at 40 % load (4 of 10 units per flow): the regime where
    /// single-cut protection is feasible — the operating point of the
    /// paper's scale-1 evaluations. At full load the triangle cannot
    /// protect anything and every proactive scheme degenerates.
    fn fixture() -> Fixture {
        let net = triangle();
        let model = FailureModel::new(&net, 42);
        let flows: Vec<Flow> = triangle_flows()
            .into_iter()
            .map(|f| Flow { demand_gbps: 4.0, ..f })
            .collect();
        let tunnels = TunnelSet::initialize(&net, &flows, 2);
        let truth = TrueConditionals::ground_truth(&net, &model, 100, 7);
        Fixture { net, model, flows, tunnels, truth }
    }

    fn evaluator(fx: &Fixture) -> AvailabilityEvaluator<'_> {
        AvailabilityEvaluator::new(
            &fx.net,
            &fx.model,
            fx.flows.clone(),
            &fx.tunnels,
            &fx.truth,
            EvalConfig { top_k_degraded: 3, ..Default::default() },
        )
    }

    #[test]
    fn availability_in_unit_interval() {
        let fx = fixture();
        let ev = evaluator(&fx);
        let r = ev.evaluate(&EcmpScheme);
        assert_eq!(r.per_flow.len(), fx.flows.len());
        for &a in &r.per_flow {
            assert!((0.0..=1.0).contains(&a));
        }
        assert!(r.min <= r.mean + 1e-12 && r.mean <= 1.0, "min {} mean {}", r.min, r.mean);
    }

    #[test]
    fn ffc1_beats_ecmp_under_failures() {
        let fx = fixture();
        let ev = evaluator(&fx);
        let ecmp = ev.evaluate(&EcmpScheme);
        let ffc = ev.evaluate(&FfcScheme::one());
        assert!(
            ffc.mean >= ecmp.mean,
            "FFC {} < ECMP {}",
            ffc.mean,
            ecmp.mean
        );
    }

    #[test]
    fn prete_at_least_as_available_as_teavar() {
        // The headline claim at triangle scale: dynamic probabilities +
        // reactive tunnels never hurt availability — at targets that
        // make a scheme plan for failures.
        let fx = fixture();
        let ev = evaluator(&fx);
        let run = |beta: f64| {
            let teavar = ev.evaluate(&TeaVarScheme::new(&fx.model, beta));
            let prete = ev.evaluate(&PreTeScheme::new(
                beta,
                ProbabilityEstimator::prete(&fx.model, &fx.truth),
            ));
            // What PreTE promises at any β, and a scheme blind to
            // degradations cannot: every flow meets the target.
            assert!(prete.min >= beta, "β = {beta}: PreTE's worst flow at {}", prete.min);
            (prete.mean, teavar.mean)
        };
        for beta in [0.995, 0.999] {
            let (prete, teavar) = run(beta);
            assert!(prete + 1e-9 >= teavar, "β = {beta}: PreTE {prete} < TeaVaR {teavar}");
        }
        // β = 0.99 is no such target for PreTE: the healthy no-failure
        // mass under its (1 − α)-discounted probabilities is 0.9922, so
        // it owes the healthy state no protection, every Φ = 0 vertex is
        // optimal, and whether its spare capacity happens to cover cuts
        // is the LP engine's tie-break, not the scheme (two-phase primal
        // lands on a covering vertex, the dual cold start on one that
        // exposes flow 0: 0.99612). TeaVaR's undiscounted mass, 0.9896,
        // makes it cover the likeliest cut (0.99628). Only the promise
        // holds there.
        run(0.99);
    }

    #[test]
    fn oracle_split_at_least_as_good_as_plain() {
        let fx = fixture();
        let mut cfg = EvalConfig { top_k_degraded: 3, ..Default::default() };
        let plain = AvailabilityEvaluator::new(
            &fx.net,
            &fx.model,
            fx.flows.clone(),
            &fx.tunnels,
            &fx.truth,
            cfg,
        );
        let scheme =
            PreTeScheme::new(0.99, ProbabilityEstimator::prete(&fx.model, &fx.truth));
        let base = plain.evaluate(&scheme);
        cfg.oracle_outcome_split = true;
        let oracle_ev = AvailabilityEvaluator::new(
            &fx.net,
            &fx.model,
            fx.flows.clone(),
            &fx.tunnels,
            &fx.truth,
            cfg,
        );
        let oracle = oracle_ev.evaluate(&scheme);
        // The greedy inner solver does not guarantee pointwise
        // dominance (different branches polish toward different base
        // scenarios), so allow a hair of slack; the oracle must never
        // be *meaningfully* worse than planning under uncertainty.
        assert!(
            oracle.mean + 5e-5 >= base.mean,
            "oracle {} < plain {}",
            oracle.mean,
            base.mean
        );
    }

    #[test]
    fn nines_conversion() {
        let r = AvailabilityReport {
            scheme: "x".into(),
            per_flow: vec![],
            mean: 0.999,
            min: 0.999,
            admitted_gbps: 0.0,
        };
        assert!((r.nines() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn overload_collapses_availability() {
        // At 5× demand the triangle cannot carry the traffic: every
        // scheme's availability drops far below 99 %.
        let fx = fixture();
        let scaled: Vec<Flow> = fx
            .flows
            .iter()
            .map(|f| Flow { demand_gbps: f.demand_gbps * 5.0, ..*f })
            .collect();
        let ev = AvailabilityEvaluator::new(
            &fx.net,
            &fx.model,
            scaled,
            &fx.tunnels,
            &fx.truth,
            EvalConfig::default(),
        );
        let r = ev.evaluate(&TeaVarScheme::new(&fx.model, 0.99));
        assert!(r.mean < 0.99, "availability {}", r.mean);
    }
}
