//! The benchmark TE schemes of §6.1 behind a common trait.
//!
//! | Scheme  | Failure model      | Tunnel updates | Reaction (Table 9) |
//! |---------|--------------------|----------------|---------------------|
//! | ECMP    | none               | no             | none                |
//! | FFC-k   | worst-case ≤ k     | no             | local, ms           |
//! | TeaVaR  | static `p_i`       | no             | local, ms           |
//! | ARROW   | static `p_i`       | no             | restoration, 8 s    |
//! | Flexile | static `p_i`       | no             | recompute, seconds  |
//! | PreTE   | dynamic (Eqn 1)    | **yes** (Alg 1)| local, ms           |
//!
//! Each scheme produces a [`Plan`]: a tunnel set, a per-tunnel
//! allocation, and per-flow admitted bandwidth. The availability
//! evaluator ([`crate::eval`]) replays failure scenarios against plans
//! and charges reaction-time outages per the scheme's
//! [`ReactionModel`].

use crate::algorithm1::{update_tunnels, TunnelUpdateConfig};
use crate::capacity::{tunnel_sum, CapacityGroups};
use crate::estimator::ProbabilityEstimator;
use crate::optimizer::{TeProblem, TeSolver, DEFAULT_BETA};
use crate::scenario::{DegradationState, ScenarioSet};
use prete_lp::{solve, LinearProgram, Sense, SolveStatus, VarId};
use prete_optical::FailureModel;
use prete_topology::{FiberId, Flow, FlowId, Network, TunnelSet};

/// Shared planning context.
#[derive(Debug)]
pub struct TeContext<'a> {
    /// The network.
    pub net: &'a Network,
    /// The failure model (source of static probabilities).
    pub model: &'a FailureModel,
    /// Flows with (possibly scaled) demands.
    pub flows: &'a [Flow],
    /// Pre-established tunnels.
    pub base_tunnels: &'a TunnelSet,
}

/// How the scheme reacts when a failure actually happens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReactionModel {
    /// No reaction at all (ECMP): losses persist for the epoch.
    None,
    /// Rate adaptation at the affected endpoints — milliseconds, no
    /// measurable outage when residual capacity suffices.
    LocalRateAdaptation,
    /// Centralized recomputation (Flexile): affected flows lose traffic
    /// for [`FLEXILE_CONVERGENCE_S`] even when the recomputed policy is
    /// perfect.
    CentralizedRecompute,
    /// Optical restoration (ARROW): [`ARROW_RESTORE_FRACTION`] of the
    /// lost tunnel bandwidth is rebuilt after [`ARROW_LATENCY_S`]; flows
    /// relying on restored capacity lose traffic in the meantime.
    OpticalRestoration,
}

/// Flexile's end-to-end convergence time in seconds, charged per
/// affecting failure, tunnel setup included (§2.1: reactive schemes
/// "fail to satisfy bandwidth requirements … for minutes").
pub const FLEXILE_CONVERGENCE_S: f64 = 120.0;

/// ARROW's optical restoration latency in seconds (paper: 8 s).
pub const ARROW_LATENCY_S: f64 = 8.0;

/// Fraction of killed tunnel bandwidth ARROW's restoration recovers.
pub const ARROW_RESTORE_FRACTION: f64 = 0.7;

/// A computed TE policy.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Tunnels the plan uses (base + reactive for PreTE).
    pub tunnels: TunnelSet,
    /// Allocation per tunnel (indexed by tunnel id).
    pub allocation: Vec<f64>,
    /// Admitted bandwidth per flow (`b_f ≤ d_f`; equals `d_f` for
    /// schemes that do not admission-control).
    pub admitted: Vec<f64>,
}

impl Plan {
    /// Bandwidth delivered to flow index `f` when `cut` fibers fail,
    /// **before** any reaction: surviving tunnels send their allocated
    /// rates, scaled down per trunk if the surviving load oversubscribes
    /// a trunk (only ECMP ever does).
    pub fn delivered(
        &self,
        net: &Network,
        groups: &CapacityGroups,
        f: usize,
        flows: &[Flow],
        cut: &[FiberId],
    ) -> f64 {
        // Surviving per-group load.
        let carrying =
            self.tunnels.tunnels().iter().filter(|t| self.allocation[t.id.index()] > 0.0);
        let load = groups.load(carrying.filter(|t| t.survives(net, cut)), &self.allocation);
        let flow_id = flows[f].id;
        let mut total = 0.0;
        for &tid in self.tunnels.of_flow(flow_id) {
            let t = self.tunnels.tunnel(tid);
            let a = self.allocation[tid.index()];
            if a <= 0.0 || !t.survives(net, cut) {
                continue;
            }
            let mut factor: f64 = 1.0;
            for g in groups.groups_of_path(&t.path.links) {
                if load[g] > groups.capacity(g) {
                    factor = factor.min(groups.capacity(g) / load[g]);
                }
            }
            total += a * factor;
        }
        total.min(self.admitted[f])
    }

    /// Allocation lost by flow `f` under `cut` (used by the ARROW
    /// restoration model).
    pub fn killed_allocation(&self, net: &Network, f: usize, flows: &[Flow], cut: &[FiberId]) -> f64 {
        killed(net, &self.tunnels, &self.allocation, flows[f].id, cut)
    }
}

/// Allocation on `flow`'s tunnels that `cut` kills.
fn killed(
    net: &Network,
    tunnels: &TunnelSet,
    allocation: &[f64],
    flow: FlowId,
    cut: &[FiberId],
) -> f64 {
    tunnels
        .of_flow(flow)
        .iter()
        .filter(|&&t| !tunnels.tunnel(t).survives(net, cut))
        .map(|&t| allocation[t.index()])
        .sum()
}

/// The per-fiber probabilities a scheme plans with: `probs_override`
/// when given, else `estimator`'s for `state`.
fn beliefs(
    estimator: &ProbabilityEstimator,
    state: &DegradationState,
    probs_override: Option<&[f64]>,
) -> Vec<f64> {
    probs_override.map_or_else(|| estimator.probabilities(state), <[f64]>::to_vec)
}

/// A TE scheme: computes plans and declares its reaction behaviour.
pub trait TeScheme {
    /// Scheme label for reports.
    fn name(&self) -> String;
    /// Post-failure reaction model.
    fn reaction(&self) -> ReactionModel;
    /// Whether the plan depends on the degradation state (PreTE) or is
    /// computed once (static schemes).
    fn state_aware(&self) -> bool {
        false
    }
    /// The availability target β the scheme plans for. Schemes without
    /// one (ECMP, FFC) report the [`TeSolver`] default.
    fn beta(&self) -> f64 {
        DEFAULT_BETA
    }
    /// The tunnel set the scheme routes over in `state`: the base set
    /// for static schemes, base + Algorithm 1's reactive tunnels for
    /// PreTE. Cheap (no LP) — the controller calls this, not [`plan`],
    /// and runs the one TE solve of the epoch itself.
    ///
    /// [`plan`]: TeScheme::plan
    fn tunnels(&self, ctx: &TeContext<'_>, state: &DegradationState) -> TunnelSet;
    /// Computes the plan over [`tunnels`](TeScheme::tunnels).
    /// `probs_override` replaces the scheme's own
    /// per-fiber probabilities (the evaluator uses it for the oracle's
    /// certainty splits); schemes that ignore probabilities ignore it.
    fn plan(
        &self,
        ctx: &TeContext<'_>,
        state: &DegradationState,
        probs_override: Option<&[f64]>,
    ) -> Plan;
}

// ---------------------------------------------------------------- ECMP

/// ECMP: split each flow evenly over its tunnels, ignore failures and
/// capacities (overload handled by the delivery model).
#[derive(Debug, Clone, Copy, Default)]
pub struct EcmpScheme;

impl TeScheme for EcmpScheme {
    fn name(&self) -> String {
        "ECMP".into()
    }

    fn reaction(&self) -> ReactionModel {
        ReactionModel::None
    }

    fn tunnels(&self, ctx: &TeContext<'_>, _state: &DegradationState) -> TunnelSet {
        ctx.base_tunnels.clone()
    }

    fn plan(&self, ctx: &TeContext<'_>, state: &DegradationState, _p: Option<&[f64]>) -> Plan {
        let tunnels = self.tunnels(ctx, state);
        let mut allocation = vec![0.0; tunnels.len()];
        for flow in ctx.flows {
            let ts = tunnels.of_flow(flow.id);
            let share = flow.demand_gbps / ts.len() as f64;
            for &t in ts {
                allocation[t.index()] = share;
            }
        }
        let admitted = ctx.flows.iter().map(|f| f.demand_gbps).collect();
        Plan { tunnels, allocation, admitted }
    }
}

// ----------------------------------------------------------------- FFC

/// FFC-k (Liu et al. \[26\]): maximize admitted bandwidth with a
/// *guarantee* of zero loss under any `k` simultaneous fiber cuts.
///
/// Solved with lazy worst-case row generation: start from the
/// no-failure constraints, find each flow's worst ≤ k-cut against the
/// current allocation, add violated rows, repeat. Exact because the
/// separation step enumerates the (small) set of fibers the flow's
/// tunnels actually use.
#[derive(Debug, Clone, Copy)]
pub struct FfcScheme {
    /// Number of simultaneous cuts to guarantee against (1 or 2).
    pub k: usize,
}

impl FfcScheme {
    /// FFC-1.
    pub fn one() -> Self {
        Self { k: 1 }
    }

    /// FFC-2.
    pub fn two() -> Self {
        Self { k: 2 }
    }
}

/// Shared helper: LP maximizing Σ b_f subject to trunk capacities and a
/// set of per-flow survival rows. Returns (allocation, admitted).
pub(crate) struct ThroughputLp<'p> {
    pub(crate) lp: LinearProgram,
    a_vars: Vec<VarId>,
    b_vars: Vec<VarId>,
    ctx: &'p TeContext<'p>,
    tunnels: &'p TunnelSet,
}

impl<'p> ThroughputLp<'p> {
    fn new(ctx: &'p TeContext<'p>, tunnels: &'p TunnelSet, groups: &CapacityGroups) -> Self {
        let mut lp = LinearProgram::new();
        let a_vars: Vec<VarId> = (0..tunnels.len()).map(|_| lp.var_nonneg(0.0)).collect();
        // maximize Σ b_f → minimize -Σ b_f.
        let b_vars: Vec<VarId> = ctx
            .flows
            .iter()
            .map(|f| lp.var_bounded(0.0, f.demand_gbps, -1.0))
            .collect();
        // Fairness tie-break: a plain Σ b_f objective has degenerate
        // optima that zero out individual flows. A small bonus on the
        // worst admitted fraction `z` picks the fair vertex among
        // equal-throughput optima without sacrificing total throughput.
        let total_demand: f64 = ctx.flows.iter().map(|f| f.demand_gbps).sum();
        let z = lp.var_unit(-0.01 * total_demand);
        for (f, flow) in ctx.flows.iter().enumerate() {
            if flow.demand_gbps > 0.0 {
                // b_f − d_f·z ≥ 0  ⇔  z ≤ b_f / d_f.
                lp.add_constraint(
                    vec![(b_vars[f], 1.0), (z, -flow.demand_gbps)],
                    Sense::Ge,
                    0.0,
                );
            }
        }
        groups.add_rows(&mut lp, &a_vars, tunnels.tunnels());
        Self { lp, a_vars, b_vars, ctx, tunnels }
    }

    /// Adds `Σ_{t surviving cut} a_t ≥ b_f`.
    fn add_survival_row(&mut self, f: usize, cut: &[FiberId]) {
        let surviving = self.tunnels.surviving(self.ctx.net, self.ctx.flows[f].id, cut);
        let mut terms = tunnel_sum(&self.a_vars, &surviving);
        terms.push((self.b_vars[f], -1.0));
        self.lp.add_constraint(terms, Sense::Ge, 0.0);
    }

    fn solve(&self) -> (Vec<f64>, Vec<f64>) {
        let sol = solve(&self.lp);
        assert_eq!(sol.status, SolveStatus::Optimal, "throughput LP unsolvable");
        (
            self.a_vars.iter().map(|&v| sol.value(v).max(0.0)).collect(),
            self.b_vars.iter().map(|&v| sol.value(v).max(0.0)).collect(),
        )
    }
}

impl TeScheme for FfcScheme {
    fn name(&self) -> String {
        format!("FFC-{}", self.k)
    }

    fn reaction(&self) -> ReactionModel {
        ReactionModel::LocalRateAdaptation
    }

    fn tunnels(&self, ctx: &TeContext<'_>, _state: &DegradationState) -> TunnelSet {
        ctx.base_tunnels.clone()
    }

    fn plan(&self, ctx: &TeContext<'_>, state: &DegradationState, _p: Option<&[f64]>) -> Plan {
        assert!(self.k >= 1 && self.k <= 2, "FFC-k supports k ∈ {{1,2}}");
        let groups = CapacityGroups::build(ctx.net);
        let tunnels = self.tunnels(ctx, state);
        let mut builder = ThroughputLp::new(ctx, &tunnels, &groups);
        for f in 0..ctx.flows.len() {
            builder.add_survival_row(f, &[]);
        }
        // Per-flow fiber universe (only these can hurt the flow).
        let fiber_sets: Vec<Vec<FiberId>> = ctx
            .flows
            .iter()
            .map(|flow| {
                let mut fs: Vec<FiberId> = tunnels
                    .of_flow(flow.id)
                    .iter()
                    .flat_map(|&t| tunnels.tunnel(t).path.fibers(ctx.net))
                    .collect();
                fs.sort();
                fs.dedup();
                fs
            })
            .collect();
        // Lazy separation loop.
        let mut added: std::collections::HashSet<(usize, Vec<FiberId>)> =
            std::collections::HashSet::new();
        let (mut allocation, mut admitted);
        loop {
            let (a, b) = builder.solve();
            allocation = a;
            admitted = b;
            let mut violated = 0usize;
            for f in 0..ctx.flows.len() {
                if let Some(cut) = worst_cut(
                    ctx.net,
                    &tunnels,
                    &allocation,
                    ctx.flows[f].id,
                    &fiber_sets[f],
                    self.k,
                ) {
                    let surviving: f64 = tunnels
                        .surviving(ctx.net, ctx.flows[f].id, &cut)
                        .iter()
                        .map(|&t| allocation[t.index()])
                        .sum();
                    if surviving + 1e-7 < admitted[f] && added.insert((f, cut.clone())) {
                        builder.add_survival_row(f, &cut);
                        violated += 1;
                    }
                }
            }
            if violated == 0 {
                break;
            }
        }
        Plan { tunnels, allocation, admitted }
    }
}

/// The worst ≤ `k`-fiber cut for a flow against an allocation: the cut
/// maximizing killed allocation, from the flow's own fiber universe.
fn worst_cut(
    net: &Network,
    tunnels: &TunnelSet,
    allocation: &[f64],
    flow: FlowId,
    fibers: &[FiberId],
    k: usize,
) -> Option<Vec<FiberId>> {
    let mut best: Option<(f64, Vec<FiberId>)> = None;
    let mut consider = |cut: Vec<FiberId>| {
        let v = killed(net, tunnels, allocation, flow, &cut);
        if best.as_ref().map_or(v > 0.0, |(bv, _)| v > *bv) {
            best = Some((v, cut));
        }
    };
    for (i, &fi) in fibers.iter().enumerate() {
        consider(vec![fi]);
        if k >= 2 {
            for &fj in &fibers[i + 1..] {
                let mut c = vec![fi, fj];
                c.sort();
                consider(c);
            }
        }
    }
    best.map(|(_, c)| c)
}

// -------------------------------------------------------------- TeaVaR

/// TeaVaR (Bogle et al. \[6\]): maximize admitted bandwidth such that the
/// network carries *all* admitted traffic in a scenario set of total
/// probability ≥ β (the joint availability bound of §2.2's worked
/// example). Scenario selection is by decreasing probability, using the
/// **static** failure probabilities.
#[derive(Debug, Clone)]
pub struct TeaVarScheme {
    /// Availability bound β.
    pub beta: f64,
    /// The static probability estimator.
    pub estimator: ProbabilityEstimator,
}

impl TeaVarScheme {
    /// Builds TeaVaR with the static estimator of `model`.
    pub fn new(model: &FailureModel, beta: f64) -> Self {
        Self { beta, estimator: ProbabilityEstimator::static_model(model) }
    }

    fn selected_scenarios(probs: &[f64], beta: f64) -> ScenarioSet {
        let all = ScenarioSet::enumerate(probs, 1, 0.0);
        let mut mass = 0.0;
        let mut kept = Vec::new();
        for s in all.scenarios {
            if mass >= beta {
                break;
            }
            mass += s.prob;
            kept.push(s);
        }
        // The single-cut enumeration can fall short of β when the
        // static cut probabilities are high (deeper scenarios hold the
        // residual mass). Protecting everything enumerated is then the
        // strongest guarantee available — the same clamp the optimizer
        // applies to its knapsack rows — and strictly better than
        // aborting the scheme.
        ScenarioSet { scenarios: kept }
    }

    /// The LP [`plan`](TeScheme::plan) solves: maximize admitted
    /// bandwidth with a survival row per flow and selected scenario.
    pub(crate) fn throughput_lp<'p>(
        &self,
        ctx: &'p TeContext<'p>,
        tunnels: &'p TunnelSet,
        probs: &[f64],
    ) -> ThroughputLp<'p> {
        let selected = Self::selected_scenarios(probs, self.beta);
        let groups = CapacityGroups::build(ctx.net);
        let mut builder = ThroughputLp::new(ctx, tunnels, &groups);
        for f in 0..ctx.flows.len() {
            for q in &selected.scenarios {
                builder.add_survival_row(f, &q.cut);
            }
        }
        builder
    }
}

impl TeScheme for TeaVarScheme {
    fn name(&self) -> String {
        "TeaVaR".into()
    }

    fn reaction(&self) -> ReactionModel {
        ReactionModel::LocalRateAdaptation
    }

    fn beta(&self) -> f64 {
        self.beta
    }

    fn tunnels(&self, ctx: &TeContext<'_>, _state: &DegradationState) -> TunnelSet {
        ctx.base_tunnels.clone()
    }

    fn plan(&self, ctx: &TeContext<'_>, state: &DegradationState, probs_override: Option<&[f64]>) -> Plan {
        let probs = beliefs(&self.estimator, state, probs_override);
        let tunnels = self.tunnels(ctx, state);
        let (allocation, admitted) = self.throughput_lp(ctx, &tunnels, &probs).solve();
        Plan { tunnels, allocation, admitted }
    }
}

// --------------------------------------------------------------- ARROW

/// ARROW (Zhong et al. \[41\]): TeaVaR-style planning, but failure
/// scenarios may count on optical restoration rebuilding
/// [`ARROW_RESTORE_FRACTION`] of the lost wavelengths after
/// [`ARROW_LATENCY_S`]. Flows that rely on restored capacity suffer the
/// restoration latency as outage.
#[derive(Debug, Clone)]
pub struct ArrowScheme {
    /// Availability bound β.
    pub beta: f64,
    /// Static probabilities.
    pub estimator: ProbabilityEstimator,
}

impl ArrowScheme {
    /// Builds ARROW over the static probabilities.
    pub fn new(model: &FailureModel, beta: f64) -> Self {
        Self { beta, estimator: ProbabilityEstimator::static_model(model) }
    }
}

impl TeScheme for ArrowScheme {
    fn name(&self) -> String {
        "ARROW".into()
    }

    fn reaction(&self) -> ReactionModel {
        ReactionModel::OpticalRestoration
    }

    fn beta(&self) -> f64 {
        self.beta
    }

    fn tunnels(&self, ctx: &TeContext<'_>, _state: &DegradationState) -> TunnelSet {
        ctx.base_tunnels.clone()
    }

    fn plan(&self, ctx: &TeContext<'_>, state: &DegradationState, probs_override: Option<&[f64]>) -> Plan {
        let probs = beliefs(&self.estimator, state, probs_override);
        // TeaVaR-like selection.
        let selected = TeaVarScheme::selected_scenarios(&probs, self.beta);
        let groups = CapacityGroups::build(ctx.net);
        let tunnels = self.tunnels(ctx, state);
        let mut builder = ThroughputLp::new(ctx, &tunnels, &groups);
        for f in 0..ctx.flows.len() {
            for q in &selected.scenarios {
                if q.is_no_failure() {
                    builder.add_survival_row(f, &q.cut);
                } else {
                    // Survivors plus restored fraction of killed tunnels
                    // must cover b_f:
                    //   Σ_surv a + ρ Σ_killed a ≥ b_f.
                    let flow_id = ctx.flows[f].id;
                    let mut terms: Vec<(VarId, f64)> = Vec::new();
                    for &t in tunnels.of_flow(flow_id) {
                        let coeff = if tunnels.tunnel(t).survives(ctx.net, &q.cut) {
                            1.0
                        } else {
                            ARROW_RESTORE_FRACTION
                        };
                        terms.push((builder.a_vars[t.index()], coeff));
                    }
                    terms.push((builder.b_vars[f], -1.0));
                    builder.lp.add_constraint(terms, Sense::Ge, 0.0);
                }
            }
        }
        let (allocation, admitted) = builder.solve();
        Plan { tunnels, allocation, admitted }
    }
}

// ------------------------------------------------------------- Flexile

/// Flexile (Jiang et al. \[21\]): the per-flow β-loss MIP (the same
/// optimization PreTE builds on), but with static probabilities, no
/// tunnel updates, and *reactive* centralized recomputation on failure
/// that converges after [`FLEXILE_CONVERGENCE_S`].
#[derive(Debug, Clone)]
pub struct FlexileScheme {
    /// Per-flow availability target β.
    pub beta: f64,
    /// Static probabilities.
    pub estimator: ProbabilityEstimator,
}

impl FlexileScheme {
    /// Builds Flexile over the static probabilities.
    pub fn new(model: &FailureModel, beta: f64) -> Self {
        Self { beta, estimator: ProbabilityEstimator::static_model(model) }
    }
}

impl TeScheme for FlexileScheme {
    fn name(&self) -> String {
        "Flexile".into()
    }

    fn reaction(&self) -> ReactionModel {
        ReactionModel::CentralizedRecompute
    }

    fn beta(&self) -> f64 {
        self.beta
    }

    fn tunnels(&self, ctx: &TeContext<'_>, _state: &DegradationState) -> TunnelSet {
        ctx.base_tunnels.clone()
    }

    fn plan(&self, ctx: &TeContext<'_>, state: &DegradationState, probs_override: Option<&[f64]>) -> Plan {
        let probs = beliefs(&self.estimator, state, probs_override);
        optimized_plan(ctx, self.tunnels(ctx, state), &probs, self.beta)
    }
}

/// A plan from the heuristic (2)–(8) solve over `tunnels` and the single
/// cuts of `probs`, admitting every demand in full (Flexile, PreTE).
fn optimized_plan(ctx: &TeContext<'_>, tunnels: TunnelSet, probs: &[f64], beta: f64) -> Plan {
    let scenarios = ScenarioSet::enumerate(probs, 1, 0.0);
    let problem = TeProblem::new(ctx.net, ctx.flows, &tunnels, &scenarios);
    let sol = TeSolver::new(&problem).beta(beta).solve().expect("the heuristic solves");
    let admitted = ctx.flows.iter().map(|f| f.demand_gbps).collect();
    Plan { tunnels, allocation: sol.allocation, admitted }
}

// --------------------------------------------------------------- PreTE

/// PreTE: Eqn 1 dynamic probabilities + Algorithm 1 reactive tunnels +
/// the (2)–(8) optimization.
#[derive(Debug, Clone)]
pub struct PreTeScheme {
    /// Per-flow availability target β.
    pub beta: f64,
    /// The dynamic probability estimator (NN / statistic / oracle
    /// conditionals plugged in here — Figure 15's knob).
    pub estimator: ProbabilityEstimator,
    /// Algorithm 1 configuration (`ratio = 0` → PreTE-naive,
    /// Figure 16's knob).
    pub tunnel_update: TunnelUpdateConfig,
    /// Display name.
    pub label: String,
}

impl PreTeScheme {
    /// The standard PreTE configuration.
    pub fn new(beta: f64, estimator: ProbabilityEstimator) -> Self {
        Self {
            beta,
            estimator,
            tunnel_update: TunnelUpdateConfig::default(),
            label: "PreTE".into(),
        }
    }

    /// PreTE-naive: dynamic probabilities but no tunnel updates
    /// (Figure 16's `PreTE-naive`).
    pub fn naive(beta: f64, estimator: ProbabilityEstimator) -> Self {
        Self {
            beta,
            estimator,
            tunnel_update: TunnelUpdateConfig { ratio: 0.0, ..Default::default() },
            label: "PreTE-naive".into(),
        }
    }
}

impl TeScheme for PreTeScheme {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn reaction(&self) -> ReactionModel {
        ReactionModel::LocalRateAdaptation
    }

    fn state_aware(&self) -> bool {
        true
    }

    fn beta(&self) -> f64 {
        self.beta
    }

    /// The reactive step: Algorithm 1 for each degraded fiber.
    fn tunnels(&self, ctx: &TeContext<'_>, state: &DegradationState) -> TunnelSet {
        let mut tunnels = ctx.base_tunnels.clone();
        for &f in &state.degraded {
            update_tunnels(ctx.net, &mut tunnels, f, self.tunnel_update);
        }
        tunnels
    }

    fn plan(&self, ctx: &TeContext<'_>, state: &DegradationState, probs_override: Option<&[f64]>) -> Plan {
        let probs = beliefs(&self.estimator, state, probs_override);
        // Proactive step: optimize over the enlarged tunnel set.
        optimized_plan(ctx, self.tunnels(ctx, state), &probs, self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::TrueConditionals;
    use crate::examples::{triangle, triangle_flows};
    use prete_topology::FiberId;

    fn ctx_fixture() -> (Network, FailureModel, Vec<Flow>, TunnelSet) {
        let net = triangle();
        let model = FailureModel::new(&net, 42);
        let flows = triangle_flows();
        let tunnels = TunnelSet::initialize(&net, &flows, 2);
        (net, model, flows, tunnels)
    }

    #[test]
    fn ecmp_splits_evenly() {
        let (net, model, flows, tunnels) = ctx_fixture();
        let ctx = TeContext { net: &net, model: &model, flows: &flows, base_tunnels: &tunnels };
        let plan = EcmpScheme.plan(&ctx, &DegradationState::healthy(), None);
        for flow in &flows {
            let ts = plan.tunnels.of_flow(flow.id);
            for &t in ts {
                assert!(
                    (plan.allocation[t.index()] - flow.demand_gbps / ts.len() as f64).abs()
                        < 1e-9
                );
            }
        }
    }

    #[test]
    fn ecmp_overload_scales_delivery() {
        // Double the demand: ECMP oversubscribes and the delivery model
        // squeezes flows below demand.
        let (net, model, mut flows, tunnels) = ctx_fixture();
        for f in &mut flows {
            f.demand_gbps = 30.0;
        }
        let ctx = TeContext { net: &net, model: &model, flows: &flows, base_tunnels: &tunnels };
        let plan = EcmpScheme.plan(&ctx, &DegradationState::healthy(), None);
        let groups = CapacityGroups::build(&net);
        let d0 = plan.delivered(&net, &groups, 0, &flows, &[]);
        assert!(d0 < 30.0 - 1e-6, "delivered {d0}");
    }

    #[test]
    fn ffc1_survives_any_single_cut() {
        let (net, model, flows, tunnels) = ctx_fixture();
        let ctx = TeContext { net: &net, model: &model, flows: &flows, base_tunnels: &tunnels };
        let plan = FfcScheme::one().plan(&ctx, &DegradationState::healthy(), None);
        let groups = CapacityGroups::build(&net);
        for f in 0..flows.len() {
            assert!(plan.admitted[f] > 0.0, "flow {f} admitted nothing");
            for fiber in net.fibers() {
                let d = plan.delivered(&net, &groups, f, &flows, &[fiber.id]);
                assert!(
                    d + 1e-6 >= plan.admitted[f],
                    "flow {f} loses under cut of {:?}: {d} < {}",
                    fiber.id,
                    plan.admitted[f]
                );
            }
        }
    }

    #[test]
    fn ffc2_more_conservative_than_ffc1() {
        let (net, model, flows, tunnels) = ctx_fixture();
        let ctx = TeContext { net: &net, model: &model, flows: &flows, base_tunnels: &tunnels };
        let p1 = FfcScheme::one().plan(&ctx, &DegradationState::healthy(), None);
        let p2 = FfcScheme::two().plan(&ctx, &DegradationState::healthy(), None);
        let t1: f64 = p1.admitted.iter().sum();
        let t2: f64 = p2.admitted.iter().sum();
        assert!(t2 <= t1 + 1e-6, "FFC-2 {t2} > FFC-1 {t1}");
        // In the triangle, any 2 cuts disconnect a flow entirely → FFC-2
        // admits nothing.
        assert!(t2 < 1e-6, "triangle cannot guarantee 2-cut survival, got {t2}");
    }

    #[test]
    fn teavar_reproduces_figure2_example() {
        // β = 99 %, p = (0.005, 0.009, 0.001), flows s1→s2 (1 tunnel
        // pinned by capacity) and s1→s3: total admitted = 10 units.
        let (net, model, flows, tunnels) = ctx_fixture();
        let ctx = TeContext { net: &net, model: &model, flows: &flows, base_tunnels: &tunnels };
        let mut scheme = TeaVarScheme::new(&model, 0.99);
        // Pin the example's probabilities (the FailureModel samples its
        // own): enumerate with explicit override.
        let plan = scheme.plan(
            &ctx,
            &DegradationState::healthy(),
            Some(&crate::examples::TRIANGLE_PROBS),
        );
        let total: f64 = plan.admitted.iter().sum();
        assert!(
            (total - 10.0).abs() < 1e-4,
            "TeaVaR should admit 10 units (Figure 2(b)), got {total}"
        );
        // Oracle knowledge that s1s2 will NOT fail admits 20 (Fig 3(b)).
        scheme.beta = 0.99;
        let oracle_probs = [0.0, 0.009, 0.001];
        let plan2 = scheme.plan(&ctx, &DegradationState::healthy(), Some(&oracle_probs));
        let total2: f64 = plan2.admitted.iter().sum();
        assert!(
            (total2 - 20.0).abs() < 1e-4,
            "oracular TE should admit 20 units (Figure 3(b)), got {total2}"
        );
    }

    #[test]
    fn arrow_admits_at_least_teavar() {
        // Restoration gives ARROW extra effective capacity in failure
        // scenarios → admitted ≥ TeaVaR's.
        let (net, model, flows, tunnels) = ctx_fixture();
        let ctx = TeContext { net: &net, model: &model, flows: &flows, base_tunnels: &tunnels };
        let probs = [0.02, 0.02, 0.02];
        let tv = TeaVarScheme::new(&model, 0.995)
            .plan(&ctx, &DegradationState::healthy(), Some(&probs));
        let ar = ArrowScheme::new(&model, 0.995)
            .plan(&ctx, &DegradationState::healthy(), Some(&probs));
        let t_tv: f64 = tv.admitted.iter().sum();
        let t_ar: f64 = ar.admitted.iter().sum();
        assert!(t_ar >= t_tv - 1e-6, "ARROW {t_ar} < TeaVaR {t_tv}");
    }

    #[test]
    fn prete_reacts_to_degradation_with_new_tunnels() {
        let (net, model, flows, tunnels) = ctx_fixture();
        // Base tunnels: only the direct one per flow, so degradation
        // must produce reactive tunnels.
        let thin = TunnelSet::initialize(&net, &flows, 1);
        let ctx = TeContext { net: &net, model: &model, flows: &flows, base_tunnels: &thin };
        let tc = TrueConditionals::ground_truth(&net, &model, 50, 1);
        let scheme = PreTeScheme::new(0.99, ProbabilityEstimator::prete(&model, &tc));
        assert!(scheme.state_aware());
        let healthy = scheme.plan(&ctx, &DegradationState::healthy(), None);
        let degraded = scheme.plan(&ctx, &DegradationState::single(FiberId(0)), None);
        assert!(degraded.tunnels.len() > healthy.tunnels.len());
        let _ = tunnels;
    }

    #[test]
    fn prete_naive_adds_no_tunnels() {
        let (net, model, flows, _) = ctx_fixture();
        let thin = TunnelSet::initialize(&net, &flows, 1);
        let ctx = TeContext { net: &net, model: &model, flows: &flows, base_tunnels: &thin };
        let tc = TrueConditionals::ground_truth(&net, &model, 50, 1);
        let scheme = PreTeScheme::naive(0.99, ProbabilityEstimator::prete(&model, &tc));
        let degraded = scheme.plan(&ctx, &DegradationState::single(FiberId(0)), None);
        assert_eq!(degraded.tunnels.len(), thin.len());
        assert_eq!(scheme.name(), "PreTE-naive");
    }

    #[test]
    fn tunnels_is_what_plan_routes_over() {
        let (net, model, flows, _) = ctx_fixture();
        // One tunnel per flow, so Algorithm 1 has something to add.
        let thin = TunnelSet::initialize(&net, &flows, 1);
        let ctx = TeContext { net: &net, model: &model, flows: &flows, base_tunnels: &thin };
        let tc = TrueConditionals::ground_truth(&net, &model, 50, 1);
        let estimator = ProbabilityEstimator::prete(&model, &tc);
        let schemes: [&dyn TeScheme; 8] = [
            &EcmpScheme,
            &FfcScheme::one(),
            &TeaVarScheme::new(&model, 0.9),
            &ArrowScheme::new(&model, 0.95),
            &FlexileScheme::new(&model, 0.995),
            &PreTeScheme::new(0.999, estimator.clone()),
            &PreTeScheme::naive(0.999, estimator),
            &FfcScheme::two(),
        ];
        assert_eq!(
            schemes.map(|s| s.beta()),
            [DEFAULT_BETA, DEFAULT_BETA, 0.9, 0.95, 0.995, 0.999, 0.999, DEFAULT_BETA]
        );
        for scheme in schemes {
            for state in [DegradationState::healthy(), DegradationState::single(FiberId(0))] {
                let alone = scheme.tunnels(&ctx, &state);
                let planned = scheme.plan(&ctx, &state, None).tunnels;
                assert_eq!(alone.tunnels(), planned.tunnels(), "{} in {state:?}", scheme.name());
                let grows = scheme.name() == "PreTE" && !state.is_healthy();
                assert_eq!(alone.len() > thin.len(), grows, "{} in {state:?}", scheme.name());
            }
        }
    }

    #[test]
    fn flexile_plans_within_capacity() {
        let (net, model, flows, tunnels) = ctx_fixture();
        let ctx = TeContext { net: &net, model: &model, flows: &flows, base_tunnels: &tunnels };
        let plan = FlexileScheme::new(&model, 0.99).plan(&ctx, &DegradationState::healthy(), None);
        let groups = CapacityGroups::build(&net);
        let load = groups.load(plan.tunnels.tunnels(), &plan.allocation);
        for (g, &l) in load.iter().enumerate() {
            assert!(l <= groups.capacity(g) + 1e-6, "group {g}: {l}");
        }
    }
}
