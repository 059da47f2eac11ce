//! The event-driven PreTE controller (§4, Figure 8; testbed §5).
//!
//! Wires the whole pipeline together: per-second telemetry in,
//! degradation detection, NN-grade prediction, Algorithm 1 tunnel
//! establishment, and the proactive TE recompute — with the latency
//! model attached so the replay reports whether preparation finished
//! before the cut (the §5 feasibility argument: most degradation→cut
//! intervals exceed the few seconds tunnels take).

use crate::faults::FaultPlan;
use crate::latency::{LatencyModel, PipelineTiming};
use crate::robust::RetryPolicy;
use prete_core::prelude::*;
use prete_core::schemes::TeScheme;
use prete_nn::Predictor;
use prete_optical::trace::LossTrace;
use prete_topology::FiberId;
use serde::Serialize;

/// One thing the controller did, with its wall-clock offset.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ControllerEvent {
    /// A degradation was detected on a fiber at trace second `at_s`.
    DegradationDetected {
        /// The degraded fiber.
        fiber: FiberId,
        /// Second within the trace.
        at_s: f64,
        /// Predicted cut probability from the model.
        predicted_cut_prob: f64,
    },
    /// New tunnels were established.
    TunnelsEstablished {
        /// How many.
        count: usize,
        /// Second at which the last one was acknowledged.
        ready_at_s: f64,
    },
    /// The TE policy was recomputed.
    PolicyRecomputed {
        /// Maximum β-loss of the new policy.
        max_loss: f64,
        /// Second at which the policy was pushed.
        at_s: f64,
    },
    /// The fiber was cut.
    CutObserved {
        /// The cut fiber.
        fiber: FiberId,
        /// Second within the trace.
        at_s: f64,
    },
}

/// Outcome of a controller replay.
#[derive(Debug, Clone, Serialize)]
pub struct ControllerReport {
    /// Chronological event log.
    pub events: Vec<ControllerEvent>,
    /// Pipeline timing of the (first) degradation reaction.
    pub pipeline: Option<PipelineTiming>,
    /// Whether preparation (tunnels + policy) completed before the cut.
    pub prepared_before_cut: Option<bool>,
    /// Solver observability for the TE recompute (absent when the
    /// trace triggered no recompute).
    pub solver: Option<SolverStats>,
}

/// The PreTE controller: holds the scheme, predictor and latency model
/// and replays telemetry traces against them.
pub struct Controller<'a> {
    /// Network under control.
    pub net: &'a Network,
    /// Failure model (for static probabilities).
    pub model: &'a FailureModel,
    /// Current traffic.
    pub flows: &'a [Flow],
    /// Pre-established tunnels.
    pub base_tunnels: &'a TunnelSet,
    /// The failure predictor fed by degradation features.
    pub predictor: &'a dyn Predictor,
    /// The PreTE scheme used for recomputation.
    pub scheme: &'a dyn TeScheme,
    /// Stage latencies.
    pub latency: LatencyModel,
    /// Worker threads for the TE recompute (`0` = auto). Thread count
    /// never changes solver *results* (bit-identity across thread
    /// counts is a repo invariant), only wall-clock.
    pub threads: usize,
    /// LP engine for the TE recompute (default
    /// [`SolverBackend::SparseRevised`]; the dense tableau is the
    /// automatic fallback). Checkpoints record the choice so a restored
    /// controller keeps solving with the same engine.
    pub backend: SolverBackend,
    /// Entering-variable pricing rule for the sparse LP engine
    /// (checkpointed alongside `backend`).
    pub pricing: Pricing,
    /// Basis-update scheme for the sparse LP engine (checkpointed
    /// alongside `backend`).
    pub eta_update: EtaUpdate,
    /// Scenario enumeration budget for the TE recompute. `None` keeps
    /// the historical exhaustive single-cut enumeration; `Some` routes
    /// through the budgeted streaming enumerator ([`ScenarioSet::
    /// enumerate_with`]) — deeper cuts, mass-floor pruning, a bounded
    /// scenario buffer — and threads the resulting accounting
    /// (`scenarios_pruned`, `tail_mass`) into [`SolverStats`].
    pub scenario_budget: Option<ScenarioBudget>,
    /// Warm-start basis cache shared across replays (epochs): each TE
    /// recompute saves its optimal bases and the next one on the same
    /// problem structure restores them, skipping simplex phase 1.
    pub cache: std::cell::RefCell<BasisCache>,
    /// Telemetry sink: each replay runs under an `"epoch"` span with
    /// `"detect"`, `"predict"`, `"tunnel"` and `"solve"` children plus
    /// structured events. Defaults to [`Recorder::disabled`] (no-op).
    pub obs: Recorder,
}

impl<'a> Controller<'a> {
    /// A controller over the given leaves with the default latency
    /// model, LP engine and exhaustive single-cut enumeration, automatic
    /// threads, an empty warm-start cache and telemetry disabled.
    pub fn new(
        net: &'a Network,
        model: &'a FailureModel,
        flows: &'a [Flow],
        base_tunnels: &'a TunnelSet,
        predictor: &'a dyn Predictor,
        scheme: &'a dyn TeScheme,
    ) -> Self {
        Self {
            net,
            model,
            flows,
            base_tunnels,
            predictor,
            scheme,
            latency: LatencyModel::default(),
            threads: 0,
            backend: Default::default(),
            pricing: Default::default(),
            eta_update: Default::default(),
            scenario_budget: None,
            cache: Default::default(),
            obs: Default::default(),
        }
    }

    /// Replays a single-fiber telemetry trace through the pipeline.
    ///
    /// Detection works on the trace exactly as the telemetry system
    /// would (threshold detector over the per-second loss series); the
    /// first detected degradation triggers prediction, Algorithm 1 and
    /// the TE recompute, all stamped with the latency model.
    ///
    /// This is the fault-free projection of the one epoch pipeline
    /// (`Controller::run_epoch`, in `robust.rs`): nothing injected, the
    /// heuristic solve under the default budget, and no standing policy
    /// to fall back on — so no last-known-good solve is ever paid for,
    /// and a solve that fails anyway is a bug and panics.
    pub fn replay_trace(&self, trace: &LossTrace) -> ControllerReport {
        let report = self.run_epoch(
            trace,
            &FaultPlan::none(0),
            SolveMethod::Heuristic,
            &RetryPolicy::default(),
            SolveBudget::default(),
            None,
        );
        ControllerReport {
            solver: report.pipeline.is_some().then_some(report.solver),
            events: report.events,
            pipeline: report.pipeline,
            prepared_before_cut: report.prepared_before_cut,
        }
    }

    /// The epoch's scenario set under [`Controller::scenario_budget`],
    /// with the budgeted enumerator's accounting for
    /// [`TeSolver::scenario_stats`].
    pub(crate) fn enumerate_scenarios(
        &self,
        probs: &[f64],
    ) -> (ScenarioSet, Option<EnumerationStats>) {
        match &self.scenario_budget {
            Some(budget) => {
                let (s, st) = ScenarioSet::enumerate_with(probs, budget);
                (s, Some(st))
            }
            None => (ScenarioSet::enumerate(probs, 1, 0.0), None),
        }
    }
}

/// Eqn 1 cut probabilities: the live NN prediction for degraded fibers,
/// the discounted static prior for the rest (so a healthy state yields
/// the static prior vector).
pub(crate) fn estimate_probs(
    model: &FailureModel,
    state: &DegradationState,
    p_nn: f64,
) -> Vec<f64> {
    model
        .profiles()
        .iter()
        .enumerate()
        .map(|(n, prof)| {
            if state.is_degraded(FiberId(n)) {
                p_nn
            } else {
                (1.0 - prete_optical::ALPHA_PREDICTABLE) * prof.p_cut
            }
        })
        .collect()
}

/// The shape every controller epoch must have: one TE solve in the
/// whole `epoch` span tree, and none hidden inside its `tunnel` span.
#[cfg(test)]
pub(crate) fn assert_one_solve_per_epoch(run: &prete_obs::RunReport, epochs: usize) {
    fn count(node: &prete_obs::SpanNode, name: &str) -> usize {
        usize::from(node.name == name)
            + node.children.iter().map(|c| count(c, name)).sum::<usize>()
    }
    assert_eq!(run.spans.len(), epochs);
    for epoch in &run.spans {
        assert_eq!(epoch.name, "epoch");
        assert_eq!(count(epoch, "solve"), 1, "TE solves in the epoch");
        let tunnel = epoch.children.iter().find(|c| c.name == "tunnel").expect("tunnel span");
        assert_eq!(count(tunnel, "solve"), 0, "the tunnel span only runs Algorithm 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
    use prete_core::examples::{triangle, triangle_flows};
    use prete_core::schemes::{PreTeScheme, TeContext};
    use prete_optical::trace::{synthesize, ScriptedDegradation, TraceConfig};
    use prete_optical::DegradationEvent;

    struct OptimistPredictor;
    impl Predictor for OptimistPredictor {
        fn predict_proba(&self, _e: &DegradationEvent) -> f64 {
            0.8
        }
    }

    fn fig4b_trace() -> LossTrace {
        // §5 testbed scenario: healthy 0–65 s, degraded 65–110 s, cut
        // at 110 s.
        let deg = ScriptedDegradation {
            start_s: 65,
            duration_s: 45,
            degree_db: 6.0,
            wobble_db: 0.15,
        };
        synthesize(FiberId(0), 0, 400, &[deg], Some(110), TraceConfig::default(), 9)
    }

    #[test]
    fn replay_detects_prepares_and_beats_cut() {
        let net = triangle();
        let model = FailureModel::new(&net, 42);
        let flows: Vec<Flow> = triangle_flows()
            .into_iter()
            .map(|f| Flow { demand_gbps: 4.0, ..f })
            .collect();
        // Thin tunnel set so the degradation actually triggers
        // Algorithm 1.
        let base = TunnelSet::initialize(&net, &flows, 1);
        let truth = TrueConditionals::ground_truth(&net, &model, 50, 1);
        let scheme = PreTeScheme::new(0.99, ProbabilityEstimator::prete(&model, &truth));
        let predictor = OptimistPredictor;
        let controller = Controller::new(&net, &model, &flows, &base, &predictor, &scheme);
        let report = controller.replay_trace(&fig4b_trace());
        // Degradation detected, tunnels built, policy recomputed, cut seen.
        assert!(matches!(report.events[0], ControllerEvent::DegradationDetected { .. }));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, ControllerEvent::TunnelsEstablished { .. })));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, ControllerEvent::CutObserved { .. })));
        // The cut comes 45 s after degradation onset; the pipeline takes
        // well under a second for a couple of tunnels.
        assert_eq!(report.prepared_before_cut, Some(true));
        let p = report.pipeline.expect("pipeline timing");
        assert!(p.decision_ms() < 300.0);
    }

    #[test]
    fn replay_solves_once_per_epoch_at_the_scheme_beta() {
        let net = triangle();
        let model = FailureModel::new(&net, 42);
        let flows: Vec<Flow> = triangle_flows()
            .into_iter()
            .map(|f| Flow { demand_gbps: 4.0, ..f })
            .collect();
        let base = TunnelSet::initialize(&net, &flows, 1);
        let truth = TrueConditionals::ground_truth(&net, &model, 50, 1);
        // One tunnel per flow: flow 1 dies with its fiber (p ≈ 0.003),
        // which β = 0.99 can leave unprotected and β = 0.999 cannot —
        // so Φ tells which target the one solve ran at.
        for (beta, forced) in [(0.99, false), (0.999, true)] {
            let scheme = PreTeScheme::new(beta, ProbabilityEstimator::prete(&model, &truth));
            let predictor = OptimistPredictor;
            let controller = Controller {
                threads: 1,
                obs: Recorder::deterministic(),
                ..Controller::new(&net, &model, &flows, &base, &predictor, &scheme)
            };
            for _ in 0..2 {
                let report = controller.replay_trace(&fig4b_trace());
                let stats = report.solver.expect("the degradation triggers a recompute");
                assert_eq!(stats.lp_solves, 2, "subproblem + polish");
                let phi = report
                    .events
                    .iter()
                    .find_map(|e| match e {
                        ControllerEvent::PolicyRecomputed { max_loss, .. } => Some(*max_loss),
                        _ => None,
                    })
                    .expect("policy recomputed");
                assert_eq!(phi == 1.0, forced, "β = {beta}: Φ = {phi}");
            }
            assert_one_solve_per_epoch(&controller.obs.report(), 2);
        }
    }

    /// A scheme that *prunes* tunnels below the pre-established base
    /// set — the shape that used to underflow the new-tunnel count.
    struct PruningScheme;
    impl TeScheme for PruningScheme {
        fn name(&self) -> String {
            "prune".into()
        }
        fn reaction(&self) -> prete_core::schemes::ReactionModel {
            prete_core::schemes::ReactionModel::LocalRateAdaptation
        }
        fn tunnels(&self, ctx: &TeContext<'_>, _state: &DegradationState) -> TunnelSet {
            TunnelSet::initialize(ctx.net, ctx.flows, 1)
        }
        fn plan(
            &self,
            ctx: &TeContext<'_>,
            state: &DegradationState,
            _probs_override: Option<&[f64]>,
        ) -> prete_core::schemes::Plan {
            let tunnels = self.tunnels(ctx, state);
            let n = tunnels.len();
            prete_core::schemes::Plan {
                tunnels,
                allocation: vec![1.0; n],
                admitted: ctx.flows.iter().map(|f| f.demand_gbps).collect(),
            }
        }
    }

    #[test]
    fn pruning_scheme_does_not_underflow() {
        let net = triangle();
        let model = FailureModel::new(&net, 42);
        let flows = triangle_flows();
        // Base set is *larger* than what the scheme will plan.
        let base = TunnelSet::initialize(&net, &flows, 2);
        let scheme = PruningScheme;
        let predictor = OptimistPredictor;
        let controller = Controller::new(&net, &model, &flows, &base, &predictor, &scheme);
        let report = controller.replay_trace(&fig4b_trace());
        // Pruning installs nothing new: no establishment event, and the
        // pipeline runs with zero tunnel updates instead of panicking.
        assert!(!report
            .events
            .iter()
            .any(|e| matches!(e, ControllerEvent::TunnelsEstablished { .. })));
        assert!(matches!(report.events[0], ControllerEvent::DegradationDetected { .. }));
        assert_eq!(report.prepared_before_cut, Some(true));
    }

    #[test]
    fn healthy_trace_produces_no_events() {
        let net = triangle();
        let model = FailureModel::new(&net, 42);
        let flows = triangle_flows();
        let base = TunnelSet::initialize(&net, &flows, 2);
        let truth = TrueConditionals::ground_truth(&net, &model, 50, 1);
        let scheme = PreTeScheme::new(0.99, ProbabilityEstimator::prete(&model, &truth));
        let predictor = OptimistPredictor;
        let controller = Controller::new(&net, &model, &flows, &base, &predictor, &scheme);
        let trace = synthesize(FiberId(0), 0, 300, &[], None, TraceConfig::default(), 4);
        let report = controller.replay_trace(&trace);
        assert!(report.events.is_empty());
        assert!(report.pipeline.is_none());
    }
}
