//! The event-driven PreTE controller (§4, Figure 8; testbed §5).
//!
//! Wires the whole pipeline together: per-second telemetry in,
//! degradation detection, NN-grade prediction, Algorithm 1 tunnel
//! establishment, and the proactive TE recompute — with the latency
//! model attached so the replay reports whether preparation finished
//! before the cut (the §5 feasibility argument: most degradation→cut
//! intervals exceed the few seconds tunnels take).

use crate::latency::{LatencyModel, PipelineTiming};
use prete_core::prelude::*;
use prete_core::schemes::{TeContext, TeScheme};
use prete_nn::{Predictor, TryPredictor};
use prete_optical::trace::{detect_recorded, LossTrace};
use prete_optical::{DegradationEvent, DegradationFeatures};
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
    /// Unread: every solve runs on the calling thread. Kept for the
    /// same reason as `backend`, and goes with it.
    pub threads: usize,
    /// Unread: `prete-lp` has one engine. Kept only because the
    /// repository benchmark builds a controller by naming every field;
    /// goes with the benchmark revision that stops naming it.
    pub backend: prete_lp::SolverBackend,
    /// Unread: the sparse engine has one pricing rule. Kept for the
    /// same reason as `backend`, and goes with it.
    pub pricing: prete_lp::Pricing,
    /// Unread: the sparse engine has one basis-update scheme. Kept for
    /// the same reason as `backend`, and goes with it.
    pub eta_update: prete_lp::EtaUpdate,
    /// Scenario enumeration budget for the TE recompute. `None` keeps
    /// the historical exhaustive single-cut enumeration; `Some` routes
    /// through the budgeted streaming enumerator ([`ScenarioSet::
    /// enumerate_with`]) — deeper cuts, mass-floor pruning, a bounded
    /// scenario buffer — and threads the resulting accounting
    /// (`scenarios_pruned`, `tail_mass`) into [`SolverStats`].
    pub scenario_budget: Option<ScenarioBudget>,
    /// Warm-start basis cache shared across replays (epochs): each TE
    /// recompute saves its min-Φ LP's optimal basis and the next one on
    /// the same problem structure and selection restores it, skipping
    /// simplex phase 1.
    pub cache: std::cell::RefCell<BasisCache>,
    /// Telemetry sink: each replay runs under an `"epoch"` span with
    /// `"detect"`, `"predict"`, `"tunnel"` and `"solve"` children plus
    /// structured events. Defaults to [`Recorder::disabled`] (no-op).
    pub obs: Recorder,
}

impl<'a> Controller<'a> {
    /// A controller over the given leaves with the default latency
    /// model and exhaustive single-cut enumeration, an empty warm-start cache and telemetry disabled.
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

    /// Replays a single-fiber telemetry trace through the pipeline: the
    /// one controller epoch, telemetry → detect → predict → Algorithm 1
    /// → scenario regeneration → TE solve, under an `"epoch"` span with
    /// `"detect"`, `"predict"`, `"tunnel"` and `"solve"` children.
    ///
    /// Detection works on the trace exactly as the telemetry system
    /// would (threshold detector over the per-second loss series); the
    /// first detected degradation triggers prediction, Algorithm 1 and
    /// the TE recompute, all stamped with the latency model.
    ///
    /// Two failures have a plain answer. A prediction that is NaN or
    /// outside `[0, 1]` is replaced by the fiber's static prior
    /// `(1 − α)·p_cut` (one `degraded-mode` event; a deterministic model
    /// would return the same error again, so there is no retry). The TE
    /// recompute is one heuristic solve, which errs only when an LP
    /// fails; there is no standing policy to fall back on, so a solve
    /// error is a bug and panics naming the [`TeSolveError`].
    pub fn replay_trace(&self, trace: &LossTrace) -> ControllerReport {
        let obs = &self.obs;
        let _epoch = obs.span("epoch");
        obs.add("controller.epochs", 1);

        let mut events = Vec::new();
        let mut pipeline = None;
        let mut prepared_before_cut = None;
        let mut solver = None;

        let detection = detect_recorded(trace, obs);
        let dt_s = trace.dt_s;
        let cut_at = detection.cut_at_idx.map(|i| i as f64 * dt_s as f64);

        if let Some(deg) = detection.degradations.first() {
            // The online detector needs a handful of consecutive degraded
            // samples to flag the event — it does not wait for the window
            // to end (the window often ends *because* the fiber cut).
            const CONFIRM_SAMPLES: usize = 3;
            let at_s = (deg.start_idx + deg.len.min(CONFIRM_SAMPLES)) as f64 * dt_s as f64;
            let fiber = trace.fiber;
            let fiber_meta = self.net.fiber(fiber);
            // Stamped in seconds at the degradation's own start, as the
            // training set stamps its events.
            let start_s = trace.start_s + deg.start_idx as u64 * dt_s;
            let event = DegradationEvent {
                fiber,
                start_s,
                duration_s: deg.len as u64 * dt_s,
                features: DegradationFeatures {
                    hour: ((start_s / 3600) % 24) as u8,
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

            let p = {
                let _predict = obs.span("predict");
                self.predictor.try_predict_proba(&event).unwrap_or_else(|e| {
                    obs.event_with("degraded-mode", || {
                        format!("stage=Prediction mode=prior-probability fault={e}")
                    });
                    static_prior(self.model, fiber)
                })
            };
            obs.event_with("prediction-fired", || {
                format!("fiber={} p_cut={p:.4}", fiber.index())
            });
            events.push(ControllerEvent::DegradationDetected {
                fiber,
                at_s,
                predicted_cut_prob: p,
            });

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
            let new_tunnels = tunnels.len().saturating_sub(self.base_tunnels.len());

            let probs = estimate_probs(self.model, &state, p);
            let (scenarios, enum_stats) = self.enumerate_scenarios(&probs);
            let problem = TeProblem::new(self.net, self.flows, &tunnels, &scenarios);
            let (policy, stats) = {
                let mut cache = self.cache.borrow_mut();
                let mut te = TeSolver::new(&problem)
                    .beta(self.scheme.beta())
                    .method(SolveMethod::Heuristic)
                    .warm_cache(&mut cache)
                    .recorder(obs);
                if let Some(st) = enum_stats.as_ref() {
                    te = te.scenario_stats(st);
                }
                te.solve_with_stats().unwrap_or_else(|e| panic!("TE recompute failed: {e}"))
            };
            solver = Some(stats);

            let timing = self.latency.pipeline(new_tunnels);
            let ready_at_s = at_s + timing.total_ms() / 1000.0;
            let decision_at_s = at_s + timing.decision_ms() / 1000.0;
            obs.event_with("policy-recomputed", || {
                format!("max_loss={:.6} at_s={decision_at_s:.3}", policy.max_loss)
            });
            events.push(ControllerEvent::PolicyRecomputed {
                max_loss: policy.max_loss,
                at_s: decision_at_s,
            });
            if new_tunnels > 0 {
                obs.event_with("tunnels-established", || {
                    format!("count={new_tunnels} ready_at_s={ready_at_s:.3}")
                });
                events.push(ControllerEvent::TunnelsEstablished {
                    count: new_tunnels,
                    ready_at_s,
                });
            }
            pipeline = Some(timing);
            prepared_before_cut = cut_at.map(|c| ready_at_s <= c);
        }

        if let Some(at) = cut_at {
            obs.event_with("cut-observed", || {
                format!("fiber={} at_s={at:.1}", trace.fiber.index())
            });
            events.push(ControllerEvent::CutObserved { fiber: trace.fiber, at_s: at });
        }
        if let Some(ok) = prepared_before_cut {
            obs.add(if ok { "controller.prepared_before_cut" } else { "controller.missed_cut" }, 1);
        }

        ControllerReport { events, pipeline, prepared_before_cut, solver }
    }

    /// The epoch's scenario set under [`Controller::scenario_budget`],
    /// with the budgeted enumerator's accounting for
    /// [`TeSolver::scenario_stats`].
    fn enumerate_scenarios(&self, probs: &[f64]) -> (ScenarioSet, Option<EnumerationStats>) {
        match &self.scenario_budget {
            Some(budget) => {
                let (s, st) = ScenarioSet::enumerate_with(probs, budget);
                (s, Some(st))
            }
            None => (ScenarioSet::enumerate(probs, 1, 0.0), None),
        }
    }
}

/// The static prior of one fiber, Eqn 1's off-signal term `(1 − α)·p_cut`:
/// the probability PreTE assumes for it with no usable prediction.
fn static_prior(model: &FailureModel, fiber: FiberId) -> f64 {
    prete_stats::dist::failure_prob_without_degradation(
        model.profile(fiber).p_cut,
        prete_optical::ALPHA_PREDICTABLE,
    )
}

/// Eqn 1 cut probabilities: the live NN prediction for degraded fibers,
/// the discounted static prior for the rest (so a healthy state yields
/// the static prior vector).
fn estimate_probs(model: &FailureModel, state: &DegradationState, p_nn: f64) -> Vec<f64> {
    (0..model.profiles().len())
        .map(|n| {
            let fiber = FiberId(n);
            if state.is_degraded(fiber) {
                p_nn
            } else {
                static_prior(model, fiber)
            }
        })
        .collect()
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

    /// The shape every controller epoch must have: one TE solve in the
    /// whole `epoch` span tree, and none hidden inside its `tunnel` span.
    fn assert_one_solve_per_epoch(run: &RunReport, epochs: usize) {
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

    fn policy_phi(report: &ControllerReport) -> f64 {
        report
            .events
            .iter()
            .find_map(|e| match e {
                ControllerEvent::PolicyRecomputed { max_loss, .. } => Some(*max_loss),
                _ => None,
            })
            .expect("policy recomputed")
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
        // A 2-cut budget capped below the 7 candidate scenarios, so the
        // enumerator prunes and leaves a tail the solve must account for.
        let budgeted =
            ScenarioBudget { max_cuts: 2, max_scenarios: 5, ..ScenarioBudget::default() };
        // One tunnel per flow: flow 1 dies with its fiber (p ≈ 0.003),
        // which β = 0.99 can leave unprotected and β = 0.999 cannot —
        // so Φ tells which target the one solve ran at.
        for (beta, scenario_budget) in [(0.99, None), (0.99, Some(budgeted)), (0.999, None)] {
            let scheme = PreTeScheme::new(beta, ProbabilityEstimator::prete(&model, &truth));
            let predictor = OptimistPredictor;
            let controller = Controller {
                scenario_budget,
                obs: Recorder::deterministic(),
                ..Controller::new(&net, &model, &flows, &base, &predictor, &scheme)
            };
            for _ in 0..2 {
                let report = controller.replay_trace(&fig4b_trace());
                let stats = report.solver.as_ref().expect("the degradation triggers a recompute");
                assert_eq!(stats.lp_solves, 2, "subproblem + polish");
                assert_eq!(stats.scenarios_pruned > 0, scenario_budget.is_some());
                assert_eq!(stats.tail_mass > 0.0, scenario_budget.is_some());
                assert_eq!(report.prepared_before_cut, Some(true));
                let phi = policy_phi(&report);
                assert_eq!(phi == 1.0, beta == 0.999, "β = {beta}: Φ = {phi}");
            }
            let run = controller.obs.report();
            assert_one_solve_per_epoch(&run, 2);
            assert_eq!(run.counters["controller.prepared_before_cut"], 2);
            assert!(run.events_of_kind("degraded-mode").is_empty());
        }
    }

    struct NanPredictor;
    impl Predictor for NanPredictor {
        fn predict_proba(&self, _e: &DegradationEvent) -> f64 {
            f64::NAN
        }
    }

    #[test]
    fn unusable_prediction_falls_back_to_the_static_prior() {
        let net = triangle();
        let model = FailureModel::new(&net, 42);
        let flows = triangle_flows();
        let base = TunnelSet::initialize(&net, &flows, 1);
        let truth = TrueConditionals::ground_truth(&net, &model, 50, 1);
        let scheme = PreTeScheme::new(0.99, ProbabilityEstimator::prete(&model, &truth));
        let predictor = NanPredictor;
        let controller = Controller {
            obs: Recorder::deterministic(),
            ..Controller::new(&net, &model, &flows, &base, &predictor, &scheme)
        };
        let report = controller.replay_trace(&fig4b_trace());
        let p = match report.events[0] {
            ControllerEvent::DegradationDetected { predicted_cut_prob, .. } => predicted_cut_prob,
            ref e => panic!("first event {e:?}"),
        };
        let prior = (1.0 - prete_optical::ALPHA_PREDICTABLE) * model.profile(FiberId(0)).p_cut;
        assert_eq!(p.to_bits(), prior.to_bits(), "p = {p}, static prior = {prior}");
        let run = controller.obs.report();
        let degraded = run.events_of_kind("degraded-mode");
        assert_eq!(degraded.len(), 1);
        assert!(degraded[0].detail.contains("non-finite"), "{}", degraded[0].detail);
        assert!(policy_phi(&report).is_finite());
        assert!(report.solver.is_some());
    }

    /// Hands out a fixed probability and keeps every event it was asked
    /// about, so a test can read what the controller fed the model.
    #[derive(Default)]
    struct RecordingPredictor(std::cell::RefCell<Vec<DegradationEvent>>);
    impl Predictor for RecordingPredictor {
        fn predict_proba(&self, e: &DegradationEvent) -> f64 {
            self.0.borrow_mut().push(e.clone());
            0.8
        }
    }

    fn predicted_event(trace: &LossTrace) -> DegradationEvent {
        let net = triangle();
        let model = FailureModel::new(&net, 42);
        let flows = triangle_flows();
        let base = TunnelSet::initialize(&net, &flows, 2);
        let truth = TrueConditionals::ground_truth(&net, &model, 50, 1);
        let scheme = PreTeScheme::new(0.99, ProbabilityEstimator::prete(&model, &truth));
        let predictor = RecordingPredictor::default();
        let controller = Controller::new(&net, &model, &flows, &base, &predictor, &scheme);
        let _ = controller.replay_trace(trace);
        let mut seen = predictor.0.into_inner();
        assert_eq!(seen.len(), 1, "one prediction per epoch");
        seen.pop().expect("one event")
    }

    #[test]
    fn degradation_event_is_stamped_in_seconds_at_its_start() {
        // The script degrades 65–110 s after the trace start. Both
        // stamps must be seconds, within a sample or two of it, not
        // sample counts.
        let deg = ScriptedDegradation {
            start_s: 65,
            duration_s: 45,
            degree_db: 6.0,
            wobble_db: 0.15,
        };
        // Starting 10 s before 01:00, the degradation starts in hour 1,
        // and the training set stamps `hour` at the event's own start.
        let late = synthesize(FiberId(0), 3_590, 400, &[deg], Some(110), TraceConfig::default(), 9);
        let coarse = fig4b_trace().downsample(3);
        for (trace, hour) in [(late, 1), (coarse, 0)] {
            let event = predicted_event(&trace);
            let detected = prete_optical::trace::detect(&trace);
            let d = &detected.degradations[0];
            assert_eq!(event.start_s, trace.start_s + trace.dt_s * d.start_idx as u64);
            assert_eq!(event.duration_s, trace.dt_s * d.len as u64);
            let offset = event.start_s - trace.start_s;
            assert!(offset.abs_diff(65) <= 6, "start +{offset} s");
            assert!(event.duration_s.abs_diff(45) <= 9, "duration {} s", event.duration_s);
            assert_eq!(event.features.hour, hour, "start {} s", event.start_s);
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
