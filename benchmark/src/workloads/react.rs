//! `react-twan`: the paper's Fig. 11 unit. One epoch is one
//! `Controller::replay_trace` call — detect → predict → Algorithm 1 →
//! scenario regeneration → solve — on TWAN.

use super::solve::FIXED_SEED;
use super::{timed_ms, Decision, Rng, Samples, SetupBreakdown, Workload};
use crate::span::Tracer;
use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
use prete_core::prelude::*;
use prete_core::schemes::{PreTeScheme, TeContext};
use prete_nn::{Mlp, Predictor, TrainConfig};
use prete_optical::trace::{detect, synthesize, LossTrace, ScriptedDegradation, TraceConfig};
use prete_optical::{DegradationEvent, DegradationFeatures};
use prete_sim::{Controller, ControllerEvent, LatencyModel};
use prete_topology::traffic::hourly_matrices;
use prete_topology::{FiberId, TrafficMatrix};
use std::cell::RefCell;

/// The pass: every tenth TWAN fiber from fiber 3 (3, 13, 23, 33, 43). On
/// a survey of all 50 fibers an epoch takes 0.9–2.1 s (median 1.40 s);
/// these five span 0.9–1.85 s with median 1.38 s, and a pass of them is
/// short enough that three fit in a run.
const FIRST_FIBER: usize = 3;
const FIBER_STRIDE: usize = 10;

/// §5 testbed trace shape: 400 s, degraded at 65 s for 45 s at 6.5 dB,
/// cut at 110 s.
const TRACE_S: u64 = 400;
const CUT_AT_S: u64 = 110;
const DEGRADATION: ScriptedDegradation = ScriptedDegradation {
    start_s: 65,
    duration_s: 45,
    degree_db: 6.5,
    wobble_db: 0.3,
};

pub struct ReactTwan {
    net: Network,
    model: FailureModel,
    tunnels: TunnelSet,
    nn: Mlp,
    scheme: PreTeScheme,
    matrices: Vec<TrafficMatrix>,
    /// The controller's warm-start cache, carried across the epochs of a
    /// pass.
    cache: BasisCache,
    /// Per slot: the degraded fiber.
    fibers: Vec<usize>,
    /// Per slot: hour of the demand matrix the epoch runs under.
    hours: Vec<usize>,
    /// Per slot: the telemetry trace, built by `prepare`.
    traces: Vec<LossTrace>,
}

pub fn setup() -> (Box<dyn Workload>, SetupBreakdown) {
    let (net, generate_ms) = timed_ms(topologies::twan);
    let model = FailureModel::new(&net, FIXED_SEED);
    let flows = topologies::flows_for(&net, 0.08, FIXED_SEED);
    let (tunnels, tunnels_init_ms) = timed_ms(|| TunnelSet::initialize(&net, &flows, 4));
    let (truth, ground_truth_ms) =
        timed_ms(|| TrueConditionals::ground_truth(&net, &model, 100, 3));
    let (nn, train_ms) = timed_ms(|| {
        let dataset = Dataset::generate(&net, &model, DatasetConfig::one_year(7));
        let (train, _held_out) = dataset.train_test_split(0.8);
        Mlp::train(
            &train,
            TrainConfig {
                seed: 1,
                ..TrainConfig::default()
            },
        )
    });
    let scheme = PreTeScheme::new(0.999, ProbabilityEstimator::prete(&model, &truth));
    let fibers: Vec<usize> = (FIRST_FIBER..net.num_fibers())
        .step_by(FIBER_STRIDE)
        .collect();
    let breakdown = SetupBreakdown {
        generate_ms,
        tunnels_init_ms,
        ground_truth_ms,
        train_s: train_ms / 1e3,
        flows_total: flows.len(),
        tunnels_total: tunnels.len(),
    };
    let w = ReactTwan {
        matrices: hourly_matrices(&flows, FIXED_SEED),
        hours: (0..fibers.len()).map(|slot| (slot * 5) % 24).collect(),
        net,
        model,
        tunnels,
        nn,
        scheme,
        cache: BasisCache::new(),
        fibers,
        traces: Vec::new(),
    };
    (Box::new(w), breakdown)
}

impl ReactTwan {
    fn flows(&self, slot: usize) -> &[Flow] {
        &self.matrices[self.hours[slot]].flows
    }

    /// The event the controller derives from a detection, rebuilt here so
    /// `predict_proba` can be called alone on the same input.
    fn event(&self, trace: &LossTrace) -> Option<DegradationEvent> {
        let deg = detect(trace).degradations.into_iter().next()?;
        let meta = self.net.fiber(trace.fiber);
        Some(DegradationEvent {
            fiber: trace.fiber,
            start_s: trace.start_s + deg.start_idx as u64,
            duration_s: deg.len as u64,
            features: DegradationFeatures {
                hour: ((trace.start_s / 3600) % 24) as u8,
                degree_db: deg.degree_db,
                gradient_db: deg.gradient_db,
                fluctuation: deg.fluctuation,
                region: meta.region,
                fiber_id: trace.fiber.index(),
                length_km: meta.length_km,
                vendor: meta.vendor,
            },
            led_to_cut: false,
            cut_delay_s: None,
        })
    }
}

impl Workload for ReactTwan {
    fn prepare(&mut self, seed: u64) {
        let mut rng = Rng::new(seed ^ 0xbb67_ae85_84ca_a73b);
        self.traces = self
            .fibers
            .iter()
            .map(|&fiber| {
                synthesize(
                    FiberId(fiber),
                    0,
                    TRACE_S,
                    &[DEGRADATION],
                    Some(CUT_AT_S),
                    TraceConfig::default(),
                    rng.next_u64(),
                )
            })
            .collect();
    }

    fn slots(&self) -> usize {
        self.fibers.len()
    }

    /// A later pass meets the same fibers again; without this its solves
    /// would restore the first pass's bases and do different work.
    fn begin_pass(&mut self) {
        self.cache.clear();
    }

    fn epoch(&mut self, slot: usize, tracer: &mut Tracer) -> Result<Decision, String> {
        let traced = tracer.enabled();
        let controller = Controller {
            net: &self.net,
            model: &self.model,
            flows: &self.matrices[self.hours[slot]].flows,
            base_tunnels: &self.tunnels,
            predictor: &self.nn,
            scheme: &self.scheme,
            latency: LatencyModel::default(),
            threads: 1,
            backend: Default::default(),
            pricing: Default::default(),
            eta_update: Default::default(),
            scenario_budget: None,
            cache: RefCell::new(std::mem::take(&mut self.cache)),
            obs: if traced {
                Recorder::live()
            } else {
                Recorder::disabled()
            },
        };
        let span = tracer.open("sim.replay_trace");
        let report = controller.replay_trace(&self.traces[slot]);
        tracer.close(span);
        let sim = traced.then(|| controller.obs.report());
        self.cache = controller.cache.into_inner();

        let phi = report
            .events
            .iter()
            .find_map(|e| match e {
                ControllerEvent::PolicyRecomputed { max_loss, .. } => Some(*max_loss),
                _ => None,
            })
            .ok_or("the replay recomputed no policy")?;
        let stats = report
            .solver
            .clone()
            .ok_or("the replay reported no solver stats")?;
        Ok(Decision {
            phi,
            stats,
            policy: None,
            enumeration: None,
            controller: Some(report),
            sim,
        })
    }

    /// `ControllerReport` carries no allocation, so the check is on what
    /// it does carry: the event log in causal order with sane values.
    fn check(&self, slot: usize, decision: &Decision) -> Result<Option<f64>, String> {
        let report = decision.controller.as_ref().ok_or("no controller report")?;
        let fiber = FiberId(self.fibers[slot]);
        match report.events.first() {
            Some(ControllerEvent::DegradationDetected {
                fiber: f,
                at_s,
                predicted_cut_prob,
            }) if *f == fiber
                && (DEGRADATION.start_s as f64..CUT_AT_S as f64).contains(at_s)
                && (0.0..=1.0).contains(predicted_cut_prob) => {}
            other => return Err(format!("first event is {other:?}, not the degradation")),
        }
        if !(decision.phi.is_finite() && (0.0..=1.0).contains(&decision.phi)) {
            return Err(format!("Φ = {} is not a loss in [0, 1]", decision.phi));
        }
        match report.events.last() {
            Some(ControllerEvent::CutObserved { fiber: f, at_s })
                if *f == fiber && *at_s == CUT_AT_S as f64 => {}
            other => {
                return Err(format!(
                    "last event is {other:?}, not the cut at {CUT_AT_S} s"
                ))
            }
        }
        if report.prepared_before_cut.is_none() || report.pipeline.is_none() {
            return Err("the replay reported no pipeline timing".into());
        }
        Ok(None)
    }

    fn attribute(&mut self, slot: usize, tracer: &mut Tracer, samples: &mut Samples) {
        let trace = &self.traces[slot];
        samples.push("optical.samples", trace.len() as f64);
        let span = tracer.open("optical.detect");
        let detection = detect(trace);
        tracer.close(span);
        std::hint::black_box(detection);

        if let Some(event) = self.event(trace) {
            let span = tracer.open("nn.predict");
            let p = self.nn.predict_proba(&event);
            tracer.close(span);
            std::hint::black_box(p);
        }

        let state = DegradationState::single(trace.fiber);
        let span = tracer.open("core.estimator.probabilities");
        let probs = self.scheme.estimator.probabilities(&state);
        tracer.close(span);

        let mut copy = self.tunnels.clone();
        let span = tracer.open("core.algorithm1.update_tunnels");
        let created = update_tunnels(&self.net, &mut copy, trace.fiber, self.scheme.tunnel_update);
        tracer.close(span);
        samples.push("core.algorithm1.new_tunnels", created.len() as f64);

        let ctx = TeContext {
            net: &self.net,
            model: &self.model,
            flows: self.flows(slot),
            base_tunnels: &self.tunnels,
        };
        let span = tracer.open("core.schemes.plan");
        let plan = self.scheme.plan(&ctx, &state, None);
        tracer.close(span);

        let span = tracer.open("core.scenario.enumerate");
        let scenarios = ScenarioSet::enumerate(&probs, 1, 0.0);
        tracer.close(span);
        samples.push("core.scenario.scenarios", scenarios.len() as f64);
        samples.push("core.scenario.enumerated_mass", scenarios.covered_mass());

        let span = tracer.open("core.optimizer.problem_build");
        let problem = TeProblem::new(&self.net, self.flows(slot), &plan.tunnels, &scenarios);
        tracer.close(span);
        std::hint::black_box(problem);
    }
}
