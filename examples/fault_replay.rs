//! Fault-injected controller replay: the §5 testbed trace driven
//! through the robust controller under a scripted fault plan.
//!
//! ```sh
//! cargo run --example fault_replay            # clean + faulty replays
//! cargo run --example fault_replay -- 1234    # custom fault seed
//! ```

use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
use prete_core::examples::{triangle, triangle_flows};
use prete_core::prelude::*;
use prete_core::schemes::PreTeScheme;
use prete_nn::Predictor;
use prete_optical::trace::{synthesize, ScriptedDegradation, TraceConfig};
use prete_optical::DegradationEvent;
use prete_sim::{
    Controller, FaultPersistence, FaultPlan, PredictorFaultKind, PredictorFaults, RetryPolicy,
    RobustController, SolverFaultKind, SolverFaults, TelemetryFaults, TunnelFaults,
};
use prete_topology::FiberId;

struct OptimistPredictor;
impl Predictor for OptimistPredictor {
    fn predict_proba(&self, _e: &DegradationEvent) -> f64 {
        0.8
    }
}

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(99);

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

    // The §5 testbed trace: healthy 0–65 s, degraded 65–110 s, cut at 110 s.
    let deg = ScriptedDegradation { start_s: 65, duration_s: 45, degree_db: 6.0, wobble_db: 0.15 };
    let trace = synthesize(FiberId(0), 0, 400, &[deg], Some(110), TraceConfig::default(), 9);

    println!("== clean replay (no faults) ==");
    print_report(&robust.replay_trace(&trace, &FaultPlan::none(seed)));

    let plan = FaultPlan {
        seed,
        telemetry: Some(TelemetryFaults::light()),
        predictor: Some(PredictorFaults {
            kind: PredictorFaultKind::Unavailable,
            persistence: FaultPersistence::Transient(2),
        }),
        solver: Some(SolverFaults {
            kind: SolverFaultKind::BudgetExceeded,
            persistence: FaultPersistence::Transient(1),
        }),
        tunnels: Some(TunnelFaults { fail_prob: 0.7, permanent_prob: 0.3 }),
    };
    println!("\n== faulty replay (seed {seed}: telemetry + predictor + solver + tunnel faults) ==");
    print_report(&robust.replay_trace(&trace, &plan));
}

fn print_report(r: &prete_sim::RobustReport) {
    for e in &r.events {
        println!("  event: {e:?}");
    }
    for f in &r.fallbacks_fired {
        println!("  fallback [{:?}] {} -> {:?}", f.stage, f.fault, f.outcome);
    }
    println!(
        "  tunnels committed {}/{}, policy max loss {:.4}, prepared before cut: {:?}",
        r.committed_tunnels, r.requested_tunnels, r.policy_max_loss, r.prepared_before_cut
    );
    match r.worst_mode() {
        Some(m) => println!("  degraded mode: {m}"),
        None => println!("  degraded mode: none (full recovery)"),
    }
}
