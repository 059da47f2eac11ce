//! End-to-end PreTE pipeline on synthetic telemetry.
//!
//! Simulates a year of optical events on the B4 topology, trains the
//! paper's MLP on the first 80 % of each fiber's degradations, then
//! replays the §5 testbed scenario (healthy → degraded → cut) through
//! the full controller: detection → NN inference → Algorithm 1 →
//! TE recompute, with the latency model attached.
//!
//! Run with: `cargo run --release --example degradation_pipeline`

use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
use prete_core::prelude::*;
use prete_core::schemes::PreTeScheme;
use prete_nn::{evaluate, Mlp, TrainConfig};
use prete_optical::trace::{synthesize, ScriptedDegradation, TraceConfig};
use prete_sim::Controller;
use prete_topology::{topologies, FiberId};

fn main() {
    // 1. Simulate a year of telemetry events.
    let net = topologies::b4();
    let model = FailureModel::new(&net, 42);
    let dataset = Dataset::generate(&net, &model, DatasetConfig::one_year(7));
    println!(
        "Simulated year on {}: {} degradations, {} cuts (α = {:.1} %, P(cut|deg) = {:.1} %)",
        net.name,
        dataset.events.len(),
        dataset.cuts.len(),
        100.0 * dataset.alpha(),
        100.0 * dataset.positive_fraction()
    );

    // Live recorder: real wall times for the whole pipeline.
    let obs = Recorder::live();

    // 2. Train the failure predictor (Appendix A.2 recipe).
    let (train, test) = dataset.train_test_split(0.8);
    let nn = Mlp::train_recorded(
        &train,
        TrainConfig {
            epochs: 80,
            seed: 1,
            ..Default::default()
        },
        &obs,
    );
    let report = evaluate("NN", &nn, &test);
    println!(
        "Trained MLP: precision {:.2}, recall {:.2}, F1 {:.2} on {} held-out events",
        report.precision,
        report.recall,
        report.f1,
        test.len()
    );

    // 3. Wire the controller and replay the §5 testbed trace.
    let flows = topologies::flows_for(&net, 0.08, 42);
    let tunnels = TunnelSet::initialize(&net, &flows, 4);
    let truth = TrueConditionals::ground_truth(&net, &model, 100, 3);
    let scheme = PreTeScheme::new(0.999, ProbabilityEstimator::prete(&model, &truth));
    let controller = Controller {
        obs: obs.clone(),
        ..Controller::new(&net, &model, &flows, &tunnels, &nn, &scheme)
    };
    let deg = ScriptedDegradation {
        start_s: 65,
        duration_s: 45,
        degree_db: 6.5,
        wobble_db: 0.3,
    };
    let trace = synthesize(
        FiberId(0),
        0,
        400,
        &[deg],
        Some(110),
        TraceConfig::default(),
        5,
    );
    println!("\nReplaying the §5 testbed trace (degraded at 65 s, cut at 110 s):");
    let result = controller.replay_trace(&trace);
    for e in &result.events {
        println!("  {e:?}");
    }
    if let Some(p) = &result.pipeline {
        println!(
            "\nController decision latency: {:.0} ms (paper: < 300 ms); full preparation {:.2} s",
            p.decision_ms(),
            p.total_ms() / 1000.0
        );
    }
    match result.prepared_before_cut {
        Some(true) => println!("Preparation finished BEFORE the cut — traffic protected."),
        Some(false) => println!("Preparation finished after the cut."),
        None => println!("No cut in this trace."),
    }

    // 4. The run report: span tree + counters collected along the way.
    let run = obs.report();
    println!("\nRun report: spans {:?}", run.span_names());
    for (name, count) in &run.counters {
        println!("  {name} = {count}");
    }
    for row in run.stage_attribution("epoch") {
        println!(
            "  stage {:<8} {:>8.2} ms ({:>5.1} % of epoch)",
            row.stage, row.total_ms, row.share_pct
        );
    }
}
