//! End-to-end system tests: controller replay, production incident,
//! uncertainty experiment, and the experiment harness itself.

use prete_bench::{granularity, measurement};
use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
use prete_core::prelude::*;
use prete_core::schemes::PreTeScheme;
use prete_nn::Predictor;
use prete_optical::trace::{synthesize, ScriptedDegradation, TraceConfig};
use prete_optical::DegradationEvent;
use prete_sim::production::{replay_production_case, ProductionScenario};
use prete_sim::uncertainty::uncertainty_experiment;
use prete_sim::{Controller, ControllerEvent};
use prete_topology::{topologies, FiberId};

struct FixedPredictor(f64);
impl Predictor for FixedPredictor {
    fn predict_proba(&self, _e: &DegradationEvent) -> f64 {
        self.0
    }
}

/// Controller prepares before the cut on a B4-scale network and the
/// end-to-end decision stays under the paper's 300 ms bound.
#[test]
fn controller_prepares_before_cut_on_b4() {
    let net = topologies::b4();
    let model = FailureModel::new(&net, 42);
    let flows = topologies::flows_for(&net, 0.08, 42);
    let tunnels = TunnelSet::initialize(&net, &flows, 2);
    let truth = TrueConditionals::ground_truth(&net, &model, 60, 1);
    let scheme = PreTeScheme::new(0.999, ProbabilityEstimator::prete(&model, &truth));
    let predictor = FixedPredictor(0.7);
    let controller = Controller::new(&net, &model, &flows, &tunnels, &predictor, &scheme);
    // Degradation 60 s before the cut — the typical lead time of
    // Figure 5(a).
    let deg = ScriptedDegradation {
        start_s: 30,
        duration_s: 60,
        degree_db: 7.0,
        wobble_db: 0.25,
    };
    let trace = synthesize(
        FiberId(3),
        0,
        300,
        &[deg],
        Some(90),
        TraceConfig::default(),
        11,
    );
    let report = controller.replay_trace(&trace);
    assert!(matches!(
        report.events.first(),
        Some(ControllerEvent::DegradationDetected { .. })
    ));
    let timing = report.pipeline.expect("pipeline ran");
    assert!(
        timing.decision_ms() < 300.0,
        "decision {} ms",
        timing.decision_ms()
    );
    assert_eq!(report.prepared_before_cut, Some(true));
}

/// The observability acceptance path: an instrumented controller replay
/// on the WAN topology emits a JSON run report whose span tree covers
/// the whole pipeline (detect → predict → tunnel → solve under each
/// epoch), with epoch-latency percentiles and the solver counters
/// absorbed from [`SolverStats`].
#[test]
fn wan_run_report_covers_pipeline() {
    let run = prete_bench::obs::run_report_wan(2);
    let r = &run.report;
    assert!(r.deterministic, "acceptance path uses the logical clock");
    let names = r.span_names();
    for stage in ["epoch", "detect", "predict", "tunnel", "solve"] {
        assert!(
            names.iter().any(|n| n == stage),
            "missing span {stage}: {names:?}"
        );
    }
    // Per-stage spans nest under each epoch root.
    for root in r.spans.iter().filter(|s| s.name == "epoch") {
        let children: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(children, ["detect", "predict", "tunnel", "solve"]);
    }
    // Epoch-latency histogram with its percentile ladder.
    let h = &r.histograms["span.epoch"];
    assert_eq!(h.count, 2);
    assert!(h.p50 <= h.p95 && h.p95 <= h.p99 && h.p99 <= h.max);
    // Solver counters made it into the report (no SolverStats side
    // channel), and the structured event log saw the cut.
    assert!(r.counters["solver.lp_solves"] > 0);
    assert!(r.counters["solver.pivots"] > 0);
    assert_eq!(r.counters["controller.epochs"], 2);
    assert_eq!(r.events_of_kind("cut-observed").len(), 2);
    // The JSON export carries the span tree.
    let json = r.to_json();
    assert!(json.contains("\"spans\"") && json.contains("\"detect\""));
}

/// The §7 production replay: PreTE picks s1→s4→s3 and avoids the
/// sustained 300 Gbps loss the traditional backup suffers.
#[test]
fn production_case_matches_section7() {
    let out = replay_production_case(ProductionScenario::default());
    assert_eq!(out.traditional.backup_path, vec!["s1", "s2", "s3"]);
    assert_eq!(out.prete.backup_path, vec!["s1", "s4", "s3"]);
    assert!(out.traditional.sustained_loss_gbps > 0.0);
    assert_eq!(out.prete.sustained_loss_gbps, 0.0);
    assert!(out.prete.total_lost_gb < out.traditional.total_lost_gb / 100.0);
}

/// Figure 17/19: capacity uncertainty dominates workload uncertainty
/// for affected flows, on B4.
#[test]
fn uncertainty_experiment_on_b4() {
    let net = topologies::b4();
    let model = FailureModel::new(&net, 42);
    let truth = TrueConditionals::ground_truth(&net, &model, 60, 2);
    let flows = topologies::flows_for(&net, 0.08, 42);
    let tunnels = TunnelSet::initialize(&net, &flows, 4);
    let r = uncertainty_experiment(&net, &model, &truth, &flows, &tunnels, 1.0, 0.05, 3);
    let cap_aff = r
        .variation
        .iter()
        .find(|v| v.source == "capacity" && v.affected)
        .unwrap()
        .mean_variation_gbps;
    let wl_aff = r
        .variation
        .iter()
        .find(|v| v.source == "workload" && v.affected)
        .unwrap()
        .mean_variation_gbps;
    assert!(cap_aff > wl_aff, "capacity {cap_aff} <= workload {wl_aff}");
    assert_eq!(r.availability.len(), 4);
}

/// The measurement-study pipeline reproduces the §3 statistics on a
/// fresh simulated year.
#[test]
fn measurement_statistics_reproduce() {
    let (_net, _model, ds) = measurement::year_dataset();
    let counts = measurement::fig5b_event_counts(&ds);
    assert!((0.17..=0.33).contains(&counts.alpha), "α {}", counts.alpha);
    assert!(
        (0.3..=0.5).contains(&counts.cut_given_degradation),
        "P(cut|deg) {}",
        counts.cut_given_degradation
    );
    let h = measurement::table67_hypothesis(&ds);
    assert!(h.rejected, "chi-square failed to reject, ln p = {}", h.ln_p);
    assert!(h.ln_p < -50.0);
    // Figure 6 / Table 1: every critical feature is significant.
    let panels = measurement::fig6_table1_features(&ds);
    for p in &panels {
        assert!(
            p.chi2_ln_p < (0.01f64).ln(),
            "{} not significant: ln p = {}",
            p.feature,
            p.chi2_ln_p
        );
    }
}

/// Appendix A.8: coverage collapses from ~25 % to a few percent as the
/// sampling interval grows to 5 minutes.
#[test]
fn granularity_collapse() {
    let rows = granularity::fig20a(&[1, 60, 300]);
    assert!(rows[0].coverage > 0.15);
    assert!(rows[2].coverage < 0.10);
    assert!(rows[0].coverage > 2.0 * rows[2].coverage);
}
