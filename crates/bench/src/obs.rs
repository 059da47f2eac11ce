//! Observability experiments: the end-to-end run report and the
//! instrumentation-overhead benchmark behind the `run_report` binary.
//!
//! [`run_report_wan`] replays a batch of §5-style degradation traces
//! through the full controller on the WAN topology with a
//! *deterministic* recorder attached, yielding a [`RunReport`] whose
//! JSON is byte-identical across runs. [`overhead_wan`] times the same
//! workload with instrumentation on (live clock) versus off (no-op
//! recorder) — the CI gate that keeps the telemetry layer cheap.

use crate::SEED;
use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
use prete_core::prelude::*;
use prete_core::schemes::PreTeScheme;
use prete_nn::Predictor;
use prete_optical::trace::{synthesize, ScriptedDegradation, TraceConfig};
use prete_optical::DegradationEvent;
use prete_sim::Controller;
use prete_topology::{topologies, FiberId, Network};
use serde::Serialize;
use std::fmt::Write as _;
use std::time::Instant;

/// Fixed-probability predictor: keeps the report workload independent
/// of NN training so runs are cheap and bit-reproducible.
struct ConstPredictor(f64);
impl Predictor for ConstPredictor {
    fn predict_proba(&self, _e: &DegradationEvent) -> f64 {
        self.0
    }
}

/// A replayed controller batch plus the full observability snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct ControllerRun {
    /// Topology name.
    pub topology: String,
    /// Number of traces replayed (one `"epoch"` root span each).
    pub epochs: usize,
    /// Epochs whose preparation finished before the scripted cut.
    pub prepared_before_cut: usize,
    /// Everything the recorder collected: span tree, counters, gauges,
    /// histograms and the structured event log.
    pub report: RunReport,
}

/// Replays `epochs` scripted degradation→cut traces through one
/// controller (shared warm-start cache, shared recorder) and returns
/// how many preparations beat the cut. The trace script is the §5
/// testbed shape — degraded at 65 s, cut at 110 s — alternating
/// between two fibers so the first visits miss the warm-start cache and
/// the revisits, identical inputs, restore their min-Φ LP's basis (the
/// polish LP always solves cold).
fn replay_epochs(net: &Network, flow_frac: f64, epochs: usize, obs: &Recorder) -> usize {
    let model = FailureModel::new(net, SEED);
    let flows = topologies::flows_for(net, flow_frac, SEED);
    let tunnels = TunnelSet::initialize(net, &flows, 2);
    let truth = TrueConditionals::ground_truth(net, &model, 40, 1);
    let scheme = PreTeScheme::new(0.99, ProbabilityEstimator::prete(&model, &truth));
    let predictor = ConstPredictor(0.8);
    let controller = Controller {
        obs: obs.clone(),
        ..Controller::new(net, &model, &flows, &tunnels, &predictor, &scheme)
    };
    let n_fibers = net.fibers().len();
    let mut prepared = 0;
    for epoch in 0..epochs {
        let deg = ScriptedDegradation {
            start_s: 65,
            duration_s: 45,
            degree_db: 6.0 + 0.1 * (epoch % 5) as f64,
            wobble_db: 0.2,
        };
        let fiber = if epoch % 2 == 0 { FiberId(0) } else { FiberId(n_fibers / 2) };
        let trace = synthesize(
            fiber,
            0,
            160,
            &[deg],
            Some(110),
            TraceConfig::default(),
            SEED + epoch as u64,
        );
        if controller.replay_trace(&trace).prepared_before_cut == Some(true) {
            prepared += 1;
        }
    }
    prepared
}

/// Builds the run report on an arbitrary topology — tests use B4 so the
/// debug-mode workload stays in seconds; the WAN run is release-only.
pub fn run_report_on(net: &Network, flow_frac: f64, epochs: usize) -> ControllerRun {
    let obs = Recorder::deterministic();
    let prepared = replay_epochs(net, flow_frac, epochs, &obs);
    ControllerRun {
        topology: net.name.clone(),
        epochs,
        prepared_before_cut: prepared,
        report: obs.report(),
    }
}

/// The acceptance-path run report: WAN topology, deterministic clock.
/// A small flow fraction keeps the TE program WAN-shaped without
/// blowing the CI budget.
pub fn run_report_wan(epochs: usize) -> ControllerRun {
    run_report_on(&topologies::twan(), 0.02, epochs)
}

/// Renders the run report as text tables: stage attribution under the
/// epoch span, histogram percentiles, counters, and event tallies.
pub fn render_report(run: &ControllerRun) -> String {
    let r = &run.report;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Run report: {} epochs on {} ({} prepared before cut, deterministic={})",
        run.epochs, run.topology, run.prepared_before_cut, r.deterministic
    );
    let _ = writeln!(s, "  spans: {}", r.span_names().join(" "));
    let _ = writeln!(s, "  {:<12} {:>6} {:>12} {:>8}", "stage", "calls", "total ms", "share %");
    for row in r.stage_attribution("epoch") {
        let _ = writeln!(
            s,
            "  {:<12} {:>6} {:>12.3} {:>8.1}",
            row.stage, row.calls, row.total_ms, row.share_pct
        );
    }
    let _ = writeln!(
        s,
        "  {:<24} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "histogram", "count", "p50 ms", "p95 ms", "p99 ms", "max ms"
    );
    for (name, h) in &r.histograms {
        let _ = writeln!(
            s,
            "  {:<24} {:>6} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            name, h.count, h.p50, h.p95, h.p99, h.max
        );
    }
    for (name, v) in &r.counters {
        let _ = writeln!(s, "  {name} = {v}");
    }
    let mut kinds: std::collections::BTreeMap<&str, usize> = Default::default();
    for e in &r.events {
        *kinds.entry(e.kind.as_str()).or_default() += 1;
    }
    let _ = writeln!(
        s,
        "  events: {} ({} dropped)",
        kinds.iter().map(|(k, n)| format!("{k}×{n}")).collect::<Vec<_>>().join(" "),
        r.dropped_events
    );
    s
}

/// Instrumentation-on vs -off timing of the same replay workload.
#[derive(Debug, Clone, Serialize)]
pub struct Overhead {
    /// Topology name.
    pub topology: String,
    /// Epochs per timed repetition.
    pub epochs: usize,
    /// Repetitions per mode (best-of to strip scheduler noise).
    pub reps: usize,
    /// Best wall time with a live recorder attached (ms).
    pub instrumented_ms: f64,
    /// Best wall time with the no-op recorder (ms).
    pub baseline_ms: f64,
    /// `100 · (instrumented − baseline) / baseline`; negative values
    /// mean the difference is below measurement noise.
    pub overhead_pct: f64,
}

/// Times the controller replay behind [`run_report_on`] with
/// instrumentation on (live clock, real span/counter/event recording)
/// and off (the no-op recorder every disabled code path compiles down
/// to). One untimed warm-up run, then best-of-`reps` per mode,
/// interleaved so frequency scaling hits both modes alike.
pub fn overhead_on(net: &Network, flow_frac: f64, epochs: usize, reps: usize) -> Overhead {
    let time = |obs: &Recorder| {
        let t0 = Instant::now();
        let _ = replay_epochs(net, flow_frac, epochs, obs);
        t0.elapsed().as_secs_f64() * 1000.0
    };
    let _ = time(&Recorder::disabled());
    let (mut on, mut off) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        off = off.min(time(&Recorder::disabled()));
        on = on.min(time(&Recorder::live()));
    }
    Overhead {
        topology: net.name.clone(),
        epochs,
        reps: reps.max(1),
        instrumented_ms: on,
        baseline_ms: off,
        overhead_pct: 100.0 * (on - off) / off.max(1e-9),
    }
}

/// [`overhead_on`] for the WAN topology — the CI `run-report` gate.
pub fn overhead_wan(epochs: usize, reps: usize) -> Overhead {
    overhead_on(&topologies::twan(), 0.02, epochs, reps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_report_covers_pipeline_and_replays_identically() {
        let a = run_report_on(&topologies::b4(), 0.08, 2);
        let names = a.report.span_names();
        for stage in ["epoch", "detect", "predict", "tunnel", "solve"] {
            assert!(names.iter().any(|n| n == stage), "missing span {stage}: {names:?}");
        }
        assert_eq!(a.report.histograms["span.epoch"].count, 2);
        assert_eq!(a.report.counters["controller.epochs"], 2);
        assert!(a.report.counters["solver.lp_solves"] > 0);
        // Deterministic clock ⇒ byte-identical JSON across runs.
        let b = run_report_on(&topologies::b4(), 0.08, 2);
        assert_eq!(a.report.to_json(), b.report.to_json());
    }

    #[test]
    fn overhead_times_both_modes() {
        let o = overhead_on(&topologies::b4(), 0.08, 2, 1);
        assert!(o.baseline_ms > 0.0);
        assert!(o.instrumented_ms > 0.0);
        assert!(o.overhead_pct.is_finite());
    }
}
