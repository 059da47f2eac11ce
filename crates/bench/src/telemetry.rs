//! Streaming telemetry over a group of plain controllers.
//!
//! [`telemetry_fleet`] builds one [`Controller`] per tenant — B4 and
//! IBM alternating, each with its own failure model, flows and a
//! fixed-probability predictor — and replays one scripted
//! degradation→cut trace per tenant per epoch, round-robin, under one
//! deterministic [`Recorder`]. Every epoch's outcome feeds the tenant's
//! [`SeriesSet`], [`SloTracker`] and [`SolverAnomalyDetector`]; the
//! returned [`TelemetryReport`] carries the resulting
//! [`TelemetrySnapshot`] and the recorder's [`RunReport`], which
//! [`export`] renders as Prometheus text and JSON lines. Every quantity
//! the snapshot aggregates is a pure function of the run's inputs, so
//! the exports are byte-identical across repeat runs.

use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
use prete_core::prelude::*;
use prete_core::schemes::PreTeScheme;
use prete_nn::Predictor;
use prete_obs::{
    AnomalyConfig, SeriesConfig, SeriesSet, SloObservation, SloSpec, SloTracker,
    SolverAnomalyDetector, SolverSample, TelemetrySnapshot, TenantTelemetry,
};
use prete_optical::trace::{synthesize, LossTrace, ScriptedDegradation, TraceConfig};
use prete_optical::DegradationEvent;
use prete_sim::{Controller, ControllerEvent, ControllerReport};
use prete_topology::{topologies, FiberId, Network};

/// Shape of one telemetry run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryRunConfig {
    /// Tenants (alternating B4/IBM topologies).
    pub tenants: usize,
    /// Epochs each tenant completes.
    pub epochs: u64,
    /// Master seed for per-tenant models, flows and traces.
    pub seed: u64,
    /// Fraction of node pairs carrying a flow.
    pub flow_frac: f64,
}

impl Default for TelemetryRunConfig {
    fn default() -> Self {
        Self { tenants: 4, epochs: 6, seed: crate::SEED, flow_frac: 0.05 }
    }
}

/// One telemetry run: the per-tenant snapshot and the shared
/// recorder's report (span tree, counters, events).
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Per-tenant series, SLO status, alerts and anomalies.
    pub telemetry: TelemetrySnapshot,
    /// Every tenant's epochs under one deterministic recorder.
    pub run: RunReport,
}

/// Fixed-probability predictor: keeps the run independent of NN
/// training so it is cheap and bit-reproducible.
struct ConstPredictor(f64);

impl Predictor for ConstPredictor {
    fn predict_proba(&self, _e: &DegradationEvent) -> f64 {
        self.0
    }
}

/// Everything one tenant's controller borrows.
struct TenantLeaves {
    name: String,
    seed: u64,
    net: Network,
    model: FailureModel,
    flows: Vec<Flow>,
    tunnels: TunnelSet,
    scheme: PreTeScheme,
    predictor: ConstPredictor,
}

impl TenantLeaves {
    fn new(i: usize, cfg: &TelemetryRunConfig) -> Self {
        let (kind, net) =
            if i.is_multiple_of(2) { ("b4", topologies::b4()) } else { ("ibm", topologies::ibm()) };
        let seed = cfg.seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let model = FailureModel::new(&net, seed);
        let flows = topologies::flows_for(&net, cfg.flow_frac, seed);
        let tunnels = TunnelSet::initialize(&net, &flows, 2);
        let truth = TrueConditionals::ground_truth(&net, &model, 40, 1);
        let scheme = PreTeScheme::new(0.99, ProbabilityEstimator::prete(&model, &truth));
        Self {
            name: format!("{kind}-{i}"),
            seed,
            net,
            model,
            flows,
            tunnels,
            scheme,
            predictor: ConstPredictor(0.8),
        }
    }

    /// Epoch `epoch`'s trace: a 45 s degradation at +65 s and a cut at
    /// 110 s, alternating between fiber 0 and the middle fiber.
    fn trace(&self, epoch: u64) -> LossTrace {
        let deg = ScriptedDegradation {
            start_s: 65,
            duration_s: 45,
            degree_db: 6.0 + 0.1 * (epoch % 5) as f64,
            wobble_db: 0.2,
        };
        let n = self.net.fibers().len();
        let fiber =
            if epoch.is_multiple_of(2) { FiberId(0) } else { FiberId((n / 2).max(1) % n.max(1)) };
        let seed = self.seed.wrapping_add(epoch);
        synthesize(fiber, 0, 160, &[deg], Some(110), TraceConfig::default(), seed)
    }
}

/// One tenant's telemetry state.
struct TenantTelemetryState {
    series: SeriesSet,
    slo: SloTracker,
    anomaly: SolverAnomalyDetector,
    out: TenantTelemetry,
}

impl TenantTelemetryState {
    fn new(name: &str) -> Self {
        Self {
            series: SeriesSet::new(SeriesConfig::default()),
            slo: SloTracker::new(SloSpec::default()),
            anomaly: SolverAnomalyDetector::new(AnomalyConfig::default()),
            out: TenantTelemetry {
                tenant: name.to_string(),
                series: Vec::new(),
                slo: None,
                alerts: Vec::new(),
                anomalies: Vec::new(),
            },
        }
    }

    /// Feeds one epoch's outcome into the series, the anomaly detector
    /// and the SLO tracker, counting fired anomalies and alerts on `obs`.
    fn observe(&mut self, epoch: u64, report: &ControllerReport, obs: &Recorder) {
        let stats = report.solver.clone().unwrap_or_default();
        let decision_ms = report.pipeline.as_ref().map_or(0.0, |p| p.decision_ms());
        let max_loss = report
            .events
            .iter()
            .find_map(|e| match e {
                ControllerEvent::PolicyRecomputed { max_loss, .. } => Some(*max_loss),
                _ => None,
            })
            .unwrap_or(0.0);
        self.series.record("solve.work_units", epoch, stats.work_units() as f64);
        self.series.record("solve.pivots", epoch, stats.pivots as f64);
        self.series.record("availability.loss", epoch, max_loss);
        self.series.record("pipeline.decision_ms", epoch, decision_ms);
        self.series.record("warm.hit_rate", epoch, stats.warm_hit_rate());

        let sample = SolverSample {
            pivots: stats.pivots as u64,
            etas: stats.etas,
            refactorizations: stats.refactorizations,
            dense_fallbacks: stats.dense_fallbacks as u64,
            rollbacks: stats.rollbacks,
            warm_hits: stats.warm_hits as u64,
            warm_misses: stats.warm_misses as u64,
            refinements: stats.refinements,
            tightenings: stats.tightenings,
            patched_columns: stats.patched_columns,
            suspect_solves: stats.suspect_solves as u64,
            // The condition estimate's decimal exponent keeps the
            // sample integral.
            condition_exponent: if stats.max_condition_estimate.is_finite()
                && stats.max_condition_estimate >= 1.0
            {
                stats.max_condition_estimate.log10().floor() as u64
            } else {
                0
            },
        };
        let name = self.out.tenant.clone();
        for ev in self.anomaly.observe(&name, epoch, &sample) {
            obs.add("solver.anomalies", 1);
            obs.event_with("solver.anomaly", || {
                format!("tenant={name} epoch={epoch} stat={} kind={}", ev.stat, ev.kind.as_str())
            });
            self.out.anomalies.push(ev);
        }

        let o = SloObservation {
            epoch,
            policy_max_loss: max_loss,
            solve_work_units: stats.work_units(),
            decision_ms,
        };
        for alert in self.slo.observe_epoch(&name, &o) {
            obs.add("slo.alerts", 1);
            obs.event_with("slo.alert", || {
                format!("tenant={name} epoch={epoch} kind={}", alert.kind.as_str())
            });
            self.out.alerts.push(alert);
        }
    }
}

/// Runs `cfg.tenants` controllers for `cfg.epochs` epochs each, every
/// tenant with the default (fully lenient) [`SloSpec`], so a clean run
/// exports SLO status with zero alerts.
pub fn telemetry_fleet(cfg: &TelemetryRunConfig) -> TelemetryReport {
    let leaves: Vec<TenantLeaves> = (0..cfg.tenants).map(|i| TenantLeaves::new(i, cfg)).collect();
    let obs = Recorder::deterministic();
    let controllers: Vec<Controller<'_>> = leaves
        .iter()
        .map(|l| {
            let mut c =
                Controller::new(&l.net, &l.model, &l.flows, &l.tunnels, &l.predictor, &l.scheme);
            c.obs = obs.clone();
            c
        })
        .collect();
    let mut states: Vec<TenantTelemetryState> =
        leaves.iter().map(|l| TenantTelemetryState::new(&l.name)).collect();
    for epoch in 0..cfg.epochs {
        for ((l, c), st) in leaves.iter().zip(&controllers).zip(&mut states) {
            let report = c.replay_trace(&l.trace(epoch));
            st.observe(epoch, &report, &obs);
        }
    }

    let mut all = SeriesSet::new(SeriesConfig::default());
    let mut tenants: Vec<TenantTelemetry> = states
        .into_iter()
        .map(|st| {
            all.merge(&st.series);
            TenantTelemetry {
                series: st.series.snapshot(),
                slo: Some(st.slo.status()),
                ..st.out
            }
        })
        .collect();
    tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    TelemetryReport {
        telemetry: TelemetrySnapshot { tenants, fleet: all.snapshot() },
        run: obs.report(),
    }
}

/// Both telemetry wire formats for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryExport {
    /// Prometheus text exposition.
    pub prom: String,
    /// JSON-lines stream.
    pub jsonl: String,
}

/// Renders a run's telemetry into both wire formats, including the
/// recorder's counters, gauges and histograms.
pub fn export(report: &TelemetryReport) -> TelemetryExport {
    TelemetryExport {
        prom: report.telemetry.to_prometheus(Some(&report.run)),
        jsonl: report.telemetry.to_jsonl(Some(&report.run)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_fleet_exports_deterministically() {
        let cfg = TelemetryRunConfig { tenants: 2, epochs: 2, ..TelemetryRunConfig::default() };
        let report = telemetry_fleet(&cfg);
        assert_eq!(report.telemetry.tenants.len(), 2);
        for t in &report.telemetry.tenants {
            assert!(t.slo.is_some(), "{} missing SLO status", t.tenant);
            assert!(t.alerts.is_empty(), "spurious alerts: {:?}", t.alerts);
            assert!(!t.series.is_empty());
        }
        assert_eq!(report.run.counters["controller.epochs"], 4);
        assert_eq!(report.run.validate_spans(), Ok(()));
        let e1 = export(&report);
        assert!(e1.prom.contains("prete_ts_count"));
        assert!(e1.jsonl.lines().count() > 0);
        // Byte-identical across a repeat run.
        let e2 = export(&telemetry_fleet(&cfg));
        assert_eq!(e1, e2);
    }
}
