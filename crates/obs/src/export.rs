//! Telemetry snapshot export: Prometheus text format and JSON lines.
//!
//! A [`TelemetrySnapshot`] is the wire form of fleet telemetry: one
//! [`TenantTelemetry`] per tenant (series, SLO status, fired alerts,
//! anomalies) plus fleet-wide series merged across tenants. Both
//! renderers are fully deterministic — tenants arrive sorted, series
//! iterate in name order, SLO kinds in `SloKind::ALL` order — so a
//! snapshot taken under the logical clock renders byte-identically
//! across repeat runs. That determinism is load-
//! bearing: the telemetry binary diffs repeated exports as a
//! self-check, and CI archives them as artifacts.
//!
//! The Prometheus renderer follows the text exposition format:
//! counters/gauges from an optional [`RunReport`], histograms as
//! cumulative `_bucket{le="…"}` ladders, rollup windows as
//! quantile-labelled summaries, and SLO/anomaly state as labelled
//! gauges/counters. Metric names are sanitized to
//! `[a-zA-Z0-9_]` and prefixed `prete_`.

use std::fmt::Write as _;

use serde::Serialize;

use crate::anomaly::AnomalyEvent;
use crate::report::RunReport;
use crate::slo::{SloAlert, SloStatusReport};
use crate::timeseries::NamedSeriesSnapshot;

/// Everything the fleet knows about one tenant's health.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantTelemetry {
    /// Tenant name.
    pub tenant: String,
    /// Per-tenant series snapshots, in name order.
    pub series: Vec<NamedSeriesSnapshot>,
    /// SLO burn-rate status, when the tenant declared an SLO.
    pub slo: Option<SloStatusReport>,
    /// SLO alerts fired over the run, chronological.
    pub alerts: Vec<SloAlert>,
    /// Solver anomalies fired over the run, chronological.
    pub anomalies: Vec<AnomalyEvent>,
}

/// The full fleet telemetry snapshot (see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct TelemetrySnapshot {
    /// Per-tenant telemetry, sorted by tenant name.
    pub tenants: Vec<TenantTelemetry>,
    /// Fleet-wide series: the order-independent merge of every
    /// tenant's series (demonstrably identical whatever the merge
    /// order — see `TimeSeries::merge`).
    pub fleet: Vec<NamedSeriesSnapshot>,
}

/// Rewrites a metric name into the Prometheus charset: every char
/// outside `[a-zA-Z0-9_]` becomes `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
        .collect()
}

/// Escapes a label value per the exposition format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn write_series_block(
    out: &mut String,
    scope: &str,
    series: &[NamedSeriesSnapshot],
) {
    for named in series {
        for level in &named.series.levels {
            let Some(w) = level.windows.last() else { continue };
            let labels = format!(
                "tenant=\"{}\",series=\"{}\",width=\"{}\"",
                escape_label(scope),
                escape_label(&named.name),
                level.width
            );
            let _ = writeln!(out, "prete_ts_count{{{labels}}} {}", w.count);
            let _ = writeln!(out, "prete_ts_sum{{{labels}}} {}", w.sum);
            let _ = writeln!(out, "prete_ts_rate{{{labels}}} {}", w.rate);
            let _ = writeln!(out, "prete_ts_max{{{labels}}} {}", w.max);
            for (q, v) in [(0.5, w.p50), (0.95, w.p95), (0.99, w.p99)] {
                let _ = writeln!(
                    out,
                    "prete_ts{{{labels},quantile=\"{q}\"}} {v}",
                );
            }
        }
    }
}

impl TelemetrySnapshot {
    /// Pretty JSON of the whole snapshot.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("telemetry snapshot serializes")
    }

    /// JSON-lines export: one self-describing object per line
    /// (`type` ∈ `series` / `slo` / `slo_alert` / `anomaly` /
    /// `counter` / `gauge` / `histogram`), deterministic order.
    /// Pass the fleet's [`RunReport`] to include its metrics.
    pub fn to_jsonl(&self, run: Option<&RunReport>) -> String {
        use serde::Value;
        let mut out = String::new();
        let mut line = |fields: Vec<(String, Value)>| {
            let s = serde_json::to_string(&Value::Map(fields))
                .expect("jsonl line serializes");
            out.push_str(&s);
            out.push('\n');
        };
        for t in &self.tenants {
            for named in &t.series {
                line(vec![
                    ("type".into(), Value::Str("series".into())),
                    ("tenant".into(), Value::Str(t.tenant.clone())),
                    ("name".into(), Value::Str(named.name.clone())),
                    (
                        "series".into(),
                        serde_json::to_value(&named.series).expect("series value"),
                    ),
                ]);
            }
            if let Some(slo) = &t.slo {
                line(vec![
                    ("type".into(), Value::Str("slo".into())),
                    ("tenant".into(), Value::Str(t.tenant.clone())),
                    (
                        "status".into(),
                        serde_json::to_value(slo).expect("slo value"),
                    ),
                ]);
            }
            for a in &t.alerts {
                line(vec![
                    ("type".into(), Value::Str("slo_alert".into())),
                    ("alert".into(), serde_json::to_value(a).expect("alert value")),
                ]);
            }
            for a in &t.anomalies {
                line(vec![
                    ("type".into(), Value::Str("anomaly".into())),
                    ("event".into(), serde_json::to_value(a).expect("anomaly value")),
                ]);
            }
        }
        for named in &self.fleet {
            line(vec![
                ("type".into(), Value::Str("series".into())),
                ("tenant".into(), Value::Str("_fleet".into())),
                ("name".into(), Value::Str(named.name.clone())),
                (
                    "series".into(),
                    serde_json::to_value(&named.series).expect("series value"),
                ),
            ]);
        }
        if let Some(run) = run {
            for (name, v) in &run.counters {
                line(vec![
                    ("type".into(), Value::Str("counter".into())),
                    ("name".into(), Value::Str(name.clone())),
                    ("value".into(), Value::UInt(*v)),
                ]);
            }
            for (name, v) in &run.gauges {
                line(vec![
                    ("type".into(), Value::Str("gauge".into())),
                    ("name".into(), Value::Str(name.clone())),
                    ("value".into(), Value::Float(*v)),
                ]);
            }
            for (name, h) in &run.histograms {
                line(vec![
                    ("type".into(), Value::Str("histogram".into())),
                    ("name".into(), Value::Str(name.clone())),
                    (
                        "snapshot".into(),
                        serde_json::to_value(h).expect("histogram value"),
                    ),
                ]);
            }
        }
        out
    }

    /// Prometheus text-exposition export (see module docs). Pass the
    /// fleet's [`RunReport`] to include its counters, gauges and
    /// histograms.
    pub fn to_prometheus(&self, run: Option<&RunReport>) -> String {
        let mut out = String::new();
        out.push_str("# PreTE fleet telemetry snapshot\n");

        if let Some(run) = run {
            for (name, v) in &run.counters {
                let m = format!("prete_{}_total", sanitize(name));
                let _ = writeln!(out, "# TYPE {m} counter");
                let _ = writeln!(out, "{m} {v}");
            }
            for (name, v) in &run.gauges {
                let m = format!("prete_{}", sanitize(name));
                let _ = writeln!(out, "# TYPE {m} gauge");
                let _ = writeln!(out, "{m} {v}");
            }
            for (name, h) in &run.histograms {
                let m = format!("prete_{}", sanitize(name));
                let _ = writeln!(out, "# TYPE {m} histogram");
                let mut cumulative = 0u64;
                for (bound, count) in &h.buckets {
                    cumulative += count;
                    if bound.is_finite() {
                        let _ = writeln!(
                            out,
                            "{m}_bucket{{le=\"{bound}\"}} {cumulative}"
                        );
                    }
                }
                let _ = writeln!(out, "{m}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{m}_sum {}", h.sum);
                let _ = writeln!(out, "{m}_count {}", h.count);
            }
        }

        out.push_str("# TYPE prete_ts summary\n");
        for t in &self.tenants {
            write_series_block(&mut out, &t.tenant, &t.series);
        }
        write_series_block(&mut out, "_fleet", &self.fleet);

        out.push_str("# TYPE prete_slo_burn_rate gauge\n");
        for t in &self.tenants {
            let Some(slo) = &t.slo else { continue };
            for k in &slo.kinds {
                let labels = format!(
                    "tenant=\"{}\",kind=\"{}\"",
                    escape_label(&t.tenant),
                    k.kind.as_str()
                );
                let _ = writeln!(
                    out,
                    "prete_slo_burn_rate{{{labels}}} {}",
                    k.burn_rate
                );
                let _ = writeln!(
                    out,
                    "prete_slo_budget_remaining{{{labels}}} {}",
                    k.budget_remaining
                );
                let _ = writeln!(
                    out,
                    "prete_slo_latched{{{labels}}} {}",
                    u8::from(k.latched)
                );
                let _ = writeln!(
                    out,
                    "prete_slo_alerts_total{{{labels}}} {}",
                    k.alerts_fired
                );
            }
        }

        out.push_str("# TYPE prete_anomaly_total counter\n");
        for t in &self.tenants {
            // Count anomalies per kind in a fixed kind order.
            for kind_label in [
                "pivot_explosion",
                "eta_churn",
                "refactor_cadence_drift",
                "dense_fallback_spike",
                "rollback_spike",
                "warm_cache_collapse",
            ] {
                let n = t
                    .anomalies
                    .iter()
                    .filter(|a| a.kind.as_str() == kind_label)
                    .count();
                if n > 0 {
                    let _ = writeln!(
                        out,
                        "prete_anomaly_total{{tenant=\"{}\",kind=\"{kind_label}\"}} {n}",
                        escape_label(&t.tenant)
                    );
                }
            }
        }
        out
    }

    /// Total SLO alerts across all tenants.
    pub fn total_alerts(&self) -> usize {
        self.tenants.iter().map(|t| t.alerts.len()).sum()
    }

    /// Total anomalies across all tenants.
    pub fn total_anomalies(&self) -> usize {
        self.tenants.iter().map(|t| t.anomalies.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::AnomalyKind;
    use crate::slo::{SloObservation, SloSpec, SloTracker};
    use crate::timeseries::SeriesSet;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut set = SeriesSet::default();
        for e in 0..10 {
            set.record("solve.work_units", e, 100.0 + e as f64);
        }
        let mut tracker = SloTracker::new(SloSpec {
            availability_floor: 0.99,
            window: 4,
            ..Default::default()
        });
        let mut alerts = Vec::new();
        for e in 0..10 {
            alerts.extend(tracker.observe_epoch(
                "t0",
                &SloObservation {
                    epoch: e,
                    policy_max_loss: 0.5,
                    solve_work_units: 100,
                    decision_ms: 1.0,
                },
            ));
        }
        assert!(!alerts.is_empty());
        let mut fleet = SeriesSet::default();
        fleet.merge(&set);
        TelemetrySnapshot {
            tenants: vec![TenantTelemetry {
                tenant: "t0".into(),
                series: set.snapshot(),
                slo: Some(tracker.status()),
                alerts,
                anomalies: vec![AnomalyEvent {
                    tenant: "t0".into(),
                    epoch: 7,
                    stat: "pivots".into(),
                    kind: AnomalyKind::PivotExplosion,
                    value: 5000.0,
                    baseline: 500.0,
                    detail: "test".into(),
                }],
            }],
            fleet: fleet.snapshot(),
        }
    }

    #[test]
    fn prometheus_export_is_deterministic_and_labelled() {
        let snap = sample_snapshot();
        let a = snap.to_prometheus(None);
        let b = snap.to_prometheus(None);
        assert_eq!(a, b);
        assert!(a.contains("prete_ts_count{tenant=\"t0\",series=\"solve.work_units\",width=\"1\"}"));
        assert!(a.contains("prete_ts{tenant=\"_fleet\",series=\"solve.work_units\",width=\"8\",quantile=\"0.5\"}"));
        assert!(a.contains("prete_slo_burn_rate{tenant=\"t0\",kind=\"availability\"}"));
        assert!(a.contains("prete_slo_alerts_total{tenant=\"t0\",kind=\"availability\"} 1"));
        assert!(a.contains("prete_anomaly_total{tenant=\"t0\",kind=\"pivot_explosion\"} 1"));
    }

    #[test]
    fn prometheus_includes_run_report_metrics() {
        let rec = crate::Recorder::deterministic();
        rec.add("solver.pivots", 42);
        rec.gauge("fleet.tenants", 3.0);
        rec.observe("solve.total_units", 12.0);
        let run = rec.report();
        let text = TelemetrySnapshot::default().to_prometheus(Some(&run));
        assert!(text.contains("# TYPE prete_solver_pivots_total counter"));
        assert!(text.contains("prete_solver_pivots_total 42"));
        assert!(text.contains("prete_fleet_tenants 3"));
        assert!(text.contains("# TYPE prete_solve_total_units histogram"));
        assert!(text.contains("prete_solve_total_units_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("prete_solve_total_units_count 1"));
    }

    #[test]
    fn jsonl_lines_are_self_describing_json() {
        let snap = sample_snapshot();
        let rec = crate::Recorder::deterministic();
        rec.add("solver.pivots", 7);
        let text = snap.to_jsonl(Some(&rec.report()));
        assert!(!text.is_empty());
        let mut types = std::collections::BTreeSet::new();
        for line in text.lines() {
            let v = serde_json::parse(line).expect("every line parses");
            let t = match v.get("type") {
                Some(serde::Value::Str(s)) => s.clone(),
                other => panic!("line missing type: {other:?}"),
            };
            types.insert(t);
        }
        for expect in ["series", "slo", "slo_alert", "anomaly", "counter"] {
            assert!(types.contains(expect), "missing line type {expect}");
        }
        // Determinism: repeat render is byte-identical.
        assert_eq!(text, snap.to_jsonl(Some(&rec.report())));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(sanitize("solve.work-units"), "solve_work_units");
    }
}
