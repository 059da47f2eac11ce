//! End-to-end telemetry acceptance tests: export determinism, seeded
//! alert/anomaly injection, and logical-duration histograms in
//! deterministic run reports.

use prete_bench::telemetry::{export, telemetry_fleet, TelemetryRunConfig};
use prete_core::prelude::{Recorder, SolverStats};
use prete_obs::{
    AnomalyConfig, AnomalyKind, SloKind, SloObservation, SloSpec, SloTracker,
    SolverAnomalyDetector, SolverSample,
};

#[test]
fn exports_are_byte_identical_across_repeat_runs_and_thread_counts() {
    let cfg = TelemetryRunConfig { tenants: 2, epochs: 3, ..TelemetryRunConfig::default() };
    let first = export(&telemetry_fleet(&cfg).unwrap());
    let repeat = export(&telemetry_fleet(&cfg).unwrap());
    assert_eq!(first, repeat, "repeat run diverged");
    assert!(first.prom.contains("prete_ts_count"));
    assert!(first.prom.contains("prete_slo_burn_rate"));
    assert!(first.jsonl.lines().all(|l| l.starts_with('{')));
}

/// A stable solver stream, then one epoch whose pivot count explodes:
/// exactly one anomaly fires, and it is the pivot explosion.
#[test]
fn injected_pivot_explosion_fires_exactly_its_alert() {
    let mut det = SolverAnomalyDetector::new(AnomalyConfig::default());
    let steady = SolverSample {
        pivots: 200,
        etas: 180,
        refactorizations: 4,
        warm_hits: 3,
        warm_misses: 1,
        ..SolverSample::default()
    };
    for epoch in 0..12 {
        let events = det.observe("t0", epoch, &steady);
        assert!(events.is_empty(), "steady stream fired {events:?}");
    }
    // 10× the baseline, same cadence (refactorizations scale along so
    // only the explosion detectors see a shift).
    let exploded = SolverSample {
        pivots: 2_000,
        etas: 180,
        refactorizations: 40,
        ..steady
    };
    let events = det.observe("t0", 12, &exploded);
    assert_eq!(events.len(), 1, "expected exactly the pivot explosion: {events:?}");
    assert_eq!(events[0].kind, AnomalyKind::PivotExplosion);
    assert_eq!(events[0].stat, "pivots");
    assert_eq!(events[0].tenant, "t0");
    assert_eq!(events[0].epoch, 12);
}

/// Healthy availability, then a sustained drop below the floor:
/// exactly one SLO alert fires, and it is the availability burn.
#[test]
fn dropped_availability_fires_exactly_the_availability_alert() {
    let spec = SloSpec {
        availability_floor: 0.99,
        error_budget: 0.25,
        window: 8,
        burn_threshold: 2.0,
        ..SloSpec::default()
    };
    spec.validate().unwrap();
    let mut tracker = SloTracker::new(spec);
    let obs_at = |epoch: u64, loss: f64| SloObservation {
        epoch,
        policy_max_loss: loss,
        solve_work_units: 50,
        decision_ms: 200.0,
    };
    for epoch in 0..10 {
        let alerts = tracker.observe_epoch("t0", &obs_at(epoch, 0.0));
        assert!(alerts.is_empty(), "healthy epochs alerted: {alerts:?}");
        assert!(!tracker.pressure());
    }
    // Availability drops to 0.90 < 0.99: burn after the 4th violation
    // in the window of 8 is (4/8)/0.25 = 2.0 — the threshold.
    let mut fired = Vec::new();
    for epoch in 10..14 {
        fired.extend(tracker.observe_epoch("t0", &obs_at(epoch, 0.10)));
    }
    assert_eq!(fired.len(), 1, "expected exactly one latched alert: {fired:?}");
    assert_eq!(fired[0].kind, SloKind::Availability);
    assert_eq!(fired[0].epoch, 13);
    assert!(fired[0].burn_rate >= 2.0);
    assert!(tracker.pressure(), "burning tenant must report pressure");
    // Latched: continued violation does not re-alert.
    assert!(tracker.observe_epoch("t0", &obs_at(14, 0.10)).is_empty());
}

/// PR 3 skipped wall-time histograms under deterministic clocks,
/// leaving those reports with empty histogram tables. Deterministic
/// recorders now get logical-duration histograms instead — and the
/// report JSON stays byte-identical across repeat publishes.
#[test]
fn deterministic_run_reports_carry_logical_histograms_byte_identically() {
    let stats = SolverStats {
        lp_solves: 7,
        pivots: 420,
        etas: 390,
        refactorizations: 6,
        rhs_resolves: 3,
        total_ms: 123.456, // wall clock: must NOT reach the report
        ..SolverStats::default()
    };
    let render = || {
        let rec = Recorder::deterministic();
        stats.publish(&rec);
        let report = rec.report();
        (serde_json::to_string(&report).unwrap(), report)
    };
    let (json1, report) = render();
    let (json2, _) = render();
    assert_eq!(json1, json2, "deterministic report JSON diverged");

    assert!(report.deterministic);
    for key in [
        "solver.total_units",
        "solver.pivot_units",
        "solver.eta_units",
        "solver.refactorization_units",
        "solver.rhs_resolve_units",
    ] {
        let h = report
            .histograms
            .get(key)
            .unwrap_or_else(|| panic!("missing logical histogram {key}"));
        assert_eq!(h.count, 1, "{key}");
    }
    assert!(
        !report.histograms.contains_key("solver.total_ms"),
        "wall-time histogram leaked into a deterministic report"
    );
    assert!(!report.gauges.contains_key("solver.threads"));
    assert_eq!(report.counters["solver.pivots"], 420);
}
