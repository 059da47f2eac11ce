//! Run-report acceptance test: solver statistics published to a
//! deterministic recorder carry logical-duration histograms and export
//! byte-identical JSON.

use prete_core::prelude::{Recorder, SolverStats};

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
