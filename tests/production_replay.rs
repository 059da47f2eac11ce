//! Outcome invariants and a seeded regression fixture for the §7
//! production-incident replay (`prete_sim::production`).
//!
//! The invariants sweep a seeded grid of scenario timings and assert
//! the properties any parameterization must satisfy; the fixture pins
//! the exact default-scenario outcome so a behavioural change to the
//! replay shows up as a reviewed diff of
//! `tests/fixtures/production_case.json`, not a silent drift.

use prete_sim::production::{replay_production_case, ProductionScenario, SystemOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The affected flow in the four-site case: s1→s3, 600 Gbps.
const AFFECTED_GBPS: f64 = 600.0;

fn check_system(out: &SystemOutcome, switch_s: f64, period_s: f64) {
    // Losses are physical quantities: finite, non-negative, bounded by
    // the affected demand.
    assert!(out.sustained_loss_gbps.is_finite() && out.sustained_loss_gbps >= 0.0);
    assert!(
        out.sustained_loss_gbps <= AFFECTED_GBPS + 1e-9,
        "{}: sustained {} exceeds the affected demand",
        out.system,
        out.sustained_loss_gbps
    );
    assert!(out.total_lost_gb.is_finite() && out.total_lost_gb >= 0.0);
    assert!(out.loss_duration_s.is_finite() && out.loss_duration_s >= 0.0);

    // The backup path connects the affected endpoints.
    assert_eq!(out.backup_path.first().map(String::as_str), Some("s1"));
    assert_eq!(out.backup_path.last().map(String::as_str), Some("s3"));

    // Loss-duration dichotomy: either the switchover ends all loss, or
    // the shortfall persists until the next TE period.
    if out.sustained_loss_gbps > 0.0 {
        assert_eq!(out.loss_duration_s, period_s, "{}", out.system);
    } else {
        assert_eq!(out.loss_duration_s, switch_s, "{}", out.system);
    }

    // The loss timeline is exactly "full demand during the switchover,
    // the sustained shortfall afterwards".
    let expected =
        AFFECTED_GBPS * switch_s + out.sustained_loss_gbps * (period_s - switch_s).max(0.0);
    assert!(
        (out.total_lost_gb - expected).abs() < 1e-6,
        "{}: total {} != timeline {}",
        out.system,
        out.total_lost_gb,
        expected
    );
}

#[test]
fn outcome_invariants_hold_across_a_seeded_scenario_grid() {
    let mut rng = StdRng::seed_from_u64(0x9707);
    for case in 0..200 {
        let scenario = ProductionScenario {
            degradation_lead_s: rng.gen_range(5.0..120.0),
            router_switch_s: rng.gen_range(0.5..10.0),
            next_te_period_s: rng.gen_range(15.0..300.0),
            prete_switch_s: rng.gen_range(0.01..0.5),
        };
        let out = replay_production_case(scenario);

        check_system(
            &out.traditional,
            scenario.router_switch_s,
            scenario.next_te_period_s,
        );
        check_system(
            &out.prete,
            scenario.prete_switch_s,
            scenario.next_te_period_s,
        );

        // PreTE picks the max-headroom backup, so it never sustains
        // more loss than the traditional static backup...
        assert!(
            out.prete.sustained_loss_gbps <= out.traditional.sustained_loss_gbps + 1e-9,
            "case {case}: PreTE sustains more than traditional"
        );
        // ...and with the faster switchover it never loses more in
        // total either.
        assert!(
            out.prete.total_lost_gb <= out.traditional.total_lost_gb + 1e-9,
            "case {case}: PreTE lost {} Gb > traditional {} Gb ({scenario:?})",
            out.prete.total_lost_gb,
            out.traditional.total_lost_gb
        );

        // The topology makes the choices unconditional: the static
        // backup saturates s1s2 (300 spare for 600), PreTE finds the
        // clean s1→s4→s3 route.
        assert_eq!(out.traditional.backup_path, vec!["s1", "s2", "s3"]);
        assert_eq!(out.prete.backup_path, vec!["s1", "s4", "s3"]);
        assert_eq!(out.prete.sustained_loss_gbps, 0.0);
    }
}

#[test]
fn replay_is_deterministic() {
    let a = replay_production_case(ProductionScenario::default());
    let b = replay_production_case(ProductionScenario::default());
    assert_eq!(a, b);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

#[test]
fn default_scenario_matches_the_regression_fixture() {
    let out = replay_production_case(ProductionScenario::default());
    let got = serde_json::to_value(&out).unwrap();
    let fixture: serde_json::Value =
        serde_json::from_str(include_str!("fixtures/production_case.json"))
            .expect("fixture parses");
    assert_eq!(
        got,
        fixture,
        "production replay drifted from tests/fixtures/production_case.json; \
         if the change is intentional, regenerate the fixture from this value: {}",
        serde_json::to_string_pretty(&got).unwrap()
    );
}
