//! The running 3-node example (Figures 2, 3 and 7).

use prete_core::algorithm1::{update_tunnels, TunnelUpdateConfig};
use prete_core::examples::{triangle, triangle_flows, TRIANGLE_PROBS};
use prete_core::prelude::*;
use prete_core::scenario::DegradationState;
use prete_core::schemes::{TeContext, TeScheme, TeaVarScheme};
use prete_topology::FiberId;
use serde::Serialize;

/// One row of the Figures 2/3/7 comparison.
#[derive(Debug, Clone, Serialize)]
pub struct ThreeNodeRow {
    /// Setting label.
    pub setting: String,
    /// Total admitted/delivered traffic (units).
    pub total_units: f64,
}

/// Reproduces the worked example:
///
/// * TeaVaR at β = 99 % with p = (0.005, 0.009, 0.001) admits 10 units
///   (Figure 2(b));
/// * an oracle knowing link s1s2 will not fail admits 20 (Figure 3(b));
/// * when s1s2 *does* fail, both deliver 10 (Figures 2(c)/3(c));
/// * with a degradation on s1s2, PreTE's Algorithm 1 builds tunnel
///   s1s3s2 and keeps 10 units deliverable after the cut (Figure 7).
pub fn run() -> Vec<ThreeNodeRow> {
    let net = triangle();
    let model = FailureModel::new(&net, crate::SEED);
    let flows = triangle_flows();
    let tunnels = TunnelSet::initialize(&net, &flows, 2);
    let ctx = TeContext {
        net: &net,
        model: &model,
        flows: &flows,
        base_tunnels: &tunnels,
    };
    let mut rows = Vec::new();

    // TeaVaR (Figure 2(b)).
    let teavar = TeaVarScheme::new(&model, 0.99);
    let plan = teavar.plan(&ctx, &DegradationState::healthy(), Some(&TRIANGLE_PROBS));
    rows.push(ThreeNodeRow {
        setting: "TeaVaR (β=99%)".into(),
        total_units: plan.admitted.iter().sum(),
    });

    // Oracle: s1s2 certain to survive (Figure 3(b)).
    let plan = teavar.plan(
        &ctx,
        &DegradationState::healthy(),
        Some(&[0.0, 0.009, 0.001]),
    );
    rows.push(ThreeNodeRow {
        setting: "Oracle, s1s2 survives".into(),
        total_units: plan.admitted.iter().sum(),
    });

    // Oracle: s1s2 certain to fail (Figure 3(c)).
    let plan = teavar.plan(
        &ctx,
        &DegradationState::healthy(),
        Some(&[1.0, 0.009, 0.001]),
    );
    rows.push(ThreeNodeRow {
        setting: "Oracle, s1s2 fails".into(),
        total_units: plan.admitted.iter().sum(),
    });

    // PreTE under degradation of s1s2 (Figure 7): new tunnel s1s3s2,
    // deliverable traffic after the cut.
    // Start from thin tunnels so the reactive tunnel matters, as in the
    // figure (flow s1s2 has only the direct tunnel initially).
    let mut updated = TunnelSet::initialize(&net, &flows, 1);
    let created = update_tunnels(
        &net,
        &mut updated,
        FiberId(0),
        TunnelUpdateConfig::default(),
    );
    let scenarios = ScenarioSet::enumerate(&[1.0, 0.009, 0.001], 1, 0.0);
    let problem = TeProblem::new(&net, &flows, &updated, &scenarios);
    let sol = TeSolver::new(&problem)
        .beta(0.99)
        .method(SolveMethod::Heuristic)
        .solve()
        .expect("heuristic solve");
    let delivered: f64 = (0..flows.len())
        .map(|f| sol.delivered(&problem, f, 0))
        .sum();
    rows.push(ThreeNodeRow {
        setting: format!(
            "PreTE after degradation ({} new tunnels), s1s2 cut",
            created.len()
        ),
        total_units: delivered,
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_numbers() {
        let rows = run();
        assert!(
            (rows[0].total_units - 10.0).abs() < 1e-3,
            "TeaVaR: {}",
            rows[0].total_units
        );
        assert!(
            (rows[1].total_units - 20.0).abs() < 1e-3,
            "oracle-up: {}",
            rows[1].total_units
        );
        assert!(
            (rows[2].total_units - 10.0).abs() < 1e-3,
            "oracle-down: {}",
            rows[2].total_units
        );
        // Figure 7: PreTE still delivers 10 units after the cut thanks
        // to the reactive tunnel.
        assert!(
            rows[3].total_units >= 10.0 - 1e-3,
            "PreTE: {}",
            rows[3].total_units
        );
    }
}
