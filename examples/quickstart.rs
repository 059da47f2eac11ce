//! Quickstart: the paper's 3-node worked example (Figures 2, 3, 7).
//!
//! Builds the triangle network of Figure 2(a), then shows the three
//! regimes the paper walks through:
//!
//! 1. TeaVaR with static probabilities admits 10 units at β = 99 %;
//! 2. an oracle that knows link s1s2 will not fail admits 20;
//! 3. PreTE, seeing a degradation on s1s2, reactively builds tunnel
//!    s1→s3→s2 and keeps the full 10 units flowing when the cut lands.
//!
//! Run with: `cargo run --example quickstart`

use prete_core::algorithm1::{update_tunnels, TunnelUpdateConfig};
use prete_core::examples::{triangle, triangle_flows, TRIANGLE_PROBS};
use prete_core::prelude::*;
use prete_core::scenario::DegradationState;
use prete_core::schemes::{TeContext, TeScheme, TeaVarScheme};
use prete_topology::FiberId;

fn main() {
    let net = triangle();
    let model = FailureModel::new(&net, 42);
    let flows = triangle_flows();
    println!(
        "Network: {} — {} sites, {} links of 10 units",
        net.name,
        net.num_sites(),
        net.num_links()
    );
    println!(
        "Flows: s1→s2 ({} u) and s1→s3 ({} u); failure probabilities {:?}\n",
        flows[0].demand_gbps, flows[1].demand_gbps, TRIANGLE_PROBS
    );

    // --- 1. TeaVaR (Figure 2(b)).
    let tunnels = TunnelSet::initialize(&net, &flows, 2);
    let ctx = TeContext {
        net: &net,
        model: &model,
        flows: &flows,
        base_tunnels: &tunnels,
    };
    let teavar = TeaVarScheme::new(&model, 0.99);
    let plan = teavar.plan(&ctx, &DegradationState::healthy(), Some(&TRIANGLE_PROBS));
    println!(
        "TeaVaR @ β=99%:   admitted {:>5.1} units total (paper Figure 2(b): 10)",
        plan.admitted.iter().sum::<f64>()
    );

    // --- 2. Oracle knowing s1s2 stays up (Figure 3(b)).
    let plan = teavar.plan(
        &ctx,
        &DegradationState::healthy(),
        Some(&[0.0, 0.009, 0.001]),
    );
    println!(
        "Oracle (s1s2 up): admitted {:>5.1} units total (paper Figure 3(b): 20)",
        plan.admitted.iter().sum::<f64>()
    );

    // --- 3. PreTE reacting to a degradation on s1s2 (Figure 7).
    let mut updated = TunnelSet::initialize(&net, &flows, 1); // direct tunnels only
    let created = update_tunnels(
        &net,
        &mut updated,
        FiberId(0),
        TunnelUpdateConfig::default(),
    );
    println!(
        "\nDegradation on s1s2 → Algorithm 1 established {} new tunnel(s):",
        created.len()
    );
    for id in &created {
        let t = updated.tunnel(*id);
        let names: Vec<&str> = t
            .path
            .sites
            .iter()
            .map(|&s| net.site(s).name.as_str())
            .collect();
        println!("  reactive tunnel {}", names.join("→"));
    }
    // Cut happens: optimize with the oracle-grade certainty and check
    // delivery.
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
    println!(
        "After the s1s2 cut, PreTE still delivers {:>5.1} units (paper Figure 7(b): 10)",
        delivered
    );
    assert!(delivered >= 10.0 - 1e-6);
    println!("\nOK — reproduction matches the paper's worked example.");
}
