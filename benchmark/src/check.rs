//! Independent policy checker.
//!
//! Recomputes, from the returned allocation alone, what a TE policy must
//! satisfy — without calling into `prete_core::optimizer`, so a bug there
//! cannot vouch for itself: allocations are finite and non-negative, no
//! trunk group carries more than its capacity, and every flow's
//! β-quantile loss is at most the Φ the solver reported.

use prete_core::capacity::CapacityGroups;
use prete_core::scenario::FailureScenario;
use prete_topology::{Flow, Network, TunnelSet};

const NEGATIVE_TOL: f64 = 1e-9;
const CAPACITY_REL_TOL: f64 = 1e-6;
const LOSS_TOL: f64 = 1e-6;
const MASS_TOL: f64 = 1e-12;

/// What the checker measured on an accepted policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyCheck {
    /// Per flow: the loss not exceeded with probability β.
    pub flow_quantile_loss: Vec<f64>,
}

/// Loss of one flow (demand `d`) when only `delivered` Gbps survive.
fn loss(d: f64, delivered: f64) -> f64 {
    if d <= 0.0 {
        0.0
    } else {
        (1.0 - delivered.min(d) / d).max(0.0)
    }
}

/// The smallest loss level `l` with `P(loss ≤ l) ≥ β` over the
/// enumerated scenarios. When their whole mass stays below β (a
/// truncated enumeration), the policy can only be held to what was
/// enumerated: the worst enumerated loss.
fn quantile_loss(mut by_scenario: Vec<(f64, f64)>, beta: f64) -> f64 {
    by_scenario.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite loss"));
    let mut mass = 0.0;
    for &(l, p) in &by_scenario {
        mass += p;
        if mass >= beta - MASS_TOL {
            return l;
        }
    }
    by_scenario.last().map_or(0.0, |&(l, _)| l)
}

/// Checks one policy; `Err` names the first violated condition.
pub fn check_policy(
    net: &Network,
    flows: &[Flow],
    tunnels: &TunnelSet,
    scenarios: &[FailureScenario],
    allocation: &[f64],
    phi: f64,
    beta: f64,
) -> Result<PolicyCheck, String> {
    if allocation.len() != tunnels.len() {
        return Err(format!(
            "{} allocations for {} tunnels",
            allocation.len(),
            tunnels.len()
        ));
    }
    if !(phi.is_finite() && (-LOSS_TOL..=1.0 + LOSS_TOL).contains(&phi)) {
        return Err(format!("Φ = {phi} is not a loss in [0, 1]"));
    }
    if let Some((t, a)) = allocation
        .iter()
        .enumerate()
        .find(|(_, a)| !a.is_finite() || **a < -NEGATIVE_TOL)
    {
        return Err(format!("tunnel {t} allocated {a}"));
    }

    let groups = CapacityGroups::build(net);
    let mut load = vec![0.0; groups.len()];
    for t in tunnels.tunnels() {
        for g in groups.groups_of_path(&t.path.links) {
            load[g] += allocation[t.id.index()];
        }
    }
    for (g, &l) in load.iter().enumerate() {
        let cap = groups.capacity(g);
        if l > cap * (1.0 + CAPACITY_REL_TOL) {
            return Err(format!(
                "trunk group {g} carries {l} Gbps over capacity {cap}"
            ));
        }
    }

    let mut flow_quantile_loss = Vec::with_capacity(flows.len());
    for flow in flows {
        let by_scenario = scenarios
            .iter()
            .map(|q| {
                let delivered: f64 = tunnels
                    .surviving(net, flow.id, &q.cut)
                    .iter()
                    .map(|t| allocation[t.index()])
                    .sum();
                (loss(flow.demand_gbps, delivered), q.prob)
            })
            .collect();
        let l = quantile_loss(by_scenario, beta);
        if l > phi + LOSS_TOL {
            return Err(format!(
                "flow {} loses {l} at the β = {beta} quantile, above Φ = {phi}",
                flow.id.index()
            ));
        }
        flow_quantile_loss.push(l);
    }
    Ok(PolicyCheck { flow_quantile_loss })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prete_core::examples::{triangle, triangle_flows};
    use prete_core::scenario::ScenarioSet;

    /// Triangle network (three 10-unit links), one tunnel pair per flow,
    /// single-cut scenarios at 1 % per fiber.
    fn fixture() -> (Network, Vec<Flow>, TunnelSet, ScenarioSet) {
        let net = triangle();
        let flows = triangle_flows();
        let tunnels = TunnelSet::initialize(&net, &flows, 2);
        let scenarios = ScenarioSet::enumerate(&[0.01, 0.01, 0.01], 1, 0.0);
        (net, flows, tunnels, scenarios)
    }

    /// Every flow's full demand on its first tunnel only.
    fn first_tunnel_allocation(flows: &[Flow], tunnels: &TunnelSet) -> Vec<f64> {
        let mut a = vec![0.0; tunnels.len()];
        for f in flows {
            a[tunnels.of_flow(f.id)[0].index()] = f.demand_gbps;
        }
        a
    }

    #[test]
    fn accepts_a_policy_that_meets_its_phi() {
        let (net, flows, tunnels, sc) = fixture();
        let a = first_tunnel_allocation(&flows, &tunnels);
        // β below the no-failure mass: only scenario 0 must be covered.
        let ok = check_policy(&net, &flows, &tunnels, &sc.scenarios, &a, 0.0, 0.95)
            .expect("full demand on live tunnels");
        assert!(ok.flow_quantile_loss.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn rejects_over_capacity() {
        let (net, flows, tunnels, sc) = fixture();
        let mut a = first_tunnel_allocation(&flows, &tunnels);
        a[0] += 1e4;
        let err = check_policy(&net, &flows, &tunnels, &sc.scenarios, &a, 0.0, 0.95).unwrap_err();
        assert!(err.contains("over capacity"), "{err}");
    }

    #[test]
    fn rejects_under_coverage() {
        let (net, flows, tunnels, sc) = fixture();
        // β above the no-failure mass: a flow riding a single tunnel loses
        // everything when that tunnel's fiber is cut, so Φ = 0 is a lie.
        let a = first_tunnel_allocation(&flows, &tunnels);
        let err = check_policy(&net, &flows, &tunnels, &sc.scenarios, &a, 0.0, 0.995).unwrap_err();
        assert!(err.contains("above Φ"), "{err}");
        // The same allocation is fine once Φ admits the loss.
        check_policy(&net, &flows, &tunnels, &sc.scenarios, &a, 1.0, 0.995).expect("Φ = 1");
    }

    #[test]
    fn rejects_negative_and_non_finite_allocations() {
        let (net, flows, tunnels, sc) = fixture();
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let mut a = first_tunnel_allocation(&flows, &tunnels);
            a[1] = bad;
            assert!(check_policy(&net, &flows, &tunnels, &sc.scenarios, &a, 1.0, 0.9).is_err());
        }
    }

    #[test]
    fn truncated_enumeration_is_held_to_its_worst_enumerated_loss() {
        assert_eq!(quantile_loss(vec![(0.0, 0.5), (0.4, 0.2)], 0.9), 0.4);
        assert_eq!(
            quantile_loss(vec![(0.4, 0.2), (0.0, 0.5), (1.0, 0.3)], 0.7),
            0.4
        );
        assert_eq!(quantile_loss(vec![(0.0, 0.99), (1.0, 0.01)], 0.99), 0.0);
    }
}
