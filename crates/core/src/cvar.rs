//! TeaVaR's native CVaR formulation (Bogle et al. \[6\]).
//!
//! The scheme comparison in [`crate::schemes`] models TeaVaR with the
//! joint scenario-selection LP that §2.2's worked example walks
//! through. The *original* TeaVaR optimization is subtly different: it
//! minimizes the **conditional value at risk** of the loss at level β,
//!
//! ```text
//!   CVaR_β(L) = min_α  α + 1/(1−β) · Σ_q p_q · max(0, L_q − α)
//! ```
//!
//! where `L_q` is the (max-over-flows) normalized loss in scenario `q`.
//! This module implements that LP exactly — both as an independent
//! validation of the scheme used in the sweeps and as the risk metric
//! the paper's availability methodology is built on.

use crate::capacity::{tunnel_sum, CapacityGroups};
use crate::scenario::ScenarioSet;
use prete_lp::{solve, LinearProgram, Sense, SolveStatus, VarId};
use prete_topology::{Flow, Network, TunnelSet};

/// Result of a CVaR-minimizing solve.
#[derive(Debug, Clone)]
pub struct CvarSolution {
    /// Allocation per tunnel.
    pub allocation: Vec<f64>,
    /// The optimal value-at-risk `α` (β-quantile of the max loss).
    pub var: f64,
    /// The optimal `CVaR_β` (expected loss beyond the β-quantile).
    pub cvar: f64,
}

/// Minimizes `CVaR_β` of the maximum normalized flow loss over the
/// scenario set, subject to trunk capacities, for fixed demands.
///
/// Loss in scenario `q` for flow `f` is
/// `max(0, 1 − Σ_{t surviving q} a_t / d_f)`; `L_q = max_f loss_{f,q}`.
///
/// # Panics
/// Panics if the LP is unsolvable (it never is: `a = 0` with
/// `L_q = 1` is feasible) or `beta` is outside `(0, 1)`.
pub fn minimize_cvar(
    net: &Network,
    flows: &[Flow],
    tunnels: &TunnelSet,
    scenarios: &ScenarioSet,
    beta: f64,
) -> CvarSolution {
    let (lp, a_vars, alpha) = cvar_lp(net, flows, tunnels, scenarios, beta);
    let sol = solve(&lp);
    assert_eq!(sol.status, SolveStatus::Optimal, "CVaR LP must solve");
    CvarSolution {
        allocation: a_vars.iter().map(|&v| sol.value(v).max(0.0)).collect(),
        var: sol.value(alpha),
        cvar: sol.objective,
    }
}

/// The CVaR LP [`minimize_cvar`] solves: returns the program, the
/// tunnel columns and `α`.
pub(crate) fn cvar_lp(
    net: &Network,
    flows: &[Flow],
    tunnels: &TunnelSet,
    scenarios: &ScenarioSet,
    beta: f64,
) -> (LinearProgram, Vec<VarId>, VarId) {
    assert!(beta > 0.0 && beta < 1.0, "beta must be in (0,1)");
    let groups = CapacityGroups::build(net);
    let mut lp = LinearProgram::new();
    let a_vars: Vec<VarId> = (0..tunnels.len()).map(|_| lp.var_nonneg(0.0)).collect();
    // α is a free quantile variable; losses live in [0,1] so α ∈ [0,1]
    // at any optimum.
    let alpha = lp.var_unit(1.0);
    // z_q ≥ L_q − α, weighted by p_q / (1−β).
    let z_vars: Vec<VarId> = scenarios
        .scenarios
        .iter()
        .map(|q| lp.var_nonneg(q.prob / (1.0 - beta)))
        .collect();
    // L_q variables.
    let l_vars: Vec<VarId> = (0..scenarios.len()).map(|_| lp.var_unit(0.0)).collect();
    groups.add_rows(&mut lp, &a_vars, tunnels.tunnels());
    for (qi, q) in scenarios.scenarios.iter().enumerate() {
        // z_q ≥ L_q − α.
        lp.add_constraint(
            vec![(z_vars[qi], 1.0), (l_vars[qi], -1.0), (alpha, 1.0)],
            Sense::Ge,
            0.0,
        );
        // L_q ≥ 1 − Σ surviving a / d_f  ⇔  Σ surv a + d·L_q ≥ d.
        for flow in flows {
            if flow.demand_gbps <= 0.0 {
                continue;
            }
            let mut terms = tunnel_sum(&a_vars, &tunnels.surviving(net, flow.id, &q.cut));
            terms.push((l_vars[qi], flow.demand_gbps));
            lp.add_constraint(terms, Sense::Ge, flow.demand_gbps);
        }
    }
    (lp, a_vars, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{triangle, triangle_flows, TRIANGLE_PROBS};
    use prete_topology::TunnelSet;

    fn setup(demand: f64) -> (Network, Vec<Flow>, TunnelSet, ScenarioSet) {
        let net = triangle();
        let flows: Vec<Flow> = triangle_flows()
            .into_iter()
            .map(|f| Flow { demand_gbps: demand, ..f })
            .collect();
        let tunnels = TunnelSet::initialize(&net, &flows, 2);
        let scenarios = ScenarioSet::enumerate(&TRIANGLE_PROBS, 2, 0.0);
        (net, flows, tunnels, scenarios)
    }

    #[test]
    fn light_load_has_zero_cvar() {
        // At 4 units per flow, every single-cut scenario is coverable.
        // With singles-only scenarios the β-tail loss is exactly 0;
        // with doubles included the tail keeps the unavoidable
        // both-tunnels-dead mass (≈ 6e-5 / (1−β) ≈ 0.006), so CVaR is
        // tiny but nonzero.
        let (net, flows, tunnels, _) = setup(4.0);
        let singles = ScenarioSet::enumerate(&TRIANGLE_PROBS, 1, 0.0);
        let s = minimize_cvar(&net, &flows, &tunnels, &singles, 0.99);
        assert!(s.cvar < 1e-6, "CVaR {}", s.cvar);
        assert!(s.var < 1e-6);
        let (_, _, _, with_doubles) = setup(4.0);
        let s2 = minimize_cvar(&net, &flows, &tunnels, &with_doubles, 0.99);
        assert!(s2.cvar < 0.01, "CVaR {}", s2.cvar);
    }

    #[test]
    fn heavy_load_has_positive_cvar() {
        // At full demand the triangle cannot protect both flows: some
        // tail loss is unavoidable at β = 99.9 %.
        let (net, flows, tunnels, scenarios) = setup(10.0);
        let s = minimize_cvar(&net, &flows, &tunnels, &scenarios, 0.999);
        assert!(s.cvar > 0.01, "CVaR {}", s.cvar);
    }

    #[test]
    fn cvar_monotone_in_beta() {
        // CVaR at a stricter level is never smaller.
        let (net, flows, tunnels, scenarios) = setup(10.0);
        let lo = minimize_cvar(&net, &flows, &tunnels, &scenarios, 0.99);
        let hi = minimize_cvar(&net, &flows, &tunnels, &scenarios, 0.9999);
        assert!(hi.cvar >= lo.cvar - 1e-9, "{} < {}", hi.cvar, lo.cvar);
    }

    #[test]
    fn cvar_bounds_var() {
        let (net, flows, tunnels, scenarios) = setup(10.0);
        let s = minimize_cvar(&net, &flows, &tunnels, &scenarios, 0.999);
        // CVaR ≥ VaR always.
        assert!(s.cvar + 1e-9 >= s.var, "cvar {} < var {}", s.cvar, s.var);
    }

    #[test]
    fn allocation_respects_capacity() {
        let (net, flows, tunnels, scenarios) = setup(10.0);
        let s = minimize_cvar(&net, &flows, &tunnels, &scenarios, 0.99);
        let groups = CapacityGroups::build(&net);
        let load = groups.load(tunnels.tunnels(), &s.allocation);
        for (g, &l) in load.iter().enumerate() {
            assert!(l <= groups.capacity(g) + 1e-6, "group {g}: {l}");
        }
    }
}
