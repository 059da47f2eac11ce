//! Algorithm 1: TE tunnel updates for a degradation event (§4.2).
//!
//! When fiber `e` degrades, the controller deletes `e` from the WAN
//! graph and, for every flow with `Λ > 0` tunnels traversing `e`,
//! establishes `⌈ratio · Λ⌉` new tunnels in the pruned graph. The new
//! tunnels are therefore disjoint from the degraded fiber by
//! construction; `ratio` is the §6.4 sensitivity knob (Figure 16 — the
//! paper recommends ratio = 1 as the runtime/availability sweet spot,
//! and `ratio = 0` is "PreTE-naive").

use prete_topology::paths::PathFinder;
use prete_topology::{FiberId, FlowId, Network, TunnelId, TunnelSet};
use std::collections::HashSet;

/// Configuration for Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunnelUpdateConfig {
    /// New tunnels per affected tunnel (`Λ → ⌈ratio · Λ⌉`). The paper
    /// sweeps 0–5; default 1.
    pub ratio: f64,
    /// Hard cap on new tunnels per flow (router table guard).
    pub max_new_per_flow: usize,
}

impl Default for TunnelUpdateConfig {
    fn default() -> Self {
        Self {
            ratio: 1.0,
            max_new_per_flow: 8,
        }
    }
}

/// Runs Algorithm 1 for a degradation on `degraded`: establishes new
/// tunnels (avoiding the degraded fiber) for every affected flow and
/// appends them to `tunnels` as reactive tunnels. Returns the new
/// tunnel IDs (`Y^s`).
pub fn update_tunnels(
    net: &Network,
    tunnels: &mut TunnelSet,
    degraded: FiberId,
    cfg: TunnelUpdateConfig,
) -> Vec<TunnelId> {
    assert!(cfg.ratio >= 0.0);
    let banned: HashSet<FiberId> = [degraded].into_iter().collect();
    let mut created = Vec::new();
    if cfg.ratio == 0.0 {
        return created; // PreTE-naive: no reactive tunnels.
    }
    // Step 2: for each flow, count affected tunnels (Λ) and establish
    // replacements in G' = G \ {degraded}.
    let mut finder = PathFinder::new(net);
    for flow in (0..tunnels.num_flows()).map(FlowId) {
        let lambda = tunnels.affected_count(net, flow, degraded);
        if lambda == 0 {
            continue;
        }
        let want = ((cfg.ratio * lambda as f64).ceil() as usize).min(cfg.max_new_per_flow);
        let first = &tunnels.tunnel(tunnels.of_flow(flow)[0]).path;
        // Candidate pool: a few extra so duplicates of existing tunnels
        // can be skipped.
        let candidates =
            finder.k_shortest_paths_avoiding(first.src(), first.dst(), want + lambda + 2, &banned);
        let mut added = 0usize;
        for path in candidates {
            if added >= want {
                break;
            }
            // Distinctness is by site route: a parallel wavelength of an
            // existing tunnel adds no protection.
            let exists = |&t: &TunnelId| tunnels.tunnel(t).path.sites == path.sites;
            if tunnels.of_flow(flow).iter().any(exists) {
                continue;
            }
            created.push(tunnels.add_reactive(flow, path));
            added += 1;
        }
    }
    created
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{triangle, triangle_flows};
    use prete_topology::{topologies, FlowId, TunnelSet};

    #[test]
    fn creates_tunnels_avoiding_degraded_fiber() {
        let net = triangle();
        let flows = triangle_flows();
        // Start each flow with only its direct (1-hop) tunnel so the
        // degradation forces new paths.
        let mut tunnels = TunnelSet::initialize(&net, &flows, 1);
        let before = tunnels.len();
        // Degrade fiber 0 = s1—s2: flow s1→s2's only tunnel crosses it.
        let created = update_tunnels(
            &net,
            &mut tunnels,
            FiberId(0),
            TunnelUpdateConfig::default(),
        );
        assert!(!created.is_empty());
        assert!(tunnels.len() > before);
        for id in created {
            assert!(!tunnels.tunnel(id).uses_fiber(&net, FiberId(0)));
        }
    }

    #[test]
    fn ratio_zero_is_prete_naive() {
        let net = triangle();
        let flows = triangle_flows();
        let mut tunnels = TunnelSet::initialize(&net, &flows, 2);
        let cfg = TunnelUpdateConfig {
            ratio: 0.0,
            ..Default::default()
        };
        let created = update_tunnels(&net, &mut tunnels, FiberId(0), cfg);
        assert!(created.is_empty());
    }

    #[test]
    fn unaffected_flows_get_nothing() {
        let net = triangle();
        let flows = triangle_flows();
        let mut tunnels = TunnelSet::initialize(&net, &flows, 1);
        // Degrade fiber 2 = s2—s3: neither direct tunnel (s1s2, s1s3)
        // crosses it with 1 tunnel per flow.
        let created = update_tunnels(
            &net,
            &mut tunnels,
            FiberId(2),
            TunnelUpdateConfig::default(),
        );
        assert!(created.is_empty());
    }

    #[test]
    fn ratio_scales_tunnel_count() {
        let net = topologies::b4();
        let flows = topologies::flows_for(&net, 0.2, 1);
        let base = TunnelSet::initialize(&net, &flows, 4);
        let mut counts = Vec::new();
        for ratio in [0.5, 1.0, 2.0] {
            let mut ts = base.clone();
            let cfg = TunnelUpdateConfig {
                ratio,
                max_new_per_flow: 32,
            };
            let created = update_tunnels(&net, &mut ts, FiberId(0), cfg);
            counts.push(created.len());
        }
        assert!(counts[0] <= counts[1] && counts[1] <= counts[2]);
        assert!(counts[2] > 0);
    }

    #[test]
    fn duplicates_of_existing_tunnels_skipped() {
        let net = triangle();
        let flows = triangle_flows();
        // Initialize with 2 tunnels per flow (direct + detour).
        let mut tunnels = TunnelSet::initialize(&net, &flows, 2);
        let created = update_tunnels(
            &net,
            &mut tunnels,
            FiberId(0),
            TunnelUpdateConfig::default(),
        );
        // Triangle has only 2 simple paths per pair; both already exist
        // → nothing new can be created.
        assert!(created.is_empty());
    }

    #[test]
    fn clear_reactive_restores_original_state() {
        let net = triangle();
        let flows = triangle_flows();
        let mut tunnels = TunnelSet::initialize(&net, &flows, 1);
        let before = tunnels.of_flow(FlowId(0)).len();
        update_tunnels(
            &net,
            &mut tunnels,
            FiberId(0),
            TunnelUpdateConfig::default(),
        );
        tunnels.clear_reactive();
        assert_eq!(tunnels.of_flow(FlowId(0)).len(), before);
    }
}
