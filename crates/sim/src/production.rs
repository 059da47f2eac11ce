//! The §7 production case (Figure 18).
//!
//! Four sites, 1000 Gbps links. Tunnels s1→s2, s1→s3 and s4→s3 carry
//! 700, 600 and 300 Gbps. The fiber under IP link s1s3 degrades for
//! tens of seconds and then cuts:
//!
//! * **Traditional system**: the router switches the affected traffic
//!   to the pre-configured backup path s1→s2→s3 after it detects the
//!   failure. But link s1s2 already carries 700 Gbps, leaving only
//!   300 Gbps of headroom for the 600 Gbps — 300 Gbps keep being lost
//!   until the next TE period recomputes paths.
//! * **PreTE**: the degradation signal arrives tens of seconds before
//!   the cut; the controller computes the optimal backup s1→s4→s3
//!   (1000 − 300 = 700 Gbps headroom ≥ 600) and establishes it ahead
//!   of time. When the cut lands, the switchover completes in
//!   milliseconds with no sustained loss.

use prete_core::capacity::CapacityGroups;
use prete_core::examples::{production_flows, production_four_site};
use prete_topology::paths::{shortest_path_avoiding, Path};
use prete_topology::{FiberId, Network};
use serde::Serialize;
use std::collections::HashSet;

/// Parameters of the replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ProductionScenario {
    /// Seconds of degraded state before the cut ("tens of seconds").
    pub degradation_lead_s: f64,
    /// Router failure-detection plus local switchover time (traditional
    /// path protection, "a few seconds").
    pub router_switch_s: f64,
    /// Time until the next regular TE period fixes routing (≤ 5 min).
    pub next_te_period_s: f64,
    /// PreTE's post-cut switchover to the pre-established tunnel (ms
    /// scale).
    pub prete_switch_s: f64,
}

impl Default for ProductionScenario {
    fn default() -> Self {
        Self {
            degradation_lead_s: 40.0,
            router_switch_s: 3.0,
            next_te_period_s: 180.0,
            prete_switch_s: 0.05,
        }
    }
}

/// Result of replaying the incident under one system.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SystemOutcome {
    /// System label.
    pub system: String,
    /// The backup path chosen for the affected 600 Gbps (site names).
    pub backup_path: Vec<String>,
    /// Gbps still being dropped after the switchover completes.
    pub sustained_loss_gbps: f64,
    /// Seconds of (any) loss until traffic is fully restored.
    pub loss_duration_s: f64,
    /// Total traffic lost (Gb).
    pub total_lost_gb: f64,
}

/// Both systems' outcomes side by side.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProductionOutcome {
    /// The traditional reactive system.
    pub traditional: SystemOutcome,
    /// PreTE.
    pub prete: SystemOutcome,
}

fn path_names(net: &Network, p: &Path) -> Vec<String> {
    p.sites.iter().map(|&s| net.site(s).name.clone()).collect()
}

/// Spare capacity along a path given the standing tunnel loads.
fn headroom(_net: &Network, groups: &CapacityGroups, loads: &[(Vec<usize>, f64)], p: &Path) -> f64 {
    let path_groups = groups.groups_of_path(&p.links);
    path_groups
        .iter()
        .map(|&g| {
            let used: f64 = loads
                .iter()
                .filter(|(gs, _)| gs.contains(&g))
                .map(|&(_, load)| load)
                .sum();
            groups.capacity(g) - used
        })
        .fold(f64::INFINITY, f64::min)
}

/// Replays the Figure 18 incident.
pub fn replay_production_case(scenario: ProductionScenario) -> ProductionOutcome {
    let net = production_four_site();
    let groups = CapacityGroups::build(&net);
    let flows = production_flows();
    let affected = flows[1]; // s1→s3, 600 Gbps
    let cut_fiber = FiberId(1); // fiber under IP link s1s3

    // Standing loads of the unaffected tunnels: s1→s2 700, s4→s3 300.
    let direct = |src, dst| {
        shortest_path_avoiding(
            &net,
            src,
            dst,
            &HashSet::new(),
            &HashSet::new(),
            &HashSet::new(),
        )
        .expect("connected")
    };
    let t_s1s2 = direct(flows[0].src, flows[0].dst);
    let t_s4s3 = direct(flows[2].src, flows[2].dst);
    let loads = vec![
        (groups.groups_of_path(&t_s1s2.links), flows[0].demand_gbps),
        (groups.groups_of_path(&t_s4s3.links), flows[2].demand_gbps),
    ];

    // --- Traditional system: static backup s1→s2→s3.
    let banned: HashSet<FiberId> = [cut_fiber].into_iter().collect();
    let via_s2 = {
        // Force the s1-s2-s3 route by banning s4 as an intermediate.
        let ban_sites: HashSet<_> = [net.sites()[3].id].into_iter().collect();
        shortest_path_avoiding(
            &net,
            affected.src,
            affected.dst,
            &banned,
            &HashSet::new(),
            &ban_sites,
        )
        .expect("backup via s2 exists")
    };
    let spare_trad = headroom(&net, &groups, &loads, &via_s2).max(0.0);
    let sustained_trad = (affected.demand_gbps - spare_trad).max(0.0);
    // Loss timeline: full loss until the router switches, then the
    // sustained shortfall until the next TE period rebalances.
    let trad_lost_gb = affected.demand_gbps * scenario.router_switch_s
        + sustained_trad * (scenario.next_te_period_s - scenario.router_switch_s).max(0.0);
    let traditional = SystemOutcome {
        system: "traditional".into(),
        backup_path: path_names(&net, &via_s2),
        sustained_loss_gbps: sustained_trad,
        loss_duration_s: if sustained_trad > 0.0 {
            scenario.next_te_period_s
        } else {
            scenario.router_switch_s
        },
        total_lost_gb: trad_lost_gb,
    };

    // --- PreTE: on the degradation signal, pick the best headroom
    // backup among fiber-disjoint candidates (s1→s4→s3 wins).
    let mut candidates = vec![via_s2.clone()];
    let ban_s2: HashSet<_> = [net.sites()[1].id].into_iter().collect();
    if let Some(p) = shortest_path_avoiding(
        &net,
        affected.src,
        affected.dst,
        &banned,
        &HashSet::new(),
        &ban_s2,
    ) {
        candidates.push(p);
    }
    let best = candidates
        .into_iter()
        .map(|p| {
            let h = headroom(&net, &groups, &loads, &p);
            (p, h)
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one candidate");
    let spare_prete = best.1.max(0.0);
    let sustained_prete = (affected.demand_gbps - spare_prete).max(0.0);
    let prete_lost_gb = affected.demand_gbps * scenario.prete_switch_s
        + sustained_prete * (scenario.next_te_period_s - scenario.prete_switch_s).max(0.0);
    let prete = SystemOutcome {
        system: "PreTE".into(),
        backup_path: path_names(&net, &best.0),
        sustained_loss_gbps: sustained_prete,
        loss_duration_s: if sustained_prete > 0.0 {
            scenario.next_te_period_s
        } else {
            scenario.prete_switch_s
        },
        total_lost_gb: prete_lost_gb,
    };

    ProductionOutcome { traditional, prete }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traditional_backup_saturates_s1s2() {
        let out = replay_production_case(ProductionScenario::default());
        // Backup s1→s2→s3 has 1000 − 700 = 300 headroom for 600 Gbps.
        assert_eq!(out.traditional.backup_path, vec!["s1", "s2", "s3"]);
        assert!((out.traditional.sustained_loss_gbps - 300.0).abs() < 1e-9);
        assert!(out.traditional.loss_duration_s >= 180.0);
    }

    #[test]
    fn prete_routes_via_s4_with_no_sustained_loss() {
        let out = replay_production_case(ProductionScenario::default());
        assert_eq!(out.prete.backup_path, vec!["s1", "s4", "s3"]);
        assert_eq!(out.prete.sustained_loss_gbps, 0.0);
        assert!(out.prete.loss_duration_s < 0.1);
    }

    #[test]
    fn prete_loses_orders_of_magnitude_less_traffic() {
        let out = replay_production_case(ProductionScenario::default());
        assert!(
            out.prete.total_lost_gb * 100.0 < out.traditional.total_lost_gb,
            "PreTE {} Gb vs traditional {} Gb",
            out.prete.total_lost_gb,
            out.traditional.total_lost_gb
        );
    }

    #[test]
    fn faster_te_period_reduces_traditional_loss() {
        let slow = replay_production_case(ProductionScenario::default());
        let fast = replay_production_case(ProductionScenario {
            next_te_period_s: 30.0,
            ..Default::default()
        });
        assert!(fast.traditional.total_lost_gb < slow.traditional.total_lost_gb);
    }
}
