//! The paper's illustrative networks, reusable across tests, examples
//! and benches.

use prete_topology::{Flow, FlowId, Network, NetworkBuilder, SiteId};

/// The Figure 2(a) network: three sites s1/s2/s3, three links (s1s2,
/// s1s3, s2s3) of 10 capacity units each, one fiber per link.
pub fn triangle() -> Network {
    let mut b = NetworkBuilder::new("fig2-triangle");
    let s1 = b.site("s1", 0);
    let s2 = b.site("s2", 0);
    let s3 = b.site("s3", 0);
    let f12 = b.fiber(s1, s2, 100.0, 0);
    let f13 = b.fiber(s1, s3, 100.0, 0);
    let f23 = b.fiber(s2, s3, 100.0, 0);
    b.link_on(f12, 10.0);
    b.link_on(f13, 10.0);
    b.link_on(f23, 10.0);
    b.build()
}

/// The Figure 2 flows: s1→s2 and s1→s3, 10 units of demand each.
pub fn triangle_flows() -> Vec<Flow> {
    vec![
        Flow {
            id: FlowId(0),
            src: SiteId(0),
            dst: SiteId(1),
            demand_gbps: 10.0,
        },
        Flow {
            id: FlowId(1),
            src: SiteId(0),
            dst: SiteId(2),
            demand_gbps: 10.0,
        },
    ]
}

/// The Figure 2 per-fiber failure probabilities (s1s2, s1s3, s2s3).
pub const TRIANGLE_PROBS: [f64; 3] = [0.005, 0.009, 0.001];

/// The §7 production case (Figure 18(a)): four sites, five IP links of
/// 1000 Gbps each (s1s2, s1s3, s2s3, s1s4, s4s3).
pub fn production_four_site() -> Network {
    let mut b = NetworkBuilder::new("fig18-production");
    let s1 = b.site("s1", 0);
    let s2 = b.site("s2", 0);
    let s3 = b.site("s3", 0);
    let s4 = b.site("s4", 0);
    for (a, z) in [(s1, s2), (s1, s3), (s2, s3), (s1, s4), (s4, s3)] {
        let f = b.fiber(a, z, 300.0, 0);
        b.link_on(f, 1000.0);
    }
    b.build()
}

/// The §7 traffic: tunnels s1→s2, s1→s3 and s4→s3 carrying 700, 600
/// and 300 Gbps respectively.
pub fn production_flows() -> Vec<Flow> {
    vec![
        Flow {
            id: FlowId(0),
            src: SiteId(0),
            dst: SiteId(1),
            demand_gbps: 700.0,
        },
        Flow {
            id: FlowId(1),
            src: SiteId(0),
            dst: SiteId(2),
            demand_gbps: 600.0,
        },
        Flow {
            id: FlowId(2),
            src: SiteId(3),
            dst: SiteId(2),
            demand_gbps: 300.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_matches_figure2a() {
        let n = triangle();
        assert_eq!(n.num_sites(), 3);
        assert_eq!(n.num_links(), 3);
        assert!(n.links().iter().all(|l| l.capacity_gbps == 10.0));
    }

    #[test]
    fn production_matches_figure18a() {
        let n = production_four_site();
        assert_eq!(n.num_sites(), 4);
        assert_eq!(n.num_links(), 5);
        assert!(n.links().iter().all(|l| l.capacity_gbps == 1000.0));
    }
}
