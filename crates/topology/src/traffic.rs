//! Flows and traffic matrices.
//!
//! The paper evaluates with 24 traffic matrices per topology (Table 3)
//! — one per hour of a representative day — and sweeps a *demand scale*
//! multiplier in the availability experiments (Figure 13). Production
//! matrices are confidential, so we generate gravity-model demands with
//! a diurnal modulation, the standard synthetic stand-in for WAN
//! traffic.

use crate::graph::Network;
use crate::ids::{FlowId, SiteId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// A flow: a source–destination site pair with a bandwidth demand
/// (`d_f` of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Flow {
    /// Identifier of this flow.
    pub id: FlowId,
    /// Ingress site.
    pub src: SiteId,
    /// Egress site.
    pub dst: SiteId,
    /// Demand in Gbps for the current TE interval.
    pub demand_gbps: f64,
}

/// A traffic matrix: a demand per flow, for one TE interval.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrafficMatrix {
    /// Hour of day this matrix describes (0–23).
    pub hour: usize,
    /// The flows with their demands. Flow IDs are dense `0..n`.
    pub flows: Vec<Flow>,
}

impl TrafficMatrix {
    /// Total demand in Gbps.
    pub fn total_demand(&self) -> f64 {
        self.flows.iter().map(|f| f.demand_gbps).sum()
    }

    /// Returns a copy with every demand multiplied by `scale` — the
    /// demand-scaling knob of Figure 13.
    pub fn scaled(&self, scale: f64) -> TrafficMatrix {
        assert!(scale > 0.0 && scale.is_finite());
        TrafficMatrix {
            hour: self.hour,
            flows: self
                .flows
                .iter()
                .map(|f| Flow {
                    demand_gbps: f.demand_gbps * scale,
                    ..*f
                })
                .collect(),
        }
    }

    /// Demand of flow `f`.
    pub fn demand(&self, f: FlowId) -> f64 {
        self.flows[f.index()].demand_gbps
    }
}

/// Diurnal modulation factor for a given hour: a smooth day/night curve
/// peaking in the evening (hour 20) at 1.0 and bottoming out around
/// 0.5 before dawn — typical of WAN aggregate traffic.
pub fn diurnal_factor(hour: usize) -> f64 {
    assert!(hour < 24);
    let phase = (hour as f64 - 20.0) / 24.0 * std::f64::consts::TAU;
    0.75 + 0.25 * phase.cos()
}

/// Generates the flow population for a topology: the `n_flows` heaviest
/// gravity-model site pairs, with demands normalized so that total
/// demand at scale 1 equals `load_fraction` of total IP capacity.
///
/// Site weights are random but deterministic in `seed`, modelling the
/// heterogeneous popularity of PoPs.
pub fn gravity_flows(net: &Network, n_flows: usize, load_fraction: f64, seed: u64) -> Vec<Flow> {
    assert!(n_flows >= 1);
    assert!(load_fraction > 0.0 && load_fraction < 1.0);
    let n = net.num_sites();
    assert!(
        n_flows <= n * (n - 1),
        "asked for {n_flows} flows but only {} ordered pairs exist",
        n * (n - 1)
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // Log-normal-ish site weights: bigger and smaller PoPs, with
    // moderate skew (extreme skew concentrates all demand on one hub
    // pair and makes single-cut protection bind on one trunk).
    let weights: Vec<f64> = (0..n).map(|_| (rng.gen::<f64>() * 1.4).exp()).collect();
    let mut pairs: Vec<(SiteId, SiteId, f64)> = Vec::new();
    for s in 0..n {
        for t in 0..n {
            if s != t {
                pairs.push((SiteId(s), SiteId(t), weights[s] * weights[t]));
            }
        }
    }
    // Heaviest pairs first; deterministic tie-break on indices.
    pairs.sort_by(|x, y| {
        y.2.partial_cmp(&x.2)
            .expect("finite weights")
            .then_with(|| (x.0, x.1).cmp(&(y.0, y.1)))
    });
    pairs.truncate(n_flows);
    let raw_total: f64 = pairs.iter().map(|p| p.2).sum();
    let budget = load_fraction * net.total_capacity();
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(src, dst, w))| Flow {
            id: FlowId(i),
            src,
            dst,
            demand_gbps: budget * w / raw_total,
        })
        .collect()
}

/// Generates the 24 hourly traffic matrices of Table 3 from a base flow
/// population: each hour scales all demands by [`diurnal_factor`] plus
/// small per-flow jitter (±5 %).
pub fn hourly_matrices(base: &[Flow], seed: u64) -> Vec<TrafficMatrix> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    (0..24)
        .map(|hour| {
            let f = diurnal_factor(hour);
            TrafficMatrix {
                hour,
                flows: base
                    .iter()
                    .map(|fl| Flow {
                        demand_gbps: fl.demand_gbps * f * (0.95 + 0.1 * rng.gen::<f64>()),
                        ..*fl
                    })
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkBuilder;

    fn small_net() -> Network {
        let mut b = NetworkBuilder::new("sq");
        let s: Vec<SiteId> = (0..4).map(|i| b.site(format!("s{i}"), 0)).collect();
        for (a, bn) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            let f = b.fiber(s[a], s[bn], 10.0, 0);
            b.link_on(f, 100.0);
        }
        b.build()
    }

    #[test]
    fn gravity_flows_normalized() {
        let net = small_net();
        let flows = gravity_flows(&net, 6, 0.25, 42);
        assert_eq!(flows.len(), 6);
        let total: f64 = flows.iter().map(|f| f.demand_gbps).sum();
        assert!((total - 0.25 * net.total_capacity()).abs() < 1e-9);
        // IDs are dense and in order.
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(f.id, FlowId(i));
            assert_ne!(f.src, f.dst);
            assert!(f.demand_gbps > 0.0);
        }
    }

    #[test]
    fn gravity_is_deterministic_in_seed() {
        let net = small_net();
        let a = gravity_flows(&net, 5, 0.2, 7);
        let b = gravity_flows(&net, 5, 0.2, 7);
        let c = gravity_flows(&net, 5, 0.2, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn diurnal_peaks_in_evening() {
        assert!((diurnal_factor(20) - 1.0).abs() < 1e-12);
        assert!(diurnal_factor(8) < diurnal_factor(20));
        for h in 0..24 {
            let f = diurnal_factor(h);
            assert!((0.5..=1.0).contains(&f), "hour {h}: {f}");
        }
    }

    #[test]
    fn hourly_matrices_count_and_shape() {
        let net = small_net();
        let flows = gravity_flows(&net, 4, 0.2, 1);
        let tms = hourly_matrices(&flows, 1);
        assert_eq!(tms.len(), 24);
        for (h, tm) in tms.iter().enumerate() {
            assert_eq!(tm.hour, h);
            assert_eq!(tm.flows.len(), 4);
        }
        // Peak hour should carry more traffic than the pre-dawn trough.
        assert!(tms[20].total_demand() > tms[8].total_demand());
    }

    #[test]
    fn scaling() {
        let net = small_net();
        let flows = gravity_flows(&net, 4, 0.2, 1);
        let tm = TrafficMatrix { hour: 0, flows };
        let scaled = tm.scaled(2.5);
        assert!((scaled.total_demand() - 2.5 * tm.total_demand()).abs() < 1e-9);
        assert_eq!(scaled.demand(FlowId(2)), 2.5 * tm.demand(FlowId(2)));
    }
}
