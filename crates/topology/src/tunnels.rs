//! Tunnels: end-to-end paths assigned to flows.
//!
//! §4.2 *Tunnel initialization*: every flow gets a set of
//! pre-established tunnels computed with both k-shortest-path and
//! fiber-disjoint routing, with the guarantee that *"at least one
//! residual tunnel exists for every flow under each failure scenario"*
//! (single-fiber scenarios). [`TunnelSet::initialize`] implements that
//! procedure; reactive tunnels added by Algorithm 1 (in `prete-core`)
//! are appended with [`TunnelSet::add_reactive`].

use crate::graph::Network;
use crate::ids::{FiberId, FlowId, TunnelId};
use crate::paths::{Path, PathFinder, DISJOINT_SEEDS};
use crate::traffic::Flow;

/// How a tunnel came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunnelOrigin {
    /// Established at initialization time (the `T_f` of Table 2).
    PreEstablished,
    /// Established reactively by Algorithm 1 when a degradation was
    /// observed (the `Y_f^s` of Table 2).
    Reactive,
}

/// A tunnel: a concrete path carrying (part of) one flow's traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct Tunnel {
    /// Identifier, unique within a [`TunnelSet`].
    pub id: TunnelId,
    /// The flow this tunnel belongs to.
    pub flow: FlowId,
    /// The underlying path.
    pub path: Path,
    /// Provenance (pre-established vs reactive).
    pub origin: TunnelOrigin,
}

impl Tunnel {
    /// Whether the tunnel traverses fiber `f` (and is therefore lost
    /// when `f` is cut).
    pub fn uses_fiber(&self, net: &Network, f: FiberId) -> bool {
        self.path.uses_fiber(net, f)
    }

    /// Whether the tunnel survives a scenario where all of `cut` fail.
    pub fn survives(&self, net: &Network, cut: &[FiberId]) -> bool {
        !cut.iter().any(|&f| self.uses_fiber(net, f))
    }
}

/// All tunnels of all flows, with per-flow indexes.
#[derive(Debug, Clone, Default)]
pub struct TunnelSet {
    tunnels: Vec<Tunnel>,
    by_flow: Vec<Vec<TunnelId>>,
}

impl TunnelSet {
    /// Creates an empty set sized for `num_flows` flows.
    pub fn new(num_flows: usize) -> Self {
        Self {
            tunnels: Vec::new(),
            by_flow: vec![Vec::new(); num_flows],
        }
    }

    /// §4.2 tunnel initialization: for every flow, take the union of
    /// `k`-shortest paths and fiber-disjoint paths (disjoint first so
    /// the survivability guarantee is honoured), capped at
    /// `tunnels_per_flow` distinct tunnels.
    ///
    /// # Panics
    /// Panics if some flow's endpoints are disconnected.
    pub fn initialize(net: &Network, flows: &[Flow], tunnels_per_flow: usize) -> Self {
        Self::initialize_with(&mut PathFinder::new(net), flows, tunnels_per_flow)
    }

    /// [`TunnelSet::initialize`] on the caller's finder, whose search
    /// count the work-counter test reads.
    fn initialize_with(
        finder: &mut PathFinder<'_>,
        flows: &[Flow],
        tunnels_per_flow: usize,
    ) -> Self {
        assert!(tunnels_per_flow >= 1);
        let mut set = Self::new(flows.len());
        for flow in flows {
            // One Yen run per flow: its head seeds the disjoint search
            // and fills the rest of the budget.
            let shortest = finder.k_shortest_paths(
                flow.src,
                flow.dst,
                DISJOINT_SEEDS.max(tunnels_per_flow + 2),
            );
            let mut chosen: Vec<Path> = Vec::new();
            // Tunnels are distinct iff their *site routes* differ:
            // parallel wavelength links between the same site pair do
            // not add path diversity.
            let distinct = |chosen: &[Path], p: &Path| chosen.iter().all(|c| c.sites != p.sites);
            // Fiber-disjoint paths first: they provide the residual
            // tunnel under any single-fiber cut (and, where the
            // topology permits three disjoint routes, under double
            // cuts — which is what FFC-2 needs to admit anything).
            let disjoint_budget = tunnels_per_flow.saturating_sub(1).clamp(2, 3);
            let seeds = &shortest[..shortest.len().min(DISJOINT_SEEDS)];
            for p in finder.disjoint_from(seeds, disjoint_budget) {
                if chosen.len() < tunnels_per_flow && distinct(&chosen, &p) {
                    chosen.push(p);
                }
            }
            // Then fill with k-shortest paths.
            for p in shortest.into_iter().take(tunnels_per_flow + 2) {
                if chosen.len() >= tunnels_per_flow {
                    break;
                }
                if distinct(&chosen, &p) {
                    chosen.push(p);
                }
            }
            assert!(
                !chosen.is_empty(),
                "flow {}→{} has no path",
                finder.net.site(flow.src).name,
                finder.net.site(flow.dst).name
            );
            for path in chosen {
                set.push(flow.id, path, TunnelOrigin::PreEstablished);
            }
        }
        set
    }

    fn push(&mut self, flow: FlowId, path: Path, origin: TunnelOrigin) -> TunnelId {
        let id = TunnelId(self.tunnels.len());
        self.tunnels.push(Tunnel {
            id,
            flow,
            path,
            origin,
        });
        self.by_flow[flow.index()].push(id);
        id
    }

    /// Appends a reactive tunnel (Algorithm 1 output) for `flow`.
    pub fn add_reactive(&mut self, flow: FlowId, path: Path) -> TunnelId {
        self.push(flow, path, TunnelOrigin::Reactive)
    }

    /// Removes all reactive tunnels, restoring the pre-established set
    /// ("once the failure is repaired … the tunnel is then updated to
    /// its original state", §4.2).
    pub fn clear_reactive(&mut self) {
        self.tunnels
            .retain(|t| t.origin == TunnelOrigin::PreEstablished);
        for (i, t) in self.tunnels.iter_mut().enumerate() {
            t.id = TunnelId(i);
        }
        for v in &mut self.by_flow {
            v.clear();
        }
        let assignments: Vec<(FlowId, TunnelId)> =
            self.tunnels.iter().map(|t| (t.flow, t.id)).collect();
        for (f, t) in assignments {
            self.by_flow[f.index()].push(t);
        }
    }

    /// All tunnels.
    pub fn tunnels(&self) -> &[Tunnel] {
        &self.tunnels
    }

    /// Number of tunnels.
    pub fn len(&self) -> usize {
        self.tunnels.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tunnels.is_empty()
    }

    /// Number of flows the set was sized for.
    pub fn num_flows(&self) -> usize {
        self.by_flow.len()
    }

    /// A tunnel by ID.
    pub fn tunnel(&self, id: TunnelId) -> &Tunnel {
        &self.tunnels[id.index()]
    }

    /// Tunnel IDs of a flow (pre-established and reactive).
    pub fn of_flow(&self, f: FlowId) -> &[TunnelId] {
        &self.by_flow[f.index()]
    }

    /// Tunnel IDs of a flow that survive the given fiber cuts — the
    /// `T_{f,q} ∪ Y_{f,q}^s` of Table 2.
    pub fn surviving(&self, net: &Network, f: FlowId, cut: &[FiberId]) -> Vec<TunnelId> {
        self.of_flow(f)
            .iter()
            .copied()
            .filter(|&t| self.tunnel(t).survives(net, cut))
            .collect()
    }

    /// The `Λ` of Algorithm 1 line 6: how many of `f`'s tunnels traverse
    /// the degraded fiber.
    pub fn affected_count(&self, net: &Network, f: FlowId, fiber: FiberId) -> usize {
        self.of_flow(f)
            .iter()
            .filter(|&&t| self.tunnel(t).uses_fiber(net, fiber))
            .count()
    }

    /// Flows with at least one tunnel on `fiber` — the blast radius
    /// reported in Figure 1(c).
    pub fn flows_affected_by(&self, net: &Network, fiber: FiberId) -> Vec<FlowId> {
        let mut out: Vec<FlowId> = Vec::new();
        for (i, ts) in self.by_flow.iter().enumerate() {
            if ts.iter().any(|&t| self.tunnel(t).uses_fiber(net, fiber)) {
                out.push(FlowId(i));
            }
        }
        out
    }

    /// Total tunnels on `fiber`.
    pub fn tunnels_on_fiber(&self, net: &Network, fiber: FiberId) -> usize {
        self.tunnels
            .iter()
            .filter(|t| t.uses_fiber(net, fiber))
            .count()
    }

    /// Verifies the §4.2 survivability guarantee: every flow keeps at
    /// least one tunnel under every single-fiber cut. Returns the
    /// violating (flow, fiber) pairs (empty = guarantee holds).
    pub fn survivability_violations(&self, net: &Network) -> Vec<(FlowId, FiberId)> {
        let mut out = Vec::new();
        for (i, _) in self.by_flow.iter().enumerate() {
            let f = FlowId(i);
            for fiber in net.fibers() {
                if self.surviving(net, f, &[fiber.id]).is_empty() {
                    out.push((f, fiber.id));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkBuilder;
    use crate::ids::SiteId;
    use crate::traffic::Flow;

    fn triangle() -> Network {
        let mut b = NetworkBuilder::new("triangle");
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

    fn flows() -> Vec<Flow> {
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

    #[test]
    fn initialize_gives_each_flow_tunnels() {
        let net = triangle();
        let ts = TunnelSet::initialize(&net, &flows(), 2);
        assert_eq!(ts.of_flow(FlowId(0)).len(), 2);
        assert_eq!(ts.of_flow(FlowId(1)).len(), 2);
        assert_eq!(ts.len(), 4);
    }

    #[test]
    fn triangle_flows_survive_single_cuts() {
        let net = triangle();
        let ts = TunnelSet::initialize(&net, &flows(), 2);
        assert!(ts.survivability_violations(&net).is_empty());
    }

    #[test]
    fn surviving_excludes_cut_tunnels() {
        let net = triangle();
        let ts = TunnelSet::initialize(&net, &flows(), 2);
        // Cut s1—s2 (fiber 0): flow 0's direct tunnel dies, detour lives.
        let alive = ts.surviving(&net, FlowId(0), &[FiberId(0)]);
        assert_eq!(alive.len(), 1);
        assert!(!ts.tunnel(alive[0]).uses_fiber(&net, FiberId(0)));
    }

    #[test]
    fn affected_count_matches_algorithm1_lambda() {
        let net = triangle();
        let ts = TunnelSet::initialize(&net, &flows(), 2);
        // flow 0 (s1→s2): direct tunnel uses fiber 0, detour s1-s3-s2 doesn't.
        assert_eq!(ts.affected_count(&net, FlowId(0), FiberId(0)), 1);
        // both flows have one tunnel over fiber 0? flow 1 (s1→s3): direct
        // uses fiber 1; detour s1-s2-s3 uses fibers 0 and 2.
        assert_eq!(ts.affected_count(&net, FlowId(1), FiberId(1)), 1);
    }

    #[test]
    fn reactive_tunnels_append_and_clear() {
        let net = triangle();
        let mut ts = TunnelSet::initialize(&net, &flows(), 2);
        let before = ts.len();
        let p = crate::paths::shortest_path(&net, SiteId(0), SiteId(1)).unwrap();
        let id = ts.add_reactive(FlowId(0), p);
        assert_eq!(ts.tunnel(id).origin, TunnelOrigin::Reactive);
        assert_eq!(ts.of_flow(FlowId(0)).len(), 3);
        ts.clear_reactive();
        assert_eq!(ts.len(), before);
        assert!(ts
            .tunnels()
            .iter()
            .all(|t| t.origin == TunnelOrigin::PreEstablished));
        // IDs must stay dense and consistent after compaction.
        for (i, t) in ts.tunnels().iter().enumerate() {
            assert_eq!(t.id, TunnelId(i));
        }
        assert_eq!(ts.of_flow(FlowId(0)).len(), 2);
    }

    /// A deterministic stand-in for a timing test: a second Yen pass
    /// per flow or a lost Lawler index shows up here as more searches.
    #[test]
    fn initialize_search_count_is_pinned() {
        let spec = crate::GenSpec::parse("gen:waxman:100").expect("a valid generator spec");
        let net = crate::generate::generate(&spec);
        let flows = crate::topologies::flows_for(&net, 0.02, 42);
        let mut finder = PathFinder::new(&net);
        let ts = TunnelSet::initialize_with(&mut finder, &flows, 4);
        assert_eq!((flows.len(), ts.len()), (481, 1920));
        assert_eq!(finder.searches(), 15_514, "32.25 searches per flow × 481");
    }

    #[test]
    fn flows_affected_by_fiber() {
        let net = triangle();
        let ts = TunnelSet::initialize(&net, &flows(), 2);
        // fiber 0 (s1—s2) carries flow 0's direct tunnel and flow 1's detour.
        let affected = ts.flows_affected_by(&net, FiberId(0));
        assert_eq!(affected, vec![FlowId(0), FlowId(1)]);
        assert_eq!(ts.tunnels_on_fiber(&net, FiberId(0)), 2);
    }
}
