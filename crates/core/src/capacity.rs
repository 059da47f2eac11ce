//! Logical IP trunks: capacity aggregation over parallel links.
//!
//! The Table 3 topologies place several parallel wavelength links on
//! each fiber (that is how 19 fibers carry 52 IP links on B4). Parallel
//! links between the same site pair riding the same fiber set share
//! fate *and* act as one trunk from TE's perspective: a tunnel routed
//! over the adjacency may use any of them. To avoid the path-finder
//! pinning tunnels to one member link and stranding the rest of the
//! trunk, the TE capacity constraints (Eqn 3) are expressed per *trunk
//! group* — the set of links with identical endpoints and fiber set —
//! with the group's aggregate capacity on the right-hand side.

use prete_lp::{ConstraintId, LinearProgram, Sense, VarId};
use prete_topology::{FiberId, LinkId, Network, SiteId, Tunnel, TunnelId};

/// Partition of IP links into trunk groups.
#[derive(Debug, Clone)]
pub struct CapacityGroups {
    /// group index per link.
    group_of: Vec<usize>,
    /// aggregate capacity per group (Gbps).
    capacity: Vec<f64>,
    /// representative (lowest-id) link per group.
    representative: Vec<LinkId>,
}

impl CapacityGroups {
    /// Builds the trunk partition for a network.
    pub fn build(net: &Network) -> CapacityGroups {
        // Key: (min endpoint, max endpoint, sorted fiber ids).
        let mut keys: Vec<(SiteId, SiteId, Vec<FiberId>)> = Vec::new();
        let mut group_of = vec![usize::MAX; net.num_links()];
        let mut capacity: Vec<f64> = Vec::new();
        let mut representative: Vec<LinkId> = Vec::new();
        for link in net.links() {
            let (a, b) = if link.a <= link.b {
                (link.a, link.b)
            } else {
                (link.b, link.a)
            };
            let mut fibers = link.fibers.clone();
            fibers.sort();
            let key = (a, b, fibers);
            let gid = match keys.iter().position(|k| *k == key) {
                Some(g) => g,
                None => {
                    keys.push(key);
                    capacity.push(0.0);
                    representative.push(link.id);
                    keys.len() - 1
                }
            };
            group_of[link.id.index()] = gid;
            capacity[gid] += link.capacity_gbps;
        }
        CapacityGroups {
            group_of,
            capacity,
            representative,
        }
    }

    /// Number of trunk groups.
    pub fn len(&self) -> usize {
        self.capacity.len()
    }

    /// Whether there are no groups (never for a valid network).
    pub fn is_empty(&self) -> bool {
        self.capacity.is_empty()
    }

    /// Group index of a link.
    pub fn group_of(&self, l: LinkId) -> usize {
        self.group_of[l.index()]
    }

    /// Aggregate capacity (Gbps) of a group.
    pub fn capacity(&self, group: usize) -> f64 {
        self.capacity[group]
    }

    /// Representative link of a group (useful for diagnostics).
    pub fn representative(&self, group: usize) -> LinkId {
        self.representative[group]
    }

    /// Sums a tunnel path's load contribution per group: returns the
    /// distinct groups a link sequence crosses (a simple path crosses
    /// each at most once).
    pub fn groups_of_path(&self, links: &[LinkId]) -> Vec<usize> {
        let mut gs: Vec<usize> = links.iter().map(|&l| self.group_of(l)).collect();
        gs.sort_unstable();
        gs.dedup();
        gs
    }

    /// Adds the Eqn 3 rows `Σ a_t ≤ c_g` over `tunnels`, one per group
    /// in group order, and returns their ids. A group no listed tunnel
    /// crosses keeps its empty row: the row count fixes every basis
    /// signature.
    pub fn add_rows<'t>(
        &self,
        lp: &mut LinearProgram,
        a: &[VarId],
        tunnels: impl IntoIterator<Item = &'t Tunnel>,
    ) -> Vec<ConstraintId> {
        let mut terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); self.len()];
        for t in tunnels {
            for g in self.groups_of_path(&t.path.links) {
                terms[g].push((a[t.id.index()], 1.0));
            }
        }
        terms
            .into_iter()
            .enumerate()
            .map(|(g, terms)| lp.add_constraint(terms, Sense::Le, self.capacity(g)))
            .collect()
    }

    /// Load per group of `tunnels` carrying `allocation` (indexed by
    /// tunnel id).
    pub fn load<'t>(
        &self,
        tunnels: impl IntoIterator<Item = &'t Tunnel>,
        allocation: &[f64],
    ) -> Vec<f64> {
        let mut load = vec![0.0; self.len()];
        for t in tunnels {
            for g in self.groups_of_path(&t.path.links) {
                load[g] += allocation[t.id.index()];
            }
        }
        load
    }
}

/// The terms `Σ_{t ∈ ids} a_t` of a coverage or survival row.
pub fn tunnel_sum(a: &[VarId], ids: &[TunnelId]) -> Vec<(VarId, f64)> {
    ids.iter().map(|&t| (a[t.index()], 1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prete_topology::{topologies, Flow, FlowId, NetworkBuilder, TunnelSet};

    #[test]
    fn b4_groups_equal_fibers() {
        // On B4 every fiber hosts one trunk of 2–3 parallel links.
        let net = topologies::b4();
        let g = CapacityGroups::build(&net);
        assert_eq!(g.len(), net.num_fibers());
        let total: f64 = (0..g.len()).map(|i| g.capacity(i)).sum();
        assert!((total - net.total_capacity()).abs() < 1e-6);
    }

    #[test]
    fn twan_express_links_get_own_group() {
        // TWAN express links ride two fibers: distinct fiber set →
        // distinct group even between the same site pair.
        let net = topologies::twan();
        let g = CapacityGroups::build(&net);
        assert!(g.len() > net.num_fibers(), "{} groups", g.len());
    }

    #[test]
    fn parallel_links_aggregate() {
        let mut b = NetworkBuilder::new("p");
        let s0 = b.site("s0", 0);
        let s1 = b.site("s1", 0);
        let f = b.fiber(s0, s1, 10.0, 0);
        let l1 = b.link_on(f, 100.0);
        let l2 = b.link_on(f, 150.0);
        let net = b.build();
        let g = CapacityGroups::build(&net);
        assert_eq!(g.len(), 1);
        assert_eq!(g.group_of(l1), g.group_of(l2));
        assert_eq!(g.capacity(0), 250.0);
        assert_eq!(g.representative(0), l1);
    }

    #[test]
    fn path_group_dedup() {
        let net = topologies::b4();
        let g = CapacityGroups::build(&net);
        let links: Vec<_> = vec![net.links()[0].id, net.links()[1].id];
        // links 0 and 1 are parallel on fiber 0 → same group, deduped.
        let gs = g.groups_of_path(&links);
        assert_eq!(gs.len(), 1);
    }

    #[test]
    fn add_rows_keeps_empty_groups_in_group_order() {
        // Two fibers in a line: the only tunnel crosses the second
        // group, so the first keeps an empty row, and rows come out in
        // group order.
        let mut b = NetworkBuilder::new("line");
        let s0 = b.site("s0", 0);
        let s1 = b.site("s1", 0);
        let s2 = b.site("s2", 0);
        let f0 = b.fiber(s0, s1, 10.0, 0);
        let f1 = b.fiber(s1, s2, 10.0, 0);
        b.link_on(f0, 100.0);
        let l1 = b.link_on(f1, 40.0);
        let net = b.build();
        let g = CapacityGroups::build(&net);
        let flows = [Flow {
            id: FlowId(0),
            src: s1,
            dst: s2,
            demand_gbps: 1.0,
        }];
        let tunnels = TunnelSet::initialize(&net, &flows, 1);
        assert_eq!(tunnels.tunnels()[0].path.links, vec![l1]);
        let mut lp = LinearProgram::new();
        let a = vec![lp.var_nonneg(0.0)];
        let rows = g.add_rows(&mut lp, &a, tunnels.tunnels());
        assert_eq!(rows, vec![ConstraintId(0), ConstraintId(1)]);
        let (empty, used) = (lp.constraint(rows[0]), lp.constraint(rows[1]));
        assert!(empty.terms.is_empty());
        assert_eq!(empty.rhs, 100.0);
        assert_eq!(used.terms, vec![(a[0], 1.0)]);
        assert_eq!(used.rhs, 40.0);
        assert_eq!(g.load(tunnels.tunnels(), &[3.0]), vec![0.0, 3.0]);
    }
}
