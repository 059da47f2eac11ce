//! The two-layer WAN graph: sites, fibers, and IP links.
//!
//! The paper models the WAN as a directed graph `G = (V, E)` at the IP
//! layer (§4.2), but failures happen at the optical layer: each IP link
//! is mapped onto one or more fiber spans, and a fiber cut removes every
//! IP link riding on it. This module owns that cross-layer mapping.
//!
//! IP links are stored *undirected* with symmetric capacity — tunnels
//! are directed site sequences, and a directed traversal of an
//! undirected link consumes capacity on it (the convention used by the
//! TeaVaR/Flexile artifacts the paper builds on).

use crate::ids::{FiberId, LinkId, SiteId};
use serde::Serialize;
use std::collections::HashMap;

/// A site: an edge router / point of presence (vertex of the graph).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Site {
    /// Identifier of this site.
    pub id: SiteId,
    /// Human-readable name ("s1", "nyc", …).
    pub name: String,
    /// Region the site sits in (index into the topology's region list);
    /// regions are an intrinsic fiber feature for failure prediction
    /// (§3.2) and the grouping key of Figure 1(b).
    pub region: usize,
}

/// An optical fiber span between two sites.
///
/// Fibers sharing a conduit are modelled as a single fiber entity, as
/// the paper does ("we consider these fibers as a single entity", §3.1).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fiber {
    /// Identifier of this fiber.
    pub id: FiberId,
    /// One endpoint.
    pub a: SiteId,
    /// Other endpoint.
    pub b: SiteId,
    /// Span length in kilometres (an intrinsic prediction feature).
    pub length_km: f64,
    /// Region index (inherited from its endpoints' geography).
    pub region: usize,
    /// Vendor index (an intrinsic prediction feature, Appendix A.6).
    pub vendor: usize,
}

/// An IP-layer link.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IpLink {
    /// Identifier of this link.
    pub id: LinkId,
    /// One endpoint.
    pub a: SiteId,
    /// Other endpoint.
    pub b: SiteId,
    /// Capacity in Gbps (symmetric).
    pub capacity_gbps: f64,
    /// The fiber spans this link rides on. A cut of *any* of them kills
    /// the link. Most links ride a single span; express links in large
    /// WANs ride several.
    pub fibers: Vec<FiberId>,
}

impl IpLink {
    /// The endpoint opposite `s`, or `None` if `s` is not an endpoint.
    pub fn other(&self, s: SiteId) -> Option<SiteId> {
        if s == self.a {
            Some(self.b)
        } else if s == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// Whether this link rides on fiber `f`.
    pub fn uses_fiber(&self, f: FiberId) -> bool {
        self.fibers.contains(&f)
    }
}

/// The assembled two-layer network.
#[derive(Debug, Clone, Serialize)]
pub struct Network {
    /// Topology name ("B4", "IBM", "TWAN", …).
    pub name: String,
    sites: Vec<Site>,
    fibers: Vec<Fiber>,
    links: Vec<IpLink>,
    /// adjacency[site] = (neighbor, link) pairs.
    adjacency: Vec<Vec<(SiteId, LinkId)>>,
    /// links_on_fiber[fiber] = links riding it.
    links_on_fiber: Vec<Vec<LinkId>>,
}

impl Network {
    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Number of fibers.
    pub fn num_fibers(&self) -> usize {
        self.fibers.len()
    }

    /// Number of IP links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// All fibers.
    pub fn fibers(&self) -> &[Fiber] {
        &self.fibers
    }

    /// All IP links.
    pub fn links(&self) -> &[IpLink] {
        &self.links
    }

    /// A site by ID.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.index()]
    }

    /// A fiber by ID.
    pub fn fiber(&self, id: FiberId) -> &Fiber {
        &self.fibers[id.index()]
    }

    /// An IP link by ID.
    pub fn link(&self, id: LinkId) -> &IpLink {
        &self.links[id.index()]
    }

    /// `(neighbor, link)` pairs adjacent to `s`.
    pub fn neighbors(&self, s: SiteId) -> &[(SiteId, LinkId)] {
        &self.adjacency[s.index()]
    }

    /// IP links riding on fiber `f` — the cross-layer blast radius of a
    /// cut of `f`.
    pub fn links_on_fiber(&self, f: FiberId) -> &[LinkId] {
        &self.links_on_fiber[f.index()]
    }

    /// Total IP capacity (Gbps) lost if fiber `f` is cut — the quantity
    /// whose CDF is Figure 1(b).
    pub fn capacity_lost_by_cut(&self, f: FiberId) -> f64 {
        self.links_on_fiber(f)
            .iter()
            .map(|&l| self.link(l).capacity_gbps)
            .sum()
    }

    /// Whether IP link `l` survives when all fibers in `cut` are cut.
    pub fn link_survives(&self, l: LinkId, cut: &[FiberId]) -> bool {
        !self.link(l).fibers.iter().any(|f| cut.contains(f))
    }

    /// Sum of all IP link capacities (Gbps).
    pub fn total_capacity(&self) -> f64 {
        self.links.iter().map(|l| l.capacity_gbps).sum()
    }

    /// Looks up the link between two adjacent sites, if any. When
    /// several parallel links connect the pair, the lowest-ID one is
    /// returned (use [`Network::links_between`] for all of them).
    pub fn link_between(&self, a: SiteId, b: SiteId) -> Option<LinkId> {
        self.adjacency[a.index()]
            .iter()
            .filter(|&&(n, _)| n == b)
            .map(|&(_, l)| l)
            .min()
    }

    /// All parallel links between two sites.
    pub fn links_between(&self, a: SiteId, b: SiteId) -> Vec<LinkId> {
        self.adjacency[a.index()]
            .iter()
            .filter(|&&(n, _)| n == b)
            .map(|&(_, l)| l)
            .collect()
    }
}

/// Incremental builder for [`Network`], validating the cross-layer
/// mapping as it goes.
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    name: String,
    sites: Vec<Site>,
    fibers: Vec<Fiber>,
    links: Vec<IpLink>,
    site_names: HashMap<String, SiteId>,
}

impl NetworkBuilder {
    /// Starts a builder for a topology called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a site; names must be unique.
    pub fn site(&mut self, name: impl Into<String>, region: usize) -> SiteId {
        let name = name.into();
        assert!(
            !self.site_names.contains_key(&name),
            "duplicate site name {name:?}"
        );
        let id = SiteId(self.sites.len());
        self.site_names.insert(name.clone(), id);
        self.sites.push(Site { id, name, region });
        id
    }

    /// Adds a fiber span between two existing sites.
    pub fn fiber(&mut self, a: SiteId, b: SiteId, length_km: f64, vendor: usize) -> FiberId {
        assert!(a.index() < self.sites.len() && b.index() < self.sites.len());
        assert_ne!(a, b, "self-loop fiber");
        assert!(length_km > 0.0, "fiber length must be positive");
        let id = FiberId(self.fibers.len());
        let region = self.sites[a.index()].region;
        self.fibers.push(Fiber {
            id,
            a,
            b,
            length_km,
            region,
            vendor,
        });
        id
    }

    /// Adds an IP link between two sites riding on `fibers`.
    ///
    /// # Panics
    /// Panics if `fibers` is empty, references unknown fibers, or the
    /// capacity is non-positive.
    pub fn link(
        &mut self,
        a: SiteId,
        b: SiteId,
        capacity_gbps: f64,
        fibers: Vec<FiberId>,
    ) -> LinkId {
        assert!(!fibers.is_empty(), "an IP link must ride on >= 1 fiber");
        assert!(capacity_gbps > 0.0, "capacity must be positive");
        for &f in &fibers {
            assert!(f.index() < self.fibers.len(), "unknown fiber {f}");
        }
        assert_ne!(a, b, "self-loop link");
        let id = LinkId(self.links.len());
        self.links.push(IpLink {
            id,
            a,
            b,
            capacity_gbps,
            fibers,
        });
        id
    }

    /// Convenience: adds an IP link that rides on exactly the fiber
    /// between its endpoints.
    pub fn link_on(&mut self, fiber: FiberId, capacity_gbps: f64) -> LinkId {
        let (a, b) = {
            let f = &self.fibers[fiber.index()];
            (f.a, f.b)
        };
        self.link(a, b, capacity_gbps, vec![fiber])
    }

    /// Endpoints of a fiber added so far (useful while constructing
    /// synthetic topologies, before `build`).
    pub fn fiber_endpoints(&self, f: FiberId) -> (SiteId, SiteId) {
        let fb = &self.fibers[f.index()];
        (fb.a, fb.b)
    }

    /// Finalizes the network, building adjacency and cross-layer indexes.
    ///
    /// # Panics
    /// Panics if the IP graph is disconnected (TE over a disconnected
    /// WAN is ill-posed) or empty.
    pub fn build(self) -> Network {
        assert!(!self.sites.is_empty(), "no sites");
        assert!(!self.links.is_empty(), "no IP links");
        let mut adjacency = vec![Vec::new(); self.sites.len()];
        for l in &self.links {
            adjacency[l.a.index()].push((l.b, l.id));
            adjacency[l.b.index()].push((l.a, l.id));
        }
        let mut links_on_fiber = vec![Vec::new(); self.fibers.len()];
        for l in &self.links {
            for &f in &l.fibers {
                links_on_fiber[f.index()].push(l.id);
            }
        }
        let net = Network {
            name: self.name,
            sites: self.sites,
            fibers: self.fibers,
            links: self.links,
            adjacency,
            links_on_fiber,
        };
        // Connectivity check (BFS from site 0).
        let mut seen = vec![false; net.num_sites()];
        let mut queue = vec![SiteId(0)];
        seen[0] = true;
        while let Some(s) = queue.pop() {
            for &(n, _) in net.neighbors(s) {
                if !seen[n.index()] {
                    seen[n.index()] = true;
                    queue.push(n);
                }
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "IP graph of {:?} is disconnected",
            net.name
        );
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 3-site illustrative network of Figure 2(a): links s1s2,
    /// s1s3, s2s3, each 10 units of capacity.
    pub(crate) fn triangle() -> Network {
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

    #[test]
    fn triangle_shape() {
        let n = triangle();
        assert_eq!(n.num_sites(), 3);
        assert_eq!(n.num_fibers(), 3);
        assert_eq!(n.num_links(), 3);
        assert_eq!(n.total_capacity(), 30.0);
        assert_eq!(n.neighbors(SiteId(0)).len(), 2);
    }

    #[test]
    fn cross_layer_mapping() {
        let n = triangle();
        assert_eq!(n.links_on_fiber(FiberId(0)), &[LinkId(0)]);
        assert_eq!(n.capacity_lost_by_cut(FiberId(1)), 10.0);
        assert!(n.link_survives(LinkId(0), &[FiberId(1)]));
        assert!(!n.link_survives(LinkId(0), &[FiberId(0)]));
    }

    #[test]
    fn multi_fiber_link_dies_with_any_span() {
        let mut b = NetworkBuilder::new("chain");
        let s1 = b.site("s1", 0);
        let s2 = b.site("s2", 0);
        let s3 = b.site("s3", 0);
        let f1 = b.fiber(s1, s2, 50.0, 0);
        let f2 = b.fiber(s2, s3, 50.0, 0);
        b.link_on(f1, 100.0);
        b.link_on(f2, 100.0);
        // Express IP link s1→s3 riding both spans.
        let express = b.link(s1, s3, 100.0, vec![f1, f2]);
        let n = b.build();
        assert!(!n.link_survives(express, &[f1]));
        assert!(!n.link_survives(express, &[f2]));
        assert!(n.link_survives(express, &[]));
        // Cutting f1 loses the s1s2 link and the express link.
        assert_eq!(n.capacity_lost_by_cut(f1), 200.0);
    }

    #[test]
    fn parallel_links() {
        let mut b = NetworkBuilder::new("par");
        let s1 = b.site("s1", 0);
        let s2 = b.site("s2", 0);
        let f = b.fiber(s1, s2, 10.0, 0);
        let l1 = b.link_on(f, 100.0);
        let l2 = b.link_on(f, 100.0);
        // keep graph connected trivially (2 sites, links between them)
        let n = b.build();
        assert_eq!(n.links_between(s1, s2), vec![l1, l2]);
        assert_eq!(n.link_between(s1, s2), Some(l1));
        assert_eq!(n.links_on_fiber(f), &[l1, l2]);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_graph_rejected() {
        let mut b = NetworkBuilder::new("bad");
        let s1 = b.site("s1", 0);
        let s2 = b.site("s2", 0);
        let _s3 = b.site("s3", 0); // never linked
        let f = b.fiber(s1, s2, 10.0, 0);
        b.link_on(f, 100.0);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "duplicate site")]
    fn duplicate_site_name_rejected() {
        let mut b = NetworkBuilder::new("dup");
        b.site("x", 0);
        b.site("x", 0);
    }
}
