//! Path-finding over the IP layer.
//!
//! §4.2: *"We use both k-shortest path routing and fiber-disjoint
//! routing algorithms to establish tunnels over the IP layer topology"*.
//! This module provides:
//!
//! * [`shortest_path`] — Dijkstra over site hops with optional banned
//!   fibers (Algorithm 1 deletes the degraded link from the graph before
//!   searching);
//! * [`k_shortest_paths`] — Yen's algorithm for loop-free k-shortest
//!   paths;
//! * [`fiber_disjoint_paths`] — iterated shortest paths, removing the
//!   fibers of each accepted path so later paths share no span with it.
//!
//! All three run on one [`PathFinder`], which callers with many site
//! pairs on one network (tunnel initialization, Algorithm 1) make once
//! and reuse; the free functions make one per call.
//!
//! Paths are site sequences; edge weights are fiber kilometres (summed
//! over the spans of the chosen IP link) with a small per-hop constant,
//! so shorter physical routes win and hop count breaks ties.

use crate::graph::Network;
use crate::ids::{FiberId, LinkId, SiteId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet};

/// A path through the IP layer: the site sequence plus the links used.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Visited sites, from source to destination inclusive.
    pub sites: Vec<SiteId>,
    /// Links traversed, `sites.len() - 1` of them.
    pub links: Vec<LinkId>,
    /// Total weight (km + hop penalty).
    pub weight: f64,
}

impl Path {
    /// Source site.
    pub fn src(&self) -> SiteId {
        *self.sites.first().expect("non-empty path")
    }

    /// Destination site.
    pub fn dst(&self) -> SiteId {
        *self.sites.last().expect("non-empty path")
    }

    /// Number of hops (links).
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// The set of fibers this path traverses.
    pub fn fibers(&self, net: &Network) -> HashSet<FiberId> {
        self.links
            .iter()
            .flat_map(|&l| net.link(l).fibers.iter().copied())
            .collect()
    }

    /// Whether this path traverses fiber `f`.
    pub fn uses_fiber(&self, net: &Network, f: FiberId) -> bool {
        self.links.iter().any(|&l| net.link(l).uses_fiber(f))
    }
}

/// Weight of traversing `link`: physical kilometres plus a constant to
/// prefer fewer hops among equal-length routes.
fn link_weight(net: &Network, link: LinkId) -> f64 {
    const HOP_PENALTY_KM: f64 = 1.0;
    net.link(link)
        .fibers
        .iter()
        .map(|&f| net.fiber(f).length_km)
        .sum::<f64>()
        + HOP_PENALTY_KM
}

/// How many of the shortest paths the fiber-disjoint search restarts
/// its greedy growth from.
pub(crate) const DISJOINT_SEEDS: usize = 6;

/// One adjacency entry, in [`Network::neighbors`] order.
struct Edge {
    next: SiteId,
    link: LinkId,
    /// The link's weight, or infinity while it rides a banned fiber.
    weight: f64,
}

/// The one path search of the crate: Dijkstra over site hops, with
/// Yen's k-shortest paths and the fiber-disjoint growth built on it.
///
/// A finder is made once per batch of searches on one network. It
/// holds the link weights, the bans and the Dijkstra buffers, so a
/// search allocates nothing but the paths it returns. Which path a
/// search returns is fixed by the weights, the adjacency order and the
/// `(distance, site)` settle order alone — tunnel sets are pinned bit
/// for bit in `tests/tunnel_paths.rs`.
pub struct PathFinder<'a> {
    pub(crate) net: &'a Network,
    /// `edges[first[s]..first[s + 1]]` leave site `s`.
    first: Vec<usize>,
    edges: Vec<Edge>,
    /// By link: its weight, and its two entries in `edges`.
    weight: Vec<f64>,
    edges_of: Vec<[usize; 2]>,
    /// Infinite between searches, except at a banned site, which sits
    /// at −∞ where no relaxation can reach it.
    dist: Vec<f64>,
    prev: Vec<(SiteId, LinkId)>,
    /// Sites whose `dist` the running search has set.
    touched: Vec<SiteId>,
    /// The site the finder is aimed at and every site's distance to
    /// it; all zeros while it is aimed at none.
    aimed: Option<SiteId>,
    toward: Vec<f64>,
    /// Min-heap on `(key bits, site)`: keys are non-negative, so their
    /// bit patterns order as they do.
    heap: BinaryHeap<Reverse<(u64, SiteId)>>,
    searches: u64,
}

impl<'a> PathFinder<'a> {
    /// A finder over `net` with nothing banned.
    pub fn new(net: &'a Network) -> Self {
        let n = net.num_sites();
        let weight: Vec<f64> = net.links().iter().map(|l| link_weight(net, l.id)).collect();
        let mut first = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(2 * net.num_links());
        let mut edges_of = vec![[usize::MAX; 2]; net.num_links()];
        for site in net.sites() {
            first.push(edges.len());
            for &(next, link) in net.neighbors(site.id) {
                edges_of[link.index()][usize::from(site.id != net.link(link).a)] = edges.len();
                edges.push(Edge {
                    next,
                    link,
                    weight: weight[link.index()],
                });
            }
        }
        first.push(edges.len());
        Self {
            net,
            first,
            edges,
            weight,
            edges_of,
            dist: vec![f64::INFINITY; n],
            prev: vec![(SiteId(0), LinkId(0)); n],
            touched: Vec::new(),
            aimed: None,
            toward: vec![0.0; n],
            heap: BinaryHeap::new(),
            searches: 0,
        }
    }

    /// Shortest-route searches answered so far — the finder's unit of
    /// work, each at most two bounded Dijkstra passes.
    pub fn searches(&self) -> u64 {
        self.searches
    }

    /// The shortest route from `src` to `dst`, ignoring banned links,
    /// banned sites and the banned directed site-moves. Returns its
    /// weight; the route is then in `prev`.
    ///
    /// Moves (not links) are banned because parallel wavelength links
    /// between the same site pair are interchangeable from a routing
    /// perspective: banning one link would just select its twin and
    /// produce the same site route again (the classic Yen-with-multigraph
    /// pitfall). Among parallel links the lowest-ID one is used.
    ///
    /// Towards the site the finder is aimed at, a goal-directed pass
    /// first finds *a* route; its weight then confines the pass that
    /// picks *the* route — in plain Dijkstra order, so ties fall as
    /// they always did — to the sites a route that light can visit.
    fn search(
        &mut self,
        src: SiteId,
        dst: SiteId,
        banned_moves: &[(SiteId, SiteId)],
    ) -> Option<f64> {
        assert_ne!(src, dst, "path endpoints must differ");
        self.searches += 1;
        let mut bound = f64::MAX;
        if self.aimed != Some(dst) {
            self.unaim();
        } else {
            let feasible = self.run(src, Some(dst), banned_moves, f64::MAX, true);
            self.reset();
            // The slack covers the rounding between one route's weight
            // summed from either end.
            bound = feasible? * (1.0 + 1e-9);
        }
        let found = self.run(src, Some(dst), banned_moves, bound, false);
        self.reset();
        found
    }

    /// Aims the finder at `dst`: `toward` becomes every site's distance
    /// to it under the fibers banned now — a lower bound for as long
    /// as bans are only added.
    fn aim(&mut self, dst: SiteId) {
        self.unaim();
        self.run(dst, None, &[], f64::MAX, false);
        self.toward.copy_from_slice(&self.dist);
        self.reset();
        self.aimed = Some(dst);
    }

    fn unaim(&mut self) {
        if self.aimed.take().is_some() {
            self.toward.fill(0.0);
        }
    }

    /// The Dijkstra loop: settles sites from `src` until `dst` does
    /// (returning its distance) or none is left, never entering a site
    /// from which `dst` is farther than `bound` allows. `goal_directed`
    /// settles in order of distance plus `toward` instead of distance.
    fn run(
        &mut self,
        src: SiteId,
        dst: Option<SiteId>,
        banned_moves: &[(SiteId, SiteId)],
        bound: f64,
        goal_directed: bool,
    ) -> Option<f64> {
        let lift = |toward: &[f64], s: SiteId| {
            if goal_directed {
                toward[s.index()]
            } else {
                0.0
            }
        };
        self.dist[src.index()] = 0.0;
        self.touched.push(src);
        self.heap
            .push(Reverse((lift(&self.toward, src).to_bits(), src)));
        while let Some(Reverse((key, site))) = self.heap.pop() {
            let d = self.dist[site.index()];
            if f64::from_bits(key) > d + lift(&self.toward, site) {
                continue;
            }
            if Some(site) == dst {
                return Some(d);
            }
            let moves_here = banned_moves.iter().any(|m| m.0 == site);
            for e in &self.edges[self.first[site.index()]..self.first[site.index() + 1]] {
                let nd = d + e.weight;
                let seen = &mut self.dist[e.next.index()];
                if nd < *seen
                    && nd + self.toward[e.next.index()] <= bound
                    && !(moves_here && banned_moves.contains(&(site, e.next)))
                {
                    if seen.is_infinite() {
                        self.touched.push(e.next);
                    }
                    *seen = nd;
                    self.prev[e.next.index()] = (site, e.link);
                    self.heap.push(Reverse((
                        (nd + lift(&self.toward, e.next)).to_bits(),
                        e.next,
                    )));
                }
            }
        }
        None
    }

    /// Puts the buffers back as a search expects them.
    fn reset(&mut self) {
        self.heap.clear();
        for s in self.touched.drain(..) {
            self.dist[s.index()] = f64::INFINITY;
        }
    }

    /// Appends the route the last search found, after `src` up to and
    /// including `dst`.
    fn append_route(
        &self,
        src: SiteId,
        dst: SiteId,
        sites: &mut Vec<SiteId>,
        links: &mut Vec<LinkId>,
    ) {
        let (s0, l0) = (sites.len(), links.len());
        let mut cur = dst;
        while cur != src {
            let (p, l) = self.prev[cur.index()];
            sites.push(cur);
            links.push(l);
            cur = p;
        }
        sites[s0..].reverse();
        links[l0..].reverse();
    }

    /// The path of the last search, which returned `weight`.
    fn found(&self, src: SiteId, dst: SiteId, weight: f64) -> Path {
        let mut sites = vec![src];
        let mut links = Vec::new();
        self.append_route(src, dst, &mut sites, &mut links);
        Path {
            sites,
            links,
            weight,
        }
    }

    /// Bans (or frees) every link riding on one of `fibers`.
    fn set_fibers_banned(&mut self, fibers: impl IntoIterator<Item = FiberId>, banned: bool) {
        for f in fibers {
            for l in self.net.links_on_fiber(f) {
                let weight = if banned {
                    f64::INFINITY
                } else {
                    self.weight[l.index()]
                };
                for e in self.edges_of[l.index()] {
                    self.edges[e].weight = weight;
                }
            }
        }
    }

    fn set_path_banned(&mut self, path: &Path, banned: bool) {
        let net = self.net;
        let fibers = path
            .links
            .iter()
            .flat_map(|&l| net.link(l).fibers.iter().copied());
        self.set_fibers_banned(fibers, banned);
    }

    fn set_site_banned(&mut self, site: SiteId, banned: bool) {
        self.dist[site.index()] = if banned {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
    }

    /// One search under the caller's bans, which are lifted again.
    fn shortest_path_avoiding(
        &mut self,
        src: SiteId,
        dst: SiteId,
        banned_fibers: &HashSet<FiberId>,
        banned_moves: &HashSet<(SiteId, SiteId)>,
        banned_sites: &HashSet<SiteId>,
    ) -> Option<Path> {
        let moves: Vec<_> = banned_moves.iter().copied().collect();
        self.set_fibers_banned(banned_fibers.iter().copied(), true);
        banned_sites
            .iter()
            .for_each(|&s| self.set_site_banned(s, true));
        let weight = self.search(src, dst, &moves);
        banned_sites
            .iter()
            .for_each(|&s| self.set_site_banned(s, false));
        self.set_fibers_banned(banned_fibers.iter().copied(), false);
        weight.map(|w| self.found(src, dst, w))
    }

    /// Yen's algorithm: up to `k` loop-free shortest paths from `src` to
    /// `dst`, sorted by weight, avoiding `banned_fibers` entirely (used
    /// by Algorithm 1 to route around a degraded fiber).
    pub fn k_shortest_paths_avoiding(
        &mut self,
        src: SiteId,
        dst: SiteId,
        k: usize,
        banned_fibers: &HashSet<FiberId>,
    ) -> Vec<Path> {
        self.set_fibers_banned(banned_fibers.iter().copied(), true);
        let paths = self.k_shortest_paths(src, dst, k);
        self.set_fibers_banned(banned_fibers.iter().copied(), false);
        // Aimed under bans that are gone now.
        self.unaim();
        paths
    }

    /// Yen's algorithm under whatever fibers are banned now, with
    /// Lawler's rule: an accepted path spurs only from the index it
    /// deviated at onwards. Before that index its root and the moves
    /// banned there are those of a search already run, whose result is
    /// already accepted or a candidate.
    pub(crate) fn k_shortest_paths(&mut self, src: SiteId, dst: SiteId, k: usize) -> Vec<Path> {
        assert!(k >= 1, "k must be >= 1");
        if k > 1 && self.aimed != Some(dst) {
            self.aim(dst);
        }
        let Some(weight) = self.search(src, dst, &[]) else {
            return Vec::new();
        };
        let mut result = vec![self.found(src, dst, weight)];
        let mut deviation = 0;
        // Keyed `(weight bits, sites)`: the lightest candidate, ties
        // broken on sites, is the first entry. A site route has one
        // link choice and so one weight, which makes a key collision
        // exactly a duplicate route. The value is the links and the
        // spur index the route was found at.
        let mut candidates: BTreeMap<(u64, Vec<SiteId>), (Vec<LinkId>, usize)> = BTreeMap::new();
        let mut banned_moves = Vec::new();
        while result.len() < k {
            let last = result.last().expect("at least one accepted path");
            // For each spur node of the previous path, ban the moves
            // taken from it by accepted paths sharing the root (parallel
            // links are one move) and the root's interior sites, then
            // search for a spur path.
            for &s in &last.sites[..deviation] {
                self.set_site_banned(s, true);
            }
            let mut root_weight = last.links[..deviation]
                .iter()
                .fold(0.0, |w, l| w + self.weight[l.index()]);
            for i in deviation..last.links.len() {
                let spur = last.sites[i];
                banned_moves.clear();
                for p in &result {
                    if p.sites.len() > i + 1 && p.sites[..=i] == last.sites[..=i] {
                        banned_moves.push((spur, p.sites[i + 1]));
                    }
                }
                if self.search(spur, dst, &banned_moves).is_some() {
                    let mut sites = last.sites[..=i].to_vec();
                    let mut links = last.links[..i].to_vec();
                    self.append_route(spur, dst, &mut sites, &mut links);
                    // Summed link by link from the source, as a search
                    // from the source would.
                    let weight = links[i..]
                        .iter()
                        .fold(root_weight, |w, l| w + self.weight[l.index()]);
                    if result.iter().all(|p| p.sites != sites) {
                        candidates
                            .entry((weight.to_bits(), sites))
                            .or_insert((links, i));
                    }
                }
                self.set_site_banned(spur, true);
                root_weight += self.weight[last.links[i].index()];
            }
            for &s in &last.sites {
                self.set_site_banned(s, false);
            }
            let Some(((bits, sites), (links, spur_index))) = candidates.pop_first() else {
                break;
            };
            result.push(Path {
                sites,
                links,
                weight: f64::from_bits(bits),
            });
            deviation = spur_index;
        }
        result
    }

    fn fiber_disjoint_paths(&mut self, src: SiteId, dst: SiteId, k: usize) -> Vec<Path> {
        let seeds = self.k_shortest_paths(src, dst, DISJOINT_SEEDS);
        self.disjoint_from(&seeds, k)
    }

    /// The fiber-disjoint growth (see [`fiber_disjoint_paths`]) from
    /// each of `seeds`, which are the shortest paths of one site pair.
    pub(crate) fn disjoint_from(&mut self, seeds: &[Path], k: usize) -> Vec<Path> {
        assert!(k >= 1);
        let mut best: Vec<Path> = Vec::new();
        let mut best_weight = f64::INFINITY;
        for seed in seeds {
            let mut cur = vec![seed.clone()];
            self.set_path_banned(seed, true);
            while cur.len() < k {
                let Some(weight) = self.search(seed.src(), seed.dst(), &[]) else {
                    break;
                };
                let p = self.found(seed.src(), seed.dst(), weight);
                self.set_path_banned(&p, true);
                cur.push(p);
            }
            for p in &cur {
                self.set_path_banned(p, false);
            }
            let total: f64 = cur.iter().map(|p| p.weight).sum();
            if cur.len() > best.len() || (cur.len() == best.len() && total < best_weight) {
                best_weight = total;
                best = cur;
            }
        }
        best
    }
}

/// Dijkstra shortest path from `src` to `dst`, ignoring any link that
/// rides on a banned fiber, any banned directed site-move, or any
/// banned site. Returns `None` when `dst` is unreachable under the bans.
pub fn shortest_path_avoiding(
    net: &Network,
    src: SiteId,
    dst: SiteId,
    banned_fibers: &HashSet<FiberId>,
    banned_moves: &HashSet<(SiteId, SiteId)>,
    banned_sites: &HashSet<SiteId>,
) -> Option<Path> {
    PathFinder::new(net).shortest_path_avoiding(src, dst, banned_fibers, banned_moves, banned_sites)
}

/// Plain shortest path (no bans).
pub fn shortest_path(net: &Network, src: SiteId, dst: SiteId) -> Option<Path> {
    shortest_path_avoiding(
        net,
        src,
        dst,
        &HashSet::new(),
        &HashSet::new(),
        &HashSet::new(),
    )
}

/// [`PathFinder::k_shortest_paths_avoiding`] on a finder of its own.
pub fn k_shortest_paths_avoiding(
    net: &Network,
    src: SiteId,
    dst: SiteId,
    k: usize,
    banned_fibers: &HashSet<FiberId>,
) -> Vec<Path> {
    PathFinder::new(net).k_shortest_paths_avoiding(src, dst, k, banned_fibers)
}

/// Yen's k-shortest paths without fiber bans.
pub fn k_shortest_paths(net: &Network, src: SiteId, dst: SiteId, k: usize) -> Vec<Path> {
    PathFinder::new(net).k_shortest_paths(src, dst, k)
}

/// Fiber-disjoint routing: grows a disjoint path set greedily —
/// shortest path first, its fibers banned for the next search — but
/// restarts the growth from each of the first few shortest paths and
/// keeps the largest (then lightest) set found.
///
/// Plain greedy is not safe here: a single shortest path can zig-zag
/// across every parallel rail of the topology (B4's 0→11 pair does
/// exactly this), stranding a complement that a Suurballe-style
/// rebalancing would find. Restarting from alternative seed paths
/// recovers those pairs whenever any of the seeds belongs to a
/// disjoint set, which covers every mesh topology in this repo.
/// Returns at most `k` mutually fiber-disjoint paths.
pub fn fiber_disjoint_paths(net: &Network, src: SiteId, dst: SiteId, k: usize) -> Vec<Path> {
    PathFinder::new(net).fiber_disjoint_paths(src, dst, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NetworkBuilder;

    /// 4-site diamond: s0—s1—s3 (short) and s0—s2—s3 (long), plus a
    /// direct long fiber s0—s3.
    fn diamond() -> Network {
        let mut b = NetworkBuilder::new("diamond");
        let s0 = b.site("s0", 0);
        let s1 = b.site("s1", 0);
        let s2 = b.site("s2", 0);
        let s3 = b.site("s3", 0);
        let f01 = b.fiber(s0, s1, 10.0, 0);
        let f13 = b.fiber(s1, s3, 10.0, 0);
        let f02 = b.fiber(s0, s2, 20.0, 0);
        let f23 = b.fiber(s2, s3, 20.0, 0);
        let f03 = b.fiber(s0, s3, 100.0, 0);
        for f in [f01, f13, f02, f23, f03] {
            b.link_on(f, 100.0);
        }
        b.build()
    }

    #[test]
    fn shortest_takes_short_route() {
        let n = diamond();
        let p = shortest_path(&n, SiteId(0), SiteId(3)).unwrap();
        assert_eq!(p.sites, vec![SiteId(0), SiteId(1), SiteId(3)]);
        assert_eq!(p.hops(), 2);
        assert!((p.weight - 22.0).abs() < 1e-9); // 10+10 km + 2 hop penalties
    }

    #[test]
    fn yen_orders_by_weight() {
        let n = diamond();
        let ps = k_shortest_paths(&n, SiteId(0), SiteId(3), 3);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].sites, vec![SiteId(0), SiteId(1), SiteId(3)]);
        assert_eq!(ps[1].sites, vec![SiteId(0), SiteId(2), SiteId(3)]);
        assert_eq!(ps[2].sites, vec![SiteId(0), SiteId(3)]);
        assert!(ps[0].weight <= ps[1].weight && ps[1].weight <= ps[2].weight);
    }

    #[test]
    fn yen_paths_are_loop_free_and_distinct() {
        let n = diamond();
        let ps = k_shortest_paths(&n, SiteId(0), SiteId(3), 10);
        assert_eq!(ps.len(), 3, "diamond has exactly 3 simple s0→s3 paths");
        for p in &ps {
            let mut seen = HashSet::new();
            assert!(
                p.sites.iter().all(|s| seen.insert(*s)),
                "loop in {:?}",
                p.sites
            );
        }
    }

    #[test]
    fn disjoint_paths_share_no_fiber() {
        let n = diamond();
        let ps = fiber_disjoint_paths(&n, SiteId(0), SiteId(3), 5);
        assert_eq!(ps.len(), 3);
        let mut all = HashSet::new();
        for p in &ps {
            for f in p.fibers(&n) {
                assert!(all.insert(f), "fiber {f} reused");
            }
        }
    }

    #[test]
    fn avoiding_fiber_routes_around() {
        let n = diamond();
        let banned: HashSet<FiberId> = [FiberId(0)].into_iter().collect(); // s0—s1
        let p = shortest_path_avoiding(
            &n,
            SiteId(0),
            SiteId(3),
            &banned,
            &HashSet::new(),
            &HashSet::new(),
        )
        .unwrap();
        assert!(!p.uses_fiber(&n, FiberId(0)));
        assert_eq!(p.sites, vec![SiteId(0), SiteId(2), SiteId(3)]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = NetworkBuilder::new("pair");
        let s0 = b.site("s0", 0);
        let s1 = b.site("s1", 0);
        let f = b.fiber(s0, s1, 5.0, 0);
        b.link_on(f, 10.0);
        let n = b.build();
        let banned: HashSet<FiberId> = [f].into_iter().collect();
        assert!(
            shortest_path_avoiding(&n, s0, s1, &banned, &HashSet::new(), &HashSet::new()).is_none()
        );
    }
}
