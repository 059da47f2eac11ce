//! The tunnel sets are part of every workload's input: a path-finding
//! change that moves one tunnel moves pivots, Φ and the served shares
//! everywhere downstream. These tests pin the sets bit for bit, check
//! the path-finder against an enumeration oracle that shares no code
//! with it, and size the survivability gap the scale workload sits on.

pub mod oracle;

use oracle::{ensure, Rng, Sweep};
use prete_core::algorithm1::{update_tunnels, TunnelUpdateConfig};
use prete_topology::generate::generate;
use prete_topology::paths::{
    fiber_disjoint_paths, k_shortest_paths_avoiding, shortest_path_avoiding, PathFinder,
};
use prete_topology::{
    topologies, FiberId, GenSpec, LinkId, Network, NetworkBuilder, SiteId, TunnelSet,
};
use std::collections::HashSet;

/// FNV-1a over every tunnel in id order: its sites, then its links,
/// then the bits of its weight.
fn fingerprint(tunnels: &TunnelSet) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |x: u64| h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
    for t in tunnels.tunnels() {
        t.path.sites.iter().for_each(|s| fold(s.index() as u64));
        t.path.links.iter().for_each(|l| fold(l.index() as u64));
        fold(t.path.weight.to_bits());
    }
    h
}

fn generated(spec: &str) -> Network {
    generate(&GenSpec::parse(spec).expect("a valid generator spec"))
}

fn initial_fingerprint(net: &Network, load: f64) -> u64 {
    let flows = topologies::flows_for(net, load, 42);
    fingerprint(&TunnelSet::initialize(net, &flows, 4))
}

#[test]
fn initial_tunnel_sets_are_pinned() {
    let cases: [(&str, Network, f64, u64); 5] = [
        ("B4", topologies::b4(), 0.08, 0x71e2_ad26_45a3_345d),
        ("IBM", topologies::ibm(), 0.08, 0x61dd_8827_09c6_9f9d),
        ("TWAN", topologies::twan(), 0.08, 0xfe43_d2f4_cc66_24c9),
        (
            "gen:waxman:100",
            generated("gen:waxman:100"),
            0.02,
            0x3dab_edee_bd98_14ae,
        ),
        (
            "gen:ring:100",
            generated("gen:ring:100"),
            0.02,
            0xeb9b_9a3b_2705_273b,
        ),
    ];
    for (name, net, load, want) in cases {
        let got = initial_fingerprint(&net, load);
        assert_eq!(
            got, want,
            "{name}: tunnel set moved, fingerprint {got:#018x}"
        );
    }
}

/// 2 522 flows; 27 s with the old free functions, under a second with
/// the finder, so it can sit in tier-1.
#[test]
fn waxman500_tunnel_set_is_pinned() {
    let got = initial_fingerprint(&generated("gen:waxman:500"), 0.02);
    assert_eq!(got, 0xc25c_9292_c02f_452f, "fingerprint {got:#018x}");
}

#[test]
fn algorithm1_updates_are_pinned() {
    let net = topologies::twan();
    let flows = topologies::flows_for(&net, 0.08, 42);
    let base = TunnelSet::initialize(&net, &flows, 4);
    for (fiber, want_new, want) in [
        (0usize, 38usize, 0x8844_fc74_9c3c_1cc3u64),
        (17, 8, 0xc347_11d7_f89e_bb4d),
        (34, 15, 0xd493_020e_d4dd_950d),
    ] {
        let mut tunnels = base.clone();
        let created = update_tunnels(
            &net,
            &mut tunnels,
            FiberId(fiber),
            TunnelUpdateConfig::default(),
        );
        let got = fingerprint(&tunnels);
        assert_eq!(
            (created.len(), got),
            (want_new, want),
            "fiber {fiber}: reactive tunnels moved, fingerprint {got:#018x}"
        );
    }
}

/// ROADMAP item 9, sized: why `scale-waxman100` reads `served_share_phi`
/// = 0.17. Closing the gap changes tunnels and is that item's own PR;
/// this only keeps the counts honest until then.
#[test]
fn waxman100_survivability_gap_is_mostly_the_greedy_restarts() {
    let net = generated("gen:waxman:100");
    let flows = topologies::flows_for(&net, 0.02, 42);
    let tunnels = TunnelSet::initialize(&net, &flows, 4);
    let violations = tunnels.survivability_violations(&net);
    let flows_hit: HashSet<_> = violations.iter().map(|&(f, _)| f).collect();
    let none = HashSet::new();
    let with_detour = violations
        .iter()
        .filter(|&&(f, fiber)| {
            let flow = &flows[f.index()];
            let banned = HashSet::from([fiber]);
            shortest_path_avoiding(&net, flow.src, flow.dst, &banned, &none, &HashSet::new())
                .is_some()
        })
        .count();
    assert_eq!(
        (flows.len(), violations.len(), flows_hit.len()),
        (481, 558, 245)
    );
    // 258 pairs have a detour the disjoint search missed; for the other
    // 300 the fiber is a bridge between the flow's endpoints.
    assert_eq!((with_detour, violations.len() - with_detour), (258, 300));
    for (name, net) in [
        ("B4", topologies::b4()),
        ("IBM", topologies::ibm()),
        ("TWAN", topologies::twan()),
        ("gen:ring:100", generated("gen:ring:100")),
    ] {
        let load = if name.starts_with("gen:") { 0.02 } else { 0.08 };
        let flows = topologies::flows_for(&net, load, 42);
        let tunnels = TunnelSet::initialize(&net, &flows, 4);
        assert!(tunnels.survivability_violations(&net).is_empty(), "{name}");
    }
}

/// A connected multigraph on 4–8 sites: a random spanning tree, extra
/// fibers (parallel spans allowed), one or two IP links per fiber and a
/// few two-span express links. Lengths are continuous, so two distinct
/// site routes tie in weight with probability zero.
fn random_multigraph(rng: &mut Rng) -> Network {
    let n = 4 + rng.below(5);
    let mut b = NetworkBuilder::new("oracle");
    let sites: Vec<SiteId> = (0..n).map(|i| b.site(format!("s{i}"), 0)).collect();
    let mut fibers = Vec::new();
    for i in 1..n {
        let j = rng.below(i);
        fibers.push(b.fiber(sites[i], sites[j], 1.0 + 99.0 * rng.unit(), 0));
    }
    for _ in 0..rng.below(2 * n) {
        let a = rng.below(n);
        let c = (a + 1 + rng.below(n - 1)) % n;
        fibers.push(b.fiber(sites[a], sites[c], 1.0 + 99.0 * rng.unit(), 0));
    }
    for &f in &fibers {
        for _ in 0..1 + rng.below(2) {
            b.link_on(f, 100.0);
        }
    }
    for _ in 0..rng.below(3) {
        let f1 = fibers[rng.below(fibers.len())];
        let f2 = fibers[rng.below(fibers.len())];
        let (a1, b1) = b.fiber_endpoints(f1);
        let (a2, b2) = b.fiber_endpoints(f2);
        // Two spans sharing exactly one site make an express link
        // between their far ends.
        let ends = [
            (a1, b1, a2, b2),
            (a1, b1, b2, a2),
            (b1, a1, a2, b2),
            (b1, a1, b2, a2),
        ];
        if let Some(&(u, _, _, w)) = ends.iter().find(|&&(u, m1, m2, w)| m1 == m2 && u != w) {
            b.link(u, w, 100.0, vec![f1, f2]);
        }
    }
    b.build()
}

fn link_weight(net: &Network, l: LinkId) -> f64 {
    net.link(l)
        .fibers
        .iter()
        .map(|&f| net.fiber(f).length_km)
        .sum::<f64>()
        + 1.0
}

/// The lightest usable link of the hop `a → b`, if any.
fn hop_weight(net: &Network, a: SiteId, b: SiteId, banned: &HashSet<FiberId>) -> Option<f64> {
    net.links_between(a, b)
        .into_iter()
        .filter(|&l| net.link(l).fibers.iter().all(|f| !banned.contains(f)))
        .map(|l| link_weight(net, l))
        .min_by(f64::total_cmp)
}

/// Every simple site route `src → dst` with its weight, lightest first.
fn all_routes(
    net: &Network,
    src: SiteId,
    dst: SiteId,
    banned: &HashSet<FiberId>,
) -> Vec<(f64, Vec<SiteId>)> {
    fn dfs(
        net: &Network,
        dst: SiteId,
        banned: &HashSet<FiberId>,
        route: &mut Vec<SiteId>,
        weight: f64,
        out: &mut Vec<(f64, Vec<SiteId>)>,
    ) {
        let here = *route.last().expect("the route starts at src");
        if here == dst {
            out.push((weight, route.clone()));
            return;
        }
        for next in 0..net.num_sites() {
            let next = SiteId(next);
            if route.contains(&next) {
                continue;
            }
            if let Some(w) = hop_weight(net, here, next, banned) {
                route.push(next);
                dfs(net, dst, banned, route, weight + w, out);
                route.pop();
            }
        }
    }
    let mut out = Vec::new();
    dfs(net, dst, banned, &mut vec![src], 0.0, &mut out);
    out.sort_by(|x, y| x.0.total_cmp(&y.0).then_with(|| x.1.cmp(&y.1)));
    out
}

/// One path query: source, destination, banned fibers and `k`.
type Query = (SiteId, SiteId, HashSet<FiberId>, usize);

/// Each graph answers three queries on one finder — two towards the
/// same destination under different bans, then another destination —
/// so bans or bounds left over from one query would show in the next.
#[test]
fn yen_returns_exactly_the_k_lightest_simple_routes() {
    let seed = 0x5eed_0a11;
    let mut rng = Rng(seed);
    let generate = |_, _| {
        let net = random_multigraph(&mut rng);
        let n = net.num_sites();
        let mut dst = SiteId(rng.below(n));
        let queries: Vec<Query> = (0..3)
            .map(|query| {
                if query == 2 {
                    dst = SiteId((dst.index() + 1 + rng.below(n - 1)) % n);
                }
                let src = SiteId((dst.index() + 1 + rng.below(n - 1)) % n);
                let banned: HashSet<FiberId> = (0..rng.below(4))
                    .map(|_| FiberId(rng.below(net.num_fibers())))
                    .collect();
                let k = 1 + rng.below(8);
                (src, dst, banned, k)
            })
            .collect();
        (net, queries)
    };
    let mut checked = 0;
    let verdict = |(net, queries): &(Network, Vec<Query>), ()| {
        let mut finder = PathFinder::new(net);
        for &(src, dst, ref banned, k) in queries {
            let want = all_routes(net, src, dst, banned);
            // Two express links over a shared span can make two routes
            // weigh the same; which comes first is then Dijkstra's
            // settle order, which the oracle does not model.
            let tied = |w: &[(f64, Vec<SiteId>)]| (w[1].0 - w[0].0) < 1e-9 * w[1].0;
            if want.windows(2).take(k).any(tied) {
                continue;
            }
            checked += 1;
            let got = finder.k_shortest_paths_avoiding(src, dst, k, banned);
            let free = k_shortest_paths_avoiding(net, src, dst, k, banned);
            ensure(got == free, || {
                "the finder and the free function differ".into()
            })?;
            ensure(got.len() == want.len().min(k), || {
                format!("count {}", got.len())
            })?;
            for (p, (weight, sites)) in got.iter().zip(&want) {
                ensure(&p.sites == sites, || {
                    format!("route {:?}, want {sites:?}", p.sites)
                })?;
                ensure(p.weight.to_bits() == weight.to_bits(), || {
                    format!("weight {}", p.weight)
                })?;
                ensure(p.links.len() + 1 == p.sites.len(), || "hops".into())?;
                for (hop, &l) in p.sites.windows(2).zip(&p.links) {
                    let link = net.link(l);
                    ensure(
                        (link.a, link.b) == (hop[0], hop[1])
                            || (link.a, link.b) == (hop[1], hop[0]),
                        || "link off the route".into(),
                    )?;
                    ensure(link.fibers.iter().all(|f| !banned.contains(f)), || {
                        "ban".into()
                    })?;
                    ensure(
                        Some(link_weight(net, l)) == hop_weight(net, hop[0], hop[1], banned),
                        || "not the lightest parallel link".into(),
                    )?;
                }
            }
        }
        Ok(())
    };
    let sweep = Sweep {
        generator: "the `random_multigraph` stream in tests/tunnel_paths.rs",
        seed,
        cases: 400,
        configs: &[()],
    };
    let failures = sweep.run(generate, verdict, |case, ()| case.clone());
    assert!(failures.is_empty(), "{failures:?}");
    assert!(
        checked > 1100,
        "only {checked} of 1200 queries were free of ties"
    );
}

#[test]
fn disjoint_paths_are_disjoint_and_no_fewer_than_plain_greedy() {
    let seed = 0xd15_7017;
    let mut rng = Rng(seed);
    let generate = |_, _| {
        let net = random_multigraph(&mut rng);
        let src = SiteId(rng.below(net.num_sites()));
        let dst = SiteId((src.index() + 1 + rng.below(net.num_sites() - 1)) % net.num_sites());
        let k = 1 + rng.below(4);
        (net, src, dst, k)
    };
    let none = HashSet::new();
    let verdict = |&(ref net, src, dst, k): &(Network, SiteId, SiteId, usize), ()| {
        let got = fiber_disjoint_paths(net, src, dst, k);
        let mut used = HashSet::new();
        for p in &got {
            ensure((p.src(), p.dst()) == (src, dst), || "endpoints".into())?;
            for f in p.fibers(net) {
                ensure(used.insert(f), || format!("fiber {f} shared"))?;
            }
        }
        let mut banned = HashSet::new();
        let mut greedy = 0;
        while greedy < k {
            let Some(p) = shortest_path_avoiding(net, src, dst, &banned, &none, &HashSet::new())
            else {
                break;
            };
            banned.extend(p.fibers(net));
            greedy += 1;
        }
        ensure(got.len() >= greedy && got.len() <= k, || {
            format!("{} < {greedy}", got.len())
        })
    };
    let sweep = Sweep {
        generator: "the `random_multigraph` stream in tests/tunnel_paths.rs",
        seed,
        cases: 400,
        configs: &[()],
    };
    let failures = sweep.run(generate, verdict, |case, ()| case.clone());
    assert!(failures.is_empty(), "{failures:?}");
}
