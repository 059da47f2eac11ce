//! Seeded parametric WAN topology generation.
//!
//! The three Table 3 topologies ([`crate::topologies`]) top out at 25
//! sites, which never exercises the combinatorial scenario blow-up the
//! Benders decomposition exists to tame. This module grows synthetic
//! WANs of 100–1000 nodes from two families, with degree, fiber-length
//! and parallel-link distributions calibrated to the B4/IBM/TWAN table:
//!
//! * **Waxman** ([`GenFamily::Waxman`]) — sites placed uniformly on a
//!   continental plane, a seeded spanning backbone for connectivity,
//!   then extra fibers with the classic locality-biased Waxman
//!   probability `∝ exp(-d / (β·L))`, normalized so the expected fiber
//!   degree stays near the table's 2.6–4.0 regardless of size.
//! * **Ring-with-chords** ([`GenFamily::RingChords`]) — a metro-style
//!   ring plus seeded long-haul chords, the worst case for shared-fate
//!   scenario analysis (every chord is a high-betweenness shortcut).
//!
//! Generation is a pure function of `(family, size, seed)`: no global
//! RNG, no wall clock, no thread dependence — the determinism proptest
//! in `tests/properties.rs` pins byte-identical output across thread
//! counts, and `tests/fixtures/golden_gen_*.json` pin the exact graphs
//! against drift.

use crate::graph::{Network, NetworkBuilder};
use crate::ids::{FiberId, SiteId};
use crate::topologies::LINK_CAPACITY_GBPS;

/// Topology family for [`generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenFamily {
    /// Waxman random graph over a seeded site placement.
    Waxman,
    /// Ring backbone with seeded long-haul chords.
    RingChords,
}

impl GenFamily {
    /// Short family tag used in spec strings and generated names.
    pub fn tag(&self) -> &'static str {
        match self {
            GenFamily::Waxman => "waxman",
            GenFamily::RingChords => "ring",
        }
    }
}

/// A parsed generator specification: family, node count, seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenSpec {
    /// Which family to grow.
    pub family: GenFamily,
    /// Number of sites (4–1000; the distributions are calibrated for
    /// the 100–1000 range).
    pub nodes: usize,
    /// Generation seed; same `(family, nodes, seed)` → identical graph.
    pub seed: u64,
}

impl GenSpec {
    /// Parses a `gen:<family>:<nodes>[:<seed>]` spec string, e.g.
    /// `gen:waxman:200` or `gen:ring:400:7`. Returns `None` when the
    /// string is not a generator spec or is malformed.
    pub fn parse(spec: &str) -> Option<GenSpec> {
        let rest = spec.strip_prefix("gen:")?;
        let mut parts = rest.split(':');
        let family = match parts.next()? {
            "waxman" => GenFamily::Waxman,
            "ring" => GenFamily::RingChords,
            _ => return None,
        };
        let nodes: usize = parts.next()?.parse().ok()?;
        let seed: u64 = match parts.next() {
            Some(s) => s.parse().ok()?,
            None => 42,
        };
        if parts.next().is_some() || !(4..=1000).contains(&nodes) {
            return None;
        }
        Some(GenSpec {
            family,
            nodes,
            seed,
        })
    }

    /// Canonical topology name (`gen-waxman-200-s42`).
    pub fn name(&self) -> String {
        format!("gen-{}-{}-s{}", self.family.tag(), self.nodes, self.seed)
    }
}

/// Splitmix64: the repo's standard seed-expansion / local-RNG step.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic local RNG (no external dependency, identical on every
/// platform).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }
    fn next(&mut self) -> u64 {
        splitmix(&mut self.0)
    }
    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    /// Uniform in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Side of the square site-placement plane (km). Continental scale, so
/// Euclidean fiber lengths land in the 80–2500 km band of
/// `topologies::span_length`.
const PLANE_KM: f64 = 4200.0;
/// Waxman locality parameter: characteristic fiber length as a fraction
/// of the plane diagonal.
const WAXMAN_BETA: f64 = 0.14;
/// Expected extra (non-backbone) fibers per node. Backbone contributes
/// degree ≈ 2, extras push the mean fiber degree to ≈ 3.3 — inside the
/// B4 (3.2) / IBM (2.6) / TWAN (4.0) band.
const EXTRA_FIBERS_PER_NODE: f64 = 0.65;
/// Chords per node for the ring family (TWAN-like express density).
const CHORDS_PER_NODE: f64 = 0.35;

/// Parallel IP links riding one fiber: distribution with mean ≈ 2.9,
/// matching the table's links-per-fiber ratios (B4 52/19 ≈ 2.7,
/// IBM 85/23 ≈ 3.7, TWAN ≈ 2.1).
fn links_per_fiber(rng: &mut Rng) -> usize {
    let r = rng.unit();
    if r < 0.40 {
        2
    } else if r < 0.75 {
        3
    } else if r < 0.92 {
        4
    } else {
        5
    }
}

fn dist(p: (f64, f64), q: (f64, f64)) -> f64 {
    ((p.0 - q.0).powi(2) + (p.1 - q.1).powi(2)).sqrt()
}

/// Fiber length from site geometry: Euclidean distance inflated by a
/// routing factor, clamped to the table's 80 km minimum span.
fn fiber_km(d: f64) -> f64 {
    (d * 1.25).max(80.0)
}

/// Grows the network described by `spec`. Pure function of the spec —
/// see the module docs for the determinism contract.
///
/// # Panics
/// Panics when `spec.nodes` is outside `4..=1000` (the [`GenSpec::parse`]
/// contract, enforced for hand-built specs too).
pub fn generate(spec: &GenSpec) -> Network {
    assert!(
        (4..=1000).contains(&spec.nodes),
        "generator supports 4..=1000 nodes, got {}",
        spec.nodes
    );
    let mut rng = Rng::new(
        spec.seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(spec.nodes as u64)
            .wrapping_add(match spec.family {
                GenFamily::Waxman => 0x57a5,
                GenFamily::RingChords => 0x2177,
            }),
    );
    let n = spec.nodes;
    let mut b = NetworkBuilder::new(spec.name());

    // Site placement. Waxman scatters over the plane; the ring places
    // sites around a circle so ring fibers have honest geometry.
    let pos: Vec<(f64, f64)> = match spec.family {
        GenFamily::Waxman => (0..n)
            .map(|_| (rng.unit() * PLANE_KM, rng.unit() * PLANE_KM))
            .collect(),
        GenFamily::RingChords => {
            // Perimeter spacing ~150 km between ring neighbors.
            let r = n as f64 * 150.0 / (2.0 * std::f64::consts::PI);
            (0..n)
                .map(|i| {
                    let th = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                    (r * th.cos(), r * th.sin())
                })
                .collect()
        }
    };
    let sites: Vec<SiteId> = (0..n)
        .map(|i| {
            // Region = plane quadrant (Waxman) / arc quarter (ring),
            // so the optical dataset's per-region weather features
            // stay meaningful on generated WANs.
            let region = match spec.family {
                GenFamily::Waxman => {
                    (pos[i].0 > PLANE_KM / 2.0) as usize * 2 + (pos[i].1 > PLANE_KM / 2.0) as usize
                }
                GenFamily::RingChords => i * 4 / n,
            };
            b.site(format!("g{i:04}"), region)
        })
        .collect();

    let mut fibers: Vec<FiberId> = Vec::new();
    let mut have: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    let add_fiber = |b: &mut NetworkBuilder,
                     rng: &mut Rng,
                     have: &mut std::collections::HashSet<(usize, usize)>,
                     i: usize,
                     j: usize|
     -> Option<FiberId> {
        let key = (i.min(j), i.max(j));
        if i == j || !have.insert(key) {
            return None;
        }
        let vendor = rng.below(3);
        Some(b.fiber(sites[i], sites[j], fiber_km(dist(pos[i], pos[j])), vendor))
    };

    match spec.family {
        GenFamily::Waxman => {
            // Spanning backbone: each new site attaches to the nearest
            // of three seeded candidates among the already-connected —
            // guarantees connectivity with locality, without the O(n²)
            // sort a true nearest-neighbor tree would need.
            for i in 1..n {
                let mut best = rng.below(i);
                let mut best_d = dist(pos[i], pos[best]);
                for _ in 0..2 {
                    let c = rng.below(i);
                    let d = dist(pos[i], pos[c]);
                    if d < best_d {
                        best = c;
                        best_d = d;
                    }
                }
                if let Some(f) = add_fiber(&mut b, &mut rng, &mut have, i, best) {
                    fibers.push(f);
                }
            }
            // Waxman extras, normalized so the expected count is
            // EXTRA_FIBERS_PER_NODE · n at every size (the classic
            // α·exp(-d/βL) is quadratic in n unless α shrinks with it).
            let diag = PLANE_KM * std::f64::consts::SQRT_2;
            let mut weights: Vec<(usize, usize, f64)> = Vec::new();
            let mut total = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    let w = (-dist(pos[i], pos[j]) / (WAXMAN_BETA * diag)).exp();
                    weights.push((i, j, w));
                    total += w;
                }
            }
            let target = EXTRA_FIBERS_PER_NODE * n as f64;
            for &(i, j, w) in &weights {
                if rng.unit() < (target * w / total).min(1.0) {
                    if let Some(f) = add_fiber(&mut b, &mut rng, &mut have, i, j) {
                        fibers.push(f);
                    }
                }
            }
        }
        GenFamily::RingChords => {
            for i in 0..n {
                if let Some(f) = add_fiber(&mut b, &mut rng, &mut have, i, (i + 1) % n) {
                    fibers.push(f);
                }
            }
            let chords = ((CHORDS_PER_NODE * n as f64).round() as usize).max(1);
            for _ in 0..chords {
                let i = rng.below(n);
                // Ring offset in [2, n/2]: a genuine shortcut, never a
                // parallel of a ring fiber.
                let off = 2 + rng.below((n / 2).saturating_sub(1).max(1));
                let j = (i + off) % n;
                if let Some(f) = add_fiber(&mut b, &mut rng, &mut have, i, j) {
                    fibers.push(f);
                }
            }
        }
    }

    // IP layer: parallel wavelength links per fiber (table-calibrated
    // counts), plus a sprinkling of two-span express links as in TWAN
    // (5 express per 50 fibers → 1 per 10).
    for &f in &fibers {
        for _ in 0..links_per_fiber(&mut rng) {
            b.link_on(f, LINK_CAPACITY_GBPS);
        }
    }
    let mut incident: Vec<Vec<FiberId>> = vec![Vec::new(); n];
    for &f in &fibers {
        let (a, z) = b.fiber_endpoints(f);
        incident[a.index()].push(f);
        incident[z.index()].push(f);
    }
    let express = fibers.len() / 10;
    for _ in 0..express {
        let s = rng.below(n);
        if incident[s].len() < 2 {
            continue;
        }
        let f1 = incident[s][rng.below(incident[s].len())];
        let f2 = incident[s][rng.below(incident[s].len())];
        if f1 == f2 {
            continue;
        }
        let far = |f: FiberId| {
            let (a, z) = b.fiber_endpoints(f);
            if a == sites[s] {
                z
            } else {
                a
            }
        };
        let (u, w) = (far(f1), far(f2));
        if u != w {
            b.link(u, w, LINK_CAPACITY_GBPS, vec![f1, f2]);
        }
    }
    b.build()
}

/// FNV-1a digest of the full graph structure (sites, fibers with
/// bit-exact lengths, links with bit-exact capacities and fiber
/// mappings). Two networks digest equal iff they are byte-identical
/// under the canonical encoding — the determinism proptest and the
/// golden generator fixtures both pin this value.
pub fn digest(net: &Network) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &x in bytes {
            h ^= x as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(net.name.as_bytes());
    eat(&(net.num_sites() as u64).to_le_bytes());
    eat(&(net.num_fibers() as u64).to_le_bytes());
    eat(&(net.num_links() as u64).to_le_bytes());
    for s in net.sites() {
        eat(s.name.as_bytes());
        eat(&(s.region as u64).to_le_bytes());
    }
    for f in net.fibers() {
        eat(&(f.a.index() as u64).to_le_bytes());
        eat(&(f.b.index() as u64).to_le_bytes());
        eat(&f.length_km.to_bits().to_le_bytes());
        eat(&(f.vendor as u64).to_le_bytes());
    }
    for l in net.links() {
        eat(&(l.a.index() as u64).to_le_bytes());
        eat(&(l.b.index() as u64).to_le_bytes());
        eat(&l.capacity_gbps.to_bits().to_le_bytes());
        for fb in &l.fibers {
            eat(&(fb.index() as u64).to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_specs() {
        let s = GenSpec::parse("gen:waxman:200").expect("valid");
        assert_eq!(
            s,
            GenSpec {
                family: GenFamily::Waxman,
                nodes: 200,
                seed: 42
            }
        );
        let s = GenSpec::parse("gen:ring:400:7").expect("valid");
        assert_eq!(
            s,
            GenSpec {
                family: GenFamily::RingChords,
                nodes: 400,
                seed: 7
            }
        );
        assert!(GenSpec::parse("twan").is_none());
        assert!(GenSpec::parse("gen:waxman:2").is_none());
        assert!(GenSpec::parse("gen:waxman:2000").is_none());
        assert!(GenSpec::parse("gen:grid:100").is_none());
        assert!(GenSpec::parse("gen:waxman:100:1:extra").is_none());
    }

    #[test]
    fn waxman_is_calibrated() {
        let net = generate(&GenSpec {
            family: GenFamily::Waxman,
            nodes: 200,
            seed: 42,
        });
        assert_eq!(net.num_sites(), 200);
        // Mean fiber degree in the Table 3 band (B4 3.2 / IBM 2.6 /
        // TWAN 4.0).
        let deg = 2.0 * net.num_fibers() as f64 / net.num_sites() as f64;
        assert!((2.2..=4.5).contains(&deg), "fiber degree {deg}");
        // Links per fiber near the table's 2.1–3.7 ratios.
        let lpf = net.num_links() as f64 / net.num_fibers() as f64;
        assert!((2.0..=4.0).contains(&lpf), "links per fiber {lpf}");
        // Span lengths inside the table's 80–2500 km band (express
        // links may ride longer two-span paths; fibers may not).
        for f in net.fibers() {
            assert!(f.length_km >= 80.0, "span under 80 km");
            assert!(f.length_km <= 2.0 * 4200.0, "span absurdly long");
        }
    }

    #[test]
    fn ring_is_connected_and_chorded() {
        let net = generate(&GenSpec {
            family: GenFamily::RingChords,
            nodes: 100,
            seed: 1,
        });
        assert_eq!(net.num_sites(), 100);
        // Ring (100) + ~35 chords, minus occasional duplicates.
        assert!(net.num_fibers() > 100, "no chords landed");
        assert!(net.num_fibers() <= 135);
    }

    #[test]
    fn same_spec_same_digest() {
        for spec in [
            GenSpec {
                family: GenFamily::Waxman,
                nodes: 120,
                seed: 9,
            },
            GenSpec {
                family: GenFamily::RingChords,
                nodes: 150,
                seed: 9,
            },
        ] {
            let a = digest(&generate(&spec));
            let b = digest(&generate(&spec));
            assert_eq!(a, b, "{spec:?} not deterministic");
            let other = digest(&generate(&GenSpec {
                seed: spec.seed + 1,
                ..spec
            }));
            assert_ne!(a, other, "{spec:?} ignores the seed");
        }
    }
}
