//! Differential oracle suite for the k-cut scenario enumerator and the
//! Benders solves on its output.
//!
//! Two contracts, mirroring the `solver_differential` pattern:
//!
//! * **Powerset oracle** — on fiber counts small enough to brute-force,
//!   the streaming enumerator must match a powerset-filtered
//!   enumeration: identical scenario *sets* and per-scenario
//!   probabilities within float-reassociation tolerance, the mass
//!   invariant `enumerated + truncated_tail = 1 ± ε` for every case,
//!   and — with a bounded buffer — exactly the head the unbounded
//!   enumeration would have sorted first. Failures shrink greedily to a
//!   minimal `(seed, k, floor)` repro.
//! * **Solve differential** — pruned (and tail-sampled) scenario sets
//!   must keep the Benders objective inside the certified sandwich
//!   `Φ_exhaustive(β − tail) ≤ Φ_pruned(β) ≤ Φ_exhaustive(β + tail)`,
//!   with *zero* objective disagreement whenever nothing was actually
//!   pruned.

use prete_core::examples::{triangle, triangle_flows};
use prete_core::prelude::*;
use prete_topology::FiberId;

const SUITE_SEED: u64 = 0x9e37_79b9_2026_0810;
const POWERSET_CASES: usize = 220;
const SOLVE_CASES: usize = 200;

// ---------------------------------------------------------------------------
// Deterministic RNG (splitmix64): (seed, case) reproduces everything.
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x5851_f42d_4c95_7f2d))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------------
// Powerset oracle
// ---------------------------------------------------------------------------

/// One enumeration case the shrinker can mutate.
#[derive(Debug, Clone)]
struct EnumCase {
    probs: Vec<f64>,
    k: usize,
    floor: f64,
}

/// Brute-force enumeration: every subset of the genuinely uncertain
/// fibers with ≤ `k` members, certain (p ≈ 1) fibers forced into every
/// cut, probability as a plain left-to-right product — a float path
/// deliberately different from the enumerator's, so agreement is a
/// two-implementation check, not a tautology.
fn powerset_oracle(probs: &[f64], k: usize) -> Vec<(Vec<FiberId>, f64)> {
    let n = probs.len();
    let certain: Vec<usize> = (0..n).filter(|&i| probs[i] >= 1.0 - 1e-12).collect();
    let uncertain: Vec<usize> =
        (0..n).filter(|&i| probs[i] > 1e-15 && probs[i] < 1.0 - 1e-12).collect();
    let m = uncertain.len();
    assert!(m <= 16, "oracle is exponential; keep cases small");
    let mut out = Vec::new();
    for bits in 0u32..(1u32 << m) {
        if bits.count_ones() as usize > k {
            continue;
        }
        let mut cut: Vec<FiberId> = certain.iter().map(|&i| FiberId(i)).collect();
        let mut prob = 1.0;
        for (pos, &i) in uncertain.iter().enumerate() {
            if bits & (1 << pos) != 0 {
                cut.push(FiberId(i));
                prob *= probs[i];
            } else {
                prob *= 1.0 - probs[i];
            }
        }
        cut.sort();
        out.push((cut, prob));
    }
    out
}

const REL: f64 = 1e-9;

fn rel_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL * (1.0 + a.abs().max(b.abs()))
}

/// Checks one case against the oracle; `Some(reason)` on disagreement.
fn check_enum(case: &EnumCase) -> Option<String> {
    let budget = ScenarioBudget {
        max_cuts: case.k,
        mass_floor: case.floor,
        max_scenarios: usize::MAX,
        tail_samples: 0,
        seed: 0,
    };
    let (set, stats) = ScenarioSet::enumerate_with(&case.probs, &budget);
    // The mass invariant, for every case (satellite: the accounting
    // fix must hold everywhere, not just where debug_assert fires).
    if stats.mass_gap() > 1e-9 {
        return Some(format!(
            "mass invariant broken: enumerated {} + tail {} (gap {:e})",
            stats.enumerated_mass,
            stats.truncated_tail,
            stats.mass_gap()
        ));
    }
    // Ordering: no-failure first, then descending probability with the
    // cut vector as the deterministic tiebreak.
    for w in set.scenarios[1..].windows(2) {
        if w[0].prob < w[1].prob
            || (w[0].prob == w[1].prob && w[0].cut > w[1].cut)
        {
            return Some(format!("ordering violated: {w:?}"));
        }
    }
    let oracle = powerset_oracle(&case.probs, case.k);
    let lookup: std::collections::BTreeMap<&[FiberId], f64> =
        oracle.iter().map(|(c, p)| (c.as_slice(), *p)).collect();
    // Every returned scenario exists in the powerset with the same
    // probability. Scenario 0 is the empty-uncertain-subset entry.
    for q in &set.scenarios {
        let Some(&p) = lookup.get(q.cut.as_slice()) else {
            return Some(format!("scenario {:?} not in the ≤{}-cut powerset", q.cut, case.k));
        };
        if !rel_eq(q.prob, p) {
            return Some(format!(
                "probability mismatch on {:?}: enum {} vs oracle {}",
                q.cut, q.prob, p
            ));
        }
    }
    // Completeness. At floor 0 the match must be exact: same set, same
    // cardinality. Above the floor, allow a relative window around the
    // threshold for the float-path gap, but nothing clearly above the
    // floor may be dropped and nothing clearly below kept.
    if case.floor == 0.0 {
        if set.scenarios.len() != oracle.len() {
            return Some(format!(
                "set cardinality: enum {} vs powerset {}",
                set.scenarios.len(),
                oracle.len()
            ));
        }
    } else {
        let kept: std::collections::BTreeSet<&[FiberId]> =
            set.scenarios.iter().map(|q| q.cut.as_slice()).collect();
        let margin = 1.0 + 1e-6;
        for (cut, p) in &oracle {
            let is_scenario0 =
                *cut == set.scenarios[0].cut;
            if *p > case.floor * margin && !is_scenario0 && !kept.contains(cut.as_slice()) {
                return Some(format!("{cut:?} (p={p}) above floor {} but dropped", case.floor));
            }
            if *p < case.floor / margin && !is_scenario0 && kept.contains(cut.as_slice()) {
                return Some(format!("{cut:?} (p={p}) below floor {} but kept", case.floor));
            }
        }
    }
    // Total mass: the returned scenarios must sum to the oracle mass of
    // the same cut sets (and with floor 0, to the full ≤k-cut mass).
    let enum_mass: f64 = set.scenarios.iter().map(|q| q.prob).sum();
    let oracle_mass: f64 = oracle
        .iter()
        .filter(|(c, _)| set.scenarios.iter().any(|q| &q.cut == c))
        .map(|(_, p)| p)
        .sum();
    if !rel_eq(enum_mass, oracle_mass) {
        return Some(format!("mass mismatch: enum {enum_mass} vs oracle {oracle_mass}"));
    }
    None
}

/// Greedy shrink to a minimal `(seed, k, floor)` repro: drop fibers,
/// lower `k`, zero the floor — keep each mutation only while the
/// disagreement persists.
fn shrink_enum(mut case: EnumCase) -> EnumCase {
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < case.probs.len() {
            let mut candidate = case.clone();
            candidate.probs.remove(i);
            if check_enum(&candidate).is_some() {
                case = candidate;
                reduced = true;
            } else {
                i += 1;
            }
        }
        if case.k > 1 {
            let candidate = EnumCase { k: case.k - 1, ..case.clone() };
            if check_enum(&candidate).is_some() {
                case = candidate;
                reduced = true;
            }
        }
        if case.floor != 0.0 {
            let candidate = EnumCase { floor: 0.0, ..case.clone() };
            if check_enum(&candidate).is_some() {
                case = candidate;
                reduced = true;
            }
        }
        if !reduced {
            return case;
        }
    }
}

fn enum_case(seed: u64, case: usize) -> EnumCase {
    let mut rng = Rng::new(seed ^ (case as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
    let n = 2 + rng.below(9);
    let probs: Vec<f64> = (0..n)
        .map(|_| match rng.below(12) {
            0 => 0.0,                       // never cut
            1 => 1.0,                       // certain (oracle case)
            2 => 1e-16,                     // below the uncertainty floor
            _ => 0.6 * rng.unit(),
        })
        .collect();
    let m = probs.iter().filter(|&&p| p > 1e-15 && p < 1.0 - 1e-12).count();
    let k = 1 + rng.below(m.max(1) + 1); // occasionally k > m: full powerset
    let floor = match rng.below(3) {
        0 => 0.0,
        1 => 1e-6,
        _ => 10f64.powi(-(2 + rng.below(4) as i32)),
    };
    EnumCase { probs, k, floor }
}

#[test]
fn kcut_enumerator_matches_powerset_oracle() {
    let mut failures = Vec::new();
    let mut exact_cases = 0usize;
    for case_no in 0..POWERSET_CASES {
        let case = enum_case(SUITE_SEED, case_no);
        if case.floor == 0.0 {
            exact_cases += 1;
        }
        if let Some(reason) = check_enum(&case) {
            let small = shrink_enum(case.clone());
            eprintln!(
                "FAIL (seed={SUITE_SEED:#x}, case={case_no}, k={}, floor={:e}): {reason}\n  \
                 shrunk to: (k={}, floor={:e}, probs={:?})\n  reproduce: \
                 `enum_case({SUITE_SEED:#x}, {case_no})` in tests/scenario_differential.rs",
                case.k, case.floor, small.k, small.floor, small.probs
            );
            failures.push((case_no, reason));
        }
    }
    assert!(
        failures.is_empty(),
        "{} powerset disagreements over {POWERSET_CASES} cases (seed {SUITE_SEED:#x})",
        failures.len()
    );
    // The generator must actually exercise the exact-match regime.
    assert!(exact_cases >= 40, "only {exact_cases} floor-0 cases");
}

#[test]
fn bounded_buffer_returns_the_unbounded_head() {
    for case_no in 0..60 {
        let case = enum_case(SUITE_SEED ^ 0xb0f, case_no);
        let unbounded = ScenarioBudget {
            max_cuts: case.k,
            mass_floor: case.floor,
            max_scenarios: usize::MAX,
            tail_samples: 0,
            seed: 0,
        };
        let (full, _) = ScenarioSet::enumerate_with(&case.probs, &unbounded);
        for cap in [1usize, 2, 5] {
            let (capped, stats) = ScenarioSet::enumerate_with(
                &case.probs,
                &ScenarioBudget { max_scenarios: cap, ..unbounded },
            );
            // The streaming guarantee …
            assert!(
                stats.peak_buffered <= cap + 1,
                "case {case_no}: peak {} over cap {cap}",
                stats.peak_buffered
            );
            assert!(stats.mass_gap() < 1e-9, "case {case_no}: gap {:e}", stats.mass_gap());
            // … and eviction keeps exactly the sorted head (bit-exact:
            // both paths share the enumerator's float path).
            let want = &full.scenarios[..capped.scenarios.len()];
            assert_eq!(capped.scenarios, want, "case {case_no} cap {cap}");
        }
    }
}

#[test]
fn tail_samples_are_deterministic_and_conserve_mass() {
    for case_no in 0..40 {
        let mut rng = Rng::new(SUITE_SEED ^ 0x7a11 ^ case_no as u64);
        let n = 6 + rng.below(5);
        let probs: Vec<f64> = (0..n).map(|_| 0.05 + 0.4 * rng.unit()).collect();
        let budget = ScenarioBudget {
            max_cuts: 1,
            mass_floor: 0.0,
            max_scenarios: usize::MAX,
            tail_samples: 8,
            seed: SUITE_SEED ^ case_no as u64,
        };
        let (a, sa) = ScenarioSet::enumerate_with(&probs, &budget);
        let (b, sb) = ScenarioSet::enumerate_with(&probs, &budget);
        assert_eq!(a, b, "tail sampling must be seed-deterministic");
        assert_eq!(sa, sb);
        assert!(sa.mass_gap() < 1e-9, "gap {:e}", sa.mass_gap());
        // Samples genuinely represent the beyond-k tail.
        let sampled: Vec<_> =
            a.scenarios.iter().filter(|q| q.cut.len() > budget.max_cuts).collect();
        assert_eq!(sampled.len(), sa.tail_samples_added);
        assert!(sa.tail_samples_added > 0, "k=1 with these probs must leave a tail");
        // Mass moved out of the truncated tail into the set.
        let (_, bare) = ScenarioSet::enumerate_with(
            &probs,
            &ScenarioBudget { tail_samples: 0, ..budget },
        );
        assert!(sa.truncated_tail < bare.truncated_tail);
        assert!(rel_eq(
            sa.enumerated_mass + sa.truncated_tail,
            bare.enumerated_mass + bare.truncated_tail
        ));
    }
}

// ---------------------------------------------------------------------------
// Solve differential: pruned vs exhaustive within the certified bound
// ---------------------------------------------------------------------------

/// Benders objective on the triangle with an explicit scenario set.
fn solve_triangle(
    net: &Network,
    flows: &[Flow],
    tunnels: &TunnelSet,
    scenarios: &ScenarioSet,
    beta: f64,
) -> f64 {
    let problem = TeProblem::new(net, flows, tunnels, scenarios);
    TeSolver::new(&problem)
        .beta(beta)
        .method(SolveMethod::benders())
        .solve()
        .expect("benders solve")
        .max_loss
}

#[test]
fn pruned_solves_stay_inside_the_certified_sandwich() {
    let net = triangle();
    let base_flows = triangle_flows();
    let tunnels = TunnelSet::initialize(&net, &base_flows, 2);
    let mut disagreements = Vec::new();
    for case_no in 0..SOLVE_CASES {
        let mut rng = Rng::new(SUITE_SEED ^ 0x501e ^ (case_no as u64).wrapping_mul(0x9e37));
        let probs: Vec<f64> = (0..net.num_fibers()).map(|_| 0.3 * rng.unit()).collect();
        let beta = [0.9, 0.95, 0.99][rng.below(3)];
        let flows: Vec<Flow> = base_flows
            .iter()
            .map(|f| Flow { demand_gbps: f.demand_gbps * (0.5 + rng.unit()), ..*f })
            .collect();
        // Exhaustive: every subset of the three fibers.
        let exhaustive = ScenarioSet::enumerate(&probs, probs.len(), 0.0);
        // Pruned: k-cut with a mass floor (and sometimes a buffer cap).
        let budget = ScenarioBudget {
            max_cuts: 1 + rng.below(2),
            mass_floor: [0.0, 1e-6, 1e-4, 1e-3][rng.below(4)],
            max_scenarios: if rng.below(4) == 0 { 3 } else { usize::MAX },
            tail_samples: 0,
            seed: case_no as u64,
        };
        let (pruned, stats) = ScenarioSet::enumerate_with(&probs, &budget);
        assert!(stats.mass_gap() < 1e-9, "case {case_no}: gap {:e}", stats.mass_gap());
        let phi = solve_triangle(&net, &flows, &tunnels, &pruned, beta);
        if pruned.scenarios == exhaustive.scenarios {
            // Nothing pruned: zero certified-objective disagreement
            // tolerance, bit for bit.
            let phi_exact = solve_triangle(&net, &flows, &tunnels, &exhaustive, beta);
            if phi != phi_exact {
                disagreements.push((case_no, phi, phi_exact, "identical-set".to_string()));
            }
            continue;
        }
        // The certified sandwich: pruning moves at most `truncated_tail`
        // probability mass, so the objective must sit between the
        // exhaustive solves at `β ± tail` (± the Benders gap ε).
        let tail = stats.truncated_tail;
        let lo = solve_triangle(&net, &flows, &tunnels, &exhaustive, (beta - tail).max(0.5));
        let hi = solve_triangle(
            &net,
            &flows,
            &tunnels,
            &exhaustive,
            (beta + tail).min(1.0 - 1e-9),
        );
        const EPS: f64 = 2e-4; // 2× the Benders convergence gap
        if phi < lo - EPS || phi > hi + EPS {
            disagreements.push((
                case_no,
                phi,
                lo,
                format!("outside [{lo} - ε, {hi} + ε] (tail {tail:e}, β {beta})"),
            ));
        }
    }
    assert!(
        disagreements.is_empty(),
        "{} certified-objective disagreements over {SOLVE_CASES} cases (seed \
         {SUITE_SEED:#x}): {disagreements:?}",
        disagreements.len()
    );
}
