//! Golden regression fixtures for the TE solver.
//!
//! Canonical instances (B4 and the Abilene-sized IBM WAN) are solved
//! and compared against committed expected objectives and allocation
//! vectors, so figure-level numbers
//! (`bench/figures.rs` feeds from the same solver) cannot drift
//! silently — a pricing, presolve or factorization change that moves
//! the optimum shows up as a fixture diff, not as a mystery in a plot.
//!
//! To re-bless after an *intentional* change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p prete-bench --test golden_solver
//! ```
//!
//! and commit the rewritten `tests/fixtures/golden_*.json`.

pub mod oracle;

use prete_core::estimator::ProbabilityEstimator;
use prete_core::prelude::{FailureModel, SolveMethod, TeProblem, TeSolver};
use prete_core::scenario::{ScenarioBudget, ScenarioSet};
use prete_topology::{topologies, Network, TunnelSet};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// The expected optimum on a canonical instance.
#[derive(Debug, Serialize, Deserialize)]
struct GoldenOptimum {
    max_loss: f64,
    allocation: Vec<f64>,
}

/// A committed fixture: one topology and its optimum.
#[derive(Debug, Serialize, Deserialize)]
struct Golden {
    topology: String,
    sparse: GoldenOptimum,
}

/// Objectives must match to this relative tolerance; the solver is
/// deterministic, so real drift overshoots this by orders of
/// magnitude while cross-platform rounding stays well under it.
const OBJ_TOL: f64 = 1e-9;
/// Per-entry allocation tolerance (Gbps).
const ALLOC_TOL: f64 = 1e-7;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(format!("golden_{name}.json"))
}

/// The committed fixture `name`, or — under `GOLDEN_BLESS` — `None`
/// after writing `got` in its place.
fn fixture<T: Serialize + Deserialize>(name: &str, got: &T) -> Option<T> {
    let path = fixture_path(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        let json = serde_json::to_string_pretty(got).expect("serialize fixture");
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixtures dir");
        std::fs::write(&path, json).expect("write fixture");
        eprintln!("blessed {}", path.display());
        return None;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run GOLDEN_BLESS=1 cargo test -p prete-bench \
             --test golden_solver to create it",
            path.display()
        )
    });
    Some(serde_json::from_str(&text).expect("parse fixture"))
}

/// The canonical instance: the figure pipeline's seed and load, one
/// simultaneous failure, deterministic per-fiber probabilities.
fn solve(net: &Network) -> GoldenOptimum {
    let flows = topologies::flows_for(net, 0.08, 42);
    let tunnels = TunnelSet::initialize(net, &flows, 4);
    let probs: Vec<f64> =
        (0..net.fibers().len()).map(|i| 0.005 * (1.0 + (i % 5) as f64)).collect();
    let scenarios = ScenarioSet::enumerate(&probs, 1, 0.0);
    let problem = TeProblem::new(net, &flows, &tunnels, &scenarios);
    let sol = TeSolver::new(&problem)
        .beta(0.999)
        .method(SolveMethod::Heuristic)
        .solve()
        .expect("canonical instance is solvable");
    GoldenOptimum { max_loss: sol.max_loss, allocation: sol.allocation }
}

fn check(name: &str, net: &Network) {
    let got = Golden { topology: name.to_string(), sparse: solve(net) };
    let Some(want) = fixture(name, &got) else { return };
    let (w, g) = (&want.sparse, &got.sparse);
    let obj_tol = |w: f64| OBJ_TOL * (1.0 + w.abs());
    assert_close(&format!("{name}: max_loss"), &[w.max_loss], &[g.max_loss], obj_tol);
    assert_close(&format!("{name}: allocation"), &w.allocation, &g.allocation, |_| ALLOC_TOL);
}

/// `got` against the fixture's `want`, entry by entry, each within
/// `tol(want)`.
fn assert_close(what: &str, want: &[f64], got: &[f64], tol: impl Fn(f64) -> f64) {
    assert_eq!(got.len(), want.len(), "{what}: length changed");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!((g - w).abs() <= tol(*w), "{what}[{i}] drifted: expected {w}, got {g}");
    }
}

#[test]
fn golden_b4_matches_committed_fixture() {
    check("b4", &topologies::b4());
}

#[test]
fn golden_ibm_matches_committed_fixture() {
    check("ibm", &topologies::ibm());
}

// ---------------------------------------------------------------------------
// Pathologically scaled LP fixture
// ---------------------------------------------------------------------------

/// A committed fixture for one *pathologically scaled* LP (torture
/// case 18: coefficients spanning many decades, nontrivial pivot
/// paths in the engine and the oracle). Pins the certified objective
/// and primal point of both so the numerical-robustness layer —
/// presolve, factorization, certification — cannot drift silently
/// under later solver changes.
#[derive(Debug, Serialize, Deserialize)]
struct GoldenScaledLp {
    case: usize,
    dense_objective: f64,
    sparse_objective: f64,
    x_dense: Vec<f64>,
    x_sparse: Vec<f64>,
}

/// Ill-conditioned data tolerates more cross-platform rounding than
/// the TE fixtures, but certified drift still overshoots this by
/// orders of magnitude.
const SCALED_OBJ_TOL: f64 = 1e-9;

#[test]
fn golden_scaled_lp_matches_committed_fixture() {
    use prete_lp::{solve_oracle, solve_with, SimplexOptions, SolveStatus};

    const CASE: usize = 18;
    let lp = oracle::torture_lp(oracle::TORTURE_SEED, CASE).build();
    let dense = solve_oracle(&lp, SimplexOptions::default());
    let sparse = solve_with(&lp, SimplexOptions::default());
    // The fixture only makes sense while both engines *certify* this
    // program — a tolerance change that downgrades it should fail
    // loudly here, not silently weaken the pin.
    assert_eq!(dense.status, SolveStatus::Optimal, "dense no longer certifies case {CASE}");
    assert_eq!(sparse.status, SolveStatus::Optimal, "sparse no longer certifies case {CASE}");
    let got = GoldenScaledLp {
        case: CASE,
        dense_objective: dense.objective,
        sparse_objective: sparse.objective,
        x_dense: dense.x,
        x_sparse: sparse.x,
    };

    let Some(want) = fixture("scaled_lp", &got) else { return };
    assert_eq!(want.case, CASE, "fixture pins a different torture case");
    let tol = |w: f64| SCALED_OBJ_TOL * (1.0 + w.abs());
    for (label, w, g) in [
        ("dense objective", &[want.dense_objective][..], &[got.dense_objective][..]),
        ("sparse objective", &[want.sparse_objective], &[got.sparse_objective]),
        ("dense x", &want.x_dense, &got.x_dense),
        ("sparse x", &want.x_sparse, &got.x_sparse),
    ] {
        assert_close(&format!("scaled-lp/{label}"), w, g, tol);
    }
}

// ---------------------------------------------------------------------------
// Parametric generator fixtures
// ---------------------------------------------------------------------------

/// A committed fixture for one generated topology: the full-structure
/// digest plus human-readable counts, so a drift diff says *what*
/// changed (sites vs fibers vs links) before anyone stares at hashes.
/// The scenario-scale benchmarks solve on `gen:` topologies; if the
/// generator's output moves under a refactor, every downstream number
/// moves with it — this pins it the same way `golden_b4` pins the
/// solver.
#[derive(Debug, Serialize, Deserialize)]
struct GoldenGen {
    spec: String,
    sites: usize,
    fibers: usize,
    links: usize,
    /// FNV-1a over the complete site/fiber/link structure.
    digest: u64,
    /// Total IP capacity (Gbps) — catches calibration drift that a
    /// pure structural hash would report only opaquely.
    total_capacity_gbps: f64,
}

fn check_gen(name: &str, spec_str: &str) {
    use prete_topology::generate::{digest, generate};
    use prete_topology::GenSpec;

    let spec = GenSpec::parse(spec_str).expect("valid generator spec");
    let net = generate(&spec);
    let got = GoldenGen {
        spec: spec_str.to_string(),
        sites: net.sites().len(),
        fibers: net.fibers().len(),
        links: net.links().len(),
        digest: digest(&net),
        total_capacity_gbps: net.links().iter().map(|l| l.capacity_gbps).sum(),
    };
    let Some(want) = fixture(name, &got) else { return };
    assert_eq!(want.spec, got.spec, "{name}: fixture pins a different spec");
    assert_eq!(want.sites, got.sites, "{name}: site count drifted");
    assert_eq!(want.fibers, got.fibers, "{name}: fiber count drifted");
    assert_eq!(want.links, got.links, "{name}: link count drifted");
    assert!(
        (want.total_capacity_gbps - got.total_capacity_gbps).abs() <= 1e-6,
        "{name}: total capacity drifted: expected {}, got {}",
        want.total_capacity_gbps,
        got.total_capacity_gbps
    );
    assert_eq!(
        want.digest, got.digest,
        "{name}: structural digest drifted (counts match — positions, \
         capacities or orderings moved)"
    );

    // The streaming guarantee at scale: 2-cut enumeration over tens
    // of thousands of candidate scenarios never buffers more than the
    // cap (+1 while evicting), and the mass accounting still closes.
    let model = FailureModel::new(&net, 42);
    let estimator = ProbabilityEstimator::static_model(&model);
    let budget = ScenarioBudget {
        max_cuts: 2,
        mass_floor: 1e-7,
        max_scenarios: 64,
        ..ScenarioBudget::default()
    };
    let (_, stats) = ScenarioSet::enumerate_with(estimator.static_probabilities(), &budget);
    assert!(stats.peak_buffered <= 65, "{name}: peak buffer {}", stats.peak_buffered);
    assert!(stats.mass_gap() < 1e-6, "{name}: mass gap {:e}", stats.mass_gap());
}

#[test]
fn golden_gen_waxman_matches_committed_fixture() {
    check_gen("gen_waxman", "gen:waxman:200:7");
}

#[test]
fn golden_gen_ring_matches_committed_fixture() {
    check_gen("gen_ring", "gen:ring:200:7");
}
