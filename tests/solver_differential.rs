//! Differential oracle suite: the sparse revised simplex engine vs the
//! dense tableau on seeded random LPs.
//!
//! The dense two-phase tableau ([`prete_lp::solve_oracle`]) is the
//! trusted oracle (simple enough to audit by hand, and on no solve
//! path); the engine must agree with it on
//!
//! * termination status (optimal / infeasible / unbounded),
//! * the optimal objective (≤ 1e-6 relative), and
//! * primal feasibility plus KKT certification of the reported duals
//!   (sign conventions per sense, complementary slackness, reduced-cost
//!   signs against the active bounds)
//!
//! across hundreds of generated cases spanning feasible, infeasible,
//! unbounded and heavily degenerate programs at varying sparsity. A
//! failing case is *shrunk* — rows dropped, variables decoupled —
//! while the disagreement persists, then printed together with its
//! reproducible `(seed, case)` pair.

use prete_lp::{
    solve_oracle, solve_with, ColdStart, LinearProgram, SimplexOptions, Sense, SolveStatus,
};

const CASES: usize = 520;

/// The sparse-engine configuration matrix: both cold-start strategies
/// (`Auto` exercises the dual-simplex cold path with bound flipping
/// and cost perturbation wherever a program qualifies). Each must
/// independently agree with the dense oracle on all 520 cases.
const MATRIX: [ColdStart; 2] = [ColdStart::TwoPhase, ColdStart::Auto];
const SUITE_SEED: u64 = 0x9e37_79b9_2026_0807;

// ---------------------------------------------------------------------------
// Deterministic RNG (splitmix64) — no external dependency, and the
// (seed, case) pair alone reproduces a failure.
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

    /// Small integer in `[-range, range]` — integer data makes ties
    /// (degeneracy) common, which is exactly what the anti-cycling
    /// machinery needs to be exercised on.
    fn small_int(&mut self, range: i64) -> f64 {
        (self.next() % (2 * range as u64 + 1)) as i64 as f64 - range as f64
    }
}

// ---------------------------------------------------------------------------
// Case specification — a plain-data LP the shrinker can mutate.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct VarSpec {
    lb: f64,
    ub: f64,
    cost: f64,
}

#[derive(Debug, Clone)]
struct RowSpec {
    terms: Vec<(usize, f64)>,
    sense: Sense,
    rhs: f64,
}

#[derive(Debug, Clone)]
struct CaseSpec {
    vars: Vec<VarSpec>,
    rows: Vec<RowSpec>,
}

impl CaseSpec {
    fn build(&self) -> LinearProgram {
        let mut lp = LinearProgram::new();
        let ids: Vec<_> =
            self.vars.iter().map(|v| lp.add_var(v.lb, v.ub, v.cost)).collect();
        for r in &self.rows {
            let terms = r.terms.iter().map(|&(j, a)| (ids[j], a)).collect();
            lp.add_constraint(terms, r.sense, r.rhs);
        }
        lp
    }
}

/// Draws one random case. Sizes stay small (≤ 12 vars, ≤ 14 rows) so
/// 500+ cases run in seconds; density, bound shapes, senses and the
/// integer-valued data vary enough to hit every status and plenty of
/// degeneracy.
fn generate(seed: u64, case: usize) -> CaseSpec {
    let mut rng = Rng::new(seed ^ (case as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
    let n = 1 + rng.below(12);
    let m = rng.below(15);
    // Case-level density in [0.2, 1.0]: some programs nearly full,
    // most sparse like real TE programs.
    let density = 0.2 + 0.8 * rng.unit();
    // Half the cases are "benign": non-negative costs (bounded below
    // over the box) and rhs anchored at a random in-box point
    // (feasible by construction), so optimal cases dominate the suite.
    // The rest are unconstrained draws that cover infeasible and
    // unbounded programs.
    let benign = rng.below(2) == 0;
    let vars: Vec<VarSpec> = (0..n)
        .map(|_| {
            let lb = if rng.below(3) == 0 { rng.small_int(5) } else { 0.0 };
            let ub = match rng.below(4) {
                // Occasionally fixed (lb == ub) — the presolve's
                // substitution path.
                0 => lb,
                1 | 2 => lb + rng.below(10) as f64,
                _ => f64::INFINITY,
            };
            let cost = if rng.below(5) == 0 {
                0.0
            } else if benign {
                rng.small_int(5).abs()
            } else {
                rng.small_int(5)
            };
            VarSpec { lb, ub, cost }
        })
        .collect();
    // Anchor point inside the box for benign rhs generation.
    let anchor: Vec<f64> = vars
        .iter()
        .map(|v| {
            let span = if v.ub.is_finite() { v.ub - v.lb } else { 4.0 };
            v.lb + (rng.below(3) as f64 / 2.0) * span / 2.0
        })
        .collect();
    let rows = (0..m)
        .map(|_| {
            let mut terms = Vec::new();
            for j in 0..n {
                if rng.unit() < density {
                    let a = rng.small_int(4);
                    if a != 0.0 {
                        terms.push((j, a));
                    }
                }
            }
            let sense = match rng.below(4) {
                0 => Sense::Ge,
                1 => Sense::Eq,
                _ => Sense::Le,
            };
            let rhs = if benign {
                let activity: f64 = terms.iter().map(|&(j, a)| a * anchor[j]).sum();
                match sense {
                    Sense::Le => activity + rng.below(4) as f64,
                    Sense::Ge => activity - rng.below(4) as f64,
                    Sense::Eq => activity,
                }
            } else {
                rng.small_int(8)
            };
            RowSpec { terms, sense, rhs }
        })
        .collect();
    CaseSpec { vars, rows }
}

// ---------------------------------------------------------------------------
// The differential check
// ---------------------------------------------------------------------------

const TOL: f64 = 1e-6;

fn oracle(lp: &LinearProgram) -> prete_lp::Solution {
    solve_oracle(lp, SimplexOptions::default())
}

/// KKT certification of an optimal primal/dual pair: primal
/// feasibility, dual sign conventions, complementary slackness and
/// reduced-cost signs against the active bounds. Any violation is a
/// real bug in whichever engine produced the pair.
fn kkt_violation(spec: &CaseSpec, lp: &LinearProgram, sol: &prete_lp::Solution) -> Option<String> {
    if let Err(e) = lp.check_feasible(&sol.x, 10.0 * TOL) {
        return Some(format!("primal infeasible: {e}"));
    }
    for (i, row) in spec.rows.iter().enumerate() {
        let y = sol.duals[i];
        let activity: f64 = row.terms.iter().map(|&(j, a)| a * sol.x[j]).sum();
        match row.sense {
            Sense::Le if y > TOL => return Some(format!("row {i}: <= row with dual {y} > 0")),
            Sense::Ge if y < -TOL => return Some(format!("row {i}: >= row with dual {y} < 0")),
            _ => {}
        }
        if y.abs() > TOL && (activity - row.rhs).abs() > 10.0 * TOL {
            return Some(format!(
                "row {i}: dual {y} nonzero but slack {} (complementary slackness)",
                activity - row.rhs
            ));
        }
    }
    for (j, v) in spec.vars.iter().enumerate() {
        // Reduced cost with the reported multipliers.
        let mu: f64 = v.cost
            - spec
                .rows
                .iter()
                .enumerate()
                .map(|(i, row)| {
                    sol.duals[i]
                        * row.terms.iter().find(|&&(k, _)| k == j).map_or(0.0, |&(_, a)| a)
                })
                .sum::<f64>();
        let at_lb = (sol.x[j] - v.lb).abs() <= 10.0 * TOL;
        let at_ub = v.ub.is_finite() && (v.ub - sol.x[j]).abs() <= 10.0 * TOL;
        if at_lb && at_ub {
            continue; // fixed (or numerically both): mu is unconstrained
        }
        if at_lb && mu < -10.0 * TOL {
            return Some(format!("var {j}: at lower bound with reduced cost {mu} < 0"));
        }
        if at_ub && mu > 10.0 * TOL {
            return Some(format!("var {j}: at upper bound with reduced cost {mu} > 0"));
        }
        if !at_lb && !at_ub && mu.abs() > 10.0 * TOL {
            return Some(format!("var {j}: interior with reduced cost {mu} != 0"));
        }
    }
    None
}

/// Runs the dense oracle against the sparse engine under one cold
/// start; `Some(reason)` when they disagree or either optimal answer
/// fails certification.
fn check_with(spec: &CaseSpec, cold_start: ColdStart) -> Option<String> {
    let lp = spec.build();
    let dense = oracle(&lp);
    let sparse = solve_with(&lp, SimplexOptions { cold_start, ..SimplexOptions::default() });
    if sparse.status == SolveStatus::NumericalFailure {
        return Some("the sparse recovery ladder ran out".into());
    }
    if dense.status != sparse.status {
        return Some(format!(
            "status mismatch: dense {:?} vs sparse {:?}",
            dense.status, sparse.status
        ));
    }
    if dense.status != SolveStatus::Optimal {
        return None;
    }
    let scale = 1.0 + dense.objective.abs().max(sparse.objective.abs());
    if (dense.objective - sparse.objective).abs() > TOL * scale {
        return Some(format!(
            "objective mismatch: dense {} vs sparse {} (rel {})",
            dense.objective,
            sparse.objective,
            (dense.objective - sparse.objective).abs() / scale
        ));
    }
    if let Some(e) = kkt_violation(spec, &lp, &dense) {
        return Some(format!("dense KKT: {e}"));
    }
    if let Some(e) = kkt_violation(spec, &lp, &sparse) {
        return Some(format!("sparse KKT: {e}"));
    }
    None
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// Greedy shrink to a local minimum: drop rows, then unbind variables
/// (cost → 0, bounds → [0, ∞), terms removed), keeping each mutation
/// only while the failure persists under the same sparse configuration
/// that produced it.
fn shrink(mut spec: CaseSpec, cold_start: ColdStart) -> CaseSpec {
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < spec.rows.len() {
            let mut candidate = spec.clone();
            candidate.rows.remove(i);
            if check_with(&candidate, cold_start).is_some() {
                spec = candidate;
                reduced = true;
            } else {
                i += 1;
            }
        }
        for j in 0..spec.vars.len() {
            let trivial = VarSpec { lb: 0.0, ub: f64::INFINITY, cost: 0.0 };
            let already = spec.vars[j].lb == 0.0
                && spec.vars[j].ub.is_infinite()
                && spec.vars[j].cost == 0.0
                && spec.rows.iter().all(|r| r.terms.iter().all(|&(k, _)| k != j));
            if already {
                continue;
            }
            let mut candidate = spec.clone();
            candidate.vars[j] = trivial;
            for r in &mut candidate.rows {
                r.terms.retain(|&(k, _)| k != j);
            }
            if check_with(&candidate, cold_start).is_some() {
                spec = candidate;
                reduced = true;
            }
        }
        if !reduced {
            return spec;
        }
    }
}

// ---------------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------------

#[test]
fn sparse_engine_matches_dense_oracle_on_random_lps() {
    let mut optimal = 0usize;
    let mut infeasible = 0usize;
    let mut unbounded = 0usize;
    let mut failures = Vec::new();
    for case in 0..CASES {
        let spec = generate(SUITE_SEED, case);
        let mut failed = false;
        for cold_start in MATRIX {
            if let Some(reason) = check_with(&spec, cold_start) {
                let small = shrink(spec.clone(), cold_start);
                eprintln!(
                    "FAIL (seed={SUITE_SEED:#x}, case={case}, {cold_start:?}): \
                     {reason}\n  shrunk to: {small:?}\n  reproduce: \
                     `generate({SUITE_SEED:#x}, {case})` in tests/solver_differential.rs"
                );
                failures.push((case, cold_start, reason));
                failed = true;
            }
        }
        if failed {
            continue;
        }
        let lp = spec.build();
        match oracle(&lp).status {
            SolveStatus::Optimal => optimal += 1,
            SolveStatus::Infeasible => infeasible += 1,
            SolveStatus::Unbounded => unbounded += 1,
            SolveStatus::IterationLimit
            | SolveStatus::NumericallySuspect
            | SolveStatus::NumericalFailure => {}
        }
    }
    assert!(
        failures.is_empty(),
        "{} differential failures over {CASES} cases x {} configs (seed {SUITE_SEED:#x}): {:?}",
        failures.len(),
        MATRIX.len(),
        failures.iter().map(|(c, cs, _)| (*c, *cs)).collect::<Vec<_>>()
    );
    // The generator must actually cover the interesting statuses —
    // otherwise the suite silently tests less than it claims.
    assert!(optimal >= 100, "only {optimal} optimal cases");
    assert!(infeasible >= 20, "only {infeasible} infeasible cases");
    assert!(unbounded >= 20, "only {unbounded} unbounded cases");
}

/// The torture half of the differential contract: seeded
/// ill-conditioned programs (coefficients spanning `1e-8..1e8`,
/// near-parallel columns, near-degenerate vertices) from
/// [`prete_bench::torture`]. The random suite above checks *status*
/// agreement on benign data; torture data is allowed to split an
/// uncertified claim, but a certified `Optimal` must never disagree
/// with another certified `Optimal`, and every `Optimal` must carry a
/// passing [`prete_lp::SolutionQuality`]. Violations reproduce from
/// `(seed, case)` and arrive pre-shrunk.
#[test]
fn torture_lps_never_disagree_when_certified() {
    use prete_bench::torture;

    const TORTURE_CASES: usize = 320;
    let report = torture::run(torture::SUITE_SEED, TORTURE_CASES);
    for v in &report.violations {
        eprintln!(
            "TORTURE FAIL (seed={:#x}, case={}, {}): {}\n  shrunk to: {}\n  \
             reproduce: `torture::generate({:#x}, {})` in crates/bench/src/torture.rs",
            v.seed, v.case, v.config, v.reason, v.shrunk, v.seed, v.case
        );
    }
    assert!(
        report.violations.is_empty(),
        "{} certification violations over {TORTURE_CASES} torture cases x {} configs",
        report.violations.len(),
        report.configs
    );
    // The sweep must exercise the certified path for real: a suite
    // where nothing certifies (or everything goes suspect) tests less
    // than it claims.
    assert!(
        report.certified_agreements >= 100,
        "only {} certified agreements: {report:?}",
        report.certified_agreements
    );
    // The sparse engine should almost never decline a program the
    // dense oracle certifiably solved — the recovery ladder exists so
    // torture data degrades to Suspect, not to wrong statuses.
    assert!(
        report.sparse_refuted <= TORTURE_CASES / 20,
        "sparse engine refuted {} certifiably solvable programs: {report:?}",
        report.sparse_refuted
    );
}

/// The same differential contract on hand-written corner cases the
/// random generator hits rarely: empty programs, empty rows, fixed
/// variables, redundant rows, equalities pinning a box corner.
#[test]
fn sparse_engine_matches_dense_oracle_on_corner_cases() {
    let corner_cases: Vec<CaseSpec> = vec![
        // No constraints at all: bounded by the box.
        CaseSpec {
            vars: vec![
                VarSpec { lb: -2.0, ub: 3.0, cost: 1.0 },
                VarSpec { lb: 0.0, ub: f64::INFINITY, cost: 2.0 },
            ],
            rows: vec![],
        },
        // An empty row that is trivially satisfiable and one that is not.
        CaseSpec {
            vars: vec![VarSpec { lb: 0.0, ub: 10.0, cost: 1.0 }],
            rows: vec![RowSpec { terms: vec![], sense: Sense::Le, rhs: 1.0 }],
        },
        CaseSpec {
            vars: vec![VarSpec { lb: 0.0, ub: 10.0, cost: 1.0 }],
            rows: vec![RowSpec { terms: vec![], sense: Sense::Ge, rhs: 1.0 }],
        },
        // A fixed variable feeding an equality.
        CaseSpec {
            vars: vec![
                VarSpec { lb: 2.0, ub: 2.0, cost: 5.0 },
                VarSpec { lb: 0.0, ub: f64::INFINITY, cost: 1.0 },
            ],
            rows: vec![RowSpec {
                terms: vec![(0, 1.0), (1, 1.0)],
                sense: Sense::Eq,
                rhs: 7.0,
            }],
        },
        // Redundant row dominated by the bounds.
        CaseSpec {
            vars: vec![VarSpec { lb: 0.0, ub: 1.0, cost: -1.0 }],
            rows: vec![RowSpec { terms: vec![(0, 1.0)], sense: Sense::Le, rhs: 100.0 }],
        },
        // Degenerate: many ties at the same vertex.
        CaseSpec {
            vars: vec![
                VarSpec { lb: 0.0, ub: f64::INFINITY, cost: -1.0 },
                VarSpec { lb: 0.0, ub: f64::INFINITY, cost: -1.0 },
            ],
            rows: vec![
                RowSpec { terms: vec![(0, 1.0), (1, 1.0)], sense: Sense::Le, rhs: 1.0 },
                RowSpec { terms: vec![(0, 1.0)], sense: Sense::Le, rhs: 1.0 },
                RowSpec { terms: vec![(1, 1.0)], sense: Sense::Le, rhs: 1.0 },
                RowSpec { terms: vec![(0, 2.0), (1, 2.0)], sense: Sense::Le, rhs: 2.0 },
            ],
        },
    ];
    for (i, spec) in corner_cases.iter().enumerate() {
        for cold_start in MATRIX {
            if let Some(reason) = check_with(spec, cold_start) {
                panic!("corner case {i} failed under {cold_start:?}: {reason}\n  spec: {spec:?}");
            }
        }
    }
}

