//! Differential oracle suite: the sparse revised simplex engine vs the
//! dense tableau on seeded random and torture LPs.
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
//!
//! The torture half holds the engine to the certification contract on
//! ill-conditioned programs instead (see [`torture_check`]). Both
//! generators, the case type, the shrinker and the sweep live in the
//! shared harness, `tests/oracle/mod.rs`.

pub mod oracle;

use oracle::{random_lp, shrink_lp, torture_lp, LpCase, LpRow, LpVar, Sweep};
use oracle::{RANDOM_LP_SEED, TORTURE_SEED};
use prete_lp::{
    solve_oracle, solve_with, ColdStart, LinearProgram, SimplexOptions, Sense, SolveStatus,
};

const CASES: usize = 520;

/// The sparse-engine configuration matrix: both cold-start strategies
/// (`Auto` exercises the dual-simplex cold path with bound flipping
/// and cost perturbation wherever a program qualifies). Each must
/// independently agree with the dense oracle on every random and
/// torture case.
const MATRIX: [ColdStart; 2] = [ColdStart::TwoPhase, ColdStart::Auto];

// ---------------------------------------------------------------------------
// The differential check
// ---------------------------------------------------------------------------

/// Objective agreement (relative) and KKT tolerance, for the random
/// cases and for two certified torture answers alike.
const TOL: f64 = 1e-6;

/// KKT certification of an optimal primal/dual pair: primal
/// feasibility, dual sign conventions, complementary slackness and
/// reduced-cost signs against the active bounds. Any violation is a
/// real bug in whichever engine produced the pair.
fn kkt_violation(spec: &LpCase, lp: &LinearProgram, sol: &prete_lp::Solution) -> Option<String> {
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
/// start; `Err(reason)` when they disagree or either optimal answer
/// fails certification, else the status both reached.
fn check_with(spec: &LpCase, cold_start: ColdStart) -> Result<SolveStatus, String> {
    let lp = spec.build();
    let dense = solve_oracle(&lp, SimplexOptions::default());
    let sparse = solve_with(&lp, SimplexOptions { cold_start, ..SimplexOptions::default() });
    if sparse.status == SolveStatus::NumericalFailure {
        return Err("the sparse engine failed numerically".into());
    }
    if dense.status != sparse.status {
        return Err(format!(
            "status mismatch: dense {:?} vs sparse {:?}",
            dense.status, sparse.status
        ));
    }
    if dense.status != SolveStatus::Optimal {
        return Ok(dense.status);
    }
    let scale = 1.0 + dense.objective.abs().max(sparse.objective.abs());
    if (dense.objective - sparse.objective).abs() > TOL * scale {
        return Err(format!(
            "objective mismatch: dense {} vs sparse {} (rel {})",
            dense.objective,
            sparse.objective,
            (dense.objective - sparse.objective).abs() / scale
        ));
    }
    if let Some(e) = kkt_violation(spec, &lp, &dense) {
        return Err(format!("dense KKT: {e}"));
    }
    if let Some(e) = kkt_violation(spec, &lp, &sparse) {
        return Err(format!("sparse KKT: {e}"));
    }
    Ok(SolveStatus::Optimal)
}

// ---------------------------------------------------------------------------
// The random suite
// ---------------------------------------------------------------------------

#[test]
fn sparse_engine_matches_dense_oracle_on_random_lps() {
    let mut optimal = 0usize;
    let mut infeasible = 0usize;
    let mut unbounded = 0usize;
    let sweep = Sweep {
        generator: "`random_lp` in tests/oracle/mod.rs",
        seed: RANDOM_LP_SEED,
        cases: CASES,
        configs: &MATRIX,
    };
    let failures = sweep.run(
        random_lp,
        |spec, cold_start| {
            let status = check_with(spec, cold_start)?;
            // A case counts once, by the status its first config
            // agreed on with the dense oracle.
            if cold_start == MATRIX[0] {
                match status {
                    SolveStatus::Optimal => optimal += 1,
                    SolveStatus::Infeasible => infeasible += 1,
                    SolveStatus::Unbounded => unbounded += 1,
                    _ => {}
                }
            }
            Ok(())
        },
        |spec, cold_start| shrink_lp(spec.clone(), |c| check_with(c, cold_start).is_err()),
    );
    assert!(
        failures.is_empty(),
        "{} differential failures over {CASES} cases x {} configs (seed {RANDOM_LP_SEED:#x}): {:?}",
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

/// A green sweep never shrinks anything, so the shrinker is driven
/// here with a synthetic failure — "the sparse engine reports
/// `Infeasible`" — on the first generated case with at least four rows
/// that it holds for (case 1, nine variables). The shrunk case must
/// still fail, be a local minimum (dropping any row makes the program
/// feasible), and be the pinned repro: one row, `4·x8 = 0`, against
/// `x8 ∈ [5, 12]`, with every other variable unbound.
#[test]
fn shrinker_reduces_a_failure_to_a_minimal_repro() {
    let infeasible = |c: &LpCase| {
        solve_with(&c.build(), SimplexOptions::default()).status == SolveStatus::Infeasible
    };
    let (case, spec) = (0..CASES)
        .map(|case| (case, random_lp(RANDOM_LP_SEED, case)))
        .find(|(_, spec)| spec.rows.len() >= 4 && infeasible(spec))
        .expect("the random suite draws infeasible programs");
    assert_eq!((case, spec.vars.len()), (1, 9));
    let small = shrink_lp(spec, infeasible);
    assert!(infeasible(&small), "the shrunk case {small:?} no longer fails");
    for i in 0..small.rows.len() {
        let mut fewer = small.clone();
        fewer.rows.remove(i);
        assert!(!infeasible(&fewer), "row {i} of {small:?} can go");
    }
    let unbound = |v: &LpVar| (v.lb, v.ub, v.cost) == (0.0, f64::INFINITY, 0.0);
    assert!(small.vars.len() == 9 && small.vars[..8].iter().all(unbound), "{small:?}");
    assert_eq!(
        format!("{:?} {:?}", small.vars[8], small.rows),
        "LpVar { lb: 5.0, ub: 12.0, cost: 2.0 } [LpRow { terms: [(8, 4.0)], sense: Eq, rhs: 0.0 }]"
    );
}

// ---------------------------------------------------------------------------
// The torture suite
// ---------------------------------------------------------------------------

/// What one `(case, config)` torture run concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TortureOutcome {
    /// Both engines certified `Optimal` and agreed.
    CertifiedAgreement,
    /// The sparse engine (or the oracle) declined to certify —
    /// `NumericallySuspect`, so no agreement was required.
    Suspect,
    /// The dense oracle claimed infeasible/unbounded while the sparse
    /// engine produced a *certified* Optimal. The certificate is a
    /// constructive proof (feasible point + passing KKT residuals), so
    /// the uncertified oracle claim is the wrong side — on torture
    /// data the dense tableau's fixed absolute tolerances misjudge
    /// badly scaled programs. Counted, not a violation.
    OracleRefuted,
    /// The mirror image: the sparse engine declined (infeasible /
    /// unbounded) a program the dense oracle certifiably solved.
    /// Near-degenerate right-hand sides sit exactly on the
    /// feasible/infeasible knife edge, so this is counted rather than
    /// gated — but a healthy engine keeps it rare.
    SparseRefuted,
    /// Statuses other than `Optimal` on both sides (infeasible,
    /// unbounded, iteration limit) or a status pair with nothing to
    /// compare.
    NotComparable,
}

/// The certification contract on one torture case under one cold
/// start. `Err(reason)` is a real violation; `Ok(outcome)` says what
/// the comparison amounted to:
///
/// * every `Optimal` must carry a [`prete_lp::SolutionQuality`] that
///   passes the configured tolerances — an uncertified `Optimal` is a
///   violation by itself;
/// * whenever *both* the sparse engine and the dense oracle return a
///   certified `Optimal` on the same program, their objectives must
///   agree (≤ [`TOL`] relative) — a certified disagreement is the bug
///   class this suite exists to catch;
/// * a sparse answer downgraded to `NumericallySuspect` is exempt from
///   the objective comparison (that is the downgrade's entire point)
///   but is counted, so a config that suspects everything is visible
///   in the report.
fn torture_check(spec: &LpCase, cfg: ColdStart) -> Result<TortureOutcome, String> {
    let lp = spec.build();
    let opts = SimplexOptions { cold_start: cfg, ..SimplexOptions::default() };
    let sparse = solve_with(&lp, opts);
    let dense = solve_oracle(&lp, SimplexOptions::default());

    // Contract 1: an Optimal without a passing certificate must not
    // exist — certification runs on every return path.
    for (label, sol) in [("sparse", &sparse), ("dense", &dense)] {
        if sol.status == SolveStatus::Optimal {
            match sol.quality {
                None => return Err(format!("{label}: Optimal without SolutionQuality")),
                Some(q) if !q.passes() => {
                    return Err(format!(
                        "{label}: Optimal with failing certificate {q:?}"
                    ))
                }
                Some(_) => {}
            }
        }
    }

    // Contract 2: two *certified* Optimal answers must agree.
    if sparse.status == SolveStatus::Optimal && dense.status == SolveStatus::Optimal {
        let scale = 1.0 + dense.objective.abs().max(sparse.objective.abs());
        if (dense.objective - sparse.objective).abs() > TOL * scale {
            return Err(format!(
                "certified-Optimal disagreement: dense {} vs sparse {} (rel {:.3e})",
                dense.objective,
                sparse.objective,
                (dense.objective - sparse.objective).abs() / scale
            ));
        }
        return Ok(TortureOutcome::CertifiedAgreement);
    }
    if sparse.status == SolveStatus::NumericallySuspect
        || dense.status == SolveStatus::NumericallySuspect
    {
        return Ok(TortureOutcome::Suspect);
    }
    // Status splits where exactly one side holds a certificate: the
    // certified side wins (its certificate is a constructive proof),
    // the uncertified claim is recorded but cannot "disagree" —
    // infeasibility and unboundedness claims carry no certificate.
    let declined =
        |s: SolveStatus| matches!(s, SolveStatus::Infeasible | SolveStatus::Unbounded);
    if sparse.status == SolveStatus::Optimal && declined(dense.status) {
        return Ok(TortureOutcome::OracleRefuted);
    }
    if dense.status == SolveStatus::Optimal && declined(sparse.status) {
        return Ok(TortureOutcome::SparseRefuted);
    }
    Ok(TortureOutcome::NotComparable)
}

/// What a torture sweep counted over its `(case, config)` runs.
#[derive(Debug, Default)]
struct TortureReport {
    /// Both engines certified Optimal and agreed.
    certified_agreements: usize,
    /// At least one engine declined to certify.
    suspect: usize,
    /// The sparse certificate refuted an uncertified dense
    /// infeasible/unbounded claim.
    oracle_refuted: usize,
    /// The sparse engine declined a program the dense oracle
    /// certifiably solved.
    sparse_refuted: usize,
    /// Nothing to compare (infeasible/unbounded/limit).
    not_comparable: usize,
    /// Contract violations (must be empty for the gate to pass).
    violations: Vec<(usize, ColdStart, String)>,
}

/// Runs torture cases `0..cases` under every [`MATRIX`] configuration.
fn run(seed: u64, cases: usize) -> TortureReport {
    let mut report = TortureReport::default();
    let sweep =
        Sweep { generator: "`torture_lp` in tests/oracle/mod.rs", seed, cases, configs: &MATRIX };
    let violations = sweep.run(
        torture_lp,
        |spec, cfg| {
            *match torture_check(spec, cfg)? {
                TortureOutcome::CertifiedAgreement => &mut report.certified_agreements,
                TortureOutcome::Suspect => &mut report.suspect,
                TortureOutcome::OracleRefuted => &mut report.oracle_refuted,
                TortureOutcome::SparseRefuted => &mut report.sparse_refuted,
                TortureOutcome::NotComparable => &mut report.not_comparable,
            } += 1;
            Ok(())
        },
        |spec, cfg| shrink_lp(spec.clone(), |c| torture_check(c, cfg).is_err()),
    );
    report.violations = violations;
    report
}

/// The torture half of the differential contract: seeded
/// ill-conditioned programs from [`torture_lp`] (coefficients spanning
/// `1e-8..1e8`, near-parallel columns, near-degenerate vertices). The
/// random suite above checks *status* agreement on benign data;
/// torture data is allowed to split an uncertified claim, but a
/// certified `Optimal` must never disagree with another certified
/// `Optimal`, and every `Optimal` must carry a passing
/// [`prete_lp::SolutionQuality`]. Violations reproduce from
/// `(seed, case)` and arrive pre-shrunk.
#[test]
fn torture_lps_never_disagree_when_certified() {
    const TORTURE_CASES: usize = 320;
    let report = run(TORTURE_SEED, TORTURE_CASES);
    eprintln!(
        "torture tally over {TORTURE_CASES} cases x {} configs: {} certified agreements, \
         {} suspect, {} oracle-refuted, {} sparse-refuted, {} not comparable, {} violations",
        MATRIX.len(),
        report.certified_agreements,
        report.suspect,
        report.oracle_refuted,
        report.sparse_refuted,
        report.not_comparable,
        report.violations.len()
    );
    assert!(
        report.violations.is_empty(),
        "{} certification violations over {TORTURE_CASES} torture cases x {} configs",
        report.violations.len(),
        MATRIX.len()
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
    // dense oracle certifiably solved: torture data should degrade to
    // Suspect, not to wrong statuses.
    assert!(
        report.sparse_refuted <= TORTURE_CASES / 20,
        "sparse engine refuted {} certifiably solvable programs: {report:?}",
        report.sparse_refuted
    );
}

#[test]
fn generator_is_deterministic_and_ill_conditioned() {
    let a = torture_lp(TORTURE_SEED, 17);
    let b = torture_lp(TORTURE_SEED, 17);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    // Over a sample of cases the coefficient range must actually
    // span many decades — otherwise this is not a torture suite.
    let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
    for case in 0..50 {
        let spec = torture_lp(TORTURE_SEED, case);
        for r in &spec.rows {
            for &(_, a) in &r.terms {
                lo = lo.min(a.abs());
                hi = hi.max(a.abs());
            }
        }
    }
    assert!(
        hi / lo >= 1e10,
        "coefficient dynamic range only {:.1e}",
        hi / lo
    );
}

#[test]
fn small_sweep_has_zero_violations_and_real_coverage() {
    let report = run(TORTURE_SEED, 60);
    assert!(
        report.violations.is_empty(),
        "violations: {:#?}",
        report.violations
    );
    assert!(
        report.certified_agreements >= 20,
        "only {} certified agreements in 60 cases",
        report.certified_agreements
    );
}

// ---------------------------------------------------------------------------
// Corner cases
// ---------------------------------------------------------------------------

/// The same differential contract on hand-written corner cases the
/// random generator hits rarely: empty programs, empty rows, fixed
/// variables, redundant rows, equalities pinning a box corner.
#[test]
fn sparse_engine_matches_dense_oracle_on_corner_cases() {
    let corner_cases: Vec<LpCase> = vec![
        // No constraints at all: bounded by the box.
        LpCase {
            vars: vec![
                LpVar { lb: -2.0, ub: 3.0, cost: 1.0 },
                LpVar { lb: 0.0, ub: f64::INFINITY, cost: 2.0 },
            ],
            rows: vec![],
        },
        // An empty row that is trivially satisfiable and one that is not.
        LpCase {
            vars: vec![LpVar { lb: 0.0, ub: 10.0, cost: 1.0 }],
            rows: vec![LpRow { terms: vec![], sense: Sense::Le, rhs: 1.0 }],
        },
        LpCase {
            vars: vec![LpVar { lb: 0.0, ub: 10.0, cost: 1.0 }],
            rows: vec![LpRow { terms: vec![], sense: Sense::Ge, rhs: 1.0 }],
        },
        // A fixed variable feeding an equality.
        LpCase {
            vars: vec![
                LpVar { lb: 2.0, ub: 2.0, cost: 5.0 },
                LpVar { lb: 0.0, ub: f64::INFINITY, cost: 1.0 },
            ],
            rows: vec![LpRow {
                terms: vec![(0, 1.0), (1, 1.0)],
                sense: Sense::Eq,
                rhs: 7.0,
            }],
        },
        // Redundant row dominated by the bounds.
        LpCase {
            vars: vec![LpVar { lb: 0.0, ub: 1.0, cost: -1.0 }],
            rows: vec![LpRow { terms: vec![(0, 1.0)], sense: Sense::Le, rhs: 100.0 }],
        },
        // Degenerate: many ties at the same vertex.
        LpCase {
            vars: vec![
                LpVar { lb: 0.0, ub: f64::INFINITY, cost: -1.0 },
                LpVar { lb: 0.0, ub: f64::INFINITY, cost: -1.0 },
            ],
            rows: vec![
                LpRow { terms: vec![(0, 1.0), (1, 1.0)], sense: Sense::Le, rhs: 1.0 },
                LpRow { terms: vec![(0, 1.0)], sense: Sense::Le, rhs: 1.0 },
                LpRow { terms: vec![(1, 1.0)], sense: Sense::Le, rhs: 1.0 },
                LpRow { terms: vec![(0, 2.0), (1, 2.0)], sense: Sense::Le, rhs: 2.0 },
            ],
        },
    ];
    for (i, spec) in corner_cases.iter().enumerate() {
        for cold_start in MATRIX {
            if let Err(reason) = check_with(spec, cold_start) {
                panic!("corner case {i} failed under {cold_start:?}: {reason}\n  spec: {spec:?}");
            }
        }
    }
}
