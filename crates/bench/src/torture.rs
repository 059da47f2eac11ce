//! Seeded torture-LP generator and the certified-differential harness
//! behind the `solver_differential` torture suite.
//!
//! Torture programs are deliberately ill-conditioned where the random
//! differential cases are benign: coefficient magnitudes span
//! `1e-8..1e8`, a fraction of the columns are near-parallel copies of
//! earlier ones (perturbed at relative `1e-7..1e-3`, the classic
//! near-singular-basis trap), and right-hand sides are anchored at an
//! in-box point with tiny perturbations so vertices are nearly
//! degenerate. The certification contract under test:
//!
//! * every `Optimal` the sparse engine returns must carry a
//!   [`prete_lp::SolutionQuality`] that passes the configured
//!   tolerances — an uncertified `Optimal` is a violation by itself;
//! * whenever *both* the sparse engine and the dense oracle return a
//!   certified `Optimal` on the same program, their objectives must
//!   agree (≤ `1e-6` relative) — a certified disagreement is the bug
//!   class this suite exists to catch;
//! * a sparse answer downgraded to `NumericallySuspect` is exempt from
//!   the objective comparison (that is the downgrade's entire point)
//!   but is counted, so a config that suspects everything is visible
//!   in the report.
//!
//! A violating case is shrunk (rows dropped, variables decoupled)
//! while the violation persists, and reproduces from its
//! `(seed, case)` pair alone.

use prete_lp::{
    solve_with, ColdStart, EtaUpdate, LinearProgram, Pricing, Sense, SimplexOptions,
    SolveStatus, SolverBackend,
};

/// Relative objective-agreement tolerance between two *certified*
/// optimal answers.
pub const AGREE_TOL: f64 = 1e-6;

/// Default suite seed; `(SUITE_SEED, case)` reproduces any case.
pub const SUITE_SEED: u64 = 0x7011_7012_2026_0810;

// ---------------------------------------------------------------------------
// Deterministic RNG (splitmix64), same scheme as the differential
// suite: no external dependency, reproducible from the seed alone.
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

    /// A coefficient with magnitude `10^e`, `e` uniform over
    /// `[-max_exp, max_exp]`, and a 1-digit mantissa so shrunk cases
    /// print readably.
    fn wide(&mut self, max_exp: i32) -> f64 {
        let exp = self.below(2 * max_exp as usize + 1) as i32 - max_exp;
        let mantissa = 1 + self.below(9) as i64; // 1..=9
        let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
        sign * mantissa as f64 * 10f64.powi(exp)
    }
}

// ---------------------------------------------------------------------------
// Case specification — plain data the shrinker can mutate.
// ---------------------------------------------------------------------------

/// One variable of a torture program.
#[derive(Debug, Clone)]
pub struct TortureVar {
    /// Lower bound (always finite).
    pub lb: f64,
    /// Upper bound (may be `+∞`).
    pub ub: f64,
    /// Objective coefficient.
    pub cost: f64,
}

/// One constraint row of a torture program.
#[derive(Debug, Clone)]
pub struct TortureRow {
    /// Sparse `(var index, coefficient)` terms.
    pub terms: Vec<(usize, f64)>,
    /// Row sense.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// A generated torture program, buildable into a [`LinearProgram`].
#[derive(Debug, Clone)]
pub struct TortureSpec {
    /// Variables in index order.
    pub vars: Vec<TortureVar>,
    /// Constraint rows.
    pub rows: Vec<TortureRow>,
}

impl TortureSpec {
    /// Materializes the spec as a solver-ready program.
    pub fn build(&self) -> LinearProgram {
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

/// Draws one ill-conditioned case. Sizes stay small (≤ 10 vars, ≤ 12
/// rows) so hundreds of cases run in seconds; the nastiness is in the
/// *data*, not the dimensions.
pub fn generate(seed: u64, case: usize) -> TortureSpec {
    let mut rng = Rng::new(seed ^ (case as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
    let n = 2 + rng.below(9);
    let m = 1 + rng.below(12);
    let density = 0.4 + 0.6 * rng.unit();
    // Per-column magnitude: each variable lives at its own decimal
    // scale, so basis columns mix 1e-8-ish and 1e8-ish entries — the
    // equilibration scaler's target regime.
    let col_exp: Vec<i32> =
        (0..n).map(|_| rng.below(17) as i32 - 8).collect();
    // Most cases are bounded-feasible by construction (non-negative
    // costs over lb = 0 boxes, anchored rhs); a quarter are
    // unconstrained draws covering infeasible/unbounded programs.
    let benign = rng.below(4) != 0;
    let vars: Vec<TortureVar> = (0..n)
        .map(|j| {
            let scale = 10f64.powi(col_exp[j].abs().min(4));
            let lb = 0.0;
            let ub = match rng.below(3) {
                0 => (1 + rng.below(9)) as f64 * scale,
                _ => f64::INFINITY,
            };
            let cost = if rng.below(5) == 0 {
                0.0
            } else if benign {
                rng.wide(6).abs()
            } else {
                rng.wide(6)
            };
            TortureVar { lb, ub, cost }
        })
        .collect();
    // Anchor point inside every box, at the column's own scale.
    let anchor: Vec<f64> = vars
        .iter()
        .enumerate()
        .map(|(j, v)| {
            let span = if v.ub.is_finite() {
                v.ub - v.lb
            } else {
                4.0 * 10f64.powi(col_exp[j].abs().min(4))
            };
            v.lb + (rng.below(3) as f64 / 2.0) * span / 2.0
        })
        .collect();
    // Column templates: coefficient of var j in row i. Near-parallel
    // columns come from copying an earlier column's template with a
    // tiny relative perturbation — inside a basis they produce the
    // near-singular factorizations the recovery ladder exists for.
    let mut templates: Vec<Vec<f64>> = Vec::with_capacity(n);
    for j in 0..n {
        let tmpl: Vec<f64> = if j > 0 && rng.below(3) == 0 {
            let src = rng.below(j);
            // Relative perturbation 1e-7..1e-3.
            let eps = 10f64.powi(-(3 + rng.below(5) as i32));
            templates[src]
                .iter()
                .map(|&a| if a == 0.0 { 0.0 } else { a * (1.0 + eps) })
                .collect()
        } else {
            (0..m)
                .map(|_| {
                    if rng.unit() < density {
                        rng.wide(8)
                    } else {
                        0.0
                    }
                })
                .collect()
        };
        templates.push(tmpl);
    }
    let rows: Vec<TortureRow> = (0..m)
        .map(|i| {
            let terms: Vec<(usize, f64)> = (0..n)
                .filter_map(|j| {
                    let a = templates[j][i];
                    (a != 0.0).then_some((j, a))
                })
                .collect();
            let sense = match rng.below(4) {
                0 => Sense::Ge,
                1 => Sense::Eq,
                _ => Sense::Le,
            };
            let activity: f64 = terms.iter().map(|&(j, a)| a * anchor[j]).sum();
            // Near-degenerate vertices: the slack granted beyond the
            // anchored activity is tiny relative to the row's own
            // magnitude, so many bases tie to within roundoff.
            let row_mag = terms
                .iter()
                .map(|&(_, a)| a.abs())
                .fold(0.0f64, f64::max)
                .max(1e-8);
            let wiggle = row_mag * 10f64.powi(-(4 + rng.below(4) as i32));
            let rhs = if benign {
                match sense {
                    Sense::Le => activity + rng.below(3) as f64 * wiggle,
                    Sense::Ge => activity - rng.below(3) as f64 * wiggle,
                    Sense::Eq => activity,
                }
            } else {
                rng.wide(6)
            };
            TortureRow { terms, sense, rhs }
        })
        .collect();
    TortureSpec { vars, rows }
}

// ---------------------------------------------------------------------------
// The certified-differential check
// ---------------------------------------------------------------------------

/// Sparse configurations exercised per torture case: the default
/// engine plus the fully modern one (devex pricing, Forrest–Tomlin
/// updates, dual cold starts).
pub const TORTURE_MATRIX: [(Pricing, EtaUpdate, ColdStart); 2] = [
    (Pricing::Dantzig, EtaUpdate::ProductForm, ColdStart::TwoPhase),
    (Pricing::Devex, EtaUpdate::ForrestTomlin, ColdStart::Auto),
];

fn sparse_opts(cfg: (Pricing, EtaUpdate, ColdStart)) -> SimplexOptions {
    SimplexOptions {
        backend: SolverBackend::SparseRevised,
        pricing: cfg.0,
        eta_update: cfg.1,
        cold_start: cfg.2,
        ..SimplexOptions::default()
    }
}

/// What one `(case, config)` torture run concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TortureOutcome {
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

/// Checks one spec under one sparse configuration. `Err(reason)` is a
/// real violation of the certification contract; `Ok(outcome)` says
/// what the comparison amounted to.
pub fn check(
    spec: &TortureSpec,
    cfg: (Pricing, EtaUpdate, ColdStart),
) -> Result<TortureOutcome, String> {
    let lp = spec.build();
    let opts = sparse_opts(cfg);
    let tols = opts.tols;
    let sparse = solve_with(&lp, opts);
    let dense = solve_with(
        &lp,
        SimplexOptions { backend: SolverBackend::DenseTableau, ..SimplexOptions::default() },
    );

    // Contract 1: an Optimal without a passing certificate must not
    // exist — certification runs on every return path.
    for (label, sol) in [("sparse", &sparse), ("dense", &dense)] {
        if sol.status == SolveStatus::Optimal {
            match sol.quality {
                None => return Err(format!("{label}: Optimal without SolutionQuality")),
                Some(q) if !q.passes(&tols) => {
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
        if (dense.objective - sparse.objective).abs() > AGREE_TOL * scale {
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

/// Greedy shrink to a local minimum while the violation persists:
/// drop rows, then unbind variables, mirroring the differential
/// suite's shrinker.
pub fn shrink(mut spec: TortureSpec, cfg: (Pricing, EtaUpdate, ColdStart)) -> TortureSpec {
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < spec.rows.len() {
            let mut candidate = spec.clone();
            candidate.rows.remove(i);
            if check(&candidate, cfg).is_err() {
                spec = candidate;
                reduced = true;
            } else {
                i += 1;
            }
        }
        for j in 0..spec.vars.len() {
            let already = spec.vars[j].lb == 0.0
                && spec.vars[j].ub.is_infinite()
                && spec.vars[j].cost == 0.0
                && spec.rows.iter().all(|r| r.terms.iter().all(|&(k, _)| k != j));
            if already {
                continue;
            }
            let mut candidate = spec.clone();
            candidate.vars[j] = TortureVar { lb: 0.0, ub: f64::INFINITY, cost: 0.0 };
            for r in &mut candidate.rows {
                r.terms.retain(|&(k, _)| k != j);
            }
            if check(&candidate, cfg).is_err() {
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
// The suite runner
// ---------------------------------------------------------------------------

/// One violation of the certification contract, reproducible from
/// `(seed, case)`.
#[derive(Debug, Clone)]
pub struct TortureViolation {
    /// Suite seed the case was drawn from.
    pub seed: u64,
    /// Case index under that seed.
    pub case: usize,
    /// Sparse configuration (`pricing/eta/cold-start`) that violated.
    pub config: String,
    /// What went wrong.
    pub reason: String,
    /// Debug rendering of the shrunk spec.
    pub shrunk: String,
}

/// Aggregate result of a torture sweep.
#[derive(Debug, Clone)]
pub struct TortureReport {
    /// Suite seed.
    pub seed: u64,
    /// Number of generated cases.
    pub cases: usize,
    /// Sparse configurations exercised per case.
    pub configs: usize,
    /// `(case, config)` runs where both engines certified Optimal and
    /// agreed.
    pub certified_agreements: usize,
    /// Runs where at least one engine declined to certify.
    pub suspect: usize,
    /// Runs where the sparse certificate refuted an uncertified dense
    /// infeasible/unbounded claim.
    pub oracle_refuted: usize,
    /// Runs where the sparse engine declined a program the dense
    /// oracle certifiably solved.
    pub sparse_refuted: usize,
    /// Runs with nothing to compare (infeasible/unbounded/limit).
    pub not_comparable: usize,
    /// Contract violations (must be empty for the gate to pass).
    pub violations: Vec<TortureViolation>,
}

/// Runs `cases` torture cases under every [`TORTURE_MATRIX`]
/// configuration and aggregates the outcome.
pub fn run(seed: u64, cases: usize) -> TortureReport {
    let mut report = TortureReport {
        seed,
        cases,
        configs: TORTURE_MATRIX.len(),
        certified_agreements: 0,
        suspect: 0,
        oracle_refuted: 0,
        sparse_refuted: 0,
        not_comparable: 0,
        violations: Vec::new(),
    };
    for case in 0..cases {
        let spec = generate(seed, case);
        for cfg in TORTURE_MATRIX {
            match check(&spec, cfg) {
                Ok(TortureOutcome::CertifiedAgreement) => {
                    report.certified_agreements += 1
                }
                Ok(TortureOutcome::Suspect) => report.suspect += 1,
                Ok(TortureOutcome::OracleRefuted) => report.oracle_refuted += 1,
                Ok(TortureOutcome::SparseRefuted) => report.sparse_refuted += 1,
                Ok(TortureOutcome::NotComparable) => report.not_comparable += 1,
                Err(reason) => {
                    let small = shrink(spec.clone(), cfg);
                    report.violations.push(TortureViolation {
                        seed,
                        case,
                        config: format!("{:?}/{:?}/{:?}", cfg.0, cfg.1, cfg.2),
                        reason,
                        shrunk: format!("{small:?}"),
                    });
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_ill_conditioned() {
        let a = generate(SUITE_SEED, 17);
        let b = generate(SUITE_SEED, 17);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Over a sample of cases the coefficient range must actually
        // span many decades — otherwise this is not a torture suite.
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for case in 0..50 {
            let spec = generate(SUITE_SEED, case);
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
        let report = run(SUITE_SEED, 60);
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
}

