//! The one test-oracle harness behind the differential suites
//! (`solver_differential`, `scenario_differential`, `tunnel_paths`)
//! and the `golden_solver` scaled-LP pin. A test binary takes it with
//! `pub mod oracle;`.
//!
//! * [`Rng`] — splitmix64, so a seed alone reproduces every draw;
//! * [`LpCase`] — a plain-data LP the shrinker can mutate, with its
//!   two generators: [`random_lp`] (benign, integer data, every
//!   status) and [`torture_lp`] (ill-conditioned);
//! * [`shrink`] — greedy shrink of any case under a failure predicate,
//!   and [`shrink_lp`], its LP simplifications;
//! * [`Sweep`] — the driver loop: draw each case, judge it under every
//!   configuration, shrink each failure and print its
//!   `(seed, case, config)` repro.

use prete_lp::{LinearProgram, Sense};
use std::fmt::Debug;

// ---------------------------------------------------------------------------
// Deterministic RNG (splitmix64)
// ---------------------------------------------------------------------------

/// Splitmix64 over its raw state: no external dependency, and the
/// seed alone reproduces the stream.
pub struct Rng(pub u64);

impl Rng {
    /// The stream for `seed`, offset so small seeds start apart.
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x5851_f42d_4c95_7f2d))
    }

    /// The stream for case `case` of a suite seeded `seed`.
    pub fn for_case(seed: u64, case: usize) -> Self {
        Rng::new(seed ^ (case as u64).wrapping_mul(0xd6e8_feb8_6659_fd93))
    }

    /// The next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)` at 53-bit resolution.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Small integer in `[-range, range]` — integer data makes ties
    /// (degeneracy) common, which is exactly what the anti-cycling
    /// machinery needs to be exercised on.
    pub fn small_int(&mut self, range: i64) -> f64 {
        (self.next_u64() % (2 * range as u64 + 1)) as i64 as f64 - range as f64
    }

    /// A coefficient with magnitude `10^e`, `e` uniform over
    /// `[-max_exp, max_exp]`, and a 1-digit mantissa so shrunk cases
    /// print readably.
    pub fn wide(&mut self, max_exp: i32) -> f64 {
        let exp = self.below(2 * max_exp as usize + 1) as i32 - max_exp;
        let mantissa = 1 + self.below(9) as i64; // 1..=9
        let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
        sign * mantissa as f64 * 10f64.powi(exp)
    }
}

// ---------------------------------------------------------------------------
// The LP case and its shrinker
// ---------------------------------------------------------------------------

/// One variable of an LP case.
#[derive(Debug, Clone)]
pub struct LpVar {
    /// Lower bound (always finite).
    pub lb: f64,
    /// Upper bound (may be `+∞`).
    pub ub: f64,
    /// Objective coefficient.
    pub cost: f64,
}

/// One constraint row of an LP case.
#[derive(Debug, Clone)]
pub struct LpRow {
    /// Sparse `(var index, coefficient)` terms.
    pub terms: Vec<(usize, f64)>,
    /// Row sense.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

/// A plain-data LP, buildable into a [`LinearProgram`].
#[derive(Debug, Clone)]
pub struct LpCase {
    /// Variables in index order.
    pub vars: Vec<LpVar>,
    /// Constraint rows.
    pub rows: Vec<LpRow>,
}

impl LpCase {
    /// Materializes the case as a solver-ready program.
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

/// Greedy shrink to a local minimum: while some one-step
/// simplification from `smaller` still `fails`, take the first such.
/// Every step must make the case strictly smaller, so this ends.
pub fn shrink<C>(mut case: C, smaller: impl Fn(&C) -> Vec<C>, fails: impl Fn(&C) -> bool) -> C {
    while let Some(next) = smaller(&case).into_iter().find(|c| fails(c)) {
        case = next;
    }
    case
}

/// [`shrink`] over an LP case's one-step simplifications: drop a row,
/// or unbind a variable (cost → 0, bounds → [0, ∞), terms removed).
pub fn shrink_lp(case: LpCase, fails: impl Fn(&LpCase) -> bool) -> LpCase {
    let smaller = |case: &LpCase| {
        let drops = (0..case.rows.len()).map(|i| {
            let mut candidate = case.clone();
            candidate.rows.remove(i);
            candidate
        });
        let unbinds = (0..case.vars.len())
            .filter(|&j| {
                case.vars[j].lb != 0.0
                    || case.vars[j].ub.is_finite()
                    || case.vars[j].cost != 0.0
                    || case.rows.iter().any(|r| r.terms.iter().any(|&(k, _)| k == j))
            })
            .map(|j| {
                let mut candidate = case.clone();
                candidate.vars[j] = LpVar { lb: 0.0, ub: f64::INFINITY, cost: 0.0 };
                for r in &mut candidate.rows {
                    r.terms.retain(|&(k, _)| k != j);
                }
                candidate
            });
        drops.chain(unbinds).collect()
    };
    shrink(case, smaller, fails)
}

// ---------------------------------------------------------------------------
// The two LP generators
// ---------------------------------------------------------------------------

/// Seed of the random-LP differential; `(RANDOM_LP_SEED, case)`
/// reproduces any case.
pub const RANDOM_LP_SEED: u64 = 0x9e37_79b9_2026_0807;

/// Seed of the torture sweep; `(TORTURE_SEED, case)` reproduces any
/// case.
pub const TORTURE_SEED: u64 = 0x7011_7012_2026_0810;

/// Draws one random case. Sizes stay small (≤ 12 vars, ≤ 14 rows) so
/// 500+ cases run in seconds; density, bound shapes, senses and the
/// integer-valued data vary enough to hit every status and plenty of
/// degeneracy.
pub fn random_lp(seed: u64, case: usize) -> LpCase {
    let mut rng = Rng::for_case(seed, case);
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
    let vars: Vec<LpVar> = (0..n)
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
            LpVar { lb, ub, cost }
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
            LpRow { terms, sense, rhs }
        })
        .collect();
    LpCase { vars, rows }
}

/// Draws one ill-conditioned case: coefficient magnitudes span
/// `1e-8..1e8`, a fraction of the columns are near-parallel copies of
/// earlier ones (perturbed at relative `1e-7..1e-3`, the classic
/// near-singular-basis trap), and right-hand sides are anchored at an
/// in-box point with tiny perturbations so vertices are nearly
/// degenerate. Sizes stay small (≤ 10 vars, ≤ 12 rows) so hundreds of
/// cases run in seconds; the nastiness is in the *data*, not the
/// dimensions.
pub fn torture_lp(seed: u64, case: usize) -> LpCase {
    let mut rng = Rng::for_case(seed, case);
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
    let vars: Vec<LpVar> = (0..n)
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
            LpVar { lb, ub, cost }
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
    // tiny relative perturbation — inside a basis they produce
    // near-singular factorizations.
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
    let rows: Vec<LpRow> = (0..m)
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
            LpRow { terms, sense, rhs }
        })
        .collect();
    LpCase { vars, rows }
}

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

/// `Err(what())` unless `ok`: the `assert!` of a verdict that reports
/// to a [`Sweep`] instead of panicking.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// A seeded suite: `cases` cases drawn from `seed`, each judged under
/// every entry of `configs` (`&[()]` for a suite with one).
pub struct Sweep<'a, K> {
    /// Where the generator lives, printed with each repro.
    pub generator: &'a str,
    /// Suite seed handed to the generator.
    pub seed: u64,
    /// Number of cases.
    pub cases: usize,
    /// Configurations every case is judged under.
    pub configs: &'a [K],
}

impl<K: Copy + Debug> Sweep<'_, K> {
    /// Draws case `i` as `generate(seed, i)`, runs `verdict` under
    /// every configuration, shrinks each failure with `shrink` and
    /// prints its repro. A verdict that counts coverage does so on its
    /// `Ok` path. Returns the failures as `(case, config, reason)`.
    pub fn run<C: Debug>(
        &self,
        mut generate: impl FnMut(u64, usize) -> C,
        mut verdict: impl FnMut(&C, K) -> Result<(), String>,
        shrink: impl Fn(&C, K) -> C,
    ) -> Vec<(usize, K, String)> {
        let mut failures = Vec::new();
        for case in 0..self.cases {
            let spec = generate(self.seed, case);
            for &config in self.configs {
                if let Err(reason) = verdict(&spec, config) {
                    let small = shrink(&spec, config);
                    eprintln!(
                        "FAIL (seed={:#x}, case={case}, {config:?}): {reason}\n  \
                         shrunk to: {small:?}\n  reproduce: case {case} of {} at seed {:#x}",
                        self.seed, self.generator, self.seed
                    );
                    failures.push((case, config, reason));
                }
            }
        }
        failures
    }
}
