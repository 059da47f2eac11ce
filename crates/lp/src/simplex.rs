//! Two-phase dense-tableau primal simplex with dual extraction.
//!
//! ## Transformation pipeline
//!
//! 1. Variables are shifted so every lower bound is 0 (`x = x' + lb`);
//!    the objective constant this introduces is added back at the end.
//! 2. Finite upper bounds become extra `<=` rows (the TE programs have
//!    very few of them — only the loss variables are boxed).
//! 3. Rows with negative right-hand side are negated (senses flip).
//! 4. `<=` rows get a slack column, `>=` rows a surplus column plus an
//!    artificial, `=` rows an artificial.
//! 5. Phase 1 minimizes the artificial sum from the slack/artificial
//!    basis; phase 2 minimizes the real objective with artificial
//!    columns barred from entering.
//!
//! ## Duals
//!
//! [`Solution::duals`] reports one multiplier per *user* constraint with
//! the convention that, at optimality of a minimization problem,
//! `objective = Σ_i duals[i] · rhs[i]` whenever all variable lower
//! bounds are 0 and no upper bound is active. Signs follow the senses:
//! `<=` rows have non-positive duals, `>=` rows non-negative, `=` rows
//! free. These are exactly the multipliers the Benders optimality cut
//! (Eqn (11) / Appendix A.5) needs.
//!
//! ## Anti-cycling
//!
//! Dantzig pricing with an automatic switch to Bland's rule after a
//! stall (many iterations without objective improvement) guarantees
//! termination.

use crate::model::{LinearProgram, Sense};

/// Which simplex engine executes a solve.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum SolverBackend {
    /// The original dense-tableau two-phase primal simplex. Kept as the
    /// trusted oracle and as the automatic fallback when the sparse
    /// engine hits a singular basis factorization.
    DenseTableau,
    /// Sparse revised simplex: presolve, CSC columns, LU-factorized
    /// basis with product-form eta updates and periodic
    /// refactorization, partial pricing with a Bland's-rule
    /// anti-cycling fallback. The default — TE programs are extremely
    /// sparse and the revised iteration costs `O(nnz)` instead of the
    /// dense `O(m·n)` tableau elimination.
    #[default]
    SparseRevised,
}

/// Entering-variable pricing rule for the sparse revised engine.
///
/// The dense tableau oracle always prices with full Dantzig scans; this
/// knob only affects [`SolverBackend::SparseRevised`]. Both rules share
/// the automatic Bland's-rule anti-cycling fallback after a stall.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum Pricing {
    /// Segmented partial Dantzig pricing: scan reduced costs in
    /// rotating segments, take the most negative. Cheap per iteration
    /// but blind to column geometry, so pivot counts grow on long thin
    /// programs. The default — it preserves the historical pivot
    /// sequences bit-for-bit.
    #[default]
    Dantzig,
    /// Devex reference-framework pricing (Forrest–Goldfarb): maximize
    /// `d_j² / γ_j` where `γ_j` approximates the steepest-edge norm of
    /// column `j` in the current reference framework. Costs one extra
    /// BTRAN per pivot but typically cuts pivot counts by severalfold
    /// on the TE polish programs.
    Devex,
}

/// Basis-inverse update strategy for the sparse revised engine.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum EtaUpdate {
    /// Product-form eta file: one dense eta column per pivot, with a
    /// full refactorization every fixed number of pivots. Simple and
    /// the historical default, but FTRAN/BTRAN cost grows linearly in
    /// the eta count and the file churns on long solves.
    #[default]
    ProductForm,
    /// Forrest–Tomlin LU updates: the factorization itself absorbs each
    /// basis change (spike column + one row elimination), with
    /// refactorization triggered by a numerical stability test instead
    /// of a fixed cadence. FTRAN/BTRAN stay near the cold-factor cost
    /// across hundreds of pivots.
    ForrestTomlin,
}

/// Cold-start strategy for the sparse revised engine.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum ColdStart {
    /// Pick the cheapest sound start per program: when every
    /// negative-cost column carries a finite upper bound (and no
    /// equality rows force artificials), start from the all-slack
    /// basis with those columns nonbasic at their upper bounds — that
    /// assignment is dual feasible by construction, so a single dual
    /// simplex pass replaces the whole two-phase primal sequence.
    /// Programs that don't qualify fall back to [`ColdStart::TwoPhase`].
    ///
    /// Opt-in rather than the default: on degenerate programs the dual
    /// path reaches a different (equally optimal) vertex than the
    /// historical primal sequence, which shifts tie-broken allocations
    /// that golden fixtures and scheme-comparison tests pin down.
    Auto,
    /// Always run the classic primal two-phase method from the
    /// slack/artificial basis. This reproduces the historical cold-solve
    /// pivot sequences bit-for-bit (and is the benchmark regression
    /// gate's legacy leg), so it is the default.
    #[default]
    TwoPhase,
}

/// The documented numerical tolerances of both simplex engines,
/// centralizing the thresholds that used to live as scattered literals
/// across the factorization, pricing, ratio-test and presolve code.
///
/// Every field except the two limits is a *tolerance*: a dimensionless
/// threshold in `(0, 1)`. The defaults reproduce the historical
/// constants bit-for-bit, so `Tolerances::default()` leaves every
/// existing pivot sequence unchanged. Use
/// [`SimplexOptions::validate`] to reject malformed values with a
/// typed [`ConfigError`] before a solve silently misbehaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Primal/dual feasibility threshold for warm-restore usability
    /// checks, artificial drive-out and bound-activity tests
    /// (historically the scattered `1e-7` literals).
    pub feas: f64,
    /// Dual-simplex pivot admission threshold: entries smaller than
    /// this (relative to the row) are not eligible pivots
    /// (historically `DUAL_PIVOT_TOL = 1e-7`).
    pub dual_pivot: f64,
    /// Phase-1 objective residual above which the program is declared
    /// infeasible (historically `1e-6`).
    pub phase1_infeas: f64,
    /// Absolute pivot magnitude below which an LU factorization
    /// declares the basis singular (historically `SINGULAR_TOL =
    /// 1e-11`).
    pub singular: f64,
    /// Markowitz-style peel tolerance: triangular-peel pivots smaller
    /// than this are deferred into the partial-pivoted dense bump
    /// instead of being accepted. Raised adaptively (sticky, per
    /// core) by the `TightenTolerance` recovery rung.
    pub peel: f64,
    /// Forrest–Tomlin relative stability bound: an update whose
    /// diagonal is below `ft_stability × max|spike|` forces a
    /// refactorization instead (historically `FT_STAB_REL = 1e-7`).
    pub ft_stability: f64,
    /// Objective improvement below which an iteration counts toward
    /// the anti-cycling stall detector (historically `1e-12`).
    pub stall_improvement: f64,
    /// Relative residual `‖b − B x_B‖∞ / (1 + ‖b‖∞)` of the basic
    /// solution above which one step of iterative refinement runs
    /// after a (re)factorization.
    pub residual: f64,
    /// Certification: relative primal residual (row violation and
    /// bound violation) admitted for an `Optimal` verdict.
    pub certify_primal: f64,
    /// Certification: relative dual-stationarity residual admitted for
    /// an `Optimal` verdict.
    pub certify_dual: f64,
    /// Certification: relative complementary-slackness residual
    /// admitted for an `Optimal` verdict.
    pub certify_comp: f64,
    /// Certification: largest admissible
    /// [`SolutionQuality::value_sensitivity`] — the relative objective
    /// uncertainty the feasibility tolerance induces through the duals.
    pub certify_value: f64,
    /// Basis condition-number estimate (1-norm, LINPACK-style) above
    /// which an otherwise optimal solve is downgraded to
    /// [`SolveStatus::NumericallySuspect`]. A *limit*, not a
    /// tolerance: must be finite and ≥ 1.
    pub condition_limit: f64,
    /// Coefficient dynamic range `max|a| / min|a|` above which
    /// geometric-mean equilibration scaling is applied before the
    /// sparse factorization. A *limit*: must be finite and ≥ 1.
    /// Well-scaled programs below it keep their historical pivot
    /// sequences bit-for-bit.
    pub scale_threshold: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Self {
            feas: 1e-7,
            dual_pivot: 1e-7,
            phase1_infeas: 1e-6,
            singular: 1e-11,
            peel: 1e-11,
            ft_stability: 1e-7,
            stall_improvement: 1e-12,
            residual: 1e-9,
            certify_primal: 1e-6,
            certify_dual: 1e-6,
            certify_comp: 1e-5,
            certify_value: 1e-3,
            condition_limit: 1e14,
            scale_threshold: 1e6,
        }
    }
}

impl Tolerances {
    /// Checks every field, returning the first violation as a typed
    /// [`ConfigError`]. Tolerance fields must be finite and in
    /// `(0, 1)`; limit fields (`condition_limit`, `scale_threshold`)
    /// must be finite and ≥ 1.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let tols = [
            ("feas", self.feas),
            ("dual_pivot", self.dual_pivot),
            ("phase1_infeas", self.phase1_infeas),
            ("singular", self.singular),
            ("peel", self.peel),
            ("ft_stability", self.ft_stability),
            ("stall_improvement", self.stall_improvement),
            ("residual", self.residual),
            ("certify_primal", self.certify_primal),
            ("certify_dual", self.certify_dual),
            ("certify_comp", self.certify_comp),
            ("certify_value", self.certify_value),
        ];
        for (field, value) in tols {
            if !(value > 0.0 && value < 1.0) {
                return Err(ConfigError::InvalidTolerance { field, value });
            }
        }
        for (field, value) in
            [("condition_limit", self.condition_limit), ("scale_threshold", self.scale_threshold)]
        {
            if !(value.is_finite() && value >= 1.0) {
                return Err(ConfigError::InvalidLimit { field, value });
            }
        }
        Ok(())
    }
}

/// A malformed [`SimplexOptions`] / [`Tolerances`] value, reported at
/// build/validate time instead of silently corrupting a solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A tolerance field must be finite and strictly inside `(0, 1)`;
    /// NaN, zero, negative and ≥ 1 values are all rejected.
    InvalidTolerance {
        /// Name of the offending [`Tolerances`] field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A limit field must be finite and ≥ 1.
    InvalidLimit {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// An iteration/threshold count that must be positive was zero.
    InvalidCount {
        /// Name of the offending [`SimplexOptions`] field.
        field: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidTolerance { field, value } => write!(
                f,
                "tolerance `{field}` must be finite and in (0, 1), got {value}"
            ),
            ConfigError::InvalidLimit { field, value } => {
                write!(f, "limit `{field}` must be finite and >= 1, got {value}")
            }
            ConfigError::InvalidCount { field } => {
                write!(f, "`{field}` must be positive")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Solver tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SimplexOptions {
    /// Hard cap on pivots across both phases.
    pub max_iterations: usize,
    /// Numerical tolerance for reduced costs / pivots / feasibility.
    pub eps: f64,
    /// The documented numerical-tolerance set (see [`Tolerances`]).
    pub tols: Tolerances,
    /// Iterations without improvement before switching to Bland's rule.
    pub stall_threshold: usize,
    /// Worker threads for the parallel kernels (1 = serial).
    ///
    /// Dense backend: rows are eliminated independently against a
    /// snapshot of the normalized pivot row, above
    /// [`PARALLEL_PIVOT_CELLS`] tableau cells; every thread count —
    /// including 1 — performs the exact same per-cell arithmetic, so
    /// results are bit-identical, and entering/leaving selection
    /// always runs on the coordinating thread. The sparse backend is
    /// serial whatever this says: a pricing segment is too little work
    /// to pay for a thread spawn (measured 4–5× slower fanned out), and
    /// its workspace belongs to one thread.
    pub threads: usize,
    /// Engine selection (default [`SolverBackend::SparseRevised`] with
    /// automatic dense fallback on factorization failure).
    pub backend: SolverBackend,
    /// Entering-variable pricing rule (sparse engine only).
    pub pricing: Pricing,
    /// Basis-inverse update strategy (sparse engine only).
    pub eta_update: EtaUpdate,
    /// Cold-start strategy (sparse engine only).
    pub cold_start: ColdStart,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200_000,
            eps: 1e-9,
            tols: Tolerances::default(),
            stall_threshold: 1_000,
            threads: 1,
            backend: SolverBackend::default(),
            pricing: Pricing::default(),
            eta_update: EtaUpdate::default(),
            cold_start: ColdStart::default(),
        }
    }
}

impl SimplexOptions {
    /// Validates the numeric knobs, returning the first violation as a
    /// typed [`ConfigError`]: `eps` must be a tolerance in `(0, 1)`,
    /// `max_iterations`/`stall_threshold` must be positive, and every
    /// [`Tolerances`] field must pass [`Tolerances::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.eps > 0.0 && self.eps < 1.0) {
            return Err(ConfigError::InvalidTolerance { field: "eps", value: self.eps });
        }
        if self.max_iterations == 0 {
            return Err(ConfigError::InvalidCount { field: "max_iterations" });
        }
        if self.stall_threshold == 0 {
            return Err(ConfigError::InvalidCount { field: "stall_threshold" });
        }
        self.tols.validate()
    }
}

/// Minimum tableau cells (`rows × columns`) before a pivot fans row
/// elimination out across threads; below this the spawn overhead
/// dominates.
pub const PARALLEL_PIVOT_CELLS: usize = 32_768;

/// Outcome of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// An optimal basic solution was found *and* its KKT residuals
    /// passed certification — `Optimal` is never returned uncertified.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// Iteration limit hit before convergence.
    IterationLimit,
    /// The engine terminated at a formally optimal basis whose KKT
    /// residuals (or basis condition estimate) failed certification.
    /// `x`, `objective` and `duals` carry the best point found and
    /// [`Solution::quality`] reports the measured residuals, but the
    /// answer must not be trusted as exact.
    NumericallySuspect,
}

/// Per-solve engine counters beyond the pivot count. All zeros for the
/// dense backend (it has no factorization machinery).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Basis LU (re)factorizations, including the initial one.
    pub refactorizations: u64,
    /// Basis updates absorbed between refactorizations (product-form
    /// eta vectors or Forrest–Tomlin spike updates, depending on
    /// [`EtaUpdate`]).
    pub etas: u64,
    /// Cumulative LU fill-in (factor nonzeros beyond the basis
    /// nonzeros) across all factorizations.
    pub fill_in: u64,
    /// Forrest–Tomlin pivot rollbacks: pivots undone because the
    /// post-pivot refactorization failed, forcing the engine to
    /// restore the previous basis and re-pivot. Always zero under
    /// product-form updates.
    pub rollbacks: u64,
    /// Iterative-refinement steps applied to basic solutions whose
    /// residual exceeded [`Tolerances::residual`].
    pub refinements: u64,
    /// `TightenTolerance` recovery rungs taken: refactorizations
    /// retried with a raised peel tolerance after instability.
    pub tightenings: u64,
    /// `PatchSingularColumn` recovery rungs taken: basis columns
    /// replaced by their initial slack/artificial column to escape a
    /// singular factorization.
    pub patched_columns: u64,
    /// Largest 1-norm condition estimate (LINPACK-style) observed
    /// across this solve's basis factorizations; `0` when no estimate
    /// was computed (dense backend, or `m == 0`). Deterministic: a
    /// pure function of the pivot sequence.
    pub condition_estimate: f64,
    /// Whether a sparse solve failed factorization and the dense
    /// engine produced this solution instead.
    pub dense_fallback: bool,
}

/// KKT-residual certificate attached to every solution that terminated
/// at a formally optimal basis. All residuals are relative (scaled by
/// `1 + ‖row‖`-style factors), so the documented certification
/// tolerances apply uniformly across badly scaled programs.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SolutionQuality {
    /// Max relative primal violation over constraint rows and variable
    /// bounds.
    pub primal_residual: f64,
    /// Max relative dual-stationarity violation: `μ = c − Aᵀy` checked
    /// against the sign its variable's active bound requires.
    pub dual_residual: f64,
    /// Max relative complementary-slackness violation over inequality
    /// rows.
    pub complementarity: f64,
    /// Largest basis condition estimate observed during the solve
    /// (`0` when unavailable — the dense oracle computes none).
    pub condition_estimate: f64,
    /// Conditioning of the optimal *value* at this vertex: the
    /// objective change the certified feasibility slack can hide,
    /// relative to the objective — `max_i |y_i|·certify_primal·scale_i
    /// / (1 + |obj|)`. When large, two solvers can both be "optimal to
    /// tolerance" yet report values far apart, so certification is
    /// refused.
    pub value_sensitivity: f64,
}

impl SolutionQuality {
    /// Whether every residual passes the given certification
    /// tolerances (the condition estimate is gated only when one was
    /// computed).
    pub fn passes(&self, tols: &Tolerances) -> bool {
        self.primal_residual <= tols.certify_primal
            && self.dual_residual <= tols.certify_dual
            && self.complementarity <= tols.certify_comp
            && self.value_sensitivity <= tols.certify_value
            && (self.condition_estimate == 0.0
                || self.condition_estimate <= tols.condition_limit)
    }
}

/// A numerical-trouble signal raised inside the sparse engine. Each
/// event maps, deterministically, onto a ladder of
/// [`RecoveryAction`]s — tried in order until one succeeds — replacing
/// the old single singular-factorization → dense-fallback edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumericsEvent {
    /// `‖b − B·x_B‖∞` exceeded [`Tolerances::residual`] after a
    /// factorization.
    ResidualExceeded,
    /// The basis factorization came out singular (a peel or bump pivot
    /// fell below [`Tolerances::singular`]).
    SingularFactorization,
    /// A Forrest–Tomlin / eta update was rejected as unstable.
    UnstableUpdate,
    /// The basis condition estimate exceeded
    /// [`Tolerances::condition_limit`].
    ConditionExceeded,
}

/// One rung of the numerical recovery ladder. The mapping from event
/// to rung sequence is a pure function ([`NumericsEvent::ladder`]), so
/// replayed solves take bit-identical recovery paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// One-step iterative refinement of the basic solution.
    Refine,
    /// Rebuild the LU factors from scratch at the current basis.
    Refactorize,
    /// Raise the sticky Markowitz peel tolerance and refactorize
    /// (defers near-singular singleton pivots into the partial-pivoted
    /// bump).
    TightenTolerance,
    /// Replace the offending basis column with the slot's initial
    /// slack/artificial column and refactorize.
    PatchSingularColumn,
    /// Abandon the sparse engine for this solve; the dense tableau
    /// oracle produces the solution.
    DenseFallback,
}

impl NumericsEvent {
    /// The ordered recovery rungs tried for this event.
    pub fn ladder(self) -> &'static [RecoveryAction] {
        use RecoveryAction::*;
        match self {
            NumericsEvent::ResidualExceeded => &[Refine, Refactorize, DenseFallback],
            NumericsEvent::SingularFactorization => {
                &[TightenTolerance, PatchSingularColumn, DenseFallback]
            }
            NumericsEvent::UnstableUpdate => &[Refactorize, TightenTolerance, DenseFallback],
            NumericsEvent::ConditionExceeded => &[Refactorize, DenseFallback],
        }
    }
}

/// A solved linear program.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Termination status.
    pub status: SolveStatus,
    /// Optimal variable values (original variable space); meaningful
    /// only when the status is [`SolveStatus::Optimal`] or
    /// [`SolveStatus::NumericallySuspect`].
    pub x: Vec<f64>,
    /// Optimal objective value.
    pub objective: f64,
    /// Dual multipliers, one per user constraint (see module docs).
    pub duals: Vec<f64>,
    /// Total pivots performed.
    pub iterations: usize,
    /// Engine counters (refactorizations, etas, fill-in, fallback).
    pub engine: EngineStats,
    /// KKT certificate, present whenever the engine reached a formally
    /// optimal basis (`Optimal` and `NumericallySuspect` statuses).
    pub quality: Option<SolutionQuality>,
}

impl Solution {
    /// Convenience accessor returning the value of a variable.
    pub fn value(&self, v: crate::model::VarId) -> f64 {
        self.x[v.index()]
    }

    /// Whether the solve reached *certified* optimality.
    pub fn is_optimal(&self) -> bool {
        self.status == SolveStatus::Optimal
    }

    /// Whether the solution carries a usable point: certified optimal,
    /// or formally optimal but numerically suspect. Callers that can
    /// tolerate approximate answers (and surface the suspicion) should
    /// branch on this instead of [`Solution::is_optimal`].
    pub fn is_usable(&self) -> bool {
        matches!(self.status, SolveStatus::Optimal | SolveStatus::NumericallySuspect)
    }
}

/// Certifies a formally optimal solution against the *original*
/// program: computes the relative KKT residuals, attaches them as
/// [`Solution::quality`], and downgrades `Optimal` to
/// [`SolveStatus::NumericallySuspect`] when any residual (or the basis
/// condition estimate) exceeds its certification tolerance.
/// Non-optimal statuses pass through untouched. `O(nnz)`.
pub(crate) fn certify(lp: &LinearProgram, sol: &mut Solution, tols: &Tolerances) {
    if sol.status != SolveStatus::Optimal {
        return;
    }
    let x = &sol.x;
    let mut primal = 0.0f64;
    let mut comp = 0.0f64;
    let mut dual_sign = 0.0f64;
    let mut obj_err = 0.0f64;
    let mut sens = 0.0f64;
    // Dual-stationarity accumulators: Σ_i y_i a_ij and Σ_i |y_i a_ij|,
    // plus per-column magnitude proxies for the objective-sensitivity
    // guard below: the largest |a_ij| and largest |rhs_i| over the
    // rows each variable appears in.
    let mut acc = vec![0.0f64; lp.num_vars()];
    let mut acc_abs = vec![0.0f64; lp.num_vars()];
    let mut a_max = vec![0.0f64; lp.num_vars()];
    let mut b_max = vec![0.0f64; lp.num_vars()];
    for c in lp.constraints() {
        for &(v, a) in &c.terms {
            let j = v.index();
            a_max[j] = a_max[j].max(a.abs());
            b_max[j] = b_max[j].max(c.rhs.abs());
        }
    }
    for (i, c) in lp.constraints().iter().enumerate() {
        let lhs: f64 = c.terms.iter().map(|&(v, a)| a * x[v.index()]).sum();
        let scale = 1.0 + lhs.abs() + c.rhs.abs();
        let viol = match c.sense {
            Sense::Le => (lhs - c.rhs).max(0.0),
            Sense::Ge => (c.rhs - lhs).max(0.0),
            Sense::Eq => (lhs - c.rhs).abs(),
        };
        primal = primal.max(viol / scale);
        let yi = sol.duals.get(i).copied().unwrap_or(0.0);
        // Row-dual sign check: `<=` rows need non-positive duals, `>=`
        // non-negative (module docs). A wrong-signed multiplier —
        // however tiny — invalidates the dual bound in proportion to
        // the row's activity scale: a +2e-10 dual on a tight `<=` row
        // with a 1e12 rhs mis-certifies the objective by O(100).
        let wrong = match c.sense {
            Sense::Le => yi.max(0.0),
            Sense::Ge => (-yi).max(0.0),
            Sense::Eq => 0.0,
        };
        dual_sign = dual_sign.max(wrong * (1.0 + lhs.abs() + c.rhs.abs()));
        if yi != 0.0 {
            // A nonzero dual asserts the row binds exactly; any
            // deviation |lhs − rhs| mis-states the certified objective
            // by |y_i|·deviation. Accumulated *unnormalized* — a 1e13
            // dual on a row violated by 2e-10 is a 2e3 objective error
            // that per-row relative scaling would hide.
            obj_err = obj_err.max(yi.abs() * (lhs - c.rhs).abs());
            // Conditioning of the *value* itself: the certified-primal
            // tolerance permits a slack of `certify_primal·scale` on
            // this row, and the dual says the objective moves |y_i|
            // per unit of slack. Tracked as its own residual
            // (`value_sensitivity`): when material, the optimal value
            // cannot be pinned down at certification precision by any
            // f64 solve — two engines can certify answers far apart,
            // each exactly optimal for a program within the
            // feasibility tolerance of this one.
            sens = sens.max(yi.abs() * scale);
            if c.sense != Sense::Eq {
                let slack = (lhs - c.rhs).abs();
                comp = comp.max(yi.abs() * slack / ((1.0 + yi.abs()) * scale));
            }
            for &(v, a) in &c.terms {
                acc[v.index()] += yi * a;
                acc_abs[v.index()] += (yi * a).abs();
            }
        }
    }
    comp = comp.max(obj_err / (1.0 + sol.objective.abs()));
    let mut dual = dual_sign / (1.0 + sol.objective.abs());
    for (j, v) in lp.vars().iter().enumerate() {
        let xs = 1.0 + x[j].abs();
        let bound_viol =
            (v.lower - x[j]).max(0.0).max((x[j] - v.upper).max(0.0));
        primal = primal.max(bound_viol / xs);
        // μ must be ≥ 0 at the lower bound, ≤ 0 at the upper bound and
        // ≈ 0 strictly between; the bound-activity test uses `feas`.
        let mu = v.objective - acc[j];
        let at_lower = x[j] - v.lower <= tols.feas * xs;
        let at_upper = v.upper.is_finite() && v.upper - x[j] <= tols.feas * xs;
        let viol = match (at_lower, at_upper) {
            (true, true) => 0.0, // fixed variable: μ is free
            (true, false) => (-mu).max(0.0),
            (false, true) => mu.max(0.0),
            (false, false) => mu.abs(),
        };
        dual = dual.max(viol / (1.0 + v.objective.abs() + acc_abs[j]));
        // Objective-sensitivity guard: ε-stationarity alone certifies
        // wrong answers on wide-range data — a −1e-12 reduced cost on
        // a variable that can move 1e11 units is an O(1) missed
        // improvement. `reach` estimates the step the variable could
        // plausibly take (its bound range, capped by the rhs-to-
        // coefficient ratio of its rows) and the violation is weighed
        // against the objective magnitude at that reach.
        if viol > 0.0 {
            let mut reach = if a_max[j] > 0.0 { b_max[j] / a_max[j] } else { 1.0 };
            if v.upper.is_finite() {
                reach = reach.min(v.upper - v.lower);
            }
            let reach = reach.max(1.0).max(x[j].abs());
            dual = dual.max(viol * reach / (1.0 + sol.objective.abs()));
        }
    }
    let quality = SolutionQuality {
        primal_residual: primal,
        dual_residual: dual,
        complementarity: comp,
        condition_estimate: sol.engine.condition_estimate,
        value_sensitivity: sens * tols.certify_primal / (1.0 + sol.objective.abs()),
    };
    if !quality.passes(tols) {
        sol.status = SolveStatus::NumericallySuspect;
    }
    sol.quality = Some(quality);
}

/// Solves a [`LinearProgram`] (minimization) with default options.
pub fn solve(lp: &LinearProgram) -> Solution {
    solve_with(lp, SimplexOptions::default())
}

/// Solves with explicit options, dispatching on
/// [`SimplexOptions::backend`]. A sparse solve that fails basis
/// factorization falls back to the dense engine automatically (flagged
/// in [`EngineStats::dense_fallback`]).
pub fn solve_with(lp: &LinearProgram, opts: SimplexOptions) -> Solution {
    match opts.backend {
        SolverBackend::DenseTableau => solve_dense(lp, opts),
        SolverBackend::SparseRevised => match crate::sparse::solve_sparse(lp, opts) {
            Ok(sol) => sol,
            Err(_) => {
                let mut sol = solve_dense(lp, opts);
                sol.engine.dense_fallback = true;
                sol
            }
        },
    }
}

fn solve_dense(lp: &LinearProgram, opts: SimplexOptions) -> Solution {
    let mut t = Tableau::build(lp, opts);
    let mut sol = t.run(lp);
    certify(lp, &mut sol, &opts.tols);
    sol
}

/// A saved simplex basis: the basic column of every tableau row plus a
/// signature of the tableau *structure* (row senses, sign
/// normalization, bound pattern) it was extracted from.
///
/// A basis can be restored onto a later tableau with the same structure
/// even when matrix coefficients or right-hand sides changed — exactly
/// the shape of successive TE epochs, where demands drift but the
/// constraint skeleton is fixed. Restoring skips simplex phase 1
/// entirely and usually leaves only a handful of phase-2 (or dual)
/// pivots.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Basis {
    cols: Vec<usize>,
    signature: u64,
    /// Nonbasic-at-upper-bound flags, one per engine column (sparse
    /// engine with native bounds only; empty for the dense tableau,
    /// whose bounds live in explicit rows). Pre-bounds snapshots lack
    /// the field and fail to decode — the checkpoint layer versions
    /// its snapshots (`CHECKPOINT_VERSION`), so stale ones are rebuilt
    /// from the journal instead of restored.
    at_upper: Vec<bool>,
}

impl Basis {
    /// Number of rows the basis covers.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the basis is empty.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// The structural signature of the tableau this basis came from.
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// Assembles a basis from raw parts (sparse engine use).
    pub(crate) fn from_parts(cols: Vec<usize>, signature: u64, at_upper: Vec<bool>) -> Self {
        Self { cols, signature, at_upper }
    }

    /// The basic column per row.
    pub(crate) fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Nonbasic-at-upper flags per engine column (may be empty).
    pub(crate) fn at_upper(&self) -> &[bool] {
        &self.at_upper
    }
}

/// A persistent simplex instance that keeps its tableau alive between
/// solves so follow-up solves can be warm-started.
///
/// Two warm paths are supported:
///
/// * [`WarmSimplex::resolve_rhs`] — the caller changed *only*
///   right-hand sides (via [`LinearProgram::set_rhs`]) since the last
///   solve. The live tableau's rhs column is recomputed through the
///   basis inverse (read off the identity columns) and a dual-simplex
///   loop restores feasibility: the previous optimal basis is dual
///   feasible by construction, so this typically takes a few pivots
///   where a cold solve would need full phase 1 + 2. This is the
///   within-Benders warm start (the δ selection only moves the
///   coverage right-hand sides).
/// * [`WarmSimplex::solve_from`] — a fresh solve seeded from a saved
///   [`Basis`] (for example from a [`crate::BasisCache`] across
///   controller epochs). The tableau is rebuilt with the new
///   coefficients, the basis is restored by prescribed pivots, and
///   phase 1 is skipped when the restored point is primal or dual
///   feasible.
///
/// Every warm path falls back to a cold solve on any mismatch, so the
/// result status is never worse than [`solve_with`].
#[derive(Debug)]
pub struct WarmSimplex {
    opts: SimplexOptions,
    state: Option<WarmState>,
    sparse: Option<crate::sparse::SparseEngine>,
    /// Counters carried over from sparse engines discarded after a
    /// factorization failure, so lifetime stats survive the fallback.
    retired_pivots: usize,
    retired_engine: EngineStats,
}

#[derive(Debug)]
struct WarmState {
    tab: Tableau,
    /// User-constraint rhs values at build time (baseline for deltas).
    build_user_rhs: Vec<f64>,
    optimal: bool,
}

impl WarmSimplex {
    /// Creates an instance with the given options.
    pub fn new(opts: SimplexOptions) -> Self {
        Self {
            opts,
            state: None,
            sparse: None,
            retired_pivots: 0,
            retired_engine: EngineStats::default(),
        }
    }

    /// Banks a failed sparse engine's counters before the dense engine
    /// takes over.
    fn retire_sparse(&mut self) {
        if let Some(eng) = self.sparse.take() {
            self.retired_pivots += eng.pivots();
            let st = eng.stats();
            self.retired_engine.refactorizations += st.refactorizations;
            self.retired_engine.etas += st.etas;
            self.retired_engine.fill_in += st.fill_in;
            self.retired_engine.rollbacks += st.rollbacks;
            self.retired_engine.refinements += st.refinements;
            self.retired_engine.tightenings += st.tightenings;
            self.retired_engine.patched_columns += st.patched_columns;
            self.retired_engine.condition_estimate =
                self.retired_engine.condition_estimate.max(st.condition_estimate);
            self.retired_engine.dense_fallback = true;
        }
    }

    /// Cold solve (keeps the engine state for later warm re-solves).
    pub fn solve(&mut self, lp: &LinearProgram) -> Solution {
        self.solve_from(lp, None).0
    }

    /// Solves from scratch, optionally restoring a saved basis first.
    /// Returns the solution and whether the warm basis was actually
    /// used (signature match + successful restore).
    pub fn solve_from(&mut self, lp: &LinearProgram, warm: Option<&Basis>) -> (Solution, bool) {
        if self.opts.backend == SolverBackend::SparseRevised {
            let opts = self.opts;
            let eng =
                self.sparse.get_or_insert_with(|| crate::sparse::SparseEngine::new(opts));
            match eng.solve_from(lp, warm) {
                Ok(res) => return res,
                Err(_) => {
                    // Singular basis factorization mid-solve: discard
                    // the sparse state and let the dense engine answer.
                    self.retire_sparse();
                    let (mut sol, used) = self.solve_from_dense(lp, warm);
                    sol.engine.dense_fallback = true;
                    return (sol, used);
                }
            }
        }
        self.solve_from_dense(lp, warm)
    }

    fn solve_from_dense(&mut self, lp: &LinearProgram, warm: Option<&Basis>) -> (Solution, bool) {
        let mut tab = Tableau::build(lp, self.opts);
        let mut warm_used = false;
        let mut sol = match warm {
            Some(b) if b.signature == tab.signature && tab.restore_basis(b) => {
                match tab.solve_restored(lp) {
                    Some(sol) => {
                        warm_used = true;
                        sol
                    }
                    None => {
                        tab = Tableau::build(lp, self.opts);
                        tab.run(lp)
                    }
                }
            }
            _ => tab.run(lp),
        };
        certify(lp, &mut sol, &self.opts.tols);
        let optimal = sol.is_usable();
        self.state = Some(WarmState {
            tab,
            build_user_rhs: lp.constraints().iter().map(|c| c.rhs).collect(),
            optimal,
        });
        (sol, warm_used)
    }

    /// Re-solves after the caller changed *only* constraint right-hand
    /// sides since the previous solve on this instance. Falls back to a
    /// cold solve when no optimal tableau is live or the program shape
    /// changed. Returns the solution and whether the live-tableau warm
    /// path was taken.
    ///
    /// Correctness contract: between the previous solve and this call,
    /// the program must only have been mutated through
    /// [`LinearProgram::set_rhs`]. Coefficient or shape changes require
    /// [`WarmSimplex::solve_from`].
    pub fn resolve_rhs(&mut self, lp: &LinearProgram) -> (Solution, bool) {
        if self.opts.backend == SolverBackend::SparseRevised {
            let opts = self.opts;
            let eng =
                self.sparse.get_or_insert_with(|| crate::sparse::SparseEngine::new(opts));
            match eng.resolve_rhs(lp) {
                Ok(res) => return res,
                Err(_) => {
                    self.retire_sparse();
                    let (mut sol, _) = self.solve_from_dense(lp, None);
                    sol.engine.dense_fallback = true;
                    return (sol, false);
                }
            }
        }
        let usable = self
            .state
            .as_ref()
            .is_some_and(|s| s.optimal && s.build_user_rhs.len() == lp.num_constraints());
        if !usable {
            return (self.solve_from_dense(lp, None).0, false);
        }
        let WarmState { tab, build_user_rhs, optimal } = self.state.as_mut().expect("checked");
        // New transformed rhs per tableau row: the build-time value plus
        // the (sign-adjusted) user delta; upper-bound rows are untouched.
        let mut new_b = tab.rhs0.clone();
        for (u, &(row, sign)) in tab.user_rows.iter().enumerate() {
            new_b[row] += sign * (lp.constraints()[u].rhs - build_user_rhs[u]);
        }
        tab.apply_rhs(&new_b);
        let st = tab.dual_simplex();
        let st = if st == SolveStatus::Optimal { tab.iterate(false) } else { st };
        if st == SolveStatus::Optimal {
            *optimal = true;
            *build_user_rhs = lp.constraints().iter().map(|c| c.rhs).collect();
            tab.rhs0 = new_b;
            let mut sol = tab.extract(lp);
            certify(lp, &mut sol, &self.opts.tols);
            (sol, true)
        } else {
            // Dual-unbounded (new rhs infeasible) or iteration trouble:
            // a cold solve gives the authoritative status.
            (self.solve(lp), false)
        }
    }

    /// The optimal basis of the last solve, if it reached optimality.
    pub fn basis(&self) -> Option<Basis> {
        if self.opts.backend == SolverBackend::SparseRevised {
            return self.sparse.as_ref()?.basis();
        }
        let s = self.state.as_ref()?;
        s.optimal.then(|| s.tab.extract_basis())
    }

    /// Cumulative pivots performed by this instance, including any
    /// sparse engine retired to a dense fallback and the dense tableau
    /// that replaced it.
    pub fn pivots(&self) -> usize {
        let live_sparse = self.sparse.as_ref().map_or(0, |e| e.pivots());
        let live_dense = self.state.as_ref().map_or(0, |s| s.tab.iterations);
        self.retired_pivots + live_sparse + live_dense
    }

    /// Cumulative engine counters (refactorizations, eta columns,
    /// fill-in, whether a dense fallback ever happened) across this
    /// instance's lifetime.
    pub fn engine_stats(&self) -> EngineStats {
        let mut st = self.retired_engine;
        if let Some(eng) = &self.sparse {
            let live = eng.stats();
            st.refactorizations += live.refactorizations;
            st.etas += live.etas;
            st.fill_in += live.fill_in;
            st.rollbacks += live.rollbacks;
            st.refinements += live.refinements;
            st.tightenings += live.tightenings;
            st.patched_columns += live.patched_columns;
            st.condition_estimate = st.condition_estimate.max(live.condition_estimate);
        }
        st
    }
}

/// Column classification inside the tableau.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColKind {
    Structural,
    Slack,
    Artificial,
}

#[derive(Debug)]
struct Tableau {
    opts: SimplexOptions,
    /// Row-major (m+1) x (ncols+1); last row = objective (reduced
    /// costs, negated objective value in the rhs cell), last column =
    /// rhs.
    t: Vec<f64>,
    m: usize,
    ncols: usize,
    /// Basis variable (column) of each row.
    basis: Vec<usize>,
    kind: Vec<ColKind>,
    /// For each user constraint row index: (tableau row, sign flip).
    user_rows: Vec<(usize, f64)>,
    /// Identity-ish column used to read the dual of each tableau row.
    dual_col: Vec<usize>,
    /// Shifted lower bounds per structural variable.
    shift: Vec<f64>,
    /// Objective constant from the shift.
    obj_const: f64,
    n_structural: usize,
    iterations: usize,
    /// Transformed rhs per row at build time (baseline for rhs-only
    /// warm re-solves).
    rhs0: Vec<f64>,
    /// Hash of the structural skeleton (variable bound pattern, row
    /// senses and sign normalization) — a saved [`Basis`] may only be
    /// restored onto a tableau with the same signature.
    signature: u64,
}

impl Tableau {
    fn build(lp: &LinearProgram, opts: SimplexOptions) -> Self {
        let n = lp.num_vars();
        let shift: Vec<f64> = lp.vars().iter().map(|v| v.lower).collect();
        let obj_const: f64 =
            lp.vars().iter().map(|v| v.objective * v.lower).sum();

        // Assemble rows: user constraints then upper-bound rows.
        // Each row: (dense coeffs over structural vars, sense, rhs).
        struct Row {
            coeffs: Vec<(usize, f64)>,
            sense: Sense,
            rhs: f64,
        }
        let mut rows: Vec<Row> = Vec::with_capacity(lp.num_constraints());
        for c in lp.constraints() {
            // Sum duplicate terms, shift rhs by lower bounds.
            let mut dense: Vec<f64> = vec![0.0; n];
            for &(v, a) in &c.terms {
                dense[v.index()] += a;
            }
            let mut rhs = c.rhs;
            for (j, &a) in dense.iter().enumerate() {
                rhs -= a * shift[j];
            }
            let coeffs: Vec<(usize, f64)> = dense
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a != 0.0)
                .map(|(j, &a)| (j, a))
                .collect();
            rows.push(Row { coeffs, sense: c.sense, rhs });
        }
        let n_user = rows.len();
        for (j, v) in lp.vars().iter().enumerate() {
            if v.upper.is_finite() {
                rows.push(Row {
                    coeffs: vec![(j, 1.0)],
                    sense: Sense::Le,
                    rhs: v.upper - v.lower,
                });
            }
        }

        // Normalize rhs >= 0, decide slack/artificial columns.
        let m = rows.len();
        let mut signs = vec![1.0f64; m];
        for (i, r) in rows.iter_mut().enumerate() {
            if r.rhs < 0.0 {
                signs[i] = -1.0;
                r.rhs = -r.rhs;
                for c in &mut r.coeffs {
                    c.1 = -c.1;
                }
                r.sense = match r.sense {
                    Sense::Le => Sense::Ge,
                    Sense::Ge => Sense::Le,
                    Sense::Eq => Sense::Eq,
                };
            }
        }
        let mut n_slack = 0usize;
        let mut n_art = 0usize;
        for r in &rows {
            match r.sense {
                Sense::Le => n_slack += 1,
                Sense::Ge => {
                    n_slack += 1; // surplus
                    n_art += 1;
                }
                Sense::Eq => n_art += 1,
            }
        }
        let ncols = n + n_slack + n_art;
        let stride = ncols + 1;
        let mut t = vec![0.0f64; (m + 1) * stride];
        let mut kind = vec![ColKind::Structural; ncols];
        for k in kind.iter_mut().take(n + n_slack).skip(n) {
            *k = ColKind::Slack;
        }
        for k in kind.iter_mut().skip(n + n_slack) {
            *k = ColKind::Artificial;
        }

        let mut basis = vec![usize::MAX; m];
        let mut dual_col = vec![usize::MAX; m];
        let mut slack_next = n;
        let mut art_next = n + n_slack;
        for (i, r) in rows.iter().enumerate() {
            let row = &mut t[i * stride..(i + 1) * stride];
            for &(j, a) in &r.coeffs {
                row[j] = a;
            }
            row[ncols] = r.rhs;
            match r.sense {
                Sense::Le => {
                    row[slack_next] = 1.0;
                    basis[i] = slack_next;
                    dual_col[i] = slack_next;
                    slack_next += 1;
                }
                Sense::Ge => {
                    row[slack_next] = -1.0; // surplus
                    slack_next += 1;
                    row[art_next] = 1.0;
                    basis[i] = art_next;
                    dual_col[i] = art_next;
                    art_next += 1;
                }
                Sense::Eq => {
                    row[art_next] = 1.0;
                    basis[i] = art_next;
                    dual_col[i] = art_next;
                    art_next += 1;
                }
            }
        }

        let user_rows = (0..n_user).map(|i| (i, signs[i])).collect();
        // Structural signature: anything that determines the column
        // layout (and therefore what a saved basis index means).
        let signature = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            n.hash(&mut h);
            for v in lp.vars() {
                v.upper.is_finite().hash(&mut h);
            }
            for (i, r) in rows.iter().enumerate() {
                (r.sense as u8).hash(&mut h);
                (signs[i] < 0.0).hash(&mut h);
            }
            h.finish()
        };
        let rhs0 = rows.iter().map(|r| r.rhs).collect();
        Self {
            opts,
            t,
            m,
            ncols,
            basis,
            kind,
            user_rows,
            dual_col,
            shift,
            obj_const,
            n_structural: n,
            iterations: 0,
            rhs0,
            signature,
        }
    }

    #[inline]
    fn stride(&self) -> usize {
        self.ncols + 1
    }

    fn obj_row(&self) -> usize {
        self.m
    }

    fn at(&self, r: usize, c: usize) -> f64 {
        self.t[r * self.stride() + c]
    }

    /// Sets the objective row to the reduced costs of cost vector `c`
    /// given the current basis (costs of non-listed columns are 0).
    fn price_objective(&mut self, costs: &[f64]) {
        let stride = self.stride();
        let or = self.obj_row() * stride;
        // Raw costs.
        for j in 0..self.ncols {
            self.t[or + j] = costs.get(j).copied().unwrap_or(0.0);
        }
        self.t[or + self.ncols] = 0.0;
        // Subtract c_B times each basic row.
        for i in 0..self.m {
            let cb = costs.get(self.basis[i]).copied().unwrap_or(0.0);
            if cb != 0.0 {
                let rr = i * stride;
                for j in 0..=self.ncols {
                    self.t[or + j] -= cb * self.t[rr + j];
                }
            }
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let stride = self.stride();
        let p = self.at(row, col);
        debug_assert!(p.abs() > self.opts.eps);
        let rr = row * stride;
        let inv = 1.0 / p;
        for j in 0..=self.ncols {
            self.t[rr + j] *= inv;
        }
        if self.opts.threads > 1 && (self.m + 1) * stride >= PARALLEL_PIVOT_CELLS {
            self.eliminate_parallel(row, col);
        } else {
            for r in 0..=self.m {
                if r == row {
                    continue;
                }
                let f = self.at(r, col);
                if f == 0.0 {
                    continue;
                }
                let br = r * stride;
                for j in 0..=self.ncols {
                    self.t[br + j] -= f * self.t[rr + j];
                }
                // Kill residual round-off in the pivot column.
                self.t[br + col] = 0.0;
            }
        }
        self.basis[row] = col;
        self.iterations += 1;
    }

    /// Row elimination fanned out over scoped threads. Each row is
    /// eliminated against a snapshot of the already-normalized pivot
    /// row with the exact inner loop of the serial path, and rows are
    /// independent, so the result is bit-identical to the serial
    /// elimination at every thread count.
    fn eliminate_parallel(&mut self, row: usize, col: usize) {
        let stride = self.stride();
        let ncols = self.ncols;
        let prow: Vec<f64> = self.t[row * stride..row * stride + stride].to_vec();
        let nrows = self.m + 1;
        let nthreads = self.opts.threads.min(nrows).max(1);
        let chunk_rows = nrows.div_ceil(nthreads);
        std::thread::scope(|s| {
            for (ci, chunk) in self.t.chunks_mut(chunk_rows * stride).enumerate() {
                let prow = &prow;
                s.spawn(move || {
                    for (k, r) in chunk.chunks_mut(stride).enumerate() {
                        if ci * chunk_rows + k == row {
                            continue;
                        }
                        let f = r[col];
                        if f == 0.0 {
                            continue;
                        }
                        for j in 0..=ncols {
                            r[j] -= f * prow[j];
                        }
                        r[col] = 0.0;
                    }
                });
            }
        });
    }

    /// Overwrites the rhs column (including the objective cell) with the
    /// basis-inverse image of the new transformed rhs `new_b`. The
    /// basis inverse is read off the per-row identity columns, which is
    /// why this works on the *live* tableau without refactorization.
    fn apply_rhs(&mut self, new_b: &[f64]) {
        debug_assert_eq!(new_b.len(), self.m);
        let stride = self.stride();
        for r in 0..=self.m {
            let rr = r * stride;
            let mut v = 0.0;
            for (k, &bk) in new_b.iter().enumerate() {
                if bk != 0.0 {
                    v += self.t[rr + self.dual_col[k]] * bk;
                }
            }
            self.t[rr + self.ncols] = v;
        }
    }

    /// Dual simplex: starting from a dual-feasible (reduced costs ≥ 0)
    /// but possibly primal-infeasible tableau, pivots until the rhs
    /// column is non-negative. Returns `Infeasible` when a negative row
    /// has no eligible entering column (the new rhs admits no feasible
    /// point) — callers treat that as "fall back to a cold solve".
    fn dual_simplex(&mut self) -> SolveStatus {
        let eps = self.opts.eps;
        loop {
            if self.iterations >= self.opts.max_iterations {
                return SolveStatus::IterationLimit;
            }
            // Leaving row: most negative rhs (ties → lowest row).
            let mut leave: Option<usize> = None;
            let mut most_neg = -1e-9;
            for r in 0..self.m {
                let b = self.at(r, self.ncols);
                if b < most_neg {
                    most_neg = b;
                    leave = Some(r);
                }
            }
            let Some(row) = leave else {
                return SolveStatus::Optimal;
            };
            // Entering column: dual ratio test over negative entries.
            let or = self.obj_row() * self.stride();
            let rr = row * self.stride();
            let mut enter: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for j in 0..self.ncols {
                if self.kind[j] == ColKind::Artificial {
                    continue;
                }
                let a = self.t[rr + j];
                if a < -eps {
                    let ratio = self.t[or + j].max(0.0) / -a;
                    if ratio < best_ratio - eps {
                        best_ratio = ratio;
                        enter = Some(j);
                    }
                }
            }
            let Some(col) = enter else {
                return SolveStatus::Infeasible;
            };
            self.pivot(row, col);
        }
    }

    /// The current basis paired with this tableau's structural
    /// signature.
    fn extract_basis(&self) -> Basis {
        Basis { cols: self.basis.clone(), signature: self.signature, at_upper: Vec::new() }
    }

    /// Re-pivots a freshly built tableau onto a saved basis. Saved
    /// artificial columns are skipped (they only appear in degenerate
    /// rows and the initial slack is an equally good basic choice).
    /// Returns `false` when the basis indexes columns this tableau does
    /// not have.
    fn restore_basis(&mut self, saved: &Basis) -> bool {
        if saved.cols.len() != self.m || saved.cols.iter().any(|&c| c >= self.ncols) {
            return false;
        }
        let mut in_basis = vec![false; self.ncols];
        for &b in &self.basis {
            in_basis[b] = true;
        }
        let mut taken = vec![false; self.m];
        let wanted: Vec<usize> = saved
            .cols
            .iter()
            .copied()
            .filter(|&j| self.kind[j] != ColKind::Artificial)
            .collect();
        for (r, &b) in self.basis.iter().enumerate() {
            if wanted.contains(&b) {
                taken[r] = true;
            }
        }
        for &j in &wanted {
            if in_basis[j] {
                continue;
            }
            // Best pivot row among rows still holding their initial
            // basic variable.
            let mut best: Option<(usize, f64)> = None;
            for (r, &is_taken) in taken.iter().enumerate() {
                if is_taken {
                    continue;
                }
                let a = self.at(r, j).abs();
                if a > self.opts.tols.feas && best.is_none_or(|(_, ba)| a > ba) {
                    best = Some((r, a));
                }
            }
            let Some((r, _)) = best else {
                // Numerically unrestorable column: leave the initial
                // basic variable in place and carry on.
                continue;
            };
            let old = self.basis[r];
            self.pivot(r, j);
            in_basis[old] = false;
            in_basis[j] = true;
            taken[r] = true;
        }
        true
    }

    /// Finishes a solve after [`Tableau::restore_basis`]: prices the
    /// phase-2 objective and cleans up with primal or dual pivots,
    /// skipping phase 1 entirely. `None` means the restored point was
    /// unusable and the caller should fall back to a cold solve.
    fn solve_restored(&mut self, lp: &LinearProgram) -> Option<Solution> {
        let mut costs = vec![0.0f64; self.ncols];
        for (j, v) in lp.vars().iter().enumerate() {
            costs[j] = v.objective;
        }
        self.price_objective(&costs);
        let feas = self.opts.tols.feas;
        let primal_ok = (0..self.m).all(|r| self.at(r, self.ncols) >= -feas);
        let st = if primal_ok {
            self.iterate(false)
        } else {
            let or = self.obj_row() * self.stride();
            let dual_ok = (0..self.ncols)
                .all(|j| self.kind[j] == ColKind::Artificial || self.t[or + j] >= -feas);
            if !dual_ok {
                return None;
            }
            match self.dual_simplex() {
                SolveStatus::Optimal => self.iterate(false),
                other => other,
            }
        };
        (st == SolveStatus::Optimal).then(|| self.extract(lp))
    }

    /// Runs the simplex loop on the current objective row. `allow`
    /// filters candidate entering columns.
    fn iterate(&mut self, allow_artificials: bool) -> SolveStatus {
        let eps = self.opts.eps;
        let mut best_obj = f64::INFINITY;
        let mut stall = 0usize;
        loop {
            if self.iterations >= self.opts.max_iterations {
                return SolveStatus::IterationLimit;
            }
            let use_bland = stall >= self.opts.stall_threshold;
            // Entering column.
            let or = self.obj_row() * self.stride();
            let mut enter: Option<usize> = None;
            let mut best = -eps;
            for j in 0..self.ncols {
                if !allow_artificials && self.kind[j] == ColKind::Artificial {
                    continue;
                }
                let c = self.t[or + j];
                if use_bland {
                    if c < -eps {
                        enter = Some(j);
                        break;
                    }
                } else if c < best {
                    best = c;
                    enter = Some(j);
                }
            }
            let Some(col) = enter else {
                return SolveStatus::Optimal;
            };
            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.m {
                let a = self.at(r, col);
                if a > eps {
                    let ratio = self.at(r, self.ncols) / a;
                    let better = ratio < best_ratio - eps
                        || (ratio < best_ratio + eps
                            && leave.is_none_or(|l| self.basis[r] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(r);
                    }
                }
            }
            let Some(row) = leave else {
                return SolveStatus::Unbounded;
            };
            self.pivot(row, col);
            let obj = -self.at(self.obj_row(), self.ncols);
            if obj < best_obj - self.opts.tols.stall_improvement {
                best_obj = obj;
                stall = 0;
            } else {
                stall += 1;
            }
        }
    }

    fn run(&mut self, lp: &LinearProgram) -> Solution {
        let _eps = self.opts.eps;
        // Phase 1: minimize artificial sum.
        let has_art = self.kind.contains(&ColKind::Artificial);
        if has_art {
            let costs: Vec<f64> = self
                .kind
                .iter()
                .map(|&k| if k == ColKind::Artificial { 1.0 } else { 0.0 })
                .collect();
            self.price_objective(&costs);
            let st = self.iterate(true);
            if st == SolveStatus::IterationLimit {
                return self.failed(SolveStatus::IterationLimit, lp);
            }
            let phase1 = -self.at(self.obj_row(), self.ncols);
            if phase1 > self.opts.tols.phase1_infeas {
                return self.failed(SolveStatus::Infeasible, lp);
            }
            // Drive artificials out of the basis where possible so they
            // cannot re-enter trouble in phase 2.
            let feas = self.opts.tols.feas;
            for r in 0..self.m {
                if self.kind[self.basis[r]] == ColKind::Artificial
                    && self.at(r, self.ncols).abs() <= feas
                {
                    if let Some(col) = (0..self.ncols).find(|&j| {
                        self.kind[j] != ColKind::Artificial && self.at(r, j).abs() > feas
                    }) {
                        self.pivot(r, col);
                    }
                }
            }
        }
        // Phase 2: real objective.
        let mut costs = vec![0.0f64; self.ncols];
        for (j, v) in lp.vars().iter().enumerate() {
            costs[j] = v.objective;
        }
        self.price_objective(&costs);
        let st = self.iterate(false);
        match st {
            SolveStatus::Optimal => self.extract(lp),
            other => self.failed(other, lp),
        }
    }

    fn extract(&self, _lp: &LinearProgram) -> Solution {
        let mut x = vec![0.0f64; self.n_structural];
        for r in 0..self.m {
            let b = self.basis[r];
            if b < self.n_structural {
                x[b] = self.at(r, self.ncols);
            }
        }
        for (j, xi) in x.iter_mut().enumerate() {
            *xi += self.shift[j];
        }
        let objective = -self.at(self.obj_row(), self.ncols) + self.obj_const;
        // Duals: reduced cost of each row's identity column.
        // Slack column (coefficient +1, cost 0): reduced = -y → y = -rc.
        // Artificial column (coefficient +1, cost 0 in phase 2): same.
        let or = self.obj_row() * self.stride();
        let duals: Vec<f64> = self
            .user_rows
            .iter()
            .map(|&(row, sign)| {
                let col = self.dual_col[row];
                let rc = self.t[or + col];
                -rc * sign
            })
            .collect();
        Solution {
            status: SolveStatus::Optimal,
            x,
            objective,
            duals,
            iterations: self.iterations,
            engine: EngineStats::default(),
            quality: None,
        }
    }

    fn failed(&self, status: SolveStatus, lp: &LinearProgram) -> Solution {
        Solution {
            status,
            x: vec![0.0; lp.num_vars()],
            objective: f64::NAN,
            duals: vec![0.0; lp.num_constraints()],
            iterations: self.iterations,
            engine: EngineStats::default(),
            quality: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearProgram, Sense};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn simple_max_as_min() {
        // max x + y s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0
        // optimum at intersection: x = 8/5, y = 6/5 → obj 14/5.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        let y = lp.add_var(0.0, f64::INFINITY, -1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Sense::Le, 4.0);
        lp.add_constraint(vec![(x, 3.0), (y, 1.0)], Sense::Le, 6.0);
        let s = solve(&lp);
        assert!(s.is_optimal());
        assert_close(s.objective, -14.0 / 5.0, 1e-8);
        assert_close(s.value(x), 8.0 / 5.0, 1e-8);
        assert_close(s.value(y), 6.0 / 5.0, 1e-8);
        lp.check_feasible(&s.x, 1e-7).unwrap();
    }

    #[test]
    fn ge_and_eq_constraints() {
        // min 2x + 3y s.t. x + y = 10, x >= 4 → x=10? no: y >= 0 so
        // minimize puts weight on x: x = 10, y = 0 but x >= 4 ok → obj 20.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 2.0);
        let y = lp.add_var(0.0, f64::INFINITY, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Eq, 10.0);
        lp.add_constraint(vec![(x, 1.0)], Sense::Ge, 4.0);
        let s = solve(&lp);
        assert!(s.is_optimal());
        assert_close(s.objective, 20.0, 1e-8);
        assert_close(s.value(x), 10.0, 1e-8);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Sense::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Sense::Ge, 2.0);
        assert_eq!(solve(&lp).status, SolveStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        lp.add_constraint(vec![(x, -1.0)], Sense::Le, 0.0);
        assert_eq!(solve(&lp).status, SolveStatus::Unbounded);
    }

    #[test]
    fn upper_bounds_respected() {
        // min -x, x in [0, 7]
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 7.0, -1.0);
        let s = solve(&lp);
        assert!(s.is_optimal());
        assert_close(s.value(x), 7.0, 1e-9);
        assert_close(s.objective, -7.0, 1e-9);
    }

    #[test]
    fn shifted_lower_bounds() {
        // min x + y, x >= 2, y >= 3, x + y >= 6 → obj 6.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(2.0, f64::INFINITY, 1.0);
        let y = lp.add_var(3.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 6.0);
        let s = solve(&lp);
        assert!(s.is_optimal());
        assert_close(s.objective, 6.0, 1e-8);
        assert!(s.value(x) >= 2.0 - 1e-9 && s.value(y) >= 3.0 - 1e-9);
    }

    #[test]
    fn duals_satisfy_strong_duality() {
        // min c'x with only user constraints and lb 0: obj = y'b.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, -3.0);
        let y = lp.add_var(0.0, f64::INFINITY, -5.0);
        lp.add_constraint(vec![(x, 1.0)], Sense::Le, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Sense::Le, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let s = solve(&lp);
        assert!(s.is_optimal());
        assert_close(s.objective, -36.0, 1e-8); // classic example, max 3x+5y = 36
        let dual_obj: f64 = s
            .duals
            .iter()
            .zip([4.0, 12.0, 18.0])
            .map(|(&d, b)| d * b)
            .sum();
        assert_close(dual_obj, s.objective, 1e-7);
        // all duals non-positive for <= rows in a min problem
        assert!(s.duals.iter().all(|&d| d <= 1e-9));
    }

    #[test]
    fn duals_for_ge_rows_are_nonnegative() {
        // min 2x + y s.t. x + y >= 3, x >= 0, y >= 0 → y = 3, obj 3, dual 1.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 2.0);
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        let s = solve(&lp);
        assert!(s.is_optimal());
        assert_close(s.objective, 3.0, 1e-8);
        assert_close(s.duals[0], 1.0, 1e-8);
    }

    #[test]
    fn negative_rhs_rows() {
        // min x s.t. -x <= -5  (i.e. x >= 5)
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, -1.0)], Sense::Le, -5.0);
        let s = solve(&lp);
        assert!(s.is_optimal());
        assert_close(s.value(x), 5.0, 1e-8);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-flavoured degenerate stack; just checks termination
        // and optimality, exercising the Bland fallback path.
        let mut lp = LinearProgram::new();
        let n = 12;
        let xs: Vec<_> = (0..n)
            .map(|i| lp.add_var(0.0, f64::INFINITY, -(2f64.powi(n as i32 - 1 - i as i32))))
            .collect();
        for i in 0..n {
            let mut terms: Vec<_> = (0..i)
                .map(|j| (xs[j], 2f64.powi((i - j) as i32 + 1)))
                .collect();
            terms.push((xs[i], 1.0));
            lp.add_constraint(terms, Sense::Le, 100f64.powi(i as i32));
        }
        let s = solve(&lp);
        assert!(s.is_optimal());
        let expected = -(100f64.powi(n as i32 - 1));
        assert!(
            ((s.objective - expected) / expected).abs() < 1e-9,
            "{} vs {expected}",
            s.objective
        );
    }

    #[test]
    fn duplicate_terms_are_summed() {
        // min -x s.t. 0.5x + 0.5x <= 3  → x = 3.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        lp.add_constraint(vec![(x, 0.5), (x, 0.5)], Sense::Le, 3.0);
        let s = solve(&lp);
        assert!(s.is_optimal());
        assert_close(s.value(x), 3.0, 1e-9);
    }

    /// Deterministic pseudo-random LP generator (no external deps): a
    /// feasible covering problem with dense-ish rows.
    fn random_lp(n: usize, m: usize, seed: u64) -> LinearProgram {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut lp = LinearProgram::new();
        let xs: Vec<_> = (0..n).map(|_| lp.add_var(0.0, f64::INFINITY, 0.5 + next())).collect();
        for i in 0..m {
            let terms: Vec<_> = xs
                .iter()
                .enumerate()
                .filter(|(j, _)| (i + j) % 3 != 0)
                .map(|(_, &v)| (v, 0.1 + next()))
                .collect();
            lp.add_constraint(terms, Sense::Ge, 1.0 + 3.0 * next());
        }
        lp
    }

    #[test]
    fn parallel_pivots_are_bit_identical() {
        // Large enough to clear PARALLEL_PIVOT_CELLS so the dense
        // threaded path actually runs; the sparse engine must ignore
        // the thread count altogether.
        let lp = random_lp(120, 120, 7);
        for backend in [SolverBackend::DenseTableau, SolverBackend::SparseRevised] {
            let opts = |threads| SimplexOptions { threads, backend, ..Default::default() };
            let serial = solve_with(&lp, opts(1));
            assert!(serial.is_optimal(), "{backend:?}");
            for threads in [1, 2, 8] {
                let par = solve_with(&lp, opts(threads));
                assert_eq!(par.status, serial.status);
                assert_eq!(par.iterations, serial.iterations, "{backend:?} threads {threads}");
                assert!(
                    par.x.iter().zip(&serial.x).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{backend:?} threads {threads}: x differs"
                );
                assert_eq!(par.objective.to_bits(), serial.objective.to_bits());
                assert!(
                    par.duals.iter().zip(&serial.duals).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{backend:?} threads {threads}: duals differ"
                );
            }
        }
    }

    #[test]
    fn rhs_resolve_matches_cold_solve() {
        // min 2x + 3y s.t. x + y >= b1, x - y <= b2.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 2.0);
        let y = lp.add_var(0.0, f64::INFINITY, 3.0);
        let c1 = lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 4.0);
        let c2 = lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Le, 1.0);
        let mut ws = WarmSimplex::new(SimplexOptions::default());
        let first = ws.solve(&lp);
        assert!(first.is_optimal());
        // Sweep the rhs both up and down, including a sign flip.
        for (b1, b2) in [(6.0, 1.0), (2.0, 0.5), (10.0, -2.0), (4.0, 1.0)] {
            lp.set_rhs(c1, b1);
            lp.set_rhs(c2, b2);
            let (warm, used) = ws.resolve_rhs(&lp);
            let cold = solve(&lp);
            assert!(warm.is_optimal(), "b1={b1} b2={b2}");
            assert!(used, "warm path must apply for rhs-only changes");
            assert_close(warm.objective, cold.objective, 1e-8);
            assert_close(warm.x[0], cold.x[0], 1e-8);
            assert_close(warm.x[1], cold.x[1], 1e-8);
            lp.check_feasible(&warm.x, 1e-7).unwrap();
        }
    }

    #[test]
    fn rhs_resolve_on_random_lps_matches_cold() {
        for seed in 0..5u64 {
            let mut lp = random_lp(24, 18, seed);
            let mut ws = WarmSimplex::new(SimplexOptions::default());
            assert!(ws.solve(&lp).is_optimal());
            // Perturb every rhs by a deterministic ±15 %.
            let rhs: Vec<f64> = lp.constraints().iter().map(|c| c.rhs).collect();
            for (i, r) in rhs.iter().enumerate() {
                let factor = 0.85 + 0.3 * ((seed as usize + i) % 7) as f64 / 6.0;
                lp.set_rhs(crate::model::ConstraintId(i), r * factor);
            }
            let (warm, _) = ws.resolve_rhs(&lp);
            let cold = solve(&lp);
            assert_eq!(warm.status, cold.status, "seed {seed}");
            assert_close(warm.objective, cold.objective, 1e-6);
            lp.check_feasible(&warm.x, 1e-6).unwrap();
        }
    }

    #[test]
    fn basis_restore_matches_cold_after_coefficient_change() {
        for seed in 0..5u64 {
            let lp = random_lp(24, 18, seed);
            let mut ws = WarmSimplex::new(SimplexOptions::default());
            assert!(ws.solve(&lp).is_optimal());
            let basis = ws.basis().expect("optimal basis");
            // Rebuild the same skeleton with perturbed coefficients and
            // rhs — the cross-epoch shape (structure fixed, numbers
            // drift).
            let mut lp2 = random_lp(24, 18, seed);
            let rhs: Vec<f64> = lp2.constraints().iter().map(|c| c.rhs).collect();
            for (i, r) in rhs.iter().enumerate() {
                lp2.set_rhs(crate::model::ConstraintId(i), r * 1.05);
            }
            let mut ws2 = WarmSimplex::new(SimplexOptions::default());
            let (warm, _) = ws2.solve_from(&lp2, Some(&basis));
            let cold = solve(&lp2);
            assert_eq!(warm.status, cold.status, "seed {seed}");
            assert_close(warm.objective, cold.objective, 1e-6);
            lp2.check_feasible(&warm.x, 1e-6).unwrap();
        }
    }

    #[test]
    fn mismatched_basis_falls_back_cold() {
        let lp_a = random_lp(10, 8, 1);
        let mut ws = WarmSimplex::new(SimplexOptions::default());
        assert!(ws.solve(&lp_a).is_optimal());
        let basis = ws.basis().unwrap();
        // Different structure: signature mismatch → cold path, still
        // optimal.
        let lp_b = random_lp(12, 9, 2);
        let mut ws2 = WarmSimplex::new(SimplexOptions::default());
        let (sol, used) = ws2.solve_from(&lp_b, Some(&basis));
        assert!(sol.is_optimal());
        assert!(!used);
    }

    #[test]
    fn rhs_resolve_detects_new_infeasibility() {
        // x <= 5 and x >= b: warm-start from b = 3, then push b past 5.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Sense::Le, 5.0);
        let c = lp.add_constraint(vec![(x, 1.0)], Sense::Ge, 3.0);
        let mut ws = WarmSimplex::new(SimplexOptions::default());
        assert!(ws.solve(&lp).is_optimal());
        lp.set_rhs(c, 8.0);
        let (sol, _) = ws.resolve_rhs(&lp);
        assert_eq!(sol.status, SolveStatus::Infeasible);
        // And recovers when the rhs comes back.
        lp.set_rhs(c, 2.0);
        let (sol, _) = ws.resolve_rhs(&lp);
        assert!(sol.is_optimal());
        assert_close(sol.x[0], 2.0, 1e-8);
    }

    #[test]
    fn transportation_problem() {
        // 2 plants (cap 20, 30) → 3 markets (demand 10, 25, 15);
        // costs: [[2,4,5],[3,1,7]]. Known optimum: 10*2 + ... compute:
        // plant1→m1 10 (2), plant2→m2 25 (1), plant1→m3 10 (5),
        // plant2→m3 5 (7)?? Let's just assert feasibility + duality.
        let mut lp = LinearProgram::new();
        let costs = [[2.0, 4.0, 5.0], [3.0, 1.0, 7.0]];
        let mut v = [[crate::model::VarId(0); 3]; 2];
        for p in 0..2 {
            for m in 0..3 {
                v[p][m] = lp.add_var(0.0, f64::INFINITY, costs[p][m]);
            }
        }
        let caps = [20.0, 30.0];
        for p in 0..2 {
            lp.add_constraint((0..3).map(|m| (v[p][m], 1.0)).collect(), Sense::Le, caps[p]);
        }
        let demands = [10.0, 25.0, 15.0];
        for m in 0..3 {
            lp.add_constraint((0..2).map(|p| (v[p][m], 1.0)).collect(), Sense::Ge, demands[m]);
        }
        let s = solve(&lp);
        assert!(s.is_optimal());
        lp.check_feasible(&s.x, 1e-7).unwrap();
        // LP duality check: obj = Σ y_i b_i.
        let b = [20.0, 30.0, 10.0, 25.0, 15.0];
        let dual_obj: f64 = s.duals.iter().zip(b).map(|(&d, bi)| d * bi).sum();
        assert_close(dual_obj, s.objective, 1e-6);
        // Optimal cost is 125: x[0][2]=15, x[0][0]=5, x[1][0]=5, x[1][1]=25.
        assert_close(s.objective, 125.0, 1e-6);
    }

    #[test]
    fn default_options_validate() {
        SimplexOptions::default().validate().expect("defaults are valid");
        Tolerances::default().validate().expect("default tolerances are valid");
    }

    #[test]
    fn every_tolerance_field_is_validated() {
        // Each field in turn: NaN, negative, zero and >= 1 must all be
        // rejected with the field's name in the error.
        type Set = fn(&mut Tolerances, f64);
        let fields: [(&str, Set); 12] = [
            ("feas", |t, v| t.feas = v),
            ("dual_pivot", |t, v| t.dual_pivot = v),
            ("phase1_infeas", |t, v| t.phase1_infeas = v),
            ("singular", |t, v| t.singular = v),
            ("peel", |t, v| t.peel = v),
            ("ft_stability", |t, v| t.ft_stability = v),
            ("stall_improvement", |t, v| t.stall_improvement = v),
            ("residual", |t, v| t.residual = v),
            ("certify_primal", |t, v| t.certify_primal = v),
            ("certify_dual", |t, v| t.certify_dual = v),
            ("certify_comp", |t, v| t.certify_comp = v),
            ("certify_value", |t, v| t.certify_value = v),
        ];
        for (name, set) in fields {
            for bad in [f64::NAN, -1e-7, 0.0, 1.0, 2.5, f64::INFINITY] {
                let mut t = Tolerances::default();
                set(&mut t, bad);
                match t.validate() {
                    Err(ConfigError::InvalidTolerance { field, .. }) => {
                        assert_eq!(field, name, "wrong field reported for {name}={bad}")
                    }
                    other => panic!("{name}={bad} not rejected: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn limit_fields_are_validated() {
        type Set = fn(&mut Tolerances, f64);
        let fields: [(&str, Set); 2] = [
            ("condition_limit", |t, v| t.condition_limit = v),
            ("scale_threshold", |t, v| t.scale_threshold = v),
        ];
        for (name, set) in fields {
            for bad in [f64::NAN, -1.0, 0.0, 0.5, f64::INFINITY] {
                let mut t = Tolerances::default();
                set(&mut t, bad);
                match t.validate() {
                    Err(ConfigError::InvalidLimit { field, .. }) => assert_eq!(field, name),
                    other => panic!("{name}={bad} not rejected: {other:?}"),
                }
            }
            let mut t = Tolerances::default();
            set(&mut t, 1.0); // exactly 1 is a legal limit
            t.validate().expect("limit of 1.0 is valid");
        }
    }

    #[test]
    fn options_counts_and_eps_are_validated() {
        let o = SimplexOptions { eps: f64::NAN, ..SimplexOptions::default() };
        assert!(matches!(
            o.validate(),
            Err(ConfigError::InvalidTolerance { field: "eps", .. })
        ));
        let o = SimplexOptions { max_iterations: 0, ..SimplexOptions::default() };
        assert_eq!(o.validate(), Err(ConfigError::InvalidCount { field: "max_iterations" }));
        let o = SimplexOptions { stall_threshold: 0, ..SimplexOptions::default() };
        assert_eq!(o.validate(), Err(ConfigError::InvalidCount { field: "stall_threshold" }));
        let mut o = SimplexOptions::default();
        o.tols.feas = -1.0;
        assert!(matches!(
            o.validate(),
            Err(ConfigError::InvalidTolerance { field: "feas", .. })
        ));
    }

    #[test]
    fn config_error_displays_field_names() {
        let e = ConfigError::InvalidTolerance { field: "feas", value: 2.0 };
        assert!(e.to_string().contains("feas"));
        let e = ConfigError::InvalidLimit { field: "condition_limit", value: 0.0 };
        assert!(e.to_string().contains("condition_limit"));
        let e = ConfigError::InvalidCount { field: "max_iterations" };
        assert!(e.to_string().contains("max_iterations"));
    }

    #[test]
    fn every_optimal_solution_is_certified() {
        for backend in [SolverBackend::DenseTableau, SolverBackend::SparseRevised] {
            let lp = random_lp(24, 18, 11);
            let opts = SimplexOptions { backend, ..Default::default() };
            let s = solve_with(&lp, opts);
            assert!(s.is_optimal(), "{backend:?}");
            let q = s.quality.unwrap_or_else(|| panic!("{backend:?}: Optimal without quality"));
            assert!(q.passes(&opts.tols), "{backend:?}: {q:?}");
        }
    }

    #[test]
    fn certification_residuals_are_small_on_clean_lp() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, -3.0);
        let y = lp.add_var(0.0, f64::INFINITY, -5.0);
        lp.add_constraint(vec![(x, 1.0)], Sense::Le, 4.0);
        lp.add_constraint(vec![(y, 2.0)], Sense::Le, 12.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0);
        let s = solve(&lp);
        let q = s.quality.expect("certified");
        assert!(q.primal_residual < 1e-12, "{q:?}");
        assert!(q.dual_residual < 1e-12, "{q:?}");
        assert!(q.complementarity < 1e-12, "{q:?}");
    }

    #[test]
    fn certify_downgrades_violated_solution() {
        // Hand-build a "solution" that violates its constraint and check
        // the certifier refuses to bless it.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Sense::Ge, 5.0);
        let mut sol = Solution {
            status: SolveStatus::Optimal,
            x: vec![0.0], // violates x >= 5
            objective: 0.0,
            duals: vec![0.0],
            iterations: 0,
            engine: EngineStats::default(),
            quality: None,
        };
        certify(&lp, &mut sol, &Tolerances::default());
        assert_eq!(sol.status, SolveStatus::NumericallySuspect);
        let q = sol.quality.expect("quality attached");
        assert!(q.primal_residual > 0.1, "{q:?}");
        assert!(sol.is_usable() && !sol.is_optimal());
    }
}
