//! Sparse revised simplex backend.
//!
//! This engine mirrors the dense tableau's transformation pipeline
//! (lower-bound shifts, rhs sign normalization, slack/surplus/
//! artificial columns, two phases with artificials barred from
//! phase 2) so statuses, duals and objective values line up with the
//! dense oracle — but instead of carrying an `(m+1) × (n+1)` tableau
//! it keeps:
//!
//! * the constraint matrix in CSC form (never modified),
//! * an LU factorization of the basis ([`crate::factor::LuFactors`])
//!   kept current by either a product-form eta file
//!   ([`EtaUpdate::ProductForm`], refactorized every
//!   [`REFACTOR_INTERVAL`] pivots) or Forrest–Tomlin updates
//!   ([`EtaUpdate::ForrestTomlin`], refactorized only when the update
//!   itself reports numerical trouble),
//! * the basic-variable values `x_B`, the at-upper-bound flags of the
//!   nonbasic columns, and a pricing cursor.
//!
//! Finite upper bounds are handled *natively*: a nonbasic structural
//! column can rest at either bound, the ratio test considers basic
//! variables hitting their upper bounds and entering variables
//! flipping bound-to-bound without a basis change, and the dual
//! simplex treats above-upper basics symmetrically with below-lower
//! ones. No explicit bound rows are generated, so the basis stays at
//! the size of the genuine constraint set.
//!
//! Each iteration is a pricing scan — segmented partial Dantzig
//! ([`Pricing::Dantzig`]) or a devex reference framework
//! ([`Pricing::Devex`]), with an automatic switch to Bland's
//! lowest-index rule after a stall (the anti-cycling guarantee) —
//! against duals from one BTRAN per basis change (a bound flip keeps
//! them), one reach-limited FTRAN (entering column) and an update
//! over the nonzeros of its image, instead of the dense `O(m·n)`
//! tableau elimination. Every vector an iteration fills lives in a
//! workspace the core owns, so a pivot allocates nothing.
//!
//! The user program is reduced by [`crate::presolve`] before the core
//! ever sees it; solutions are mapped back to the original space
//! (including exact duals for eliminated rows) on the way out.

use crate::factor::{
    EtaFile, FactorError, FactorWork, FtFactors, FtUpdate, FtranImage, LuFactors,
    REFACTOR_INTERVAL,
};
use crate::model::{LinearProgram, Sense};
use crate::presolve::{presolve, PresolveMode, PresolveResult, Reduction};
use crate::simplex::{
    Basis, ColdStart, EngineStats, EtaUpdate, Pricing, SimplexOptions, Solution,
    SolveStatus,
};

/// Columns per pricing segment (at least this many; larger programs
/// use `ncols / 8`).
const PRICE_SEGMENT: usize = 256;

/// Salt folded into sparse basis signatures so a dense-backend basis
/// (or a basis from a different presolve reduction, or one saved by a
/// pre-native-bounds build whose cores carried explicit bound rows)
/// never restores onto a sparse core.
const SPARSE_SIG_SALT: u64 = 0x6e47_1b0d_5fee_d0a2;

/// When the largest devex reference weight exceeds this, the
/// reference framework has drifted too far from the current basis and
/// every weight is reset to 1 (restarting the framework at the
/// current iterate, per Forrest–Goldfarb).
const DEVEX_RESET: f64 = 1e7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CKind {
    Structural,
    Slack,
    Artificial,
}

/// Basis-inverse representation: LU factors plus whichever update
/// scheme [`SimplexOptions::eta_update`] selected.
#[derive(Debug)]
enum Factors {
    Product { lu: Box<LuFactors>, etas: EtaFile },
    Ft(Box<FtFactors>),
}

/// Every vector an iteration fills, sized `m` once at build time so
/// that no pivot allocates. One per [`SparseCore`], reached only
/// through `&mut` on that core — never shared across threads.
#[derive(Debug, Default)]
struct Workspace {
    /// FTRAN image of the entering column with its nonzero slots.
    img: FtranImage,
    /// BTRAN input by slot (`c_B`, a unit vector, a sign pattern); the
    /// eta pass transforms it in place.
    cb: Vec<f64>,
    /// BTRAN output by row: `y = B⁻ᵀc_B` while a primal loop prices,
    /// `ρ = B⁻ᵀe_slot` for a pivot row.
    y: Vec<f64>,
    /// BTRAN accumulator by slot.
    acc: Vec<f64>,
    /// Dense FTRAN input by row, consumed by the solve.
    rhs: Vec<f64>,
    /// Dense FTRAN output by slot.
    sol: Vec<f64>,
    /// The effective rhs a refactorization solves and refines against.
    b_eff: Vec<f64>,
    /// Reduced costs of one pricing segment.
    price: Vec<f64>,
    /// `c_B` by slot under the costs of the `iterate` call under way,
    /// kept current by one store per basis change.
    cost_b: Vec<f64>,
    /// What a refactorization builds its factors in.
    factor: FactorWork,
}

/// Records into the core's test-only `Probe`; compiles to nothing outside
/// tests.
macro_rules! probe {
    ($core:ident, $($record:tt)*) => {
        #[cfg(test)]
        {
            $core.probe.$($record)*;
        }
    };
}

/// What the iteration-identity test reads back from a solve.
#[cfg(test)]
#[derive(Debug, Default)]
struct Probe {
    /// `(entering, leaving slot)` per basis change, `(entering,
    /// usize::MAX)` per bound flip, in order.
    trace: Vec<(usize, usize)>,
    /// BTRANs of `c_B` issued by `iterate` / by `dual_simplex`.
    btran_iterate: usize,
    btran_dual: usize,
    iterate_calls: usize,
    dual_calls: usize,
    /// Basis changes made inside `iterate`.
    iterate_pivots: usize,
    /// Entering columns chosen by Bland's rule.
    bland_picks: usize,
    /// Artificials pivoted out by `drive_out_artificials`.
    driven_out: usize,
}

/// The revised simplex core over one (already presolved) program.
#[derive(Debug)]
struct SparseCore {
    opts: SimplexOptions,
    m: usize,
    ncols: usize,
    n_structural: usize,
    /// CSC: per column, `(row, value)` sorted by row.
    cols: Vec<Vec<(usize, f64)>>,
    /// CSR mirror of `cols`: per row, `(column, value)` sorted by
    /// column. The dual pivot row `ᾱ = ρᵀA` only needs the rows where
    /// the BTRAN image `ρ` is nonzero, and on the TE programs `ρ` is
    /// hyper-sparse — scattering row-wise beats a dot against every
    /// column by an order of magnitude.
    rows_csr: Vec<Vec<(usize, f64)>>,
    kind: Vec<CKind>,
    /// Phase-2 costs per column (structural objective, 0 elsewhere).
    costs: Vec<f64>,
    /// Shifted upper bound per column (`upper − lower` for bounded
    /// structurals, `+∞` for everything else).
    ub: Vec<f64>,
    /// Transformed rhs at build time (≥ 0 in two-phase mode; may be
    /// negative under a dual start, where every row is `<=`).
    b0: Vec<f64>,
    /// Current transformed rhs.
    b: Vec<f64>,
    /// `(row, sign)` per user (reduced) constraint.
    user_rows: Vec<(usize, f64)>,
    shift: Vec<f64>,
    obj_const: f64,
    /// Initial basic column of every slot (slack or artificial).
    init_basic: Vec<usize>,
    /// Cold solves start with one dual simplex pass from the all-slack
    /// basis (negative-cost columns parked at their finite upper
    /// bounds) instead of the primal two-phase sequence. Decided at
    /// build time; see [`crate::simplex::ColdStart`].
    dual_start: bool,
    signature: u64,

    basis: Vec<usize>,
    in_basis: Vec<bool>,
    /// Nonbasic columns resting at their (finite) upper bound.
    at_upper: Vec<bool>,
    x_b: Vec<f64>,
    factors: Option<Factors>,
    cursor: usize,
    iterations: usize,
    refactorizations: u64,
    etas_total: u64,
    fill_total: u64,
    rollbacks: u64,
    /// Sticky Markowitz peel tolerance, raised by the
    /// `TightenTolerance` recovery rung (starts at
    /// [`crate::Tolerances::peel`]).
    peel_tol: f64,
    refinements: u64,
    tightenings: u64,
    patched_columns: u64,
    /// Largest 1-norm condition estimate observed across this core's
    /// factorizations.
    condition_max: f64,
    /// Columns with a nonzero phase-2 cost and a finite upper bound,
    /// ascending: the only ones whose at-upper objective term is not
    /// an exact zero (phase-1 costs sit on artificials, which have no
    /// upper bound).
    upper_cols: Vec<usize>,
    ws: Workspace,
    #[cfg(test)]
    probe: Probe,
}

/// `TightenTolerance` rung: each retry multiplies the peel tolerance by
/// this factor, deferring more near-singular peel pivots into the
/// partial-pivoted bump.
const PEEL_TIGHTEN: f64 = 100.0;

/// Ceiling for the sticky peel tolerance — beyond this the basis is
/// genuinely singular and the ladder moves to column patching or the
/// dense fallback.
const PEEL_TOL_CAP: f64 = 1e-5;

/// Maximum `PatchSingularColumn` rungs per basis restore.
const MAX_PATCHES: usize = 4;

impl SparseCore {
    fn build(lp: &LinearProgram, opts: SimplexOptions, sig_salt: u64) -> Self {
        let n = lp.num_vars();
        let shift: Vec<f64> = lp.vars().iter().map(|v| v.lower).collect();
        let obj_const: f64 = lp.vars().iter().map(|v| v.objective * v.lower).sum();

        struct Row {
            coeffs: Vec<(usize, f64)>,
            sense: Sense,
            rhs: f64,
        }
        // Accumulate each row through a shared scratch vector instead
        // of a fresh dense one per constraint — the dense version
        // zeroes `n` doubles per row, which is O(n·m) memset on the TE
        // programs and dominates the whole core build.
        let mut rows: Vec<Row> = Vec::with_capacity(lp.num_constraints());
        let mut dense: Vec<f64> = vec![0.0; n];
        let mut nz: Vec<usize> = Vec::new();
        for c in lp.constraints() {
            for &(v, a) in &c.terms {
                dense[v.index()] += a;
                nz.push(v.index());
            }
            nz.sort_unstable();
            nz.dedup();
            let mut rhs = c.rhs;
            let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(nz.len());
            for &j in &nz {
                rhs -= dense[j] * shift[j];
                if dense[j] != 0.0 {
                    coeffs.push((j, dense[j]));
                }
                dense[j] = 0.0;
            }
            nz.clear();
            rows.push(Row { coeffs, sense: c.sense, rhs });
        }
        let n_user = rows.len();
        let m = rows.len();

        // Dual-start eligibility: an all-slack basis with every
        // negative-cost column parked at its (finite) upper bound is
        // dual feasible by construction, so one dual simplex pass can
        // replace the primal two-phase sequence — but only if every
        // profitable column is bounded and no equality row forces an
        // artificial into the initial basis.
        let dual_start = opts.cold_start == ColdStart::Auto
            && m > 0
            && rows.iter().all(|r| r.sense != Sense::Eq)
            && lp.vars().iter().all(|v| v.objective >= 0.0 || v.upper.is_finite());

        let mut signs = vec![1.0f64; m];
        for (i, r) in rows.iter_mut().enumerate() {
            // Two-phase mode normalizes negative rhs away (phase 1
            // needs `b ≥ 0`). [`ColdStart::Auto`] additionally flips a
            // `>=`-row with rhs 0 (to `<= 0`) so its slack can seed
            // the initial basis feasibly instead of costing an
            // artificial — TE delivery/fairness rows are
            // overwhelmingly of this shape, and phase 1 shrinks by
            // exactly that row count. ([`ColdStart::TwoPhase`] keeps
            // the historical pivot sequences, so it only flips on
            // sign.) Dual-start mode flips *every* `>=`-row: the dual
            // simplex is indifferent to rhs sign, and an all-`<=`
            // program needs no artificials at all.
            let flip = if dual_start {
                r.sense == Sense::Ge
            } else {
                r.rhs < 0.0
                    || (r.rhs == 0.0
                        && r.sense == Sense::Ge
                        && opts.cold_start == ColdStart::Auto)
            };
            if flip {
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
                    n_slack += 1;
                    n_art += 1;
                }
                Sense::Eq => n_art += 1,
            }
        }
        let ncols = n + n_slack + n_art;
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ncols];
        let mut kind = vec![CKind::Structural; ncols];
        for k in kind.iter_mut().take(n + n_slack).skip(n) {
            *k = CKind::Slack;
        }
        for k in kind.iter_mut().skip(n + n_slack) {
            *k = CKind::Artificial;
        }
        let mut init_basic = vec![usize::MAX; m];
        let mut slack_next = n;
        let mut art_next = n + n_slack;
        let mut b0 = Vec::with_capacity(m);
        for (i, r) in rows.iter().enumerate() {
            for &(j, a) in &r.coeffs {
                cols[j].push((i, a));
            }
            b0.push(r.rhs);
            match r.sense {
                Sense::Le => {
                    cols[slack_next].push((i, 1.0));
                    init_basic[i] = slack_next;
                    slack_next += 1;
                }
                Sense::Ge => {
                    cols[slack_next].push((i, -1.0));
                    slack_next += 1;
                    cols[art_next].push((i, 1.0));
                    init_basic[i] = art_next;
                    art_next += 1;
                }
                Sense::Eq => {
                    cols[art_next].push((i, 1.0));
                    init_basic[i] = art_next;
                    art_next += 1;
                }
            }
        }
        let mut costs = vec![0.0f64; ncols];
        let mut ub = vec![f64::INFINITY; ncols];
        for (j, v) in lp.vars().iter().enumerate() {
            costs[j] = v.objective;
            if v.upper.is_finite() {
                ub[j] = v.upper - shift[j];
            }
        }
        let mut rows_csr: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        for (j, col) in cols.iter().enumerate() {
            for &(r, a) in col {
                rows_csr[r].push((j, a));
            }
        }
        let user_rows = (0..n_user).map(|i| (i, signs[i])).collect();
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
            h.finish() ^ SPARSE_SIG_SALT ^ sig_salt
        };
        let basis = init_basic.clone();
        let mut in_basis = vec![false; ncols];
        for &c in &basis {
            in_basis[c] = true;
        }
        let upper_cols = (0..n).filter(|&j| costs[j] != 0.0 && ub[j].is_finite()).collect();
        let ws = Workspace {
            cb: vec![0.0; m],
            y: vec![0.0; m],
            acc: vec![0.0; m],
            rhs: vec![0.0; m],
            sol: vec![0.0; m],
            b_eff: vec![0.0; m],
            cost_b: vec![0.0; m],
            ..Workspace::default()
        };
        Self {
            opts,
            m,
            ncols,
            n_structural: n,
            cols,
            rows_csr,
            kind,
            costs,
            ub,
            b: b0.clone(),
            b0,
            user_rows,
            shift,
            obj_const,
            init_basic,
            dual_start,
            signature,
            basis,
            in_basis,
            at_upper: vec![false; ncols],
            x_b: vec![0.0; m],
            factors: None,
            cursor: 0,
            iterations: 0,
            refactorizations: 0,
            etas_total: 0,
            fill_total: 0,
            rollbacks: 0,
            peel_tol: opts.tols.peel,
            refinements: 0,
            tightenings: 0,
            patched_columns: 0,
            condition_max: 0.0,
            upper_cols,
            ws,
            #[cfg(test)]
            probe: Probe::default(),
        }
    }

    /// Transformed rhs with the at-upper nonbasic contributions folded
    /// in, into `ws.b_eff`: `b_eff = b − Σ_{j at upper} ub_j · A_j`, so
    /// that `x_B = B⁻¹ b_eff` are the basic values at the current
    /// bound assignment.
    fn effective_rhs(&mut self) {
        let b = &mut self.ws.b_eff;
        b.clone_from(&self.b);
        for (j, &flag) in self.at_upper.iter().enumerate() {
            if flag {
                for &(r, a) in &self.cols[j] {
                    b[r] -= self.ub[j] * a;
                }
            }
        }
    }

    /// Recomputes `x_B = B⁻¹ b_eff` from scratch, leaving `b_eff` in
    /// the workspace.
    fn recompute_basics(&mut self) {
        self.effective_rhs();
        self.ws.rhs.clone_from(&self.ws.b_eff);
        self.ftran();
        std::mem::swap(&mut self.x_b, &mut self.ws.sol);
    }

    /// Rebuilds the LU factors from the current basis, resets the
    /// update scheme and recomputes `x_B` from scratch.
    ///
    /// On a singular factorization the `TightenTolerance` recovery
    /// rung fires in-place: the sticky peel tolerance is raised (more
    /// near-singular singleton pivots defer into the partial-pivoted
    /// bump) and the factorization retried, up to [`PEEL_TOL_CAP`].
    /// After a successful factorization the condition of the basis is
    /// estimated and the basic solution refined (`Refine` rung) when
    /// its residual exceeds [`crate::Tolerances::residual`].
    fn refactorize(&mut self) -> Result<(), FactorError> {
        let (cols, basis, work) = (&self.cols, &self.basis, &mut self.ws.factor);
        let col = |s: usize| cols[basis[s]].as_slice();
        let basis_nnz: usize = (0..self.m).map(|s| col(s).len()).sum();
        let tols = self.opts.tols;
        let mut lu = LuFactors::factorize_with(self.m, col, tols.singular, self.peel_tol, work);
        while lu.is_err() && self.peel_tol < PEEL_TOL_CAP {
            self.peel_tol = (self.peel_tol * PEEL_TIGHTEN).min(PEEL_TOL_CAP);
            self.tightenings += 1;
            lu = LuFactors::factorize_with(self.m, col, tols.singular, self.peel_tol, work);
        }
        let lu = lu?;
        self.fill_total += lu.fill_in(basis_nnz) as u64;
        self.refactorizations += 1;
        self.factors = Some(match self.opts.eta_update {
            EtaUpdate::ProductForm => {
                // The emptied eta file keeps its storage.
                let etas = match self.factors.take() {
                    Some(Factors::Product { mut etas, .. }) => {
                        etas.clear();
                        etas
                    }
                    _ => EtaFile::default(),
                };
                Factors::Product { lu: Box::new(lu), etas }
            }
            EtaUpdate::ForrestTomlin => {
                let mut ft = FtFactors::from_lu(&lu);
                ft.set_tolerances(tols.singular, tols.ft_stability);
                Factors::Ft(Box::new(ft))
            }
        });
        self.observe_condition();
        self.recompute_basics();
        self.refine_basics();
        Ok(())
    }

    /// LINPACK-style 1-norm condition estimate of the freshly
    /// factorized basis: `‖B‖₁` exactly, `‖B⁻¹‖₁` estimated from one
    /// ftran of the averaging vector and one btran of its sign
    /// pattern. Deterministic (no randomized probes) and cheap — two
    /// solves per refactorization.
    fn observe_condition(&mut self) {
        if self.m == 0 {
            return;
        }
        let norm_b = self
            .basis
            .iter()
            .map(|&c| self.cols[c].iter().map(|&(_, a)| a.abs()).sum::<f64>())
            .fold(0.0f64, f64::max);
        self.ws.rhs.fill(1.0 / self.m as f64);
        self.ftran();
        let w1: f64 = self.ws.sol.iter().map(|v| v.abs()).sum();
        for (xi, v) in self.ws.cb.iter_mut().zip(&self.ws.sol) {
            *xi = if *v >= 0.0 { 1.0 } else { -1.0 };
        }
        self.btran();
        let z_inf = self.ws.y.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        let cond = norm_b * w1.max(z_inf);
        if cond.is_finite() {
            self.condition_max = self.condition_max.max(cond);
        }
    }

    /// One-step iterative refinement of the basic solution: when the
    /// residual `b_eff − B·x_B` exceeds the relative residual
    /// tolerance, solve once more against the residual and correct.
    fn refine_basics(&mut self) {
        if self.m == 0 {
            return;
        }
        // `B·x_B` accumulates in the FTRAN input, then turns into the
        // residual in place.
        let r = &mut self.ws.rhs;
        r.fill(0.0);
        for (slot, &c) in self.basis.iter().enumerate() {
            let xs = self.x_b[slot];
            if xs != 0.0 {
                for &(i, a) in &self.cols[c] {
                    r[i] += a * xs;
                }
            }
        }
        let mut r_inf = 0.0f64;
        let mut b_inf = 0.0f64;
        for (ri, &bi) in r.iter_mut().zip(&self.ws.b_eff) {
            *ri = bi - *ri;
            r_inf = r_inf.max(ri.abs());
            b_inf = b_inf.max(bi.abs());
        }
        if r_inf > self.opts.tols.residual * (1.0 + b_inf) {
            self.ftran();
            for (x, d) in self.x_b.iter_mut().zip(&self.ws.sol) {
                *x += d;
            }
            self.refinements += 1;
        }
    }

    /// `B⁻¹ v` for a dense `v`: consumes `ws.rhs` (by row) into
    /// `ws.sol` (by slot).
    fn ftran(&mut self) {
        let ws = &mut self.ws;
        match self.factors.as_ref().expect("factorized") {
            Factors::Product { lu, etas } => {
                lu.ftran(&mut ws.rhs, &mut ws.sol);
                etas.apply_ftran(&mut ws.sol);
            }
            Factors::Ft(ft) => ws.sol = ft.ftran(&ws.rhs),
        }
    }

    /// `B⁻ᵀ c`: `ws.cb` (by slot, clobbered) into `ws.y` (by row).
    fn btran(&mut self) {
        let ws = &mut self.ws;
        match self.factors.as_ref().expect("factorized") {
            Factors::Product { lu, etas } => {
                etas.apply_btran(&mut ws.cb);
                lu.btran(&ws.cb, &mut ws.acc, &mut ws.y);
            }
            Factors::Ft(ft) => ws.y = ft.btran(&ws.cb),
        }
    }

    /// The duals `y = B⁻ᵀ c_B` of the current basis under `costs`.
    fn btran_costs(&mut self, costs: &[f64]) {
        for (cb, &c) in self.ws.cb.iter_mut().zip(&self.basis) {
            *cb = costs[c];
        }
        self.btran();
    }

    /// The same from `ws.cost_b`, the basic costs `iterate` keeps.
    fn btran_basic_costs(&mut self) {
        self.ws.cb.copy_from_slice(&self.ws.cost_b);
        self.btran();
    }

    /// Row `slot` of the basis inverse, `ρ = B⁻ᵀ e_slot`.
    fn btran_unit(&mut self, slot: usize) {
        self.ws.cb.fill(0.0);
        self.ws.cb[slot] = 1.0;
        self.btran();
    }

    /// FTRAN of constraint column `j` into `ws.img`, through the
    /// reach-limited solve on the product-form path.
    fn ftran_col(&mut self, j: usize) {
        let ws = &mut self.ws;
        match self.factors.as_ref().expect("factorized") {
            Factors::Product { lu, etas } => {
                lu.ftran_sparse(&self.cols[j], &mut ws.img);
                etas.apply_ftran_sparse(&mut ws.img);
            }
            Factors::Ft(ft) => {
                ws.rhs.fill(0.0);
                for &(r, a) in &self.cols[j] {
                    ws.rhs[r] = a;
                }
                ws.img.load_dense(ft.ftran(&ws.rhs));
            }
        }
    }

    #[inline]
    fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        self.cols[j].iter().map(|&(r, a)| a * y[r]).sum()
    }

    /// Entering direction of a nonbasic column: `+1` when it rises
    /// from its lower bound, `−1` when it falls from its upper bound.
    #[inline]
    fn enter_dir(&self, q: usize) -> f64 {
        if self.at_upper[q] {
            -1.0
        } else {
            1.0
        }
    }

    /// `c_B · w` over the nonzeros of the entering column's image (the
    /// terms it skips are exact zeros).
    fn basic_cost_dot_image(&self, costs: &[f64]) -> f64 {
        let img = &self.ws.img;
        img.nz.iter().map(|&s| costs[self.basis[s]] * img.w[s]).sum()
    }

    /// Replaces the basic variable of `slot` with column `q`, whose
    /// FTRAN image is `ws.img`, and folds the column replacement into
    /// the factors (eta push or Forrest–Tomlin update; either may
    /// demand a refactorization instead). Callers update `x_b` and the
    /// `at_upper` flags *before* calling, so a triggered
    /// refactorization recomputes `x_B` against the right bounds.
    /// Returns whether the basis change triggered a refactorization
    /// (incremental pricing state must then be recomputed — the
    /// refactorized solves round differently).
    fn pivot(&mut self, slot: usize, q: usize) -> Result<bool, FactorError> {
        probe!(self, trace.push((q, slot)));
        self.in_basis[self.basis[slot]] = false;
        self.basis[slot] = q;
        self.in_basis[q] = true;
        self.iterations += 1;
        let refactor = match self.factors.as_mut().expect("factorized") {
            Factors::Product { etas, .. } => {
                !etas.push(slot, &self.ws.img.w, &self.ws.img.nz)
                    || etas.len() >= REFACTOR_INTERVAL
            }
            Factors::Ft(ft) => {
                ft.update(slot, &self.cols[q]) == FtUpdate::NeedsRefactor
            }
        };
        if refactor {
            self.refactorize()?;
        } else {
            self.etas_total += 1;
        }
        Ok(refactor)
    }

    /// Moves the basic values along the entering column's image by
    /// step `t` in direction `dir`.
    fn step_basics(&mut self, t: f64, dir: f64) {
        let img = &self.ws.img;
        for &s in &img.nz {
            self.x_b[s] -= t * dir * img.w[s];
        }
    }

    /// Moves entering column `q` by step `t` along its direction
    /// (ratio-test step for a basis change): updates every other basic
    /// value, installs the entering value at `slot` and clears the
    /// entering at-upper flag. The basis swap itself is [`Self::pivot`].
    fn apply_entering(&mut self, slot: usize, q: usize, t: f64) {
        self.step_basics(t, self.enter_dir(q));
        self.x_b[slot] = if self.at_upper[q] { self.ub[q] - t } else { t };
        self.at_upper[q] = false;
    }

    /// Objective contribution of the nonbasic columns resting at their
    /// upper bounds.
    fn upper_objective(&self, costs: &[f64]) -> f64 {
        self.upper_cols
            .iter()
            .filter(|&&j| self.at_upper[j])
            .map(|&j| costs[j] * self.ub[j])
            .sum()
    }

    /// Entering-column selection against the duals in `ws.y`: Dantzig
    /// partial pricing over column segments with a deterministic
    /// cursor, or Bland's lowest-index rule when `bland` is set.
    /// Reduced costs are sign-flipped for at-upper columns so
    /// "profitable" is uniformly `d < −eps`. (Devex pricing lives in
    /// [`Self::iterate`], scanning its incrementally maintained
    /// reduced-cost vector.)
    fn price(&mut self, costs: &[f64], allow_art: bool, bland: bool) -> Option<usize> {
        let eps = self.opts.eps;
        if bland {
            let y = &self.ws.y;
            return (0..self.ncols).find(|&j| {
                if self.in_basis[j] || (!allow_art && self.kind[j] == CKind::Artificial) {
                    return false;
                }
                let d = costs[j] - self.col_dot(j, y);
                let d = if self.at_upper[j] { -d } else { d };
                d < -eps
            });
        }
        let seg = PRICE_SEGMENT.max(self.ncols / 8).min(self.ncols.max(1));
        let mut start = self.cursor.min(self.ncols.saturating_sub(1));
        let mut scanned = 0usize;
        let mut d = std::mem::take(&mut self.ws.price);
        d.resize(seg, 0.0);
        let mut entering = None;
        while scanned < self.ncols {
            let len = seg.min(self.ncols - start).min(self.ncols - scanned);
            self.price_segment(start, &self.ws.y, costs, allow_art, &mut d[..len]);
            let mut best: Option<usize> = None;
            let mut best_d = -eps;
            for (k, &dj) in d[..len].iter().enumerate() {
                if dj < best_d {
                    best_d = dj;
                    best = Some(start + k);
                }
            }
            if best.is_some() {
                self.cursor = (start + len) % self.ncols.max(1);
                entering = best;
                break;
            }
            scanned += len;
            start = (start + len) % self.ncols.max(1);
        }
        self.ws.price = d;
        entering
    }

    /// Reduced costs of columns `[start, start + out.len())` into
    /// `out` (`+∞` for columns that may not enter; sign-flipped for
    /// at-upper columns).
    fn price_segment(
        &self,
        start: usize,
        y: &[f64],
        costs: &[f64],
        allow_art: bool,
        out: &mut [f64],
    ) {
        for (k, d) in out.iter_mut().enumerate() {
            let j = start + k;
            *d = if self.in_basis[j] || (!allow_art && self.kind[j] == CKind::Artificial) {
                f64::INFINITY
            } else {
                let d = costs[j] - self.col_dot(j, y);
                if self.at_upper[j] {
                    -d
                } else {
                    d
                }
            };
        }
    }

    /// The pivot row `α_j = (B⁻¹ A_j)[slot]` for every nonbasic,
    /// allowed column (zero elsewhere) into `alphas`, from one BTRAN
    /// of `e_slot` and one pass over the column file. This single row
    /// feeds both the devex weight update and the incremental
    /// reduced-cost update, so devex pays one extra solve + one matrix
    /// pass per pivot — not the two full pricing passes of the naive
    /// formulation.
    fn pivot_row(&mut self, slot: usize, allow_art: bool, alphas: &mut [f64]) {
        self.btran_unit(slot);
        for (j, alpha) in alphas.iter_mut().enumerate() {
            *alpha = if self.in_basis[j] || (!allow_art && self.kind[j] == CKind::Artificial) {
                0.0
            } else {
                self.col_dot(j, &self.ws.y)
            };
        }
    }

    /// Devex reference-framework update after choosing `q` to replace
    /// the basic variable of `slot` (Forrest–Goldfarb): with pivot
    /// element `α_q = w[slot]` (of the image in `ws.img`) and pivot row `alphas`, every
    /// candidate's weight rises to `max(γ_j, (α_j/α_q)² γ_q)` and the
    /// leaving variable enters the nonbasic set with `max(γ_q/α_q², 1)`.
    /// Serial on purpose — the weights feed the next pricing pass and
    /// must be bit-identical at every thread count.
    fn devex_update(&self, slot: usize, q: usize, alphas: &[f64], weights: &mut [f64]) {
        let alpha_q = self.ws.img.w[slot];
        if alpha_q == 0.0 {
            return;
        }
        let base = weights[q] / (alpha_q * alpha_q);
        let mut maxw = 0.0f64;
        for (j, &alpha_j) in alphas.iter().enumerate() {
            if self.in_basis[j] || j == q {
                continue;
            }
            if alpha_j != 0.0 {
                let cand = alpha_j * alpha_j * base;
                if cand > weights[j] {
                    weights[j] = cand;
                }
            }
            if weights[j] > maxw {
                maxw = weights[j];
            }
        }
        weights[self.basis[slot]] = base.max(1.0);
        if maxw > DEVEX_RESET {
            weights.iter_mut().for_each(|g| *g = 1.0);
        }
    }

    /// Primal simplex loop over the given costs, with a bound-flip
    /// ratio test: the entering variable may hit its own opposite
    /// bound first (no basis change), and a basic variable may leave
    /// at either of its bounds.
    ///
    /// Under [`Pricing::Devex`] the loop maintains the full (true,
    /// unflipped) reduced-cost vector incrementally from each pivot
    /// row, so pricing is an O(ncols) scan of `d² / γ` instead of a
    /// matrix pass, and the expensive BTRAN of the basic costs is only
    /// needed to rebuild `d` after a refactorization or a Bland
    /// excursion. Every chosen column is verified against its exact
    /// reduced cost (one dot with the already-computed FTRAN column)
    /// before pivoting — a stale-drift pick forces a rebuild rather
    /// than a bad pivot.
    ///
    /// Dantzig and Bland pricing read the duals `y = B⁻ᵀc_B`, which
    /// depend on the basis alone: a bound flip keeps them, so the
    /// BTRAN is paid once per basis change (a refactorization only
    /// happens inside one), not once per iteration.
    fn iterate(&mut self, costs: &[f64], allow_art: bool) -> Result<SolveStatus, FactorError> {
        probe!(self, iterate_calls += 1);
        let eps = self.opts.eps;
        let mut best_obj = f64::INFINITY;
        let mut stall = 0usize;
        let devex = self.opts.pricing == Pricing::Devex;
        let mut weights = if devex { vec![1.0f64; self.ncols] } else { Vec::new() };
        // True reduced costs for devex mode; rebuilt lazily whenever
        // `d_valid` drops (refactorization, Bland excursion, drift).
        let mut d = if devex { vec![0.0f64; self.ncols] } else { Vec::new() };
        let mut d_valid = false;
        let mut alphas = if devex { vec![0.0f64; self.ncols] } else { Vec::new() };
        // Whether `ws.y` holds the duals of the current basis.
        let mut y_valid = false;
        // Livelock guard: one optimality-confirmation rebuild is
        // granted per basis change. The rebuild recomputes the same
        // BTRAN-priced approximations from unchanged factors, so when
        // every candidate it proposes is vetoed by its exact FTRAN
        // reduced cost (possible on torture-grade bases, where the two
        // views genuinely disagree), a second rebuild would cycle
        // forever. Terminating instead is safe: the returned point is
        // at the factorization's noise floor, and KKT certification
        // decides whether it stands as `Optimal` or is downgraded.
        let mut confirmed_since_progress = false;
        self.ws.cost_b.clear();
        self.ws.cost_b.extend(self.basis.iter().map(|&c| costs[c]));
        loop {
            if self.iterations >= self.opts.max_iterations {
                return Ok(SolveStatus::IterationLimit);
            }
            let bland = stall >= self.opts.stall_threshold;
            let q = if devex && !bland {
                let fresh = !d_valid;
                if !d_valid {
                    self.btran_basic_costs();
                    y_valid = true;
                    probe!(self, btran_iterate += 1);
                    self.price_segment(0, &self.ws.y, costs, allow_art, &mut d);
                    // price_segment sign-flips at-upper entries; store
                    // the true reduced costs and flip while scoring.
                    for (j, dj) in d.iter_mut().enumerate() {
                        if self.at_upper[j] && dj.is_finite() {
                            *dj = -*dj;
                        }
                    }
                    d_valid = true;
                }
                let mut best: Option<usize> = None;
                let mut best_score = 0.0f64;
                for (j, &dj) in d.iter().enumerate() {
                    if !dj.is_finite() || self.in_basis[j] {
                        continue;
                    }
                    let deff = if self.at_upper[j] { -dj } else { dj };
                    if deff < -eps {
                        let score = deff * deff / weights[j];
                        if score > best_score {
                            best_score = score;
                            best = Some(j);
                        }
                    }
                }
                if best.is_none() && !fresh {
                    // The maintained vector says optimal but has seen
                    // incremental updates since its last rebuild —
                    // confirm against a fresh pass before terminating
                    // (at most once per basis change; see the guard).
                    if confirmed_since_progress {
                        return Ok(SolveStatus::Optimal);
                    }
                    confirmed_since_progress = true;
                    d_valid = false;
                    continue;
                }
                best
            } else {
                if devex {
                    d_valid = false;
                }
                if !y_valid {
                    self.btran_basic_costs();
                    y_valid = true;
                    probe!(self, btran_iterate += 1);
                }
                probe!(self, bland_picks += usize::from(bland));
                self.price(costs, allow_art, bland)
            };
            let Some(q) = q else {
                return Ok(SolveStatus::Optimal);
            };
            self.ftran_col(q);
            if devex && !bland {
                // Exact reduced cost of the chosen column from the
                // FTRAN we already have: d_q = c_q − c_B·w.
                let exact: f64 = costs[q] - self.basic_cost_dot_image(costs);
                let deff = if self.at_upper[q] { -exact } else { exact };
                d[q] = exact;
                if deff >= -eps {
                    // Drift: the cached entry was stale enough to flip
                    // the verdict. The entry is now exact (so this
                    // column won't be re-picked); re-price.
                    continue;
                }
            }
            let dir = self.enter_dir(q);
            let mut leave: Option<usize> = None;
            let mut leave_to_upper = false;
            let mut best_ratio = f64::INFINITY;
            // A slot outside the image's nonzeros has `a = ±0` and can
            // never block.
            for &s in &self.ws.img.nz {
                let a = dir * self.ws.img.w[s];
                let (ratio, to_upper) = if a > eps {
                    (self.x_b[s] / a, false)
                } else if a < -eps && self.ub[self.basis[s]].is_finite() {
                    ((self.ub[self.basis[s]] - self.x_b[s]) / -a, true)
                } else {
                    continue;
                };
                let better = ratio < best_ratio - eps
                    || (ratio < best_ratio + eps
                        && leave.is_none_or(|l| self.basis[s] < self.basis[l]));
                if better {
                    best_ratio = ratio;
                    leave = Some(s);
                    leave_to_upper = to_upper;
                }
            }
            if self.ub[q].is_finite() && self.ub[q] <= best_ratio {
                // Bound flip: the entering variable reaches its
                // opposite bound before any basic variable blocks.
                self.step_basics(self.ub[q], dir);
                self.at_upper[q] = !self.at_upper[q];
                self.iterations += 1;
                confirmed_since_progress = false;
                probe!(self, trace.push((q, usize::MAX)));
            } else {
                let Some(slot) = leave else {
                    return Ok(SolveStatus::Unbounded);
                };
                if devex && !bland {
                    self.pivot_row(slot, allow_art, &mut alphas);
                    self.devex_update(slot, q, &alphas, &mut weights);
                    // Incremental reduced costs: d_j ← d_j − (d_q/α_q)·α_j
                    // for nonbasic j; the leaving column re-enters the
                    // nonbasic set with d = −θ_d.
                    let alpha_q = self.ws.img.w[slot];
                    if d_valid && alpha_q != 0.0 {
                        let theta_d = d[q] / alpha_q;
                        for (j, &alpha_j) in alphas.iter().enumerate() {
                            if alpha_j != 0.0 && j != q {
                                d[j] -= theta_d * alpha_j;
                            }
                        }
                        d[self.basis[slot]] = -theta_d;
                        d[q] = 0.0;
                    } else {
                        d_valid = false;
                    }
                }
                let leaving = self.basis[slot];
                self.apply_entering(slot, q, best_ratio);
                if leave_to_upper {
                    self.at_upper[leaving] = true;
                }
                y_valid = false;
                probe!(self, iterate_pivots += 1);
                self.ws.cost_b[slot] = costs[q];
                if self.pivot(slot, q)? {
                    d_valid = false;
                }
                confirmed_since_progress = false;
            }
            let obj = self.ws.cost_b.iter().zip(&self.x_b).map(|(&c, &xb)| c * xb).sum::<f64>()
                + self.upper_objective(costs);
            if obj < best_obj - self.opts.tols.stall_improvement {
                best_obj = obj;
                stall = 0;
            } else {
                stall += 1;
            }
        }
    }

    /// Dual simplex loop (phase-2 costs, artificials barred), used for
    /// cold dual starts, rhs-only re-solves and warm restores.
    /// Generalized for bounds: the leaving variable is the worst bound
    /// violation (below lower or above a finite upper), and both
    /// at-lower and at-upper nonbasic columns are ratio-test
    /// candidates. Two refinements keep it fast on the heavily
    /// degenerate TE programs:
    ///
    /// * the true reduced costs are maintained incrementally from the
    ///   pivot row (rebuilt only after a refactorization), so each
    ///   iteration prices with one BTRAN and a single column scan, and
    /// * a bound-flipping (long-step) ratio test: zero- and small-ratio
    ///   candidates with finite bound spans are flipped bound-to-bound
    ///   in bulk — their combined rhs shift is absorbed with one FTRAN
    ///   — and the basis change is spent on the first candidate whose
    ///   flip would overshoot the violated row. Dual-degenerate
    ///   programs retire many violations per basis change this way.
    fn dual_simplex(&mut self, perturb: bool) -> Result<SolveStatus, FactorError> {
        probe!(self, dual_calls += 1);
        let eps = self.opts.eps;
        // Cold dual starts run on deterministically perturbed costs:
        // the TE programs carry whole families of identically-priced
        // columns (every slack at 0, every allocation at its uniform
        // tie-break cost), so the unperturbed ratio test degenerates
        // into long runs of zero-ratio pivots and bound-flip thrash.
        // A tiny index-keyed offset, signed toward the column's
        // starting side so initial dual feasibility is *strict*, makes
        // the ratio order unambiguous; the primal phase that follows a
        // cold start prices with the true costs and cleans up the
        // O(1e-8) bias. Warm restores skip the perturbation — they
        // start a pivot or two from optimal and must reproduce the
        // historical bases bit-for-bit.
        let costs: Vec<f64> = if perturb {
            self.costs
                .iter()
                .enumerate()
                .map(|(j, &c)| {
                    let h = (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let frac = (h >> 40) as f64 / (1u64 << 24) as f64;
                    let eps_j = 1e-8 * (1.0 + frac) * (1.0 + c.abs());
                    if self.at_upper[j] {
                        c - eps_j
                    } else {
                        c + eps_j
                    }
                })
                .collect()
        } else {
            self.costs.clone()
        };
        // Candidates need a meaningfully sized pivot element: a
        // borderline `|α| ≈ eps` candidate can pass the row scan yet
        // show a sub-eps `w[slot]` after the FTRAN, and the
        // refactorize-and-retry path would then re-select it forever.
        // The default matches the primal ratio test's pivot tolerance.
        let dual_pivot_tol = self.opts.tols.dual_pivot;
        let mut d = vec![0.0f64; self.ncols];
        let mut d_valid = false;
        // Pivot-row scratch, reused across iterations and cleared
        // through `touched` (clearing 3 k-entry vectors every pivot
        // costs more than the pivot row itself).
        let mut alphas = vec![0.0f64; self.ncols];
        let mut mark = vec![false; self.ncols];
        let mut touched: Vec<usize> = Vec::new();
        // Livelock guard for torture-grade bases: a candidate whose
        // FTRAN pivot element stays unusable (or whose pivot stays
        // singular) across a fresh refactorization would be
        // re-selected forever — the basis and candidate order are
        // deterministic, and refactorizing again cannot improve
        // already-fresh factors. One refactorization attempt is
        // granted per basis; every further stuck candidate is banned
        // from the ratio test until the next successful basis change
        // (monotone progress: each visit either pivots or shrinks the
        // candidate set). If banning leaves no candidate,
        // infeasibility can no longer be concluded and the failure
        // escalates to the dense-fallback rung instead.
        let mut banned = vec![false; self.ncols];
        let mut refactored_since_pivot = false;
        // Ratio-test candidates `(ratio, |ᾱ|, column)` and the columns
        // the long step flips, refilled every iteration.
        let mut cands: Vec<(f64, f64, usize)> = Vec::new();
        let mut flip_cols: Vec<usize> = Vec::new();
        loop {
            if self.iterations >= self.opts.max_iterations {
                return Ok(SolveStatus::IterationLimit);
            }
            if !d_valid {
                self.btran_costs(&costs);
                probe!(self, btran_dual += 1);
                for (j, dj) in d.iter_mut().enumerate() {
                    *dj = if !self.in_basis[j] && self.kind[j] != CKind::Artificial {
                        costs[j] - self.col_dot(j, &self.ws.y)
                    } else {
                        0.0
                    };
                }
                d_valid = true;
            }
            let mut leave: Option<usize> = None;
            let mut worst = 1e-9;
            let mut above = false;
            for (s, &xb) in self.x_b.iter().enumerate() {
                if -xb > worst {
                    worst = -xb;
                    leave = Some(s);
                    above = false;
                }
                let ub_b = self.ub[self.basis[s]];
                if ub_b.is_finite() && xb - ub_b > worst {
                    worst = xb - ub_b;
                    leave = Some(s);
                    above = true;
                }
            }
            let Some(slot) = leave else {
                return Ok(SolveStatus::Optimal);
            };
            let sgn = if above { 1.0 } else { -1.0 };
            self.btran_unit(slot);
            // Signed pivot row, scattered row-wise through the CSR
            // mirror: only rows with a nonzero BTRAN entry contribute,
            // and accumulating in ascending row order keeps every
            // per-column sum bit-identical to a CSC dot. Candidate
            // ratios are clamped at 0 so slightly-drifted reduced
            // costs price as degenerate steps instead of as negative
            // ones.
            for &j in &touched {
                alphas[j] = 0.0;
                mark[j] = false;
            }
            touched.clear();
            for (r, &pr) in self.ws.y.iter().enumerate() {
                if pr == 0.0 {
                    continue;
                }
                for &(j, a) in &self.rows_csr[r] {
                    alphas[j] += pr * a;
                    if !mark[j] {
                        mark[j] = true;
                        touched.push(j);
                    }
                }
            }
            // `touched` is left in scatter order: every later consumer
            // is order-independent (the candidate list is sorted under
            // a total order below, and the incremental dual update
            // touches each column once).
            cands.clear();
            let mut banned_eligible = false;
            for &j in &touched {
                if self.in_basis[j] || self.kind[j] == CKind::Artificial {
                    alphas[j] = 0.0;
                    continue;
                }
                let abar = sgn * alphas[j];
                alphas[j] = abar;
                let eligible = if self.at_upper[j] {
                    abar < -dual_pivot_tol
                } else {
                    abar > dual_pivot_tol
                };
                if eligible && banned[j] {
                    banned_eligible = true;
                } else if eligible {
                    cands.push(((d[j] / abar).max(0.0), abar.abs(), j));
                }
            }
            if cands.is_empty() {
                if banned_eligible {
                    // Only unusable (banned) candidates remain: the
                    // infeasibility verdict would rest on pivots the
                    // factorization cannot support. Escalate.
                    return Err(FactorError { slot: None });
                }
                return Ok(SolveStatus::Infeasible);
            }
            // Ascending ratio; ties prefer the largest pivot element
            // (stability), then the lowest index (determinism).
            // `total_cmp` gives the same order as `partial_cmp` on the
            // finite values produced here while staying panic-free on
            // torture inputs whose ratios overflow to non-finite. No
            // two candidates compare equal (the column breaks every
            // tie), so the in-place unstable sort gives the one order.
            cands.sort_unstable_by(|a, b| {
                a.0.total_cmp(&b.0)
                    .then(b.1.total_cmp(&a.1))
                    .then(a.2.cmp(&b.2))
            });
            // Long-step walk: passing a candidate\'s ratio flips it
            // bound-to-bound (only possible with a finite bound span),
            // which eats `|ᾱ|·span` of the row\'s violation. The basis
            // change is spent on the first candidate whose flip would
            // overshoot.
            let mut remaining = worst;
            flip_cols.clear();
            let mut chosen: Option<(usize, f64)> = None;
            for &(_, _, j) in &cands {
                let span = self.ub[j];
                if span.is_finite() && remaining - span * alphas[j].abs() > eps {
                    remaining -= span * alphas[j].abs();
                    flip_cols.push(j);
                } else {
                    chosen = Some((j, alphas[j]));
                    break;
                }
            }
            let Some((q, abar_q)) = chosen else {
                // Every candidate flipped away and the row is still
                // violated: the dual is unbounded, the primal
                // infeasible — unless usable candidates were banned
                // away, in which case the verdict is unsupported.
                if banned_eligible {
                    return Err(FactorError { slot: None });
                }
                return Ok(SolveStatus::Infeasible);
            };
            self.ftran_col(q);
            let alpha_q = self.ws.img.w[slot];
            if alpha_q.abs() <= dual_pivot_tol {
                // The FTRAN view of the pivot element disagrees with
                // the BTRAN row (or the element is too small to pivot
                // on without degrading the factors into singularity):
                // force a clean factorization, after which the row scan
                // and the FTRAN usually agree and a sound candidate is
                // chosen. On near-singular bases the disagreement can
                // survive fresh factors — ban the candidate instead of
                // refactorizing again.
                if refactored_since_pivot {
                    banned[q] = true;
                } else {
                    self.refactorize()?;
                    refactored_since_pivot = true;
                }
                d_valid = false;
                continue;
            }
            if !flip_cols.is_empty() {
                // Toggle the passed candidates and absorb their
                // combined rhs shift with a single FTRAN.
                let v = &mut self.ws.rhs;
                v.fill(0.0);
                for &j in &flip_cols {
                    let c = if self.at_upper[j] { 1.0 } else { -1.0 };
                    self.at_upper[j] = !self.at_upper[j];
                    for &(r, a) in &self.cols[j] {
                        v[r] += c * self.ub[j] * a;
                    }
                }
                self.ftran();
                for (x, dx) in self.x_b.iter_mut().zip(&self.ws.sol) {
                    *x += dx;
                }
            }
            let dir = self.enter_dir(q);
            let beta = if above { self.ub[self.basis[slot]] } else { 0.0 };
            let t = (self.x_b[slot] - beta) / (dir * alpha_q);
            let leaving = self.basis[slot];
            // Incremental dual update along the pivot row: the duals
            // move by θ_d = d_q/ᾱ_q, so dⱼ ← dⱼ − θ_d·ᾱⱼ; the leaving
            // variable prices at −θ_d on the side it leaves to. θ_d is
            // computed from the exact reduced cost of the entering
            // column (one dot with the FTRAN image we already have) so
            // the maintained vector cannot drift cumulatively.
            let exact_dq: f64 = costs[q] - self.basic_cost_dot_image(&costs);
            let theta_d = exact_dq / abar_q;
            let q_was_upper = self.at_upper[q];
            self.apply_entering(slot, q, t);
            if above {
                self.at_upper[leaving] = true;
            }
            match self.pivot(slot, q) {
                Ok(refactored) => {
                    if refactored {
                        d_valid = false;
                    }
                    refactored_since_pivot = false;
                    banned.iter_mut().for_each(|b| *b = false);
                }
                Err(_) => {
                    // The new basis failed to factorize: after a long
                    // update chain the factors can drift far enough to
                    // endorse a pivot that is singular in exact
                    // arithmetic. Roll the basis change back (the
                    // pre-pivot basis factorized fine), rebuild clean
                    // factors and redo the iteration — the offending
                    // candidate then prices with honest numbers and is
                    // usually screened out by the pivot tolerance. A
                    // genuinely singular swap (near-parallel columns)
                    // survives honest pricing, though, and the
                    // unchanged state would re-select and re-roll it
                    // forever — ban the repeat offender.
                    self.in_basis[q] = false;
                    self.in_basis[leaving] = true;
                    self.basis[slot] = leaving;
                    self.at_upper[q] = q_was_upper;
                    if above {
                        self.at_upper[leaving] = false;
                    }
                    self.rollbacks += 1;
                    self.refactorize()?;
                    if refactored_since_pivot {
                        banned[q] = true;
                    } else {
                        refactored_since_pivot = true;
                    }
                    d_valid = false;
                    continue;
                }
            }
            for &j in &touched {
                if !self.in_basis[j] && alphas[j] != 0.0 {
                    d[j] -= theta_d * alphas[j];
                }
            }
            d[leaving] = -theta_d * sgn;
            d[q] = 0.0;
        }
    }

    /// Pivots leftover zero-valued artificial basics out of the basis
    /// wherever a structural/slack column can replace them.
    fn drive_out_artificials(&mut self) -> Result<(), FactorError> {
        let feas = self.opts.tols.feas;
        for slot in 0..self.m {
            if self.kind[self.basis[slot]] != CKind::Artificial
                || self.x_b[slot].abs() > feas
            {
                continue;
            }
            self.btran_unit(slot);
            for j in 0..self.ncols {
                if self.in_basis[j] || self.kind[j] == CKind::Artificial {
                    continue;
                }
                if self.col_dot(j, &self.ws.y).abs() > feas {
                    self.ftran_col(j);
                    let alpha = self.ws.img.w[slot];
                    if alpha.abs() > feas {
                        let dir = self.enter_dir(j);
                        let t = self.x_b[slot] / (dir * alpha);
                        self.apply_entering(slot, j, t);
                        self.pivot(slot, j)?;
                        probe!(self, driven_out += 1);
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Optimal bound assignment when no rows survived presolve: each
    /// structural variable sits at whichever bound its cost prefers
    /// (`Unbounded` when a profitable variable has no upper bound).
    fn settle_box(&mut self) -> SolveStatus {
        self.at_upper.iter_mut().for_each(|f| *f = false);
        for j in 0..self.n_structural {
            if self.costs[j] < 0.0 {
                if self.ub[j].is_finite() {
                    self.at_upper[j] = true;
                } else {
                    return SolveStatus::Unbounded;
                }
            }
        }
        SolveStatus::Optimal
    }

    /// Full two-phase solve from the initial slack/artificial basis.
    fn run(&mut self) -> Result<Solution, FactorError> {
        if self.m == 0 {
            return Ok(match self.settle_box() {
                SolveStatus::Optimal => self.extract(),
                other => self.failed(other),
            });
        }
        if self.dual_start {
            // Park every profitable column at its upper bound (finite
            // by the build-time eligibility check): with the all-slack
            // basis the reduced costs are the raw costs, so this
            // assignment is dual feasible and one dual simplex pass
            // restores primal feasibility — no artificials, no phase 1.
            for j in 0..self.n_structural {
                if self.costs[j] < 0.0 {
                    self.at_upper[j] = true;
                }
            }
            self.refactorize()?;
            match self.dual_simplex(true)? {
                SolveStatus::Optimal => {}
                // The dual simplex reports a dual ray (no entering
                // column for a violated row) as primal infeasibility.
                other => return Ok(self.failed(other)),
            }
        } else {
            self.refactorize()?;
        }
        if !self.dual_start && self.kind.contains(&CKind::Artificial) {
            let costs1: Vec<f64> = self
                .kind
                .iter()
                .map(|&k| if k == CKind::Artificial { 1.0 } else { 0.0 })
                .collect();
            self.cursor = 0;
            let st = self.iterate(&costs1, true)?;
            if st == SolveStatus::IterationLimit {
                return Ok(self.failed(SolveStatus::IterationLimit));
            }
            let phase1: f64 = self
                .basis
                .iter()
                .zip(&self.x_b)
                .filter(|(&c, _)| self.kind[c] == CKind::Artificial)
                .map(|(_, &xb)| xb)
                .sum();
            if phase1 > self.opts.tols.phase1_infeas {
                return Ok(self.failed(SolveStatus::Infeasible));
            }
            self.drive_out_artificials()?;
        }
        self.cursor = 0;
        let costs = self.costs.clone();
        match self.iterate(&costs, false)? {
            SolveStatus::Optimal => Ok(self.extract()),
            other => Ok(self.failed(other)),
        }
    }

    /// Rebuilds `in_basis` from `basis`, in place.
    fn mark_basis(&mut self) {
        self.in_basis.fill(false);
        for &c in &self.basis {
            self.in_basis[c] = true;
        }
    }

    /// Installs a saved basis + bound assignment (artificial entries
    /// fall back to the slot's initial basic column) and
    /// refactorizes. `false` leaves the core on its initial basis,
    /// ready for a cold solve.
    fn restore_basis(&mut self, saved: &Basis) -> Result<bool, FactorError> {
        let cols = saved.cols();
        if cols.len() != self.m {
            return Ok(false);
        }
        let saved_upper = saved.at_upper();
        for (j, f) in self.at_upper.iter_mut().enumerate() {
            *f = saved_upper.get(j).copied().unwrap_or(false) && self.ub[j].is_finite();
        }
        if self.m == 0 {
            return Ok(true);
        }
        let mut used = vec![false; self.ncols];
        let mut cand = vec![usize::MAX; self.m];
        for (slot, &c) in cols.iter().enumerate() {
            if c < self.ncols && self.kind[c] != CKind::Artificial && !used[c] {
                cand[slot] = c;
                used[c] = true;
            }
        }
        let mut ok = true;
        for (slot, c) in cand.iter_mut().enumerate() {
            if *c == usize::MAX {
                let init = self.init_basic[slot];
                if used[init] {
                    ok = false;
                    break;
                }
                *c = init;
                used[init] = true;
            }
        }
        if ok {
            let prev = std::mem::replace(&mut self.basis, cand);
            // A basic column can't rest at a bound; clear before the
            // refactorization computes x_B against the bounds.
            for &c in &self.basis {
                self.at_upper[c] = false;
            }
            match self.refactorize() {
                Ok(()) => {
                    self.mark_basis();
                    return Ok(true);
                }
                Err(err) => {
                    // `PatchSingularColumn` rungs: the factorization
                    // names the offending basis slot, so swap just
                    // that slot back to its initial slack/artificial
                    // column and retry — the rest of the restored
                    // basis stays warm. Bounded attempts keep the
                    // ladder deterministic.
                    let mut err = err;
                    let mut patched = 0usize;
                    while let Some(slot) = err.slot {
                        if patched >= MAX_PATCHES || slot >= self.m {
                            break;
                        }
                        let init = self.init_basic[slot];
                        if self.basis[slot] == init || self.basis.contains(&init) {
                            break;
                        }
                        self.basis[slot] = init;
                        self.at_upper[init] = false;
                        self.patched_columns += 1;
                        patched += 1;
                        match self.refactorize() {
                            Ok(()) => {
                                self.mark_basis();
                                return Ok(true);
                            }
                            Err(next) => err = next,
                        }
                    }
                    // Still singular: fall back cleanly.
                    self.basis = prev;
                }
            }
        }
        self.basis.clone_from(&self.init_basic);
        self.mark_basis();
        self.at_upper.iter_mut().for_each(|f| *f = false);
        self.refactorize()?;
        Ok(false)
    }

    /// Finishes a solve after a successful [`SparseCore::restore_basis`]:
    /// primal cleanup when the restored point is primal feasible, dual
    /// simplex when it is dual feasible, `None` otherwise (caller runs
    /// cold).
    fn solve_restored(&mut self) -> Result<Option<Solution>, FactorError> {
        if self.m == 0 {
            return Ok((self.settle_box() == SolveStatus::Optimal)
                .then(|| self.extract()));
        }
        self.cursor = 0;
        let costs = self.costs.clone();
        let feas = self.opts.tols.feas;
        let primal_ok = self.x_b.iter().enumerate().all(|(s, &v)| {
            let ub = self.ub[self.basis[s]];
            v >= -feas && (!ub.is_finite() || v <= ub + feas)
        });
        let st = if primal_ok {
            self.iterate(&costs, false)?
        } else {
            self.btran_costs(&costs);
            let dual_ok = (0..self.ncols).all(|j| {
                if self.in_basis[j] || self.kind[j] == CKind::Artificial {
                    return true;
                }
                let d = costs[j] - self.col_dot(j, &self.ws.y);
                if self.at_upper[j] {
                    d <= feas
                } else {
                    d >= -feas
                }
            });
            if !dual_ok {
                return Ok(None);
            }
            match self.dual_simplex(false)? {
                SolveStatus::Optimal => self.iterate(&costs, false)?,
                other => other,
            }
        };
        Ok((st == SolveStatus::Optimal).then(|| self.extract()))
    }

    /// Re-solves after a reduced-space rhs-only change. `deltas` are
    /// `(reduced_row, new_rhs − build_rhs)` pairs.
    fn resolve_rhs(&mut self, deltas: &[(usize, f64)]) -> Result<SolveStatus, FactorError> {
        self.b.clone_from(&self.b0);
        for &(k, d) in deltas {
            let (row, sign) = self.user_rows[k];
            self.b[row] += sign * d;
        }
        if self.m == 0 {
            return Ok(self.settle_box());
        }
        self.recompute_basics();
        self.cursor = 0;
        let st = self.dual_simplex(false)?;
        if st == SolveStatus::Optimal {
            let costs = self.costs.clone();
            self.iterate(&costs, false)
        } else {
            Ok(st)
        }
    }

    fn current_basis(&self) -> Basis {
        Basis::from_parts(self.basis.clone(), self.signature, self.at_upper.clone())
    }

    fn engine_stats(&self) -> EngineStats {
        EngineStats {
            refactorizations: self.refactorizations,
            etas: self.etas_total,
            fill_in: self.fill_total,
            rollbacks: self.rollbacks,
            refinements: self.refinements,
            tightenings: self.tightenings,
            patched_columns: self.patched_columns,
            condition_estimate: self.condition_max,
            dense_fallback: false,
        }
    }

    /// Reduced-space optimal solution.
    fn extract(&mut self) -> Solution {
        let mut x = vec![0.0f64; self.n_structural];
        for (s, &c) in self.basis.iter().enumerate() {
            if c < self.n_structural {
                x[c] = self.x_b[s];
            }
        }
        for (j, xi) in x.iter_mut().enumerate() {
            if self.at_upper[j] {
                *xi = self.ub[j];
            }
            *xi += self.shift[j];
        }
        let objective: f64 = self
            .basis
            .iter()
            .zip(&self.x_b)
            .map(|(&c, &xb)| self.costs[c] * xb)
            .sum::<f64>()
            + self.upper_objective(&self.costs)
            + self.obj_const;
        let duals = if self.m == 0 {
            Vec::new()
        } else {
            for (cb, &c) in self.ws.cb.iter_mut().zip(&self.basis) {
                *cb = self.costs[c];
            }
            self.btran();
            self.user_rows.iter().map(|&(row, sign)| self.ws.y[row] * sign).collect()
        };
        Solution {
            status: SolveStatus::Optimal,
            x,
            objective,
            duals,
            iterations: self.iterations,
            engine: self.engine_stats(),
            quality: None,
        }
    }

    fn failed(&self, status: SolveStatus) -> Solution {
        Solution {
            status,
            x: vec![0.0; self.n_structural],
            objective: f64::NAN,
            duals: vec![0.0; self.user_rows.len()],
            iterations: self.iterations,
            engine: self.engine_stats(),
            quality: None,
        }
    }
}

/// Geometric-mean row/column equilibration of a reduced program.
///
/// Factors are rounded to powers of two, so applying and undoing the
/// scaling is *exact* in floating point: `A' = R·A·C`, `c' = C·c`,
/// `b' = R·b`, bounds `l' = l/C`, `u' = u/C`; the solved point maps
/// back as `x = C·x'`, `y = R·y'` and the objective value carries over
/// unchanged. Activated only when the reduced matrix's dynamic range
/// exceeds [`crate::Tolerances::scale_threshold`], so well-conditioned
/// TE programs keep their historical bit-exact pivot sequences.
#[derive(Debug)]
struct Scaling {
    row: Vec<f64>,
    col: Vec<f64>,
    /// Mixed into the basis signature salt: a saved basis only
    /// restores onto a core built with identical scale factors.
    hash: u64,
}

/// Nearest power of two to `1/g`, clamped to `2^±60` so scaled
/// coefficients stay comfortably finite.
fn pow2_recip(g: f64) -> f64 {
    if !g.is_finite() || g <= 0.0 {
        return 1.0;
    }
    f64::exp2((-g.log2()).round().clamp(-60.0, 60.0))
}

/// Two sweeps of geometric-mean equilibration over the constraint
/// matrix, or `None` when the dynamic range of the nonzeros is within
/// `threshold` (scaling disabled — the common, well-scaled case).
fn compute_scaling(lp: &LinearProgram, threshold: f64) -> Option<Scaling> {
    let m = lp.num_constraints();
    let n = lp.num_vars();
    if m == 0 {
        return None;
    }
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for con in lp.constraints() {
        for &(_, a) in &con.terms {
            if a != 0.0 {
                lo = lo.min(a.abs());
                hi = hi.max(a.abs());
            }
        }
    }
    if hi == 0.0 || hi / lo <= threshold {
        return None;
    }
    let mut row = vec![1.0f64; m];
    let mut col = vec![1.0f64; n];
    for _ in 0..2 {
        for (i, con) in lp.constraints().iter().enumerate() {
            let mut lo = f64::INFINITY;
            let mut hi = 0.0f64;
            for &(v, a) in &con.terms {
                if a != 0.0 {
                    let s = (a * row[i] * col[v.index()]).abs();
                    lo = lo.min(s);
                    hi = hi.max(s);
                }
            }
            if hi > 0.0 {
                row[i] *= pow2_recip((lo * hi).sqrt());
            }
        }
        let mut clo = vec![f64::INFINITY; n];
        let mut chi = vec![0.0f64; n];
        for (i, con) in lp.constraints().iter().enumerate() {
            for &(v, a) in &con.terms {
                if a != 0.0 {
                    let j = v.index();
                    let s = (a * row[i] * col[j]).abs();
                    clo[j] = clo[j].min(s);
                    chi[j] = chi[j].max(s);
                }
            }
        }
        for j in 0..n {
            if chi[j] > 0.0 {
                col[j] *= pow2_recip((clo[j] * chi[j]).sqrt());
            }
        }
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for f in row.iter().chain(col.iter()) {
        hash ^= f.to_bits();
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    Some(Scaling { row, col, hash })
}

impl Scaling {
    /// The scaled copy of the reduced program the core factorizes.
    fn apply(&self, lp: &LinearProgram) -> LinearProgram {
        let mut out = LinearProgram::new();
        for (j, v) in lp.vars().iter().enumerate() {
            let c = self.col[j];
            out.add_var(v.lower / c, v.upper / c, v.objective * c);
        }
        for (i, con) in lp.constraints().iter().enumerate() {
            let r = self.row[i];
            let terms: Vec<_> = con
                .terms
                .iter()
                .map(|&(v, a)| (v, a * r * self.col[v.index()]))
                .collect();
            out.add_constraint(terms, con.sense, con.rhs * r);
        }
        out
    }

    /// Maps a scaled-space reduced solution back to reduced space
    /// (exact: every factor is a power of two).
    fn unscale(&self, sol: &mut Solution) {
        for (x, &c) in sol.x.iter_mut().zip(&self.col) {
            *x *= c;
        }
        for (y, &r) in sol.duals.iter_mut().zip(&self.row) {
            *y *= r;
        }
    }
}

/// A warm-capable sparse solver instance: presolve + core + postsolve,
/// with the same `solve_from` / `resolve_rhs` semantics as the dense
/// [`crate::simplex::WarmSimplex`] paths.
#[derive(Debug)]
pub(crate) struct SparseEngine {
    opts: SimplexOptions,
    mode: PresolveMode,
    state: Option<SpState>,
}

#[derive(Debug)]
struct SpState {
    red: Box<Reduction>,
    core: SparseCore,
    scale: Option<Scaling>,
    optimal: bool,
}

impl SparseEngine {
    /// Warm-capable instance: rhs-safe presolve so *any* rhs-only
    /// change between solves stays on the warm path.
    pub fn new(opts: SimplexOptions) -> Self {
        Self { opts, mode: PresolveMode::RhsSafe, state: None }
    }

    /// One-shot instance: full presolve.
    fn one_shot(opts: SimplexOptions) -> Self {
        Self { opts, mode: PresolveMode::Full, state: None }
    }

    /// Maps a reduced-space solution back to the original program.
    fn finish(&self, lp: &LinearProgram, red: &Reduction, sol: Solution) -> Solution {
        match sol.status {
            SolveStatus::Optimal if red.pending_unbounded => Solution {
                status: SolveStatus::Unbounded,
                x: vec![0.0; lp.num_vars()],
                objective: f64::NAN,
                duals: vec![0.0; lp.num_constraints()],
                iterations: sol.iterations,
                engine: sol.engine,
                quality: None,
            },
            SolveStatus::Optimal => {
                let x = red.postsolve_x(&sol.x);
                let duals = red.postsolve_duals(lp, &x, &sol.duals);
                let mut out = Solution {
                    status: SolveStatus::Optimal,
                    x,
                    objective: sol.objective + red.obj_const,
                    duals,
                    iterations: sol.iterations,
                    engine: sol.engine,
                    quality: None,
                };
                // Certify against the *original* program: every
                // Optimal the sparse path returns carries KKT
                // residuals, and a failing certificate downgrades to
                // `NumericallySuspect` instead of lying.
                crate::simplex::certify(lp, &mut out, &self.opts.tols);
                out
            }
            status => Solution {
                status,
                x: vec![0.0; lp.num_vars()],
                objective: f64::NAN,
                duals: vec![0.0; lp.num_constraints()],
                iterations: sol.iterations,
                engine: sol.engine,
                quality: None,
            },
        }
    }

    fn presolve_infeasible(&self, lp: &LinearProgram) -> Solution {
        Solution {
            status: SolveStatus::Infeasible,
            x: vec![0.0; lp.num_vars()],
            objective: f64::NAN,
            duals: vec![0.0; lp.num_constraints()],
            iterations: 0,
            engine: EngineStats::default(),
            quality: None,
        }
    }

    /// Cold or basis-seeded solve; mirrors `WarmSimplex::solve_from`.
    pub fn solve_from(
        &mut self,
        lp: &LinearProgram,
        warm: Option<&Basis>,
    ) -> Result<(Solution, bool), FactorError> {
        let red = match presolve(lp, self.mode) {
            PresolveResult::Infeasible => {
                self.state = None;
                return Ok((self.presolve_infeasible(lp), false));
            }
            PresolveResult::Ready(r) => r,
        };
        let scale = compute_scaling(&red.reduced, self.opts.tols.scale_threshold);
        let (core_lp, salt) = match &scale {
            Some(sc) => (
                std::borrow::Cow::Owned(sc.apply(&red.reduced)),
                red.pattern_hash ^ sc.hash,
            ),
            None => (std::borrow::Cow::Borrowed(&red.reduced), red.pattern_hash),
        };
        let mut core = SparseCore::build(&core_lp, self.opts, salt);
        let mut warm_used = false;
        let mut red_sol = match warm {
            Some(b)
                if b.signature() == core.signature && core.restore_basis(b)? =>
            {
                match core.solve_restored()? {
                    Some(sol) => {
                        warm_used = true;
                        sol
                    }
                    None => {
                        core = SparseCore::build(&core_lp, self.opts, salt);
                        core.run()?
                    }
                }
            }
            _ => core.run()?,
        };
        if let Some(sc) = &scale {
            sc.unscale(&mut red_sol);
        }
        let sol = self.finish(lp, &red, red_sol);
        let optimal = sol.is_usable();
        self.state = Some(SpState { red, core, scale, optimal });
        Ok((sol, warm_used))
    }

    /// Rhs-only warm re-solve; mirrors `WarmSimplex::resolve_rhs`.
    pub fn resolve_rhs(
        &mut self,
        lp: &LinearProgram,
    ) -> Result<(Solution, bool), FactorError> {
        let usable = self
            .state
            .as_ref()
            .is_some_and(|s| s.optimal && s.red.rhs_change_is_safe(lp));
        if !usable {
            return Ok((self.solve_from(lp, None)?.0, false));
        }
        let st = {
            let s = self.state.as_mut().expect("checked");
            let mut deltas = s.red.reduced_rhs_deltas(lp);
            if let Some(sc) = &s.scale {
                // The core holds the scaled rows, so rhs deltas scale
                // by the (exact power-of-two) row factors.
                for (k, d) in deltas.iter_mut() {
                    *d *= sc.row[*k];
                }
            }
            s.core.resolve_rhs(&deltas)?
        };
        if st == SolveStatus::Optimal {
            let mut red_sol = self.state.as_mut().expect("checked").core.extract();
            let s = self.state.as_ref().expect("checked");
            if let Some(sc) = &s.scale {
                sc.unscale(&mut red_sol);
            }
            let sol = self.finish(lp, &s.red, red_sol);
            if sol.is_usable() {
                return Ok((sol, true));
            }
            // pending_unbounded turned a formally optimal reduced solve
            // into an unbounded verdict; report it via the cold path
            // for a consistent state.
        }
        Ok((self.solve_from(lp, None)?.0, false))
    }

    /// The optimal basis of the last solve (reduced space + sparse
    /// signature), when it reached optimality.
    pub fn basis(&self) -> Option<Basis> {
        let s = self.state.as_ref()?;
        s.optimal.then(|| s.core.current_basis())
    }

    /// Cumulative pivots performed by the live core.
    pub fn pivots(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.core.iterations)
    }

    /// Cumulative engine counters of the live core.
    pub fn stats(&self) -> EngineStats {
        self.state.as_ref().map_or_else(EngineStats::default, |s| s.core.engine_stats())
    }
}

/// One-shot sparse solve (the `solve_with` sparse path).
pub(crate) fn solve_sparse(
    lp: &LinearProgram,
    opts: SimplexOptions,
) -> Result<Solution, FactorError> {
    let mut eng = SparseEngine::one_shot(opts);
    Ok(eng.solve_from(lp, None)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintId, LinearProgram, Sense};
    use crate::simplex::{solve_with, SolverBackend};

    fn sparse_opts() -> SimplexOptions {
        SimplexOptions { backend: SolverBackend::SparseRevised, ..Default::default() }
    }

    fn dense_opts() -> SimplexOptions {
        SimplexOptions { backend: SolverBackend::DenseTableau, ..Default::default() }
    }

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    /// A mid-sized feasible LP with a mix of senses and several
    /// bounded variables: bounded columns carry negative costs (so
    /// they are pushed toward their upper bounds), unbounded ones
    /// positive costs; `x = 1` satisfies every row, so the program is
    /// always feasible and the optimum is finite.
    fn mixed_lp(nv: usize, nc: usize) -> LinearProgram {
        let mut lp = LinearProgram::new();
        let vars: Vec<_> = (0..nv)
            .map(|j| {
                let (ub, cost) = if j % 3 == 0 {
                    (6.0 + (j % 5) as f64, -1.0 - (j % 7) as f64 * 0.25)
                } else {
                    (f64::INFINITY, 1.0 + (j % 7) as f64 * 0.25)
                };
                lp.add_var(0.0, ub, cost)
            })
            .collect();
        for i in 0..nc {
            let terms: Vec<_> = vars
                .iter()
                .enumerate()
                .filter(|(j, _)| (i + j) % 3 != 0)
                .map(|(j, &v)| (v, 1.0 + ((i * 5 + j) % 4) as f64 * 0.5))
                .collect();
            if i % 2 == 0 {
                lp.add_constraint(terms, Sense::Ge, 3.0 + (i % 4) as f64);
            } else {
                lp.add_constraint(terms, Sense::Le, 40.0 + (i % 6) as f64);
            }
        }
        lp
    }

    #[test]
    fn matches_dense_on_basic_lp() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        let y = lp.add_var(0.0, f64::INFINITY, -1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Sense::Le, 4.0);
        lp.add_constraint(vec![(x, 3.0), (y, 1.0)], Sense::Le, 6.0);
        let s = solve_with(&lp, sparse_opts());
        let d = solve_with(&lp, dense_opts());
        assert!(s.is_optimal());
        assert_close(s.objective, d.objective, 1e-8);
        assert_close(s.value(x), d.value(x), 1e-8);
        assert_close(s.value(y), d.value(y), 1e-8);
        lp.check_feasible(&s.x, 1e-7).unwrap();
    }

    #[test]
    fn ge_eq_rows_and_duals_match_dense() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 2.0);
        let y = lp.add_var(0.0, f64::INFINITY, 3.0);
        let z = lp.add_var(1.0, 10.0, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 1.0)], Sense::Eq, 10.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Ge, 2.0);
        lp.add_constraint(vec![(y, 1.0), (z, 2.0)], Sense::Le, 14.0);
        let s = solve_with(&lp, sparse_opts());
        let d = solve_with(&lp, dense_opts());
        assert_eq!(s.status, d.status);
        assert_close(s.objective, d.objective, 1e-7);
        lp.check_feasible(&s.x, 1e-6).unwrap();
        // Duals agree with the dense oracle's sign conventions.
        for (ds, dd) in s.duals.iter().zip(&d.duals) {
            assert_close(*ds, *dd, 1e-6);
        }
    }

    #[test]
    fn bounded_vars_match_dense_without_bound_rows() {
        // Maximization pressure pushes several variables to their
        // finite upper bounds; the sparse core must agree with the
        // dense oracle (which still models bounds as explicit rows).
        // z is priced at 1.5 so trading z for y strictly loses and the
        // optimum (x = 3, y = 3, z = 0) is unique — otherwise sparse
        // and dense may legitimately pick different optimal vertices.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 3.0, -2.0);
        let y = lp.add_var(1.0, 5.0, -1.0);
        let z = lp.add_var(0.0, f64::INFINITY, 1.5);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0), (z, -1.0)], Sense::Le, 6.0);
        lp.add_constraint(vec![(x, 2.0), (y, -1.0), (z, 1.0)], Sense::Ge, 1.0);
        let s = solve_with(&lp, sparse_opts());
        let d = solve_with(&lp, dense_opts());
        assert_eq!(s.status, d.status);
        assert_close(s.objective, d.objective, 1e-7);
        assert_close(s.value(x), d.value(x), 1e-7);
        assert_close(s.value(y), d.value(y), 1e-7);
        lp.check_feasible(&s.x, 1e-6).unwrap();
        for (ds, dd) in s.duals.iter().zip(&d.duals) {
            assert_close(*ds, *dd, 1e-6);
        }
    }

    #[test]
    fn box_only_lp_settles_at_bounds() {
        // No constraints at all: every variable sits at the bound its
        // cost prefers (m == 0 path, previously covered by bound rows).
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-2.0, 3.0, -1.5);
        let y = lp.add_var(0.5, 4.0, 2.0);
        let s = solve_with(&lp, sparse_opts());
        let d = solve_with(&lp, dense_opts());
        assert!(s.is_optimal());
        assert_close(s.objective, d.objective, 1e-9);
        assert_close(s.value(x), 3.0, 1e-9);
        assert_close(s.value(y), 0.5, 1e-9);

        // A profitable variable without an upper bound is unbounded.
        let mut unb = LinearProgram::new();
        unb.add_var(0.0, f64::INFINITY, -1.0);
        assert_eq!(solve_with(&unb, sparse_opts()).status, SolveStatus::Unbounded);
    }

    #[test]
    fn devex_and_forrest_tomlin_match_dantzig_product_form() {
        let lp = mixed_lp(24, 18);
        let base = solve_with(&lp, sparse_opts());
        assert!(base.is_optimal());
        for pricing in [Pricing::Dantzig, Pricing::Devex] {
            for eta in [EtaUpdate::ProductForm, EtaUpdate::ForrestTomlin] {
                let opts = SimplexOptions {
                    pricing,
                    eta_update: eta,
                    ..sparse_opts()
                };
                let s = solve_with(&lp, opts);
                assert!(s.is_optimal(), "{pricing:?}/{eta:?}");
                assert_close(s.objective, base.objective, 1e-6);
                lp.check_feasible(&s.x, 1e-6).unwrap();
            }
        }
    }

    #[test]
    fn infeasible_and_unbounded_match_dense() {
        let mut inf = LinearProgram::new();
        let x = inf.add_var(0.0, f64::INFINITY, 1.0);
        let y = inf.add_var(0.0, f64::INFINITY, 1.0);
        inf.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 1.0);
        inf.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        assert_eq!(solve_with(&inf, sparse_opts()).status, SolveStatus::Infeasible);

        let mut unb = LinearProgram::new();
        let x = unb.add_var(0.0, f64::INFINITY, -1.0);
        let y = unb.add_var(0.0, f64::INFINITY, 0.0);
        unb.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Le, 1.0);
        assert_eq!(solve_with(&unb, sparse_opts()).status, SolveStatus::Unbounded);
    }

    #[test]
    fn warm_rhs_resolve_matches_cold() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 2.0);
        let y = lp.add_var(0.0, f64::INFINITY, 3.0);
        let c1 = lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 4.0);
        let c2 = lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Le, 1.0);
        let mut eng = SparseEngine::new(sparse_opts());
        let (first, _) = eng.solve_from(&lp, None).unwrap();
        assert!(first.is_optimal());
        for (b1, b2) in [(6.0, 1.0), (2.0, 0.5), (10.0, -2.0), (4.0, 1.0)] {
            lp.set_rhs(c1, b1);
            lp.set_rhs(c2, b2);
            let (warm, used) = eng.resolve_rhs(&lp).unwrap();
            let cold = solve_with(&lp, sparse_opts());
            assert!(used, "warm path must apply for rhs-only changes");
            assert_eq!(warm.status, cold.status);
            assert_close(warm.objective, cold.objective, 1e-7);
            lp.check_feasible(&warm.x, 1e-6).unwrap();
        }
    }

    #[test]
    fn bounded_warm_rhs_resolve_matches_cold() {
        // Rhs-only warm re-solves with finite upper bounds exercise
        // the generalized dual simplex (above-upper leaving rows).
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 4.0, 2.0);
        let y = lp.add_var(0.0, 6.0, 3.0);
        let z = lp.add_var(0.0, f64::INFINITY, 5.0);
        let c1 =
            lp.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 1.0)], Sense::Ge, 5.0);
        let c2 = lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Le, 3.0);
        for eta in [EtaUpdate::ProductForm, EtaUpdate::ForrestTomlin] {
            let opts = SimplexOptions { eta_update: eta, ..sparse_opts() };
            let mut eng = SparseEngine::new(opts);
            let (first, _) = eng.solve_from(&lp, None).unwrap();
            assert!(first.is_optimal());
            for (b1, b2) in [(8.0, 1.0), (3.0, 2.0), (9.5, 0.0), (5.0, 3.0)] {
                lp.set_rhs(c1, b1);
                lp.set_rhs(c2, b2);
                let (warm, used) = eng.resolve_rhs(&lp).unwrap();
                let cold = solve_with(&lp, opts);
                assert!(used, "warm path must apply for rhs-only changes");
                assert_eq!(warm.status, cold.status, "{eta:?} rhs ({b1},{b2})");
                assert_close(warm.objective, cold.objective, 1e-7);
                lp.check_feasible(&warm.x, 1e-6).unwrap();
            }
            lp.set_rhs(c1, 5.0);
            lp.set_rhs(c2, 3.0);
        }
    }

    #[test]
    fn basis_round_trips_through_warm_restore() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 2.0);
        let z = lp.add_var(0.0, f64::INFINITY, 0.5);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 1.0)], Sense::Ge, 6.0);
        lp.add_constraint(vec![(x, 2.0), (z, -1.0)], Sense::Le, 4.0);
        let mut eng = SparseEngine::new(sparse_opts());
        let (cold, _) = eng.solve_from(&lp, None).unwrap();
        assert!(cold.is_optimal());
        let basis = eng.basis().expect("optimal basis");
        let mut eng2 = SparseEngine::new(sparse_opts());
        let (warm, used) = eng2.solve_from(&lp, Some(&basis)).unwrap();
        assert!(used, "same structure must accept the saved basis");
        assert!(warm.is_optimal());
        assert_close(warm.objective, cold.objective, 1e-9);
    }

    #[test]
    fn bounded_basis_round_trips_with_at_upper_flags() {
        // The saved basis must carry the bound assignment: on restore,
        // the at-upper flags reproduce the same optimal point.
        let lp = mixed_lp(18, 10);
        for (pricing, eta) in [
            (Pricing::Dantzig, EtaUpdate::ProductForm),
            (Pricing::Devex, EtaUpdate::ForrestTomlin),
        ] {
            let opts = SimplexOptions { pricing, eta_update: eta, ..sparse_opts() };
            let mut eng = SparseEngine::new(opts);
            let (cold, _) = eng.solve_from(&lp, None).unwrap();
            assert!(cold.is_optimal());
            let basis = eng.basis().expect("optimal basis");
            let mut eng2 = SparseEngine::new(opts);
            let (warm, used) = eng2.solve_from(&lp, Some(&basis)).unwrap();
            assert!(used, "same structure must accept the saved basis");
            assert!(warm.is_optimal());
            assert_close(warm.objective, cold.objective, 1e-9);
            for (a, b) in warm.x.iter().zip(&cold.x) {
                assert_close(*a, *b, 1e-9);
            }
        }
    }

    /// A seeded LP with a finite box on every variable and costs of
    /// both signs, so columns rest at — and flip between — both
    /// bounds. `zero_rhs` of every ten rows get a zero right-hand side
    /// (a degenerate vertex at the origin); `eq` of every ten are
    /// equalities through the origin, whose artificials stay basic at
    /// zero until they are driven out.
    fn boxed_lp(seed: u64, nv: usize, nc: usize, zero_rhs: u64, eq: u64) -> LinearProgram {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut lp = LinearProgram::new();
        let vars: Vec<_> = (0..nv)
            .map(|_| {
                let ub = 0.25 * (1 + next() % 6) as f64;
                let cost = (next() % 9) as f64 - 4.0;
                lp.add_var(0.0, ub, cost)
            })
            .collect();
        for _ in 0..nc {
            let mut terms = Vec::new();
            for &v in &vars {
                if next() % 4 == 0 {
                    terms.push((v, (next() % 7) as f64 - 3.0));
                }
            }
            terms.retain(|&(_, a)| a != 0.0);
            let roll = next() % 10;
            if roll < eq {
                lp.add_constraint(terms, Sense::Eq, 0.0);
            } else if roll < eq + zero_rhs {
                lp.add_constraint(terms, Sense::Le, 0.0);
            } else if next() % 2 == 0 {
                lp.add_constraint(terms, Sense::Le, 2.0 + (next() % 6) as f64);
            } else {
                lp.add_constraint(terms, Sense::Ge, -(2.0 + (next() % 6) as f64));
            }
        }
        lp
    }

    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// What a solve did, as the identity test pins it: steps taken,
    /// a digest of the `(entering, leaving slot | flip)` trace,
    /// `iterations`, a digest of the final basis with its at-upper
    /// flags, and the objective's bits.
    fn fingerprint(core: &SparseCore, sol: &Solution) -> (usize, u64, usize, u64, u64) {
        let trace = &core.probe.trace;
        let basis = core.current_basis();
        (
            trace.len(),
            fnv(trace.iter().flat_map(|&(q, s)| [q as u64, s as u64])),
            sol.iterations,
            fnv(basis
                .cols()
                .iter()
                .map(|&c| c as u64)
                .chain(basis.at_upper().iter().map(|&f| u64::from(f)))),
            sol.objective.to_bits(),
        )
    }

    /// The primal loop pays one BTRAN of `c_B` per basis change and one
    /// per call — never one per bound flip.
    fn assert_btran_identity(core: &SparseCore) {
        let p = &core.probe;
        let flips = p.trace.iter().filter(|&&(_, s)| s == usize::MAX).count();
        assert!(flips > 0, "the case must flip bounds to prove anything");
        assert_eq!(p.btran_iterate, p.iterate_pivots + p.iterate_calls, "{flips} flips");
    }

    #[test]
    fn iteration_identity_is_pinned_by_counts() {
        // One that stalls into Bland's rule: a degenerate origin and
        // an impatient stall threshold.
        let opts = SimplexOptions { stall_threshold: 3, ..sparse_opts() };
        let mut core = SparseCore::build(&boxed_lp(0xB1A2D, 40, 30, 6, 0), opts, 0);
        let sol = core.run().unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(core.probe.bland_picks > 0, "never stalled into Bland");
        assert_btran_identity(&core);
        assert_eq!(
            fingerprint(&core, &sol),
            (70, 1865561017500336247, 70, 9898662904481704824, 13852224119486837191),
            "bland"
        );

        // One whose equality rows leave artificials basic at zero for
        // `drive_out_artificials`.
        let mut core = SparseCore::build(&boxed_lp(0x61, 36, 28, 1, 4), sparse_opts(), 0);
        let sol = core.run().unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert!(core.probe.driven_out > 0, "no artificial was driven out");
        assert_btran_identity(&core);
        assert_eq!(
            fingerprint(&core, &sol),
            (38, 10378785687183355385, 38, 15691564948707057486, 13848815144768897022),
            "drive-out"
        );

        // One solved warm: the saved optimal basis meets shifted
        // right-hand sides, so the restore is primal infeasible and
        // dual feasible — `dual_simplex`, then `iterate`.
        let mut lp = boxed_lp(0x3A23, 40, 30, 0, 0);
        let mut cold = SparseCore::build(&lp, sparse_opts(), 0);
        assert_eq!(cold.run().unwrap().status, SolveStatus::Optimal);
        let saved = cold.current_basis();
        for i in 0..lp.num_constraints() {
            let id = ConstraintId(i);
            let rhs = lp.constraints()[i].rhs;
            lp.set_rhs(id, if rhs > 0.0 { rhs * 0.5 } else { rhs * 0.25 });
        }
        let mut core = SparseCore::build(&lp, sparse_opts(), 0);
        assert!(core.restore_basis(&saved).unwrap());
        let sol = core.solve_restored().unwrap().expect("the restored basis is dual feasible");
        let p = &core.probe;
        assert_eq!((p.dual_calls, p.iterate_calls), (1, 1));
        assert!(p.trace.len() > p.iterate_pivots, "the dual simplex had nothing to do");
        // The dual loop rebuilds its reduced costs once, then only
        // when a pivot refactorized (or the livelock guard did).
        assert!(p.btran_dual >= 1 && p.btran_dual as u64 <= core.refactorizations);
        assert_eq!(p.btran_iterate, p.iterate_pivots + p.iterate_calls);
        assert_eq!(
            fingerprint(&core, &sol),
            (16, 3782201000182202493, 16, 13108591337517053317, 13852207350327040468),
            "warm"
        );
    }

    #[test]
    fn engine_stats_are_populated() {
        let mut lp = LinearProgram::new();
        let vars: Vec<_> =
            (0..40).map(|i| lp.add_var(0.0, f64::INFINITY, 1.0 + (i % 5) as f64)).collect();
        for i in 0..40usize {
            let terms: Vec<_> = vars
                .iter()
                .enumerate()
                .filter(|(j, _)| (i + j) % 4 != 0)
                .map(|(j, &v)| (v, 1.0 + ((i * 7 + j) % 3) as f64))
                .collect();
            lp.add_constraint(terms, Sense::Ge, 5.0 + (i % 7) as f64);
        }
        let s = solve_with(&lp, sparse_opts());
        assert!(s.is_optimal());
        assert!(s.engine.refactorizations >= 1, "initial factorization counted");
        assert!(!s.engine.dense_fallback);
        assert!(s.iterations > 0);
    }
}
