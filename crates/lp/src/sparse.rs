//! The sparse revised simplex: the one engine behind
//! [`crate::solve_with`] and [`WarmSimplex`].
//!
//! It mirrors the dense oracle's transformation pipeline (lower-bound
//! shifts, rhs sign normalization, slack/surplus/artificial columns,
//! two phases with artificials barred from phase 2) so statuses, duals
//! and objective values line up with [`crate::solve_oracle`] — but
//! instead of carrying an `(m+1) × (n+1)` tableau it keeps:
//!
//! * the constraint matrix in CSC form (never modified),
//! * an LU factorization of the basis ([`crate::factor::LuFactors`])
//!   kept current by a product-form eta file ([`EtaFile`],
//!   refactorized every [`REFACTOR_INTERVAL`] pivots),
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
//! Each iteration is a pricing scan — segmented partial Dantzig, with
//! an automatic switch to Bland's lowest-index rule after a stall (the
//! anti-cycling guarantee) — against duals from one BTRAN per basis
//! change (a bound flip keeps them), one reach-limited FTRAN (entering column) and an update
//! over the nonzeros of its image, instead of the dense `O(m·n)`
//! tableau elimination. Every vector an iteration fills lives in a
//! workspace the core owns, so a pivot allocates nothing.
//!
//! The user program is reduced by [`crate::presolve`] before the core
//! ever sees it; solutions are mapped back to the original space
//! (including exact duals for eliminated rows) on the way out.

use crate::factor::{EtaFile, FactorError, FactorWork, FtranImage, LuFactors, REFACTOR_INTERVAL};
use crate::model::{LinearProgram, Sense};
use crate::presolve::{presolve, PresolveMode, PresolveResult, Reduction};
use crate::simplex::{
    Basis, ColdStart, EngineStats, SimplexOptions, Solution, SolveStatus, DUAL_PIVOT_TOL, EPS,
    FEAS_TOL, PEEL_TOL, PHASE1_INFEAS_TOL, STALL_IMPROVEMENT,
};

/// Columns per pricing segment (at least this many; larger programs
/// use `ncols / 8`).
const PRICE_SEGMENT: usize = 256;

/// Salt folded into basis signatures so a basis saved by an older build
/// (a dense-tableau one, or a pre-native-bounds one whose cores carried
/// explicit bound rows) never restores onto a core; the presolve
/// pattern hash keeps different reductions apart.
const SPARSE_SIG_SALT: u64 = 0x6e47_1b0d_5fee_d0a2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CKind {
    Structural,
    Slack,
    Artificial,
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
    /// The basis inverse: the last refactorization's LU factors and the
    /// etas pushed since.
    lu: Option<LuFactors>,
    etas: EtaFile,
    cursor: usize,
    iterations: usize,
    refactorizations: u64,
    etas_total: u64,
    fill_total: u64,
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
            lu: None,
            etas: EtaFile::default(),
            cursor: 0,
            iterations: 0,
            refactorizations: 0,
            etas_total: 0,
            fill_total: 0,
            condition_max: 0.0,
            upper_cols,
            ws,
            #[cfg(test)]
            probe: Probe::default(),
        }
    }

    /// Recomputes `x_B = B⁻¹ b_eff` from scratch, where the effective
    /// rhs `b_eff = b − Σ_{j at upper} ub_j · A_j` folds in the
    /// at-upper nonbasic columns, so that `x_B` are the basic values at
    /// the current bound assignment.
    fn recompute_basics(&mut self) {
        let b = &mut self.ws.rhs;
        b.clone_from(&self.b);
        for (j, &flag) in self.at_upper.iter().enumerate() {
            if flag {
                for &(r, a) in &self.cols[j] {
                    b[r] -= self.ub[j] * a;
                }
            }
        }
        self.ftran();
        std::mem::swap(&mut self.x_b, &mut self.ws.sol);
    }

    /// Rebuilds the LU factors from the current basis, empties the eta
    /// file, estimates the basis condition and recomputes `x_B` from
    /// scratch. A singular basis is an error the caller passes on.
    fn refactorize(&mut self) -> Result<(), FactorError> {
        let (cols, basis, work) = (&self.cols, &self.basis, &mut self.ws.factor);
        let col = |s: usize| cols[basis[s]].as_slice();
        let basis_nnz: usize = (0..self.m).map(|s| col(s).len()).sum();
        let lu = LuFactors::factorize_with(self.m, col, PEEL_TOL, work)?;
        self.fill_total += lu.fill_in(basis_nnz) as u64;
        self.refactorizations += 1;
        self.lu = Some(lu);
        self.etas.clear();
        self.observe_condition();
        self.recompute_basics();
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

    /// `B⁻¹ v` for a dense `v`: consumes `ws.rhs` (by row) into
    /// `ws.sol` (by slot).
    fn ftran(&mut self) {
        let ws = &mut self.ws;
        self.lu.as_ref().expect("factorized").ftran(&mut ws.rhs, &mut ws.sol);
        self.etas.apply_ftran(&mut ws.sol);
    }

    /// `B⁻ᵀ c`: `ws.cb` (by slot, clobbered) into `ws.y` (by row).
    fn btran(&mut self) {
        let ws = &mut self.ws;
        self.etas.apply_btran(&mut ws.cb);
        self.lu.as_ref().expect("factorized").btran(&ws.cb, &mut ws.acc, &mut ws.y);
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
    /// reach-limited solve.
    fn ftran_col(&mut self, j: usize) {
        let img = &mut self.ws.img;
        self.lu.as_ref().expect("factorized").ftran_sparse(&self.cols[j], img);
        self.etas.apply_ftran_sparse(img);
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
    /// FTRAN image is `ws.img`, and pushes the column replacement onto
    /// the eta file (or refactorizes, when the eta's pivot is too small
    /// or the file is full). Callers update `x_b` and the `at_upper`
    /// flags *before* calling, so a triggered refactorization
    /// recomputes `x_B` against the right bounds. Returns whether the
    /// basis change triggered a refactorization (incremental reduced
    /// costs must then be recomputed — the refactorized solves round
    /// differently).
    fn pivot(&mut self, slot: usize, q: usize) -> Result<bool, FactorError> {
        probe!(self, trace.push((q, slot)));
        self.in_basis[self.basis[slot]] = false;
        self.basis[slot] = q;
        self.in_basis[q] = true;
        self.iterations += 1;
        let img = &self.ws.img;
        let refactor =
            !self.etas.push(slot, &img.w, &img.nz) || self.etas.len() >= REFACTOR_INTERVAL;
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
    /// "profitable" is uniformly `d < −EPS`.
    fn price(&mut self, costs: &[f64], allow_art: bool, bland: bool) -> Option<usize> {
        if bland {
            let y = &self.ws.y;
            return (0..self.ncols).find(|&j| {
                if self.in_basis[j] || (!allow_art && self.kind[j] == CKind::Artificial) {
                    return false;
                }
                let d = costs[j] - self.col_dot(j, y);
                let d = if self.at_upper[j] { -d } else { d };
                d < -EPS
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
            let mut best_d = -EPS;
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
    ///
    /// Kept out of line: inlined into `price`, its only caller, the
    /// scan ran ≈ 5 % slower per `benders-b4` epoch (pricing is half
    /// of a B&B node) for the same pivots.
    #[inline(never)]
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

    /// Primal simplex loop over the given costs, with a bound-flip
    /// ratio test: the entering variable may hit its own opposite
    /// bound first (no basis change), and a basic variable may leave
    /// at either of its bounds.
    ///
    /// Pricing reads the duals `y = B⁻ᵀc_B`, which depend on the basis
    /// alone: a bound flip keeps them, so the BTRAN is paid once per
    /// basis change (a refactorization only happens inside one), not
    /// once per iteration.
    fn iterate(&mut self, costs: &[f64], allow_art: bool) -> Result<SolveStatus, FactorError> {
        probe!(self, iterate_calls += 1);
        let mut best_obj = f64::INFINITY;
        let mut stall = 0usize;
        // Whether `ws.y` holds the duals of the current basis.
        let mut y_valid = false;
        self.ws.cost_b.clear();
        self.ws.cost_b.extend(self.basis.iter().map(|&c| costs[c]));
        loop {
            if self.iterations >= self.opts.max_iterations {
                return Ok(SolveStatus::IterationLimit);
            }
            let bland = stall >= self.opts.stall_threshold;
            if !y_valid {
                self.btran_basic_costs();
                y_valid = true;
                probe!(self, btran_iterate += 1);
            }
            probe!(self, bland_picks += usize::from(bland));
            let Some(q) = self.price(costs, allow_art, bland) else {
                return Ok(SolveStatus::Optimal);
            };
            self.ftran_col(q);
            let dir = self.enter_dir(q);
            let mut leave: Option<usize> = None;
            let mut leave_to_upper = false;
            let mut best_ratio = f64::INFINITY;
            // A slot outside the image's nonzeros has `a = ±0` and can
            // never block.
            for &s in &self.ws.img.nz {
                let a = dir * self.ws.img.w[s];
                let (ratio, to_upper) = if a > EPS {
                    (self.x_b[s] / a, false)
                } else if a < -EPS && self.ub[self.basis[s]].is_finite() {
                    ((self.ub[self.basis[s]] - self.x_b[s]) / -a, true)
                } else {
                    continue;
                };
                let better = ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
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
                probe!(self, trace.push((q, usize::MAX)));
            } else {
                let Some(slot) = leave else {
                    return Ok(SolveStatus::Unbounded);
                };
                let leaving = self.basis[slot];
                self.apply_entering(slot, q, best_ratio);
                if leave_to_upper {
                    self.at_upper[leaving] = true;
                }
                y_valid = false;
                probe!(self, iterate_pivots += 1);
                self.ws.cost_b[slot] = costs[q];
                self.pivot(slot, q)?;
            }
            let obj = self.ws.cost_b.iter().zip(&self.x_b).map(|(&c, &xb)| c * xb).sum::<f64>()
                + self.upper_objective(costs);
            if obj < best_obj - STALL_IMPROVEMENT {
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
        // borderline `|α| ≈ EPS` candidate can pass the row scan yet
        // show a sub-`EPS` `w[slot]` after the FTRAN, and the
        // refactorize-and-retry path would then re-select it forever.
        // The default matches the primal ratio test's pivot tolerance.
        let mut d = vec![0.0f64; self.ncols];
        let mut d_valid = false;
        // Pivot-row scratch, reused across iterations and cleared
        // through `touched` (clearing 3 k-entry vectors every pivot
        // costs more than the pivot row itself).
        let mut alphas = vec![0.0f64; self.ncols];
        let mut mark = vec![false; self.ncols];
        let mut touched: Vec<usize> = Vec::new();
        // A small pivot element earns one refactorization per basis:
        // the basis and candidate order are deterministic, so a
        // candidate still unusable under fresh factors would be
        // re-selected forever, and the solve ends instead.
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
            for &j in &touched {
                if self.in_basis[j] || self.kind[j] == CKind::Artificial {
                    alphas[j] = 0.0;
                    continue;
                }
                let abar = sgn * alphas[j];
                alphas[j] = abar;
                let eligible = if self.at_upper[j] {
                    abar < -DUAL_PIVOT_TOL
                } else {
                    abar > DUAL_PIVOT_TOL
                };
                if eligible {
                    cands.push(((d[j] / abar).max(0.0), abar.abs(), j));
                }
            }
            if cands.is_empty() {
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
                if span.is_finite() && remaining - span * alphas[j].abs() > EPS {
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
                // infeasible.
                return Ok(SolveStatus::Infeasible);
            };
            self.ftran_col(q);
            let alpha_q = self.ws.img.w[slot];
            if alpha_q.abs() <= DUAL_PIVOT_TOL {
                // The FTRAN view of the pivot element disagrees with
                // the BTRAN row (or the element is too small to pivot
                // on without degrading the factors into singularity):
                // force a clean factorization, after which the row scan
                // and the FTRAN usually agree and a sound candidate is
                // chosen.
                if refactored_since_pivot {
                    return Err(FactorError);
                }
                self.refactorize()?;
                refactored_since_pivot = true;
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
            self.apply_entering(slot, q, t);
            if above {
                self.at_upper[leaving] = true;
            }
            if self.pivot(slot, q)? {
                d_valid = false;
            }
            refactored_since_pivot = false;
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
        for slot in 0..self.m {
            if self.kind[self.basis[slot]] != CKind::Artificial
                || self.x_b[slot].abs() > FEAS_TOL
            {
                continue;
            }
            self.btran_unit(slot);
            for j in 0..self.ncols {
                if self.in_basis[j] || self.kind[j] == CKind::Artificial {
                    continue;
                }
                if self.col_dot(j, &self.ws.y).abs() > FEAS_TOL {
                    self.ftran_col(j);
                    let alpha = self.ws.img.w[slot];
                    if alpha.abs() > FEAS_TOL {
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
            if phase1 > PHASE1_INFEAS_TOL {
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
    /// ready for a cold solve — also when the saved basis is singular
    /// on this program.
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
            self.basis = cand;
            // A basic column can't rest at a bound; clear before the
            // refactorization computes x_B against the bounds.
            for &c in &self.basis {
                self.at_upper[c] = false;
            }
            if self.refactorize().is_ok() {
                self.mark_basis();
                return Ok(true);
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
        let primal_ok = self.x_b.iter().enumerate().all(|(s, &v)| {
            let ub = self.ub[self.basis[s]];
            v >= -FEAS_TOL && (!ub.is_finite() || v <= ub + FEAS_TOL)
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
                    d <= FEAS_TOL
                } else {
                    d >= -FEAS_TOL
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
            condition_estimate: self.condition_max,
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

/// A persistent solver instance: presolve + sparse core + postsolve,
/// kept alive between solves so follow-up solves can be warm-started.
///
/// Two warm paths are supported:
///
/// * [`WarmSimplex::resolve_rhs`] — the caller changed *only*
///   right-hand sides (via [`LinearProgram::set_rhs`]) since the last
///   solve. The live core's basic values are recomputed against the
///   new rhs and a dual-simplex loop restores feasibility: the previous
///   optimal basis is dual feasible by construction, so this typically
///   takes a few pivots where a cold solve would need full phase 1 + 2.
///   This is the within-Benders warm start (the δ selection only moves
///   the coverage right-hand sides). Rhs-safe presolve keeps every
///   rhs-only change on this path.
/// * [`WarmSimplex::solve_from`] — a fresh solve seeded from a saved
///   [`Basis`] (for example from a [`crate::BasisCache`] across
///   controller epochs). The core is rebuilt with the new coefficients,
///   the basis is installed and refactorized, and phase 1 is skipped
///   when the restored point is primal or dual feasible.
///
/// Every warm path falls back to a cold solve on any mismatch, so the
/// result status is never worse than [`crate::solve_with`]'s. A solve
/// the engine cannot carry numerically ends
/// [`SolveStatus::NumericalFailure`]; the instance then holds no
/// reusable basis.
#[derive(Debug)]
pub struct WarmSimplex {
    opts: SimplexOptions,
    mode: PresolveMode,
    state: Option<SpState>,
}

#[derive(Debug)]
struct SpState {
    red: Box<Reduction>,
    core: SparseCore,
    optimal: bool,
}

/// A cold or basis-seeded solve on a freshly built `core` over `lp`
/// (the presolved program). Returns the reduced-space
/// solution and whether the saved basis was used.
fn solve_core(
    core: &mut SparseCore,
    lp: &LinearProgram,
    salt: u64,
    warm: Option<&Basis>,
) -> Result<(Solution, bool), FactorError> {
    if let Some(b) = warm {
        if b.signature() == core.signature && core.restore_basis(b)? {
            // A restored point that is neither primal nor dual
            // feasible, or whose pivots the engine cannot carry, is
            // dropped for a cold solve on a rebuilt core.
            if let Ok(Some(sol)) = core.solve_restored() {
                return Ok((sol, true));
            }
            *core = SparseCore::build(lp, core.opts, salt);
        }
    }
    Ok((core.run()?, false))
}

impl WarmSimplex {
    /// Creates an instance with the given options. Its presolve is
    /// rhs-safe, so *any* rhs-only change between solves stays on the
    /// warm path.
    pub fn new(opts: SimplexOptions) -> Self {
        Self { opts, mode: PresolveMode::RhsSafe, state: None }
    }

    /// One-shot instance: full presolve.
    pub(crate) fn one_shot(opts: SimplexOptions) -> Self {
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
                crate::simplex::certify(lp, &mut out);
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

    /// Cold solve (keeps the engine state for later warm re-solves).
    pub fn solve(&mut self, lp: &LinearProgram) -> Solution {
        self.solve_from(lp, None).0
    }

    /// Solves from scratch, optionally restoring a saved basis first.
    /// Returns the solution and whether the warm basis was actually
    /// used (signature match + successful restore).
    pub fn solve_from(&mut self, lp: &LinearProgram, warm: Option<&Basis>) -> (Solution, bool) {
        let red = match presolve(lp, self.mode) {
            PresolveResult::Infeasible => {
                self.state = None;
                return (self.presolve_infeasible(lp), false);
            }
            PresolveResult::Ready(r) => r,
        };
        let salt = red.pattern_hash;
        let mut core = SparseCore::build(&red.reduced, self.opts, salt);
        let (red_sol, warm_used) = solve_core(&mut core, &red.reduced, salt, warm)
            .unwrap_or_else(|_| (core.failed(SolveStatus::NumericalFailure), false));
        let sol = self.finish(lp, &red, red_sol);
        let optimal = sol.is_usable();
        self.state = Some(SpState { red, core, optimal });
        (sol, warm_used)
    }

    /// Re-solves after the caller changed *only* constraint right-hand
    /// sides since the previous solve on this instance. Falls back to a
    /// cold solve when no optimal core is live or the change is not
    /// rhs-safe for the live reduction. Returns the solution and
    /// whether the live-core warm path was taken.
    ///
    /// Correctness contract: between the previous solve and this call,
    /// the program must only have been mutated through
    /// [`LinearProgram::set_rhs`]. Coefficient or shape changes require
    /// [`WarmSimplex::solve_from`].
    pub fn resolve_rhs(&mut self, lp: &LinearProgram) -> (Solution, bool) {
        let usable = self
            .state
            .as_ref()
            .is_some_and(|s| s.optimal && s.red.rhs_change_is_safe(lp));
        if !usable {
            return (self.solve_from(lp, None).0, false);
        }
        let s = self.state.as_mut().expect("checked");
        let deltas = s.red.reduced_rhs_deltas(lp);
        if let Ok(SolveStatus::Optimal) = s.core.resolve_rhs(&deltas) {
            let red_sol = s.core.extract();
            let s = self.state.as_ref().expect("checked");
            let sol = self.finish(lp, &s.red, red_sol);
            if sol.is_usable() {
                return (sol, true);
            }
            // pending_unbounded turned a formally optimal reduced solve
            // into an unbounded verdict; report it via the cold path
            // for a consistent state.
        }
        // Dual-unbounded (the new rhs is infeasible), the pivot cap, or
        // numerical failure on the live core: a cold solve gives
        // the authoritative status.
        (self.solve_from(lp, None).0, false)
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

    /// Cumulative engine counters (refactorizations, eta columns,
    /// fill-in, condition estimate) of the live core.
    pub fn engine_stats(&self) -> EngineStats {
        self.state.as_ref().map_or_else(EngineStats::default, |s| s.core.engine_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintId, LinearProgram, Sense};
    use crate::simplex::solve_with;
    use crate::solve_oracle;

    fn opts() -> SimplexOptions {
        SimplexOptions::default()
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
        let s = solve_with(&lp, opts());
        let d = solve_oracle(&lp, opts());
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
        let s = solve_with(&lp, opts());
        let d = solve_oracle(&lp, opts());
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
        let s = solve_with(&lp, opts());
        let d = solve_oracle(&lp, opts());
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
        let s = solve_with(&lp, opts());
        let d = solve_oracle(&lp, opts());
        assert!(s.is_optimal());
        assert_close(s.objective, d.objective, 1e-9);
        assert_close(s.value(x), 3.0, 1e-9);
        assert_close(s.value(y), 0.5, 1e-9);

        // A profitable variable without an upper bound is unbounded.
        let mut unb = LinearProgram::new();
        unb.add_var(0.0, f64::INFINITY, -1.0);
        assert_eq!(solve_with(&unb, opts()).status, SolveStatus::Unbounded);
    }

    #[test]
    fn infeasible_and_unbounded_match_dense() {
        let mut inf = LinearProgram::new();
        let x = inf.add_var(0.0, f64::INFINITY, 1.0);
        let y = inf.add_var(0.0, f64::INFINITY, 1.0);
        inf.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 1.0);
        inf.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0);
        assert_eq!(solve_with(&inf, opts()).status, SolveStatus::Infeasible);

        let mut unb = LinearProgram::new();
        let x = unb.add_var(0.0, f64::INFINITY, -1.0);
        let y = unb.add_var(0.0, f64::INFINITY, 0.0);
        unb.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Le, 1.0);
        assert_eq!(solve_with(&unb, opts()).status, SolveStatus::Unbounded);
    }

    #[test]
    fn warm_rhs_resolve_matches_cold() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 2.0);
        let y = lp.add_var(0.0, f64::INFINITY, 3.0);
        let c1 = lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 4.0);
        let c2 = lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Le, 1.0);
        let mut eng = WarmSimplex::new(opts());
        let (first, _) = eng.solve_from(&lp, None);
        assert!(first.is_optimal());
        for (b1, b2) in [(6.0, 1.0), (2.0, 0.5), (10.0, -2.0), (4.0, 1.0)] {
            lp.set_rhs(c1, b1);
            lp.set_rhs(c2, b2);
            let (warm, used) = eng.resolve_rhs(&lp);
            let cold = solve_with(&lp, opts());
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
        let mut eng = WarmSimplex::new(opts());
        let (first, _) = eng.solve_from(&lp, None);
        assert!(first.is_optimal());
        for (b1, b2) in [(8.0, 1.0), (3.0, 2.0), (9.5, 0.0), (5.0, 3.0)] {
            lp.set_rhs(c1, b1);
            lp.set_rhs(c2, b2);
            let (warm, used) = eng.resolve_rhs(&lp);
            let cold = solve_with(&lp, opts());
            assert!(used, "warm path must apply for rhs-only changes");
            assert_eq!(warm.status, cold.status, "rhs ({b1},{b2})");
            assert_close(warm.objective, cold.objective, 1e-7);
            lp.check_feasible(&warm.x, 1e-6).unwrap();
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
        let mut eng = WarmSimplex::new(opts());
        let (cold, _) = eng.solve_from(&lp, None);
        assert!(cold.is_optimal());
        let basis = eng.basis().expect("optimal basis");
        let mut eng2 = WarmSimplex::new(opts());
        let (warm, used) = eng2.solve_from(&lp, Some(&basis));
        assert!(used, "same structure must accept the saved basis");
        assert!(warm.is_optimal());
        assert_close(warm.objective, cold.objective, 1e-9);
    }

    #[test]
    fn bounded_basis_round_trips_with_at_upper_flags() {
        // The saved basis must carry the bound assignment: on restore,
        // the at-upper flags reproduce the same optimal point.
        let lp = mixed_lp(18, 10);
        for cold_start in [ColdStart::TwoPhase, ColdStart::Auto] {
            let started = SimplexOptions { cold_start, ..opts() };
            let mut eng = WarmSimplex::new(started);
            let (cold, _) = eng.solve_from(&lp, None);
            assert!(cold.is_optimal());
            let basis = eng.basis().expect("optimal basis");
            let mut eng2 = WarmSimplex::new(started);
            let (warm, used) = eng2.solve_from(&lp, Some(&basis));
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
        let impatient = SimplexOptions { stall_threshold: 3, ..opts() };
        let mut core = SparseCore::build(&boxed_lp(0xB1A2D, 40, 30, 6, 0), impatient, 0);
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
        let mut core = SparseCore::build(&boxed_lp(0x61, 36, 28, 1, 4), opts(), 0);
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
        let mut cold = SparseCore::build(&lp, opts(), 0);
        assert_eq!(cold.run().unwrap().status, SolveStatus::Optimal);
        let saved = cold.current_basis();
        for i in 0..lp.num_constraints() {
            let id = ConstraintId(i);
            let rhs = lp.constraints()[i].rhs;
            lp.set_rhs(id, if rhs > 0.0 { rhs * 0.5 } else { rhs * 0.25 });
        }
        let mut core = SparseCore::build(&lp, opts(), 0);
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
        let s = solve_with(&lp, opts());
        assert!(s.is_optimal());
        assert!(s.engine.refactorizations >= 1, "initial factorization counted");
        assert!(s.iterations > 0);
    }

    #[test]
    fn singular_restore_falls_back_cold() {
        // Both structurals are basic at the optimum of the first
        // program. The second has the same pattern with the columns
        // made parallel, so the saved basis is singular there: the
        // restore is dropped and the solve runs cold.
        let build = |a11: f64, b1: f64| {
            let mut lp = LinearProgram::new();
            let x = lp.add_var(0.0, f64::INFINITY, -1.0);
            let y = lp.add_var(0.0, f64::INFINITY, -1.0);
            lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Sense::Le, 4.0);
            lp.add_constraint(vec![(x, 3.0), (y, a11)], Sense::Le, b1);
            lp
        };
        let mut first = WarmSimplex::new(opts());
        let cold = first.solve(&build(1.0, 6.0));
        assert!(cold.is_optimal() && cold.x.iter().all(|&v| v > 0.5), "{:?}", cold.x);
        let basis = first.basis().expect("optimal basis");

        let parallel = build(6.0, 12.0);
        let mut ws = WarmSimplex::new(opts());
        let (warm, used) = ws.solve_from(&parallel, Some(&basis));
        assert!(!used, "a singular basis must not seed the solve");
        let oracle = solve_oracle(&parallel, opts());
        assert!(warm.is_optimal() && oracle.is_optimal());
        assert_close(warm.objective, oracle.objective, 1e-9);
        parallel.check_feasible(&warm.x, 1e-9).unwrap();
    }
}
