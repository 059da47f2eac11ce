//! The dense-tableau reference solver: a cold, serial, two-phase primal
//! simplex kept simple enough to audit by hand. Nothing on the solve
//! path calls it; the differential, torture and golden suites and the
//! property tests hold the sparse engine ([`crate::solve_with`],
//! [`crate::WarmSimplex`]) to its answers.
//!
//! ## Transformation pipeline
//!
//! 1. Variables are shifted so every lower bound is 0 (`x = x' + lb`);
//!    the objective constant this introduces is added back at the end.
//! 2. Finite upper bounds become extra `<=` rows.
//! 3. Rows with negative right-hand side are negated (senses flip).
//! 4. `<=` rows get a slack column, `>=` rows a surplus column plus an
//!    artificial, `=` rows an artificial.
//! 5. Phase 1 minimizes the artificial sum from the slack/artificial
//!    basis; phase 2 minimizes the real objective with artificial
//!    columns barred from entering.
//!
//! Duals follow the convention of [`crate::simplex`]: one multiplier
//! per user constraint, read off the reduced cost of the row's identity
//! column. Dantzig pricing switches to Bland's rule after
//! [`SimplexOptions::stall_threshold`] non-improving pivots, which
//! guarantees termination. Its tolerances are the engine's own
//! constants (`simplex.rs`), so both solvers judge a pivot, a phase-1
//! residual and a certificate by the same thresholds.

use crate::model::{LinearProgram, Sense};
use crate::simplex::{
    certify, EngineStats, SimplexOptions, Solution, SolveStatus, EPS, FEAS_TOL, PHASE1_INFEAS_TOL,
    STALL_IMPROVEMENT,
};

/// Solves `lp` (minimization) on the dense tableau from scratch and
/// certifies the answer like every other solve. Reads `max_iterations`
/// and `stall_threshold` from `opts` and the engine's tolerance
/// constants; `cold_start` means nothing here. [`Solution::engine`] is
/// all zeros: the tableau has no factorization.
pub fn solve_oracle(lp: &LinearProgram, opts: SimplexOptions) -> Solution {
    let mut sol = Tableau::build(lp, opts).run(lp);
    certify(lp, &mut sol);
    sol
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
    /// Sign flip of each user constraint row (rows `0..n_user`).
    user_signs: Vec<f64>,
    /// Identity-ish column used to read the dual of each tableau row.
    dual_col: Vec<usize>,
    /// Shifted lower bounds per structural variable.
    shift: Vec<f64>,
    /// Objective constant from the shift.
    obj_const: f64,
    n_structural: usize,
    iterations: usize,
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

        signs.truncate(n_user);
        Self {
            opts,
            t,
            m,
            ncols,
            basis,
            kind,
            user_signs: signs,
            dual_col,
            shift,
            obj_const,
            n_structural: n,
            iterations: 0,
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
        debug_assert!(p.abs() > EPS);
        let rr = row * stride;
        let inv = 1.0 / p;
        for j in 0..=self.ncols {
            self.t[rr + j] *= inv;
        }
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
        self.basis[row] = col;
        self.iterations += 1;
    }

    /// Runs the simplex loop on the current objective row.
    /// `allow_artificials` lets artificial columns enter (phase 1).
    fn iterate(&mut self, allow_artificials: bool) -> SolveStatus {
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
            let mut best = -EPS;
            for j in 0..self.ncols {
                if !allow_artificials && self.kind[j] == ColKind::Artificial {
                    continue;
                }
                let c = self.t[or + j];
                if use_bland {
                    if c < -EPS {
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
                if a > EPS {
                    let ratio = self.at(r, self.ncols) / a;
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
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
            if obj < best_obj - STALL_IMPROVEMENT {
                best_obj = obj;
                stall = 0;
            } else {
                stall += 1;
            }
        }
    }

    fn run(&mut self, lp: &LinearProgram) -> Solution {
        // Phase 1: minimize artificial sum.
        if self.kind.contains(&ColKind::Artificial) {
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
            if phase1 > PHASE1_INFEAS_TOL {
                return self.failed(SolveStatus::Infeasible, lp);
            }
            // Drive artificials out of the basis where possible so they
            // cannot re-enter trouble in phase 2.
            for r in 0..self.m {
                if self.kind[self.basis[r]] == ColKind::Artificial
                    && self.at(r, self.ncols).abs() <= FEAS_TOL
                {
                    if let Some(col) = (0..self.ncols).find(|&j| {
                        self.kind[j] != ColKind::Artificial && self.at(r, j).abs() > FEAS_TOL
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
        match self.iterate(false) {
            SolveStatus::Optimal => self.extract(),
            other => self.failed(other, lp),
        }
    }

    fn extract(&self) -> Solution {
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
            .user_signs
            .iter()
            .enumerate()
            .map(|(row, &sign)| -self.t[or + self.dual_col[row]] * sign)
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
