//! Presolve reductions for the sparse revised simplex.
//!
//! Before the sparse engine builds its constraint matrix, the user
//! program is reduced by the classic cheap transformations:
//!
//! * **fixed columns** (`lower == upper`) are substituted out,
//! * **empty columns** (no constraint entries) are moved to their
//!   objective-minimizing bound (detecting unboundedness when that
//!   bound is `+∞` with a negative cost — the verdict is deferred until
//!   the reduced program is known feasible, so statuses match the
//!   dense oracle),
//! * **empty rows** are feasibility-checked and dropped,
//! * **singleton rows** become variable bounds (the tighter of the
//!   implied and existing bound wins; the looser one is redundant and
//!   simply dropped),
//! * **redundant rows** whose activity bounds prove them implied by
//!   the variable bounds are dropped.
//!
//! [`Reduction::postsolve_x`] / [`Reduction::postsolve_duals`] map a
//! reduced-space solution back to the original variable/constraint
//! space, including exact dual recovery for eliminated rows: a dropped
//! redundant/empty row takes multiplier 0 (always dual-feasible for an
//! implied row), and a singleton row that owns the *active* bound of
//! its variable takes `μ_j / a` where `μ_j = c_j − Σ_i y_i a_ij` is
//! the variable's reduced cost under the retained-row duals.

use crate::model::{LinearProgram, Sense};
use std::hash::{Hash, Hasher};

/// Feasibility tolerance for presolve-level checks.
pub(crate) const TOL: f64 = 1e-9;

/// How aggressive the reductions may be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PresolveMode {
    /// Every reduction (one-shot solves): singleton rows, empty rows,
    /// redundant rows, fixed and empty columns.
    Full,
    /// Only rhs-independent reductions (fixed and empty columns).
    /// Every row is kept, so *any* rhs-only change to the original
    /// program remains an rhs-only change to the reduced program —
    /// required by warm engines whose callers re-solve after
    /// [`LinearProgram::set_rhs`] (the Benders loop moves coverage
    /// right-hand sides every iteration).
    RhsSafe,
}

/// What happened to an original variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum VarAct {
    /// Kept; index in the reduced program.
    Kept(usize),
    /// Eliminated at this value (fixed or moved to a bound).
    Elim(f64),
}

/// Which bound a singleton row implied on its variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BoundKind {
    Lower,
    Upper,
    Fix,
}

/// What happened to an original row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RowAct {
    /// Kept; index in the reduced program.
    Kept(usize),
    /// Dropped (empty or redundant); multiplier 0.
    Dropped,
    /// Folded into a bound on `var` (original index) with coefficient
    /// `coeff`.
    Singleton {
        var: usize,
        coeff: f64,
        kind: BoundKind,
    },
}

/// Outcome of [`presolve`].
#[derive(Debug)]
pub(crate) enum PresolveResult {
    /// The reductions alone prove infeasibility.
    Infeasible,
    /// A (possibly empty) reduced program plus the postsolve map.
    Ready(Box<Reduction>),
}

/// A reduced program and everything needed to undo the reductions.
#[derive(Debug)]
pub(crate) struct Reduction {
    /// The reduced program handed to the sparse core.
    pub reduced: LinearProgram,
    var_act: Vec<VarAct>,
    row_act: Vec<RowAct>,
    /// Working (possibly tightened) bounds per original variable.
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Row owning the current lower/upper bound of each variable, when
    /// a singleton row (not the variable's own bound) supplied it.
    lb_owner: Vec<Option<usize>>,
    ub_owner: Vec<Option<usize>>,
    /// Singleton rows in the order they were folded. Dual recovery
    /// walks this in reverse: a row folded late may reference variables
    /// eliminated by earlier folds, so its multiplier must be known
    /// before theirs are derived.
    fold_order: Vec<usize>,
    /// Objective contribution of eliminated variables.
    pub obj_const: f64,
    /// An empty column wants to run to `+∞`; the program is unbounded
    /// if the reduced part is feasible.
    pub pending_unbounded: bool,
    /// Hash of the elimination pattern — part of the sparse basis
    /// signature so a basis is never restored across different
    /// reductions.
    pub pattern_hash: u64,
    /// User rhs values at presolve time, for the rhs-only warm-path
    /// validity check.
    build_rhs: Vec<f64>,
}

impl Reduction {
    /// Number of kept rows (`reduced.num_constraints()`).
    #[cfg(test)]
    pub fn kept_rows(&self) -> usize {
        self.reduced.num_constraints()
    }

    /// Whether an rhs-only change to the original program is an
    /// rhs-only change to the reduced program: every *eliminated* row
    /// must have its build-time rhs (its value was folded into bounds,
    /// substitutions or feasibility verdicts). Kept rows may change
    /// freely.
    pub fn rhs_change_is_safe(&self, lp: &LinearProgram) -> bool {
        if lp.num_constraints() != self.row_act.len() {
            return false;
        }
        lp.constraints()
            .iter()
            .zip(&self.row_act)
            .zip(&self.build_rhs)
            .all(|((c, act), &b)| matches!(act, RowAct::Kept(_)) || c.rhs == b)
    }

    /// Maps the original program's rhs vector into reduced-row space
    /// (valid only when [`Reduction::rhs_change_is_safe`] holds).
    pub fn reduced_rhs_deltas(&self, lp: &LinearProgram) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        for ((c, act), &b) in lp
            .constraints()
            .iter()
            .zip(&self.row_act)
            .zip(&self.build_rhs)
        {
            if let RowAct::Kept(k) = *act {
                if c.rhs != b {
                    out.push((k, c.rhs - b));
                }
            }
        }
        out
    }

    /// Lifts a reduced-space point back to the original variables.
    pub fn postsolve_x(&self, x_red: &[f64]) -> Vec<f64> {
        self.var_act
            .iter()
            .map(|act| match *act {
                VarAct::Kept(k) => x_red[k],
                VarAct::Elim(v) => v,
            })
            .collect()
    }

    /// Recovers multipliers for every original row from the reduced
    /// duals and the lifted primal point.
    pub fn postsolve_duals(
        &self,
        lp: &LinearProgram,
        x_full: &[f64],
        duals_red: &[f64],
    ) -> Vec<f64> {
        // Reduced cost of each variable under the retained-row duals:
        // μ_j = c_j − Σ_{kept i} y_i a_ij (original coefficients).
        let n = lp.num_vars();
        let mut acc = vec![0.0f64; n];
        for (c, act) in lp.constraints().iter().zip(&self.row_act) {
            if let RowAct::Kept(k) = *act {
                let y = duals_red[k];
                if y != 0.0 {
                    for &(v, a) in &c.terms {
                        acc[v.index()] += y * a;
                    }
                }
            }
        }
        // Folded rows are revisited newest-first: a late fold only
        // became a singleton because earlier folds eliminated its other
        // variables, so its multiplier feeds *their* reduced costs and
        // must be recovered before theirs. The *sign* of the reduced
        // cost picks the side a bound row may carry: μ > 0 presses the
        // variable against its lower bound, μ < 0 against its upper —
        // and only the row owning the bound actually doing the pressing
        // may take a nonzero multiplier. (Activity alone is ambiguous:
        // when a row-implied bound ties the variable's own opposite
        // bound, handing the row the multiplier flips its sign against
        // the row's sense.) An equality fold always carries — its
        // multiplier is sign-free and nothing else can cancel μ.
        let mut ys: Vec<f64> = self
            .row_act
            .iter()
            .map(|act| match *act {
                RowAct::Kept(k) => duals_red[k],
                RowAct::Dropped | RowAct::Singleton { .. } => 0.0,
            })
            .collect();
        for &i in self.fold_order.iter().rev() {
            let RowAct::Singleton { var, coeff, kind } = self.row_act[i] else {
                continue;
            };
            let x = x_full[var];
            let scale = 1.0 + x.abs();
            let mu = lp.vars()[var].objective - acc[var];
            let owns = match kind {
                BoundKind::Fix => true,
                BoundKind::Lower => {
                    self.lb_owner[var] == Some(i)
                        && (x - self.lb[var]).abs() <= 1e-7 * scale
                        && mu > 0.0
                }
                BoundKind::Upper => {
                    self.ub_owner[var] == Some(i)
                        && self.ub[var].is_finite()
                        && (x - self.ub[var]).abs() <= 1e-7 * scale
                        && mu < 0.0
                }
            };
            if owns {
                let y = mu / coeff;
                ys[i] = y;
                for &(v, a) in &lp.constraints()[i].terms {
                    acc[v.index()] += y * a;
                }
            }
        }
        ys
    }
}

/// Runs the reduction loop on `lp`.
pub(crate) fn presolve(lp: &LinearProgram, mode: PresolveMode) -> PresolveResult {
    let n = lp.num_vars();
    let m = lp.num_constraints();
    let mut lb: Vec<f64> = lp.vars().iter().map(|v| v.lower).collect();
    let mut ub: Vec<f64> = lp.vars().iter().map(|v| v.upper).collect();
    let mut lb_owner: Vec<Option<usize>> = vec![None; n];
    let mut ub_owner: Vec<Option<usize>> = vec![None; n];
    let mut fixed: Vec<Option<f64>> = vec![None; n];
    let mut fix_owner: Vec<Option<usize>> = vec![None; n];
    // Variables fixed by their own bounds from the start.
    for j in 0..n {
        if lb[j] > ub[j] + TOL {
            return PresolveResult::Infeasible;
        }
        if ub[j] - lb[j] <= 0.0 {
            fixed[j] = Some(lb[j]);
        }
    }
    #[derive(Clone, Copy, PartialEq)]
    enum RState {
        Alive,
        Empty,
        Redundant,
        Singleton,
    }
    let mut rstate = vec![RState::Alive; m];
    let mut singleton_info: Vec<Option<(usize, f64, BoundKind)>> = vec![None; m];
    let mut fold_order: Vec<usize> = Vec::new();

    // Bounded reduction loop: each pass either eliminates something or
    // stops; the cap only bounds pathological inputs. Row-based
    // reductions are rhs-dependent, so the rhs-safe mode skips the
    // loop entirely and keeps every row.
    let rounds = if mode == PresolveMode::Full { 16 } else { 0 };
    for _round in 0..rounds {
        let mut changed = false;
        for (i, c) in lp.constraints().iter().enumerate() {
            if rstate[i] != RState::Alive {
                continue;
            }
            // Live terms: duplicates summed, fixed variables folded
            // into the rhs, exact-zero coefficients dropped.
            let mut terms: Vec<(usize, f64)> = Vec::with_capacity(c.terms.len());
            let mut eff_rhs = c.rhs;
            for &(v, a) in &c.terms {
                let j = v.index();
                if let Some(val) = fixed[j] {
                    eff_rhs -= a * val;
                } else if let Some(t) = terms.iter_mut().find(|t| t.0 == j) {
                    t.1 += a;
                } else {
                    terms.push((j, a));
                }
            }
            terms.retain(|&(_, a)| a != 0.0);
            match terms.len() {
                0 => {
                    let ok = match c.sense {
                        Sense::Le => 0.0 <= eff_rhs + TOL,
                        Sense::Ge => 0.0 >= eff_rhs - TOL,
                        Sense::Eq => eff_rhs.abs() <= TOL,
                    };
                    if !ok {
                        return PresolveResult::Infeasible;
                    }
                    rstate[i] = RState::Empty;
                    changed = true;
                }
                1 => {
                    let (j, a) = terms[0];
                    let bound = eff_rhs / a;
                    let implies_upper =
                        matches!((c.sense, a > 0.0), (Sense::Le, true) | (Sense::Ge, false));
                    match c.sense {
                        Sense::Eq => {
                            if bound < lb[j] - TOL || bound > ub[j] + TOL {
                                return PresolveResult::Infeasible;
                            }
                            fixed[j] = Some(bound);
                            fix_owner[j] = Some(i);
                            singleton_info[i] = Some((j, a, BoundKind::Fix));
                        }
                        _ if implies_upper => {
                            if bound < ub[j] {
                                ub[j] = bound;
                                ub_owner[j] = Some(i);
                            }
                            singleton_info[i] = Some((j, a, BoundKind::Upper));
                        }
                        _ => {
                            if bound > lb[j] {
                                lb[j] = bound;
                                lb_owner[j] = Some(i);
                            }
                            singleton_info[i] = Some((j, a, BoundKind::Lower));
                        }
                    }
                    if lb[j] > ub[j] + TOL {
                        return PresolveResult::Infeasible;
                    }
                    rstate[i] = RState::Singleton;
                    fold_order.push(i);
                    changed = true;
                }
                _ => {
                    // Activity bounds over the live terms.
                    let mut min_act = 0.0f64;
                    let mut max_act = 0.0f64;
                    for &(j, a) in &terms {
                        if a > 0.0 {
                            min_act += a * lb[j];
                            max_act += a * ub[j];
                        } else {
                            min_act += a * ub[j];
                            max_act += a * lb[j];
                        }
                    }
                    match c.sense {
                        Sense::Le => {
                            if min_act.is_finite() && min_act > eff_rhs + TOL {
                                return PresolveResult::Infeasible;
                            }
                            if max_act.is_finite() && max_act <= eff_rhs + 1e-12 {
                                rstate[i] = RState::Redundant;
                                changed = true;
                            }
                        }
                        Sense::Ge => {
                            if max_act.is_finite() && max_act < eff_rhs - TOL {
                                return PresolveResult::Infeasible;
                            }
                            if min_act.is_finite() && min_act >= eff_rhs - 1e-12 {
                                rstate[i] = RState::Redundant;
                                changed = true;
                            }
                        }
                        Sense::Eq => {}
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Column occupancy over alive rows.
    let mut occupied = vec![false; n];
    for (i, c) in lp.constraints().iter().enumerate() {
        if rstate[i] != RState::Alive {
            continue;
        }
        let mut sums: Vec<(usize, f64)> = Vec::with_capacity(c.terms.len());
        for &(v, a) in &c.terms {
            let j = v.index();
            if fixed[j].is_some() {
                continue;
            }
            if let Some(t) = sums.iter_mut().find(|t| t.0 == j) {
                t.1 += a;
            } else {
                sums.push((j, a));
            }
        }
        for (j, a) in sums {
            if a != 0.0 {
                occupied[j] = true;
            }
        }
    }

    // Decide variable actions; empty columns run to their best bound.
    let mut pending_unbounded = false;
    let mut obj_const = 0.0f64;
    let mut var_act = Vec::with_capacity(n);
    let mut kept_vars = 0usize;
    for j in 0..n {
        let cj = lp.vars()[j].objective;
        let act = if let Some(v) = fixed[j] {
            obj_const += cj * v;
            VarAct::Elim(v)
        } else if !occupied[j] {
            let v = if cj < 0.0 {
                if ub[j].is_finite() {
                    ub[j]
                } else {
                    pending_unbounded = true;
                    lb[j]
                }
            } else {
                lb[j]
            };
            obj_const += cj * v;
            VarAct::Elim(v)
        } else {
            let k = kept_vars;
            kept_vars += 1;
            VarAct::Kept(k)
        };
        var_act.push(act);
    }

    // Assemble the reduced program.
    let mut reduced = LinearProgram::new();
    for (j, act) in var_act.iter().enumerate() {
        if matches!(act, VarAct::Kept(_)) {
            reduced.add_var(lb[j], ub[j], lp.vars()[j].objective);
        }
    }
    let mut row_act = Vec::with_capacity(m);
    let mut kept_rows = 0usize;
    for (i, c) in lp.constraints().iter().enumerate() {
        let act = match rstate[i] {
            RState::Alive => {
                let mut terms: Vec<(usize, f64)> = Vec::with_capacity(c.terms.len());
                let mut eff_rhs = c.rhs;
                for &(v, a) in &c.terms {
                    let j = v.index();
                    match var_act[j] {
                        VarAct::Elim(val) => eff_rhs -= a * val,
                        VarAct::Kept(k) => {
                            if let Some(t) = terms.iter_mut().find(|t| t.0 == k) {
                                t.1 += a;
                            } else {
                                terms.push((k, a));
                            }
                        }
                    }
                }
                terms.retain(|&(_, a)| a != 0.0);
                reduced.add_constraint(
                    terms
                        .into_iter()
                        .map(|(k, a)| (crate::model::VarId(k), a))
                        .collect(),
                    c.sense,
                    eff_rhs,
                );
                let k = kept_rows;
                kept_rows += 1;
                RowAct::Kept(k)
            }
            RState::Empty | RState::Redundant => RowAct::Dropped,
            RState::Singleton => {
                let (var, coeff, kind) = singleton_info[i].expect("singleton recorded");
                RowAct::Singleton { var, coeff, kind }
            }
        };
        row_act.push(act);
    }

    let pattern_hash = {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (mode == PresolveMode::Full).hash(&mut h);
        n.hash(&mut h);
        m.hash(&mut h);
        for act in &var_act {
            match act {
                VarAct::Kept(k) => (0u8, *k).hash(&mut h),
                VarAct::Elim(v) => (1u8, v.to_bits() as usize).hash(&mut h),
            }
        }
        for act in &row_act {
            match act {
                RowAct::Kept(k) => (0u8, *k, 0u8).hash(&mut h),
                RowAct::Dropped => (1u8, 0usize, 0u8).hash(&mut h),
                RowAct::Singleton { var, kind, .. } => (2u8, *var, *kind as u8).hash(&mut h),
            }
        }
        for j in 0..n {
            lb[j].to_bits().hash(&mut h);
            ub[j].to_bits().hash(&mut h);
        }
        h.finish()
    };

    PresolveResult::Ready(Box::new(Reduction {
        reduced,
        var_act,
        row_act,
        lb,
        ub,
        lb_owner,
        ub_owner,
        fold_order,
        obj_const,
        pending_unbounded,
        pattern_hash,
        build_rhs: lp.constraints().iter().map(|c| c.rhs).collect(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready(lp: &LinearProgram) -> Box<Reduction> {
        match presolve(lp, PresolveMode::Full) {
            PresolveResult::Ready(r) => r,
            PresolveResult::Infeasible => panic!("unexpected infeasible"),
        }
    }

    #[test]
    fn fixed_and_empty_columns_eliminated() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(2.0, 2.0, 3.0); // fixed
        let _y = lp.add_var(1.0, 5.0, 4.0); // empty column, c > 0 → lb
        let z = lp.add_var(0.0, f64::INFINITY, 1.0);
        let w = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0), (z, 1.0), (w, 1.0)], Sense::Ge, 5.0);
        let r = ready(&lp);
        assert_eq!(r.reduced.num_vars(), 2);
        assert_eq!(r.kept_rows(), 1);
        // rhs folded: z + w >= 5 - 2.
        assert_eq!(r.reduced.constraints()[0].rhs, 3.0);
        assert!((r.obj_const - (3.0 * 2.0 + 4.0 * 1.0)).abs() < 1e-12);
        let x_full = r.postsolve_x(&[3.0, 0.0]);
        assert_eq!(x_full, vec![2.0, 1.0, 3.0, 0.0]);
    }

    #[test]
    fn empty_column_with_negative_cost_flags_unbounded() {
        let mut lp = LinearProgram::new();
        let _x = lp.add_var(0.0, f64::INFINITY, -1.0);
        let r = ready(&lp);
        assert!(r.pending_unbounded);
    }

    #[test]
    fn singleton_rows_become_bounds() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 2.0)], Sense::Ge, 6.0); // x >= 3
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 1.0); // redundant once x >= 3
        let r = ready(&lp);
        assert_eq!(r.lb[0], 3.0);
        assert_eq!(
            r.row_act[0],
            RowAct::Singleton {
                var: 0,
                coeff: 2.0,
                kind: BoundKind::Lower
            }
        );
        // Second row became redundant through the tightened bound.
        assert_eq!(r.row_act[1], RowAct::Dropped);
    }

    #[test]
    fn contradictory_singletons_are_infeasible() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Sense::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Sense::Ge, 2.0);
        assert!(matches!(
            presolve(&lp, PresolveMode::Full),
            PresolveResult::Infeasible
        ));
    }

    #[test]
    fn rhs_safe_mode_keeps_every_row() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(2.0, 2.0, 3.0); // fixed: still substituted
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        let s = lp.add_constraint(vec![(x, 1.0)], Sense::Ge, 1.0); // singleton: kept anyway
        let k = lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 5.0);
        let r = match presolve(&lp, PresolveMode::RhsSafe) {
            PresolveResult::Ready(r) => r,
            PresolveResult::Infeasible => panic!("feasible program"),
        };
        assert_eq!(
            r.kept_rows(),
            2,
            "no row may be eliminated in rhs-safe mode"
        );
        // Any rhs change stays safe, including on the singleton row.
        lp.set_rhs(s, -7.0);
        lp.set_rhs(k, 11.0);
        assert!(r.rhs_change_is_safe(&lp));
        assert_eq!(r.reduced_rhs_deltas(&lp), vec![(0, -8.0), (1, 6.0)]);
        // The fixed column is still substituted out.
        assert_eq!(r.reduced.num_vars(), 1);
        assert_eq!(r.reduced.constraints()[0].rhs, -1.0); // 1 - 2
        assert_eq!(r.reduced.constraints()[1].rhs, 3.0); // 5 - 2
    }

    #[test]
    fn eq_singleton_fixes_variable() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 10.0, 2.0);
        let y = lp.add_var(0.0, 10.0, 1.0);
        lp.add_constraint(vec![(x, 2.0)], Sense::Eq, 8.0); // x = 4
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 9.0); // y <= 5
        let r = ready(&lp);
        assert_eq!(r.postsolve_x(&[0.0])[0], 4.0);
        // The coupled row lost its x term and became a y-singleton.
        assert!(matches!(
            r.row_act[1],
            RowAct::Singleton {
                var: 1,
                kind: BoundKind::Upper,
                ..
            }
        ));
        assert_eq!(r.ub[1], 5.0);
    }

    #[test]
    fn singleton_dual_recovery_respects_activity() {
        // min x, x >= 5 via a singleton row: dual must be 1 (binding).
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Sense::Ge, 5.0);
        let r = ready(&lp);
        assert_eq!(r.reduced.num_vars(), 0, "bound + empty column eliminates x");
        let x_full = r.postsolve_x(&[]);
        assert_eq!(x_full, vec![5.0]);
        let duals = r.postsolve_duals(&lp, &x_full, &[]);
        assert!((duals[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inactive_singleton_gets_zero_dual() {
        // min -x, x <= 4 (singleton) and x <= 2 (tighter singleton):
        // only the binding row carries a multiplier.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        lp.add_constraint(vec![(x, 1.0)], Sense::Le, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Sense::Le, 2.0);
        let r = ready(&lp);
        let x_full = r.postsolve_x(&[]);
        assert_eq!(x_full, vec![2.0]);
        let duals = r.postsolve_duals(&lp, &x_full, &[]);
        assert_eq!(duals[0], 0.0);
        assert!((duals[1] - (-1.0)).abs() < 1e-12);
    }

    #[test]
    fn rhs_safety_tracks_eliminated_rows() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        let s = lp.add_constraint(vec![(x, 1.0)], Sense::Ge, 2.0); // singleton
        let k = lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 5.0); // kept
        let r = ready(&lp);
        assert!(r.rhs_change_is_safe(&lp));
        lp.set_rhs(k, 6.0);
        assert!(r.rhs_change_is_safe(&lp));
        assert_eq!(r.reduced_rhs_deltas(&lp), vec![(0, 1.0)]);
        lp.set_rhs(s, 3.0);
        assert!(!r.rhs_change_is_safe(&lp));
    }

    #[test]
    fn redundant_row_dropped_with_finite_activity() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 1.0, 1.0);
        let y = lp.add_var(0.0, 1.0, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 5.0); // max activity 2
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Ge, -0.5);
        let r = ready(&lp);
        assert_eq!(r.row_act[0], RowAct::Dropped);
        assert_eq!(r.row_act[1], RowAct::Kept(0));
    }
}
