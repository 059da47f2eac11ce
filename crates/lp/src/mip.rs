//! Branch-and-bound mixed-integer programming on top of the simplex.
//!
//! The paper's TE formulation (2)–(8) is a MIP because of the binary
//! scenario-selection variables `δ_{f,q}` (constraint (7)). PreTE's
//! production path solves it with Benders decomposition (Appendix A.4),
//! whose *master problem* is itself a small binary program — this
//! module solves both the master and, on small instances, the full MIP
//! exactly (which the test-suite uses to validate the Benders loop).
//!
//! Strategy: depth-first branch and bound, branching on the
//! most-fractional integer variable, with best-first restarts kept
//! simple (DFS finds incumbents early, which matters more here than
//! node ordering — the LP relaxations of the scenario-selection
//! problems are near-integral). Nodes are popped in waves of `WAVE`
//! and relaxed one after another on the calling thread. A branch is a
//! variable bound, never a row: every node relaxation has the root's
//! rows.

use crate::model::{LinearProgram, VarId};
use crate::simplex::{solve_with, SimplexOptions, Solution, SolveStatus};

/// Nodes popped (in DFS order) and relaxed together per wave.
///
/// The wave fixes the exploration order: all of a wave's relaxations
/// are solved before any of their children are pushed, so the stack —
/// and with it every incumbent, bound decision and node count — depends
/// on this size. The Benders master's node counts and Φ on B4 are
/// pinned at `WAVE = 4`.
const WAVE: usize = 4;

/// Integrality tolerance: `x` counts as integral when within this
/// distance of an integer.
const INT_TOL: f64 = 1e-6;

/// Absolute optimality gap at which a node is pruned.
const GAP_TOL: f64 = 1e-9;

/// Options for the branch-and-bound search.
#[derive(Debug, Clone, Copy)]
pub struct MipOptions {
    /// Maximum number of explored nodes before giving up and returning
    /// the incumbent (status [`MipStatus::NodeLimit`]).
    pub max_nodes: usize,
    /// Options for the inner LP solves.
    pub simplex: SimplexOptions,
}

impl Default for MipOptions {
    fn default() -> Self {
        Self { max_nodes: 100_000, simplex: SimplexOptions::default() }
    }
}

/// Termination status of a MIP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipStatus {
    /// Proven optimal.
    Optimal,
    /// No integer-feasible point exists.
    Infeasible,
    /// Node limit reached; `x`/`objective` hold the best incumbent
    /// found (check [`MipResult::has_incumbent`]).
    NodeLimit,
    /// The LP relaxation was unbounded.
    Unbounded,
}

/// Result of a MIP solve.
#[derive(Debug, Clone)]
pub struct MipResult {
    /// Termination status.
    pub status: MipStatus,
    /// Best integer-feasible point found.
    pub x: Vec<f64>,
    /// Its objective value (`f64::INFINITY` when none found).
    pub objective: f64,
    /// Number of branch-and-bound nodes explored.
    pub nodes: usize,
    /// Best lower bound proved (for gap reporting).
    pub lower_bound: f64,
}

impl MipResult {
    /// Whether an integer-feasible incumbent is available.
    pub fn has_incumbent(&self) -> bool {
        self.objective.is_finite()
    }
}

/// Solves `lp` (a minimization) requiring the variables in `integers`
/// to take integral values. Integer variables should carry finite
/// bounds (binaries: `[0, 1]`).
pub fn solve_mip(lp: &LinearProgram, integers: &[VarId], opts: MipOptions) -> MipResult {
    let mut best_x: Option<Vec<f64>> = None;
    let mut best_obj = f64::INFINITY;
    let mut nodes = 0usize;
    let mut lower_bound = f64::NEG_INFINITY;
    let mut root_unbounded = false;

    // DFS stack of (bound overrides). Each node is a list of
    // (var, lower, upper) branches applied to the base program.
    let mut stack: Vec<Vec<(VarId, f64, f64)>> = vec![Vec::new()];
    let mut node_limit_hit = false;

    'outer: while !stack.is_empty() {
        // Pop a wave of nodes in DFS order and relax them together.
        let take = WAVE.min(stack.len());
        let wave: Vec<Vec<(VarId, f64, f64)>> =
            stack.drain(stack.len() - take..).rev().collect();
        let sols = relax_wave(lp, &wave, opts.simplex);
        for (branches, sol) in wave.into_iter().zip(sols) {
            if nodes >= opts.max_nodes {
                node_limit_hit = true;
                break 'outer;
            }
            nodes += 1;
            // An empty box: the node is infeasible without an LP solve.
            let Some(sol) = sol else {
                continue;
            };
            match sol.status {
                SolveStatus::Infeasible => continue,
                SolveStatus::Unbounded => {
                    if branches.is_empty() {
                        root_unbounded = true;
                        break 'outer;
                    }
                    continue;
                }
                // No point to bound or branch on: the node is dropped
                // like a pruned one.
                SolveStatus::IterationLimit | SolveStatus::NumericalFailure => continue,
                // A suspect relaxation still carries a usable bound and
                // point — pruning it would silently drop feasible
                // subtrees on ill-conditioned masters.
                SolveStatus::Optimal | SolveStatus::NumericallySuspect => {}
            }
            if branches.is_empty() {
                lower_bound = sol.objective;
            }
            // Prune by bound.
            if sol.objective >= best_obj - GAP_TOL {
                continue;
            }
            // Find most-fractional integer variable.
            let mut branch: Option<(VarId, f64)> = None;
            let mut best_frac = INT_TOL;
            for &v in integers {
                let xv = sol.x[v.index()];
                let frac = (xv - xv.round()).abs();
                if frac > best_frac {
                    best_frac = frac;
                    branch = Some((v, xv));
                }
            }
            match branch {
                None => {
                    // Integral — new incumbent (round to kill the epsilon).
                    let mut x = sol.x.clone();
                    for &v in integers {
                        x[v.index()] = x[v.index()].round();
                    }
                    if sol.objective < best_obj {
                        best_obj = sol.objective;
                        best_x = Some(x);
                    }
                }
                Some((v, xv)) => {
                    let floor = xv.floor();
                    // Push "up" branch first so DFS explores "down" first
                    // (stack order): down branches tend to reach integral
                    // scenario selections faster in the TE master problems.
                    let mut up = branches.clone();
                    up.push((v, floor + 1.0, f64::INFINITY));
                    stack.push(up);
                    let mut down = branches.clone();
                    down.push((v, f64::NEG_INFINITY, floor));
                    stack.push(down);
                }
            }
        }
    }

    let status = if root_unbounded {
        MipStatus::Unbounded
    } else if node_limit_hit {
        MipStatus::NodeLimit
    } else if best_x.is_some() {
        MipStatus::Optimal
    } else {
        MipStatus::Infeasible
    };
    MipResult {
        status,
        x: best_x.unwrap_or_else(|| vec![0.0; lp.num_vars()]),
        objective: best_obj,
        nodes,
        lower_bound,
    }
}

/// Solves the LP relaxations of a wave of nodes, in wave order;
/// `None` for a node whose box is empty.
fn relax_wave(
    lp: &LinearProgram,
    wave: &[Vec<(VarId, f64, f64)>],
    simplex: SimplexOptions,
) -> Vec<Option<Solution>> {
    wave.iter()
        .map(|branches| node_lp(lp, branches).map(|child| solve_with(&child, simplex)))
        .collect()
}

/// The relaxation of the node `branches` describes: `lp` with each
/// branch intersected into its variable's bounds. `None` when a box
/// comes out empty.
fn node_lp(lp: &LinearProgram, branches: &[(VarId, f64, f64)]) -> Option<LinearProgram> {
    let mut child = lp.clone();
    for &(v, lo, hi) in branches {
        let var = child.var(v);
        let (lo, hi) = (var.lower.max(lo), var.upper.min(hi));
        if lo > hi {
            return None;
        }
        child.set_bounds(v, lo, hi);
    }
    Some(child)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn knapsack_binary() {
        // max 10a + 6b + 4c s.t. a + b + c <= 2 (binaries) → 16.
        let mut lp = LinearProgram::new();
        let a = lp.add_var(0.0, 1.0, -10.0);
        let b = lp.add_var(0.0, 1.0, -6.0);
        let c = lp.add_var(0.0, 1.0, -4.0);
        lp.add_constraint(vec![(a, 1.0), (b, 1.0), (c, 1.0)], Sense::Le, 2.0);
        let r = solve_mip(&lp, &[a, b, c], MipOptions::default());
        assert_eq!(r.status, MipStatus::Optimal);
        assert_close(r.objective, -16.0, 1e-8);
        assert_close(r.x[a.index()], 1.0, 1e-9);
        assert_close(r.x[b.index()], 1.0, 1e-9);
        assert_close(r.x[c.index()], 0.0, 1e-9);
    }

    #[test]
    fn fractional_relaxation_forced_integral() {
        // max x1 + x2 s.t. 2x1 + 2x2 <= 3, binaries → LP gives 1.5,
        // MIP gives 1.
        let mut lp = LinearProgram::new();
        let x1 = lp.add_var(0.0, 1.0, -1.0);
        let x2 = lp.add_var(0.0, 1.0, -1.0);
        lp.add_constraint(vec![(x1, 2.0), (x2, 2.0)], Sense::Le, 3.0);
        let r = solve_mip(&lp, &[x1, x2], MipOptions::default());
        assert_eq!(r.status, MipStatus::Optimal);
        assert_close(r.objective, -1.0, 1e-8);
        assert!(r.lower_bound <= -1.5 + 1e-6, "root LP bound {}", r.lower_bound);
    }

    #[test]
    fn general_integers() {
        // max 3x + 2y s.t. x + y <= 4.5, x <= 2.7, integers → x=2, y=2 → 10.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 2.7, -3.0);
        let y = lp.add_var(0.0, f64::INFINITY, -2.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Le, 4.5);
        let r = solve_mip(&lp, &[x, y], MipOptions::default());
        assert_eq!(r.status, MipStatus::Optimal);
        assert_close(r.objective, -10.0, 1e-8);
    }

    #[test]
    fn infeasible_mip() {
        // 0.4 <= x <= 0.6, x integer → infeasible.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 1.0, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Sense::Ge, 0.4);
        lp.add_constraint(vec![(x, 1.0)], Sense::Le, 0.6);
        let r = solve_mip(&lp, &[x], MipOptions::default());
        assert_eq!(r.status, MipStatus::Infeasible);
        assert!(!r.has_incumbent());
    }

    #[test]
    fn mixed_continuous_and_integer() {
        // min y - x_cont: x_cont <= 2.5 + y binary...
        // max x + 5b s.t. x <= 3.3, x + 4b <= 5 (b binary):
        //   b=1: x <= 1 → 1 + 5 = 6; b=0: x = 3.3 → 3.3. Optimum 6.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 3.3, -1.0);
        let b = lp.add_var(0.0, 1.0, -5.0);
        lp.add_constraint(vec![(x, 1.0), (b, 4.0)], Sense::Le, 5.0);
        let r = solve_mip(&lp, &[b], MipOptions::default());
        assert_eq!(r.status, MipStatus::Optimal);
        assert_close(r.objective, -6.0, 1e-8);
        assert_close(r.x[b.index()], 1.0, 1e-9);
        assert_close(r.x[x.index()], 1.0, 1e-8);
    }

    #[test]
    fn node_limit_returns_incumbent_status() {
        let mut lp = LinearProgram::new();
        let vars: Vec<_> = (0..12).map(|i| lp.add_var(0.0, 1.0, -(1.0 + i as f64 * 0.1))).collect();
        // Frustrating equality: exactly half on, with awkward weights.
        lp.add_constraint(
            vars.iter().map(|&v| (v, 1.0)).collect(),
            Sense::Le,
            6.5,
        );
        let r = solve_mip(&lp, &vars, MipOptions { max_nodes: 3, ..Default::default() });
        assert_eq!(r.status, MipStatus::NodeLimit);
    }

    #[test]
    fn scenario_selection_shape() {
        // A miniature of the Benders master problem: pick δ_q ∈ {0,1}
        // per scenario with Σ δ_q p_q >= β, minimizing Σ w_q δ_q.
        // p = [.9, .05, .04, .01], w = [0, 3, 1, 2], β = .98
        // → must take q0 (.9) plus enough others: q0+q1+q2 = .99 w=4;
        //   q0+q1+q3=.96 ✗; q0+q2+q3=.95 ✗; q0+q1+q2 works w=4;
        //   q0+q2 = .94 ✗; q0+q1 = .95 ✗ → all four = 1.0, w=6? No:
        //   q0+q1+q2 = 0.99 >= 0.98 ✓ with w = 0+3+1 = 4. Best is 4.
        let mut lp = LinearProgram::new();
        let p = [0.9, 0.05, 0.04, 0.01];
        let w = [0.0, 3.0, 1.0, 2.0];
        let d: Vec<_> = (0..4).map(|i| lp.add_var(0.0, 1.0, w[i])).collect();
        lp.add_constraint(d.iter().zip(p).map(|(&v, pi)| (v, pi)).collect(), Sense::Ge, 0.98);
        let r = solve_mip(&lp, &d, MipOptions::default());
        assert_eq!(r.status, MipStatus::Optimal);
        assert_close(r.objective, 4.0, 1e-8);
    }

    #[test]
    fn node_relaxation_keeps_the_root_rows_and_branches_on_bounds() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.0, 1.0, -1.0);
        let y = lp.add_var(0.0, 3.0, -1.0);
        lp.add_constraint(vec![(x, 2.0), (y, 2.0)], Sense::Le, 3.0);
        let node = node_lp(&lp, &[(x, 1.0, f64::INFINITY), (y, f64::NEG_INFINITY, 2.0)])
            .expect("nonempty boxes");
        assert_eq!(node.num_constraints(), lp.num_constraints());
        assert_eq!(node.constraints(), lp.constraints());
        assert_eq!((node.var(x).lower, node.var(x).upper), (1.0, 1.0));
        assert_eq!((node.var(y).lower, node.var(y).upper), (0.0, 2.0));
    }

    #[test]
    fn empty_branch_box_is_an_infeasible_node_without_a_solve() {
        // x ∈ [0.4, 1.6] at cost +1: the root relaxes to x = 0.4, whose
        // down branch x <= 0 leaves an empty box.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(0.4, 1.6, 1.0);
        assert!(node_lp(&lp, &[(x, f64::NEG_INFINITY, 0.0)]).is_none());
        let down = vec![(x, f64::NEG_INFINITY, 0.0)];
        let up = vec![(x, 1.0, f64::INFINITY)];
        let sols = relax_wave(&lp, &[down, up], SimplexOptions::default());
        assert!(sols[0].is_none());
        assert!(sols[1].as_ref().is_some_and(|s| s.is_optimal()));
        let r = solve_mip(&lp, &[x], MipOptions::default());
        assert_eq!(r.status, MipStatus::Optimal);
        assert_close(r.objective, 1.0, 1e-9);
        assert_eq!(r.nodes, 3, "root, the empty down branch, the up branch");
    }
}
