//! Differential suite for branch-and-bound's live node core.
//!
//! [`NodeCore`] relaxes every node after the root on one core built
//! over the root program, each warm from the last basis the core
//! certified optimal, and only hands back answers it certified. This
//! suite holds it to the cold path it replaced:
//!
//! * on seeded random programs × random branch boxes relaxed one after
//!   another on one core, every answer the live core returns agrees
//!   with a cold [`solve_with`] of the same node on status and, where
//!   both are certified optimal, on the objective within
//!   `1e-7·(1 + |obj|)`, and the live core answers (rather than falls
//!   back on) nearly every node the cold path solves;
//! * [`solve_mip`] equals exhaustive enumeration on programs with at
//!   most 12 binaries, and on a general-integer program whose down
//!   branches make an infinite upper bound finite; a node that gives
//!   that bound back is answered like a cold solve;
//! * the pivot cap applies to each node, not to the live core's life.
//!
//! Cases come from the shared harness, `tests/oracle/mod.rs`.

pub mod oracle;

use oracle::{ensure, random_lp, shrink_lp, LpCase, LpRow, LpVar, Rng, Sweep};
use prete_lp::mip::NodeCore;
use prete_lp::{
    solve_mip, solve_with, ColdStart, MipOptions, MipStatus, Sense, SimplexOptions, SolveStatus,
    VarId,
};

/// Objective agreement, relative to `1 + |obj|`.
const TOL: f64 = 1e-7;

/// Both cold-start strategies: `Auto` builds the live core in
/// dual-start form wherever a program qualifies.
const MATRIX: [ColdStart; 2] = [ColdStart::TwoPhase, ColdStart::Auto];

fn opts(cold_start: ColdStart) -> SimplexOptions {
    SimplexOptions {
        cold_start,
        ..SimplexOptions::default()
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * (1.0 + a.abs().max(b.abs()))
}

// ---------------------------------------------------------------------------
// Live core vs cold solves on random branch boxes
// ---------------------------------------------------------------------------

/// A root program and the branch boxes relaxed on its live core, in
/// order: each box is `(var, lower, upper)` tightenings of the root's
/// bounds.
#[derive(Debug, Clone)]
struct NodeCase {
    lp: LpCase,
    boxes: Vec<Vec<(usize, f64, f64)>>,
}

/// Seed of the node-core differential.
const NODE_SEED: u64 = 0x6e0d_e5c0_2026_1020;

/// Cases of the node-core differential.
const NODE_CASES: usize = 400;

/// Boxes per case.
const BOXES: usize = 12;

/// A random program from `random_lp` and `BOXES` branch boxes over it.
/// A box tightens one to three variables to integral bounds inside
/// their root range; an infinite upper bound is made finite in about
/// half of the draws that touch it.
fn node_case(seed: u64, case: usize) -> NodeCase {
    let lp = random_lp(seed, case);
    let mut rng = Rng::for_case(seed ^ 0x5eed, case);
    let n = lp.vars.len();
    let boxes = (0..BOXES)
        .map(|_| {
            (0..1 + rng.below(3))
                .map(|_| {
                    let j = rng.below(n);
                    let v = &lp.vars[j];
                    let top = if v.ub.is_finite() { v.ub } else { v.lb + 8.0 };
                    let lo = v.lb + rng.below((top - v.lb) as usize + 1) as f64;
                    let hi = if !v.ub.is_finite() && rng.below(2) == 0 {
                        f64::INFINITY
                    } else {
                        lo + rng.below((top - lo) as usize + 1) as f64
                    };
                    (j, lo, hi)
                })
                .collect()
        })
        .collect();
    NodeCase { lp, boxes }
}

/// The root program with one box intersected into its bounds; `None`
/// when a bound pair comes out empty.
fn boxed(lp: &LpCase, bx: &[(usize, f64, f64)]) -> Option<LpCase> {
    let mut node = lp.clone();
    for &(j, lo, hi) in bx {
        let v = &mut node.vars[j];
        v.lb = v.lb.max(lo);
        v.ub = v.ub.min(hi);
        if v.lb > v.ub {
            return None;
        }
    }
    Some(node)
}

/// What one case covered.
#[derive(Debug, Default, Clone, Copy)]
struct NodeTally {
    /// Roots the live core certified.
    live_roots: usize,
    /// Nodes a cold solve found certified optimal.
    cold_optimal: usize,
    /// Of those, nodes the live core answered.
    warm_answered: usize,
}

fn node_check(case: &NodeCase, cold_start: ColdStart) -> Result<NodeTally, String> {
    let opts = opts(cold_start);
    let mut tally = NodeTally::default();
    let root = case.lp.build();
    let Some((root_sol, mut core)) = NodeCore::root(&root, opts) else {
        return Ok(tally);
    };
    tally.live_roots = 1;
    let cold = solve_with(&root, opts);
    ensure(cold.status == SolveStatus::Optimal, || {
        format!("root: live core Optimal, cold {:?}", cold.status)
    })?;
    ensure(close(root_sol.objective, cold.objective), || {
        format!(
            "root: live {} vs cold {}",
            root_sol.objective, cold.objective
        )
    })?;
    for (k, bx) in case.boxes.iter().enumerate() {
        let Some(node) = boxed(&case.lp, bx) else {
            continue;
        };
        let node = node.build();
        let warm = core.relax(&node);
        let cold = solve_with(&node, opts);
        if cold.status == SolveStatus::Optimal {
            tally.cold_optimal += 1;
            tally.warm_answered += usize::from(warm.is_some());
        }
        let Some(warm) = warm else {
            continue;
        };
        ensure(warm.status == SolveStatus::Optimal, || {
            format!("box {k}: live core returned {:?}", warm.status)
        })?;
        ensure(cold.status == SolveStatus::Optimal, || {
            format!("box {k}: live core Optimal, cold {:?}", cold.status)
        })?;
        ensure(close(warm.objective, cold.objective), || {
            format!(
                "box {k}: live {} vs cold {}",
                warm.objective, cold.objective
            )
        })?;
        node.check_feasible(&warm.x, 1e-6)
            .map_err(|e| format!("box {k}: live point infeasible: {e}"))?;
    }
    Ok(tally)
}

#[test]
fn node_core_matches_cold_solves_on_random_branch_boxes() {
    let mut total = NodeTally::default();
    let sweep = Sweep {
        generator: "`node_case` in tests/mip_differential.rs",
        seed: NODE_SEED,
        cases: NODE_CASES,
        configs: &MATRIX,
    };
    let failures = sweep.run(
        node_case,
        |case, cold_start| {
            let t = node_check(case, cold_start)?;
            total.live_roots += t.live_roots;
            total.cold_optimal += t.cold_optimal;
            total.warm_answered += t.warm_answered;
            Ok(())
        },
        |case, cold_start| {
            let boxes = case.boxes.clone();
            let lp = shrink_lp(case.lp.clone(), |lp| {
                let c = NodeCase {
                    lp: lp.clone(),
                    boxes: boxes.clone(),
                };
                node_check(&c, cold_start).is_err()
            });
            NodeCase { lp, boxes }
        },
    );
    assert!(failures.is_empty(), "{} node-core failures", failures.len());
    eprintln!("node core coverage: {total:?}");
    // The sweep must exercise the live core, not its fallback.
    assert!(total.live_roots >= 200, "{total:?}");
    assert!(total.cold_optimal >= 1_000, "{total:?}");
    assert!(
        total.warm_answered * 100 >= total.cold_optimal * 98,
        "the live core fell back on too many nodes: {total:?}"
    );
}

// ---------------------------------------------------------------------------
// Branch and bound vs exhaustive enumeration
// ---------------------------------------------------------------------------

/// Seed of the enumeration differential.
const ENUM_SEED: u64 = 0xe4e5_b1a5_2026_1020;

/// Cases of the enumeration differential.
const ENUM_CASES: usize = 120;

/// A small mixed-binary program: 1–12 binaries, up to two bounded
/// continuous variables, one to six rows with small integer data and
/// costs of either sign. Most rhs are anchored at a random binary
/// point (so most cases are feasible); the rest are free draws.
fn binary_case(seed: u64, case: usize) -> (LpCase, usize) {
    let mut rng = Rng::for_case(seed, case);
    let bins = 1 + rng.below(12);
    let conts = rng.below(3);
    let mut vars: Vec<LpVar> = (0..bins)
        .map(|_| LpVar {
            lb: 0.0,
            ub: 1.0,
            cost: rng.small_int(6),
        })
        .collect();
    vars.extend((0..conts).map(|_| LpVar {
        lb: 0.0,
        ub: 1.0 + rng.below(4) as f64,
        cost: rng.small_int(3) + 0.5,
    }));
    let anchor: Vec<f64> = vars.iter().map(|v| rng.below(2) as f64 * v.ub).collect();
    let anchored = rng.below(4) != 0;
    let rows = (0..1 + rng.below(6))
        .map(|_| {
            let terms: Vec<(usize, f64)> = (0..vars.len())
                .filter_map(|j| {
                    let a = rng.small_int(4);
                    (rng.below(3) != 0 && a != 0.0).then_some((j, a))
                })
                .collect();
            let sense = match rng.below(4) {
                0 => Sense::Ge,
                1 => Sense::Eq,
                _ => Sense::Le,
            };
            let activity: f64 = terms.iter().map(|&(j, a)| a * anchor[j]).sum();
            let rhs = if !anchored {
                rng.small_int(6)
            } else {
                match sense {
                    Sense::Le => activity + rng.below(3) as f64 + 0.5 * rng.below(2) as f64,
                    Sense::Ge => activity - rng.below(3) as f64 - 0.5 * rng.below(2) as f64,
                    Sense::Eq => activity,
                }
            };
            LpRow { terms, sense, rhs }
        })
        .collect();
    (LpCase { vars, rows }, bins)
}

/// The MIP optimum by enumeration: every assignment of the first
/// `ints.len()` variables to the listed integer values, each with the
/// continuous rest solved cold. `None` when no assignment is feasible.
fn enumerate(lp: &LpCase, ints: &[Vec<f64>], opts: SimplexOptions) -> Option<f64> {
    let mut best: Option<f64> = None;
    let mut pick = vec![0usize; ints.len()];
    loop {
        let mut fixed = lp.clone();
        for (j, &k) in pick.iter().enumerate() {
            fixed.vars[j].lb = ints[j][k];
            fixed.vars[j].ub = ints[j][k];
        }
        let sol = solve_with(&fixed.build(), opts);
        if sol.is_usable() {
            best = Some(best.map_or(sol.objective, |b: f64| b.min(sol.objective)));
        }
        // Odometer over the integer values.
        let mut j = 0;
        loop {
            if j == pick.len() {
                return best;
            }
            pick[j] += 1;
            if pick[j] < ints[j].len() {
                break;
            }
            pick[j] = 0;
            j += 1;
        }
    }
}

/// `solve_mip` against [`enumerate`]; returns the enumerated optimum.
fn mip_check(lp: &LpCase, ints: &[Vec<f64>], cold_start: ColdStart) -> Result<Option<f64>, String> {
    let opts = opts(cold_start);
    let integers: Vec<VarId> = (0..ints.len()).map(VarId).collect();
    let r = solve_mip(
        &lp.build(),
        &integers,
        MipOptions {
            simplex: opts,
            ..MipOptions::default()
        },
    );
    let best = enumerate(lp, ints, opts);
    match best {
        Some(best) => {
            ensure(r.status == MipStatus::Optimal, || {
                format!("enumeration finds {best}, B&B ends {:?}", r.status)
            })?;
            ensure(close(r.objective, best), || {
                format!("B&B {} vs enumeration {best}", r.objective)
            })?;
        }
        None => ensure(r.status == MipStatus::Infeasible, || {
            format!("enumeration finds no point, B&B ends {:?}", r.status)
        })?,
    }
    Ok(best)
}

#[test]
fn branch_and_bound_matches_enumeration_on_small_binary_programs() {
    let (mut optimal, mut infeasible) = (0usize, 0usize);
    let sweep = Sweep {
        generator: "`binary_case` in tests/mip_differential.rs",
        seed: ENUM_SEED,
        cases: ENUM_CASES,
        configs: &MATRIX,
    };
    let binaries = |bins: usize| vec![vec![0.0, 1.0]; bins];
    let failures = sweep.run(
        binary_case,
        |(lp, bins), cold_start| {
            let best = mip_check(lp, &binaries(*bins), cold_start)?;
            if cold_start == MATRIX[0] {
                match best {
                    Some(_) => optimal += 1,
                    None => infeasible += 1,
                }
            }
            Ok(())
        },
        |(lp, bins), cold_start| {
            let small = shrink_lp(lp.clone(), |c| {
                mip_check(c, &binaries(*bins), cold_start).is_err()
            });
            (small, *bins)
        },
    );
    assert!(failures.is_empty(), "{} B&B failures", failures.len());
    assert!(
        optimal >= 60 && infeasible >= 10,
        "{optimal} optimal, {infeasible} infeasible"
    );
}

/// `max 3x + 2y` s.t. `x + y ≤ 4.5`, `x ≤ 2.7`, `y ≥ 0` unbounded
/// above, both integral: the root relaxes to `y = 1.8`, whose down
/// branch `y ≤ 1` turns y's infinite upper bound finite on the live
/// core. Enumeration over `x ∈ {0, 1, 2}`, `y ∈ {0, …, 5}` gives 10.
#[test]
fn general_integer_branch_makes_an_infinite_upper_bound_finite() {
    let lp = LpCase {
        vars: vec![
            LpVar {
                lb: 0.0,
                ub: 2.7,
                cost: -3.0,
            },
            LpVar {
                lb: 0.0,
                ub: f64::INFINITY,
                cost: -2.0,
            },
        ],
        rows: vec![LpRow {
            terms: vec![(0, 1.0), (1, 1.0)],
            sense: Sense::Le,
            rhs: 4.5,
        }],
    };
    let ints = [vec![0.0, 1.0, 2.0], (0..=5).map(f64::from).collect()];
    for cold_start in MATRIX {
        assert_eq!(mip_check(&lp, &ints, cold_start).unwrap(), Some(-10.0));
        // The down branch itself, on the live core: it leaves y at its
        // finite upper bound 1.
        let (_, mut core) = NodeCore::root(&lp.build(), opts(cold_start)).expect("root");
        let mut down = lp.clone();
        down.vars[1].ub = 1.0;
        let warm = core
            .relax(&down.build())
            .expect("certified on the live core");
        assert!(
            close(warm.objective, -3.0 * 2.7 - 2.0),
            "{}",
            warm.objective
        );
        // The next node gives y its infinite upper bound back: the
        // saved basis, which holds y at upper, cannot start it.
        let mut lifted = lp.clone();
        lifted.vars[0].ub = 2.0;
        let lifted = lifted.build();
        let warm = core.relax(&lifted).expect("certified on the live core");
        let cold = solve_with(&lifted, opts(cold_start));
        assert_eq!(cold.status, SolveStatus::Optimal);
        assert!(
            close(warm.objective, cold.objective) && close(warm.objective, -6.0 - 5.0),
            "live {} vs cold {}",
            warm.objective,
            cold.objective
        );
    }
}

// ---------------------------------------------------------------------------
// The pivot cap
// ---------------------------------------------------------------------------

/// A knapsack-like program whose root and nodes need several pivots
/// each: with the cap just above the root's cold solve, the largest
/// single solve, the nodes' pivots together exceed it several times
/// over, and every node must still be answered on one live core, in
/// the pivots it takes from the same chain of starts without a cap.
#[test]
fn the_pivot_cap_applies_to_each_node_not_to_the_live_core() {
    let n = 24;
    let lp = LpCase {
        vars: (0..n)
            .map(|j| LpVar {
                lb: 0.0,
                ub: 1.0,
                cost: -(1.0 + (j * 7 % 11) as f64),
            })
            .collect(),
        rows: (0..6)
            .map(|i| LpRow {
                terms: (0..n)
                    .filter(|j| (i + j) % 3 != 0)
                    .map(|j| (j, 1.0 + ((i * 5 + j) % 4) as f64))
                    .collect(),
                sense: Sense::Le,
                rhs: 9.5 + i as f64,
            })
            .collect(),
    };
    let boxes: Vec<LpCase> = (0..n)
        .map(|j| {
            let mut node = lp.clone();
            node.vars[j].ub = 0.0;
            node.vars[(j * 5 + 3) % n].lb = 1.0;
            node
        })
        .collect();
    let uncapped = SimplexOptions::default();
    // Each node's pivots on an uncapped core, each node starting where
    // the one before it ended.
    let (root, mut core) = NodeCore::root(&lp.build(), uncapped).expect("root");
    let pivots: Vec<usize> = boxes
        .iter()
        .map(|b| core.relax(&b.build()).expect("answered").iterations)
        .collect();
    // A solve that needs `p` pivots runs under a cap of `p + 1`. The
    // cap comes from the root alone, so a count that ran on across
    // nodes could not raise it.
    let cap = root.iterations + 1;
    assert!(
        pivots.iter().all(|&p| p < cap),
        "the root is the largest single solve: {pivots:?}, cap {cap}"
    );
    let total: usize = pivots.iter().sum();
    assert!(
        total > 3 * cap,
        "nodes need {total} pivots in all, cap {cap}"
    );
    let capped = SimplexOptions {
        max_iterations: cap,
        ..uncapped
    };
    let (_, mut core) = NodeCore::root(&lp.build(), capped).expect("root under the cap");
    for (b, &p) in boxes.iter().zip(&pivots) {
        let sol = core.relax(&b.build()).expect("answered under the cap");
        assert_eq!(sol.iterations, p);
    }
}
