//! The sparse engine's pivots allocate nothing: every vector an
//! iteration fills lives in the core's workspace, the eta file keeps
//! its storage across refactorizations, and only a refactorization
//! (one per 64 basis changes) builds new vectors. Counted with the
//! tallying allocator of `common/mod.rs`; the only test in its binary.

mod common;

use std::sync::atomic::Ordering;

use common::{long_lp, ALLOCATIONS};
use prete_lp::{solve_with, SimplexOptions, SolveStatus};

#[test]
fn a_pivot_allocates_nothing() {
    let lp = long_lp(1);
    // (refactorizations, allocations) of the solve cut off after
    // `max_iterations` pivots and bound flips.
    let truncated = |max_iterations: usize| {
        let opts = SimplexOptions {
            max_iterations,
            ..Default::default()
        };
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let sol = solve_with(&lp, opts);
        let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            (sol.status, sol.iterations),
            (SolveStatus::IterationLimit, max_iterations)
        );
        (sol.engine.refactorizations, spent)
    };
    let full = solve_with(&lp, SimplexOptions::default());
    assert_eq!(full.status, SolveStatus::Optimal);
    assert!(full.iterations > 1_000, "{} iterations", full.iterations);
    // Two truncations of that solve, 24 iterations apart with no
    // refactorization between them, differ by those 24 iterations and
    // by nothing else — so whatever the longer one allocates on top is
    // what 24 iterations allocate: nothing (5 843 → 5 843), with room
    // for the eta file to grow a vector once in a while. The layout
    // this replaced allocated 386 times in the same 24 iterations
    // (8 846 → 9 232).
    let mut cap = 136;
    let (shorter, longer) = loop {
        let (short, long) = (truncated(cap), truncated(cap + 24));
        if short.0 == long.0 {
            break (short.1, long.1);
        }
        cap += 8;
        assert!(cap < 400, "no 24 iterations without a refactorization");
    };
    assert!(
        longer - shorter <= 4,
        "24 iterations allocated {shorter} → {longer}"
    );
}
