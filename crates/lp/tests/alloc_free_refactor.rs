//! A refactorization allocates its factors and nothing else: the
//! entry store, the row lists, the singleton queue and the bump's
//! cells live in the core's workspace and are reused, so the count per
//! refactorization is a small constant whatever the size of the basis.
//! The layout this replaced cloned the basis columns and built two
//! `Vec`s per row on every call — 3·m allocations and more per
//! refactorization: 1 111 and 2 957 on the two programs below (200 and
//! 800 rows), where this test reads 16.4 and 16.6.
//! Counted with the tallying allocator of `common/mod.rs`, as in
//! `alloc_free_pivots.rs`; the only test in its binary.

mod common;

use std::sync::atomic::Ordering;

use common::{long_lp, ALLOCATIONS};
use prete_lp::{solve_with, LinearProgram, SimplexOptions, SolveStatus};

/// Allocations per refactorization between two truncations of one
/// solve of `lp` that straddle at least four of them: the truncated
/// solves are the same solve up to the shorter cap, and a pivot
/// allocates nothing (`alloc_free_pivots.rs`), so what the longer one
/// allocates on top is what its extra refactorizations allocate.
fn allocations_per_refactorization(lp: &LinearProgram) -> f64 {
    let truncated = |max_iterations: usize| {
        let opts = SimplexOptions { max_iterations, ..Default::default() };
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let sol = solve_with(lp, opts);
        let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!((sol.status, sol.iterations), (SolveStatus::IterationLimit, max_iterations));
        (sol.engine.refactorizations, spent)
    };
    let (short, long) = (truncated(400), truncated(400 + 5 * 64));
    let refactorizations = long.0 - short.0;
    assert!(refactorizations >= 4, "{} → {} refactorizations", short.0, long.0);
    (long.1 - short.1) as f64 / refactorizations as f64
}

#[test]
fn a_refactorization_allocates_its_factors_and_nothing_else() {
    let (small, large) = (long_lp(1), long_lp(4));
    assert_eq!((small.num_constraints(), large.num_constraints()), (200, 800));
    let per_small = allocations_per_refactorization(&small);
    let per_large = allocations_per_refactorization(&large);
    // Thirteen factor arrays, plus the odd growth of a workspace
    // vector or of the eta file.
    assert!(per_small <= 24.0, "m = 200: {per_small:.1} allocations per refactorization");
    assert!(per_large <= 24.0, "m = 800: {per_large:.1} allocations per refactorization");
}
