//! The sparse engine's pivots allocate nothing: every vector an
//! iteration fills lives in the core's workspace, the eta file keeps
//! its storage across refactorizations, and only a refactorization
//! (one per 64 basis changes) builds new vectors. Counted
//! with a global allocator that tallies calls — which is why this is
//! an integration test (the library forbids `unsafe`) and the only
//! test in its binary (no other thread allocates while it counts).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use prete_lp::{solve_with, LinearProgram, Sense, SimplexOptions, SolveStatus};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a relaxed statistic that
// publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's promise.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A box-constrained covering LP that takes well over a thousand
/// primal pivots and bound flips from the slack/artificial basis.
fn long_lp() -> LinearProgram {
    let mut state = 0x5EED_A110Cu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut lp = LinearProgram::new();
    let vars: Vec<_> = (0..300)
        .map(|_| lp.add_var(0.0, 0.5 + (next() % 4) as f64, 1.0 + (next() % 9) as f64))
        .collect();
    for _ in 0..200 {
        let mut terms = Vec::new();
        for &v in &vars {
            if next() % 8 == 0 {
                terms.push((v, 1.0 + (next() % 5) as f64));
            }
        }
        lp.add_constraint(terms, Sense::Ge, 6.0 + (next() % 7) as f64);
    }
    lp
}

#[test]
fn a_pivot_allocates_nothing() {
    let lp = long_lp();
    // (refactorizations, allocations) of the solve cut off after
    // `max_iterations` pivots and bound flips.
    let truncated = |max_iterations: usize| {
        let opts = SimplexOptions { max_iterations, ..Default::default() };
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let sol = solve_with(&lp, opts);
        let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!((sol.status, sol.iterations), (SolveStatus::IterationLimit, max_iterations));
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
    assert!(longer - shorter <= 4, "24 iterations allocated {shorter} → {longer}");
}
