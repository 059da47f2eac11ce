//! What the allocation-counting tests share: a global allocator that
//! tallies calls — which is why they are integration tests (the library
//! forbids `unsafe`), each alone in its binary (no other thread
//! allocates while it counts) — and the long solve they truncate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use prete_lp::{LinearProgram, Sense};

struct Counting;

/// Calls to `alloc` and `realloc` so far.
pub static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

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

/// A box-constrained covering LP of `200 · scale` rows over
/// `300 · scale` columns, each row covering 1 column in `8 · scale`:
/// well over a thousand primal pivots and bound flips from the
/// slack/artificial basis, one refactorization per 64 basis changes.
pub fn long_lp(scale: usize) -> LinearProgram {
    let mut state = 0x5EED_A110Cu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut lp = LinearProgram::new();
    let vars: Vec<_> = (0..300 * scale)
        .map(|_| lp.add_var(0.0, 0.5 + (next() % 4) as f64, 1.0 + (next() % 9) as f64))
        .collect();
    for _ in 0..200 * scale {
        let mut terms = Vec::new();
        for &v in &vars {
            if next() % (8 * scale as u64) == 0 {
                terms.push((v, 1.0 + (next() % 5) as f64));
            }
        }
        lp.add_constraint(terms, Sense::Ge, 6.0 + (next() % 7) as f64);
    }
    lp
}
