//! Training allocates nothing per sample or per batch: the nonzero
//! inputs of a sample live on the stack, and the hidden-layer scratch
//! and the six gradient buffers are allocated once per `Mlp::train`
//! call. Counted with a tallying global allocator — which is why this
//! is an integration test (the library forbids `unsafe`), the only test
//! in its binary (no other thread allocates while it counts).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use prete_nn::encoder::FeatureMask;
use prete_nn::{Mlp, Predictor, TrainConfig};
use prete_optical::{DegradationEvent, DegradationFeatures};
use prete_topology::FiberId;

struct Counting;

/// Calls to `alloc` and `realloc` so far.
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

/// Calls to the allocator made while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// 200 events over 5 fibers, 3 regions and 2 vendors; high degree
/// leads to a cut.
fn events() -> Vec<DegradationEvent> {
    (0..200)
        .map(|i| {
            let degree = 3.0 + (i * 37 % 70) as f64 / 10.0;
            DegradationEvent {
                fiber: FiberId(i % 5),
                start_s: i as u64 * 600,
                duration_s: 10,
                features: DegradationFeatures {
                    hour: (i % 24) as u8,
                    degree_db: degree,
                    gradient_db: (i % 10) as f64 / 10.0,
                    fluctuation: (i % 40) as u32,
                    region: i % 3,
                    fiber_id: i % 5,
                    length_km: 500.0,
                    vendor: i % 2,
                },
                led_to_cut: degree > 6.5,
                cut_delay_s: None,
            }
        })
        .collect()
}

#[test]
fn training_and_prediction_allocate_nothing_per_sample() {
    let events = events();
    let refs: Vec<&DegradationEvent> = events.iter().collect();
    for mask in [FeatureMask::ALL, FeatureMask::without("fiber_id")] {
        let train = |epochs| {
            let cfg = TrainConfig {
                epochs,
                seed: 5,
                mask,
                ..Default::default()
            };
            allocations(|| Mlp::train(&refs, cfg))
        };
        // The first call also pays one-time allocations of the process.
        let _ = train(1);
        // Four more epochs are 824 more sample steps and 28 more
        // batches: one buffer built per step or per batch shows as 824
        // or 28 more allocations.
        let ((_, short), (model, long)) = (train(2), train(6));
        assert_eq!(short, long, "epochs 2 → 6 allocated {short} → {long}");

        // One call encodes, runs the forward pass and returns p₁: the
        // hidden layer is its only buffer.
        for e in &events[..20] {
            let (p, spent) = allocations(|| model.predict_proba(e));
            assert!((0.0..=1.0).contains(&p));
            assert!(spent <= 1, "predict_proba allocated {spent} times");
        }
    }
}
