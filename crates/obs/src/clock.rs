//! Injectable time sources.
//!
//! Every timestamp the recorder takes goes through a [`Clock`] so the
//! same instrumentation serves two regimes:
//!
//! * **live** — [`MonotonicClock`] reads `std::time::Instant`, giving
//!   real wall-time spans and histograms for operating a deployment;
//! * **replay** — [`LogicalClock`] counts clock *reads*, so a replay
//!   of the same trace takes the same sequence of timestamps on any
//!   machine and the exported run report is bit-identical (the PR 2
//!   replay-equality contract extends to observability).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotone time source, read at span boundaries and event emission.
pub trait Clock: Send + Sync {
    /// Milliseconds elapsed since the clock's origin. Must be monotone
    /// non-decreasing across calls.
    fn now_ms(&self) -> f64;

    /// Whether timestamps are a pure function of the call sequence
    /// (true for [`LogicalClock`]) rather than wall time. Deterministic
    /// recorders produce bit-identical run reports across replays.
    fn is_deterministic(&self) -> bool {
        false
    }
}

/// Wall-clock time relative to construction.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock anchored at "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }
}

/// A deterministic clock that advances a fixed tick on every read.
///
/// Span durations under this clock measure *instrumentation structure*
/// (how many timestamps were taken inside the span), not wall time —
/// exactly what a replay needs to compare two runs for identity.
#[derive(Debug)]
pub struct LogicalClock {
    ticks: AtomicU64,
    tick_ms: f64,
}

impl LogicalClock {
    /// A logical clock advancing `tick_ms` per read.
    pub fn new(tick_ms: f64) -> Self {
        assert!(
            tick_ms > 0.0 && tick_ms.is_finite(),
            "tick must be positive"
        );
        Self {
            ticks: AtomicU64::new(0),
            tick_ms,
        }
    }
}

impl Default for LogicalClock {
    /// One millisecond per read.
    fn default() -> Self {
        Self::new(1.0)
    }
}

impl Clock for LogicalClock {
    fn now_ms(&self) -> f64 {
        self.ticks.fetch_add(1, Ordering::Relaxed) as f64 * self.tick_ms
    }

    fn is_deterministic(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_monotone() {
        let c = MonotonicClock::new();
        let a = c.now_ms();
        let b = c.now_ms();
        assert!(b >= a);
        assert!(!c.is_deterministic());
    }

    #[test]
    fn logical_clock_counts_reads() {
        let c = LogicalClock::new(2.0);
        assert_eq!(c.now_ms(), 0.0);
        assert_eq!(c.now_ms(), 2.0);
        assert_eq!(c.now_ms(), 4.0);
        assert!(c.is_deterministic());
    }

    #[test]
    #[should_panic(expected = "tick must be positive")]
    fn zero_tick_rejected() {
        let _ = LogicalClock::new(0.0);
    }
}
