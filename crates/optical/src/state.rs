//! Fiber state machine and classification thresholds.
//!
//! §2.1 / §3.1: a fiber *cut* is a transmission-loss increase of at
//! least 10 dB over the healthy state (or total signal loss); a
//! *degradation* is an increase of 3–10 dB — enough to hurt SNR but
//! still error-free decodable.

use serde::Serialize;

/// Loss increase (dB over healthy baseline) at which a fiber counts as
/// degraded.
pub const DEGRADATION_THRESHOLD_DB: f64 = 3.0;

/// Loss increase (dB over healthy baseline) at which a fiber counts as
/// cut.
pub const CUT_THRESHOLD_DB: f64 = 10.0;

/// Observable state of a fiber at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FiberState {
    /// Loss at (or near) the healthy baseline.
    Healthy,
    /// Loss elevated by 3–10 dB: degraded but still carrying traffic.
    Degraded,
    /// Loss elevated ≥ 10 dB (or signal absent): the fiber is cut.
    Cut,
}

impl FiberState {
    /// Whether the optical signal still decodes (healthy or degraded).
    pub fn carries_traffic(self) -> bool {
        self != FiberState::Cut
    }
}

/// Classifies a loss excess (dB above the healthy baseline).
pub fn classify_excess(excess_db: f64) -> FiberState {
    if excess_db >= CUT_THRESHOLD_DB {
        FiberState::Cut
    } else if excess_db >= DEGRADATION_THRESHOLD_DB {
        FiberState::Degraded
    } else {
        FiberState::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_match_paper() {
        assert_eq!(classify_excess(0.0), FiberState::Healthy);
        assert_eq!(classify_excess(2.99), FiberState::Healthy);
        assert_eq!(classify_excess(3.0), FiberState::Degraded);
        assert_eq!(classify_excess(9.99), FiberState::Degraded);
        assert_eq!(classify_excess(10.0), FiberState::Cut);
        assert_eq!(classify_excess(45.0), FiberState::Cut);
    }

    #[test]
    fn traffic_carrying() {
        assert!(FiberState::Healthy.carries_traffic());
        assert!(FiberState::Degraded.carries_traffic());
        assert!(!FiberState::Cut.carries_traffic());
    }

    #[test]
    fn negative_excess_is_healthy() {
        assert_eq!(classify_excess(-1.0), FiberState::Healthy);
    }
}
