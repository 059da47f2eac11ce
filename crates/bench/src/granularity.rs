//! Telemetry granularity study: Figure 20(a) / Appendix A.8.
//!
//! A legacy telemetry system sampling every `g` seconds only *sees* a
//! degradation if a sample instant lands inside the degraded window —
//! and only helps if that happens before the cut. With 50 % of
//! degradations shorter than 10 s (Figure 4(a)), minute-level sampling
//! misses almost all of them: the paper reports the coverage ratio
//! falling from 25 % at 1 s granularity to 2 % at 5 minutes.

use crate::measurement::year_dataset;
use serde::Serialize;

/// One Figure 20(a) row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GranularityRow {
    /// Sampling interval in seconds.
    pub granularity_s: u64,
    /// Coverage ratio: captured predictable cuts / all cuts.
    pub coverage: f64,
    /// Occurrence ratio: captured predictable cuts / all degradations
    /// (the Appendix A.8 definition).
    pub occurrence: f64,
    /// Fraction of degradations captured at all.
    pub degradations_captured: f64,
}

/// Whether a sampling grid with period `g` has a sample instant inside
/// `[start, start + duration)` at or before `deadline` (if any).
fn captured(start: u64, duration: u64, g: u64, deadline: Option<u64>) -> bool {
    // First multiple of g at or after start.
    let first = start.div_ceil(g) * g;
    if first >= start + duration {
        return false;
    }
    match deadline {
        Some(d) => first <= d,
        None => true,
    }
}

/// Computes the coverage/occurrence ratios across granularities.
pub fn fig20a(granularities: &[u64]) -> Vec<GranularityRow> {
    let (_net, _model, ds) = year_dataset();
    let total_cuts = ds.cuts.len().max(1);
    granularities
        .iter()
        .map(|&g| {
            let mut captured_degs = 0usize;
            let mut captured_predictable = 0usize;
            for e in &ds.events {
                let deadline = e.cut_delay_s.map(|d| e.start_s + d);
                if captured(
                    e.start_s,
                    e.duration_s.max(1),
                    g,
                    deadline.map(|d| d.max(e.start_s)),
                ) {
                    captured_degs += 1;
                    if e.led_to_cut {
                        captured_predictable += 1;
                    }
                }
            }
            GranularityRow {
                granularity_s: g,
                coverage: captured_predictable as f64 / total_cuts as f64,
                occurrence: captured_predictable as f64 / ds.events.len().max(1) as f64,
                degradations_captured: captured_degs as f64 / ds.events.len().max(1) as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captured_logic() {
        // Window [10, 20), grid 5 → sample at 10 ✓.
        assert!(captured(10, 10, 5, None));
        // Window [11, 14), grid 5 → samples at 10, 15 — none inside.
        assert!(!captured(11, 3, 5, None));
        // Deadline before the first in-window sample → missed.
        assert!(!captured(11, 10, 5, Some(14)));
        assert!(captured(11, 10, 5, Some(15)));
        // 1-second grid captures everything with duration ≥ 1.
        assert!(captured(123, 1, 1, None));
    }

    #[test]
    fn coverage_falls_with_coarser_sampling() {
        let rows = fig20a(&[1, 60, 300]);
        assert!(rows[0].coverage > rows[1].coverage);
        assert!(rows[1].coverage >= rows[2].coverage);
        // At 1 s the coverage is the full predictable fraction α ≈ 25 %.
        assert!(
            (0.15..=0.35).contains(&rows[0].coverage),
            "1s coverage {}",
            rows[0].coverage
        );
        // At 5 min it collapses towards the paper's 2 %.
        assert!(
            rows[2].coverage < 0.10,
            "300s coverage {}",
            rows[2].coverage
        );
    }

    #[test]
    fn fine_grid_captures_all_degradations() {
        let rows = fig20a(&[1]);
        assert!((rows[0].degradations_captured - 1.0).abs() < 1e-9);
    }
}
