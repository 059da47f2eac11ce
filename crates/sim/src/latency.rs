//! Controller pipeline latency model (Figure 11).
//!
//! §5 measures, on a 32-core/256 GB controller, the stages triggered by
//! a degradation signal: optical-data analysis, NN model inference
//! (a few ms — training is offline), failure-scenario regeneration
//! (~10 ms), TE computation (sub-second, Figure 16(b)), and tunnel
//! establishment. Tunnel establishment dominates: switches are updated
//! *serially* ("their choice to serialize the creation of tunnels…"),
//! giving the linear update time of Figure 11(b) (~5 s for 20 tunnels
//! → ~250 ms per tunnel).

use serde::Serialize;

/// Per-stage latency parameters in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LatencyModel {
    /// Analyzing the optical data to flag the degradation.
    pub detection_ms: f64,
    /// NN forward pass for the degraded fiber's features.
    pub inference_ms: f64,
    /// Rebuilding the failure-scenario set after the probability jump.
    pub scenario_regen_ms: f64,
    /// Solving the TE optimization (the paper's Figure 16(b): < 1 s
    /// without new tunnels at these topology sizes).
    pub te_compute_ms: f64,
    /// Establishing one tunnel (serialized; switch config + ack).
    pub per_tunnel_ms: f64,
}

impl Default for LatencyModel {
    /// Values fitted to Figure 11: end-to-end control decision < 300 ms
    /// and ~5 s to update 20 tunnels.
    fn default() -> Self {
        Self {
            detection_ms: 40.0,
            inference_ms: 4.0,
            scenario_regen_ms: 10.0,
            te_compute_ms: 180.0,
            per_tunnel_ms: 250.0,
        }
    }
}

/// A named pipeline stage with its simulated duration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Stage {
    /// Stage label ("detection", "inference", …).
    pub name: String,
    /// Start offset from the degradation signal (ms).
    pub start_ms: f64,
    /// Duration (ms).
    pub duration_ms: f64,
}

/// The full pipeline timing for one degradation event.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PipelineTiming {
    /// Stages in execution order (the Figure 11(a) rectangles).
    pub stages: Vec<Stage>,
}

impl PipelineTiming {
    /// Total elapsed time from signal to all tunnels established (ms).
    pub fn total_ms(&self) -> f64 {
        self.stages
            .last()
            .map(|s| s.start_ms + s.duration_ms)
            .unwrap_or(0.0)
    }

    /// Elapsed time up to (and including) the control decision —
    /// everything except tunnel establishment. The paper reports
    /// < 300 ms end-to-end on the testbed.
    pub fn decision_ms(&self) -> f64 {
        self.stages
            .iter()
            .filter(|s| !s.name.starts_with("tunnel"))
            .map(|s| s.start_ms + s.duration_ms)
            .fold(0.0, f64::max)
    }
}

impl LatencyModel {
    /// Builds the pipeline timing for a degradation that requires
    /// `tunnels_to_update` new tunnels.
    pub fn pipeline(&self, tunnels_to_update: usize) -> PipelineTiming {
        let mut stages = Vec::new();
        let mut t = 0.0;
        let mut push = |name: &str, dur: f64, t: &mut f64| {
            stages.push(Stage {
                name: name.into(),
                start_ms: *t,
                duration_ms: dur,
            });
            *t += dur;
        };
        push("detection", self.detection_ms, &mut t);
        push("inference", self.inference_ms, &mut t);
        push("scenario-regen", self.scenario_regen_ms, &mut t);
        push("te-compute", self.te_compute_ms, &mut t);
        if tunnels_to_update > 0 {
            push(
                "tunnel-update",
                self.per_tunnel_ms * tunnels_to_update as f64,
                &mut t,
            );
        }
        PipelineTiming { stages }
    }

    /// Figure 11(b): total tunnel-update time (seconds) as a function
    /// of the tunnel count — linear by the serialization argument.
    pub fn update_time_s(&self, tunnels: usize) -> f64 {
        self.per_tunnel_ms * tunnels as f64 / 1000.0
    }

    /// Batched-update variant (§5's suggested mitigation: "update a
    /// dozen tunnels at a time"): serialized batches of `batch` tunnels
    /// in parallel within a batch.
    pub fn batched_update_time_s(&self, tunnels: usize, batch: usize) -> f64 {
        assert!(batch >= 1);
        let batches = tunnels.div_ceil(batch);
        self.per_tunnel_ms * batches as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_under_300ms() {
        // Figure 11(a): "the end-to-end latency in our testbed is less
        // than 300 milliseconds" (before tunnel establishment).
        let m = LatencyModel::default();
        let p = m.pipeline(20);
        assert!(p.decision_ms() < 300.0, "{}", p.decision_ms());
    }

    #[test]
    fn twenty_tunnels_take_about_five_seconds() {
        // Figure 11(b): ~5 s to update 20 tunnels.
        let m = LatencyModel::default();
        let t = m.update_time_s(20);
        assert!((4.0..=6.0).contains(&t), "{t}");
    }

    #[test]
    fn update_time_is_linear() {
        let m = LatencyModel::default();
        let t5 = m.update_time_s(5);
        let t10 = m.update_time_s(10);
        let t20 = m.update_time_s(20);
        assert!((t10 - 2.0 * t5).abs() < 1e-9);
        assert!((t20 - 2.0 * t10).abs() < 1e-9);
    }

    #[test]
    fn batching_reduces_update_time() {
        let m = LatencyModel::default();
        let serial = m.update_time_s(100);
        let batched = m.batched_update_time_s(100, 12);
        assert!(batched < serial / 8.0, "serial {serial}, batched {batched}");
        assert_eq!(m.batched_update_time_s(100, 1), serial);
    }

    #[test]
    fn stages_are_contiguous() {
        let m = LatencyModel::default();
        let p = m.pipeline(3);
        for w in p.stages.windows(2) {
            assert!((w[1].start_ms - (w[0].start_ms + w[0].duration_ms)).abs() < 1e-9);
        }
        assert_eq!(p.stages.len(), 5);
        assert!(p.total_ms() > p.decision_ms());
    }

    #[test]
    fn zero_tunnels_skips_update_stage() {
        let m = LatencyModel::default();
        let p = m.pipeline(0);
        assert!(p.stages.iter().all(|s| s.name != "tunnel-update"));
        assert!((p.total_ms() - p.decision_ms()).abs() < 1e-9);
    }
}
