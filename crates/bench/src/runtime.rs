//! Runtime experiments: Figure 11 (controller latency) and
//! Figure 16(b) (TE runtime vs new-tunnel ratio).

use crate::SEED;
use prete_core::algorithm1::{update_tunnels, TunnelUpdateConfig};
use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
use prete_core::prelude::*;
use prete_core::scenario::DegradationState;
use prete_sim::latency::{LatencyModel, PipelineTiming};
use prete_topology::{topologies, FiberId};
use serde::Serialize;
use std::time::Instant;

/// Figure 11 output: the stage breakdown plus the update-time curve.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11 {
    /// Stage breakdown for a 2-tunnel degradation reaction.
    pub pipeline: PipelineTiming,
    /// Wall-clock TE computation measured on B4 (ms) — grounding the
    /// model's `te_compute_ms`.
    pub measured_te_ms: f64,
    /// (tunnel count, update seconds) — the Figure 11(b) line.
    pub update_curve: Vec<(usize, f64)>,
}

/// Builds the Figure 11 data, measuring the actual TE solve.
pub fn fig11() -> Fig11 {
    let net = topologies::b4();
    let model = FailureModel::new(&net, SEED);
    let truth = TrueConditionals::ground_truth(&net, &model, 100, SEED);
    let flows = topologies::flows_for(&net, 0.08, SEED);
    let tunnels = TunnelSet::initialize(&net, &flows, 4);
    let est = ProbabilityEstimator::prete(&model, &truth);
    let probs = est.probabilities(&DegradationState::single(FiberId(0)));
    let scenarios = ScenarioSet::enumerate(&probs, 1, 0.0);
    let problem = TeProblem::new(&net, &flows, &tunnels, &scenarios);
    let t0 = Instant::now();
    let _ = TeSolver::new(&problem)
        .beta(0.999)
        .method(SolveMethod::Heuristic)
        .solve()
        .expect("heuristic solve");
    let measured_te_ms = t0.elapsed().as_secs_f64() * 1000.0;

    // The stage breakdown uses the calibrated production-controller
    // latencies (the paper's Gurobi-on-32-cores numbers); the measured
    // simplex time on this machine is reported alongside.
    let lat = LatencyModel::default();
    Fig11 {
        pipeline: lat.pipeline(2),
        measured_te_ms,
        update_curve: (0..=20)
            .step_by(4)
            .map(|n| (n, lat.update_time_s(n)))
            .collect(),
    }
}

/// One Figure 16(b) row.
#[derive(Debug, Clone, Serialize)]
pub struct RuntimeRow {
    /// Topology.
    pub topology: String,
    /// New-tunnel ratio.
    pub ratio: f64,
    /// Number of tunnels Algorithm 1 established.
    pub new_tunnels: usize,
    /// Measured TE computation time (s).
    pub te_compute_s: f64,
    /// Modelled tunnel-establishment time (s).
    pub tunnel_establish_s: f64,
    /// Total runtime (s).
    pub total_s: f64,
}

/// Figure 16(b): TE runtime as the new-tunnel ratio grows (tunnel
/// establishment dominates, per the §6.4 discussion).
pub fn fig16b(ratios: &[f64]) -> Vec<RuntimeRow> {
    let lat = LatencyModel::default();
    let mut rows = Vec::new();
    for net in [topologies::b4(), topologies::ibm()] {
        let model = FailureModel::new(&net, SEED);
        let truth = TrueConditionals::ground_truth(&net, &model, 100, SEED);
        let flows = topologies::flows_for(&net, 0.08, SEED);
        let tunnels = TunnelSet::initialize(&net, &flows, 4);
        let est = ProbabilityEstimator::prete(&model, &truth);
        // Degrade the busiest fiber.
        let fiber = net
            .fibers()
            .iter()
            .max_by_key(|f| tunnels.tunnels_on_fiber(&net, f.id))
            .map(|f| f.id)
            .unwrap_or(FiberId(0));
        for &ratio in ratios {
            let t0 = Instant::now();
            let mut ts = tunnels.clone();
            let created = update_tunnels(
                &net,
                &mut ts,
                fiber,
                TunnelUpdateConfig {
                    ratio,
                    max_new_per_flow: 40,
                },
            );
            let probs = est.probabilities(&DegradationState::single(fiber));
            let scenarios = ScenarioSet::enumerate(&probs, 1, 0.0);
            let problem = TeProblem::new(&net, &flows, &ts, &scenarios);
            let _ = TeSolver::new(&problem)
                .beta(0.999)
                .method(SolveMethod::Heuristic)
                .solve()
                .expect("heuristic solve");
            let te_compute_s = t0.elapsed().as_secs_f64();
            let tunnel_establish_s = lat.update_time_s(created.len());
            rows.push(RuntimeRow {
                topology: net.name.clone(),
                ratio,
                new_tunnels: created.len(),
                te_compute_s,
                tunnel_establish_s,
                total_s: te_compute_s + tunnel_establish_s,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_grows_with_ratio() {
        let rows = fig16b(&[0.0, 1.0, 3.0]);
        let b4: Vec<&RuntimeRow> = rows.iter().filter(|r| r.topology == "B4").collect();
        assert_eq!(b4.len(), 3);
        assert_eq!(b4[0].new_tunnels, 0);
        assert!(b4[1].new_tunnels > 0);
        assert!(b4[2].new_tunnels >= b4[1].new_tunnels);
        assert!(b4[2].total_s >= b4[1].total_s);
        // Ratio 0 keeps runtime under a second (paper: "< 1 s if we do
        // not establish any tunnels").
        assert!(b4[0].total_s < 3.0, "{}", b4[0].total_s);
    }

    #[test]
    fn fig11_breakdown_sane() {
        let f = fig11();
        assert!(
            f.measured_te_ms < 5_000.0,
            "TE solve took {} ms",
            f.measured_te_ms
        );
        assert_eq!(f.update_curve.first(), Some(&(0, 0.0)));
        let (_, t20) = *f.update_curve.last().unwrap();
        assert!((4.0..=6.0).contains(&t20));
    }
}
