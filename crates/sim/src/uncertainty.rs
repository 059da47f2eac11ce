//! Workload vs capacity uncertainty (Figure 17, Figure 19, Appendix A.7).
//!
//! Two things perturb tunnel traffic between TE periods: demand drift
//! (*workload uncertainty*) and failures (*capacity uncertainty*). The
//! paper measures (a) per-tunnel traffic variation under each source,
//! split by whether the flow is affected by the failure (Figure 19),
//! and (b) flow availability when a scheme predicts demands
//! (`TeaVaR*`/`PreTE*`) versus failures (`PreTE`) versus neither
//! (`TeaVaR`) — Figure 17. The punchline: demand drift within a TE
//! period is small, so failure prediction is worth far more than
//! demand prediction once the network is loaded.

use prete_core::capacity::CapacityGroups;
use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
use prete_core::eval::{AvailabilityEvaluator, EvalConfig};
use prete_core::prelude::*;
use prete_core::scenario::DegradationState;
use prete_core::schemes::{Plan, PreTeScheme, ReactionModel, TeContext, TeScheme, TeaVarScheme};
use prete_topology::FiberId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// A scheme wrapper that *plans* with one (stale or predicted) demand
/// set while being *evaluated* against another — the Figure 17 knob.
pub struct DemandShiftScheme<'a> {
    /// The wrapped scheme.
    pub inner: &'a dyn TeScheme,
    /// The demands the scheme believes in at planning time.
    pub planning_flows: Vec<Flow>,
    /// Label suffix ("" or "*").
    pub label: String,
}

impl DemandShiftScheme<'_> {
    /// `ctx` with the planning-time demands swapped in.
    fn shifted<'c>(&'c self, ctx: &TeContext<'c>) -> TeContext<'c> {
        TeContext {
            net: ctx.net,
            model: ctx.model,
            flows: &self.planning_flows,
            base_tunnels: ctx.base_tunnels,
        }
    }
}

impl TeScheme for DemandShiftScheme<'_> {
    fn name(&self) -> String {
        format!("{}{}", self.inner.name(), self.label)
    }

    fn reaction(&self) -> ReactionModel {
        self.inner.reaction()
    }

    fn state_aware(&self) -> bool {
        self.inner.state_aware()
    }

    fn beta(&self) -> f64 {
        self.inner.beta()
    }

    fn tunnels(&self, ctx: &TeContext<'_>, state: &DegradationState) -> TunnelSet {
        self.inner.tunnels(&self.shifted(ctx), state)
    }

    fn plan(
        &self,
        ctx: &TeContext<'_>,
        state: &DegradationState,
        probs_override: Option<&[f64]>,
    ) -> Plan {
        self.inner.plan(&self.shifted(ctx), state, probs_override)
    }
}

/// One Figure 19 bar: mean per-tunnel traffic variation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VariationRow {
    /// `"workload"` or `"capacity"`.
    pub source: String,
    /// Whether the row covers flows affected by the failure.
    pub affected: bool,
    /// Mean absolute per-tunnel traffic change (Gbps).
    pub mean_variation_gbps: f64,
}

/// One Figure 17 bar: a scheme's availability at the given scale.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SchemeAvailability {
    /// Scheme label (`TeaVaR`, `TeaVaR*`, `PreTE`, `PreTE*`).
    pub scheme: String,
    /// Demand-weighted mean availability.
    pub availability: f64,
}

/// Combined uncertainty report.
#[derive(Debug, Clone, Serialize)]
pub struct UncertaintyReport {
    /// Figure 19 rows.
    pub variation: Vec<VariationRow>,
    /// Figure 17 bars for this demand scale.
    pub availability: Vec<SchemeAvailability>,
    /// The demand scale evaluated.
    pub scale: f64,
}

/// Multiplies demands by per-flow jitter in `[1-jitter, 1+jitter]`.
fn jittered(flows: &[Flow], jitter: f64, seed: u64) -> Vec<Flow> {
    let mut rng = StdRng::seed_from_u64(seed);
    flows
        .iter()
        .map(|f| Flow {
            demand_gbps: f.demand_gbps * (1.0 + jitter * (2.0 * rng.gen::<f64>() - 1.0)),
            ..*f
        })
        .collect()
}

/// Runs the full uncertainty experiment on a topology at a demand
/// scale: Figure 19 variation rows plus Figure 17 availability bars.
#[allow(clippy::too_many_arguments)]
pub fn uncertainty_experiment(
    net: &Network,
    model: &FailureModel,
    truth: &TrueConditionals,
    base_flows: &[Flow],
    tunnels: &TunnelSet,
    scale: f64,
    demand_jitter: f64,
    seed: u64,
) -> UncertaintyReport {
    let stale: Vec<Flow> = base_flows
        .iter()
        .map(|f| Flow {
            demand_gbps: f.demand_gbps * scale,
            ..*f
        })
        .collect();
    let realized = jittered(&stale, demand_jitter, seed);
    let groups = CapacityGroups::build(net);

    // ---- Figure 19: per-tunnel variation.
    let teavar = TeaVarScheme::new(model, 0.999);
    let ctx_stale = TeContext {
        net,
        model,
        flows: &stale,
        base_tunnels: tunnels,
    };
    let ctx_real = TeContext {
        net,
        model,
        flows: &realized,
        base_tunnels: tunnels,
    };
    let plan_old = teavar.plan(&ctx_stale, &DegradationState::healthy(), None);
    let plan_new = teavar.plan(&ctx_real, &DegradationState::healthy(), None);
    // The failure used to split flows into affected/unaffected: the
    // fiber carrying the most tunnels.
    let worst_fiber = net
        .fibers()
        .iter()
        .max_by_key(|f| tunnels.tunnels_on_fiber(net, f.id))
        .map(|f| f.id)
        .unwrap_or(FiberId(0));
    let affected_flows: Vec<bool> = {
        let hit = tunnels.flows_affected_by(net, worst_fiber);
        (0..stale.len())
            .map(|i| hit.contains(&stale[i].id))
            .collect()
    };
    let mut rows = Vec::new();
    for affected in [true, false] {
        // Workload: |allocation change| between consecutive plans.
        let mut acc = 0.0;
        let mut n = 0usize;
        for t in tunnels.tunnels() {
            if affected_flows[t.flow.index()] == affected {
                acc +=
                    (plan_new.allocation[t.id.index()] - plan_old.allocation[t.id.index()]).abs();
                n += 1;
            }
        }
        rows.push(VariationRow {
            source: "workload".into(),
            affected,
            mean_variation_gbps: if n > 0 { acc / n as f64 } else { 0.0 },
        });
        // Capacity: |traffic change| when the worst fiber actually cuts
        // and rate adaptation moves traffic to the survivors.
        let mut acc = 0.0;
        let mut n = 0usize;
        for (fi, flow) in stale.iter().enumerate() {
            if affected_flows[fi] != affected {
                continue;
            }
            for &tid in tunnels.of_flow(flow.id) {
                let t = tunnels.tunnel(tid);
                let before = plan_old.allocation[tid.index()];
                let after = if t.survives(net, &[worst_fiber]) {
                    before
                } else {
                    0.0
                };
                acc += (after - before).abs();
                n += 1;
            }
        }
        let _ = &groups;
        rows.push(VariationRow {
            source: "capacity".into(),
            affected,
            mean_variation_gbps: if n > 0 { acc / n as f64 } else { 0.0 },
        });
    }

    // ---- Figure 17: availability of TeaVaR / TeaVaR* / PreTE / PreTE*.
    let cfg = EvalConfig {
        top_k_degraded: 6,
        ..Default::default()
    };
    let evaluator = AvailabilityEvaluator::new(net, model, realized.clone(), tunnels, truth, cfg);
    let prete_inner = PreTeScheme::new(0.999, ProbabilityEstimator::prete(model, truth));
    let mut availability = Vec::new();
    let schemes: Vec<(&dyn TeScheme, &str, bool)> = vec![
        (&teavar, "TeaVaR", false),
        (&teavar, "TeaVaR*", true),
        (&prete_inner, "PreTE", false),
        (&prete_inner, "PreTE*", true),
    ];
    for (inner, label, predicted_demand) in schemes {
        // A scheme with demand prediction plans on the realized matrix;
        // one without plans on the last-period demands padded to the
        // drift envelope — operators know the drift magnitude even when
        // they cannot predict its direction, and planning without that
        // headroom drops a flow the moment it jitters upward.
        let planning = if predicted_demand {
            realized.clone()
        } else {
            stale
                .iter()
                .map(|f| Flow {
                    demand_gbps: f.demand_gbps * (1.0 + demand_jitter),
                    ..*f
                })
                .collect()
        };
        let wrapped = DemandShiftScheme {
            inner,
            planning_flows: planning,
            label: String::new(),
        };
        let r = evaluator.evaluate(&wrapped);
        availability.push(SchemeAvailability {
            scheme: label.into(),
            availability: r.mean,
        });
    }

    UncertaintyReport {
        variation: rows,
        availability,
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prete_core::examples::{triangle, triangle_flows};

    fn fixture() -> (
        Network,
        FailureModel,
        TrueConditionals,
        Vec<Flow>,
        TunnelSet,
    ) {
        let net = triangle();
        let model = FailureModel::new(&net, 42);
        let truth = TrueConditionals::ground_truth(&net, &model, 60, 3);
        let flows: Vec<Flow> = triangle_flows()
            .into_iter()
            .map(|f| Flow {
                demand_gbps: 4.0,
                ..f
            })
            .collect();
        let tunnels = TunnelSet::initialize(&net, &flows, 2);
        (net, model, truth, flows, tunnels)
    }

    #[test]
    fn demand_shift_delegates_tunnels_and_beta() {
        let (net, model, truth, flows, _) = fixture();
        let thin = TunnelSet::initialize(&net, &flows, 1);
        let ctx = TeContext {
            net: &net,
            model: &model,
            flows: &flows,
            base_tunnels: &thin,
        };
        let inner = PreTeScheme::new(0.995, ProbabilityEstimator::prete(&model, &truth));
        let shifted = DemandShiftScheme {
            inner: &inner,
            planning_flows: flows.clone(),
            label: "*".into(),
        };
        assert_eq!(shifted.beta(), 0.995);
        let state = DegradationState::single(FiberId(0));
        let alone = shifted.tunnels(&ctx, &state);
        assert!(alone.len() > thin.len());
        assert_eq!(
            alone.tunnels(),
            shifted.plan(&ctx, &state, None).tunnels.tunnels()
        );
    }

    #[test]
    fn capacity_variation_dwarfs_workload_for_affected_flows() {
        // Figure 19 / Appendix A.7: failures move far more traffic than
        // demand drift for the flows they hit.
        let (net, model, truth, flows, tunnels) = fixture();
        let r = uncertainty_experiment(&net, &model, &truth, &flows, &tunnels, 1.0, 0.05, 1);
        let get = |src: &str, aff: bool| {
            r.variation
                .iter()
                .find(|v| v.source == src && v.affected == aff)
                .expect("row")
                .mean_variation_gbps
        };
        assert!(
            get("capacity", true) > 3.0 * get("workload", true),
            "capacity {} vs workload {}",
            get("capacity", true),
            get("workload", true)
        );
        // Unaffected flows barely move under the failure.
        assert!(get("capacity", false) <= get("capacity", true));
    }

    #[test]
    fn all_four_schemes_reported() {
        let (net, model, truth, flows, tunnels) = fixture();
        let r = uncertainty_experiment(&net, &model, &truth, &flows, &tunnels, 1.0, 0.05, 2);
        let names: Vec<&str> = r.availability.iter().map(|s| s.scheme.as_str()).collect();
        assert_eq!(names, vec!["TeaVaR", "TeaVaR*", "PreTE", "PreTE*"]);
        for s in &r.availability {
            assert!(
                (0.0..=1.0).contains(&s.availability),
                "{}: {}",
                s.scheme,
                s.availability
            );
        }
    }

    #[test]
    fn underload_makes_prediction_irrelevant() {
        // Figure 17 at scale 1: "little improvement when we reduce the
        // uncertainty when the network is underloaded".
        let (net, model, truth, flows, tunnels) = fixture();
        let r = uncertainty_experiment(&net, &model, &truth, &flows, &tunnels, 0.5, 0.05, 3);
        let a: Vec<f64> = r.availability.iter().map(|s| s.availability).collect();
        // All four within a point of each other.
        let spread =
            a.iter().cloned().fold(0.0f64, f64::max) - a.iter().cloned().fold(1.0f64, f64::min);
        assert!(spread < 0.02, "spread {spread} (availabilities {a:?})");
    }
}
