//! Chaos-soak experiments behind the `chaos_soak` binary.
//!
//! [`fleet_soak_over`] assembles one WAN-shaped controller testbed per
//! tenant — const-probability predictor, heuristic solve with a
//! warm-start cache, default retry policy — wraps each in the
//! crash-safe [`DurableController`](prete_sim::DurableController)
//! machinery under the fleet runtime and drives them through a seeded
//! [`FleetChaosPlan`]: random crash/restart cycles, corrupted
//! checkpoints and truncated journals, with every epoch checked
//! against the chaos invariants (availability floor, finite
//! allocations, span-tree well-formedness, bit-identity with an
//! uninterrupted solo run, monotone warm-cache counters, cross-tenant
//! isolation). One tenant is the single-controller soak.

use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
use prete_core::prelude::*;
use prete_core::schemes::PreTeScheme;
use prete_nn::Predictor;
use prete_optical::DegradationEvent;
use prete_sim::{
    fleet_chaos_soak, CheckpointError, Controller, FleetChaosPlan, FleetConfig, FleetSoakReport,
    RetryPolicy, RobustController, ScriptedWorkload, TenantSpec,
};
use prete_topology::{topologies, Network};
use std::fmt::Write as _;

/// Fixed-probability predictor: keeps the soak workload independent of
/// NN training so runs are cheap and bit-reproducible.
struct ConstPredictor(f64);
impl Predictor for ConstPredictor {
    fn predict_proba(&self, _e: &DegradationEvent) -> f64 {
        self.0
    }
}

/// Everything one fleet tenant borrows: its own topology, failure
/// model, flows, tunnels, scheme and predictor. Built once, outlives
/// the soak (every [`TenantSpec`] borrows from it).
pub struct TenantLeaves {
    /// Tenant name, e.g. `b4-0`.
    pub name: String,
    /// Seed of the tenant's durable seed stream.
    pub run_seed: u64,
    net: Network,
    model: FailureModel,
    flows: Vec<Flow>,
    tunnels: TunnelSet,
    scheme: PreTeScheme,
    predictor: ConstPredictor,
}

/// Builds leaves for a `tenants`-wide fleet alternating the B4 and IBM
/// topologies — each tenant gets its own failure model, flow set and
/// seed stream, so no two tenants share any mutable state.
pub fn mixed_tenant_leaves(tenants: usize, flow_frac: f64, seed: u64) -> Vec<TenantLeaves> {
    (0..tenants)
        .map(|i| {
            let (kind, net) =
                if i % 2 == 0 { ("b4", topologies::b4()) } else { ("ibm", topologies::ibm()) };
            let tenant_seed = seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let model = FailureModel::new(&net, tenant_seed);
            let flows = topologies::flows_for(&net, flow_frac, tenant_seed);
            let tunnels = TunnelSet::initialize(&net, &flows, 2);
            let truth = TrueConditionals::ground_truth(&net, &model, 40, 1);
            let scheme = PreTeScheme::new(0.99, ProbabilityEstimator::prete(&model, &truth));
            TenantLeaves {
                name: format!("{kind}-{i}"),
                run_seed: tenant_seed ^ 0xf1ee,
                net,
                model,
                flows,
                tunnels,
                scheme,
                predictor: ConstPredictor(0.8),
            }
        })
        .collect()
}

/// Builds one fleet spec per leaf, borrowing topology, model and flows
/// from `leaves`. Shared by the soak and the telemetry experiments.
pub fn tenant_specs(leaves: &[TenantLeaves], checkpoint_every: u64) -> Vec<TenantSpec<'_>> {
    leaves
        .iter()
        .map(|l| {
            let mut spec = TenantSpec::new(
                l.name.clone(),
                move || {
                    RobustController::new(
                        Controller::new(
                            &l.net,
                            &l.model,
                            &l.flows,
                            &l.tunnels,
                            &l.predictor,
                            &l.scheme,
                        ),
                        // Heuristic keeps 50-epoch soaks inside the CI
                        // budget; it still drives the warm-start cache
                        // (its subproblem LPs warm-hit across epochs),
                        // so the checkpointed cache snapshot genuinely
                        // matters for the bit-identity invariant. The
                        // Benders path is soaked on the triangle
                        // testbed in `prete-sim::fleet`'s own tests.
                        SolveMethod::Heuristic,
                        RetryPolicy::default(),
                    )
                },
                ScriptedWorkload::new(l.net.fibers().len()),
                l.run_seed,
            );
            spec.checkpoint_every = checkpoint_every;
            spec
        })
        .collect()
}

/// Runs one chaos soak over pre-built tenant leaves, one durable
/// controller per tenant.
pub fn fleet_soak_over(
    leaves: &[TenantLeaves],
    checkpoint_every: u64,
    cfg: &FleetConfig,
    plan: &FleetChaosPlan,
) -> Result<FleetSoakReport, CheckpointError> {
    let mk_specs = || tenant_specs(leaves, checkpoint_every);
    fleet_chaos_soak(&mk_specs, cfg, plan)
}

/// Renders one fleet soak as a text summary.
pub fn render_fleet_soak(report: &FleetSoakReport) -> String {
    let mut s = String::new();
    let p = &report.plan;
    let _ = writeln!(
        s,
        "Fleet chaos soak: seed={} tenants={} epochs={} rounds={} crash_prob={} floor={}",
        p.seed, report.tenants, p.epochs, report.rounds, p.crash_prob, p.availability_floor
    );
    let _ = writeln!(
        s,
        "  recoveries={} quarantined={} events_injected={}",
        report.fleet.recoveries,
        report.fleet.quarantined,
        report.events_injected.len()
    );
    for t in &report.fleet.tenants {
        let _ = writeln!(
            s,
            "  tenant {}: epochs={} executions={} recoveries={} digest={:016x}{}",
            t.name,
            t.epochs,
            t.executions,
            t.recoveries,
            t.fingerprint_digest,
            t.quarantined
                .as_deref()
                .map(|r| format!(" QUARANTINED: {r}"))
                .unwrap_or_default()
        );
    }
    match (&report.violation, &report.shrunk) {
        (Some(v), shrunk) => {
            let _ = writeln!(
                s,
                "  VIOLATION [{}] tenant {} ({}) epoch {} under {:?}: {}",
                v.invariant, v.tenant, v.name, v.epoch, v.event, v.detail
            );
            if let Some(m) = shrunk {
                let _ = writeln!(
                    s,
                    "  minimal repro: seed={} tenant={} epoch={} event={:?} invariant={}",
                    m.seed, m.tenant, m.epoch, m.event, m.invariant
                );
            }
        }
        (None, _) => {
            let _ = writeln!(s, "  OK: all tenants isolated and bit-identical");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SEED;

    #[test]
    fn mixed_fleet_soak_is_clean_and_renders() {
        let leaves = mixed_tenant_leaves(2, 0.05, SEED);
        assert_eq!(leaves[0].name, "b4-0");
        assert_eq!(leaves[1].name, "ibm-1");
        let plan = FleetChaosPlan { crash_prob: 0.5, ..FleetChaosPlan::new(SEED, 3) };
        let report =
            fleet_soak_over(&leaves, 3, &FleetConfig::default(), &plan).expect("fleet soak runs");
        assert!(report.violation.is_none(), "violation: {:?}", report.violation);
        for t in &report.fleet.tenants {
            assert_eq!(t.epochs, 3, "{} unfinished", t.name);
            assert_eq!(t.quarantined, None);
        }
        let text = render_fleet_soak(&report);
        assert!(text.contains("OK: all tenants isolated"), "{text}");
        assert!(text.contains("tenant b4-0"), "{text}");
    }
}
