//! The three workloads whose epoch is *scenario regeneration +
//! `TeProblem::new` + `TeSolver…solve_with_stats()`*: one struct, three
//! configurations.

use super::{timed_ms, Decision, Policy, Rng, SetupBreakdown, Workload};
use crate::check::check_policy;
use crate::span::Tracer;
use crate::stats::mean;
use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
use prete_core::prelude::*;
use prete_topology::traffic::hourly_matrices;
use prete_topology::{generate, FiberId};

/// Seed of everything the seed must *not* move: topology, failure model,
/// base flows, hourly matrices.
pub const FIXED_SEED: u64 = 42;

/// How an epoch obtains its scenario set.
enum Scenarios {
    /// Healthy network: one set, enumerated in set-up, never regenerated.
    Fixed(ScenarioSet),
    /// Exhaustive single-cut enumeration for the epoch's degraded fiber.
    OneCut,
    /// Budgeted streaming enumeration for the epoch's degraded fiber.
    Budgeted(ScenarioBudget),
}

pub struct SolveWorkload {
    net: Network,
    base_flows: Vec<Flow>,
    tunnels: TunnelSet,
    estimator: ProbabilityEstimator,
    scenarios: Scenarios,
    method: SolveMethod,
    beta: f64,
    /// Present when the workload re-solves warm.
    cache: Option<BasisCache>,
    /// Per slot: the fiber degraded in that epoch (unused with
    /// [`Scenarios::Fixed`]).
    fibers: Vec<usize>,
    /// Per slot: hour of the demand matrix (`None` = base demands).
    hours: Vec<Option<usize>>,
    /// Half-width of the seeded per-slot demand jitter.
    jitter: f64,
    /// Per slot demands, built by `prepare`.
    demands: Vec<Vec<Flow>>,
}

/// Network-side set-up shared by the three: failure model, tunnels,
/// ground-truth conditionals, estimator.
fn build(
    net: Network,
    generate_ms: f64,
    base_flows: Vec<Flow>,
) -> (
    Network,
    Vec<Flow>,
    TunnelSet,
    ProbabilityEstimator,
    SetupBreakdown,
) {
    let model = FailureModel::new(&net, FIXED_SEED);
    let (tunnels, tunnels_init_ms) = timed_ms(|| TunnelSet::initialize(&net, &base_flows, 4));
    let (truth, ground_truth_ms) =
        timed_ms(|| TrueConditionals::ground_truth(&net, &model, 100, 3));
    let estimator = ProbabilityEstimator::prete(&model, &truth);
    let breakdown = SetupBreakdown {
        generate_ms,
        tunnels_init_ms,
        ground_truth_ms,
        train_s: 0.0,
        flows_total: base_flows.len(),
        tunnels_total: tunnels.len(),
    };
    (net, base_flows, tunnels, estimator, breakdown)
}

/// Healthy TWAN, a fixed 1-cut scenario set, Heuristic at β = 0.999 over a
/// persistent `BasisCache`: the warm re-solve path. Only demands change:
/// the pass is every third hourly matrix (hours 0, 3, …, 21) with ±2 %
/// seeded jitter — eight inputs, so a run repeats each seven or eight
/// times and its per-input medians mean something.
pub fn steady_twan() -> (Box<dyn Workload>, SetupBreakdown) {
    let (net, generate_ms) = timed_ms(topologies::twan);
    let flows = topologies::flows_for(&net, 0.08, FIXED_SEED);
    let (net, base_flows, tunnels, estimator, breakdown) = build(net, generate_ms, flows);
    let probs = estimator.probabilities(&DegradationState::healthy());
    let fixed = ScenarioSet::enumerate(&probs, 1, 0.0);
    let w = SolveWorkload {
        net,
        base_flows,
        tunnels,
        estimator,
        scenarios: Scenarios::Fixed(fixed),
        method: SolveMethod::Heuristic,
        beta: 0.999,
        cache: Some(BasisCache::new()),
        fibers: Vec::new(),
        hours: (0..24).step_by(3).map(Some).collect(),
        jitter: 0.02,
        demands: Vec::new(),
    };
    (Box::new(w), breakdown)
}

/// B4 at twice the `flows_for(0.08)` demand, one degraded fiber per
/// epoch, 1-cut scenarios, `SolveMethod::benders()` at β = 0.95, cold.
///
/// The pass is every third fiber from fiber 1 (1, 4, 7, 10, 13, 16):
/// five epochs whose master explores ≈ 4 100 nodes and one that needs
/// ≈ 330. Fiber 5 is left out on purpose — its solve alone takes twice a
/// run's measuring time and ends at `max_iters` without converging.
pub fn benders_b4() -> (Box<dyn Workload>, SetupBreakdown) {
    let (net, generate_ms) = timed_ms(topologies::b4);
    let mut flows = topologies::flows_for(&net, 0.08, FIXED_SEED);
    for f in &mut flows {
        f.demand_gbps *= 2.0;
    }
    let (net, base_flows, tunnels, estimator, breakdown) = build(net, generate_ms, flows);
    let fibers: Vec<usize> = (1..net.num_fibers()).step_by(3).collect();
    let w = SolveWorkload {
        net,
        base_flows,
        tunnels,
        estimator,
        scenarios: Scenarios::OneCut,
        method: SolveMethod::benders(),
        beta: 0.95,
        cache: None,
        hours: vec![None; fibers.len()],
        fibers,
        jitter: 0.0,
        demands: Vec::new(),
    };
    (Box::new(w), breakdown)
}

/// `gen:waxman:100` (160 fibers, 481 flows, 1 920 tunnels), one degraded
/// fiber per epoch, budgeted 2-cut streaming enumeration capped at 64
/// scenarios, Heuristic at β = 0.8 (the enumerated mass is ≈ 0.82, so β
/// must sit below it), cold.
///
/// The pass is every 27th fiber (0, 27, 54, 81, 108, 135). On a survey of
/// all 160 fibers an epoch takes 0.2–12.8 s (median 0.70 s, mean 1.57 s;
/// 71 % of fibers are bridges for some flow and end at Φ = 1); these six
/// take 0.4–1.5 s, one of them with Φ = 0, and a pass stays under 6 s.
pub fn scale_waxman100() -> (Box<dyn Workload>, SetupBreakdown) {
    let spec = GenSpec::parse("gen:waxman:100").expect("a valid generator spec");
    let (net, generate_ms) = timed_ms(|| generate::generate(&spec));
    let flows = topologies::flows_for(&net, 0.02, FIXED_SEED);
    let (net, base_flows, tunnels, estimator, breakdown) = build(net, generate_ms, flows);
    let fibers: Vec<usize> = (0..net.num_fibers()).step_by(27).collect();
    let budget = ScenarioBudget {
        max_cuts: 2,
        mass_floor: 1e-7,
        max_scenarios: 64,
        tail_samples: 0,
        ..ScenarioBudget::default()
    };
    let w = SolveWorkload {
        net,
        base_flows,
        tunnels,
        estimator,
        scenarios: Scenarios::Budgeted(budget),
        method: SolveMethod::Heuristic,
        beta: 0.8,
        cache: None,
        hours: vec![None; fibers.len()],
        fibers,
        jitter: 0.0,
        demands: Vec::new(),
    };
    (Box::new(w), breakdown)
}

impl Scenarios {
    fn fixed(&self) -> Option<&ScenarioSet> {
        match self {
            Scenarios::Fixed(set) => Some(set),
            _ => None,
        }
    }
}

impl Workload for SolveWorkload {
    fn prepare(&mut self, seed: u64) {
        let matrices = hourly_matrices(&self.base_flows, FIXED_SEED);
        let mut rng = Rng::new(seed ^ 0x6a09_e667_f3bc_c908);
        self.demands = self
            .hours
            .iter()
            .map(|hour| {
                let base = hour.map_or(&self.base_flows, |h| &matrices[h].flows);
                let day = 1.0 + self.jitter * (2.0 * rng.unit() - 1.0);
                base.iter()
                    .map(|f| Flow {
                        demand_gbps: f.demand_gbps * day,
                        ..*f
                    })
                    .collect()
            })
            .collect();
    }

    fn slots(&self) -> usize {
        self.hours.len()
    }

    fn epoch(&mut self, slot: usize, tracer: &mut Tracer) -> Result<Decision, String> {
        let regenerated = match &self.scenarios {
            Scenarios::Fixed(_) => None,
            regenerate => {
                let span = tracer.open("core.estimator.probabilities");
                let state = DegradationState::single(FiberId(self.fibers[slot]));
                let probs = self.estimator.probabilities(&state);
                tracer.close(span);
                let span = tracer.open("core.scenario.enumerate");
                let set = match regenerate {
                    Scenarios::Budgeted(budget) => {
                        let (set, stats) = ScenarioSet::enumerate_with(&probs, budget);
                        (set, Some(stats))
                    }
                    _ => (ScenarioSet::enumerate(&probs, 1, 0.0), None),
                };
                tracer.close(span);
                Some(set)
            }
        };
        let scenarios = regenerated
            .as_ref()
            .map(|(set, _)| set)
            .or(self.scenarios.fixed())
            .expect("a source that is not fixed regenerates");

        let span = tracer.open("core.optimizer.problem_build");
        let problem = TeProblem::new(&self.net, &self.demands[slot], &self.tunnels, scenarios);
        tracer.close(span);

        let span = tracer.open("core.optimizer.solve");
        let mut solver = TeSolver::new(&problem)
            .beta(self.beta)
            .method(self.method)
            .threads(1);
        if let Some(cache) = self.cache.as_mut() {
            solver = solver.warm_cache(cache);
        }
        let solved = solver.solve_with_stats();
        tracer.close(span);

        let (solution, stats) = solved.map_err(|e| e.to_string())?;
        let (scenarios, enumeration) = match regenerated {
            Some((set, stats)) => (Some(set), stats),
            None => (None, None),
        };
        Ok(Decision {
            phi: solution.max_loss,
            stats,
            policy: Some(Policy {
                allocation: solution.allocation,
                scenarios,
            }),
            enumeration,
            controller: None,
            sim: None,
        })
    }

    fn check(&self, slot: usize, decision: &Decision) -> Result<Option<f64>, String> {
        let policy = decision
            .policy
            .as_ref()
            .ok_or("the solve returned no allocation")?;
        let scenarios = policy
            .scenarios
            .as_ref()
            .or(self.scenarios.fixed())
            .ok_or("the epoch kept no scenario set to check against")?;
        let checked = check_policy(
            &self.net,
            &self.demands[slot],
            &self.tunnels,
            &scenarios.scenarios,
            &policy.allocation,
            decision.phi,
            self.beta,
        )?;
        Ok(Some(mean(&checked.flow_quantile_loss)))
    }
}
