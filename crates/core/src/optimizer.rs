//! The PreTE TE optimization (2)–(8) and its solvers.
//!
//! ## Exact reformulation
//!
//! The paper's program carries per-(flow, scenario) loss variables
//! `l_{f,q}`. For any fixed scenario selection `δ`, the minimal
//! feasible `l_{f,q}` is `max(0, 1 − Σ_t a_{f,t}/d_f)` and constraints
//! (4) + (6) collapse to the single *coverage* row
//!
//! ```text
//!     Σ_{t ∈ T_{f,q} ∪ Y_{f,q}^s} a_{f,t} + d_f·Φ  ≥  d_f·δ_{f,q}
//! ```
//!
//! with `δ` appearing only on the right-hand side — exactly the shape
//! Benders decomposition wants (Appendix A.4: the subproblem sizes are
//! "independent of the number of δ to be addressed"). Rows are emitted
//! only for the no-failure scenario and the scenarios that actually
//! kill one of the flow's tunnels; an unaffecting scenario's row is
//! identical to the no-failure row and would be redundant.
//!
//! ## Solvers
//!
//! * [`SolveMethod::Heuristic`] — per flow, select scenarios greedily
//!   by decreasing probability until constraint (5) holds, then one LP.
//!   Fast; used by the large availability sweeps.
//! * [`SolveMethod::Benders`] — Algorithm 2: iterate subproblem (LP,
//!   duals → optimality cut Eqn 11) and master (small binary program)
//!   until `UB − LB ≤ ε`.
//! * [`SolveMethod::BranchAndBound`] — the full MIP via `prete-lp`,
//!   exact on small instances; the tests use it as the reference the
//!   other two must match.

use crate::capacity::CapacityGroups;
use crate::scenario::ScenarioSet;
use prete_lp::{
    solve_mip, BasisCache, ColdStart, ConstraintId, EtaUpdate, LinearProgram, MipOptions,
    MipStatus, Pricing, Sense, SimplexOptions, SolveStatus, SolverBackend, VarId,
    WarmSimplex,
};
use prete_obs::Recorder;
use prete_topology::{Flow, Network, TunnelId, TunnelSet};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The availability target a [`TeSolver`] plans for unless
/// [`TeSolver::beta`] says otherwise.
pub const DEFAULT_BETA: f64 = 0.99;

/// Resolves a requested thread count (`0` = all available cores).
fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// How to solve the scenario-selection MIP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolveMethod {
    /// Greedy per-flow scenario selection + one LP (fast, near-optimal
    /// at WAN failure rates).
    Heuristic,
    /// Benders decomposition (Algorithm 2) with gap `eps` and at most
    /// `max_iters` iterations.
    Benders {
        /// Convergence gap `ε` on `UB − LB`.
        eps: f64,
        /// Iteration cap.
        max_iters: usize,
    },
    /// Exact branch-and-bound over the full MIP (small instances only).
    BranchAndBound,
}

impl SolveMethod {
    /// Benders with the defaults used in the evaluation (ε = 1e-4,
    /// 25 iterations).
    pub fn benders() -> Self {
        SolveMethod::Benders { eps: 1e-4, max_iters: 25 }
    }
}

/// Typed construction knobs for [`TeProblem`] — a config struct instead
/// of bare positional `f64`/`usize` parameters, so numeric knobs cannot
/// be transposed silently at call sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProblemConfig {
    /// Worker threads for the per-flow survival precompute (`0` = all
    /// available cores, `1` = serial). Flows are processed in fixed
    /// chunks with per-flow-independent arithmetic, so every thread
    /// count produces identical results.
    pub precompute_threads: usize,
    /// Failure scenarios per flow that get an explicit delivery
    /// variable in the allocation polish pass (most probable first).
    pub polish_scenarios_per_flow: usize,
    /// Slack added to the frozen `Φ` in the polish pass to absorb LP
    /// round-off.
    pub polish_slack: f64,
}

impl Default for ProblemConfig {
    fn default() -> Self {
        Self { precompute_threads: 1, polish_scenarios_per_flow: 6, polish_slack: 1e-9 }
    }
}

/// A TE problem instance: network, flows with demands, tunnels
/// (pre-established plus any reactive ones), and the scenario set.
#[derive(Debug)]
pub struct TeProblem<'a> {
    /// The network.
    pub net: &'a Network,
    /// Flows with demands.
    pub flows: &'a [Flow],
    /// Tunnels (`T_f ∪ Y_f^s`).
    pub tunnels: &'a TunnelSet,
    /// Failure scenarios `Q_s`.
    pub scenarios: &'a ScenarioSet,
    /// Capacity trunk groups.
    pub groups: CapacityGroups,
    /// Construction/polish knobs.
    config: ProblemConfig,
    /// `surviving[f][q]` = tunnel ids of flow `f` alive in scenario `q`.
    surviving: Vec<Vec<Vec<TunnelId>>>,
    /// Per flow: scenario indices (≠ 0) that kill at least one tunnel.
    affecting: Vec<Vec<usize>>,
}

impl<'a> TeProblem<'a> {
    /// Builds a problem with default [`ProblemConfig`].
    pub fn new(
        net: &'a Network,
        flows: &'a [Flow],
        tunnels: &'a TunnelSet,
        scenarios: &'a ScenarioSet,
    ) -> Self {
        Self::with_config(net, flows, tunnels, scenarios, ProblemConfig::default())
    }

    /// Builds a problem, precomputing per-flow tunnel survivals (in
    /// parallel when `config.precompute_threads > 1`).
    pub fn with_config(
        net: &'a Network,
        flows: &'a [Flow],
        tunnels: &'a TunnelSet,
        scenarios: &'a ScenarioSet,
        config: ProblemConfig,
    ) -> Self {
        let groups = CapacityGroups::build(net);
        // Per flow: (surviving tunnels per scenario, affecting scenarios).
        type FlowSurvival = (Vec<Vec<TunnelId>>, Vec<usize>);
        let compute = |flow: &Flow| -> FlowSurvival {
            let all = tunnels.of_flow(flow.id).to_vec();
            let mut per_q = Vec::with_capacity(scenarios.len());
            let mut aff = Vec::new();
            for (qi, q) in scenarios.scenarios.iter().enumerate() {
                let surv: Vec<TunnelId> = all
                    .iter()
                    .copied()
                    .filter(|&t| tunnels.tunnel(t).survives(net, &q.cut))
                    .collect();
                if qi != 0 && surv.len() != all.len() {
                    aff.push(qi);
                }
                per_q.push(surv);
            }
            (per_q, aff)
        };
        let threads = effective_threads(config.precompute_threads);
        let per_flow: Vec<FlowSurvival> = if threads > 1 && flows.len() > 1 {
            // Fixed chunking over disjoint output slices: each flow is
            // computed independently, so the fan-out is bit-identical
            // to the serial loop at any thread count.
            let mut out: Vec<Option<FlowSurvival>> = vec![None; flows.len()];
            let chunk = flows.len().div_ceil(threads);
            std::thread::scope(|s| {
                for (outs, fls) in out.chunks_mut(chunk).zip(flows.chunks(chunk)) {
                    s.spawn(move || {
                        for (o, flow) in outs.iter_mut().zip(fls) {
                            *o = Some(compute(flow));
                        }
                    });
                }
            });
            out.into_iter().map(|o| o.expect("chunk filled")).collect()
        } else {
            flows.iter().map(compute).collect()
        };
        let (surviving, affecting) = per_flow.into_iter().unzip();
        Self { net, flows, tunnels, scenarios, groups, config, surviving, affecting }
    }

    /// The configuration this problem was built with.
    pub fn config(&self) -> ProblemConfig {
        self.config
    }

    /// A hash of the problem's structural skeleton (flow/tunnel/scenario
    /// counts and per-flow affecting sets) — the key under which warm
    /// bases are cached across solves. Two problems with equal keys have
    /// LPs of identical shape; coefficient drift (demands, capacities)
    /// is fine because a restored basis revalidates structurally.
    pub fn structure_key(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.flows.len().hash(&mut h);
        self.tunnels.len().hash(&mut h);
        self.scenarios.len().hash(&mut h);
        self.groups.len().hash(&mut h);
        for aff in &self.affecting {
            aff.hash(&mut h);
        }
        h.finish()
    }

    /// Tunnels of flow `f` (by dense index) surviving scenario `q`.
    pub fn surviving(&self, f: usize, q: usize) -> &[TunnelId] {
        &self.surviving[f][q]
    }

    /// Scenario indices affecting flow `f` (excluding the no-failure
    /// scenario 0).
    pub fn affecting(&self, f: usize) -> &[usize] {
        &self.affecting[f]
    }

    /// Probability mass of scenarios that do NOT affect flow `f`
    /// (excluding scenario 0) — implicitly selected in the master.
    pub fn unaffecting_mass(&self, f: usize) -> f64 {
        let aff = &self.affecting[f];
        self.scenarios
            .scenarios
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(qi, _)| !aff.contains(qi))
            .map(|(_, q)| q.prob)
            .sum()
    }
}

/// A solved TE policy.
///
/// Serializable (and comparable) so a controller checkpoint can carry
/// its last-known-good policy across a crash; the float fields are
/// finite in any solution a solver returns, so `PartialEq` is exact.
#[must_use]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TeSolution {
    /// Allocated bandwidth per tunnel (indexed by [`TunnelId`]).
    pub allocation: Vec<f64>,
    /// The optimized maximum β-loss `Φ` across flows.
    pub max_loss: f64,
    /// Scenario selection: `delta[f]` lists the *selected* scenario
    /// indices for flow `f` (implicitly includes unaffecting ones).
    pub delta: Vec<Vec<usize>>,
    /// Number of LP solves performed.
    pub lp_solves: usize,
    /// Benders iterations (0 for the other methods).
    pub benders_iters: usize,
    /// KKT certificate of the allocation LP this policy came from
    /// (`None` for the exact-MIP path, whose allocation is certified
    /// per node relaxation instead). `Option`, so pre-certification
    /// checkpoints (which lack the key) still deserialize.
    pub quality: Option<prete_lp::SolutionQuality>,
}

impl TeSolution {
    /// Bandwidth delivered to flow `f` (dense index) in scenario `q`:
    /// `min(d_f, Σ surviving allocation)`.
    pub fn delivered(&self, p: &TeProblem<'_>, f: usize, q: usize) -> f64 {
        let total: f64 = p.surviving(f, q).iter().map(|&t| self.allocation[t.index()]).sum();
        total.min(p.flows[f].demand_gbps)
    }

    /// Normalized loss of flow `f` in scenario `q`.
    pub fn loss(&self, p: &TeProblem<'_>, f: usize, q: usize) -> f64 {
        let d = p.flows[f].demand_gbps;
        if d <= 0.0 {
            return 0.0;
        }
        (1.0 - self.delivered(p, f, q) / d).max(0.0)
    }
}

/// Observability counters for one TE solve, returned by
/// [`TeSolver::solve_with_stats`] and aggregated per epoch by the
/// simulation controllers.
///
/// Wall-clock fields (`*_ms`) are measurements and vary run to run;
/// every other field is a deterministic work-unit count. Equality
/// (`PartialEq`) compares **only** the deterministic fields, so reports
/// embedding stats keep the repo's bit-identical-replay guarantees.
#[must_use]
#[derive(Debug, Clone, Default, Serialize)]
pub struct SolverStats {
    /// End-to-end wall time of the solve.
    pub total_ms: f64,
    /// Wall time in subproblem LP solves (cold + warm).
    pub subproblem_ms: f64,
    /// Wall time in Benders master / B&B MIP solves.
    pub master_ms: f64,
    /// Wall time in the allocation polish LP.
    pub polish_ms: f64,
    /// LP solves performed (subproblem, polish and warm re-solves;
    /// B&B node relaxations are counted under `mip_nodes`).
    pub lp_solves: usize,
    /// Simplex pivots across the tracked LP solves.
    pub pivots: usize,
    /// Benders iterations (0 for the other methods).
    pub benders_iters: usize,
    /// Benders optimality cuts added to the master.
    pub cuts_added: usize,
    /// Branch-and-bound nodes explored (master + exact MIP).
    pub mip_nodes: usize,
    /// Warm starts that restored a cached or live basis.
    pub warm_hits: usize,
    /// Solves that wanted a warm start but fell back cold.
    pub warm_misses: usize,
    /// Rhs-only dual-simplex re-solves inside the Benders loop.
    pub rhs_resolves: usize,
    /// Warm-basis cache entries evicted (LRU) during this solve.
    pub cache_evictions: usize,
    /// Basis LU (re)factorizations in the sparse engine (0 under the
    /// dense backend).
    pub refactorizations: u64,
    /// Product-form eta updates appended in the sparse engine.
    pub etas: u64,
    /// Cumulative LU fill-in (factor nonzeros beyond basis nonzeros)
    /// in the sparse engine.
    pub fill_in: u64,
    /// Forrest–Tomlin pivot rollbacks: pivots undone and re-priced
    /// because the post-pivot refactorization failed (always 0 under
    /// product-form updates).
    pub ft_rollbacks: u64,
    /// Sparse solves that hit a singular factorization and were
    /// answered by the dense fallback engine.
    pub dense_fallbacks: usize,
    /// One-step iterative refinements of basic solutions (sparse
    /// engine, `Refine` recovery rung).
    pub refinements: u64,
    /// `TightenTolerance` recovery rungs: factorizations retried with
    /// a raised peel tolerance.
    pub tightenings: u64,
    /// `PatchSingularColumn` recovery rungs: basis columns replaced by
    /// their initial slack/artificial column during a warm restore.
    pub patched_columns: u64,
    /// LP solves whose KKT certificate failed and were downgraded to
    /// [`prete_lp::SolveStatus::NumericallySuspect`].
    pub suspect_solves: usize,
    /// Scenarios pruned or evicted during budgeted enumeration
    /// ([`crate::scenario::EnumerationStats::scenarios_pruned`],
    /// plumbed in by the caller via [`TeSolver::scenario_stats`]).
    pub scenarios_pruned: u64,
    /// Probability mass of the truncated scenario tail for this
    /// solve's scenario set (worst across merged solves). A pure
    /// function of the failure probabilities and budget, but a float
    /// summary — excluded from `PartialEq` like
    /// `max_condition_estimate`.
    pub tail_mass: f64,
    /// Largest basis condition estimate observed across the solve's
    /// factorizations (deterministic — a pure function of the pivot
    /// sequence — but a float summary, so excluded from `PartialEq`
    /// like the configuration labels).
    pub max_condition_estimate: f64,
    /// Worker threads the solve was configured with.
    pub threads: usize,
    /// Pricing rule the solve was configured with (configuration
    /// label, not a work unit).
    pub pricing: Pricing,
    /// Basis-update scheme the solve was configured with
    /// (configuration label, not a work unit).
    pub eta_update: EtaUpdate,
    /// Cold-start strategy the solve was configured with
    /// (configuration label, not a work unit).
    pub cold_start: ColdStart,
}

impl SolverStats {
    /// Accumulates another solve's counters into this one (wall times
    /// and work units add; `threads` keeps the maximum seen).
    pub fn merge(&mut self, other: &SolverStats) {
        self.total_ms += other.total_ms;
        self.subproblem_ms += other.subproblem_ms;
        self.master_ms += other.master_ms;
        self.polish_ms += other.polish_ms;
        self.lp_solves += other.lp_solves;
        self.pivots += other.pivots;
        self.benders_iters += other.benders_iters;
        self.cuts_added += other.cuts_added;
        self.mip_nodes += other.mip_nodes;
        self.warm_hits += other.warm_hits;
        self.warm_misses += other.warm_misses;
        self.rhs_resolves += other.rhs_resolves;
        self.cache_evictions += other.cache_evictions;
        self.refactorizations += other.refactorizations;
        self.etas += other.etas;
        self.fill_in += other.fill_in;
        self.ft_rollbacks += other.ft_rollbacks;
        self.dense_fallbacks += other.dense_fallbacks;
        self.refinements += other.refinements;
        self.tightenings += other.tightenings;
        self.patched_columns += other.patched_columns;
        self.suspect_solves += other.suspect_solves;
        self.scenarios_pruned += other.scenarios_pruned;
        self.tail_mass = self.tail_mass.max(other.tail_mass);
        self.max_condition_estimate =
            self.max_condition_estimate.max(other.max_condition_estimate);
        self.threads = self.threads.max(other.threads);
        // Configuration labels: the accumulator adopts the merged
        // solve's choices, so a default-initialized epoch accumulator
        // ends up labelled with what actually ran.
        self.pricing = other.pricing;
        self.eta_update = other.eta_update;
        self.cold_start = other.cold_start;
    }

    /// Total deterministic solver work-units for this solve: the same
    /// definition the fleet budgets rounds with
    /// (pivots + lp_solves + mip_nodes + benders_iters +
    /// rhs_resolves) — never wall clock.
    pub fn work_units(&self) -> u64 {
        (self.pivots
            + self.lp_solves
            + self.mip_nodes
            + self.benders_iters
            + self.rhs_resolves) as u64
    }

    /// Fraction of warm-start attempts that hit, in `[0, 1]` (0 when
    /// warm starting never applied).
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_hits + self.warm_misses;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }

    /// Publishes this solve's counters and timings into a
    /// [`Recorder`], making the stats part of the run report instead of
    /// a side-channel. Work units become `solver.*` counters. Under a
    /// live clock, wall times feed `solver.*_ms` histograms and the
    /// thread count becomes a gauge; under a deterministic clock those
    /// are machine-dependent and excluded, and *logical-duration*
    /// histograms (work-unit counts per solve) are recorded instead so
    /// deterministic reports still carry full percentile tables.
    pub fn publish(&self, rec: &Recorder) {
        if !rec.enabled() {
            return;
        }
        rec.add("solver.lp_solves", self.lp_solves as u64);
        rec.add("solver.pivots", self.pivots as u64);
        rec.add("solver.benders_iters", self.benders_iters as u64);
        rec.add("solver.cuts_added", self.cuts_added as u64);
        rec.add("solver.mip_nodes", self.mip_nodes as u64);
        rec.add("solver.warm_hits", self.warm_hits as u64);
        rec.add("solver.warm_misses", self.warm_misses as u64);
        rec.add("solver.rhs_resolves", self.rhs_resolves as u64);
        rec.add("solver.cache_evictions", self.cache_evictions as u64);
        rec.add("solver.refactorizations", self.refactorizations);
        rec.add("solver.etas", self.etas);
        rec.add("solver.fill_in", self.fill_in);
        rec.add("solver.ft_rollbacks", self.ft_rollbacks);
        rec.add("solver.dense_fallbacks", self.dense_fallbacks as u64);
        rec.add("solver.refinements", self.refinements);
        rec.add("solver.tightenings", self.tightenings);
        rec.add("solver.patched_columns", self.patched_columns);
        rec.add("solver.suspect_solves", self.suspect_solves as u64);
        rec.add("solver.scenarios_pruned", self.scenarios_pruned);
        if self.tail_mass > 0.0 {
            // Deterministic across thread counts (a pure function of
            // the scenario budget), so safe in byte-identical reports.
            rec.gauge("solver.tail_mass", self.tail_mass);
        }
        if !rec.is_deterministic() {
            // The thread count is an execution parameter like the wall
            // times: deterministic reports must be identical across
            // thread counts, so neither belongs there.
            rec.gauge("solver.threads", self.threads as f64);
            rec.observe("solver.total_ms", self.total_ms);
            rec.observe("solver.subproblem_ms", self.subproblem_ms);
            rec.observe("solver.master_ms", self.master_ms);
            rec.observe("solver.polish_ms", self.polish_ms);
        } else {
            // Logical durations: per-solve work-unit counts are a pure
            // function of the work performed, so they are safe in
            // byte-identical reports and give deterministic runs full
            // percentile tables (the PR 3 wall-time skip left these
            // reports without any histograms at all).
            rec.observe("solver.total_units", self.work_units() as f64);
            rec.observe("solver.pivot_units", self.pivots as f64);
            rec.observe("solver.eta_units", self.etas as f64);
            rec.observe("solver.refactorization_units", self.refactorizations as f64);
            rec.observe("solver.rhs_resolve_units", self.rhs_resolves as f64);
        }
    }
}

impl PartialEq for SolverStats {
    /// Deterministic work-unit fields only — wall-clock measurements,
    /// the machine-dependent thread count and the configuration labels
    /// (`pricing`, `eta_update`) are excluded so replays on any
    /// machine compare equal when they did the same work.
    fn eq(&self, other: &Self) -> bool {
        self.lp_solves == other.lp_solves
            && self.pivots == other.pivots
            && self.benders_iters == other.benders_iters
            && self.cuts_added == other.cuts_added
            && self.mip_nodes == other.mip_nodes
            && self.warm_hits == other.warm_hits
            && self.warm_misses == other.warm_misses
            && self.rhs_resolves == other.rhs_resolves
            && self.cache_evictions == other.cache_evictions
            && self.refactorizations == other.refactorizations
            && self.etas == other.etas
            && self.fill_in == other.fill_in
            && self.ft_rollbacks == other.ft_rollbacks
            && self.dense_fallbacks == other.dense_fallbacks
            && self.refinements == other.refinements
            && self.tightenings == other.tightenings
            && self.patched_columns == other.patched_columns
            && self.suspect_solves == other.suspect_solves
            && self.scenarios_pruned == other.scenarios_pruned
    }
}

/// Builder for TE solves: owns `beta`, the [`SolveMethod`], the
/// [`SolveBudget`], the thread count and an optional warm-start
/// [`BasisCache`], replacing the positional-argument
/// `solve_te(problem, beta, method)` family.
///
/// ```
/// use prete_core::prelude::*;
///
/// let net = prete_core::examples::triangle();
/// let flows = prete_core::examples::triangle_flows();
/// let tunnels = TunnelSet::initialize(&net, &flows, 2);
/// let scenarios = ScenarioSet::enumerate(&[0.005, 0.009, 0.001], 2, 1e-9);
/// let problem = TeProblem::new(&net, &flows, &tunnels, &scenarios);
/// let sol = TeSolver::new(&problem)
///     .beta(0.99)
///     .method(SolveMethod::benders())
///     .solve()
///     .expect("within budget");
/// assert!(sol.max_loss < 1e-6);
/// ```
#[must_use]
#[derive(Debug)]
pub struct TeSolver<'p, 'a, 'c> {
    problem: &'p TeProblem<'a>,
    beta: f64,
    method: SolveMethod,
    budget: SolveBudget,
    threads: usize,
    backend: SolverBackend,
    pricing: Pricing,
    eta_update: EtaUpdate,
    cold_start: ColdStart,
    cache: Option<&'c mut BasisCache>,
    recorder: Recorder,
    scenario_stats: Option<(u64, f64)>,
}

impl<'p, 'a, 'c> TeSolver<'p, 'a, 'c> {
    /// Creates a solver for `problem` with defaults: `beta =`
    /// [`DEFAULT_BETA`], [`SolveMethod::Heuristic`], the default
    /// [`SolveBudget`], all available cores, default pricing/eta-update
    /// rules, no warm-start cache, no recorder.
    pub fn new(problem: &'p TeProblem<'a>) -> Self {
        Self {
            problem,
            beta: DEFAULT_BETA,
            method: SolveMethod::Heuristic,
            budget: SolveBudget::default(),
            threads: 0,
            backend: SolverBackend::default(),
            pricing: Pricing::default(),
            eta_update: EtaUpdate::default(),
            cold_start: ColdStart::default(),
            cache: None,
            recorder: Recorder::disabled(),
            scenario_stats: None,
        }
    }

    /// Availability target `β ∈ (0, 1)`.
    ///
    /// # Panics
    /// Panics when `beta` is outside `(0, 1)` — a caller bug, caught at
    /// build time instead of deep inside a solve.
    pub fn beta(mut self, beta: f64) -> Self {
        assert!(beta > 0.0 && beta < 1.0, "beta must be in (0,1), got {beta}");
        self.beta = beta;
        self
    }

    /// Solve method (heuristic, Benders, exact branch-and-bound).
    pub fn method(mut self, method: SolveMethod) -> Self {
        self.method = method;
        self
    }

    /// Deterministic work budget, surfacing exhaustion as
    /// [`TeSolveError::BudgetExceeded`] instead of panicking.
    ///
    /// Semantics per method:
    /// * `Heuristic` — two LP solves, always feasible (`Φ = 1` is a
    ///   valid point), so it only fails on a fully spent budget
    ///   (`max_benders_iters == 0`, "no solver work allowed").
    /// * `Benders` — the iteration cap is the tighter of the method's
    ///   own `max_iters` and the budget's; a zero cap fails
    ///   immediately, otherwise the incumbent after the capped loop is
    ///   returned.
    /// * `BranchAndBound` — the exact MIP honours `max_mip_nodes` and
    ///   reports `BudgetExceeded` / `Infeasible` instead of asserting.
    pub fn budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Worker threads (`0` = all available cores). Any value produces
    /// bit-identical solutions; see DESIGN.md "Solver architecture".
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// LP engine for every solve under this solver (subproblems,
    /// polish, master relaxations). Defaults to
    /// [`SolverBackend::SparseRevised`]; the dense tableau remains
    /// available as an oracle and is the automatic fallback when a
    /// sparse factorization goes singular (counted in
    /// [`SolverStats::dense_fallbacks`]).
    pub fn backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Entering-variable pricing rule for the sparse engine
    /// ([`Pricing::Dantzig`] segmented partial pricing by default,
    /// [`Pricing::Devex`] reference-framework pricing to cut pivot
    /// counts on large programs). Ignored by the dense oracle backend.
    pub fn pricing(mut self, pricing: Pricing) -> Self {
        self.pricing = pricing;
        self
    }

    /// Basis-update scheme for the sparse engine
    /// ([`EtaUpdate::ProductForm`] eta file by default,
    /// [`EtaUpdate::ForrestTomlin`] LU updates with
    /// stability-triggered refactorization). Ignored by the dense
    /// oracle backend.
    pub fn eta_update(mut self, eta_update: EtaUpdate) -> Self {
        self.eta_update = eta_update;
        self
    }

    /// Cold-start strategy for the sparse engine
    /// ([`ColdStart::TwoPhase`] by default: the classic primal
    /// two-phase sequence, reproducing historical pivot paths;
    /// [`ColdStart::Auto`] opts into a single dual simplex pass from
    /// the all-slack basis whenever the program qualifies — the fast
    /// path the benchmark gate measures). Ignored by the dense oracle
    /// backend.
    pub fn cold_start(mut self, cold_start: ColdStart) -> Self {
        self.cold_start = cold_start;
        self
    }

    /// Attaches scenario-enumeration accounting (from
    /// [`crate::scenario::EnumerationStats`]) so pruning shows up in
    /// this solve's [`SolverStats`] (`scenarios_pruned`, `tail_mass`)
    /// and run reports instead of being a side channel.
    pub fn scenario_stats(
        mut self,
        stats: &crate::scenario::EnumerationStats,
    ) -> Self {
        self.scenario_stats = Some((stats.scenarios_pruned, stats.truncated_tail));
        self
    }

    /// Warm-starts LP solves from `cache` (keyed by
    /// [`TeProblem::structure_key`]) and saves the optimal bases back,
    /// so successive epochs skip simplex phase 1.
    pub fn warm_cache(mut self, cache: &'c mut BasisCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Streams solver telemetry (warm-start hits, Benders iterations,
    /// final [`SolverStats`]) into `recorder`; the solve itself runs
    /// under a `"solve"` span.
    pub fn recorder(mut self, recorder: &Recorder) -> Self {
        self.recorder = recorder.clone();
        self
    }

    /// Runs the solve.
    pub fn solve(self) -> Result<TeSolution, TeSolveError> {
        self.solve_with_stats().map(|(sol, _)| sol)
    }

    /// Runs the solve and reports [`SolverStats`] alongside the
    /// solution.
    pub fn solve_with_stats(self) -> Result<(TeSolution, SolverStats), TeSolveError> {
        let t0 = Instant::now();
        let recorder = self.recorder;
        let span = recorder.span("solve");
        let threads = effective_threads(self.threads);
        recorder.event_with("solver.backend", || format!("{:?}", self.backend));
        recorder.event_with("solver.pricing", || format!("{:?}", self.pricing));
        recorder.event_with("solver.eta-update", || format!("{:?}", self.eta_update));
        recorder.event_with("solver.cold-start", || format!("{:?}", self.cold_start));
        let evictions_before = self.cache.as_ref().map_or(0, |c| c.evictions());
        let mut ctx = SolveCtx {
            problem: self.problem,
            threads,
            backend: self.backend,
            pricing: self.pricing,
            eta_update: self.eta_update,
            cold_start: self.cold_start,
            cache: self.cache,
            stats: SolverStats {
                threads,
                pricing: self.pricing,
                eta_update: self.eta_update,
                cold_start: self.cold_start,
                scenarios_pruned: self.scenario_stats.map_or(0, |(p, _)| p),
                tail_mass: self.scenario_stats.map_or(0.0, |(_, t)| t),
                ..SolverStats::default()
            },
            obs: recorder.clone(),
        };
        let budget = self.budget;
        let result = match self.method {
            SolveMethod::Heuristic => {
                if budget.max_benders_iters == 0 && budget.max_mip_nodes == 0 {
                    Err(TeSolveError::BudgetExceeded { nodes: 0 })
                } else {
                    Ok(ctx.heuristic(self.beta))
                }
            }
            SolveMethod::Benders { eps, max_iters } => {
                let cap = max_iters.min(budget.max_benders_iters);
                if cap == 0 {
                    Err(TeSolveError::BudgetExceeded { nodes: 0 })
                } else {
                    Ok(ctx.benders(self.beta, eps, cap))
                }
            }
            SolveMethod::BranchAndBound => {
                if budget.max_mip_nodes == 0 {
                    Err(TeSolveError::BudgetExceeded { nodes: 0 })
                } else {
                    let opts = MipOptions {
                        max_nodes: budget.max_mip_nodes,
                        simplex: ctx.simplex_opts(),
                        ..MipOptions::default()
                    };
                    ctx.bnb(self.beta, opts)
                }
            }
        };
        ctx.stats.total_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(cache) = ctx.cache.as_ref() {
            ctx.stats.cache_evictions = cache.evictions() - evictions_before;
        }
        drop(span);
        ctx.stats.publish(&recorder);
        if let Err(e) = &result {
            recorder.event_with("solve-failed", || e.to_string());
        }
        result.map(|sol| (sol, ctx.stats))
    }
}

/// Deterministic work budget for a fallible TE solve.
///
/// Budgets are expressed in solver work units — branch-and-bound nodes
/// and Benders iterations — rather than wall-clock time, so a replay
/// with a fixed fault plan produces bit-identical results on any
/// machine. The controller converts its wall-clock deadline into work
/// units once, up front, via its latency model.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, serde::Deserialize)]
pub struct SolveBudget {
    /// Maximum branch-and-bound nodes for a MIP solve.
    pub max_mip_nodes: usize,
    /// Maximum Benders master/subproblem iterations.
    pub max_benders_iters: usize,
}

impl Default for SolveBudget {
    fn default() -> Self {
        Self { max_mip_nodes: 100_000, max_benders_iters: 50 }
    }
}

impl SolveBudget {
    /// A budget that is already spent — every budgeted solve fails
    /// immediately with [`TeSolveError::BudgetExceeded`]. Used by fault
    /// injection to model a solver that cannot meet its deadline.
    pub fn exhausted() -> Self {
        Self { max_mip_nodes: 0, max_benders_iters: 0 }
    }
}

/// Why a budgeted TE solve produced no usable policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeSolveError {
    /// The solver ran out of its work budget before proving optimality.
    BudgetExceeded {
        /// Work units consumed when the budget tripped (B&B nodes, or
        /// Benders iterations for the decomposition path).
        nodes: usize,
    },
    /// The program admits no feasible point (only possible for the
    /// exact MIP; the LP relaxation used by the heuristic always admits
    /// `Φ = 1`).
    Infeasible,
}

impl std::fmt::Display for TeSolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeSolveError::BudgetExceeded { nodes } => {
                write!(f, "TE solve exceeded its work budget after {nodes} nodes")
            }
            TeSolveError::Infeasible => f.write_str("TE program is infeasible"),
        }
    }
}

impl std::error::Error for TeSolveError {}

/// Per-flow greedy δ: scenario 0 plus affecting scenarios in decreasing
/// probability until `p_0 + unaffecting + selected ≥ beta`.
fn greedy_delta(problem: &TeProblem<'_>, beta: f64) -> Vec<Vec<usize>> {
    let scen = &problem.scenarios.scenarios;
    (0..problem.flows.len())
        .map(|f| {
            let mut selected = vec![0usize];
            let mut mass = scen[0].prob + problem.unaffecting_mass(f);
            // Affecting scenarios sorted by decreasing probability.
            let mut aff: Vec<usize> = problem.affecting(f).to_vec();
            aff.sort_by(|&a, &b| {
                scen[b].prob.partial_cmp(&scen[a].prob).expect("finite").then(a.cmp(&b))
            });
            for qi in aff {
                if mass >= beta {
                    break;
                }
                selected.push(qi);
                mass += scen[qi].prob;
            }
            // When the enumerated set cannot reach β (deep cuts pruned
            // by the scenario cutoff), the best the scheme can do is
            // protect everything it enumerated — constraint (5) is then
            // met up to the un-enumerated residual mass.
            selected
        })
        .collect()
}

/// Builds and solves the subproblem LP for a fixed selection, returning
/// `(allocation, Φ, capacity duals, coverage duals keyed by (f, qi))`.
struct SubproblemResult {
    allocation: Vec<f64>,
    phi: f64,
    /// dual per capacity group (≤ 0 under the min convention).
    cap_duals: Vec<f64>,
    /// (flow, scenario, dual ≥ 0) for each coverage row.
    cov_duals: Vec<(usize, usize, f64)>,
}

/// Cache-key salts separating the LP families that share one problem
/// structure (a basis from one family must not seed another; the
/// structural signature would reject it anyway, but separate keys keep
/// the hit-rate numbers honest).
const CACHE_SALT_HEURISTIC: u64 = 0x5eed_0001;
const CACHE_SALT_BENDERS: u64 = 0x5eed_0002;
const CACHE_SALT_POLISH: u64 = 0x5eed_0003;

fn hash_delta(delta: &[Vec<usize>]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    delta.hash(&mut h);
    h.finish()
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Per-solve context: configuration plus the stats being accumulated.
struct SolveCtx<'p, 'a, 'c> {
    problem: &'p TeProblem<'a>,
    threads: usize,
    backend: SolverBackend,
    pricing: Pricing,
    eta_update: EtaUpdate,
    cold_start: ColdStart,
    cache: Option<&'c mut BasisCache>,
    stats: SolverStats,
    obs: Recorder,
}

impl SolveCtx<'_, '_, '_> {
    fn simplex_opts(&self) -> SimplexOptions {
        SimplexOptions {
            threads: self.threads,
            backend: self.backend,
            pricing: self.pricing,
            eta_update: self.eta_update,
            cold_start: self.cold_start,
            ..SimplexOptions::default()
        }
    }

    /// Folds a solve's engine counters (sparse refactorizations, etas,
    /// fill-in, FT rollbacks, dense fallbacks) into the stats.
    fn absorb_engine(&mut self, sol: &prete_lp::Solution) {
        self.stats.refactorizations += sol.engine.refactorizations;
        self.stats.etas += sol.engine.etas;
        self.stats.fill_in += sol.engine.fill_in;
        if sol.engine.rollbacks > 0 {
            self.stats.ft_rollbacks += sol.engine.rollbacks;
            self.obs.event_with("solver.ft-rollback", || {
                format!("{} pivot(s) rolled back", sol.engine.rollbacks)
            });
        }
        if sol.engine.dense_fallback {
            self.stats.dense_fallbacks += 1;
            self.obs.event("solver.dense-fallback", "singular sparse factorization");
        }
        self.stats.refinements += sol.engine.refinements;
        self.stats.tightenings += sol.engine.tightenings;
        self.stats.patched_columns += sol.engine.patched_columns;
        self.stats.max_condition_estimate =
            self.stats.max_condition_estimate.max(sol.engine.condition_estimate);
        if sol.status == SolveStatus::NumericallySuspect {
            self.stats.suspect_solves += 1;
            self.obs.event_with("solver.numerically-suspect", || {
                let q = sol.quality.unwrap_or_default();
                format!(
                    "primal={:.3e} dual={:.3e} comp={:.3e} cond={:.3e}",
                    q.primal_residual, q.dual_residual, q.complementarity, q.condition_estimate
                )
            });
        }
    }

    /// Solves `lp`, seeding from the basis cached under `key` when a
    /// cache is attached, and saves the optimal basis back.
    fn warm_solve(&mut self, lp: &LinearProgram, key: u64) -> prete_lp::Solution {
        let mut ws = WarmSimplex::new(self.simplex_opts());
        let warm = self.cache.as_mut().and_then(|c| c.get(key)).cloned();
        let (sol, used) = ws.solve_from(lp, warm.as_ref());
        self.absorb_engine(&sol);
        if self.cache.is_some() {
            if used {
                self.stats.warm_hits += 1;
                self.obs.event_with("solver.warm-start", || format!("hit key={key:#x}"));
            } else {
                self.stats.warm_misses += 1;
                self.obs.event_with("solver.warm-start", || format!("miss key={key:#x}"));
            }
        }
        self.stats.lp_solves += 1;
        self.stats.pivots += sol.iterations;
        if let Some(b) = ws.basis() {
            if let Some(c) = self.cache.as_mut() {
                c.put(key, b);
            }
        }
        sol
    }

    /// Builds and solves the selected-rows subproblem LP (heuristic
    /// path: one LP per solve, warm-started across epochs).
    fn subproblem(&mut self, delta: &[Vec<usize>]) -> SubproblemResult {
        let t0 = Instant::now();
        let problem = self.problem;
        let n_tunnels = problem.tunnels.len();
        let mut lp = LinearProgram::new();
        let a_vars: Vec<VarId> =
            (0..n_tunnels).map(|_| lp.var_nonneg(0.0)).collect();
        let phi = lp.var_nonneg(1.0);

        // Capacity rows (Eqn 3), per trunk group.
        let mut group_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); problem.groups.len()];
        for t in problem.tunnels.tunnels() {
            for g in problem.groups.groups_of_path(&t.path.links) {
                group_terms[g].push((a_vars[t.id.index()], 1.0));
            }
        }
        let mut cap_rows = Vec::with_capacity(problem.groups.len());
        for (g, terms) in group_terms.into_iter().enumerate() {
            cap_rows.push(lp.add_constraint(terms, Sense::Le, problem.groups.capacity(g)));
        }

        // Coverage rows: Σ surviving a + d·Φ ≥ d for each selected (f, q).
        let mut cov_rows = Vec::new();
        for (f, selected) in delta.iter().enumerate() {
            let d = problem.flows[f].demand_gbps;
            if d <= 0.0 {
                continue;
            }
            for &qi in selected {
                let mut terms: Vec<(VarId, f64)> = problem
                    .surviving(f, qi)
                    .iter()
                    .map(|&t| (a_vars[t.index()], 1.0))
                    .collect();
                terms.push((phi, d));
                let row = lp.add_constraint(terms, Sense::Ge, d);
                cov_rows.push((f, qi, row));
            }
        }

        let key = problem.structure_key() ^ CACHE_SALT_HEURISTIC ^ hash_delta(delta);
        let sol = self.warm_solve(&lp, key);
        // A suspect verdict still carries the optimal-basis point and
        // duals (plus its failing certificate, already counted by
        // `absorb_engine`); only a genuinely failed solve is a bug.
        assert!(
            sol.is_usable(),
            "subproblem must be solvable (Φ = 1 is always feasible), got {:?}",
            sol.status
        );
        self.stats.subproblem_ms += ms_since(t0);
        SubproblemResult {
            allocation: a_vars.iter().map(|&v| sol.value(v).max(0.0)).collect(),
            phi: sol.value(phi).max(0.0),
            cap_duals: cap_rows.iter().map(|&r| sol.duals[r.index()]).collect(),
            cov_duals: cov_rows
                .iter()
                .map(|&(f, qi, r)| (f, qi, sol.duals[r.index()].max(0.0)))
                .collect(),
        }
    }

    fn heuristic(&mut self, beta: f64) -> TeSolution {
        let delta = greedy_delta(self.problem, beta);
        let sp = self.subproblem(&delta);
        let (allocation, quality) = self.polish(&delta, sp.phi);
        TeSolution {
            allocation,
            max_loss: sp.phi,
            delta,
            lp_solves: 2,
            benders_iters: 0,
            quality,
        }
    }

    /// Lexicographic second pass: with `Φ` fixed at its optimum, choose
    /// among the optimal allocations the one that maximizes the
    /// probability-weighted delivered fraction across the no-failure
    /// scenario and the selected failure scenarios, then fills spare
    /// capacity.
    ///
    /// The min-Φ LP alone returns a *minimal* vertex — allocations
    /// exactly meeting `(1 − Φ)d` — which would make flows artificially
    /// lossy even in scenarios where spare capacity could cover them in
    /// full. Real TE systems hand spare capacity back to the flows;
    /// this pass models that, and because the weights are the scenario
    /// probabilities it is a direct surrogate for the availability the
    /// evaluator measures.
    fn polish(&mut self, delta: &[Vec<usize>], phi: f64) -> (Vec<f64>, Option<prete_lp::SolutionQuality>) {
        let t0 = Instant::now();
        let problem = self.problem;
        let cfg = problem.config();
        let n_tunnels = problem.tunnels.len();
        let total_demand: f64 = problem.flows.iter().map(|f| f.demand_gbps).sum();
        let mean_demand = (total_demand / problem.flows.len().max(1) as f64).max(1e-9);
        let p0 = problem.scenarios.scenarios[0].prob.max(1e-12);
        let mut lp = LinearProgram::new();
        // Each allocation is capped by its tunnel's bottleneck group
        // capacity. The capacity rows already imply this, so the
        // optimum is untouched — but stating it as a variable bound
        // makes every negative-cost column bounded, which lets the
        // sparse engine cold-start with a single dual simplex pass
        // instead of a two-phase primal solve.
        let mut bottleneck = vec![f64::INFINITY; n_tunnels];
        for t in problem.tunnels.tunnels() {
            for g in problem.groups.groups_of_path(&t.path.links) {
                let b = &mut bottleneck[t.id.index()];
                *b = b.min(problem.groups.capacity(g));
            }
        }
        let a_vars: Vec<VarId> = bottleneck
            .iter()
            .map(|&cap| {
                if cap.is_finite() {
                    lp.var_bounded(0.0, cap, -1e-6)
                } else {
                    lp.var_nonneg(-1e-6)
                }
            })
            .collect();
        // Fairness tie-break on the worst no-failure delivered fraction.
        let z = lp.var_unit(-0.01 * total_demand.max(1.0));

        // Capacity rows.
        let mut group_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); problem.groups.len()];
        for t in problem.tunnels.tunnels() {
            for g in problem.groups.groups_of_path(&t.path.links) {
                group_terms[g].push((a_vars[t.id.index()], 1.0));
            }
        }
        for (g, terms) in group_terms.into_iter().enumerate() {
            lp.add_constraint(terms, Sense::Le, problem.groups.capacity(g));
        }
        // Coverage rows with Φ frozen (small slack absorbs LP
        // round-off), plus delivery vars s_{f,q} ≤ min(d_f, Σ surv a).
        let phi_slack = phi + cfg.polish_slack;
        for (f, selected) in delta.iter().enumerate() {
            let d = problem.flows[f].demand_gbps;
            if d <= 0.0 {
                continue;
            }
            // Pick q0 plus the most probable selected failure scenarios.
            let mut with_delivery: Vec<usize> =
                selected.iter().copied().filter(|&q| q != 0).collect();
            with_delivery.sort_by(|&a, &b| {
                problem.scenarios.scenarios[b]
                    .prob
                    .partial_cmp(&problem.scenarios.scenarios[a].prob)
                    .expect("finite")
            });
            with_delivery.truncate(cfg.polish_scenarios_per_flow);
            for &qi in selected {
                let cover: Vec<(VarId, f64)> = problem
                    .surviving(f, qi)
                    .iter()
                    .map(|&t| (a_vars[t.index()], 1.0))
                    .collect();
                lp.add_constraint(cover, Sense::Ge, d * (1.0 - phi_slack));
            }
            for &qi in std::iter::once(&0usize).chain(&with_delivery) {
                let weight = if qi == 0 {
                    1.0
                } else {
                    (problem.scenarios.scenarios[qi].prob / p0).min(1.0)
                };
                let s = lp.var_bounded(0.0, d, -weight * mean_demand / d);
                let mut terms: Vec<(VarId, f64)> = problem
                    .surviving(f, qi)
                    .iter()
                    .map(|&t| (a_vars[t.index()], 1.0))
                    .collect();
                terms.push((s, -1.0));
                lp.add_constraint(terms, Sense::Ge, 0.0);
                if qi == 0 {
                    lp.add_constraint(vec![(s, 1.0), (z, -d)], Sense::Ge, 0.0);
                }
            }
        }
        let key = problem.structure_key() ^ CACHE_SALT_POLISH ^ hash_delta(delta);
        let sol = self.warm_solve(&lp, key);
        self.stats.polish_ms += ms_since(t0);
        if !sol.is_usable() {
            // Extremely defensive: fall back to the primary solution
            // shape by re-solving the plain subproblem.
            return (self.subproblem(delta).allocation, None);
        }
        (a_vars.iter().map(|&v| sol.value(v).max(0.0)).collect(), sol.quality)
    }
}

/// One Benders optimality cut (Eqn 11): `Φ ≥ const + Σ w_{f,q} δ_{f,q}`.
#[derive(Debug, Clone)]
struct Cut {
    constant: f64,
    /// (flow, scenario, weight ≥ 0).
    weights: Vec<(usize, usize, f64)>,
}

/// The materialized Benders subproblem LP: coverage rows exist for
/// *every* (flow, scenario 0 ∪ affecting) pair, and a selection δ is
/// imposed purely through the right-hand side (`d` when selected, `0`
/// — a vacuous row, since all variables are non-negative — when not).
/// Because iterations only move the rhs, every solve after the first
/// is a dual-simplex re-solve on the live tableau instead of a cold
/// two-phase run.
struct BendersLp {
    lp: LinearProgram,
    a_vars: Vec<VarId>,
    phi: VarId,
    cap_rows: Vec<ConstraintId>,
    /// (flow, scenario, row, demand) for every materialized row.
    cov_rows: Vec<(usize, usize, ConstraintId, f64)>,
}

/// Builds the materialized Benders subproblem.
fn build_benders_lp(problem: &TeProblem<'_>) -> BendersLp {
    let n_tunnels = problem.tunnels.len();
    let mut lp = LinearProgram::new();
    let a_vars: Vec<VarId> =
        (0..n_tunnels).map(|_| lp.var_nonneg(0.0)).collect();
    let phi = lp.var_nonneg(1.0);

    let mut group_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); problem.groups.len()];
    for t in problem.tunnels.tunnels() {
        for g in problem.groups.groups_of_path(&t.path.links) {
            group_terms[g].push((a_vars[t.id.index()], 1.0));
        }
    }
    let mut cap_rows = Vec::with_capacity(problem.groups.len());
    for (g, terms) in group_terms.into_iter().enumerate() {
        cap_rows.push(lp.add_constraint(terms, Sense::Le, problem.groups.capacity(g)));
    }

    let mut cov_rows = Vec::new();
    for f in 0..problem.flows.len() {
        let d = problem.flows[f].demand_gbps;
        if d <= 0.0 {
            continue;
        }
        let mut rows = vec![0usize];
        rows.extend_from_slice(problem.affecting(f));
        for qi in rows {
            let mut terms: Vec<(VarId, f64)> = problem
                .surviving(f, qi)
                .iter()
                .map(|&t| (a_vars[t.index()], 1.0))
                .collect();
            terms.push((phi, d));
            let row = lp.add_constraint(terms, Sense::Ge, d);
            cov_rows.push((f, qi, row, d));
        }
    }
    BendersLp { lp, a_vars, phi, cap_rows, cov_rows }
}

fn set_benders_rhs(b: &mut BendersLp, delta: &[Vec<usize>]) {
    for &(f, qi, row, d) in &b.cov_rows {
        let rhs = if delta[f].contains(&qi) { d } else { 0.0 };
        b.lp.set_rhs(row, rhs);
    }
}

fn extract_subproblem(sol: &prete_lp::Solution, b: &BendersLp) -> SubproblemResult {
    SubproblemResult {
        allocation: b.a_vars.iter().map(|&v| sol.value(v).max(0.0)).collect(),
        phi: sol.value(b.phi).max(0.0),
        cap_duals: b.cap_rows.iter().map(|&r| sol.duals[r.index()]).collect(),
        cov_duals: b
            .cov_rows
            .iter()
            .map(|&(f, qi, r, _)| (f, qi, sol.duals[r.index()].max(0.0)))
            .collect(),
    }
}

/// The Eqn 11 optimality cut from a subproblem's duals:
/// `Φ ≥ Σ_g y_g c_g + Σ v_{f,q} d_f δ_{f,q}`.
fn cut_from_duals(problem: &TeProblem<'_>, sp: &SubproblemResult) -> Cut {
    let constant: f64 = sp
        .cap_duals
        .iter()
        .enumerate()
        .map(|(g, &y)| y * problem.groups.capacity(g))
        .sum();
    let weights: Vec<(usize, usize, f64)> = sp
        .cov_duals
        .iter()
        .filter(|&&(_, _, v)| v > 1e-12)
        .map(|&(f, qi, v)| (f, qi, v * problem.flows[f].demand_gbps))
        .collect();
    Cut { constant, weights }
}

impl SolveCtx<'_, '_, '_> {
    fn benders(&mut self, beta: f64, eps: f64, max_iters: usize) -> TeSolution {
        let problem = self.problem;
        // Initialization (Algorithm 2 lines 2–4): δ = 1 for all rows we
        // materialize (scenario 0 + affecting), UB = 1, LB = 0, C = ∅.
        let all_delta: Vec<Vec<usize>> = (0..problem.flows.len())
            .map(|f| {
                let mut v = vec![0usize];
                v.extend_from_slice(problem.affecting(f));
                v
            })
            .collect();
        let mut b = build_benders_lp(problem);
        let key = problem.structure_key() ^ CACHE_SALT_BENDERS;
        let mut ws = WarmSimplex::new(self.simplex_opts());

        let mut delta = all_delta.clone();
        let mut ub = f64::INFINITY;
        let mut lb: f64 = 0.0;
        let mut cuts: Vec<Cut> = Vec::new();
        let mut best: Option<(f64, Vec<Vec<usize>>)> = None;
        let mut lp_solves = 0usize;
        let mut iters = 0usize;

        while iters < max_iters {
            iters += 1;
            // Step 1: subproblem with fixed δ. The first iteration is a
            // (possibly cache-seeded) full solve; later ones are
            // rhs-only dual-simplex moves on the live tableau.
            let t0 = Instant::now();
            set_benders_rhs(&mut b, &delta);
            let sol = if iters == 1 {
                let warm = self.cache.as_mut().and_then(|c| c.get(key)).cloned();
                let (sol, used) = ws.solve_from(&b.lp, warm.as_ref());
                if self.cache.is_some() {
                    if used {
                        self.stats.warm_hits += 1;
                        self.obs.event_with("solver.warm-start", || format!("hit key={key:#x}"));
                    } else {
                        self.stats.warm_misses += 1;
                        self.obs.event_with("solver.warm-start", || format!("miss key={key:#x}"));
                    }
                }
                sol
            } else {
                let (sol, live) = ws.resolve_rhs(&b.lp);
                if live {
                    self.stats.rhs_resolves += 1;
                }
                sol
            };
            self.stats.lp_solves += 1;
            self.stats.subproblem_ms += ms_since(t0);
            if sol.status == SolveStatus::NumericallySuspect {
                self.stats.suspect_solves += 1;
                self.obs.event_with("solver.numerically-suspect", || {
                    format!("benders subproblem iter={iters}")
                });
            }
            assert!(
                sol.is_usable(),
                "subproblem must be solvable (Φ = 1 is always feasible), got {:?}",
                sol.status
            );
            let sp = extract_subproblem(&sol, &b);
            lp_solves += 1;
            if sp.phi < ub {
                ub = sp.phi;
                best = Some((sp.phi, delta.clone()));
            }
            // Optimality cut (Eqn 11).
            cuts.push(cut_from_duals(problem, &sp));
            self.stats.cuts_added += 1;
            self.obs.event_with("solver.benders-iteration", || {
                format!("iter={iters} ub={ub:.6} lb={lb:.6} cuts={}", cuts.len())
            });
            if ub - lb <= eps {
                break;
            }
            // Step 2: master problem.
            let t1 = Instant::now();
            let (new_delta, master_obj, nodes) =
                solve_master(problem, beta, &cuts, &all_delta, self.simplex_opts());
            self.stats.master_ms += ms_since(t1);
            self.stats.mip_nodes += nodes;
            self.stats.lp_solves += 1;
            lp_solves += 1;
            lb = lb.max(master_obj);
            if ub - lb <= eps {
                break;
            }
            delta = new_delta;
        }
        self.stats.pivots += ws.pivots();
        let engine = ws.engine_stats();
        self.stats.refactorizations += engine.refactorizations;
        self.stats.etas += engine.etas;
        self.stats.fill_in += engine.fill_in;
        if engine.rollbacks > 0 {
            self.stats.ft_rollbacks += engine.rollbacks;
            self.obs.event_with("solver.ft-rollback", || {
                format!("{} pivot(s) rolled back in benders loop", engine.rollbacks)
            });
        }
        if engine.dense_fallback {
            self.stats.dense_fallbacks += 1;
            self.obs.event("solver.dense-fallback", "singular sparse factorization in benders loop");
        }
        self.stats.refinements += engine.refinements;
        self.stats.tightenings += engine.tightenings;
        self.stats.patched_columns += engine.patched_columns;
        self.stats.max_condition_estimate =
            self.stats.max_condition_estimate.max(engine.condition_estimate);
        self.stats.benders_iters = iters;
        if let Some(basis) = ws.basis() {
            if let Some(c) = self.cache.as_mut() {
                c.put(key, basis);
            }
        }
        let (phi, delta) = best.expect("at least one subproblem solved");
        let (allocation, quality) = self.polish(&delta, phi);
        TeSolution {
            allocation,
            max_loss: phi,
            delta,
            lp_solves: lp_solves + 1,
            benders_iters: iters,
            quality,
        }
    }
}

/// Solves the Benders master: min Φ s.t. the availability knapsack per
/// flow and all optimality cuts, δ binary. Returns the new selection,
/// the master objective (a lower bound), and the B&B node count.
fn solve_master(
    problem: &TeProblem<'_>,
    beta: f64,
    cuts: &[Cut],
    all_delta: &[Vec<usize>],
    simplex: SimplexOptions,
) -> (Vec<Vec<usize>>, f64, usize) {
    let scen = &problem.scenarios.scenarios;
    let mut lp = LinearProgram::new();
    let phi = lp.var_unit(1.0);
    // δ variables for (flow, materialized scenario).
    let mut dvars: Vec<Vec<VarId>> = Vec::with_capacity(all_delta.len());
    for (f, qs) in all_delta.iter().enumerate() {
        let vars: Vec<VarId> = qs.iter().map(|_| lp.var_unit(0.0)).collect();
        // Knapsack (constraint 5): Σ δ p + unaffecting mass ≥ β,
        // clamped to the attainable mass when enumeration fell short.
        let attainable: f64 = qs.iter().map(|&qi| scen[qi].prob).sum();
        let rhs = (beta - problem.unaffecting_mass(f)).min(attainable * (1.0 - 1e-12));
        let terms: Vec<(VarId, f64)> = vars
            .iter()
            .zip(qs)
            .map(|(&v, &qi)| (v, scen[qi].prob))
            .collect();
        lp.add_constraint(terms, Sense::Ge, rhs);
        dvars.push(vars);
    }
    // Cuts: Φ - Σ w δ ≥ const.
    for cut in cuts {
        let mut terms = vec![(phi, 1.0)];
        for &(f, qi, w) in &cut.weights {
            let pos = all_delta[f].iter().position(|&x| x == qi).expect("cut row exists");
            terms.push((dvars[f][pos], -w));
        }
        lp.add_constraint(terms, Sense::Ge, cut.constant);
    }
    let binaries: Vec<VarId> = dvars.iter().flatten().copied().collect();
    let opts = MipOptions { max_nodes: 4000, simplex, ..Default::default() };
    let r = solve_mip(&lp, &binaries, opts);
    let x = if r.status == MipStatus::Optimal || r.has_incumbent() {
        r.x.clone()
    } else {
        // Fallback: select everything (always feasible).
        let mut x = vec![0.0; lp.num_vars()];
        for v in &binaries {
            x[v.index()] = 1.0;
        }
        x
    };
    let delta: Vec<Vec<usize>> = all_delta
        .iter()
        .zip(&dvars)
        .map(|(qs, vars)| {
            qs.iter()
                .zip(vars)
                .filter(|&(_, &v)| x[v.index()] > 0.5)
                .map(|(&qi, _)| qi)
                .collect()
        })
        .collect();
    let obj = if r.has_incumbent() { r.objective } else { 0.0 };
    (delta, obj, r.nodes)
}

impl SolveCtx<'_, '_, '_> {
    /// Full MIP (2)–(8) via branch-and-bound: exact reference for small
    /// instances, surfacing budget exhaustion and infeasibility instead
    /// of panicking.
    fn bnb(&mut self, beta: f64, opts: MipOptions) -> Result<TeSolution, TeSolveError> {
        let t0 = Instant::now();
        let problem = self.problem;
        let scen = &problem.scenarios.scenarios;
        let n_tunnels = problem.tunnels.len();
        let mut lp = LinearProgram::new();
        let a_vars: Vec<VarId> =
            (0..n_tunnels).map(|_| lp.var_nonneg(0.0)).collect();
        let phi = lp.var_unit(1.0);
        // Capacity.
        let mut group_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); problem.groups.len()];
        for t in problem.tunnels.tunnels() {
            for g in problem.groups.groups_of_path(&t.path.links) {
                group_terms[g].push((a_vars[t.id.index()], 1.0));
            }
        }
        for (g, terms) in group_terms.into_iter().enumerate() {
            lp.add_constraint(terms, Sense::Le, problem.groups.capacity(g));
        }
        // δ vars + coverage + knapsack.
        let mut dvars: Vec<Vec<(usize, VarId)>> = Vec::new();
        for f in 0..problem.flows.len() {
            let d = problem.flows[f].demand_gbps;
            let mut rows = vec![0usize];
            rows.extend_from_slice(problem.affecting(f));
            let vars: Vec<(usize, VarId)> = rows
                .iter()
                .map(|&qi| (qi, lp.var_unit(0.0)))
                .collect();
            for &(qi, dv) in &vars {
                // Σ surv a + d Φ − d δ ≥ 0.
                let mut terms: Vec<(VarId, f64)> = problem
                    .surviving(f, qi)
                    .iter()
                    .map(|&t| (a_vars[t.index()], 1.0))
                    .collect();
                terms.push((phi, d));
                terms.push((dv, -d));
                lp.add_constraint(terms, Sense::Ge, 0.0);
            }
            let attainable: f64 = vars.iter().map(|&(qi, _)| scen[qi].prob).sum();
            let rhs = (beta - problem.unaffecting_mass(f)).min(attainable * (1.0 - 1e-12));
            let terms: Vec<(VarId, f64)> =
                vars.iter().map(|&(qi, v)| (v, scen[qi].prob)).collect();
            lp.add_constraint(terms, Sense::Ge, rhs);
            dvars.push(vars);
        }
        let binaries: Vec<VarId> = dvars.iter().flatten().map(|&(_, v)| v).collect();
        let r = solve_mip(&lp, &binaries, opts);
        self.stats.master_ms += ms_since(t0);
        self.stats.mip_nodes += r.nodes;
        self.stats.lp_solves += r.nodes;
        match r.status {
            MipStatus::Optimal => {}
            MipStatus::Infeasible => return Err(TeSolveError::Infeasible),
            // Φ ∈ [0, 1] bounds the objective, so Unbounded only arises
            // from a malformed program — report it as infeasibility
            // rather than aborting the controller.
            MipStatus::Unbounded => return Err(TeSolveError::Infeasible),
            MipStatus::NodeLimit => {
                return Err(TeSolveError::BudgetExceeded { nodes: r.nodes })
            }
        }
        let delta: Vec<Vec<usize>> = dvars
            .iter()
            .map(|vars| {
                vars.iter()
                    .filter(|&&(_, v)| r.x[v.index()] > 0.5)
                    .map(|&(qi, _)| qi)
                    .collect()
            })
            .collect();
        let max_loss = r.x[phi.index()].max(0.0);
        let (allocation, quality) = self.polish(&delta, max_loss);
        Ok(TeSolution {
            allocation,
            max_loss,
            delta,
            lp_solves: r.nodes + 1,
            benders_iters: 0,
            quality,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{triangle, triangle_flows, TRIANGLE_PROBS};
    use crate::scenario::ScenarioSet;
    use prete_topology::TunnelSet;

    fn triangle_problem(
        probs: &[f64],
    ) -> (prete_topology::Network, Vec<Flow>, TunnelSet, ScenarioSet) {
        let net = triangle();
        let flows = triangle_flows();
        let tunnels = TunnelSet::initialize(&net, &flows, 2);
        let scenarios = ScenarioSet::enumerate(probs, 2, 0.0);
        (net, flows, tunnels, scenarios)
    }

    fn run(p: &TeProblem<'_>, beta: f64, method: SolveMethod) -> TeSolution {
        TeSolver::new(p).beta(beta).method(method).solve().expect("solvable within budget")
    }

    #[test]
    fn triangle_zero_loss_at_99() {
        // Per-flow β = 99 % is satisfiable at zero loss — but only if
        // the two flows exclude *different* failure scenarios (flow
        // s1→s2 drops the s1s3 cut, flow s1→s3 drops the s1s2 cut;
        // protecting both against the same cut oversubscribes the
        // detour link). The greedy heuristic picks by probability alone
        // and lands on Φ = 0.5; the exact solvers find Φ = 0. This is
        // precisely why the paper solves the MIP with Benders instead
        // of a one-shot selection.
        let (net, flows, tunnels, scenarios) = triangle_problem(&TRIANGLE_PROBS);
        let p = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        for method in [SolveMethod::benders(), SolveMethod::BranchAndBound] {
            let sol = run(&p, 0.99, method);
            assert!(sol.max_loss < 1e-6, "{method:?}: Φ = {}", sol.max_loss);
            // No-failure delivery is full demand for both flows.
            assert!((sol.delivered(&p, 0, 0) - 10.0).abs() < 1e-6);
            assert!((sol.delivered(&p, 1, 0) - 10.0).abs() < 1e-6);
        }
        // The heuristic stays a valid upper bound.
        let h = run(&p, 0.99, SolveMethod::Heuristic);
        assert!(h.max_loss >= -1e-9);
    }

    #[test]
    fn solution_round_trips_through_json() {
        let (net, flows, tunnels, scenarios) = triangle_problem(&TRIANGLE_PROBS);
        let p = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        let sol = run(&p, 0.99, SolveMethod::Heuristic);
        let json = serde_json::to_string(&sol).expect("serialize solution");
        let back: TeSolution = serde_json::from_str(&json).expect("parse solution");
        assert_eq!(back, sol);
    }

    #[test]
    fn triangle_protecting_all_singles_costs_capacity() {
        // Force protection against every single failure (β close to 1):
        // flow s1→s2 must survive the loss of fiber 0, which leaves only
        // the 2-hop detour — but the detour shares links with flow
        // s1→s3's protection, so Φ > 0 at these demands.
        let (net, flows, tunnels, scenarios) = triangle_problem(&TRIANGLE_PROBS);
        let p = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        let sol = run(&p, 0.999999, SolveMethod::BranchAndBound);
        assert!(sol.max_loss > 0.2, "Φ = {}", sol.max_loss);
        // All three solvers agree on the optimum.
        let h = run(&p, 0.999999, SolveMethod::Heuristic);
        let b = run(&p, 0.999999, SolveMethod::benders());
        assert!((h.max_loss - sol.max_loss).abs() < 1e-4, "heuristic {}", h.max_loss);
        assert!((b.max_loss - sol.max_loss).abs() < 1e-4, "benders {}", b.max_loss);
    }

    #[test]
    fn benders_matches_bnb_on_asymmetric_probs() {
        // Probabilities where greedy-by-probability is not trivially
        // optimal: one cheap-to-protect scenario is rare, one expensive
        // scenario is common.
        let (net, flows, tunnels, scenarios) = triangle_problem(&[0.02, 0.001, 0.02]);
        let p = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        for beta in [0.97, 0.99, 0.995] {
            let exact = run(&p, beta, SolveMethod::BranchAndBound);
            let bend = run(&p, beta, SolveMethod::benders());
            assert!(
                (exact.max_loss - bend.max_loss).abs() < 1e-3,
                "beta {beta}: exact {} vs benders {}",
                exact.max_loss,
                bend.max_loss
            );
            // Heuristic is an upper bound (feasible but maybe
            // suboptimal).
            let heur = run(&p, beta, SolveMethod::Heuristic);
            assert!(heur.max_loss >= exact.max_loss - 1e-6);
        }
    }

    #[test]
    fn allocation_respects_capacity() {
        let (net, flows, tunnels, scenarios) = triangle_problem(&TRIANGLE_PROBS);
        let p = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        let sol = run(&p, 0.999999, SolveMethod::Heuristic);
        // Recompute per-group load.
        let mut load = vec![0.0; p.groups.len()];
        for t in tunnels.tunnels() {
            for g in p.groups.groups_of_path(&t.path.links) {
                load[g] += sol.allocation[t.id.index()];
            }
        }
        for (g, &l) in load.iter().enumerate() {
            assert!(l <= p.groups.capacity(g) + 1e-6, "group {g}: {l}");
        }
    }

    #[test]
    fn oracle_certainty_forces_protection() {
        // Fiber 0 (s1s2) will fail for sure — the Figure 3(c) setting.
        // Flow s1→s2 must detour via s3 and flow s1→s3's direct link is
        // shared with that detour, so the 20 units of demand compress
        // to 10 of delivery: the optimal max loss is exactly 0.5 and
        // total throughput 10, matching the paper's oracle outcome.
        let (net, flows, tunnels, _) = triangle_problem(&TRIANGLE_PROBS);
        let scenarios = ScenarioSet::enumerate(&[1.0, 0.0, 0.0], 1, 0.0);
        let p = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        let sol = run(&p, 0.99, SolveMethod::BranchAndBound);
        assert!((sol.max_loss - 0.5).abs() < 1e-6, "Φ = {}", sol.max_loss);
        // Every scenario cuts fiber 0; total delivery is 10 units.
        for (qi, _) in scenarios.scenarios.iter().enumerate() {
            let total = sol.delivered(&p, 0, qi) + sol.delivered(&p, 1, qi);
            assert!((total - 10.0).abs() < 1e-5, "total {total}");
        }
    }

    #[test]
    fn loss_and_delivered_consistency() {
        let (net, flows, tunnels, scenarios) = triangle_problem(&TRIANGLE_PROBS);
        let p = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        let sol = run(&p, 0.99, SolveMethod::Heuristic);
        for (f, flow) in flows.iter().enumerate() {
            for q in 0..scenarios.len() {
                let l = sol.loss(&p, f, q);
                let d = sol.delivered(&p, f, q);
                assert!((0.0..=1.0).contains(&l));
                assert!((d - (1.0 - l) * flow.demand_gbps).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn affecting_sets_are_correct() {
        let (net, flows, tunnels, scenarios) = triangle_problem(&TRIANGLE_PROBS);
        let p = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        // Flow 0 (s1→s2) has tunnels s1s2 and s1s3s2: every single-cut
        // scenario kills one of them.
        for (f, flow) in flows.iter().enumerate() {
            for &qi in p.affecting(f) {
                let all = tunnels.of_flow(flow.id).len();
                assert!(p.surviving(f, qi).len() < all);
            }
        }
    }

    #[test]
    fn recorder_captures_solve_span_and_counters() {
        let (net, flows, tunnels, scenarios) = triangle_problem(&TRIANGLE_PROBS);
        let p = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        let rec = Recorder::deterministic();
        let mut cache = BasisCache::new();
        let (_, stats) = TeSolver::new(&p)
            .beta(0.99)
            .method(SolveMethod::benders())
            .threads(1)
            .warm_cache(&mut cache)
            .recorder(&rec)
            .solve_with_stats()
            .unwrap();
        let (_, s2) = TeSolver::new(&p)
            .beta(0.99)
            .method(SolveMethod::benders())
            .threads(1)
            .warm_cache(&mut cache)
            .recorder(&rec)
            .solve_with_stats()
            .unwrap();
        let r = rec.report();
        // One "solve" span per solve, feeding the span histogram.
        assert_eq!(r.spans.iter().filter(|s| s.name == "solve").count(), 2);
        assert_eq!(r.histograms["span.solve"].count, 2);
        // Published counters aggregate the per-solve stats.
        assert_eq!(
            r.counters["solver.lp_solves"],
            (stats.lp_solves + s2.lp_solves) as u64
        );
        assert_eq!(
            r.counters["solver.benders_iters"],
            (stats.benders_iters + s2.benders_iters) as u64
        );
        assert_eq!(r.counters["solver.warm_hits"], (stats.warm_hits + s2.warm_hits) as u64);
        // Events fired for Benders iterations, and warm starts once the
        // cache was primed.
        assert!(!r.events_of_kind("solver.benders-iteration").is_empty());
        assert_eq!(
            r.events_of_kind("solver.warm-start").len(),
            (stats.warm_hits + stats.warm_misses + s2.warm_hits + s2.warm_misses),
        );
        // Deterministic reports carry no machine wall times.
        assert!(!r.histograms.contains_key("solver.total_ms"));
    }

    #[test]
    fn parallel_solves_are_bit_identical_to_serial() {
        let (net, flows, tunnels, scenarios) = triangle_problem(&TRIANGLE_PROBS);
        let p = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        for method in [SolveMethod::Heuristic, SolveMethod::benders(), SolveMethod::BranchAndBound]
        {
            let serial = TeSolver::new(&p).beta(0.99).method(method).threads(1).solve().unwrap();
            for threads in [2, 4, 8] {
                let par = TeSolver::new(&p)
                    .beta(0.99)
                    .method(method)
                    .threads(threads)
                    .solve()
                    .unwrap();
                let sb: Vec<u64> = serial.allocation.iter().map(|a| a.to_bits()).collect();
                let pb: Vec<u64> = par.allocation.iter().map(|a| a.to_bits()).collect();
                assert_eq!(sb, pb, "{method:?} @ {threads} threads");
                assert_eq!(serial.max_loss.to_bits(), par.max_loss.to_bits());
                assert_eq!(serial.delta, par.delta);
            }
        }
    }

    #[test]
    fn warm_cache_reuse_keeps_solutions_identical() {
        let (net, flows, tunnels, scenarios) = triangle_problem(&TRIANGLE_PROBS);
        let p = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        let cold = TeSolver::new(&p).beta(0.99).threads(1).solve().unwrap();

        let mut cache = BasisCache::new();
        let (first, s1) = TeSolver::new(&p)
            .beta(0.99)
            .threads(1)
            .warm_cache(&mut cache)
            .solve_with_stats()
            .unwrap();
        assert_eq!(s1.warm_hits, 0, "empty cache cannot hit");
        assert!(!cache.is_empty(), "optimal bases were saved");
        let (second, s2) = TeSolver::new(&p)
            .beta(0.99)
            .threads(1)
            .warm_cache(&mut cache)
            .solve_with_stats()
            .unwrap();
        assert!(s2.warm_hits > 0, "second solve should restore a cached basis");
        for (a, b) in [(&cold, &first), (&first, &second)] {
            assert_eq!(a.allocation, b.allocation);
            assert_eq!(a.max_loss.to_bits(), b.max_loss.to_bits());
        }
    }

    #[test]
    fn benders_stats_count_work_units() {
        let (net, flows, tunnels, scenarios) = triangle_problem(&TRIANGLE_PROBS);
        let p = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        let (_, stats) = TeSolver::new(&p)
            .beta(0.99)
            .method(SolveMethod::benders())
            .threads(1)
            .solve_with_stats()
            .unwrap();
        assert!(stats.benders_iters > 0);
        assert_eq!(stats.cuts_added, stats.benders_iters);
        assert!(stats.lp_solves > 0);
        assert!(stats.pivots > 0);
        if stats.benders_iters > 1 {
            assert!(stats.rhs_resolves > 0, "later iterations re-solve the live tableau");
        }
        // Equality ignores wall-clock: two runs of the same work compare
        // equal even though their timings differ.
        let (_, again) = TeSolver::new(&p)
            .beta(0.99)
            .method(SolveMethod::benders())
            .threads(1)
            .solve_with_stats()
            .unwrap();
        assert_eq!(stats, again);
        // merge() accumulates work units.
        let mut merged = stats.clone();
        merged.merge(&again);
        assert_eq!(merged.lp_solves, stats.lp_solves * 2);
        assert_eq!(merged.threads, 1);
        // work_units() is the five deterministic counters — never wall
        // clock or threads.
        let counted = SolverStats {
            pivots: 10,
            lp_solves: 3,
            mip_nodes: 2,
            benders_iters: 4,
            rhs_resolves: 5,
            total_ms: 99.0,
            threads: 8,
            ..SolverStats::default()
        };
        assert_eq!(counted.work_units(), 24);
    }

    #[test]
    fn solver_stats_serialize_every_field() {
        // The vendored serde is one-way (no deserializer), so the
        // round-trip check is on the JSON text: every field present
        // with the value it was set to.
        let stats = SolverStats {
            total_ms: 12.5,
            subproblem_ms: 7.25,
            master_ms: 3.0,
            polish_ms: 1.5,
            lp_solves: 4,
            pivots: 321,
            benders_iters: 6,
            cuts_added: 6,
            mip_nodes: 9,
            warm_hits: 2,
            warm_misses: 1,
            rhs_resolves: 5,
            cache_evictions: 3,
            refactorizations: 11,
            etas: 57,
            fill_in: 204,
            ft_rollbacks: 2,
            dense_fallbacks: 1,
            refinements: 7,
            tightenings: 3,
            patched_columns: 2,
            suspect_solves: 1,
            scenarios_pruned: 1234,
            tail_mass: 0.125,
            max_condition_estimate: 1500.0,
            threads: 8,
            pricing: Pricing::Devex,
            eta_update: EtaUpdate::ForrestTomlin,
            cold_start: ColdStart::Auto,
        };
        let json = serde_json::to_string(&stats).unwrap();
        for field in [
            r#""total_ms":12.5"#,
            r#""subproblem_ms":7.25"#,
            r#""master_ms":3.0"#,
            r#""polish_ms":1.5"#,
            r#""lp_solves":4"#,
            r#""pivots":321"#,
            r#""benders_iters":6"#,
            r#""cuts_added":6"#,
            r#""mip_nodes":9"#,
            r#""warm_hits":2"#,
            r#""warm_misses":1"#,
            r#""rhs_resolves":5"#,
            r#""cache_evictions":3"#,
            r#""refactorizations":11"#,
            r#""etas":57"#,
            r#""fill_in":204"#,
            r#""ft_rollbacks":2"#,
            r#""dense_fallbacks":1"#,
            r#""refinements":7"#,
            r#""tightenings":3"#,
            r#""patched_columns":2"#,
            r#""suspect_solves":1"#,
            r#""scenarios_pruned":1234"#,
            r#""tail_mass":0.125"#,
            r#""max_condition_estimate":1500.0"#,
            r#""threads":8"#,
            r#""pricing":"Devex""#,
            r#""eta_update":"ForrestTomlin""#,
            r#""cold_start":"Auto""#,
        ] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
    }

    #[test]
    fn solver_stats_equality_is_work_units_only() {
        let base = SolverStats {
            lp_solves: 3,
            pivots: 100,
            benders_iters: 2,
            cuts_added: 2,
            warm_hits: 1,
            warm_misses: 1,
            rhs_resolves: 1,
            ..SolverStats::default()
        };
        // Different machine: wall times and thread count differ, work
        // units agree — still equal.
        let other_machine = SolverStats {
            total_ms: 999.0,
            subproblem_ms: 500.0,
            master_ms: 400.0,
            polish_ms: 99.0,
            threads: 32,
            ..base.clone()
        };
        assert_eq!(base, other_machine);
        // Any differing work unit breaks equality.
        assert_ne!(base, SolverStats { pivots: 101, ..base.clone() });
        assert_ne!(base, SolverStats { warm_hits: 2, ..base.clone() });
        assert_ne!(base, SolverStats { rhs_resolves: 0, ..base.clone() });
        assert_ne!(base, SolverStats { scenarios_pruned: 7, ..base.clone() });
        // Float telemetry (like condition estimates) stays outside
        // equality: tail mass depends on the enumeration budget, not on
        // the deterministic work the solver performed.
        assert_eq!(base, SolverStats { tail_mass: 0.5, ..base.clone() });
    }

    #[test]
    fn bounded_cache_evictions_surface_in_stats() {
        let (net, flows, tunnels, scenarios) = triangle_problem(&TRIANGLE_PROBS);
        let p = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        let solve = |cache: &mut BasisCache| {
            TeSolver::new(&p)
                .beta(0.99)
                .method(SolveMethod::benders())
                .threads(1)
                .warm_cache(cache)
                .solve_with_stats()
                .unwrap()
                .1
        };
        // Unbounded baseline: no evictions, and the solve wants more
        // than one cached basis (one per Benders subproblem family).
        let mut unbounded = BasisCache::new();
        let base = solve(&mut unbounded);
        assert_eq!(base.cache_evictions, 0);
        let keys = unbounded.len();
        assert!(keys > 1, "expected multiple cached bases, got {keys}");
        // Capacity 1 forces LRU churn; the delta lands in the stats.
        let mut bounded = BasisCache::with_capacity(1);
        let stats = solve(&mut bounded);
        assert_eq!(stats.cache_evictions, bounded.evictions());
        assert!(stats.cache_evictions >= keys - 1);
        assert!(bounded.len() <= 1);
        // Eviction counts are work units: bit-identical across runs.
        let mut again = BasisCache::with_capacity(1);
        assert_eq!(solve(&mut again), stats);
    }

    #[test]
    fn stats_accumulate_across_warm_epochs() {
        let (net, flows, tunnels, scenarios) = triangle_problem(&TRIANGLE_PROBS);
        let p = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        let epochs = 4;
        let run_epochs = || {
            let mut cache = BasisCache::new();
            let mut acc = SolverStats::default();
            let mut per_epoch = Vec::new();
            for _ in 0..epochs {
                let (_, s) = TeSolver::new(&p)
                    .beta(0.99)
                    .threads(1)
                    .warm_cache(&mut cache)
                    .solve_with_stats()
                    .unwrap();
                acc.merge(&s);
                per_epoch.push(s);
            }
            (acc, per_epoch)
        };
        let (acc, per_epoch) = run_epochs();
        // Accumulation is exact: the merged counters are the sums.
        assert_eq!(acc.lp_solves, per_epoch.iter().map(|s| s.lp_solves).sum::<usize>());
        assert_eq!(acc.pivots, per_epoch.iter().map(|s| s.pivots).sum::<usize>());
        assert_eq!(
            acc.warm_hits + acc.warm_misses,
            per_epoch.iter().map(|s| s.warm_hits + s.warm_misses).sum::<usize>()
        );
        // Epoch 1 misses cold, epochs 2.. restore the saved basis.
        assert_eq!(per_epoch[0].warm_hits, 0);
        assert!(per_epoch[1..].iter().all(|s| s.warm_hits > 0));
        assert!(acc.warm_hit_rate() > 0.0 && acc.warm_hit_rate() < 1.0);
        // Deterministic: a second pass over the same epochs merges to
        // the same work-unit totals.
        let (acc2, _) = run_epochs();
        assert_eq!(acc, acc2);
    }

    #[test]
    fn problem_config_precompute_parallelism_is_invisible() {
        let (net, flows, tunnels, scenarios) = triangle_problem(&TRIANGLE_PROBS);
        let serial = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        let par = TeProblem::with_config(
            &net,
            &flows,
            &tunnels,
            &scenarios,
            ProblemConfig { precompute_threads: 4, ..ProblemConfig::default() },
        );
        assert_eq!(serial.structure_key(), par.structure_key());
        for f in 0..flows.len() {
            assert_eq!(serial.affecting(f), par.affecting(f));
            for q in 0..scenarios.len() {
                assert_eq!(serial.surviving(f, q), par.surviving(f, q));
            }
        }
        let a = run(&serial, 0.99, SolveMethod::Heuristic);
        let b = run(&par, 0.99, SolveMethod::Heuristic);
        assert_eq!(a.allocation, b.allocation);
    }
}
