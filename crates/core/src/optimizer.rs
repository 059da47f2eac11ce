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
//! "independent of the number of δ to be addressed").
//!
//! A row depends on the scenario only through the set of tunnels that
//! survive it, so [`TeProblem::new`] interns, per flow, the distinct
//! surviving sets (*survival classes*). The heuristic's min-Φ LP gets
//! one coverage row per selected class that contains no other selected
//! class: equal sets give equal rows, and because `a ≥ 0` a superset's
//! row is implied by its subset's. The feasible `(a, Φ)` region, and so
//! `Φ*`, is unchanged; a dead class (no tunnel survives) leaves the
//! single row `d_f·Φ ≥ d_f`. The polish LP, the materialized Benders
//! subproblem, its master and the exact MIP keep one row per
//! (flow, scenario), over the no-failure scenario and the scenarios that
//! kill one of the flow's tunnels (an unaffecting scenario's row equals
//! the no-failure row).
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

use crate::capacity::{tunnel_sum, CapacityGroups};
use crate::scenario::ScenarioSet;
use prete_lp::{
    solve_mip, BasisCache, ColdStart, ConstraintId, EngineStats, LinearProgram, MipOptions,
    MipStatus, Sense, SimplexOptions, SolveStatus, VarId, WarmSimplex,
};
use prete_obs::Recorder;
use prete_topology::{Flow, Network, TunnelId, TunnelSet};
use serde::Serialize;
use std::time::Instant;

/// The availability target a [`TeSolver`] plans for unless
/// [`TeSolver::beta`] says otherwise.
pub const DEFAULT_BETA: f64 = 0.99;

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

/// Failure scenarios per flow that get an explicit delivery variable in
/// the allocation polish pass (most probable first).
const POLISH_SCENARIOS_PER_FLOW: usize = 6;

/// Slack added to the frozen `Φ` in the polish pass to absorb LP
/// round-off.
const POLISH_SLACK: f64 = 1e-9;

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
    /// Survival classes: `classes[f]` lists the distinct sets of flow
    /// `f`'s tunnels that survive some scenario, in first-seen scenario
    /// order. Each set keeps the order of [`TunnelSet::of_flow`].
    classes: Vec<Vec<Vec<TunnelId>>>,
    /// `class_of[f][q]` = index into `classes[f]` of the set alive in
    /// scenario `q`.
    class_of: Vec<Vec<usize>>,
    /// Per flow: scenario indices (≠ 0) that kill at least one tunnel.
    affecting: Vec<Vec<usize>>,
    /// Per flow: probability mass of the scenarios (≠ 0) outside
    /// `affecting`.
    unaffecting_mass: Vec<f64>,
}

impl<'a> TeProblem<'a> {
    /// Builds a problem, precomputing per-flow survival classes.
    pub fn new(
        net: &'a Network,
        flows: &'a [Flow],
        tunnels: &'a TunnelSet,
        scenarios: &'a ScenarioSet,
    ) -> Self {
        let groups = CapacityGroups::build(net);
        let mut classes = Vec::with_capacity(flows.len());
        let mut class_of = Vec::with_capacity(flows.len());
        let mut affecting = Vec::with_capacity(flows.len());
        let mut unaffecting_mass = Vec::with_capacity(flows.len());
        let mut surv: Vec<TunnelId> = Vec::new();
        for flow in flows {
            let all = tunnels.of_flow(flow.id);
            let mut sets: Vec<Vec<TunnelId>> = Vec::new();
            let mut of_q = Vec::with_capacity(scenarios.len());
            let mut aff = Vec::new();
            let mut unaffected = 0.0;
            for (qi, q) in scenarios.scenarios.iter().enumerate() {
                surv.clear();
                surv.extend(
                    all.iter().copied().filter(|&t| tunnels.tunnel(t).survives(net, &q.cut)),
                );
                if qi != 0 {
                    if surv.len() != all.len() {
                        aff.push(qi);
                    } else {
                        unaffected += q.prob;
                    }
                }
                // A flow has at most 2^|tunnels| classes, so a scan is
                // cheap.
                let c = sets.iter().position(|s| *s == surv).unwrap_or_else(|| {
                    sets.push(surv.clone());
                    sets.len() - 1
                });
                of_q.push(c);
            }
            unaffecting_mass.push(unaffected);
            classes.push(sets);
            class_of.push(of_q);
            affecting.push(aff);
        }
        Self {
            net,
            flows,
            tunnels,
            scenarios,
            groups,
            classes,
            class_of,
            affecting,
            unaffecting_mass,
        }
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
        &self.classes[f][self.class_of[f][q]]
    }

    /// The survival classes of flow `f` whose coverage rows scenarios
    /// `selected` need: each class once, in first-selected order, and
    /// none that strictly contains another selected class — with
    /// `a ≥ 0`, the smaller set's row implies the larger one's.
    fn minimal_classes(&self, f: usize, selected: &[usize]) -> Vec<&[TunnelId]> {
        let mut distinct: Vec<&[TunnelId]> = Vec::with_capacity(selected.len());
        for &qi in selected {
            let set = self.surviving(f, qi);
            if !distinct.contains(&set) {
                distinct.push(set);
            }
        }
        distinct
            .iter()
            .copied()
            .filter(|&set| !distinct.iter().any(|&o| strict_subset(o, set)))
            .collect()
    }

    /// Scenario indices affecting flow `f` (excluding the no-failure
    /// scenario 0).
    pub fn affecting(&self, f: usize) -> &[usize] {
        &self.affecting[f]
    }

    /// Probability mass of scenarios that do NOT affect flow `f`
    /// (excluding scenario 0) — implicitly selected in the master.
    pub fn unaffecting_mass(&self, f: usize) -> f64 {
        self.unaffecting_mass[f]
    }
}

/// `a ⊊ b` for two survival classes of one flow. Both keep the order of
/// the flow's tunnel list, so `a ⊆ b` is a subsequence test.
fn strict_subset(a: &[TunnelId], b: &[TunnelId]) -> bool {
    let mut rest = b.iter();
    a.len() < b.len() && a.iter().all(|t| rest.any(|u| u == t))
}

/// A solved TE policy.
///
/// Serializable and comparable; the float fields are finite in any
/// solution a solver returns, so `PartialEq` is exact.
#[must_use]
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TeSolution {
    /// Allocated bandwidth per tunnel (indexed by [`TunnelId`]).
    pub allocation: Vec<f64>,
    /// The optimized maximum β-loss `Φ` across flows.
    pub max_loss: f64,
    /// Scenario selection: `delta[f]` lists the *selected* scenario
    /// indices for flow `f` (implicitly includes unaffecting ones).
    pub delta: Vec<Vec<usize>>,
    /// KKT certificate of the allocation LP this policy came from
    /// (`None` for the exact-MIP path, whose allocation is certified
    /// per node relaxation instead).
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
    /// Min-Φ solves that restored and used the cached basis (a
    /// heuristic solve with a cache attached makes one lookup).
    pub warm_hits: usize,
    /// Min-Φ lookups that found no usable basis and solved cold.
    pub warm_misses: usize,
    /// Rhs-only dual-simplex re-solves inside the Benders loop.
    pub rhs_resolves: usize,
    /// Always 0: the warm-start cache is unbounded. Kept, like
    /// `refinements`, only because the repository benchmark reads it.
    pub cache_evictions: usize,
    /// Basis LU (re)factorizations in the sparse engine.
    pub refactorizations: u64,
    /// Product-form eta updates appended in the sparse engine.
    pub etas: u64,
    /// Cumulative LU fill-in (factor nonzeros beyond basis nonzeros)
    /// in the sparse engine.
    pub fill_in: u64,
    /// LP solves that ended
    /// [`prete_lp::SolveStatus::NumericalFailure`] — the event that
    /// once handed a solve to a dense fallback engine, kept under the
    /// name the repository benchmark reads. A subproblem that ends this
    /// way fails the TE solve ([`TeSolveError::LpFailed`]); the count
    /// still reaches the recorder, which is published before the error
    /// returns.
    pub dense_fallbacks: usize,
    /// Always 0: the engine no longer refines basic solutions. Kept
    /// only because the repository benchmark reads it, and goes when
    /// the benchmark's next revision stops reading it.
    pub refinements: u64,
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
    /// Cold-start strategy the solve was configured with
    /// (configuration label, not a work unit).
    pub cold_start: ColdStart,
}

impl SolverStats {
    /// Accumulates another solve's counters into this one (wall times
    /// and work units add).
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
        self.dense_fallbacks += other.dense_fallbacks;
        self.refinements += other.refinements;
        self.suspect_solves += other.suspect_solves;
        self.scenarios_pruned += other.scenarios_pruned;
        self.tail_mass = self.tail_mass.max(other.tail_mass);
        self.max_condition_estimate =
            self.max_condition_estimate.max(other.max_condition_estimate);
        // Configuration label: the accumulator adopts the merged
        // solve's choice, so a default-initialized epoch accumulator
        // ends up labelled with what actually ran.
        self.cold_start = other.cold_start;
    }

    /// Total deterministic solver work-units for this solve
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
    /// live clock, wall times feed `solver.*_ms` histograms; under a
    /// deterministic clock those are machine-dependent and excluded,
    /// and *logical-duration*
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
        rec.add("solver.dense_fallbacks", self.dense_fallbacks as u64);
        rec.add("solver.refinements", self.refinements);
        rec.add("solver.suspect_solves", self.suspect_solves as u64);
        rec.add("solver.scenarios_pruned", self.scenarios_pruned);
        if self.tail_mass > 0.0 {
            // A pure function of the scenario budget, so safe in
            // byte-identical reports.
            rec.gauge("solver.tail_mass", self.tail_mass);
        }
        if !rec.is_deterministic() {
            // Wall times are machine-dependent: deterministic reports
            // must be byte-identical across runs, so they stay out.
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
    /// Deterministic work-unit fields only — wall-clock measurements
    /// and the configuration label (`cold_start`) are excluded so
    /// replays on any machine compare equal when they did the same
    /// work.
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
            && self.dense_fallbacks == other.dense_fallbacks
            && self.refinements == other.refinements
            && self.suspect_solves == other.suspect_solves
            && self.scenarios_pruned == other.scenarios_pruned
    }
}

/// Builder for TE solves: owns `beta`, the [`SolveMethod`], the cold
/// start and an optional warm-start [`BasisCache`], replacing the
/// positional-argument `solve_te(problem, beta, method)` family.
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
///     .expect("the triangle solves");
/// assert!(sol.max_loss < 1e-6);
/// ```
#[must_use]
#[derive(Debug)]
pub struct TeSolver<'p, 'a, 'c> {
    problem: &'p TeProblem<'a>,
    beta: f64,
    method: SolveMethod,
    cold_start: ColdStart,
    cache: Option<&'c mut BasisCache>,
    recorder: Recorder,
    scenario_stats: Option<(u64, f64)>,
}

impl<'p, 'a, 'c> TeSolver<'p, 'a, 'c> {
    /// Creates a solver for `problem` with defaults: `beta =`
    /// [`DEFAULT_BETA`], [`SolveMethod::Heuristic`], the default cold
    /// start, no warm-start cache, no recorder.
    pub fn new(problem: &'p TeProblem<'a>) -> Self {
        Self {
            problem,
            beta: DEFAULT_BETA,
            method: SolveMethod::Heuristic,
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

    /// Unread: kept because the repository benchmark names it. A solve
    /// runs on the calling thread whatever this says.
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Cold-start strategy for every LP under this solver
    /// ([`ColdStart::TwoPhase`] by default: the classic primal
    /// two-phase sequence, reproducing historical pivot paths;
    /// [`ColdStart::Auto`] opts into a single dual simplex pass from
    /// the all-slack basis whenever the program qualifies).
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

    /// Warm-starts the min-Φ LP from the basis `cache` holds for this
    /// problem structure and selection (keyed by
    /// [`TeProblem::structure_key`] and δ) and saves its optimal basis
    /// back, so successive epochs skip simplex phase 1. The polish LP
    /// and the Benders subproblem always solve cold.
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
        recorder.event_with("solver.cold-start", || format!("{:?}", self.cold_start));
        let mut ctx = SolveCtx {
            problem: self.problem,
            cold_start: self.cold_start,
            cache: self.cache,
            stats: SolverStats {
                cold_start: self.cold_start,
                scenarios_pruned: self.scenario_stats.map_or(0, |(p, _)| p),
                tail_mass: self.scenario_stats.map_or(0.0, |(_, t)| t),
                ..SolverStats::default()
            },
            obs: recorder.clone(),
        };
        let result = match self.method {
            SolveMethod::Heuristic => ctx.heuristic(self.beta),
            SolveMethod::Benders { eps, max_iters } => ctx.benders(self.beta, eps, max_iters),
            SolveMethod::BranchAndBound => ctx.bnb(self.beta),
        };
        ctx.stats.total_ms = t0.elapsed().as_secs_f64() * 1e3;
        drop(span);
        ctx.stats.publish(&recorder);
        if let Err(e) = &result {
            recorder.event_with("solve-failed", || e.to_string());
        }
        result.map(|sol| (sol, ctx.stats))
    }
}

/// Why a TE solve produced no usable policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeSolveError {
    /// The exact MIP hit [`MipOptions::default`]'s node limit before
    /// proving optimality, or Benders was allowed no iteration.
    BudgetExceeded {
        /// Branch-and-bound nodes explored (0 for Benders).
        nodes: usize,
    },
    /// The program admits no feasible point (only possible for the
    /// exact MIP; the LP relaxation used by the heuristic always admits
    /// `Φ = 1`).
    Infeasible,
    /// An LP the method needed ended without a usable point: it failed
    /// numerically ([`SolveStatus::NumericalFailure`],
    /// counted in [`SolverStats::dense_fallbacks`]) or it hit the
    /// pivot cap.
    LpFailed {
        /// The LP's terminal status.
        status: SolveStatus,
    },
}

impl std::fmt::Display for TeSolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeSolveError::BudgetExceeded { nodes } => {
                write!(f, "TE solve stopped at its node or iteration limit after {nodes} nodes")
            }
            TeSolveError::Infeasible => f.write_str("TE program is infeasible"),
            TeSolveError::LpFailed { status } => {
                write!(f, "a TE solve LP ended {status:?} without a usable point")
            }
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
    cold_start: ColdStart,
    cache: Option<&'c mut BasisCache>,
    stats: SolverStats,
    obs: Recorder,
}

impl SolveCtx<'_, '_, '_> {
    fn simplex_opts(&self) -> SimplexOptions {
        SimplexOptions { cold_start: self.cold_start, ..SimplexOptions::default() }
    }

    /// Passes a usable LP solution; anything else becomes the typed
    /// error the TE solve fails with, and a numerical failure is
    /// counted first.
    fn usable(&mut self, sol: &prete_lp::Solution) -> Result<(), TeSolveError> {
        if sol.is_usable() {
            return Ok(());
        }
        if sol.status == SolveStatus::NumericalFailure {
            self.stats.dense_fallbacks += 1;
        }
        Err(TeSolveError::LpFailed { status: sol.status })
    }

    /// Folds engine counters (sparse refactorizations, etas, fill-in,
    /// condition estimate) into the stats.
    fn absorb_counters(&mut self, engine: &EngineStats) {
        self.stats.refactorizations += engine.refactorizations;
        self.stats.etas += engine.etas;
        self.stats.fill_in += engine.fill_in;
        self.stats.max_condition_estimate =
            self.stats.max_condition_estimate.max(engine.condition_estimate);
    }

    /// Counts one LP solve: its pivots, engine counters and suspect
    /// verdict.
    fn absorb_solve(&mut self, sol: &prete_lp::Solution) {
        self.stats.lp_solves += 1;
        self.stats.pivots += sol.iterations;
        self.absorb_counters(&sol.engine);
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

    /// Solves the min-Φ LP for a fixed selection (heuristic path: one
    /// LP per solve), returning `(allocation, Φ)`. With a cache
    /// attached it is seeded from the basis saved under this structure
    /// and selection, counts the hit or miss, and saves its optimal
    /// basis back.
    fn subproblem(&mut self, delta: &[Vec<usize>]) -> Result<(Vec<f64>, f64), TeSolveError> {
        let t0 = Instant::now();
        let problem = self.problem;
        let (lp, a_vars, phi) = problem.min_phi_lp(delta);
        let key = problem.structure_key() ^ hash_delta(delta);
        let warm = self.cache.as_deref().and_then(|c| c.get(key));
        let mut ws = WarmSimplex::new(self.simplex_opts());
        let (sol, used) = ws.solve_from(&lp, warm);
        if let Some(cache) = self.cache.as_mut() {
            let (count, verdict) = if used {
                (&mut self.stats.warm_hits, "hit")
            } else {
                (&mut self.stats.warm_misses, "miss")
            };
            *count += 1;
            self.obs.event_with("solver.warm-start", || format!("{verdict} key={key:#x}"));
            if let Some(b) = ws.basis() {
                cache.put(key, b);
            }
        }
        self.absorb_solve(&sol);
        self.stats.subproblem_ms += ms_since(t0);
        // Φ = 1 is always feasible. A suspect verdict still carries the
        // optimal-basis point (plus its failing certificate, already
        // counted by `absorb_solve`).
        self.usable(&sol)?;
        Ok((a_vars.iter().map(|&v| sol.value(v).max(0.0)).collect(), sol.value(phi).max(0.0)))
    }

    fn heuristic(&mut self, beta: f64) -> Result<TeSolution, TeSolveError> {
        let delta = greedy_delta(self.problem, beta);
        let (_, phi) = self.subproblem(&delta)?;
        let (allocation, quality) = self.polish(&delta, phi)?;
        Ok(TeSolution { allocation, max_loss: phi, delta, quality })
    }

    /// Solves the polish LP ([`TeProblem::polish_lp`]) for `delta` with
    /// `Φ` frozen at `phi`, cold, returning the allocation and its
    /// certificate.
    fn polish(
        &mut self,
        delta: &[Vec<usize>],
        phi: f64,
    ) -> Result<(Vec<f64>, Option<prete_lp::SolutionQuality>), TeSolveError> {
        let t0 = Instant::now();
        let (lp, a_vars) = self.problem.polish_lp(delta, phi);
        let sol = WarmSimplex::new(self.simplex_opts()).solve(&lp);
        self.absorb_solve(&sol);
        self.stats.polish_ms += ms_since(t0);
        if self.usable(&sol).is_err() {
            // Extremely defensive: fall back to the primary solution
            // shape by re-solving the plain subproblem.
            return Ok((self.subproblem(delta)?.0, None));
        }
        Ok((a_vars.iter().map(|&v| sol.value(v).max(0.0)).collect(), sol.quality))
    }
}

impl TeProblem<'_> {
    /// The materialized rows of flow `f`: the no-failure scenario and
    /// the scenarios affecting the flow (an unaffecting scenario's row
    /// equals the no-failure row).
    fn materialized(&self, f: usize) -> Vec<usize> {
        std::iter::once(0).chain(self.affecting(f).iter().copied()).collect()
    }

    /// The coverage terms `Σ_{t ∈ T_{f,q} ∪ Y_{f,q}^s} a_t`.
    fn cover(&self, a: &[VarId], f: usize, q: usize) -> Vec<(VarId, f64)> {
        tunnel_sum(a, self.surviving(f, q))
    }

    /// Adds flow `f`'s knapsack row (constraint 5) over its
    /// `(scenario, δ)` columns: `Σ p_q δ_{f,q} ≥ β −` the unaffecting
    /// mass, clamped to the attainable mass when enumeration fell short.
    fn add_knapsack(&self, lp: &mut LinearProgram, f: usize, dvars: &[(usize, VarId)], beta: f64) {
        let scen = &self.scenarios.scenarios;
        let attainable: f64 = dvars.iter().map(|&(qi, _)| scen[qi].prob).sum();
        let rhs = (beta - self.unaffecting_mass(f)).min(attainable * (1.0 - 1e-12));
        let terms = dvars.iter().map(|&(qi, v)| (v, scen[qi].prob)).collect();
        lp.add_constraint(terms, Sense::Ge, rhs);
    }

    /// One column `a_t ≥ 0` per tunnel plus the Eqn 3 rows over them:
    /// the start of the min-Φ, Benders and exact-MIP programs.
    fn tunnel_columns(&self, lp: &mut LinearProgram) -> (Vec<VarId>, Vec<ConstraintId>) {
        let a: Vec<VarId> = (0..self.tunnels.len()).map(|_| lp.var_nonneg(0.0)).collect();
        let cap_rows = self.groups.add_rows(lp, &a, self.tunnels.tunnels());
        (a, cap_rows)
    }

    /// The min-Φ LP for a fixed selection `delta`: `min Φ` over the
    /// capacity rows and `Σ surviving a + d·Φ ≥ d`, one per ⊆-minimal
    /// survival class of the selected scenarios (a dead class leaves the
    /// single row `d·Φ ≥ d`). Returns the program, the tunnel columns
    /// and `Φ`.
    fn min_phi_lp(&self, delta: &[Vec<usize>]) -> (LinearProgram, Vec<VarId>, VarId) {
        let mut lp = LinearProgram::new();
        let (a_vars, _) = self.tunnel_columns(&mut lp);
        let phi = lp.var_nonneg(1.0);
        for (f, selected) in delta.iter().enumerate() {
            let d = self.flows[f].demand_gbps;
            if d <= 0.0 {
                continue;
            }
            for set in self.minimal_classes(f, selected) {
                let mut terms = tunnel_sum(&a_vars, set);
                terms.push((phi, d));
                lp.add_constraint(terms, Sense::Ge, d);
            }
        }
        (lp, a_vars, phi)
    }

    /// The polish LP, a lexicographic second pass: with `Φ` fixed at
    /// its optimum `phi`, choose among the optimal allocations the one
    /// that maximizes the probability-weighted delivered fraction
    /// across the no-failure scenario and the selected failure
    /// scenarios, then fills spare capacity. Returns the program and
    /// the tunnel columns.
    ///
    /// The min-Φ LP alone returns a *minimal* vertex — allocations
    /// exactly meeting `(1 − Φ)d` — which would make flows artificially
    /// lossy even in scenarios where spare capacity could cover them in
    /// full. Real TE systems hand spare capacity back to the flows;
    /// this pass models that, and because the weights are the scenario
    /// probabilities it is a direct surrogate for the availability the
    /// evaluator measures.
    fn polish_lp(&self, delta: &[Vec<usize>], phi: f64) -> (LinearProgram, Vec<VarId>) {
        let scen = &self.scenarios.scenarios;
        let total_demand: f64 = self.flows.iter().map(|f| f.demand_gbps).sum();
        let mean_demand = (total_demand / self.flows.len().max(1) as f64).max(1e-9);
        let p0 = scen[0].prob.max(1e-12);
        let mut lp = LinearProgram::new();
        // Each allocation is capped by its tunnel's bottleneck group
        // capacity. The capacity rows already imply this, so the
        // optimum is untouched — but stating it as a variable bound
        // makes every negative-cost column bounded, which lets the
        // sparse engine cold-start with a single dual simplex pass
        // instead of a two-phase primal solve.
        let mut bottleneck = vec![f64::INFINITY; self.tunnels.len()];
        for t in self.tunnels.tunnels() {
            for g in self.groups.groups_of_path(&t.path.links) {
                let b = &mut bottleneck[t.id.index()];
                *b = b.min(self.groups.capacity(g));
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
        self.groups.add_rows(&mut lp, &a_vars, self.tunnels.tunnels());
        // Coverage rows with Φ frozen (small slack absorbs LP
        // round-off), plus delivery vars s_{f,q} ≤ min(d_f, Σ surv a).
        let phi_slack = phi + POLISH_SLACK;
        for (f, selected) in delta.iter().enumerate() {
            let d = self.flows[f].demand_gbps;
            if d <= 0.0 {
                continue;
            }
            // Pick q0 plus the most probable selected failure scenarios.
            let mut with_delivery: Vec<usize> =
                selected.iter().copied().filter(|&q| q != 0).collect();
            with_delivery
                .sort_by(|&a, &b| scen[b].prob.partial_cmp(&scen[a].prob).expect("finite"));
            with_delivery.truncate(POLISH_SCENARIOS_PER_FLOW);
            for &qi in selected {
                lp.add_constraint(self.cover(&a_vars, f, qi), Sense::Ge, d * (1.0 - phi_slack));
            }
            for &qi in std::iter::once(&0usize).chain(&with_delivery) {
                let weight = if qi == 0 { 1.0 } else { (scen[qi].prob / p0).min(1.0) };
                let s = lp.var_bounded(0.0, d, -weight * mean_demand / d);
                let mut terms = self.cover(&a_vars, f, qi);
                terms.push((s, -1.0));
                lp.add_constraint(terms, Sense::Ge, 0.0);
                if qi == 0 {
                    lp.add_constraint(vec![(s, 1.0), (z, -d)], Sense::Ge, 0.0);
                }
            }
        }
        (lp, a_vars)
    }

    /// The full MIP (2)–(8): the tunnel columns, `Φ`, and per flow a
    /// binary δ per materialized row with its coverage row
    /// `Σ surv a + d·Φ − d·δ ≥ 0` and the flow's knapsack row. Returns
    /// the program, `Φ` and the per-flow `(scenario, δ)` columns.
    fn mip_lp(&self, beta: f64) -> (LinearProgram, VarId, Vec<Vec<(usize, VarId)>>) {
        let mut lp = LinearProgram::new();
        let (a_vars, _) = self.tunnel_columns(&mut lp);
        let phi = lp.var_unit(1.0);
        let mut dvars = Vec::with_capacity(self.flows.len());
        for f in 0..self.flows.len() {
            let d = self.flows[f].demand_gbps;
            let vars: Vec<(usize, VarId)> =
                self.materialized(f).into_iter().map(|qi| (qi, lp.var_unit(0.0))).collect();
            for &(qi, dv) in &vars {
                let mut terms = self.cover(&a_vars, f, qi);
                terms.push((phi, d));
                terms.push((dv, -d));
                lp.add_constraint(terms, Sense::Ge, 0.0);
            }
            self.add_knapsack(&mut lp, f, &vars, beta);
            dvars.push(vars);
        }
        (lp, phi, dvars)
    }
}

/// The selection a δ point makes: per flow, the scenarios whose
/// binary is set.
fn selection(dvars: &[Vec<(usize, VarId)>], x: &[f64]) -> Vec<Vec<usize>> {
    dvars
        .iter()
        .map(|vars| vars.iter().filter(|&&(_, v)| x[v.index()] > 0.5).map(|&(qi, _)| qi).collect())
        .collect()
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
    phi: VarId,
    cap_rows: Vec<ConstraintId>,
    /// (flow, scenario, row, demand) for every materialized row of a
    /// flow with positive demand.
    cov_rows: Vec<(usize, usize, ConstraintId, f64)>,
}

impl BendersLp {
    /// Builds the materialized Benders subproblem with every row
    /// selected.
    fn new(problem: &TeProblem<'_>) -> Self {
        let mut lp = LinearProgram::new();
        let (a_vars, cap_rows) = problem.tunnel_columns(&mut lp);
        let phi = lp.var_nonneg(1.0);
        let mut cov_rows = Vec::new();
        for f in 0..problem.flows.len() {
            let d = problem.flows[f].demand_gbps;
            if d <= 0.0 {
                continue;
            }
            for qi in problem.materialized(f) {
                let mut terms = problem.cover(&a_vars, f, qi);
                terms.push((phi, d));
                let row = lp.add_constraint(terms, Sense::Ge, d);
                cov_rows.push((f, qi, row, d));
            }
        }
        Self { lp, phi, cap_rows, cov_rows }
    }

    /// Imposes the selection `delta` through the coverage rows' rhs.
    fn select(&mut self, delta: &[Vec<usize>]) {
        for &(f, qi, row, d) in &self.cov_rows {
            let rhs = if delta[f].contains(&qi) { d } else { 0.0 };
            self.lp.set_rhs(row, rhs);
        }
    }
}

/// The Benders master: `min Φ` over binary δ subject to each flow's
/// knapsack row (constraint 5) and the optimality cuts so far. Built
/// once per Benders solve; every iteration appends its cut.
struct Master {
    lp: LinearProgram,
    phi: VarId,
    /// Per flow: `(scenario, δ)` for every materialized row.
    dvars: Vec<Vec<(usize, VarId)>>,
    /// The δ of each [`BendersLp`] coverage row, in `cov_rows` order:
    /// both walk the materialized rows of the flows with positive
    /// demand.
    row_vars: Vec<VarId>,
}

impl Master {
    /// Builds `Φ`, the δ columns and the knapsack rows.
    fn new(problem: &TeProblem<'_>, beta: f64) -> Self {
        let mut lp = LinearProgram::new();
        let phi = lp.var_unit(1.0);
        let mut dvars = Vec::with_capacity(problem.flows.len());
        let mut row_vars = Vec::new();
        for f in 0..problem.flows.len() {
            let vars: Vec<(usize, VarId)> =
                problem.materialized(f).into_iter().map(|qi| (qi, lp.var_unit(0.0))).collect();
            problem.add_knapsack(&mut lp, f, &vars, beta);
            if problem.flows[f].demand_gbps > 0.0 {
                row_vars.extend(vars.iter().map(|&(_, v)| v));
            }
            dvars.push(vars);
        }
        Self { lp, phi, dvars, row_vars }
    }

    /// Appends the Eqn 11 optimality cut from a subproblem's duals,
    /// `Φ − Σ v_{f,q} d_f δ_{f,q} ≥ Σ_g y_g c_g`, with `y_g ≤ 0` the
    /// capacity duals (min convention) and `v_{f,q} ≥ 0` the coverage
    /// duals.
    fn add_cut(&mut self, problem: &TeProblem<'_>, sol: &prete_lp::Solution, b: &BendersLp) {
        debug_assert_eq!(b.cov_rows.len(), self.row_vars.len());
        let constant: f64 = b
            .cap_rows
            .iter()
            .enumerate()
            .map(|(g, &r)| sol.duals[r.index()] * problem.groups.capacity(g))
            .sum();
        let mut terms = vec![(self.phi, 1.0)];
        for (&(_, _, r, d), &dv) in b.cov_rows.iter().zip(&self.row_vars) {
            let v = sol.duals[r.index()].max(0.0);
            if v > 1e-12 {
                terms.push((dv, -(v * d)));
            }
        }
        self.lp.add_constraint(terms, Sense::Ge, constant);
    }

    /// Solves the master, returning the new selection, the master
    /// objective (a lower bound) and the B&B node count.
    fn solve(&self, simplex: SimplexOptions) -> (Vec<Vec<usize>>, f64, usize) {
        let binaries: Vec<VarId> = self.dvars.iter().flatten().map(|&(_, v)| v).collect();
        let r = solve_mip(&self.lp, &binaries, MipOptions { max_nodes: 4000, simplex });
        let delta = if r.status == MipStatus::Optimal || r.has_incumbent() {
            selection(&self.dvars, &r.x)
        } else {
            // Fallback: select everything (always feasible).
            self.dvars.iter().map(|vars| vars.iter().map(|&(qi, _)| qi).collect()).collect()
        };
        let obj = if r.has_incumbent() { r.objective } else { 0.0 };
        (delta, obj, r.nodes)
    }
}

impl SolveCtx<'_, '_, '_> {
    fn benders(
        &mut self,
        beta: f64,
        eps: f64,
        max_iters: usize,
    ) -> Result<TeSolution, TeSolveError> {
        let problem = self.problem;
        // Initialization (Algorithm 2 lines 2–4): δ = 1 for all rows we
        // materialize (scenario 0 + affecting), UB = 1, LB = 0, C = ∅.
        let mut b = BendersLp::new(problem);
        let mut master = Master::new(problem, beta);
        let mut ws = WarmSimplex::new(self.simplex_opts());

        let mut delta: Vec<Vec<usize>> =
            (0..problem.flows.len()).map(|f| problem.materialized(f)).collect();
        let mut ub = f64::INFINITY;
        let mut lb: f64 = 0.0;
        let mut best: Option<(f64, Vec<Vec<usize>>)> = None;
        let mut iters = 0usize;

        while iters < max_iters {
            iters += 1;
            // Step 1: subproblem with fixed δ. The first iteration is a
            // cold solve; later ones are rhs-only dual-simplex moves on
            // the live tableau.
            let t0 = Instant::now();
            b.select(&delta);
            let sol = if iters == 1 {
                ws.solve(&b.lp)
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
            self.usable(&sol)?;
            let phi = sol.value(b.phi).max(0.0);
            if phi < ub {
                ub = phi;
                best = Some((phi, delta.clone()));
            }
            // Optimality cut (Eqn 11): one per iteration.
            master.add_cut(problem, &sol, &b);
            self.stats.cuts_added += 1;
            self.obs.event_with("solver.benders-iteration", || {
                format!("iter={iters} ub={ub:.6} lb={lb:.6} cuts={iters}")
            });
            if ub - lb <= eps {
                break;
            }
            // Step 2: master problem.
            let t1 = Instant::now();
            let (new_delta, master_obj, nodes) = master.solve(self.simplex_opts());
            self.stats.master_ms += ms_since(t1);
            self.stats.mip_nodes += nodes;
            self.stats.lp_solves += 1;
            lb = lb.max(master_obj);
            if ub - lb <= eps {
                break;
            }
            delta = new_delta;
        }
        self.stats.pivots += ws.pivots();
        self.absorb_counters(&ws.engine_stats());
        self.stats.benders_iters = iters;
        let (phi, delta) = best.ok_or(TeSolveError::BudgetExceeded { nodes: 0 })?;
        let (allocation, quality) = self.polish(&delta, phi)?;
        Ok(TeSolution { allocation, max_loss: phi, delta, quality })
    }

    /// Full MIP (2)–(8) via branch-and-bound: exact reference for small
    /// instances, surfacing the node limit and infeasibility instead of
    /// panicking.
    fn bnb(&mut self, beta: f64) -> Result<TeSolution, TeSolveError> {
        let t0 = Instant::now();
        let (lp, phi, dvars) = self.problem.mip_lp(beta);
        let binaries: Vec<VarId> = dvars.iter().flatten().map(|&(_, v)| v).collect();
        let opts = MipOptions { simplex: self.simplex_opts(), ..MipOptions::default() };
        let r = solve_mip(&lp, &binaries, opts);
        self.stats.master_ms += ms_since(t0);
        self.stats.mip_nodes += r.nodes;
        self.stats.lp_solves += r.nodes;
        match r.status {
            MipStatus::Optimal => {}
            // Φ ∈ [0, 1] bounds the objective, so Unbounded only arises
            // from a malformed program — report it as infeasibility
            // rather than aborting the controller.
            MipStatus::Infeasible | MipStatus::Unbounded => return Err(TeSolveError::Infeasible),
            MipStatus::NodeLimit => return Err(TeSolveError::BudgetExceeded { nodes: r.nodes }),
        }
        let delta = selection(&dvars, &r.x);
        let max_loss = r.x[phi.index()].max(0.0);
        let (allocation, quality) = self.polish(&delta, max_loss)?;
        Ok(TeSolution { allocation, max_loss, delta, quality })
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
        TeSolver::new(p).beta(beta).method(method).solve().expect("the triangle solves")
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
        let load = p.groups.load(tunnels.tunnels(), &sol.allocation);
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
            .warm_cache(&mut cache)
            .recorder(&rec)
            .solve_with_stats()
            .unwrap();
        let (_, s2) = TeSolver::new(&p)
            .beta(0.99)
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
        // Events fired for Benders iterations, and one warm-start event
        // for the heuristic's one lookup: Benders never consults the
        // cache.
        assert!(!r.events_of_kind("solver.benders-iteration").is_empty());
        assert_eq!(stats.warm_hits + stats.warm_misses, 0);
        assert_eq!(s2.warm_hits + s2.warm_misses, 1);
        assert_eq!(r.events_of_kind("solver.warm-start").len(), 1);
        // Deterministic reports carry no machine wall times.
        assert!(!r.histograms.contains_key("solver.total_ms"));
    }

    #[test]
    fn warm_cache_reuse_keeps_solutions_identical() {
        let (net, flows, tunnels, scenarios) = triangle_problem(&TRIANGLE_PROBS);
        let p = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        let cold = TeSolver::new(&p).beta(0.99).solve().unwrap();

        let mut cache = BasisCache::new();
        let (first, s1) = TeSolver::new(&p)
            .beta(0.99)
            .warm_cache(&mut cache)
            .solve_with_stats()
            .unwrap();
        assert_eq!(s1.warm_hits, 0, "empty cache cannot hit");
        assert!(!cache.is_empty(), "optimal bases were saved");
        let (second, s2) = TeSolver::new(&p)
            .beta(0.99)
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
            .solve_with_stats()
            .unwrap();
        assert_eq!(stats, again);
        // merge() accumulates work units.
        let mut merged = stats.clone();
        merged.merge(&again);
        assert_eq!(merged.lp_solves, stats.lp_solves * 2);
        // work_units() is the five deterministic counters — never wall
        // clock.
        let counted = SolverStats {
            pivots: 10,
            lp_solves: 3,
            mip_nodes: 2,
            benders_iters: 4,
            rhs_resolves: 5,
            total_ms: 99.0,
            ..SolverStats::default()
        };
        assert_eq!(counted.work_units(), 24);
    }

    #[test]
    fn solver_stats_serialize_every_field() {
        // Nothing parses `SolverStats` back, so the check is on the
        // JSON text: every field present
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
            dense_fallbacks: 1,
            refinements: 7,
            suspect_solves: 1,
            scenarios_pruned: 1234,
            tail_mass: 0.125,
            max_condition_estimate: 1500.0,
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
            r#""dense_fallbacks":1"#,
            r#""refinements":7"#,
            r#""suspect_solves":1"#,
            r#""scenarios_pruned":1234"#,
            r#""tail_mass":0.125"#,
            r#""max_condition_estimate":1500.0"#,
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
        // Different machine: wall times differ, work units agree —
        // still equal.
        let other_machine = SolverStats {
            total_ms: 999.0,
            subproblem_ms: 500.0,
            master_ms: 400.0,
            polish_ms: 99.0,
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
    fn demand_change_makes_one_cache_lookup() {
        // `steady-twan`'s re-solve: TWAN at two hourly matrices over one
        // structure. Only the min-Φ LP looks a basis up, so the re-solve
        // hits once and misses never; the polish solves cold.
        let twan = Instance::new(prete_topology::topologies::twan(), 0.08, 1.0, None, None);
        let hours = prete_topology::traffic::hourly_matrices(&twan.flows, 42);
        let solve = |h: usize, cache: Option<&mut BasisCache>| {
            let p = TeProblem::new(&twan.net, &hours[h].flows, &twan.tunnels, &twan.scenarios);
            let solver = TeSolver::new(&p).beta(0.999);
            match cache {
                Some(c) => solver.warm_cache(c).solve_with_stats(),
                None => solver.solve_with_stats(),
            }
            .expect("the heuristic solves")
        };
        let mut cache = BasisCache::new();
        let (_, primed) = solve(0, Some(&mut cache));
        assert_eq!((primed.warm_hits, primed.warm_misses), (0, 1));
        let (warm, stats) = solve(3, Some(&mut cache));
        assert_eq!((stats.warm_hits, stats.warm_misses), (1, 0));
        let (cold, _) = solve(3, None);
        let gap = (warm.max_loss - cold.max_loss).abs();
        assert!(gap <= 1e-9, "warm Φ {} vs cold Φ {}", warm.max_loss, cold.max_loss);
    }

    /// A workload-shaped instance: `flows_for(load)` demands scaled by
    /// `scale`, four tunnels per flow, the PreTE estimator on the seed-42
    /// failure model, and the scenarios of a healthy network or of one
    /// degraded fiber (1-cut, or `budget`'s streaming enumeration).
    struct Instance {
        net: Network,
        flows: Vec<Flow>,
        tunnels: TunnelSet,
        scenarios: ScenarioSet,
    }

    impl Instance {
        fn new(
            net: Network,
            load: f64,
            scale: f64,
            degraded: Option<usize>,
            budget: Option<crate::scenario::ScenarioBudget>,
        ) -> Self {
            use crate::estimator::{ProbabilityEstimator, TrueConditionals};
            use crate::scenario::DegradationState;
            let model = prete_optical::FailureModel::new(&net, 42);
            let mut flows = prete_topology::topologies::flows_for(&net, load, 42);
            for f in &mut flows {
                f.demand_gbps *= scale;
            }
            let tunnels = TunnelSet::initialize(&net, &flows, 4);
            let truth = TrueConditionals::ground_truth(&net, &model, 100, 3);
            let state = degraded.map_or_else(DegradationState::healthy, |k| {
                DegradationState::single(prete_topology::FiberId(k))
            });
            let probs = ProbabilityEstimator::prete(&model, &truth).probabilities(&state);
            let scenarios = match budget {
                Some(b) => ScenarioSet::enumerate_with(&probs, &b).0,
                None => ScenarioSet::enumerate(&probs, 1, 0.0),
            };
            Self { net, flows, tunnels, scenarios }
        }

        fn problem(&self) -> TeProblem<'_> {
            TeProblem::new(&self.net, &self.flows, &self.tunnels, &self.scenarios)
        }
    }

    /// Every materialized row: scenario 0 plus the affecting scenarios.
    fn all_rows(p: &TeProblem<'_>) -> Vec<Vec<usize>> {
        (0..p.flows.len()).map(|f| p.materialized(f)).collect()
    }

    /// (coverage rows, distinct survival classes, ⊆-minimal classes)
    /// of the min-Φ LP over `delta`.
    fn census(p: &TeProblem<'_>, delta: &[Vec<usize>]) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for (f, selected) in delta.iter().enumerate() {
            if p.flows[f].demand_gbps <= 0.0 {
                continue;
            }
            let mut distinct: Vec<usize> = selected.iter().map(|&q| p.class_of[f][q]).collect();
            distinct.sort_unstable();
            distinct.dedup();
            counts.0 += selected.len();
            counts.1 += distinct.len();
            counts.2 += p.minimal_classes(f, selected).len();
        }
        counts
    }

    #[test]
    fn survival_class_census_is_pinned() {
        // Coverage rows → distinct survival classes → ⊆-minimal classes.
        // A change to the class rule or to the rows it reads moves these.
        let twan = Instance::new(prete_topology::topologies::twan(), 0.08, 1.0, None, None);
        let p = twan.problem();
        assert_eq!(census(&p, &greedy_delta(&p, 0.999)), (1316, 679, 319), "TWAN, β 0.999");
        let b4 = Instance::new(prete_topology::topologies::b4(), 0.08, 2.0, Some(1), None);
        let p = b4.problem();
        assert_eq!(census(&p, &all_rows(&p)), (540, 382, 140), "B4, every Benders row");
    }

    /// The min-Φ LP with one coverage row per selected (flow, scenario):
    /// the builder survival classes replaced, kept as the exactness
    /// oracle for the class LP.
    fn per_scenario_phi(p: &TeProblem<'_>, delta: &[Vec<usize>]) -> f64 {
        let mut lp = LinearProgram::new();
        let a: Vec<VarId> = (0..p.tunnels.len()).map(|_| lp.var_nonneg(0.0)).collect();
        let phi = lp.var_nonneg(1.0);
        let mut group_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); p.groups.len()];
        for t in p.tunnels.tunnels() {
            for g in p.groups.groups_of_path(&t.path.links) {
                group_terms[g].push((a[t.id.index()], 1.0));
            }
        }
        for (g, terms) in group_terms.into_iter().enumerate() {
            lp.add_constraint(terms, Sense::Le, p.groups.capacity(g));
        }
        for (f, selected) in delta.iter().enumerate() {
            let d = p.flows[f].demand_gbps;
            if d <= 0.0 {
                continue;
            }
            for &qi in selected {
                let mut terms: Vec<(VarId, f64)> =
                    p.surviving(f, qi).iter().map(|&t| (a[t.index()], 1.0)).collect();
                terms.push((phi, d));
                lp.add_constraint(terms, Sense::Ge, d);
            }
        }
        let sol = prete_lp::solve(&lp);
        assert!(sol.is_usable(), "oracle LP ended {:?}", sol.status);
        sol.value(phi).max(0.0)
    }

    #[test]
    fn class_rows_keep_the_per_scenario_optimum() {
        use crate::scenario::ScenarioBudget;
        let waxman_budget = ScenarioBudget {
            max_cuts: 2,
            mass_floor: 1e-7,
            max_scenarios: 64,
            tail_samples: 0,
            ..ScenarioBudget::default()
        };
        let waxman = prete_topology::generate::generate(
            &prete_topology::GenSpec::parse("gen:waxman:100").expect("a valid generator spec"),
        );
        let (net, flows, tunnels, scenarios) = triangle_problem(&TRIANGLE_PROBS);
        let triangle = Instance { net, flows, tunnels, scenarios };
        use prete_topology::topologies::{b4, ibm, twan};
        // (instance, β, whether every materialized row is checked too).
        // The 3× demands make Φ interior; TWAN at 1× is `steady-twan`.
        let cases = [
            (triangle, 0.99, true),
            (Instance::new(b4(), 0.08, 2.0, Some(1), None), 0.95, true),
            (Instance::new(ibm(), 0.08, 1.0, None, None), 0.999, false),
            (Instance::new(ibm(), 0.08, 3.0, None, None), 0.999, false),
            (Instance::new(twan(), 0.08, 1.0, None, None), 0.999, false),
            (Instance::new(twan(), 0.08, 3.0, None, None), 0.999, false),
            // Fiber 0 is a bridge for some flows: their dead class
            // leaves the single row d·Φ ≥ d.
            (Instance::new(waxman, 0.02, 1.0, Some(0), Some(waxman_budget)), 0.8, false),
        ];
        let mut dead_rows = vec![0; cases.len()];
        for (case, (inst, beta, every_row)) in cases.iter().enumerate() {
            let p = inst.problem();
            let greedy = greedy_delta(&p, *beta);
            let deltas = if *every_row { vec![all_rows(&p), greedy] } else { vec![greedy] };
            for delta in &deltas {
                let mut ctx = SolveCtx {
                    problem: &p,
                    cold_start: ColdStart::default(),
                    cache: None,
                    stats: SolverStats::default(),
                    obs: Recorder::disabled(),
                };
                let (allocation, phi) = ctx.subproblem(delta).expect("Φ = 1 is feasible");
                let oracle = per_scenario_phi(&p, delta);
                assert!(
                    (phi - oracle).abs() <= 1e-9 * (1.0 + oracle),
                    "case {case}: class Φ {phi} vs per-scenario Φ {oracle}"
                );
                // The class LP's point satisfies every uncompressed row.
                for (f, selected) in delta.iter().enumerate() {
                    let d = p.flows[f].demand_gbps;
                    for &qi in selected {
                        let surv = p.surviving(f, qi);
                        dead_rows[case] += usize::from(surv.is_empty());
                        let lhs: f64 = surv.iter().map(|&t| allocation[t.index()]).sum();
                        assert!(
                            lhs + d * phi >= d - 1e-9 * d,
                            "case {case}: flow {f} scenario {qi} short by {}",
                            d - lhs - d * phi
                        );
                    }
                }
            }
        }
        assert!(dead_rows[cases.len() - 1] > 0, "the bridge fiber left no dead class");
    }

    /// FNV-1a-64 of an LP's JSON form.
    fn fingerprint(lp: &LinearProgram) -> u64 {
        let json = serde_json::to_string(lp).expect("an LP serializes");
        json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn te_lp_fingerprints_are_pinned() {
        // Every TE program the solvers see, byte for byte, on the
        // seed-42 B4 instance at β 0.95 (and min-Φ / polish on TWAN at
        // β 0.999). A change that moves one of these moves pivots,
        // figures and goldens: re-bless deliberately.
        use crate::eval::{AvailabilityEvaluator, EvalConfig};
        use crate::schemes::{Plan, TeContext, TeaVarScheme};
        use prete_topology::topologies::{b4, twan};
        let mut seen = Vec::new();
        let b4 = Instance::new(b4(), 0.08, 2.0, Some(1), None);
        let p = b4.problem();
        let sol = TeSolver::new(&p).beta(0.95).solve().expect("heuristic solves");
        seen.push(("B4 min-Φ", fingerprint(&p.min_phi_lp(&sol.delta).0)));
        seen.push(("B4 polish", fingerprint(&p.polish_lp(&sol.delta, sol.max_loss).0)));
        let sub = BendersLp::new(&p);
        seen.push(("B4 Benders subproblem", fingerprint(&sub.lp)));
        let (first, _) = WarmSimplex::new(SimplexOptions::default()).solve_from(&sub.lp, None);
        let mut master = Master::new(&p, 0.95);
        master.add_cut(&p, &first, &sub);
        seen.push(("B4 master, first cut", fingerprint(&master.lp)));
        seen.push(("B4 exact MIP", fingerprint(&p.mip_lp(0.95).0)));
        let model = prete_optical::FailureModel::new(&b4.net, 42);
        let ctx =
            TeContext { net: &b4.net, model: &model, flows: &b4.flows, base_tunnels: &b4.tunnels };
        let teavar = TeaVarScheme::new(&model, 0.95);
        let probs = teavar.estimator.probabilities(&crate::scenario::DegradationState::healthy());
        let throughput = teavar.throughput_lp(&ctx, &b4.tunnels, &probs);
        seen.push(("B4 TeaVaR throughput", fingerprint(&throughput.lp)));
        let truth = crate::estimator::TrueConditionals::ground_truth(&b4.net, &model, 100, 3);
        let eval = AvailabilityEvaluator::new(
            &b4.net,
            &model,
            b4.flows.clone(),
            &b4.tunnels,
            &truth,
            EvalConfig::default(),
        );
        // The recompute LP reads only the plan's tunnels.
        let plan =
            Plan { tunnels: b4.tunnels.clone(), allocation: Vec::new(), admitted: Vec::new() };
        let cut = [prete_topology::FiberId(1)];
        seen.push(("B4 Flexile recompute", fingerprint(&eval.recompute_lp(&plan, &cut).0)));
        let twan = Instance::new(twan(), 0.08, 1.0, None, None);
        let p = twan.problem();
        let sol = TeSolver::new(&p).beta(0.999).solve().expect("heuristic solves");
        seen.push(("TWAN min-Φ", fingerprint(&p.min_phi_lp(&sol.delta).0)));
        seen.push(("TWAN polish", fingerprint(&p.polish_lp(&sol.delta, sol.max_loss).0)));
        let pinned: [(&str, u64); 9] = [
            ("B4 min-Φ", 0x5ef8_cc06_ca97_e475),
            ("B4 polish", 0xe4a6_179a_01c2_9aad),
            ("B4 Benders subproblem", 0xd5ee_e0df_2b9b_6001),
            ("B4 master, first cut", 0xd083_5b79_cb0f_79bd),
            ("B4 exact MIP", 0xe2a4_7f67_f75f_c2db),
            ("B4 TeaVaR throughput", 0xbbc2_7018_ce75_2cd4),
            ("B4 Flexile recompute", 0xd13b_d2be_e15d_426e),
            ("TWAN min-Φ", 0x109c_663c_7155_26ce),
            ("TWAN polish", 0x93e0_f6df_804a_61de),
        ];
        let got: Vec<String> = seen.iter().map(|(n, h)| format!("{n}: {h:#018x}")).collect();
        let want: Vec<String> = pinned.iter().map(|(n, h)| format!("{n}: {h:#018x}")).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn unusable_lp_status_is_a_typed_error_and_counted() {
        let (net, flows, tunnels, scenarios) = triangle_problem(&TRIANGLE_PROBS);
        let p = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        let mut ctx = SolveCtx {
            problem: &p,
            cold_start: ColdStart::default(),
            cache: None,
            stats: SolverStats::default(),
            obs: Recorder::disabled(),
        };
        let ended = |status| prete_lp::Solution {
            status,
            x: Vec::new(),
            objective: f64::NAN,
            duals: Vec::new(),
            iterations: 0,
            engine: Default::default(),
            quality: None,
        };
        // A numerical failure fails the solve instead of panicking,
        // and counts under the name the benchmark reads.
        let failed = SolveStatus::NumericalFailure;
        assert_eq!(ctx.usable(&ended(failed)), Err(TeSolveError::LpFailed { status: failed }));
        assert_eq!(ctx.stats.dense_fallbacks, 1);
        // The pivot cap fails it too, but is not a numerical failure.
        let capped = SolveStatus::IterationLimit;
        assert_eq!(ctx.usable(&ended(capped)), Err(TeSolveError::LpFailed { status: capped }));
        assert_eq!(ctx.stats.dense_fallbacks, 1);
        // A suspect point is still a point.
        assert_eq!(ctx.usable(&ended(SolveStatus::NumericallySuspect)), Ok(()));
        assert!(TeSolveError::LpFailed { status: failed }.to_string().contains("NumericalFailure"));
    }
}
