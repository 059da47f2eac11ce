//! Property-based tests on the core data structures and solver
//! invariants (proptest).

use prete_core::capacity::CapacityGroups;
use prete_core::scenario::ScenarioSet;
use prete_lp::{solve, LinearProgram, Sense, SolveStatus};
use prete_stats::{equal_width_bins, EmpiricalCdf, Summary};
use proptest::prelude::*;

proptest! {
    /// Any optimal LP solution is primal-feasible and satisfies strong
    /// duality (obj = y·b for problems with zero lower bounds and no
    /// upper bounds).
    #[test]
    fn lp_optimal_solutions_are_feasible_and_tight(
        c in prop::collection::vec(-5.0f64..5.0, 2..5),
        rows in prop::collection::vec(
            (prop::collection::vec(0.0f64..4.0, 5), 1.0f64..20.0),
            1..5
        ),
    ) {
        let mut lp = LinearProgram::new();
        let vars: Vec<_> = c.iter().map(|&ci| lp.add_var(0.0, f64::INFINITY, ci)).collect();
        let mut rhs = Vec::new();
        for (coeffs, b) in &rows {
            let terms: Vec<_> = vars
                .iter()
                .zip(coeffs)
                .map(|(&v, &a)| (v, a))
                .collect();
            lp.add_constraint(terms, Sense::Le, *b);
            rhs.push(*b);
        }
        let s = solve(&lp);
        // All-≤ rows with b > 0 and x ≥ 0: x = 0 is feasible, so the
        // problem is never infeasible; it may be unbounded when some
        // objective coefficient is negative and unconstrained.
        prop_assert!(s.status == SolveStatus::Optimal || s.status == SolveStatus::Unbounded);
        if s.status == SolveStatus::Optimal {
            prop_assert!(lp.check_feasible(&s.x, 1e-6).is_ok());
            let dual_obj: f64 = s.duals.iter().zip(&rhs).map(|(&d, &b)| d * b).sum();
            prop_assert!((dual_obj - s.objective).abs() < 1e-5,
                "duality gap: {} vs {}", dual_obj, s.objective);
            // Objective can never beat the trivially feasible origin by
            // the wrong sign: obj <= 0 since x = 0 gives 0.
            prop_assert!(s.objective <= 1e-9);
        }
    }

    /// Scenario enumeration produces valid probabilities that never
    /// exceed total mass 1, with the no-failure scenario first.
    #[test]
    fn scenario_sets_are_probability_like(
        probs in prop::collection::vec(0.0f64..0.3, 1..8),
        max_cuts in 1usize..3,
    ) {
        let s = ScenarioSet::enumerate(&probs, max_cuts, 0.0);
        prop_assert!(s.scenarios[0].is_no_failure() || probs.iter().any(|&p| p >= 1.0));
        prop_assert!(s.covered_mass() <= 1.0 + 1e-9);
        for q in &s.scenarios {
            prop_assert!(q.prob >= 0.0 && q.prob <= 1.0);
            // Cut sets are sorted and deduplicated.
            for w in q.cut.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
        // Singles are ordered by decreasing probability after the
        // no-failure scenario.
        let singles: Vec<f64> = s
            .scenarios
            .iter()
            .skip(1)
            .filter(|q| q.cut.len() == 1)
            .map(|q| q.prob)
            .collect();
        for w in singles.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    /// The ECDF is a valid distribution function: monotone, in [0,1],
    /// 0 below the minimum, 1 at the maximum.
    #[test]
    fn ecdf_is_a_distribution(samples in prop::collection::vec(-100.0f64..100.0, 1..60)) {
        let cdf = EmpiricalCdf::new(samples.clone());
        prop_assert!(cdf.eval(cdf.min() - 1.0) == 0.0);
        prop_assert!((cdf.eval(cdf.max()) - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for i in -10..=10 {
            let x = i as f64 * 10.0;
            let y = cdf.eval(x);
            prop_assert!((0.0..=1.0).contains(&y));
            prop_assert!(y + 1e-12 >= prev);
            prev = y;
        }
        // Quantile inverts eval up to the sample grid.
        let q = cdf.quantile(0.5);
        prop_assert!(cdf.eval(q) >= 0.5);
    }

    /// Equal-width binning conserves counts and assigns in range.
    #[test]
    fn binning_conserves_mass(
        values in prop::collection::vec(-50.0f64..50.0, 1..80),
        bins in 1usize..12,
    ) {
        let b = equal_width_bins(&values, bins);
        prop_assert_eq!(b.counts.iter().sum::<usize>(), values.len());
        prop_assert_eq!(b.assignment.len(), values.len());
        for &a in &b.assignment {
            prop_assert!(a < bins);
        }
    }

    /// Welford summaries match naive two-pass statistics.
    #[test]
    fn summary_matches_naive(values in prop::collection::vec(-1e3f64..1e3, 2..50)) {
        let s = Summary::of(&values);
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() < 1e-6);
        prop_assert!((s.variance() - var).abs() < 1e-4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Capacity groups partition the links and conserve capacity, on
    /// randomly chosen evaluation topologies.
    #[test]
    fn capacity_groups_partition(which in 0usize..3) {
        let net = match which {
            0 => prete_topology::topologies::b4(),
            1 => prete_topology::topologies::ibm(),
            _ => prete_topology::topologies::twan(),
        };
        let g = CapacityGroups::build(&net);
        let total: f64 = (0..g.len()).map(|i| g.capacity(i)).sum();
        prop_assert!((total - net.total_capacity()).abs() < 1e-6);
        for l in net.links() {
            prop_assert!(g.group_of(l.id) < g.len());
        }
    }

    /// Tunnel survival is monotone: adding fibers to a cut never
    /// resurrects a tunnel.
    #[test]
    fn tunnel_survival_monotone(seed in 0u64..50) {
        let net = prete_topology::topologies::b4();
        let flows = prete_topology::topologies::flows_for(&net, 0.1, seed);
        let ts = prete_topology::TunnelSet::initialize(&net, &flows[..8.min(flows.len())], 4);
        let f1 = prete_topology::FiberId((seed % 19) as usize);
        let f2 = prete_topology::FiberId(((seed + 7) % 19) as usize);
        for t in ts.tunnels() {
            let alive_small = t.survives(&net, &[f1]);
            let alive_big = t.survives(&net, &[f1, f2]);
            // big cut ⊇ small cut → survival can only go down.
            prop_assert!(!alive_big || alive_small);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The TE solvers agree on the triangle across random probability
    /// vectors: branch-and-bound is optimal, Benders matches it, the
    /// greedy heuristic upper-bounds it, and every allocation respects
    /// trunk capacities.
    #[test]
    fn te_solver_hierarchy(
        p0 in 0.001f64..0.05,
        p1 in 0.001f64..0.05,
        p2 in 0.001f64..0.05,
        beta in 0.95f64..0.999,
    ) {
        use prete_core::examples::{triangle, triangle_flows};
        use prete_core::prelude::{SolveMethod, TeProblem, TeSolver};
        use prete_core::scenario::ScenarioSet;
        use prete_topology::TunnelSet;

        let net = triangle();
        let flows = triangle_flows();
        let tunnels = TunnelSet::initialize(&net, &flows, 2);
        let scenarios = ScenarioSet::enumerate(&[p0, p1, p2], 2, 0.0);
        let problem = TeProblem::new(&net, &flows, &tunnels, &scenarios);

        let solve = |method| {
            TeSolver::new(&problem).beta(beta).method(method).solve().expect("solvable")
        };
        let exact = solve(SolveMethod::BranchAndBound);
        let benders = solve(SolveMethod::benders());
        let heuristic = solve(SolveMethod::Heuristic);

        prop_assert!((0.0..=1.0 + 1e-9).contains(&exact.max_loss));
        prop_assert!(benders.max_loss >= exact.max_loss - 1e-4,
            "benders {} below exact {}", benders.max_loss, exact.max_loss);
        prop_assert!(benders.max_loss <= exact.max_loss + 1e-3,
            "benders {} above exact {}", benders.max_loss, exact.max_loss);
        prop_assert!(heuristic.max_loss >= exact.max_loss - 1e-6,
            "heuristic {} below exact {}", heuristic.max_loss, exact.max_loss);

        // Capacity feasibility for all three allocations.
        let groups = prete_core::capacity::CapacityGroups::build(&net);
        for sol in [&exact, &benders, &heuristic] {
            let mut load = vec![0.0; groups.len()];
            for t in tunnels.tunnels() {
                for g in groups.groups_of_path(&t.path.links) {
                    load[g] += sol.allocation[t.id.index()];
                }
            }
            for (g, &l) in load.iter().enumerate() {
                prop_assert!(l <= groups.capacity(g) + 1e-5, "group {}: {}", g, l);
            }
            // Losses are normalized.
            for f in 0..flows.len() {
                for q in 0..scenarios.len() {
                    let l = sol.loss(&problem, f, q);
                    prop_assert!((0.0..=1.0 + 1e-9).contains(&l));
                }
            }
        }
    }

    /// Eqn 1 calibration: dynamic probabilities are the conditional on
    /// the degraded fiber and strictly discounted elsewhere.
    #[test]
    fn eqn1_calibration_invariants(fiber in 0usize..19, alpha in 0.0f64..1.0) {
        use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
        use prete_core::scenario::DegradationState;
        use prete_optical::FailureModel;
        use prete_topology::{topologies, FiberId};

        let net = topologies::b4();
        let model = FailureModel::new(&net, 42);
        let truth = TrueConditionals::ground_truth(&net, &model, 20, 1);
        let est = ProbabilityEstimator::dynamic(&model, &truth, alpha);
        let state = DegradationState::single(FiberId(fiber));
        let p = est.probabilities(&state);
        prop_assert_eq!(p[fiber], truth.per_fiber[fiber]);
        for (n, prof) in model.profiles().iter().enumerate() {
            if n != fiber {
                prop_assert!((p[n] - (1.0 - alpha) * prof.p_cut).abs() < 1e-12);
            }
            prop_assert!((0.0..=1.0).contains(&p[n]));
        }
    }
}

/// A small random ring-plus-chords WAN for the solver determinism
/// properties: `n` sites on a ring (one fiber + one IP link per span)
/// plus proptest-chosen chords.
fn random_wan(n: usize, chords: &[(usize, usize)]) -> prete_topology::Network {
    use prete_topology::NetworkBuilder;
    let mut b = NetworkBuilder::new("rand-wan");
    let sites: Vec<_> = (0..n).map(|i| b.site(format!("s{i}"), 0)).collect();
    let mut fibers = Vec::new();
    for i in 0..n {
        fibers.push(b.fiber(sites[i], sites[(i + 1) % n], 80.0 + 10.0 * i as f64, i % 3));
    }
    for &(a, off) in chords {
        let i = a % n;
        let j = (i + 2 + off % (n.saturating_sub(3).max(1))) % n;
        if i == j || (i + 1) % n == j || (j + 1) % n == i {
            continue;
        }
        fibers.push(b.fiber(sites[i], sites[j], 120.0, (i + j) % 3));
    }
    for &f in &fibers {
        b.link_on(f, 100.0);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Warm-started re-solves after a small demand perturbation reach
    /// the same optimum as a cold solve of the perturbed problem,
    /// within LP tolerance — the cache can change the path to the
    /// optimum, never the optimum itself.
    #[test]
    fn warm_resolve_matches_cold_after_perturbation(
        n in 4usize..7,
        chords in prop::collection::vec((0usize..16, 0usize..8), 1..4),
        seed in 0u64..1000,
        wobble in prop::collection::vec(0.95f64..1.05, 24),
        beta in 0.95f64..0.999,
    ) {
        use prete_core::prelude::{BasisCache, SolveMethod, TeProblem, TeSolver};
        use prete_core::scenario::ScenarioSet;
        use prete_topology::{topologies, TunnelSet};

        let net = random_wan(n, &chords);
        let base_flows = topologies::flows_for(&net, 0.1, seed);
        let tunnels = TunnelSet::initialize(&net, &base_flows, 3);
        let probs: Vec<f64> =
            (0..net.fibers().len()).map(|i| 0.005 * (1.0 + (i % 5) as f64)).collect();
        let scenarios = ScenarioSet::enumerate(&probs, 1, 0.0);

        let mut cache = BasisCache::new();
        // Epoch 1: fill the cache on the unperturbed demands.
        {
            let problem = TeProblem::new(&net, &base_flows, &tunnels, &scenarios);
            let _ = TeSolver::new(&problem)
                .beta(beta)
                .method(SolveMethod::Heuristic)
                .warm_cache(&mut cache)
                .solve()
                .expect("solvable");
        }
        // Epoch 2: perturb every demand a few percent, then compare a
        // warm-started re-solve against a cold solve.
        let mut flows = base_flows.clone();
        for (i, f) in flows.iter_mut().enumerate() {
            f.demand_gbps *= wobble[i % wobble.len()];
        }
        let problem = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        let (warm, stats) = TeSolver::new(&problem)
            .beta(beta)
            .method(SolveMethod::Heuristic)
            .warm_cache(&mut cache)
            .solve_with_stats()
            .expect("solvable");
        let cold = TeSolver::new(&problem)
            .beta(beta)
            .method(SolveMethod::Heuristic)
            .solve()
            .expect("solvable");
        prop_assert!(stats.warm_hits > 0, "perturbed re-solve never hit the cache");
        prop_assert!(
            (warm.max_loss - cold.max_loss).abs() < 1e-6,
            "warm {} vs cold {}", warm.max_loss, cold.max_loss
        );
        // Both allocations are feasible w.r.t. the same trunk groups.
        let groups = prete_core::capacity::CapacityGroups::build(&net);
        for sol in [&warm, &cold] {
            let mut load = vec![0.0; groups.len()];
            for t in tunnels.tunnels() {
                for g in groups.groups_of_path(&t.path.links) {
                    load[g] += sol.allocation[t.id.index()];
                }
            }
            for (g, &l) in load.iter().enumerate() {
                prop_assert!(l <= groups.capacity(g) + 1e-5, "group {}: {}", g, l);
            }
        }
    }

    /// Run reports are replay-deterministic: the same trace through an
    /// identically-configured, logically-clocked controller serializes
    /// to byte-identical JSON — for arbitrary degradation scripts,
    /// noise seeds, cut times and predictor outputs.
    #[test]
    fn run_reports_are_replay_deterministic(
        start_s in 20u64..80,
        duration_s in 10u64..60,
        degree_db in 3.0f64..8.0,
        // `< 30` is a cut that many seconds after the degradation ends;
        // 30.. means the trace never cuts (the vendored proptest has no
        // `prop::option`).
        cut_offset in 0u64..40,
        noise_seed in 0u64..1000,
        p_cut in 0.1f64..0.95,
    ) {
        use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
        use prete_core::examples::{triangle, triangle_flows};
        use prete_core::prelude::*;
        use prete_nn::Predictor;
        use prete_optical::trace::{synthesize, ScriptedDegradation, TraceConfig};
        use prete_optical::DegradationEvent;
        use prete_sim::Controller;
        use prete_topology::FiberId;

        struct Fixed(f64);
        impl Predictor for Fixed {
            fn predict_proba(&self, _e: &DegradationEvent) -> f64 {
                self.0
            }
        }

        let net = triangle();
        let model = FailureModel::new(&net, 42);
        let flows: Vec<Flow> =
            triangle_flows().into_iter().map(|f| Flow { demand_gbps: 4.0, ..f }).collect();
        let base = TunnelSet::initialize(&net, &flows, 1);
        let truth = TrueConditionals::ground_truth(&net, &model, 50, 1);
        let scheme =
            prete_core::schemes::PreTeScheme::new(0.99, ProbabilityEstimator::prete(&model, &truth));
        let predictor = Fixed(p_cut);
        let deg = ScriptedDegradation { start_s, duration_s, degree_db, wobble_db: 0.2 };
        let cut_at = (cut_offset < 30).then(|| start_s + duration_s + cut_offset);
        let trace = synthesize(
            FiberId(0),
            0,
            start_s + duration_s + 60,
            &[deg],
            cut_at,
            TraceConfig::default(),
            noise_seed,
        );

        let run = || {
            let obs = Recorder::deterministic();
            let controller = Controller {
                obs: obs.clone(),
                ..Controller::new(&net, &model, &flows, &base, &predictor, &scheme)
            };
            let _ = controller.replay_trace(&trace);
            obs.report().to_json()
        };
        let first = run();
        prop_assert!(first.contains("\"deterministic\":true"));
        prop_assert_eq!(first, run());
    }
}

/// Deterministic degenerate-LP generator: a covering program whose
/// rows share a single rhs and unit coefficients (massively tied
/// ratio tests), with every row duplicated and objective costs drawn
/// from a two-value set (tied reduced costs). Classic cycling bait.
fn degenerate_lp(n: usize, m: usize, dup: usize, seed: u64) -> prete_lp::LinearProgram {
    use prete_lp::{LinearProgram, Sense};
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut bit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state & 1 == 0
    };
    let mut lp = LinearProgram::new();
    let xs: Vec<_> = (0..n)
        .map(|j| lp.add_var(0.0, f64::INFINITY, 1.0 + (j % 2) as f64))
        .collect();
    for i in 0..m {
        let mut terms: Vec<_> = xs
            .iter()
            .enumerate()
            .filter(|(j, _)| (i + j) % 3 != 0 || bit())
            .map(|(_, &v)| (v, 1.0))
            .collect();
        if terms.is_empty() {
            terms.push((xs[i % n], 1.0));
        }
        for _ in 0..=dup {
            lp.add_constraint(terms.clone(), Sense::Ge, 1.0);
        }
    }
    lp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Anti-cycling: degenerate programs full of tied ratio tests and
    /// tied reduced costs terminate under the pivot cap in *both* the
    /// engine and the oracle — the Bland's-rule fallback must break
    /// every cycle — and the two agree on the optimum.
    #[test]
    fn degenerate_lps_terminate_under_pivot_cap(
        n in 2usize..8,
        m in 2usize..10,
        dup in 0usize..3,
        seed in 0u64..1000,
    ) {
        use prete_lp::{solve_oracle, solve_with, SimplexOptions, SolveStatus};
        let lp = degenerate_lp(n, m, dup, seed);
        // A cap far below the default: a cycle would spin to the
        // limit, an anti-cycled run finishes in at most a few dozen
        // pivots on programs this size.
        let opts = SimplexOptions {
            max_iterations: 5_000,
            stall_threshold: 3,
            ..Default::default()
        };
        let dense = solve_oracle(&lp, opts);
        let sparse = solve_with(&lp, opts);
        prop_assert!(dense.status != SolveStatus::IterationLimit, "dense hit the pivot cap");
        prop_assert!(sparse.status != SolveStatus::IterationLimit, "sparse hit the pivot cap");
        prop_assert_eq!(dense.status, sparse.status);
        if dense.status == SolveStatus::Optimal {
            let scale = 1.0 + dense.objective.abs().max(sparse.objective.abs());
            prop_assert!(
                (dense.objective - sparse.objective).abs() <= 1e-6 * scale,
                "dense {} vs sparse {}", dense.objective, sparse.objective
            );
        }
    }

    /// Sparse warm-start counterpart of
    /// [`warm_resolve_matches_cold_after_perturbation`]: a warm
    /// re-solve after a demand perturbation matches a cold solve of the
    /// perturbed problem within LP tolerance, and warm solving is
    /// *bit-identical* across repeated runs from identical caches —
    /// the warm path may never introduce nondeterminism.
    #[test]
    fn sparse_warm_resolve_matches_cold_and_is_deterministic(
        n in 4usize..7,
        chords in prop::collection::vec((0usize..16, 0usize..8), 1..4),
        seed in 0u64..1000,
        wobble in prop::collection::vec(0.95f64..1.05, 24),
        beta in 0.95f64..0.999,
    ) {
        use prete_core::prelude::{BasisCache, SolveMethod, TeProblem, TeSolver};
        use prete_core::scenario::ScenarioSet;
        use prete_topology::{topologies, TunnelSet};

        let net = random_wan(n, &chords);
        let base_flows = topologies::flows_for(&net, 0.1, seed);
        let tunnels = TunnelSet::initialize(&net, &base_flows, 3);
        let probs: Vec<f64> =
            (0..net.fibers().len()).map(|i| 0.005 * (1.0 + (i % 5) as f64)).collect();
        let scenarios = ScenarioSet::enumerate(&probs, 1, 0.0);

        let mut cache = BasisCache::new();
        {
            let problem = TeProblem::new(&net, &base_flows, &tunnels, &scenarios);
            let _ = TeSolver::new(&problem)
                .beta(beta)
                .method(SolveMethod::Heuristic)
                .warm_cache(&mut cache)
                .solve()
                .expect("solvable");
        }
        let mut primed = cache.clone();
        let mut flows = base_flows.clone();
        for (i, f) in flows.iter_mut().enumerate() {
            f.demand_gbps *= wobble[i % wobble.len()];
        }
        let problem = TeProblem::new(&net, &flows, &tunnels, &scenarios);
        let warm_run = |cache: &mut BasisCache| {
            TeSolver::new(&problem)
                .beta(beta)
                .method(SolveMethod::Heuristic)
                .warm_cache(cache)
                .solve_with_stats()
                .expect("solvable")
        };
        let (warm, stats) = warm_run(&mut cache);
        let cold = TeSolver::new(&problem)
            .beta(beta)
            .method(SolveMethod::Heuristic)
            .solve()
            .expect("solvable");
        prop_assert!(stats.warm_hits > 0, "perturbed re-solve never hit the cache");
        prop_assert!(
            (warm.max_loss - cold.max_loss).abs() < 1e-6,
            "warm {} vs cold {}", warm.max_loss, cold.max_loss
        );
        // Bit-identity: replay the warm solve from a clone of the primed
        // cache; every allocation and the loss must match exactly.
        let (warm2, _) = warm_run(&mut primed);
        prop_assert_eq!(warm.max_loss.to_bits(), warm2.max_loss.to_bits());
        prop_assert!(
            warm.allocation.iter().zip(&warm2.allocation).all(|(a, b)| a.to_bits() == b.to_bits()),
            "warm replay diverged bitwise"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Both cold starts of the sparse engine are deterministic in the
    /// ways the controller relies on: a repeated cold solve is
    /// bit-identical, warm solves from identical caches are
    /// bit-identical, and warm agrees with cold on the optimum within
    /// LP tolerance.
    #[test]
    fn cold_starts_are_bit_identical_warm_and_cold(
        n in 4usize..7,
        chords in prop::collection::vec((0usize..16, 0usize..8), 1..4),
        seed in 0u64..1000,
        wobble in prop::collection::vec(0.95f64..1.05, 24),
        beta in 0.95f64..0.999,
    ) {
        use prete_core::prelude::{BasisCache, ColdStart, SolveMethod, TeProblem, TeSolver};
        use prete_core::scenario::ScenarioSet;
        use prete_topology::{topologies, TunnelSet};

        let net = random_wan(n, &chords);
        let base_flows = topologies::flows_for(&net, 0.1, seed);
        let tunnels = TunnelSet::initialize(&net, &base_flows, 3);
        let probs: Vec<f64> =
            (0..net.fibers().len()).map(|i| 0.005 * (1.0 + (i % 5) as f64)).collect();
        let scenarios = ScenarioSet::enumerate(&probs, 1, 0.0);
        let mut flows = base_flows.clone();
        for (i, f) in flows.iter_mut().enumerate() {
            f.demand_gbps *= wobble[i % wobble.len()];
        }

        for cold_start in [ColdStart::TwoPhase, ColdStart::Auto] {
            // Prime a cache on the base problem under this cold start.
            let mut cache = BasisCache::new();
            {
                let problem = TeProblem::new(&net, &base_flows, &tunnels, &scenarios);
                let _ = TeSolver::new(&problem)
                    .beta(beta)
                    .method(SolveMethod::Heuristic)
                    .cold_start(cold_start)
                    .warm_cache(&mut cache)
                    .solve()
                    .expect("solvable");
            }
            let problem = TeProblem::new(&net, &flows, &tunnels, &scenarios);
            let bits = |sol: &prete_core::prelude::TeSolution| {
                (
                    sol.allocation.iter().map(|a| a.to_bits()).collect::<Vec<u64>>(),
                    sol.max_loss.to_bits(),
                )
            };
            let cold_run = || {
                let sol = TeSolver::new(&problem)
                    .beta(beta)
                    .method(SolveMethod::Heuristic)
                    .cold_start(cold_start)
                    .solve()
                    .expect("solvable");
                bits(&sol)
            };
            let warm_run = || {
                let mut cache = cache.clone();
                let (sol, stats) = TeSolver::new(&problem)
                    .beta(beta)
                    .method(SolveMethod::Heuristic)
                    .cold_start(cold_start)
                    .warm_cache(&mut cache)
                    .solve_with_stats()
                    .expect("solvable");
                (bits(&sol), stats.warm_hits)
            };
            let cold = cold_run();
            let (warm, hits) = warm_run();
            prop_assert!(hits > 0, "{:?}: warm re-solve never hit the cache", cold_start);
            prop_assert!(
                (f64::from_bits(warm.1) - f64::from_bits(cold.1)).abs() < 1e-6,
                "{:?}: warm {} vs cold {}",
                cold_start, f64::from_bits(warm.1), f64::from_bits(cold.1)
            );
            let cold_again = cold_run();
            prop_assert_eq!(
                &cold.0, &cold_again.0,
                "{:?}: cold allocations diverge on a repeat", cold_start
            );
            prop_assert_eq!(cold.1, cold_again.1);
            let (warm_again, _) = warm_run();
            prop_assert_eq!(
                &warm.0, &warm_again.0,
                "{:?}: warm allocations diverge on a repeat", cold_start
            );
            prop_assert_eq!(warm.1, warm_again.1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scaled-program + postsolve round-trip: multiplying row `i` of a
    /// benign base program by `10^r_i` and column `j` (matrix entries
    /// *and* cost) by `10^c_j` produces an equivalent program whose
    /// optimal objective is unchanged and whose duals satisfy strong
    /// duality against the *scaled* rhs. The transformed programs span
    /// ten-plus decades of coefficient dynamic range and exercise the
    /// full presolve → solve → postsolve → certify pipeline, and the
    /// oracle's solve → certify. A certified `Optimal` must round-trip
    /// the objective; an ill-conditioned draw may downgrade to
    /// `NumericallySuspect` instead, but may never flip to
    /// `Infeasible`/`Unbounded`.
    #[test]
    fn scaling_and_postsolve_round_trip_objective_and_duals(
        a in prop::collection::vec(prop::collection::vec(0.5f64..4.0, 5), 1..6),
        costs in prop::collection::vec(-5.0f64..5.0, 5),
        slacks in prop::collection::vec(1.0f64..20.0, 6),
        row_exp in prop::collection::vec(-5i32..6, 6),
        col_exp in prop::collection::vec(-5i32..6, 5),
    ) {
        use prete_lp::{
            solve_oracle, solve_with, LinearProgram, Sense, SimplexOptions, Solution, SolveStatus,
        };
        type Engine = fn(&LinearProgram, SimplexOptions) -> Solution;
        let n = costs.len();
        let m = a.len();
        // Base: min c·x, A x ≤ b, x ≥ 0 with A strictly positive and
        // b > 0 — feasible at the origin and bounded (no ray d ≥ 0,
        // d ≠ 0 keeps A d ≤ 0 when every entry of A is positive).
        let build = |rs: &[f64], cs: &[f64]| {
            let mut lp = LinearProgram::new();
            let vars: Vec<_> =
                (0..n).map(|j| lp.add_var(0.0, f64::INFINITY, costs[j] * cs[j])).collect();
            for i in 0..m {
                let terms: Vec<_> =
                    (0..n).map(|j| (vars[j], a[i][j] * rs[i] * cs[j])).collect();
                lp.add_constraint(terms, Sense::Le, slacks[i] * rs[i]);
            }
            lp
        };
        let ones = vec![1.0f64; 6];
        let rs: Vec<f64> = row_exp.iter().map(|&e| 10f64.powi(e)).collect();
        let cs: Vec<f64> = col_exp.iter().map(|&e| 10f64.powi(e)).collect();
        let engines: [(&str, Engine); 2] = [("oracle", solve_oracle), ("sparse", solve_with)];
        let opts = SimplexOptions::default();
        for (engine, run) in engines {
            let base = run(&build(&ones, &ones), opts);
            prop_assert_eq!(base.status, SolveStatus::Optimal, "{} base not optimal", engine);
            let scaled = run(&build(&rs, &cs), opts);
            prop_assert!(
                scaled.is_usable(),
                "{}: scaled program flipped to {:?}", engine, scaled.status
            );
            let q = scaled.quality.unwrap_or_else(|| panic!("{engine}: no certificate"));
            if scaled.status == SolveStatus::Optimal {
                prop_assert!(q.passes(), "{}: Optimal with failing {q:?}", engine);
                let tol = 1e-6 * (1.0 + base.objective.abs());
                prop_assert!(
                    (scaled.objective - base.objective).abs() <= tol,
                    "{}: objective did not round-trip: base {} vs scaled {}",
                    engine, base.objective, scaled.objective
                );
                // Strong duality in the scaled space: the returned
                // duals must price the scaled rhs back to the
                // certified objective.
                let dual_obj: f64 =
                    scaled.duals.iter().zip(&rs).zip(&slacks).map(|((&y, &r), &b)| y * r * b).sum();
                prop_assert!(
                    (dual_obj - scaled.objective).abs() <= 1e-5 * (1.0 + scaled.objective.abs()),
                    "{}: duality gap after unscale: {} vs {}",
                    engine, dual_obj, scaled.objective
                );
            }
        }
    }
}

/// Satellite of the numerical-robustness layer: a *pathologically
/// scaled* TE instance — link capacities spanning nine decades — must
/// still produce a certified, KKT-checked polish, and a repeated solve
/// must give it bit for bit (presolve, factorization and
/// certification are all deterministic).
#[test]
fn scaled_te_instance_is_certified_and_thread_invariant() {
    use prete_core::prelude::{SolveMethod, TeProblem, TeSolver};
    use prete_core::scenario::ScenarioSet;
    use prete_topology::{topologies, NetworkBuilder, TunnelSet};

    let mut b = NetworkBuilder::new("scaled-wan");
    let sites: Vec<_> = (0..6).map(|i| b.site(format!("s{i}"), 0)).collect();
    let mut fibers = Vec::new();
    for i in 0..6 {
        fibers.push(b.fiber(sites[i], sites[(i + 1) % 6], 80.0 + 10.0 * i as f64, i % 3));
    }
    fibers.push(b.fiber(sites[0], sites[3], 200.0, 1));
    fibers.push(b.fiber(sites[1], sites[4], 220.0, 2));
    for (i, &f) in fibers.iter().enumerate() {
        // Capacities from 1e-3 to 1e5 Gbps: nine decades of dynamic
        // range once demands and loss terms mix in.
        b.link_on(f, 10f64.powi((i as i32 % 5) - 3) * 100.0);
    }
    let net = b.build();
    let flows = topologies::flows_for(&net, 0.05, 7);
    let tunnels = TunnelSet::initialize(&net, &flows, 4);
    let probs: Vec<f64> = (0..net.fibers().len())
        .map(|i| 0.004 * (1.0 + (i % 3) as f64))
        .collect();
    let scenarios = ScenarioSet::enumerate(&probs, 1, 0.0);
    let problem = TeProblem::new(&net, &flows, &tunnels, &scenarios);

    let solve = || {
        TeSolver::new(&problem)
            .beta(0.99)
            .method(SolveMethod::Heuristic)
            .solve()
            .expect("heuristic solve")
    };
    let first = solve();
    assert!(
        first.quality.is_some(),
        "scaled polish returned no certificate"
    );
    assert!(first.max_loss.is_finite());
    let again = solve();
    assert_eq!(
        first.allocation, again.allocation,
        "allocations diverge on a repeat"
    );
    assert_eq!(
        first.max_loss.to_bits(),
        again.max_loss.to_bits(),
        "max_loss diverges on a repeat"
    );
    assert_eq!(
        first.quality, again.quality,
        "certificate diverges on a repeat"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The parametric generator is a pure function of its spec: the
    /// same `(family, size, seed)` must produce a byte-identical
    /// topology digest no matter which thread builds it.
    #[test]
    fn generated_topologies_are_deterministic_across_threads(
        size in 100usize..260,
        seed in 0u64..1_000_000,
        family_sel in 0usize..2,
    ) {
        use prete_topology::generate::{digest, generate};
        use prete_topology::{GenFamily, GenSpec};

        let spec = GenSpec {
            family: if family_sel == 1 { GenFamily::RingChords } else { GenFamily::Waxman },
            nodes: size,
            seed,
        };
        let reference = digest(&generate(&spec));
        let digests: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(move || digest(&generate(&spec))))
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for d in digests {
            prop_assert_eq!(d, reference, "generator output depends on the building thread");
        }
    }
}
