//! Degradation states and probabilistic failure scenarios (§4.3).
//!
//! A *degradation state* `s` is a binary vector over fibers marking
//! which are currently degraded. Given per-fiber failure probabilities
//! `p_n` (which depend on `s` through Eqn 1), a *failure scenario*
//! `q̂ = (q̂_1, …, q̂_N)` occurs with the product-form probability
//! `p_q̂ = Π_n (q̂_n p_n + (1 − q̂_n)(1 − p_n))`.
//!
//! Enumerating all `2^N` scenarios is hopeless; like TeaVaR, we keep
//! the scenarios above a probability cutoff with at most `max_cuts`
//! simultaneous cuts — in practice the no-failure scenario plus all
//! single-fiber cuts already cover > 99.9 % of the probability mass at
//! the paper's failure rates.
//!
//! [`ScenarioSet::enumerate`] is the historical fixed-order API (any
//! cut order, exact legacy float paths for orders ≤ 2).
//! [`ScenarioSet::enumerate_with`] is the budgeted streaming path for
//! generated WANs: candidates stream depth-first through a bounded
//! buffer (never materializing the full candidate space), scenarios
//! below the mass floor are pruned with their mass tracked explicitly,
//! and the residual tail can be represented by seeded importance
//! samples. The accounting invariant `enumerated + truncated_tail
//! = 1 ± ε` is checked in debug builds against an independent
//! Poisson-binomial computation and again by the differential suite.

use prete_topology::FiberId;
use serde::Serialize;

/// Which fibers are currently degraded (the `s` of Table 2).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct DegradationState {
    /// Degraded fibers, sorted.
    pub degraded: Vec<FiberId>,
}

impl DegradationState {
    /// The all-healthy state.
    pub fn healthy() -> Self {
        Self::default()
    }

    /// A state with exactly one degraded fiber.
    pub fn single(f: FiberId) -> Self {
        Self { degraded: vec![f] }
    }

    /// Builds from an unsorted fiber list.
    pub fn new(mut degraded: Vec<FiberId>) -> Self {
        degraded.sort();
        degraded.dedup();
        Self { degraded }
    }

    /// Whether fiber `f` is degraded in this state.
    pub fn is_degraded(&self, f: FiberId) -> bool {
        self.degraded.binary_search(&f).is_ok()
    }

    /// Whether no fiber is degraded.
    pub fn is_healthy(&self) -> bool {
        self.degraded.is_empty()
    }
}

/// One failure scenario: the set of simultaneously cut fibers with its
/// product-form probability.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FailureScenario {
    /// Cut fibers (empty = the no-failure scenario).
    pub cut: Vec<FiberId>,
    /// Probability `p_q̂` under the generating per-fiber probabilities.
    pub prob: f64,
}

impl FailureScenario {
    /// Whether this is the no-failure scenario.
    pub fn is_no_failure(&self) -> bool {
        self.cut.is_empty()
    }
}

/// Budget for one streaming scenario enumeration: how deep to cut, how
/// much mass may be dropped per scenario, how many scenarios may ever
/// be buffered, and how the residual tail is represented.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ScenarioBudget {
    /// Maximum simultaneous fiber cuts per scenario (the `k` of k-cut
    /// enumeration). Any order is supported; the candidate space grows
    /// as `C(n, k)`, which is why the buffer bound exists.
    pub max_cuts: usize,
    /// Scenarios with probability below this floor are pruned; their
    /// mass moves to [`EnumerationStats::truncated_tail`] instead of
    /// silently vanishing.
    pub mass_floor: f64,
    /// Hard cap on scenarios held at any moment (and hence returned).
    /// When the floor keeps more than this, the lowest-probability
    /// survivors are evicted — memory stays `O(max_scenarios)` no
    /// matter how many candidates stream past.
    pub max_scenarios: usize,
    /// Number of seeded importance samples representing the truncated
    /// tail (0 = track the tail mass but add no scenarios). Samples are
    /// drawn from the product distribution conditioned on "more than
    /// `max_cuts` fibers cut" and split the tail mass evenly, so the
    /// returned set still sums to ≈ 1.
    pub tail_samples: usize,
    /// Seed for tail sampling (the same seed draws the same tail).
    pub seed: u64,
}

impl Default for ScenarioBudget {
    fn default() -> Self {
        Self {
            max_cuts: 2,
            mass_floor: 0.0,
            max_scenarios: usize::MAX,
            tail_samples: 0,
            seed: 0,
        }
    }
}

/// Accounting from one budgeted enumeration ([`ScenarioSet::enumerate_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct EnumerationStats {
    /// Candidate scenarios examined (kept + pruned, excluding subtree
    /// skips, which are counted under `scenarios_pruned` without being
    /// visited one by one).
    pub visited: u64,
    /// Scenarios dropped: below the mass floor, evicted from the
    /// bounded buffer, or skipped wholesale by the subtree bound.
    pub scenarios_pruned: u64,
    /// Peak number of scenarios buffered at any point — the streaming
    /// guarantee (`peak_buffered ≤ max_scenarios + 1`).
    pub peak_buffered: usize,
    /// Probability mass of the returned scenarios (including any tail
    /// samples).
    pub enumerated_mass: f64,
    /// Mass *not* represented by a returned scenario: pruned, evicted
    /// or beyond-`max_cuts`, minus whatever tail sampling re-assigned.
    ///
    /// Invariant: `enumerated_mass + truncated_tail = 1 ± ε`.
    pub truncated_tail: f64,
    /// Distinct tail-sample scenarios appended.
    pub tail_samples_added: usize,
}

impl EnumerationStats {
    /// Absolute gap of the mass-accounting invariant
    /// `enumerated + truncated_tail = 1`. Debug builds assert this is
    /// tiny; the differential suite asserts it for every case.
    pub fn mass_gap(&self) -> f64 {
        (self.enumerated_mass + self.truncated_tail - 1.0).abs()
    }
}

/// The scenario set `Q_s` for one degradation state.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioSet {
    /// Scenarios, no-failure first, then by decreasing probability.
    pub scenarios: Vec<FailureScenario>,
}

/// Splitmix64 step, shared by tail sampling.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Is `a` a worse scenario than `b` for buffer eviction? Mirrors the
/// final ordering (descending probability, ascending cut vector), so
/// the bounded buffer keeps exactly the scenarios an unbounded
/// enumeration would have sorted first.
fn worse(a: &FailureScenario, b: &FailureScenario) -> bool {
    match a.prob.partial_cmp(&b.prob).expect("finite probability") {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a.cut > b.cut,
    }
}

/// The DFS enumeration engine shared by the legacy and budgeted paths.
struct Enumerator<'a> {
    probs: &'a [f64],
    /// Indices of fibers with genuinely uncertain outcomes.
    uncertain: Vec<usize>,
    /// Cut fibers forced into every scenario (p ≈ 1).
    certain: Vec<FiberId>,
    /// `Π (1 − p)` over the uncertain fibers.
    base_prob: f64,
    floor: f64,
    max_cuts: usize,
    cap: usize,
    /// Bounded keep-buffer (scenario 0 lives outside it).
    kept: Vec<FailureScenario>,
    stats: EnumerationStats,
    pruned_mass: f64,
    /// `gain[i][d]` = max over subsets of `uncertain[i..]` with ≤ d
    /// elements of the odds-ratio product (≥ 1: includes the empty
    /// subset).
    gain: Vec<Vec<f64>>,
    /// `mass[i][d]` = Σ over the same subsets of the product — the
    /// elementary-symmetric prefix that turns a skipped subtree into an
    /// exact mass.
    mass: Vec<Vec<f64>>,
    /// Number of those subsets (saturating — `C(1000, k)` overflows).
    count: Vec<Vec<u64>>,
}

impl<'a> Enumerator<'a> {
    fn new(probs: &'a [f64], max_cuts: usize, floor: f64, cap: usize) -> Self {
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)), "invalid probability");
        let n = probs.len();
        let certain: Vec<FiberId> =
            (0..n).filter(|&i| probs[i] >= 1.0 - 1e-12).map(FiberId).collect();
        let uncertain: Vec<usize> =
            (0..n).filter(|&i| probs[i] > 1e-15 && probs[i] < 1.0 - 1e-12).collect();
        let base_prob: f64 = uncertain.iter().map(|&i| 1.0 - probs[i]).product();
        let ratio: Vec<f64> =
            uncertain.iter().map(|&i| probs[i] / (1.0 - probs[i])).collect();
        let m = uncertain.len();
        let depth = max_cuts.min(m);
        // Suffix DP tables over subset order ≤ depth.
        let mut gain: Vec<Vec<f64>> = vec![vec![1.0; depth + 1]; m + 1];
        let mut mass: Vec<Vec<f64>> = vec![vec![1.0; depth + 1]; m + 1];
        let mut count = vec![vec![1u64; depth + 1]; m + 1];
        for i in (0..m).rev() {
            for d in 0..=depth {
                if d == 0 {
                    gain[i][d] = 1.0;
                    mass[i][d] = 1.0;
                    count[i][d] = 1;
                } else {
                    gain[i][d] = gain[i + 1][d].max(ratio[i] * gain[i + 1][d - 1]);
                    mass[i][d] = mass[i + 1][d] + ratio[i] * mass[i + 1][d - 1];
                    count[i][d] = count[i + 1][d].saturating_add(count[i + 1][d - 1]);
                }
            }
        }
        Self {
            probs,
            uncertain,
            certain,
            base_prob,
            floor,
            max_cuts: depth,
            cap,
            kept: Vec::new(),
            stats: EnumerationStats::default(),
            pruned_mass: 0.0,
            gain,
            mass,
            count,
        }
    }

    /// Probability of cutting exactly `members` (positions into
    /// `uncertain`), on the legacy float path: one division by the
    /// left-associated product of `(1−p)`, then the `p` factors in
    /// ascending order — bit-identical to the historical single/double
    /// formulas.
    fn scenario_prob(&self, members: &[usize]) -> f64 {
        let mut denom = 1.0;
        for &pos in members {
            denom *= 1.0 - self.probs[self.uncertain[pos]];
        }
        let mut prob = self.base_prob / denom;
        for &pos in members {
            prob *= self.probs[self.uncertain[pos]];
        }
        prob
    }

    fn keep(&mut self, members: &[usize], prob: f64) {
        let mut cut = self.certain.clone();
        for &pos in members {
            cut.push(FiberId(self.uncertain[pos]));
        }
        cut.sort();
        let candidate = FailureScenario { cut, prob };
        if self.kept.len() < self.cap {
            self.kept.push(candidate);
            // +1 for the out-of-buffer scenario 0.
            self.stats.peak_buffered = self.stats.peak_buffered.max(self.kept.len() + 1);
        } else {
            // Bounded buffer full: evict the worst of (buffer ∪ candidate).
            let mut worst = 0;
            for i in 1..self.kept.len() {
                if worse(&self.kept[i], &self.kept[worst]) {
                    worst = i;
                }
            }
            let evict = if worse(&candidate, &self.kept[worst]) {
                candidate
            } else {
                std::mem::replace(&mut self.kept[worst], candidate)
            };
            self.pruned_mass += evict.prob;
            self.stats.scenarios_pruned += 1;
        }
    }

    /// Depth-first k-subset streaming: visit each candidate once, keep
    /// or prune it, and skip whole subtrees (with exact mass) when the
    /// odds-ratio bound proves nothing below can reach the floor.
    fn dfs(&mut self, start: usize, depth_left: usize, members: &mut Vec<usize>) {
        let m = self.uncertain.len();
        for pos in start..m {
            members.push(pos);
            let prob = self.scenario_prob(members);
            self.stats.visited += 1;
            if prob >= self.floor {
                self.keep(members, prob);
            } else {
                self.pruned_mass += prob;
                self.stats.scenarios_pruned += 1;
            }
            if depth_left > 1 && pos + 1 < m {
                // Conservative skip: only when even the best extension
                // (with a relative safety margin for the float gap
                // between the odds-ratio bound and the legacy
                // probability path) stays under the floor.
                let bound = prob * self.gain[pos + 1][depth_left - 1];
                if bound * (1.0 + 1e-9) < self.floor {
                    self.pruned_mass += prob * (self.mass[pos + 1][depth_left - 1] - 1.0);
                    self.stats.scenarios_pruned = self
                        .stats
                        .scenarios_pruned
                        .saturating_add(self.count[pos + 1][depth_left - 1] - 1);
                } else {
                    self.dfs(pos + 1, depth_left - 1, members);
                }
            }
            members.pop();
        }
    }

    fn run(mut self) -> (Vec<FailureScenario>, EnumerationStats) {
        let p_none: f64 = self.probs.iter().map(|p| 1.0 - p).product();
        let scenario0 = FailureScenario {
            cut: self.certain.clone(),
            prob: if self.certain.is_empty() { p_none } else { self.base_prob },
        };
        self.stats.peak_buffered = 1;
        if self.max_cuts >= 1 && !self.uncertain.is_empty() {
            let mut members = Vec::with_capacity(self.max_cuts);
            self.dfs(0, self.max_cuts, &mut members);
        }
        // Mass accounting. `within_k` comes from the elementary-
        // symmetric DP — an independent path from the per-scenario
        // sums, which is what makes the debug assertion a real check.
        let within_k = self.base_prob * self.mass[0][self.max_cuts];
        let beyond_k = (1.0 - within_k).max(0.0);
        let kept_mass: f64 = scenario0.prob + self.kept.iter().map(|s| s.prob).sum::<f64>();
        self.stats.enumerated_mass = kept_mass;
        self.stats.truncated_tail = self.pruned_mass + beyond_k;
        debug_assert!(
            self.stats.mass_gap() < 1e-9,
            "scenario mass accounting broken: enumerated {} + tail {} != 1",
            self.stats.enumerated_mass,
            self.stats.truncated_tail,
        );
        let mut scenarios = Vec::with_capacity(self.kept.len() + 1);
        scenarios.push(scenario0);
        scenarios.append(&mut self.kept);
        // No-failure first, then by decreasing probability.
        scenarios[1..].sort_by(|x, y| {
            y.prob.partial_cmp(&x.prob).expect("finite").then_with(|| x.cut.cmp(&y.cut))
        });
        (scenarios, self.stats)
    }
}

impl ScenarioSet {
    /// Enumerates scenarios from per-fiber failure probabilities
    /// (`probs[n]` = probability fiber `n` is cut this epoch), keeping
    /// scenarios with at most `max_cuts` simultaneous cuts and
    /// probability at least `cutoff`.
    ///
    /// The no-failure scenario is always included. Fibers with
    /// certainty (`p = 1`, the oracle case) are forced into every
    /// scenario's cut set; fibers with `p = 0` never cut. Any cut
    /// order is supported; memory is unbounded (use
    /// [`ScenarioSet::enumerate_with`] for the budgeted streaming
    /// path on large instances).
    pub fn enumerate(probs: &[f64], max_cuts: usize, cutoff: f64) -> ScenarioSet {
        let (scenarios, _) =
            Enumerator::new(probs, max_cuts, cutoff, usize::MAX).run();
        ScenarioSet { scenarios }
    }

    /// Budgeted streaming enumeration: candidates stream depth-first
    /// through a buffer bounded by `budget.max_scenarios`, pruned mass
    /// is tracked explicitly, and the residual tail is optionally
    /// represented by seeded importance samples. Returns the set plus
    /// the [`EnumerationStats`] accounting (whose
    /// `enumerated + truncated_tail = 1 ± ε` invariant is asserted in
    /// debug builds).
    pub fn enumerate_with(
        probs: &[f64],
        budget: &ScenarioBudget,
    ) -> (ScenarioSet, EnumerationStats) {
        assert!(budget.max_scenarios >= 1, "budget must allow at least one scenario");
        let (mut scenarios, mut stats) =
            Enumerator::new(probs, budget.max_cuts, budget.mass_floor, budget.max_scenarios)
                .run();
        if budget.tail_samples > 0 && stats.truncated_tail > 1e-15 {
            let sampled = sample_tail(probs, budget, stats.truncated_tail);
            if !sampled.is_empty() {
                stats.tail_samples_added = sampled.len();
                let assigned: f64 = sampled.iter().map(|s| s.prob).sum();
                stats.enumerated_mass += assigned;
                stats.truncated_tail -= assigned;
                scenarios.extend(sampled);
                scenarios[1..].sort_by(|x, y| {
                    y.prob
                        .partial_cmp(&x.prob)
                        .expect("finite")
                        .then_with(|| x.cut.cmp(&y.cut))
                });
            }
        }
        debug_assert!(stats.mass_gap() < 1e-9, "tail sampling broke mass accounting");
        (ScenarioSet { scenarios }, stats)
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the set is empty (never: the no-failure scenario is
    /// always present).
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Total probability mass covered by the kept scenarios.
    pub fn covered_mass(&self) -> f64 {
        self.scenarios.iter().map(|s| s.prob).sum()
    }

    /// The scenarios in which fiber `f` is cut.
    pub fn cutting(&self, f: FiberId) -> impl Iterator<Item = &FailureScenario> {
        self.scenarios.iter().filter(move |s| s.cut.contains(&f))
    }
}

/// Rejection-samples scenarios from the product distribution
/// conditioned on "more than `max_cuts` fibers cut", merges duplicates,
/// and splits `tail_mass` across the draws. With a bounded attempt
/// budget: when the tail is so thin that no draw lands (the common
/// case at paper failure rates), the tail stays un-sampled and merely
/// tracked.
fn sample_tail(
    probs: &[f64],
    budget: &ScenarioBudget,
    tail_mass: f64,
) -> Vec<FailureScenario> {
    let mut state = budget.seed ^ 0x7a11_5eed_c0ff_ee00;
    let mut draws: Vec<Vec<FiberId>> = Vec::new();
    let attempts = budget.tail_samples.saturating_mul(64);
    for _ in 0..attempts {
        if draws.len() >= budget.tail_samples {
            break;
        }
        let mut cut: Vec<FiberId> = Vec::new();
        let mut uncertain_cuts = 0usize;
        for (i, &p) in probs.iter().enumerate() {
            if p >= 1.0 - 1e-12 {
                cut.push(FiberId(i));
            } else if p > 1e-15 && unit(&mut state) < p {
                cut.push(FiberId(i));
                uncertain_cuts += 1;
            }
        }
        if uncertain_cuts > budget.max_cuts {
            cut.sort();
            draws.push(cut);
        }
    }
    if draws.is_empty() {
        return Vec::new();
    }
    let per_draw = tail_mass / draws.len() as f64;
    // Merge duplicate draws so the returned set has distinct cut sets.
    draws.sort();
    let mut out: Vec<FailureScenario> = Vec::new();
    for cut in draws {
        match out.last_mut() {
            Some(last) if last.cut == cut => last.prob += per_draw,
            _ => out.push(FailureScenario { cut, prob: per_draw }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_scenarios() {
        // The Figure 2 example: p = (0.005, 0.009, 0.001).
        let s = ScenarioSet::enumerate(&[0.005, 0.009, 0.001], 2, 0.0);
        // 1 + 3 singles + 3 doubles
        assert_eq!(s.len(), 7);
        assert!(s.scenarios[0].is_no_failure());
        let p0 = 0.995f64 * 0.991 * 0.999;
        assert!((s.scenarios[0].prob - p0).abs() < 1e-12);
        // Highest-probability single cut is fiber 1 (p=0.009).
        assert_eq!(s.scenarios[1].cut, vec![FiberId(1)]);
        // Mass of kept scenarios ≈ 1 (triples excluded, tiny).
        assert!(s.covered_mass() > 0.999_999);
    }

    #[test]
    fn cutoff_prunes() {
        let s = ScenarioSet::enumerate(&[0.005, 0.009, 0.001], 2, 1e-4);
        // doubles have prob ~1e-5..1e-6 → pruned; singles ~1e-3 kept.
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn oracle_certain_failure() {
        // Oracle knows fiber 0 will fail: p = 1 → every scenario cuts 0.
        let s = ScenarioSet::enumerate(&[1.0, 0.01, 0.0], 1, 0.0);
        assert!(s.scenarios.iter().all(|q| q.cut.contains(&FiberId(0))));
        assert!(s.scenarios.iter().all(|q| !q.cut.contains(&FiberId(2))));
        assert!((s.covered_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oracle_certain_survival() {
        // Oracle knows nothing fails: only the no-failure scenario.
        let s = ScenarioSet::enumerate(&[0.0, 0.0], 2, 0.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.scenarios[0].prob, 1.0);
    }

    #[test]
    fn probabilities_form_product() {
        let probs = [0.1, 0.2];
        let s = ScenarioSet::enumerate(&probs, 2, 0.0);
        assert_eq!(s.len(), 4);
        assert!((s.covered_mass() - 1.0).abs() < 1e-12);
        let both = s
            .scenarios
            .iter()
            .find(|q| q.cut.len() == 2)
            .expect("double scenario");
        assert!((both.prob - 0.02).abs() < 1e-12);
    }

    #[test]
    fn degradation_state_queries() {
        let s = DegradationState::new(vec![FiberId(3), FiberId(1), FiberId(3)]);
        assert_eq!(s.degraded, vec![FiberId(1), FiberId(3)]);
        assert!(s.is_degraded(FiberId(1)));
        assert!(!s.is_degraded(FiberId(2)));
        assert!(!s.is_healthy());
        assert!(DegradationState::healthy().is_healthy());
    }

    #[test]
    fn single_cut_mass_dominates_at_paper_rates() {
        // At p ~ 0.003 per fiber over 20 fibers, no-failure + singles
        // cover > 99.9 % of the mass — the cutoff rationale.
        let probs = vec![0.003; 20];
        let s = ScenarioSet::enumerate(&probs, 1, 0.0);
        assert_eq!(s.len(), 21);
        assert!(s.covered_mass() > 0.998, "mass {}", s.covered_mass());
    }

    #[test]
    fn triple_cuts_now_enumerate() {
        // The legacy API was hard-capped at double cuts; order 3 over 4
        // fibers must now yield 1 + 4 + 6 + 4 scenarios summing to the
        // within-3 Poisson-binomial mass.
        let probs = [0.1, 0.2, 0.3, 0.4];
        let s = ScenarioSet::enumerate(&probs, 3, 0.0);
        assert_eq!(s.len(), 15);
        let all = ScenarioSet::enumerate(&probs, 4, 0.0);
        assert_eq!(all.len(), 16);
        assert!((all.covered_mass() - 1.0).abs() < 1e-12);
        // Quadruple = p1 p2 p3 p4.
        let quad = 0.1 * 0.2 * 0.3 * 0.4;
        assert!((all.covered_mass() - s.covered_mass() - quad).abs() < 1e-12);
    }

    #[test]
    fn budgeted_matches_legacy_when_unconstrained() {
        let probs = [0.005, 0.009, 0.001, 0.03];
        let legacy = ScenarioSet::enumerate(&probs, 2, 1e-6);
        let (budgeted, stats) = ScenarioSet::enumerate_with(
            &probs,
            &ScenarioBudget { max_cuts: 2, mass_floor: 1e-6, ..Default::default() },
        );
        assert_eq!(legacy, budgeted);
        assert!(stats.mass_gap() < 1e-12, "gap {}", stats.mass_gap());
        assert!((stats.enumerated_mass - legacy.covered_mass()).abs() < 1e-12);
    }

    #[test]
    fn bounded_buffer_keeps_top_mass() {
        let probs = vec![0.01; 12];
        let unbounded = ScenarioSet::enumerate(&probs, 2, 0.0);
        let (bounded, stats) = ScenarioSet::enumerate_with(
            &probs,
            &ScenarioBudget { max_cuts: 2, max_scenarios: 5, ..Default::default() },
        );
        // Scenario 0 + the 5 best survivors.
        assert_eq!(bounded.len(), 6);
        assert!(stats.peak_buffered <= 6, "peak {}", stats.peak_buffered);
        assert!(stats.visited >= 12 + 66, "visited {}", stats.visited);
        // The survivors are exactly the unbounded enumeration's head.
        for (a, b) in bounded.scenarios.iter().zip(&unbounded.scenarios) {
            assert_eq!(a, b);
        }
        assert!(stats.mass_gap() < 1e-12);
        assert!(stats.scenarios_pruned > 0);
    }

    #[test]
    fn tail_sampling_reassigns_mass() {
        // Fat probabilities so the >k tail is easy to hit.
        let probs = vec![0.3; 8];
        let budget = ScenarioBudget {
            max_cuts: 1,
            tail_samples: 16,
            seed: 7,
            ..Default::default()
        };
        let (s, stats) = ScenarioSet::enumerate_with(&probs, &budget);
        assert!(stats.tail_samples_added > 0, "tail never sampled");
        assert!(stats.mass_gap() < 1e-9, "gap {}", stats.mass_gap());
        // Sampled scenarios all exceed the cut order.
        let deep: Vec<_> =
            s.scenarios.iter().filter(|q| q.cut.len() > 1).collect();
        assert_eq!(deep.len(), stats.tail_samples_added);
        // Total mass back to ≈ 1.
        assert!((s.covered_mass() - 1.0).abs() < 1e-9);
        // Determinism: same seed, same draw.
        let (s2, _) = ScenarioSet::enumerate_with(&probs, &budget);
        assert_eq!(s, s2);
    }

    #[test]
    fn subtree_skip_mass_is_exact() {
        // A floor that kills all triples: the skipped subtrees' mass
        // must land in the tail exactly (checked against brute force).
        let probs = [0.05, 0.04, 0.03, 0.02, 0.01];
        let (_, stats) = ScenarioSet::enumerate_with(
            &probs,
            &ScenarioBudget { max_cuts: 3, mass_floor: 1e-4, ..Default::default() },
        );
        assert!(stats.mass_gap() < 1e-12, "gap {}", stats.mass_gap());
        assert!(stats.scenarios_pruned > 0);
    }
}
