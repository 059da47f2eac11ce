//! The four workloads and the interface the runner drives them through.
//!
//! A workload is a fixed *pass* of distinct epoch inputs (slots). The
//! runner repeats whole passes until the measuring time is used up, so
//! every run measures the same multiset of inputs however fast the
//! machine is; the seed only permutes the order within a pass and drives
//! trace noise and demand jitter. Topologies and base flows never depend
//! on the seed, so problem sizes are equal across seeds.

mod react;
mod solve;

use crate::span::Tracer;
use prete_core::prelude::{EnumerationStats, RunReport, ScenarioSet, SolverStats};
use prete_sim::ControllerReport;
use std::collections::BTreeMap;

/// One workload: its name, why it exists, and how to set it up.
pub struct WorkloadDef {
    pub name: &'static str,
    /// Why this workload was chosen (one line; mirrored in
    /// `BENCHMARK.json`).
    pub why: &'static str,
    /// Everything before the warm-up epoch. Timed as `setup_s`.
    pub setup: fn() -> (Box<dyn Workload>, SetupBreakdown),
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "react-twan",
        why: "Paper Fig. 11 unit: Controller::replay_trace on TWAN runs detect, predict, Algorithm 1, \
              scenario regeneration and a cold solve together; tunnels change every epoch.",
        setup: react::setup,
    },
    WorkloadDef {
        name: "steady-twan",
        why: "Periodic TE between degradations: same TWAN solver code re-solved warm as only demands \
              change; optical, nn, Algorithm 1, enumeration and the master stay idle.",
        setup: solve::steady_twan,
    },
    WorkloadDef {
        name: "benders-b4",
        why: "Algorithm 2 at beta 0.95 and 2x demand on B4, the mildest setting where the master runs: \
              branch-and-bound and the cut pool do over 95 % of the work, polish under 1 %.",
        setup: solve::benders_b4,
    },
    WorkloadDef {
        name: "scale-waxman100",
        why: "Topology-size axis: gen:waxman:100 with budgeted 2-cut streaming enumeration, TeProblem \
              precompute at 481 flows x 65 scenarios and a polish LP ten times TWAN's, solved cold.",
        setup: solve::scale_waxman100,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Where set-up time went, and how large the instance is.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupBreakdown {
    pub generate_ms: f64,
    pub tunnels_init_ms: f64,
    pub ground_truth_ms: f64,
    pub train_s: f64,
    pub flows_total: usize,
    pub tunnels_total: usize,
}

/// The allocation a decision returned, with what is needed to check it.
pub struct Policy {
    pub allocation: Vec<f64>,
    /// The epoch's regenerated scenario set; `None` when the workload
    /// solves against its fixed set.
    pub scenarios: Option<ScenarioSet>,
}

/// What one epoch returned.
pub struct Decision {
    /// The Φ the program reported.
    pub phi: f64,
    pub stats: SolverStats,
    /// Absent on `react-twan`: `ControllerReport` does not expose the
    /// allocation.
    pub policy: Option<Policy>,
    pub enumeration: Option<EnumerationStats>,
    /// `react-twan` only.
    pub controller: Option<ControllerReport>,
    /// `react-twan`, traced epochs only: the controller's own run report.
    pub sim: Option<RunReport>,
}

/// Per-layer samples gathered over the traced epochs, by metric stem.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, key: &'static str, value: f64) {
        self.0.entry(key).or_default().push(value);
    }

    pub fn get(&self, key: &str) -> &[f64] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }
}

pub trait Workload {
    /// Generates the run's inputs from the seed. Untimed.
    fn prepare(&mut self, seed: u64);

    /// Distinct epoch inputs per pass.
    fn slots(&self) -> usize;

    /// Called before each pass; resets whatever would make a later pass
    /// do different work from the first.
    fn begin_pass(&mut self) {}

    /// The timed region: one controller decision for `slot`'s inputs.
    fn epoch(&mut self, slot: usize, tracer: &mut Tracer) -> Result<Decision, String>;

    /// Untimed: checks the decision's outputs. Returns the mean over
    /// flows of the β-quantile loss recomputed from the allocation, where
    /// the decision exposes one.
    fn check(&self, slot: usize, decision: &Decision) -> Result<Option<f64>, String>;

    /// Untimed, traced epochs only: stand-alone calls into single stages
    /// on copies of the epoch's inputs, made after the timed region so
    /// they attribute without perturbing it.
    fn attribute(&mut self, _slot: usize, _tracer: &mut Tracer, _samples: &mut Samples) {}
}

/// Splitmix64, the repo's standard seed-expansion step (the benchmark
/// keeps its own copy so the program receives only generated inputs).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
        v
    }
}

/// Milliseconds a closure took, with its result.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = Rng::new(7).permutation(24);
        let b = Rng::new(7).permutation(24);
        let c = Rng::new(8).permutation(24);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn workload_names_are_unique_and_whys_fit_one_line() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(!w.why.contains('\n'));
        }
    }
}
