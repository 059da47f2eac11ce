//! Experiment harness: one function per table/figure of the paper.
//!
//! Every module computes the data behind one (or a family of) paper
//! artifact(s) and returns serde-serializable rows; the `figures`
//! binary renders them as text tables + JSON. The experiment index
//! lives in `DESIGN.md`; measured-vs-paper numbers in `EXPERIMENTS.md`.
//!
//! Most experiments accept a [`Scope`]: `Quick` keeps wall-clock time
//! in seconds for CI/tests; `Full` reproduces the paper-scale sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod example3node;
pub mod granularity;
pub mod measurement;
pub mod obs;
pub mod prediction;
pub mod runtime;
pub mod torture;

/// How much work an experiment should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Reduced sweeps (seconds): B4-sized topologies, fewer scales.
    Quick,
    /// Paper-scale sweeps (minutes): all topologies, dense scales.
    Full,
}

impl Scope {
    /// Parses `--full` style flags.
    pub fn from_args(args: &[String]) -> Scope {
        if args.iter().any(|a| a == "--full") {
            Scope::Full
        } else {
            Scope::Quick
        }
    }
}

/// Standard seed used across experiments for reproducibility.
pub const SEED: u64 = 42;
