//! # PreTE — Traffic Engineering with Predictive Failures
//!
//! A reproduction of the SIGCOMM 2025 PreTE system. PreTE is a hybrid
//! TE scheme: when the optical layer reports a fiber *degradation*, the
//! controller (1) predicts the cut probability with an NN over the
//! degradation's features, (2) *reactively* establishes new tunnels for
//! the flows whose tunnels cross the degraded fiber (Algorithm 1), and
//! (3) *proactively* re-optimizes traffic allocation over the enlarged
//! tunnel set with the calibrated, degradation-conditioned failure
//! probabilities (Eqn 1), solving the Flexile-style MIP (2)–(8) with
//! Benders decomposition (Algorithm 2).
//!
//! Crate layout:
//!
//! * [`capacity`] — logical IP trunk groups (parallel wavelength links
//!   share fate and capacity);
//! * [`scenario`] — degradation states and probabilistic failure
//!   scenarios `q ∈ Q_s` with the product-form probabilities of §4.3;
//! * [`estimator`] — the Eqn 1 probability calibration, from static
//!   TeaVaR-style `p_i` to NN-conditioned dynamic probabilities and
//!   the oracle;
//! * [`algorithm1`] — reactive tunnel establishment for degraded
//!   fibers;
//! * [`optimizer`] — the TE optimization (2)–(8): an exact
//!   `l`-variable-eliminated reformulation solved by scenario-selection
//!   heuristic, Benders decomposition, or exact branch-and-bound;
//! * [`schemes`] — ECMP, FFC-1/2, TeaVaR, ARROW, Flexile, PreTE,
//!   PreTE-naive and the oracle, behind one [`schemes::TeScheme`]
//!   trait;
//! * [`eval`] — the availability evaluator behind Figures 13/15/16/17
//!   and Table 4, including reaction-time outage accounting;
//! * [`gain`] — demand-scale bisection for "satisfied demand at
//!   availability level" (Table 4).
//!
//! ## Quick start
//!
//! ```
//! use prete_core::prelude::*;
//!
//! // The Figure 2(a) network: three sites, three 10-unit links.
//! let net = prete_core::examples::triangle();
//! let flows = prete_core::examples::triangle_flows();
//! let tunnels = TunnelSet::initialize(&net, &flows, 2);
//! let probs = vec![0.005, 0.009, 0.001]; // per-fiber failure probability
//! let scenarios = ScenarioSet::enumerate(&probs, 2, 1e-9);
//! let problem = TeProblem::new(&net, &flows, &tunnels, &scenarios);
//! let sol = TeSolver::new(&problem)
//!     .beta(0.99)
//!     .method(SolveMethod::BranchAndBound)
//!     .solve()
//!     .expect("a small instance solves within the node limit");
//! // TeaVaR's conservative optimum admits 10 units (Figure 2(b)).
//! assert!(sol.max_loss < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm1;
pub mod capacity;
pub mod estimator;
pub mod eval;
pub mod examples;
pub mod gain;
pub mod optimizer;
pub mod scenario;
pub mod schemes;

/// Convenient re-exports of the commonly used types across the
/// workspace (topology, optics, solver, schemes).
pub mod prelude {
    pub use crate::algorithm1::{update_tunnels, TunnelUpdateConfig};
    pub use crate::capacity::CapacityGroups;
    pub use crate::estimator::{ProbabilityEstimator, TrueConditionals};
    pub use crate::eval::{AvailabilityEvaluator, AvailabilityReport, EvalConfig};
    pub use crate::gain::max_supported_scale;
    pub use crate::optimizer::{
        SolveMethod, SolverStats, TeProblem, TeSolution, TeSolveError, TeSolver,
    };
    pub use crate::scenario::{
        DegradationState, EnumerationStats, FailureScenario, ScenarioBudget, ScenarioSet,
    };
    pub use crate::schemes::{
        ArrowScheme, EcmpScheme, FfcScheme, FlexileScheme, PreTeScheme, TeScheme, TeaVarScheme,
    };
    pub use prete_lp::{BasisCache, ColdStart, SolutionQuality};
    pub use prete_obs::{Recorder, RunReport};
    pub use prete_optical::{Dataset, DatasetConfig, FailureModel};
    pub use prete_topology::{
        topologies, Flow, FlowId, GenFamily, GenSpec, Network, TrafficMatrix, TunnelSet,
    };
}
