//! Testbed and controller simulation (§5, §7, Appendix A.7).
//!
//! The paper's testbed is three routers, a variable optical attenuator
//! and ~100 km of fiber; its evaluation measures *controller pipeline
//! latencies* (Figure 11) and replays a production incident (§7,
//! Figure 18). Hardware is substituted with a discrete-event
//! simulation that models each pipeline stage with the latency
//! structure the paper reports:
//!
//! * [`latency`] — the stage latency model: optical-data analysis, NN
//!   inference (ms), failure-scenario regeneration (~10 ms), TE
//!   computation, and *serialized* tunnel establishment (hundreds of
//!   ms per tunnel — the linear relationship of Figure 11(b));
//! * [`controller`] — the event-driven PreTE controller (§4, Figure 8):
//!   one epoch is one plain function, telemetry in, degradation
//!   detection, prediction, Algorithm 1, scenario regeneration, TE
//!   recompute; it replays the Figure 4(b) healthy→degraded→cut trace
//!   end to end and reports whether the new tunnels were ready before
//!   the cut;
//! * [`production`] — the §7 four-site case: traditional
//!   reactive backup switching (insufficient spare bandwidth on the
//!   shared backup path → sustained loss until the next TE period)
//!   versus PreTE's degradation-triggered backup via s4 (loss limited
//!   to the switchover);
//! * [`uncertainty`] — the Appendix A.7 / Figure 17 experiments:
//!   traffic variation under workload vs capacity uncertainty, and the
//!   availability effect of predicting demands (TeaVaR*/PreTE*) vs
//!   predicting failures (PreTE).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod latency;
pub mod production;
pub mod uncertainty;

pub use controller::{Controller, ControllerEvent, ControllerReport};
pub use latency::{LatencyModel, PipelineTiming};
pub use production::{replay_production_case, ProductionOutcome};
pub use uncertainty::{uncertainty_experiment, UncertaintyReport};

/// Convenient re-exports for driving the simulated controller: the
/// controller types themselves plus the solver-facing API they are
/// configured with (mirrors `prete_core::prelude`).
pub mod prelude {
    pub use crate::controller::{Controller, ControllerEvent, ControllerReport};
    pub use crate::latency::{LatencyModel, PipelineTiming};
    pub use prete_core::prelude::{
        BasisCache, Recorder, RunReport, SolveBudget, SolveMethod, SolverStats, TeProblem,
        TeSolution, TeSolveError, TeSolver,
    };
}
