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
//! * [`controller`] — the event-driven PreTE controller: telemetry in,
//!   degradation detection, prediction, Algorithm 1, TE recompute;
//!   replays the Figure 4(b) healthy→degraded→cut trace end to end and
//!   reports whether the new tunnels were ready before the cut;
//! * [`production`] — the §7 four-site case: traditional
//!   reactive backup switching (insufficient spare bandwidth on the
//!   shared backup path → sustained loss until the next TE period)
//!   versus PreTE's degradation-triggered backup via s4 (loss limited
//!   to the switchover);
//! * [`uncertainty`] — the Appendix A.7 / Figure 17 experiments:
//!   traffic variation under workload vs capacity uncertainty, and the
//!   availability effect of predicting demands (TeaVaR*/PreTE*) vs
//!   predicting failures (PreTE);
//! * [`faults`] — deterministic, seeded fault injection: telemetry
//!   corruption, predictor faults, solver faults, tunnel RPC failures;
//! * [`robust`] — the one epoch pipeline with per-stage fallback
//!   chains and explicit degraded modes (the plain controller is its
//!   fault-free projection), and the robust controller around it;
//! * [`checkpoint`] — crash-safe controller state: versioned
//!   checkpoints plus a write-ahead epoch journal, with bit-identical
//!   recovery;
//! * [`fleet`] — the multi-tenant controller fleet: admission control
//!   and overload shedding under a shared work-unit budget, per-tenant
//!   fault isolation with recovery and quarantine, a watchdog feeding
//!   the degraded-mode ladder, and the chaos soak (seeded kill/restart
//!   schedules, per-epoch invariant checking, repro shrinking) for one
//!   tenant or many.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod controller;
pub mod faults;
pub mod fleet;
pub mod latency;
pub mod production;
pub mod robust;
pub mod uncertainty;

pub use checkpoint::{
    CheckpointError, ControllerCheckpoint, DurableConfig, DurableController, EpochOutcome,
    EpochRecord, EpochWorkload, FileStore, MemStore, Recovery, ScriptedWorkload, Store,
    StoreError, CHECKPOINT_VERSION,
};
pub use controller::{Controller, ControllerEvent, ControllerReport};
pub use faults::{
    FaultInjector, FaultPersistence, FaultPlan, PredictorFaultKind, PredictorFaults,
    SolverFaultKind, SolverFaults, TelemetryFaults, TunnelFaults, TunnelOutcome,
};
pub use fleet::{
    fleet_chaos_soak, Fleet, FleetChaosEvent, FleetChaosPlan, FleetConfig, FleetReport,
    FleetShrunkRepro, FleetSoakReport, FleetViolation, RoundOutcome, ShedCounts, ShedDecision,
    ShedRecord, TenantSpec, TenantSummary, WatchdogTrip,
};
pub use latency::{LatencyModel, PipelineTiming};
pub use production::{replay_production_case, ProductionOutcome};
pub use robust::{
    budget_from_latency, sanitize_trace, DegradedMode, FallbackOutcome, FallbackRecord,
    FaultStage, RetryPolicy, RobustController, RobustReport,
};
pub use uncertainty::{uncertainty_experiment, UncertaintyReport};

/// Convenient re-exports for driving the simulated controllers: the
/// controller types themselves plus the solver-facing API they are
/// configured with (mirrors `prete_core::prelude`).
pub mod prelude {
    pub use crate::checkpoint::{
        DurableConfig, DurableController, EpochWorkload, MemStore, ScriptedWorkload, Store,
    };
    pub use crate::controller::{Controller, ControllerEvent, ControllerReport};
    pub use crate::faults::FaultPlan;
    pub use crate::fleet::{
        fleet_chaos_soak, Fleet, FleetChaosPlan, FleetConfig, FleetReport, ShedDecision,
        TenantSpec,
    };
    pub use crate::latency::{LatencyModel, PipelineTiming};
    pub use crate::robust::{
        budget_from_latency, DegradedMode, RetryPolicy, RobustController, RobustReport,
    };
    pub use prete_core::prelude::{
        BasisCache, ProblemConfig, Recorder, RunReport, SolveBudget, SolveMethod,
        SolverStats, TeProblem, TeSolution, TeSolveError, TeSolver,
    };
}
