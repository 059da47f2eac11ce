//! Linear and mixed-integer programming substrate for PreTE.
//!
//! The paper solves its TE formulations with Gurobi (§6); no mature
//! pure-Rust LP stack exists for this pipeline (the repro notes call
//! this out explicitly), so this crate implements the required solver
//! machinery from scratch:
//!
//! * [`model::LinearProgram`] — a small modelling API (variables with
//!   bounds, sparse linear constraints, minimization objective);
//! * [`simplex`] — the solver front end over one engine, the sparse
//!   revised simplex (presolve + CSC columns + LU-factorized basis with
//!   product-form eta updates, partial Dantzig pricing with a
//!   Bland's-rule fallback, native variable bounds, and a cold start
//!   chosen by [`simplex::ColdStart`]) for the large, extremely sparse
//!   TE programs, with dual extraction (the duals drive the Benders
//!   optimality cuts of Appendix A.4/A.5) and one rule for numerical
//!   trouble: a small dual pivot element earns one refactorization,
//!   and anything the factors still cannot carry ends in a typed
//!   [`SolveStatus::NumericalFailure`];
//! * [`solve_oracle`] — the two-phase dense-tableau primal simplex,
//!   cold and serial, kept only as the reference the tests hold the
//!   engine to;
//! * [`mip`] — branch-and-bound over binary/integer variables on top of
//!   the simplex relaxation, each branch a variable bound rather than
//!   a row, every node after the root relaxed on one live core warm
//!   from the root's basis ([`mip::NodeCore`]), used for the Benders
//!   master problem and as
//!   an exact (small-instance) reference solver for the full MIP
//!   (2)–(8);
//! * [`warm`] — a [`warm::BasisCache`] for reusing optimal bases across
//!   solves; together with [`simplex::WarmSimplex`] it gives rhs-only
//!   dual-simplex re-solves inside a Benders loop and basis-restored
//!   solves across controller epochs.
//!
//! Problem sizes in this workspace are a few hundred to a few thousand
//! rows/columns. The dense tableau stays deliberately simple — easy to
//! verify — per the project's smoltcp-inspired "simplicity and
//! robustness over cleverness" rule; the sparse engine is held to it by
//! a differential test suite (`tests/solver_differential.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod factor;
pub mod mip;
pub mod model;
mod oracle;
mod presolve;
pub mod simplex;
mod sparse;
pub mod warm;

pub use mip::{solve_mip, MipOptions, MipResult, MipStatus};
pub use model::{Constraint, ConstraintId, LinearProgram, Sense, VarId};
pub use oracle::solve_oracle;
pub use simplex::{
    solve, solve_with, Basis, ColdStart, EngineStats, EtaUpdate, Pricing, SimplexOptions, Solution,
    SolutionQuality, SolveStatus, SolverBackend, WarmSimplex,
};
pub use warm::BasisCache;
