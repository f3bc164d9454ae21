//! Equilibrium solvers: the exhaustive reference solver, the multi-restart
//! [`local_search`] backend for huge games, the structure-of-arrays
//! [`kernel`] layer their hot paths run on, the unified, parallel [`engine`]
//! that orchestrates every pure-NE algorithm in the crate, and the
//! differential-testing [`oracle`] every backend is certified against.

pub mod cache;
pub mod engine;
pub mod exhaustive;
pub mod kernel;
pub mod local_search;
pub mod oracle;

pub use cache::{CacheStats, SolveCache};
pub use engine::{
    Applicability, Attempt, EngineRun, EngineSolution, Opened, RepairOutcome, RepairTelemetry,
    SolveTelemetry, Solver, SolverAttempt, SolverConfig, SolverDetail, SolverEngine, SolverKind,
};
pub use kernel::{KernelRun, KernelScratch, SoAGame, SoAView};
pub use local_search::LocalSearch;
