//! # netuncert-core
//!
//! A from-scratch implementation of the model and results of
//! *Network Uncertainty in Selfish Routing* (Georgiou, Pavlides, Philippou,
//! IPPS/IPDPS 2006).
//!
//! `n` selfish users route unsplittable traffic onto `m` parallel links whose
//! capacities are uncertain: each user holds a private probability
//! distribution (a *belief*) over the possible capacity vectors (*states*),
//! and evaluates the latency of a link in expectation over its own belief.
//! The result is a weighted congestion game with user-specific payoff
//! functions that subsumes the classical KP-model (point-mass beliefs).
//!
//! ## Crate layout
//!
//! * [`model`] — states, beliefs, the full game `G = (n, m, w, B)` and its
//!   reduction to the *effective game* `(w, cᵢˡ)`.
//! * [`strategy`] — pure and mixed strategy profiles, initial link traffic.
//! * [`latency`] — expected latency costs for pure and mixed profiles.
//! * [`equilibrium`] — Nash conditions, best responses, deviations.
//! * [`algorithms`] — the paper's polynomial-time pure-NE algorithms
//!   (`Atwolinks`, `Asymmetric`, `Auniform`) plus best-response dynamics and a
//!   dispatcher.
//! * [`fully_mixed`] — the closed-form fully mixed Nash equilibrium
//!   (Theorem 4.6) and its existence test.
//! * [`social_cost`] — social costs SC1/SC2, exact optima, coordination
//!   ratios, and the bounds of Theorems 4.13/4.14.
//! * [`solvers`] — exhaustive reference solvers for small games, plus the
//!   unified [`SolverEngine`](solvers::engine::SolverEngine).
//! * [`opt`] — the certified social-optimum bracketing engine
//!   ([`OptEngine`](opt::OptEngine)): exact, upper-bound and lower-bound
//!   backends merged into `OPT1`/`OPT2` brackets for games beyond the
//!   exhaustive wall.
//! * [`method_list`] — [`MethodList`](method_list::MethodList), the one
//!   validated, ordered list of solver, estimator or belief-model kinds
//!   that every CLI flag, shard stamp and served policy leaf resolves
//!   registry ids through.
//! * [`game_graph`] — explicit defection graphs, equilibrium sinks and cycle
//!   detection (used by the `n = 3` and potential-game analyses).
//! * [`potential`] — exact/ordinal potential analysis (Section 3.2).
//!
//! ## Quick example
//!
//! ```
//! use netuncert_core::prelude::*;
//!
//! // Two links whose capacities depend on an uncertain network state.
//! let states = StateSpace::from_rows(vec![
//!     vec![4.0, 1.0], // state 0: link 0 fast
//!     vec![1.0, 4.0], // state 1: link 1 fast
//! ])?;
//! // Two users with opposite beliefs about which state is likely.
//! let beliefs = BeliefProfile::new(vec![
//!     Belief::new(vec![0.9, 0.1])?,
//!     Belief::new(vec![0.1, 0.9])?,
//! ])?;
//! let game = Game::new(vec![1.0, 2.0], states, beliefs)?;
//! let eg = game.effective_game();
//!
//! // A pure Nash equilibrium via the two-links algorithm (Figure 1).
//! let ne = algorithms::two_links::solve(&eg, &LinkLoads::zero(2))?;
//! assert!(is_pure_nash(&eg, &ne, &LinkLoads::zero(2), Tolerance::default()));
//!
//! // The fully mixed Nash equilibrium, when it exists (Theorem 4.6).
//! if let Some(fmne) = fully_mixed_nash(&eg, Tolerance::default()) {
//!     assert!(is_mixed_nash(&eg, &fmne, Tolerance::default()));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## The solver engine
//!
//! All pure-NE solving funnels through one composition layer in
//! [`solvers::engine`]. Each algorithm implements the
//! [`Solver`](solvers::engine::Solver) trait — it classifies its own
//! [`Applicability`](solvers::engine::Applicability) to an instance
//! (conclusive special case, fallible heuristic, or not applicable) and
//! solves under shared [`SolverConfig`](solvers::engine::SolverConfig)
//! budgets (best-response step limit, exhaustive profile cap, tolerance).
//! A [`SolverEngine`](solvers::engine::SolverEngine) walks an ordered solver
//! list, records per-attempt telemetry (method, iterations, wall time), and
//! stops at the first solution or the first conclusive "no equilibrium
//! within budget".
//!
//! Batch workloads use
//! [`SolverEngine::solve_batch`](solvers::engine::SolverEngine::solve_batch)
//! (or `solve_sampled` for generate-and-solve Monte-Carlo sweeps), which fans
//! instances out over a deterministic `par-exec` worker pool; outputs are
//! keyed by task id, so results are bit-identical for any worker count.
//!
//! ```
//! use netuncert_core::prelude::*;
//!
//! let games: Vec<EffectiveGame> = (0..32)
//!     .map(|i| {
//!         EffectiveGame::from_rows(
//!             vec![1.0 + i as f64, 2.0, 1.5],
//!             vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![1.0, 1.0]],
//!         )
//!     })
//!     .collect::<Result<_>>()?;
//! let engine = SolverEngine::default();
//! for result in engine.solve_batch(&games) {
//!     let solved = result?;
//!     assert_eq!(solved.method(), Some(PureNashMethod::TwoLinks));
//! }
//! # Ok::<(), GameError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod cache;
pub mod equilibrium;
pub mod error;
pub mod fully_mixed;
pub mod game_graph;
pub mod latency;
pub mod method_list;
pub mod model;
pub mod numeric;
pub mod obs;
pub mod opt;
pub mod potential;
pub mod social_cost;
pub mod solvers;
pub mod strategy;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::algorithms::{self, PureNashMethod, PureNashSolution};
    pub use crate::cache::{CacheKey, InstanceKey};
    pub use crate::equilibrium::{
        best_response, is_fully_mixed_nash, is_mixed_nash, is_pure_nash, Deviation,
    };
    pub use crate::error::{GameError, Result};
    pub use crate::fully_mixed::{
        fully_mixed_candidate, fully_mixed_latency, fully_mixed_nash, FullyMixedCandidate,
    };
    pub use crate::game_graph::{EdgeKind, GameGraph};
    pub use crate::latency::{
        mixed_link_latency, mixed_min_latency, pure_user_latency, pure_user_latency_on_link,
    };
    pub use crate::method_list::{MethodKind, MethodList, MethodListError};
    pub use crate::model::{
        Belief, BeliefProfile, CapacityState, EditUndo, EffectiveCapacities, EffectiveGame, Game,
        GameEdit, StateSpace,
    };
    pub use crate::numeric::Tolerance;
    pub use crate::obs::{
        Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Recorder, Registry, Span,
    };
    pub use crate::opt::{
        OptBackendKind, OptBracket, OptCache, OptCheckpoint, OptConfig, OptEngine, OptEstimator,
        OptMethod, OptOpened, OptOutcome, OptRun, OptWalk,
    };
    pub use crate::social_cost::{
        checked_ratio, cr_bound_general, cr_bound_uniform_beliefs, measure, measure_against,
        measure_bracketed, pure_equilibrium_spectrum, pure_poa_and_pos, ratio_bracket, sc1, sc2,
        BracketedCostReport, CostReport, EquilibriumSpectrum, RatioBracket,
    };
    pub use crate::solvers::cache::{CacheStats, SolveCache};
    pub use crate::solvers::engine::{
        Applicability, EngineRun, EngineSolution, Opened, RepairOutcome, RepairTelemetry,
        SolveTelemetry, Solver, SolverAttempt, SolverConfig, SolverEngine, SolverKind,
    };
    pub use crate::solvers::exhaustive::{all_pure_nash, social_optimum, SocialOptimum};
    pub use crate::solvers::kernel::{KernelRun, KernelScratch, SoAGame, SoAView};
    pub use crate::solvers::local_search::LocalSearch;
    pub use crate::strategy::{LinkLoads, MixedProfile, PureProfile};
}
