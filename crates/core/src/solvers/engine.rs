//! The unified solver engine: one instance per solve.
//!
//! Each pure-Nash algorithm is a [`Solver`] that reports its own
//! [`Applicability`] to an instance, and a [`SolverEngine`] walks an ordered
//! solver list under shared [`SolverConfig`] budgets, recording
//! [`SolveTelemetry`] (method tried, iterations, wall time) for every
//! attempt.
//!
//! The walk exists once, as the pass-resumable [`EngineRun`]: skip solvers
//! that are not applicable, stop at the first solution or at a conclusive
//! no. Every entry point composes it. [`SolverEngine::solve`] steps one run
//! to completion, [`SolverEngine::repair_in_place`] steps a run seeded with
//! a warm local-search descent on a game it edits in place, and out-of-crate
//! frontends (the serve layer's deadlines and races) step runs from
//! [`SolverEngine::open`] themselves. A run is opened by a warm-tier lookup
//! and writes the warm tier only when it finishes.
//!
//! The engine owns no threads. Callers that solve many instances fan
//! [`SolverEngine::solve`] out themselves (the experiment harness maps it
//! over `par_exec::parallel_map`); the engine is `Sync` and every solver is
//! deterministic, so results do not depend on how callers schedule solves.
//! Wall-clock telemetry is, of course, not deterministic — determinism
//! claims apply to the returned solutions.

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::algorithms::best_response::{BestResponseDynamics, SelectionRule};
use crate::algorithms::{symmetric, two_links, uniform, PureNashMethod, PureNashSolution};
use crate::cache::{CacheKey, InstanceKey};
use crate::error::Result;
use crate::model::{EffectiveGame, GameEdit};
use crate::numeric::Tolerance;
use crate::obs::{elapsed_ns, Counter, Histogram, Recorder};
use crate::solvers::cache::{self, CacheStats, SolveCache};
use crate::solvers::exhaustive;
use crate::solvers::kernel::{
    repair_seed, run_to_completion, BestResponseRun, BrStart, KernelRun, KernelScratch,
    LocalSearchRun, SoAView,
};
use crate::solvers::local_search::{self, LocalSearch};
use crate::strategy::{LinkLoads, PureProfile};

/// How a [`Solver`] relates to a particular instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Applicability {
    /// Preconditions hold and the solver's answer is conclusive: the paper's
    /// special-case algorithms always return an equilibrium, and exhaustive
    /// enumeration within budget decides existence either way.
    Conclusive,
    /// The solver can be attempted but may fail within its budget without
    /// settling anything (best-response dynamics hitting the step limit).
    Heuristic,
    /// Preconditions do not hold; the engine skips the solver.
    NotApplicable,
}

/// Shared per-solve budgets and numeric tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Comparison tolerance threaded through every equilibrium predicate.
    pub tol: Tolerance,
    /// Step budget for best-response dynamics.
    pub max_steps: usize,
    /// Defector-selection rule for best-response dynamics.
    pub rule: SelectionRule,
    /// Cap on `mⁿ` for exhaustive enumeration.
    pub profile_limit: u128,
    /// Restart budget for [`LocalSearch`] (smart starts + perturbations).
    pub restarts: usize,
    /// Seed of the deterministic annealed tie-breaking stream used by
    /// [`LocalSearch`]; part of the instance-independent budgets, so it is
    /// embedded in cache keys like every other knob.
    pub ls_seed: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            tol: Tolerance::default(),
            max_steps: BestResponseDynamics::default().max_steps,
            rule: SelectionRule::RoundRobin,
            profile_limit: exhaustive::DEFAULT_PROFILE_LIMIT,
            restarts: local_search::DEFAULT_RESTARTS,
            ls_seed: local_search::DEFAULT_LS_SEED,
        }
    }
}

impl SolverConfig {
    /// A configuration with the given tolerance and default budgets.
    pub fn with_tol(tol: Tolerance) -> Self {
        SolverConfig {
            tol,
            ..SolverConfig::default()
        }
    }
}

/// The result of one solver attempt: a solution (if any) plus the iteration
/// count for iterative methods.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverDetail {
    /// The equilibrium found, if any.
    pub solution: Option<PureNashSolution>,
    /// Iterations performed (best-response moves, profiles enumerated); `None`
    /// for closed-form constructions.
    pub iterations: Option<u64>,
    /// Restarts consumed, for multi-restart methods; `None` otherwise.
    pub restarts: Option<u64>,
}

/// What a [`Solver::attempt`] hands the engine: a finished answer, or a
/// pass-resumable kernel run the engine steps to one.
pub enum Attempt<'a> {
    /// The attempt is already finished — closed forms and exhaustive
    /// enumeration, whose work is not pass-shaped.
    Done(SolverDetail),
    /// A kernel run over the game's rows, stepped pass by pass.
    Run(Box<dyn KernelRun + 'a>),
}

impl Attempt<'_> {
    /// The finished detail: a `Done` attempt as is, a `Run` stepped to
    /// completion with `scratch` by [`run_to_completion`].
    pub fn run_to_completion(self, scratch: &mut KernelScratch) -> SolverDetail {
        match self {
            Attempt::Done(detail) => detail,
            Attempt::Run(mut run) => run_to_completion(run.as_mut(), scratch),
        }
    }
}

/// One pure-Nash algorithm viewed as an engine component.
///
/// A solver has one entry, [`attempt`](Solver::attempt): a closed form
/// answers at once, a kernel-backed heuristic returns its run and the
/// engine's [`EngineRun`] steps it (one pass per step, so deadlines and
/// races can interleave). Implementations must be stateless (or internally
/// synchronised): one engine may serve [`SolverEngine::solve`] calls from
/// many threads at once.
pub trait Solver: Send + Sync {
    /// The method tag this solver reports in solutions and telemetry.
    fn method(&self) -> PureNashMethod;

    /// Whether this solver applies to `game` from `initial` under `config`.
    fn applicability(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        config: &SolverConfig,
    ) -> Applicability;

    /// Starts the solver on `game` from `initial`.
    ///
    /// Only called when [`applicability`](Solver::applicability) did not
    /// return [`Applicability::NotApplicable`].
    fn attempt<'a>(
        &self,
        game: &'a EffectiveGame,
        initial: &'a LinkLoads,
        config: &SolverConfig,
    ) -> Result<Attempt<'a>>;
}

/// A finished attempt carrying a closed-form profile.
fn closed_form(profile: PureProfile, method: PureNashMethod) -> Result<Attempt<'static>> {
    Ok(Attempt::Done(SolverDetail {
        solution: Some(PureNashSolution { profile, method }),
        iterations: None,
        restarts: None,
    }))
}

fn is_zero_initial(initial: &LinkLoads) -> bool {
    initial.as_slice().iter().all(|&t| t == 0.0)
}

/// `Atwolinks` (Figure 1): any weights, exactly two links.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoLinks;

impl Solver for TwoLinks {
    fn method(&self) -> PureNashMethod {
        PureNashMethod::TwoLinks
    }

    fn applicability(
        &self,
        game: &EffectiveGame,
        _initial: &LinkLoads,
        _config: &SolverConfig,
    ) -> Applicability {
        if game.links() == 2 {
            Applicability::Conclusive
        } else {
            Applicability::NotApplicable
        }
    }

    fn attempt<'a>(
        &self,
        game: &'a EffectiveGame,
        initial: &'a LinkLoads,
        _config: &SolverConfig,
    ) -> Result<Attempt<'a>> {
        closed_form(two_links::solve(game, initial)?, self.method())
    }
}

/// `Asymmetric` (Figure 2): identical weights, any number of links, zero
/// initial traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Symmetric;

impl Solver for Symmetric {
    fn method(&self) -> PureNashMethod {
        PureNashMethod::Symmetric
    }

    fn applicability(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        config: &SolverConfig,
    ) -> Applicability {
        if is_zero_initial(initial) && game.has_identical_weights(config.tol) {
            Applicability::Conclusive
        } else {
            Applicability::NotApplicable
        }
    }

    fn attempt<'a>(
        &self,
        game: &'a EffectiveGame,
        _initial: &'a LinkLoads,
        config: &SolverConfig,
    ) -> Result<Attempt<'a>> {
        closed_form(symmetric::solve(game, config.tol)?, self.method())
    }
}

/// `Auniform` (Figure 3): uniform per-user beliefs.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformBeliefs;

impl Solver for UniformBeliefs {
    fn method(&self) -> PureNashMethod {
        PureNashMethod::UniformBeliefs
    }

    fn applicability(
        &self,
        game: &EffectiveGame,
        _initial: &LinkLoads,
        config: &SolverConfig,
    ) -> Applicability {
        if game.has_uniform_beliefs(config.tol) {
            Applicability::Conclusive
        } else {
            Applicability::NotApplicable
        }
    }

    fn attempt<'a>(
        &self,
        game: &'a EffectiveGame,
        initial: &'a LinkLoads,
        config: &SolverConfig,
    ) -> Result<Attempt<'a>> {
        closed_form(uniform::solve(game, initial, config.tol)?, self.method())
    }
}

/// Best-response dynamics from the index-order greedy start, run as the
/// kernel's [`BestResponseRun`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BestResponse;

impl Solver for BestResponse {
    fn method(&self) -> PureNashMethod {
        PureNashMethod::BestResponse
    }

    fn applicability(
        &self,
        _game: &EffectiveGame,
        _initial: &LinkLoads,
        _config: &SolverConfig,
    ) -> Applicability {
        Applicability::Heuristic
    }

    fn attempt<'a>(
        &self,
        game: &'a EffectiveGame,
        initial: &'a LinkLoads,
        config: &SolverConfig,
    ) -> Result<Attempt<'a>> {
        Ok(Attempt::Run(Box::new(BestResponseRun::new(
            game,
            initial,
            BrStart::Greedy,
            config.max_steps as u64,
            matches!(config.rule, SelectionRule::LargestGain),
            config.tol,
        ))))
    }
}

/// Exhaustive enumeration of all `mⁿ` pure profiles (conclusive within the
/// profile budget).
#[derive(Debug, Clone, Copy, Default)]
pub struct Exhaustive;

impl Solver for Exhaustive {
    fn method(&self) -> PureNashMethod {
        PureNashMethod::Exhaustive
    }

    fn applicability(
        &self,
        game: &EffectiveGame,
        _initial: &LinkLoads,
        config: &SolverConfig,
    ) -> Applicability {
        if exhaustive::profile_count(game.users(), game.links()) <= config.profile_limit {
            Applicability::Conclusive
        } else {
            Applicability::NotApplicable
        }
    }

    fn attempt<'a>(
        &self,
        game: &'a EffectiveGame,
        initial: &'a LinkLoads,
        config: &SolverConfig,
    ) -> Result<Attempt<'a>> {
        let iterations = Some(
            exhaustive::profile_count(game.users(), game.links()).min(u64::MAX as u128) as u64,
        );
        let first = exhaustive::first_pure_nash(game, initial, config.tol, config.profile_limit)?;
        let solution = first.map(|profile| PureNashSolution {
            profile,
            method: self.method(),
        });
        Ok(Attempt::Done(SolverDetail {
            solution,
            iterations,
            restarts: None,
        }))
    }
}

/// One engine attempt at running a solver, as recorded in telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverAttempt {
    /// Which solver ran.
    pub method: PureNashMethod,
    /// Its applicability classification at the time.
    pub applicability: Applicability,
    /// Iterations performed, for iterative methods.
    pub iterations: Option<u64>,
    /// Restarts consumed, for multi-restart methods.
    pub restarts: Option<u64>,
    /// Whether it produced an equilibrium.
    pub found: bool,
    /// Wall-clock nanoseconds spent inside the solver.
    pub wall_ns: u64,
}

/// The built-in solver backends, as data — the registry behind
/// [`SolverEngine::from_kinds`] and the CLI's `--solvers` flag. Each method
/// is both the tag a solver reports and the kind that builds it.
impl PureNashMethod {
    /// Every backend, in the order a "try everything" engine would use.
    /// `MethodList::all`, the CLI's `--list` and the unknown-id message
    /// print this order, so it is not the declaration order.
    pub const ALL: [PureNashMethod; 6] = [
        PureNashMethod::TwoLinks,
        PureNashMethod::Symmetric,
        PureNashMethod::UniformBeliefs,
        PureNashMethod::LocalSearch,
        PureNashMethod::BestResponse,
        PureNashMethod::Exhaustive,
    ];

    /// The paper's dispatch order ([`SolverEngine::paper_order`]).
    pub const PAPER_ORDER: [PureNashMethod; 5] = [
        PureNashMethod::TwoLinks,
        PureNashMethod::Symmetric,
        PureNashMethod::UniformBeliefs,
        PureNashMethod::BestResponse,
        PureNashMethod::Exhaustive,
    ];

    /// Parses a CLI/registry id produced by [`PureNashMethod::id`].
    pub fn parse(s: &str) -> Option<PureNashMethod> {
        PureNashMethod::ALL.into_iter().find(|k| k.id() == s)
    }

    /// Builds the backend; the built solver reports `self` as its method.
    pub fn build(self) -> Box<dyn Solver> {
        match self {
            PureNashMethod::TwoLinks => Box::new(TwoLinks),
            PureNashMethod::Symmetric => Box::new(Symmetric),
            PureNashMethod::UniformBeliefs => Box::new(UniformBeliefs),
            PureNashMethod::BestResponse => Box::new(BestResponse),
            PureNashMethod::LocalSearch => Box::new(LocalSearch),
            PureNashMethod::Exhaustive => Box::new(Exhaustive),
        }
    }
}

/// Telemetry for one [`SolverEngine::solve`] call.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SolveTelemetry {
    /// Every solver attempt, in engine order (skipped solvers are omitted).
    pub attempts: Vec<SolverAttempt>,
    /// Total wall-clock nanoseconds including engine overhead.
    pub total_wall_ns: u64,
}

impl SolveTelemetry {
    /// The attempt that produced the solution, if any.
    pub fn winning_attempt(&self) -> Option<&SolverAttempt> {
        self.attempts.iter().find(|a| a.found)
    }

    /// Iterations performed by the winning attempt (`None` for closed forms
    /// or when nothing was found).
    pub fn winning_iterations(&self) -> Option<u64> {
        self.winning_attempt().and_then(|a| a.iterations)
    }
}

/// A solution (or conclusive/give-up absence of one) plus telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSolution {
    /// The equilibrium found, if any.
    pub solution: Option<PureNashSolution>,
    /// How the engine got there.
    pub telemetry: SolveTelemetry,
}

impl EngineSolution {
    /// The method that produced the solution, if one was found.
    pub fn method(&self) -> Option<PureNashMethod> {
        self.solution.as_ref().map(|s| s.method)
    }
}

/// Per-repair telemetry: how the warm path of [`SolverEngine::repair`]
/// behaved. Deliberately wall-clock-free, so services can ship it over the
/// wire without breaking replay exactness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairTelemetry {
    /// Improving moves the warm run performed.
    pub moves: u64,
    /// Kernel passes stepped before the warm run settled.
    pub passes: u64,
    /// Restarts the warm run consumed (`1` means the seeded restart alone
    /// sufficed — the expected case for a small edit).
    pub restarts: u64,
    /// Whether the warm run exhausted its budget uncertified and the engine
    /// fell back to a cold [`SolverEngine::solve`].
    pub fallback_cold: bool,
}

/// The result of [`SolverEngine::repair`]: the post-edit game, a solution
/// certified on it, and how the repair path got there.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The edited game the solution is certified against (the edited game
    /// also when nothing certified).
    pub game: EffectiveGame,
    /// The certified solution (warm or cold-fallback) plus engine telemetry.
    pub solution: EngineSolution,
    /// The warm path's own telemetry.
    pub repair: RepairTelemetry,
}

/// An ordered list of [`Solver`]s run under shared budgets.
pub struct SolverEngine {
    solvers: Vec<Box<dyn Solver>>,
    config: SolverConfig,
    /// Opt-in memoisation layer ([`SolverEngine::with_cache`]); `None` keeps
    /// the engine's historical uncached behaviour.
    cache: Option<Arc<SolveCache>>,
    /// Observability probes ([`SolverEngine::with_recorder`]); the default
    /// disabled recorder costs one predicted branch per probe site.
    recorder: Recorder,
    probes: Option<EngineProbes>,
}

/// Pre-resolved histogram handles so the solve hot loops never take the
/// registry name-lookup lock. Present only when a live recorder is attached.
struct EngineProbes {
    /// `cache.solve.key_ns` — canonical-key construction time.
    key_ns: Arc<Histogram>,
    /// `cache.solve.fill_ns` — cold-solve latency behind a cache miss.
    fill_ns: Arc<Histogram>,
    /// `engine.attempt_ns` — per-solver attempt wall time.
    attempt_ns: Arc<Histogram>,
    /// `kernel.pass_ns` — one interleaved `KernelRun::step` pass.
    pass_ns: Arc<Histogram>,
    /// `engine.repair_ns` — end-to-end [`SolverEngine::repair`] latency,
    /// including a cold fallback when the warm run stalls.
    repair_ns: Arc<Histogram>,
    /// `repair.moves` — improving moves the warm run performed per repair.
    repair_moves: Arc<Histogram>,
    /// `repair.fallback_cold` — repairs whose warm run stalled into a cold
    /// solve.
    repair_fallback: Arc<Counter>,
}

impl EngineProbes {
    fn resolve(recorder: &Recorder) -> Option<Self> {
        Some(EngineProbes {
            key_ns: recorder.histogram("cache.solve.key_ns")?,
            fill_ns: recorder.histogram("cache.solve.fill_ns")?,
            attempt_ns: recorder.histogram("engine.attempt_ns")?,
            pass_ns: recorder.histogram("kernel.pass_ns")?,
            repair_ns: recorder.histogram("engine.repair_ns")?,
            repair_moves: recorder.histogram("repair.moves")?,
            repair_fallback: recorder.counter("repair.fallback_cold")?,
        })
    }
}

impl Default for SolverEngine {
    fn default() -> Self {
        SolverEngine::paper_order(SolverConfig::default())
    }
}

impl SolverEngine {
    /// The dispatch order used throughout the paper's evaluation: the three
    /// polynomial special cases, then best-response dynamics, then
    /// exhaustive enumeration.
    pub fn paper_order(config: SolverConfig) -> Self {
        SolverEngine::from_kinds(config, &PureNashMethod::PAPER_ORDER)
    }

    /// An engine over the given [`PureNashMethod`]s, tried in order — the
    /// data-driven form of [`with_solvers`](SolverEngine::with_solvers) used
    /// by the experiment harness's `--solvers` selection.
    pub fn from_kinds(config: SolverConfig, kinds: &[PureNashMethod]) -> Self {
        SolverEngine::with_solvers(config, kinds.iter().map(|k| k.build()).collect())
    }

    /// An engine with an explicit solver list.
    pub fn with_solvers(config: SolverConfig, solvers: Vec<Box<dyn Solver>>) -> Self {
        SolverEngine {
            solvers,
            config,
            cache: None,
            recorder: Recorder::disabled(),
            probes: None,
        }
    }

    /// Attaches an observability [`Recorder`]. A live recorder mirrors the
    /// engine's existing wall-time telemetry into latency histograms
    /// (`cache.solve.key_ns`, `cache.solve.fill_ns`, `engine.attempt_ns`,
    /// `kernel.pass_ns`); the default [`Recorder::disabled`] keeps every
    /// probe a single predicted branch, so hot loops cost nothing extra.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.probes = EngineProbes::resolve(&recorder);
        self.recorder = recorder;
        self
    }

    /// Attaches a content-addressed [`SolveCache`] in front of
    /// [`solve`](SolverEngine::solve).
    ///
    /// Cache keys embed the engine's method list, its budgets and the full
    /// bit pattern of each instance, so hits return exactly what the cold
    /// solve returned — results never change, identical instances just stop
    /// being re-solved. One cache may be shared across engines and threads.
    ///
    /// Caveat: two engines whose solver lists report the same
    /// [`PureNashMethod`] sequence are assumed to behave identically; custom
    /// [`Solver`] impls that reuse a built-in method tag with different
    /// semantics must not share a cache with the built-ins.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<SolveCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Hit/miss counters of the attached cache, if any.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// The shared budgets.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// The methods in engine order (handy for asserting selection order).
    pub fn methods(&self) -> Vec<PureNashMethod> {
        self.solvers.iter().map(|s| s.method()).collect()
    }

    /// The method the engine would try first on `game` (the first applicable
    /// solver), without running anything.
    pub fn selected_method(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
    ) -> Option<PureNashMethod> {
        self.solvers
            .iter()
            .find(|s| s.applicability(game, initial, &self.config) != Applicability::NotApplicable)
            .map(|s| s.method())
    }

    /// Finds a pure Nash equilibrium of `game` with initial traffic `initial`.
    ///
    /// Walks the solver list in order, skipping non-applicable solvers. Stops
    /// at the first solution, or at the first [`Applicability::Conclusive`]
    /// solver that reports none (its answer settles non-existence within
    /// budget). Returns `Ok` with an empty solution when every solver was
    /// inconclusive — which, under Conjecture 3.7, means the budgets were too
    /// small, not that no equilibrium exists.
    ///
    /// With a cache attached ([`with_cache`](SolverEngine::with_cache)),
    /// repeated solves of a bit-identical instance return the stored
    /// solution-plus-telemetry instead of re-running the solvers.
    pub fn solve(&self, game: &EffectiveGame, initial: &LinkLoads) -> Result<EngineSolution> {
        match self.open(game, initial, None) {
            Opened::Hit(hit) => Ok(hit),
            Opened::Run(mut run) => {
                let mut scratch = KernelScratch::new();
                while !run.step(&mut scratch) {}
                run.finish()
            }
        }
    }

    /// Opens a solve of `game` from `initial`: a counting warm-tier lookup
    /// when a cache is attached, else (or on a miss) an [`EngineRun`] to
    /// step. `instance` is the digest of `(game, initial)` when the caller
    /// already has it; a digest that does not match the instance can only
    /// cost misses, never change an answer. The run reads the game's own
    /// kernel rows, which the game derives once, only when a kernel-backed
    /// solver becomes active; several runs over the same game share them.
    pub fn open<'a>(
        &'a self,
        game: &'a EffectiveGame,
        initial: &'a LinkLoads,
        instance: Option<InstanceKey>,
    ) -> Opened<'a> {
        let key = self.cache.as_ref().map(|cache| {
            let key_start = self.recorder.now();
            let instance = instance.unwrap_or_else(|| InstanceKey::of(game, initial));
            let key = cache::cache_key(&self.methods(), &self.config, game, initial, instance);
            if let (Some(probes), Some(start)) = (&self.probes, key_start) {
                probes.key_ns.record(elapsed_ns(start));
            }
            (cache, key)
        });
        if let Some(hit) = key.as_ref().and_then(|(cache, key)| cache.lookup(key)) {
            return Opened::Hit(hit);
        }
        let key = key.map(|(_, key)| key);
        Opened::Run(Box::new(EngineRun::new(self, game, initial, key)))
    }

    /// Repairs a certified equilibrium across one [`GameEdit`] instead of
    /// re-solving the edited game from scratch: a clone of `game`, then
    /// [`repair_in_place`](SolverEngine::repair_in_place). The receiver is
    /// untouched; the outcome carries the edited game.
    pub fn repair(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        prev_certified: &PureProfile,
        edit: &GameEdit,
    ) -> Result<RepairOutcome> {
        let mut edited = game.clone();
        let (solution, repair) =
            self.repair_in_place(&mut edited, initial, prev_certified, edit)?;
        if solution.solution.is_none() {
            // The in-place path restored the pre-edit game.
            edited.edit(edit)?;
        }
        Ok(RepairOutcome {
            game: edited,
            solution,
            repair,
        })
    }

    /// Edits `game` in place and repairs a certified equilibrium across the
    /// edit — the resident-session path, which copies neither the game nor
    /// its kernel rows.
    ///
    /// `prev_certified` must be a profile of the **pre-edit** `game`. The
    /// engine applies the edit with [`EffectiveGame::edit`], carries the
    /// assignment over with [`repair_seed`], and descends from it with a
    /// warm [`LocalSearchRun`] under the engine's normal budgets, so a
    /// returned solution passed `is_pure_nash` on the edited game. If the
    /// warm run stalls uncertified, the engine falls back to a cold
    /// [`solve`](SolverEngine::solve) of the configured solver list
    /// ([`RepairTelemetry::fallback_cold`]); the stalled warm attempt stays
    /// visible in the telemetry.
    ///
    /// Failure-atomic: every validation runs before the first mutation, and
    /// an error or an uncertified outcome restores the pre-edit game,
    /// kernel rows included, bit for bit.
    pub fn repair_in_place(
        &self,
        game: &mut EffectiveGame,
        initial: &LinkLoads,
        prev_certified: &PureProfile,
        edit: &GameEdit,
    ) -> Result<(EngineSolution, RepairTelemetry)> {
        prev_certified.validate(game)?;
        let prev_loads = prev_certified.link_loads(game, initial);
        let undo = game.edit(edit)?;
        let repaired = self.warm_repair(game, initial, prev_certified, &prev_loads, edit);
        if !matches!(&repaired, Ok((solved, _)) if solved.solution.is_some()) {
            game.revert(undo);
        }
        repaired
    }

    /// The warm descent (and cold fallback) of
    /// [`repair_in_place`](SolverEngine::repair_in_place) on the already
    /// edited `game`.
    fn warm_repair(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        prev_certified: &PureProfile,
        prev_loads: &[f64],
        edit: &GameEdit,
    ) -> Result<(EngineSolution, RepairTelemetry)> {
        let start = Instant::now();
        let seed = repair_seed(SoAView::from_game(game), prev_certified, prev_loads, edit);
        let warm_run = LocalSearchRun::with_seed(game, initial, &self.config, seed);
        // The seeded descent is the run's only attempt: no solver list after
        // it, and no warm-tier key, since its answer is not this engine's
        // composition's.
        let mut run = EngineRun::new(self, game, initial, None);
        run.next_solver = self.solvers.len();
        run.active = Some(Active {
            run: Box::new(warm_run),
            method: PureNashMethod::LocalSearch,
            applicability: Applicability::Heuristic,
            started: Instant::now(),
        });
        let mut scratch = KernelScratch::new();
        while !run.step(&mut scratch) {}
        let passes = run.passes;
        let mut solution = run.finish()?;
        let warm = solution.telemetry.attempts[0].clone();
        let repair = RepairTelemetry {
            moves: warm.iterations.unwrap_or(0),
            passes,
            restarts: warm.restarts.unwrap_or(0),
            fallback_cold: !warm.found,
        };
        if repair.fallback_cold {
            solution = self.solve(game, initial)?;
            solution.telemetry.attempts.insert(0, warm);
        }
        solution.telemetry.total_wall_ns = elapsed_ns(start);
        if let Some(probes) = &self.probes {
            probes.repair_ns.record(solution.telemetry.total_wall_ns);
            probes.repair_moves.record(repair.moves);
            if repair.fallback_cold {
                probes.repair_fallback.incr(1);
            }
        }
        Ok((solution, repair))
    }
}

/// How [`SolverEngine::open`] began a solve.
pub enum Opened<'a> {
    /// The warm tier already held the answer; nothing steps.
    Hit(EngineSolution),
    /// A cold run, to be stepped until [`EngineRun::step`] returns `true`.
    Run(Box<EngineRun<'a>>),
}

/// The kernel run of the solver currently being attempted.
struct Active<'a> {
    run: Box<dyn KernelRun + 'a>,
    method: PureNashMethod,
    applicability: Applicability,
    started: Instant,
}

/// One solve of one instance as a pass-resumable state machine: **the**
/// solver-list walk. Skip solvers that are not applicable; stop at the
/// first solution or at a conclusive no.
///
/// Each [`step`](EngineRun::step) advances one unit: one kernel pass, one
/// finished attempt, or the scan to the next applicable solver. Every
/// solver starts through [`Solver::attempt`] alone: a finished
/// [`Attempt::Done`] settles at once, as one atomic unit (a closed-form
/// instance never derives its kernel rows), and an [`Attempt::Run`] is
/// stepped pass by pass until it returns its detail. Stepping
/// to completion and calling [`finish`](EngineRun::finish) is exactly
/// [`SolverEngine::solve`]; the serve layer's combinators differ only in
/// pacing: they check a deadline between steps or step several runs in
/// lockstep.
///
/// Only `finish` writes the warm tier, so a run dropped early (a deadline
/// fired, a race was decided) leaves no entry behind. The run records the
/// engine's probes as it goes: `engine.attempt_ns` per attempt,
/// `kernel.pass_ns` per pass, and `cache.solve.fill_ns` on a filled miss.
pub struct EngineRun<'a> {
    engine: &'a SolverEngine,
    game: &'a EffectiveGame,
    initial: &'a LinkLoads,
    /// The key of the missed warm-tier lookup that opened this run.
    key: Option<CacheKey<'a>>,
    /// Index into the solver list of the next solver to try.
    next_solver: usize,
    active: Option<Active<'a>>,
    attempts: Vec<SolverAttempt>,
    /// Kernel passes stepped so far, over every attempt.
    passes: u64,
    started: Instant,
    /// Set once the walk has ended: the solution (if any) or the error.
    outcome: Option<Result<Option<PureNashSolution>>>,
}

impl<'a> EngineRun<'a> {
    fn new(
        engine: &'a SolverEngine,
        game: &'a EffectiveGame,
        initial: &'a LinkLoads,
        key: Option<CacheKey<'a>>,
    ) -> Self {
        EngineRun {
            engine,
            game,
            initial,
            key,
            next_solver: 0,
            active: None,
            attempts: Vec::new(),
            passes: 0,
            started: Instant::now(),
            outcome: None,
        }
    }

    /// Advances one unit of the walk; `true` once the run has finished (and
    /// on every later call).
    pub fn step(&mut self, scratch: &mut KernelScratch) -> bool {
        if self.outcome.is_some() {
            return true;
        }
        let engine = self.engine;
        if let Some(active) = self.active.as_mut() {
            let pass_start = engine.recorder.now();
            let stepped = active.run.step(scratch);
            if let (Some(probes), Some(start)) = (&engine.probes, pass_start) {
                probes.pass_ns.record(elapsed_ns(start));
            }
            self.passes += 1;
            if let Some(detail) = stepped {
                let active = self.active.take().expect("an active run was just stepped");
                self.settle(active.method, active.applicability, active.started, detail);
            }
            return self.outcome.is_some();
        }
        let (game, initial, config) = (self.game, self.initial, &engine.config);
        loop {
            let Some(solver) = engine.solvers.get(self.next_solver) else {
                self.outcome = Some(Ok(None));
                return true;
            };
            self.next_solver += 1;
            let applicability = solver.applicability(game, initial, config);
            if applicability == Applicability::NotApplicable {
                continue;
            }
            let started = Instant::now();
            match solver.attempt(game, initial, config) {
                Ok(Attempt::Done(detail)) => {
                    self.settle(solver.method(), applicability, started, detail)
                }
                Ok(Attempt::Run(run)) => {
                    self.active = Some(Active {
                        run,
                        method: solver.method(),
                        applicability,
                        started,
                    });
                    return false;
                }
                Err(e) => self.outcome = Some(Err(e)),
            }
            return self.outcome.is_some();
        }
    }

    /// Records one finished attempt and ends the walk on a solution or a
    /// conclusive no.
    fn settle(
        &mut self,
        method: PureNashMethod,
        applicability: Applicability,
        started: Instant,
        detail: SolverDetail,
    ) {
        let wall_ns = elapsed_ns(started);
        if let Some(probes) = &self.engine.probes {
            probes.attempt_ns.record(wall_ns);
        }
        let found = detail.solution.is_some();
        self.attempts.push(SolverAttempt {
            method,
            applicability,
            iterations: detail.iterations,
            restarts: detail.restarts,
            found,
            wall_ns,
        });
        if found || applicability == Applicability::Conclusive {
            self.outcome = Some(Ok(detail.solution));
        }
    }

    /// The finished run's solution and telemetry, filed in the warm tier
    /// when the run was opened by a miss.
    ///
    /// # Panics
    ///
    /// If called before [`step`](EngineRun::step) returned `true`.
    pub fn finish(self) -> Result<EngineSolution> {
        let solution = self
            .outcome
            .expect("EngineRun::finish called before the run finished")?;
        let solved = EngineSolution {
            solution,
            telemetry: SolveTelemetry {
                attempts: self.attempts,
                total_wall_ns: elapsed_ns(self.started),
            },
        };
        if let (Some(cache), Some(key)) = (&self.engine.cache, &self.key) {
            if let Some(probes) = &self.engine.probes {
                probes.fill_ns.record(solved.telemetry.total_wall_ns);
            }
            cache.insert(key, solved.clone());
        }
        Ok(solved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::is_pure_nash;

    fn general_game() -> EffectiveGame {
        EffectiveGame::from_rows(
            vec![3.0, 1.0, 2.0, 5.0],
            vec![
                vec![2.0, 2.5, 1.0],
                vec![1.0, 4.0, 2.0],
                vec![3.0, 3.0, 0.5],
                vec![0.5, 6.0, 2.0],
            ],
        )
        .unwrap()
    }

    #[test]
    fn paper_order_matches_the_legacy_dispatcher() {
        let engine = SolverEngine::default();
        assert_eq!(
            engine.methods(),
            vec![
                PureNashMethod::TwoLinks,
                PureNashMethod::Symmetric,
                PureNashMethod::UniformBeliefs,
                PureNashMethod::BestResponse,
                PureNashMethod::Exhaustive,
            ]
        );
    }

    #[test]
    fn telemetry_records_every_attempt_in_order() {
        let engine = SolverEngine::default();
        let game = general_game();
        let initial = LinkLoads::zero(3);
        let result = engine.solve(&game, &initial).unwrap();
        let solution = result
            .solution
            .expect("the fixed instance has an equilibrium");
        assert!(is_pure_nash(
            &game,
            &solution.profile,
            &initial,
            Tolerance::default()
        ));
        // Three links, heterogeneous weights, non-uniform beliefs: the first
        // applicable solver is best-response dynamics, and it converges.
        assert_eq!(solution.method, PureNashMethod::BestResponse);
        let attempts = &result.telemetry.attempts;
        assert_eq!(attempts.len(), 1);
        assert_eq!(attempts[0].method, PureNashMethod::BestResponse);
        assert_eq!(attempts[0].applicability, Applicability::Heuristic);
        assert!(attempts[0].found);
        assert!(attempts[0].iterations.is_some());
    }

    #[test]
    fn a_stalled_heuristic_falls_through_to_exhaustive() {
        let config = SolverConfig {
            max_steps: 0,
            ..SolverConfig::default()
        };
        let engine = SolverEngine::paper_order(config);
        let game = general_game();
        let initial = LinkLoads::zero(3);
        let result = engine.solve(&game, &initial).unwrap();
        assert_eq!(result.method(), Some(PureNashMethod::Exhaustive));
        let methods: Vec<_> = result.telemetry.attempts.iter().map(|a| a.method).collect();
        assert_eq!(
            methods,
            vec![PureNashMethod::BestResponse, PureNashMethod::Exhaustive]
        );
        assert!(!result.telemetry.attempts[0].found);
    }

    #[test]
    fn an_empty_engine_gives_up_gracefully() {
        let engine = SolverEngine::with_solvers(SolverConfig::default(), Vec::new());
        let game = general_game();
        let result = engine.solve(&game, &LinkLoads::zero(3)).unwrap();
        assert!(result.solution.is_none());
        assert!(result.telemetry.attempts.is_empty());
    }

    #[test]
    fn cache_hits_return_the_cold_solution_and_telemetry() {
        let cache = Arc::new(SolveCache::new());
        let engine = SolverEngine::default().with_cache(Arc::clone(&cache));
        let game = general_game();
        let initial = LinkLoads::zero(3);
        let cold = engine.solve(&game, &initial).unwrap();
        let hit = engine.solve(&game, &initial).unwrap();
        assert_eq!(cold, hit, "a hit must reproduce the cold solve exactly");
        let stats = engine.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

        // A different initial load is a different instance.
        let busy = LinkLoads::new(vec![1.0, 0.0, 0.0]).unwrap();
        engine.solve(&game, &busy).unwrap();
        let stats = engine.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    }

    #[test]
    fn only_a_finished_run_writes_the_warm_tier() {
        let cache = Arc::new(SolveCache::new());
        let engine = SolverEngine::default().with_cache(Arc::clone(&cache));
        let game = general_game();
        let initial = LinkLoads::zero(3);
        let mut scratch = KernelScratch::new();

        // A run dropped before `finish` leaves no entry behind.
        let Opened::Run(mut run) = engine.open(&game, &initial, None) else {
            panic!("a cold cache cannot hit");
        };
        assert!(
            !run.step(&mut scratch),
            "the first step only installs a run"
        );
        drop(run);
        assert_eq!(cache.stats().entries, 0);

        // A finished run inserts exactly once.
        let Opened::Run(mut run) = engine.open(&game, &initial, None) else {
            panic!("the dropped run stored nothing");
        };
        while !run.step(&mut scratch) {}
        assert!(run.step(&mut scratch), "a finished run stays finished");
        let cold = run.finish().unwrap();
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.entries), (2, 1));

        // A warm hit constructs no run and returns the stored answer.
        let Opened::Hit(hit) = engine.open(&game, &initial, None) else {
            panic!("the finished run must have filled the warm tier");
        };
        assert_eq!(hit, cold);
        let Opened::Hit(hit) = engine.open(&game, &initial, None) else {
            panic!("a stored answer must keep hitting");
        };
        assert_eq!(hit, cold);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 1));
    }

    #[test]
    fn only_kernel_backed_attempts_derive_kernel_rows() {
        let engine = SolverEngine::default();
        let mut scratch = KernelScratch::new();
        let two_links = EffectiveGame::from_rows(
            vec![1.0, 2.0, 3.0],
            vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![1.5, 1.5]],
        )
        .unwrap();
        let zero = LinkLoads::zero(2);
        let Opened::Run(mut run) = engine.open(&two_links, &zero, None) else {
            panic!("no cache, no hit");
        };
        assert!(run.step(&mut scratch), "Atwolinks is one atomic unit");
        assert_eq!(
            run.finish().unwrap().method(),
            Some(PureNashMethod::TwoLinks)
        );
        assert!(
            !two_links.has_kernel_rows(),
            "a conclusive attempt must not derive kernel rows"
        );

        let general = general_game();
        let zero = LinkLoads::zero(3);
        let Opened::Run(mut run) = engine.open(&general, &zero, None) else {
            panic!("no cache, no hit");
        };
        assert!(!run.step(&mut scratch));
        assert!(
            general.has_kernel_rows(),
            "best response derives them on activation"
        );
    }

    #[test]
    fn engines_with_different_budgets_do_not_share_entries() {
        let cache = Arc::new(SolveCache::new());
        let stalled = SolverEngine::paper_order(SolverConfig {
            max_steps: 0,
            ..SolverConfig::default()
        })
        .with_cache(Arc::clone(&cache));
        let fresh = SolverEngine::default().with_cache(Arc::clone(&cache));
        let game = general_game();
        let initial = LinkLoads::zero(3);
        let a = stalled.solve(&game, &initial).unwrap();
        let b = fresh.solve(&game, &initial).unwrap();
        assert_eq!(a.method(), Some(PureNashMethod::Exhaustive));
        assert_eq!(b.method(), Some(PureNashMethod::BestResponse));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
    }

    #[test]
    fn repair_certifies_on_the_edited_game_for_each_edit_kind() {
        let engine =
            SolverEngine::from_kinds(SolverConfig::default(), &[PureNashMethod::LocalSearch]);
        let game = general_game();
        let initial = LinkLoads::zero(3);
        let prev = engine
            .solve(&game, &initial)
            .unwrap()
            .solution
            .expect("the fixed instance has an equilibrium")
            .profile;
        let edits = [
            GameEdit::UserJoins {
                weight: 2.5,
                capacities: vec![1.5, 3.0, 1.0],
            },
            GameEdit::UserLeaves { user: 1 },
            GameEdit::CapacityChange {
                user: 0,
                link: 2,
                capacity: 0.1,
            },
        ];
        for edit in &edits {
            let outcome = engine.repair(&game, &initial, &prev, edit).unwrap();
            let solution = outcome
                .solution
                .solution
                .as_ref()
                .unwrap_or_else(|| panic!("repair must certify across {:?}", edit));
            assert!(
                is_pure_nash(
                    &outcome.game,
                    &solution.profile,
                    &initial,
                    Tolerance::default()
                ),
                "repair result must be a pure Nash of the edited game ({:?})",
                edit
            );
            assert!(
                !outcome.repair.fallback_cold,
                "warm run suffices ({:?})",
                edit
            );
            assert!(outcome.repair.passes >= 1);
            assert_eq!(
                outcome.repair.restarts, 1,
                "seeded restart alone ({:?})",
                edit
            );
            let attempts = &outcome.solution.telemetry.attempts;
            assert_eq!(attempts.len(), 1);
            assert_eq!(attempts[0].method, PureNashMethod::LocalSearch);
            assert!(attempts[0].found);
        }
    }

    #[test]
    fn a_stalled_repair_falls_back_to_a_cold_solve() {
        // A zero move budget starves the warm run (one move per restart
        // slice is not enough to re-certify after a harsh edit), forcing the
        // cold-fallback path; the paper-order fallback still concludes via
        // exhaustive enumeration.
        let config = SolverConfig {
            max_steps: 0,
            restarts: 1,
            ..SolverConfig::default()
        };
        let solver =
            SolverEngine::from_kinds(SolverConfig::default(), &[PureNashMethod::LocalSearch]);
        let game = general_game();
        let initial = LinkLoads::zero(3);
        let prev = solver
            .solve(&game, &initial)
            .unwrap()
            .solution
            .unwrap()
            .profile;
        let edit = GameEdit::CapacityChange {
            user: 3,
            link: prev.link(3),
            capacity: 0.05,
        };
        let engine = SolverEngine::paper_order(config);
        let outcome = engine.repair(&game, &initial, &prev, &edit).unwrap();
        // Whether or not the starved warm run certified, the contract holds:
        // a certified solution on the edited game.
        let solution = outcome
            .solution
            .solution
            .as_ref()
            .expect("fallback concludes");
        assert!(is_pure_nash(
            &outcome.game,
            &solution.profile,
            &initial,
            Tolerance::default()
        ));
        if outcome.repair.fallback_cold {
            // The stalled warm attempt stays visible ahead of the fallback's.
            let attempts = &outcome.solution.telemetry.attempts;
            assert!(attempts.len() >= 2);
            assert_eq!(attempts[0].method, PureNashMethod::LocalSearch);
            assert!(!attempts[0].found);
        }
    }

    #[test]
    fn repair_rejects_a_profile_of_the_wrong_game() {
        let engine = SolverEngine::default();
        let game = general_game();
        let initial = LinkLoads::zero(3);
        let wrong = PureProfile::new(vec![0, 1]); // two users, game has four
        let edit = GameEdit::UserLeaves { user: 0 };
        assert!(engine.repair(&game, &initial, &wrong, &edit).is_err());
    }

    #[test]
    fn repair_records_its_probes_on_a_live_recorder() {
        let registry = Arc::new(crate::obs::Registry::new());
        let recorder = Recorder::new(Arc::clone(&registry));
        let engine =
            SolverEngine::from_kinds(SolverConfig::default(), &[PureNashMethod::LocalSearch])
                .with_recorder(recorder);
        let game = general_game();
        let initial = LinkLoads::zero(3);
        let prev = engine
            .solve(&game, &initial)
            .unwrap()
            .solution
            .unwrap()
            .profile;
        let edit = GameEdit::UserLeaves { user: 2 };
        engine.repair(&game, &initial, &prev, &edit).unwrap();
        let snapshot = registry.snapshot();
        let histogram_count = |name: &str| {
            snapshot
                .histograms
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.count)
                .unwrap_or_else(|| panic!("missing histogram {name}"))
        };
        assert_eq!(histogram_count("engine.repair_ns"), 1);
        assert_eq!(histogram_count("repair.moves"), 1);
    }
}
