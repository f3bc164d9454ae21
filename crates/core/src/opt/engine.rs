//! The certified social-optimum bracketing engine.
//!
//! Mirrors the design of [`solvers::engine`](crate::solvers::engine): each
//! estimation algorithm is an [`OptEstimator`] that classifies its own
//! [`Applicability`] to an instance and runs under shared [`OptConfig`]
//! budgets, and an [`OptEngine`] walks an ordered estimator list, merging
//! every contribution into one certified [`OptBracket`] per objective
//! (`OPT1`, the minimum total expected latency, and `OPT2`, the minimum of
//! the maximum expected latency) while recording per-attempt
//! [`OptTelemetry`].
//!
//! The contract is interval-shaped rather than point-shaped: exact backends
//! (exhaustive enumeration, a completed branch-and-bound search) collapse a
//! bracket to a point, upper-bound backends certify by exhibiting an actual
//! assignment, and lower-bound backends certify by closed-form relaxation
//! arguments. The engine intersects everything it is given — `lower` is the
//! max of the certified lower bounds, `upper` the min of the certified upper
//! bounds — and stops early once both brackets are exact. A bracket that
//! ends up unusable (no finite upper bound, or crossed bounds beyond
//! floating-point noise) is a typed [`GameError::EmptyBracket`] error, never
//! a silent NaN.

use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::cache::{CacheKey, InstanceKey};
use crate::error::{GameError, Result};
use crate::model::EffectiveGame;
use crate::numeric::Tolerance;
use crate::obs::{elapsed_ns, Counter, Histogram, Recorder};
use crate::opt::branch_and_bound::BranchAndBound;
use crate::opt::cache::{self, OptCache};
use crate::opt::descent::Descent;
use crate::opt::exhaustive::Exhaustive;
use crate::opt::greedy::LptGreedy;
use crate::opt::relaxation::Relaxation;
use crate::solvers::cache::CacheStats;
use crate::solvers::engine::Applicability;
use crate::solvers::exhaustive::DEFAULT_PROFILE_LIMIT;
use crate::strategy::LinkLoads;

/// Default node budget shared by the two branch-and-bound searches.
pub const DEFAULT_NODE_LIMIT: u64 = 2_000_000;

/// Default user cap for branch-and-bound applicability: beyond this the
/// search space is too deep for load-based pruning to finish predictably,
/// and the bound backends take over.
pub const DEFAULT_BB_MAX_USERS: usize = 20;

/// Default restart budget of the descent upper-bound backend. Deliberately
/// higher than `LocalSearch`'s solver-side default: an equilibrium search
/// stops at its first certified fixed point, while a bound search profits
/// from every extra perturbed start that escapes an objective plateau.
pub const DEFAULT_OPT_RESTARTS: usize = 24;

/// Default move budget shared by all descent restarts.
pub const DEFAULT_OPT_MOVES: u64 = 100_000;

/// Default seed of the descent backend's deterministic perturbation stream.
pub const DEFAULT_OPT_SEED: u64 = 0x000B_7A11_5EED_CAFE;

/// The estimation method an [`OptEstimator`] reports in telemetry and cache
/// keys, and the estimator registry: each variant builds its backend
/// ([`build`](OptMethod::build)). The opt-side analogue of `PureNashMethod`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OptMethod {
    /// Exact enumeration of all `mⁿ` assignments.
    Exhaustive,
    /// Exact depth-first search with load-based pruning.
    BranchAndBound,
    /// Upper bounds from the greedy start portfolio (LPT and friends).
    LptGreedy,
    /// Upper bounds from seeded multi-restart objective descent.
    Descent,
    /// Closed-form fractional-relaxation / volume lower bounds.
    Relaxation,
}

impl OptMethod {
    /// The stable registry id of this method: the CLI's `--opt-backends`
    /// names and the serve wire's `method` field.
    pub fn id(self) -> &'static str {
        match self {
            OptMethod::Exhaustive => "exhaustive",
            OptMethod::BranchAndBound => "branch_and_bound",
            OptMethod::LptGreedy => "lpt",
            OptMethod::Descent => "descent",
            OptMethod::Relaxation => "relaxation",
        }
    }

    /// Static cost rank used by the adaptive ([`OptConfig::width_goal`])
    /// engine mode: cheap certified bounds first (the greedy portfolio and
    /// the closed-form relaxations), the exact searches next, the
    /// restart-hungry descent last — so a bracket that meets the width goal
    /// early never pays for the expensive backends at all.
    pub fn cost_rank(self) -> u8 {
        match self {
            OptMethod::LptGreedy => 0,
            OptMethod::Relaxation => 1,
            OptMethod::BranchAndBound => 2,
            OptMethod::Exhaustive => 3,
            OptMethod::Descent => 4,
        }
    }
}

/// Shared per-estimate budgets and numeric tolerance (the opt-side analogue
/// of `SolverConfig`; every knob is embedded in [`OptCache`] keys).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptConfig {
    /// Comparison tolerance used by the descent acceptance tests.
    pub tol: Tolerance,
    /// Cap on `mⁿ` for exhaustive enumeration.
    pub profile_limit: u128,
    /// Node budget for each branch-and-bound search.
    pub node_limit: u64,
    /// Branch-and-bound applicability cap on the number of users.
    pub bb_max_users: usize,
    /// Restart budget of the descent backend.
    pub restarts: usize,
    /// Move budget shared by all descent restarts.
    pub max_moves: u64,
    /// Seed of the descent backend's deterministic perturbation stream.
    pub opt_seed: u64,
    /// Adaptive bracket-driven budget mode. `None` (the default) keeps the
    /// classic fixed-budget behaviour: every applicable estimator in the
    /// engine's list order runs, stopping only once both brackets are
    /// exact. `Some(goal)` switches the engine to **cost order**
    /// ([`OptMethod::cost_rank`]) and stops as soon as both brackets
    /// satisfy `upper / lower ≤ goal` — the estimators that would have run
    /// are recorded in [`OptTelemetry::skipped`], so the telemetry proves
    /// what the adaptive mode saved. Must be finite and `> 1.0` — enforced
    /// by the [`OptEngine`] constructors.
    pub width_goal: Option<f64>,
}

impl OptConfig {
    /// Whether `goal` is a usable [`width_goal`](OptConfig::width_goal):
    /// finite and `> 1.0`. A width of 1 is exactness, so nothing below it
    /// can ever be met and the adaptive mode would silently run in full.
    pub fn is_valid_width_goal(goal: f64) -> bool {
        goal.is_finite() && goal > 1.0
    }
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig {
            tol: Tolerance::default(),
            profile_limit: DEFAULT_PROFILE_LIMIT,
            node_limit: DEFAULT_NODE_LIMIT,
            bb_max_users: DEFAULT_BB_MAX_USERS,
            restarts: DEFAULT_OPT_RESTARTS,
            max_moves: DEFAULT_OPT_MOVES,
            opt_seed: DEFAULT_OPT_SEED,
            width_goal: None,
        }
    }
}

/// A certified two-sided bracket `lower ≤ OPT ≤ upper` for one objective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptBracket {
    /// Certified lower bound (`0.0` until a lower-bound backend runs).
    pub lower: f64,
    /// Certified upper bound (`+∞` until an upper-bound backend runs).
    pub upper: f64,
    /// Whether an exact backend collapsed the bracket to the optimum.
    pub exact: bool,
}

impl OptBracket {
    /// The bracket no backend has tightened yet.
    pub fn unresolved() -> Self {
        OptBracket {
            lower: 0.0,
            upper: f64::INFINITY,
            exact: false,
        }
    }

    /// A point bracket around an exactly known optimum.
    pub fn exact(value: f64) -> Self {
        OptBracket {
            lower: value,
            upper: value,
            exact: true,
        }
    }

    /// Whether `value` lies inside the bracket (up to `eps` relative slack).
    pub fn contains(&self, value: f64, eps: f64) -> bool {
        let margin = eps * 1.0_f64.max(value.abs());
        self.lower <= value + margin && value <= self.upper + margin
    }

    /// The multiplicative width `upper / lower` (`+∞` while unresolved).
    pub fn width(&self) -> f64 {
        if self.lower > 0.0 {
            self.upper / self.lower
        } else {
            f64::INFINITY
        }
    }

    /// Whether the bracket is tight enough for a multiplicative width
    /// `goal`: exact, or both bounds resolved with `upper ≤ goal · lower`.
    pub fn meets_goal(&self, goal: f64) -> bool {
        self.exact
            || (self.lower > 0.0 && self.upper.is_finite() && self.upper <= goal * self.lower)
    }

    /// Folds one backend's contribution into the bracket. Exact values win
    /// outright; bounds intersect.
    fn merge(&mut self, lower: Option<f64>, upper: Option<f64>, exact: bool) {
        if self.exact {
            return;
        }
        if exact {
            if let (Some(lo), Some(hi)) = (lower, upper) {
                debug_assert!(lo == hi, "an exact contribution must be a point");
                *self = OptBracket::exact(lo);
                return;
            }
        }
        if let Some(lo) = lower {
            self.lower = self.lower.max(lo);
        }
        if let Some(hi) = upper {
            self.upper = self.upper.min(hi);
        }
    }

    /// Validates the final bracket: clamps sub-tolerance floating-point
    /// crossings of the certified bounds, errors on anything worse.
    fn finalize(mut self, which: &'static str) -> Result<OptBracket> {
        if !self.upper.is_finite() {
            return Err(GameError::EmptyBracket {
                which,
                lower: self.lower,
                upper: self.upper,
            });
        }
        if self.lower > self.upper {
            // Both bounds are mathematically certified, so a crossing can
            // only be floating-point noise; anything beyond noise is a
            // backend bug and must surface.
            let margin = 1e-9 * 1.0_f64.max(self.lower.abs());
            if self.lower > self.upper + margin {
                return Err(GameError::EmptyBracket {
                    which,
                    lower: self.lower,
                    upper: self.upper,
                });
            }
            self.lower = self.upper;
        }
        Ok(self)
    }
}

/// One backend's contribution to the two brackets: any subset of certified
/// bounds, plus per-objective exactness claims.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OptEstimate {
    /// Certified lower bound on `OPT1`, if any.
    pub opt1_lower: Option<f64>,
    /// Certified upper bound on `OPT1`, if any.
    pub opt1_upper: Option<f64>,
    /// Certified lower bound on `OPT2`, if any.
    pub opt2_lower: Option<f64>,
    /// Certified upper bound on `OPT2`, if any.
    pub opt2_upper: Option<f64>,
    /// `OPT1` was computed exactly (`opt1_lower == opt1_upper`).
    pub opt1_exact: bool,
    /// `OPT2` was computed exactly (`opt2_lower == opt2_upper`).
    pub opt2_exact: bool,
    /// Work performed (profiles enumerated, nodes expanded, moves made);
    /// `None` for closed-form bounds.
    pub iterations: Option<u64>,
}

impl OptEstimate {
    /// An exact estimate for both objectives.
    pub fn exact(opt1: f64, opt2: f64, iterations: Option<u64>) -> Self {
        OptEstimate {
            opt1_lower: Some(opt1),
            opt1_upper: Some(opt1),
            opt2_lower: Some(opt2),
            opt2_upper: Some(opt2),
            opt1_exact: true,
            opt2_exact: true,
            iterations,
        }
    }
}

/// A cooperative cancellation token threaded through the estimators.
///
/// The engine and the long-running backends poll
/// [`expired`](OptCheckpoint::expired) between units of work — estimators
/// in the engine walk, restarts and phases inside [`Descent`], bisection
/// steps inside [`Relaxation`], node batches inside [`BranchAndBound`] — and
/// stop early when it fires, keeping every bound already merged
/// *certified*: an interrupted run degrades to a looser bracket, never to a
/// wrong one.
///
/// [`OptCheckpoint::never`] is free (a `None` branch, no clock reads), so
/// undeadlined estimates are bit-identical with and without the plumbing.
#[derive(Clone, Copy)]
pub struct OptCheckpoint<'a> {
    check: Option<&'a dyn Fn() -> bool>,
}

impl<'a> OptCheckpoint<'a> {
    /// The checkpoint that never fires — the default for batch callers.
    pub fn never() -> Self {
        OptCheckpoint { check: None }
    }

    /// A checkpoint backed by `check`; the estimate stops between work
    /// units once it returns `true` (it is polled repeatedly and should be
    /// cheap — typically an `Instant` comparison).
    pub fn new(check: &'a dyn Fn() -> bool) -> Self {
        OptCheckpoint { check: Some(check) }
    }

    /// Whether the deadline has fired. Always `false` for
    /// [`OptCheckpoint::never`].
    pub fn expired(&self) -> bool {
        self.check.is_some_and(|check| check())
    }
}

impl std::fmt::Debug for OptCheckpoint<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptCheckpoint")
            .field("armed", &self.check.is_some())
            .finish()
    }
}

/// One social-optimum estimation algorithm viewed as an engine component.
///
/// Implementations must be stateless and deterministic: everything they
/// randomise derives from [`OptConfig::opt_seed`], never from global state,
/// so brackets are bit-identical across threads and shards. Every bound an
/// estimator returns must be *certified*: upper bounds by exhibiting an
/// actual assignment's cost, lower bounds by a relaxation argument that
/// holds for every assignment — including every bound returned after a
/// checkpoint interrupt.
pub trait OptEstimator: Send + Sync {
    /// The method tag this estimator reports in telemetry and cache keys.
    fn method(&self) -> OptMethod;

    /// Whether this estimator applies to `game` from `initial` under
    /// `config`. [`Applicability::Conclusive`] means "within budget, the
    /// returned brackets are exact".
    fn applicability(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        config: &OptConfig,
    ) -> Applicability;

    /// Runs the estimator to completion (no deadline). Only called when
    /// [`applicability`](OptEstimator::applicability) did not return
    /// [`Applicability::NotApplicable`].
    fn estimate(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        config: &OptConfig,
    ) -> Result<OptEstimate> {
        self.estimate_under(game, initial, config, OptCheckpoint::never())
    }

    /// Runs the estimator under a cooperative deadline. Iterative backends
    /// poll `check` between work units and return their certified
    /// best-so-far early when it fires; closed-form or atomic backends may
    /// ignore it. With [`OptCheckpoint::never`] this must be bit-identical
    /// to the undeadlined run.
    fn estimate_under(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        config: &OptConfig,
        check: OptCheckpoint<'_>,
    ) -> Result<OptEstimate>;
}

/// The built-in estimator backends, as data — the registry behind
/// [`OptEngine::from_kinds`] and the CLI's `--opt-backends` flag. Each
/// method is both the tag an estimator reports and the kind that builds it.
impl OptMethod {
    /// Every backend, in the default engine order: exact methods first, then
    /// upper bounds from cheapest to strongest, then the lower bounds.
    pub const ALL: [OptMethod; 5] = [
        OptMethod::Exhaustive,
        OptMethod::BranchAndBound,
        OptMethod::LptGreedy,
        OptMethod::Descent,
        OptMethod::Relaxation,
    ];

    /// Parses a CLI/registry id produced by [`OptMethod::id`].
    pub fn parse(s: &str) -> Option<OptMethod> {
        OptMethod::ALL.into_iter().find(|k| k.id() == s)
    }

    /// Builds the backend; the built estimator reports `self` as its method.
    pub fn build(self) -> Box<dyn OptEstimator> {
        match self {
            OptMethod::Exhaustive => Box::new(Exhaustive),
            OptMethod::BranchAndBound => Box::new(BranchAndBound),
            OptMethod::LptGreedy => Box::new(LptGreedy),
            OptMethod::Descent => Box::new(Descent),
            OptMethod::Relaxation => Box::new(Relaxation),
        }
    }
}

/// One engine attempt at running an estimator, as recorded in telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptAttempt {
    /// Which estimator ran.
    pub method: OptMethod,
    /// Its applicability classification at the time.
    pub applicability: Applicability,
    /// Work performed, for iterative methods.
    pub iterations: Option<u64>,
    /// Whether the attempt returned exact values for both objectives.
    pub exact: bool,
    /// Wall-clock nanoseconds spent inside the estimator.
    pub wall_ns: u64,
}

/// An estimator the engine decided **not** to run because an early exit
/// (exactness, or the adaptive [`OptConfig::width_goal`]) fired first —
/// the telemetry record proving what an adaptive estimate saved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptSkip {
    /// The estimator that would have run next.
    pub method: OptMethod,
    /// Its applicability to the instance at the time of the early exit.
    pub applicability: Applicability,
}

/// Telemetry for one [`OptEngine::estimate`] call.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OptTelemetry {
    /// Every estimator attempt, in run order (inapplicable backends
    /// omitted): the engine's list order in fixed-budget mode,
    /// [`OptMethod::cost_rank`] order in adaptive mode.
    pub attempts: Vec<OptAttempt>,
    /// Applicable estimators an early exit left unrun — empty when every
    /// applicable backend ran. A skipped [`OptMethod::Descent`] entry means
    /// the adaptive mode saved the entire restart budget on this instance.
    pub skipped: Vec<OptSkip>,
    /// Total wall-clock nanoseconds including engine overhead.
    pub total_wall_ns: u64,
}

/// The certified brackets for both objectives, plus how the engine got them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptOutcome {
    /// Certified bracket around `OPT1` (minimum total expected latency).
    pub opt1: OptBracket,
    /// Certified bracket around `OPT2` (minimum of the maximum latency).
    pub opt2: OptBracket,
    /// Per-attempt telemetry.
    pub telemetry: OptTelemetry,
}

impl OptOutcome {
    /// Whether both optima are known exactly.
    pub fn exact(&self) -> bool {
        self.opt1.exact && self.opt2.exact
    }
}

/// The result of an [`OptWalk::run`]: the certified (possibly partial)
/// outcome plus whether the checkpoint fired before the composition
/// completed.
#[derive(Debug, Clone, PartialEq)]
pub struct OptRun {
    /// The certified brackets. When [`deadlined`](OptRun::deadlined) is
    /// set, these are the best-so-far bounds — still certified, possibly
    /// looser than the full composition would have produced.
    pub outcome: OptOutcome,
    /// Whether the checkpoint fired before every applicable estimator ran
    /// to completion.
    pub deadlined: bool,
}

/// An ordered list of [`OptEstimator`]s run under shared budgets.
pub struct OptEngine {
    estimators: Vec<Box<dyn OptEstimator>>,
    config: OptConfig,
    /// Opt-in memoisation layer ([`OptEngine::with_cache`]).
    cache: Option<Arc<OptCache>>,
    /// Observability probes ([`OptEngine::with_recorder`]); the default
    /// disabled recorder costs one predicted branch per probe site.
    recorder: Recorder,
    probes: Option<OptProbes>,
}

/// Pre-resolved instrument handles; present only with a live recorder.
struct OptProbes {
    /// `cache.opt.key_ns` — canonical-key construction time.
    key_ns: Arc<Histogram>,
    /// `cache.opt.fill_ns` — cold-estimate latency behind a cache miss.
    fill_ns: Arc<Histogram>,
    /// `opt.estimator_ns` — per-estimator unit wall time (the units the
    /// cooperative [`OptCheckpoint`] deadline stops between).
    estimator_ns: Arc<Histogram>,
    /// `opt.deadlined` — walks interrupted by their checkpoint.
    deadlined: Arc<Counter>,
}

impl OptProbes {
    fn resolve(recorder: &Recorder) -> Option<Self> {
        Some(OptProbes {
            key_ns: recorder.histogram("cache.opt.key_ns")?,
            fill_ns: recorder.histogram("cache.opt.fill_ns")?,
            estimator_ns: recorder.histogram("opt.estimator_ns")?,
            deadlined: recorder.counter("opt.deadlined")?,
        })
    }
}

impl Default for OptEngine {
    fn default() -> Self {
        OptEngine::default_order(OptConfig::default())
    }
}

impl OptEngine {
    /// The default composition: every built-in backend in
    /// [`OptMethod::ALL`] order.
    pub fn default_order(config: OptConfig) -> Self {
        OptEngine::from_kinds(config, &OptMethod::ALL)
    }

    /// An engine over the given backends, tried in order — the data-driven
    /// form used by the experiment harness's `--opt-backends` selection.
    pub fn from_kinds(config: OptConfig, kinds: &[OptMethod]) -> Self {
        OptEngine::with_estimators(config, kinds.iter().map(|k| k.build()).collect())
    }

    /// An engine with an explicit estimator list.
    ///
    /// Panics on a degenerate [`OptConfig::width_goal`] (non-finite or
    /// `≤ 1.0`) — a NaN/∞ goal would silently degrade the adaptive mode to
    /// something the caller did not ask for, the same constructor-contract
    /// style as `Tolerance::new` and `Shard::new`.
    pub fn with_estimators(config: OptConfig, estimators: Vec<Box<dyn OptEstimator>>) -> Self {
        if let Some(goal) = config.width_goal {
            assert!(
                OptConfig::is_valid_width_goal(goal),
                "a width goal must be a finite ratio above 1.0, got {goal}"
            );
        }
        OptEngine {
            estimators,
            config,
            cache: None,
            recorder: Recorder::disabled(),
            probes: None,
        }
    }

    /// Attaches an observability [`Recorder`]. A live recorder mirrors the
    /// engine's wall-time telemetry into latency histograms
    /// (`cache.opt.key_ns`, `cache.opt.fill_ns`, `opt.estimator_ns`) and
    /// counts deadline interrupts (`opt.deadlined`); the default
    /// [`Recorder::disabled`] keeps every probe a single predicted branch.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.probes = OptProbes::resolve(&recorder);
        self.recorder = recorder;
        self
    }

    /// Attaches a content-addressed [`OptCache`]. Keys embed the engine's
    /// method list, every [`OptConfig`] budget and the instance bit
    /// patterns, so hits replay the cold estimate exactly — telemetry
    /// included — and results can never change.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<OptCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Hit/miss counters of the attached cache, if any.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// The shared budgets.
    pub fn config(&self) -> &OptConfig {
        &self.config
    }

    /// The methods in engine order.
    pub fn methods(&self) -> Vec<OptMethod> {
        self.estimators.iter().map(|e| e.method()).collect()
    }

    /// Brackets both social optima of `game` with initial traffic `initial`.
    ///
    /// Walks the estimator list in order, merging every contribution; stops
    /// early once both brackets are exact. With a cache attached
    /// ([`with_cache`](OptEngine::with_cache)), repeated estimates of a
    /// bit-identical instance return the stored outcome.
    ///
    /// # Errors
    /// [`GameError::EmptyBracket`] when the composition produced no finite
    /// upper bound (e.g. an engine with only lower-bound backends), or when
    /// certified bounds cross beyond floating-point noise; estimator-level
    /// errors propagate.
    pub fn estimate(&self, game: &EffectiveGame, initial: &LinkLoads) -> Result<OptOutcome> {
        match self.open(game, initial, None) {
            OptOpened::Hit(hit) => Ok(hit),
            OptOpened::Walk(walk) => Ok(walk.run(OptCheckpoint::never())?.outcome),
        }
    }

    /// Opens an estimate of `game` from `initial`: a counting warm-tier
    /// lookup when a cache is attached, else (or on a miss) an [`OptWalk`]
    /// to run. `instance` is the digest of `(game, initial)` when the caller
    /// already has it; a digest that does not match the instance can only
    /// cost misses, never change an answer.
    pub fn open<'a>(
        &'a self,
        game: &'a EffectiveGame,
        initial: &'a LinkLoads,
        instance: Option<InstanceKey>,
    ) -> OptOpened<'a> {
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
            return OptOpened::Hit(hit);
        }
        OptOpened::Walk(OptWalk {
            engine: self,
            game,
            initial,
            key: key.map(|(_, key)| key),
        })
    }

    fn estimate_cold(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        check: OptCheckpoint<'_>,
    ) -> Result<OptRun> {
        let start = Instant::now();
        let mut opt1 = OptBracket::unresolved();
        let mut opt2 = OptBracket::unresolved();
        let mut attempts = Vec::new();
        let mut skipped = Vec::new();
        // Adaptive mode runs the composition in cost order so the cheap
        // certified bounds get the first shot at meeting the width goal;
        // fixed-budget mode preserves the caller's list order exactly.
        let mut order: Vec<&dyn OptEstimator> = self.estimators.iter().map(Box::as_ref).collect();
        if self.config.width_goal.is_some() {
            order.sort_by_key(|e| e.method().cost_rank());
        }
        let mut deadlined = false;
        for (ran, estimator) in order.iter().enumerate() {
            // The deadline stops the walk *between* estimators; the first
            // one always runs (with the checkpoint threaded through, so it
            // exits early itself) — otherwise an already-expired deadline
            // could never produce a bracket at all.
            if ran > 0 && check.expired() {
                deadlined = true;
                for rest in &order[ran..] {
                    let applicability = rest.applicability(game, initial, &self.config);
                    if applicability != Applicability::NotApplicable {
                        skipped.push(OptSkip {
                            method: rest.method(),
                            applicability,
                        });
                    }
                }
                break;
            }
            let applicability = estimator.applicability(game, initial, &self.config);
            if applicability == Applicability::NotApplicable {
                continue;
            }
            let attempt_start = Instant::now();
            let estimate = estimator.estimate_under(game, initial, &self.config, check)?;
            let wall_ns = attempt_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            if let Some(probes) = &self.probes {
                probes.estimator_ns.record(wall_ns);
            }
            attempts.push(OptAttempt {
                method: estimator.method(),
                applicability,
                iterations: estimate.iterations,
                exact: estimate.opt1_exact && estimate.opt2_exact,
                wall_ns,
            });
            opt1.merge(
                estimate.opt1_lower,
                estimate.opt1_upper,
                estimate.opt1_exact,
            );
            opt2.merge(
                estimate.opt2_lower,
                estimate.opt2_upper,
                estimate.opt2_exact,
            );
            let exact_exit = opt1.exact && opt2.exact;
            let goal_exit = self
                .config
                .width_goal
                .is_some_and(|goal| opt1.meets_goal(goal) && opt2.meets_goal(goal));
            if exact_exit || goal_exit {
                // Record what the early exit saved: every remaining backend
                // that would have run on this instance.
                for rest in &order[ran + 1..] {
                    let applicability = rest.applicability(game, initial, &self.config);
                    if applicability != Applicability::NotApplicable {
                        skipped.push(OptSkip {
                            method: rest.method(),
                            applicability,
                        });
                    }
                }
                // An exact/goal exit is a *complete* answer even if the
                // clock has since run out.
                return Ok(OptRun {
                    outcome: OptOutcome {
                        opt1: opt1.finalize("OPT1")?,
                        opt2: opt2.finalize("OPT2")?,
                        telemetry: OptTelemetry {
                            attempts,
                            skipped,
                            total_wall_ns: start.elapsed().as_nanos().min(u128::from(u64::MAX))
                                as u64,
                        },
                    },
                    deadlined: false,
                });
            }
        }
        // An interrupt inside the last estimator also counts: the walk ran
        // every backend but the final contribution may be partial.
        deadlined = deadlined || check.expired();
        if deadlined {
            if let Some(probes) = &self.probes {
                probes.deadlined.incr(1);
            }
        }
        Ok(OptRun {
            outcome: OptOutcome {
                opt1: opt1.finalize("OPT1")?,
                opt2: opt2.finalize("OPT2")?,
                telemetry: OptTelemetry {
                    attempts,
                    skipped,
                    total_wall_ns: start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
                },
            },
            deadlined,
        })
    }
}

/// How [`OptEngine::open`] began an estimate.
pub enum OptOpened<'a> {
    /// The warm tier already held the outcome; nothing runs.
    Hit(OptOutcome),
    /// A cold walk, to be run by [`OptWalk::run`].
    Walk(OptWalk<'a>),
}

/// One cold estimate of one instance, opened by a warm-tier miss (or by an
/// engine without a cache).
pub struct OptWalk<'a> {
    engine: &'a OptEngine,
    game: &'a EffectiveGame,
    initial: &'a LinkLoads,
    /// The key of the missed warm-tier lookup that opened this walk.
    key: Option<CacheKey<'a>>,
}

impl OptWalk<'_> {
    /// Walks the composition under a cooperative checkpoint and returns the
    /// certified best-so-far [`OptRun`] when it fires mid-walk — estimators
    /// not yet run are recorded in [`OptTelemetry::skipped`]. With
    /// [`OptCheckpoint::never`] this is exactly the cold half of
    /// [`OptEngine::estimate`].
    ///
    /// Only a **complete** walk is filed in the warm tier (recording
    /// `cache.opt.fill_ns`): a deadlined walk must never poison it with a
    /// partial bracket. The first estimator always gets to run, so a
    /// checkpoint that is already expired on entry still yields a usable
    /// bracket whenever the leading backend can certify one cheaply.
    ///
    /// # Errors
    /// Same contract as [`OptEngine::estimate`]; in particular a walk
    /// interrupted before any upper-bound backend ran is a
    /// [`GameError::EmptyBracket`].
    pub fn run(self, check: OptCheckpoint<'_>) -> Result<OptRun> {
        let engine = self.engine;
        let fill_start = engine.recorder.now();
        let run = engine.estimate_cold(self.game, self.initial, check)?;
        if let (Some(cache), Some(key)) = (&engine.cache, &self.key) {
            if !run.deadlined {
                if let (Some(probes), Some(start)) = (&engine.probes, fill_start) {
                    probes.fill_ns.record(elapsed_ns(start));
                }
                cache.insert(key, run.outcome.clone());
            }
        }
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mild_game() -> EffectiveGame {
        EffectiveGame::from_rows(
            vec![1.0, 1.5, 2.0],
            vec![vec![2.0, 2.2], vec![2.1, 1.9], vec![2.0, 2.0]],
        )
        .unwrap()
    }

    /// The bound backends only: a walk over them can be cut short.
    const BOUNDS: [OptMethod; 3] = [
        OptMethod::LptGreedy,
        OptMethod::Descent,
        OptMethod::Relaxation,
    ];

    /// Opens and runs one cold walk of `engine` (which must miss).
    fn walk(
        engine: &OptEngine,
        game: &EffectiveGame,
        initial: &LinkLoads,
        check: OptCheckpoint<'_>,
    ) -> Result<OptRun> {
        let OptOpened::Walk(walk) = engine.open(game, initial, None) else {
            panic!("expected a warm-tier miss");
        };
        walk.run(check)
    }

    #[test]
    fn the_default_engine_is_exact_on_small_instances() {
        let game = mild_game();
        let initial = LinkLoads::zero(2);
        let engine = OptEngine::default();
        let outcome = engine.estimate(&game, &initial).unwrap();
        assert!(outcome.exact());
        let exact = crate::opt::exhaustive::social_optimum(&game, &initial, 1_000_000).unwrap();
        assert_eq!(outcome.opt1.lower, exact.opt1);
        assert_eq!(outcome.opt1.upper, exact.opt1);
        assert_eq!(outcome.opt2.lower, exact.opt2);
        assert_eq!(outcome.opt2.upper, exact.opt2);
        // Exhaustive settles the estimate in one conclusive attempt.
        assert_eq!(outcome.telemetry.attempts.len(), 1);
        assert_eq!(outcome.telemetry.attempts[0].method, OptMethod::Exhaustive);
        assert_eq!(
            outcome.telemetry.attempts[0].applicability,
            Applicability::Conclusive
        );
    }

    #[test]
    fn an_unfinished_search_falls_through_to_enumeration_with_the_same_bits() {
        // Seven nodes cannot finish an `n = 8` search, so enumeration runs
        // second and its exact answer is the one returned.
        let game = crate::opt::test_util::random_game(8, 4, 21);
        let initial = LinkLoads::zero(4);
        let config = OptConfig {
            node_limit: 7,
            ..OptConfig::default()
        };
        let engine =
            OptEngine::from_kinds(config, &[OptMethod::BranchAndBound, OptMethod::Exhaustive]);
        let outcome = engine.estimate(&game, &initial).unwrap();
        let exact = crate::opt::exhaustive::social_optimum(&game, &initial, u128::MAX).unwrap();
        assert!(outcome.exact());
        for (bracket, want) in [(outcome.opt1, exact.opt1), (outcome.opt2, exact.opt2)] {
            assert_eq!(bracket.lower.to_bits(), want.to_bits());
            assert_eq!(bracket.upper.to_bits(), want.to_bits());
        }
        let attempts: Vec<(OptMethod, bool)> = outcome
            .telemetry
            .attempts
            .iter()
            .map(|a| (a.method, a.exact))
            .collect();
        assert_eq!(
            attempts,
            [
                (OptMethod::BranchAndBound, false),
                (OptMethod::Exhaustive, true)
            ]
        );
        // Each objective's search spent its whole budget.
        assert_eq!(outcome.telemetry.attempts[0].iterations, Some(14));
    }

    #[test]
    fn bound_backends_alone_produce_a_valid_bracket() {
        let game = mild_game();
        let initial = LinkLoads::zero(2);
        let engine = OptEngine::from_kinds(
            OptConfig::default(),
            &[
                OptMethod::LptGreedy,
                OptMethod::Descent,
                OptMethod::Relaxation,
            ],
        );
        let outcome = engine.estimate(&game, &initial).unwrap();
        assert!(!outcome.exact());
        let exact = crate::opt::exhaustive::social_optimum(&game, &initial, 1_000_000).unwrap();
        assert!(
            outcome.opt1.contains(exact.opt1, 1e-9),
            "{:?}",
            outcome.opt1
        );
        assert!(
            outcome.opt2.contains(exact.opt2, 1e-9),
            "{:?}",
            outcome.opt2
        );
        assert!(outcome.opt1.lower > 0.0);
        assert!(outcome.opt2.lower > 0.0);
        assert!(outcome.opt1.width() >= 1.0);
    }

    #[test]
    fn an_engine_without_upper_bound_backends_errors_typed() {
        let game = mild_game();
        let initial = LinkLoads::zero(2);
        let engine = OptEngine::from_kinds(OptConfig::default(), &[OptMethod::Relaxation]);
        assert!(matches!(
            engine.estimate(&game, &initial),
            Err(GameError::EmptyBracket { which: "OPT1", .. })
        ));
        let empty = OptEngine::with_estimators(OptConfig::default(), Vec::new());
        assert!(matches!(
            empty.estimate(&game, &initial),
            Err(GameError::EmptyBracket { .. })
        ));
    }

    #[test]
    fn cache_hits_replay_the_cold_estimate_exactly() {
        let cache = Arc::new(OptCache::new());
        let engine = OptEngine::default().with_cache(Arc::clone(&cache));
        let game = mild_game();
        let initial = LinkLoads::zero(2);
        let cold = engine.estimate(&game, &initial).unwrap();
        let hit = engine.estimate(&game, &initial).unwrap();
        assert_eq!(cold, hit);
        let stats = engine.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

        // A different budget is a different key even on the same instance.
        let tighter = OptEngine::default_order(OptConfig {
            node_limit: 7,
            ..OptConfig::default()
        })
        .with_cache(Arc::clone(&cache));
        tighter.estimate(&game, &initial).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    }

    #[test]
    fn backend_ids_round_trip() {
        for kind in OptMethod::ALL {
            assert_eq!(OptMethod::parse(kind.id()), Some(kind));
            assert_eq!(kind.build().method(), kind);
        }
        assert_eq!(OptMethod::parse("alien"), None);
    }

    #[test]
    fn the_adaptive_mode_stops_at_the_width_goal_and_records_the_savings() {
        let game = mild_game();
        let initial = LinkLoads::zero(2);
        // A permissive goal over the bound backends: the cheap pair
        // (LptGreedy upper + Relaxation lower) must satisfy it and the
        // restart-hungry Descent must be skipped — with the skip recorded.
        let kinds = [
            OptMethod::Descent,   // deliberately listed first:
            OptMethod::LptGreedy, // adaptive mode must reorder by cost
            OptMethod::Relaxation,
        ];
        let adaptive = OptEngine::from_kinds(
            OptConfig {
                width_goal: Some(10.0),
                ..OptConfig::default()
            },
            &kinds,
        );
        let outcome = adaptive.estimate(&game, &initial).unwrap();
        assert!(outcome.opt1.meets_goal(10.0) && outcome.opt2.meets_goal(10.0));
        let ran: Vec<OptMethod> = outcome
            .telemetry
            .attempts
            .iter()
            .map(|a| a.method)
            .collect();
        assert_eq!(ran, vec![OptMethod::LptGreedy, OptMethod::Relaxation]);
        let saved: Vec<OptMethod> = outcome.telemetry.skipped.iter().map(|s| s.method).collect();
        assert_eq!(saved, vec![OptMethod::Descent]);

        // The fixed-budget engine over the same composition runs everything.
        let fixed = OptEngine::from_kinds(OptConfig::default(), &kinds);
        let full = fixed.estimate(&game, &initial).unwrap();
        assert_eq!(full.telemetry.attempts.len(), 3);
        assert!(full.telemetry.skipped.is_empty());
        assert!(
            outcome.telemetry.attempts.len() < full.telemetry.attempts.len(),
            "adaptive mode must spend strictly fewer attempts"
        );
        // Both brackets are certified; the adaptive one may only be looser.
        assert!(outcome.opt1.lower <= full.opt1.lower + 1e-12);
        assert!(outcome.opt1.upper >= full.opt1.upper - 1e-12);
    }

    #[test]
    fn an_unmet_width_goal_falls_through_to_the_full_composition() {
        let game = mild_game();
        let initial = LinkLoads::zero(2);
        // An unreachable goal (1 + ε over heuristic bounds) must degrade
        // gracefully: every applicable backend runs, exactly like the fixed
        // mode, and nothing is reported as skipped.
        let engine = OptEngine::from_kinds(
            OptConfig {
                width_goal: Some(1.0 + 1e-12),
                ..OptConfig::default()
            },
            &[
                OptMethod::LptGreedy,
                OptMethod::Descent,
                OptMethod::Relaxation,
            ],
        );
        let outcome = engine.estimate(&game, &initial).unwrap();
        assert_eq!(outcome.telemetry.attempts.len(), 3);
        assert!(outcome.telemetry.skipped.is_empty());
        assert!(!outcome.exact());
    }

    #[test]
    fn adaptive_exactness_still_wins_below_the_wall() {
        let game = mild_game();
        let initial = LinkLoads::zero(2);
        // Cost order tries the cheap bounds first; if they miss a tight
        // goal, the exact backends still settle the bracket to a point.
        let engine = OptEngine::default_order(OptConfig {
            width_goal: Some(1.0 + 1e-12),
            ..OptConfig::default()
        });
        let outcome = engine.estimate(&game, &initial).unwrap();
        assert!(outcome.exact());
        let exact = crate::opt::exhaustive::social_optimum(&game, &initial, 1_000_000).unwrap();
        assert_eq!(outcome.opt1.lower, exact.opt1);
        assert_eq!(outcome.opt2.lower, exact.opt2);
    }

    #[test]
    #[should_panic(expected = "finite ratio above 1.0")]
    fn a_degenerate_width_goal_is_a_constructor_contract_violation() {
        OptEngine::default_order(OptConfig {
            width_goal: Some(f64::NAN),
            ..OptConfig::default()
        });
    }

    #[test]
    fn a_never_checkpoint_walk_is_bit_identical_to_the_classic_estimate() {
        let game = mild_game();
        let initial = LinkLoads::zero(2);
        let engine = OptEngine::default();
        let classic = engine.estimate(&game, &initial).unwrap();
        let run = walk(&engine, &game, &initial, OptCheckpoint::never()).unwrap();
        assert!(!run.deadlined);
        // Telemetry wall clocks differ between runs; the brackets must not.
        assert_eq!(run.outcome.opt1, classic.opt1);
        assert_eq!(run.outcome.opt2, classic.opt2);
        assert_eq!(
            run.outcome.telemetry.attempts.len(),
            classic.telemetry.attempts.len()
        );
    }

    #[test]
    fn an_expired_checkpoint_still_certifies_a_partial_bracket() {
        let game = mild_game();
        let initial = LinkLoads::zero(2);
        // Bound backends only, so the walk has more than one estimator to
        // skip; the leading LptGreedy always runs and certifies an upper
        // bound even though the deadline fired before the walk began.
        let engine = OptEngine::from_kinds(OptConfig::default(), &BOUNDS);
        let expired = || true;
        let run = walk(&engine, &game, &initial, OptCheckpoint::new(&expired)).unwrap();
        assert!(run.deadlined);
        assert!(run.outcome.opt1.upper.is_finite());
        assert!(!run.outcome.opt1.exact && !run.outcome.opt2.exact);
        assert_eq!(run.outcome.telemetry.attempts.len(), 1);
        assert_eq!(
            run.outcome.telemetry.attempts[0].method,
            OptMethod::LptGreedy
        );
        // The unrun applicable backends are recorded, like an adaptive skip.
        let skipped: Vec<OptMethod> = run
            .outcome
            .telemetry
            .skipped
            .iter()
            .map(|s| s.method)
            .collect();
        assert_eq!(skipped, vec![OptMethod::Descent, OptMethod::Relaxation]);
        // The partial bracket stays certified: it contains the optimum.
        let exact = crate::opt::exhaustive::social_optimum(&game, &initial, 1_000_000).unwrap();
        assert!(run.outcome.opt1.contains(exact.opt1, 1e-9));
        assert!(run.outcome.opt2.contains(exact.opt2, 1e-9));
    }

    #[test]
    fn an_expired_checkpoint_over_lower_bounds_only_is_a_typed_error() {
        let game = mild_game();
        let initial = LinkLoads::zero(2);
        let engine = OptEngine::from_kinds(OptConfig::default(), &[OptMethod::Relaxation]);
        let expired = || true;
        assert!(matches!(
            walk(&engine, &game, &initial, OptCheckpoint::new(&expired)),
            Err(GameError::EmptyBracket { .. })
        ));
    }

    #[test]
    fn open_answers_hits_first_and_files_only_complete_walks() {
        let cache = Arc::new(OptCache::new());
        let engine =
            OptEngine::from_kinds(OptConfig::default(), &BOUNDS).with_cache(Arc::clone(&cache));
        let game = mild_game();
        let initial = LinkLoads::zero(2);

        // A deadlined walk files nothing.
        let expired = || true;
        let partial = walk(&engine, &game, &initial, OptCheckpoint::new(&expired)).unwrap();
        assert!(partial.deadlined);
        assert_eq!(cache.stats().entries, 0);

        // A complete walk files exactly what an uncached estimate returns.
        let complete = walk(&engine, &game, &initial, OptCheckpoint::never()).unwrap();
        assert!(!complete.deadlined);
        assert_eq!(cache.stats().entries, 1);
        let uncached = OptEngine::from_kinds(OptConfig::default(), &BOUNDS)
            .estimate(&game, &initial)
            .unwrap();
        assert_eq!(complete.outcome.opt1, uncached.opt1);
        assert_eq!(complete.outcome.opt2, uncached.opt2);
        assert_eq!(
            complete.outcome.telemetry.attempts.len(),
            uncached.telemetry.attempts.len()
        );

        // A hit answers before any walk runs, and `estimate` reads it too.
        let OptOpened::Hit(hit) = engine.open(&game, &initial, None) else {
            panic!("the complete walk must have filled the warm tier");
        };
        assert_eq!(hit, complete.outcome);
        assert_eq!(engine.estimate(&game, &initial).unwrap(), complete.outcome);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 1));
    }

    #[test]
    fn meets_goal_semantics() {
        assert!(OptBracket::exact(2.0).meets_goal(1.0));
        let wide = OptBracket {
            lower: 1.0,
            upper: 2.0,
            exact: false,
        };
        assert!(wide.meets_goal(2.0));
        assert!(!wide.meets_goal(1.5));
        assert!(!OptBracket::unresolved().meets_goal(1e12));
    }

    #[test]
    fn brackets_merge_by_intersection_and_exactness_wins() {
        let mut bracket = OptBracket::unresolved();
        bracket.merge(Some(1.0), None, false);
        bracket.merge(None, Some(3.0), false);
        bracket.merge(Some(0.5), Some(4.0), false); // looser bounds are ignored
        assert_eq!((bracket.lower, bracket.upper), (1.0, 3.0));
        assert!(!bracket.exact);
        bracket.merge(Some(2.0), Some(2.0), true);
        assert_eq!(bracket, OptBracket::exact(2.0));
        // Once exact, later contributions cannot move it.
        bracket.merge(Some(2.5), Some(1.5), false);
        assert_eq!(bracket, OptBracket::exact(2.0));
        assert_eq!(bracket.width(), 1.0);
        assert!(bracket.contains(2.0, 0.0));
    }
}
