//! The declarative request-policy tree and its interpreter.
//!
//! Requests do not pick a single algorithm; they carry a policy tree in the
//! geph5 `RouteDescriptor` idiom (SNIPPETS.md, snippet 3):
//!
//! * [`Policy::Solve`] / [`Policy::Bracket`] — leaves naming an ordered
//!   engine composition by registry id, with optional budget overrides.
//! * [`Policy::Race`] — solve-only: step every child leaf **in lockstep
//!   passes** and return the first completed child that found an
//!   equilibrium. The winner is decided by `(completion round, child
//!   index)`, which depends only on pass counts — never on wall-clock — so
//!   races are deterministic.
//! * [`Policy::Fallback`] — try children in order; move on when a child
//!   completes without a solution, misses its width goal, deadlines, or
//!   fails; the last child's outcome is returned as-is, except that a
//!   bracket fallback whose last child fails or deadlines returns the
//!   certified brackets of the latest earlier child that completed.
//! * [`Policy::Timeout`] — evaluate the inner policy under a deadline,
//!   enforced **cooperatively at pass granularity**: a solve leaf steps
//!   the engine's own [`EngineRun`](netuncert_core::solvers::EngineRun)
//!   and checks the clock between steps (kernel passes and atomic units),
//!   never mid-pass, so any result that is produced is bit-identical to an
//!   undeadlined run. Atomic units — closed-form solvers, exhaustive
//!   enumeration — are never interrupted; an expired deadline is only
//!   noticed at the next boundary. Bracket leaves are **not** atomic: the
//!   deadline is threaded into the estimator walk as an
//!   [`OptCheckpoint`], which the long-running estimators poll between
//!   units of work (branch-and-bound node batches, bisection iterations,
//!   descent restarts). A deadline that fires mid-leaf yields a
//!   [`BracketEval::Partial`] carrying the certified best-so-far brackets.
//!
//! Every leaf shares the service's warm tier. A solve leaf opens and steps
//! runs of the very `SolverEngine` a direct call with the same composition
//! and budgets builds; a bracket leaf keys with the same core function
//! (`opt::cache::cache_key`) as a direct `OptEngine` call. Both use the
//! instance digest the request was built with, so service answers and
//! direct engine calls read and write the same entries and stay
//! replay-exact.

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use netuncert_core::obs::{Recorder, SpanId};
use netuncert_core::opt::cache::cache_key as opt_cache_key;
use netuncert_core::prelude::{
    EffectiveGame, EngineSolution, GameError, InstanceKey, KernelScratch, LinkLoads, Opened,
    OptBackendKind, OptCache, OptCheckpoint, OptConfig, OptEngine, OptMethod, OptOutcome,
    SolveCache, SolverConfig, SolverEngine, SolverKind,
};

use crate::protocol::{ErrorKind, WireError};

/// Deepest accepted policy nesting; anything deeper is rejected as
/// [`ErrorKind::InvalidRequest`] before evaluation.
pub const MAX_POLICY_DEPTH: usize = 8;

/// Longest accepted deadline, milliseconds (one hour). A deadline is an
/// overload-protection device, not a scheduler; anything longer is almost
/// certainly a unit mistake — and unbounded values would overflow the
/// `Instant` arithmetic that resolves them ([`ErrorKind::InvalidDeadline`]).
pub const MAX_DEADLINE_MS: i64 = 3_600_000;

/// A declarative description of how to answer a request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// Run an ordered solver composition (solve requests only).
    Solve(SolveLeaf),
    /// Run an ordered estimator composition (bracket/measure requests only).
    Bracket(BracketLeaf),
    /// Step the child solve leaves in lockstep; first equilibrium wins.
    Race(Vec<Policy>),
    /// Try children in order until one succeeds.
    Fallback(Vec<Policy>),
    /// Evaluate the inner policy under a deadline.
    Timeout(TimeoutPolicy),
}

impl Policy {
    /// Whether any node in the tree is a [`Policy::Timeout`]. Such policies
    /// give timing-dependent answers (a request may or may not beat its
    /// deadline), so they are excluded from the byte-for-byte replay
    /// contract ([`crate::replay`]).
    pub fn has_timeout(&self) -> bool {
        match self {
            Policy::Solve(_) | Policy::Bracket(_) => false,
            Policy::Race(children) | Policy::Fallback(children) => {
                children.iter().any(Policy::has_timeout)
            }
            Policy::Timeout(_) => true,
        }
    }
}

/// A solve leaf: solver registry ids (in engine order) plus optional budget
/// overrides on top of the service's base [`SolverConfig`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveLeaf {
    /// Registry ids accepted by `SolverKind::parse` (e.g. `"local_search"`).
    pub solvers: Vec<String>,
    /// Restart-budget override for `LocalSearch`, or `null`.
    pub restarts: Option<u64>,
    /// Step-budget override for best-response dynamics, or `null`.
    pub max_steps: Option<u64>,
}

/// A bracket leaf: estimator registry ids plus an optional adaptive width
/// goal on top of the service's base [`OptConfig`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BracketLeaf {
    /// Registry ids accepted by `OptBackendKind::parse` (e.g. `"lpt"`).
    pub backends: Vec<String>,
    /// Adaptive width goal (finite, `> 1.0`), or `null` for fixed budgets.
    pub width_goal: Option<f64>,
    /// Restart-budget override for `Descent`, or `null`.
    pub restarts: Option<u64>,
}

/// A deadline wrapper around an inner policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeoutPolicy {
    /// Deadline in milliseconds from request start; must be positive.
    pub ms: i64,
    /// The policy to evaluate under the deadline.
    pub lower: Box<Policy>,
}

/// Which leaf kind a request's policy tree must bottom out in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyMode {
    /// `Solve` requests: only [`Policy::Solve`] leaves.
    Solve,
    /// `Bracket`/`Measure` requests: only [`Policy::Bracket`] leaves.
    Bracket,
}

impl SolveLeaf {
    /// Resolves registry ids and merges budget overrides onto `base`.
    fn resolve(&self, base: &SolverConfig) -> Result<(Vec<SolverKind>, SolverConfig), WireError> {
        if self.solvers.is_empty() {
            return Err(WireError::new(
                ErrorKind::InvalidRequest,
                "a Solve leaf needs at least one solver id",
            ));
        }
        let mut kinds = Vec::with_capacity(self.solvers.len());
        for id in &self.solvers {
            match SolverKind::parse(id) {
                Some(kind) => kinds.push(kind),
                None => {
                    return Err(WireError::new(
                        ErrorKind::UnknownPolicy,
                        format!("unknown solver id `{id}`"),
                    ))
                }
            }
        }
        let mut config = *base;
        if let Some(restarts) = self.restarts {
            config.restarts = restarts as usize;
        }
        if let Some(max_steps) = self.max_steps {
            config.max_steps = max_steps as usize;
        }
        Ok((kinds, config))
    }
}

impl BracketLeaf {
    /// Resolves registry ids and validates/merges the width goal onto
    /// `base`. The goal is checked here so a bad request becomes a typed
    /// error instead of tripping `OptEngine`'s constructor contract.
    fn resolve(&self, base: &OptConfig) -> Result<(Vec<OptBackendKind>, OptConfig), WireError> {
        if self.backends.is_empty() {
            return Err(WireError::new(
                ErrorKind::InvalidRequest,
                "a Bracket leaf needs at least one backend id",
            ));
        }
        let mut kinds = Vec::with_capacity(self.backends.len());
        for id in &self.backends {
            match OptBackendKind::parse(id) {
                Some(kind) => kinds.push(kind),
                None => {
                    return Err(WireError::new(
                        ErrorKind::UnknownPolicy,
                        format!("unknown opt backend id `{id}`"),
                    ))
                }
            }
        }
        let mut config = *base;
        if let Some(goal) = self.width_goal {
            if !(goal.is_finite() && goal > 1.0) {
                return Err(WireError::new(
                    ErrorKind::InvalidRequest,
                    format!("width_goal must be a finite ratio above 1.0, got {goal}"),
                ));
            }
            config.width_goal = Some(goal);
        }
        if let Some(restarts) = self.restarts {
            config.restarts = restarts as usize;
        }
        Ok((kinds, config))
    }
}

/// Validates a policy tree for `mode` without evaluating anything: leaf
/// kinds match the request verb, registry ids resolve, deadlines are
/// positive, `Race` only wraps solve leaves, and the nesting depth is
/// bounded.
pub fn validate(policy: &Policy, mode: PolicyMode) -> Result<(), WireError> {
    validate_at(policy, mode, 0)
}

fn validate_at(policy: &Policy, mode: PolicyMode, depth: usize) -> Result<(), WireError> {
    if depth > MAX_POLICY_DEPTH {
        return Err(WireError::new(
            ErrorKind::InvalidRequest,
            format!("policy tree deeper than {MAX_POLICY_DEPTH}"),
        ));
    }
    match policy {
        Policy::Solve(leaf) => {
            if mode != PolicyMode::Solve {
                return Err(WireError::new(
                    ErrorKind::InvalidRequest,
                    "a Solve leaf is not allowed in a bracket policy",
                ));
            }
            leaf.resolve(&SolverConfig::default()).map(|_| ())
        }
        Policy::Bracket(leaf) => {
            if mode != PolicyMode::Bracket {
                return Err(WireError::new(
                    ErrorKind::InvalidRequest,
                    "a Bracket leaf is not allowed in a solve policy",
                ));
            }
            leaf.resolve(&OptConfig::default()).map(|_| ())
        }
        Policy::Race(children) => {
            if mode != PolicyMode::Solve {
                return Err(WireError::new(
                    ErrorKind::InvalidRequest,
                    "Race is only defined for solve policies",
                ));
            }
            if children.is_empty() {
                return Err(WireError::new(
                    ErrorKind::InvalidRequest,
                    "Race needs at least one child",
                ));
            }
            for child in children {
                match child {
                    Policy::Solve(leaf) => leaf.resolve(&SolverConfig::default()).map(|_| ())?,
                    _ => {
                        return Err(WireError::new(
                            ErrorKind::InvalidRequest,
                            "Race children must be Solve leaves",
                        ))
                    }
                }
            }
            Ok(())
        }
        Policy::Fallback(children) => {
            if children.is_empty() {
                return Err(WireError::new(
                    ErrorKind::InvalidRequest,
                    "Fallback needs at least one child",
                ));
            }
            for child in children {
                validate_at(child, mode, depth + 1)?;
            }
            Ok(())
        }
        Policy::Timeout(timeout) => {
            check_deadline_ms(timeout.ms)?;
            validate_at(&timeout.lower, mode, depth + 1)
        }
    }
}

/// Rejects non-positive and over-long deadlines as
/// [`ErrorKind::InvalidDeadline`] (shared by validation and evaluation, so
/// a tree that skipped validation still cannot reach the `Instant` math
/// with a degenerate value).
fn check_deadline_ms(ms: i64) -> Result<(), WireError> {
    if ms <= 0 {
        return Err(WireError::new(
            ErrorKind::InvalidDeadline,
            format!("deadline must be positive, got {ms} ms"),
        ));
    }
    if ms > MAX_DEADLINE_MS {
        return Err(WireError::new(
            ErrorKind::InvalidDeadline,
            format!("deadline must be at most {MAX_DEADLINE_MS} ms (one hour), got {ms} ms"),
        ));
    }
    Ok(())
}

/// Resolves a validated `ms` against the clock and an optional outer
/// deadline. `checked_add` is a second line of defence behind
/// [`check_deadline_ms`]: even a value that slipped past validation can
/// only become a typed error, never an `Instant` overflow panic.
fn resolve_deadline(ms: i64, outer: Option<Instant>) -> Result<Instant, WireError> {
    check_deadline_ms(ms)?;
    let inner = Instant::now()
        .checked_add(Duration::from_millis(ms as u64))
        .ok_or_else(|| {
            WireError::new(
                ErrorKind::InvalidDeadline,
                format!("deadline of {ms} ms is beyond representable time"),
            )
        })?;
    Ok(outer.map_or(inner, |outer| outer.min(inner)))
}

/// Everything a policy evaluation needs from the service.
pub struct EvalCtx<'a> {
    /// The validated instance.
    pub game: &'a EffectiveGame,
    /// Its initial link loads.
    pub initial: &'a LinkLoads,
    /// The digest of `(game, initial)`, computed once when the request was
    /// built; every leaf's warm-tier key reuses it.
    pub instance: InstanceKey,
    /// The shared solve warm tier.
    pub solve_cache: &'a Arc<SolveCache>,
    /// The shared opt warm tier.
    pub opt_cache: &'a Arc<OptCache>,
    /// Base solver budgets that leaves override.
    pub base_solver: SolverConfig,
    /// Base opt budgets that leaves override.
    pub base_opt: OptConfig,
    /// Observability probes; threaded into every engine a leaf builds. The
    /// disabled default keeps policy evaluation probe-free.
    pub recorder: Recorder,
    /// Parent span for the per-leaf spans (the request-level span opened by
    /// the handler), if one is being recorded.
    pub parent_span: Option<SpanId>,
}

/// Records how much deadline was left when an evaluation completed — the
/// "slack" a timed-out policy tree finished with. No-op when disabled.
fn record_slack(ctx: &EvalCtx<'_>, deadline: Instant) {
    if !ctx.recorder.enabled() {
        return;
    }
    let slack = deadline
        .checked_duration_since(Instant::now())
        .map_or(0, |left| left.as_nanos().min(u128::from(u64::MAX)) as u64);
    ctx.recorder.record("policy.deadline_slack_ns", slack);
}

/// How a solve policy ended.
pub enum SolveEval {
    /// The policy completed; the engine solution may or may not hold an
    /// equilibrium.
    Done(EngineSolution),
    /// A deadline fired before the policy completed.
    Deadline,
}

/// A completed bracket leaf plus whether its own width goal was met (always
/// `true` for leaves without a goal) — what [`Policy::Fallback`] dispatches
/// on.
pub struct BracketDone {
    /// The certified outcome.
    pub outcome: OptOutcome,
    /// Whether both brackets meet the leaf's width goal.
    pub goal_met: bool,
}

/// How a bracket policy ended.
pub enum BracketEval {
    /// The policy completed with certified brackets.
    Done(BracketDone),
    /// A deadline fired inside a bracket leaf; the certified best-so-far
    /// outcome at the last checkpoint.
    Partial(OptOutcome),
    /// A deadline fired before any leaf produced anything certifiable.
    Deadline,
}

/// Evaluates a solve policy. `deadline`, when set, is enforced at pass
/// granularity (see the [module docs](self)).
pub fn eval_solve(
    policy: &Policy,
    ctx: &EvalCtx<'_>,
    deadline: Option<Instant>,
) -> Result<SolveEval, WireError> {
    match policy {
        Policy::Solve(leaf) => {
            let span = ctx.recorder.span_under("solve_leaf", ctx.parent_span);
            let result = solve_leaf(leaf, ctx, deadline);
            span.finish();
            result
        }
        Policy::Race(children) => race_solve(children, ctx, deadline),
        Policy::Fallback(children) => {
            for (i, child) in children.iter().enumerate() {
                let last = i + 1 == children.len();
                match eval_solve(child, ctx, deadline) {
                    Ok(SolveEval::Done(solved)) if solved.solution.is_some() => {
                        return Ok(SolveEval::Done(solved))
                    }
                    other if last => return other,
                    // No solution, deadline, or a failing child: fall through
                    // to the next sibling.
                    _ => {}
                }
            }
            Err(WireError::new(
                ErrorKind::InvalidRequest,
                "Fallback needs at least one child",
            ))
        }
        Policy::Timeout(timeout) => {
            let effective = resolve_deadline(timeout.ms, deadline)?;
            eval_solve(&timeout.lower, ctx, Some(effective))
        }
        Policy::Bracket(_) => Err(WireError::new(
            ErrorKind::InvalidRequest,
            "a Bracket leaf is not allowed in a solve policy",
        )),
    }
}

/// Evaluates a bracket policy. Under a deadline, a bracket leaf is **not**
/// atomic: the estimator walk polls an [`OptCheckpoint`] between units of
/// work, so an expired deadline yields the certified best-so-far brackets
/// as [`BracketEval::Partial`] instead of an all-or-nothing answer.
pub fn eval_bracket(
    policy: &Policy,
    ctx: &EvalCtx<'_>,
    deadline: Option<Instant>,
) -> Result<BracketEval, WireError> {
    match policy {
        Policy::Bracket(leaf) => {
            let (kinds, config) = leaf.resolve(&ctx.base_opt)?;
            let span = ctx.recorder.span_under("bracket_leaf", ctx.parent_span);
            let result = match deadline {
                // No deadline: this IS a direct engine call sharing the warm
                // tier — trivially bit-identical to in-process replay.
                None => {
                    let engine = OptEngine::from_kinds(config, &kinds)
                        .with_cache(Arc::clone(ctx.opt_cache))
                        .with_recorder(ctx.recorder.clone());
                    match engine.estimate_keyed(ctx.game, ctx.initial, ctx.instance) {
                        Ok(outcome) => Ok(BracketEval::Done(leaf_done(leaf, outcome))),
                        Err(e) => Err(WireError::engine(&e)),
                    }
                }
                Some(deadline) => bracket_leaf_under(leaf, &kinds, config, ctx, deadline),
            };
            span.finish();
            result
        }
        Policy::Fallback(children) => {
            // The most recent child that completed but missed its goal.
            let mut missed: Option<BracketDone> = None;
            for (i, child) in children.iter().enumerate() {
                let last = i + 1 == children.len();
                match eval_bracket(child, ctx, deadline) {
                    Ok(BracketEval::Done(done)) if done.goal_met || last => {
                        return Ok(BracketEval::Done(done))
                    }
                    Ok(BracketEval::Done(done)) => missed = Some(done),
                    // A partial bracket means the deadline has already
                    // fired: later children could at best add a plain
                    // Deadline, losing the certified bounds — return it.
                    Ok(BracketEval::Partial(outcome)) => return Ok(BracketEval::Partial(outcome)),
                    // The last child failed (e.g. every backend in it is
                    // inapplicable at this size) or hit the deadline: the
                    // certified bounds of an earlier goal miss beat no
                    // answer.
                    other if last => {
                        return match missed {
                            Some(done) => Ok(BracketEval::Done(done)),
                            None => other,
                        }
                    }
                    // Goal miss, deadline, or a failing child (e.g. a
                    // composition with no finite upper bound): fall through.
                    _ => {}
                }
            }
            Err(WireError::new(
                ErrorKind::InvalidRequest,
                "Fallback needs at least one child",
            ))
        }
        Policy::Timeout(timeout) => {
            let effective = resolve_deadline(timeout.ms, deadline)?;
            eval_bracket(&timeout.lower, ctx, Some(effective))
        }
        Policy::Solve(_) | Policy::Race(_) => Err(WireError::new(
            ErrorKind::InvalidRequest,
            "only Bracket leaves (and Fallback/Timeout) are allowed in a bracket policy",
        )),
    }
}

/// Wraps a completed outcome with the leaf's width-goal verdict.
fn leaf_done(leaf: &BracketLeaf, outcome: OptOutcome) -> BracketDone {
    let goal_met = leaf
        .width_goal
        .is_none_or(|goal| outcome.opt1.meets_goal(goal) && outcome.opt2.meets_goal(goal));
    BracketDone { outcome, goal_met }
}

/// The deadline path of a single bracket leaf: a counting warm-tier lookup
/// (a hit wins even against an already-expired deadline, keeping cached
/// requests flowing under load), then a cold `estimate_under` walk with the
/// deadline threaded in as an [`OptCheckpoint`]. Only **complete** walks
/// are inserted into the warm tier — a partial bracket must never poison
/// it.
fn bracket_leaf_under(
    leaf: &BracketLeaf,
    kinds: &[OptBackendKind],
    config: OptConfig,
    ctx: &EvalCtx<'_>,
    deadline: Instant,
) -> Result<BracketEval, WireError> {
    let methods: Vec<OptMethod> = kinds.iter().map(|k| k.method()).collect();
    let key = opt_cache_key(&methods, &config, ctx.game, ctx.initial, ctx.instance);
    if let Some(hit) = ctx.opt_cache.lookup(&key) {
        record_slack(ctx, deadline);
        return Ok(BracketEval::Done(leaf_done(leaf, hit)));
    }
    let expired = move || Instant::now() >= deadline;
    let engine = OptEngine::from_kinds(config, kinds).with_recorder(ctx.recorder.clone());
    match engine.estimate_under(ctx.game, ctx.initial, OptCheckpoint::new(&expired)) {
        Ok(run) if run.deadlined => Ok(BracketEval::Partial(run.outcome)),
        Ok(run) => {
            ctx.opt_cache.insert(&key, run.outcome.clone());
            record_slack(ctx, deadline);
            Ok(BracketEval::Done(leaf_done(leaf, run.outcome)))
        }
        // A walk cut down before any upper-bound backend ran has nothing
        // certifiable to report — the plain deadline outcome, not an error.
        Err(GameError::EmptyBracket { .. }) if expired() => Ok(BracketEval::Deadline),
        Err(e) => Err(WireError::engine(&e)),
    }
}

/// The engine a solve leaf names: its composition and budgets over the
/// service's warm tier and recorder — exactly the engine a direct
/// in-process call would build.
fn leaf_engine(leaf: &SolveLeaf, ctx: &EvalCtx<'_>) -> Result<SolverEngine, WireError> {
    let (kinds, config) = leaf.resolve(&ctx.base_solver)?;
    Ok(SolverEngine::from_kinds(config, &kinds)
        .with_cache(Arc::clone(ctx.solve_cache))
        .with_recorder(ctx.recorder.clone()))
}

/// One solve leaf: open the engine's run (a warm hit wins even against an
/// already-expired deadline, keeping cached requests flowing under load),
/// then step it with the clock checked before every step. Without a
/// deadline this is exactly [`SolverEngine::solve_keyed`].
fn solve_leaf(
    leaf: &SolveLeaf,
    ctx: &EvalCtx<'_>,
    deadline: Option<Instant>,
) -> Result<SolveEval, WireError> {
    let engine = leaf_engine(leaf, ctx)?;
    let mut run = match engine.open(ctx.game, ctx.initial, Some(ctx.instance)) {
        Opened::Hit(hit) => return Ok(done_by(ctx, deadline, hit)),
        Opened::Run(run) => run,
    };
    let mut scratch = KernelScratch::new();
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(SolveEval::Deadline);
        }
        if run.step(&mut scratch) {
            break;
        }
    }
    let solved = run.finish().map_err(|e| WireError::engine(&e))?;
    Ok(done_by(ctx, deadline, solved))
}

/// A completed solve, recording the deadline slack it finished with.
fn done_by(ctx: &EvalCtx<'_>, deadline: Option<Instant>, solved: EngineSolution) -> SolveEval {
    if let Some(deadline) = deadline {
        record_slack(ctx, deadline);
    }
    SolveEval::Done(solved)
}

/// Lockstep race over solve leaves. Warm-tier hits complete in round zero;
/// cold lanes advance one run step per round. The first completed lane
/// holding an equilibrium — earliest round, lowest index — wins; if every
/// lane completes without one, the first lane's outcome is returned.
/// Completed cold lanes file their answers in the warm tier whether or not
/// they win; lanes still running when the race is decided file nothing.
fn race_solve(
    children: &[Policy],
    ctx: &EvalCtx<'_>,
    deadline: Option<Instant>,
) -> Result<SolveEval, WireError> {
    let mut engines = Vec::with_capacity(children.len());
    for child in children {
        let Policy::Solve(leaf) = child else {
            return Err(WireError::new(
                ErrorKind::InvalidRequest,
                "Race children must be Solve leaves",
            ));
        };
        engines.push(leaf_engine(leaf, ctx)?);
    }
    // Every lane solves the same game, so they share its kernel rows.
    let mut finished: Vec<Option<Result<EngineSolution, GameError>>> = Vec::new();
    let mut runs = Vec::new();
    for engine in &engines {
        match engine.open(ctx.game, ctx.initial, Some(ctx.instance)) {
            Opened::Hit(hit) => {
                finished.push(Some(Ok(hit)));
                runs.push(None);
            }
            Opened::Run(run) => {
                finished.push(None);
                runs.push(Some(run));
            }
        }
    }
    let mut scratch = KernelScratch::new();
    loop {
        // Winner check at the round boundary: earliest round wins because
        // lanes only ever complete inside a round; ties break by index.
        let winner = finished
            .iter()
            .flatten()
            .flatten()
            .find(|solved| solved.solution.is_some());
        if let Some(solved) = winner {
            return Ok(done_by(ctx, deadline, solved.clone()));
        }
        if finished.iter().all(Option::is_some) {
            // Nobody found an equilibrium: the first lane's outcome stands.
            return match finished.swap_remove(0).expect("all finished") {
                Ok(solved) => Ok(done_by(ctx, deadline, solved)),
                Err(e) => Err(WireError::engine(&e)),
            };
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(SolveEval::Deadline);
        }
        for (slot, result) in runs.iter_mut().zip(&mut finished) {
            let Some(run) = slot else { continue };
            if run.step(&mut scratch) {
                *result = slot.take().map(|run| run.finish());
            }
        }
    }
}

/// Answers a solve policy **purely from the warm tier**, or punts with
/// `None` when any cold work (or any deadline bookkeeping) would be needed.
///
/// This is the connection reader's fast path under back-pressure: a
/// `Some` here is exactly what the full [`eval_solve`] walk would return,
/// because every combinator consults the warm tier before it does or
/// decides anything else (leaves look up before stepping, races check
/// round-zero winners before stepping or checking the clock, fallbacks
/// return the first cached solution outright). Lookups are the engine's own
/// **counting** lookups, so a punted request's misses are later recounted
/// by the worker — the documented cache-counter tolerance.
pub fn eval_solve_cached(policy: &Policy, ctx: &EvalCtx<'_>) -> Option<EngineSolution> {
    let lookup = |leaf: &SolveLeaf| {
        let (kinds, config) = leaf.resolve(&ctx.base_solver).ok()?;
        let engine =
            SolverEngine::from_kinds(config, &kinds).with_cache(Arc::clone(ctx.solve_cache));
        Some(engine.lookup(ctx.game, ctx.initial, Some(ctx.instance)))
    };
    match policy {
        Policy::Solve(leaf) => lookup(leaf)?,
        Policy::Race(children) => {
            let mut hits = Vec::with_capacity(children.len());
            for child in children {
                let Policy::Solve(leaf) = child else {
                    return None;
                };
                hits.push(lookup(leaf)?);
            }
            // Round zero of the lockstep race: the earliest lane (by index)
            // that completed from the cache *with* an equilibrium wins
            // before any cold lane gets to step.
            if let Some(winner) = hits
                .iter()
                .flatten()
                .find(|solved| solved.solution.is_some())
            {
                return Some(winner.clone());
            }
            // All lanes warm, none with a solution: lane 0's outcome stands.
            if hits.iter().all(Option::is_some) {
                return hits.swap_remove(0);
            }
            None
        }
        Policy::Fallback(children) => {
            for (i, child) in children.iter().enumerate() {
                let last = i + 1 == children.len();
                let solved = eval_solve_cached(child, ctx)?;
                if solved.solution.is_some() || last {
                    return Some(solved);
                }
                // Cached but unsolved: the full walk falls through too.
            }
            None
        }
        Policy::Timeout(_) | Policy::Bracket(_) => None,
    }
}

/// The bracket twin of [`eval_solve_cached`]: answers a bracket policy
/// purely from the warm tier, or punts with `None`.
pub fn eval_bracket_cached(policy: &Policy, ctx: &EvalCtx<'_>) -> Option<BracketDone> {
    match policy {
        Policy::Bracket(leaf) => {
            let (kinds, config) = leaf.resolve(&ctx.base_opt).ok()?;
            let methods: Vec<OptMethod> = kinds.iter().map(|k| k.method()).collect();
            let key = opt_cache_key(&methods, &config, ctx.game, ctx.initial, ctx.instance);
            let hit = ctx.opt_cache.lookup(&key)?;
            Some(leaf_done(leaf, hit))
        }
        Policy::Fallback(children) => {
            for (i, child) in children.iter().enumerate() {
                let last = i + 1 == children.len();
                let done = eval_bracket_cached(child, ctx)?;
                if done.goal_met || last {
                    return Some(done);
                }
            }
            None
        }
        Policy::Timeout(_) | Policy::Solve(_) | Policy::Race(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(ids: &[&str]) -> Policy {
        Policy::Solve(SolveLeaf {
            solvers: ids.iter().map(|s| s.to_string()).collect(),
            restarts: None,
            max_steps: None,
        })
    }

    fn bracket_leaf(ids: &[&str], goal: Option<f64>) -> Policy {
        Policy::Bracket(BracketLeaf {
            backends: ids.iter().map(|s| s.to_string()).collect(),
            width_goal: goal,
            restarts: None,
        })
    }

    #[test]
    fn validation_accepts_the_canonical_trees() {
        let race = Policy::Race(vec![leaf(&["local_search"]), leaf(&["best_response"])]);
        let wrapped = Policy::Timeout(TimeoutPolicy {
            ms: 50,
            lower: Box::new(Policy::Fallback(vec![race, leaf(&["exhaustive"])])),
        });
        validate(&wrapped, PolicyMode::Solve).unwrap();
        let brackets = Policy::Fallback(vec![
            bracket_leaf(&["lpt", "relaxation"], Some(1.5)),
            bracket_leaf(&["exhaustive", "branch_and_bound", "descent"], None),
        ]);
        validate(&brackets, PolicyMode::Bracket).unwrap();
    }

    #[test]
    fn validation_rejects_unknown_ids_and_kind_mismatches() {
        let err = validate(&leaf(&["alien"]), PolicyMode::Solve).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownPolicy);
        let err = validate(&leaf(&["local_search"]), PolicyMode::Bracket).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        let err = validate(&bracket_leaf(&["lpt"], None), PolicyMode::Solve).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        let err = validate(
            &Policy::Race(vec![bracket_leaf(&["lpt"], None)]),
            PolicyMode::Solve,
        )
        .unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        let err = validate(&bracket_leaf(&["lpt"], Some(0.5)), PolicyMode::Bracket).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
    }

    #[test]
    fn validation_rejects_bad_deadlines_and_deep_nests() {
        for ms in [0, -5] {
            let err = validate(
                &Policy::Timeout(TimeoutPolicy {
                    ms,
                    lower: Box::new(leaf(&["two_links"])),
                }),
                PolicyMode::Solve,
            )
            .unwrap_err();
            assert_eq!(err.kind, ErrorKind::InvalidDeadline);
        }
        let mut deep = leaf(&["two_links"]);
        for _ in 0..=MAX_POLICY_DEPTH {
            deep = Policy::Fallback(vec![deep]);
        }
        let err = validate(&deep, PolicyMode::Solve).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
    }

    #[test]
    fn over_long_deadlines_are_rejected_not_overflowed() {
        // i64::MAX ms used to overflow `Instant + Duration` and panic the
        // worker; now every over-cap value is a typed InvalidDeadline from
        // validation AND from the evaluator's own resolution step.
        for ms in [MAX_DEADLINE_MS + 1, i64::MAX] {
            let wrapped = Policy::Timeout(TimeoutPolicy {
                ms,
                lower: Box::new(leaf(&["two_links"])),
            });
            let err = validate(&wrapped, PolicyMode::Solve).unwrap_err();
            assert_eq!(err.kind, ErrorKind::InvalidDeadline);
            let err = resolve_deadline(ms, None).unwrap_err();
            assert_eq!(err.kind, ErrorKind::InvalidDeadline);
        }
        // The cap itself is fine.
        resolve_deadline(MAX_DEADLINE_MS, None).unwrap();
    }

    #[test]
    fn nested_deadlines_resolve_to_the_tighter_instant() {
        let outer = Instant::now();
        let resolved = resolve_deadline(1_000, Some(outer)).unwrap();
        assert_eq!(resolved, outer);
        let resolved = resolve_deadline(1, None).unwrap();
        assert!(resolved > Instant::now() - Duration::from_secs(1));
    }

    #[test]
    fn empty_leaves_and_combinators_are_rejected() {
        let err = validate(&leaf(&[]), PolicyMode::Solve).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        let err = validate(&Policy::Fallback(Vec::new()), PolicyMode::Solve).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        let err = validate(&Policy::Race(Vec::new()), PolicyMode::Solve).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
    }
}
