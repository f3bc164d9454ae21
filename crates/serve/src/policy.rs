//! The declarative request-policy tree, the plan it compiles to, and the
//! one interpreter that walks the plan.
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
//!   descent restarts). A deadline that fires mid-leaf yields a partial
//!   answer carrying the certified best-so-far brackets.
//!
//! A request's policy is compiled once, when the request is built: the
//! compile step checks the tree against the verb, resolves every leaf's
//! registry ids, merges its budget overrides onto the core defaults, and
//! produces a solve plan or a bracket plan. A plan cannot hold a Bracket
//! leaf in a solve tree, a Race child that is not a solve leaf, or a
//! combinator without children, so nothing is checked twice.
//!
//! One interpreter walks a plan under a budget. The connection reader
//! first walks it *warm-only*: every leaf opens its engine exactly as on
//! the cold walk, and the first cold step — a leaf's warm-tier miss, or
//! any `Timeout` node — ends the walk with a punt. The reader then takes a
//! compute permit and walks the same plan *cold*, under the deadline of
//! any `Timeout` node. Every other step is the same combinator code in
//! both modes, so whatever the warm probe answers is what the cold walk
//! would have answered.
//!
//! Every leaf reaches the service's warm tier only through its engine's own
//! `open` ([`SolverEngine::open`], [`OptEngine::open`]), keyed with the
//! instance digest the request was built with, so service answers and
//! direct engine calls read and write the same entries and stay
//! replay-exact.

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use netuncert_core::prelude::{
    EffectiveGame, EngineSolution, GameError, InstanceKey, KernelScratch, LinkLoads, MethodKind,
    MethodList, MethodListError, Opened, OptCache, OptCheckpoint, OptConfig, OptEngine, OptMethod,
    OptOpened, OptOutcome, PureNashMethod, SolveCache, SolverConfig, SolverEngine,
};

use crate::protocol::{ErrorKind, WireError};
use crate::state::ObsHandles;

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
/// overrides on top of the default [`SolverConfig`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveLeaf {
    /// Solver registry ids (e.g. `"local_search"`), in engine order, each at
    /// most once.
    pub solvers: Vec<String>,
    /// Restart-budget override for `LocalSearch`, or `null`.
    pub restarts: Option<u64>,
    /// Step-budget override for best-response dynamics, or `null`.
    pub max_steps: Option<u64>,
}

/// A bracket leaf: estimator registry ids plus an optional adaptive width
/// goal on top of the default [`OptConfig`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BracketLeaf {
    /// Estimator registry ids (e.g. `"lpt"`), in engine order, each at most
    /// once.
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

/// Resolves a leaf's registry ids into a [`MethodList`]: an unknown id is
/// [`ErrorKind::UnknownPolicy`]; an empty list (answered with `empty`) or a
/// repeated id is [`ErrorKind::InvalidRequest`].
fn method_list<K: MethodKind>(ids: &[String], empty: &str) -> Result<MethodList<K>, WireError> {
    MethodList::from_ids(ids).map_err(|e| match e {
        MethodListError::Unknown(id) => WireError::new(
            ErrorKind::UnknownPolicy,
            format!("unknown {} id `{id}`", K::NOUN),
        ),
        MethodListError::Empty => invalid(empty),
        duplicate @ MethodListError::Duplicate(_) => invalid(duplicate.to_string()),
    })
}

impl SolveLeaf {
    /// Resolves registry ids and merges budget overrides onto the core
    /// defaults.
    fn compile(&self) -> Result<SolveSpec, WireError> {
        let kinds = method_list(&self.solvers, "a Solve leaf needs at least one solver id")?;
        let mut config = SolverConfig::default();
        if let Some(restarts) = self.restarts {
            config.restarts = restarts as usize;
        }
        if let Some(max_steps) = self.max_steps {
            config.max_steps = max_steps as usize;
        }
        Ok(SolveSpec { kinds, config })
    }
}

impl BracketLeaf {
    /// Resolves registry ids and validates/merges the width goal onto the
    /// core defaults. The goal is checked here so a bad request becomes a
    /// typed error instead of tripping `OptEngine`'s constructor contract.
    fn compile(&self) -> Result<BracketSpec, WireError> {
        let kinds = method_list(
            &self.backends,
            "a Bracket leaf needs at least one backend id",
        )?;
        let mut config = OptConfig::default();
        if let Some(goal) = self.width_goal {
            if !OptConfig::is_valid_width_goal(goal) {
                return Err(invalid(format!(
                    "width_goal must be a finite ratio above 1.0, got {goal}"
                )));
            }
            config.width_goal = Some(goal);
        }
        if let Some(restarts) = self.restarts {
            config.restarts = restarts as usize;
        }
        Ok(BracketSpec { kinds, config })
    }
}

/// A compiled solve leaf: its solver composition and its budgets.
#[derive(Debug)]
pub(crate) struct SolveSpec {
    kinds: MethodList<PureNashMethod>,
    config: SolverConfig,
}

/// A compiled bracket leaf: its estimator composition and its budgets,
/// the width goal included.
#[derive(Debug)]
pub(crate) struct BracketSpec {
    kinds: MethodList<OptMethod>,
    config: OptConfig,
}

/// A combinator's children: at least one, by construction.
#[derive(Debug)]
pub(crate) struct Children<T>(Vec<T>);

impl<T> Children<T> {
    /// The earlier children and the last one.
    fn split_last(&self) -> (&[T], &T) {
        let (last, init) = self.0.split_last().expect("children are never empty");
        (init, last)
    }
}

/// A compiled `Solve` policy.
#[derive(Debug)]
pub(crate) enum SolvePlan {
    /// One solver composition.
    Leaf(SolveSpec),
    /// Solve leaves stepped in lockstep; the first equilibrium wins.
    Race(Children<SolveSpec>),
    /// Children tried in order until one finds an equilibrium.
    Fallback(Children<SolvePlan>),
    /// The inner plan under a deadline this long after it starts.
    Timeout(Duration, Box<SolvePlan>),
}

/// A compiled `Bracket`/`Measure` policy.
#[derive(Debug)]
pub(crate) enum BracketPlan {
    /// One estimator composition.
    Leaf(BracketSpec),
    /// Children tried in order until one meets its width goal.
    Fallback(Children<BracketPlan>),
    /// The inner plan under a deadline this long after it starts.
    Timeout(Duration, Box<BracketPlan>),
}

/// Compiles a `Solve` request's policy. Only solve leaves are allowed,
/// registry ids must resolve, deadlines must be in range, `Race` may only
/// wrap solve leaves, and the nesting depth is bounded. The first error in
/// tree order is the answer.
pub(crate) fn compile_solve(policy: &Policy) -> Result<SolvePlan, WireError> {
    compile_solve_at(policy, 0)
}

/// Compiles a `Bracket` or `Measure` request's policy: only bracket leaves,
/// `Fallback` and `Timeout` are allowed, under the same checks as
/// [`compile_solve`].
pub(crate) fn compile_bracket(policy: &Policy) -> Result<BracketPlan, WireError> {
    compile_bracket_at(policy, 0)
}

fn compile_solve_at(policy: &Policy, depth: usize) -> Result<SolvePlan, WireError> {
    check_depth(depth)?;
    Ok(match policy {
        Policy::Solve(leaf) => SolvePlan::Leaf(leaf.compile()?),
        Policy::Race(children) => {
            let lanes = children.iter().map(|child| match child {
                Policy::Solve(leaf) => leaf.compile(),
                _ => Err(invalid("Race children must be Solve leaves")),
            });
            SolvePlan::Race(children_of(lanes, "Race needs at least one child")?)
        }
        Policy::Fallback(children) => SolvePlan::Fallback(children_of(
            children
                .iter()
                .map(|child| compile_solve_at(child, depth + 1)),
            "Fallback needs at least one child",
        )?),
        Policy::Timeout(timeout) => SolvePlan::Timeout(
            deadline_limit(timeout.ms)?,
            Box::new(compile_solve_at(&timeout.lower, depth + 1)?),
        ),
        Policy::Bracket(_) => {
            return Err(invalid("a Bracket leaf is not allowed in a solve policy"))
        }
    })
}

fn compile_bracket_at(policy: &Policy, depth: usize) -> Result<BracketPlan, WireError> {
    check_depth(depth)?;
    Ok(match policy {
        Policy::Bracket(leaf) => BracketPlan::Leaf(leaf.compile()?),
        Policy::Fallback(children) => BracketPlan::Fallback(children_of(
            children
                .iter()
                .map(|child| compile_bracket_at(child, depth + 1)),
            "Fallback needs at least one child",
        )?),
        Policy::Timeout(timeout) => BracketPlan::Timeout(
            deadline_limit(timeout.ms)?,
            Box::new(compile_bracket_at(&timeout.lower, depth + 1)?),
        ),
        Policy::Solve(_) => return Err(invalid("a Solve leaf is not allowed in a bracket policy")),
        Policy::Race(_) => return Err(invalid("Race is only defined for solve policies")),
    })
}

/// Collects compiled children, stopping at the first error; `empty` is the
/// error for a combinator without any.
fn children_of<T>(
    compiled: impl Iterator<Item = Result<T, WireError>>,
    empty: &str,
) -> Result<Children<T>, WireError> {
    let children = compiled.collect::<Result<Vec<T>, WireError>>()?;
    if children.is_empty() {
        return Err(invalid(empty));
    }
    Ok(Children(children))
}

fn check_depth(depth: usize) -> Result<(), WireError> {
    if depth > MAX_POLICY_DEPTH {
        return Err(invalid(format!(
            "policy tree deeper than {MAX_POLICY_DEPTH}"
        )));
    }
    Ok(())
}

fn invalid(message: impl Into<String>) -> WireError {
    WireError::new(ErrorKind::InvalidRequest, message)
}

/// Rejects non-positive and over-long deadlines as
/// [`ErrorKind::InvalidDeadline`]; a compiled deadline is at most an hour.
fn deadline_limit(ms: i64) -> Result<Duration, WireError> {
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
    Ok(Duration::from_millis(ms as u64))
}

/// Resolves a compiled deadline against the clock and an optional outer
/// deadline. `checked_add` keeps even an `Instant` at the edge of
/// representable time a typed error, never an overflow panic.
fn resolve_deadline(limit: Duration, outer: Option<Instant>) -> Result<Instant, WireError> {
    let inner = Instant::now().checked_add(limit).ok_or_else(|| {
        WireError::new(
            ErrorKind::InvalidDeadline,
            format!(
                "deadline of {} ms is beyond representable time",
                limit.as_millis()
            ),
        )
    })?;
    Ok(outer.map_or(inner, |outer| outer.min(inner)))
}

/// How far one walk of a plan may go.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Budget {
    /// The connection reader's probe: answer from the warm tier, or punt at
    /// the first cold step (a leaf's warm-tier miss, or a `Timeout` node).
    WarmOnly,
    /// The walk under a compute permit: cold work allowed, until the
    /// deadline if one is set.
    Cold(Option<Instant>),
}

impl Budget {
    /// The budget of a `Timeout` node's inner plan: the tighter of `limit`
    /// from now and any outer deadline. `None` for a warm-only walk, which
    /// leaves deadline bookkeeping to the cold walk.
    fn under(self, limit: Duration) -> Result<Option<Budget>, WireError> {
        match self {
            Budget::WarmOnly => Ok(None),
            Budget::Cold(outer) => Ok(Some(Budget::Cold(Some(resolve_deadline(limit, outer)?)))),
        }
    }

    /// The deadline a completed walk is measured against.
    fn deadline(self) -> Option<Instant> {
        match self {
            Budget::WarmOnly => None,
            Budget::Cold(deadline) => deadline,
        }
    }
}

/// Everything a policy walk needs from the service.
pub(crate) struct EvalCtx<'a> {
    /// The validated instance.
    pub(crate) game: &'a EffectiveGame,
    /// Its initial link loads.
    pub(crate) initial: &'a LinkLoads,
    /// The digest of `(game, initial)`, computed once when the request was
    /// built; every leaf's engine keys the warm tier with it.
    pub(crate) instance: InstanceKey,
    /// The shared solve warm tier.
    pub(crate) solve_cache: &'a Arc<SolveCache>,
    /// The shared opt warm tier.
    pub(crate) opt_cache: &'a Arc<OptCache>,
    /// The service's instruments; its recorder is threaded into every
    /// engine a leaf builds.
    pub(crate) obs: &'a ObsHandles,
}

impl EvalCtx<'_> {
    /// Runs one leaf inside its span on a cold walk; the warm-only probe
    /// opens none.
    fn in_leaf_span<T>(&self, name: &str, budget: Budget, leaf: impl FnOnce() -> T) -> T {
        let span = matches!(budget, Budget::Cold(_)).then(|| self.obs.recorder.span(name));
        let out = leaf();
        if let Some(span) = span {
            span.finish();
        }
        out
    }

    /// Records how much deadline was left when a walk under one completed —
    /// the "slack" a timed-out policy tree finished with.
    fn record_slack(&self, budget: Budget) {
        let Some(deadline) = budget.deadline() else {
            return;
        };
        let slack = deadline
            .checked_duration_since(Instant::now())
            .map_or(0, |left| left.as_nanos().min(u128::from(u64::MAX)) as u64);
        self.obs.deadline_slack().record(slack);
    }
}

/// How a solve walk ended.
pub(crate) enum SolveEval {
    /// The policy completed; the engine solution may or may not hold an
    /// equilibrium.
    Done(EngineSolution),
    /// A deadline fired before the policy completed.
    Deadline,
    /// A warm-only walk reached cold work; the cold walk must answer.
    Punt,
}

/// A completed bracket leaf plus whether its own width goal was met (always
/// `true` for leaves without a goal) — what a bracket `Fallback` dispatches
/// on.
pub(crate) struct BracketDone {
    /// The certified outcome.
    pub(crate) outcome: OptOutcome,
    /// Whether both brackets meet the leaf's width goal.
    goal_met: bool,
}

/// How a bracket walk ended.
pub(crate) enum BracketEval {
    /// The policy completed with certified brackets.
    Done(BracketDone),
    /// A deadline fired inside a bracket leaf; the certified best-so-far
    /// outcome at the last checkpoint.
    Partial(OptOutcome),
    /// A deadline fired before any leaf produced anything certifiable.
    Deadline,
    /// A warm-only walk reached cold work; the cold walk must answer.
    Punt,
}

/// Walks a solve plan under `budget` (see the [module docs](self)).
pub(crate) fn eval_solve(
    plan: &SolvePlan,
    ctx: &EvalCtx<'_>,
    budget: Budget,
) -> Result<SolveEval, WireError> {
    match plan {
        SolvePlan::Leaf(spec) => ctx.in_leaf_span("solve_leaf", budget, || {
            race(std::slice::from_ref(spec), ctx, budget)
        }),
        SolvePlan::Race(lanes) => race(&lanes.0, ctx, budget),
        SolvePlan::Fallback(children) => {
            let (earlier, last) = children.split_last();
            for child in earlier {
                match eval_solve(child, ctx, budget) {
                    Ok(SolveEval::Done(solved)) if solved.solution.is_some() => {
                        return Ok(SolveEval::Done(solved))
                    }
                    Ok(SolveEval::Punt) => return Ok(SolveEval::Punt),
                    // No solution, deadline, or a failing child: fall
                    // through to the next sibling.
                    _ => {}
                }
            }
            eval_solve(last, ctx, budget)
        }
        SolvePlan::Timeout(limit, lower) => match budget.under(*limit)? {
            Some(inner) => eval_solve(lower, ctx, inner),
            None => Ok(SolveEval::Punt),
        },
    }
}

/// The lockstep walk over solve lanes (a leaf is a race of one). Every lane
/// opens its engine first, so warm-tier hits complete in round zero; cold
/// lanes advance one run step per round, with the budget checked before
/// every round. The first completed lane holding an equilibrium — earliest
/// round, lowest index — wins; if every lane completes without one, the
/// first lane's outcome stands. Completed cold lanes file their answers in
/// the warm tier whether or not they win; lanes still running when the race
/// is decided file nothing.
fn race(lanes: &[SolveSpec], ctx: &EvalCtx<'_>, budget: Budget) -> Result<SolveEval, WireError> {
    let engines: Vec<SolverEngine> = lanes
        .iter()
        .map(|spec| {
            SolverEngine::from_kinds(spec.config, spec.kinds.kinds())
                .with_cache(Arc::clone(ctx.solve_cache))
                .with_recorder(ctx.obs.recorder.clone())
        })
        .collect();
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
        // Decided at the round boundary: earliest round wins because lanes
        // only ever complete inside a round; ties break by index.
        let winner = finished
            .iter()
            .position(|lane| matches!(lane, Some(Ok(solved)) if solved.solution.is_some()));
        let decided = winner.or_else(|| finished.iter().all(Option::is_some).then_some(0));
        if let Some(lane) = decided {
            return match finished
                .swap_remove(lane)
                .expect("a decided lane has finished")
            {
                Ok(solved) => {
                    ctx.record_slack(budget);
                    Ok(SolveEval::Done(solved))
                }
                Err(e) => Err(WireError::engine(&e)),
            };
        }
        match budget {
            Budget::WarmOnly => return Ok(SolveEval::Punt),
            Budget::Cold(Some(deadline)) if Instant::now() >= deadline => {
                return Ok(SolveEval::Deadline)
            }
            Budget::Cold(_) => {}
        }
        for (slot, result) in runs.iter_mut().zip(&mut finished) {
            let Some(run) = slot else { continue };
            if run.step(&mut scratch) {
                *result = slot.take().map(|run| run.finish());
            }
        }
    }
}

/// Walks a bracket plan under `budget`. Under a deadline, a bracket leaf
/// is **not** atomic: the estimator walk polls an [`OptCheckpoint`] between
/// units of work, so an expired deadline yields the certified best-so-far
/// brackets as [`BracketEval::Partial`] instead of an all-or-nothing answer.
pub(crate) fn eval_bracket(
    plan: &BracketPlan,
    ctx: &EvalCtx<'_>,
    budget: Budget,
) -> Result<BracketEval, WireError> {
    match plan {
        BracketPlan::Leaf(spec) => {
            ctx.in_leaf_span("bracket_leaf", budget, || bracket_leaf(spec, ctx, budget))
        }
        BracketPlan::Fallback(children) => {
            let (earlier, last) = children.split_last();
            // The most recent child that completed but missed its goal.
            let mut missed: Option<BracketDone> = None;
            for child in earlier {
                match eval_bracket(child, ctx, budget) {
                    Ok(BracketEval::Done(done)) if done.goal_met => {
                        return Ok(BracketEval::Done(done))
                    }
                    Ok(BracketEval::Done(done)) => missed = Some(done),
                    // A partial bracket means the deadline has already
                    // fired: later children could at best add a plain
                    // Deadline, losing the certified bounds — return it.
                    Ok(BracketEval::Partial(outcome)) => return Ok(BracketEval::Partial(outcome)),
                    Ok(BracketEval::Punt) => return Ok(BracketEval::Punt),
                    // A deadline or a failing child (e.g. a composition with
                    // no finite upper bound): fall through.
                    _ => {}
                }
            }
            match eval_bracket(last, ctx, budget) {
                // The last child failed (e.g. every backend in it is
                // inapplicable at this size) or hit the deadline: the
                // certified bounds of an earlier goal miss beat no answer.
                other @ (Ok(BracketEval::Deadline) | Err(_)) => {
                    missed.map_or(other, |done| Ok(BracketEval::Done(done)))
                }
                other => other,
            }
        }
        BracketPlan::Timeout(limit, lower) => match budget.under(*limit)? {
            Some(inner) => eval_bracket(lower, ctx, inner),
            None => Ok(BracketEval::Punt),
        },
    }
}

/// One bracket leaf: open the engine (a counting warm-tier lookup; a hit
/// wins even against an already-expired deadline, keeping cached requests
/// flowing under load), then, under a compute permit, run the cold walk
/// with the deadline threaded in as an [`OptCheckpoint`]. The engine files only a
/// complete walk in the warm tier.
fn bracket_leaf(
    spec: &BracketSpec,
    ctx: &EvalCtx<'_>,
    budget: Budget,
) -> Result<BracketEval, WireError> {
    let engine = OptEngine::from_kinds(spec.config, spec.kinds.kinds())
        .with_cache(Arc::clone(ctx.opt_cache))
        .with_recorder(ctx.obs.recorder.clone());
    let walk = match engine.open(ctx.game, ctx.initial, Some(ctx.instance)) {
        OptOpened::Hit(hit) => return Ok(BracketEval::Done(spec.done(ctx, budget, hit))),
        OptOpened::Walk(walk) => walk,
    };
    let Budget::Cold(deadline) = budget else {
        return Ok(BracketEval::Punt);
    };
    let expired = move || deadline.is_some_and(|deadline| Instant::now() >= deadline);
    let check = match deadline {
        Some(_) => OptCheckpoint::new(&expired),
        None => OptCheckpoint::never(),
    };
    match walk.run(check) {
        Ok(run) if run.deadlined => Ok(BracketEval::Partial(run.outcome)),
        Ok(run) => Ok(BracketEval::Done(spec.done(ctx, budget, run.outcome))),
        // A walk cut down before any upper-bound backend ran has nothing
        // certifiable to report — the plain deadline outcome, not an error.
        Err(GameError::EmptyBracket { .. }) if expired() => Ok(BracketEval::Deadline),
        Err(e) => Err(WireError::engine(&e)),
    }
}

impl BracketSpec {
    /// A completed outcome with this leaf's width-goal verdict, recording
    /// the deadline slack it finished with.
    fn done(&self, ctx: &EvalCtx<'_>, budget: Budget, outcome: OptOutcome) -> BracketDone {
        ctx.record_slack(budget);
        let goal_met = self
            .config
            .width_goal
            .is_none_or(|goal| outcome.opt1.meets_goal(goal) && outcome.opt2.meets_goal(goal));
        BracketDone { outcome, goal_met }
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
        compile_solve(&wrapped).unwrap();
        let brackets = Policy::Fallback(vec![
            bracket_leaf(&["lpt", "relaxation"], Some(1.5)),
            bracket_leaf(&["exhaustive", "branch_and_bound", "descent"], None),
        ]);
        compile_bracket(&brackets).unwrap();
    }

    #[test]
    fn validation_rejects_unknown_ids_and_kind_mismatches() {
        let err = compile_solve(&leaf(&["alien"])).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnknownPolicy);
        let err = compile_bracket(&leaf(&["local_search"])).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        let err = compile_solve(&bracket_leaf(&["lpt"], None)).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        let err = compile_solve(&Policy::Race(vec![bracket_leaf(&["lpt"], None)])).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        let err = compile_bracket(&bracket_leaf(&["lpt"], Some(0.5))).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
    }

    #[test]
    fn validation_rejects_bad_deadlines_and_deep_nests() {
        for ms in [0, -5] {
            let err = compile_solve(&Policy::Timeout(TimeoutPolicy {
                ms,
                lower: Box::new(leaf(&["two_links"])),
            }))
            .unwrap_err();
            assert_eq!(err.kind, ErrorKind::InvalidDeadline);
        }
        let mut deep = leaf(&["two_links"]);
        for _ in 0..=MAX_POLICY_DEPTH {
            deep = Policy::Fallback(vec![deep]);
        }
        let err = compile_solve(&deep).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
    }

    #[test]
    fn over_long_deadlines_are_rejected_not_overflowed() {
        // i64::MAX ms used to overflow `Instant + Duration` and panic the
        // worker; now every over-cap value is a typed InvalidDeadline from
        // the compile step, so no plan holds one.
        for ms in [MAX_DEADLINE_MS + 1, i64::MAX] {
            let wrapped = Policy::Timeout(TimeoutPolicy {
                ms,
                lower: Box::new(leaf(&["two_links"])),
            });
            let err = compile_solve(&wrapped).unwrap_err();
            assert_eq!(err.kind, ErrorKind::InvalidDeadline);
        }
        // The cap itself is fine.
        let limit = deadline_limit(MAX_DEADLINE_MS).unwrap();
        resolve_deadline(limit, None).unwrap();
    }

    #[test]
    fn nested_deadlines_resolve_to_the_tighter_instant() {
        let outer = Instant::now();
        let resolved = resolve_deadline(Duration::from_secs(1), Some(outer)).unwrap();
        assert_eq!(resolved, outer);
        let resolved = resolve_deadline(Duration::from_millis(1), None).unwrap();
        assert!(resolved > Instant::now() - Duration::from_secs(1));
    }

    #[test]
    fn empty_leaves_and_combinators_are_rejected() {
        let err = compile_solve(&leaf(&[])).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        let err = compile_solve(&Policy::Fallback(Vec::new())).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
        let err = compile_solve(&Policy::Race(Vec::new())).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidRequest);
    }
}
