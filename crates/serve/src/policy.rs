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
//!   enforced **cooperatively at pass granularity**: the interpreter checks
//!   the clock between kernel passes (and before each atomic unit), never
//!   mid-pass, so any result that is produced is bit-identical to an
//!   undeadlined run. Atomic units — closed-form solvers, exhaustive
//!   enumeration — are never interrupted; an expired deadline is only
//!   noticed at the next boundary. Bracket leaves are **not** atomic: the
//!   deadline is threaded into the estimator walk as an
//!   [`OptCheckpoint`], which the long-running estimators poll between
//!   units of work (branch-and-bound node batches, bisection iterations,
//!   descent restarts). A deadline that fires mid-leaf yields a
//!   [`BracketEval::Partial`] carrying the certified best-so-far brackets.
//!
//! Every leaf shares the service's warm tier: a leaf builds its key with the
//! same core key functions (`solvers::cache::cache_key`,
//! `opt::cache::cache_key`) as a direct `SolverEngine`/`OptEngine` call with
//! the same composition and budgets, over the instance digest the request
//! was built with — so service answers and direct engine calls read and
//! write the same entries and stay replay-exact.

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use netuncert_core::obs::{Recorder, SpanId};
use netuncert_core::opt::cache::cache_key as opt_cache_key;
use netuncert_core::prelude::{
    Applicability, CacheKey, EffectiveGame, EngineSolution, GameError, InstanceKey, KernelRun,
    KernelScratch, LinkLoads, OptCache, OptCheckpoint, OptConfig, OptEngine, OptOutcome,
    PureNashMethod, SolveCache, SolveTelemetry, Solver, SolverAttempt, SolverConfig, SolverEngine,
    SolverKind,
};
use netuncert_core::prelude::{OptBackendKind, OptMethod, PureNashSolution};
use netuncert_core::solvers::cache::cache_key;
use netuncert_core::solvers::engine::SolverDetail;
use netuncert_core::solvers::kernel::{SoAGame, SoAView};

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
            let (kinds, config) = leaf.resolve(&ctx.base_solver)?;
            let span = ctx.recorder.span_under("solve_leaf", ctx.parent_span);
            let result = match deadline {
                // No deadline: this IS a direct engine call sharing the warm
                // tier — trivially bit-identical to in-process replay.
                None => SolverEngine::from_kinds(config, &kinds)
                    .with_cache(Arc::clone(ctx.solve_cache))
                    .with_recorder(ctx.recorder.clone())
                    .solve_keyed(ctx.game, ctx.initial, ctx.instance)
                    .map(SolveEval::Done)
                    .map_err(|e| WireError::engine(&e)),
                Some(deadline) => solve_leaf_stepped(&kinds, &config, ctx, deadline),
            };
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

/// A pass-resumable solve of one leaf: the stepped twin of the engine's
/// cold-solve walk. Stepping this run to completion produces — minus
/// wall-clock telemetry — exactly what `SolverEngine::solve` produces for
/// the same composition, budgets and instance; the integration suite pins
/// that equivalence.
struct LeafRun<'a> {
    solvers: &'a [Box<dyn Solver>],
    config: &'a SolverConfig,
    game: &'a EffectiveGame,
    initial: &'a LinkLoads,
    view: SoAView<'a>,
    attempts: Vec<SolverAttempt>,
    next_solver: usize,
    run: Option<Box<dyn KernelRun + 'a>>,
    run_applicability: Applicability,
    run_method: PureNashMethod,
    run_started: Instant,
    started: Instant,
    done: Option<Result<EngineSolution, GameError>>,
}

impl<'a> LeafRun<'a> {
    fn new(
        solvers: &'a [Box<dyn Solver>],
        config: &'a SolverConfig,
        game: &'a EffectiveGame,
        initial: &'a LinkLoads,
        view: SoAView<'a>,
    ) -> Self {
        let now = Instant::now();
        LeafRun {
            solvers,
            config,
            game,
            initial,
            view,
            attempts: Vec::new(),
            next_solver: 0,
            run: None,
            run_applicability: Applicability::Heuristic,
            run_method: PureNashMethod::BestResponse,
            run_started: now,
            started: now,
            done: None,
        }
    }

    fn record(
        &mut self,
        method: PureNashMethod,
        applicability: Applicability,
        detail: &SolverDetail,
        started: Instant,
    ) {
        self.attempts.push(SolverAttempt {
            method,
            applicability,
            iterations: detail.iterations,
            restarts: detail.restarts,
            found: detail.solution.is_some(),
            wall_ns: started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        });
    }

    fn finish_with(&mut self, solution: Option<PureNashSolution>) {
        self.done = Some(Ok(EngineSolution {
            solution,
            telemetry: SolveTelemetry {
                attempts: std::mem::take(&mut self.attempts),
                total_wall_ns: self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            },
        }));
    }

    /// Advances one deadline-checkable unit: one kernel pass, or one inline
    /// solver, or the skip-scan to the next applicable solver. Returns
    /// `true` when the leaf has finished.
    fn step(&mut self, scratch: &mut KernelScratch) -> bool {
        if self.done.is_some() {
            return true;
        }
        // An in-flight kernel run: advance it by exactly one pass.
        if self.run.is_some() {
            let finished = self.run.as_mut().expect("just checked").step(scratch);
            if let Some(detail) = finished {
                self.run = None;
                let (method, applicability, started) =
                    (self.run_method, self.run_applicability, self.run_started);
                self.record(method, applicability, &detail, started);
                if detail.solution.is_some() || applicability == Applicability::Conclusive {
                    self.finish_with(detail.solution);
                }
            }
            return self.done.is_some();
        }
        // Walk to the next applicable solver: install its kernel run, or run
        // it inline as one atomic unit.
        loop {
            let Some(solver) = self.solvers.get(self.next_solver) else {
                self.finish_with(None);
                return true;
            };
            self.next_solver += 1;
            let applicability = solver.applicability(self.game, self.initial, self.config);
            if applicability == Applicability::NotApplicable {
                continue;
            }
            self.run_started = Instant::now();
            if let Some(run) = solver.kernel_run(self.game, self.initial, self.view, self.config) {
                self.run = Some(run);
                self.run_applicability = applicability;
                self.run_method = solver.method();
                return false;
            }
            match solver.solve_detailed(self.game, self.initial, self.config) {
                Err(e) => {
                    self.done = Some(Err(e));
                    return true;
                }
                Ok(detail) => {
                    let started = self.run_started;
                    self.record(solver.method(), applicability, &detail, started);
                    if detail.solution.is_some() || applicability == Applicability::Conclusive {
                        self.finish_with(detail.solution);
                        return true;
                    }
                    // Inconclusive inline attempt: yield so the caller can
                    // check the deadline before the next solver starts.
                    return false;
                }
            }
        }
    }

    fn finish(self) -> Result<EngineSolution, GameError> {
        self.done.expect("finish() called before the run completed")
    }
}

/// The owned per-leaf state a stepped run borrows from (solver objects, SoA
/// form, cache key) — kept separate from [`LeafRun`] so the run can borrow
/// it without self-reference.
struct LeafCtx<'a> {
    config: SolverConfig,
    solvers: Vec<Box<dyn Solver>>,
    soa: SoAGame,
    key: CacheKey<'a>,
}

impl<'a> LeafCtx<'a> {
    fn build(kinds: &[SolverKind], config: SolverConfig, ctx: &EvalCtx<'a>) -> Self {
        let methods: Vec<PureNashMethod> = kinds.iter().map(|k| k.method()).collect();
        let key = cache_key(&methods, &config, ctx.game, ctx.initial, ctx.instance);
        LeafCtx {
            config,
            solvers: kinds.iter().map(|k| k.build()).collect(),
            soa: SoAGame::from_game(ctx.game),
            key,
        }
    }
}

/// The deadline path of a single solve leaf: cache lookup, then the stepped
/// walk with the clock checked between units. Completed runs are inserted
/// into the warm tier exactly like an engine solve would.
fn solve_leaf_stepped(
    kinds: &[SolverKind],
    config: &SolverConfig,
    ctx: &EvalCtx<'_>,
    deadline: Instant,
) -> Result<SolveEval, WireError> {
    let leaf = LeafCtx::build(kinds, *config, ctx);
    if let Some(hit) = ctx.solve_cache.lookup(&leaf.key) {
        record_slack(ctx, deadline);
        return Ok(SolveEval::Done(hit));
    }
    let mut scratch = KernelScratch::new();
    let mut run = LeafRun::new(
        &leaf.solvers,
        &leaf.config,
        ctx.game,
        ctx.initial,
        leaf.soa.view(),
    );
    loop {
        if Instant::now() >= deadline {
            return Ok(SolveEval::Deadline);
        }
        if run.step(&mut scratch) {
            break;
        }
    }
    match run.finish() {
        Ok(solved) => {
            ctx.solve_cache.insert(&leaf.key, solved.clone());
            record_slack(ctx, deadline);
            Ok(SolveEval::Done(solved))
        }
        Err(e) => Err(WireError::engine(&e)),
    }
}

/// Lockstep race over solve leaves. Warm-tier hits complete in round zero;
/// cold lanes advance one unit per round. The first completed lane holding
/// an equilibrium — earliest round, lowest index — wins; if every lane
/// completes without one, the first lane's outcome is returned. Completed
/// cold lanes are inserted into the warm tier whether or not they win.
fn race_solve(
    children: &[Policy],
    ctx: &EvalCtx<'_>,
    deadline: Option<Instant>,
) -> Result<SolveEval, WireError> {
    let mut leaves = Vec::with_capacity(children.len());
    for child in children {
        let Policy::Solve(leaf) = child else {
            return Err(WireError::new(
                ErrorKind::InvalidRequest,
                "Race children must be Solve leaves",
            ));
        };
        let (kinds, config) = leaf.resolve(&ctx.base_solver)?;
        leaves.push(LeafCtx::build(&kinds, config, ctx));
    }
    let mut finished: Vec<Option<Result<EngineSolution, GameError>>> = leaves
        .iter()
        .map(|leaf| ctx.solve_cache.lookup(&leaf.key).map(Ok))
        .collect();
    let mut runs: Vec<Option<LeafRun<'_>>> = leaves
        .iter()
        .zip(&finished)
        .map(|(leaf, hit)| {
            hit.is_none().then(|| {
                LeafRun::new(
                    &leaf.solvers,
                    &leaf.config,
                    ctx.game,
                    ctx.initial,
                    leaf.soa.view(),
                )
            })
        })
        .collect();
    let mut scratch = KernelScratch::new();
    loop {
        // Winner check at the round boundary: earliest round wins because
        // lanes only ever complete inside a round; ties break by index.
        for done in &finished {
            if let Some(Ok(solved)) = done {
                if solved.solution.is_some() {
                    if let Some(deadline) = deadline {
                        record_slack(ctx, deadline);
                    }
                    return Ok(SolveEval::Done(solved.clone()));
                }
            }
        }
        if finished.iter().all(|d| d.is_some()) {
            // Nobody found an equilibrium: the first lane's outcome stands.
            return match finished.swap_remove(0).expect("all finished") {
                Ok(solved) => {
                    if let Some(deadline) = deadline {
                        record_slack(ctx, deadline);
                    }
                    Ok(SolveEval::Done(solved))
                }
                Err(e) => Err(WireError::engine(&e)),
            };
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(SolveEval::Deadline);
        }
        for (k, slot) in runs.iter_mut().enumerate() {
            let Some(run) = slot.as_mut() else { continue };
            if run.step(&mut scratch) {
                let result = slot.take().expect("slot was just stepped").finish();
                if let Ok(solved) = &result {
                    ctx.solve_cache.insert(&leaves[k].key, solved.clone());
                }
                finished[k] = Some(result);
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
/// return the first cached solution outright). Lookups are **counting**
/// lookups, so a punted request's misses are later recounted by the worker
/// — the documented cache-counter tolerance.
pub fn eval_solve_cached(policy: &Policy, ctx: &EvalCtx<'_>) -> Option<EngineSolution> {
    match policy {
        Policy::Solve(leaf) => {
            let (kinds, config) = leaf.resolve(&ctx.base_solver).ok()?;
            let methods: Vec<PureNashMethod> = kinds.iter().map(|k| k.method()).collect();
            let key = cache_key(&methods, &config, ctx.game, ctx.initial, ctx.instance);
            ctx.solve_cache.lookup(&key)
        }
        Policy::Race(children) => {
            let mut hits = Vec::with_capacity(children.len());
            for child in children {
                let Policy::Solve(leaf) = child else {
                    return None;
                };
                let (kinds, config) = leaf.resolve(&ctx.base_solver).ok()?;
                let methods: Vec<PureNashMethod> = kinds.iter().map(|k| k.method()).collect();
                let key = cache_key(&methods, &config, ctx.game, ctx.initial, ctx.instance);
                hits.push(ctx.solve_cache.lookup(&key));
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
