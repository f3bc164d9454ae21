//! The engine-side state one service instance owns, and the request
//! handler every worker runs.
//!
//! [`ServeState`] is the whole service minus the sockets: the shared
//! LRU warm tier ([`SolveCache`]/[`OptCache`]), the base budgets leaves
//! override, the request counters, and the draining flag. Keeping it
//! socket-free is what makes the replay harness possible — a fresh
//! `ServeState` driven in-process answers byte-for-byte like the TCP
//! service (see [`replay`](crate::replay)).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use netuncert_core::obs::{
    elapsed_ns, Counter as ObsCounter, Gauge, Histogram, Recorder, Registry,
};
use netuncert_core::prelude::{
    EffectiveGame, GameEdit, LinkLoads, MixedProfile, OptCache, OptConfig, OptOutcome, PureProfile,
    SolveCache, SolverConfig, SolverEngine, SolverKind,
};
use netuncert_core::social_cost::measure_against;

use crate::compile::{Built, BuiltRequest, Compute, Instance};
use crate::decode::{self, Decoded, Framing, Plain};
use crate::policy::{self, BracketEval, EvalCtx, PolicyMode, SolveEval};
use crate::protocol::{
    deadline_solve_reply, solve_method_id, wire_bracket_reply, wire_brackets, wire_cost_report,
    wire_metrics, wire_repair, wire_solve_reply, BracketOutcome, BracketReply, EditReply,
    EditRequest, ErrorKind, Limits, MeasureOutcome, MeasureReply, ReleaseReply, ReleaseRequest,
    Request, Response, ResponseBody, SolveOutcome, StatsReply, UploadReply, Verb, WireCacheStats,
    WireError, WireSolution,
};
use crate::session::{SessionLookup, SessionRemoval, SessionSnapshot, SessionStore};

/// Service configuration: pool size, queue bound, warm-tier bounds, wire
/// limits.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Fixed worker-pool size.
    pub workers: usize,
    /// Bound on the shared job queue; an arriving request that finds the
    /// queue at this depth is rejected with a typed
    /// [`ErrorKind::Busy`](crate::protocol::ErrorKind::Busy) instead of
    /// queueing without bound.
    pub queue_depth: usize,
    /// LRU capacity of the solve warm tier, entries.
    pub solve_cache_capacity: usize,
    /// LRU capacity of the opt warm tier, entries.
    pub opt_cache_capacity: usize,
    /// Bound on concurrently pinned resident sessions
    /// ([`SessionStore`](crate::session::SessionStore)); inserting past it
    /// evicts the least-recently-used session.
    pub session_capacity: usize,
    /// Wire-level size caps.
    pub limits: Limits,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_depth: 256,
            solve_cache_capacity: 1 << 16,
            opt_cache_capacity: 1 << 16,
            session_capacity: 64,
            limits: Limits::default(),
        }
    }
}

/// The request counters, grouped under one lock so a [`StatsReply`]
/// snapshot is a single consistent cut: `errors + deadline_hits` can never
/// exceed `requests` in any observed snapshot, which independent relaxed
/// atomics could not promise (a request counted in `errors` before its
/// `requests` bump was visible).
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    requests: u64,
    errors: u64,
    deadline_hits: u64,
    rejected: u64,
}

/// Pre-resolved handles into the service's metrics registry.
///
/// The serve layer's own telemetry is always on (unlike the engine probes,
/// which a [`Recorder`] can disable): the service exists to answer queries,
/// and its queue/admission trajectory is part of the product. Handles are
/// resolved once at construction so the request path never takes the
/// registry's name-lookup lock.
pub(crate) struct ObsHandles {
    /// The registry every handle below resolves into; [`wire_metrics`]
    /// snapshots it for the `Metrics` verb.
    pub(crate) registry: Arc<Registry>,
    /// The recorder threaded into policy evaluation and the engines.
    pub(crate) recorder: Recorder,
    /// Time a compute request spent queued before a worker popped it
    /// (`serve.queue_wait_ns`; fast-path answers record zero).
    pub(crate) queue_wait: Arc<Histogram>,
    /// Time spent actually answering a compute request
    /// (`serve.service_ns`).
    pub(crate) service: Arc<Histogram>,
    /// Bytes-to-built-request latency per frame, key pass included
    /// (`serve.frame_decode_ns`), plus one twin per framing
    /// (`serve.frame_decode_ns.json` / `.binary`).
    frame_decode: [Arc<Histogram>; 3],
    /// Cost of one key pass — instance digest plus reply key
    /// (`serve.request_key_ns`), plus per-framing twins as above. The
    /// in-process entry point records only the aggregate.
    request_key: [Arc<Histogram>; 3],
    /// Live job-queue depth (`serve.queue_depth`).
    pub(crate) queue_depth: Arc<Gauge>,
    /// The configured queue bound (`serve.queue_capacity`).
    pub(crate) queue_capacity: Arc<Gauge>,
    /// Workers currently answering a job (`serve.busy_workers`).
    pub(crate) busy_workers: Arc<Gauge>,
    /// Live connection reader threads (`serve.readers`).
    pub(crate) readers: Arc<Gauge>,
    /// Admission counters: answered on the reader's warm fast path.
    pub(crate) admit_fast: Arc<ObsCounter>,
    /// Admission counters: handed to the worker pool.
    pub(crate) admit_queued: Arc<ObsCounter>,
    /// Admission counters: rejected with a typed `Busy` error.
    pub(crate) admit_busy: Arc<ObsCounter>,
    /// Admission counters: queue closed mid-push, answered inline.
    pub(crate) admit_inline: Arc<ObsCounter>,
    /// Live pinned sessions (`serve.sessions`).
    pub(crate) sessions: Arc<Gauge>,
    /// Sessions pushed out of the bounded store by newer uploads
    /// (`serve.session_evictions`).
    pub(crate) session_evictions: Arc<ObsCounter>,
}

impl ObsHandles {
    fn new(queue_capacity: usize) -> Self {
        let registry = Arc::new(Registry::new());
        let handles = ObsHandles {
            recorder: Recorder::new(Arc::clone(&registry)),
            queue_wait: registry.histogram("serve.queue_wait_ns"),
            service: registry.histogram("serve.service_ns"),
            frame_decode: by_framing(&registry, "serve.frame_decode_ns"),
            request_key: by_framing(&registry, "serve.request_key_ns"),
            queue_depth: registry.gauge("serve.queue_depth"),
            queue_capacity: registry.gauge("serve.queue_capacity"),
            busy_workers: registry.gauge("serve.busy_workers"),
            readers: registry.gauge("serve.readers"),
            admit_fast: registry.counter("serve.admit_fast"),
            admit_queued: registry.counter("serve.admit_queued"),
            admit_busy: registry.counter("serve.admit_busy"),
            admit_inline: registry.counter("serve.admit_inline"),
            sessions: registry.gauge("serve.sessions"),
            session_evictions: registry.counter("serve.session_evictions"),
            registry,
        };
        handles.queue_capacity.set(queue_capacity as u64);
        handles
    }

    /// Records into the aggregate histogram and, for a framed request, its
    /// framing's twin.
    fn record(histograms: &[Arc<Histogram>; 3], framing: Option<Framing>, ns: u64) {
        histograms[0].record(ns);
        if let Some(framing) = framing {
            histograms[1 + framing as usize].record(ns);
        }
    }
}

/// An aggregate histogram and its per-framing twins.
fn by_framing(registry: &Registry, name: &str) -> [Arc<Histogram>; 3] {
    [
        registry.histogram(name),
        registry.histogram(&format!("{name}.json")),
        registry.histogram(&format!("{name}.binary")),
    ]
}

/// One service instance's engine-side state (everything but the sockets).
pub struct ServeState {
    solve_cache: Arc<SolveCache>,
    opt_cache: Arc<OptCache>,
    base_solver: SolverConfig,
    base_opt: OptConfig,
    limits: Limits,
    counters: Mutex<Counters>,
    draining: AtomicBool,
    sessions: SessionStore,
    /// The resident-session engine: local search (the repair path's warm
    /// backend) with the exhaustive solver as the conclusive small-game
    /// fallback. Sessions bypass the policy tree — a session must end every
    /// accepted request with a *certified profile* to repair from, so the
    /// portfolio is fixed rather than client-composed. Probes record into
    /// the service registry, so `engine.repair_ns` / `repair.moves` /
    /// `repair.fallback_cold` surface through the `Metrics` verb.
    session_engine: SolverEngine,
    obs: ObsHandles,
}

impl ServeState {
    /// A fresh state with LRU warm tiers sized by `config`.
    pub fn new(config: &ServeConfig) -> Self {
        let obs = ObsHandles::new(config.queue_depth);
        let base_solver = SolverConfig::default();
        ServeState {
            solve_cache: Arc::new(SolveCache::lru(config.solve_cache_capacity)),
            opt_cache: Arc::new(OptCache::lru(config.opt_cache_capacity)),
            base_solver,
            base_opt: OptConfig::default(),
            limits: config.limits,
            counters: Mutex::new(Counters::default()),
            draining: AtomicBool::new(false),
            sessions: SessionStore::new(config.session_capacity),
            session_engine: SolverEngine::from_kinds(
                base_solver,
                &[SolverKind::LocalSearch, SolverKind::Exhaustive],
            )
            .with_recorder(obs.recorder.clone()),
            obs,
        }
    }

    /// The metrics registry this instance records into (for snapshot
    /// writers and tests).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.obs.registry)
    }

    /// The resident-session store (for inspection by tests and tools).
    pub fn sessions(&self) -> &SessionStore {
        &self.sessions
    }

    /// The pre-resolved metric handles (for the socket layer).
    pub(crate) fn obs(&self) -> &ObsHandles {
        &self.obs
    }

    /// The wire-level size caps.
    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// Whether a `Shutdown` request has been accepted.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Marks the service as draining; compute requests are rejected with a
    /// typed [`ErrorKind::Shutdown`] from now on.
    pub fn start_draining(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Parses one request line and produces one response line (no trailing
    /// newline). Malformed lines become typed [`ErrorKind::Parse`] errors
    /// with id `0` (the id is unrecoverable from a line that did not parse).
    pub fn handle_line(&self, line: &str) -> String {
        let response = match self.compile_line(line) {
            Ok(request) => self.handle_built(request),
            Err(parse_error) => *parse_error,
        };
        serde_json::to_string(&response).expect("wire types always serialise")
    }

    /// Dispatches one typed request — the in-process entry point. It is
    /// built exactly as a decoded line or frame would be, so the answer is
    /// byte-identical to the service's. Never panics on request content:
    /// every failure mode is a typed [`WireError`] in the response body.
    pub fn handle_request(&self, request: Request) -> Response {
        let decoded = Decoded::from_request(request, &self.limits);
        let built = BuiltRequest::build(decoded, |ns| {
            ObsHandles::record(&self.obs.request_key, None, ns)
        });
        self.handle_built(built)
    }

    /// Decodes and builds one JSON request line, metering the decode. A
    /// malformed line is the typed id-0 `Parse` response.
    pub(crate) fn compile_line(&self, line: &str) -> Result<BuiltRequest, Box<Response>> {
        self.compile(Framing::Json, |limits| {
            decode::json(line.trim_end(), limits)
        })
    }

    /// [`compile_line`](Self::compile_line) for one binary frame payload.
    pub(crate) fn compile_frame(&self, payload: &[u8]) -> Result<BuiltRequest, Box<Response>> {
        self.compile(Framing::Binary, |limits| decode::frame(payload, limits))
    }

    fn compile(
        &self,
        framing: Framing,
        decode: impl FnOnce(&Limits) -> Result<Decoded, String>,
    ) -> Result<BuiltRequest, Box<Response>> {
        let start = Instant::now();
        let built = decode(&self.limits).map(|decoded| {
            BuiltRequest::build(decoded, |ns| {
                ObsHandles::record(&self.obs.request_key, Some(framing), ns)
            })
        });
        ObsHandles::record(&self.obs.frame_decode, Some(framing), elapsed_ns(start));
        built.map_err(|err| {
            Box::new(Response {
                id: 0,
                body: ResponseBody::Error(WireError::new(
                    ErrorKind::Parse,
                    format!("malformed request: {err}"),
                )),
            })
        })
    }

    /// Answers one built request on the calling thread.
    pub(crate) fn handle_built(&self, request: BuiltRequest) -> Response {
        let body = match request.body {
            Built::Plain(Plain::Stats) => self.stats_reply(),
            Built::Plain(Plain::Metrics) => self.metrics_reply(),
            Built::Plain(Plain::Shutdown) => {
                self.start_draining();
                ResponseBody::Shutdown
            }
            _ if self.draining() => ResponseBody::Error(WireError::new(
                ErrorKind::Shutdown,
                "service is draining after a Shutdown request",
            )),
            Built::Compute(compute) => self
                .compute(&compute, false)
                .expect("the full walk always answers"),
            Built::Upload(instance) => self.handle_upload(instance),
            Built::Plain(Plain::Edit(edit)) => self.handle_edit(&edit),
            Built::Plain(Plain::Release(release)) => self.handle_release(&release),
        };
        self.finish(request.id, body)
    }

    /// Counts one handled request under a single counter pass and seals the
    /// response envelope. Classifying the *finished* body here (instead of
    /// sprinkling counter bumps through the handlers) is what lets every
    /// counter for one request move under one lock acquisition.
    fn finish(&self, id: u64, body: ResponseBody) -> Response {
        let errored = matches!(body, ResponseBody::Error(_));
        let deadlined = matches!(
            &body,
            ResponseBody::Solve(reply) if matches!(reply.outcome, SolveOutcome::DeadlineExceeded)
        ) || matches!(
            &body,
            ResponseBody::Bracket(reply) if matches!(
                reply.outcome,
                BracketOutcome::DeadlineExceeded | BracketOutcome::Partial(_)
            )
        ) || matches!(
            &body,
            ResponseBody::Measure(reply) if matches!(reply.outcome, MeasureOutcome::DeadlineExceeded)
        );
        let mut counters = self.counters.lock().expect("counter lock poisoned");
        counters.requests += 1;
        if errored {
            counters.errors += 1;
        }
        if deadlined {
            counters.deadline_hits += 1;
        }
        drop(counters);
        Response { id, body }
    }

    /// The admission rejection for a full job queue: counts one `rejected`
    /// (and nothing else — the request never reaches the engines) and
    /// returns the typed [`ErrorKind::Busy`] response.
    pub fn busy_response(&self, id: u64, depth: usize, capacity: usize) -> Response {
        let mut counters = self.counters.lock().expect("counter lock poisoned");
        counters.rejected += 1;
        drop(counters);
        Response {
            id,
            body: ResponseBody::Error(WireError::busy(depth, capacity)),
        }
    }

    /// The connection reader's fast path: answers a request **without a
    /// worker** when no engine work is needed — `Stats`/`Shutdown`,
    /// draining rejections, validation errors, and any compute verb whose
    /// policy resolves entirely from the warm tier. Hands the request back
    /// (`Err`) when it needs cold engine work (or carries a `Timeout`
    /// policy, whose deadline bookkeeping belongs on a worker); the caller
    /// then queues that same built request for a worker.
    ///
    /// Everything answered here is byte-identical to what a worker would
    /// have produced for the same request; only the warm tier's hit/miss
    /// counters can differ (a punted request's probe misses are recounted
    /// by the worker — the documented tolerance).
    pub(crate) fn try_handle_fast(
        &self,
        request: BuiltRequest,
    ) -> Result<Response, Box<BuiltRequest>> {
        match &request.body {
            Built::Compute(compute) if !self.draining() => match self.compute(compute, true) {
                Some(body) => Ok(self.finish(request.id, body)),
                None => Err(Box::new(request)),
            },
            // Upload and Edit always run engines — never fast.
            Built::Upload(_) | Built::Plain(Plain::Edit(_)) if !self.draining() => {
                Err(Box::new(request))
            }
            // Release is pure bookkeeping; the admin verbs and draining
            // rejections answer exactly as on a worker.
            _ => Ok(self.handle_built(request)),
        }
    }

    fn eval_ctx<'a>(
        &'a self,
        instance: &'a Instance,
        parent_span: Option<netuncert_core::obs::SpanId>,
    ) -> EvalCtx<'a> {
        EvalCtx {
            game: &instance.game,
            initial: &instance.initial,
            instance: instance.digest,
            solve_cache: &self.solve_cache,
            opt_cache: &self.opt_cache,
            base_solver: self.base_solver,
            base_opt: self.base_opt,
            recorder: self.obs.recorder.clone(),
            parent_span,
        }
    }

    /// Answers a compute verb: policy validation, then the instance's
    /// deferred validation error, then the `Measure` profile, then the
    /// policy walk. With `fast` set the walk runs purely from the warm tier
    /// and `None` means "punt to a worker"; without it the answer is
    /// always `Some`.
    fn compute(&self, request: &Compute, fast: bool) -> Option<ResponseBody> {
        let mode = match request.verb {
            Verb::Solve => PolicyMode::Solve,
            Verb::Bracket | Verb::Measure => PolicyMode::Bracket,
        };
        if let Err(err) = policy::validate(&request.policy, mode) {
            return Some(ResponseBody::Error(err));
        }
        let instance = match &request.instance {
            Ok(instance) => instance,
            Err(err) => return Some(ResponseBody::Error(err.clone())),
        };
        let pure = PureProfile::new(request.profile.clone());
        if request.verb == Verb::Measure {
            if let Err(e) = pure.validate(&instance.game) {
                return Some(ResponseBody::Error(WireError::new(
                    ErrorKind::InvalidRequest,
                    e.to_string(),
                )));
            }
        }
        let policy = &request.policy;
        let key = instance.key.clone();
        if fast {
            if policy.has_timeout() {
                return None;
            }
            let ctx = self.eval_ctx(instance, None);
            return Some(match request.verb {
                Verb::Solve => {
                    let solved = policy::eval_solve_cached(policy, &ctx)?;
                    ResponseBody::Solve(wire_solve_reply(key, &solved))
                }
                Verb::Bracket => {
                    let done = policy::eval_bracket_cached(policy, &ctx)?;
                    ResponseBody::Bracket(wire_bracket_reply(key, &done.outcome))
                }
                Verb::Measure => {
                    let done = policy::eval_bracket_cached(policy, &ctx)?;
                    self.measure_body(key, instance, &pure, &done.outcome)
                }
            });
        }
        let span = self.obs.recorder.span(match request.verb {
            Verb::Solve => "solve",
            Verb::Bracket => "bracket",
            Verb::Measure => "measure",
        });
        let ctx = self.eval_ctx(instance, Some(span.id()));
        let body = match request.verb {
            Verb::Solve => match policy::eval_solve(policy, &ctx, None) {
                Ok(SolveEval::Done(solved)) => ResponseBody::Solve(wire_solve_reply(key, &solved)),
                Ok(SolveEval::Deadline) => ResponseBody::Solve(deadline_solve_reply(key)),
                Err(err) => ResponseBody::Error(err),
            },
            Verb::Bracket => match policy::eval_bracket(policy, &ctx, None) {
                Ok(BracketEval::Done(done)) => {
                    ResponseBody::Bracket(wire_bracket_reply(key, &done.outcome))
                }
                Ok(BracketEval::Partial(outcome)) => ResponseBody::Bracket(BracketReply {
                    key,
                    outcome: BracketOutcome::Partial(wire_brackets(&outcome)),
                }),
                Ok(BracketEval::Deadline) => ResponseBody::Bracket(BracketReply {
                    key,
                    outcome: BracketOutcome::DeadlineExceeded,
                }),
                Err(err) => ResponseBody::Error(err),
            },
            Verb::Measure => match policy::eval_bracket(policy, &ctx, None) {
                Ok(BracketEval::Done(done)) => {
                    self.measure_body(key, instance, &pure, &done.outcome)
                }
                // A partial bracket's lower ends may still be at zero (no
                // lower backend ran), where the ratio arithmetic is
                // undefined — a measure under deadline pressure reports the
                // plain deadline outcome rather than a half-usable report.
                Ok(BracketEval::Partial(_)) | Ok(BracketEval::Deadline) => {
                    ResponseBody::Measure(MeasureReply {
                        key,
                        outcome: MeasureOutcome::DeadlineExceeded,
                    })
                }
                Err(err) => ResponseBody::Error(err),
            },
        };
        span.finish();
        Some(body)
    }

    /// `Upload`: validate, solve cold, pin the game plus its certified
    /// profile, hand out the session id. Nothing is pinned unless the solve
    /// certified.
    fn handle_upload(
        &self,
        instance: Result<(EffectiveGame, LinkLoads), WireError>,
    ) -> ResponseBody {
        let (game, initial) = match instance {
            Ok(built) => built,
            Err(err) => return ResponseBody::Error(err),
        };
        let solved = match self.session_engine.solve(&game, &initial) {
            Ok(solved) => solved,
            Err(e) => return ResponseBody::Error(WireError::engine(&e)),
        };
        let Some(solution) = solved.solution else {
            return ResponseBody::Error(WireError::new(
                ErrorKind::Engine,
                "no pure equilibrium certified within budget; nothing was pinned",
            ));
        };
        let wire = WireSolution {
            choices: solution.profile.choices().to_vec(),
            method: solve_method_id(solution.method).to_string(),
        };
        let (session, evicted) = self.sessions.insert(game, initial, solution.profile);
        if evicted.is_some() {
            self.obs.session_evictions.incr(1);
        }
        self.obs.sessions.set(self.sessions.len() as u64);
        ResponseBody::Upload(UploadReply {
            session,
            solution: wire,
        })
    }

    /// `Edit`: resolve the session, lock it, and repair its pinned game in
    /// place from the pinned certified profile. A stale id is a typed
    /// [`ErrorKind::SessionEvicted`] / [`ErrorKind::UnknownSession`] — never
    /// a silent cold solve. On any failure the session keeps its last
    /// certified state.
    fn handle_edit(&self, request: &EditRequest) -> ResponseBody {
        let session = match self.sessions.resolve(request.session) {
            SessionLookup::Found(session) => session,
            SessionLookup::Evicted => {
                return ResponseBody::Error(WireError::new(
                    ErrorKind::SessionEvicted,
                    format!(
                        "session {} was evicted or released; re-upload the instance",
                        request.session
                    ),
                ))
            }
            SessionLookup::Unknown => {
                return ResponseBody::Error(WireError::new(
                    ErrorKind::UnknownSession,
                    format!("session {} was never allocated", request.session),
                ))
            }
        };
        // The store lock is already released. The session's own lock
        // serialises concurrent edits to it, so each one repairs from the
        // state the previous one left. A session evicted meanwhile is still
        // repaired; the *next* edit gets the typed SessionEvicted answer.
        let mut pinned = session.lock().expect("session lock poisoned");
        let SessionSnapshot {
            game,
            initial,
            profile,
            edits,
        } = &mut *pinned;
        let edit = request.edit.to_edit();
        if matches!(edit, GameEdit::UserJoins { .. }) && game.users() >= self.limits.max_users {
            return ResponseBody::Error(WireError::new(
                ErrorKind::Oversize,
                format!(
                    "join would grow the session past the {}-user cap",
                    self.limits.max_users
                ),
            ));
        }
        let (solved, repair) = match self
            .session_engine
            .repair_in_place(game, initial, profile, &edit)
        {
            Ok(repaired) => repaired,
            Err(e) => return ResponseBody::Error(WireError::engine(&e)),
        };
        let Some(solution) = solved.solution else {
            return ResponseBody::Error(WireError::new(
                ErrorKind::Engine,
                "neither the warm repair nor the cold fallback certified; session unchanged",
            ));
        };
        let wire = WireSolution {
            choices: solution.profile.choices().to_vec(),
            method: solve_method_id(solution.method).to_string(),
        };
        *profile = solution.profile;
        *edits += 1;
        ResponseBody::Edit(EditReply {
            session: request.session,
            solution: wire,
            repair: wire_repair(&repair),
        })
    }

    /// `Release`: drop the pinned state, reporting the session's accepted
    /// edit count. Stale ids get the same typed answers as `Edit`.
    fn handle_release(&self, request: &ReleaseRequest) -> ResponseBody {
        match self.sessions.remove(request.session) {
            SessionRemoval::Released { edits } => {
                self.obs.sessions.set(self.sessions.len() as u64);
                ResponseBody::Release(ReleaseReply {
                    session: request.session,
                    edits,
                })
            }
            SessionRemoval::Evicted => ResponseBody::Error(WireError::new(
                ErrorKind::SessionEvicted,
                format!(
                    "session {} was already evicted or released",
                    request.session
                ),
            )),
            SessionRemoval::Unknown => ResponseBody::Error(WireError::new(
                ErrorKind::UnknownSession,
                format!("session {} was never allocated", request.session),
            )),
        }
    }

    /// The report body for a measured profile against completed brackets
    /// (shared by the worker path and the warm fast path). The profile is
    /// priced on top of the instance's initial traffic, like the brackets.
    fn measure_body(
        &self,
        key: String,
        instance: &Instance,
        pure: &PureProfile,
        outcome: &OptOutcome,
    ) -> ResponseBody {
        let game = &instance.game;
        let profile = MixedProfile::from_pure(pure, game.links());
        match measure_against(game, &profile, &instance.initial, outcome) {
            Ok(report) => ResponseBody::Measure(MeasureReply {
                key,
                outcome: MeasureOutcome::Report(wire_cost_report(&report)),
            }),
            Err(e) => ResponseBody::Error(WireError::engine(&e)),
        }
    }

    /// One stats snapshot. The request counters come from a single pass
    /// under the counter lock, so they are mutually consistent; the cache
    /// counters are sampled *after* that cut and may run slightly ahead of
    /// it (and may over-count misses: a reader's fast-path probe that punts
    /// to a worker records the miss twice). Tests pin the tolerance, not
    /// exact cache counts.
    fn stats_reply(&self) -> ResponseBody {
        let counters = *self.counters.lock().expect("counter lock poisoned");
        let solve = self.solve_cache.stats();
        let opt = self.opt_cache.stats();
        ResponseBody::Stats(StatsReply {
            solve_cache: WireCacheStats {
                hits: solve.hits,
                misses: solve.misses,
                entries: solve.entries,
                evictions: solve.evictions,
                capacity: self.solve_cache.capacity() as u64,
            },
            opt_cache: WireCacheStats {
                hits: opt.hits,
                misses: opt.misses,
                entries: opt.entries,
                evictions: opt.evictions,
                capacity: self.opt_cache.capacity() as u64,
            },
            requests: counters.requests,
            errors: counters.errors,
            deadline_hits: counters.deadline_hits,
            rejected: counters.rejected,
            queue_depth: self.obs.queue_depth.value(),
            queue_capacity: self.obs.queue_capacity.value(),
            busy_workers: self.obs.busy_workers.value(),
        })
    }

    /// One metrics snapshot: the full registry as wire types. Values are
    /// wall-clock measurements, so `Metrics` replies sit outside the replay
    /// contract (see [`replay`](crate::replay)) the same way `Stats` does.
    fn metrics_reply(&self) -> ResponseBody {
        ResponseBody::Metrics(wire_metrics(&self.obs.registry.snapshot()))
    }
}
