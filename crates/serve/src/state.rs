//! The engine-side state one service instance owns, and the request
//! handler every connection reader runs.
//!
//! [`ServeState`] is the whole service minus the sockets: the shared
//! LRU warm tier ([`SolveCache`]/[`OptCache`]), the metrics registry that
//! holds its request counters, the resident sessions, and the draining
//! flag. Keeping it socket-free is what makes the replay harness possible — a fresh `ServeState` driven
//! in-process answers byte-for-byte like the TCP service (see
//! [`replay`](crate::replay)).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use netuncert_core::obs::{
    elapsed_ns, Counter as ObsCounter, Gauge, Histogram, Recorder, Registry,
};
use netuncert_core::prelude::{
    EffectiveGame, GameEdit, LinkLoads, MixedProfile, OptCache, OptOutcome, PureNashMethod,
    PureProfile, SolveCache, SolverConfig, SolverEngine,
};
use netuncert_core::social_cost::measure_against;

use crate::compile::{Built, BuiltRequest, Compute, Instance, Plan};
use crate::decode::{self, Decoded, Plain};
use crate::frame::Framing;
use crate::policy::{self, BracketEval, Budget, EvalCtx, SolveEval};
use crate::protocol::{
    deadline_solve_reply, wire_bracket_reply, wire_brackets, wire_cost_report, wire_metrics,
    wire_repair, wire_solve_reply, BracketOutcome, BracketReply, EditReply, EditRequest, ErrorKind,
    Limits, MeasureOutcome, MeasureReply, ReleaseReply, ReleaseRequest, Request, Response,
    ResponseBody, SolveOutcome, StatsReply, UploadReply, WireCacheStats, WireError, WireSolution,
};
use crate::session::{SessionLookup, SessionRemoval, SessionSnapshot, SessionStore};

/// Service configuration: compute permits, the waiting bound, warm-tier
/// bounds, wire limits.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Compute permits: how many connection readers may run engine work
    /// at once.
    pub workers: usize,
    /// Bound on the readers waiting for a permit while every permit is
    /// held; a request that finds this many waiting is rejected with a
    /// typed [`ErrorKind::Busy`] instead of waiting without bound.
    pub queue_depth: usize,
    /// LRU capacity of the solve warm tier, entries.
    pub solve_cache_capacity: usize,
    /// LRU capacity of the opt warm tier, entries.
    pub opt_cache_capacity: usize,
    /// Bound on concurrently pinned resident sessions ([`SessionStore`]);
    /// inserting past it evicts the least-recently-used session.
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

/// Pre-resolved handles into the service's metrics registry.
///
/// The serve layer's own telemetry is always on (unlike the engine probes,
/// which a [`Recorder`] can disable): the service exists to answer queries,
/// and its admission trajectory is part of the product. Handles are
/// resolved once at construction so the request path never takes the
/// registry's name-lookup lock.
pub(crate) struct ObsHandles {
    /// The registry every handle below resolves into; [`wire_metrics`]
    /// snapshots it for the `Metrics` verb.
    pub(crate) registry: Arc<Registry>,
    /// The recorder threaded into policy evaluation and the engines.
    pub(crate) recorder: Recorder,
    /// Time a compute request waited for a compute permit
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
    /// Readers waiting for a compute permit (`serve.queue_depth`).
    pub(crate) queue_depth: Arc<Gauge>,
    /// The configured waiting bound (`serve.queue_capacity`).
    pub(crate) queue_capacity: Arc<Gauge>,
    /// Compute permits held right now (`serve.busy_workers`).
    pub(crate) busy_workers: Arc<Gauge>,
    /// Live connection reader threads (`serve.readers`).
    pub(crate) readers: Arc<Gauge>,
    /// Admission counters: answered on the reader's warm fast path.
    pub(crate) admit_fast: Arc<ObsCounter>,
    /// Admission counters: ran under a compute permit.
    pub(crate) admit_queued: Arc<ObsCounter>,
    /// Admission counters: rejected with a typed `Busy` error.
    pub(crate) admit_busy: Arc<ObsCounter>,
    /// Engine walks that panicked and were answered with a typed `Engine`
    /// error (`serve.compute_panics`).
    pub(crate) compute_panics: Arc<ObsCounter>,
    /// Live pinned sessions (`serve.sessions`).
    pub(crate) sessions: Arc<Gauge>,
    /// Sessions pushed out of the bounded store by newer uploads
    /// (`serve.session_evictions`).
    pub(crate) session_evictions: Arc<ObsCounter>,
    /// Finished replies, one counter per class: answered
    /// (`serve.replies.ok`), a typed error (`serve.replies.error`), or a
    /// deadline outcome (`serve.replies.deadline`). Every finished reply
    /// lands in exactly one, so `Stats.requests` is their sum.
    replies_ok: Arc<ObsCounter>,
    replies_error: Arc<ObsCounter>,
    replies_deadline: Arc<ObsCounter>,
    /// Deadline left when a walk under one completed
    /// (`policy.deadline_slack_ns`), resolved by the first such walk.
    deadline_slack: OnceLock<Arc<Histogram>>,
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
            compute_panics: registry.counter("serve.compute_panics"),
            sessions: registry.gauge("serve.sessions"),
            session_evictions: registry.counter("serve.session_evictions"),
            replies_ok: registry.counter("serve.replies.ok"),
            replies_error: registry.counter("serve.replies.error"),
            replies_deadline: registry.counter("serve.replies.deadline"),
            deadline_slack: OnceLock::new(),
            registry,
        };
        handles.queue_capacity.set(queue_capacity as u64);
        handles
    }

    /// The `policy.deadline_slack_ns` histogram, registered on first use so
    /// a `Metrics` reply lists it only once a deadlined walk has completed.
    pub(crate) fn deadline_slack(&self) -> &Histogram {
        self.deadline_slack
            .get_or_init(|| self.registry.histogram("policy.deadline_slack_ns"))
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
    limits: Limits,
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
        ServeState {
            solve_cache: Arc::new(SolveCache::lru(config.solve_cache_capacity)),
            opt_cache: Arc::new(OptCache::lru(config.opt_cache_capacity)),
            limits: config.limits,
            draining: AtomicBool::new(false),
            sessions: SessionStore::new(config.session_capacity),
            session_engine: SolverEngine::from_kinds(
                SolverConfig::default(),
                &[PureNashMethod::LocalSearch, PureNashMethod::Exhaustive],
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
        let response = match self.compile(Framing::Json, line.as_bytes()) {
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

    /// Decodes and builds one message — a JSON line (trailing whitespace
    /// trimmed) or a binary frame payload — metering the decode under its
    /// framing. A malformed message, a line that is not UTF-8 included, is
    /// the typed id-0 `Parse` response.
    pub(crate) fn compile(
        &self,
        framing: Framing,
        message: &[u8],
    ) -> Result<BuiltRequest, Box<Response>> {
        let start = Instant::now();
        let decoded = match framing {
            Framing::Json => std::str::from_utf8(message)
                .map_err(|e| format!("line is not UTF-8 (byte {})", e.valid_up_to()))
                .and_then(|line| decode::json(line.trim_end(), &self.limits)),
            Framing::Binary => decode::frame(message, &self.limits),
        };
        let built = decoded.map(|decoded| {
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
                .compute(&compute, Budget::Cold(None))
                .expect("a cold walk always answers"),
            Built::Upload(instance) => self.handle_upload(instance),
            Built::Plain(Plain::Edit(edit)) => self.handle_edit(&edit),
            Built::Plain(Plain::Release(release)) => self.handle_release(&release),
        };
        self.finish(request.id, body)
    }

    /// Counts one handled request in exactly one reply counter, by its
    /// finished body, and seals the response envelope.
    pub(crate) fn finish(&self, id: u64, body: ResponseBody) -> Response {
        let deadlined = match &body {
            ResponseBody::Solve(reply) => matches!(reply.outcome, SolveOutcome::DeadlineExceeded),
            ResponseBody::Bracket(reply) => matches!(
                reply.outcome,
                BracketOutcome::DeadlineExceeded | BracketOutcome::Partial(_)
            ),
            ResponseBody::Measure(reply) => {
                matches!(reply.outcome, MeasureOutcome::DeadlineExceeded)
            }
            _ => false,
        };
        let class = match body {
            ResponseBody::Error(_) => &self.obs.replies_error,
            _ if deadlined => &self.obs.replies_deadline,
            _ => &self.obs.replies_ok,
        };
        class.incr(1);
        Response { id, body }
    }

    /// The connection reader's fast path: answers a request **without a
    /// compute permit** when no engine work is needed — `Stats`/`Shutdown`,
    /// draining rejections, validation errors, and any compute verb whose
    /// compiled plan completes from the warm tier alone. A compute verb
    /// runs the cold walk's own code under a warm-only budget, which punts
    /// at the first cold step (a leaf's warm-tier miss, or any `Timeout`
    /// node); the request is then handed back (`Err`) and the caller runs
    /// that same built request through [`handle_built`](Self::handle_built)
    /// under a permit.
    ///
    /// Everything answered here is byte-identical to what the cold walk
    /// would have produced for the same request, because it is the same
    /// walk. Only the warm tier's hit/miss counters can differ (a punted
    /// request's probe misses are recounted by the cold walk — the
    /// documented tolerance).
    pub(crate) fn try_handle_fast(
        &self,
        request: BuiltRequest,
    ) -> Result<Response, Box<BuiltRequest>> {
        match &request.body {
            Built::Compute(compute) if !self.draining() => {
                match self.compute(compute, Budget::WarmOnly) {
                    Some(body) => Ok(self.finish(request.id, body)),
                    None => Err(Box::new(request)),
                }
            }
            // Upload and Edit always run engines — never fast.
            Built::Upload(_) | Built::Plain(Plain::Edit(_)) if !self.draining() => {
                Err(Box::new(request))
            }
            // Release is pure bookkeeping; the admin verbs and draining
            // rejections answer exactly as under a permit.
            _ => Ok(self.handle_built(request)),
        }
    }

    /// Answers a compute verb: the policy's compile error, then the
    /// instance's validation error, then the `Measure` profile's, then one
    /// walk of the compiled plan under `budget`. `None` means a warm-only
    /// walk punted; a cold walk always answers.
    fn compute(&self, request: &Compute, budget: Budget) -> Option<ResponseBody> {
        let plan = match &request.plan {
            Ok(plan) => plan,
            Err(err) => return Some(ResponseBody::Error(err.clone())),
        };
        let instance = match &request.instance {
            Ok(instance) => instance,
            Err(err) => return Some(ResponseBody::Error(err.clone())),
        };
        if let Plan::Measure(_, pure) = plan {
            if let Err(e) = pure.validate(&instance.game) {
                return Some(ResponseBody::Error(WireError::new(
                    ErrorKind::InvalidRequest,
                    e.to_string(),
                )));
            }
        }
        // A cold walk is one request-level span; the warm probe opens
        // none.
        let span = matches!(budget, Budget::Cold(_)).then(|| {
            self.obs.recorder.span(match plan {
                Plan::Solve(_) => "solve",
                Plan::Bracket(_) => "bracket",
                Plan::Measure(..) => "measure",
            })
        });
        let ctx = EvalCtx {
            game: &instance.game,
            initial: &instance.initial,
            instance: instance.digest,
            solve_cache: &self.solve_cache,
            opt_cache: &self.opt_cache,
            obs: &self.obs,
        };
        let key = instance.key.clone();
        let body = match plan {
            Plan::Solve(plan) => match policy::eval_solve(plan, &ctx, budget) {
                Ok(SolveEval::Done(solved)) => ResponseBody::Solve(wire_solve_reply(key, &solved)),
                Ok(SolveEval::Deadline) => ResponseBody::Solve(deadline_solve_reply(key)),
                Ok(SolveEval::Punt) => return None,
                Err(err) => ResponseBody::Error(err),
            },
            Plan::Bracket(plan) => match policy::eval_bracket(plan, &ctx, budget) {
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
                Ok(BracketEval::Punt) => return None,
                Err(err) => ResponseBody::Error(err),
            },
            Plan::Measure(plan, pure) => match policy::eval_bracket(plan, &ctx, budget) {
                Ok(BracketEval::Done(done)) => {
                    self.measure_body(key, instance, pure, &done.outcome)
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
                Ok(BracketEval::Punt) => return None,
                Err(err) => ResponseBody::Error(err),
            },
        };
        if let Some(span) = span {
            span.finish();
        }
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
            method: solution.method.id().to_string(),
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
            method: solution.method.id().to_string(),
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

    /// The report body for a measured profile against completed brackets.
    /// The profile is priced on top of the instance's initial traffic, like
    /// the brackets.
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

    /// One stats snapshot, read from the registry `Metrics` exports. Each
    /// reply counter is read once and `requests` is their sum, so
    /// `errors + deadline_hits <= requests` holds in every snapshot; a
    /// `Busy` rejection is counted once, in `serve.admit_busy`. The cache
    /// counters are sampled after the reply counters and may run slightly
    /// ahead of them (and may over-count misses: a reader's fast-path probe
    /// that punts to the cold walk records the miss twice). Tests pin the
    /// tolerance, not exact cache counts.
    fn stats_reply(&self) -> ResponseBody {
        let errors = self.obs.replies_error.value();
        let deadline_hits = self.obs.replies_deadline.value();
        let requests = self.obs.replies_ok.value() + errors + deadline_hits;
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
            requests,
            errors,
            deadline_hits,
            rejected: self.obs.admit_busy.value(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Policy, SolveLeaf, TimeoutPolicy};
    use crate::protocol::{BracketRequest, MeasureRequest, RequestBody, SolveRequest};
    use crate::workload::{
        default_bracket_policy, default_solve_policy, race_policy, wire_instance,
    };

    /// The instance every case runs on: a general 8×3 game on which the
    /// `lpt,relaxation` bracket misses the 1.5 width goal and the starved
    /// leaves below find no equilibrium.
    const USERS: usize = 8;
    const LINKS: usize = 3;

    fn solve(policy: Policy) -> Request {
        Request {
            id: 7,
            body: RequestBody::Solve(SolveRequest {
                instance: wire_instance(USERS, LINKS, 0),
                policy,
            }),
        }
    }

    fn bracket(policy: Policy) -> Request {
        Request {
            id: 7,
            body: RequestBody::Bracket(BracketRequest {
                instance: wire_instance(USERS, LINKS, 0),
                policy,
            }),
        }
    }

    fn solve_leaf(id: &str, budget: Option<u64>) -> Policy {
        Policy::Solve(SolveLeaf {
            solvers: vec![id.into()],
            restarts: budget,
            max_steps: budget,
        })
    }

    /// A solve leaf with no moves and no restarts: it completes without an
    /// equilibrium on this instance.
    fn starved(id: &str) -> Policy {
        solve_leaf(id, Some(0))
    }

    /// The two children of `workload::default_bracket_policy()`.
    fn bracket_children() -> (Policy, Policy) {
        let Policy::Fallback(children) = default_bracket_policy() else {
            unreachable!("the default bracket policy is a Fallback");
        };
        let [first, second] = <[Policy; 2]>::try_from(children).expect("two children");
        (first, second)
    }

    fn line(response: &Response) -> String {
        serde_json::to_string(response).expect("wire types always serialise")
    }

    /// The reader's answer on `state`, or `None` when it punts.
    fn fast(state: &ServeState, request: &Request) -> Option<String> {
        let built = BuiltRequest::build(
            Decoded::from_request(request.clone(), &state.limits),
            |_| {},
        );
        state
            .try_handle_fast(built)
            .ok()
            .map(|response| line(&response))
    }

    /// A worker's answer on `state`.
    fn worker(state: &ServeState, request: &Request) -> String {
        line(&state.handle_request(request.clone()))
    }

    /// Warms two twin states with `warm`, then checks that a cold state's
    /// reader punts on `request`, and that the warm reader punts exactly
    /// when `answers` is false and otherwise answers byte for byte what the
    /// twin's worker answers.
    fn check(warm: &[Request], request: Request, answers: bool) {
        let config = ServeConfig::default();
        assert_eq!(
            fast(&ServeState::new(&config), &request),
            None,
            "a cold state must punt"
        );
        let (probed, twin) = (ServeState::new(&config), ServeState::new(&config));
        for state in [&probed, &twin] {
            for request in warm {
                state.handle_request(request.clone());
            }
        }
        let probe = fast(&probed, &request);
        if !answers {
            assert_eq!(probe, None, "expected a punt for {request:?}");
            return;
        }
        let probe = probe.unwrap_or_else(|| panic!("expected a warm answer for {request:?}"));
        assert_eq!(probe, worker(&twin, &request));
    }

    /// Whether `request` solves to an equilibrium on a fresh state.
    fn solves(request: Request) -> bool {
        let state = ServeState::new(&ServeConfig::default());
        let ResponseBody::Solve(reply) = state.handle_request(request).body else {
            panic!("expected a solve reply");
        };
        matches!(reply.outcome, SolveOutcome::Solution(_))
    }

    #[test]
    fn a_warm_solve_leaf_answers_like_the_worker() {
        let request = solve(default_solve_policy());
        check(std::slice::from_ref(&request), request.clone(), true);
    }

    #[test]
    fn a_race_with_one_warm_solved_lane_answers_in_round_zero() {
        // Lane 1 (local search) is warm with an equilibrium; lane 0 (best
        // response) is cold and never gets to step.
        assert!(solves(solve(solve_leaf("local_search", None))));
        check(
            &[solve(solve_leaf("local_search", None))],
            solve(race_policy()),
            true,
        );
        // A warm fallback child behind a race that would have to step
        // cannot answer: the race comes first.
        check(
            &[solve(solve_leaf("exhaustive", None))],
            solve(race_policy()),
            false,
        );
    }

    #[test]
    fn a_race_of_warm_unsolved_lanes_answers_with_lane_zero() {
        let race = Policy::Race(vec![starved("best_response"), starved("local_search")]);
        assert!(!solves(solve(starved("best_response"))));
        assert!(!solves(solve(starved("local_search"))));
        let warm = [
            solve(starved("best_response")),
            solve(starved("local_search")),
        ];
        check(&warm, solve(race.clone()), true);
        // With one lane cold the race would have to step: punt.
        check(&warm[..1], solve(race), false);
    }

    #[test]
    fn a_solve_fallback_moves_past_a_warm_unsolved_child() {
        let fallback = Policy::Fallback(vec![
            starved("best_response"),
            solve_leaf("exhaustive", None),
        ]);
        let warm = [
            solve(starved("best_response")),
            solve(solve_leaf("exhaustive", None)),
        ];
        check(&warm, solve(fallback.clone()), true);
        check(&warm[..1], solve(fallback), false);
    }

    #[test]
    fn a_bracket_fallback_answers_only_when_every_child_it_reaches_is_warm() {
        let (first, second) = bracket_children();
        // The first child misses its goal on this instance.
        let state = ServeState::new(&ServeConfig::default());
        let ResponseBody::Bracket(reply) = state.handle_request(bracket(first.clone())).body else {
            panic!("expected a bracket reply");
        };
        let BracketOutcome::Brackets(brackets) = reply.outcome else {
            panic!("expected brackets");
        };
        assert!(brackets.opt2.upper > 1.5 * brackets.opt2.lower);
        check(
            &[bracket(first.clone())],
            bracket(default_bracket_policy()),
            false,
        );
        check(
            &[bracket(second.clone())],
            bracket(default_bracket_policy()),
            false,
        );
        check(
            &[bracket(first), bracket(second)],
            bracket(default_bracket_policy()),
            true,
        );
    }

    #[test]
    fn a_warm_measure_answers_like_the_worker() {
        let (first, _) = bracket_children();
        let request = Request {
            id: 7,
            body: RequestBody::Measure(MeasureRequest {
                instance: wire_instance(USERS, LINKS, 0),
                profile: vec![0; USERS],
                policy: first.clone(),
            }),
        };
        check(&[bracket(first)], request, true);
    }

    #[test]
    fn a_timeout_always_punts_even_when_warm() {
        let leaf = default_solve_policy();
        let timed = Policy::Timeout(TimeoutPolicy {
            ms: 60_000,
            lower: Box::new(leaf.clone()),
        });
        check(&[solve(leaf)], solve(timed), false);
    }
}
