//! The newline-delimited JSON wire protocol.
//!
//! Every request and response is one JSON object on one line. Requests carry
//! a client-chosen `id` that the matching response echoes, an instance (for
//! the compute verbs) and a declarative [`Policy`]
//! tree describing *how* to answer. Responses are **deterministic**: the
//! wire types strip every wall-clock field the engines record, so the bytes
//! of a reply depend only on the request — which is what makes the service
//! diffable byte-for-byte against a direct in-process engine call (see
//! [`replay`](crate::replay)).
//!
//! Malformed input never kills a connection: every failure mode
//! maps to a typed [`ErrorKind`] inside a normal [`Response`] envelope. The
//! only exception is an over-long line ([`Limits::max_line_bytes`]), where
//! the server replies with [`ErrorKind::Oversize`] and then closes *that*
//! connection (the stream can no longer be framed); other connections are
//! unaffected.

use serde::{Deserialize, Serialize};

use netuncert_core::cache::{ContentHasher, InstanceKey};
use netuncert_core::obs::MetricsSnapshot;
use netuncert_core::opt::OptAttempt;
use netuncert_core::prelude::{
    EngineSolution, GameEdit, GameError, OptBracket, OptOutcome, RepairTelemetry, SolverAttempt,
};
use netuncert_core::social_cost::BracketedCostReport;

use crate::policy::Policy;

/// Size caps enforced before any engine work is scheduled.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Longest accepted request line, bytes (framing cap).
    pub max_line_bytes: usize,
    /// Largest accepted user count `n`.
    pub max_users: usize,
    /// Largest accepted link count `m`.
    pub max_links: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_line_bytes: 1 << 20,
            max_users: 4096,
            max_links: 64,
        }
    }
}

/// One request envelope: a client-chosen correlation id plus the verb.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Echoed verbatim in the matching [`Response`].
    pub id: u64,
    /// The verb and its payload.
    pub body: RequestBody,
}

/// The request verbs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Find a pure Nash equilibrium under a solve policy.
    Solve(SolveRequest),
    /// Bracket both social optima under a bracket policy.
    Bracket(BracketRequest),
    /// Measure a pure profile's social cost against bracketed optima.
    Measure(MeasureRequest),
    /// Pin an instance in a resident session: solve it once cold, keep the
    /// game and the certified profile server-side, and return a session id
    /// for subsequent `Edit` requests.
    Upload(UploadRequest),
    /// Apply one churn edit to a pinned session and warm-start repair its
    /// equilibrium from the last certified profile.
    Edit(EditRequest),
    /// Release a pinned session, dropping its game and profile.
    Release(ReleaseRequest),
    /// Read the service's cache and request counters.
    Stats,
    /// Read the full observability registry: every counter, gauge and
    /// latency histogram. Like `Stats`, the reply carries wall-clock values
    /// and is therefore excluded from the byte-for-byte replay contract.
    Metrics,
    /// Drain in-flight requests, stop accepting, exit cleanly.
    Shutdown,
}

/// An effective game on the wire: weights, per-user capacity rows, and an
/// optional initial-traffic vector (`null` means zero traffic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireInstance {
    /// Per-user traffic weights (`n` entries).
    pub weights: Vec<f64>,
    /// Per-user effective capacity rows (`n` rows of `m` entries).
    pub capacities: Vec<Vec<f64>>,
    /// Initial link loads (`m` entries), or `null` for zero traffic.
    pub initial: Option<Vec<f64>>,
}

/// A `Solve` request: instance + solve-policy tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveRequest {
    /// The game to solve.
    pub instance: WireInstance,
    /// How to solve it (only [`Policy::Solve`] leaves allowed).
    pub policy: Policy,
}

/// A `Bracket` request: instance + bracket-policy tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BracketRequest {
    /// The game whose optima to bracket.
    pub instance: WireInstance,
    /// How to bracket them (only [`Policy::Bracket`] leaves allowed).
    pub policy: Policy,
}

/// A `Measure` request: instance + pure profile + bracket policy for the
/// optimum side of the coordination ratios. The profile's social costs are
/// priced on top of the instance's initial loads, like the optima.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasureRequest {
    /// The game to measure in.
    pub instance: WireInstance,
    /// Per-user link choices of the pure profile being measured.
    pub profile: Vec<usize>,
    /// How to bracket the optima (only [`Policy::Bracket`] leaves allowed).
    pub policy: Policy,
}

/// An `Upload` request: the instance to pin. The session is solved with the
/// service's resident engine (no policy tree — session solving must leave a
/// certified profile to repair from, so the portfolio is fixed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UploadRequest {
    /// The game to pin and solve.
    pub instance: WireInstance,
}

/// An `Edit` request: one churn edit against a pinned session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EditRequest {
    /// The session id an `Upload` reply handed out.
    pub session: u64,
    /// The edit to apply.
    pub edit: WireEdit,
}

/// A `Release` request: drop a pinned session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReleaseRequest {
    /// The session id to release.
    pub session: u64,
}

/// A churn edit on the wire, mirroring
/// [`GameEdit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireEdit {
    /// A new user joins with traffic `weight` and capacity row
    /// `capacities` (one entry per link); they are appended at index `n`.
    Join {
        /// Traffic of the joining user.
        weight: f64,
        /// The joining user's effective capacity on each link.
        capacities: Vec<f64>,
    },
    /// User `user` leaves; later users shift down by one index.
    Leave {
        /// Index of the departing user.
        user: usize,
    },
    /// The effective capacity of one `(user, link)` entry changes.
    Capacity {
        /// Row of the changed entry.
        user: usize,
        /// Column of the changed entry.
        link: usize,
        /// The new effective capacity.
        capacity: f64,
    },
}

impl WireEdit {
    /// The engine-side edit this wire edit describes.
    pub fn to_edit(&self) -> GameEdit {
        match self {
            WireEdit::Join { weight, capacities } => GameEdit::UserJoins {
                weight: *weight,
                capacities: capacities.clone(),
            },
            WireEdit::Leave { user } => GameEdit::UserLeaves { user: *user },
            WireEdit::Capacity {
                user,
                link,
                capacity,
            } => GameEdit::CapacityChange {
                user: *user,
                link: *link,
                capacity: *capacity,
            },
        }
    }

    /// The wire form of an engine-side edit.
    pub fn from_edit(edit: &GameEdit) -> WireEdit {
        match edit {
            GameEdit::UserJoins { weight, capacities } => WireEdit::Join {
                weight: *weight,
                capacities: capacities.clone(),
            },
            GameEdit::UserLeaves { user } => WireEdit::Leave { user: *user },
            GameEdit::CapacityChange {
                user,
                link,
                capacity,
            } => WireEdit::Capacity {
                user: *user,
                link: *link,
                capacity: *capacity,
            },
        }
    }
}

/// One response envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The id of the request this answers.
    pub id: u64,
    /// The result (or a typed error).
    pub body: ResponseBody,
}

/// The response payloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponseBody {
    /// Answer to a `Solve` request.
    Solve(SolveReply),
    /// Answer to a `Bracket` request.
    Bracket(BracketReply),
    /// Answer to a `Measure` request.
    Measure(MeasureReply),
    /// Answer to an `Upload` request.
    Upload(UploadReply),
    /// Answer to an `Edit` request.
    Edit(EditReply),
    /// Answer to a `Release` request.
    Release(ReleaseReply),
    /// Answer to a `Stats` request.
    Stats(StatsReply),
    /// Answer to a `Metrics` request.
    Metrics(MetricsReply),
    /// Acknowledges a `Shutdown` request; the service is now draining.
    Shutdown,
    /// The request failed in a typed, connection-preserving way.
    Error(WireError),
}

/// A typed protocol error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// The failure class.
    pub kind: ErrorKind,
    /// Human-readable detail (never needed to dispatch on).
    pub message: String,
    /// Readers found waiting for a compute permit at rejection
    /// ([`ErrorKind::Busy`] only).
    pub depth: Option<u64>,
    /// Configured bound on waiting readers ([`ErrorKind::Busy`] only).
    pub capacity: Option<u64>,
}

/// The failure classes a request can hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The line was not a well-formed request (truncated/invalid JSON,
    /// missing fields, wrong shapes).
    Parse,
    /// The request parsed but is structurally invalid (bad instance
    /// dimensions, bad profile, malformed policy tree, degenerate width
    /// goal).
    InvalidRequest,
    /// A policy leaf names a solver or opt-backend id the registry does not
    /// know.
    UnknownPolicy,
    /// A `Timeout` policy carries a zero or negative deadline.
    InvalidDeadline,
    /// The request exceeds a size cap ([`Limits`]).
    Oversize,
    /// The engines rejected the instance or failed while computing.
    Engine,
    /// Every compute permit is held and the bounded line of waiting
    /// readers is full; the request was rejected at admission without
    /// waiting. Carries the observed depth and the configured capacity in
    /// [`WireError::depth`] / [`WireError::capacity`].
    Busy,
    /// The named session id was once live but has been evicted from the
    /// bounded session store (or explicitly released) since. The pinned
    /// game is gone — re-`Upload` to continue editing. The service never
    /// silently re-solves on a stale id.
    SessionEvicted,
    /// The named session id was never allocated by this service instance.
    UnknownSession,
    /// The service is draining after a `Shutdown` request.
    Shutdown,
}

impl WireError {
    /// A typed error with a message.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        WireError {
            kind,
            message: message.into(),
            depth: None,
            capacity: None,
        }
    }

    /// Wraps an engine-side [`GameError`].
    pub fn engine(err: &GameError) -> Self {
        WireError::new(ErrorKind::Engine, err.to_string())
    }

    /// The back-pressure rejection: every compute permit was held and
    /// `depth` readers already waited, against a cap of `capacity`, when
    /// this request arrived.
    pub fn busy(depth: usize, capacity: usize) -> Self {
        WireError {
            kind: ErrorKind::Busy,
            message: format!("all compute permits held, {depth}/{capacity} waiting; retry later"),
            depth: Some(depth as u64),
            capacity: Some(capacity as u64),
        }
    }
}

/// A solved (or conclusively unsolved, or deadlined) equilibrium query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveReply {
    /// The canonical request key ([`request_key`]) this reply answers.
    pub key: String,
    /// The outcome.
    pub outcome: SolveOutcome,
    /// Every solver attempt behind the outcome, in engine order (empty for
    /// deadline exits).
    pub attempts: Vec<WireAttempt>,
}

/// The three ways a solve policy can end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SolveOutcome {
    /// An equilibrium was found.
    Solution(WireSolution),
    /// The policy completed without finding one (conclusive absence, or all
    /// budgets exhausted).
    NoSolution,
    /// The deadline fired before the policy completed.
    DeadlineExceeded,
}

/// A pure Nash equilibrium on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSolution {
    /// Per-user link choices.
    pub choices: Vec<usize>,
    /// Registry id of the method that found it (e.g. `"local_search"`).
    pub method: String,
}

/// One solver attempt, wall-clock stripped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireAttempt {
    /// Registry id of the solver.
    pub method: String,
    /// Iterations performed, for iterative methods.
    pub iterations: Option<u64>,
    /// Restarts consumed, for multi-restart methods.
    pub restarts: Option<u64>,
    /// Whether it produced an equilibrium.
    pub found: bool,
}

/// A bracketed (or deadlined) social-optimum query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BracketReply {
    /// The canonical request key ([`request_key`]) this reply answers.
    pub key: String,
    /// The outcome.
    pub outcome: BracketOutcome,
}

/// The three ways a bracket policy can end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BracketOutcome {
    /// Certified brackets were produced.
    Brackets(WireBrackets),
    /// The deadline fired **inside** a bracket leaf; these are the certified
    /// best-so-far brackets at the last checkpoint, possibly looser than the
    /// full composition would have produced (and possibly lacking a finite
    /// bound on one side's lower end).
    Partial(WireBrackets),
    /// The deadline fired before any leaf produced anything certifiable.
    DeadlineExceeded,
}

/// Both certified brackets plus the attempts behind them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireBrackets {
    /// Certified bracket around `OPT1`.
    pub opt1: WireBracket,
    /// Certified bracket around `OPT2`.
    pub opt2: WireBracket,
    /// Every estimator attempt, in run order, wall-clock stripped.
    pub attempts: Vec<WireOptAttempt>,
}

/// A certified two-sided bracket on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireBracket {
    /// Certified lower bound.
    pub lower: f64,
    /// Certified upper bound.
    pub upper: f64,
    /// Whether an exact backend collapsed the bracket to the optimum.
    pub exact: bool,
}

/// One estimator attempt, wall-clock stripped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireOptAttempt {
    /// Registry id of the estimator.
    pub method: String,
    /// Work performed, for iterative methods.
    pub iterations: Option<u64>,
    /// Whether the attempt returned exact values for both objectives.
    pub exact: bool,
}

/// A pinned session: the id for future `Edit`s plus the certified upload
/// solution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UploadReply {
    /// The allocated session id (unique per service instance).
    pub session: u64,
    /// The certified equilibrium of the uploaded instance.
    pub solution: WireSolution,
}

/// A repaired session: the certified equilibrium on the edited game plus
/// the repair's provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EditReply {
    /// The session id (echoed).
    pub session: u64,
    /// The certified equilibrium on the game *after* the edit.
    pub solution: WireSolution,
    /// How the repair went.
    pub repair: WireRepair,
}

/// Warm-start repair provenance on the wire (wall-clock free, like every
/// other reply field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireRepair {
    /// Improvement moves the warm local-search run performed.
    pub moves: u64,
    /// Kernel passes the warm run consumed.
    pub passes: u64,
    /// Restarts consumed (1 when the warm seed alone certified).
    pub restarts: u64,
    /// Whether the warm run stalled and a cold portfolio solve produced the
    /// answer instead.
    pub fallback_cold: bool,
}

/// Projects engine repair telemetry onto the wire.
pub fn wire_repair(repair: &RepairTelemetry) -> WireRepair {
    WireRepair {
        moves: repair.moves,
        passes: repair.passes,
        restarts: repair.restarts,
        fallback_cold: repair.fallback_cold,
    }
}

/// A released session.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReleaseReply {
    /// The session id (echoed; now permanently stale).
    pub session: u64,
    /// Edits the session accepted over its lifetime.
    pub edits: u64,
}

/// A measured (or deadlined) social-cost query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasureReply {
    /// The canonical request key ([`request_key`]) this reply answers.
    pub key: String,
    /// The outcome.
    pub outcome: MeasureOutcome,
}

/// The two ways a measure policy can end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MeasureOutcome {
    /// The cost report was produced.
    Report(WireCostReport),
    /// The deadline fired before the optimum side completed.
    DeadlineExceeded,
}

/// Social costs and bracketed coordination ratios on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireCostReport {
    /// `SC1(G, P)`.
    pub sc1: f64,
    /// `SC2(G, P)`.
    pub sc2: f64,
    /// Certified bracket around `OPT1(G)`.
    pub opt1: WireBracket,
    /// Certified bracket around `OPT2(G)`.
    pub opt2: WireBracket,
    /// Lower end of `SC1/OPT1`.
    pub cr1_lower: f64,
    /// Upper end of `SC1/OPT1`.
    pub cr1_upper: f64,
    /// Lower end of `SC2/OPT2`.
    pub cr2_lower: f64,
    /// Upper end of `SC2/OPT2`.
    pub cr2_upper: f64,
}

/// The service's counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Warm-tier counters of the solve cache.
    pub solve_cache: WireCacheStats,
    /// Warm-tier counters of the opt cache.
    pub opt_cache: WireCacheStats,
    /// Requests handled (all verbs).
    pub requests: u64,
    /// Requests that ended in a typed error.
    pub errors: u64,
    /// Requests that ended in a deadline outcome (partial brackets
    /// included).
    pub deadline_hits: u64,
    /// Requests refused at admission because every compute permit was held
    /// and the waiting line was full; these never reach the engines and
    /// are **not** counted in `requests`.
    pub rejected: u64,
    /// Readers waiting for a compute permit right now (live gauge).
    pub queue_depth: u64,
    /// The configured bound on waiting readers (the `Busy` threshold).
    pub queue_capacity: u64,
    /// Compute permits held right now (live gauge).
    pub busy_workers: u64,
}

/// The full observability registry on the wire: every counter, gauge and
/// histogram summary, each list sorted by name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReply {
    /// Monotonic event counts.
    pub counters: Vec<WireCounter>,
    /// Instantaneous levels.
    pub gauges: Vec<WireGauge>,
    /// Latency histogram summaries.
    pub histograms: Vec<WireHistogram>,
}

/// One named counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireCounter {
    /// Instrument name (e.g. `"serve.admit_fast"`).
    pub name: String,
    /// Cumulative count.
    pub value: u64,
}

/// One named gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireGauge {
    /// Instrument name (e.g. `"serve.queue_depth"`).
    pub name: String,
    /// Current level.
    pub value: u64,
}

/// One named histogram summary. Values are nanoseconds for latency
/// histograms; percentiles are log2-bucket upper bounds, so
/// `p50 <= p90 <= p99 <= max` always holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireHistogram {
    /// Instrument name (e.g. `"serve.queue_wait_ns"`).
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (wrapping).
    pub sum: u64,
    /// 50th-percentile bucket upper bound.
    pub p50: u64,
    /// 90th-percentile bucket upper bound.
    pub p90: u64,
    /// 99th-percentile bucket upper bound.
    pub p99: u64,
    /// Upper bound of the highest non-empty bucket.
    pub max: u64,
}

/// Projects a registry snapshot onto the wire.
pub fn wire_metrics(snapshot: &MetricsSnapshot) -> MetricsReply {
    MetricsReply {
        counters: snapshot
            .counters
            .iter()
            .map(|(name, value)| WireCounter {
                name: name.clone(),
                value: *value,
            })
            .collect(),
        gauges: snapshot
            .gauges
            .iter()
            .map(|(name, value)| WireGauge {
                name: name.clone(),
                value: *value,
            })
            .collect(),
        histograms: snapshot
            .histograms
            .iter()
            .map(|(name, h)| WireHistogram {
                name: name.clone(),
                count: h.count,
                sum: h.sum,
                p50: h.p50,
                p90: h.p90,
                p99: h.p99,
                max: h.max,
            })
            .collect(),
    }
}

/// One cache's counters plus its configured bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a cold run.
    pub misses: u64,
    /// Distinct entries currently stored.
    pub entries: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// The entry cap.
    pub capacity: u64,
}

/// The compute verbs: the ones whose replies carry a request key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verb {
    /// `Solve`.
    Solve,
    /// `Bracket`.
    Bracket,
    /// `Measure`.
    Measure,
}

/// The canonical request key: a 64-bit digest of the typed request body,
/// as 16 hex digits (the id is deliberately excluded — two clients asking
/// the same question share a key).
///
/// For the compute verbs the key folds the verb, the instance's
/// [`InstanceKey`] (the same content digest the warm tier files the
/// instance under), the `Measure` profile and the policy tree. The service
/// computes it once per request from the decoded flat rows; this function
/// computes it from the typed body, with the same result, so replies stay
/// byte-identical across JSON, binary and in-process calls.
///
/// Hashing is word-wise ([`ContentHasher`]): floats as canonical bits, so
/// `-0.0` and `+0.0` initial loads are one question; every variant is
/// tagged and every variable-length field length-prefixed, so moving a
/// value across a field boundary changes the key.
pub fn request_key(body: &RequestBody) -> String {
    let mut h = ContentHasher::new();
    match body {
        RequestBody::Solve(r) => {
            return compute_key(Verb::Solve, wire_key(&r.instance), &[], &r.policy)
        }
        RequestBody::Bracket(r) => {
            return compute_key(Verb::Bracket, wire_key(&r.instance), &[], &r.policy)
        }
        RequestBody::Measure(r) => {
            return compute_key(Verb::Measure, wire_key(&r.instance), &r.profile, &r.policy)
        }
        RequestBody::Stats => h.word(3),
        RequestBody::Shutdown => h.word(4),
        RequestBody::Metrics => h.word(5),
        RequestBody::Upload(r) => {
            h.word(6);
            h.word(wire_key(&r.instance).digest());
        }
        RequestBody::Edit(r) => {
            h.word(7);
            h.word(r.session);
            hash_edit(&mut h, &r.edit);
        }
        RequestBody::Release(r) => {
            h.word(8);
            h.word(r.session);
        }
    }
    hex(&h)
}

/// The request key of a compute verb over an instance with digest
/// `instance` (see [`request_key`]).
pub(crate) fn compute_key(
    verb: Verb,
    instance: InstanceKey,
    profile: &[usize],
    policy: &Policy,
) -> String {
    let mut h = ContentHasher::new();
    h.word(verb as u64);
    h.word(instance.digest());
    if verb == Verb::Measure {
        h.word(profile.len() as u64);
        for &choice in profile {
            h.word(choice as u64);
        }
    }
    hash_policy(&mut h, policy);
    hex(&h)
}

fn hex(h: &ContentHasher) -> String {
    format!("{:016x}", h.finish())
}

/// The [`InstanceKey`] of a wire instance: equal to
/// [`InstanceKey::of`] the game it builds (an absent `initial` is the
/// zero-traffic vector the service builds for it).
fn wire_key(instance: &WireInstance) -> InstanceKey {
    let links = instance.capacities.first().map_or(0, Vec::len);
    let zeros;
    let initial = match &instance.initial {
        Some(loads) => loads.as_slice(),
        None => {
            zeros = vec![0.0; links];
            &zeros
        }
    };
    InstanceKey::of_rows(
        instance.weights.len(),
        links,
        &instance.weights,
        instance.capacities.iter().map(Vec::as_slice),
        initial,
    )
}

fn opt_word(h: &mut ContentHasher, value: Option<u64>) {
    match value {
        None => h.word(0),
        Some(v) => {
            h.word(1);
            h.word(v);
        }
    }
}

fn hash_edit(h: &mut ContentHasher, edit: &WireEdit) {
    match edit {
        WireEdit::Join { weight, capacities } => {
            h.word(0);
            h.f64s(&[*weight]);
            h.word(capacities.len() as u64);
            h.f64s(capacities);
        }
        WireEdit::Leave { user } => {
            h.word(1);
            h.word(*user as u64);
        }
        WireEdit::Capacity {
            user,
            link,
            capacity,
        } => {
            h.word(2);
            h.word(*user as u64);
            h.word(*link as u64);
            h.f64s(&[*capacity]);
        }
    }
}

fn hash_policy(h: &mut ContentHasher, policy: &Policy) {
    match policy {
        Policy::Solve(leaf) => {
            h.word(0);
            h.word(leaf.solvers.len() as u64);
            for id in &leaf.solvers {
                h.bytes(id.as_bytes());
            }
            opt_word(h, leaf.restarts);
            opt_word(h, leaf.max_steps);
        }
        Policy::Bracket(leaf) => {
            h.word(1);
            h.word(leaf.backends.len() as u64);
            for id in &leaf.backends {
                h.bytes(id.as_bytes());
            }
            match leaf.width_goal {
                None => h.word(0),
                Some(goal) => {
                    h.word(1);
                    h.f64s(&[goal]);
                }
            }
            opt_word(h, leaf.restarts);
        }
        Policy::Race(children) | Policy::Fallback(children) => {
            h.word(if matches!(policy, Policy::Race(_)) {
                2
            } else {
                3
            });
            h.word(children.len() as u64);
            for child in children {
                hash_policy(h, child);
            }
        }
        Policy::Timeout(timeout) => {
            h.word(4);
            h.word(timeout.ms as u64);
            hash_policy(h, &timeout.lower);
        }
    }
}

fn wire_attempt(attempt: &SolverAttempt) -> WireAttempt {
    WireAttempt {
        method: attempt.method.id().to_string(),
        iterations: attempt.iterations,
        restarts: attempt.restarts,
        found: attempt.found,
    }
}

fn wire_opt_attempt(attempt: &OptAttempt) -> WireOptAttempt {
    WireOptAttempt {
        method: attempt.method.id().to_string(),
        iterations: attempt.iterations,
        exact: attempt.exact,
    }
}

/// Projects an [`OptBracket`] onto the wire.
pub fn wire_bracket(bracket: &OptBracket) -> WireBracket {
    WireBracket {
        lower: bracket.lower,
        upper: bracket.upper,
        exact: bracket.exact,
    }
}

/// Projects an [`EngineSolution`] onto the deterministic wire form: the
/// solution choices plus every attempt with its wall-clock field dropped.
pub fn wire_solve_reply(key: String, solved: &EngineSolution) -> SolveReply {
    let outcome = match &solved.solution {
        Some(solution) => SolveOutcome::Solution(WireSolution {
            choices: solution.profile.choices().to_vec(),
            method: solution.method.id().to_string(),
        }),
        None => SolveOutcome::NoSolution,
    };
    SolveReply {
        key,
        outcome,
        attempts: solved.telemetry.attempts.iter().map(wire_attempt).collect(),
    }
}

/// The deadline form of a solve reply.
pub fn deadline_solve_reply(key: String) -> SolveReply {
    SolveReply {
        key,
        outcome: SolveOutcome::DeadlineExceeded,
        attempts: Vec::new(),
    }
}

/// Projects an [`OptOutcome`]'s brackets and attempts onto the wire.
pub fn wire_brackets(outcome: &OptOutcome) -> WireBrackets {
    WireBrackets {
        opt1: wire_bracket(&outcome.opt1),
        opt2: wire_bracket(&outcome.opt2),
        attempts: outcome
            .telemetry
            .attempts
            .iter()
            .map(wire_opt_attempt)
            .collect(),
    }
}

/// Projects an [`OptOutcome`] onto the deterministic wire form.
pub fn wire_bracket_reply(key: String, outcome: &OptOutcome) -> BracketReply {
    BracketReply {
        key,
        outcome: BracketOutcome::Brackets(wire_brackets(outcome)),
    }
}

/// Projects a [`BracketedCostReport`] onto the wire form.
pub fn wire_cost_report(report: &BracketedCostReport) -> WireCostReport {
    WireCostReport {
        sc1: report.sc1,
        sc2: report.sc2,
        opt1: wire_bracket(&report.opt1),
        opt2: wire_bracket(&report.opt2),
        cr1_lower: report.cr1.lower,
        cr1_upper: report.cr1.upper,
        cr2_lower: report.cr2.lower,
        cr2_upper: report.cr2.upper,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Policy, SolveLeaf};

    fn solve_request() -> RequestBody {
        RequestBody::Solve(SolveRequest {
            instance: WireInstance {
                weights: vec![1.0, 2.0],
                capacities: vec![vec![1.0, 2.0], vec![2.0, 1.0]],
                initial: None,
            },
            policy: Policy::Solve(SolveLeaf {
                solvers: vec!["two_links".to_string()],
                restarts: None,
                max_steps: None,
            }),
        })
    }

    #[test]
    fn requests_round_trip_through_json() {
        let request = Request {
            id: 7,
            body: solve_request(),
        };
        let line = serde_json::to_string(&request).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(request, back);
    }

    #[test]
    fn responses_round_trip_through_json() {
        let response = Response {
            id: 7,
            body: ResponseBody::Error(WireError::new(ErrorKind::Parse, "truncated")),
        };
        let line = serde_json::to_string(&response).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(response, back);
    }

    #[test]
    fn request_keys_ignore_the_id_but_not_the_payload() {
        let body = solve_request();
        let key = request_key(&body);
        assert_eq!(key.len(), 16);
        assert_eq!(key, request_key(&body.clone()));
        let RequestBody::Solve(mut other) = body.clone() else {
            unreachable!()
        };
        other.instance.weights[0] = 1.5;
        assert_ne!(key, request_key(&RequestBody::Solve(other)));
    }

    #[test]
    fn request_keys_distinguish_verbs_and_policy_structure() {
        // Admin verbs all hash apart.
        let admin = [
            RequestBody::Stats,
            RequestBody::Metrics,
            RequestBody::Shutdown,
        ];
        for (i, a) in admin.iter().enumerate() {
            for b in &admin[i + 1..] {
                assert_ne!(request_key(a), request_key(b));
            }
        }
        // The same leaf under Race vs Fallback is a different question.
        let leaf = Policy::Solve(SolveLeaf {
            solvers: vec!["two_links".to_string()],
            restarts: None,
            max_steps: None,
        });
        let instance = WireInstance {
            weights: vec![1.0, 2.0],
            capacities: vec![vec![1.0, 2.0], vec![2.0, 1.0]],
            initial: None,
        };
        let with_policy = |policy: Policy| {
            request_key(&RequestBody::Solve(SolveRequest {
                instance: instance.clone(),
                policy,
            }))
        };
        assert_ne!(
            with_policy(Policy::Race(vec![leaf.clone()])),
            with_policy(Policy::Fallback(vec![leaf.clone()])),
        );
        assert_ne!(
            with_policy(leaf.clone()),
            with_policy(Policy::Race(vec![leaf]))
        );
    }

    #[test]
    fn request_keys_are_length_prefixed_not_concatenated() {
        // Moving a value across a field boundary must change the key: the
        // hash is fed length-prefixed streams, not raw concatenated floats.
        let key = |weights: Vec<f64>, caps: Vec<Vec<f64>>| {
            request_key(&RequestBody::Solve(SolveRequest {
                instance: WireInstance {
                    weights,
                    capacities: caps,
                    initial: None,
                },
                policy: Policy::Solve(SolveLeaf {
                    solvers: vec!["two_links".to_string()],
                    restarts: None,
                    max_steps: None,
                }),
            }))
        };
        assert_ne!(
            key(vec![1.0, 2.0, 3.0], vec![vec![4.0]]),
            key(vec![1.0, 2.0], vec![vec![3.0, 4.0]]),
        );
    }

    #[test]
    fn session_requests_round_trip_and_hash_apart() {
        let instance = WireInstance {
            weights: vec![1.0, 2.0],
            capacities: vec![vec![1.0, 2.0], vec![2.0, 1.0]],
            initial: None,
        };
        let upload = RequestBody::Upload(UploadRequest {
            instance: instance.clone(),
        });
        let edit = RequestBody::Edit(EditRequest {
            session: 3,
            edit: WireEdit::Capacity {
                user: 0,
                link: 1,
                capacity: 5.0,
            },
        });
        let release = RequestBody::Release(ReleaseRequest { session: 3 });
        for body in [&upload, &edit, &release] {
            let request = Request {
                id: 9,
                body: body.clone(),
            };
            let line = serde_json::to_string(&request).unwrap();
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(request, back);
        }
        // The session verbs hash apart from each other and from a Solve of
        // the same instance.
        let solve = solve_request();
        let bodies = [&upload, &edit, &release, &solve];
        for (i, a) in bodies.iter().enumerate() {
            for b in &bodies[i + 1..] {
                assert_ne!(request_key(a), request_key(b));
            }
        }
        // Different edits on the same session are different questions.
        let other_edit = RequestBody::Edit(EditRequest {
            session: 3,
            edit: WireEdit::Leave { user: 0 },
        });
        assert_ne!(request_key(&edit), request_key(&other_edit));
    }

    #[test]
    fn wire_edits_round_trip_through_the_engine_form() {
        let edits = [
            WireEdit::Join {
                weight: 2.5,
                capacities: vec![1.0, 4.0],
            },
            WireEdit::Leave { user: 1 },
            WireEdit::Capacity {
                user: 0,
                link: 1,
                capacity: 9.0,
            },
        ];
        for wire in edits {
            assert_eq!(WireEdit::from_edit(&wire.to_edit()), wire);
        }
    }

    #[test]
    fn metrics_replies_round_trip_through_json() {
        let response = Response {
            id: 9,
            body: ResponseBody::Metrics(MetricsReply {
                counters: vec![WireCounter {
                    name: "serve.admit_fast".to_string(),
                    value: 3,
                }],
                gauges: vec![WireGauge {
                    name: "serve.queue_depth".to_string(),
                    value: 0,
                }],
                histograms: vec![WireHistogram {
                    name: "serve.service_ns".to_string(),
                    count: 3,
                    sum: 3000,
                    p50: 1023,
                    p90: 1023,
                    p99: 2047,
                    max: 2047,
                }],
            }),
        };
        let line = serde_json::to_string(&response).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(response, back);
    }
}
