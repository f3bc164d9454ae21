//! The traced replay: the served phase's own requests, regenerated from
//! the seed and pushed in process, on one thread, through each layer's
//! public functions, every call timed from outside.
//!
//! Layers a workload does not exercise record no samples; their metrics
//! read 0.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use netuncert_core::opt::OptAttempt;
use netuncert_core::prelude::{
    is_pure_nash, ratio_bracket, sc1, sc2, EffectiveGame, LinkLoads, MixedProfile, OptBackendKind,
    OptConfig, OptEngine, OptMethod, PureProfile, SoAGame, SolverConfig, SolverEngine, SolverKind,
    Tolerance,
};
use netuncert_serve::frame;
use netuncert_serve::policy::Policy;
use netuncert_serve::protocol::{request_key, Request, RequestBody, Response, ResponseBody};
use netuncert_serve::session::{SessionLookup, SessionStore};
use netuncert_serve::state::{ServeConfig, ServeState};
use netuncert_serve::workload::default_solve_policy;
use serde::{Deserialize, Serialize};

use crate::inputs::{self, batch_size, framing_of, Framing, Item, RequestId, Served, REPEAT_EVERY};
use crate::stats::nanos;

/// Samples per layer metric plus the counters the replay keeps.
#[derive(Default)]
pub struct LayerRun {
    /// Per-call samples by metric name (µs unless the name says ms).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Summed `Relaxation` and whole-estimate wall time, ns.
    pub opt_relaxation_ns: f64,
    /// Summed wall time of the traced estimates, ns.
    pub opt_total_ns: f64,
    /// Warm repairs run, and how many fell back to a cold solve.
    pub repairs: u64,
    /// Repairs whose warm run stalled into a cold solve.
    pub repair_fallbacks: u64,
    /// Requests replayed.
    pub requests: u64,
    /// Per replayed request of the workload's latency unit: its decode,
    /// handle and encode time in its own connection's framing, µs.
    pub ledger: Vec<(RequestId, [f64; 3])>,
    /// Replayed calls that failed where the service succeeded.
    pub failed: u64,
    /// The first few problems found.
    pub notes: Vec<String>,
}

impl LayerRun {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        let took = start.elapsed();
        let scale = if name.ends_with("_ms") { 1e6 } else { 1e3 };
        self.samples
            .entry(name)
            .or_default()
            .push(nanos(took) / scale);
        out
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(message);
        }
    }

    /// The latest sample recorded under `name`.
    fn last(&self, name: &str) -> f64 {
        self.get(name).last().copied().unwrap_or(0.0)
    }

    /// Records `id`'s top-level server-side layers from the samples its
    /// replay just took.
    fn ledger_entry(&mut self, id: RequestId) {
        let (decode, encode) = match framing_of(id.0) {
            Framing::Json => (
                "serve.protocol.decode_json_us",
                "serve.protocol.encode_json_us",
            ),
            Framing::Binary => (
                "serve.frame.decode_binary_us",
                "serve.frame.encode_binary_us",
            ),
        };
        let entry = [
            self.last(decode),
            self.last("serve.state.handle_us"),
            self.last(encode),
        ];
        self.ledger.push((id, entry));
    }

    /// The samples recorded under `name` (empty when never exercised).
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}

/// The engine of `workload::default_solve_policy()`'s one leaf.
fn solve_engine() -> SolverEngine {
    let Policy::Solve(leaf) = default_solve_policy() else {
        unreachable!("the default solve policy is one Solve leaf");
    };
    let kinds: Vec<SolverKind> = leaf
        .solvers
        .iter()
        .map(|id| SolverKind::parse(id).expect("registered solver id"))
        .collect();
    SolverEngine::from_kinds(SolverConfig::default(), &kinds)
}

/// The engine of the bracket workload's one leaf.
fn bracket_engine() -> OptEngine {
    let Policy::Bracket(leaf) = inputs::bracket_policy() else {
        unreachable!("the bracket policy is one Bracket leaf");
    };
    let kinds: Vec<OptBackendKind> = leaf
        .backends
        .iter()
        .map(|id| OptBackendKind::parse(id).expect("registered opt backend id"))
        .collect();
    let config = OptConfig {
        width_goal: leaf.width_goal,
        ..OptConfig::default()
    };
    OptEngine::from_kinds(config, &kinds)
}

/// Replays `workload`'s requests, in the served phase's rounds, for
/// `seconds` of wall time.
pub fn run(workload: Served, seed: u64, seconds: f64) -> LayerRun {
    let mut out = LayerRun::default();
    let state = ServeState::new(&ServeConfig::default());
    let start = Instant::now();
    let mut round = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        for conn in 0..2 {
            match workload {
                Served::Churn => {
                    let sessions = inputs::sessions(seed, conn, round, batch_size(workload), None);
                    for (s, session) in sessions.into_iter().enumerate() {
                        let first = (conn, round, s * inputs::EDITS_PER_SESSION);
                        replay_session(&mut out, &state, session, first);
                    }
                }
                w => {
                    // The handlers run back to back, as in the service; the
                    // nested layers are timed in a second pass. Interleaving
                    // a nested-layer call before each handler on the same
                    // instance made the handler measurably slower.
                    let batch = inputs::batch(w, seed, conn, round, batch_size(w), None);
                    let requests: Vec<Option<Request>> = batch
                        .iter()
                        .enumerate()
                        .map(|(i, item)| replay_wire(&mut out, &state, item, (conn, round, i)))
                        .collect();
                    for (i, request) in requests.iter().enumerate() {
                        // A repeat is a warm-tier hit in the service: only
                        // its wire and handler layers run.
                        if let (Some(request), false) =
                            (request, i % REPEAT_EVERY == REPEAT_EVERY - 1)
                        {
                            replay_nested(&mut out, request);
                        }
                    }
                }
            }
        }
        round += 1;
    }
    out
}

/// Decodes both framings of `item` and returns the request.
fn decode(out: &mut LayerRun, item: &Item) -> Option<Request> {
    let json = out.time("serve.protocol.decode_json_us", || {
        serde_json::from_str::<Request>(item.line())
    });
    let payload = &item.frame.as_ref().expect("replay encodes both framings")[4..];
    let binary = out.time("serve.frame.decode_binary_us", || {
        frame::decode_value(payload)
            .ok()
            .and_then(|v| Request::from_value(&v).ok())
    });
    match (json, binary) {
        (Ok(request), Some(_)) => Some(request),
        _ => {
            out.fail("a generated request did not decode".into());
            None
        }
    }
}

/// The service's handler, then both reply encodings.
fn handle(out: &mut LayerRun, state: &ServeState, request: Request) -> Response {
    let response = out.time("serve.state.handle_us", || state.handle_request(request));
    out.time("serve.protocol.encode_json_us", || {
        serde_json::to_string(&response).expect("wire types always serialise")
    });
    out.time("serve.frame.encode_binary_us", || {
        frame::encode_value(&response.to_value())
    });
    if let ResponseBody::Error(e) = &response.body {
        out.fail(format!("{:?}: {}", e.kind, e.message));
    }
    response
}

/// Builds the game the way the service does: cloning the wire rows.
fn build(out: &mut LayerRun, request: &Request) -> Option<EffectiveGame> {
    let instance = match &request.body {
        RequestBody::Solve(r) => &r.instance,
        RequestBody::Bracket(r) => &r.instance,
        RequestBody::Measure(r) => &r.instance,
        RequestBody::Upload(r) => &r.instance,
        _ => return None,
    };
    let game = out.time("core.model.build_us", || {
        EffectiveGame::from_rows(instance.weights.clone(), instance.capacities.clone())
    });
    game.map_err(|e| out.fail(e.to_string())).ok()
}

fn certify(out: &mut LayerRun, game: &EffectiveGame, profile: &PureProfile) {
    let zero = LinkLoads::zero(game.links());
    let ok = out.time("core.equilibrium.certify_us", || {
        is_pure_nash(game, profile, &zero, Tolerance::default())
    });
    if !ok {
        out.fail("a replayed profile failed certification".into());
    }
}

fn attempt_ns(attempts: &[OptAttempt], method: OptMethod) -> f64 {
    attempts
        .iter()
        .filter(|a| a.method == method)
        .map(|a| a.wall_ns as f64)
        .sum()
}

/// Request `id` through the wire and handler layers, as the service runs
/// it: decode, key, handle, encode. Returns the decoded request.
fn replay_wire(
    out: &mut LayerRun,
    state: &ServeState,
    item: &Item,
    id: RequestId,
) -> Option<Request> {
    out.requests += 1;
    let request = decode(out, item)?;
    if !matches!(request.body, RequestBody::Edit(_)) {
        out.time("serve.protocol.request_key_us", || {
            request_key(&request.body)
        });
    }
    handle(out, state, request.clone());
    out.ledger_entry(id);
    Some(request)
}

/// The layers nested inside the handler of a cold `Solve`, `Bracket` or
/// `Measure`, each called on its own.
fn replay_nested(out: &mut LayerRun, request: &Request) {
    let Some(game) = build(out, request) else {
        return;
    };
    let zero = LinkLoads::zero(game.links());
    match &request.body {
        RequestBody::Solve(_) => {
            out.time("core.solvers.soa_pack_us", || SoAGame::from_game(&game));
            let engine = solve_engine();
            let solved = out.time("core.solvers.engine_solve_us", || {
                engine.solve(&game, &zero)
            });
            match solved.ok().and_then(|s| s.solution) {
                Some(solution) => certify(out, &game, &solution.profile),
                None => out.fail("the traced solve found no equilibrium".into()),
            }
        }
        RequestBody::Bracket(_) | RequestBody::Measure(_) => {
            match bracket_engine().estimate(&game, &zero) {
                Ok(outcome) => {
                    let attempts = &outcome.telemetry.attempts;
                    let lpt = attempt_ns(attempts, OptMethod::LptGreedy);
                    let relaxation = attempt_ns(attempts, OptMethod::Relaxation);
                    out.samples
                        .entry("core.opt.lpt_ms")
                        .or_default()
                        .push(lpt / 1e6);
                    out.samples
                        .entry("core.opt.relaxation_ms")
                        .or_default()
                        .push(relaxation / 1e6);
                    out.opt_relaxation_ns += relaxation;
                    out.opt_total_ns += outcome.telemetry.total_wall_ns as f64;
                    if let RequestBody::Measure(m) = &request.body {
                        let pure = PureProfile::new(m.profile.clone());
                        let ok = out.time("core.social_cost.measure_us", || {
                            let profile = MixedProfile::from_pure(&pure, game.links());
                            let (c1, c2) = (sc1(&game, &profile), sc2(&game, &profile));
                            ratio_bracket(c1, &outcome.opt1, "OPT1").is_ok()
                                && ratio_bracket(c2, &outcome.opt2, "OPT2").is_ok()
                        });
                        if !ok {
                            out.fail("a traced measure had an unusable bracket".into());
                        }
                    }
                }
                Err(e) => out.fail(format!("traced bracket: {e}")),
            }
        }
        _ => {}
    }
}

/// One churn session: the upload, then every `Edit` through the wire and
/// handler layers, then `Release`. A second pass times the nested layers
/// on a mirror of the session: the upload's solve, then per `Edit` the
/// session lookup, the edit, the repair and the certificate.
fn replay_session(
    out: &mut LayerRun,
    state: &ServeState,
    session: inputs::Session,
    first: RequestId,
) {
    let Some(upload) = decode(out, &session.upload) else {
        return;
    };
    let id = match state.handle_request(upload.clone()).body {
        ResponseBody::Upload(reply) => reply.session,
        other => return out.fail(format!("replayed upload: {other:?}")),
    };
    let tail = inputs::session_tail(id, &session.edits, None);
    let (edits, release) = tail.split_at(session.edits.len());
    for (j, item) in edits.iter().enumerate() {
        replay_wire(out, state, item, (first.0, first.1, first.2 + j));
    }
    if let Some(request) = release.first().and_then(|item| decode(out, item)) {
        state.handle_request(request);
    }

    let engine = SolverEngine::from_kinds(
        SolverConfig::default(),
        &[SolverKind::LocalSearch, SolverKind::Exhaustive],
    );
    let Some(game) = build(out, &upload) else {
        return;
    };
    let zero = LinkLoads::zero(game.links());
    out.time("core.solvers.soa_pack_us", || SoAGame::from_game(&game));
    let solved = out.time("core.solvers.engine_solve_us", || {
        engine.solve(&game, &zero)
    });
    let Some(profile) = solved.ok().and_then(|s| s.solution).map(|s| s.profile) else {
        return out.fail("the traced upload solve found no equilibrium".into());
    };
    certify(out, &game, &profile);
    let store = SessionStore::new(1);
    let (pinned, _) = store.insert(game, zero, profile);
    for wire_edit in &session.edits {
        let SessionLookup::Found(snapshot) =
            out.time("serve.session.lookup_us", || store.lookup(pinned))
        else {
            return out.fail("the traced session was not found".into());
        };
        let edit = wire_edit.to_edit();
        let edited = out.time("core.model.apply_edit_us", || {
            snapshot.game.apply_edit(&edit)
        });
        if let Ok(edited) = &edited {
            out.time("core.solvers.soa_pack_us", || SoAGame::from_game(edited));
        }
        let repaired = out.time("core.solvers.repair_us", || {
            engine.repair(&snapshot.game, &snapshot.initial, &snapshot.profile, &edit)
        });
        match repaired {
            Ok(outcome) => {
                out.repairs += 1;
                out.repair_fallbacks += u64::from(outcome.repair.fallback_cold);
                out.samples
                    .entry("core.solvers.repair_moves")
                    .or_default()
                    .push(outcome.repair.moves as f64);
                match outcome.solution.solution {
                    Some(solution) => {
                        certify(out, &outcome.game, &solution.profile);
                        store.update(pinned, outcome.game, solution.profile);
                    }
                    None => return out.fail("a traced repair found no equilibrium".into()),
                }
            }
            Err(e) => return out.fail(format!("traced repair: {e}")),
        }
    }
}
