//! The served phase: two closed-loop connections against a spawned
//! `netuncert_serve`, connection 0 speaking JSON and connection 1 binary
//! frames.
//!
//! Work runs in rounds so that request generation never overlaps a timed
//! round trip: both connections generate and encode their next batch,
//! meet at a barrier, run their batch back to back (stopping together as
//! soon as either runs dry or the run's measured time is spent), meet
//! again, and only then parse and verify what they received. Measured time
//! is the sum of the rounds' timed windows.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use netuncert_core::prelude::{is_pure_nash, EffectiveGame, LinkLoads, PureProfile, Tolerance};
use netuncert_serve::frame;
use netuncert_serve::protocol::{
    BracketOutcome, MeasureOutcome, MetricsReply, RequestBody, Response, ResponseBody,
    SolveOutcome, StatsReply, WireBracket, WireInstance,
};
use netuncert_serve::state::{ServeConfig, ServeState};
use serde::Serialize;

use crate::inputs::{self, batch_size, framing_of, Framing, Item, RequestId, Served, Session};
use crate::service::{parse_reply, spawn_timed, Conn, Service};
use crate::stats::{nanos, Window};

/// Services spawned to time set-up; the last one serves the workload.
const SETUP_SPAWNS: usize = 15;

/// What the verifier found wrong, kept short for the report.
const MAX_NOTES: usize = 8;

/// Everything one served phase measured and checked.
#[derive(Default)]
pub struct ServedRun {
    /// Spawn → first answer, one per spawned service, seconds.
    pub setup_s: Vec<f64>,
    /// Sum of the rounds' timed windows, seconds.
    pub measured_s: f64,
    /// Every round's timed window; its units are requests (solve,
    /// bracket) or `Edit`s.
    pub windows: Vec<Window>,
    /// Every timed round trip by the request it carried, ms.
    pub rtt_by_id: HashMap<RequestId, f64>,
    /// Request-write and reply-read spans per connection (traced phase
    /// only), µs.
    pub write_us: Vec<f64>,
    /// First reply byte → last reply byte (traced phase only), µs.
    pub read_us: Vec<f64>,
    /// Requests issued, every verb.
    pub attempted: u64,
    /// Requests answered with an error, refused, lost, or failing a check.
    pub failed: u64,
    /// `upper / lower` of every answered OPT1 / OPT2 bracket.
    pub widths: [Vec<f64>; 2],
    /// Compute requests per warm tier: `[solve, opt]`.
    pub tier_requests: [u64; 2],
    /// The service's counters after the timed phase.
    pub stats: Option<StatsReply>,
    /// The service's registry after the timed phase.
    pub metrics: Option<MetricsReply>,
    /// The first few problems found.
    pub notes: Vec<String>,
}

impl ServedRun {
    /// Units of work completed.
    pub fn units(&self) -> u64 {
        self.windows.iter().map(|w| w.units).sum()
    }

    /// The round trips of connection `conn` (`None`: both), ms.
    pub fn rtt_ms(&self, conn: Option<usize>) -> Vec<f64> {
        self.rtt_by_id
            .iter()
            .filter(|(id, _)| conn.is_none_or(|c| id.0 == c))
            .map(|(_, rtt)| *rtt)
            .collect()
    }

    fn note(&mut self, message: String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(message);
        }
    }

    fn absorb(&mut self, lane: LaneOut, conn: usize) {
        self.rtt_by_id
            .extend(lane.rtt_ids.into_iter().zip(lane.rtt_ms));
        self.write_us.extend(lane.write_us);
        self.read_us.extend(lane.read_us);
        self.attempted += lane.attempted;
        self.failed += lane.failed;
        for k in 0..2 {
            self.widths[k].extend(&lane.widths[k]);
            self.tier_requests[k] += lane.tier_requests[k];
        }
        for note in lane.notes {
            self.note(format!("conn {conn}: {note}"));
        }
    }
}

/// One connection's results for one round.
#[derive(Default)]
struct LaneOut {
    units: u64,
    rtt_ms: Vec<f64>,
    rtt_ids: Vec<RequestId>,
    write_us: Vec<f64>,
    read_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    widths: [Vec<f64>; 2],
    tier_requests: [u64; 2],
    notes: Vec<String>,
    /// The connection broke; the run cannot continue.
    broken: bool,
}

impl LaneOut {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(message);
        }
    }
}

/// One connection's state across rounds.
struct Lane {
    conn: Conn,
    /// A fresh engine-side service with the served configuration: the
    /// direct in-process engine call every reply is byte-diffed against.
    replay: ServeState,
}

/// What a timed window left to verify.
enum Received {
    Requests(Vec<(Arc<Item>, Vec<u8>)>),
    Sessions(Vec<SessionRecord>),
}

/// One churn session as it went over the wire.
struct SessionRecord {
    session: Session,
    upload: Vec<u8>,
    edits: Vec<Vec<u8>>,
    release: Option<Vec<u8>>,
}

/// Shared per-round coordination.
struct RoundCtx<'a> {
    workload: Served,
    seed: u64,
    round: u64,
    seconds: f64,
    measured_before: f64,
    traced: bool,
    start: &'a Barrier,
    finish: &'a Barrier,
    stop: &'a AtomicBool,
}

impl RoundCtx<'_> {
    fn keep_going(&self, start: Instant) -> bool {
        !self.stop.load(Ordering::Relaxed)
            && self.measured_before + start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Runs one served phase of `seconds` measured time.
pub fn run(server: &Path, workload: Served, seed: u64, seconds: f64, traced: bool) -> ServedRun {
    let mut out = ServedRun::default();
    let mut service: Option<Service> = None;
    for _ in 0..SETUP_SPAWNS {
        if let Some(previous) = service.take() {
            if let Err(e) = previous.shutdown() {
                out.failed += 1;
                out.note(format!("set-up service: {e}"));
            }
        }
        match spawn_timed(server) {
            Ok((spawned, took)) => {
                out.setup_s.push(took.as_secs_f64());
                service = Some(spawned);
            }
            Err(e) => {
                out.failed += 1;
                out.note(e);
                return out;
            }
        }
    }
    let service = service.expect("at least one spawn");
    let config = ServeConfig::default();
    let mut lanes = Vec::new();
    for conn in 0..2 {
        match Conn::open(&service.addr, framing_of(conn)) {
            Ok(c) => lanes.push(Lane {
                conn: c,
                replay: ServeState::new(&config),
            }),
            Err(e) => {
                out.failed += 1;
                out.note(format!("connect: {e}"));
                return out;
            }
        }
    }

    let start = Barrier::new(2);
    let finish = Barrier::new(2);
    let stop = AtomicBool::new(false);
    let mut round = 0u64;
    let mut broken = false;
    while out.measured_s < seconds && !broken {
        stop.store(false, Ordering::Relaxed);
        let ctx = RoundCtx {
            workload,
            seed,
            round,
            seconds,
            measured_before: out.measured_s,
            traced,
            start: &start,
            finish: &finish,
            stop: &stop,
        };
        let results: Vec<(Instant, Instant, LaneOut)> = std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .iter_mut()
                .enumerate()
                .map(|(conn, lane)| {
                    let ctx = &ctx;
                    scope.spawn(move || lane_round(ctx, conn, lane))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lane thread panicked"))
                .collect()
        });
        let first = results.iter().map(|r| r.0).min().expect("two lanes");
        let last = results.iter().map(|r| r.1).max().expect("two lanes");
        let seconds = last.duration_since(first).as_secs_f64();
        out.measured_s += seconds;
        out.windows.push(Window {
            seconds,
            units: results.iter().map(|r| r.2.units).sum(),
            samples_ms: results
                .iter()
                .flat_map(|r| r.2.rtt_ms.iter().copied())
                .collect(),
        });
        for (conn, (_, _, lane)) in results.into_iter().enumerate() {
            broken |= lane.broken;
            out.absorb(lane, conn);
        }
        round += 1;
    }

    finish_service(&mut out, service, lanes);
    out
}

/// Reads the service's counters, drains it, and checks it exits cleanly.
fn finish_service(out: &mut ServedRun, service: Service, lanes: Vec<Lane>) {
    drop(lanes);
    match Conn::open(&service.addr, Framing::Json) {
        Ok(mut admin) => {
            match admin.call(RequestBody::Stats).map(|r| r.body) {
                Ok(ResponseBody::Stats(stats)) => out.stats = Some(stats),
                other => out.note(format!("Stats: {other:?}")),
            }
            match admin.call(RequestBody::Metrics).map(|r| r.body) {
                Ok(ResponseBody::Metrics(metrics)) => out.metrics = Some(metrics),
                other => out.note(format!("Metrics: {other:?}")),
            }
        }
        Err(e) => out.note(format!("admin connect: {e}")),
    }
    if let Some(stats) = &out.stats {
        if stats.errors > 0 || stats.rejected > 0 {
            out.note(format!(
                "service counted {} errors and {} rejections",
                stats.errors, stats.rejected
            ));
        }
    }
    if let Err(e) = service.shutdown() {
        out.failed += 1;
        out.note(e);
    }
}

/// One connection's round: generate, time, verify.
fn lane_round(ctx: &RoundCtx<'_>, conn: usize, lane: &mut Lane) -> (Instant, Instant, LaneOut) {
    let framing = lane.conn.framing();
    let mut out = LaneOut::default();
    let size = batch_size(ctx.workload);
    let work = match ctx.workload {
        Served::Churn => Work::Sessions(inputs::sessions(
            ctx.seed,
            conn,
            ctx.round,
            size,
            Some(framing),
        )),
        w => Work::Requests(inputs::batch(
            w,
            ctx.seed,
            conn,
            ctx.round,
            size,
            Some(framing),
        )),
    };

    ctx.start.wait();
    let start = Instant::now();
    let received = match work {
        Work::Requests(batch) => {
            Received::Requests(timed_requests(ctx, conn, lane, batch, start, &mut out))
        }
        Work::Sessions(sessions) => {
            Received::Sessions(timed_sessions(ctx, conn, lane, sessions, start, &mut out))
        }
    };
    ctx.stop.store(true, Ordering::Relaxed);
    let end = Instant::now();
    ctx.finish.wait();

    match received {
        Received::Requests(records) => {
            // A repeat must come back byte-identical to its first answer
            // (warm-tier hits replay the cold result), which stands in for
            // re-verifying it.
            let mut first: HashMap<*const Item, (usize, bool)> = HashMap::new();
            for (i, (item, reply)) in records.iter().enumerate() {
                if let Some(&(j, ok)) = first.get(&Arc::as_ptr(item)) {
                    out.attempted += 1;
                    out.tier_requests[tier_of(item)] += 1;
                    if !ok || records[j].1 != *reply {
                        out.fail("a repeated request was not answered like its first".into());
                    }
                    continue;
                }
                let failed = out.failed;
                verify_request(lane, framing, item, reply, &mut out);
                first.insert(Arc::as_ptr(item), (i, out.failed == failed));
            }
        }
        Received::Sessions(records) => {
            for record in records {
                verify_session(framing, record, &mut out);
            }
        }
    }
    (start, end, out)
}

enum Work {
    Requests(Vec<Arc<Item>>),
    Sessions(Vec<Session>),
}

/// One timed round trip of request `id`, recorded in `out` (with the
/// client-side spans when traced); returns the reply.
fn timed_call(
    conn: &mut Conn,
    wire: &[u8],
    id: RequestId,
    traced: bool,
    out: &mut LaneOut,
) -> std::io::Result<Vec<u8>> {
    let t = Instant::now();
    let reply = if traced {
        let (reply, spans) = conn.round_trip_traced(wire)?;
        out.write_us.push(nanos(spans[0].duration_since(t)) / 1e3);
        out.read_us
            .push(nanos(spans[2].duration_since(spans[1])) / 1e3);
        reply
    } else {
        conn.round_trip(wire)?
    };
    let rtt = t.elapsed();
    out.units += 1;
    out.rtt_ms.push(nanos(rtt) / 1e6);
    out.rtt_ids.push(id);
    Ok(reply.to_vec())
}

fn timed_requests(
    ctx: &RoundCtx<'_>,
    conn: usize,
    lane: &mut Lane,
    batch: Vec<Arc<Item>>,
    start: Instant,
    out: &mut LaneOut,
) -> Vec<(Arc<Item>, Vec<u8>)> {
    let framing = lane.conn.framing();
    let mut records = Vec::with_capacity(batch.len());
    for (i, item) in batch.into_iter().enumerate() {
        if !ctx.keep_going(start) {
            break;
        }
        let id = (conn, ctx.round, i);
        match timed_call(&mut lane.conn, item.wire(framing), id, ctx.traced, out) {
            Ok(reply) => records.push((item, reply)),
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("round trip: {e}"));
                out.broken = true;
                break;
            }
        }
    }
    records
}

fn timed_sessions(
    ctx: &RoundCtx<'_>,
    conn: usize,
    lane: &mut Lane,
    sessions: Vec<Session>,
    start: Instant,
    out: &mut LaneOut,
) -> Vec<SessionRecord> {
    let framing = lane.conn.framing();
    let mut records = Vec::new();
    for (s, session) in sessions.into_iter().enumerate() {
        if !ctx.keep_going(start) {
            break;
        }
        let upload = match lane.conn.round_trip(session.upload.wire(framing)) {
            Ok(reply) => reply.to_vec(),
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("upload: {e}"));
                out.broken = true;
                break;
            }
        };
        let id = match parse_reply(framing, &upload).map(|r| r.body) {
            Ok(ResponseBody::Upload(reply)) => reply.session,
            other => {
                out.attempted += 1;
                out.fail(format!("upload refused: {other:?}"));
                continue;
            }
        };
        let tail = inputs::session_tail(id, &session.edits, Some(framing));
        let (edit_items, release) = tail.split_at(session.edits.len());
        let mut record = SessionRecord {
            session,
            upload,
            edits: Vec::with_capacity(edit_items.len()),
            release: None,
        };
        for (j, item) in edit_items.iter().enumerate() {
            let id = (conn, ctx.round, s * inputs::EDITS_PER_SESSION + j);
            match timed_call(&mut lane.conn, item.wire(framing), id, ctx.traced, out) {
                Ok(reply) => record.edits.push(reply),
                Err(e) => {
                    out.fail(format!("edit: {e}"));
                    out.broken = true;
                    break;
                }
            }
        }
        if !out.broken {
            match lane.conn.round_trip(release[0].wire(framing)) {
                Ok(reply) => record.release = Some(reply.to_vec()),
                Err(e) => {
                    out.fail(format!("release: {e}"));
                    out.broken = true;
                }
            }
        }
        records.push(record);
        if out.broken {
            break;
        }
    }
    records
}

/// The engine-side game of a wire instance.
pub fn game_of(instance: &WireInstance) -> Result<EffectiveGame, String> {
    EffectiveGame::from_rows(instance.weights.clone(), instance.capacities.clone())
        .map_err(|e| e.to_string())
}

/// Whether `choices` is a certified pure Nash equilibrium of `game`.
fn certified(game: &EffectiveGame, choices: &[usize]) -> bool {
    let profile = PureProfile::new(choices.to_vec());
    profile.validate(game).is_ok()
        && is_pure_nash(
            game,
            &profile,
            &LinkLoads::zero(game.links()),
            Tolerance::default(),
        )
}

/// Checks `lower ≤ upper` with both ends usable and records the width.
fn check_bracket(which: usize, bracket: &WireBracket, out: &mut LaneOut) {
    let usable = bracket.lower > 0.0 && bracket.upper.is_finite() && bracket.lower <= bracket.upper;
    if usable {
        out.widths[which].push(bracket.upper / bracket.lower);
    } else {
        out.fail(format!(
            "OPT{} bracket [{}, {}] is not usable",
            which + 1,
            bracket.lower,
            bracket.upper
        ));
    }
}

/// The warm tier a request goes through: 0 solve, 1 opt.
fn tier_of(item: &Item) -> usize {
    usize::from(!matches!(item.request.body, RequestBody::Solve(_)))
}

/// The reply bytes the service writes for `response` in `framing`.
fn encode_reply(framing: Framing, response: &Response) -> Vec<u8> {
    match framing {
        Framing::Json => serde_json::to_string(response)
            .expect("wire types always serialise")
            .into_bytes(),
        Framing::Binary => frame::encode_value(&response.to_value()),
    }
}

/// Byte-diffs one reply against a direct in-process call on the lane's
/// own [`ServeState`] (what `replay::Replayer` does, minus its two
/// re-parses of the request line), then checks the answer itself: a
/// certified profile for `Solve`, usable brackets for `Bracket`/`Measure`.
fn verify_request(lane: &mut Lane, framing: Framing, item: &Item, reply: &[u8], out: &mut LaneOut) {
    out.attempted += 1;
    out.tier_requests[tier_of(item)] += 1;
    let replayed = lane.replay.handle_request(item.request.clone());
    if encode_reply(framing, &replayed) != reply {
        let shown = String::from_utf8_lossy(&reply[..reply.len().min(200)]).into_owned();
        return out.fail(format!("replay divergence, served {shown}"));
    }
    // The bytes match, so the replayed response is the served one.
    let instance = match &item.request.body {
        RequestBody::Solve(r) => &r.instance,
        RequestBody::Bracket(r) => &r.instance,
        RequestBody::Measure(r) => &r.instance,
        other => return out.fail(format!("unexpected request {other:?}")),
    };
    match replayed.body {
        ResponseBody::Solve(reply) => match reply.outcome {
            SolveOutcome::Solution(solution) => {
                let ok = game_of(instance).is_ok_and(|g| certified(&g, &solution.choices));
                if !ok {
                    out.fail("Solve profile failed certification".into());
                }
            }
            other => out.fail(format!("Solve without a solution: {other:?}")),
        },
        ResponseBody::Bracket(reply) => match reply.outcome {
            BracketOutcome::Brackets(b) => {
                check_bracket(0, &b.opt1, out);
                check_bracket(1, &b.opt2, out);
            }
            other => out.fail(format!("Bracket without brackets: {other:?}")),
        },
        ResponseBody::Measure(reply) => match reply.outcome {
            MeasureOutcome::Report(report) => {
                check_bracket(0, &report.opt1, out);
                check_bracket(1, &report.opt2, out);
            }
            other => out.fail(format!("Measure without a report: {other:?}")),
        },
        ResponseBody::Error(e) => out.fail(format!("{:?}: {}", e.kind, e.message)),
        other => out.fail(format!("unexpected reply {other:?}")),
    }
}

/// Re-certifies every answer of a session on a client-side mirror of its
/// game: the upload on the instance, each `Edit` on the game with every
/// edit so far applied.
fn verify_session(framing: Framing, record: SessionRecord, out: &mut LaneOut) {
    let expected = record.session.edits.len();
    out.attempted += 2 + expected as u64;
    let mut game = match game_of(&record.session.instance) {
        Ok(game) => game,
        Err(e) => return out.fail(e),
    };
    match parse_reply(framing, &record.upload).map(|r| r.body) {
        Ok(ResponseBody::Upload(reply)) if certified(&game, &reply.solution.choices) => {}
        other => out.fail(format!("upload not certified: {other:?}")),
    }
    for (edit, reply) in record.session.edits.iter().zip(&record.edits) {
        game = match game.apply_edit(&edit.to_edit()) {
            Ok(edited) => edited,
            Err(e) => return out.fail(format!("mirror edit: {e}")),
        };
        match parse_reply(framing, reply).map(|r| r.body) {
            Ok(ResponseBody::Edit(reply)) if certified(&game, &reply.solution.choices) => {}
            other => out.fail(format!("edit not certified: {other:?}")),
        }
    }
    if record.edits.len() < expected {
        out.failed += (expected - record.edits.len()) as u64;
    }
    match record
        .release
        .map(|r| parse_reply(framing, &r).map(|r| r.body))
    {
        Some(Ok(ResponseBody::Release(reply))) if reply.edits == expected as u64 => {}
        other => out.fail(format!("release: {other:?}")),
    }
}
