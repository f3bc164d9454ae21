//! The service under pressure: a saturated permit gate must answer
//! typed `Busy` rejections promptly while warm-tier requests keep
//! flowing, a drain must never silently drop a half-received frame, tiny
//! deadlines over adversarial policy trees must never panic, and the
//! stats counters must stay coherent under concurrency.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use serde::Deserialize;

use netuncert_serve::frame;
use netuncert_serve::policy::{BracketLeaf, Policy, SolveLeaf, TimeoutPolicy};
use netuncert_serve::protocol::{
    BracketRequest, ErrorKind, MetricsReply, Request, RequestBody, Response, ResponseBody,
    SolveRequest,
};
use netuncert_serve::state::{ServeConfig, ServeState};
use netuncert_serve::workload::{default_solve_policy, wire_instance};
use netuncert_serve::{Client, Server};

/// Binds an ephemeral service and returns (address, run-thread handle).
fn start(
    config: &ServeConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn shutdown(addr: std::net::SocketAddr) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    let response = client.call(RequestBody::Shutdown).expect("shutdown ack");
    assert!(matches!(response.body, ResponseBody::Shutdown));
}

/// A deadline-bounded local-search grind on a big instance: holds a
/// compute permit for roughly `ms` milliseconds, cannot take the reader
/// fast path (it carries a `Timeout`), and ends in a typed deadline
/// outcome.
fn slow_solve(id: u64, seed: u64, ms: i64) -> Request {
    Request {
        id,
        body: RequestBody::Solve(SolveRequest {
            instance: wire_instance(512, 16, seed),
            policy: Policy::Timeout(TimeoutPolicy {
                ms,
                lower: Box::new(Policy::Solve(SolveLeaf {
                    solvers: vec!["local_search".into()],
                    restarts: Some(5_000_000),
                    max_steps: None,
                })),
            }),
        }),
    }
}

/// A cold tiny solve (unique per seed): valid, cheap once scheduled, but
/// not answerable from the warm tier, so it must pass the admission gate.
fn cold_probe(id: u64, seed: u64) -> Request {
    Request {
        id,
        body: RequestBody::Solve(SolveRequest {
            instance: wire_instance(4, 3, seed),
            policy: default_solve_policy(),
        }),
    }
}

/// Saturating a 1-permit, depth-2 server yields typed `Busy` rejections
/// that arrive promptly (the reader refuses without waiting), carry the
/// number of waiting readers and the cap, leave the warm tier fully
/// responsive, are tallied exactly in `Stats.rejected`, and leak no
/// permit: once the flood is answered nothing waits and nothing is held.
#[test]
fn saturated_queue_answers_typed_busy_while_warm_requests_keep_flowing() {
    let config = ServeConfig {
        workers: 1,
        queue_depth: 2,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(&config);

    // Warm the tier before the flood.
    let warm_line = serde_json::to_string(&cold_probe(1, 5)).unwrap();
    let mut warm_client = Client::connect(addr).expect("warm connect");
    let warm_answer = warm_client.call_line(&warm_line).expect("warm solve");

    // Three slow solves: one holds the single permit, two wait for it.
    // Each lane reports its response so Busy rejections (possible if a
    // lane arrives before an earlier one is admitted) are counted too.
    let mut floods = Vec::new();
    for lane in 0..3u64 {
        floods.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("flood connect");
            let line = serde_json::to_string(&slow_solve(1, 1_000 + lane, 1_500)).unwrap();
            let raw = client.call_line(&line).expect("flood reply");
            serde_json::from_str::<Response>(&raw).expect("flood reply parses")
        }));
    }
    std::thread::sleep(Duration::from_millis(300));

    // A cold probe now hits the admission gate.
    let mut probe = Client::connect(addr).expect("probe connect");
    let mut busy_from_probes = 0u64;
    for attempt in 0..10u64 {
        let line = serde_json::to_string(&cold_probe(attempt + 2, 9_000 + attempt)).unwrap();
        let started = Instant::now();
        let raw = probe.call_line(&line).expect("probe reply");
        let elapsed = started.elapsed();
        let response: Response = serde_json::from_str(&raw).expect("probe reply parses");
        if let ResponseBody::Error(err) = &response.body {
            assert_eq!(err.kind, ErrorKind::Busy, "unexpected error: {err:?}");
            assert_eq!(err.capacity, Some(2), "capacity must ride the error");
            assert_eq!(err.depth, Some(2), "rejection happens at the cap");
            // Rejection is reader-side admission control, never waiting:
            // it must answer in network time, not solve time.
            assert!(
                elapsed < Duration::from_millis(500),
                "Busy took {elapsed:?}"
            );
            busy_from_probes += 1;
            break;
        }
        // The probe found a free place in line and was answered; try
        // again.
    }

    // The warm tier keeps answering (byte-identically) while every permit
    // is held, because cached requests never take one.
    let started = Instant::now();
    let again = warm_client.call_line(&warm_line).expect("warm repeat");
    assert_eq!(again, warm_answer, "warm answers must replay exactly");
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "warm answer stalled behind the flood"
    );

    let mut busy_total = busy_from_probes;
    for flood in floods {
        let response = flood.join().expect("flood thread");
        match response.body {
            ResponseBody::Error(err) => {
                assert_eq!(err.kind, ErrorKind::Busy, "unexpected flood error: {err:?}");
                busy_total += 1;
            }
            ResponseBody::Solve(_) => {}
            other => panic!("unexpected flood reply: {other:?}"),
        }
    }
    assert!(busy_total > 0, "the flood never produced a Busy rejection");

    let mut client = Client::connect(addr).expect("stats connect");
    let response = client.call(RequestBody::Stats).expect("stats");
    let ResponseBody::Stats(stats) = response.body else {
        panic!("expected stats, got {response:?}");
    };
    assert_eq!(
        stats.rejected, busy_total,
        "every observed Busy (and nothing else) must be tallied"
    );
    assert!(
        stats.errors + stats.deadline_hits <= stats.requests,
        "inconsistent snapshot: {stats:?}"
    );
    // Every flood reply was sent after its permit came back, and no path
    // (answer, deadline, rejection) leaks a permit or a place in line.
    assert_eq!(stats.queue_depth, 0, "a reader still waits: {stats:?}");
    assert_eq!(stats.busy_workers, 0, "a permit leaked: {stats:?}");
    // `Stats.rejected` and the admission counter are one instrument.
    let response = client.call(RequestBody::Metrics).expect("metrics");
    let ResponseBody::Metrics(metrics) = response.body else {
        panic!("expected metrics, got {response:?}");
    };
    assert_eq!(counter(&metrics, "serve.admit_busy"), stats.rejected);

    shutdown(addr);
    handle.join().expect("server thread").expect("clean run");
}

/// A connection that has sent *half* a JSON line when the drain begins is
/// not silently dropped: after a short grace the reader answers the
/// started frame with a typed `Shutdown` error, and the service still
/// exits cleanly (no hang).
#[test]
fn half_received_json_frame_gets_a_typed_shutdown_error_on_drain() {
    let (addr, handle) = start(&ServeConfig::default());

    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.write_all(b"{\"id\":7,\"body\":{\"type\":\"St")
        .expect("half frame");
    raw.flush().expect("flush");
    // Give the reader time to buffer the partial line before draining.
    std::thread::sleep(Duration::from_millis(120));

    shutdown(addr);

    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reply = String::new();
    BufReader::new(raw)
        .read_line(&mut reply)
        .expect("the started frame must be answered, not dropped");
    let response: Response = serde_json::from_str(reply.trim_end()).expect("reply parses");
    assert_eq!(
        response.id, 0,
        "the frame never completed; id is unknowable"
    );
    let ResponseBody::Error(err) = response.body else {
        panic!("expected a typed error, got {reply}");
    };
    assert_eq!(err.kind, ErrorKind::Shutdown);

    handle.join().expect("server thread").expect("clean run");
}

/// The same guarantee on the binary framing: a connection that has sent
/// the magic byte and part of a frame header gets a typed binary-framed
/// `Shutdown` error when the drain gives up on it.
#[test]
fn half_received_binary_frame_gets_a_typed_shutdown_error_on_drain() {
    let (addr, handle) = start(&ServeConfig::default());

    let mut raw = TcpStream::connect(addr).expect("raw connect");
    // Magic byte plus two of the four header bytes: a started frame.
    raw.write_all(&[frame::BINARY_MAGIC, 0x10, 0x00])
        .expect("half header");
    raw.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(120));

    shutdown(addr);

    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let payload = frame::read_frame(&mut raw, 1 << 20).expect("typed binary reply");
    let value = frame::decode_value(&payload).expect("payload decodes");
    let response = Response::from_value(&value).expect("payload is a response");
    assert_eq!(response.id, 0);
    let ResponseBody::Error(err) = response.body else {
        panic!("expected a typed error, got {response:?}");
    };
    assert_eq!(err.kind, ErrorKind::Shutdown);

    handle.join().expect("server thread").expect("clean run");
}

/// Starts a frame with `opening`, drains the service, and keeps the frame
/// alive by writing `trickle` one byte every ~10 ms. Progress must not
/// extend the drain grace: the started frame gets its typed id-0
/// `Shutdown` answer (read by `read_reply`) well before the trickle would
/// have ended on its own.
fn trickled_frame_is_abandoned_on_drain(
    opening: &[u8],
    trickle: u8,
    read_reply: fn(&mut TcpStream) -> Response,
) {
    let (addr, handle) = start(&ServeConfig::default());
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.write_all(opening).expect("started frame");
    std::thread::sleep(Duration::from_millis(120));

    let stop = Arc::new(AtomicBool::new(false));
    let trickler = {
        let mut raw = raw.try_clone().expect("clone");
        let stop = Arc::clone(&stop);
        // At most ~5 s of trickle, and never a whole frame.
        std::thread::spawn(move || {
            for _ in 0..500 {
                if stop.load(Ordering::SeqCst) || raw.write_all(&[trickle]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    shutdown(addr);
    let drained = Instant::now();

    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let response = read_reply(&mut raw);
    let waited = drained.elapsed();
    stop.store(true, Ordering::SeqCst);
    trickler.join().expect("trickler");
    assert_eq!(response.id, 0);
    let ResponseBody::Error(err) = response.body else {
        panic!("expected a typed error, got {response:?}");
    };
    assert_eq!(err.kind, ErrorKind::Shutdown);
    assert!(
        waited < Duration::from_secs(1),
        "the trickle held the drain open for {waited:?}"
    );

    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn a_trickled_json_line_is_abandoned_within_the_drain_grace() {
    trickled_frame_is_abandoned_on_drain(b"{\"id\":7,\"body\":", b' ', |raw| {
        let mut reply = String::new();
        BufReader::new(raw)
            .read_line(&mut reply)
            .expect("the started line must be answered");
        serde_json::from_str(reply.trim_end()).expect("reply parses")
    });
}

#[test]
fn a_trickled_binary_frame_is_abandoned_within_the_drain_grace() {
    // Magic byte, a header declaring 1000 payload bytes, and three of them.
    let mut opening = vec![frame::BINARY_MAGIC];
    opening.extend_from_slice(&1000u32.to_le_bytes());
    opening.extend_from_slice(&[8, 2, 2]);
    trickled_frame_is_abandoned_on_drain(&opening, 0, |raw| {
        let payload = frame::read_frame(raw, 1 << 20).expect("typed binary reply");
        let value = frame::decode_value(&payload).expect("payload decodes");
        Response::from_value(&value).expect("payload is a response")
    });
}

/// Counter bookkeeping is exact when requests arrive in sequence: one
/// bump per request, classified once, with `rejected` untouched.
#[test]
fn counters_are_exact_in_sequence() {
    let state = ServeState::new(&ServeConfig::default());

    let ok = serde_json::to_string(&cold_probe(1, 11)).unwrap();
    state.handle_line(&ok);
    state.handle_line(&ok); // warm repeat still counts as a request

    let unknown = serde_json::to_string(&Request {
        id: 2,
        body: RequestBody::Solve(SolveRequest {
            instance: wire_instance(4, 3, 11),
            policy: Policy::Solve(SolveLeaf {
                solvers: vec!["no_such_solver".into()],
                restarts: None,
                max_steps: None,
            }),
        }),
    })
    .unwrap();
    state.handle_line(&unknown);

    let deadline = serde_json::to_string(&slow_solve(3, 12, 1)).unwrap();
    let raw = state.handle_line(&deadline);
    let response: Response = serde_json::from_str(&raw).expect("deadline reply parses");
    let ResponseBody::Solve(reply) = response.body else {
        panic!("expected a solve reply, got {raw}");
    };
    // A 1 ms budget against a 5M-restart grind must hit its deadline; the
    // classification below depends on it.
    assert_eq!(
        reply.outcome,
        netuncert_serve::protocol::SolveOutcome::DeadlineExceeded
    );

    // Parse errors are answered but never counted (no request existed).
    state.handle_line("not json");

    let stats_line = serde_json::to_string(&Request {
        id: 4,
        body: RequestBody::Stats,
    })
    .unwrap();
    let raw = state.handle_line(&stats_line);
    let response: Response = serde_json::from_str(&raw).expect("stats parses");
    let ResponseBody::Stats(stats) = response.body else {
        panic!("expected stats, got {raw}");
    };
    // The snapshot is cut before the Stats request itself is tallied.
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.deadline_hits, 1);
    assert_eq!(stats.rejected, 0);
}

/// A fresh state's stats gauges describe an idle service exactly: the
/// configured waiting bound, no waiting reader, and no held permit. After
/// a compute request, the `Metrics` verb returns a populated registry
/// whose serve-side instruments reflect that request.
#[test]
fn stats_gauges_and_metrics_reply_reflect_the_live_registry() {
    let config = ServeConfig {
        queue_depth: 7,
        ..ServeConfig::default()
    };
    let state = ServeState::new(&config);

    let stats_line = serde_json::to_string(&Request {
        id: 1,
        body: RequestBody::Stats,
    })
    .unwrap();
    let raw = state.handle_line(&stats_line);
    let response: Response = serde_json::from_str(&raw).expect("stats parses");
    let ResponseBody::Stats(stats) = response.body else {
        panic!("expected stats, got {raw}");
    };
    assert_eq!(stats.queue_capacity, 7, "capacity mirrors the config");
    assert_eq!(stats.queue_depth, 0, "no permit gate exists in-process");
    assert_eq!(stats.busy_workers, 0, "no permit gate exists in-process");

    // One compute request answered in-process. `handle_line` bypasses
    // admission (no permit-wait/service records), but the key, cache, and
    // span instruments must all move.
    let solve_line = serde_json::to_string(&cold_probe(2, 17)).unwrap();
    state.handle_line(&solve_line);

    let metrics_line = serde_json::to_string(&Request {
        id: 3,
        body: RequestBody::Metrics,
    })
    .unwrap();
    let raw = state.handle_line(&metrics_line);
    let response: Response = serde_json::from_str(&raw).expect("metrics parses");
    let ResponseBody::Metrics(metrics) = response.body else {
        panic!("expected metrics, got {raw}");
    };

    let gauge = |name: &str| {
        metrics
            .gauges
            .iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("gauge {name} missing"))
            .value
    };
    assert_eq!(gauge("serve.queue_capacity"), 7);
    assert_eq!(gauge("serve.queue_depth"), 0);
    assert_eq!(gauge("serve.busy_workers"), 0);

    let histogram = |name: &str| {
        metrics
            .histograms
            .iter()
            .find(|h| h.name == name)
            .unwrap_or_else(|| panic!("histogram {name} missing"))
    };
    // The request key was hashed once for the solve (Stats/Metrics carry
    // no key), and the cache recorded one keyed lookup plus one fill.
    assert_eq!(histogram("serve.request_key_ns").count, 1);
    assert_eq!(histogram("cache.solve.key_ns").count, 1);
    assert_eq!(histogram("cache.solve.fill_ns").count, 1);
    // The handler opened a root span and the leaf a child span.
    assert_eq!(histogram("span.solve").count, 1);
    assert_eq!(histogram("span.solve_leaf").count, 1);
    for h in &metrics.histograms {
        assert!(
            h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max,
            "disordered percentiles in {}: {h:?}",
            h.name
        );
    }

    // The same solve again is a warm hit: the key is hashed and the cache
    // probed a second time, spans reopen, but nothing refills.
    state.handle_line(&solve_line);
    let raw = state.handle_line(&metrics_line);
    let response: Response = serde_json::from_str(&raw).expect("metrics parses");
    let ResponseBody::Metrics(after) = response.body else {
        panic!("expected metrics, got {raw}");
    };
    let after_histogram = |name: &str| {
        after
            .histograms
            .iter()
            .find(|h| h.name == name)
            .unwrap_or_else(|| panic!("histogram {name} missing"))
    };
    assert_eq!(after_histogram("serve.request_key_ns").count, 2);
    assert_eq!(after_histogram("cache.solve.key_ns").count, 2);
    assert_eq!(after_histogram("cache.solve.fill_ns").count, 1);
    assert_eq!(after_histogram("span.solve").count, 2);
}

/// Under concurrent hammering, every stats snapshot is a single
/// consistent cut: the classified counters never exceed the request
/// count, in any interleaving.
#[test]
fn concurrent_counter_snapshots_are_single_consistent_cuts() {
    let state = Arc::new(ServeState::new(&ServeConfig::default()));
    const THREADS: usize = 4;
    const PER_THREAD: usize = 24;

    let mut workers = Vec::new();
    for lane in 0..THREADS {
        let state = Arc::clone(&state);
        workers.push(std::thread::spawn(move || {
            for index in 0..PER_THREAD {
                let seed = (lane * PER_THREAD + index) as u64;
                // Alternate good solves, unknown-solver errors, and tiny
                // deadlines so every counter moves.
                let request = match index % 3 {
                    0 => cold_probe(1, seed % 7),
                    1 => Request {
                        id: 1,
                        body: RequestBody::Solve(SolveRequest {
                            instance: wire_instance(4, 3, seed % 7),
                            policy: Policy::Solve(SolveLeaf {
                                solvers: vec!["bogus".into()],
                                restarts: None,
                                max_steps: None,
                            }),
                        }),
                    },
                    _ => slow_solve(1, seed % 5, 1),
                };
                let line = serde_json::to_string(&request).unwrap();
                state.handle_line(&line);
            }
        }));
    }

    let stats_line = serde_json::to_string(&Request {
        id: 9,
        body: RequestBody::Stats,
    })
    .unwrap();
    let mut polls = 0u64;
    while workers.iter().any(|w| !w.is_finished()) {
        let raw = state.handle_line(&stats_line);
        let response: Response = serde_json::from_str(&raw).expect("stats parses");
        let ResponseBody::Stats(stats) = response.body else {
            panic!("expected stats, got {raw}");
        };
        assert!(
            stats.errors + stats.deadline_hits <= stats.requests,
            "torn snapshot: {stats:?}"
        );
        polls += 1;
        std::thread::sleep(Duration::from_millis(1));
    }
    for worker in workers {
        worker.join().expect("hammer thread");
    }

    let raw = state.handle_line(&stats_line);
    let response: Response = serde_json::from_str(&raw).expect("stats parses");
    let ResponseBody::Stats(stats) = response.body else {
        panic!("expected stats, got {raw}");
    };
    // Every hammered request plus every poll (Stats counts as a request).
    assert_eq!(stats.requests, (THREADS * PER_THREAD) as u64 + polls);

    // `Metrics` exports the counters `Stats` reads: one reply class each.
    // The final `Stats` request counts itself, as ok, after its snapshot.
    let metrics_line = serde_json::to_string(&Request {
        id: 10,
        body: RequestBody::Metrics,
    })
    .unwrap();
    let raw = state.handle_line(&metrics_line);
    let response: Response = serde_json::from_str(&raw).expect("metrics parses");
    let ResponseBody::Metrics(metrics) = response.body else {
        panic!("expected metrics, got {raw}");
    };
    assert_eq!(
        counter(&metrics, "serve.replies.ok"),
        stats.requests - stats.errors - stats.deadline_hits + 1
    );
    assert_eq!(counter(&metrics, "serve.replies.error"), stats.errors);
    assert_eq!(
        counter(&metrics, "serve.replies.deadline"),
        stats.deadline_hits
    );
}

/// The value of counter `name` in a `Metrics` reply.
fn counter(metrics: &MetricsReply, name: &str) -> u64 {
    metrics
        .counters
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("counter {name} missing"))
        .value
}

/// A random small solve-policy tree bottoming out in cheap local-search
/// leaves, shaped by `shape` bits. Race children must be Solve leaves
/// (the wire grammar), so nesting happens through Fallback and Timeout.
fn solve_tree(shape: u64, ms: i64, depth: u32) -> Policy {
    let leaf = Policy::Solve(SolveLeaf {
        solvers: vec!["local_search".into()],
        restarts: Some(5 + shape % 20),
        max_steps: None,
    });
    if depth == 0 {
        return leaf;
    }
    match shape % 3 {
        0 => Policy::Timeout(TimeoutPolicy {
            ms,
            lower: Box::new(solve_tree(shape / 3, ms, depth - 1)),
        }),
        1 => Policy::Race(vec![leaf.clone(), leaf]),
        _ => Policy::Fallback(vec![solve_tree(shape / 3, ms, depth - 1), leaf]),
    }
}

/// A random small bracket-policy tree (Fallback/Timeout over Bracket
/// leaves; Race is solve-only).
fn bracket_tree(shape: u64, ms: i64, depth: u32) -> Policy {
    let leaf = Policy::Bracket(BracketLeaf {
        backends: vec!["lpt".into(), "descent".into()],
        width_goal: None,
        restarts: Some(10 + shape % 50),
    });
    if depth == 0 {
        return leaf;
    }
    match shape % 2 {
        0 => Policy::Timeout(TimeoutPolicy {
            ms,
            lower: Box::new(bracket_tree(shape / 2, ms, depth - 1)),
        }),
        _ => Policy::Fallback(vec![bracket_tree(shape / 2, ms, depth - 1), leaf]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Nested `Timeout(Race(..))`/`Fallback` solve trees under 1–4 ms
    /// deadlines always produce a parseable typed response — never a
    /// panic, whatever fires first.
    #[test]
    fn tiny_deadlines_over_random_solve_trees_never_panic(
        shape in 0u64..1_000_000,
        ms in 1i64..5,
        seed in 0u64..1_000,
    ) {
        let state = ServeState::new(&ServeConfig::default());
        let request = Request {
            id: 1,
            body: RequestBody::Solve(SolveRequest {
                instance: wire_instance(24, 6, seed),
                policy: Policy::Timeout(TimeoutPolicy {
                    ms,
                    lower: Box::new(solve_tree(shape, ms, 3)),
                }),
            }),
        };
        let line = serde_json::to_string(&request).unwrap();
        let raw = state.handle_line(&line);
        prop_assert!(
            serde_json::from_str::<Response>(&raw).is_ok(),
            "unparseable reply: {raw}"
        );
    }

    /// The same guarantee for bracket trees, where the deadline can fire
    /// *inside* a leaf (mid-estimation) and yield a partial bracket.
    #[test]
    fn tiny_deadlines_over_random_bracket_trees_never_panic(
        shape in 0u64..1_000_000,
        ms in 1i64..5,
        seed in 0u64..1_000,
    ) {
        let state = ServeState::new(&ServeConfig::default());
        let request = Request {
            id: 1,
            body: RequestBody::Bracket(BracketRequest {
                instance: wire_instance(16, 4, seed),
                policy: Policy::Timeout(TimeoutPolicy {
                    ms,
                    lower: Box::new(bracket_tree(shape, ms, 3)),
                }),
            }),
        };
        let line = serde_json::to_string(&request).unwrap();
        let raw = state.handle_line(&line);
        prop_assert!(
            serde_json::from_str::<Response>(&raw).is_ok(),
            "unparseable reply: {raw}"
        );
    }
}
