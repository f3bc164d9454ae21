//! End-to-end service tests: replay exactness under concurrency, warm-tier
//! behaviour, deadline liveness, and graceful shutdown.

use std::time::{Duration, Instant};

use netuncert_serve::policy::{BracketLeaf, Policy, SolveLeaf, TimeoutPolicy};
use netuncert_serve::protocol::{
    BracketOutcome, BracketRequest, Request, RequestBody, Response, ResponseBody, SolveOutcome,
    SolveRequest,
};
use netuncert_serve::replay::Replayer;
use netuncert_serve::state::{ServeConfig, ServeState};
use netuncert_serve::workload::{
    default_bracket_policy, default_solve_policy, mixed_request, wire_instance,
};
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

/// The acceptance gate: >= 100 mixed requests over >= 4 concurrent
/// connections, every answer byte-identical to a direct engine call.
#[test]
fn served_answers_match_direct_engine_calls_byte_for_byte() {
    let (addr, handle) = start(&ServeConfig::default());
    const CONNECTIONS: usize = 4;
    const REQUESTS: usize = 104;

    let mut lanes = Vec::new();
    for lane in 0..CONNECTIONS {
        lanes.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut pairs = Vec::new();
            for index in (lane..REQUESTS).step_by(CONNECTIONS) {
                let line = serde_json::to_string(&mixed_request(77, index)).expect("serialise");
                let response = client.call_line(&line).expect("response");
                pairs.push((line, response));
            }
            pairs
        }));
    }
    let mut pairs = Vec::new();
    for lane in lanes {
        pairs.extend(lane.join().expect("driver thread"));
    }
    assert_eq!(pairs.len(), REQUESTS);

    let mut replayer = Replayer::new(&ServeConfig::default());
    for (request, served) in &pairs {
        if let Some(diff) = replayer.check(request, served) {
            panic!("{diff}");
        }
    }
    assert_eq!(replayer.checked(), REQUESTS);

    // The workload repeats instances, so the shared warm tier must have hits.
    let mut client = Client::connect(addr).expect("connect");
    let response = client.call(RequestBody::Stats).expect("stats");
    let ResponseBody::Stats(stats) = response.body else {
        panic!("expected stats, got {response:?}");
    };
    assert!(
        stats.solve_cache.hits > 0,
        "expected warm-tier hits, got {stats:?}"
    );
    assert!(stats.requests >= REQUESTS as u64);

    shutdown(addr);
    handle.join().expect("server thread").expect("clean run");
}

/// A `Timeout` solve on a large instance returns a typed deadline result
/// quickly, and does NOT block the pool: warm-tier requests on other
/// connections keep answering while it runs.
#[test]
fn timeout_policy_yields_typed_deadline_without_blocking_the_pool() {
    let (addr, handle) = start(&ServeConfig::default());

    // Warm the tier with a small instance on its own connection.
    let warm_line = serde_json::to_string(&Request {
        id: 1,
        body: RequestBody::Solve(SolveRequest {
            instance: wire_instance(4, 3, 5),
            policy: default_solve_policy(),
        }),
    })
    .unwrap();
    let mut warm_client = Client::connect(addr).expect("connect warm");
    let warm_answer = warm_client.call_line(&warm_line).expect("warm solve");

    // A local-search grind on a big instance under a 25 ms deadline: the
    // restart budget alone would take far longer, so only the cooperative
    // between-pass deadline check can stop it.
    let grind = Request {
        id: 2,
        body: RequestBody::Solve(SolveRequest {
            instance: wire_instance(512, 16, 6),
            policy: Policy::Timeout(TimeoutPolicy {
                ms: 25,
                lower: Box::new(Policy::Solve(SolveLeaf {
                    solvers: vec!["local_search".into()],
                    restarts: Some(5_000_000),
                    max_steps: None,
                })),
            }),
        }),
    };
    let grind_line = serde_json::to_string(&grind).unwrap();
    let grinder = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect grind");
        let started = Instant::now();
        let raw = client.call_line(&grind_line).expect("grind reply");
        (raw, started.elapsed())
    });

    // While the grind occupies one worker, cached answers keep flowing.
    let mut served_during = 0;
    let window = Instant::now();
    while window.elapsed() < Duration::from_millis(20) {
        let again = warm_client.call_line(&warm_line).expect("warm repeat");
        assert_eq!(again, warm_answer, "cache hit must replay the cold answer");
        served_during += 1;
    }
    assert!(served_during > 0);

    let (raw, elapsed) = grinder.join().expect("grind thread");
    let response: Response = serde_json::from_str(&raw).expect("parse grind reply");
    let ResponseBody::Solve(reply) = response.body else {
        panic!("expected a solve reply, got {raw}");
    };
    assert_eq!(
        reply.outcome,
        SolveOutcome::DeadlineExceeded,
        "the grind must hit its deadline"
    );
    // Cooperative cancellation is pass-granular: well under a second even
    // though the budget was millions of restarts.
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline took {elapsed:?} to fire"
    );

    shutdown(addr);
    handle.join().expect("server thread").expect("clean run");
}

/// The pass-resumable stepped path must agree with the engine's own
/// monolithic walk: a generous deadline changes nothing but the key.
#[test]
fn stepped_evaluation_matches_the_engine_walk() {
    let (addr, handle) = start(&ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    for seed in [11, 12, 13, 14] {
        let instance = wire_instance(8, 4, seed);
        let direct = client
            .call(RequestBody::Solve(SolveRequest {
                instance: instance.clone(),
                policy: default_solve_policy(),
            }))
            .expect("direct solve");
        let stepped = client
            .call(RequestBody::Solve(SolveRequest {
                instance,
                policy: Policy::Timeout(TimeoutPolicy {
                    ms: 600_000,
                    lower: Box::new(default_solve_policy()),
                }),
            }))
            .expect("stepped solve");
        let (ResponseBody::Solve(direct), ResponseBody::Solve(stepped)) =
            (direct.body, stepped.body)
        else {
            panic!("expected solve replies");
        };
        // Keys hash the whole request body (policies differ); everything
        // the engines produced must be identical.
        assert_eq!(direct.outcome, stepped.outcome, "seed {seed}");
        assert_eq!(direct.attempts, stepped.attempts, "seed {seed}");
    }

    shutdown(addr);
    handle.join().expect("server thread").expect("clean run");
}

/// A deadline that fires *inside* a Bracket leaf (mid-estimation, between
/// estimator units) returns the certified best-so-far bounds as a typed
/// `Partial` outcome — not an empty `DeadlineExceeded`, not a hang until
/// the restart budget runs dry.
#[test]
fn mid_leaf_deadline_returns_typed_partial_bracket() {
    let (addr, handle) = start(&ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // LPT finishes in microseconds even at n=512; the descent grind with a
    // 200k restart budget cannot. A 150 ms deadline therefore lands between
    // estimator units, with certified bounds already in hand.
    let started = Instant::now();
    let response = client
        .call(RequestBody::Bracket(BracketRequest {
            instance: wire_instance(512, 16, 21),
            policy: Policy::Timeout(TimeoutPolicy {
                ms: 150,
                lower: Box::new(Policy::Bracket(BracketLeaf {
                    backends: vec!["lpt".into(), "relaxation".into(), "descent".into()],
                    width_goal: None,
                    restarts: Some(200_000),
                })),
            }),
        }))
        .expect("bracket reply");
    let elapsed = started.elapsed();

    let ResponseBody::Bracket(reply) = response.body else {
        panic!("expected a bracket reply, got {response:?}");
    };
    let BracketOutcome::Partial(brackets) = reply.outcome else {
        panic!("expected a partial bracket, got {:?}", reply.outcome);
    };
    // The partial result carries real certified bounds from the estimators
    // that did complete.
    assert!(brackets.opt1.lower.is_finite() && brackets.opt1.upper.is_finite());
    assert!(brackets.opt1.lower <= brackets.opt1.upper);
    assert!(!brackets.attempts.is_empty(), "no estimator unit completed");
    // Cooperative cancellation is unit-granular: well under the grind's
    // natural runtime even on a slow debug build.
    assert!(
        elapsed < Duration::from_secs(10),
        "deadline took {elapsed:?}"
    );

    shutdown(addr);
    handle.join().expect("server thread").expect("clean run");
}

/// The binary framing is a transport, not a dialect: the same requests
/// through a binary-framed connection answer byte-identically (after
/// canonical re-serialisation) to the JSON framing.
#[test]
fn binary_framing_answers_byte_identically_to_json() {
    let (addr, handle) = start(&ServeConfig::default());
    let mut json = Client::connect(addr).expect("json connect");
    let mut binary = Client::connect_binary(addr).expect("binary connect");

    for index in 0..24 {
        let line = serde_json::to_string(&mixed_request(5, index)).expect("serialise");
        let from_json = json.call_line(&line).expect("json reply");
        let from_binary = binary.call_line(&line).expect("binary reply");
        assert_eq!(
            from_json, from_binary,
            "framing divergence on request {index}"
        );
    }

    shutdown(addr);
    handle.join().expect("server thread").expect("clean run");
}

/// After a Shutdown ack, compute requests are refused with a typed error
/// and the listener drains to a clean exit.
#[test]
fn draining_service_refuses_new_compute_requests() {
    let (addr, handle) = start(&ServeConfig::default());

    let mut client = Client::connect(addr).expect("connect");
    let response = client.call(RequestBody::Shutdown).expect("shutdown ack");
    assert!(matches!(response.body, ResponseBody::Shutdown));

    // The server is draining; a racing second connection either gets a
    // typed Shutdown error or a refused/closed connection (also fine) —
    // never a hang or an untyped failure.
    if let Ok(mut late) = Client::connect(addr) {
        if let Ok(response) = late.call(RequestBody::Solve(SolveRequest {
            instance: wire_instance(4, 3, 9),
            policy: default_solve_policy(),
        })) {
            let ResponseBody::Error(err) = response.body else {
                panic!("draining service answered a compute request");
            };
            assert_eq!(err.kind, netuncert_serve::protocol::ErrorKind::Shutdown);
        }
    }

    handle.join().expect("server thread").expect("clean run");
}

/// Under `default_bracket_policy()` the first leaf (`lpt,relaxation`, goal
/// 1.5) can miss its goal on a game too large for the exact leaf behind it.
/// The fallback then answers with the first leaf's certified brackets, not
/// with the exact leaf's empty bracket.
#[test]
fn a_bracket_fallback_keeps_the_certified_bounds_of_a_goal_miss() {
    let state = ServeState::new(&ServeConfig::default());
    for seed in 0..5 {
        let response = state.handle_request(Request {
            id: seed,
            body: RequestBody::Bracket(BracketRequest {
                instance: wire_instance(128, 16, seed),
                policy: default_bracket_policy(),
            }),
        });
        let ResponseBody::Bracket(reply) = response.body else {
            panic!("seed {seed}: expected a bracket reply, got {response:?}");
        };
        let BracketOutcome::Brackets(brackets) = reply.outcome else {
            panic!("seed {seed}: expected brackets, got {:?}", reply.outcome);
        };
        for bracket in [&brackets.opt1, &brackets.opt2] {
            assert!(
                0.0 < bracket.lower && bracket.lower <= bracket.upper && bracket.upper.is_finite(),
                "seed {seed}: bracket {bracket:?}"
            );
        }
    }
}

/// `-0.0` and `+0.0` initial loads are one question: a JSON line carrying
/// `-0.0` is a warm-tier hit on the entry an in-process `+0.0` request
/// filled, and both replies carry the same key.
#[test]
fn signed_zero_initial_loads_share_one_warm_tier_entry() {
    let state = ServeState::new(&ServeConfig::default());
    let request = |id: u64, zero: f64| {
        let mut instance = wire_instance(6, 3, 4);
        instance.initial = Some(vec![zero, 1.0, zero]);
        Request {
            id,
            body: RequestBody::Solve(SolveRequest {
                instance,
                policy: default_solve_policy(),
            }),
        }
    };
    let positive = state.handle_request(request(1, 0.0));
    let line = serde_json::to_string(&request(1, -0.0)).expect("serialise");
    assert!(line.contains("-0.0"), "the line must carry the signed zero");
    let negative: Response = serde_json::from_str(&state.handle_line(&line)).expect("reply");
    assert!(matches!(positive.body, ResponseBody::Solve(_)));
    assert_eq!(positive, negative);
    let ResponseBody::Stats(stats) = state
        .handle_request(Request {
            id: 2,
            body: RequestBody::Stats,
        })
        .body
    else {
        panic!("expected stats");
    };
    assert_eq!(stats.solve_cache.entries, 1);
    assert_eq!(stats.solve_cache.hits, 1);
}

/// Reader threads exit with their connections and the acceptor drops their
/// handles: after 200 connections open and close, no reader is left.
#[test]
fn closed_connections_leave_no_reader_behind() {
    let server = Server::bind("127.0.0.1:0", &ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let registry = server.state().registry();
    let handle = std::thread::spawn(move || server.run());
    let readers = || {
        registry
            .snapshot()
            .gauges
            .iter()
            .find(|(name, _)| name == "serve.readers")
            .map_or(0, |(_, value)| *value)
    };
    for i in 0..200 {
        let mut client = Client::connect(addr).expect("connect");
        if i % 10 == 0 {
            client.call(RequestBody::Stats).expect("stats");
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while readers() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(readers(), 0, "every reader must exit with its connection");
    shutdown(addr);
    handle.join().expect("server thread").expect("clean run");
}
