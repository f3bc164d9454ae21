//! Malformed-wire-request tests: every bad input becomes a *typed*
//! protocol error — the service never panics and (except for unframeable
//! oversize lines) never drops the connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use serde::Deserialize;

use netuncert_serve::frame;
use netuncert_serve::policy::{BracketLeaf, Policy, SolveLeaf, TimeoutPolicy};
use netuncert_serve::protocol::{
    ErrorKind, Request, RequestBody, Response, ResponseBody, SolveRequest, WireInstance,
};
use netuncert_serve::state::{ServeConfig, ServeState};
use netuncert_serve::workload::{default_solve_policy, wire_instance};
use netuncert_serve::{Client, Server};

fn state() -> ServeState {
    ServeState::new(&ServeConfig::default())
}

fn solve_request(id: u64, instance: WireInstance, policy: Policy) -> String {
    let request = Request {
        id,
        body: RequestBody::Solve(SolveRequest { instance, policy }),
    };
    serde_json::to_string(&request).unwrap()
}

fn error_kind(line: &str) -> Option<(u64, ErrorKind)> {
    let response: Response = serde_json::from_str(line).ok()?;
    match response.body {
        ResponseBody::Error(err) => Some((response.id, err.kind)),
        _ => None,
    }
}

#[test]
fn truncated_json_yields_a_typed_parse_error() {
    let state = state();
    let full = solve_request(9, wire_instance(4, 3, 1), default_solve_policy());
    for cut in [1, full.len() / 2, full.len() - 1] {
        let line = &full[..cut];
        let (id, kind) = error_kind(&state.handle_line(line))
            .unwrap_or_else(|| panic!("no typed error for truncation at {cut}"));
        // The id is unrecoverable from a broken line; the protocol pins 0.
        assert_eq!(id, 0);
        assert_eq!(kind, ErrorKind::Parse);
    }
}

#[test]
fn garbage_and_empty_lines_yield_parse_errors() {
    let state = state();
    for line in ["", "   ", "not json at all", "{\"id\":true}", "[1,2,3]"] {
        let (_, kind) = error_kind(&state.handle_line(line))
            .unwrap_or_else(|| panic!("no typed error for {line:?}"));
        assert_eq!(kind, ErrorKind::Parse);
    }
}

#[test]
fn unknown_solver_ids_yield_unknown_policy() {
    let state = state();
    let policy = Policy::Solve(SolveLeaf {
        solvers: vec!["gradient_descent".into()],
        restarts: None,
        max_steps: None,
    });
    let line = solve_request(3, wire_instance(4, 3, 1), policy);
    let (id, kind) = error_kind(&state.handle_line(&line)).expect("typed error");
    assert_eq!(id, 3);
    assert_eq!(kind, ErrorKind::UnknownPolicy);
}

#[test]
fn unknown_bracket_backends_yield_unknown_policy() {
    let state = state();
    let request = Request {
        id: 4,
        body: RequestBody::Bracket(netuncert_serve::protocol::BracketRequest {
            instance: wire_instance(4, 3, 1),
            policy: Policy::Bracket(BracketLeaf {
                backends: vec!["simulated_annealing".into()],
                width_goal: None,
                restarts: None,
            }),
        }),
    };
    let line = serde_json::to_string(&request).unwrap();
    let (_, kind) = error_kind(&state.handle_line(&line)).expect("typed error");
    assert_eq!(kind, ErrorKind::UnknownPolicy);
}

/// A leaf names each solver or backend at most once: a repeat would run the
/// same method twice on a miss and key the request apart from the
/// deduplicated list. An unknown id still wins over a repeat before it.
#[test]
fn duplicated_leaf_ids_yield_invalid_request() {
    let state = state();
    let policy = Policy::Solve(SolveLeaf {
        solvers: vec!["best_response".into(), "best_response".into()],
        restarts: None,
        max_steps: None,
    });
    let line = solve_request(5, wire_instance(4, 3, 1), policy);
    let response: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
    let ResponseBody::Error(err) = response.body else {
        panic!("a duplicated Solve leaf was answered");
    };
    assert_eq!(err.kind, ErrorKind::InvalidRequest);
    assert_eq!(err.message, "solver `best_response` was selected twice");

    let bracket = |backends: &[&str]| Request {
        id: 6,
        body: RequestBody::Bracket(netuncert_serve::protocol::BracketRequest {
            instance: wire_instance(4, 3, 1),
            policy: Policy::Bracket(BracketLeaf {
                backends: backends.iter().map(|id| id.to_string()).collect(),
                width_goal: None,
                restarts: None,
            }),
        }),
    };
    let line = serde_json::to_string(&bracket(&["lpt", "relaxation", "lpt"])).unwrap();
    let (id, kind) = error_kind(&state.handle_line(&line)).expect("typed error");
    assert_eq!(id, 6);
    assert_eq!(kind, ErrorKind::InvalidRequest);

    let line = serde_json::to_string(&bracket(&["lpt", "lpt", "annealing"])).unwrap();
    let (_, kind) = error_kind(&state.handle_line(&line)).expect("typed error");
    assert_eq!(kind, ErrorKind::UnknownPolicy);
}

#[test]
fn zero_and_negative_deadlines_yield_invalid_deadline() {
    let state = state();
    for ms in [0i64, -1, -5_000] {
        let policy = Policy::Timeout(TimeoutPolicy {
            ms,
            lower: Box::new(default_solve_policy()),
        });
        let line = solve_request(7, wire_instance(4, 3, 1), policy);
        let (id, kind) = error_kind(&state.handle_line(&line))
            .unwrap_or_else(|| panic!("no typed error for ms={ms}"));
        assert_eq!(id, 7);
        assert_eq!(kind, ErrorKind::InvalidDeadline);
    }
}

/// Regression: an astronomical deadline used to overflow
/// `Instant::now() + Duration::from_millis(ms)` and panic the worker.
/// Anything beyond the 1-hour cap is now rejected at validation with a
/// typed error, all the way up to `i64::MAX`.
#[test]
fn astronomical_deadlines_are_rejected_not_overflowed() {
    let state = state();
    for ms in [
        netuncert_serve::policy::MAX_DEADLINE_MS + 1,
        u32::MAX as i64,
        i64::MAX / 1_000,
        i64::MAX,
    ] {
        let policy = Policy::Timeout(TimeoutPolicy {
            ms,
            lower: Box::new(default_solve_policy()),
        });
        let line = solve_request(8, wire_instance(4, 3, 1), policy);
        let (id, kind) = error_kind(&state.handle_line(&line))
            .unwrap_or_else(|| panic!("no typed error for ms={ms}"));
        assert_eq!(id, 8);
        assert_eq!(kind, ErrorKind::InvalidDeadline);
    }
    // The cap itself is a legal deadline.
    let policy = Policy::Timeout(TimeoutPolicy {
        ms: netuncert_serve::policy::MAX_DEADLINE_MS,
        lower: Box::new(default_solve_policy()),
    });
    let line = solve_request(9, wire_instance(4, 3, 1), policy);
    assert!(
        error_kind(&state.handle_line(&line)).is_none(),
        "the cap must be accepted"
    );
}

#[test]
fn oversize_instances_yield_oversize() {
    let state = state();
    let limits = state.limits();
    // One user too many.
    let users = limits.max_users + 1;
    let instance = WireInstance {
        weights: vec![1.0; users],
        capacities: vec![vec![10.0, 20.0]; users],
        initial: None,
    };
    let line = solve_request(11, instance, default_solve_policy());
    let (id, kind) = error_kind(&state.handle_line(&line)).expect("typed error");
    assert_eq!(id, 11);
    assert_eq!(kind, ErrorKind::Oversize);

    // One link too many.
    let links = limits.max_links + 1;
    let instance = WireInstance {
        weights: vec![1.0; 2],
        capacities: vec![vec![10.0; links]; 2],
        initial: None,
    };
    let line = solve_request(12, instance, default_solve_policy());
    let (_, kind) = error_kind(&state.handle_line(&line)).expect("typed error");
    assert_eq!(kind, ErrorKind::Oversize);
}

#[test]
fn invalid_instances_yield_invalid_request_not_panics() {
    let state = state();
    let cases: Vec<WireInstance> = vec![
        // Negative weight.
        WireInstance {
            weights: vec![1.0, -2.0],
            capacities: vec![vec![10.0, 20.0]; 2],
            initial: None,
        },
        // NaN capacity.
        WireInstance {
            weights: vec![1.0, 2.0],
            capacities: vec![vec![10.0, f64::NAN], vec![10.0, 20.0]],
            initial: None,
        },
        // Row-count mismatch.
        WireInstance {
            weights: vec![1.0, 2.0, 3.0],
            capacities: vec![vec![10.0, 20.0]; 2],
            initial: None,
        },
        // Initial-loads length mismatch.
        WireInstance {
            weights: vec![1.0, 2.0],
            capacities: vec![vec![10.0, 20.0]; 2],
            initial: Some(vec![0.0, 0.0, 0.0]),
        },
    ];
    for (i, instance) in cases.into_iter().enumerate() {
        let line = solve_request(20 + i as u64, instance, default_solve_policy());
        let (_, kind) = error_kind(&state.handle_line(&line))
            .unwrap_or_else(|| panic!("case {i}: no typed error"));
        assert_eq!(kind, ErrorKind::InvalidRequest, "case {i}");
    }
}

#[test]
fn bad_width_goals_yield_invalid_request() {
    // width_goal <= 1.0 or non-finite would panic inside OptEngine if it
    // were not pre-validated at the protocol boundary. Non-finite goals
    // cannot travel as JSON numbers (they serialise as null), so they are
    // exercised through the typed in-process entry point instead.
    let state = state();
    for goal in [1.0, 0.5, -3.0, f64::NAN, f64::INFINITY] {
        let request = Request {
            id: 30,
            body: RequestBody::Bracket(netuncert_serve::protocol::BracketRequest {
                instance: wire_instance(4, 3, 1),
                policy: Policy::Bracket(BracketLeaf {
                    backends: vec!["lpt".into()],
                    width_goal: Some(goal),
                    restarts: None,
                }),
            }),
        };
        let response = state.handle_request(request);
        let ResponseBody::Error(err) = response.body else {
            panic!("no typed error for width_goal={goal}");
        };
        assert_eq!(err.kind, ErrorKind::InvalidRequest, "width_goal={goal}");
    }
}

#[test]
fn mode_mismatched_and_malformed_trees_yield_typed_errors() {
    let state = state();
    // A Bracket leaf under a Solve request.
    let policy = Policy::Bracket(BracketLeaf {
        backends: vec!["lpt".into()],
        width_goal: None,
        restarts: None,
    });
    let line = solve_request(40, wire_instance(4, 3, 1), policy);
    let (_, kind) = error_kind(&state.handle_line(&line)).expect("typed error");
    assert_eq!(kind, ErrorKind::InvalidRequest);

    // Empty Fallback.
    let line = solve_request(41, wire_instance(4, 3, 1), Policy::Fallback(vec![]));
    let (_, kind) = error_kind(&state.handle_line(&line)).expect("typed error");
    assert_eq!(kind, ErrorKind::InvalidRequest);

    // Nesting beyond MAX_POLICY_DEPTH.
    let mut deep = default_solve_policy();
    for _ in 0..netuncert_serve::policy::MAX_POLICY_DEPTH + 1 {
        deep = Policy::Fallback(vec![deep]);
    }
    let line = solve_request(42, wire_instance(4, 3, 1), deep);
    let (_, kind) = error_kind(&state.handle_line(&line)).expect("typed error");
    assert_eq!(kind, ErrorKind::InvalidRequest);
}

/// The socket-level guarantee: a connection that sent garbage keeps
/// working — the typed error is written and the next request answers.
#[test]
fn a_connection_survives_malformed_requests() {
    let server = Server::bind("127.0.0.1:0", &ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");
    // Garbage first.
    let raw = client
        .call_line("{\"id\": 5, \"body\"")
        .expect("typed reply");
    let (_, kind) = error_kind(&raw).expect("typed error");
    assert_eq!(kind, ErrorKind::Parse);
    // Same connection still serves a real request.
    let response = client
        .call(RequestBody::Solve(SolveRequest {
            instance: wire_instance(4, 3, 1),
            policy: default_solve_policy(),
        }))
        .expect("solve reply");
    assert!(matches!(response.body, ResponseBody::Solve(_)));
    // And still reports stats.
    let response = client.call(RequestBody::Stats).expect("stats reply");
    assert!(matches!(response.body, ResponseBody::Stats(_)));

    // Shut the service down so the server thread joins.
    let response = client.call(RequestBody::Shutdown).expect("shutdown ack");
    assert!(matches!(response.body, ResponseBody::Shutdown));
    handle.join().expect("server thread").expect("clean run");
}

/// An unframeably long line gets a typed Oversize error before the
/// connection closes; other connections are unaffected.
#[test]
fn oversize_lines_get_a_typed_error_then_close() {
    let server = Server::bind("127.0.0.1:0", &ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let state = server.state();
    let handle = std::thread::spawn(move || server.run());

    let max = state.limits().max_line_bytes;
    let mut client = Client::connect(addr).expect("connect");
    let huge = "x".repeat(max + 16);
    let raw = client.call_line(&huge).expect("typed reply before close");
    let (_, kind) = error_kind(&raw).expect("typed error");
    assert_eq!(kind, ErrorKind::Oversize);

    // The binary framing: a header declaring more than the cap gets the
    // same typed error before any payload is sent, then the close.
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    raw.write_all(&[frame::BINARY_MAGIC])
        .and_then(|()| raw.write_all(&(max as u32 + 1).to_le_bytes()))
        .expect("oversize header");
    let payload = frame::read_frame(&mut raw, 1 << 20).expect("typed binary reply");
    let value = frame::decode_value(&payload).expect("payload decodes");
    let response = Response::from_value(&value).expect("payload is a response");
    assert_eq!(response.id, 0);
    let ResponseBody::Error(err) = response.body else {
        panic!("expected a typed error, got {response:?}");
    };
    assert_eq!(err.kind, ErrorKind::Oversize);
    let mut rest = Vec::new();
    assert_eq!(raw.read_to_end(&mut rest).expect("clean close"), 0);

    // A *new* connection still works.
    let mut fresh = Client::connect(addr).expect("reconnect");
    let response = fresh.call(RequestBody::Stats).expect("stats reply");
    assert!(matches!(response.body, ResponseBody::Stats(_)));
    let response = fresh.call(RequestBody::Shutdown).expect("shutdown ack");
    assert!(matches!(response.body, ResponseBody::Shutdown));
    handle.join().expect("server thread").expect("clean run");
}

/// A newline-terminated JSON line that is not UTF-8 is still a framed
/// message: it gets a typed id-0 `Parse` error, and the next line on the
/// same connection is answered.
#[test]
fn a_non_utf8_line_gets_a_typed_parse_error_and_the_connection_survives() {
    let server = Server::bind("127.0.0.1:0", &ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());

    let mut raw = TcpStream::connect(addr).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut replies = BufReader::new(raw.try_clone().expect("clone"));
    let mut reply = String::new();
    raw.write_all(b"{\"id\":1,\"body\":\"\xff\"}\n")
        .expect("non-UTF-8 line");
    replies.read_line(&mut reply).expect("a reply line");
    assert!(!reply.is_empty(), "the connection closed without a reply");
    assert_eq!(error_kind(reply.trim_end()), Some((0, ErrorKind::Parse)));

    let stats = Request {
        id: 2,
        body: RequestBody::Stats,
    };
    raw.write_all(format!("{}\n", serde_json::to_string(&stats).unwrap()).as_bytes())
        .expect("next line");
    reply.clear();
    replies.read_line(&mut reply).expect("a reply line");
    let response: Response = serde_json::from_str(reply.trim_end()).expect("stats reply");
    assert_eq!(response.id, 2);
    assert!(matches!(response.body, ResponseBody::Stats(_)));

    let mut client = Client::connect(addr).expect("connect");
    let response = client.call(RequestBody::Shutdown).expect("shutdown ack");
    assert!(matches!(response.body, ResponseBody::Shutdown));
    handle.join().expect("server thread").expect("clean run");
}

/// Session-store eviction releases the pinned state and answers stale ids
/// with *typed* errors — never a panic, never a silent cold solve. The
/// evicted-vs-never-existed distinction is part of the wire contract.
#[test]
fn stale_session_ids_yield_typed_session_errors() {
    use netuncert_serve::protocol::{EditRequest, ReleaseRequest, UploadRequest, WireEdit};

    // Capacity 1: the second upload must evict the first session.
    let state = ServeState::new(&ServeConfig {
        session_capacity: 1,
        ..ServeConfig::default()
    });
    let upload = |id: u64, seed: u64| {
        let request = Request {
            id,
            body: RequestBody::Upload(UploadRequest {
                instance: wire_instance(4, 3, seed),
            }),
        };
        let raw = state.handle_line(&serde_json::to_string(&request).unwrap());
        let response: Response = serde_json::from_str(&raw).unwrap();
        match response.body {
            ResponseBody::Upload(reply) => reply.session,
            other => panic!("upload {id} did not pin: {other:?}"),
        }
    };
    let edit_line = |id: u64, session: u64| {
        let request = Request {
            id,
            body: RequestBody::Edit(EditRequest {
                session,
                edit: WireEdit::Capacity {
                    user: 0,
                    link: 0,
                    capacity: 7.0,
                },
            }),
        };
        serde_json::to_string(&request).unwrap()
    };

    let first = upload(1, 10);
    let second = upload(2, 11);
    assert_ne!(first, second);

    // The evicted session's id answers SessionEvicted, echoing the request
    // id; the live session still repairs.
    let (id, kind) = error_kind(&state.handle_line(&edit_line(3, first))).expect("typed error");
    assert_eq!((id, kind), (3, ErrorKind::SessionEvicted));
    let raw = state.handle_line(&edit_line(4, second));
    let response: Response = serde_json::from_str(&raw).unwrap();
    assert!(
        matches!(response.body, ResponseBody::Edit(_)),
        "live session must repair: {raw}"
    );

    // An id never allocated is a different typed answer.
    let (_, kind) = error_kind(&state.handle_line(&edit_line(5, 999))).expect("typed error");
    assert_eq!(kind, ErrorKind::UnknownSession);

    // Releasing the evicted id is typed too; releasing the live one works
    // once and then *it* is stale.
    let release_line = |id: u64, session: u64| {
        serde_json::to_string(&Request {
            id,
            body: RequestBody::Release(ReleaseRequest { session }),
        })
        .unwrap()
    };
    let (_, kind) = error_kind(&state.handle_line(&release_line(6, first))).expect("typed error");
    assert_eq!(kind, ErrorKind::SessionEvicted);
    let raw = state.handle_line(&release_line(7, second));
    let response: Response = serde_json::from_str(&raw).unwrap();
    let ResponseBody::Release(reply) = response.body else {
        panic!("release failed: {raw}");
    };
    assert_eq!(reply.edits, 1);
    let (_, kind) = error_kind(&state.handle_line(&edit_line(8, second))).expect("typed error");
    assert_eq!(kind, ErrorKind::SessionEvicted);
}

/// A structurally invalid edit (bad user index, bad capacity) is a typed
/// Engine error and leaves the session intact and certified.
#[test]
fn invalid_edits_are_typed_and_leave_the_session_pinned() {
    use netuncert_serve::protocol::{EditRequest, UploadRequest, WireEdit};

    let state = state();
    let request = Request {
        id: 1,
        body: RequestBody::Upload(UploadRequest {
            instance: wire_instance(4, 3, 2),
        }),
    };
    let raw = state.handle_line(&serde_json::to_string(&request).unwrap());
    let response: Response = serde_json::from_str(&raw).unwrap();
    let ResponseBody::Upload(reply) = response.body else {
        panic!("upload failed: {raw}");
    };
    let session = reply.session;
    for bad in [
        WireEdit::Leave { user: 99 },
        WireEdit::Capacity {
            user: 0,
            link: 99,
            capacity: 1.0,
        },
        WireEdit::Capacity {
            user: 0,
            link: 0,
            capacity: -1.0,
        },
        WireEdit::Join {
            weight: 1.0,
            capacities: vec![1.0], // wrong row length
        },
    ] {
        let line = serde_json::to_string(&Request {
            id: 9,
            body: RequestBody::Edit(EditRequest { session, edit: bad }),
        })
        .unwrap();
        let (id, kind) = error_kind(&state.handle_line(&line)).expect("typed error");
        assert_eq!((id, kind), (9, ErrorKind::Engine));
    }
    // The session survived every rejected edit and still repairs.
    let line = serde_json::to_string(&Request {
        id: 10,
        body: RequestBody::Edit(EditRequest {
            session,
            edit: WireEdit::Capacity {
                user: 0,
                link: 0,
                capacity: 9.0,
            },
        }),
    })
    .unwrap();
    let response: Response = serde_json::from_str(&state.handle_line(&line)).unwrap();
    assert!(matches!(response.body, ResponseBody::Edit(_)));
}
