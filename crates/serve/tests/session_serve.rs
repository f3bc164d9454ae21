//! End-to-end resident-session tests: upload → edit stream → release over
//! a real socket, with every repaired answer re-certified client-side, plus
//! the pooled-client reuse contract.

use netuncert_core::prelude::{is_pure_nash, EffectiveGame, LinkLoads, PureProfile, Tolerance};
use netuncert_serve::protocol::{
    EditRequest, ReleaseRequest, RequestBody, ResponseBody, UploadRequest,
};
use netuncert_serve::state::ServeConfig;
use netuncert_serve::workload::churn_session;
use netuncert_serve::{Client, ClientPool, Server};

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

/// Drives one churn session over `client`, mirroring the game locally and
/// certifying every answer. Returns how many repairs fell back cold.
fn drive_session(client: &mut Client, seed: u64, edits: usize) -> u64 {
    let (instance, wire_edits) = churn_session(seed, 8, 3, edits);
    let mut game = EffectiveGame::from_rows(instance.weights.clone(), instance.capacities.clone())
        .expect("workload instances are valid");
    let tol = Tolerance::default();

    let response = client
        .call(RequestBody::Upload(UploadRequest { instance }))
        .expect("upload reply");
    let ResponseBody::Upload(upload) = response.body else {
        panic!("upload did not pin: {:?}", response.body);
    };
    let profile = PureProfile::new(upload.solution.choices.clone());
    let zero = LinkLoads::zero(game.links());
    assert!(
        is_pure_nash(&game, &profile, &zero, tol),
        "upload answer must certify"
    );

    let mut fallbacks = 0;
    for (index, edit) in wire_edits.iter().enumerate() {
        game = game.apply_edit(&edit.to_edit()).expect("valid stream");
        let response = client
            .call(RequestBody::Edit(EditRequest {
                session: upload.session,
                edit: edit.clone(),
            }))
            .expect("edit reply");
        let ResponseBody::Edit(reply) = response.body else {
            panic!("edit {index} did not repair: {:?}", response.body);
        };
        assert_eq!(reply.session, upload.session);
        let repaired = PureProfile::new(reply.solution.choices.clone());
        let zero = LinkLoads::zero(game.links());
        assert!(
            is_pure_nash(&game, &repaired, &zero, tol),
            "edit {index} answer must certify on the edited game"
        );
        assert!(reply.repair.restarts >= 1);
        if reply.repair.fallback_cold {
            fallbacks += 1;
        }
    }

    let response = client
        .call(RequestBody::Release(ReleaseRequest {
            session: upload.session,
        }))
        .expect("release reply");
    let ResponseBody::Release(release) = response.body else {
        panic!("release failed: {:?}", response.body);
    };
    assert_eq!(release.edits, edits as u64);
    fallbacks
}

/// The tentpole contract over a real socket, both framings: a client
/// uploads once, streams edits without re-shipping the instance, and every
/// answer is a certified equilibrium of the *edited* game.
#[test]
fn sessions_stream_edits_and_every_answer_certifies() {
    let (addr, handle) = start(&ServeConfig::default());

    let mut json = Client::connect(addr).expect("connect json");
    drive_session(&mut json, 21, 10);
    // The binary framing carries the session verbs through the same derived
    // value encoding.
    let mut binary = Client::connect_binary(addr).expect("connect binary");
    drive_session(&mut binary, 22, 6);

    shutdown(addr);
    handle.join().expect("server thread").expect("clean run");
}

/// The pool hands connections back out instead of redialling, caps its
/// idle list, and lets callers discard a possibly-poisoned connection.
#[test]
fn client_pool_reuses_connections_across_checkouts() {
    let (addr, handle) = start(&ServeConfig::default());
    let pool = ClientPool::json(addr.to_string(), 2);
    assert_eq!(pool.idle_count(), 0);

    // A checked-out connection answers, and its drop parks it for reuse.
    {
        let mut client = pool.get().expect("checkout");
        let response = client.call(RequestBody::Stats).expect("stats");
        assert!(matches!(response.body, ResponseBody::Stats(_)));
    }
    assert_eq!(pool.idle_count(), 1);

    // The parked connection is the one handed back out (the pool is empty
    // again while it is checked out), and a full session runs fine on it.
    {
        let mut client = pool.get().expect("reuse");
        assert_eq!(pool.idle_count(), 0);
        drive_session(&mut client, 23, 4);
    }
    assert_eq!(pool.idle_count(), 1);

    // Three concurrent checkouts dial extra connections; returns park at
    // most `max_idle` of them.
    {
        let mut a = pool.get().expect("a");
        let b = pool.get().expect("b");
        let c = pool.get().expect("c");
        let response = a.call(RequestBody::Stats).expect("stats");
        assert!(matches!(response.body, ResponseBody::Stats(_)));
        drop(a);
        drop(b);
        c.discard(); // pretend c hit a transport error
    }
    assert_eq!(pool.idle_count(), 2);

    shutdown(addr);
    handle.join().expect("server thread").expect("clean run");
}

/// Two threads edit disjoint `(user, link)` entries of one session through
/// one service. Every accepted edit must land in the pinned game: no edit
/// may repair from a stale copy and overwrite another's result, and the
/// edit count must match what the game holds.
#[test]
fn concurrent_edits_to_one_session_all_apply() {
    use netuncert_serve::protocol::{Request, WireEdit};
    use netuncert_serve::session::SessionLookup;
    use netuncert_serve::state::ServeState;

    const PER_THREAD: usize = 50;
    let (users, links) = (128, 6);
    let state = ServeState::new(&ServeConfig::default());
    let (instance, _) = churn_session(31, users, links, 0);
    let mut expected =
        EffectiveGame::from_rows(instance.weights.clone(), instance.capacities.clone())
            .expect("workload instances are valid");
    let response = state.handle_request(Request {
        id: 1,
        body: RequestBody::Upload(UploadRequest { instance }),
    });
    let ResponseBody::Upload(upload) = response.body else {
        panic!("upload did not pin: {:?}", response.body);
    };
    // Thread t edits rows t, t + 2, t + 4, …: disjoint entries, so the
    // final game does not depend on how the two streams interleave.
    let stream = |thread: usize| -> Vec<WireEdit> {
        (0..PER_THREAD)
            .map(|k| WireEdit::Capacity {
                user: (thread + 2 * k) % users,
                link: k % links,
                capacity: 5.0 + (thread * PER_THREAD + k) as f64 / 8.0,
            })
            .collect()
    };
    for thread in 0..2 {
        for edit in stream(thread) {
            expected = expected.apply_edit(&edit.to_edit()).expect("valid edit");
        }
    }
    // Both streams start together, so their edits overlap.
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for thread in 0..2 {
            let (state, edits, start) = (&state, stream(thread), &start);
            scope.spawn(move || {
                start.wait();
                for (k, edit) in edits.into_iter().enumerate() {
                    let response = state.handle_request(Request {
                        id: (2 + thread * PER_THREAD + k) as u64,
                        body: RequestBody::Edit(EditRequest {
                            session: upload.session,
                            edit,
                        }),
                    });
                    assert!(
                        matches!(response.body, ResponseBody::Edit(_)),
                        "edit rejected: {:?}",
                        response.body
                    );
                }
            });
        }
    });
    let SessionLookup::Found(pinned) = state.sessions().lookup(upload.session) else {
        panic!("the session is live");
    };
    assert_eq!(pinned.game, expected, "an accepted edit was lost");
    assert_eq!(pinned.edits, 2 * PER_THREAD as u64);
    let zero = LinkLoads::zero(links);
    assert!(is_pure_nash(
        &pinned.game,
        &pinned.profile,
        &zero,
        Tolerance::default()
    ));
}
