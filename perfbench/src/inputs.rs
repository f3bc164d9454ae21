//! Seeded request generation for the served workloads.
//!
//! Everything is derived from `(workload seed, connection, round)`, so a
//! traced replay regenerates exactly the requests the served phase sent.
//! Every request is encoded before any timing starts, in the framing of the
//! connection that sends it (both framings for the traced replay).

use std::sync::Arc;

use netuncert_serve::frame;
use netuncert_serve::policy::{BracketLeaf, Policy};
use netuncert_serve::protocol::{
    BracketRequest, EditRequest, MeasureRequest, ReleaseRequest, Request, RequestBody,
    SolveRequest, UploadRequest, WireEdit, WireInstance,
};
use netuncert_serve::workload::{churn_session, default_solve_policy, wire_instance};
use serde::Serialize;

/// Users per instance in every served workload.
pub const USERS: usize = 512;
/// Links per instance in every served workload.
pub const LINKS: usize = 16;
/// `Edit`s streamed per churn session.
pub const EDITS_PER_SESSION: usize = 50;
/// Every `REPEAT_EVERY`-th request re-sends an earlier one verbatim.
pub const REPEAT_EVERY: usize = 4;

/// Where one request sits in the generated traffic: `(connection, round,
/// position)`, the position counting `Edit`s for churn. The served phase
/// and the traced replay generate identical rounds, so the id matches a
/// replayed request to its served round trip.
pub type RequestId = (usize, u64, usize);

/// Requests per connection per round (sessions, for churn).
pub fn batch_size(workload: Served) -> usize {
    match workload {
        Served::Solve => 192,
        Served::Bracket => 24,
        Served::Churn => 6,
    }
}

/// Which served workload a batch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// `Solve` under the default solve policy.
    Solve,
    /// Alternating `Bracket` and `Measure` under one `lpt,relaxation` leaf.
    Bracket,
    /// Upload, 50 `Edit`s, Release per session.
    Churn,
}

/// How a connection frames its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// Newline-delimited JSON.
    Json,
    /// Length-prefixed binary frames.
    Binary,
}

/// The framing of connection `conn`: 0 speaks JSON, 1 binary frames.
pub fn framing_of(conn: usize) -> Framing {
    if conn == 0 {
        Framing::Json
    } else {
        Framing::Binary
    }
}

/// One pre-encoded request.
pub struct Item {
    /// The typed request (the verifier replays it).
    pub request: Request,
    /// The JSON line, newline included, when encoded.
    pub json: Option<Vec<u8>>,
    /// The length-prefixed binary frame, when encoded.
    pub frame: Option<Vec<u8>>,
}

impl Item {
    /// Encodes `request` for one framing, or for both when `framing` is
    /// `None`.
    pub fn encode(request: Request, framing: Option<Framing>) -> Item {
        let json = (framing != Some(Framing::Binary)).then(|| {
            let mut line = serde_json::to_string(&request)
                .expect("wire types always serialise")
                .into_bytes();
            line.push(b'\n');
            line
        });
        let frame = (framing != Some(Framing::Json)).then(|| {
            let payload = frame::encode_value(&request.to_value());
            let mut framed = Vec::with_capacity(payload.len() + 4);
            frame::write_frame(&mut framed, &payload).expect("writing to a Vec cannot fail");
            framed
        });
        Item {
            request,
            json,
            frame,
        }
    }

    /// The JSON line without its newline.
    pub fn line(&self) -> &str {
        let json = self.json.as_deref().expect("JSON line was encoded");
        std::str::from_utf8(&json[..json.len() - 1]).expect("serde_json emits UTF-8")
    }

    /// The bytes a connection of `framing` writes for this request.
    pub fn wire(&self, framing: Framing) -> &[u8] {
        match framing {
            Framing::Json => self.json.as_deref().expect("JSON line was encoded"),
            Framing::Binary => self.frame.as_deref().expect("binary frame was encoded"),
        }
    }
}

/// SplitMix64 over a sequence of words: the seed of one generated input.
pub fn mix(words: &[u64]) -> u64 {
    let mut h = 0x6A09_E667_F3BC_C909u64;
    for &w in words {
        h = h.wrapping_add(w).wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = h;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

/// The one bracket leaf both `Bracket` and `Measure` run under. A single
/// leaf, not `workload::default_bracket_policy()`: see NOTES.md.
pub fn bracket_policy() -> Policy {
    Policy::Bracket(BracketLeaf {
        backends: vec!["lpt".into(), "relaxation".into()],
        width_goal: Some(1.5),
        restarts: None,
    })
}

/// The stateless batch `(workload, seed, conn, round)`: `size` requests of
/// which every [`REPEAT_EVERY`]-th re-sends (as the same `Arc`) a seeded
/// pick among the earlier distinct requests of the batch, so it is always
/// answered once before it repeats. Encoded for `framing` (`None`: both).
pub fn batch(
    workload: Served,
    seed: u64,
    conn: usize,
    round: u64,
    size: usize,
    framing: Option<Framing>,
) -> Vec<Arc<Item>> {
    let mut items: Vec<Arc<Item>> = Vec::with_capacity(size);
    let mut distinct: Vec<usize> = Vec::new();
    for i in 0..size {
        let word = mix(&[seed, conn as u64, round, i as u64]);
        if i % REPEAT_EVERY == REPEAT_EVERY - 1 {
            let pick = distinct[(word % distinct.len() as u64) as usize];
            items.push(Arc::clone(&items[pick]));
            continue;
        }
        let instance = wire_instance(USERS, LINKS, word);
        let body = match workload {
            Served::Solve => RequestBody::Solve(SolveRequest {
                instance,
                policy: default_solve_policy(),
            }),
            Served::Bracket if distinct.len().is_multiple_of(2) => {
                RequestBody::Bracket(BracketRequest {
                    instance,
                    policy: bracket_policy(),
                })
            }
            Served::Bracket => RequestBody::Measure(MeasureRequest {
                instance,
                // Round-robin over the links: a valid, spread-out profile.
                profile: (0..USERS).map(|u| u % LINKS).collect(),
                policy: bracket_policy(),
            }),
            Served::Churn => unreachable!("churn traffic is generated per session"),
        };
        distinct.push(i);
        let request = Request {
            id: i as u64 + 1,
            body,
        };
        items.push(Arc::new(Item::encode(request, framing)));
    }
    items
}

/// One churn session: the pre-encoded `Upload` plus the edits to stream.
pub struct Session {
    /// The uploaded instance.
    pub instance: WireInstance,
    /// The `Upload` request, encoded.
    pub upload: Item,
    /// The edits, in order.
    pub edits: Vec<WireEdit>,
}

/// The churn sessions of `(seed, conn, round)`, encoded for `framing`
/// (`None`: both).
pub fn sessions(
    seed: u64,
    conn: usize,
    round: u64,
    count: usize,
    framing: Option<Framing>,
) -> Vec<Session> {
    (0..count)
        .map(|s| {
            let word = mix(&[seed, conn as u64, round, s as u64]);
            let (instance, edits) = churn_session(word, USERS, LINKS, EDITS_PER_SESSION);
            let upload = Item::encode(
                Request {
                    id: 1,
                    body: RequestBody::Upload(UploadRequest {
                        instance: instance.clone(),
                    }),
                },
                framing,
            );
            Session {
                instance,
                upload,
                edits,
            }
        })
        .collect()
}

/// The `Edit` requests of a session once its id is known, then its
/// `Release` — tiny frames, encoded between round trips.
pub fn session_tail(session: u64, edits: &[WireEdit], framing: Option<Framing>) -> Vec<Item> {
    let mut tail: Vec<Item> = edits
        .iter()
        .enumerate()
        .map(|(i, edit)| {
            let request = Request {
                id: i as u64 + 2,
                body: RequestBody::Edit(EditRequest {
                    session,
                    edit: edit.clone(),
                }),
            };
            Item::encode(request, framing)
        })
        .collect();
    tail.push(Item::encode(
        Request {
            id: edits.len() as u64 + 2,
            body: RequestBody::Release(ReleaseRequest { session }),
        },
        framing,
    ));
    tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_seeded_and_repeat_every_fourth_request() {
        let a = batch(Served::Solve, 7, 1, 0, 8, None);
        let b = batch(Served::Solve, 7, 1, 0, 8, None);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.json, y.json);
            assert_eq!(x.frame, y.frame);
        }
        for i in [3, 7] {
            assert!(a[..i].iter().any(|earlier| Arc::ptr_eq(earlier, &a[i])));
        }
        let c = batch(Served::Solve, 8, 1, 0, 8, Some(Framing::Json));
        assert_ne!(a[0].json, c[0].json);
        assert!(c[0].frame.is_none());
    }

    #[test]
    fn bracket_batches_alternate_verbs() {
        let items = batch(Served::Bracket, 1, 0, 0, 3, Some(Framing::Json));
        assert!(matches!(items[0].request.body, RequestBody::Bracket(_)));
        assert!(matches!(items[1].request.body, RequestBody::Measure(_)));
        assert!(matches!(items[2].request.body, RequestBody::Bracket(_)));
    }
}
