//! A request compiled once: the built form every handler runs on.
//!
//! [`crate::decode`] turns bytes (or a typed [`Request`]) into flat rows;
//! [`BuiltRequest::build`] then validates each instance into the engine's
//! [`EffectiveGame`] and, for the compute verbs, takes its one pass over the
//! content: the [`InstanceKey`] digest the warm tiers file the instance
//! under, and the reply key derived from it. It also compiles the request's
//! policy into the plan the interpreter walks ([`crate::policy`]), every
//! leaf's solvers or estimators resolved and its budgets merged. The
//! connection reader's warm probe runs on the built form, and a punted
//! request hands the *same* built form to the worker inside its job —
//! nothing is decoded, validated, resolved or hashed twice. This is the
//! cnmc `build() → Built…` shape (SNIPPETS.md, snippets 1–2): the wire
//! description compiles into the form that is executed.
//!
//! [`Request`]: crate::protocol::Request

use std::time::Instant;

use netuncert_core::obs::elapsed_ns;
use netuncert_core::prelude::{EffectiveGame, InstanceKey, LinkLoads, PureProfile};

use crate::decode::{Decoded, DecodedBody, Plain};
use crate::policy::{compile_bracket, compile_solve, BracketPlan, SolvePlan};
use crate::protocol::{compute_key, Verb, WireError};

/// One request, decoded and built: validated games, digests and reply
/// keys, ready for the fast path or a worker.
#[derive(Debug)]
pub(crate) struct BuiltRequest {
    pub(crate) id: u64,
    pub(crate) body: Built,
}

/// The verbs in built form.
#[derive(Debug)]
pub(crate) enum Built {
    /// `Solve`, `Bracket` or `Measure`.
    Compute(Compute),
    /// `Upload`: the validated instance (sessions have no warm tier, so no
    /// digest is taken).
    Upload(Result<(EffectiveGame, LinkLoads), WireError>),
    /// A verb without an instance.
    Plain(Plain),
}

/// A built compute request. A policy or an instance that failed
/// validation keeps its typed error here: the handler reports the policy
/// error first, then the instance error, as the validation order requires.
#[derive(Debug)]
pub(crate) struct Compute {
    pub(crate) plan: Result<Plan, WireError>,
    pub(crate) instance: Result<Instance, WireError>,
}

/// A compute verb with its policy compiled.
#[derive(Debug)]
pub(crate) enum Plan {
    Solve(SolvePlan),
    Bracket(BracketPlan),
    /// The brackets' plan and the profile to price against them.
    Measure(BracketPlan, PureProfile),
}

/// A validated, digested instance.
#[derive(Debug)]
pub(crate) struct Instance {
    pub(crate) game: EffectiveGame,
    pub(crate) initial: LinkLoads,
    /// The warm-tier digest of `(game, initial)`.
    pub(crate) digest: InstanceKey,
    /// The reply key ([`crate::protocol::request_key`] of the request).
    pub(crate) key: String,
}

impl BuiltRequest {
    /// Builds a decoded request. `key_ns` receives the cost of each key
    /// pass (digest plus reply key; one per valid compute instance).
    pub(crate) fn build(decoded: Decoded, key_ns: impl FnOnce(u64)) -> BuiltRequest {
        let body = match decoded.body {
            DecodedBody::Compute {
                verb,
                rows,
                policy,
                profile,
            } => {
                let instance = rows.build().map(|(game, initial)| {
                    let start = Instant::now();
                    let digest = InstanceKey::of(&game, &initial);
                    let key = compute_key(verb, digest, &profile, &policy);
                    key_ns(elapsed_ns(start));
                    Instance {
                        game,
                        initial,
                        digest,
                        key,
                    }
                });
                let plan = match verb {
                    Verb::Solve => compile_solve(&policy).map(Plan::Solve),
                    Verb::Bracket => compile_bracket(&policy).map(Plan::Bracket),
                    Verb::Measure => compile_bracket(&policy)
                        .map(|plan| Plan::Measure(plan, PureProfile::new(profile))),
                };
                Built::Compute(Compute { plan, instance })
            }
            DecodedBody::Upload(rows) => Built::Upload(rows.build()),
            DecodedBody::Plain(plain) => Built::Plain(plain),
        };
        BuiltRequest {
            id: decoded.id,
            body,
        }
    }

    /// Whether the request needs engine work: the compute verbs, `Upload`
    /// and `Edit` (`Release` and the admin verbs are bookkeeping).
    pub(crate) fn is_compute(&self) -> bool {
        matches!(
            self.body,
            Built::Compute(_) | Built::Upload(_) | Built::Plain(Plain::Edit(_))
        )
    }
}
