//! netuncert-serve: a resident equilibrium-as-a-service query layer.
//!
//! The experiment pipeline pays the full engine cost for every solve even
//! when instances repeat across sweeps. This crate keeps the engines —
//! and their warm caches — *resident*: a std-only TCP service speaking
//! newline-delimited JSON accepts `Solve`, `Bracket`, and `Measure`
//! requests, multiplexes them onto a fixed worker pool wrapping
//! [`SolverEngine`](netuncert_core::prelude::SolverEngine) and
//! [`OptEngine`](netuncert_core::prelude::OptEngine), and shares a bounded
//! LRU warm tier ([`SolveCache`](netuncert_core::prelude::SolveCache) /
//! [`OptCache`](netuncert_core::prelude::OptCache)) across connections.
//!
//! Requests carry a declarative **policy tree** — `Race` competing solver
//! lanes pass-by-pass, `Fallback` widening through backend lists,
//! `Timeout` enforcing deadlines cooperatively at pass granularity (the
//! interpreter checks the clock between kernel passes, never mid-pass).
//!
//! The load-bearing contract is **replay exactness**: every answer the
//! service produces is byte-for-byte identical to a direct in-process
//! engine call with the same configuration ([`replay`] checks this
//! mechanically). The wire types strip wall-clock telemetry so that the
//! contract is decidable by `==` on response lines.
//!
//! Beyond the stateless compute verbs, the service also keeps **resident
//! instance sessions**: `Upload` pins a game plus its certified
//! equilibrium server-side, `Edit` streams churn edits (joins, leaves,
//! capacity drift) against the pinned state and answers with a
//! warm-start-*repaired*, re-certified equilibrium — typically a handful
//! of local-search moves instead of a cold solve — and `Release` drops the
//! pin. The session store is bounded and LRU-evicting; a stale id gets a
//! typed `SessionEvicted` answer, never a silent cold solve.
//!
//! Module map:
//! - [`protocol`] — wire types, size limits, typed errors, request keys
//! - `decode` / `compile` (internal) — the one decode path from bytes to
//!   the built request every handler runs on
//! - [`policy`] — the policy tree, the plan each request compiles it to,
//!   and the one pass-resumable interpreter the reader and workers share
//! - [`state`] — engine-side service state (caches, budgets, counters)
//! - [`session`] — the bounded resident-session store behind
//!   `Upload`/`Edit`/`Release`
//! - [`server`] — TCP listener, bounded queue, worker pool, graceful drain
//! - [`frame`] — the optional length-prefixed binary framing
//! - [`client`] — minimal blocking client (either framing) and a reusing
//!   connection pool
//! - [`replay`] — byte-for-byte verification against direct engine calls

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod compile;
mod decode;
pub mod frame;
pub mod policy;
pub mod protocol;
pub mod replay;
pub mod server;
pub mod session;
pub mod state;
pub mod workload;

pub use client::{Client, ClientError, ClientPool, PooledClient};
pub use policy::{BracketLeaf, Policy, SolveLeaf, TimeoutPolicy};
pub use protocol::{Request, RequestBody, Response, ResponseBody, WireEdit, WireInstance};
pub use replay::{ReplayDiff, Replayer};
pub use server::Server;
pub use session::{SessionLookup, SessionRemoval, SessionSnapshot, SessionStore};
pub use state::{ServeConfig, ServeState};
