//! # sim-harness
//!
//! The experiment harness that reproduces the paper's evaluation: every
//! theorem, bound and conjecture is turned into a seeded Monte-Carlo (or
//! exhaustive) experiment whose observed outcome is compared against the
//! paper's claim. `EXPERIMENTS.md` at the workspace root records the mapping
//! and the measured results; `DESIGN.md` in this crate describes the
//! declarative experiment API.
//!
//! * [`config`] — shared experiment configuration (seed, sample counts,
//!   thread count, exhaustive-search limits).
//! * [`report`] — serialisable experiment outcomes and simple table rendering.
//! * [`experiment`] — the declarative API: [`Experiment`] trait, grid
//!   [`Cell`]s and serialisable [`CellResult`]s.
//! * [`experiments`] — one module per experiment (E4–E15 in `DESIGN.md`)
//!   plus the registry ([`experiments::all`], [`experiments::find`]).
//! * [`sweep`] — the sharded [`SweepRunner`]: task-id-addressed cells,
//!   `i/k` shards, durable per-cell JSON records and bit-identical merging.
//! * [`runner`] — source-compatible wrappers that run the full suite and
//!   render a combined report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod experiment;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod sweep;

pub use config::{ExperimentConfig, IntensityLadder};
pub use experiment::{Cell, CellCtx, CellResult, Experiment};
pub use report::{ExperimentOutcome, ReportError, Table};
pub use runner::{render_markdown, run_all};
pub use sweep::{CellRecord, MergeError, Shard, ShardFile, ShardSpecError, SweepRunner};
