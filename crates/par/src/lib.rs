//! # par-exec
//!
//! A small, dependency-free parallel execution substrate built on
//! [`std::thread::scope`], used by the simulation harness and the benchmark
//! suite to fan independent solves and Monte-Carlo experiment cells out over
//! CPU cores. The solver engine itself owns no threads: its callers map
//! `SolverEngine::solve` over [`parallel_map`].
//!
//! The design goals, in order:
//!
//! 1. **Determinism** — results must not depend on the number of worker
//!    threads. [`parallel_map`] returns outputs indexed by task id, and the
//!    experiment layer derives per-task RNG seeds from the task id, never
//!    from the worker. Callers that reduce fold the mapped outputs in index
//!    order themselves.
//! 2. **Simplicity** — a scoped fork/join pool with dynamic (atomic-counter)
//!    work stealing covers every workload in this repository; there is no
//!    global state and no unsafe code.
//! 3. **Graceful degradation** — with one thread [`parallel_map`] is the
//!    obvious sequential loop, which keeps tests and CI debuggable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod map;
mod pool;

pub use map::parallel_map;
pub use pool::{available_parallelism, ParallelConfig};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_smoke_test() {
        let cfg = ParallelConfig::new(4);
        let squares = parallel_map(&cfg, 100, |i| i * i);
        assert_eq!(squares[10], 100);
    }
}
