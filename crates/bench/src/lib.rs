//! Shared helpers for the Criterion benchmark suite.
//!
//! Every benchmark regenerates one of the paper's evaluation artefacts (the
//! algorithm figures and the theorem-driven experiments); see `DESIGN.md` for
//! the experiment index and `EXPERIMENTS.md` for recorded results. The helpers
//! here build deterministic instances so that benchmark numbers are comparable
//! across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use criterion::Criterion;
use instance_gen::{rng, CapacityDist, EffectiveSpec, WeightDist};
use netuncert_core::error::Result;
use netuncert_core::model::EffectiveGame;
use netuncert_core::solvers::engine::{EngineSolution, SolverEngine};
use netuncert_core::strategy::LinkLoads;
use par_exec::{parallel_map, ParallelConfig};

/// The Criterion configuration shared by every benchmark in the suite:
/// shorter warm-up and measurement windows than the defaults so that the full
/// suite (≈75 benchmark points) completes in a few minutes on one core while
/// still giving stable medians for these microsecond-to-millisecond kernels.
///
/// Setting `NETUNCERT_BENCH_QUICK=1` shrinks the windows further to a smoke
/// size: CI's bench step uses it to execute every benchmark body (including
/// the certification asserts ahead of each timed solve) in seconds. Numbers
/// from quick mode are for liveness only — never record them.
pub fn bench_config() -> Criterion {
    let quick = std::env::var("NETUNCERT_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let (warm_ms, measure_ms) = if quick { (50, 120) } else { (400, 1200) };
    Criterion::default()
        .warm_up_time(Duration::from_millis(warm_ms))
        .measurement_time(Duration::from_millis(measure_ms))
        .configure_from_args()
}

/// Solves every game from zero initial traffic with one engine shared by a
/// `threads`-worker [`parallel_map`] — how the experiment harness fans
/// solves out. Outputs are indexed like `games`.
pub fn solve_all(
    engine: &SolverEngine,
    threads: usize,
    games: &[EffectiveGame],
) -> Vec<Result<EngineSolution>> {
    parallel_map(&ParallelConfig::new(threads), games.len(), |i| {
        engine.solve(&games[i], &LinkLoads::zero(games[i].links()))
    })
}

/// A deterministic general instance (fully user-specific capacities).
pub fn general_instance(users: usize, links: usize, seed: u64) -> EffectiveGame {
    EffectiveSpec::General {
        users,
        links,
        capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
        weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
    }
    .generate(&mut rng(seed, 0xBE))
}

/// A deterministic symmetric-users instance (identical weights).
pub fn symmetric_instance(users: usize, links: usize, seed: u64) -> EffectiveGame {
    EffectiveSpec::General {
        users,
        links,
        capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
        weights: WeightDist::Identical(1.0),
    }
    .generate(&mut rng(seed, 0xBE))
}

/// A deterministic uniform-beliefs instance (per-user scalar capacities).
pub fn uniform_beliefs_instance(users: usize, links: usize, seed: u64) -> EffectiveGame {
    EffectiveSpec::UniformPerUser {
        users,
        links,
        capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
        weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
    }
    .generate(&mut rng(seed, 0xBE))
}

/// A deterministic "mild" instance whose fully mixed equilibrium exists.
pub fn mild_instance(users: usize, links: usize, seed: u64) -> EffectiveGame {
    EffectiveSpec::General {
        users,
        links,
        capacity: CapacityDist::Uniform { lo: 0.75, hi: 1.5 },
        weights: WeightDist::Uniform { lo: 0.75, hi: 1.5 },
    }
    .generate(&mut rng(seed, 0xBE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netuncert_core::numeric::Tolerance;

    #[test]
    fn instances_have_the_requested_shapes() {
        let tol = Tolerance::default();
        let g = general_instance(6, 4, 1);
        assert_eq!((g.users(), g.links()), (6, 4));
        assert!(symmetric_instance(5, 3, 1).has_identical_weights(tol));
        assert!(uniform_beliefs_instance(5, 3, 1).has_uniform_beliefs(tol));
        assert_eq!(mild_instance(4, 2, 1).users(), 4);
    }

    #[test]
    fn instances_are_deterministic_in_the_seed() {
        assert_eq!(general_instance(6, 4, 7), general_instance(6, 4, 7));
        assert_ne!(general_instance(6, 4, 7), general_instance(6, 4, 8));
    }
}
