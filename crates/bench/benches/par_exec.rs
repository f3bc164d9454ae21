//! Substrate bench — the `par-exec` parallel layer used by the Monte-Carlo
//! experiments: `parallel_map` at every thread count the machine offers, on
//! the per-instance workload the experiments actually run (solve a random
//! game) and on trivial tasks (the pool's own overhead). Each body first
//! checks its output against the sequential answer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use netuncert_bench::general_instance;
use netuncert_core::equilibrium::is_pure_nash;
use netuncert_core::numeric::Tolerance;
use netuncert_core::solvers::engine::SolverEngine;
use netuncert_core::strategy::LinkLoads;
use par_exec::{available_parallelism, parallel_map, ParallelConfig};

fn bench_par_exec(c: &mut Criterion) {
    let tasks = 64usize;

    let mut group = c.benchmark_group("parallel_monte_carlo_sweep");
    group.sample_size(10);
    let thread_counts: Vec<usize> = (1..=available_parallelism()).collect();
    let engine = SolverEngine::default();
    // Generate-and-solve per task id, as the experiments' cells do.
    let sample = |threads: usize| {
        parallel_map(&ParallelConfig::new(threads), tasks, |task| {
            let game = general_instance(12, 4, task as u64);
            let solved = engine.solve(&game, &LinkLoads::zero(game.links()));
            (game, solved)
        })
    };
    let expected = sample(1);
    for (game, solved) in &expected {
        if let Some(solution) = &solved.as_ref().unwrap().solution {
            let initial = LinkLoads::zero(game.links());
            assert!(is_pure_nash(
                game,
                &solution.profile,
                &initial,
                Tolerance::default()
            ));
        }
    }
    for &threads in &thread_counts {
        for ((_, got), (_, want)) in sample(threads).iter().zip(&expected) {
            assert_eq!(
                got.as_ref().unwrap().solution,
                want.as_ref().unwrap().solution,
                "threads = {threads}"
            );
        }
        group.bench_with_input(
            BenchmarkId::new("solve_64_random_games", threads),
            &threads,
            |b, &threads| b.iter(|| sample(black_box(threads))),
        );
    }
    group.finish();

    let mut overhead = c.benchmark_group("parallel_map_overhead");
    overhead.sample_size(30);
    let doubled: Vec<usize> = (0..10_000).map(|i| i * 2).collect();
    for &threads in &thread_counts {
        let config = ParallelConfig::new(threads);
        assert_eq!(parallel_map(&config, 10_000, |i| i * 2), doubled);
        overhead.bench_with_input(
            BenchmarkId::new("trivial_tasks", threads),
            &threads,
            |b, _| b.iter(|| parallel_map(black_box(&config), 10_000, |i| i * 2)),
        );
    }
    overhead.finish();
}

criterion_group! {
    name = benches;
    config = netuncert_bench::bench_config();
    targets = bench_par_exec
}
criterion_main!(benches);
