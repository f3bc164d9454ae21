//! Engine-level memoisation — cached vs. uncached solving on the repeat
//! structure of a perturbation sweep: a batch where every `k`-th instance is
//! the same fixed "true" network and the rest are fresh perturbations.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use netuncert_bench::{general_instance, solve_all};
use netuncert_core::model::EffectiveGame;
use netuncert_core::solvers::cache::SolveCache;
use netuncert_core::solvers::engine::SolverEngine;
use netuncert_core::strategy::LinkLoads;

/// A perturbation-shaped workload: `total` instances where every group of
/// `group` consecutive tasks shares one base instance (solved repeatedly)
/// followed by fresh perturbations (solved once each).
fn perturbation_batch(total: usize, group: usize) -> Vec<EffectiveGame> {
    (0..total)
        .map(|task| {
            if task % group == 0 {
                // The shared base network: identical bits every time.
                general_instance(32, 8, 7)
            } else {
                general_instance(32, 8, 1000 + task as u64)
            }
        })
        .collect()
}

fn bench_solve_cache(c: &mut Criterion) {
    let games = perturbation_batch(64, 4);
    let initial = LinkLoads::zero(8);

    let mut group = c.benchmark_group("solve_cache");
    group.sample_size(20);

    group.bench_function("uncached_64_solves_16_repeats", |b| {
        let engine = SolverEngine::default();
        b.iter(|| {
            for game in &games {
                black_box(engine.solve(black_box(game), &initial).unwrap());
            }
        })
    });

    group.bench_function("cached_64_solves_16_repeats", |b| {
        b.iter(|| {
            // A fresh cache per iteration: the measurement includes the cold
            // misses, so the speedup shown is what one sweep pass actually gains.
            let engine = SolverEngine::default().with_cache(Arc::new(SolveCache::new()));
            for game in &games {
                black_box(engine.solve(black_box(game), &initial).unwrap());
            }
        })
    });

    // The pure-hit upper bound: every solve after the first is a hit.
    group.bench_function("cached_repeat_only", |b| {
        let engine = SolverEngine::default().with_cache(Arc::new(SolveCache::new()));
        let game = &games[0];
        engine.solve(game, &initial).unwrap();
        b.iter(|| black_box(engine.solve(black_box(game), &initial).unwrap()))
    });

    for threads in [1usize, 4] {
        let engine = SolverEngine::default().with_cache(Arc::new(SolveCache::new()));
        group.bench_with_input(
            BenchmarkId::new("cached_solve_batch", threads),
            &threads,
            |b, _| b.iter(|| solve_all(&engine, threads, black_box(&games))),
        );
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = netuncert_bench::bench_config();
    targets = bench_solve_cache
}
criterion_main!(benches);
