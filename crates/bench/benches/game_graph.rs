//! E4 — the three-user analysis (Section 3.1): cost of building the full
//! best-response game graph and searching it for cycles, the computation
//! behind the paper's exhaustive `n = 3` existence argument and the
//! potential-game observations of Section 3.2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use netuncert_bench::{general_instance, solve_all};
use netuncert_core::game_graph::{EdgeKind, GameGraph};
use netuncert_core::model::EffectiveGame;
use netuncert_core::numeric::Tolerance;
use netuncert_core::potential::exact_potential_violation;
use netuncert_core::solvers::engine::SolverEngine;
use netuncert_core::strategy::LinkLoads;

fn bench_game_graph(c: &mut Criterion) {
    let tol = Tolerance::default();

    let mut build = c.benchmark_group("game_graph_build_n3");
    build.sample_size(20);
    for &m in &[2usize, 3, 4, 5, 6] {
        let game = general_instance(3, m, 42);
        let initial = LinkLoads::zero(m);
        build.bench_with_input(BenchmarkId::new("best_response_edges", m), &m, |b, _| {
            b.iter(|| {
                GameGraph::build(
                    black_box(&game),
                    black_box(&initial),
                    EdgeKind::BestResponse,
                    tol,
                    10_000_000,
                )
                .unwrap()
            })
        });
    }
    build.finish();

    let mut cycle = c.benchmark_group("game_graph_cycle_search");
    cycle.sample_size(20);
    for &(n, m) in &[(3usize, 3usize), (3, 5), (4, 3), (5, 3)] {
        let game = general_instance(n, m, 43);
        let initial = LinkLoads::zero(m);
        let graph =
            GameGraph::build(&game, &initial, EdgeKind::BetterResponse, tol, 10_000_000).unwrap();
        cycle.bench_with_input(
            BenchmarkId::new("better_response", format!("n{n}_m{m}")),
            &n,
            |b, _| b.iter(|| black_box(&graph).find_cycle()),
        );
    }
    cycle.finish();

    // The engine view of the same `n = 3` analysis: finding one equilibrium
    // per instance through the unified solver stack instead of materialising
    // the full defection graph, both one-at-a-time and as a parallel batch.
    let mut engine_group = c.benchmark_group("solver_engine_n3");
    engine_group.sample_size(20);
    let engine = SolverEngine::default();
    for &m in &[2usize, 3, 4, 5, 6] {
        let game = general_instance(3, m, 42);
        let initial = LinkLoads::zero(m);
        engine_group.bench_with_input(BenchmarkId::new("solve_one", m), &m, |b, _| {
            b.iter(|| engine.solve(black_box(&game), black_box(&initial)).unwrap())
        });
    }
    let batch: Vec<EffectiveGame> = (0..128)
        .map(|i| general_instance(3, 4, 500 + i as u64))
        .collect();
    for threads in [1usize, 4] {
        engine_group.bench_with_input(
            BenchmarkId::new("solve_batch_128_m4", threads),
            &threads,
            |b, _| b.iter(|| solve_all(&engine, threads, black_box(&batch))),
        );
    }
    engine_group.finish();

    let mut potential = c.benchmark_group("exact_potential_check");
    potential.sample_size(20);
    for &(n, m) in &[(2usize, 2usize), (3, 2), (3, 3), (4, 3)] {
        let game = general_instance(n, m, 44);
        let initial = LinkLoads::zero(m);
        potential.bench_with_input(
            BenchmarkId::new("four_cycle_condition", format!("n{n}_m{m}")),
            &n,
            |b, _| {
                b.iter(|| {
                    exact_potential_violation(
                        black_box(&game),
                        black_box(&initial),
                        tol,
                        10_000_000,
                    )
                    .unwrap()
                })
            },
        );
    }
    potential.finish();
}

criterion_group! {
    name = benches;
    config = netuncert_bench::bench_config();
    targets = bench_game_graph
}
criterion_main!(benches);
