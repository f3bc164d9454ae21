//! E5 — Conjecture 3.7 machinery: convergence speed of best-response dynamics
//! on random general instances (the workhorse behind the paper's simulation
//! campaign and the dispatcher's general-case path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use netuncert_bench::general_instance;
use netuncert_core::algorithms::best_response::{BestResponseDynamics, SelectionRule};
use netuncert_core::model::EffectiveGame;
use netuncert_core::numeric::Tolerance;
use netuncert_core::solvers::engine::{SolverConfig, SolverEngine};
use netuncert_core::strategy::LinkLoads;
use par_exec::ParallelConfig;

fn bench_best_response(c: &mut Criterion) {
    let tol = Tolerance::default();

    let mut group = c.benchmark_group("best_response_dynamics");
    group.sample_size(20);
    for &(n, m) in &[(8usize, 4usize), (16, 4), (32, 8), (64, 8), (128, 16)] {
        let game = general_instance(n, m, 42);
        let initial = LinkLoads::zero(m);
        let dynamics = BestResponseDynamics::default();
        // Confirm convergence once before timing.
        assert!(dynamics.run_from_greedy(&game, &initial, tol).converged());
        group.bench_with_input(
            BenchmarkId::new("greedy_start", format!("n{n}_m{m}")),
            &n,
            |b, _| b.iter(|| dynamics.run_from_greedy(black_box(&game), black_box(&initial), tol)),
        );
    }
    group.finish();

    let mut rules = c.benchmark_group("best_response_selection_rules");
    rules.sample_size(20);
    let game = general_instance(32, 8, 43);
    let initial = LinkLoads::zero(8);
    for (name, rule) in [
        ("round_robin", SelectionRule::RoundRobin),
        ("largest_gain", SelectionRule::LargestGain),
    ] {
        let dynamics = BestResponseDynamics {
            max_steps: 1_000_000,
            rule,
        };
        rules.bench_function(name, |b| {
            b.iter(|| dynamics.run_from_greedy(black_box(&game), black_box(&initial), tol))
        });
    }
    rules.finish();

    let mut dispatcher = c.benchmark_group("solve_pure_nash_dispatcher");
    dispatcher.sample_size(20);
    let engine = SolverEngine::default();
    for &(n, m) in &[(16usize, 4usize), (64, 8)] {
        let game = general_instance(n, m, 44);
        let initial = LinkLoads::zero(m);
        dispatcher.bench_with_input(
            BenchmarkId::new("general", format!("n{n}_m{m}")),
            &n,
            |b, _| {
                b.iter(|| {
                    SolverEngine::paper_order(SolverConfig::with_tol(tol))
                        .solve(black_box(&game), black_box(&initial))
                        .unwrap()
                        .solution
                })
            },
        );
        dispatcher.bench_with_input(
            BenchmarkId::new("engine_with_telemetry", format!("n{n}_m{m}")),
            &n,
            |b, _| b.iter(|| engine.solve(black_box(&game), black_box(&initial)).unwrap()),
        );
    }
    dispatcher.finish();

    // The batch path: 64 general instances fanned out over the engine's
    // worker pool. Solutions are bit-identical for every thread count; only
    // the wall clock should move.
    let mut batch = c.benchmark_group("solver_engine_batch");
    batch.sample_size(10);
    let games: Vec<EffectiveGame> = (0..64)
        .map(|i| general_instance(16, 4, 1000 + i as u64))
        .collect();
    for threads in [1usize, 2, 4, 8] {
        let engine = SolverEngine::default().with_parallelism(ParallelConfig::new(threads));
        batch.bench_with_input(
            BenchmarkId::new("solve_batch_64_n16_m4", threads),
            &threads,
            |b, _| b.iter(|| engine.solve_batch(black_box(&games))),
        );
    }
    batch.finish();
}

criterion_group! {
    name = benches;
    config = netuncert_bench::bench_config();
    targets = bench_best_response
}
criterion_main!(benches);
