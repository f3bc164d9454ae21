//! The raw-speed floor: SoA kernel benchmarks behind the `BENCHMARKS.md`
//! "kernels" table.
//!
//! Two of these points are the acceptance gates of the kernel layer — the
//! `local_search/n512_m16` single solve and the `solve_batch_64_n16_m4`
//! single-worker batch — benchmarked against their pre-kernel baselines.
//! Every timed solve is certified first: the solver must return a profile
//! passing the canonical `is_pure_nash` predicate before its timing is
//! recorded, so a kernel that silently stopped solving could never report a
//! flattering number.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use netuncert_bench::{general_instance, solve_all};
use netuncert_core::algorithms::PureNashMethod;
use netuncert_core::equilibrium::is_pure_nash;
use netuncert_core::model::EffectiveGame;
use netuncert_core::solvers::engine::{SolverConfig, SolverEngine};
use netuncert_core::solvers::kernel::SoAView;
use netuncert_core::strategy::LinkLoads;

fn solver_engine(kind: PureNashMethod) -> SolverEngine {
    SolverEngine::from_kinds(SolverConfig::default(), &[kind])
}

fn bench_kernels(c: &mut Criterion) {
    let config = SolverConfig::default();
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);

    // First touch of the kernel rows: a clone (which carries no derived
    // rows) plus the one-off derivation of its reciprocals and weight
    // order — what a cloned game pays on its first kernel solve.
    let game = general_instance(512, 16, 46);
    group.bench_function(
        BenchmarkId::new("kernel_rows_first_touch", "n512_m16"),
        |b| {
            b.iter(|| {
                let fresh = black_box(&game).clone();
                SoAView::from_game(&fresh);
                fresh
            })
        },
    );

    // Single solves in the huge regime, on the same instances as the
    // pre-kernel `local_search_huge` group so the columns line up.
    for &(n, m) in &[(128usize, 8usize), (512, 16)] {
        let game = general_instance(n, m, 46);
        let initial = LinkLoads::zero(m);
        for kind in [PureNashMethod::LocalSearch, PureNashMethod::BestResponse] {
            let engine = solver_engine(kind);
            let solved = engine.solve(&game, &initial).unwrap();
            let solution = solved.solution.expect("the heuristic converges");
            assert!(is_pure_nash(&game, &solution.profile, &initial, config.tol));
            group.bench_with_input(
                BenchmarkId::new(kind.id(), format!("n{n}_m{m}")),
                &kind,
                |b, _| b.iter(|| engine.solve(black_box(&game), black_box(&initial))),
            );
        }
    }

    // The batched kernel path, on the same workload as the pre-kernel
    // `solver_engine_batch` group: 64 general n=16, m=4 instances through
    // the paper-order engine (hot path: the best-response kernel).
    let games: Vec<EffectiveGame> = (0..64).map(|i| general_instance(16, 4, 1000 + i)).collect();
    let engine = SolverEngine::paper_order(config);
    for threads in [1usize, 8] {
        for (game, result) in games.iter().zip(solve_all(&engine, threads, &games)) {
            let solved = result.unwrap();
            let solution = solved.solution.expect("batch instances converge");
            assert!(is_pure_nash(
                game,
                &solution.profile,
                &LinkLoads::zero(game.links()),
                config.tol
            ));
        }
        group.bench_with_input(
            BenchmarkId::new("solve_batch_64_n16_m4", threads),
            &threads,
            |b, _| b.iter(|| solve_all(&engine, threads, black_box(&games))),
        );
    }

    group.finish();
}

criterion_group! {
    name = benches;
    config = netuncert_bench::bench_config();
    targets = bench_kernels
}
criterion_main!(benches);
