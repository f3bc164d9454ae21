//! The `LocalSearch` backend vs its alternatives: best-response dynamics at
//! every size, and exhaustive enumeration where it still applies. These are
//! the numbers behind the `BENCHMARKS.md` "local_search" table — the
//! evidence that the incremental multi-restart descent is what opens the
//! `n = 512` regime.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use netuncert_bench::general_instance;
use netuncert_core::algorithms::PureNashMethod;
use netuncert_core::equilibrium::is_pure_nash;
use netuncert_core::solvers::engine::{SolverConfig, SolverEngine};
use netuncert_core::strategy::LinkLoads;

fn solver_engine(kind: PureNashMethod) -> SolverEngine {
    SolverEngine::from_kinds(SolverConfig::default(), &[kind])
}

fn bench_local_search(c: &mut Criterion) {
    let config = SolverConfig::default();

    // Small regime: all three backends apply; exhaustive is the oracle.
    let mut small = c.benchmark_group("local_search_small");
    small.sample_size(20);
    let game = general_instance(8, 4, 45);
    let initial = LinkLoads::zero(4);
    for kind in [
        PureNashMethod::LocalSearch,
        PureNashMethod::BestResponse,
        PureNashMethod::Exhaustive,
    ] {
        let engine = solver_engine(kind);
        let solved = engine.solve(&game, &initial).unwrap();
        let solution = solved.solution.expect("the small instance has a pure NE");
        assert!(is_pure_nash(&game, &solution.profile, &initial, config.tol));
        small.bench_with_input(BenchmarkId::new(kind.id(), "n8_m4"), &kind, |b, _| {
            b.iter(|| engine.solve(black_box(&game), black_box(&initial)))
        });
    }
    small.finish();

    // Huge regime: exhaustive is inapplicable; local search vs best response.
    let mut huge = c.benchmark_group("local_search_huge");
    huge.sample_size(10);
    for &(n, m) in &[(128usize, 8usize), (256, 16), (512, 16)] {
        let game = general_instance(n, m, 46);
        let initial = LinkLoads::zero(m);
        for kind in [PureNashMethod::LocalSearch, PureNashMethod::BestResponse] {
            let engine = solver_engine(kind);
            let solved = engine.solve(&game, &initial).unwrap();
            let solution = solved.solution.expect("the heuristic converges");
            assert!(is_pure_nash(&game, &solution.profile, &initial, config.tol));
            huge.bench_with_input(
                BenchmarkId::new(kind.id(), format!("n{n}_m{m}")),
                &kind,
                |b, _| b.iter(|| engine.solve(black_box(&game), black_box(&initial))),
            );
        }
    }
    huge.finish();
}

criterion_group! {
    name = benches;
    config = netuncert_bench::bench_config();
    targets = bench_local_search
}
criterion_main!(benches);
