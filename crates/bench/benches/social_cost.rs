//! E9 — social-cost machinery (Section 2, Theorems 4.11/4.12): cost of
//! evaluating SC1/SC2 of mixed and of pure profiles, of computing the exact
//! social optimum, and of the FMNE-vs-pure-NE worst-case comparison
//! performed by the experiments.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use netuncert_bench::{general_instance, mild_instance};
use netuncert_core::fully_mixed::fully_mixed_nash;
use netuncert_core::numeric::Tolerance;
use netuncert_core::social_cost::{pure_sc1, pure_sc2, sc1, sc2};
use netuncert_core::solvers::exhaustive::{all_pure_nash, social_optimum};
use netuncert_core::strategy::{LinkLoads, MixedProfile, PureProfile};

fn bench_social_cost(c: &mut Criterion) {
    let tol = Tolerance::default();

    let mut costs = c.benchmark_group("sc1_sc2_evaluation");
    costs.sample_size(30);
    for &(n, m) in &[(16usize, 4usize), (64, 8), (256, 16)] {
        let game = general_instance(n, m, 42);
        let profile = MixedProfile::uniform(n, m);
        costs.bench_with_input(BenchmarkId::new("sc1", format!("n{n}_m{m}")), &n, |b, _| {
            b.iter(|| sc1(black_box(&game), black_box(&profile)))
        });
        costs.bench_with_input(BenchmarkId::new("sc2", format!("n{n}_m{m}")), &n, |b, _| {
            b.iter(|| sc2(black_box(&game), black_box(&profile)))
        });
    }
    costs.finish();

    // The pure-profile costs every OPT upper-bound backend evaluates per
    // candidate profile (four per LptGreedy estimate, six per Descent
    // restart), on a loaded network at the perfbench scale.
    let mut pure = c.benchmark_group("pure_sc1_sc2_evaluation");
    pure.sample_size(30);
    let (n, m) = (512usize, 16usize);
    let game = general_instance(n, m, 42);
    let initial = LinkLoads::new((0..m).map(|l| l as f64).collect()).unwrap();
    let profile = PureProfile::new((0..n).map(|i| i % m).collect());
    let label = format!("n{n}_m{m}");
    pure.bench_with_input(BenchmarkId::new("pure_sc1", &label), &n, |b, _| {
        b.iter(|| pure_sc1(black_box(&game), black_box(&profile), black_box(&initial)))
    });
    pure.bench_with_input(BenchmarkId::new("pure_sc2", &label), &n, |b, _| {
        b.iter(|| pure_sc2(black_box(&game), black_box(&profile), black_box(&initial)))
    });
    pure.finish();

    let mut optimum = c.benchmark_group("exhaustive_social_optimum");
    optimum.sample_size(10);
    for &(n, m) in &[(6usize, 3usize), (8, 3), (10, 2), (7, 4)] {
        let game = general_instance(n, m, 43);
        let initial = LinkLoads::zero(m);
        optimum.bench_with_input(
            BenchmarkId::new("opt1_opt2", format!("n{n}_m{m}")),
            &n,
            |b, _| {
                b.iter(|| {
                    social_optimum(black_box(&game), black_box(&initial), 100_000_000).unwrap()
                })
            },
        );
    }
    optimum.finish();

    let mut worst = c.benchmark_group("fmne_worst_case_comparison");
    worst.sample_size(10);
    for &(n, m) in &[(4usize, 2usize), (5, 3), (6, 3)] {
        let game = mild_instance(n, m, 44);
        let initial = LinkLoads::zero(m);
        worst.bench_with_input(
            BenchmarkId::new("enumerate_and_compare", format!("n{n}_m{m}")),
            &n,
            |b, _| {
                b.iter(|| {
                    let fmne = fully_mixed_nash(black_box(&game), tol);
                    let pure = all_pure_nash(&game, &initial, tol, 100_000_000).unwrap();
                    let worst_pure = pure
                        .iter()
                        .map(|p| sc1(&game, &MixedProfile::from_pure(p, m)))
                        .fold(0.0f64, f64::max);
                    (fmne.map(|f| sc1(&game, &f)), worst_pure)
                })
            },
        );
    }
    worst.finish();
}

criterion_group! {
    name = benches;
    config = netuncert_bench::bench_config();
    targets = bench_social_cost
}
criterion_main!(benches);
