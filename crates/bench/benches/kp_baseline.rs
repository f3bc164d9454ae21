//! E12 — the KP-model baseline: LPT/greedy Nashification, Nashification of
//! arbitrary profiles, and the KP social-cost machinery, timed on the same
//! instances the uncertainty-model solvers handle (point-mass beliefs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use instance_gen::kp::KpSpec;
use instance_gen::rng;
use kp_model::lpt::{lpt_assignment, nashify};
use kp_model::social::expected_max_congestion;
use netuncert_core::numeric::Tolerance;
use netuncert_core::solvers::engine::{SolverConfig, SolverEngine};
use netuncert_core::strategy::{LinkLoads, MixedProfile, PureProfile};

fn bench_kp(c: &mut Criterion) {
    let tol = Tolerance::default();

    let mut lpt = c.benchmark_group("kp_lpt_nash");
    lpt.sample_size(30);
    for &(n, m) in &[(16usize, 4usize), (64, 8), (256, 16), (1024, 32)] {
        let game = KpSpec::related(n, m).generate(&mut rng(42, 0));
        lpt.bench_with_input(BenchmarkId::new("lpt", format!("n{n}_m{m}")), &n, |b, _| {
            b.iter(|| lpt_assignment(black_box(&game)))
        });
    }
    lpt.finish();

    let mut model_vs_kp = c.benchmark_group("kp_model_solver_on_kp_instances");
    model_vs_kp.sample_size(20);
    for &(n, m) in &[(16usize, 4usize), (64, 8)] {
        let game = KpSpec::related(n, m).generate(&mut rng(43, 0));
        let eg = game.to_effective_game();
        let initial = LinkLoads::zero(m);
        model_vs_kp.bench_with_input(
            BenchmarkId::new("dispatcher", format!("n{n}_m{m}")),
            &n,
            |b, _| {
                b.iter(|| {
                    SolverEngine::paper_order(SolverConfig::with_tol(tol))
                        .solve(black_box(&eg), black_box(&initial))
                        .unwrap()
                        .solution
                })
            },
        );
    }
    model_vs_kp.finish();

    let mut nashification = c.benchmark_group("kp_nashify_worst_start");
    nashification.sample_size(20);
    for &(n, m) in &[(16usize, 4usize), (64, 8)] {
        let game = KpSpec::related(n, m).generate(&mut rng(44, 0));
        nashification.bench_with_input(
            BenchmarkId::new("all_on_link_0", format!("n{n}_m{m}")),
            &n,
            |b, _| b.iter(|| nashify(black_box(&game), PureProfile::all_on(n, 0), 1_000_000)),
        );
    }
    nashification.finish();

    let mut social = c.benchmark_group("kp_expected_max_congestion");
    social.sample_size(10);
    for &(n, m) in &[(8usize, 2usize), (10, 2), (8, 3)] {
        let game = KpSpec::related(n, m).generate(&mut rng(45, 0));
        let profile = MixedProfile::uniform(n, m);
        social.bench_with_input(
            BenchmarkId::new("exact_enumeration", format!("n{n}_m{m}")),
            &n,
            |b, _| {
                b.iter(|| {
                    expected_max_congestion(black_box(&game), black_box(&profile), 100_000_000)
                        .unwrap()
                })
            },
        );
    }
    social.finish();
}

criterion_group! {
    name = benches;
    config = netuncert_bench::bench_config();
    targets = bench_kp
}
criterion_main!(benches);
