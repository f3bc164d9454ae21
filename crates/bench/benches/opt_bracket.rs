//! The `opt` bracketing engine vs its exact alternatives at growing `n`:
//! exhaustive enumeration, pruned branch-and-bound, and the bounds-only
//! composition (greedy + descent upper, relaxation lower) that carries the
//! PoA-at-scale experiment past the exhaustive wall. These are the numbers
//! behind the `BENCHMARKS.md` "opt_bracket" table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use instance_gen::{CapacityDist, EffectiveSpec, WeightDist};
use netuncert_bench::general_instance;
use netuncert_core::opt::{OptConfig, OptEngine, OptMethod};
use netuncert_core::solvers::exhaustive::profile_count;
use netuncert_core::strategy::LinkLoads;

fn engine(kinds: &[OptMethod]) -> OptEngine {
    OptEngine::from_kinds(OptConfig::default(), kinds)
}

fn bench_opt_bracket(c: &mut Criterion) {
    let config = OptConfig::default();
    let bounds_only = [
        OptMethod::LptGreedy,
        OptMethod::Descent,
        OptMethod::Relaxation,
    ];

    // Exact regime: every backend applies; exhaustive is the ground truth
    // the branch-and-bound search must reproduce bit-for-bit (asserted
    // before timing). `n8_m4_related` is the shape of a `belief_noise`
    // true network: one capacity per link in [2.5, 4), shared by every
    // user, which prunes far less than the general 16× band.
    let mut exact = c.benchmark_group("opt_bracket_exact");
    exact.sample_size(10);
    let related = EffectiveSpec::UserIndependent {
        users: 8,
        links: 4,
        capacity: CapacityDist::Uniform { lo: 2.5, hi: 4.0 },
        weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
    }
    .generate(&mut instance_gen::rng(45, 0xE15));
    for (id, game) in [
        ("n8_m4", general_instance(8, 4, 45)),
        ("n8_m4_related", related),
        ("n10_m4", general_instance(10, 4, 45)),
    ] {
        let initial = LinkLoads::zero(game.links());
        let mut exhaustive = None;
        for (label, kinds) in [
            ("exhaustive", &[OptMethod::Exhaustive][..]),
            ("branch_and_bound", &[OptMethod::BranchAndBound][..]),
            ("bracket", &bounds_only[..]),
        ] {
            let e = engine(kinds);
            let outcome = e.estimate(&game, &initial).unwrap();
            assert!(outcome.opt1.upper.is_finite());
            match label {
                "exhaustive" => exhaustive = Some(outcome),
                "branch_and_bound" => {
                    let want = exhaustive.as_ref().expect("exhaustive runs first");
                    assert!(outcome.exact(), "the search must finish at {id}");
                    for (got, want) in [(outcome.opt1, want.opt1), (outcome.opt2, want.opt2)] {
                        assert_eq!(got.lower.to_bits(), want.lower.to_bits(), "{id}");
                        assert_eq!(got.upper.to_bits(), want.upper.to_bits(), "{id}");
                    }
                }
                _ => {}
            }
            exact.bench_with_input(BenchmarkId::new(label, id), &label, |b, _| {
                b.iter(|| e.estimate(black_box(&game), black_box(&initial)))
            });
        }
    }
    exact.finish();

    // Beyond the wall: only the bounds composition applies; the bracket it
    // returns is the one the `poa_scaling` experiment consumes.
    let mut huge = c.benchmark_group("opt_bracket_huge");
    huge.sample_size(10);
    for &(n, m) in &[(32usize, 8usize), (128, 8), (512, 16)] {
        assert!(profile_count(n, m) > config.profile_limit);
        let game = general_instance(n, m, 46);
        let initial = LinkLoads::zero(m);
        let e = engine(&bounds_only);
        let outcome = e.estimate(&game, &initial).unwrap();
        assert!(
            outcome.opt1.width() <= 1.5 && outcome.opt2.width() <= 1.5,
            "bracket widths {:.3}/{:.3} out of spec at n={n}",
            outcome.opt1.width(),
            outcome.opt2.width()
        );
        huge.bench_with_input(
            BenchmarkId::new("bracket", format!("n{n}_m{m}")),
            &n,
            |b, _| b.iter(|| e.estimate(black_box(&game), black_box(&initial))),
        );
    }
    huge.finish();

    // The adaptive width-goal mode vs the same composition on fixed
    // budgets, on a moderate at-scale capacity band (uniform 2–4, the
    // E14/E15 regime): past the wall the cheap LptGreedy + Relaxation pair
    // meets the 1.5 goal, so the 24-restart descent run is skipped
    // entirely — the per-bracket saving the `belief_noise` sweep banks on.
    // (On harsher capacity spreads like `general_instance`'s 16× band the
    // goal is not met early and the adaptive mode honestly degrades to
    // fixed cost.)
    let mut adaptive = c.benchmark_group("opt_bracket_adaptive");
    adaptive.sample_size(10);
    for &(n, m) in &[(128usize, 8usize), (512, 16)] {
        let game = EffectiveSpec::General {
            users: n,
            links: m,
            capacity: CapacityDist::Uniform { lo: 2.0, hi: 4.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        }
        .generate(&mut instance_gen::rng(46, 0xADA));
        let initial = LinkLoads::zero(m);
        for (label, width_goal) in [("fixed", None), ("adaptive", Some(1.5))] {
            let e = OptEngine::from_kinds(
                OptConfig {
                    width_goal,
                    ..OptConfig::default()
                },
                &bounds_only,
            );
            let outcome = e.estimate(&game, &initial).unwrap();
            assert!(outcome.opt1.width() <= 1.5 && outcome.opt2.width() <= 1.5);
            if width_goal.is_some() {
                assert!(
                    !outcome.telemetry.skipped.is_empty(),
                    "the adaptive mode must skip the descent run at n={n}"
                );
            }
            adaptive.bench_with_input(
                BenchmarkId::new(label, format!("n{n}_m{m}")),
                &label,
                |b, _| b.iter(|| e.estimate(black_box(&game), black_box(&initial))),
            );
        }
    }
    adaptive.finish();
}

criterion_group! {
    name = benches;
    config = netuncert_bench::bench_config();
    targets = bench_opt_bracket
}
criterion_main!(benches);
