//! Warm-start repair vs cold solving: the numbers behind the `repair`
//! table in `BENCHMARKS.md` — the evidence that carrying a certified
//! equilibrium across one churn edit costs a fraction of re-solving the
//! edited game with `LocalSearch` from scratch.
//!
//! The `warm_*` rows time the by-reference `repair` (a clone of the game,
//! then the in-place path); the `inplace_*` rows time `repair_in_place` on
//! a resident game whose kernel rows are patched, not rebuilt — the
//! service's session path.
//!
//! Every benchmarked path is certification-checked before timing: the
//! repaired profile must pass `is_pure_nash` on the edited game, exactly
//! as the repair contract demands.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use netuncert_bench::general_instance;
use netuncert_core::equilibrium::is_pure_nash;
use netuncert_core::model::GameEdit;
use netuncert_core::solvers::engine::{SolverConfig, SolverEngine, SolverKind};
use netuncert_core::strategy::LinkLoads;

/// The churn edits benchmarked per size: one of each kind, grounded
/// against an `n`-user, `m`-link game.
fn edits(n: usize, m: usize) -> Vec<(&'static str, GameEdit)> {
    vec![
        (
            "capacity",
            GameEdit::CapacityChange {
                user: n / 2,
                link: m / 2,
                capacity: 2.5,
            },
        ),
        (
            "join",
            GameEdit::UserJoins {
                weight: 1.5,
                capacities: (0..m).map(|l| 1.0 + l as f64 * 0.25).collect(),
            },
        ),
        ("leave", GameEdit::UserLeaves { user: n / 3 }),
    ]
}

fn bench_repair(c: &mut Criterion) {
    let config = SolverConfig::default();
    let engine = SolverEngine::from_kinds(config, &[SolverKind::LocalSearch]);

    let mut group = c.benchmark_group("repair");
    group.sample_size(10);
    for &(n, m) in &[(128usize, 8usize), (512, 16)] {
        let game = general_instance(n, m, 47);
        let initial = LinkLoads::zero(m);
        let solved = engine.solve(&game, &initial).unwrap();
        let certified = solved.solution.expect("the heuristic converges").profile;
        assert!(is_pure_nash(&game, &certified, &initial, config.tol));

        for (kind, edit) in edits(n, m) {
            // Certify the repaired answer once before timing it.
            let outcome = engine.repair(&game, &initial, &certified, &edit).unwrap();
            let repaired = outcome.solution.solution.expect("repair certifies");
            assert!(is_pure_nash(
                &outcome.game,
                &repaired.profile,
                &initial,
                config.tol
            ));

            group.bench_with_input(
                BenchmarkId::new(format!("warm_{kind}"), format!("n{n}_m{m}")),
                &edit,
                |b, edit| {
                    b.iter(|| {
                        engine.repair(
                            black_box(&game),
                            black_box(&initial),
                            black_box(&certified),
                            black_box(edit),
                        )
                    })
                },
            );

            // The from-scratch comparison point: a cold LocalSearch solve
            // of the *same* edited game.
            let edited = game.apply_edit(&edit).unwrap();
            let cold = engine.solve(&edited, &initial).unwrap();
            let cold_profile = cold.solution.expect("the heuristic converges").profile;
            assert!(is_pure_nash(&edited, &cold_profile, &initial, config.tol));
            group.bench_with_input(
                BenchmarkId::new(format!("cold_{kind}"), format!("n{n}_m{m}")),
                &edited,
                |b, edited| b.iter(|| engine.solve(black_box(edited), black_box(&initial))),
            );
        }

        // In place, as a session repairs: each iteration is one edit of a
        // resident game from its last certified profile, and the edits
        // alternate with their inverses so the game stays the same size.
        let (user, link) = (n / 2, m / 2);
        let toggles = [
            (
                "capacity",
                GameEdit::CapacityChange {
                    user,
                    link,
                    capacity: 2.5,
                },
                GameEdit::CapacityChange {
                    user,
                    link,
                    capacity: game.capacity(user, link),
                },
            ),
            (
                "join_leave",
                edits(n, m).swap_remove(1).1,
                GameEdit::UserLeaves { user: n },
            ),
        ];
        for (kind, forward, back) in toggles {
            let mut resident = game.clone();
            let mut profile = certified.clone();
            let mut forward_turn = true;
            group.bench_function(
                BenchmarkId::new(format!("inplace_{kind}"), format!("n{n}_m{m}")),
                |b| {
                    b.iter(|| {
                        let edit = if forward_turn { &forward } else { &back };
                        forward_turn = !forward_turn;
                        let (solved, _) = engine
                            .repair_in_place(&mut resident, &initial, &profile, black_box(edit))
                            .unwrap();
                        profile = solved.solution.expect("repair certifies").profile;
                    })
                },
            );
            assert!(is_pure_nash(&resident, &profile, &initial, config.tol));
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = netuncert_bench::bench_config();
    targets = bench_repair
}
criterion_main!(benches);
