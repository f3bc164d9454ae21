//! Integration tests for the unified `SolverEngine`: solver selection matches
//! the paper's dispatch rules, and one engine shared by `parallel_map`
//! workers solves identically at any worker count.

use instance_gen::{rng, CapacityDist, EffectiveSpec, WeightDist};
use netuncert_core::prelude::*;
use par_exec::{parallel_map, ParallelConfig};
use proptest::prelude::*;

fn engine() -> SolverEngine {
    SolverEngine::default()
}

#[test]
fn engine_paper_order_is_the_dispatch_chain() {
    assert_eq!(
        engine().methods(),
        vec![
            PureNashMethod::TwoLinks,
            PureNashMethod::Symmetric,
            PureNashMethod::UniformBeliefs,
            PureNashMethod::BestResponse,
            PureNashMethod::Exhaustive,
        ]
    );
}

#[test]
fn two_link_games_select_atwolinks() {
    let game = EffectiveGame::from_rows(
        vec![1.0, 2.0, 3.0],
        vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![1.5, 1.5]],
    )
    .unwrap();
    let initial = LinkLoads::zero(2);
    assert_eq!(
        engine().selected_method(&game, &initial),
        Some(PureNashMethod::TwoLinks)
    );
    let solved = engine().solve(&game, &initial).unwrap();
    assert_eq!(solved.method(), Some(PureNashMethod::TwoLinks));
    assert!(is_pure_nash(
        &game,
        &solved.solution.unwrap().profile,
        &initial,
        Tolerance::default()
    ));
}

#[test]
fn identical_weights_select_asymmetric() {
    let game = EffectiveGame::from_rows(
        vec![2.0, 2.0, 2.0],
        vec![
            vec![1.0, 2.0, 3.0],
            vec![3.0, 2.0, 1.0],
            vec![2.0, 1.0, 3.0],
        ],
    )
    .unwrap();
    let initial = LinkLoads::zero(3);
    assert_eq!(
        engine().selected_method(&game, &initial),
        Some(PureNashMethod::Symmetric)
    );
    let solved = engine().solve(&game, &initial).unwrap();
    assert_eq!(solved.method(), Some(PureNashMethod::Symmetric));
    // With non-zero initial traffic `Asymmetric` no longer applies, matching
    // the algorithm's statement in the paper.
    let busy = LinkLoads::new(vec![1.0, 0.0, 0.0]).unwrap();
    assert_ne!(
        engine().selected_method(&game, &busy),
        Some(PureNashMethod::Symmetric)
    );
}

#[test]
fn uniform_beliefs_select_auniform() {
    let game = EffectiveGame::from_rows(
        vec![3.0, 2.0, 1.0],
        vec![
            vec![1.0, 1.0, 1.0],
            vec![2.0, 2.0, 2.0],
            vec![0.5, 0.5, 0.5],
        ],
    )
    .unwrap();
    let initial = LinkLoads::zero(3);
    assert_eq!(
        engine().selected_method(&game, &initial),
        Some(PureNashMethod::UniformBeliefs)
    );
    let solved = engine().solve(&game, &initial).unwrap();
    assert_eq!(solved.method(), Some(PureNashMethod::UniformBeliefs));
}

#[test]
fn general_games_fall_through_to_best_response() {
    let game = EffectiveGame::from_rows(
        vec![3.0, 1.0, 2.0, 5.0],
        vec![
            vec![2.0, 2.5, 1.0],
            vec![1.0, 4.0, 2.0],
            vec![3.0, 3.0, 0.5],
            vec![0.5, 6.0, 2.0],
        ],
    )
    .unwrap();
    let initial = LinkLoads::zero(3);
    assert_eq!(
        engine().selected_method(&game, &initial),
        Some(PureNashMethod::BestResponse)
    );
    let solved = engine().solve(&game, &initial).unwrap();
    assert!(matches!(
        solved.method(),
        Some(PureNashMethod::BestResponse | PureNashMethod::Exhaustive)
    ));
    let attempt = solved
        .telemetry
        .winning_attempt()
        .expect("an equilibrium was found");
    assert!(
        attempt.iterations.is_some(),
        "iterative methods report their step counts"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One engine mapped over a batch is identical for 1, 2 and 8 worker
    /// threads, and every answer is certified.
    #[test]
    fn shared_engine_solves_are_worker_count_invariant(
        seed in any::<u64>(),
        users in 2usize..=5,
        links in 2usize..=3,
        count in 1usize..24,
    ) {
        let spec = EffectiveSpec::General {
            users,
            links,
            capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        };
        let games: Vec<EffectiveGame> =
            (0..count).map(|task| spec.generate(&mut rng(seed, task as u64))).collect();

        let engine = engine();
        let solve = |threads: usize| -> Vec<Option<PureNashSolution>> {
            parallel_map(&ParallelConfig::new(threads), games.len(), |i| {
                let game = &games[i];
                let solved = engine.solve(game, &LinkLoads::zero(game.links()));
                solved.expect("in-budget instances").solution
            })
        };

        let sequential = solve(1);
        prop_assert_eq!(&sequential, &solve(2));
        prop_assert_eq!(&sequential, &solve(8));
        for (game, solution) in games.iter().zip(&sequential) {
            let solution = solution.as_ref().expect("small games always have a pure NE");
            prop_assert!(is_pure_nash(
                game,
                &solution.profile,
                &LinkLoads::zero(game.links()),
                Tolerance::default()
            ));
        }
    }
}
