//! Property-based tests for the equilibrium machinery and the paper's
//! algorithms: every solver must return verified Nash equilibria on arbitrary
//! instances satisfying its precondition, and the closed-form fully mixed
//! equilibrium must verify whenever it is feasible.

use proptest::prelude::*;

use netuncert_core::algorithms::best_response::BestResponseDynamics;
use netuncert_core::algorithms::{symmetric, two_links, uniform};
use netuncert_core::equilibrium::{
    best_response, is_fully_mixed_nash, is_mixed_nash, is_pure_nash, profitable_deviations,
};
use netuncert_core::fully_mixed::{fully_mixed_candidate, fully_mixed_latency, fully_mixed_nash};
use netuncert_core::game_graph::{decode, encode};
use netuncert_core::model::EffectiveGame;
use netuncert_core::numeric::{stable_sum, Tolerance};
use netuncert_core::solvers::engine::{SolverConfig, SolverEngine};
use netuncert_core::solvers::exhaustive::{all_pure_nash, profile_count};
use netuncert_core::strategy::{LinkLoads, MixedProfile, PureProfile};

fn weight() -> impl Strategy<Value = f64> {
    0.1f64..5.0
}

fn capacity() -> impl Strategy<Value = f64> {
    0.2f64..5.0
}

fn general_game(
    users: impl Strategy<Value = usize>,
    links: impl Strategy<Value = usize>,
) -> impl Strategy<Value = EffectiveGame> {
    (users, links).prop_flat_map(|(n, m)| {
        let weights = proptest::collection::vec(weight(), n);
        let rows = proptest::collection::vec(proptest::collection::vec(capacity(), m), n);
        (weights, rows).prop_map(|(w, rows)| EffectiveGame::from_rows(w, rows).expect("valid"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Atwolinks` always returns a pure Nash equilibrium (with or without
    /// initial traffic).
    #[test]
    fn two_links_always_returns_a_nash_equilibrium(
        game in general_game(2usize..=7, Just(2)),
        t0 in 0.0f64..3.0,
        t1 in 0.0f64..3.0,
    ) {
        let tol = Tolerance::default();
        let initial = LinkLoads::new(vec![t0, t1]).unwrap();
        let profile = two_links::solve(&game, &initial).unwrap();
        prop_assert!(is_pure_nash(&game, &profile, &initial, tol));
    }

    /// `Asymmetric` always returns a pure Nash equilibrium for identical weights.
    #[test]
    fn symmetric_always_returns_a_nash_equilibrium(
        (w, game) in (0.5f64..3.0, 2usize..=6, 2usize..=4).prop_flat_map(|(w, n, m)| {
            let rows = proptest::collection::vec(proptest::collection::vec(capacity(), m), n);
            (Just(w), rows.prop_map(move |rows| {
                EffectiveGame::from_rows(vec![w; rows.len()], rows).expect("valid")
            }))
        })
    ) {
        let _ = w;
        let tol = Tolerance::default();
        let profile = symmetric::solve(&game, tol).unwrap();
        prop_assert!(is_pure_nash(&game, &profile, &LinkLoads::zero(game.links()), tol));
    }

    /// `Auniform` always returns a pure Nash equilibrium under uniform beliefs.
    #[test]
    fn uniform_always_returns_a_nash_equilibrium(
        game in (2usize..=7, 2usize..=4).prop_flat_map(|(n, m)| {
            let weights = proptest::collection::vec(weight(), n);
            let caps = proptest::collection::vec(capacity(), n);
            (weights, caps).prop_map(move |(w, c)| {
                let rows = c.into_iter().map(|ci| vec![ci; m]).collect();
                EffectiveGame::from_rows(w, rows).expect("valid")
            })
        }),
    ) {
        let tol = Tolerance::default();
        let initial = LinkLoads::zero(game.links());
        let profile = uniform::solve(&game, &initial, tol).unwrap();
        prop_assert!(is_pure_nash(&game, &profile, &initial, tol));
    }

    /// Best-response dynamics converge on random general instances
    /// (the empirical content of Conjecture 3.7).
    #[test]
    fn best_response_dynamics_converge(game in general_game(2usize..=6, 2usize..=4)) {
        let tol = Tolerance::default();
        let initial = LinkLoads::zero(game.links());
        let outcome = BestResponseDynamics::default().run_from_greedy(&game, &initial, tol);
        prop_assert!(outcome.converged());
        prop_assert!(is_pure_nash(&game, outcome.profile(), &initial, tol));
    }

    /// The dispatcher finds an equilibrium on every random instance and the
    /// result agrees with the equilibrium predicate.
    #[test]
    fn dispatcher_always_finds_an_equilibrium(game in general_game(2usize..=5, 2usize..=4)) {
        let tol = Tolerance::default();
        let initial = LinkLoads::zero(game.links());
        let sol = SolverEngine::paper_order(SolverConfig::with_tol(tol))
            .solve(&game, &initial)
            .unwrap()
            .solution;
        prop_assert!(sol.is_some());
        prop_assert!(is_pure_nash(&game, &sol.unwrap().profile, &initial, tol));
    }

    /// A profile is a pure Nash equilibrium iff it admits no profitable
    /// deviation; and the best response of each user never increases latency.
    #[test]
    fn nash_predicate_matches_deviation_enumeration(
        game in general_game(2usize..=5, 2usize..=3),
        seed in 0usize..1000,
    ) {
        let tol = Tolerance::default();
        let n = game.users();
        let m = game.links();
        let initial = LinkLoads::zero(m);
        let profile = PureProfile::new((0..n).map(|i| (seed * 13 + i * 5) % m).collect());
        let deviations = profitable_deviations(&game, &profile, &initial, tol);
        prop_assert_eq!(is_pure_nash(&game, &profile, &initial, tol), deviations.is_empty());
        for user in 0..n {
            let (_, best) = best_response(&game, &profile, &initial, user, tol);
            let current = netuncert_core::latency::pure_user_latency(&game, &profile, &initial, user);
            prop_assert!(best <= current + 1e-9);
        }
    }

    /// Every equilibrium found by exhaustive enumeration verifies, and every
    /// solver output is contained in the exhaustive set.
    #[test]
    fn exhaustive_enumeration_is_sound_and_complete(game in general_game(2usize..=4, Just(2))) {
        let tol = Tolerance::default();
        let initial = LinkLoads::zero(2);
        let all = all_pure_nash(&game, &initial, tol, 1_000_000).unwrap();
        for ne in &all {
            prop_assert!(is_pure_nash(&game, ne, &initial, tol));
        }
        let solved = two_links::solve(&game, &initial).unwrap();
        prop_assert!(all.contains(&solved));
    }

    /// The fully mixed candidate's rows always sum to one; when feasible it is
    /// a fully mixed Nash equilibrium whose latencies match Lemma 4.1.
    #[test]
    fn fully_mixed_candidate_invariants(game in general_game(2usize..=6, 2usize..=4)) {
        let tol = Tolerance::default();
        let candidate = fully_mixed_candidate(&game);
        for user in 0..game.users() {
            prop_assert!((stable_sum(candidate.row(user)) - 1.0).abs() < 1e-7);
        }
        if let Some(fmne) = fully_mixed_nash(&game, tol) {
            prop_assert!(is_fully_mixed_nash(&game, &fmne, tol));
            for user in 0..game.users() {
                let expected = fully_mixed_latency(&game, user);
                let (_, observed) = netuncert_core::latency::mixed_min_latency(&game, &fmne, user);
                prop_assert!((expected - observed).abs() < 1e-6 * expected.max(1.0));
            }
        }
    }

    /// Uniform user beliefs force the fully mixed equilibrium to be exactly
    /// uniform (Theorem 4.8), regardless of the weights.
    #[test]
    fn uniform_beliefs_fmne_is_one_over_m(
        game in (2usize..=6, 2usize..=4).prop_flat_map(|(n, m)| {
            let weights = proptest::collection::vec(weight(), n);
            let caps = proptest::collection::vec(capacity(), n);
            (weights, caps).prop_map(move |(w, c)| {
                let rows = c.into_iter().map(|ci| vec![ci; m]).collect();
                EffectiveGame::from_rows(w, rows).expect("valid")
            })
        }),
    ) {
        let tol = Tolerance::default();
        let m = game.links();
        let fmne = fully_mixed_nash(&game, tol).expect("Theorem 4.8: FMNE exists");
        for user in 0..game.users() {
            for link in 0..m {
                prop_assert!((fmne.prob(user, link) - 1.0 / m as f64).abs() < 1e-9);
            }
        }
    }

    /// Pure equilibria, viewed as degenerate mixed profiles, satisfy the mixed
    /// Nash predicate too.
    #[test]
    fn pure_equilibria_are_mixed_equilibria(game in general_game(2usize..=4, Just(2))) {
        let tol = Tolerance::default();
        let initial = LinkLoads::zero(2);
        for ne in all_pure_nash(&game, &initial, tol, 1_000_000).unwrap() {
            let mixed = MixedProfile::from_pure(&ne, 2);
            prop_assert!(is_mixed_nash(&game, &mixed, tol));
        }
    }

    /// Profile encode/decode round-trips for every code below `mⁿ`.
    #[test]
    fn encode_decode_round_trip(n in 1usize..=5, m in 2usize..=4, raw in any::<u32>()) {
        let total = profile_count(n, m) as usize;
        let code = raw as usize % total;
        let profile = decode(code, n, m);
        prop_assert_eq!(encode(&profile, m), code);
        prop_assert_eq!(profile.users(), n);
        prop_assert!(profile.choices().iter().all(|&l| l < m));
    }
}
