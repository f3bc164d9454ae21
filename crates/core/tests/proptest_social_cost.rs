//! Property-based tests for social costs, social optima, the coordination
//! ratio and the worst-case role of the fully mixed equilibrium.

use proptest::prelude::*;

use netuncert_core::fully_mixed::fully_mixed_nash;
use netuncert_core::latency::{mixed_min_latencies, pure_user_latency};
use netuncert_core::model::EffectiveGame;
use netuncert_core::numeric::{stable_sum, Tolerance};
use netuncert_core::opt::OptEngine;
use netuncert_core::social_cost::{
    cr_bound_general, cr_bound_uniform_beliefs, measure, measure_bracketed, pure_sc1, pure_sc2,
    sc1, sc2,
};
use netuncert_core::solvers::exhaustive::{all_pure_nash, social_optimum};
use netuncert_core::strategy::{LinkLoads, MixedProfile, PureProfile};

fn weight() -> impl Strategy<Value = f64> {
    0.25f64..3.0
}

fn capacity() -> impl Strategy<Value = f64> {
    0.5f64..3.0
}

fn general_game(max_users: usize, max_links: usize) -> impl Strategy<Value = EffectiveGame> {
    (2usize..=max_users, 2usize..=max_links).prop_flat_map(|(n, m)| {
        let weights = proptest::collection::vec(weight(), n);
        let rows = proptest::collection::vec(proptest::collection::vec(capacity(), m), n);
        (weights, rows).prop_map(|(w, rows)| EffectiveGame::from_rows(w, rows).expect("valid"))
    })
}

fn uniform_beliefs_game(
    max_users: usize,
    max_links: usize,
) -> impl Strategy<Value = EffectiveGame> {
    (2usize..=max_users, 2usize..=max_links).prop_flat_map(|(n, m)| {
        let weights = proptest::collection::vec(weight(), n);
        let caps = proptest::collection::vec(capacity(), n);
        (weights, caps).prop_map(move |(w, c)| {
            let rows = c.into_iter().map(|ci| vec![ci; m]).collect();
            EffectiveGame::from_rows(w, rows).expect("valid")
        })
    })
}

/// A game of `2..=max_users` users (the smallest game the model admits) on
/// `2..=max_links` links, initial loads that are zero on about a third of
/// the links, and a pure profile that leaves links `span..m` empty for a
/// random `span ≥ 1` (with `span = 1` every user shares link 0).
fn loaded_profile(
    max_users: usize,
    max_links: usize,
) -> impl Strategy<Value = (EffectiveGame, LinkLoads, PureProfile)> {
    (2usize..=max_users, 2usize..=max_links).prop_flat_map(|(n, m)| {
        let weights = proptest::collection::vec(weight(), n);
        let rows = proptest::collection::vec(proptest::collection::vec(capacity(), m), n);
        let loads = proptest::collection::vec((0u32..3, 0.0f64..4.0), m);
        let choices =
            (1usize..=m).prop_flat_map(move |span| proptest::collection::vec(0usize..span, n));
        (weights, rows, loads, choices).prop_map(|(w, rows, loads, choices)| {
            let game = EffectiveGame::from_rows(w, rows).expect("valid");
            let t = loads
                .into_iter()
                .map(|(zero, load)| if zero == 0 { 0.0 } else { load })
                .collect();
            (
                game,
                LinkLoads::new(t).expect("valid"),
                PureProfile::new(choices),
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The one-pass pure costs are bit-identical to the sum and the max of
    /// the per-user latencies, which each scan every user for their load.
    #[test]
    fn pure_costs_match_the_per_user_oracle_bit_for_bit(
        (game, t, profile) in loaded_profile(9, 5)
    ) {
        let latencies: Vec<f64> = (0..game.users())
            .map(|i| pure_user_latency(&game, &profile, &t, i))
            .collect();
        let max = latencies.iter().copied().fold(f64::MIN, f64::max);
        prop_assert_eq!(pure_sc1(&game, &profile, &t).to_bits(), stable_sum(&latencies).to_bits());
        prop_assert_eq!(pure_sc2(&game, &profile, &t).to_bits(), max.to_bits());
    }

    /// The measure paths price a profile on top of the initial traffic: a
    /// pure equilibrium under `t` reports its own pure costs, and never
    /// beats the optimum computed under the same `t`. With `t = 0` the
    /// reported costs are exactly `sc1`/`sc2`.
    #[test]
    fn measured_equilibria_under_initial_traffic_cost_their_pure_costs(
        (game, t, _profile) in loaded_profile(4, 3)
    ) {
        let tol = Tolerance::default();
        let engine = OptEngine::default();
        for ne in all_pure_nash(&game, &t, tol, 1_000_000).unwrap() {
            let mixed = MixedProfile::from_pure(&ne, game.links());
            let report = measure(&game, &mixed, &t, 1_000_000).unwrap();
            prop_assert!(tol.eq(report.sc1, pure_sc1(&game, &ne, &t)),
                "sc1 {} vs pure {}", report.sc1, pure_sc1(&game, &ne, &t));
            prop_assert!(tol.eq(report.sc2, pure_sc2(&game, &ne, &t)),
                "sc2 {} vs pure {}", report.sc2, pure_sc2(&game, &ne, &t));
            prop_assert!(report.cr1 >= 1.0 - 1e-9 && report.cr2 >= 1.0 - 1e-9);
            let bracketed = measure_bracketed(&game, &mixed, &t, &engine).unwrap();
            prop_assert_eq!(bracketed.sc1.to_bits(), report.sc1.to_bits());
            prop_assert_eq!(bracketed.sc2.to_bits(), report.sc2.to_bits());

            let zero = LinkLoads::zero(game.links());
            let unloaded = measure(&game, &mixed, &zero, 1_000_000).unwrap();
            prop_assert_eq!(unloaded.sc1.to_bits(), sc1(&game, &mixed).to_bits());
            prop_assert_eq!(unloaded.sc2.to_bits(), sc2(&game, &mixed).to_bits());
        }
    }

    /// Basic sandwich relations: SC2 ≤ SC1 ≤ n·SC2, for mixed and pure costs.
    #[test]
    fn social_cost_sandwich(game in general_game(5, 4)) {
        let n = game.users() as f64;
        let uniform = MixedProfile::uniform(game.users(), game.links());
        let s1 = sc1(&game, &uniform);
        let s2 = sc2(&game, &uniform);
        prop_assert!(s2 <= s1 + 1e-9);
        prop_assert!(s1 <= n * s2 + 1e-9);

        let t = LinkLoads::zero(game.links());
        let pure = netuncert_core::strategy::PureProfile::all_on(game.users(), 0);
        prop_assert!(pure_sc2(&game, &pure, &t) <= pure_sc1(&game, &pure, &t) + 1e-9);
    }

    /// The social optimum is a lower bound on the cost of every pure profile,
    /// and the optimum profiles attain their reported values.
    #[test]
    fn optimum_is_a_lower_bound(game in general_game(4, 3), seed in 0usize..500) {
        let t = LinkLoads::zero(game.links());
        let opt = social_optimum(&game, &t, 1_000_000).unwrap();
        let n = game.users();
        let m = game.links();
        let profile = netuncert_core::strategy::PureProfile::new(
            (0..n).map(|i| (seed * 7 + i * 3) % m).collect());
        prop_assert!(opt.opt1 <= pure_sc1(&game, &profile, &t) + 1e-9);
        prop_assert!(opt.opt2 <= pure_sc2(&game, &profile, &t) + 1e-9);
        prop_assert!((pure_sc1(&game, &opt.opt1_profile, &t) - opt.opt1).abs() < 1e-9);
        prop_assert!((pure_sc2(&game, &opt.opt2_profile, &t) - opt.opt2).abs() < 1e-9);
    }

    /// Every Nash equilibrium respects the Theorem 4.14 bound; uniform-belief
    /// games additionally respect the Theorem 4.13 bound, and both ratios are
    /// at least one for pure equilibria.
    #[test]
    fn coordination_ratio_bounds_hold(game in general_game(4, 3)) {
        let tol = Tolerance::default();
        let t = LinkLoads::zero(game.links());
        let bound = cr_bound_general(&game);
        for ne in all_pure_nash(&game, &t, tol, 1_000_000).unwrap() {
            let mixed = MixedProfile::from_pure(&ne, game.links());
            let report = measure(&game, &mixed, &t, 1_000_000).unwrap();
            prop_assert!(report.cr1 >= 1.0 - 1e-9);
            prop_assert!(report.cr2 >= 1.0 - 1e-9);
            prop_assert!(report.cr1 <= bound + 1e-6, "CR1 {} > bound {}", report.cr1, bound);
            prop_assert!(report.cr2 <= bound + 1e-6, "CR2 {} > bound {}", report.cr2, bound);
        }
        if let Some(fmne) = fully_mixed_nash(&game, tol) {
            let report = measure(&game, &fmne, &t, 1_000_000).unwrap();
            prop_assert!(report.cr1 <= bound + 1e-6);
            prop_assert!(report.cr2 <= bound + 1e-6);
        }
    }

    /// Theorem 4.13 bound for the uniform-beliefs model.
    #[test]
    fn uniform_beliefs_bound_holds(game in uniform_beliefs_game(4, 3)) {
        let tol = Tolerance::default();
        let t = LinkLoads::zero(game.links());
        let bound = cr_bound_uniform_beliefs(&game);
        for ne in all_pure_nash(&game, &t, tol, 1_000_000).unwrap() {
            let mixed = MixedProfile::from_pure(&ne, game.links());
            let report = measure(&game, &mixed, &t, 1_000_000).unwrap();
            prop_assert!(report.cr1 <= bound + 1e-6);
            prop_assert!(report.cr2 <= bound + 1e-6);
        }
        let fmne = fully_mixed_nash(&game, tol).expect("uniform beliefs: FMNE exists");
        let report = measure(&game, &fmne, &t, 1_000_000).unwrap();
        prop_assert!(report.cr1 <= bound + 1e-6);
        prop_assert!(report.cr2 <= bound + 1e-6);
    }

    /// Lemma 4.9 / Theorems 4.11–4.12: whenever the fully mixed equilibrium
    /// exists it weakly dominates every pure equilibrium user-by-user, hence
    /// in both social costs.
    #[test]
    fn fully_mixed_equilibrium_is_worst(game in general_game(4, 3)) {
        let tol = Tolerance::default();
        let loose = Tolerance::new(1e-7);
        let t = LinkLoads::zero(game.links());
        if let Some(fmne) = fully_mixed_nash(&game, tol) {
            let fmne_lat = mixed_min_latencies(&game, &fmne);
            let fmne_sc1 = sc1(&game, &fmne);
            let fmne_sc2 = sc2(&game, &fmne);
            for ne in all_pure_nash(&game, &t, tol, 1_000_000).unwrap() {
                let mixed = MixedProfile::from_pure(&ne, game.links());
                let lat = mixed_min_latencies(&game, &mixed);
                for user in 0..game.users() {
                    prop_assert!(loose.leq(lat[user], fmne_lat[user]),
                        "user {user}: pure {} > fmne {}", lat[user], fmne_lat[user]);
                }
                prop_assert!(loose.leq(sc1(&game, &mixed), fmne_sc1));
                prop_assert!(loose.leq(sc2(&game, &mixed), fmne_sc2));
            }
        }
    }

    /// The closed-form bounds are scale-free in the weights: multiplying all
    /// traffics by a constant leaves both bounds unchanged.
    #[test]
    fn bounds_do_not_depend_on_traffic_scale(game in general_game(4, 3), scale in 0.5f64..4.0) {
        let scaled = EffectiveGame::from_rows(
            game.weights().iter().map(|w| w * scale).collect(),
            (0..game.users()).map(|i| game.capacities().row(i).to_vec()).collect(),
        ).unwrap();
        prop_assert!((cr_bound_general(&game) - cr_bound_general(&scaled)).abs() < 1e-9);
        prop_assert!(
            (cr_bound_uniform_beliefs(&game) - cr_bound_uniform_beliefs(&scaled)).abs() < 1e-9
        );
    }
}
