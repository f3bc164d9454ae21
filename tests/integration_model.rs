//! Cross-crate integration tests for the model layer: generated belief games,
//! their effective reduction, and the latency/equilibrium machinery.

use instance_gen::{rng, BeliefKind, CapacityDist, GameSpec, WeightDist};
use netuncert_core::latency::{expected_pure_latency_full, pure_user_latency};
use netuncert_core::prelude::*;
use netuncert_core::solvers::exhaustive::for_each_profile;

fn spec(users: usize, links: usize, beliefs: BeliefKind) -> GameSpec {
    GameSpec {
        users,
        links,
        states: 5,
        weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        capacities: CapacityDist::Uniform { lo: 0.5, hi: 4.0 },
        beliefs,
    }
}

#[test]
fn effective_reduction_is_exact_on_generated_games() {
    // For random generated games, the expected latency computed by explicit
    // expectation over states equals the effective-capacity latency, for every
    // user and every pure profile.
    for seed in 0..20 {
        let game = spec(3, 3, BeliefKind::IndependentRandom).generate(&mut rng(seed, 0));
        let eg = game.effective_game();
        let t = LinkLoads::zero(3);
        for_each_profile(3, 3, |profile| {
            for user in 0..3 {
                let explicit = expected_pure_latency_full(&game, profile, user);
                let reduced = pure_user_latency(&eg, profile, &t, user);
                assert!(
                    (explicit - reduced).abs() < 1e-9,
                    "seed {seed}, profile {:?}, user {user}: {explicit} vs {reduced}",
                    profile.choices()
                );
            }
        });
    }
}

#[test]
fn generated_point_mass_games_are_kp_instances() {
    let tol = Tolerance::default();
    for seed in 0..10 {
        let game = spec(4, 3, BeliefKind::CompleteInformation).generate(&mut rng(seed, 1));
        assert!(game.is_kp_instance(tol));
        assert!(game.effective_game().is_kp_instance(tol));
    }
}

#[test]
fn common_uniform_beliefs_make_users_agree_but_not_links() {
    let tol = Tolerance::default();
    for seed in 0..10 {
        let game = spec(4, 3, BeliefKind::CommonUniform).generate(&mut rng(seed, 2));
        let eg = game.effective_game();
        // All users share the same row (they hold the same belief)...
        let first = eg.capacities().row(0).to_vec();
        for u in 1..eg.users() {
            for (l, &c) in first.iter().enumerate() {
                assert!((eg.capacity(u, l) - c).abs() < 1e-12);
            }
        }
        // ...which makes it a KP instance even though the capacities differ by link.
        assert!(eg.is_kp_instance(tol));
    }
}

#[test]
fn mixed_profile_latencies_are_consistent_with_pure_unilateral_moves() {
    // For the degenerate mixed profile of a pure profile, the mixed latency of
    // user i on link l equals the pure latency i would experience moving to l.
    for seed in 0..10 {
        let game = spec(4, 3, BeliefKind::IndependentRandom).generate(&mut rng(seed, 3));
        let eg = game.effective_game();
        let t = LinkLoads::zero(3);
        let profile = PureProfile::new(vec![0, 1, 2, 0]);
        let mixed = MixedProfile::from_pure(&profile, 3);
        for user in 0..4 {
            for link in 0..3 {
                let mixed_lat = mixed_link_latency(&eg, &mixed, user, link);
                let pure_lat = netuncert_core::latency::pure_user_latency_on_link(
                    &eg, &profile, &t, user, link,
                );
                assert!((mixed_lat - pure_lat).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn nash_equilibria_survive_the_round_trip_through_serde() {
    let game = spec(3, 2, BeliefKind::IndependentRandom).generate(&mut rng(7, 4));
    let eg = game.effective_game();
    let tol = Tolerance::default();
    let t = LinkLoads::zero(2);

    // JSON text keeps ~16 significant digits, so compare field-wise with a
    // tight tolerance rather than bit-exactly.
    let json = serde_json::to_string(&eg).expect("serialise");
    let back: EffectiveGame = serde_json::from_str(&json).expect("deserialise");
    assert_eq!(back.users(), eg.users());
    assert_eq!(back.links(), eg.links());
    for user in 0..eg.users() {
        assert!((back.weight(user) - eg.weight(user)).abs() < 1e-12);
        for link in 0..eg.links() {
            assert!((back.capacity(user, link) - eg.capacity(user, link)).abs() < 1e-12);
        }
    }

    let ne = SolverEngine::paper_order(SolverConfig::with_tol(tol))
        .solve(&eg, &t)
        .unwrap()
        .solution
        .unwrap();
    assert!(is_pure_nash(&back, &ne.profile, &t, tol));

    let full_json = serde_json::to_string(&game).expect("serialise full game");
    let full_back: Game = serde_json::from_str(&full_json).expect("deserialise full game");
    assert_eq!(full_back.users(), game.users());
    assert_eq!(full_back.links(), game.links());
    assert_eq!(full_back.states().len(), game.states().len());
}

/// Deserialization goes through the validating constructors: a payload the
/// constructors reject is an error, never a game that panics on first use.
/// Serialized bytes are unchanged.
#[test]
fn deserialization_validates_like_construction() {
    let rejected = [
        // Three entries for a 2 × 2 matrix (and a negative weight).
        r#"{"weights":[-1.0,1.0],"capacities":{"users":2,"links":2,"data":[1.0,1.0,1.0]}}"#,
        r#"{"weights":[1.0,1.0],"capacities":{"users":2,"links":2,"data":[1.0,1.0,1.0]}}"#,
        r#"{"weights":[-1.0,1.0],"capacities":{"users":2,"links":2,"data":[1.0,1.0,1.0,1.0]}}"#,
        r#"{"weights":[1.0,1.0],"capacities":{"users":2,"links":2,"data":[1.0,0.0,1.0,1.0]}}"#,
        r#"{"weights":[1.0,1.0,1.0],"capacities":{"users":2,"links":2,"data":[1.0,1.0,1.0,1.0]}}"#,
        r#"{"weights":[1.0],"capacities":{"users":1,"links":2,"data":[1.0,1.0]}}"#,
        r#"{"weights":[1.0,1.0],"capacities":{"users":2,"links":2}}"#,
    ];
    for json in rejected {
        assert!(
            serde_json::from_str::<EffectiveGame>(json).is_err(),
            "{json} must be rejected"
        );
    }
    assert!(serde_json::from_str::<EffectiveCapacities>(
        r#"{"users":2,"links":2,"data":[1.0,1.0,1.0]}"#
    )
    .is_err());

    let json =
        r#"{"weights":[1.5,2.0],"capacities":{"users":2,"links":2,"data":[1.0,2.0,3.0,4.5]}}"#;
    let game: EffectiveGame = serde_json::from_str(json).expect("a valid game deserializes");
    assert_eq!(
        game,
        EffectiveGame::from_rows(vec![1.5, 2.0], vec![vec![1.0, 2.0], vec![3.0, 4.5]]).unwrap()
    );
    assert_eq!(serde_json::to_string(&game).unwrap(), json);
}

#[test]
fn social_costs_relate_sensibly_on_generated_games() {
    // SC2 ≤ SC1 ≤ n · SC2 for any profile, and OPT obeys the same sandwich.
    for seed in 0..10 {
        let game = spec(4, 3, BeliefKind::IndependentRandom).generate(&mut rng(seed, 5));
        let eg = game.effective_game();
        let t = LinkLoads::zero(3);
        let profile = MixedProfile::uniform(4, 3);
        let s1 = sc1(&eg, &profile);
        let s2 = sc2(&eg, &profile);
        assert!(s2 <= s1 + 1e-12);
        assert!(s1 <= 4.0 * s2 + 1e-12);
        let opt = social_optimum(&eg, &t, 1_000_000).unwrap();
        assert!(opt.opt2 <= opt.opt1 + 1e-12);
        assert!(opt.opt1 <= 4.0 * opt.opt2 + 1e-12);
    }
}
