//! Integration tests tying the baseline substrates (KP model, congestion
//! games, the Milchtaich counterexample) to the core uncertainty model.

use congestion_games::milchtaich::{counterexample, from_effective_game, search_counterexample};
use congestion_games::rosenthal::CongestionGame;
use instance_gen::kp::KpSpec;
use instance_gen::{rng, CapacityDist, EffectiveSpec, WeightDist};
use kp_model::lpt::{is_kp_pure_nash, lpt_assignment, nashify};
use kp_model::social::{coordination_ratio, expected_max_congestion, social_optimum};
use kp_model::KpGame;
use netuncert_core::prelude::*;

#[test]
fn kp_baseline_and_core_model_agree_on_complete_information_games() {
    let tol = Tolerance::default();
    for seed in 0..20 {
        let kp = KpSpec::related(5, 3).generate(&mut rng(seed, 20));
        let eg = kp.to_effective_game();
        let t = LinkLoads::zero(3);

        // LPT equilibrium of the KP game is an equilibrium of the model.
        let lpt = lpt_assignment(&kp);
        assert!(is_pure_nash(&eg, &lpt, &t, tol), "seed {seed}");

        // The model's dispatcher finds an equilibrium of the KP game.
        let sol = SolverEngine::paper_order(SolverConfig::with_tol(tol))
            .solve(&eg, &t)
            .unwrap()
            .solution
            .expect("found");
        assert!(is_kp_pure_nash(&kp, &sol.profile), "seed {seed}");
    }
}

#[test]
fn nashification_of_bad_profiles_never_fails_on_kp_games() {
    for seed in 0..10 {
        let kp = KpSpec::identical(6, 3).generate(&mut rng(seed, 21));
        let bad = PureProfile::all_on(6, 0);
        let (fixed, _steps) = nashify(&kp, bad, 100_000);
        assert!(is_kp_pure_nash(&kp, &fixed), "seed {seed}");
    }
}

#[test]
fn kp_social_cost_machinery_is_consistent() {
    let kp = KpGame::identical(3, 2).unwrap();
    let (opt, opt_profile) = social_optimum(&kp, 1_000_000).unwrap();
    // Three unit users on two unit links: optimum makespan is 2.
    assert!((opt - 2.0).abs() < 1e-12);
    let opt_mixed = MixedProfile::from_pure(&opt_profile, 2);
    let sc = expected_max_congestion(&kp, &opt_mixed, 1_000_000).unwrap();
    assert!((sc - opt).abs() < 1e-12);
    assert!((coordination_ratio(&kp, &opt_mixed, 1_000_000).unwrap() - 1.0).abs() < 1e-12);

    // The fully mixed equilibrium (probabilities 1/m by Theorem 4.8 /
    // the classical KP result) costs strictly more.
    let eg = kp.to_effective_game();
    let fmne = fully_mixed_nash(&eg, Tolerance::default()).unwrap();
    let sc_fm = expected_max_congestion(&kp, &fmne, 1_000_000).unwrap();
    assert!(sc_fm > opt + 1e-9);
}

#[test]
fn milchtaich_counterexample_is_outside_the_belief_induced_class() {
    // The counterexample has no pure NE...
    let ce = counterexample();
    assert!(!ce.has_pure_nash());
    // ...while every sampled belief-induced 3-user game, embedded in the same
    // class, has one, and the embedding preserves the equilibrium set.
    let tol = Tolerance::default();
    for seed in 0..20 {
        let spec = EffectiveSpec::General {
            users: 3,
            links: 3,
            capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        };
        let eg = spec.generate(&mut rng(seed, 22));
        let embedded = from_effective_game(&eg);
        let core: Vec<Vec<usize>> = all_pure_nash(&eg, &LinkLoads::zero(3), tol, 100_000)
            .unwrap()
            .iter()
            .map(|p| p.choices().to_vec())
            .collect();
        assert!(
            !core.is_empty(),
            "seed {seed}: 3-user belief game without pure NE"
        );
        assert_eq!(embedded.all_pure_nash(), core, "seed {seed}");
    }
}

#[test]
fn counterexample_search_finds_instances_the_model_cannot_express() {
    if let Some(found) = search_counterexample(1234, 500_000, &[1.0, 2.0, 4.0]) {
        assert!(!found.has_pure_nash());
        assert_eq!(found.players(), 3);
    }
    // Regardless of whether the bounded search hits, the fixed instance stands.
    assert!(!counterexample().has_pure_nash());
}

#[test]
fn rosenthal_games_always_converge_while_user_specific_games_may_not() {
    // Unweighted universal-cost games: Rosenthal potential guarantees convergence.
    let rosenthal = CongestionGame::new(
        4,
        vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![1.5, 2.5, 3.5, 4.5],
            vec![1.0, 1.0, 5.0, 5.0],
        ],
    );
    for start in [vec![0, 0, 0, 0], vec![2, 2, 2, 2], vec![0, 1, 2, 0]] {
        let (profile, _) = rosenthal.converge(start);
        assert!(rosenthal.is_pure_nash(&profile));
    }

    // Weighted user-specific game (the counterexample): dynamics cycle.
    let ce = counterexample();
    let (_, converged, _) = ce.best_response_dynamics(vec![0, 0, 0], 2_000);
    assert!(!converged);
}
