//! Cross-crate integration tests for the pure-NE algorithms: every algorithm
//! is validated against the exhaustive reference on randomly generated games.

use instance_gen::{rng, CapacityDist, EffectiveSpec, WeightDist};
use netuncert_core::algorithms::{best_response, symmetric, two_links, uniform};
use netuncert_core::prelude::*;
use netuncert_core::solvers::exhaustive::all_pure_nash;

const SEEDS: u64 = 25;

#[test]
fn two_links_algorithm_agrees_with_exhaustive_enumeration() {
    let tol = Tolerance::default();
    for seed in 0..SEEDS {
        let spec = EffectiveSpec::General {
            users: 5,
            links: 2,
            capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        };
        let game = spec.generate(&mut rng(seed, 10));
        let t = LinkLoads::zero(2);
        let profile = two_links::solve(&game, &t).expect("solver succeeds");
        assert!(is_pure_nash(&game, &profile, &t, tol), "seed {seed}");
        // The returned equilibrium is one of the exhaustively found equilibria.
        let all = all_pure_nash(&game, &t, tol, 1_000_000).unwrap();
        assert!(
            all.contains(&profile),
            "seed {seed}: solver equilibrium not in reference set"
        );
    }
}

#[test]
fn two_links_algorithm_handles_initial_traffic() {
    let tol = Tolerance::default();
    for seed in 0..SEEDS {
        let spec = EffectiveSpec::General {
            users: 4,
            links: 2,
            capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        };
        let game = spec.generate(&mut rng(seed, 11));
        let mut r = rng(seed, 12);
        let t = LinkLoads::new(vec![
            rand::Rng::gen_range(&mut r, 0.0..3.0),
            rand::Rng::gen_range(&mut r, 0.0..3.0),
        ])
        .unwrap();
        let profile = two_links::solve(&game, &t).expect("solver succeeds");
        assert!(is_pure_nash(&game, &profile, &t, tol), "seed {seed}");
    }
}

#[test]
fn symmetric_algorithm_agrees_with_exhaustive_enumeration() {
    let tol = Tolerance::default();
    for seed in 0..SEEDS {
        let spec = EffectiveSpec::General {
            users: 4,
            links: 3,
            capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
            weights: WeightDist::Identical(2.0),
        };
        let game = spec.generate(&mut rng(seed, 13));
        let t = LinkLoads::zero(3);
        let profile = symmetric::solve(&game, tol).expect("solver succeeds");
        assert!(is_pure_nash(&game, &profile, &t, tol), "seed {seed}");
        let all = all_pure_nash(&game, &t, tol, 1_000_000).unwrap();
        assert!(all.contains(&profile), "seed {seed}");
    }
}

#[test]
fn uniform_beliefs_algorithm_agrees_with_exhaustive_enumeration() {
    let tol = Tolerance::default();
    for seed in 0..SEEDS {
        let spec = EffectiveSpec::UniformPerUser {
            users: 5,
            links: 3,
            capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        };
        let game = spec.generate(&mut rng(seed, 14));
        let t = LinkLoads::zero(3);
        let profile = uniform::solve(&game, &t, tol).expect("solver succeeds");
        assert!(is_pure_nash(&game, &profile, &t, tol), "seed {seed}");
        let all = all_pure_nash(&game, &t, tol, 1_000_000).unwrap();
        assert!(all.contains(&profile), "seed {seed}");
    }
}

#[test]
fn best_response_dynamics_converge_on_random_general_games() {
    let tol = Tolerance::default();
    for seed in 0..SEEDS {
        let spec = EffectiveSpec::General {
            users: 5,
            links: 4,
            capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        };
        let game = spec.generate(&mut rng(seed, 15));
        let t = LinkLoads::zero(4);
        let dynamics = best_response::BestResponseDynamics::default();
        let outcome = dynamics.run_from_greedy(&game, &t, tol);
        assert!(
            outcome.converged(),
            "seed {seed}: dynamics did not converge"
        );
        assert!(is_pure_nash(&game, outcome.profile(), &t, tol));
    }
}

#[test]
fn dispatcher_always_finds_an_equilibrium_and_labels_the_method() {
    let tol = Tolerance::default();
    for seed in 0..SEEDS {
        for (users, links, spec) in [
            (
                4,
                2,
                EffectiveSpec::General {
                    users: 4,
                    links: 2,
                    capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
                    weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
                },
            ),
            (
                4,
                3,
                EffectiveSpec::General {
                    users: 4,
                    links: 3,
                    capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
                    weights: WeightDist::Identical(1.0),
                },
            ),
            (
                4,
                3,
                EffectiveSpec::UniformPerUser {
                    users: 4,
                    links: 3,
                    capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
                    weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
                },
            ),
        ] {
            let game = spec.generate(&mut rng(seed, 16));
            let t = LinkLoads::zero(links);
            let sol = SolverEngine::paper_order(SolverConfig::with_tol(tol))
                .solve(&game, &t)
                .unwrap()
                .solution
                .expect("found");
            assert!(is_pure_nash(&game, &sol.profile, &t, tol));
            assert_eq!(sol.profile.users(), users);
            match (links, &spec) {
                (2, _) => assert_eq!(sol.method, PureNashMethod::TwoLinks),
                (_, EffectiveSpec::UniformPerUser { .. }) => {
                    assert_eq!(sol.method, PureNashMethod::UniformBeliefs)
                }
                _ => {}
            }
        }
    }
}

#[test]
fn fully_mixed_equilibria_verify_on_random_games_when_feasible() {
    let tol = Tolerance::default();
    let mut found = 0;
    for seed in 0..SEEDS {
        let spec = EffectiveSpec::General {
            users: 4,
            links: 3,
            capacity: CapacityDist::Uniform { lo: 0.75, hi: 1.5 },
            weights: WeightDist::Uniform { lo: 0.75, hi: 1.5 },
        };
        let game = spec.generate(&mut rng(seed, 17));
        if let Some(fmne) = fully_mixed_nash(&game, tol) {
            found += 1;
            assert!(is_fully_mixed_nash(&game, &fmne, tol), "seed {seed}");
        }
    }
    assert!(
        found > 0,
        "mild instances should frequently admit a fully mixed NE"
    );
}
