//! The Milchtaich-style non-existence counterexample and the embedding of the
//! paper's belief-induced games into the user-specific class.
//!
//! Milchtaich (1996) showed that *weighted* singleton congestion games with
//! player-specific cost functions need not possess a pure Nash equilibrium,
//! exhibiting a three-player, three-resource counterexample. The paper under
//! reproduction observes that this counterexample does **not** carry over to
//! belief-induced games (whose cost functions are the linear `load / cᵢˡ`
//! shape): every three-user game of the paper's model has a pure equilibrium.
//!
//! This module provides:
//!
//! * [`counterexample`] — a concrete three-player, three-resource weighted
//!   user-specific game with **no** pure Nash equilibrium (found by randomised
//!   search over monotone step costs and fixed here as a constant instance);
//! * [`search_counterexample`] — the search routine itself, so further
//!   counterexamples can be generated deterministically from a seed;
//! * [`from_effective_game`] — the embedding of a belief-induced
//!   [`EffectiveGame`] into
//!   [`UserSpecificGame`], witnessing that the paper's model is an instance of
//!   the user-specific class.

use netuncert_core::model::EffectiveGame;

use crate::cost::CostFunction;
use crate::user_specific::UserSpecificGame;

/// A fixed three-player, three-resource weighted user-specific game with no
/// pure Nash equilibrium.
///
/// Player weights are `(1, 2, 4)`; every cost function is a monotone step
/// function of the resource load. The instance was produced by
/// [`search_counterexample`] and is verified to have no pure equilibrium by
/// the crate's tests (all 27 profiles admit a profitable deviation).
pub fn counterexample() -> UserSpecificGame {
    let step = |values: &[(f64, f64)]| CostFunction::step(values[0].1, values.to_vec());
    UserSpecificGame::new(
        vec![1.0, 2.0, 4.0],
        vec![
            vec![
                step(&[(1.0, 1.778), (3.0, 1.875), (5.0, 4.408), (7.0, 5.894)]),
                step(&[(1.0, 2.220), (3.0, 3.671), (5.0, 5.949), (7.0, 8.088)]),
                step(&[(1.0, 0.103), (3.0, 1.045), (5.0, 3.675), (7.0, 6.333)]),
            ],
            vec![
                step(&[(2.0, 0.225), (3.0, 1.509), (6.0, 2.668), (7.0, 3.333)]),
                step(&[(2.0, 1.188), (3.0, 3.340), (6.0, 3.509), (7.0, 6.401)]),
                step(&[(2.0, 0.081), (3.0, 0.615), (6.0, 1.036), (7.0, 3.590)]),
            ],
            vec![
                step(&[(4.0, 1.844), (5.0, 4.398), (6.0, 6.859), (7.0, 8.113)]),
                step(&[(4.0, 1.623), (5.0, 2.447), (6.0, 5.098), (7.0, 5.302)]),
                step(&[(4.0, 1.316), (5.0, 1.348), (6.0, 4.238), (7.0, 7.023)]),
            ],
        ],
    )
}

/// A tiny deterministic pseudo-random generator (64-bit LCG), sufficient for
/// the counterexample search and free of external dependencies.
#[derive(Debug, Clone)]
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() % 1_000_000) as f64 / 1_000_000.0
    }
}

/// Searches for a weighted user-specific game with the given player weights
/// and `weights.len()` resources that possesses **no** pure Nash equilibrium.
///
/// Candidate games draw independent monotone step costs over the achievable
/// loads. Returns the first hit within `attempts` samples, or `None`.
/// The search is deterministic in `seed`.
pub fn search_counterexample(
    seed: u64,
    attempts: usize,
    weights: &[f64],
) -> Option<UserSpecificGame> {
    assert!(weights.len() >= 2, "need at least two players");
    let players = weights.len();
    let resources = players;
    let mut rng = Lcg::new(seed);

    // Achievable loads a player can observe on its own resource: sums of
    // subsets of the other players' weights plus its own weight.
    let player_loads: Vec<Vec<f64>> = (0..players)
        .map(|i| {
            let others: Vec<f64> = (0..players)
                .filter(|&j| j != i)
                .map(|j| weights[j])
                .collect();
            let mut sums = vec![weights[i]];
            for &w in &others {
                let mut extended: Vec<f64> = sums.iter().map(|s| s + w).collect();
                sums.append(&mut extended);
            }
            sums.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            sums.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
            sums
        })
        .collect();

    for _ in 0..attempts {
        let mut costs = Vec::with_capacity(players);
        for loads in player_loads.iter().take(players) {
            let mut row = Vec::with_capacity(resources);
            for _ in 0..resources {
                let mut value = 0.0;
                let steps: Vec<(f64, f64)> = loads
                    .iter()
                    .map(|&l| {
                        value += rng.next_f64() * 3.0;
                        (l, value)
                    })
                    .collect();
                row.push(CostFunction::step(steps[0].1, steps));
            }
            costs.push(row);
        }
        let game = UserSpecificGame::new(weights.to_vec(), costs);
        if !game.has_pure_nash() {
            return Some(game);
        }
    }
    None
}

/// Embeds a belief-induced effective game into the user-specific class:
/// player `i`'s cost on resource `ℓ` is the linear function `load / cᵢˡ`.
///
/// The embedding is exact — loads, costs, improving deviations and pure Nash
/// equilibria coincide with those of the original game (with zero initial
/// traffic).
pub fn from_effective_game(game: &EffectiveGame) -> UserSpecificGame {
    let costs = (0..game.users())
        .map(|i| {
            (0..game.links())
                .map(|l| CostFunction::linear(game.capacity(i, l)))
                .collect()
        })
        .collect();
    UserSpecificGame::new(game.weights().to_vec(), costs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counterexample_has_no_pure_nash() {
        let game = counterexample();
        assert_eq!(game.players(), 3);
        assert_eq!(game.resources(), 3);
        assert!(
            !game.has_pure_nash(),
            "the fixed counterexample must have no pure NE"
        );
        assert!(game.all_pure_nash().is_empty());
    }

    #[test]
    fn counterexample_best_response_dynamics_cycle_forever() {
        let game = counterexample();
        // From any starting profile the dynamics never converge and a
        // best-response cycle is reachable.
        for start in [vec![0, 0, 0], vec![1, 2, 0], vec![2, 2, 2]] {
            let (_, converged, steps) = game.best_response_dynamics(start.clone(), 1_000);
            assert!(!converged, "dynamics unexpectedly converged from {start:?}");
            assert_eq!(steps, 1_000);
            assert!(game.find_best_response_cycle(start).is_some());
        }
    }

    #[test]
    fn counterexample_costs_are_monotone() {
        let game = counterexample();
        let loads = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        for p in 0..3 {
            for r in 0..3 {
                assert!(game.cost_function(p, r).is_monotone_on(&loads));
            }
        }
    }

    #[test]
    fn search_is_deterministic_and_any_hit_is_a_valid_counterexample() {
        let first = search_counterexample(7, 100_000, &[1.0, 2.0, 4.0]);
        let second = search_counterexample(7, 100_000, &[1.0, 2.0, 4.0]);
        assert_eq!(
            first.is_some(),
            second.is_some(),
            "search must be repeatable"
        );
        if let (Some(a), Some(b)) = (first, second) {
            assert_eq!(a, b, "same seed must yield the same instance");
            assert!(!a.has_pure_nash());
        }
    }

    #[test]
    fn belief_induced_three_player_games_embed_and_keep_their_equilibria() {
        // A generic 3-user, 3-link effective game: the embedding must preserve
        // costs and pure Nash equilibria (and, per the paper, have at least one).
        let eg = EffectiveGame::from_rows(
            vec![1.0, 2.0, 4.0],
            vec![
                vec![2.0, 1.0, 3.0],
                vec![1.0, 2.0, 0.5],
                vec![3.0, 1.0, 1.0],
            ],
        )
        .unwrap();
        let usg = from_effective_game(&eg);
        assert_eq!(usg.players(), 3);

        use netuncert_core::prelude::*;
        let t = LinkLoads::zero(3);
        let tol = Tolerance::default();
        let core_nash = all_pure_nash(&eg, &t, tol, 100_000).unwrap();
        assert!(
            !core_nash.is_empty(),
            "paper: 3-user belief games always have a pure NE"
        );
        let embedded_nash = usg.all_pure_nash();
        let embedded_as_vecs: Vec<Vec<usize>> =
            core_nash.iter().map(|p| p.choices().to_vec()).collect();
        assert_eq!(embedded_nash, embedded_as_vecs);

        // Spot-check that costs agree on a profile.
        let profile = vec![0usize, 1, 2];
        let pure = PureProfile::new(profile.clone());
        for user in 0..3 {
            let a = usg.player_cost(&profile, user);
            let b = pure_user_latency(&eg, &pure, &t, user);
            assert!((a - b).abs() < 1e-12);
        }
    }
}
