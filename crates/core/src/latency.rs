//! Latency cost functions (Section 2 of the paper).
//!
//! All functions operate on the reduced [`EffectiveGame`]; the per-state
//! latency of the full belief model is exposed through
//! [`expected_pure_latency_full`] and is used in tests to confirm that the
//! effective-capacity reduction is exact.

use crate::model::{EffectiveGame, Game};
use crate::numeric::{argmin, stable_sum};
use crate::strategy::{LinkLoads, MixedProfile, PureProfile};

/// Latency of user `user` in pure profile `profile` when the network is in
/// state `state` of the full game: `Σ_{k: σₖ = σᵢ} wₖ / c_φ^{σᵢ}`.
pub fn pure_latency_in_state(game: &Game, profile: &PureProfile, state: usize, user: usize) -> f64 {
    let link = profile.link(user);
    let load: f64 = (0..game.users())
        .filter(|&k| profile.link(k) == link)
        .map(|k| game.weight(k))
        .sum();
    load / game.states().capacity(state, link)
}

/// Expected latency of user `user` in pure profile `profile` under its own
/// belief, computed by explicit expectation over the state space
/// (`λ_{i,bᵢ}(σ) = Σ_φ bᵢ(φ) λ_{i,φ}(σ)`).
pub fn expected_pure_latency_full(game: &Game, profile: &PureProfile, user: usize) -> f64 {
    game.beliefs()
        .belief(user)
        .expect(|state| pure_latency_in_state(game, profile, state, user))
}

/// Expected latency `λ_{i,bᵢ}(σ)` of user `user` in pure profile `profile`,
/// on top of the initial link traffic `initial`.
///
/// Uses the effective-capacity identity:
/// `λ_{i,bᵢ}(σ) = (t^{σᵢ} + Σ_{k: σₖ = σᵢ} wₖ) / cᵢ^{σᵢ}`.
pub fn pure_user_latency(
    game: &EffectiveGame,
    profile: &PureProfile,
    initial: &LinkLoads,
    user: usize,
) -> f64 {
    let link = profile.link(user);
    let load = link_load(game, profile, initial, link);
    load / game.capacity(user, link)
}

/// Expected latency user `user` would experience if it (unilaterally) routed
/// on `link`, with every other user fixed to `profile`.
///
/// The definition-level reference, `O(n)` per query: the predicates in
/// [`crate::equilibrium`] price moves over loads summed once instead, and
/// may round differently by an ulp.
pub fn pure_user_latency_on_link(
    game: &EffectiveGame,
    profile: &PureProfile,
    initial: &LinkLoads,
    user: usize,
    link: usize,
) -> f64 {
    let mut load = initial.load(link) + game.weight(user);
    for k in 0..game.users() {
        if k != user && profile.link(k) == link {
            load += game.weight(k);
        }
    }
    load / game.capacity(user, link)
}

/// Total traffic on `link` under `profile` (initial traffic plus assigned users).
pub fn link_load(
    game: &EffectiveGame,
    profile: &PureProfile,
    initial: &LinkLoads,
    link: usize,
) -> f64 {
    let mut load = initial.load(link);
    for k in 0..game.users() {
        if profile.link(k) == link {
            load += game.weight(k);
        }
    }
    load
}

/// Expected latency `λˡ_{i,bᵢ}(P)` of user `user` on link `link` under the
/// mixed profile `P`: `((1 − pᵢˡ) wᵢ + Wˡ) / cᵢˡ`, where `Wˡ` is the expected
/// traffic on `link`.
pub fn mixed_link_latency(
    game: &EffectiveGame,
    profile: &MixedProfile,
    user: usize,
    link: usize,
) -> f64 {
    let expected = profile.expected_traffic(game);
    mixed_link_latency_with_traffic(game, profile, &expected, user, link)
}

/// As [`mixed_link_latency`], with the expected-traffic vector `Wˡ` supplied by
/// the caller (avoids recomputing it in inner loops).
pub fn mixed_link_latency_with_traffic(
    game: &EffectiveGame,
    profile: &MixedProfile,
    expected_traffic: &[f64],
    user: usize,
    link: usize,
) -> f64 {
    let w = game.weight(user);
    ((1.0 - profile.prob(user, link)) * w + expected_traffic[link]) / game.capacity(user, link)
}

/// The expected latency of user `user` on every link under `P`.
pub fn mixed_user_latencies(game: &EffectiveGame, profile: &MixedProfile, user: usize) -> Vec<f64> {
    let expected = profile.expected_traffic(game);
    (0..game.links())
        .map(|l| mixed_link_latency_with_traffic(game, profile, &expected, user, l))
        .collect()
}

/// The *minimum expected latency cost* `λ_{i,bᵢ}(P) = min_ℓ λˡ_{i,bᵢ}(P)`
/// (equation (1) in the paper), together with a minimising link.
pub fn mixed_min_latency(
    game: &EffectiveGame,
    profile: &MixedProfile,
    user: usize,
) -> (usize, f64) {
    let latencies = mixed_user_latencies(game, profile, user);
    let link = argmin(&latencies);
    (link, latencies[link])
}

/// Minimum expected latency of every user under `P` (the vector the social
/// costs SC1/SC2 are built from).
pub fn mixed_min_latencies(game: &EffectiveGame, profile: &MixedProfile) -> Vec<f64> {
    mixed_min_latencies_with_traffic(game, profile, &profile.expected_traffic(game))
}

/// As [`mixed_min_latencies`], with the per-link traffic supplied by the
/// caller (the social-cost measure paths add the initial traffic to it).
pub(crate) fn mixed_min_latencies_with_traffic(
    game: &EffectiveGame,
    profile: &MixedProfile,
    traffic: &[f64],
) -> Vec<f64> {
    (0..game.users())
        .map(|user| {
            let latencies: Vec<f64> = (0..game.links())
                .map(|l| mixed_link_latency_with_traffic(game, profile, traffic, user, l))
                .collect();
            latencies[argmin(&latencies)]
        })
        .collect()
}

/// The *expected individual latency* of user `user` under `P`: the expectation
/// of the latency on the link it actually selects,
/// `Σ_ℓ pᵢˡ · λˡ_{i,bᵢ}(P)`.
///
/// At a Nash equilibrium this coincides with [`mixed_min_latency`]; away from
/// equilibrium it is the cost the user actually pays and is used by the
/// simulation harness when reporting realised costs.
pub fn mixed_realized_latency(game: &EffectiveGame, profile: &MixedProfile, user: usize) -> f64 {
    let expected = profile.expected_traffic(game);
    let terms: Vec<f64> = (0..game.links())
        .map(|l| {
            profile.prob(user, l)
                * mixed_link_latency_with_traffic(game, profile, &expected, user, l)
        })
        .collect();
    stable_sum(&terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Belief, BeliefProfile, Game, StateSpace};

    fn effective_game() -> EffectiveGame {
        EffectiveGame::from_rows(vec![1.0, 2.0], vec![vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap()
    }

    #[test]
    fn pure_latency_uses_total_load_on_chosen_link() {
        let g = effective_game();
        let t = LinkLoads::zero(2);
        // Both users on link 0: load 3.
        let p = PureProfile::new(vec![0, 0]);
        assert!((pure_user_latency(&g, &p, &t, 0) - 3.0 / 1.0).abs() < 1e-12);
        assert!((pure_user_latency(&g, &p, &t, 1) - 3.0 / 2.0).abs() < 1e-12);
        // Separate links.
        let q = PureProfile::new(vec![0, 1]);
        assert!((pure_user_latency(&g, &q, &t, 0) - 1.0).abs() < 1e-12);
        assert!((pure_user_latency(&g, &q, &t, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn initial_traffic_is_added_to_loads() {
        let g = effective_game();
        let t = LinkLoads::new(vec![0.5, 1.0]).unwrap();
        let p = PureProfile::new(vec![0, 1]);
        assert!((pure_user_latency(&g, &p, &t, 0) - 1.5).abs() < 1e-12);
        assert!((link_load(&g, &p, &t, 1) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn hypothetical_move_latency_excludes_own_current_link() {
        let g = effective_game();
        let t = LinkLoads::zero(2);
        let p = PureProfile::new(vec![0, 0]);
        // If user 0 moved to link 1 it would be alone there: latency 1/2.
        assert!((pure_user_latency_on_link(&g, &p, &t, 0, 1) - 0.5).abs() < 1e-12);
        // Staying on its own link gives the same value as pure_user_latency.
        assert!(
            (pure_user_latency_on_link(&g, &p, &t, 0, 0) - pure_user_latency(&g, &p, &t, 0)).abs()
                < 1e-12
        );
    }

    #[test]
    fn effective_reduction_matches_explicit_state_expectation() {
        // Two states, a user with a non-trivial belief: the expected latency
        // over states must equal the effective-capacity latency.
        let states = StateSpace::from_rows(vec![vec![1.0, 4.0], vec![2.0, 2.0]]).unwrap();
        let beliefs = BeliefProfile::new(vec![
            Belief::new(vec![0.3, 0.7]).unwrap(),
            Belief::new(vec![0.6, 0.4]).unwrap(),
        ])
        .unwrap();
        let game = Game::new(vec![1.5, 2.5], states, beliefs).unwrap();
        let eg = game.effective_game();
        let t = LinkLoads::zero(2);
        for profile in [
            PureProfile::new(vec![0, 0]),
            PureProfile::new(vec![0, 1]),
            PureProfile::new(vec![1, 0]),
            PureProfile::new(vec![1, 1]),
        ] {
            for user in 0..2 {
                let full = expected_pure_latency_full(&game, &profile, user);
                let reduced = pure_user_latency(&eg, &profile, &t, user);
                assert!(
                    (full - reduced).abs() < 1e-12,
                    "profile {:?} user {user}: {full} vs {reduced}",
                    profile.choices()
                );
            }
        }
    }

    #[test]
    fn mixed_latency_formula() {
        let g = effective_game();
        let p = MixedProfile::from_rows(vec![vec![0.5, 0.5], vec![0.25, 0.75]]).unwrap();
        // W^0 = 0.5*1 + 0.25*2 = 1.0 ; W^1 = 0.5*1 + 0.75*2 = 2.0
        let traffic = p.expected_traffic(&g);
        assert!((traffic[0] - 1.0).abs() < 1e-12);
        assert!((traffic[1] - 2.0).abs() < 1e-12);
        // λ^0_0 = ((1-0.5)*1 + 1.0)/1 = 1.5
        assert!((mixed_link_latency(&g, &p, 0, 0) - 1.5).abs() < 1e-12);
        // λ^1_0 = ((1-0.5)*1 + 2.0)/2 = 1.25
        assert!((mixed_link_latency(&g, &p, 0, 1) - 1.25).abs() < 1e-12);
        let (link, lat) = mixed_min_latency(&g, &p, 0);
        assert_eq!(link, 1);
        assert!((lat - 1.25).abs() < 1e-12);
    }

    #[test]
    fn degenerate_mixed_profile_matches_pure_latency_for_singletons() {
        // When user i is alone on a link and plays it with probability 1, the
        // mixed latency on that link equals the pure latency.
        let g = effective_game();
        let pure = PureProfile::new(vec![0, 1]);
        let mixed = MixedProfile::from_pure(&pure, 2);
        let t = LinkLoads::zero(2);
        for user in 0..2 {
            let link = pure.link(user);
            let lm = mixed_link_latency(&g, &mixed, user, link);
            let lp = pure_user_latency(&g, &pure, &t, user);
            assert!((lm - lp).abs() < 1e-12);
        }
    }

    #[test]
    fn realized_latency_is_probability_weighted() {
        let g = effective_game();
        let p = MixedProfile::from_rows(vec![vec![0.5, 0.5], vec![0.25, 0.75]]).unwrap();
        let lats = mixed_user_latencies(&g, &p, 0);
        let expected = 0.5 * lats[0] + 0.5 * lats[1];
        assert!((mixed_realized_latency(&g, &p, 0) - expected).abs() < 1e-12);
        // Realised cost is never below the minimum expected latency.
        let (_, min) = mixed_min_latency(&g, &p, 0);
        assert!(mixed_realized_latency(&g, &p, 0) >= min - 1e-12);
    }

    #[test]
    fn min_latencies_vector_matches_per_user_queries() {
        let g = effective_game();
        let p = MixedProfile::uniform(2, 2);
        let all = mixed_min_latencies(&g, &p);
        for (user, &joint) in all.iter().enumerate() {
            let (_, single) = mixed_min_latency(&g, &p, user);
            assert!((joint - single).abs() < 1e-12);
        }
    }
}
