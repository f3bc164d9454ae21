//! Social cost and price of anarchy for the KP model.
//!
//! In the complete-information KP model every user agrees on the link
//! capacities, so the literature's social cost is well defined: the expected
//! *maximum congestion* (makespan) over the users' random link choices. This
//! module computes it exactly by enumerating outcome combinations (feasible
//! for the small instances the experiments use), along with the social
//! optimum and the resulting price-of-anarchy measurements used as the
//! baseline against the paper's subjective social costs.
//!
//! The KP optimum is a special case of the general machinery: the makespan
//! of an assignment equals `SC2` of the corresponding effective game (empty
//! links cost nobody anything), so [`social_optimum`] delegates to the
//! `netuncert_core::opt` subsystem's exhaustive backend and
//! [`coordination_ratio`] is guarded by the same
//! [`checked_ratio`] used by
//! the subjective ratio paths — a zero optimum is a typed error, not ∞.

use netuncert_core::error::{GameError, Result};
use netuncert_core::social_cost::checked_ratio;
use netuncert_core::strategy::{LinkLoads, MixedProfile, PureProfile};

use crate::game::KpGame;

/// Default cap on the number of enumerated outcomes.
pub const DEFAULT_OUTCOME_LIMIT: u128 = 2_000_000;

/// Maximum congestion (makespan) of a pure outcome.
pub fn max_congestion(game: &KpGame, profile: &PureProfile) -> f64 {
    let mut loads = vec![0.0f64; game.links()];
    for user in 0..game.users() {
        loads[profile.link(user)] += game.weight(user);
    }
    loads
        .iter()
        .enumerate()
        .map(|(l, &load)| load / game.capacity(l))
        .fold(f64::MIN, f64::max)
}

/// The KP social cost of a mixed profile: the expectation of the maximum
/// congestion over the users' independent random link choices, computed
/// exactly by enumerating all `mⁿ` outcomes.
///
/// # Errors
/// Fails when `mⁿ` exceeds `limit`.
pub fn expected_max_congestion(game: &KpGame, profile: &MixedProfile, limit: u128) -> Result<f64> {
    let n = game.users();
    let m = game.links();
    let outcomes = (m as u128).saturating_pow(n as u32);
    if outcomes > limit {
        return Err(GameError::TooLarge {
            profiles: outcomes,
            limit,
        });
    }
    let mut total = 0.0;
    let mut choices = vec![0usize; n];
    loop {
        // Probability of this outcome and its congestion.
        let mut prob = 1.0;
        for (user, &link) in choices.iter().enumerate() {
            prob *= profile.prob(user, link);
        }
        if prob > 0.0 {
            let outcome = PureProfile::new(choices.clone());
            total += prob * max_congestion(game, &outcome);
        }
        let mut pos = 0;
        loop {
            if pos == n {
                return Ok(total);
            }
            choices[pos] += 1;
            if choices[pos] < m {
                break;
            }
            choices[pos] = 0;
            pos += 1;
        }
    }
}

/// The KP social optimum: the minimum makespan over all pure assignments.
///
/// The makespan of a pure assignment equals the `SC2` cost of the
/// corresponding (user-independent) effective game — a user on link `ℓ`
/// pays exactly `loadₗ / cₗ`, and links with no users cost nobody anything
/// — so this is `OPT2` as computed by the unified
/// `netuncert_core::opt` exhaustive backend, profile and value alike.
///
/// # Errors
/// Fails when `mⁿ` exceeds `limit`.
pub fn social_optimum(game: &KpGame, limit: u128) -> Result<(f64, PureProfile)> {
    let eg = game.to_effective_game();
    let optimum = netuncert_core::opt::social_optimum(&eg, &LinkLoads::zero(game.links()), limit)?;
    Ok((optimum.opt2, optimum.opt2_profile))
}

/// The coordination ratio of a mixed profile in the KP sense:
/// `E[max congestion] / OPT`.
///
/// # Errors
/// Fails when the outcome space exceeds `limit`, or with
/// [`GameError::ZeroOptimum`]
/// when the optimum degenerates to zero.
pub fn coordination_ratio(game: &KpGame, profile: &MixedProfile, limit: u128) -> Result<f64> {
    let sc = expected_max_congestion(game, profile, limit)?;
    let (opt, _) = social_optimum(game, limit)?;
    checked_ratio(sc, opt, "KP OPT")
}

/// The classical upper bound on the *pure* price of anarchy for identical
/// links: `2 − 2/(m + 1)`.
pub fn pure_poa_bound_identical_links(links: usize) -> f64 {
    2.0 - 2.0 / (links as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpt::{is_kp_pure_nash, lpt_assignment};
    use netuncert_core::fully_mixed::fully_mixed_nash;
    use netuncert_core::numeric::Tolerance;

    #[test]
    fn max_congestion_matches_hand_computation() {
        let g = KpGame::new(vec![1.0, 2.0, 3.0], vec![1.0, 2.0]).unwrap();
        let p = PureProfile::new(vec![0, 1, 1]);
        // Link 0: 1/1 = 1; link 1: 5/2 = 2.5.
        assert!((max_congestion(&g, &p) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn expected_max_congestion_of_pure_profile_equals_its_makespan() {
        let g = KpGame::new(vec![1.0, 2.0, 3.0], vec![1.0, 2.0]).unwrap();
        let pure = PureProfile::new(vec![0, 1, 0]);
        let mixed = MixedProfile::from_pure(&pure, 2);
        let sc = expected_max_congestion(&g, &mixed, 1_000).unwrap();
        assert!((sc - max_congestion(&g, &pure)).abs() < 1e-12);
    }

    #[test]
    fn two_identical_users_two_identical_links_fully_mixed_cost() {
        // Classic example: each user uniform over 2 links; with prob 1/2 they
        // collide (makespan 2), else makespan 1 -> expected 1.5.
        let g = KpGame::identical(2, 2).unwrap();
        let uniform = MixedProfile::uniform(2, 2);
        let sc = expected_max_congestion(&g, &uniform, 1_000).unwrap();
        assert!((sc - 1.5).abs() < 1e-12);
        let (opt, _) = social_optimum(&g, 1_000).unwrap();
        assert!((opt - 1.0).abs() < 1e-12);
        assert!((coordination_ratio(&g, &uniform, 1_000).unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn pure_nash_poa_respects_identical_links_bound() {
        let bound = pure_poa_bound_identical_links(2);
        let mut state: u64 = 7;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) + 0.05
        };
        for n in 2..=8 {
            let weights: Vec<f64> = (0..n).map(|_| next() * 5.0).collect();
            let g = KpGame::new(weights, vec![1.0, 1.0]).unwrap();
            let ne = lpt_assignment(&g);
            assert!(is_kp_pure_nash(&g, &ne));
            let mixed = MixedProfile::from_pure(&ne, 2);
            let cr = coordination_ratio(&g, &mixed, 1_000_000).unwrap();
            assert!(cr <= bound + 1e-9, "PoA {cr} exceeds bound {bound}");
        }
    }

    #[test]
    fn fully_mixed_equilibrium_of_kp_game_costs_more_than_lpt_equilibrium() {
        // The fully mixed NE is the conjectured worst case in the KP model.
        let g = KpGame::identical(3, 2).unwrap();
        let eg = g.to_effective_game();
        let fmne = fully_mixed_nash(&eg, Tolerance::default()).unwrap();
        let sc_fm = expected_max_congestion(&g, &fmne, 1_000).unwrap();
        let lpt = MixedProfile::from_pure(&lpt_assignment(&g), 2);
        let sc_lpt = expected_max_congestion(&g, &lpt, 1_000).unwrap();
        assert!(sc_fm >= sc_lpt - 1e-12);
    }

    #[test]
    fn unified_social_optimum_matches_direct_makespan_enumeration() {
        // The opt-subsystem delegation must reproduce the historical
        // behaviour bit-for-bit: enumerate every assignment here and compare
        // value and witness profile.
        let g = KpGame::new(vec![3.0, 1.0, 2.0, 1.5], vec![1.0, 2.0, 0.5]).unwrap();
        let mut best = f64::INFINITY;
        let mut best_profile = PureProfile::all_on(4, 0);
        let mut choices = vec![0usize; 4];
        'outer: loop {
            let profile = PureProfile::new(choices.clone());
            let cost = max_congestion(&g, &profile);
            if cost < best {
                best = cost;
                best_profile = profile;
            }
            let mut pos = 0;
            loop {
                if pos == 4 {
                    break 'outer;
                }
                choices[pos] += 1;
                if choices[pos] < 3 {
                    break;
                }
                choices[pos] = 0;
                pos += 1;
            }
        }
        let (opt, opt_profile) = social_optimum(&g, 1_000_000).unwrap();
        assert_eq!(opt, best);
        assert_eq!(opt_profile, best_profile);
    }

    #[test]
    fn outcome_limit_is_enforced() {
        let g = KpGame::identical(4, 3).unwrap();
        let uniform = MixedProfile::uniform(4, 3);
        assert!(expected_max_congestion(&g, &uniform, 10).is_err());
        assert!(social_optimum(&g, 10).is_err());
    }

    #[test]
    fn bound_formula_values() {
        assert!((pure_poa_bound_identical_links(1) - 1.0).abs() < 1e-12);
        assert!((pure_poa_bound_identical_links(3) - 1.5).abs() < 1e-12);
    }
}
