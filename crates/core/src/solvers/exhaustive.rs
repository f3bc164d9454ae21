//! Exhaustive enumeration over the `mⁿ` pure profiles.
//!
//! Used as a ground-truth reference for the enumeration of all pure Nash
//! equilibria. The exact social optima OPT1/OPT2 of Section 2 historically
//! lived here too; they moved behind the [`crate::opt`] estimator trait
//! ([`crate::opt::exhaustive`]) and are re-exported for compatibility.
//!
//! [`for_each_profile`] walks one profile in place, so an enumeration
//! allocates nothing per profile; [`all_pure_nash`] tests each profile
//! against one reused load buffer, an `O(n·m)` check per profile.

pub use crate::opt::exhaustive::{social_optimum, SocialOptimum};

use crate::equilibrium::is_pure_nash_under_loads;
use crate::error::{GameError, Result};
use crate::model::EffectiveGame;
use crate::numeric::Tolerance;
use crate::strategy::{LinkLoads, PureProfile};

/// Default cap on the number of profiles an exhaustive routine will visit.
pub const DEFAULT_PROFILE_LIMIT: u128 = 2_000_000;

/// Number of pure profiles `mⁿ` of a game with `n` users and `m` links.
pub fn profile_count(users: usize, links: usize) -> u128 {
    (links as u128).saturating_pow(users as u32)
}

pub(crate) fn ensure_within_limit(game: &EffectiveGame, limit: u128) -> Result<()> {
    let profiles = profile_count(game.users(), game.links());
    if profiles > limit {
        return Err(GameError::TooLarge { profiles, limit });
    }
    Ok(())
}

/// Calls `f` for every pure profile of an `n`-user, `m`-link game, in
/// lexicographic order (user 0 varies fastest).
///
/// One profile is stepped in place and lent to `f`; a caller that keeps a
/// profile clones it.
pub fn for_each_profile<F: FnMut(&PureProfile)>(users: usize, links: usize, mut f: F) {
    let mut profile = PureProfile::all_on(users, 0);
    loop {
        f(&profile);
        // Odometer increment.
        let choices = profile.choices_mut();
        let mut pos = 0;
        loop {
            if pos == users {
                return;
            }
            choices[pos] += 1;
            if choices[pos] < links {
                break;
            }
            choices[pos] = 0;
            pos += 1;
        }
    }
}

/// All pure Nash equilibria of `game` with initial traffic `initial`.
///
/// # Errors
/// Fails when `mⁿ` exceeds `limit`.
pub fn all_pure_nash(
    game: &EffectiveGame,
    initial: &LinkLoads,
    tol: Tolerance,
    limit: u128,
) -> Result<Vec<PureProfile>> {
    ensure_within_limit(game, limit)?;
    let mut equilibria = Vec::new();
    let mut loads = Vec::with_capacity(game.links());
    for_each_profile(game.users(), game.links(), |profile| {
        profile.link_loads_into(game, initial, &mut loads);
        if is_pure_nash_under_loads(game, profile, &loads, tol) {
            equilibria.push(profile.clone());
        }
    });
    Ok(equilibria)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opposed_game() -> EffectiveGame {
        EffectiveGame::from_rows(vec![1.0, 1.0], vec![vec![10.0, 1.0], vec![1.0, 10.0]]).unwrap()
    }

    #[test]
    fn profile_enumeration_visits_every_profile_once() {
        let mut seen = Vec::new();
        for_each_profile(3, 2, |p| seen.push(p.choices().to_vec()));
        assert_eq!(seen.len(), 8);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn profile_count_matches_enumeration() {
        assert_eq!(profile_count(3, 2), 8);
        assert_eq!(profile_count(4, 3), 81);
        assert_eq!(profile_count(0, 5), 1);
    }

    #[test]
    fn limits_are_enforced() {
        let g = opposed_game();
        let t = LinkLoads::zero(2);
        assert!(matches!(
            all_pure_nash(&g, &t, Tolerance::default(), 3),
            Err(GameError::TooLarge { .. })
        ));
    }

    #[test]
    fn opposed_game_has_unique_pure_nash() {
        let g = opposed_game();
        let t = LinkLoads::zero(2);
        let all = all_pure_nash(&g, &t, Tolerance::default(), 1_000).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].choices(), &[0, 1]);
    }

    #[test]
    fn identical_everything_has_two_split_equilibria() {
        // Two identical users, two identical links: both split profiles are NE;
        // the profiles where they share a link are not.
        let g =
            EffectiveGame::from_rows(vec![1.0, 1.0], vec![vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let t = LinkLoads::zero(2);
        let all = all_pure_nash(&g, &t, Tolerance::default(), 1_000).unwrap();
        assert_eq!(all.len(), 2);
        for p in &all {
            assert_ne!(p.link(0), p.link(1));
        }
    }
}
