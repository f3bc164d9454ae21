//! Exhaustive enumeration over the `mⁿ` pure profiles.
//!
//! Used as a ground-truth reference for the enumeration of all pure Nash
//! equilibria. The exact social optima OPT1/OPT2 of Section 2 historically
//! lived here too; they moved behind the [`crate::opt`] estimator trait
//! ([`crate::opt::exhaustive`]) and are re-exported for compatibility.
//!
//! [`for_each_profile`] walks one profile in place, so an enumeration
//! allocates nothing per profile; [`all_pure_nash`] tests each profile
//! against one reused load buffer, an `O(n·m)` check per profile, and the
//! `Exhaustive` solver stops the same walk at its first equilibrium.

pub use crate::opt::exhaustive::{social_optimum, SocialOptimum};

use std::ops::ControlFlow;

use crate::equilibrium::best_deviations;
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
    try_for_each_profile(users, links, |profile| {
        f(profile);
        ControlFlow::<()>::Continue(())
    });
}

/// As [`for_each_profile`], stopping at the first profile on which `f`
/// breaks and returning the break value.
pub(crate) fn try_for_each_profile<B>(
    users: usize,
    links: usize,
    mut f: impl FnMut(&PureProfile) -> ControlFlow<B>,
) -> Option<B> {
    let mut profile = PureProfile::all_on(users, 0);
    loop {
        if let ControlFlow::Break(value) = f(&profile) {
            return Some(value);
        }
        // Odometer increment: step the lowest digit that can, zero those below.
        let choices = profile.choices_mut();
        let pos = choices.iter().position(|&c| c + 1 < links)?;
        choices[..pos].fill(0);
        choices[pos] += 1;
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
    pure_nash_walk(game, initial, tol, limit, false)
}

/// The first of [`all_pure_nash`]'s equilibria, from the same walk stopped
/// there.
pub(crate) fn first_pure_nash(
    game: &EffectiveGame,
    initial: &LinkLoads,
    tol: Tolerance,
    limit: u128,
) -> Result<Option<PureProfile>> {
    Ok(pure_nash_walk(game, initial, tol, limit, true)?.pop())
}

/// The pure Nash equilibria in [`for_each_profile`] order, every profile
/// tested against one reused load buffer; stops after the first when
/// `first_only`.
fn pure_nash_walk(
    game: &EffectiveGame,
    initial: &LinkLoads,
    tol: Tolerance,
    limit: u128,
    first_only: bool,
) -> Result<Vec<PureProfile>> {
    ensure_within_limit(game, limit)?;
    let mut equilibria = Vec::new();
    let mut loads = Vec::with_capacity(game.links());
    try_for_each_profile(game.users(), game.links(), |profile| {
        profile.link_loads_into(game, initial, &mut loads);
        if best_deviations(game, profile, &loads, tol).next().is_none() {
            equilibria.push(profile.clone());
            if first_only {
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
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
