//! Nash-equilibrium predicates and best-response primitives.
//!
//! Every pure-Nash question reads one per-user deviation row over link loads
//! `L` summed once per call, in user-index order, by
//! [`PureProfile::link_loads`]. In that one arithmetic a user on link `from`
//! pays `L[from] / c` to stay and `(L[ℓ] + w) / c` to move to `ℓ ≠ from`.
//! A user defects when its cheapest move beats staying by more than the
//! [`Tolerance`] margin. That one test decides the same as testing every
//! move, because the accepted bound `b + eps·max(1, |a|, |b|)` is monotone
//! in `b` under round-to-nearest.

use serde::{Deserialize, Serialize};

use crate::latency::mixed_link_latency_with_traffic;
use crate::model::EffectiveGame;
use crate::numeric::{argmin, Tolerance};
use crate::strategy::{LinkLoads, MixedProfile, PureProfile};

/// A profitable unilateral deviation found in a pure profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Deviation {
    /// The defecting user.
    pub user: usize,
    /// The link the user currently plays.
    pub from: usize,
    /// The link the user would rather play.
    pub to: usize,
    /// Expected latency on the current link.
    pub current_latency: f64,
    /// Expected latency after the move.
    pub new_latency: f64,
}

impl Deviation {
    /// The latency improvement the deviation yields.
    pub fn gain(&self) -> f64 {
        self.current_latency - self.new_latency
    }

    /// Whether the move beats staying by more than the tolerance margin.
    pub(crate) fn improves(&self, tol: Tolerance) -> bool {
        tol.lt(self.new_latency, self.current_latency)
    }
}

/// The deviation scan: `user`'s link `from`, its latency for staying there,
/// and every move off it as `(link, latency)` in link order, all priced
/// over `loads = `[`PureProfile::link_loads`].
fn scan<'a>(
    game: &'a EffectiveGame,
    profile: &PureProfile,
    loads: &'a [f64],
    user: usize,
) -> (usize, f64, impl Iterator<Item = (usize, f64)> + 'a) {
    let from = profile.link(user);
    let w = game.weight(user);
    let caps = game.capacities().row(user);
    let moves = loads
        .iter()
        .zip(caps)
        .enumerate()
        .filter(move |&(to, _)| to != from)
        .map(move |(to, (&load, &c))| (to, (load + w) / c));
    (from, loads[from] / caps[from], moves)
}

/// The cheapest move of `user` (lowest link on ties). It
/// [`improves`](Deviation::improves) exactly when some move does (see the
/// module doc).
fn cheapest_move(
    game: &EffectiveGame,
    profile: &PureProfile,
    loads: &[f64],
    user: usize,
) -> Deviation {
    let (from, current_latency, moves) = scan(game, profile, loads, user);
    let (to, new_latency) = moves
        .reduce(|best, next| if next.1 < best.1 { next } else { best })
        .expect("a game has at least two links");
    Deviation {
        user,
        from,
        to,
        current_latency,
        new_latency,
    }
}

/// Every defecting user's best deviation, in user order, over precomputed
/// link loads; empty exactly when `profile` is a pure Nash equilibrium.
pub(crate) fn best_deviations<'a>(
    game: &'a EffectiveGame,
    profile: &'a PureProfile,
    loads: &'a [f64],
    tol: Tolerance,
) -> impl Iterator<Item = Deviation> + 'a {
    (0..game.users())
        .map(move |user| cheapest_move(game, profile, loads, user))
        .filter(move |d| d.improves(tol))
}

/// The best response of `user` against `profile` (others fixed): the link with
/// the lowest expected latency for the user, and that latency.
///
/// Ties are broken in favour of the user's current link (so a user that is
/// already best-responding never appears to deviate), then by lowest index.
pub fn best_response(
    game: &EffectiveGame,
    profile: &PureProfile,
    initial: &LinkLoads,
    user: usize,
    tol: Tolerance,
) -> (usize, f64) {
    let d = cheapest_move(game, profile, &profile.link_loads(game, initial), user);
    if d.improves(tol) {
        (d.to, d.new_latency)
    } else {
        (d.from, d.current_latency)
    }
}

/// Whether `user` satisfies the Nash condition in `profile`: no link offers a
/// strictly lower expected latency than its current one.
pub fn satisfies_pure_nash(
    game: &EffectiveGame,
    profile: &PureProfile,
    initial: &LinkLoads,
    user: usize,
    tol: Tolerance,
) -> bool {
    best_deviation_of(game, profile, initial, user, tol).is_none()
}

/// Whether `profile` is a pure Nash equilibrium of `game` with initial traffic
/// `initial`.
///
/// This is the canonical certification predicate every solver's returned
/// profile must pass; it sums the link loads once, so it costs `O(n·m)`.
pub fn is_pure_nash(
    game: &EffectiveGame,
    profile: &PureProfile,
    initial: &LinkLoads,
    tol: Tolerance,
) -> bool {
    let loads = profile.link_loads(game, initial);
    let mut defections = best_deviations(game, profile, &loads, tol);
    defections.next().is_none()
}

/// All users that do not satisfy the Nash condition in `profile`
/// (the *defecting users* of Section 3.1).
pub fn defecting_users(
    game: &EffectiveGame,
    profile: &PureProfile,
    initial: &LinkLoads,
    tol: Tolerance,
) -> Vec<usize> {
    let loads = profile.link_loads(game, initial);
    best_deviations(game, profile, &loads, tol)
        .map(|d| d.user)
        .collect()
}

/// Every profitable unilateral deviation available in `profile`, ordered by
/// user then destination link.
pub fn profitable_deviations(
    game: &EffectiveGame,
    profile: &PureProfile,
    initial: &LinkLoads,
    tol: Tolerance,
) -> Vec<Deviation> {
    let loads = profile.link_loads(game, initial);
    let mut deviations = Vec::new();
    for user in 0..game.users() {
        let (from, current_latency, moves) = scan(game, profile, &loads, user);
        let row = moves.map(|(to, new_latency)| Deviation {
            user,
            from,
            to,
            current_latency,
            new_latency,
        });
        deviations.extend(row.filter(|d| d.improves(tol)));
    }
    deviations
}

/// The best profitable deviation of a single user, if any: the move to the
/// user's best-response link when that link strictly improves its latency.
pub fn best_deviation_of(
    game: &EffectiveGame,
    profile: &PureProfile,
    initial: &LinkLoads,
    user: usize,
    tol: Tolerance,
) -> Option<Deviation> {
    let d = cheapest_move(game, profile, &profile.link_loads(game, initial), user);
    d.improves(tol).then_some(d)
}

/// Whether the mixed profile `P` is a Nash equilibrium: every user puts
/// positive probability only on links minimising its expected latency, and no
/// link offers a latency below that minimum.
pub fn is_mixed_nash(game: &EffectiveGame, profile: &MixedProfile, tol: Tolerance) -> bool {
    if profile.validate(game).is_err() {
        return false;
    }
    let expected = profile.expected_traffic(game);
    for user in 0..game.users() {
        let latencies: Vec<f64> = (0..game.links())
            .map(|l| mixed_link_latency_with_traffic(game, profile, &expected, user, l))
            .collect();
        let min = latencies[argmin(&latencies)];
        for (link, &lat) in latencies.iter().enumerate() {
            let p = profile.prob(user, link);
            if tol.gt(p, 0.0) && !tol.eq(lat, min) {
                return false;
            }
            if !tol.geq(lat, min) {
                return false;
            }
        }
    }
    true
}

/// Whether `P` is a *fully mixed* Nash equilibrium: a Nash equilibrium in
/// which every user assigns strictly positive probability to every link.
pub fn is_fully_mixed_nash(game: &EffectiveGame, profile: &MixedProfile, tol: Tolerance) -> bool {
    profile.is_fully_mixed(tol) && is_mixed_nash(game, profile, tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two users, two links; user 0 strongly prefers (believes faster) link 0,
    /// user 1 prefers link 1.
    fn opposed_game() -> EffectiveGame {
        EffectiveGame::from_rows(vec![1.0, 1.0], vec![vec![10.0, 1.0], vec![1.0, 10.0]]).unwrap()
    }

    #[test]
    fn separated_profile_is_nash_for_opposed_preferences() {
        let g = opposed_game();
        let t = LinkLoads::zero(2);
        let tol = Tolerance::default();
        let separated = PureProfile::new(vec![0, 1]);
        assert!(is_pure_nash(&g, &separated, &t, tol));
        assert!(profitable_deviations(&g, &separated, &t, tol).is_empty());
        assert!(defecting_users(&g, &separated, &t, tol).is_empty());

        // The swapped profile is as bad as possible: both users want to move.
        let swapped = PureProfile::new(vec![1, 0]);
        assert!(!is_pure_nash(&g, &swapped, &t, tol));
        assert_eq!(defecting_users(&g, &swapped, &t, tol), vec![0, 1]);
        let devs = profitable_deviations(&g, &swapped, &t, tol);
        assert_eq!(devs.len(), 2);
        assert!(devs.iter().all(|d| d.gain() > 0.0));
    }

    #[test]
    fn best_response_prefers_current_link_on_ties() {
        // Symmetric game where both links look identical to user 0.
        let g =
            EffectiveGame::from_rows(vec![1.0, 1.0], vec![vec![2.0, 2.0], vec![2.0, 2.0]]).unwrap();
        let t = LinkLoads::zero(2);
        let tol = Tolerance::default();
        let p = PureProfile::new(vec![0, 1]);
        let (link, _) = best_response(&g, &p, &t, 0, tol);
        assert_eq!(link, 0, "ties must not produce spurious deviations");
        assert!(best_deviation_of(&g, &p, &t, 0, tol).is_none());
    }

    #[test]
    fn best_deviation_matches_best_response() {
        let g = opposed_game();
        let t = LinkLoads::zero(2);
        let tol = Tolerance::default();
        let p = PureProfile::new(vec![1, 0]);
        let d = best_deviation_of(&g, &p, &t, 0, tol).expect("user 0 should deviate");
        assert_eq!(d.from, 1);
        assert_eq!(d.to, 0);
        assert!(d.new_latency < d.current_latency);
    }

    #[test]
    fn initial_traffic_changes_equilibria() {
        // Identical links; with heavy initial traffic on link 0 both users
        // should sit on link 1.
        let g =
            EffectiveGame::from_rows(vec![1.0, 1.0], vec![vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let tol = Tolerance::default();
        let heavy = LinkLoads::new(vec![10.0, 0.0]).unwrap();
        let both_on_1 = PureProfile::new(vec![1, 1]);
        assert!(is_pure_nash(&g, &both_on_1, &heavy, tol));
        let split = PureProfile::new(vec![0, 1]);
        assert!(!is_pure_nash(&g, &split, &heavy, tol));
    }

    #[test]
    fn mixed_nash_accepts_pure_equilibrium_and_rejects_non_equilibrium() {
        let g = opposed_game();
        let tol = Tolerance::default();
        let separated = MixedProfile::from_pure(&PureProfile::new(vec![0, 1]), 2);
        assert!(is_mixed_nash(&g, &separated, tol));
        let swapped = MixedProfile::from_pure(&PureProfile::new(vec![1, 0]), 2);
        assert!(!is_mixed_nash(&g, &swapped, tol));
    }

    #[test]
    fn uniform_profile_is_fully_mixed_nash_for_symmetric_game() {
        // Fully symmetric game: identical users, identical links. The uniform
        // profile equalises every latency, hence is a fully mixed NE.
        let g = EffectiveGame::from_rows(
            vec![1.0, 1.0, 1.0],
            vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]],
        )
        .unwrap();
        let tol = Tolerance::default();
        let p = MixedProfile::uniform(3, 2);
        assert!(is_fully_mixed_nash(&g, &p, tol));
    }

    #[test]
    fn fully_mixed_check_requires_full_support() {
        let g = opposed_game();
        let tol = Tolerance::default();
        let separated = MixedProfile::from_pure(&PureProfile::new(vec![0, 1]), 2);
        // It is a NE but not fully mixed.
        assert!(is_mixed_nash(&g, &separated, tol));
        assert!(!is_fully_mixed_nash(&g, &separated, tol));
    }

    #[test]
    fn mixed_nash_rejects_wrong_dimensions() {
        let g = opposed_game();
        let tol = Tolerance::default();
        let p = MixedProfile::uniform(3, 2);
        assert!(!is_mixed_nash(&g, &p, tol));
    }
}
