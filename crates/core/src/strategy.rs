//! Strategies: pure and mixed profiles, and initial link traffic.

use serde::{Deserialize, Serialize};

use crate::error::{GameError, Result};
use crate::model::EffectiveGame;
use crate::numeric::{stable_sum, Tolerance};

/// A pure strategies profile `⟨ℓ₁, …, ℓₙ⟩`: one link index per user.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PureProfile {
    choices: Vec<usize>,
}

impl PureProfile {
    /// Builds a profile from per-user link choices.
    pub fn new(choices: Vec<usize>) -> Self {
        PureProfile { choices }
    }

    /// A profile assigning every user to link 0.
    pub fn all_on(n: usize, link: usize) -> Self {
        PureProfile {
            choices: vec![link; n],
        }
    }

    /// Validates the profile against a game (user count and link range).
    pub fn validate(&self, game: &EffectiveGame) -> Result<()> {
        if self.choices.len() != game.users() {
            return Err(GameError::ProfileDimensionMismatch {
                expected_users: game.users(),
                found_users: self.choices.len(),
            });
        }
        for (user, &link) in self.choices.iter().enumerate() {
            if link >= game.links() {
                return Err(GameError::LinkOutOfRange {
                    user,
                    link,
                    links: game.links(),
                });
            }
        }
        Ok(())
    }

    /// Number of users covered.
    pub fn users(&self) -> usize {
        self.choices.len()
    }

    /// Link chosen by `user`.
    #[inline]
    pub fn link(&self, user: usize) -> usize {
        self.choices[user]
    }

    /// All choices.
    pub fn choices(&self) -> &[usize] {
        &self.choices
    }

    /// Mutable access to the raw choices, for kernel start builders that
    /// refill a reused profile in place instead of allocating a new one.
    pub(crate) fn choices_mut(&mut self) -> &mut [usize] {
        &mut self.choices
    }

    /// Returns a copy with user `user` moved to `link`
    /// (`σ[k → ℓ]` in the paper's notation).
    pub fn with_move(&self, user: usize, link: usize) -> Self {
        let mut next = self.clone();
        next.choices[user] = link;
        next
    }

    /// Mutates the profile, moving `user` to `link`.
    pub fn apply_move(&mut self, user: usize, link: usize) {
        self.choices[user] = link;
    }

    /// Total traffic routed on each link under this profile, on top of the
    /// initial traffic `t` (pass [`LinkLoads::zero`] when there is none).
    pub fn link_loads(&self, game: &EffectiveGame, initial: &LinkLoads) -> Vec<f64> {
        let mut loads = Vec::with_capacity(initial.links());
        self.link_loads_into(game, initial, &mut loads);
        loads
    }

    /// As [`PureProfile::link_loads`], into a caller-owned buffer, so an
    /// enumeration walk prices every profile without allocating. The loads
    /// are summed in user-index order: `tˡ`, then each `wᵢ` with `σᵢ = ℓ`.
    pub(crate) fn link_loads_into(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        loads: &mut Vec<f64>,
    ) {
        loads.clear();
        loads.extend_from_slice(initial.as_slice());
        for (user, &link) in self.choices.iter().enumerate() {
            loads[link] += game.weight(user);
        }
    }

    /// The set of users assigned to each link (the *state induced by the
    /// strategy* in Section 3.1).
    pub fn induced_state(&self, links: usize) -> Vec<Vec<usize>> {
        let mut sets = vec![Vec::new(); links];
        for (user, &link) in self.choices.iter().enumerate() {
            sets[link].push(user);
        }
        sets
    }
}

/// A mixed strategies profile: an `n × m` row-stochastic matrix `P` where
/// `P[i][ℓ]` is the probability user `i` routes on link `ℓ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixedProfile {
    users: usize,
    links: usize,
    probs: Vec<f64>,
}

impl MixedProfile {
    /// Builds a profile from row-major probabilities, validating each row.
    pub fn new(users: usize, links: usize, probs: Vec<f64>) -> Result<Self> {
        if probs.len() != users * links {
            return Err(GameError::ProfileDimensionMismatch {
                expected_users: users,
                found_users: probs.len().checked_div(links).unwrap_or(0),
            });
        }
        for (idx, &p) in probs.iter().enumerate() {
            if !(p.is_finite() && (-1e-12..=1.0 + 1e-12).contains(&p)) {
                return Err(GameError::InvalidProbability {
                    user: idx / links,
                    link: idx % links,
                    value: p,
                });
            }
        }
        for user in 0..users {
            let sum = stable_sum(&probs[user * links..(user + 1) * links]);
            if (sum - 1.0).abs() > 1e-7 {
                return Err(GameError::InvalidMixedRow { user, sum });
            }
        }
        Ok(MixedProfile {
            users,
            links,
            probs,
        })
    }

    /// Builds a profile from per-user probability rows.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        let users = rows.len();
        let links = rows.first().map(Vec::len).unwrap_or(0);
        let mut probs = Vec::with_capacity(users * links);
        for row in &rows {
            if row.len() != links {
                return Err(GameError::ProfileDimensionMismatch {
                    expected_users: users,
                    found_users: users,
                });
            }
            probs.extend_from_slice(row);
        }
        MixedProfile::new(users, links, probs)
    }

    /// The degenerate mixed profile corresponding to a pure profile.
    pub fn from_pure(pure: &PureProfile, links: usize) -> Self {
        let users = pure.users();
        let mut probs = vec![0.0; users * links];
        for user in 0..users {
            probs[user * links + pure.link(user)] = 1.0;
        }
        MixedProfile {
            users,
            links,
            probs,
        }
    }

    /// The uniform fully mixed profile (`pᵢˡ = 1/m` for everyone).
    pub fn uniform(users: usize, links: usize) -> Self {
        MixedProfile {
            users,
            links,
            probs: vec![1.0 / links as f64; users * links],
        }
    }

    /// Number of users `n`.
    pub fn users(&self) -> usize {
        self.users
    }

    /// Number of links `m`.
    pub fn links(&self) -> usize {
        self.links
    }

    /// Probability `pᵢˡ`.
    #[inline]
    pub fn prob(&self, user: usize, link: usize) -> f64 {
        self.probs[user * self.links + link]
    }

    /// The probability row of `user`.
    #[inline]
    pub fn row(&self, user: usize) -> &[f64] {
        &self.probs[user * self.links..(user + 1) * self.links]
    }

    /// The support of `user`'s strategy: links played with positive probability.
    pub fn support(&self, user: usize, tol: Tolerance) -> Vec<usize> {
        self.row(user)
            .iter()
            .enumerate()
            .filter(|&(_, &p)| tol.gt(p, 0.0))
            .map(|(l, _)| l)
            .collect()
    }

    /// Whether the profile is *fully mixed*: every user assigns strictly
    /// positive probability to every link.
    pub fn is_fully_mixed(&self, tol: Tolerance) -> bool {
        self.probs.iter().all(|&p| tol.gt(p, 0.0))
    }

    /// Whether the profile is pure (every row is a point mass); returns the
    /// corresponding pure profile if so.
    pub fn as_pure(&self, tol: Tolerance) -> Option<PureProfile> {
        let mut choices = Vec::with_capacity(self.users);
        for user in 0..self.users {
            let support = self.support(user, tol);
            if support.len() != 1 || !tol.eq(self.prob(user, support[0]), 1.0) {
                return None;
            }
            choices.push(support[0]);
        }
        Some(PureProfile::new(choices))
    }

    /// Expected traffic `Wˡ = Σᵢ pᵢˡ wᵢ` on every link.
    pub fn expected_traffic(&self, game: &EffectiveGame) -> Vec<f64> {
        let mut traffic = vec![0.0; self.links];
        self.add_expected_traffic(game, &mut traffic);
        traffic
    }

    /// Adds `pᵢˡ wᵢ` to `traffic[ℓ]` for every user in index order, so a
    /// vector that starts at the initial traffic `t` ends at `t + W`.
    pub(crate) fn add_expected_traffic(&self, game: &EffectiveGame, traffic: &mut [f64]) {
        for user in 0..self.users {
            let w = game.weight(user);
            for (link, item) in traffic.iter_mut().enumerate() {
                *item += self.prob(user, link) * w;
            }
        }
    }

    /// Validates the profile dimensions against a game.
    pub fn validate(&self, game: &EffectiveGame) -> Result<()> {
        if self.users != game.users() || self.links != game.links() {
            return Err(GameError::ProfileDimensionMismatch {
                expected_users: game.users(),
                found_users: self.users,
            });
        }
        Ok(())
    }
}

/// Initial (exogenous) traffic on each link, the vector `t` used by
/// `Atwolinks` and `Auniform`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkLoads {
    loads: Vec<f64>,
}

impl LinkLoads {
    /// Builds an initial-traffic vector; entries must be non-negative and finite.
    pub fn new(loads: Vec<f64>) -> Result<Self> {
        for &t in &loads {
            if !(t.is_finite() && t >= 0.0) {
                return Err(GameError::InvalidInitialTraffic {
                    reason: format!("entry {t} is negative or not finite"),
                });
            }
        }
        Ok(LinkLoads { loads })
    }

    /// Zero initial traffic on `links` links.
    pub fn zero(links: usize) -> Self {
        LinkLoads {
            loads: vec![0.0; links],
        }
    }

    /// Number of links.
    pub fn links(&self) -> usize {
        self.loads.len()
    }

    /// Initial traffic on `link`.
    #[inline]
    pub fn load(&self, link: usize) -> f64 {
        self.loads[link]
    }

    /// All loads.
    pub fn as_slice(&self) -> &[f64] {
        &self.loads
    }

    /// Returns a copy with `amount` added to `link`.
    pub fn with_added(&self, link: usize, amount: f64) -> Self {
        let mut next = self.clone();
        next.loads[link] += amount;
        next
    }

    /// Adds `amount` to `link` in place.
    pub fn add(&mut self, link: usize, amount: f64) {
        self.loads[link] += amount;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn game() -> EffectiveGame {
        EffectiveGame::from_rows(
            vec![1.0, 2.0, 3.0],
            vec![vec![1.0, 2.0], vec![1.0, 2.0], vec![1.0, 2.0]],
        )
        .unwrap()
    }

    #[test]
    fn pure_profile_validation() {
        let g = game();
        assert!(PureProfile::new(vec![0, 1, 0]).validate(&g).is_ok());
        assert!(PureProfile::new(vec![0, 1]).validate(&g).is_err());
        assert!(PureProfile::new(vec![0, 1, 2]).validate(&g).is_err());
    }

    #[test]
    fn pure_profile_loads_and_induced_state() {
        let g = game();
        let p = PureProfile::new(vec![0, 1, 0]);
        assert_eq!(p.link_loads(&g, &LinkLoads::zero(2)), vec![4.0, 2.0]);
        let t = LinkLoads::new(vec![0.5, 1.5]).unwrap();
        assert_eq!(p.link_loads(&g, &t), vec![4.5, 3.5]);
        assert_eq!(p.induced_state(2), vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn pure_profile_moves() {
        let p = PureProfile::new(vec![0, 1, 0]);
        let q = p.with_move(2, 1);
        assert_eq!(p.choices(), &[0, 1, 0]);
        assert_eq!(q.choices(), &[0, 1, 1]);
        let mut r = p.clone();
        r.apply_move(0, 1);
        assert_eq!(r.choices(), &[1, 1, 0]);
    }

    #[test]
    fn mixed_profile_validation() {
        assert!(MixedProfile::new(2, 2, vec![0.5, 0.5, 0.3, 0.7]).is_ok());
        assert!(MixedProfile::new(2, 2, vec![0.5, 0.6, 0.3, 0.7]).is_err());
        assert!(MixedProfile::new(2, 2, vec![1.2, -0.2, 0.3, 0.7]).is_err());
        assert!(MixedProfile::new(2, 2, vec![0.5, 0.5, 0.5]).is_err());
    }

    #[test]
    fn mixed_profile_support_and_fully_mixed() {
        let tol = Tolerance::default();
        let p = MixedProfile::from_rows(vec![vec![0.5, 0.5, 0.0], vec![0.2, 0.3, 0.5]]).unwrap();
        assert_eq!(p.support(0, tol), vec![0, 1]);
        assert!(!p.is_fully_mixed(tol));
        let q = MixedProfile::uniform(2, 3);
        assert!(q.is_fully_mixed(tol));
    }

    #[test]
    fn pure_mixed_round_trip() {
        let tol = Tolerance::default();
        let pure = PureProfile::new(vec![1, 0, 1]);
        let mixed = MixedProfile::from_pure(&pure, 2);
        assert_eq!(mixed.as_pure(tol), Some(pure));
        assert!(MixedProfile::uniform(2, 2).as_pure(tol).is_none());
    }

    #[test]
    fn expected_traffic_matches_hand_computation() {
        let g = game();
        let p =
            MixedProfile::from_rows(vec![vec![1.0, 0.0], vec![0.5, 0.5], vec![0.0, 1.0]]).unwrap();
        let w = p.expected_traffic(&g);
        assert!((w[0] - 2.0).abs() < 1e-12); // 1*1 + 0.5*2
        assert!((w[1] - 4.0).abs() < 1e-12); // 0.5*2 + 3
    }

    #[test]
    fn link_loads_validation_and_updates() {
        assert!(LinkLoads::new(vec![0.0, -1.0]).is_err());
        let t = LinkLoads::new(vec![1.0, 2.0]).unwrap();
        assert_eq!(t.links(), 2);
        assert_eq!(t.with_added(1, 3.0).as_slice(), &[1.0, 5.0]);
        let mut u = t.clone();
        u.add(0, 0.5);
        assert_eq!(u.load(0), 1.5);
    }
}
