//! The complete-information KP game.

use serde::{Deserialize, Serialize};

use netuncert_core::error::{GameError, Result};
use netuncert_core::model::{CapacityState, EffectiveGame, Game};

/// A KP-model instance: `n` users with traffics `w` on `m` related links with
/// known capacities `c`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KpGame {
    weights: Vec<f64>,
    capacities: Vec<f64>,
}

impl KpGame {
    /// Builds a KP game; weights must be positive, capacities
    /// [admissible](CapacityState::admits) (as for every network state of a
    /// [`Game`]), and there must be at least two users and two links.
    pub fn new(weights: Vec<f64>, capacities: Vec<f64>) -> Result<Self> {
        if weights.len() < 2 {
            return Err(GameError::TooFewUsers { n: weights.len() });
        }
        if capacities.len() < 2 {
            return Err(GameError::TooFewLinks {
                m: capacities.len(),
            });
        }
        for (user, &w) in weights.iter().enumerate() {
            if !(w.is_finite() && w > 0.0) {
                return Err(GameError::InvalidWeight { user, value: w });
            }
        }
        for (link, &c) in capacities.iter().enumerate() {
            if !CapacityState::admits(c) {
                return Err(GameError::InvalidCapacity {
                    state: 0,
                    link,
                    value: c,
                });
            }
        }
        Ok(KpGame {
            weights,
            capacities,
        })
    }

    /// A game with `n` identical users of unit weight on `m` identical links.
    pub fn identical(n: usize, m: usize) -> Result<Self> {
        KpGame::new(vec![1.0; n], vec![1.0; m])
    }

    /// Number of users.
    pub fn users(&self) -> usize {
        self.weights.len()
    }

    /// Number of links.
    pub fn links(&self) -> usize {
        self.capacities.len()
    }

    /// Traffic of user `user`.
    pub fn weight(&self, user: usize) -> f64 {
        self.weights[user]
    }

    /// All traffics.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Capacity of link `link`.
    pub fn capacity(&self, link: usize) -> f64 {
        self.capacities[link]
    }

    /// All capacities.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Whether all links have the same capacity (the *identical links* case).
    pub fn has_identical_links(&self) -> bool {
        self.capacities
            .iter()
            .all(|&c| (c - self.capacities[0]).abs() < 1e-12)
    }

    /// The uncertainty-model view of the game: a single state, point-mass
    /// beliefs. Every user's effective capacity equals the true capacity.
    pub fn to_game(&self) -> Game {
        Game::complete_information(self.weights.clone(), self.capacities.clone())
            .expect("validated KP game always converts")
    }

    /// The reduced effective game (all rows of the capacity matrix identical).
    pub fn to_effective_game(&self) -> EffectiveGame {
        let rows = vec![self.capacities.clone(); self.users()];
        EffectiveGame::from_rows(self.weights.clone(), rows)
            .expect("validated KP game always converts")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netuncert_core::numeric::Tolerance;

    #[test]
    fn construction_validation() {
        assert!(KpGame::new(vec![1.0], vec![1.0, 1.0]).is_err());
        assert!(KpGame::new(vec![1.0, 1.0], vec![1.0]).is_err());
        assert!(KpGame::new(vec![1.0, -1.0], vec![1.0, 1.0]).is_err());
        assert!(KpGame::new(vec![1.0, 1.0], vec![1.0, 0.0]).is_err());
        assert!(KpGame::new(vec![1.0, 2.0], vec![1.0, 3.0]).is_ok());
    }

    #[test]
    fn a_capacity_whose_reciprocal_is_subnormal_is_rejected() {
        assert!(matches!(
            KpGame::new(vec![1.0, 2.0], vec![f64::MAX, 1.0]),
            Err(GameError::InvalidCapacity { link: 0, .. })
        ));
    }

    #[test]
    fn accessors_and_identical_detection() {
        let g = KpGame::new(vec![1.0, 2.0], vec![3.0, 3.0]).unwrap();
        assert_eq!(g.users(), 2);
        assert_eq!(g.links(), 2);
        assert_eq!(g.weight(1), 2.0);
        assert_eq!(g.capacity(0), 3.0);
        assert!(g.has_identical_links());
        let h = KpGame::new(vec![1.0, 2.0], vec![3.0, 4.0]).unwrap();
        assert!(!h.has_identical_links());
    }

    #[test]
    fn conversion_to_uncertainty_model_is_a_kp_instance() {
        let g = KpGame::new(vec![1.0, 2.0, 3.0], vec![2.0, 5.0]).unwrap();
        let tol = Tolerance::default();
        let full = g.to_game();
        assert!(full.is_kp_instance(tol));
        let eg = g.to_effective_game();
        assert!(eg.is_kp_instance(tol));
        assert_eq!(full.effective_game(), eg);
    }

    #[test]
    fn identical_constructor() {
        let g = KpGame::identical(4, 3).unwrap();
        assert_eq!(g.users(), 4);
        assert_eq!(g.links(), 3);
        assert!(g.has_identical_links());
    }
}
