//! The full belief-based routing game `G = (n, m, w, B)` of Section 2.

use serde::{Deserialize, Serialize};

use crate::error::{GameError, Result};
use crate::model::belief::{Belief, BeliefProfile};
use crate::model::effective::{EffectiveCapacities, EffectiveGame};
use crate::model::state::StateSpace;
use crate::numeric::Tolerance;

/// An uncertain selfish-routing game `G = (n, m, w, B)`.
///
/// `n` users with traffics `w` route onto `m` parallel links whose capacities
/// are uncertain: the network realises one of the states in the [`StateSpace`]
/// and each user holds a private [`Belief`] over those states.
///
/// Most computations go through [`Game::effective_game`], which collapses the
/// states and beliefs into the per-user effective-capacity matrix described in
/// [`EffectiveGame`](crate::model::EffectiveGame).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Game {
    weights: Vec<f64>,
    states: StateSpace,
    beliefs: BeliefProfile,
}

impl Game {
    /// Builds and validates a game.
    pub fn new(weights: Vec<f64>, states: StateSpace, beliefs: BeliefProfile) -> Result<Self> {
        let n = weights.len();
        if n < 2 {
            return Err(GameError::TooFewUsers { n });
        }
        if states.links() < 2 {
            return Err(GameError::TooFewLinks { m: states.links() });
        }
        for (user, &w) in weights.iter().enumerate() {
            if !(w.is_finite() && w > 0.0) {
                return Err(GameError::InvalidWeight { user, value: w });
            }
        }
        if beliefs.users() != n {
            return Err(GameError::BeliefCountMismatch {
                users: n,
                beliefs: beliefs.users(),
            });
        }
        if beliefs.states() != states.len() {
            return Err(GameError::InvalidBelief {
                user: 0,
                reason: crate::error::BeliefError::LengthMismatch {
                    expected: states.len(),
                    found: beliefs.states(),
                },
            });
        }
        Ok(Game {
            weights,
            states,
            beliefs,
        })
    }

    /// A complete-information (KP) game: a single known capacity vector.
    pub fn complete_information(weights: Vec<f64>, capacities: Vec<f64>) -> Result<Self> {
        let n = weights.len();
        let states = StateSpace::singleton(capacities)?;
        let beliefs = BeliefProfile::point_mass(n, 1, 0);
        Game::new(weights, states, beliefs)
    }

    /// A game where every user holds the same belief over the states.
    pub fn common_belief(weights: Vec<f64>, states: StateSpace, belief: Belief) -> Result<Self> {
        let n = weights.len();
        let beliefs = BeliefProfile::identical(n, belief);
        Game::new(weights, states, beliefs)
    }

    /// Number of users `n`.
    pub fn users(&self) -> usize {
        self.weights.len()
    }

    /// Number of links `m`.
    pub fn links(&self) -> usize {
        self.states.links()
    }

    /// Traffic of user `user`.
    pub fn weight(&self, user: usize) -> f64 {
        self.weights[user]
    }

    /// The traffic vector `w`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Total traffic `T`.
    pub fn total_traffic(&self) -> f64 {
        crate::numeric::stable_sum(&self.weights)
    }

    /// The state space `Φ`.
    pub fn states(&self) -> &StateSpace {
        &self.states
    }

    /// The belief profile `B`.
    pub fn beliefs(&self) -> &BeliefProfile {
        &self.beliefs
    }

    /// Whether the game is a KP-model instance (all users certain of the same state).
    pub fn is_kp_instance(&self, tol: Tolerance) -> bool {
        self.beliefs.is_complete_information(tol)
    }

    /// Effective capacity `cᵢˡ = 1 / Σ_φ bᵢ(φ)/c_φˡ` of link `link` for user `user`.
    pub fn effective_capacity(&self, user: usize, link: usize) -> f64 {
        let inv = self
            .beliefs
            .belief(user)
            .expect(|s| 1.0 / self.states.capacity(s, link));
        1.0 / inv
    }

    /// The full effective-capacity matrix.
    pub fn effective_capacities(&self) -> EffectiveCapacities {
        let n = self.users();
        let m = self.links();
        let mut data = Vec::with_capacity(n * m);
        for i in 0..n {
            for l in 0..m {
                data.push(self.effective_capacity(i, l));
            }
        }
        EffectiveCapacities::from_rows(n, m, data)
            .expect("validated game always yields a valid capacity matrix")
    }

    /// Collapses the game into its reduced effective form `(w, c)`.
    pub fn effective_game(&self) -> EffectiveGame {
        EffectiveGame::new(self.weights.clone(), self.effective_capacities())
            .expect("validated game always yields a valid effective game")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::state::CapacityState;

    fn two_state_space() -> StateSpace {
        StateSpace::new(vec![
            CapacityState::new(vec![1.0, 4.0]).unwrap(),
            CapacityState::new(vec![2.0, 2.0]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn game_validation_catches_mismatches() {
        let states = two_state_space();
        // Too few users.
        assert!(Game::new(
            vec![1.0],
            states.clone(),
            BeliefProfile::point_mass(1, 2, 0)
        )
        .is_err());
        // Wrong belief count.
        assert!(Game::new(
            vec![1.0, 2.0],
            states.clone(),
            BeliefProfile::point_mass(3, 2, 0)
        )
        .is_err());
        // Beliefs over the wrong number of states.
        assert!(Game::new(
            vec![1.0, 2.0],
            states.clone(),
            BeliefProfile::point_mass(2, 3, 0)
        )
        .is_err());
        // Bad weight.
        assert!(Game::new(
            vec![1.0, 0.0],
            states.clone(),
            BeliefProfile::point_mass(2, 2, 0)
        )
        .is_err());
        // Valid.
        assert!(Game::new(vec![1.0, 2.0], states, BeliefProfile::point_mass(2, 2, 0)).is_ok());
    }

    #[test]
    fn effective_capacity_is_belief_harmonic_mean() {
        let states = two_state_space();
        let beliefs = BeliefProfile::new(vec![
            Belief::new(vec![0.5, 0.5]).unwrap(),
            Belief::point_mass(2, 0),
        ])
        .unwrap();
        let g = Game::new(vec![1.0, 1.0], states, beliefs).unwrap();

        // User 0, link 0: 1 / (0.5/1 + 0.5/2) = 1 / 0.75
        assert!((g.effective_capacity(0, 0) - 1.0 / 0.75).abs() < 1e-12);
        // User 0, link 1: 1 / (0.5/4 + 0.5/2) = 1 / 0.375
        assert!((g.effective_capacity(0, 1) - 1.0 / 0.375).abs() < 1e-12);
        // User 1 is certain of state 0.
        assert!((g.effective_capacity(1, 0) - 1.0).abs() < 1e-12);
        assert!((g.effective_capacity(1, 1) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn complete_information_recovers_kp_model() {
        let tol = Tolerance::default();
        let g = Game::complete_information(vec![1.0, 2.0, 3.0], vec![2.0, 5.0]).unwrap();
        assert!(g.is_kp_instance(tol));
        let eg = g.effective_game();
        assert!(eg.is_kp_instance(tol));
        for i in 0..3 {
            assert!((eg.capacity(i, 0) - 2.0).abs() < 1e-12);
            assert!((eg.capacity(i, 1) - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn common_belief_yields_identical_rows() {
        let states = two_state_space();
        let g = Game::common_belief(vec![1.0, 2.0], states, Belief::uniform(2)).unwrap();
        let eg = g.effective_game();
        assert_eq!(eg.capacities().row(0), eg.capacities().row(1));
        assert!(!g.is_kp_instance(Tolerance::default()));
    }

    #[test]
    fn effective_game_preserves_weights_and_dimensions() {
        let states = two_state_space();
        let g = Game::common_belief(vec![1.5, 2.5], states, Belief::uniform(2)).unwrap();
        let eg = g.effective_game();
        assert_eq!(eg.weights(), &[1.5, 2.5]);
        assert_eq!(eg.users(), 2);
        assert_eq!(eg.links(), 2);
        assert!((g.total_traffic() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn extreme_admissible_capacities_reduce_to_a_valid_effective_game() {
        assert!(matches!(
            Game::complete_information(vec![1.0, 2.0], vec![f64::MAX, 1.0]),
            Err(GameError::InvalidCapacity { link: 0, .. })
        ));
        // These weights round a mix of six `1/c` terms above its largest
        // term; at `c = MIN_POSITIVE` that inverted to a subnormal.
        let belief = Belief::from_weights(&[112.11, 139.12, 230.51, 367.04, 9.62, 170.94]).unwrap();
        let low = 2.0 * f64::MIN_POSITIVE;
        for c in [low, 1.0 / low] {
            let states = StateSpace::from_rows(vec![vec![c, 1.0]; 6]).unwrap();
            let g = Game::common_belief(vec![1.0, 2.0], states, belief.clone()).unwrap();
            let eg = g.effective_game();
            assert!(eg.capacity(0, 0).is_normal());
        }
    }
}
