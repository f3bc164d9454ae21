//! Network states: capacity vectors and the state space `Φ`.

use serde::{Deserialize, Serialize};

use crate::error::{GameError, Result};

/// A single network state: one capacity per link (`⟨c¹, …, cᵐ⟩` in the paper).
///
/// Capacities are strictly positive, finite rates at which a link processes
/// traffic. The latency contributed by a load `W` on link `ℓ` in this state is
/// `W / cℓ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityState {
    capacities: Vec<f64>,
}

impl CapacityState {
    /// Creates a state from per-link capacities.
    ///
    /// Fails if any capacity is not [admissible](CapacityState::admits), or
    /// if there are fewer than two links.
    pub fn new(capacities: Vec<f64>) -> Result<Self> {
        if capacities.len() < 2 {
            return Err(GameError::TooFewLinks {
                m: capacities.len(),
            });
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
        Ok(CapacityState { capacities })
    }

    /// Whether `c` is an admissible raw capacity: `2⁻¹⁰²¹ ≤ c ≤ 2¹⁰²¹`, a
    /// positive normal float whose reciprocal is normal too, with one binade
    /// of headroom on each side.
    ///
    /// A user's effective capacity inverts a belief-weighted mix of these
    /// reciprocals. The mix stays within a few ulps of `[2⁻¹⁰²¹, 2¹⁰²¹]`,
    /// so the headroom keeps it inside `[2⁻¹⁰²², 2¹⁰²²]` and its inverse is
    /// again a positive normal float, as [`EffectiveGame`] requires. Without
    /// the bounds `1/(1/f64::MAX)` overflows, and a mix of `1/MIN_POSITIVE`
    /// terms can round past `2¹⁰²²` and invert to a subnormal.
    ///
    /// [`EffectiveGame`]: crate::model::EffectiveGame
    pub fn admits(c: f64) -> bool {
        let low = 2.0 * f64::MIN_POSITIVE;
        (low..=1.0 / low).contains(&c)
    }

    /// A state where every link has the same capacity.
    pub fn identical(m: usize, capacity: f64) -> Result<Self> {
        CapacityState::new(vec![capacity; m])
    }

    /// Number of links described by this state.
    pub fn links(&self) -> usize {
        self.capacities.len()
    }

    /// Capacity of link `link` in this state.
    pub fn capacity(&self, link: usize) -> f64 {
        self.capacities[link]
    }

    /// All capacities as a slice.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }
}

/// The state space `Φ`: every capacity vector the network may realise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateSpace {
    links: usize,
    states: Vec<CapacityState>,
}

impl StateSpace {
    /// Builds a state space from a non-empty list of states over the same links.
    pub fn new(states: Vec<CapacityState>) -> Result<Self> {
        let first = states.first().ok_or(GameError::EmptyStateSpace)?;
        let links = first.links();
        for (idx, s) in states.iter().enumerate() {
            if s.links() != links {
                return Err(GameError::StateDimensionMismatch {
                    state: idx,
                    expected: links,
                    found: s.links(),
                });
            }
        }
        Ok(StateSpace { links, states })
    }

    /// Builds a state space from raw capacity rows (one row per state).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        let mut states = Vec::with_capacity(rows.len());
        for (idx, row) in rows.into_iter().enumerate() {
            let state = CapacityState::new(row).map_err(|e| match e {
                GameError::InvalidCapacity { link, value, .. } => GameError::InvalidCapacity {
                    state: idx,
                    link,
                    value,
                },
                other => other,
            })?;
            states.push(state);
        }
        StateSpace::new(states)
    }

    /// A degenerate state space containing exactly one state (complete information).
    pub fn singleton(capacities: Vec<f64>) -> Result<Self> {
        StateSpace::new(vec![CapacityState::new(capacities)?])
    }

    /// Number of links `m`.
    pub fn links(&self) -> usize {
        self.links
    }

    /// Number of states `|Φ|`.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the space is empty (never true for a validated space).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state with index `idx`.
    pub fn state(&self, idx: usize) -> &CapacityState {
        &self.states[idx]
    }

    /// Iterator over all states.
    pub fn iter(&self) -> impl Iterator<Item = &CapacityState> {
        self.states.iter()
    }

    /// Capacity of `link` in state `state`.
    pub fn capacity(&self, state: usize, link: usize) -> f64 {
        self.states[state].capacity(link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_rejects_non_positive_capacity() {
        assert!(CapacityState::new(vec![1.0, 0.0]).is_err());
        assert!(CapacityState::new(vec![1.0, -2.0]).is_err());
        assert!(CapacityState::new(vec![f64::NAN, 1.0]).is_err());
        assert!(CapacityState::new(vec![f64::INFINITY, 1.0]).is_err());
    }

    #[test]
    fn state_rejects_a_capacity_whose_reciprocal_is_subnormal() {
        assert!(matches!(
            CapacityState::new(vec![f64::MAX, 1.0]),
            Err(GameError::InvalidCapacity { link: 0, .. })
        ));
        let low = 2.0 * f64::MIN_POSITIVE;
        for c in [low, 1.0 / low] {
            assert!(CapacityState::admits(c));
        }
        for c in [f64::MIN_POSITIVE, low * (1.0 - f64::EPSILON), 2.0 / low] {
            assert!(!CapacityState::admits(c), "{c:e} admitted");
        }
    }

    #[test]
    fn state_rejects_single_link() {
        assert!(matches!(
            CapacityState::new(vec![1.0]),
            Err(GameError::TooFewLinks { m: 1 })
        ));
    }

    #[test]
    fn identical_state_has_equal_capacities() {
        let s = CapacityState::identical(4, 2.5).unwrap();
        assert_eq!(s.links(), 4);
        assert!(s.capacities().iter().all(|&c| c == 2.5));
    }

    #[test]
    fn state_space_validates_dimensions() {
        let a = CapacityState::new(vec![1.0, 2.0]).unwrap();
        let b = CapacityState::new(vec![1.0, 2.0, 3.0]).unwrap();
        let err = StateSpace::new(vec![a, b]).unwrap_err();
        assert!(matches!(
            err,
            GameError::StateDimensionMismatch { state: 1, .. }
        ));
    }

    #[test]
    fn state_space_rejects_empty() {
        assert!(matches!(
            StateSpace::new(vec![]),
            Err(GameError::EmptyStateSpace)
        ));
    }

    #[test]
    fn from_rows_reports_offending_state_index() {
        let err = StateSpace::from_rows(vec![vec![1.0, 1.0], vec![1.0, -3.0]]).unwrap_err();
        assert!(matches!(
            err,
            GameError::InvalidCapacity {
                state: 1,
                link: 1,
                ..
            }
        ));
    }

    #[test]
    fn accessors_round_trip() {
        let space = StateSpace::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(space.links(), 2);
        assert_eq!(space.len(), 2);
        assert!(!space.is_empty());
        assert_eq!(space.capacity(1, 0), 3.0);
        assert_eq!(space.state(0).capacities(), &[1.0, 2.0]);
        assert_eq!(space.iter().count(), 2);
    }
}
