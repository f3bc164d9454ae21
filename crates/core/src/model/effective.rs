//! Effective (belief-averaged) capacities and the reduced game form.
//!
//! Section 2 of the paper observes that the expected latency of user `i` on
//! link `ℓ` only depends on the user's belief through the *effective capacity*
//!
//! ```text
//! cᵢℓ = 1 / Σ_φ  bᵢ(φ) / c_φℓ
//! ```
//!
//! i.e. the belief-harmonic-mean of the link's capacity. Every algorithm and
//! every equilibrium predicate in the crate therefore operates on the
//! *effective game* `(w, c)` — the traffic vector together with the `n × m`
//! matrix of effective capacities — rather than on raw states and beliefs.
//!
//! The reduction loses nothing: any strictly positive `n × m` matrix is the
//! effective-capacity matrix of some belief model (take `n` states where state
//! `i` equals row `i` and give user `i` a point-mass belief on state `i`), so
//! [`EffectiveGame`] is exactly the class of games studied in the paper.

use std::fmt;
use std::sync::OnceLock;

use serde::value::get_field;
use serde::{Deserialize, Serialize, Value};

use crate::error::{GameError, Result};
use crate::numeric::{stable_sum, Tolerance};

/// The `n × m` matrix of effective capacities `cᵢℓ`, stored row-major
/// (row = user, column = link).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EffectiveCapacities {
    users: usize,
    links: usize,
    data: Vec<f64>,
}

impl EffectiveCapacities {
    /// Builds the matrix from row-major data (`data[i * links + l] = cᵢˡ`).
    pub fn from_rows(users: usize, links: usize, data: Vec<f64>) -> Result<Self> {
        if users < 2 {
            return Err(GameError::TooFewUsers { n: users });
        }
        if links < 2 {
            return Err(GameError::TooFewLinks { m: links });
        }
        if data.len() != users * links {
            return Err(GameError::StateDimensionMismatch {
                state: 0,
                expected: users * links,
                found: data.len(),
            });
        }
        for (idx, &c) in data.iter().enumerate() {
            check_capacity(idx / links, idx % links, c)?;
        }
        Ok(EffectiveCapacities { users, links, data })
    }

    /// Builds the matrix from a vector of per-user rows.
    pub fn from_user_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        let users = rows.len();
        let links = rows.first().map(Vec::len).unwrap_or(0);
        let mut data = Vec::with_capacity(users * links);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != links {
                return Err(GameError::StateDimensionMismatch {
                    state: i,
                    expected: links,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        EffectiveCapacities::from_rows(users, links, data)
    }

    /// Number of users `n`.
    pub fn users(&self) -> usize {
        self.users
    }

    /// Number of links `m`.
    pub fn links(&self) -> usize {
        self.links
    }

    /// The whole matrix, row-major (`[i * links + l] = cᵢˡ`).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Effective capacity `cᵢˡ` of link `link` as seen by user `user`.
    #[inline]
    pub fn get(&self, user: usize, link: usize) -> f64 {
        self.data[user * self.links + link]
    }

    /// The full row of user `user` (their view of every link).
    #[inline]
    pub fn row(&self, user: usize) -> &[f64] {
        &self.data[user * self.links..(user + 1) * self.links]
    }

    /// Sum of user `user`'s effective capacities over all links (`Σⱼ cᵢʲ`).
    pub fn row_sum(&self, user: usize) -> f64 {
        stable_sum(self.row(user))
    }

    /// The largest effective capacity over all users and links (`c_max`).
    pub fn max(&self) -> f64 {
        self.data.iter().cloned().fold(f64::MIN, f64::max)
    }

    /// The smallest effective capacity over all users and links (`c_min`).
    pub fn min(&self) -> f64 {
        self.data.iter().cloned().fold(f64::MAX, f64::min)
    }

    /// The smallest effective capacity of link `link` over all users
    /// (`cˡ_min = min_i cᵢˡ`, used in Theorem 4.14).
    pub fn link_min(&self, link: usize) -> f64 {
        (0..self.users)
            .map(|i| self.get(i, link))
            .fold(f64::MAX, f64::min)
    }

    /// Whether every user sees the same capacity on every link
    /// (the *uniform user beliefs* model of Section 3.1: `cᵢˡ = cᵢ` for all `ℓ`).
    pub fn is_uniform_per_user(&self, tol: Tolerance) -> bool {
        (0..self.users).all(|i| {
            let first = self.get(i, 0);
            self.row(i).iter().all(|&c| tol.eq(c, first))
        })
    }

    /// Whether all users agree on the capacity of every link
    /// (the complete-information / KP special case: `cᵢˡ = cˡ` for all `i`).
    pub fn is_user_independent(&self, tol: Tolerance) -> bool {
        (0..self.links).all(|l| {
            let first = self.get(0, l);
            (0..self.users).all(|i| tol.eq(self.get(i, l), first))
        })
    }
}

/// Deserialization validates exactly like [`EffectiveCapacities::from_rows`].
impl Deserialize for EffectiveCapacities {
    fn from_value(v: &Value) -> std::result::Result<Self, serde::Error> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for `EffectiveCapacities`"))?;
        EffectiveCapacities::from_rows(
            usize::from_value(get_field(fields, "users")?)?,
            usize::from_value(get_field(fields, "links")?)?,
            Vec::from_value(get_field(fields, "data")?)?,
        )
        .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

/// A capacity must be finite and positive.
fn check_capacity(state: usize, link: usize, value: f64) -> Result<()> {
    if value.is_finite() && value > 0.0 {
        return Ok(());
    }
    Err(GameError::InvalidCapacity { state, link, value })
}

/// A weight must be finite and positive.
fn check_weight(user: usize, value: f64) -> Result<()> {
    if value.is_finite() && value > 0.0 {
        return Ok(());
    }
    Err(GameError::InvalidWeight { user, value })
}

/// A bounded, typed change to an [`EffectiveGame`] — the churn events an
/// equilibrium service repairs against instead of re-solving from scratch.
///
/// Each edit perturbs exactly one user's worth of structure: a join appends
/// one weight and one capacity row, a leave removes one, and a capacity
/// change rewrites a single matrix entry. [`EffectiveGame::apply_edit`]
/// validates the edit against the same invariants as game construction
/// (positive finite values, `n ≥ 2`, indices in range), so an edited game is
/// always a valid game or a typed error — never a panic downstream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GameEdit {
    /// A new user joins with traffic `weight` and their effective-capacity
    /// view `capacities` (one entry per link). The user is appended at
    /// index `n`.
    UserJoins {
        /// Traffic of the joining user (finite, positive).
        weight: f64,
        /// The joining user's effective capacity on each link.
        capacities: Vec<f64>,
    },
    /// User `user` leaves; later users shift down by one index.
    UserLeaves {
        /// Index of the departing user.
        user: usize,
    },
    /// The effective capacity `cᵢˡ` of one `(user, link)` entry changes.
    CapacityChange {
        /// Row of the changed entry.
        user: usize,
        /// Column of the changed entry.
        link: usize,
        /// The new effective capacity (finite, positive).
        capacity: f64,
    },
}

impl GameEdit {
    /// A short tag naming the edit kind (`"join"`, `"leave"`, `"capacity"`),
    /// used in telemetry and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            GameEdit::UserJoins { .. } => "join",
            GameEdit::UserLeaves { .. } => "leave",
            GameEdit::CapacityChange { .. } => "capacity",
        }
    }
}

/// How to undo one in-place [`EffectiveGame::edit`]:
/// [`EffectiveGame::revert`] restores the pre-edit game, kernel rows
/// included, bit for bit.
#[derive(Debug)]
pub struct EditUndo(Undo);

#[derive(Debug)]
enum Undo {
    /// The inverse is an edit: the old capacity, or the joined user's leave.
    Edit(GameEdit),
    /// Re-insert a departed user at their old index.
    Reinsert {
        user: usize,
        weight: f64,
        row: Vec<f64>,
    },
}

/// The reduced form of an uncertain routing game: traffic vector `w` plus the
/// effective-capacity matrix. All algorithms in the crate operate on this type.
///
/// It is also the kernels' form: it owns their derived rows (the
/// reciprocals `1/cᵢℓ` and the weight order), each computed on first use
/// and patched by [`edit`](EffectiveGame::edit). Clones, equality, `Debug`
/// and serde see only the weights and capacities.
pub struct EffectiveGame {
    weights: Vec<f64>,
    capacities: EffectiveCapacities,
    inv_caps: OnceLock<Vec<f64>>,
    order: OnceLock<Vec<usize>>,
}

impl Clone for EffectiveGame {
    fn clone(&self) -> Self {
        EffectiveGame {
            weights: self.weights.clone(),
            capacities: self.capacities.clone(),
            inv_caps: OnceLock::new(),
            order: OnceLock::new(),
        }
    }
}

impl PartialEq for EffectiveGame {
    fn eq(&self, other: &Self) -> bool {
        self.weights == other.weights && self.capacities == other.capacities
    }
}

impl fmt::Debug for EffectiveGame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EffectiveGame")
            .field("weights", &self.weights)
            .field("capacities", &self.capacities)
            .finish()
    }
}

impl Serialize for EffectiveGame {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("weights".to_string(), self.weights.to_value()),
            ("capacities".to_string(), self.capacities.to_value()),
        ])
    }
}

/// Deserialization validates exactly like [`EffectiveGame::new`].
impl Deserialize for EffectiveGame {
    fn from_value(v: &Value) -> std::result::Result<Self, serde::Error> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for `EffectiveGame`"))?;
        EffectiveGame::new(
            Vec::from_value(get_field(fields, "weights")?)?,
            EffectiveCapacities::from_value(get_field(fields, "capacities")?)?,
        )
        .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl EffectiveGame {
    /// Builds an effective game, validating weights against the capacity matrix.
    pub fn new(weights: Vec<f64>, capacities: EffectiveCapacities) -> Result<Self> {
        if weights.len() != capacities.users() {
            return Err(GameError::ProfileDimensionMismatch {
                expected_users: capacities.users(),
                found_users: weights.len(),
            });
        }
        for (user, &w) in weights.iter().enumerate() {
            check_weight(user, w)?;
        }
        Ok(EffectiveGame {
            weights,
            capacities,
            inv_caps: OnceLock::new(),
            order: OnceLock::new(),
        })
    }

    /// Builds an effective game directly from weights and per-user capacity rows.
    pub fn from_rows(weights: Vec<f64>, rows: Vec<Vec<f64>>) -> Result<Self> {
        EffectiveGame::new(weights, EffectiveCapacities::from_user_rows(rows)?)
    }

    /// Number of users `n`.
    pub fn users(&self) -> usize {
        self.weights.len()
    }

    /// Number of links `m`.
    pub fn links(&self) -> usize {
        self.capacities.links()
    }

    /// Traffic `wᵢ` of user `user`.
    #[inline]
    pub fn weight(&self, user: usize) -> f64 {
        self.weights[user]
    }

    /// The full traffic vector `w`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Total traffic `T = Σᵢ wᵢ`.
    pub fn total_traffic(&self) -> f64 {
        stable_sum(&self.weights)
    }

    /// The effective-capacity matrix.
    pub fn capacities(&self) -> &EffectiveCapacities {
        &self.capacities
    }

    /// Effective capacity `cᵢˡ`.
    #[inline]
    pub fn capacity(&self, user: usize, link: usize) -> f64 {
        self.capacities.get(user, link)
    }

    /// Whether all users have (approximately) identical traffic — the
    /// *symmetric users* special case handled by `Asymmetric`.
    pub fn has_identical_weights(&self, tol: Tolerance) -> bool {
        self.weights.iter().all(|&w| tol.eq(w, self.weights[0]))
    }

    /// Whether each user believes all links have the same capacity — the
    /// *uniform user beliefs* special case handled by `Auniform`.
    pub fn has_uniform_beliefs(&self, tol: Tolerance) -> bool {
        self.capacities.is_uniform_per_user(tol)
    }

    /// Whether the game is a complete-information (KP) instance: all users
    /// agree on every link capacity.
    pub fn is_kp_instance(&self, tol: Tolerance) -> bool {
        self.capacities.is_user_independent(tol)
    }

    /// The row-major reciprocals `1/cᵢℓ` the kernels multiply by, derived
    /// once per game.
    pub(crate) fn inv_caps(&self) -> &[f64] {
        self.inv_caps
            .get_or_init(|| self.capacities.data.iter().map(|&c| 1.0 / c).collect())
    }

    /// Users in decreasing weight order, ties by index — the LPT order,
    /// sorted once per game.
    pub(crate) fn weight_order(&self) -> &[usize] {
        self.order.get_or_init(|| {
            let mut order: Vec<usize> = (0..self.users()).collect();
            order.sort_by(|&a, &b| {
                self.weights[b]
                    .partial_cmp(&self.weights[a])
                    .expect("finite weights")
                    .then(a.cmp(&b))
            });
            order
        })
    }

    /// Whether the reciprocal rows have been derived.
    #[cfg(test)]
    pub(crate) fn has_kernel_rows(&self) -> bool {
        self.inv_caps.get().is_some()
    }

    /// Applies one [`GameEdit`], returning the edited game: a clone, then
    /// [`edit`](EffectiveGame::edit). The receiver is untouched — callers
    /// keep the pre-edit game for drift measurements.
    pub fn apply_edit(&self, edit: &GameEdit) -> Result<Self> {
        let mut edited = self.clone();
        edited.edit(edit)?;
        Ok(edited)
    }

    /// Applies one [`GameEdit`] in place and returns how to undo it.
    ///
    /// Validation mirrors construction but checks only the new values (and
    /// indices, and `n ≥ 2` after a leave); a rejected edit changes nothing.
    /// A capacity change rewrites one entry, a join appends one row, and a
    /// leave memmoves its row out, so later users shift down one index and
    /// keep their order. Existing kernel rows are patched, never rebuilt.
    pub fn edit(&mut self, edit: &GameEdit) -> Result<EditUndo> {
        let (n, m) = (self.users(), self.links());
        match edit {
            GameEdit::UserJoins { weight, capacities } => {
                if capacities.len() != m {
                    return Err(GameError::StateDimensionMismatch {
                        state: n,
                        expected: m,
                        found: capacities.len(),
                    });
                }
                for (link, &c) in capacities.iter().enumerate() {
                    check_capacity(n, link, c)?;
                }
                check_weight(n, *weight)?;
                self.insert_user(n, *weight, capacities);
                Ok(EditUndo(Undo::Edit(GameEdit::UserLeaves { user: n })))
            }
            GameEdit::UserLeaves { user } => {
                if *user >= n {
                    return Err(GameError::Precondition {
                        algorithm: "apply_edit",
                        requirement: format!("departing user {user} must be < n = {n}"),
                    });
                }
                if n - 1 < 2 {
                    return Err(GameError::TooFewUsers { n: n - 1 });
                }
                let (weight, row) = self.remove_user(*user);
                Ok(EditUndo(Undo::Reinsert {
                    user: *user,
                    weight,
                    row,
                }))
            }
            GameEdit::CapacityChange {
                user,
                link,
                capacity,
            } => {
                if *user >= n {
                    return Err(GameError::Precondition {
                        algorithm: "apply_edit",
                        requirement: format!("edited user {user} must be < n = {n}"),
                    });
                }
                if *link >= m {
                    return Err(GameError::LinkOutOfRange {
                        user: *user,
                        link: *link,
                        links: m,
                    });
                }
                check_capacity(*user, *link, *capacity)?;
                let old = self.set_capacity(*user, *link, *capacity);
                Ok(EditUndo(Undo::Edit(GameEdit::CapacityChange {
                    user: *user,
                    link: *link,
                    capacity: old,
                })))
            }
        }
    }

    /// Undoes the [`edit`](EffectiveGame::edit) that returned `undo`, which
    /// must be the last edit applied to this game.
    pub fn revert(&mut self, undo: EditUndo) {
        match undo.0 {
            Undo::Edit(inverse) => {
                self.edit(&inverse)
                    .expect("the inverse of an applied edit is valid");
            }
            Undo::Reinsert { user, weight, row } => self.insert_user(user, weight, &row),
        }
    }

    /// Overwrites `cᵢˡ` (and its reciprocal), returning the old value.
    fn set_capacity(&mut self, user: usize, link: usize, capacity: f64) -> f64 {
        let idx = user * self.links() + link;
        if let Some(inv_caps) = self.inv_caps.get_mut() {
            inv_caps[idx] = 1.0 / capacity;
        }
        std::mem::replace(&mut self.capacities.data[idx], capacity)
    }

    /// Inserts a user at index `at`; users from `at` on shift up one index.
    fn insert_user(&mut self, at: usize, weight: f64, row: &[f64]) {
        let span = at * self.links()..at * self.links();
        self.capacities
            .data
            .splice(span.clone(), row.iter().copied());
        self.capacities.users += 1;
        self.weights.insert(at, weight);
        if let Some(inv_caps) = self.inv_caps.get_mut() {
            inv_caps.splice(span, row.iter().map(|&c| 1.0 / c));
        }
        if let Some(order) = self.order.get_mut() {
            for user in order.iter_mut() {
                *user += usize::from(*user >= at);
            }
            let weights = &self.weights;
            let place =
                order.partition_point(|&u| weights[u] > weight || (weights[u] == weight && u < at));
            order.insert(place, at);
        }
    }

    /// Removes user `user`, returning their weight and capacity row; later
    /// users shift down one index.
    fn remove_user(&mut self, user: usize) -> (f64, Vec<f64>) {
        let span = user * self.links()..(user + 1) * self.links();
        let row = self.capacities.data.drain(span.clone()).collect();
        self.capacities.users -= 1;
        let weight = self.weights.remove(user);
        if let Some(inv_caps) = self.inv_caps.get_mut() {
            inv_caps.drain(span);
        }
        if let Some(order) = self.order.get_mut() {
            order.retain_mut(|u| {
                let keep = *u != user;
                *u -= usize::from(*u > user);
                keep
            });
        }
        (weight, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_caps() -> EffectiveCapacities {
        EffectiveCapacities::from_user_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 0.5]])
            .unwrap()
    }

    #[test]
    fn matrix_accessors() {
        let c = simple_caps();
        assert_eq!(c.users(), 3);
        assert_eq!(c.links(), 2);
        assert_eq!(c.get(1, 1), 4.0);
        assert_eq!(c.row(2), &[5.0, 0.5]);
        assert_eq!(c.row_sum(0), 3.0);
        assert_eq!(c.max(), 5.0);
        assert_eq!(c.min(), 0.5);
        assert_eq!(c.link_min(0), 1.0);
        assert_eq!(c.link_min(1), 0.5);
    }

    #[test]
    fn matrix_validation() {
        assert!(EffectiveCapacities::from_rows(2, 2, vec![1.0, 1.0, 1.0]).is_err());
        assert!(EffectiveCapacities::from_rows(2, 2, vec![1.0, 1.0, 1.0, -1.0]).is_err());
        assert!(EffectiveCapacities::from_rows(1, 2, vec![1.0, 1.0]).is_err());
        assert!(EffectiveCapacities::from_rows(2, 1, vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn uniform_and_user_independent_detection() {
        let tol = Tolerance::default();
        let uniform =
            EffectiveCapacities::from_user_rows(vec![vec![2.0, 2.0], vec![5.0, 5.0]]).unwrap();
        assert!(uniform.is_uniform_per_user(tol));
        assert!(!uniform.is_user_independent(tol));

        let kp = EffectiveCapacities::from_user_rows(vec![vec![2.0, 5.0], vec![2.0, 5.0]]).unwrap();
        assert!(kp.is_user_independent(tol));
        assert!(!kp.is_uniform_per_user(tol));

        let both =
            EffectiveCapacities::from_user_rows(vec![vec![3.0, 3.0], vec![3.0, 3.0]]).unwrap();
        assert!(both.is_user_independent(tol) && both.is_uniform_per_user(tol));
    }

    #[test]
    fn effective_game_validation() {
        let caps = simple_caps();
        assert!(EffectiveGame::new(vec![1.0, 2.0], caps.clone()).is_err());
        assert!(EffectiveGame::new(vec![1.0, 2.0, -1.0], caps.clone()).is_err());
        let g = EffectiveGame::new(vec![1.0, 2.0, 3.0], caps).unwrap();
        assert_eq!(g.users(), 3);
        assert_eq!(g.links(), 2);
        assert_eq!(g.total_traffic(), 6.0);
        assert_eq!(g.weight(2), 3.0);
        assert_eq!(g.capacity(2, 1), 0.5);
    }

    #[test]
    fn special_case_predicates() {
        let tol = Tolerance::default();
        let g =
            EffectiveGame::from_rows(vec![1.0, 1.0], vec![vec![2.0, 3.0], vec![4.0, 5.0]]).unwrap();
        assert!(g.has_identical_weights(tol));
        assert!(!g.has_uniform_beliefs(tol));
        assert!(!g.is_kp_instance(tol));

        let kp =
            EffectiveGame::from_rows(vec![1.0, 2.0], vec![vec![2.0, 3.0], vec![2.0, 3.0]]).unwrap();
        assert!(kp.is_kp_instance(tol));
    }

    #[test]
    fn apply_edit_join_appends_one_user() {
        let g =
            EffectiveGame::from_rows(vec![1.0, 2.0], vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let edited = g
            .apply_edit(&GameEdit::UserJoins {
                weight: 5.0,
                capacities: vec![6.0, 7.0],
            })
            .unwrap();
        assert_eq!(edited.users(), 3);
        assert_eq!(edited.weights(), &[1.0, 2.0, 5.0]);
        assert_eq!(edited.capacities().row(2), &[6.0, 7.0]);
        // The original is untouched.
        assert_eq!(g.users(), 2);
        // Invalid joins are typed errors.
        assert!(g
            .apply_edit(&GameEdit::UserJoins {
                weight: -1.0,
                capacities: vec![1.0, 1.0],
            })
            .is_err());
        assert!(g
            .apply_edit(&GameEdit::UserJoins {
                weight: 1.0,
                capacities: vec![1.0],
            })
            .is_err());
        assert!(g
            .apply_edit(&GameEdit::UserJoins {
                weight: 1.0,
                capacities: vec![1.0, 0.0],
            })
            .is_err());
    }

    #[test]
    fn apply_edit_leave_shifts_later_users_down() {
        let g = EffectiveGame::from_rows(
            vec![1.0, 2.0, 3.0],
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
        )
        .unwrap();
        let edited = g.apply_edit(&GameEdit::UserLeaves { user: 1 }).unwrap();
        assert_eq!(edited.users(), 2);
        assert_eq!(edited.weights(), &[1.0, 3.0]);
        assert_eq!(edited.capacities().row(1), &[5.0, 6.0]);
        // Leaving below n = 2 or naming a missing user is a typed error.
        assert!(edited
            .apply_edit(&GameEdit::UserLeaves { user: 0 })
            .is_err());
        assert!(g.apply_edit(&GameEdit::UserLeaves { user: 3 }).is_err());
    }

    #[test]
    fn apply_edit_capacity_rewrites_one_entry() {
        let g =
            EffectiveGame::from_rows(vec![1.0, 2.0], vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let edited = g
            .apply_edit(&GameEdit::CapacityChange {
                user: 1,
                link: 0,
                capacity: 9.0,
            })
            .unwrap();
        assert_eq!(edited.capacity(1, 0), 9.0);
        assert_eq!(edited.capacity(0, 0), 1.0);
        assert_eq!(edited.capacity(1, 1), 4.0);
        for bad in [
            GameEdit::CapacityChange {
                user: 2,
                link: 0,
                capacity: 1.0,
            },
            GameEdit::CapacityChange {
                user: 0,
                link: 2,
                capacity: 1.0,
            },
            GameEdit::CapacityChange {
                user: 0,
                link: 0,
                capacity: f64::NAN,
            },
        ] {
            assert!(g.apply_edit(&bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(GameEdit::UserLeaves { user: 0 }.kind(), "leave");
        assert_eq!(
            GameEdit::CapacityChange {
                user: 0,
                link: 0,
                capacity: 1.0
            }
            .kind(),
            "capacity"
        );
    }
}
