//! Potential-function analysis (Section 3.2).
//!
//! The paper reports that the game is *not* an exact potential game and — by
//! an observation of B. Monien — not an ordinal potential game either, because
//! some instance's state space contains an improvement cycle. Consequently the
//! standard potential-function technique cannot settle Conjecture 3.7. This
//! module provides the machinery used to reproduce those observations:
//!
//! * [`exact_potential_violation`] checks the Monderer–Shapley four-cycle
//!   condition that characterises exact potential games;
//! * [`find_improvement_cycle`] searches the better-response game graph for a
//!   cycle (its absence is equivalent to the finite improvement property and
//!   hence to the existence of a generalized ordinal potential);
//! * [`find_best_response_cycle`] restricts the search to best-response moves,
//!   the notion used in the paper's `n = 3` existence argument.

use std::ops::ControlFlow;

use serde::{Deserialize, Serialize};

use crate::error::Result;
use crate::game_graph::{EdgeKind, GameGraph};
use crate::latency::pure_user_latency;
use crate::model::EffectiveGame;
use crate::numeric::Tolerance;
use crate::solvers::exhaustive::{ensure_within_limit, try_for_each_profile};
use crate::strategy::{LinkLoads, PureProfile};

/// A witness that the Monderer–Shapley exact-potential condition fails.
///
/// For an exact potential game, for every profile `σ`, every pair of users
/// `i ≠ j` and every pair of alternative links `a` (for `i`) and `b` (for `j`),
/// the total latency change around the four-cycle
/// `σ → σ[i→a] → σ[i→a, j→b] → σ[j→b] → σ` must be zero. The witness records a
/// four-cycle where it is not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PotentialViolation {
    /// The base profile `σ`.
    pub base: PureProfile,
    /// The first deviating user `i` and its alternative link `a`.
    pub first: (usize, usize),
    /// The second deviating user `j` and its alternative link `b`.
    pub second: (usize, usize),
    /// The (non-zero) sum of latency changes around the cycle.
    pub cycle_sum: f64,
}

/// Searches for a violation of the exact-potential four-cycle condition.
///
/// Returns `Ok(None)` when the condition holds on every four-cycle (the game
/// admits an exact potential), and a witness otherwise.
///
/// # Errors
/// Fails when the profile space exceeds `limit`.
pub fn exact_potential_violation(
    game: &EffectiveGame,
    initial: &LinkLoads,
    tol: Tolerance,
    limit: u128,
) -> Result<Option<PotentialViolation>> {
    ensure_within_limit(game, limit)?;
    let n = game.users();
    let m = game.links();
    Ok(try_for_each_profile(n, m, |sigma| {
        for i in 0..n {
            for j in (i + 1)..n {
                for a in 0..m {
                    if a == sigma.link(i) {
                        continue;
                    }
                    for b in 0..m {
                        if b == sigma.link(j) {
                            continue;
                        }
                        let s1 = sigma.with_move(i, a);
                        let s2 = s1.with_move(j, b);
                        let s3 = sigma.with_move(j, b);
                        // Latency change of the deviating user along each edge,
                        // traversing the cycle σ -> s1 -> s2 -> s3 -> σ.
                        let d1 = pure_user_latency(game, &s1, initial, i)
                            - pure_user_latency(game, sigma, initial, i);
                        let d2 = pure_user_latency(game, &s2, initial, j)
                            - pure_user_latency(game, &s1, initial, j);
                        let d3 = pure_user_latency(game, &s3, initial, i)
                            - pure_user_latency(game, &s2, initial, i);
                        let d4 = pure_user_latency(game, sigma, initial, j)
                            - pure_user_latency(game, &s3, initial, j);
                        let cycle_sum = d1 + d2 + d3 + d4;
                        if !tol.is_zero(cycle_sum) {
                            return ControlFlow::Break(PotentialViolation {
                                base: sigma.clone(),
                                first: (i, a),
                                second: (j, b),
                                cycle_sum,
                            });
                        }
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }))
}

/// Whether the game admits an exact potential function (no four-cycle violation).
///
/// # Errors
/// Fails when the profile space exceeds `limit`.
pub fn is_exact_potential_game(
    game: &EffectiveGame,
    initial: &LinkLoads,
    tol: Tolerance,
    limit: u128,
) -> Result<bool> {
    Ok(exact_potential_violation(game, initial, tol, limit)?.is_none())
}

/// Searches the better-response game graph for an improvement cycle.
///
/// # Errors
/// Fails when the profile space exceeds `limit`.
pub fn find_improvement_cycle(
    game: &EffectiveGame,
    initial: &LinkLoads,
    tol: Tolerance,
    limit: u128,
) -> Result<Option<Vec<PureProfile>>> {
    let graph = GameGraph::build(game, initial, EdgeKind::BetterResponse, tol, limit)?;
    Ok(graph.find_cycle())
}

/// Searches the best-response game graph for a best-response cycle.
///
/// # Errors
/// Fails when the profile space exceeds `limit`.
pub fn find_best_response_cycle(
    game: &EffectiveGame,
    initial: &LinkLoads,
    tol: Tolerance,
    limit: u128,
) -> Result<Option<Vec<PureProfile>>> {
    let graph = GameGraph::build(game, initial, EdgeKind::BestResponse, tol, limit)?;
    Ok(graph.find_cycle())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kp_instances_admit_an_exact_potential_up_to_weighted_asymmetry() {
        // Unweighted users on user-independent links form a classic congestion
        // game, which is an exact potential game; the four-cycle condition
        // must hold.
        let g = EffectiveGame::from_rows(
            vec![1.0, 1.0, 1.0],
            vec![vec![1.0, 2.0], vec![1.0, 2.0], vec![1.0, 2.0]],
        )
        .unwrap();
        let t = LinkLoads::zero(2);
        let tol = Tolerance::default();
        assert!(is_exact_potential_game(&g, &t, tol, 10_000).unwrap());
    }

    #[test]
    fn user_specific_beliefs_typically_break_exact_potentials() {
        // The paper's observation: with genuinely user-specific effective
        // capacities the game is not an exact potential game.
        let g =
            EffectiveGame::from_rows(vec![1.0, 2.0], vec![vec![1.0, 3.0], vec![2.0, 1.0]]).unwrap();
        let t = LinkLoads::zero(2);
        let tol = Tolerance::default();
        let violation = exact_potential_violation(&g, &t, tol, 10_000).unwrap();
        assert!(violation.is_some(), "expected a four-cycle violation");
        let v = violation.unwrap();
        assert!(v.cycle_sum.abs() > 1e-9);
        assert!(!is_exact_potential_game(&g, &t, tol, 10_000).unwrap());
    }

    #[test]
    fn weighted_users_on_identical_views_still_violate_exact_potential() {
        // Even with user-independent capacities, *weighted* users generally do
        // not admit an exact potential with these latency functions.
        let g =
            EffectiveGame::from_rows(vec![1.0, 3.0], vec![vec![1.0, 2.0], vec![1.0, 2.0]]).unwrap();
        let t = LinkLoads::zero(2);
        let tol = Tolerance::default();
        assert!(exact_potential_violation(&g, &t, tol, 10_000)
            .unwrap()
            .is_some());
    }

    #[test]
    fn two_user_games_have_no_improvement_cycles() {
        // Improvement paths strictly decrease the mover's latency; with two
        // users and two links the graph is tiny and acyclic for generic
        // instances.
        let g =
            EffectiveGame::from_rows(vec![1.0, 2.0], vec![vec![1.0, 3.0], vec![2.0, 1.0]]).unwrap();
        let t = LinkLoads::zero(2);
        let tol = Tolerance::default();
        assert!(find_improvement_cycle(&g, &t, tol, 10_000)
            .unwrap()
            .is_none());
        assert!(find_best_response_cycle(&g, &t, tol, 10_000)
            .unwrap()
            .is_none());
    }

    #[test]
    fn size_limit_is_enforced() {
        let g =
            EffectiveGame::from_rows(vec![1.0, 2.0], vec![vec![1.0, 3.0], vec![2.0, 1.0]]).unwrap();
        let t = LinkLoads::zero(2);
        let tol = Tolerance::default();
        assert!(exact_potential_violation(&g, &t, tol, 2).is_err());
        assert!(find_improvement_cycle(&g, &t, tol, 2).is_err());
    }
}
