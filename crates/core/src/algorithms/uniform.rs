//! `Auniform` (Figure 3, Theorem 3.6): a pure Nash equilibrium under the
//! *uniform user beliefs* model — every user believes all links have equal
//! capacity — in `O(n (log n + m))` time.
//!
//! The algorithm is a variant of Graham's LPT rule: users are processed in
//! decreasing order of traffic and each is placed on the link with the lowest
//! current load (initial traffic included).

use crate::error::{GameError, Result};
use crate::model::EffectiveGame;
use crate::numeric::Tolerance;
use crate::strategy::{LinkLoads, PureProfile};

fn precondition(game: &EffectiveGame, initial: &LinkLoads, tol: Tolerance) -> Result<()> {
    if !game.has_uniform_beliefs(tol) {
        return Err(GameError::Precondition {
            algorithm: "Auniform",
            requirement: "every user must see the same capacity on all links (uniform beliefs)"
                .to_string(),
        });
    }
    if initial.links() != game.links() {
        return Err(GameError::InvalidInitialTraffic {
            reason: format!(
                "expected {} entries, found {}",
                game.links(),
                initial.links()
            ),
        });
    }
    Ok(())
}

/// Runs `Auniform` and returns a pure Nash equilibrium of `game` with initial
/// traffic `initial`.
///
/// # Errors
/// Fails if some user's effective capacities differ across links, or the
/// initial-traffic vector has the wrong dimension.
pub fn solve(game: &EffectiveGame, initial: &LinkLoads, tol: Tolerance) -> Result<PureProfile> {
    precondition(game, initial, tol)?;
    let n = game.users();
    let m = game.links();

    // Step 3: process users in decreasing order of weight (ties by index so
    // the algorithm is deterministic).
    let mut loads = initial.clone();
    let mut assignment = vec![0usize; n];
    for &user in game.weight_order() {
        // Step 4(a): the preferred link minimises (w_k + tʲ)/c_k; with uniform
        // beliefs c_k is link-independent, so this is the least-loaded link,
        // but we evaluate the full expression for faithfulness.
        let w = game.weight(user);
        let mut best = 0usize;
        let mut best_cost = f64::INFINITY;
        for link in 0..m {
            let cost = (w + loads.load(link)) / game.capacity(user, link);
            if cost < best_cost {
                best_cost = cost;
                best = link;
            }
        }
        assignment[user] = best;
        loads.add(best, w);
    }

    Ok(PureProfile::new(assignment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::is_pure_nash;

    fn uniform_game(weights: Vec<f64>, per_user_capacity: Vec<f64>, links: usize) -> EffectiveGame {
        let rows = per_user_capacity.iter().map(|&c| vec![c; links]).collect();
        EffectiveGame::from_rows(weights, rows).unwrap()
    }

    fn check_nash(game: &EffectiveGame, initial: &LinkLoads) -> PureProfile {
        let tol = Tolerance::default();
        let profile = solve(game, initial, tol).expect("solver should succeed");
        assert!(
            is_pure_nash(game, &profile, initial, tol),
            "Auniform returned a non-equilibrium profile {:?}",
            profile.choices()
        );
        profile
    }

    #[test]
    fn rejects_non_uniform_beliefs() {
        let g =
            EffectiveGame::from_rows(vec![1.0, 1.0], vec![vec![1.0, 2.0], vec![1.0, 1.0]]).unwrap();
        assert!(matches!(
            solve(&g, &LinkLoads::zero(2), Tolerance::default()),
            Err(GameError::Precondition {
                algorithm: "Auniform",
                ..
            })
        ));
    }

    #[test]
    fn rejects_wrong_initial_traffic_dimension() {
        let g = uniform_game(vec![1.0, 1.0], vec![1.0, 1.0], 2);
        assert!(solve(&g, &LinkLoads::zero(3), Tolerance::default()).is_err());
    }

    #[test]
    fn lpt_balances_identical_users() {
        let g = uniform_game(vec![1.0; 4], vec![2.0; 4], 2);
        let p = check_nash(&g, &LinkLoads::zero(2));
        let loads = p.link_loads(&g, &LinkLoads::zero(2));
        assert_eq!(loads, vec![2.0, 2.0]);
    }

    #[test]
    fn heavy_users_get_spread_first() {
        // Weights 5, 4, 3, 3, 2, 1 on two links: LPT puts 5+3+1 vs 4+3+2 (or a
        // comparable balanced split).
        let g = uniform_game(vec![5.0, 4.0, 3.0, 3.0, 2.0, 1.0], vec![1.0; 6], 2);
        let p = check_nash(&g, &LinkLoads::zero(2));
        let loads = p.link_loads(&g, &LinkLoads::zero(2));
        assert!(
            (loads[0] - loads[1]).abs() <= 1.0 + 1e-12,
            "LPT split too unbalanced: {loads:?}"
        );
    }

    #[test]
    fn initial_traffic_is_respected() {
        let g = uniform_game(vec![1.0, 1.0], vec![1.0, 1.0], 2);
        let initial = LinkLoads::new(vec![5.0, 0.0]).unwrap();
        let p = check_nash(&g, &initial);
        assert_eq!(p.link(0), 1);
        assert_eq!(p.link(1), 1);
    }

    #[test]
    fn per_user_capacity_scale_does_not_change_assignment() {
        // Each user's capacity scales all its latencies equally, so the
        // assignment only depends on loads.
        let g1 = uniform_game(vec![3.0, 2.0, 1.0], vec![1.0, 1.0, 1.0], 3);
        let g2 = uniform_game(vec![3.0, 2.0, 1.0], vec![10.0, 0.1, 5.0], 3);
        let p1 = check_nash(&g1, &LinkLoads::zero(3));
        let p2 = check_nash(&g2, &LinkLoads::zero(3));
        assert_eq!(p1.choices(), p2.choices());
    }

    #[test]
    fn pseudo_random_sweep_always_yields_equilibrium() {
        let mut state: u64 = 0x1234567890ABCDEF;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) + 0.05
        };
        for n in 2..=12 {
            for m in 2..=4 {
                let weights: Vec<f64> = (0..n).map(|_| next() * 4.0).collect();
                let caps: Vec<f64> = (0..n).map(|_| next() * 5.0).collect();
                let g = uniform_game(weights, caps, m);
                let initial = LinkLoads::new((0..m).map(|_| next() * 2.0).collect()).unwrap();
                check_nash(&g, &initial);
            }
        }
    }
}
