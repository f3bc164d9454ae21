//! Greedy / LPT Nashification for the KP model.
//!
//! Users are processed in decreasing order of traffic; each is assigned to the
//! link minimising its completion time given the users already placed. For
//! related links this produces a pure Nash equilibrium (Fotakis et al., the
//! algorithm the paper's `Auniform` is modelled on), and for identical links
//! it is exactly Graham's LPT schedule.

use netuncert_core::equilibrium::is_pure_nash;
use netuncert_core::numeric::Tolerance;
use netuncert_core::opt::lpt_profile;
use netuncert_core::strategy::{LinkLoads, PureProfile};

use crate::game::KpGame;

/// Runs greedy/LPT and returns the resulting pure profile (a Nash equilibrium
/// of the KP game): core's [`lpt_profile`] on the game's effective form, from
/// zero initial traffic.
pub fn lpt_assignment(game: &KpGame) -> PureProfile {
    lpt_profile(&game.to_effective_game(), &LinkLoads::zero(game.links()))
}

/// Nashifies an arbitrary profile by best-response moves (largest-weight user
/// first), without increasing the maximum congestion beyond its start value by
/// more than the moves themselves allow. Returns the profile and move count.
pub fn nashify(game: &KpGame, start: PureProfile, max_steps: usize) -> (PureProfile, usize) {
    let eg = game.to_effective_game();
    let t = LinkLoads::zero(game.links());
    let tol = Tolerance::default();
    let dynamics = netuncert_core::algorithms::best_response::BestResponseDynamics {
        max_steps,
        rule: netuncert_core::algorithms::best_response::SelectionRule::LargestGain,
    };
    let outcome = dynamics.run(&eg, &t, start, tol);
    (outcome.profile().clone(), outcome.steps())
}

/// Convenience check that a profile is a pure Nash equilibrium of the KP game.
pub fn is_kp_pure_nash(game: &KpGame, profile: &PureProfile) -> bool {
    let eg = game.to_effective_game();
    is_pure_nash(
        &eg,
        profile,
        &LinkLoads::zero(game.links()),
        Tolerance::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_on_identical_links_is_grahams_schedule() {
        let g = KpGame::new(vec![5.0, 4.0, 3.0, 3.0, 2.0, 1.0], vec![1.0, 1.0]).unwrap();
        let p = lpt_assignment(&g);
        assert!(is_kp_pure_nash(&g, &p));
        let loads = p.link_loads(&g.to_effective_game(), &LinkLoads::zero(2));
        // LPT on these jobs gives a 9/9 split.
        assert!((loads[0] - 9.0).abs() < 1e-12 && (loads[1] - 9.0).abs() < 1e-12);
    }

    #[test]
    fn lpt_is_nash_on_related_links() {
        let mut state: u64 = 42;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) + 0.05
        };
        for n in 2..=12 {
            for m in 2..=4 {
                let weights: Vec<f64> = (0..n).map(|_| next() * 5.0).collect();
                let caps: Vec<f64> = (0..m).map(|_| next() * 3.0).collect();
                let g = KpGame::new(weights, caps).unwrap();
                let p = lpt_assignment(&g);
                assert!(is_kp_pure_nash(&g, &p), "LPT not a NE for n={n} m={m}");
            }
        }
    }

    #[test]
    fn nashify_fixes_arbitrary_profiles() {
        let g = KpGame::new(vec![3.0, 1.0, 2.0, 5.0], vec![1.0, 2.0, 0.5]).unwrap();
        let bad = PureProfile::all_on(4, 2);
        assert!(!is_kp_pure_nash(&g, &bad));
        let (fixed, steps) = nashify(&g, bad, 10_000);
        assert!(is_kp_pure_nash(&g, &fixed));
        assert!(steps > 0);
    }

    #[test]
    fn nashify_leaves_equilibria_untouched() {
        let g = KpGame::new(vec![1.0, 1.0], vec![1.0, 1.0]).unwrap();
        let ne = PureProfile::new(vec![0, 1]);
        assert!(is_kp_pure_nash(&g, &ne));
        let (fixed, steps) = nashify(&g, ne.clone(), 100);
        assert_eq!(fixed, ne);
        assert_eq!(steps, 0);
    }
}
