//! Pure Nash equilibrium algorithms (Section 3 of the paper).
//!
//! * [`two_links`] — `Atwolinks` (Figure 1): any weights, `m = 2`, `O(n²)`.
//! * [`symmetric`] — `Asymmetric` (Figure 2): identical weights, any `m`, `O(n²m)`.
//! * [`uniform`] — `Auniform` (Figure 3): uniform user beliefs, `O(n(log n + m))`.
//! * [`best_response`] — best-response dynamics used to probe Conjecture 3.7.
//!
//! The unified [`SolverEngine`](crate::solvers::engine::SolverEngine)
//! orchestrates all of the above behind the
//! [`Solver`](crate::solvers::engine::Solver) trait.

pub mod best_response;
pub mod symmetric;
pub mod two_links;
pub mod uniform;

use serde::{Deserialize, Serialize};

use crate::strategy::PureProfile;

/// Which method produced a pure Nash equilibrium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PureNashMethod {
    /// `Atwolinks` (Figure 1) — the game has two links.
    TwoLinks,
    /// `Asymmetric` (Figure 2) — the users are symmetric.
    Symmetric,
    /// `Auniform` (Figure 3) — the beliefs are uniform per user.
    UniformBeliefs,
    /// Best-response dynamics converged.
    BestResponse,
    /// Multi-restart local search with smart starts and annealed tie-breaking.
    LocalSearch,
    /// Exhaustive enumeration of all pure profiles.
    Exhaustive,
}

impl PureNashMethod {
    /// The stable registry id of this method: the CLI's `--solvers` names
    /// and the serve wire's `method` field.
    pub fn id(self) -> &'static str {
        match self {
            PureNashMethod::TwoLinks => "two_links",
            PureNashMethod::Symmetric => "symmetric",
            PureNashMethod::UniformBeliefs => "uniform",
            PureNashMethod::BestResponse => "best_response",
            PureNashMethod::LocalSearch => "local_search",
            PureNashMethod::Exhaustive => "exhaustive",
        }
    }
}

/// A pure Nash equilibrium together with the method that found it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PureNashSolution {
    /// The equilibrium profile.
    pub profile: PureProfile,
    /// The algorithm that produced it.
    pub method: PureNashMethod,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::is_pure_nash;
    use crate::model::EffectiveGame;
    use crate::numeric::Tolerance;
    use crate::solvers::engine::{SolverConfig, SolverEngine};
    use crate::strategy::LinkLoads;

    #[test]
    fn dispatcher_picks_two_links_algorithm() {
        let g = EffectiveGame::from_rows(
            vec![1.0, 2.0, 3.0],
            vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![1.5, 1.5]],
        )
        .unwrap();
        let t = LinkLoads::zero(2);
        let sol = SolverEngine::paper_order(SolverConfig::with_tol(Tolerance::default()))
            .solve(&g, &t)
            .unwrap()
            .solution
            .unwrap();
        assert_eq!(sol.method, PureNashMethod::TwoLinks);
        assert!(is_pure_nash(&g, &sol.profile, &t, Tolerance::default()));
    }

    #[test]
    fn dispatcher_picks_symmetric_algorithm() {
        let g = EffectiveGame::from_rows(
            vec![2.0, 2.0, 2.0],
            vec![
                vec![1.0, 2.0, 3.0],
                vec![3.0, 2.0, 1.0],
                vec![2.0, 1.0, 3.0],
            ],
        )
        .unwrap();
        let t = LinkLoads::zero(3);
        let sol = SolverEngine::paper_order(SolverConfig::with_tol(Tolerance::default()))
            .solve(&g, &t)
            .unwrap()
            .solution
            .unwrap();
        assert_eq!(sol.method, PureNashMethod::Symmetric);
        assert!(is_pure_nash(&g, &sol.profile, &t, Tolerance::default()));
    }

    #[test]
    fn dispatcher_picks_uniform_algorithm() {
        let g = EffectiveGame::from_rows(
            vec![3.0, 2.0, 1.0],
            vec![
                vec![1.0, 1.0, 1.0],
                vec![2.0, 2.0, 2.0],
                vec![0.5, 0.5, 0.5],
            ],
        )
        .unwrap();
        let t = LinkLoads::zero(3);
        let sol = SolverEngine::paper_order(SolverConfig::with_tol(Tolerance::default()))
            .solve(&g, &t)
            .unwrap()
            .solution
            .unwrap();
        assert_eq!(sol.method, PureNashMethod::UniformBeliefs);
        assert!(is_pure_nash(&g, &sol.profile, &t, Tolerance::default()));
    }

    #[test]
    fn dispatcher_falls_back_to_best_response_for_general_games() {
        let g = EffectiveGame::from_rows(
            vec![3.0, 1.0, 2.0, 5.0],
            vec![
                vec![2.0, 2.5, 1.0],
                vec![1.0, 4.0, 2.0],
                vec![3.0, 3.0, 0.5],
                vec![0.5, 6.0, 2.0],
            ],
        )
        .unwrap();
        let t = LinkLoads::zero(3);
        let sol = SolverEngine::paper_order(SolverConfig::with_tol(Tolerance::default()))
            .solve(&g, &t)
            .unwrap()
            .solution
            .unwrap();
        assert!(matches!(
            sol.method,
            PureNashMethod::BestResponse | PureNashMethod::Exhaustive
        ));
        assert!(is_pure_nash(&g, &sol.profile, &t, Tolerance::default()));
    }
}
