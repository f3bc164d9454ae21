//! Best-response dynamics for the general model.
//!
//! The paper conjectures (Conjecture 3.7) that every game in the model has a
//! pure Nash equilibrium, and reports that simulations on numerous instances
//! support it. This module provides the dynamics used in those simulations:
//! starting from an arbitrary pure profile, repeatedly let a defecting user
//! move to its best-response link until no user wants to move (or a step
//! budget is exhausted).

use serde::{Deserialize, Serialize};

use crate::model::EffectiveGame;
use crate::numeric::Tolerance;
use crate::solvers::kernel::{run_to_completion, BestResponseRun, BrStart, KernelScratch};
use crate::strategy::{LinkLoads, PureProfile};

/// How the next defecting user is selected at each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectionRule {
    /// Scan users in a fixed round-robin order and move the first defector.
    RoundRobin,
    /// Among all defectors, move the one with the largest latency improvement.
    LargestGain,
}

/// Result of running the dynamics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// The dynamics reached a pure Nash equilibrium.
    Converged {
        /// The equilibrium profile.
        profile: PureProfile,
        /// Number of individual moves performed.
        steps: usize,
    },
    /// The step budget ran out before reaching an equilibrium. (Under
    /// Conjecture 3.7 this indicates the budget was too small, not that no
    /// equilibrium exists.)
    StepLimit {
        /// The last profile visited.
        profile: PureProfile,
        /// Number of moves performed (equal to the budget).
        steps: usize,
    },
}

impl Outcome {
    /// The profile the dynamics ended at, equilibrium or not.
    pub fn profile(&self) -> &PureProfile {
        match self {
            Outcome::Converged { profile, .. } | Outcome::StepLimit { profile, .. } => profile,
        }
    }

    /// Number of moves performed.
    pub fn steps(&self) -> usize {
        match self {
            Outcome::Converged { steps, .. } | Outcome::StepLimit { steps, .. } => *steps,
        }
    }

    /// Whether an equilibrium was reached.
    pub fn converged(&self) -> bool {
        matches!(self, Outcome::Converged { .. })
    }
}

/// Configuration for [`run`](BestResponseDynamics::run).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BestResponseDynamics {
    /// Maximum number of individual moves before giving up.
    pub max_steps: usize,
    /// Defector selection rule.
    pub rule: SelectionRule,
}

impl Default for BestResponseDynamics {
    fn default() -> Self {
        BestResponseDynamics {
            max_steps: 100_000,
            rule: SelectionRule::RoundRobin,
        }
    }
}

impl BestResponseDynamics {
    /// Runs the dynamics from `start`.
    ///
    /// The hot loop is the SoA [`BestResponseRun`] kernel: link loads are
    /// maintained incrementally on flat rows (the accessor-based primitives
    /// recomputed them from scratch for every link query), and every
    /// convergence claim is still certified by the canonical predicate.
    pub fn run(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        start: PureProfile,
        tol: Tolerance,
    ) -> Outcome {
        self.run_kernel(game, initial, BrStart::Profile(start), tol)
    }

    /// Runs the dynamics from the greedy starting profile: users inserted
    /// in index order, each on the link that currently minimises its
    /// latency given the users already placed (the kernel's index-order
    /// greedy start, the one [`BestResponse`](crate::solvers::engine::BestResponse)
    /// solver uses).
    pub fn run_from_greedy(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        tol: Tolerance,
    ) -> Outcome {
        self.run_kernel(game, initial, BrStart::Greedy, tol)
    }

    fn run_kernel(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        start: BrStart,
        tol: Tolerance,
    ) -> Outcome {
        let mut scratch = KernelScratch::new();
        let mut run = BestResponseRun::new(
            game,
            initial,
            start,
            self.max_steps as u64,
            matches!(self.rule, SelectionRule::LargestGain),
            tol,
        );
        let detail = run_to_completion(&mut run, &mut scratch);
        let steps = run.steps() as usize;
        match detail.solution {
            Some(solution) => Outcome::Converged {
                profile: solution.profile,
                steps,
            },
            None => Outcome::StepLimit {
                profile: run.into_profile(),
                steps,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::is_pure_nash;

    fn messy_game() -> EffectiveGame {
        EffectiveGame::from_rows(
            vec![3.0, 1.0, 2.0, 5.0],
            vec![
                vec![2.0, 2.5, 1.0],
                vec![1.0, 4.0, 2.0],
                vec![3.0, 3.0, 0.5],
                vec![0.5, 6.0, 2.0],
            ],
        )
        .unwrap()
    }

    #[test]
    fn dynamics_converge_on_fixed_instance_from_any_corner() {
        let g = messy_game();
        let t = LinkLoads::zero(3);
        let tol = Tolerance::default();
        let dynamics = BestResponseDynamics::default();
        for link in 0..3 {
            let start = PureProfile::all_on(4, link);
            let outcome = dynamics.run(&g, &t, start, tol);
            assert!(outcome.converged(), "did not converge from corner {link}");
            assert!(is_pure_nash(&g, outcome.profile(), &t, tol));
        }
    }

    #[test]
    fn both_selection_rules_reach_equilibria() {
        let g = messy_game();
        let t = LinkLoads::zero(3);
        let tol = Tolerance::default();
        for rule in [SelectionRule::RoundRobin, SelectionRule::LargestGain] {
            let dynamics = BestResponseDynamics {
                max_steps: 10_000,
                rule,
            };
            let outcome = dynamics.run(&g, &t, PureProfile::all_on(4, 0), tol);
            assert!(outcome.converged());
            assert!(is_pure_nash(&g, outcome.profile(), &t, tol));
        }
    }

    #[test]
    fn converged_profile_from_equilibrium_start_takes_zero_steps() {
        let g = EffectiveGame::from_rows(vec![1.0, 1.0], vec![vec![10.0, 1.0], vec![1.0, 10.0]])
            .unwrap();
        let t = LinkLoads::zero(2);
        let tol = Tolerance::default();
        let start = PureProfile::new(vec![0, 1]);
        let outcome = BestResponseDynamics::default().run(&g, &t, start.clone(), tol);
        assert_eq!(outcome.steps(), 0);
        assert_eq!(outcome.profile(), &start);
    }

    #[test]
    fn greedy_profile_is_often_already_good() {
        let g = messy_game();
        let t = LinkLoads::zero(3);
        let tol = Tolerance::default();
        let outcome = BestResponseDynamics::default().run_from_greedy(&g, &t, tol);
        assert!(outcome.converged());
        // The greedy start should need only a handful of fixes.
        assert!(
            outcome.steps() <= 8,
            "greedy start took {} steps",
            outcome.steps()
        );
    }

    #[test]
    fn step_limit_is_honoured() {
        let g = messy_game();
        let t = LinkLoads::zero(3);
        let tol = Tolerance::default();
        let dynamics = BestResponseDynamics {
            max_steps: 0,
            rule: SelectionRule::RoundRobin,
        };
        let outcome = dynamics.run(&g, &t, PureProfile::all_on(4, 0), tol);
        // With zero budget the outcome depends on whether the start is an
        // equilibrium; "all on link 0" is not for this instance.
        assert!(!outcome.converged());
        assert_eq!(outcome.steps(), 0);
    }
}
