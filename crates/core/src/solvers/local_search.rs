//! Seeded multi-restart local search for huge games.
//!
//! `BestResponse` and `Exhaustive` cap the `(n, m)` regime the experiments
//! can explore: exhaustive enumeration dies at `mⁿ`, and the generic
//! best-response primitives recompute link loads from scratch on every
//! latency query (`O(n)` per link, `O(n²m)` per sweep), which hurts at
//! `n = 512`. This module provides [`LocalSearch`], a heuristic backend
//! built for that regime:
//!
//! * **Incremental descent.** Link loads are maintained incrementally, so a
//!   full improvement pass over all users costs `O(nm)` instead of `O(n²m)`.
//!   Loads are re-accumulated from the profile at the start of every pass,
//!   which bounds floating-point drift to a single pass.
//! * **A portfolio of smart starts.** Restart `r` draws from: LPT-style
//!   greedy (users in decreasing weight order, each on its latency-minimal
//!   link), index-order greedy, load-balanced (least total weight,
//!   capacity-blind), uniform spread (`user i → link i mod m`), then
//!   seeded random perturbations of the LPT start. The kernel start
//!   builders ([`kernel`](crate::solvers::kernel)) are the one
//!   multiply-by-reciprocal copy of this portfolio; the OPT side builds the
//!   same four starts divide-form in `opt::greedy`, where bounds must keep
//!   their recorded bits.
//! * **Annealed tie-breaking.** Early restarts begin with a randomised phase
//!   (any strictly improving link may be chosen, ties broken by a seeded
//!   `SplitMix64` stream); the phase length halves with every restart, so
//!   later restarts are pure steepest-descent. Everything is derived from
//!   [`SolverConfig::ls_seed`] and the restart index — never from global
//!   state — so results are bit-identical across thread counts and shards.
//! * **Certified answers.** A profile is only returned after
//!   [`is_pure_nash`](crate::equilibrium::is_pure_nash) —
//!   the same predicate the differential harness and the
//!   experiments use — confirms it. A convergence claim can therefore never
//!   outrun the equilibrium checker: if the incremental pass and the
//!   canonical predicate ever disagree (a tolerance-boundary artefact), the
//!   solver takes a canonical best-response move and keeps descending.
//!
//! Budgets: at most [`SolverConfig::restarts`] restarts, sharing one
//! [`SolverConfig::max_steps`] move budget. Like best-response dynamics the
//! solver is [`Applicability::Heuristic`]: exhausting the budget settles
//! nothing (under Conjecture 3.7 it means the budget was too small).

use crate::algorithms::PureNashMethod;
use crate::error::Result;
use crate::model::EffectiveGame;
use crate::solvers::engine::{Applicability, Attempt, Solver, SolverConfig};
use crate::solvers::kernel::LocalSearchRun;
use crate::strategy::LinkLoads;

/// Default restart budget of [`LocalSearch`] (`SolverConfig::restarts`).
pub const DEFAULT_RESTARTS: usize = 8;

/// Default seed of the deterministic tie-breaking stream
/// (`SolverConfig::ls_seed`).
pub const DEFAULT_LS_SEED: u64 = 0x10CA_15EA_4C8E_D5EE;

/// A tiny deterministic PRNG (Vigna's SplitMix64). The solver must not
/// depend on an external RNG crate: every draw is derived from
/// `ls_seed ⊕ restart`, keeping solutions bit-identical everywhere.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub(crate) fn next_below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The multi-restart local-search backend (see the [module docs](self)).
///
/// Its [`attempt`](Solver::attempt) is a [`LocalSearchRun`]: the
/// pass-resumable descent on the game's kernel rows, which the engine
/// steps whether it solves once, under a deadline or in a race.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalSearch;

impl Solver for LocalSearch {
    fn method(&self) -> PureNashMethod {
        PureNashMethod::LocalSearch
    }

    fn applicability(
        &self,
        _game: &EffectiveGame,
        _initial: &LinkLoads,
        _config: &SolverConfig,
    ) -> Applicability {
        Applicability::Heuristic
    }

    fn attempt<'a>(
        &self,
        game: &'a EffectiveGame,
        initial: &'a LinkLoads,
        config: &SolverConfig,
    ) -> Result<Attempt<'a>> {
        Ok(Attempt::Run(Box::new(LocalSearchRun::new(
            game, initial, config,
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::is_pure_nash;
    use crate::solvers::engine::SolverDetail;
    use crate::solvers::kernel::KernelScratch;

    /// One local-search attempt, stepped to completion.
    fn solve(game: &EffectiveGame, initial: &LinkLoads, config: &SolverConfig) -> SolverDetail {
        LocalSearch
            .attempt(game, initial, config)
            .unwrap()
            .run_to_completion(&mut KernelScratch::new())
    }

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
    fn local_search_finds_a_certified_equilibrium() {
        let game = messy_game();
        let initial = LinkLoads::zero(3);
        let config = SolverConfig::default();
        let detail = solve(&game, &initial, &config);
        let solution = detail.solution.expect("the instance has an equilibrium");
        assert!(is_pure_nash(&game, &solution.profile, &initial, config.tol));
        assert_eq!(solution.method, PureNashMethod::LocalSearch);
        assert_eq!(detail.restarts, Some(1));
    }

    #[test]
    fn local_search_is_deterministic() {
        let game = messy_game();
        let initial = LinkLoads::zero(3);
        let config = SolverConfig::default();
        let a = solve(&game, &initial, &config);
        let b = solve(&game, &initial, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn a_different_ls_seed_may_change_the_path_but_not_certification() {
        let game = messy_game();
        let initial = LinkLoads::zero(3);
        for seed in [1u64, 2, 0xDEAD_BEEF] {
            let config = SolverConfig {
                ls_seed: seed,
                ..SolverConfig::default()
            };
            let detail = solve(&game, &initial, &config);
            let solution = detail.solution.expect("must converge on a tiny instance");
            assert!(is_pure_nash(&game, &solution.profile, &initial, config.tol));
        }
    }

    #[test]
    fn a_zero_move_budget_gives_up_with_telemetry() {
        let game = messy_game();
        let initial = LinkLoads::zero(3);
        let config = SolverConfig {
            max_steps: 0,
            restarts: 3,
            ..SolverConfig::default()
        };
        let detail = solve(&game, &initial, &config);
        // The spread start of this instance is not an equilibrium, so with a
        // ~zero budget the solver must give up (budget is clamped to one
        // move per restart so progress telemetry is still meaningful).
        assert!(detail.iterations.is_some());
        assert!(detail.restarts.is_some());
    }

    #[test]
    fn a_stalled_restart_cannot_starve_the_rest_of_the_portfolio() {
        // Budget-slicing regression: each restart owns budget/restarts
        // moves, so when restart 0 exhausts its slice without converging,
        // the later portfolio starts still run. A random n=64 game whose
        // LPT/greedy starts are not equilibria, with a one-move slice per
        // restart, must therefore consume every restart.
        let n = 64;
        let m = 8;
        let mut rng = SplitMix64::new(11);
        let weights: Vec<f64> = (0..n)
            .map(|_| 0.5 + (rng.next_below(100) as f64) / 50.0)
            .collect();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..m)
                    .map(|_| 0.5 + (rng.next_below(100) as f64) / 40.0)
                    .collect()
            })
            .collect();
        let game = EffectiveGame::from_rows(weights, rows).unwrap();
        let initial = LinkLoads::zero(m);
        let config = SolverConfig {
            max_steps: 3,
            restarts: 3,
            ..SolverConfig::default()
        };
        let detail = solve(&game, &initial, &config);
        assert!(
            detail.solution.is_none(),
            "a 1-move slice cannot settle a random n=64 instance"
        );
        assert_eq!(detail.restarts, Some(3), "every restart must get its slice");
        assert_eq!(detail.iterations, Some(3));

        // An absurd restart budget must not overflow the annealing shift
        // (and still solves the instance with the full default move budget).
        let wide = SolverConfig {
            restarts: 100,
            ..SolverConfig::default()
        };
        let detail = solve(&game, &initial, &wide);
        assert!(detail.solution.is_some());
    }

    #[test]
    fn huge_games_converge_fast() {
        // n = 256, m = 8: far beyond the exhaustive regime, and the
        // incremental descent must still certify an equilibrium quickly.
        let n = 256;
        let m = 8;
        let mut rng = SplitMix64::new(7);
        let weights: Vec<f64> = (0..n)
            .map(|_| 0.5 + (rng.next_below(100) as f64) / 50.0)
            .collect();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..m)
                    .map(|_| 0.5 + (rng.next_below(100) as f64) / 40.0)
                    .collect()
            })
            .collect();
        let game = EffectiveGame::from_rows(weights, rows).unwrap();
        let initial = LinkLoads::zero(m);
        let config = SolverConfig::default();
        let detail = solve(&game, &initial, &config);
        let solution = detail.solution.expect("local search must converge");
        assert!(is_pure_nash(&game, &solution.profile, &initial, config.tol));
    }
}
