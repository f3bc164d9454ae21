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
//!   seeded random perturbations of the LPT start.
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
use crate::solvers::engine::{Applicability, Solver, SolverConfig, SolverDetail};
use crate::solvers::kernel::{run_to_completion, KernelRun, KernelScratch, LocalSearchRun};
use crate::strategy::{LinkLoads, PureProfile};

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

/// LPT-style greedy start: users in decreasing weight order (ties by index),
/// each placed on the link minimising its own expected latency given the
/// users already placed.
pub fn lpt_greedy_profile(game: &EffectiveGame, initial: &LinkLoads) -> PureProfile {
    let m = game.links();
    let mut loads = initial.clone();
    let mut choices = vec![0usize; game.users()];
    for &user in game.weight_order() {
        let w = game.weight(user);
        let mut best = 0usize;
        let mut best_cost = f64::INFINITY;
        for link in 0..m {
            let cost = (loads.load(link) + w) / game.capacity(user, link);
            if cost < best_cost {
                best_cost = cost;
                best = link;
            }
        }
        choices[user] = best;
        loads.add(best, w);
    }
    PureProfile::new(choices)
}

/// Load-balanced start: users in decreasing weight order, each on the link
/// with the least total weight so far (capacity-blind — deliberately a
/// different shape from the latency-aware greedy starts).
pub fn load_balanced_profile(game: &EffectiveGame, initial: &LinkLoads) -> PureProfile {
    let m = game.links();
    let mut loads: Vec<f64> = initial.as_slice().to_vec();
    let mut choices = vec![0usize; game.users()];
    for &user in game.weight_order() {
        let mut best = 0usize;
        for link in 1..m {
            if loads[link] < loads[best] {
                best = link;
            }
        }
        choices[user] = best;
        loads[best] += game.weight(user);
    }
    PureProfile::new(choices)
}

/// Uniform spread start: `user i → link i mod m`.
pub fn spread_profile(game: &EffectiveGame) -> PureProfile {
    let m = game.links();
    PureProfile::new((0..game.users()).map(|i| i % m).collect())
}

/// The start profile of restart `r`: the four smart starts first, then
/// seeded random perturbations of the LPT start (a quarter of the users
/// reassigned uniformly at random).
///
/// This is the divide-based reference formulation of the portfolio the
/// kernel start builders ([`kernel`](crate::solvers::kernel)) implement
/// multiply-by-reciprocal; the live solver uses the kernel builders.
#[cfg(test)]
fn start_profile(
    game: &EffectiveGame,
    initial: &LinkLoads,
    restart: usize,
    seed: u64,
) -> PureProfile {
    use crate::algorithms::best_response::greedy_profile;
    match restart {
        0 => lpt_greedy_profile(game, initial),
        1 => greedy_profile(game, initial),
        2 => load_balanced_profile(game, initial),
        3 => spread_profile(game),
        r => {
            let mut profile = lpt_greedy_profile(game, initial);
            let mut rng = SplitMix64::new(seed ^ (r as u64).wrapping_mul(0xA24B_AED4_963E_E407));
            let n = game.users();
            let m = game.links();
            for _ in 0..(n / 4).max(1) {
                let user = rng.next_below(n);
                profile.apply_move(user, rng.next_below(m));
            }
            profile
        }
    }
}

/// The multi-restart local-search backend (see the [module docs](self)).
///
/// The descent itself lives in [`LocalSearchRun`]: a pass-resumable
/// state machine on the SoA kernel rows, shared verbatim between this
/// single-solve path and the engine's stepped runs.
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

    fn solve_detailed(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        config: &SolverConfig,
    ) -> Result<SolverDetail> {
        let mut scratch = KernelScratch::new();
        let mut run = LocalSearchRun::new(game, initial, config);
        Ok(run_to_completion(&mut run, &mut scratch))
    }

    fn kernel_run<'a>(
        &self,
        game: &'a EffectiveGame,
        initial: &'a LinkLoads,
        config: &SolverConfig,
    ) -> Option<Box<dyn KernelRun + 'a>> {
        Some(Box::new(LocalSearchRun::new(game, initial, config)))
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
    fn local_search_finds_a_certified_equilibrium() {
        let game = messy_game();
        let initial = LinkLoads::zero(3);
        let config = SolverConfig::default();
        let detail = LocalSearch
            .solve_detailed(&game, &initial, &config)
            .unwrap();
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
        let a = LocalSearch
            .solve_detailed(&game, &initial, &config)
            .unwrap();
        let b = LocalSearch
            .solve_detailed(&game, &initial, &config)
            .unwrap();
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
            let detail = LocalSearch
                .solve_detailed(&game, &initial, &config)
                .unwrap();
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
        let detail = LocalSearch
            .solve_detailed(&game, &initial, &config)
            .unwrap();
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
        let detail = LocalSearch
            .solve_detailed(&game, &initial, &config)
            .unwrap();
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
        let detail = LocalSearch.solve_detailed(&game, &initial, &wide).unwrap();
        assert!(detail.solution.is_some());
    }

    #[test]
    fn starts_cover_the_documented_portfolio() {
        let game = messy_game();
        let initial = LinkLoads::zero(3);
        let lpt = lpt_greedy_profile(&game, &initial);
        let balanced = load_balanced_profile(&game, &initial);
        let spread = spread_profile(&game);
        assert_eq!(spread.choices(), &[0, 1, 2, 0]);
        for profile in [&lpt, &balanced, &spread] {
            assert!(profile.validate(&game).is_ok());
        }
        // Perturbed restarts are deterministic in the seed.
        let a = start_profile(&game, &initial, 5, 42);
        let b = start_profile(&game, &initial, 5, 42);
        assert_eq!(a, b);
        let c = start_profile(&game, &initial, 6, 42);
        // Different restart indices perturb differently (overwhelmingly).
        let _ = c;
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
        let detail = LocalSearch
            .solve_detailed(&game, &initial, &config)
            .unwrap();
        let solution = detail.solution.expect("local search must converge");
        assert!(is_pure_nash(&game, &solution.profile, &initial, config.tol));
    }
}
