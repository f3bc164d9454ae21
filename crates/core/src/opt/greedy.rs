//! Constructive upper bounds from the greedy start portfolio.
//!
//! Graham's LPT rule is the classical 4/3-style approximation for makespan
//! scheduling; here its latency-aware variant (and the rest of the
//! [`local_search`](crate::solvers::local_search) start portfolio) is
//! evaluated under **both** social costs, and the cheapest profile per
//! objective certifies an upper bound — a bound witnessed by an actual
//! assignment can never undercut the optimum. The portfolio is built here
//! divide-form, the one copy that OPT bounds, the branch-and-bound seed
//! and the goldens read; the solvers' kernel builders are the
//! multiply-by-reciprocal copy. This is the cheap backend:
//! the four starts cost `O(nm)` to build on the game's cached weight order
//! (sorted once, `O(n log n)`, on first use), and each is costed in one
//! `O(n + m)` load pass. The [`Descent`](crate::opt::descent::Descent)
//! backend refines these same starts when a tighter bracket is worth more
//! moves.

use crate::error::Result;
use crate::model::EffectiveGame;
use crate::opt::engine::{OptCheckpoint, OptConfig, OptEstimate, OptEstimator, OptMethod};
use crate::social_cost::{pure_sc1, pure_sc2};
use crate::solvers::engine::Applicability;
use crate::solvers::kernel::SoAView;
use crate::strategy::{LinkLoads, PureProfile};

/// The latency-minimal link for traffic `w` under `loads` (first wins),
/// costed divide-form: `(load + w) / c`.
fn cheapest_link(loads: &[f64], w: f64, caps: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_cost = f64::INFINITY;
    for (link, (&load, &cap)) in loads.iter().zip(caps).enumerate() {
        let cost = (load + w) / cap;
        if cost < best_cost {
            best_cost = cost;
            best = link;
        }
    }
    best
}

/// The LPT-style greedy start: users in decreasing weight order, each on
/// its latency-minimal link given the users already placed. It is
/// `portfolio`'s first start, and the incumbent branch-and-bound seeds its
/// searches with.
pub(crate) fn lpt_profile(view: SoAView<'_>, initial: &LinkLoads) -> PureProfile {
    let mut loads = initial.as_slice().to_vec();
    let mut choices = vec![0usize; view.users];
    for &user in view.order {
        let w = view.weights[user];
        let best = cheapest_link(&loads, w, view.cap_row(user));
        choices[user] = best;
        loads[best] += w;
    }
    PureProfile::new(choices)
}

/// The start portfolio shared with `LocalSearch`: LPT-style greedy,
/// index-order greedy, load-balanced, uniform spread.
///
/// This is the divide-form copy of the portfolio (the kernel start
/// builders in [`kernel`](crate::solvers::kernel) are the
/// multiply-by-reciprocal one): every cost is `(load + w) / c` on the
/// game's exact capacity bits, so the profiles — and every OPT bound and
/// golden derived from them — keep their recorded bits.
pub(crate) fn portfolio(view: SoAView<'_>, initial: &LinkLoads) -> Vec<PureProfile> {
    let lpt = lpt_profile(view, initial);
    let mut loads = initial.as_slice().to_vec();
    let mut choices = vec![0usize; view.users];

    // Index-order greedy: each user on its currently cheapest link.
    for (user, choice) in choices.iter_mut().enumerate() {
        let w = view.weights[user];
        let best = cheapest_link(&loads, w, view.cap_row(user));
        *choice = best;
        loads[best] += w;
    }
    let greedy = PureProfile::new(choices.clone());

    // Load-balanced: decreasing weight order, least total weight so far
    // (capacity-blind — deliberately a different shape).
    loads.copy_from_slice(initial.as_slice());
    for &user in view.order {
        let mut best = 0usize;
        for link in 1..view.links {
            if loads[link] < loads[best] {
                best = link;
            }
        }
        choices[user] = best;
        loads[best] += view.weights[user];
    }
    let balanced = PureProfile::new(choices.clone());

    // Uniform spread: user i → link i mod m.
    for (user, choice) in choices.iter_mut().enumerate() {
        *choice = user % view.links;
    }
    let spread = PureProfile::new(choices);

    vec![lpt, greedy, balanced, spread]
}

/// Evaluates `profiles` under both social costs and returns the cheapest
/// `(sc1, sc2)` pair — each a certified upper bound on the corresponding
/// optimum.
pub(crate) fn cheapest_costs(
    game: &EffectiveGame,
    initial: &LinkLoads,
    profiles: &[PureProfile],
) -> (f64, f64) {
    let mut best1 = f64::INFINITY;
    let mut best2 = f64::INFINITY;
    for profile in profiles {
        best1 = best1.min(pure_sc1(game, profile, initial));
        best2 = best2.min(pure_sc2(game, profile, initial));
    }
    (best1, best2)
}

/// The greedy-portfolio upper-bound backend (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub struct LptGreedy;

impl OptEstimator for LptGreedy {
    fn method(&self) -> OptMethod {
        OptMethod::LptGreedy
    }

    fn applicability(
        &self,
        _game: &EffectiveGame,
        _initial: &LinkLoads,
        _config: &OptConfig,
    ) -> Applicability {
        Applicability::Heuristic
    }

    // Atomic: building and costing the portfolio is a single O(n·m) unit of
    // work, so the checkpoint is deliberately ignored.
    fn estimate_under(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        _config: &OptConfig,
        _check: OptCheckpoint<'_>,
    ) -> Result<OptEstimate> {
        let profiles = portfolio(SoAView::from_game(game), initial);
        let (upper1, upper2) = cheapest_costs(game, initial, &profiles);
        Ok(OptEstimate {
            opt1_upper: Some(upper1),
            opt2_upper: Some(upper2),
            iterations: Some(profiles.len() as u64),
            ..OptEstimate::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::exhaustive::social_optimum;

    fn mild_game() -> EffectiveGame {
        EffectiveGame::from_rows(
            vec![1.0, 1.5, 2.0],
            vec![vec![2.0, 2.2], vec![2.1, 1.9], vec![2.0, 2.0]],
        )
        .unwrap()
    }

    #[test]
    fn greedy_upper_bounds_dominate_the_exact_optimum() {
        let g = mild_game();
        let t = LinkLoads::zero(2);
        let estimate = LptGreedy.estimate(&g, &t, &OptConfig::default()).unwrap();
        let exact = social_optimum(&g, &t, 1_000_000).unwrap();
        assert!(estimate.opt1_upper.unwrap() >= exact.opt1 - 1e-12);
        assert!(estimate.opt2_upper.unwrap() >= exact.opt2 - 1e-12);
        assert!(!estimate.opt1_exact && !estimate.opt2_exact);
        assert!(estimate.opt1_lower.is_none());
    }

    #[test]
    fn the_portfolio_evaluates_every_start() {
        let g = mild_game();
        let t = LinkLoads::zero(2);
        let profiles = portfolio(SoAView::from_game(&g), &t);
        assert_eq!(profiles.len(), 4);
        let (best1, best2) = cheapest_costs(&g, &t, &profiles);
        for p in &profiles {
            assert!(pure_sc1(&g, p, &t) >= best1);
            assert!(pure_sc2(&g, p, &t) >= best2);
        }
    }
}
