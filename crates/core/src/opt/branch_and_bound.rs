//! Exact social optima by depth-first search with load-based pruning — the
//! mid-size backend between exhaustive enumeration and the bound pair.
//!
//! Users are branched in decreasing weight order (heavy users decided first
//! prune hardest); a node's lower bound is the cost the already-assigned
//! users pay **right now** (loads only grow as the remaining users are
//! placed, so current cost is a floor on final cost) plus, for each
//! unassigned user, the singleton floor `min_ℓ (loadₗ + wᵢ)/cᵢℓ` over the
//! *current* loads. The incumbent is seeded with the LPT-greedy profile.
//! The search keeps one profile and two price buffers for its whole life,
//! so a leaf costs one `O(n + m)` load pass and no allocation.
//!
//! Each objective gets its own search under [`OptConfig::node_limit`]
//! nodes. A search that exhausts its budget still returns its incumbent —
//! the cost of a real assignment, hence a certified upper bound — with the
//! exactness flag cleared.
//!
//! # Why a completed search is bit-identical to enumeration
//!
//! A completed search returns **the same bits** as
//! [`social_optimum`](crate::opt::exhaustive::social_optimum), not merely a
//! close value:
//!
//! 1. *One pricing routine.* Every leaf and the LPT seed are priced exactly
//!    as enumeration prices a profile: one load pass in user-index order
//!    (`pure_latencies_into`), then [`stable_sum`] for `SC1` or the
//!    `max_latency` fold for `SC2`. A profile's price is therefore the
//!    same float whichever walk reaches it, and the incumbent is always the
//!    price of some profile.
//! 2. *No pruning error reaches the optimal leaf.* The bound is computed
//!    from non-negative weights, capacities and loads with `+`, `×`, `/`,
//!    `min` and `max` only, and every backtrack **restores** the saved
//!    loads, capacity sums and assigned cost instead of subtracting, so a
//!    node's bound is a fixed function of its path: no drift builds up
//!    however many nodes the search expands. Each rounding is then a
//!    relative error of at most `2⁻⁵³` on a non-negative partial result, and
//!    the deepest chain is `O(n)` operations, so the computed bound exceeds
//!    the true one (itself a floor on every leaf below) by a relative
//!    `O(n · 2⁻⁵³)`, and a leaf's computed price differs from its true cost
//!    by the same order: together about `(3n + 10) · 2⁻⁵³`, under
//!    `10⁻¹⁴` at the default user cap of 20. `PRUNE_MARGIN` (`10⁻⁹`)
//!    exceeds that by five orders of magnitude, so no node on the path to
//!    a leaf of minimum price is ever cut.
//! 3. *Ties cannot matter.* Only the value is returned, never a witness.
//!    The minimum-price leaf is visited and every incumbent is some
//!    profile's price, so the final incumbent is that minimum price
//!    whichever of several equal-price leaves the strict `<` keeps.
//!
//! The experiment harness leans on this: its differential anchor runs
//! `[branch_and_bound, exhaustive]` and takes the first exact answer.

use crate::error::Result;
use crate::model::EffectiveGame;
use crate::numeric::stable_sum;
use crate::opt::engine::{OptCheckpoint, OptConfig, OptEstimate, OptEstimator, OptMethod};
use crate::opt::greedy::lpt_profile;
use crate::social_cost::{max_latency, pure_latencies_into};
use crate::solvers::engine::Applicability;
use crate::strategy::{LinkLoads, PureProfile};

/// Which objective a search minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Objective {
    Sum,
    Max,
}

/// Result of one pruned search: the incumbent value (always a real
/// assignment's cost), whether the search completed, and nodes expanded.
struct SearchResult {
    best: f64,
    complete: bool,
    nodes: u64,
}

/// Relative pruning slack: a subtree is cut only when its lower bound
/// exceeds the incumbent by more than this margin, so bound-arithmetic
/// rounding (a relative `O(n · 2⁻⁵³)`, see the module docs) can never
/// prune the optimal leaf.
const PRUNE_MARGIN: f64 = 1e-9;

/// How many nodes a search expands between deadline polls: cheap enough to
/// be invisible (one modulo per node), frequent enough that a fired
/// deadline stops the search within microseconds.
const CHECK_EVERY_NODES: u64 = 4096;

struct Search<'a> {
    game: &'a EffectiveGame,
    initial: &'a LinkLoads,
    objective: Objective,
    /// Users in decreasing weight order (the branching order).
    order: &'a [usize],
    node_limit: u64,
    /// Cooperative deadline; an expiry behaves exactly like an exhausted
    /// node budget (incumbent kept, exactness cleared).
    check: OptCheckpoint<'a>,
    expired: bool,
    nodes: u64,
    /// Current per-link loads (initial plus assigned users).
    loads: Vec<f64>,
    /// `Σ 1/cᵢℓ` over assigned users per link (sum objective only).
    inv_caps: Vec<f64>,
    /// Current total cost of the assigned users (sum objective).
    assigned_sum: f64,
    /// The profile being built: entries of the users at depth `< d` are
    /// the current path's choices, the rest are stale.
    profile: PureProfile,
    /// Price buffers reused by every leaf (see [`Search::price`]).
    leaf_loads: Vec<f64>,
    latencies: Vec<f64>,
    best: f64,
    complete: bool,
}

impl Search<'_> {
    /// Prices `self.profile` exactly as enumeration prices a profile.
    fn price(&mut self) -> f64 {
        pure_latencies_into(
            self.game,
            &self.profile,
            self.initial,
            &mut self.leaf_loads,
            &mut self.latencies,
        );
        match self.objective {
            Objective::Sum => stable_sum(&self.latencies),
            Objective::Max => max_latency(&self.latencies),
        }
    }

    /// The floor each unassigned user adds under the current loads.
    fn remaining_floor(&self, depth: usize) -> f64 {
        let m = self.game.links();
        let mut sum = 0.0;
        let mut max = 0.0f64;
        for &user in &self.order[depth..] {
            let w = self.game.weight(user);
            let mut best = f64::INFINITY;
            for l in 0..m {
                let latency = (self.loads[l] + w) / self.game.capacity(user, l);
                if latency < best {
                    best = latency;
                }
            }
            sum += best;
            max = max.max(best);
        }
        match self.objective {
            Objective::Sum => sum,
            Objective::Max => max,
        }
    }

    /// The cost the assigned users pay right now (a floor on final cost).
    fn assigned_floor(&self, depth: usize) -> f64 {
        match self.objective {
            Objective::Sum => self.assigned_sum,
            Objective::Max => {
                let mut max = 0.0f64;
                for &user in &self.order[..depth] {
                    let l = self.profile.link(user);
                    max = max.max(self.loads[l] / self.game.capacity(user, l));
                }
                max
            }
        }
    }

    fn dfs(&mut self, depth: usize) {
        if self.nodes >= self.node_limit {
            self.complete = false;
            return;
        }
        if self.nodes.is_multiple_of(CHECK_EVERY_NODES) && self.check.expired() {
            self.expired = true;
            self.complete = false;
            return;
        }
        self.nodes += 1;
        if depth == self.order.len() {
            let cost = self.price();
            if cost < self.best {
                self.best = cost;
            }
            return;
        }
        // The floors combine by sum for SC1 and by max for SC2.
        let bound = match self.objective {
            Objective::Sum => self.assigned_sum + self.remaining_floor(depth),
            Objective::Max => self.assigned_floor(depth).max(self.remaining_floor(depth)),
        };
        if bound > self.best * (1.0 + PRUNE_MARGIN) {
            return;
        }
        let user = self.order[depth];
        let w = self.game.weight(user);
        let assigned_sum = self.assigned_sum;
        for link in 0..self.game.links() {
            let inv = 1.0 / self.game.capacity(user, link);
            let (load, inv_cap) = (self.loads[link], self.inv_caps[link]);
            // Assigning `user` raises every already-assigned user on `link`
            // by `w / cⱼ` and adds the user's own latency.
            if self.objective == Objective::Sum {
                self.assigned_sum += w * inv_cap + (load + w) * inv;
            }
            self.profile.apply_move(user, link);
            self.loads[link] = load + w;
            self.inv_caps[link] = inv_cap + inv;
            self.dfs(depth + 1);
            // Restore, not subtract: a node's bound stays a function of its
            // path alone (see the module docs).
            self.assigned_sum = assigned_sum;
            self.inv_caps[link] = inv_cap;
            self.loads[link] = load;
            if self.nodes >= self.node_limit || self.expired {
                self.complete = false;
                return;
            }
        }
    }
}

fn search(
    game: &EffectiveGame,
    initial: &LinkLoads,
    objective: Objective,
    node_limit: u64,
    seed_profile: &PureProfile,
    check: OptCheckpoint<'_>,
) -> SearchResult {
    let mut s = Search {
        game,
        initial,
        objective,
        order: game.weight_order(),
        node_limit,
        check,
        expired: false,
        nodes: 0,
        loads: initial.as_slice().to_vec(),
        inv_caps: vec![0.0; game.links()],
        assigned_sum: 0.0,
        profile: seed_profile.clone(),
        leaf_loads: Vec::with_capacity(game.links()),
        latencies: Vec::with_capacity(game.users()),
        best: f64::INFINITY,
        complete: true,
    };
    s.best = s.price();
    s.dfs(0);
    SearchResult {
        best: s.best,
        complete: s.complete,
        nodes: s.nodes,
    }
}

/// The branch-and-bound backend (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchAndBound;

impl OptEstimator for BranchAndBound {
    fn method(&self) -> OptMethod {
        OptMethod::BranchAndBound
    }

    fn applicability(
        &self,
        game: &EffectiveGame,
        _initial: &LinkLoads,
        config: &OptConfig,
    ) -> Applicability {
        // Heuristic, not conclusive: pruning usually finishes mid-size
        // searches, but only a completed search certifies exactness.
        if game.users() <= config.bb_max_users {
            Applicability::Heuristic
        } else {
            Applicability::NotApplicable
        }
    }

    // An expired checkpoint behaves like an exhausted node budget: each
    // search keeps its incumbent (a real assignment's cost, hence a
    // certified upper bound) and clears the exactness flag. A deadline that
    // fires during the sum search leaves the max search to return its seed
    // incumbent almost immediately.
    fn estimate_under(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        config: &OptConfig,
        check: OptCheckpoint<'_>,
    ) -> Result<OptEstimate> {
        let seed = lpt_profile(game, initial);
        let sum = search(
            game,
            initial,
            Objective::Sum,
            config.node_limit,
            &seed,
            check,
        );
        let max = search(
            game,
            initial,
            Objective::Max,
            config.node_limit,
            &seed,
            check,
        );
        Ok(OptEstimate {
            opt1_lower: sum.complete.then_some(sum.best),
            opt1_upper: Some(sum.best),
            opt2_lower: max.complete.then_some(max.best),
            opt2_upper: Some(max.best),
            opt1_exact: sum.complete,
            opt2_exact: max.complete,
            iterations: Some(sum.nodes + max.nodes),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::exhaustive::social_optimum;
    use proptest::prelude::*;

    use crate::opt::test_util::random_game;

    /// Runs the search to completion and checks both optima against the
    /// enumeration's bits.
    fn assert_bit_identical_to_enumeration(game: &EffectiveGame, initial: &LinkLoads) {
        let estimate = BranchAndBound
            .estimate(game, initial, &OptConfig::default())
            .unwrap();
        assert!(estimate.opt1_exact && estimate.opt2_exact, "{estimate:?}");
        let exact = social_optimum(game, initial, u128::MAX).unwrap();
        for (lower, upper, want) in [
            (estimate.opt1_lower, estimate.opt1_upper, exact.opt1),
            (estimate.opt2_lower, estimate.opt2_upper, exact.opt2),
        ] {
            assert_eq!(lower.map(f64::to_bits), Some(want.to_bits()), "{exact:?}");
            assert_eq!(upper.map(f64::to_bits), Some(want.to_bits()), "{exact:?}");
        }
    }

    /// General games of `2..=8` users (the model's smallest game has two)
    /// on `2..=4` links: weights in `[0.5, 4)`, per-user capacities in
    /// `[0.5, 8)`, initial loads zero on about a third of the links.
    fn general_case() -> impl Strategy<Value = (EffectiveGame, LinkLoads)> {
        (2usize..=8, 2usize..=4)
            .prop_flat_map(|(n, m)| {
                (
                    collection::vec(0.5f64..4.0, n),
                    collection::vec(0.5f64..8.0, n * m),
                    collection::vec((0u32..3, 0.0f64..20.0), m),
                )
            })
            .prop_map(|(weights, capacities, loads)| {
                let m = loads.len();
                let rows = capacities.chunks(m).map(<[f64]>::to_vec).collect();
                let game = EffectiveGame::from_rows(weights, rows).unwrap();
                let loads = loads
                    .into_iter()
                    .map(|(zero, t)| if zero == 0 { 0.0 } else { t })
                    .collect();
                (game, LinkLoads::new(loads).unwrap())
            })
    }

    /// The true-network shape of the belief-noise experiment: related
    /// machines (one capacity per link, shared by every user, in
    /// `[2.5, 4)`), weights in `[0.5, 4)`, no initial traffic.
    fn related_case() -> impl Strategy<Value = (EffectiveGame, LinkLoads)> {
        (2usize..=8, 2usize..=4)
            .prop_flat_map(|(n, m)| {
                (
                    collection::vec(0.5f64..4.0, n),
                    collection::vec(2.5f64..4.0, m),
                )
            })
            .prop_map(|(weights, capacities)| {
                let m = capacities.len();
                let rows = vec![capacities; weights.len()];
                let game = EffectiveGame::from_rows(weights, rows).unwrap();
                (game, LinkLoads::zero(m))
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn a_completed_search_is_bit_identical_to_enumeration(
            (game, initial) in general_case()
        ) {
            assert_bit_identical_to_enumeration(&game, &initial);
        }

        #[test]
        fn related_machine_searches_are_bit_identical_to_enumeration(
            (game, initial) in related_case()
        ) {
            assert_bit_identical_to_enumeration(&game, &initial);
        }
    }

    #[test]
    fn all_tie_games_are_bit_identical_to_enumeration() {
        // Equal weights and capacities: every optimum is attained by many
        // leaves, so only the value (never a witness) may be relied on.
        for n in 2..=8 {
            for m in 2..=4 {
                let game = EffectiveGame::from_rows(vec![1.5; n], vec![vec![2.0; m]; n]).unwrap();
                for initial in [LinkLoads::zero(m), LinkLoads::new(vec![0.5; m]).unwrap()] {
                    assert_bit_identical_to_enumeration(&game, &initial);
                }
            }
        }
    }

    #[test]
    fn a_completed_search_equals_the_exhaustive_optimum_exactly() {
        for seed in [1u64, 2, 3, 4, 5] {
            assert_bit_identical_to_enumeration(&random_game(6, 3, seed), &LinkLoads::zero(3));
        }
    }

    #[test]
    fn pruning_beats_enumeration_on_node_count() {
        let game = random_game(10, 3, 9);
        let initial = LinkLoads::zero(3);
        let estimate = BranchAndBound
            .estimate(&game, &initial, &OptConfig::default())
            .unwrap();
        assert!(estimate.opt1_exact && estimate.opt2_exact);
        // 3^10 = 59049 leaves per objective; a pruned pair of searches must
        // expand far fewer nodes than 2·(3^11)/2 interior-plus-leaf nodes.
        assert!(
            estimate.iterations.unwrap() < 2 * 59_049,
            "no pruning happened: {:?} nodes",
            estimate.iterations
        );
    }

    #[test]
    fn an_exhausted_node_budget_degrades_to_a_certified_upper_bound() {
        let game = random_game(12, 3, 10);
        let initial = LinkLoads::zero(3);
        let config = OptConfig {
            node_limit: 50,
            ..OptConfig::default()
        };
        let estimate = BranchAndBound.estimate(&game, &initial, &config).unwrap();
        assert!(!estimate.opt1_exact && !estimate.opt2_exact);
        assert!(estimate.opt1_lower.is_none() && estimate.opt2_lower.is_none());
        let exact = social_optimum(&game, &initial, 1_000_000).unwrap();
        assert!(estimate.opt1_upper.unwrap() >= exact.opt1 - 1e-12);
        assert!(estimate.opt2_upper.unwrap() >= exact.opt2 - 1e-12);
    }

    #[test]
    fn a_starved_search_keeps_the_lpt_seed_bits() {
        // Ten nodes cannot reach a leaf at n = 20, so each incumbent is the
        // LPT seed's cost; the bits were recorded before the seed moved to
        // `opt::greedy::lpt_profile`.
        let config = OptConfig {
            node_limit: 10,
            ..OptConfig::default()
        };
        for (seed, initial, sc1, sc2) in [
            (
                3u64,
                [0.0; 4],
                0x4062_3da0_1893_d65f_u64,
                0x4026_0000_0000_0000_u64,
            ),
            (17, [0.0; 4], 0x4060_d442_1b69_43e0, 0x4023_50c3_0c30_c30c),
            (
                29,
                [0.5, 0.0, 1.25, 0.0],
                0x4060_7982_9a3f_3607,
                0x4021_7add_127d_bd6e,
            ),
        ] {
            let game = random_game(20, 4, seed);
            let initial = LinkLoads::new(initial.to_vec()).unwrap();
            let estimate = BranchAndBound.estimate(&game, &initial, &config).unwrap();
            assert!(!estimate.opt1_exact && !estimate.opt2_exact);
            assert_eq!(estimate.iterations, Some(20), "seed {seed}");
            assert_eq!(
                estimate.opt1_upper.map(f64::to_bits),
                Some(sc1),
                "seed {seed}"
            );
            assert_eq!(
                estimate.opt2_upper.map(f64::to_bits),
                Some(sc2),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn an_expired_checkpoint_degrades_like_an_exhausted_budget() {
        let game = random_game(12, 3, 10);
        let initial = LinkLoads::zero(3);
        let expired = || true;
        let estimate = BranchAndBound
            .estimate_under(
                &game,
                &initial,
                &OptConfig::default(),
                OptCheckpoint::new(&expired),
            )
            .unwrap();
        // Both searches abort on their first poll: the seed incumbent (the
        // LPT profile's cost) survives as a certified upper bound, nothing
        // is exact, and no lower bound is claimed.
        assert!(!estimate.opt1_exact && !estimate.opt2_exact);
        assert!(estimate.opt1_lower.is_none() && estimate.opt2_lower.is_none());
        let exact = social_optimum(&game, &initial, 1_000_000).unwrap();
        assert!(estimate.opt1_upper.unwrap() >= exact.opt1 - 1e-12);
        assert!(estimate.opt2_upper.unwrap() >= exact.opt2 - 1e-12);
    }

    #[test]
    fn applicability_is_gated_on_the_user_cap() {
        let game = random_game(24, 3, 11);
        let initial = LinkLoads::zero(3);
        let config = OptConfig::default();
        assert_eq!(
            BranchAndBound.applicability(&game, &initial, &config),
            Applicability::NotApplicable
        );
        let small = random_game(6, 3, 11);
        assert_eq!(
            BranchAndBound.applicability(&small, &initial, &config),
            Applicability::Heuristic
        );
    }
}
