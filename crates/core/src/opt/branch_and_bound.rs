//! Exact social optima by depth-first search with load-based pruning — the
//! mid-size backend between exhaustive enumeration and the bound pair.
//!
//! Users are branched in decreasing weight order (heavy users decided first
//! prune hardest); a node's lower bound is the cost the already-assigned
//! users pay **right now** (loads only grow as the remaining users are
//! placed, so current cost is a floor on final cost) plus, for each
//! unassigned user, the singleton floor `min_ℓ (loadₗ + wᵢ)/cᵢℓ` over the
//! *current* loads. The incumbent is seeded with the LPT-greedy profile and
//! every improving leaf is re-evaluated with the canonical
//! [`pure_sc1`]/[`pure_sc2`] functions, so a completed search reports the
//! **bit-identical** optimum value the exhaustive reference computes —
//! pruning uses a relative safety margin so floating-point noise in the
//! bound arithmetic can never cut off the optimal leaf.
//!
//! Each objective gets its own search under [`OptConfig::node_limit`]
//! nodes. A search that exhausts its budget still returns its incumbent —
//! the cost of a real assignment, hence a certified upper bound — with the
//! exactness flag cleared.

use crate::error::Result;
use crate::model::EffectiveGame;
use crate::opt::engine::{OptCheckpoint, OptConfig, OptEstimate, OptEstimator, OptMethod};
use crate::opt::greedy::lpt_profile;
use crate::social_cost::{pure_sc1, pure_sc2};
use crate::solvers::engine::Applicability;
use crate::solvers::kernel::SoAView;
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
/// rounding (≪ 1e-12 relative) can never prune the optimal leaf.
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
    /// Choices indexed by original user id (usize::MAX = unassigned).
    choices: Vec<usize>,
    best: f64,
    complete: bool,
}

impl Search<'_> {
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
                    let l = self.choices[user];
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
            let profile = PureProfile::new(self.choices.clone());
            let cost = match self.objective {
                Objective::Sum => pure_sc1(self.game, &profile, self.initial),
                Objective::Max => pure_sc2(self.game, &profile, self.initial),
            };
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
        for link in 0..self.game.links() {
            let inv = 1.0 / self.game.capacity(user, link);
            // Assigning `user` raises every already-assigned user on `link`
            // by `w / cⱼ` and adds the user's own latency.
            let delta = match self.objective {
                Objective::Sum => w * self.inv_caps[link] + (self.loads[link] + w) * inv,
                Objective::Max => 0.0,
            };
            self.choices[user] = link;
            self.loads[link] += w;
            self.inv_caps[link] += inv;
            self.assigned_sum += delta;
            self.dfs(depth + 1);
            self.assigned_sum -= delta;
            self.inv_caps[link] -= inv;
            self.loads[link] -= w;
            self.choices[user] = usize::MAX;
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
    let seed_cost = match objective {
        Objective::Sum => pure_sc1(game, seed_profile, initial),
        Objective::Max => pure_sc2(game, seed_profile, initial),
    };
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
        choices: vec![usize::MAX; game.users()],
        best: seed_cost,
        complete: true,
    };
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
        let seed = lpt_profile(SoAView::from_game(game), initial);
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

    use crate::opt::test_util::random_game;

    #[test]
    fn a_completed_search_equals_the_exhaustive_optimum_exactly() {
        for seed in [1u64, 2, 3, 4, 5] {
            let game = random_game(6, 3, seed);
            let initial = LinkLoads::zero(3);
            let estimate = BranchAndBound
                .estimate(&game, &initial, &OptConfig::default())
                .unwrap();
            assert!(estimate.opt1_exact && estimate.opt2_exact);
            let exact = social_optimum(&game, &initial, 1_000_000).unwrap();
            // Bit-identical, not merely close: the same canonical evaluation
            // runs at the leaves and the safety margin protects the optimal
            // leaf from floating-point pruning.
            assert_eq!(estimate.opt1_lower, Some(exact.opt1), "seed {seed}");
            assert_eq!(estimate.opt2_lower, Some(exact.opt2), "seed {seed}");
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
