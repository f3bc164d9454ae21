//! The game graph of Section 3.1: profiles as nodes, defections as edges.
//!
//! The paper's argument for the existence of pure Nash equilibria with three
//! users, and its observation (due to B. Monien) that the state space of some
//! instance contains a cycle, are both statements about this graph. The graph
//! is materialised only for small games (`mⁿ` bounded); cycle detection and
//! equilibrium enumeration walk it explicitly.

use serde::{Deserialize, Serialize};

use crate::equilibrium::{best_deviations, profitable_deviations};
use crate::error::Result;
use crate::model::EffectiveGame;
use crate::numeric::Tolerance;
use crate::solvers::exhaustive::{ensure_within_limit, for_each_profile, profile_count};
use crate::strategy::{LinkLoads, PureProfile};

/// Which moves generate the edges of the game graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Any strictly profitable unilateral move (*better-response* edges).
    /// Absence of cycles over these edges is equivalent to the finite
    /// improvement property (ordinal potential).
    BetterResponse,
    /// Only moves to a best-response link that strictly improves the mover
    /// (*best-response* edges). The `n = 3` existence argument in the paper
    /// rules out cycles of this kind.
    BestResponse,
}

/// Encodes a pure profile as an integer in `[0, mⁿ)` (user 0 is the least
/// significant digit, base `m`).
pub fn encode(profile: &PureProfile, links: usize) -> usize {
    let mut code = 0usize;
    for user in (0..profile.users()).rev() {
        code = code * links + profile.link(user);
    }
    code
}

/// Decodes an integer produced by [`encode`] back into a pure profile.
pub fn decode(mut code: usize, users: usize, links: usize) -> PureProfile {
    let mut choices = Vec::with_capacity(users);
    for _ in 0..users {
        choices.push(code % links);
        code /= links;
    }
    PureProfile::new(choices)
}

/// The explicit game graph of a (small) game.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GameGraph {
    users: usize,
    links: usize,
    /// `successors[code]` lists the profiles reachable by one defection.
    successors: Vec<Vec<usize>>,
    /// Profiles with no outgoing edge — exactly the pure Nash equilibria.
    sinks: Vec<usize>,
    edge_kind: EdgeKind,
}

impl GameGraph {
    /// Builds the game graph of `game` with initial traffic `initial`,
    /// using the given edge kind.
    ///
    /// # Errors
    /// Fails when `mⁿ` exceeds `limit`.
    pub fn build(
        game: &EffectiveGame,
        initial: &LinkLoads,
        edge_kind: EdgeKind,
        tol: Tolerance,
        limit: u128,
    ) -> Result<Self> {
        ensure_within_limit(game, limit)?;
        let users = game.users();
        let links = game.links();
        // The walk visits profiles in code order (user 0 varies fastest).
        let mut successors = Vec::with_capacity(profile_count(users, links) as usize);
        for_each_profile(users, links, |profile| {
            successors.push(successors_of(game, profile, initial, edge_kind, tol));
        });
        let sinks = (0..successors.len())
            .filter(|&code| successors[code].is_empty())
            .collect();
        Ok(GameGraph {
            users,
            links,
            successors,
            sinks,
            edge_kind,
        })
    }

    /// Number of users.
    pub fn users(&self) -> usize {
        self.users
    }

    /// Number of links.
    pub fn links(&self) -> usize {
        self.links
    }

    /// Which moves define the edges.
    pub fn edge_kind(&self) -> EdgeKind {
        self.edge_kind
    }

    /// Number of nodes (`mⁿ`).
    pub fn node_count(&self) -> usize {
        self.successors.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.successors.iter().map(Vec::len).sum()
    }

    /// Successor profile codes of `code`.
    pub fn successors(&self, code: usize) -> &[usize] {
        &self.successors[code]
    }

    /// The pure Nash equilibria (sink nodes) as profiles.
    pub fn pure_nash_profiles(&self) -> Vec<PureProfile> {
        self.sinks
            .iter()
            .map(|&code| decode(code, self.users, self.links))
            .collect()
    }

    /// Whether the graph contains at least one pure Nash equilibrium.
    pub fn has_pure_nash(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Finds a directed cycle, if one exists, returned as the sequence of
    /// profiles along the cycle (first node repeated at the end is omitted).
    ///
    /// A cycle over [`EdgeKind::BetterResponse`] edges shows the game is not an
    /// ordinal potential game; a cycle over [`EdgeKind::BestResponse`] edges is
    /// a best-response cycle in the sense of the paper's `n = 3` argument.
    pub fn find_cycle(&self) -> Option<Vec<PureProfile>> {
        // Iterative DFS with colouring: 0 = white, 1 = on stack, 2 = done.
        let n = self.node_count();
        let mut colour = vec![0u8; n];
        let mut parent = vec![usize::MAX; n];
        for start in 0..n {
            if colour[start] != 0 {
                continue;
            }
            // Stack of (node, next successor index).
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            colour[start] = 1;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                if *next < self.successors[node].len() {
                    let succ = self.successors[node][*next];
                    *next += 1;
                    match colour[succ] {
                        0 => {
                            colour[succ] = 1;
                            parent[succ] = node;
                            stack.push((succ, 0));
                        }
                        1 => {
                            // Found a back edge: reconstruct the cycle
                            // succ -> ... -> node -> succ.
                            let mut cycle = vec![node];
                            let mut cur = node;
                            while cur != succ {
                                cur = parent[cur];
                                cycle.push(cur);
                            }
                            cycle.reverse();
                            return Some(
                                cycle
                                    .into_iter()
                                    .map(|c| decode(c, self.users, self.links))
                                    .collect(),
                            );
                        }
                        _ => {}
                    }
                } else {
                    colour[node] = 2;
                    stack.pop();
                }
            }
        }
        None
    }

    /// Whether the graph is acyclic (no defection cycle exists).
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }
}

/// The profiles reachable from `profile` by a single defection of the given
/// kind: every user's deviation row, read over link loads computed once.
pub fn successors_of(
    game: &EffectiveGame,
    profile: &PureProfile,
    initial: &LinkLoads,
    edge_kind: EdgeKind,
    tol: Tolerance,
) -> Vec<usize> {
    let moves = match edge_kind {
        EdgeKind::BetterResponse => profitable_deviations(game, profile, initial, tol),
        EdgeKind::BestResponse => {
            let loads = profile.link_loads(game, initial);
            best_deviations(game, profile, &loads, tol).collect()
        }
    };
    moves
        .into_iter()
        .map(|d| encode(&profile.with_move(d.user, d.to), game.links()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::GameError;
    use crate::solvers::exhaustive;

    fn opposed_game() -> EffectiveGame {
        EffectiveGame::from_rows(vec![1.0, 1.0], vec![vec![10.0, 1.0], vec![1.0, 10.0]]).unwrap()
    }

    fn knife_edge_game() -> EffectiveGame {
        EffectiveGame::from_rows(
            vec![4.388, 3.674],
            vec![vec![1.6902054706897638, 2.66], vec![0.01, 100.0]],
        )
        .unwrap()
    }

    #[test]
    fn encode_decode_round_trip() {
        for n in 1..=4 {
            for m in 2..=4 {
                exhaustive::for_each_profile(n, m, |p| {
                    let code = encode(p, m);
                    assert_eq!(&decode(code, n, m), p);
                });
            }
        }
    }

    #[test]
    fn sinks_match_exhaustive_pure_nash() {
        let tol = Tolerance::default();
        let cases = [
            (
                EffectiveGame::from_rows(
                    vec![2.0, 1.0, 3.0],
                    vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![3.0, 0.5]],
                )
                .unwrap(),
                LinkLoads::zero(2),
            ),
            // A knife-edge game: user 1 on link 1 of `[0, 1]` is within
            // rounding of indifferent, so a move priced in any arithmetic
            // other than `is_pure_nash`'s can disagree with it.
            (
                knife_edge_game(),
                LinkLoads::new(vec![1.766, 1.623]).unwrap(),
            ),
        ];
        for (g, t) in &cases {
            let graph = GameGraph::build(g, t, EdgeKind::BetterResponse, tol, 10_000).unwrap();
            let from_enum = exhaustive::all_pure_nash(g, t, tol, 10_000).unwrap();
            assert_eq!(graph.pure_nash_profiles(), from_enum);
        }
    }

    #[test]
    fn opposed_game_graph_is_acyclic_for_both_edge_kinds() {
        let g = opposed_game();
        let t = LinkLoads::zero(2);
        let tol = Tolerance::default();
        for kind in [EdgeKind::BetterResponse, EdgeKind::BestResponse] {
            let graph = GameGraph::build(&g, &t, kind, tol, 10_000).unwrap();
            assert!(graph.has_pure_nash());
            assert!(graph.is_acyclic(), "unexpected cycle with {kind:?} edges");
        }
    }

    #[test]
    fn node_and_edge_counts_are_consistent() {
        let g = opposed_game();
        let t = LinkLoads::zero(2);
        let graph = GameGraph::build(
            &g,
            &t,
            EdgeKind::BetterResponse,
            Tolerance::default(),
            10_000,
        )
        .unwrap();
        assert_eq!(graph.node_count(), 4);
        // Every non-sink node has at least one edge.
        let sinks = graph.pure_nash_profiles().len();
        assert!(graph.edge_count() >= graph.node_count() - sinks);
        assert_eq!(graph.users(), 2);
        assert_eq!(graph.links(), 2);
        assert_eq!(graph.edge_kind(), EdgeKind::BetterResponse);
    }

    #[test]
    fn size_limit_is_enforced() {
        let g = opposed_game();
        let t = LinkLoads::zero(2);
        assert!(matches!(
            GameGraph::build(&g, &t, EdgeKind::BestResponse, Tolerance::default(), 2),
            Err(GameError::TooLarge { .. })
        ));
    }

    #[test]
    fn best_response_edges_are_subset_of_better_response_edges() {
        let g = EffectiveGame::from_rows(
            vec![3.0, 1.0, 2.0],
            vec![
                vec![2.0, 2.5, 1.0],
                vec![1.0, 4.0, 2.0],
                vec![3.0, 3.0, 0.5],
            ],
        )
        .unwrap();
        let t = LinkLoads::zero(3);
        let tol = Tolerance::default();
        let better = GameGraph::build(&g, &t, EdgeKind::BetterResponse, tol, 10_000).unwrap();
        let best = GameGraph::build(&g, &t, EdgeKind::BestResponse, tol, 10_000).unwrap();
        assert!(best.edge_count() <= better.edge_count());
        for code in 0..best.node_count() {
            for succ in best.successors(code) {
                assert!(
                    better.successors(code).contains(succ),
                    "best-response edge {code}->{succ} missing from better-response graph"
                );
            }
        }
    }

    #[test]
    fn three_user_games_have_pure_nash_and_no_best_response_cycle() {
        // Spot-check of the paper's n = 3 claim on fixed instances.
        let instances = [
            vec![
                vec![2.0, 1.0, 3.0],
                vec![1.0, 2.0, 0.5],
                vec![3.0, 1.0, 1.0],
            ],
            vec![
                vec![1.0, 5.0, 2.0],
                vec![5.0, 1.0, 2.0],
                vec![2.0, 2.0, 5.0],
            ],
            vec![
                vec![0.5, 0.7, 0.9],
                vec![0.9, 0.5, 0.7],
                vec![0.7, 0.9, 0.5],
            ],
        ];
        let tol = Tolerance::default();
        for rows in instances {
            let g = EffectiveGame::from_rows(vec![1.0, 2.0, 3.0], rows).unwrap();
            let t = LinkLoads::zero(3);
            let graph = GameGraph::build(&g, &t, EdgeKind::BestResponse, tol, 100_000).unwrap();
            assert!(graph.has_pure_nash());
            assert!(graph.find_cycle().is_none());
        }
    }
}
