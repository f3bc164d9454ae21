//! Integration tests for the SoA kernel layer: the game's own kernel rows,
//! solves fanned out over worker threads through one shared cache
//! bit-identical to sequential solving, and the kernel-backed solvers
//! certified by the differential oracle contract.
//!
//! The kernel's equivalence claim is deliberately *certification, not bit
//! parity*: multiply-by-reciprocal passes may walk a different path than the
//! divide-based legacy loops near tolerance boundaries, but every profile
//! they return must pass the canonical `is_pure_nash` predicate and the
//! oracle contract. Parallel-vs-sequential, by contrast, IS bit parity: every
//! worker steps the very same kernel runs.

use instance_gen::{rng, CapacityDist, EffectiveSpec, WeightDist};
use netuncert_core::prelude::*;
use netuncert_core::solvers::oracle::check_all;
use par_exec::{parallel_map, ParallelConfig};
use proptest::prelude::*;

fn general_spec(users: usize, links: usize) -> EffectiveSpec {
    EffectiveSpec::General {
        users,
        links,
        capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
        weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
    }
}

fn sample_games(seed: u64, users: usize, links: usize, count: usize) -> Vec<EffectiveGame> {
    let spec = general_spec(users, links);
    (0..count)
        .map(|task| spec.generate(&mut rng(seed, task as u64)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The kernel view reads the game's own rows down to the bit pattern,
    /// the derived reciprocal rows hold exactly `1.0 / c` for every entry,
    /// and a clone derives bit-identical rows of its own.
    #[test]
    fn soa_game_round_trips_bit_exactly(
        seed in any::<u64>(),
        users in 2usize..=12,
        links in 2usize..=6,
    ) {
        let game = general_spec(users, links).generate(&mut rng(seed, 0));
        let view = SoAGame::from_game(&game);
        prop_assert_eq!(view.users, users);
        prop_assert_eq!(view.links, links);
        for user in 0..users {
            prop_assert_eq!(view.weight(user).to_bits(), game.weight(user).to_bits());
            let caps = view.cap_row(user);
            let invs = view.inv_row(user);
            for link in 0..links {
                prop_assert_eq!(caps[link].to_bits(), game.capacity(user, link).to_bits());
                prop_assert_eq!(invs[link].to_bits(), (1.0 / game.capacity(user, link)).to_bits());
            }
        }
        let clone = game.clone();
        let cloned = SoAView::from_game(&clone);
        prop_assert_eq!(cloned.inv_caps, view.inv_caps);
        prop_assert_eq!(cloned.order, view.order);
    }
}

/// One engine and one [`SolveCache`] shared by every worker of a
/// `parallel_map` must not disturb parity with uncached sequential solves:
/// solutions and solver telemetry agree at 1, 3 and 8 threads, on a batch
/// with non-zero initial traffic and repeated instances, whether a solve
/// ran cold, raced its duplicate, or replayed a hit.
#[test]
fn batch_parity_survives_a_shared_cache() {
    use std::sync::Arc;
    let mut games = sample_games(43, 8, 3, 10);
    // Duplicate some instances so the batch takes cache hits.
    let dupes: Vec<EffectiveGame> = games.iter().take(4).cloned().collect();
    games.extend(dupes);
    let items: Vec<(EffectiveGame, LinkLoads)> = games
        .into_iter()
        .enumerate()
        .map(|(i, g)| {
            let loads = (0..g.links()).map(|l| ((i % 10 + l) % 3) as f64 * 0.5);
            let loads = LinkLoads::new(loads.collect()).unwrap();
            (g, loads)
        })
        .collect();
    type Shape = (
        Option<PureNashSolution>,
        Vec<(PureNashMethod, Option<u64>, Option<u64>, bool)>,
    );
    let shape = |s: EngineSolution| -> Shape {
        let attempts = s.telemetry.attempts.iter();
        let attempts = attempts.map(|a| (a.method, a.iterations, a.restarts, a.found));
        (s.solution, attempts.collect())
    };
    let uncached = SolverEngine::from_kinds(SolverConfig::default(), &SolverKind::ALL);
    let sequential: Vec<Shape> = items
        .iter()
        .map(|(g, t)| shape(uncached.solve(g, t).unwrap()))
        .collect();
    for threads in [1usize, 3, 8] {
        let cache = Arc::new(SolveCache::new());
        let engine = SolverEngine::from_kinds(SolverConfig::default(), &SolverKind::ALL)
            .with_cache(Arc::clone(&cache));
        let pool = ParallelConfig::new(threads);
        for pass in 0..2 {
            let batched = parallel_map(&pool, items.len(), |i| {
                shape(engine.solve(&items[i].0, &items[i].1).unwrap())
            });
            assert_eq!(sequential, batched, "threads={threads}, pass {pass}");
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 2 * items.len() as u64);
        assert!(
            stats.hits >= items.len() as u64,
            "the second pass must replay every instance from the cache"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every kernel-backed backend satisfies the full differential oracle
    /// contract (soundness, no phantom equilibria, conclusive completeness)
    /// on random small instances, under both selection rules.
    #[test]
    fn kernel_backends_pass_the_oracle_contract(
        seed in any::<u64>(),
        users in 2usize..=6,
        links in 2usize..=3,
        largest_gain in any::<bool>(),
    ) {
        let game = general_spec(users, links).generate(&mut rng(seed, 1));
        let initial = LinkLoads::zero(links);
        let config = SolverConfig {
            rule: if largest_gain {
                netuncert_core::algorithms::best_response::SelectionRule::LargestGain
            } else {
                netuncert_core::algorithms::best_response::SelectionRule::RoundRobin
            },
            ..SolverConfig::default()
        };
        let violations = check_all(&game, &initial, &config).unwrap();
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
    }
}
