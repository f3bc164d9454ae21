//! Integration tests for the SoA kernel layer: the game's own kernel rows, batch
//! solving bit-identical to sequential solving at any worker count, and the
//! kernel-backed solvers certified by the differential oracle contract.
//!
//! The kernel's equivalence claim is deliberately *certification, not bit
//! parity*: multiply-by-reciprocal passes may walk a different path than the
//! divide-based legacy loops near tolerance boundaries, but every profile
//! they return must pass the canonical `is_pure_nash` predicate and the
//! oracle contract. Batched-vs-sequential, by contrast, IS bit parity: both
//! paths step the very same kernel runs.

use instance_gen::{rng, CapacityDist, EffectiveSpec, WeightDist};
use netuncert_core::prelude::*;
use netuncert_core::solvers::oracle::check_all;
use par_exec::ParallelConfig;
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

/// `solve_batch` must be bit-identical to solving each instance sequentially
/// with `solve`, for every worker count and batch size — including batches
/// larger than the engine's internal chunk, so interleaved kernel runs cross
/// chunk boundaries.
#[test]
fn solve_batch_is_bit_identical_to_sequential_solves() {
    for (seed, kinds) in [
        (11u64, SolverKind::PAPER_ORDER.as_slice()),
        (12u64, SolverKind::ALL.as_slice()),
    ] {
        let engine = SolverEngine::from_kinds(SolverConfig::default(), kinds);
        for count in [1usize, 4, 64] {
            let games = sample_games(seed, 16, 4, count);
            let sequential: Vec<Option<PureNashSolution>> = games
                .iter()
                .map(|g| {
                    engine
                        .solve(g, &LinkLoads::zero(g.links()))
                        .expect("solvable")
                        .solution
                })
                .collect();
            for threads in [1usize, 3, 8] {
                let batched: Vec<Option<PureNashSolution>> =
                    SolverEngine::from_kinds(SolverConfig::default(), kinds)
                        .with_parallelism(ParallelConfig::new(threads))
                        .solve_batch(&games)
                        .into_iter()
                        .map(|r| r.expect("solvable").solution)
                        .collect();
                assert_eq!(
                    sequential, batched,
                    "kinds {kinds:?}, K={count}, threads={threads}"
                );
            }
        }
    }
}

/// The batch path reports the same non-wall-clock telemetry as sequential
/// solving: same attempted methods, same iteration and restart counts.
#[test]
fn batch_telemetry_matches_sequential_telemetry() {
    let engine = SolverEngine::from_kinds(SolverConfig::default(), &SolverKind::ALL);
    let games = sample_games(29, 12, 3, 24);
    let flatten = |s: &EngineSolution| -> Vec<(PureNashMethod, Option<u64>, Option<u64>, bool)> {
        s.telemetry
            .attempts
            .iter()
            .map(|a| (a.method, a.iterations, a.restarts, a.found))
            .collect()
    };
    let sequential: Vec<_> = games
        .iter()
        .map(|g| flatten(&engine.solve(g, &LinkLoads::zero(g.links())).unwrap()))
        .collect();
    let batched: Vec<_> = engine
        .solve_batch(&games)
        .into_iter()
        .map(|r| flatten(&r.unwrap()))
        .collect();
    assert_eq!(sequential, batched);
}

/// `solve_batch_with_initial` shares the chunked kernel path; non-zero
/// initial traffic must round-trip it bit-identically too.
#[test]
fn batch_with_initial_is_bit_identical_to_sequential() {
    let engine = SolverEngine::default();
    let games = sample_games(37, 10, 3, 20);
    let items: Vec<(EffectiveGame, LinkLoads)> = games
        .into_iter()
        .enumerate()
        .map(|(i, g)| {
            let m = g.links();
            let loads =
                LinkLoads::new((0..m).map(|l| ((i + l) % 3) as f64 * 0.5).collect()).unwrap();
            (g, loads)
        })
        .collect();
    let sequential: Vec<Option<PureNashSolution>> = items
        .iter()
        .map(|(g, t)| engine.solve(g, t).unwrap().solution)
        .collect();
    for threads in [1usize, 3, 8] {
        let batched: Vec<Option<PureNashSolution>> = SolverEngine::default()
            .with_parallelism(ParallelConfig::new(threads))
            .solve_batch_with_initial(&items)
            .into_iter()
            .map(|r| r.unwrap().solution)
            .collect();
        assert_eq!(sequential, batched, "threads={threads}");
    }
}

/// A shared cache must not disturb batch/sequential parity: hits return the
/// cold solution verbatim whichever path produced it.
#[test]
fn batch_parity_survives_a_shared_cache() {
    use std::sync::Arc;
    let cache = Arc::new(SolveCache::new());
    let engine = SolverEngine::default().with_cache(Arc::clone(&cache));
    let mut games = sample_games(43, 8, 3, 10);
    // Duplicate some instances so the batch path takes cache hits.
    let dupes: Vec<EffectiveGame> = games.iter().take(4).cloned().collect();
    games.extend(dupes);
    let sequential: Vec<Option<PureNashSolution>> = games
        .iter()
        .map(|g| {
            engine
                .solve(g, &LinkLoads::zero(g.links()))
                .unwrap()
                .solution
        })
        .collect();
    let batched: Vec<Option<PureNashSolution>> = engine
        .solve_batch(&games)
        .into_iter()
        .map(|r| r.unwrap().solution)
        .collect();
    assert_eq!(sequential, batched);
    let stats = cache.stats();
    assert!(stats.hits > 0, "duplicated instances must hit the cache");
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
