//! Integration tests for the SoA kernel layer: the game's own kernel rows,
//! solves fanned out over worker threads through one shared cache
//! bit-identical to sequential solving, the kernel-backed solvers
//! certified by the differential oracle contract, and the runs' quiet-pass
//! certificate at near-ties.
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
    let uncached = SolverEngine::from_kinds(SolverConfig::default(), &PureNashMethod::ALL);
    let sequential: Vec<Shape> = items
        .iter()
        .map(|(g, t)| shape(uncached.solve(g, t).unwrap()))
        .collect();
    for threads in [1usize, 3, 8] {
        let cache = Arc::new(SolveCache::new());
        let engine = SolverEngine::from_kinds(SolverConfig::default(), &PureNashMethod::ALL)
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

/// The scalings the near-tie proptest draws, as `(weight exponent,
/// capacity exponent)` for weights `U[0.5, 4)·2^we` and capacities
/// `U[1, 8)·2^ce`; latencies scale by `2^(we − ce)`.
fn near_tie_scaling(mode: u8, k: i32) -> (i32, i32) {
    match mode {
        // Weights, then capacities, scaled by 2^k.
        0 => (k, 0),
        1 => (0, k),
        // Capacities near f64::MIN_POSITIVE, latencies at 2^k.
        2 => (k - 1022, -1022),
        // Capacities near f64::MIN_POSITIVE under unit weights: every
        // latency overflows.
        3 => (0, -1022),
        // Capacities above 2^1021, so most reciprocals are subnormal.
        _ => (k.min(0) + 1015, 1021),
    }
}

/// `x·2^e`, in two steps so that neither power over- or underflows.
fn exp2_scaled(x: f64, e: i32) -> f64 {
    x * 2f64.powi(e / 2) * 2f64.powi(e - e / 2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Near-tie certification. Start from a certified profile, then
    /// rescale one capacity so that one user's move to one link sits
    /// within ±8 ulps of the tolerance threshold `is_pure_nash` decides at.
    /// Every `LocalSearchRun` and `BestResponseRun` (both rules) started
    /// there must move or return a profile `is_pure_nash` accepts: a
    /// quiet kernel pass is the certificate, whatever the scale.
    #[test]
    fn kernel_runs_certify_at_near_tolerance_ties(
        seed in any::<u64>(),
        users in 2usize..=8,
        links in 2usize..=4,
        mode in 0u8..5,
        k in -40i32..=40,
        ulps in -8i64..=8,
    ) {
        use netuncert_core::solvers::kernel::{
            run_to_completion, BestResponseRun, BrStart, LocalSearchRun,
        };
        use rand::Rng;

        let (we, ce) = near_tie_scaling(mode, k);
        let mut r = rng(seed, 7);
        let weights: Vec<f64> = (0..users)
            .map(|_| exp2_scaled(r.gen_range(0.5..4.0), we))
            .collect();
        let rows: Vec<Vec<f64>> = (0..users)
            .map(|_| (0..links).map(|_| exp2_scaled(r.gen_range(1.0..8.0), ce)).collect())
            .collect();
        let mut game = EffectiveGame::from_rows(weights, rows).unwrap();
        let initial = LinkLoads::zero(links);
        let config = SolverConfig::default();
        let tol = config.tol;
        let mut scratch = KernelScratch::new();

        let base = run_to_completion(&mut LocalSearchRun::new(&game, &initial, &config), &mut scratch);
        let Some(base) = base.solution.map(|s| s.profile) else {
            return Ok(());
        };
        prop_assert!(is_pure_nash(&game, &base, &initial, tol));

        // Put user `i`'s move to `to` at the threshold `b = a + eps·max(1, a, b)`.
        let i = r.gen_range(0..users);
        let from = base.link(i);
        let to = (from + r.gen_range(1..links)) % links;
        let loads = base.link_loads(&game, &initial);
        let current = loads[from] / game.capacity(i, from);
        let threshold = if current >= 1.0 {
            current - tol.eps() * current
        } else {
            current - tol.eps()
        };
        if threshold > 0.0 && current.is_finite() {
            let exact = (loads[to] + game.weight(i)) / threshold;
            let capacity = f64::from_bits((exact.to_bits() as i64 + ulps) as u64);
            if capacity.is_normal() {
                game.edit(&GameEdit::CapacityChange { user: i, link: to, capacity })
                    .unwrap();
            }
        }

        let ls = LocalSearchRun::with_seed(&game, &initial, &config, base.clone());
        let mut runs: Vec<(&str, Box<dyn KernelRun + '_>)> = vec![("local search", Box::new(ls))];
        for largest_gain in [false, true] {
            let br = BestResponseRun::new(
                &game,
                &initial,
                BrStart::Profile(base.clone()),
                config.max_steps as u64,
                largest_gain,
                tol,
            );
            runs.push((if largest_gain { "largest gain" } else { "round robin" }, Box::new(br)));
        }
        for (name, mut run) in runs {
            let detail = run_to_completion(run.as_mut(), &mut scratch);
            if let Some(solution) = detail.solution {
                prop_assert!(
                    is_pure_nash(&game, &solution.profile, &initial, tol),
                    "{name} converged uncertified on {:?} after {:?} moves",
                    solution.profile.choices(),
                    detail.iterations
                );
            }
        }
    }
}
