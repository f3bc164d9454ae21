//! Integration tests for the declarative experiment API: shard-merge
//! equivalence (the sharded sweep reproduces the single-process report
//! byte-for-byte) and the solve cache (hits replay cold solves exactly and
//! never change sweep results).

use std::sync::Arc;

use netuncert::core::prelude::*;
use netuncert::sim::sweep::{CellRecord, ShardFile, SweepRunner};
use netuncert::sim::{experiments, runner, ExperimentConfig, Shard};
use proptest::prelude::*;

fn tiny_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        samples: 4,
        threads: 2,
        ..ExperimentConfig::quick()
    }
}

fn report(sweep: &SweepRunner, records: &[CellRecord]) -> String {
    let outcomes = sweep.merge(records).expect("all shards present");
    runner::to_json(&outcomes).expect("outcomes serialise")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Shard invariance without recomputing the suite per layout. Every
    /// record is computed once; each 1/3/8-shard selection of them, merged
    /// in reverse shard order, renders the solo report byte for byte. A
    /// seeded sample of cells is then recomputed in isolated `run_shard`
    /// calls (a shard owning that one cell, so the cell also gets the
    /// pool's whole width), with and without the solve cache, and each
    /// record must serialise byte-identically to its solo counterpart.
    /// The CI sharding step runs the full multi-process matrix.
    #[test]
    fn shard_merge_reports_are_byte_identical(
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let config = tiny_config(seed);
        let sweep = SweepRunner::new(config);
        let records = sweep.run();
        let single = report(&sweep, &records);
        for count in [1usize, 3, 8] {
            let mut merged = Vec::new();
            for index in (0..count).rev() {
                let shard = Shard::new(index, count).unwrap();
                merged.extend(records.iter().filter(|r| shard.selects(r.task_id)).cloned());
            }
            prop_assert_eq!(&single, &report(&sweep, &merged));
        }

        let tasks = sweep.task_count();
        let cached = SweepRunner::new(config).with_cache();
        for pick in picks {
            let task = (pick % tasks as u64) as usize;
            let alone = Shard::new(task, tasks).unwrap();
            let solo = serde_json::to_string(&records[task]).unwrap();
            for runner in [&sweep, &cached] {
                let rerun = runner.run_shard(alone);
                prop_assert_eq!(rerun.len(), 1);
                prop_assert_eq!(&solo, &serde_json::to_string(&rerun[0]).unwrap());
            }
        }
    }
}

#[test]
fn shard_record_files_are_disjoint_and_cover_every_task() {
    let sweep = SweepRunner::new(tiny_config(7));
    let mut seen = Vec::new();
    for index in 0..3 {
        for record in sweep.run_shard(Shard::new(index, 3).unwrap()) {
            assert!(
                !seen.contains(&record.task_id),
                "task {} owned by two shards",
                record.task_id
            );
            seen.push(record.task_id);
        }
    }
    seen.sort_unstable();
    let expected: Vec<u64> = (0..sweep.task_count() as u64).collect();
    assert_eq!(seen, expected, "the shards must partition the sweep");
}

#[test]
fn cache_hits_replay_cold_solves_exactly() {
    let cache = Arc::new(SolveCache::new());
    let engine = SolverEngine::default().with_cache(Arc::clone(&cache));
    let game = EffectiveGame::from_rows(
        vec![3.0, 1.0, 2.0, 5.0],
        vec![
            vec![2.0, 2.5, 1.0],
            vec![1.0, 4.0, 2.0],
            vec![3.0, 3.0, 0.5],
            vec![0.5, 6.0, 2.0],
        ],
    )
    .unwrap();
    let initial = LinkLoads::zero(3);

    let cold = engine.solve(&game, &initial).unwrap();
    let hit = engine.solve(&game, &initial).unwrap();
    // The hit returns the identical equilibrium *and* the identical
    // telemetry (attempts, iterations, recorded wall time).
    assert_eq!(cold.solution, hit.solution);
    assert_eq!(cold.telemetry, hit.telemetry);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

    // An uncached engine with the same budgets finds the same equilibrium.
    let uncached = SolverEngine::default().solve(&game, &initial).unwrap();
    assert_eq!(uncached.solution, cold.solution);
}

#[test]
fn cached_sweeps_hit_on_perturbation_experiments_without_changing_results() {
    let config = ExperimentConfig {
        samples: 8,
        ..tiny_config(0x5EED_CAFE)
    };
    // The perturbation-heavy drift study re-solves each group's true network
    // once per belief perturbation: the cache must record hits there.
    let cached = SweepRunner::with_experiments(
        config,
        vec![
            experiments::find("conjecture").unwrap(),
            experiments::find("kp_compare").unwrap(),
        ],
    )
    .with_cache();
    let cached_outcomes = cached.outcomes().expect("reports assemble");
    let stats = cached.cache_stats().expect("cache enabled");
    assert!(
        stats.hits > 0,
        "the perturbation study must produce cache hits, got {stats:?}"
    );
    assert!(stats.misses > 0);

    let uncached = SweepRunner::with_experiments(
        config,
        vec![
            experiments::find("conjecture").unwrap(),
            experiments::find("kp_compare").unwrap(),
        ],
    );
    assert_eq!(
        cached_outcomes,
        uncached.outcomes().expect("reports assemble"),
        "caching must never change sweep results"
    );
}

#[test]
fn registry_lookup_and_trait_metadata_agree_with_run_all() {
    let config = tiny_config(3);
    // `SweepRunner::new` sweeps the registry, in registry order.
    let swept: Vec<_> = SweepRunner::new(config)
        .experiments()
        .iter()
        .map(|e| e.id())
        .collect();
    assert_eq!(swept, experiments::ids());

    // Ids resolve and the grids address every cell exactly once.
    for experiment in experiments::all() {
        let again = experiments::find(experiment.id()).expect("id resolves");
        assert_eq!(again.grid(&config), experiment.grid(&config));
    }
}

#[test]
fn deleting_cells_and_resuming_reproduces_the_original_records() {
    let config = tiny_config(0xFE5);
    let sweep = SweepRunner::new(config);
    let original = sweep.run();
    assert!(original.len() > 4);

    // Delete a scattering of cells (including the first and last).
    let mut damaged = original.clone();
    let victims = [0usize, 2, damaged.len() - 1];
    for &v in victims.iter().rev() {
        damaged.remove(v);
    }

    // Resume recomputes exactly the missing task ids...
    let missing = sweep.missing_in_shard(Shard::solo(), &damaged);
    assert_eq!(
        missing,
        victims
            .iter()
            .map(|&v| original[v].task_id)
            .collect::<Vec<_>>()
    );
    // ...and the completed record set is bit-identical to the original.
    let resumed = sweep
        .run_missing(Shard::solo(), &damaged)
        .expect("records validate");
    assert_eq!(resumed, original);

    // Resuming a complete file recomputes nothing and changes nothing.
    assert!(sweep.missing_in_shard(Shard::solo(), &original).is_empty());
    assert_eq!(
        sweep
            .run_missing(Shard::solo(), &original)
            .expect("records validate"),
        original
    );

    // Under sharding, only the shard's own missing cells are recomputed:
    // with every record deleted, shard 0/2 completes exactly its half.
    let half = sweep
        .run_missing(Shard::new(0, 2).unwrap(), &[])
        .expect("records validate");
    let expected: Vec<_> = original
        .iter()
        .filter(|r| Shard::new(0, 2).unwrap().selects(r.task_id))
        .cloned()
        .collect();
    assert_eq!(half, expected);

    // Corrupted records are rejected instead of being "completed".
    let mut corrupted = original.clone();
    corrupted[1].result.label = "not the grid's label".into();
    assert!(sweep.run_missing(Shard::solo(), &corrupted).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A `SolveCache` hit replays the cold solve bit-identically — the
    /// solution *and* the full telemetry (method, iterations, restarts,
    /// recorded wall time) — under arbitrary interleavings of repeated
    /// instances.
    #[test]
    fn cache_hits_replay_cold_solves_under_arbitrary_interleavings(
        seed in any::<u64>(),
        order in proptest::collection::vec(0usize..4, 1..24),
    ) {
        use instance_gen::{CapacityDist, EffectiveSpec, WeightDist};

        // Four distinct instances; reference solutions from an uncached
        // engine of the same composition and budgets.
        let games: Vec<EffectiveGame> = (0..4)
            .map(|i| {
                EffectiveSpec::General {
                    users: 4,
                    links: 3,
                    capacity: CapacityDist::Uniform { lo: 0.5, hi: 2.0 },
                    weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
                }
                .generate(&mut instance_gen::rng(seed, 0xCACE + i))
            })
            .collect();
        let reference: Vec<EngineSolution> = games
            .iter()
            .map(|g| {
                SolverEngine::default()
                    .solve(g, &LinkLoads::zero(3))
                    .unwrap()
            })
            .collect();

        let cache = std::sync::Arc::new(SolveCache::new());
        let cached = SolverEngine::default().with_cache(std::sync::Arc::clone(&cache));
        let mut first_seen: Vec<Option<EngineSolution>> = vec![None; games.len()];
        for &i in &order {
            let solved = cached.solve(&games[i], &LinkLoads::zero(3)).unwrap();
            // Every solve — cold or hit, wherever it lands in the
            // interleaving — must be bit-identical to the uncached
            // reference, including telemetry.
            match &first_seen[i] {
                None => {
                    prop_assert_eq!(&solved.solution, &reference[i].solution);
                    // Deterministic telemetry must match the reference;
                    // wall-clock nanoseconds are legitimately noisy across
                    // engines, so they are compared only hit-vs-cold below.
                    let refs = &reference[i].telemetry.attempts;
                    prop_assert_eq!(solved.telemetry.attempts.len(), refs.len());
                    for (a, b) in solved.telemetry.attempts.iter().zip(refs) {
                        prop_assert_eq!(a.method, b.method);
                        prop_assert_eq!(a.applicability, b.applicability);
                        prop_assert_eq!(a.iterations, b.iterations);
                        prop_assert_eq!(a.restarts, b.restarts);
                        prop_assert_eq!(a.found, b.found);
                    }
                    first_seen[i] = Some(solved);
                }
                // A hit replays the stored cold solve *bit-identically*,
                // recorded wall time included.
                Some(cold) => prop_assert_eq!(&solved, cold),
            }
        }
        let distinct = first_seen.iter().filter(|s| s.is_some()).count() as u64;
        let stats = cache.stats();
        prop_assert_eq!(stats.misses, distinct);
        prop_assert_eq!(stats.hits, order.len() as u64 - distinct);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cache keys are canonical under the sign of zero: an instance whose
    /// initial loads contain `-0.0` is the *same* instance as its `+0.0`
    /// twin, so the second solve must be a cache hit replaying the first —
    /// for the solve cache and the opt cache alike.
    #[test]
    fn cache_keys_identify_signed_zero_instances(
        seed in any::<u64>(),
        signs in proptest::collection::vec(any::<bool>(), 3),
    ) {
        use instance_gen::{CapacityDist, EffectiveSpec, WeightDist};
        use netuncert_core::opt::{OptCache, OptEngine, OptConfig};

        let game = EffectiveSpec::General {
            users: 4,
            links: 3,
            capacity: CapacityDist::Uniform { lo: 0.5, hi: 2.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        }
        .generate(&mut instance_gen::rng(seed, 0x05ED));
        let pos = LinkLoads::zero(3);
        let neg = LinkLoads::new(signs.iter().map(|&s| if s { -0.0 } else { 0.0 }).collect())
            .expect("-0.0 is a valid (non-negative) load");

        let cache = std::sync::Arc::new(SolveCache::new());
        let engine = SolverEngine::default().with_cache(std::sync::Arc::clone(&cache));
        let cold = engine.solve(&game, &pos).unwrap();
        let hit = engine.solve(&game, &neg).unwrap();
        prop_assert_eq!(&cold, &hit, "a signed-zero twin must replay the cold solve");
        let stats = cache.stats();
        prop_assert_eq!((stats.hits, stats.misses), (1, 1));

        let opt_cache = std::sync::Arc::new(OptCache::new());
        let opt = OptEngine::default_order(OptConfig::default())
            .with_cache(std::sync::Arc::clone(&opt_cache));
        let cold = opt.estimate(&game, &pos).unwrap();
        let hit = opt.estimate(&game, &neg).unwrap();
        prop_assert_eq!(&cold, &hit, "a signed-zero twin must replay the cold estimate");
        let stats = opt_cache.stats();
        prop_assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}

#[test]
fn shard_records_serialise_to_stable_json() {
    let config = tiny_config(11);
    let sweep = SweepRunner::with_experiments(config, vec![experiments::find("poa").unwrap()]);
    let a = ShardFile::new(
        &config,
        Shard::new(0, 2).unwrap(),
        sweep.run_shard(Shard::new(0, 2).unwrap()),
    )
    .to_json()
    .unwrap();
    let b = ShardFile::new(
        &config,
        Shard::new(0, 2).unwrap(),
        sweep.run_shard(Shard::new(0, 2).unwrap()),
    )
    .to_json()
    .unwrap();
    assert_eq!(a, b, "shard record files must be reproducible");
}
