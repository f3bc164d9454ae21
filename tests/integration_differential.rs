//! The cross-solver differential-testing harness.
//!
//! Every solver backend is certified against the exhaustive oracle on
//! random small instances (the regime where enumeration is conclusive),
//! via `netuncert_core::solvers::oracle` — the template future backends
//! must pass (see `crates/sim/DESIGN.md`, "The differential contract"):
//!
//! 1. any returned profile passes the equilibrium checker (soundness);
//! 2. no backend returns an equilibrium on an instance the oracle proved
//!    has none, and no conclusive backend misses one the oracle found
//!    (existence agreement);
//! 3. the `LocalSearch` backend is bit-identical across 1/3/8 worker
//!    threads and across sweep shardings (determinism).
//!
//! The suite also pins the acceptance bar for the huge-game workload:
//! `LocalSearch` must return a checker-certified pure NE at `n = 512,
//! m = 16`, where exhaustive enumeration is inapplicable.

use instance_gen::{rng, CapacityDist, EffectiveSpec, WeightDist};
use netuncert_core::prelude::*;
use netuncert_core::solvers::exhaustive::profile_count;
use netuncert_core::solvers::oracle::{check_all, check_kinds, existence_oracle, OracleAnswer};
use par_exec::{parallel_map, ParallelConfig};
use proptest::prelude::*;

/// A differential-sized configuration: small exhaustive budget is not
/// needed — the instances are tiny — but keep local-search budgets at their
/// defaults so the proptest exercises the shipped configuration.
fn config() -> SolverConfig {
    SolverConfig::default()
}

/// A random small instance in the oracle regime, shaped by `style` to also
/// exercise the special-case solvers (two links, identical weights, uniform
/// per-user beliefs).
fn small_instance(seed: u64, style: u8) -> EffectiveGame {
    let n = 2 + (seed % 4) as usize; // 2..=5 users
    let spec = match style % 4 {
        0 => EffectiveSpec::General {
            users: n,
            links: 2 + (seed % 2) as usize, // 2..=3 links
            capacity: CapacityDist::Uniform { lo: 0.5, hi: 2.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        },
        1 => EffectiveSpec::General {
            users: n,
            links: 2,
            capacity: CapacityDist::TwoLevel { lo: 1.0, hi: 4.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        },
        2 => EffectiveSpec::General {
            users: n,
            links: 3,
            capacity: CapacityDist::Uniform { lo: 0.5, hi: 2.0 },
            weights: WeightDist::Identical(1.5),
        },
        _ => EffectiveSpec::UniformPerUser {
            users: n,
            links: 3,
            capacity: CapacityDist::Uniform { lo: 0.5, hi: 5.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 3.0 },
        },
    };
    spec.generate(&mut rng(seed, 0xD1FF_0000 | style as u64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Contract clauses 1 and 2, for every built-in backend, on random
    /// small instances of every style.
    #[test]
    fn no_backend_violates_the_differential_contract(seed in any::<u64>(), style in 0u8..4) {
        let game = small_instance(seed, style);
        let initial = LinkLoads::zero(game.links());
        let violations = check_all(&game, &initial, &config()).unwrap();
        prop_assert!(violations.is_empty(), "contract violations: {violations:?}");
    }

    /// Existence agreement, pairwise: on oracle-decided instances, any two
    /// backends that both return a profile return *certified* profiles, and
    /// no backend contradicts the oracle's existence verdict.
    #[test]
    fn applicable_solver_pairs_agree_with_the_oracle(seed in any::<u64>(), style in 0u8..4) {
        let game = small_instance(seed, style);
        let initial = LinkLoads::zero(game.links());
        let cfg = config();
        let answer = existence_oracle(&game, &initial, &cfg);
        prop_assert_ne!(answer, OracleAnswer::TooLarge, "small instances are oracle-sized");
        let reports = check_kinds(&PureNashMethod::ALL, &game, &initial, &cfg).unwrap();
        for a in &reports {
            prop_assert!(a.violations.is_empty(), "{:?}", a.violations);
            for b in &reports {
                // If either member of the pair found an equilibrium, the
                // oracle's verdict must be "exists" — so the pair can never
                // split into "found" vs "proved none".
                if a.found || b.found {
                    prop_assert_eq!(answer.exists(), Some(true));
                }
            }
        }
    }

    /// Contract clause 3: the new backend is bit-identical for any worker
    /// count (one engine mapped by 1, 3 and 8 threads over a 12-instance
    /// batch).
    #[test]
    fn local_search_batches_are_thread_count_invariant(seed in any::<u64>()) {
        let games: Vec<EffectiveGame> =
            (0..12).map(|i| small_instance(seed.wrapping_add(i), (i % 4) as u8)).collect();
        let engine = SolverEngine::from_kinds(config(), &[PureNashMethod::LocalSearch]);
        let solve = |threads: usize| {
            parallel_map(&ParallelConfig::new(threads), games.len(), |i| {
                let game = &games[i];
                engine.solve(game, &LinkLoads::zero(game.links())).unwrap()
            })
        };
        let base = solve(1);
        for threads in [3usize, 8] {
            let other = solve(threads);
            // Solutions and solver telemetry (methods, iterations, restarts)
            // must agree; wall-clock telemetry is legitimately noisy.
            for (x, y) in base.iter().zip(&other) {
                prop_assert_eq!(&x.solution, &y.solution);
                prop_assert_eq!(x.telemetry.attempts.len(), y.telemetry.attempts.len());
                for (ax, ay) in x.telemetry.attempts.iter().zip(&y.telemetry.attempts) {
                    prop_assert_eq!(ax.method, ay.method);
                    prop_assert_eq!(ax.iterations, ay.iterations);
                    prop_assert_eq!(ax.restarts, ay.restarts);
                    prop_assert_eq!(ax.found, ay.found);
                }
            }
        }
    }
}

/// The acceptance bar of the huge-game workload: `LocalSearch` certifies a
/// pure NE at `n = 512, m = 16`, a size where `Exhaustive` reports itself
/// not applicable.
#[test]
fn local_search_certifies_equilibria_where_exhaustive_is_inapplicable() {
    let cfg = config();
    assert!(
        profile_count(512, 16) > cfg.profile_limit,
        "the size must lie beyond the exhaustive wall"
    );
    let initial = LinkLoads::zero(16);
    for seed in [1u64, 2, 3] {
        let game = EffectiveSpec::General {
            users: 512,
            links: 16,
            capacity: CapacityDist::Uniform { lo: 0.5, hi: 2.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        }
        .generate(&mut rng(seed, 0x0051_2016));

        // Exhaustive must bow out...
        let exhaustive = PureNashMethod::Exhaustive.build();
        assert_eq!(
            exhaustive.applicability(&game, &initial, &cfg),
            Applicability::NotApplicable
        );

        // ...and local search must return a checker-certified equilibrium.
        let engine = SolverEngine::from_kinds(cfg, &[PureNashMethod::LocalSearch]);
        let solved = engine.solve(&game, &initial).unwrap();
        let solution = solved
            .solution
            .expect("local search must converge at n=512");
        assert_eq!(solution.method, PureNashMethod::LocalSearch);
        assert!(is_pure_nash(&game, &solution.profile, &initial, cfg.tol));
        let attempt = solved.telemetry.winning_attempt().expect("one attempt");
        assert!(attempt.iterations.is_some());
        assert!(attempt.restarts.is_some());
    }
}

/// Shard invariance of the huge-game experiment: running `scaling` as two
/// shards and merging reproduces the unsharded records and report exactly.
#[test]
fn the_scaling_experiment_is_shard_invariant() {
    use netuncert::sim::sweep::SweepRunner;
    use netuncert::sim::{experiments, ExperimentConfig, Shard};

    let config = ExperimentConfig {
        samples: 2,
        threads: 2,
        ..ExperimentConfig::quick()
    };
    let runner = SweepRunner::with_experiments(config, vec![experiments::find("scaling").unwrap()]);
    let direct = runner.outcomes().expect("reports assemble");

    let mut records = runner.run_shard(Shard::new(1, 2).unwrap());
    records.extend(runner.run_shard(Shard::new(0, 2).unwrap()));
    let merged = runner.merge(&records).expect("both shards present");
    assert_eq!(direct, merged);
}

/// The engine composition behind `--solvers`: kinds round-trip through ids,
/// each built solver reports its own kind, and an engine built from kinds
/// reports the same method order.
#[test]
fn solver_kinds_round_trip_and_drive_engine_order() {
    for kind in PureNashMethod::ALL {
        assert_eq!(PureNashMethod::parse(kind.id()), Some(kind));
        assert_eq!(kind.build().method(), kind);
    }
    assert_eq!(PureNashMethod::parse("nonsense"), None);
    let engine = SolverEngine::from_kinds(
        config(),
        &[PureNashMethod::LocalSearch, PureNashMethod::Exhaustive],
    );
    assert_eq!(
        engine.methods(),
        vec![PureNashMethod::LocalSearch, PureNashMethod::Exhaustive]
    );
    // The paper order is untouched by the new backend.
    assert_eq!(
        SolverEngine::default().methods(),
        vec![
            PureNashMethod::TwoLinks,
            PureNashMethod::Symmetric,
            PureNashMethod::UniformBeliefs,
            PureNashMethod::BestResponse,
            PureNashMethod::Exhaustive,
        ]
    );
}
