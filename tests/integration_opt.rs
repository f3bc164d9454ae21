//! The OPT-estimator differential contract (see `crates/sim/DESIGN.md`,
//! "The OPT-estimator contract") — the bar every bracketing backend must
//! pass, symmetric to the solver contract:
//!
//! 1. on instances where exhaustive enumeration applies, every backend's
//!    bracket *contains* the exact optima (lower bounds never exceed them,
//!    upper bounds never undercut them, exactness claims hit them);
//! 2. `BranchAndBound` agrees with `Exhaustive` **exactly** — the same
//!    `f64` optimum values — whenever its search completes;
//! 3. engine brackets are deterministic and bit-identical across worker
//!    counts and sweep shardings (the `poa_scaling` experiment rides the
//!    same sharded sweep machinery CI diffs binary-for-binary).

use instance_gen::{rng, CapacityDist, EffectiveSpec, WeightDist};
use netuncert_core::opt::oracle::check_all;
use netuncert_core::opt::{social_optimum, OptConfig, OptEngine, OptEstimator, OptMethod};
use netuncert_core::prelude::*;
use netuncert_core::solvers::exhaustive::profile_count;
use par_exec::ParallelConfig;
use proptest::prelude::*;

fn config() -> OptConfig {
    OptConfig::default()
}

/// A random instance in the oracle regime: `n ≤ 6` users, `m ≤ 4` links.
fn small_instance(seed: u64, style: u8) -> EffectiveGame {
    let n = 2 + (seed % 5) as usize; // 2..=6 users
    let m = 2 + (seed % 3) as usize; // 2..=4 links
    let spec = match style % 3 {
        0 => EffectiveSpec::General {
            users: n,
            links: m,
            capacity: CapacityDist::Uniform { lo: 0.5, hi: 2.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        },
        1 => EffectiveSpec::General {
            users: n,
            links: m,
            capacity: CapacityDist::TwoLevel { lo: 1.0, hi: 4.0 },
            weights: WeightDist::Skewed {
                lo: 0.5,
                doublings: 3.0,
            },
        },
        _ => EffectiveSpec::UniformPerUser {
            users: n,
            links: m,
            capacity: CapacityDist::Uniform { lo: 0.5, hi: 5.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 3.0 },
        },
    };
    spec.generate(&mut rng(seed, 0x0077_0000 | style as u64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Contract clause 1: every backend's bracket contains the exhaustive
    /// optima on random small instances (with or without initial traffic).
    #[test]
    fn every_backend_brackets_the_exhaustive_optimum(
        seed in any::<u64>(),
        style in 0u8..3,
        busy in any::<bool>(),
    ) {
        let game = small_instance(seed, style);
        let initial = if busy {
            LinkLoads::new((0..game.links()).map(|l| l as f64 * 0.5).collect()).unwrap()
        } else {
            LinkLoads::zero(game.links())
        };
        let violations = check_all(&game, &initial, &config()).unwrap();
        prop_assert!(violations.is_empty(), "contract violations: {violations:?}");
    }

    /// Contract clause 2: a completed branch-and-bound search reports the
    /// same `f64` optima as exhaustive enumeration — not merely close.
    #[test]
    fn branch_and_bound_equals_exhaustive_exactly(seed in any::<u64>(), style in 0u8..3) {
        let game = small_instance(seed, style);
        let initial = LinkLoads::zero(game.links());
        let cfg = config();
        let exact = social_optimum(&game, &initial, cfg.profile_limit).unwrap();
        let bb = netuncert_core::opt::branch_and_bound::BranchAndBound
            .estimate(&game, &initial, &cfg)
            .unwrap();
        prop_assert!(bb.opt1_exact && bb.opt2_exact, "the search must complete at n ≤ 6");
        prop_assert_eq!(bb.opt1_lower, Some(exact.opt1));
        prop_assert_eq!(bb.opt1_upper, Some(exact.opt1));
        prop_assert_eq!(bb.opt2_lower, Some(exact.opt2));
        prop_assert_eq!(bb.opt2_upper, Some(exact.opt2));
    }

    /// The full default engine is exact in the oracle regime and its
    /// brackets coincide with the enumeration values.
    #[test]
    fn the_default_engine_is_exact_in_the_oracle_regime(seed in any::<u64>(), style in 0u8..3) {
        let game = small_instance(seed, style);
        let initial = LinkLoads::zero(game.links());
        let cfg = config();
        let exact = social_optimum(&game, &initial, cfg.profile_limit).unwrap();
        let outcome = OptEngine::default_order(cfg).estimate(&game, &initial).unwrap();
        prop_assert!(outcome.exact());
        prop_assert_eq!(outcome.opt1.lower, exact.opt1);
        prop_assert_eq!(outcome.opt2.lower, exact.opt2);
    }

    /// Contract clause 3, in-process half: brackets are deterministic — the
    /// bounds-only composition (the one that runs at `n = 512`) returns
    /// bit-identical outcomes on repeated estimates, and the cell-level
    /// parallelism of the sweep cannot touch them because estimation is
    /// single-threaded per instance.
    #[test]
    fn bound_compositions_are_deterministic(seed in any::<u64>(), style in 0u8..3) {
        let game = small_instance(seed, style);
        let initial = LinkLoads::zero(game.links());
        let engine = OptEngine::from_kinds(
            config(),
            &[OptMethod::LptGreedy, OptMethod::Descent, OptMethod::Relaxation],
        );
        let a = engine.estimate(&game, &initial).unwrap();
        let b = engine.estimate(&game, &initial).unwrap();
        prop_assert_eq!(a.opt1, b.opt1);
        prop_assert_eq!(a.opt2, b.opt2);
    }
}

/// The acceptance bar of the PoA-at-scale workload: at `n = 512, m = 16` —
/// beyond the exhaustive wall — the bounds-only composition produces a
/// finite bracket with `upper/lower ≤ 1.5` for both objectives, and an
/// interval coordination ratio of a certified equilibrium.
#[test]
fn opt_brackets_stay_tight_where_exhaustive_is_inapplicable() {
    let cfg = config();
    assert!(profile_count(512, 16) > cfg.profile_limit);
    let initial = LinkLoads::zero(16);
    for seed in [1u64, 2, 3] {
        let game = EffectiveSpec::General {
            users: 512,
            links: 16,
            capacity: CapacityDist::Uniform { lo: 0.5, hi: 2.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        }
        .generate(&mut rng(seed, 0x0051_2016));

        let engine = OptEngine::default_order(cfg);
        let outcome = engine.estimate(&game, &initial).unwrap();
        assert!(!outcome.exact(), "n = 512 cannot be exact");
        for (bracket, name) in [(&outcome.opt1, "OPT1"), (&outcome.opt2, "OPT2")] {
            assert!(bracket.lower > 0.0, "{name} lower must be positive");
            assert!(bracket.upper.is_finite(), "{name} upper must be finite");
            assert!(
                bracket.width() <= 1.5,
                "{name} bracket too loose at seed {seed}: {:?} (width {})",
                bracket,
                bracket.width()
            );
        }

        // A certified equilibrium measured against the brackets yields a
        // finite interval coordination ratio.
        let solver =
            SolverEngine::from_kinds(SolverConfig::default(), &[PureNashMethod::LocalSearch]);
        let ne = solver
            .solve(&game, &initial)
            .unwrap()
            .solution
            .expect("local search converges at n=512");
        assert!(is_pure_nash(&game, &ne.profile, &initial, cfg.tol));
        let sc1 = netuncert_core::social_cost::pure_sc1(&game, &ne.profile, &initial);
        let cr1 = ratio_bracket(sc1, &outcome.opt1, "OPT1").unwrap();
        assert!(cr1.lower.is_finite() && cr1.upper.is_finite());
        assert!(cr1.upper >= cr1.lower);
        assert!(cr1.upper / cr1.lower <= 1.5 + 1e-9);
    }
}

/// Engine brackets are invariant under the batch layer's worker count: an
/// estimate embedded in a `parallel_map` sweep returns the same bits for 1,
/// 3 and 8 workers.
#[test]
fn engine_brackets_are_thread_count_invariant() {
    use par_exec::parallel_map;
    let games: Vec<EffectiveGame> = (0..12).map(|i| small_instance(i, (i % 3) as u8)).collect();
    let engine = OptEngine::default_order(config());
    let run = |threads: usize| {
        parallel_map(&ParallelConfig::new(threads), games.len(), |task| {
            let game = &games[task];
            let outcome = engine
                .estimate(game, &LinkLoads::zero(game.links()))
                .unwrap();
            (outcome.opt1, outcome.opt2)
        })
    };
    let base = run(1);
    for threads in [3usize, 8] {
        assert_eq!(base, run(threads), "brackets drifted at {threads} threads");
    }
}

/// The sharded-sweep half of clause 3: running `poa_scaling` as two shards
/// and merging reproduces the unsharded records and report exactly.
#[test]
fn the_poa_scaling_experiment_is_shard_invariant() {
    use netuncert::sim::sweep::SweepRunner;
    use netuncert::sim::{experiments, ExperimentConfig, Shard};

    let config = ExperimentConfig {
        samples: 2,
        threads: 2,
        ..ExperimentConfig::quick()
    };
    let runner =
        SweepRunner::with_experiments(config, vec![experiments::find("poa_scaling").unwrap()]);
    let direct = runner.outcomes().expect("reports assemble");
    assert!(direct.iter().all(|o| o.holds), "E14 must hold");

    let mut records = runner.run_shard(Shard::new(1, 2).unwrap());
    records.extend(runner.run_shard(Shard::new(0, 2).unwrap()));
    let merged = runner.merge(&records).expect("both shards present");
    assert_eq!(direct, merged);
}
