//! Integration tests for the belief-noise axis: the adaptive
//! bracket-driven `OptEngine` mode saves estimator attempts at scale, and
//! the E15 `belief_noise` experiment carries the same thread/shard
//! bit-invariance contract as E13/E14.

use instance_gen::{rng, BeliefModelKind, CapacityDist, EffectiveSpec, GameSpec, WeightDist};
use netuncert::sim::config::IntensityLadder;
use netuncert::sim::sweep::SweepRunner;
use netuncert::sim::{experiments, ExperimentConfig, Shard};
use netuncert_core::opt::{OptConfig, OptEngine, OptMethod};
use netuncert_core::prelude::*;

/// The acceptance bar of the belief-noise sweep: on `n = 512, m = 16`
/// instances (far past the exhaustive wall) the adaptive mode meets
/// `width_goal = 1.5` and its telemetry shows **strictly fewer estimator
/// attempts** than the fixed-budget configuration on the same instances —
/// the restart-hungry descent backend is skipped and recorded as saved.
#[test]
fn adaptive_brackets_meet_the_width_goal_with_strictly_fewer_attempts() {
    const GOAL: f64 = 1.5;
    let fixed_cfg = OptConfig::default();
    let adaptive_cfg = OptConfig {
        width_goal: Some(GOAL),
        ..fixed_cfg
    };
    let initial = LinkLoads::zero(16);
    for seed in [1u64, 2, 3] {
        let game = EffectiveSpec::General {
            users: 512,
            links: 16,
            capacity: CapacityDist::Uniform { lo: 0.5, hi: 2.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        }
        .generate(&mut rng(seed, 0x0E15_2016));

        let fixed = OptEngine::default_order(fixed_cfg)
            .estimate(&game, &initial)
            .unwrap();
        let adaptive = OptEngine::default_order(adaptive_cfg)
            .estimate(&game, &initial)
            .unwrap();

        // Both modes certify the goal...
        for outcome in [&fixed, &adaptive] {
            assert!(outcome.opt1.meets_goal(GOAL), "{:?}", outcome.opt1);
            assert!(outcome.opt2.meets_goal(GOAL), "{:?}", outcome.opt2);
        }
        // ...but the adaptive engine spends strictly fewer attempts, and
        // the telemetry names what it saved (the descent restart budget).
        assert!(
            adaptive.telemetry.attempts.len() < fixed.telemetry.attempts.len(),
            "seed {seed}: adaptive ran {:?}, fixed ran {:?}",
            adaptive.telemetry.attempts,
            fixed.telemetry.attempts
        );
        assert!(
            adaptive
                .telemetry
                .skipped
                .iter()
                .any(|s| s.method == OptMethod::Descent),
            "seed {seed}: the saved descent run must be recorded, got {:?}",
            adaptive.telemetry.skipped
        );
        assert!(fixed.telemetry.skipped.is_empty());
        // The adaptive bracket is still a certified bracket: it contains
        // the fixed-mode one (which only intersects more contributions).
        assert!(adaptive.opt1.lower <= fixed.opt1.lower + 1e-12);
        assert!(adaptive.opt1.upper >= fixed.opt1.upper - 1e-12);
        assert!(adaptive.opt2.lower <= fixed.opt2.lower + 1e-12);
        assert!(adaptive.opt2.upper >= fixed.opt2.upper - 1e-12);
    }
}

/// A focused-axis E15 configuration sized for the invariance proofs.
fn e15_config(threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        samples: 2,
        threads,
        belief_models: MethodList::parse("noise,partial").unwrap(),
        intensities: IntensityLadder::parse("1.5").unwrap(),
        ..ExperimentConfig::quick()
    }
}

/// The E13/E14 contract, carried by E15: cells are bit-invariant across
/// worker counts (1/3/8) and a 2-shard split merges back to the exact
/// single-process outcome.
#[test]
fn belief_noise_cells_are_thread_and_shard_invariant() {
    let run = |threads: usize| {
        SweepRunner::with_experiments(
            e15_config(threads),
            vec![experiments::find("belief_noise").unwrap()],
        )
        .outcomes()
        .expect("reports assemble")
    };
    let base = run(1);
    assert!(base.iter().all(|o| o.holds), "E15 must hold");
    for threads in [3usize, 8] {
        assert_eq!(base, run(threads), "results drifted at {threads} threads");
    }

    // The sharded half: two shards, collected in reverse order, merge to
    // the single-process outcome exactly.
    let runner = SweepRunner::with_experiments(
        e15_config(2),
        vec![experiments::find("belief_noise").unwrap()],
    );
    let direct = runner.outcomes().expect("reports assemble");
    let mut records = runner.run_shard(Shard::new(1, 2).unwrap());
    records.extend(runner.run_shard(Shard::new(0, 2).unwrap()));
    let merged = runner.merge(&records).expect("both shards present");
    assert_eq!(direct, merged);
}

/// Restricting the model/intensity axes changes the grid, not the shared
/// true networks: the same `(size, sample)` family is measured under every
/// selection, so a cached sweep pays for each family once.
#[test]
fn cached_belief_sweeps_hit_on_the_shared_true_networks() {
    let config = e15_config(2);
    let cached =
        SweepRunner::with_experiments(config, vec![experiments::find("belief_noise").unwrap()])
            .with_cache();
    let cached_outcomes = cached.outcomes().expect("reports assemble");
    let solve_stats = cached.cache_stats().expect("cache enabled");
    let opt_stats = cached.opt_cache_stats().expect("opt cache enabled");
    // Two models × one intensity share each size's true network: the
    // true-NE solves and the true-network brackets must hit.
    assert!(
        solve_stats.hits > 0,
        "the shared true networks must produce solve-cache hits, got {solve_stats:?}"
    );
    assert!(
        opt_stats.hits > 0,
        "the shared true networks must produce opt-cache hits, got {opt_stats:?}"
    );

    let uncached =
        SweepRunner::with_experiments(config, vec![experiments::find("belief_noise").unwrap()]);
    assert_eq!(
        cached_outcomes,
        uncached.outcomes().expect("reports assemble"),
        "caching must never change sweep results"
    );
}

/// The belief-model subsystem end to end: one bit-identical true network,
/// a family of structured perturbations, and drift that responds to the
/// intensity knob.
#[test]
fn belief_models_perturb_a_fixed_network_with_intensity_graded_drift() {
    let spec = GameSpec {
        users: 8,
        links: 4,
        states: 4,
        weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        capacities: CapacityDist::TwoLevel { lo: 1.0, hi: 4.0 },
        beliefs: instance_gen::BeliefKind::CommonUniform,
    };
    for kind in BeliefModelKind::ALL {
        let model = kind.build();
        let base = || rng(7, 0);
        let calm = spec.generate_with_beliefs(model.as_ref(), 0.0, &mut base(), &mut rng(7, 1));
        let wild = spec.generate_with_beliefs(model.as_ref(), 6.0, &mut base(), &mut rng(7, 1));
        // Same network either way; beliefs move only with intensity.
        assert_eq!(calm.states(), wild.states());
        assert_eq!(calm.weights(), wild.weights());
        assert_ne!(
            calm.beliefs(),
            wild.beliefs(),
            "{} must respond to intensity",
            kind.id()
        );
    }
}
