//! Content-addressed memoisation for [`OptEngine::estimate`].
//!
//! The key discipline mirrors the solve cache
//! ([`solvers::cache`](crate::solvers::cache)): everything that determines
//! the engine's answer — the estimator method list, **every** [`OptConfig`]
//! budget (profile limit, node limit, branch-and-bound user cap, restarts,
//! move budget, opt seed, tolerance) and the instance, confirmed by full
//! content equality — so a hit replays the cold estimate exactly,
//! telemetry included. Caching never changes brackets, only skips
//! repeated work (e.g. the fixed true network behind a group of belief
//! perturbations, measured once per perturbed equilibrium).
//!
//! [`OptEngine::estimate`]: super::engine::OptEngine::estimate

use crate::cache::{BoundedCache, CacheKey, InstanceKey};
use crate::model::EffectiveGame;
use crate::numeric::canonical_bits;
use crate::opt::engine::{OptConfig, OptMethod, OptOutcome};
use crate::strategy::LinkLoads;

/// A thread-safe memoisation table in front of the opt engine's estimate
/// path: a [`BoundedCache`] of [`OptOutcome`]s.
///
/// At capacity the least-recently-used entry is evicted and counted in
/// [`CacheStats`](crate::cache::CacheStats). See the [module docs](self)
/// for the key discipline. Everything stored under a key built by
/// `cache_key` is exactly what a cold [`OptEngine::estimate`] with that
/// method list and config returned: frontends read through
/// [`OptEngine::open`], and only a complete
/// [`OptWalk`](super::engine::OptWalk) writes.
///
/// [`OptEngine::estimate`]: super::engine::OptEngine::estimate
/// [`OptEngine::open`]: super::engine::OptEngine::open
pub type OptCache = BoundedCache<OptOutcome>;

fn method_tag(method: OptMethod) -> u8 {
    match method {
        OptMethod::Exhaustive => 0,
        OptMethod::BranchAndBound => 1,
        OptMethod::LptGreedy => 2,
        OptMethod::Descent => 3,
        OptMethod::Relaxation => 4,
    }
}

/// Builds the warm-tier key for one estimate: the engine fingerprint
/// (method list and the full opt budget set, the adaptive width goal
/// included) plus the instance, filed under its [`InstanceKey`] digest.
pub(crate) fn cache_key<'a>(
    methods: &[OptMethod],
    config: &OptConfig,
    game: &'a EffectiveGame,
    initial: &'a LinkLoads,
    instance: InstanceKey,
) -> CacheKey<'a> {
    let mut engine = Vec::with_capacity(96);
    engine.extend_from_slice(b"netuncert-opt-v3");
    engine.push(methods.len() as u8);
    engine.extend(methods.iter().map(|&mth| method_tag(mth)));
    engine.extend_from_slice(&canonical_bits(config.tol.eps()).to_le_bytes());
    engine.extend_from_slice(&config.profile_limit.to_le_bytes());
    engine.extend_from_slice(&config.node_limit.to_le_bytes());
    engine.extend_from_slice(&(config.bb_max_users as u64).to_le_bytes());
    engine.extend_from_slice(&(config.restarts as u64).to_le_bytes());
    engine.extend_from_slice(&config.max_moves.to_le_bytes());
    engine.extend_from_slice(&config.opt_seed.to_le_bytes());
    match config.width_goal {
        Some(goal) => {
            engine.push(1);
            engine.extend_from_slice(&canonical_bits(goal).to_le_bytes());
        }
        None => engine.push(0),
    }
    CacheKey::new(engine, instance, game, initial)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn game() -> EffectiveGame {
        EffectiveGame::from_rows(
            vec![3.0, 1.0, 2.0],
            vec![
                vec![2.0, 2.5, 1.0],
                vec![1.0, 4.0, 2.0],
                vec![3.0, 3.0, 0.5],
            ],
        )
        .unwrap()
    }

    fn key<'a>(
        methods: &[OptMethod],
        config: &OptConfig,
        game: &'a EffectiveGame,
        initial: &'a LinkLoads,
    ) -> CacheKey<'a> {
        cache_key(
            methods,
            config,
            game,
            initial,
            InstanceKey::of(game, initial),
        )
    }

    #[test]
    fn keys_separate_games_budgets_and_method_lists() {
        let config = OptConfig::default();
        let initial = LinkLoads::zero(3);
        let methods = vec![OptMethod::Exhaustive, OptMethod::Relaxation];
        let game = game();
        let base = key(&methods, &config, &game, &initial);

        for other in [
            OptConfig {
                node_limit: 7,
                ..config
            },
            OptConfig {
                bb_max_users: 3,
                ..config
            },
            OptConfig {
                max_moves: 9,
                ..config
            },
            OptConfig {
                opt_seed: 1,
                ..config
            },
        ] {
            assert_ne!(base, key(&methods, &other, &game, &initial));
        }

        let reordered = vec![OptMethod::Relaxation, OptMethod::Exhaustive];
        assert_ne!(base, key(&reordered, &config, &game, &initial));

        let busy = LinkLoads::new(vec![1.0, 0.0, 0.0]).unwrap();
        assert_ne!(base, key(&methods, &config, &game, &busy));

        assert_eq!(base, key(&methods, &config, &game, &initial));
    }

    #[test]
    fn keys_identify_signed_zero_initial_loads_and_separate_width_goals() {
        let config = OptConfig::default();
        let methods = vec![OptMethod::LptGreedy, OptMethod::Relaxation];
        let game = game();
        let pos = LinkLoads::new(vec![0.0, 0.5, 0.0]).unwrap();
        let neg = LinkLoads::new(vec![-0.0, 0.5, -0.0]).unwrap();
        assert_eq!(
            key(&methods, &config, &game, &pos),
            key(&methods, &config, &game, &neg)
        );
        // The adaptive width goal is result-determining, so it must key.
        let adaptive = OptConfig {
            width_goal: Some(1.5),
            ..config
        };
        assert_ne!(
            key(&methods, &config, &game, &pos),
            key(&methods, &adaptive, &game, &pos)
        );
        let tighter = OptConfig {
            width_goal: Some(1.1),
            ..config
        };
        assert_ne!(
            key(&methods, &adaptive, &game, &pos),
            key(&methods, &tighter, &game, &pos)
        );
    }
}
