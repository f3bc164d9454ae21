//! Content-addressed memoisation for [`SolverEngine::solve`].
//!
//! Perturbation-style sweeps re-solve identical effective games constantly:
//! a study that redraws beliefs around a fixed "true" network solves that
//! same true network once per perturbed sample. A [`SolveCache`] shortcuts
//! the repeats. The cache key (`cache_key`) covers everything that
//! determines the engine's answer — the solver method list, the
//! [`SolverConfig`] budgets, the effective game (weights and capacity
//! matrix) and the initial link loads. The instance is filed under its
//! [`InstanceKey`] digest and confirmed by full canonical-content equality,
//! so a hit is guaranteed to return exactly what a cold solve would have
//! returned, telemetry included. Caching therefore never changes results,
//! only skips work.
//!
//! The cache is opt-in via [`SolverEngine::with_cache`]; engines without one
//! behave exactly as before. One cache may be shared (it is `Sync`, handed
//! around as `Arc<SolveCache>`) across threads and across engines — keys
//! embed the engine's method list and budgets, so engines with different
//! strategies never collide.
//!
//! The table itself (a least-recently-used bound, the default capacity)
//! is the shared [`crate::cache`] module's; this module owns the
//! solve-specific key discipline.
//!
//! [`SolverEngine::solve`]: super::engine::SolverEngine::solve
//! [`SolverEngine::with_cache`]: super::engine::SolverEngine::with_cache
//! [`SolverConfig`]: super::engine::SolverConfig

use crate::algorithms::best_response::SelectionRule;
use crate::algorithms::PureNashMethod;
pub use crate::cache::CacheStats;
use crate::cache::{BoundedCache, CacheKey, InstanceKey};
use crate::method_list::MethodKind;
use crate::model::EffectiveGame;
use crate::numeric::canonical_bits;
use crate::solvers::engine::{EngineSolution, SolverConfig};
use crate::strategy::LinkLoads;

/// A thread-safe memoisation table in front of the engine's solve path: a
/// [`BoundedCache`] of [`EngineSolution`]s.
///
/// At capacity the least-recently-used entry is evicted and counted in
/// [`CacheStats`]. See the [module docs](self) for the key discipline and
/// guarantees. Everything stored under a key built by `cache_key` is
/// exactly what a cold [`SolverEngine::solve`] with that method list and
/// config returned: frontends read through [`SolverEngine::open`], and only
/// a finished [`EngineRun`](super::engine::EngineRun) writes.
///
/// [`SolverEngine::solve`]: super::engine::SolverEngine::solve
/// [`SolverEngine::open`]: super::engine::SolverEngine::open
pub type SolveCache = BoundedCache<EngineSolution>;

fn rule_tag(rule: SelectionRule) -> u8 {
    match rule {
        SelectionRule::RoundRobin => 0,
        SelectionRule::LargestGain => 1,
    }
}

/// Builds the warm-tier key for one solve: the engine fingerprint (method
/// list and every budget that can change the answer) plus the instance,
/// filed under its [`InstanceKey`] digest. Two engines that agree on the
/// method list, config and instance read and write the same entry.
pub(crate) fn cache_key<'a>(
    methods: &[PureNashMethod],
    config: &SolverConfig,
    game: &'a EffectiveGame,
    initial: &'a LinkLoads,
    instance: InstanceKey,
) -> CacheKey<'a> {
    let mut engine = Vec::with_capacity(64);
    engine.extend_from_slice(b"netuncert-solve-v3");
    engine.push(methods.len() as u8);
    engine.extend(methods.iter().map(|&mth| mth.position() as u8));
    engine.extend_from_slice(&canonical_bits(config.tol.eps()).to_le_bytes());
    engine.extend_from_slice(&(config.max_steps as u64).to_le_bytes());
    engine.push(rule_tag(config.rule));
    engine.extend_from_slice(&config.profile_limit.to_le_bytes());
    engine.extend_from_slice(&(config.restarts as u64).to_le_bytes());
    engine.extend_from_slice(&config.ls_seed.to_le_bytes());
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
        methods: &[PureNashMethod],
        config: &SolverConfig,
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

    fn solution() -> EngineSolution {
        EngineSolution {
            solution: None,
            telemetry: Default::default(),
        }
    }

    #[test]
    fn keys_separate_games_configs_and_method_lists() {
        let config = SolverConfig::default();
        let initial = LinkLoads::zero(3);
        let methods = vec![PureNashMethod::BestResponse, PureNashMethod::Exhaustive];
        let game = game();
        let base = key(&methods, &config, &game, &initial);

        let other_game = EffectiveGame::from_rows(
            vec![3.0, 1.0, 2.0 + 1e-12],
            vec![
                vec![2.0, 2.5, 1.0],
                vec![1.0, 4.0, 2.0],
                vec![3.0, 3.0, 0.5],
            ],
        )
        .unwrap();
        assert_ne!(base, key(&methods, &config, &other_game, &initial));

        let tighter = SolverConfig {
            max_steps: 7,
            ..SolverConfig::default()
        };
        assert_ne!(base, key(&methods, &tighter, &game, &initial));

        let reordered = vec![PureNashMethod::Exhaustive, PureNashMethod::BestResponse];
        assert_ne!(base, key(&reordered, &config, &game, &initial));

        let busy = LinkLoads::new(vec![1.0, 0.0, 0.0]).unwrap();
        assert_ne!(base, key(&methods, &config, &game, &busy));

        let twin = self::game();
        assert_eq!(base, key(&methods, &config, &twin, &initial));
    }

    #[test]
    fn keys_identify_signed_zero_initial_loads() {
        // `-0.0` satisfies `LinkLoads`' non-negativity validation but has a
        // different bit pattern than `+0.0`; the key must treat the two
        // semantically identical instances as one.
        let config = SolverConfig::default();
        let methods = vec![PureNashMethod::BestResponse];
        let game = game();
        let pos = LinkLoads::new(vec![0.0, 1.0, 0.0]).unwrap();
        let neg = LinkLoads::new(vec![-0.0, 1.0, -0.0]).unwrap();
        assert_eq!(
            key(&methods, &config, &game, &pos),
            key(&methods, &config, &game, &neg)
        );
        // Genuinely different loads still separate.
        let other = LinkLoads::new(vec![0.0, 1.5, 0.0]).unwrap();
        assert_ne!(
            key(&methods, &config, &game, &pos),
            key(&methods, &config, &game, &other)
        );
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let cache = SolveCache::new();
        assert!(cache.is_empty());
        let (game, initial) = (game(), LinkLoads::zero(3));
        let key = key(
            &[PureNashMethod::Exhaustive],
            &SolverConfig::default(),
            &game,
            &initial,
        );
        assert!(cache.lookup(&key).is_none());
        cache.insert(&key, solution());
        assert!(cache.lookup(&key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn an_lru_cache_evicts_and_counts() {
        let cache = SolveCache::lru(2);
        let (game, initial) = (game(), LinkLoads::zero(3));
        let config = SolverConfig::default();
        let keys: Vec<CacheKey<'_>> = [
            PureNashMethod::Exhaustive,
            PureNashMethod::LocalSearch,
            PureNashMethod::BestResponse,
        ]
        .iter()
        .map(|&method| key(&[method], &config, &game, &initial))
        .collect();
        cache.insert(&keys[0], solution());
        cache.insert(&keys[1], solution());
        assert!(cache.lookup(&keys[0]).is_some()); // refresh key 0
        cache.insert(&keys[2], solution());
        assert!(
            cache.lookup(&keys[1]).is_none(),
            "LRU entry must be evicted"
        );
        assert!(cache.lookup(&keys[0]).is_some());
        assert!(cache.lookup(&keys[2]).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.capacity(), 2);
    }
}
