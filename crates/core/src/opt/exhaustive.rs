//! Exact social optima by exhaustive enumeration — the ground truth the
//! whole `opt` subsystem is certified against.
//!
//! The enumeration itself (moved here from `solvers::exhaustive`, which
//! re-exports it for compatibility) visits all `mⁿ` pure assignments and is
//! therefore only applicable below [`OptConfig::profile_limit`]; behind the
//! [`OptEstimator`] trait it is the conclusive backend the engine tries
//! first.
//!
//! Each profile costs one `O(n + m)` load pass and no allocation: the walk
//! steps one profile in place and prices it into load and latency buffers
//! that live for the whole walk. The values are bit-identical to pricing
//! every user by [`latency::link_load`](crate::latency::link_load): both
//! start link `ℓ` at `tˡ` and add each `wₖ` with `σₖ = ℓ` in user-index
//! order, so every link sees the same sequence of IEEE additions, and the
//! division by `cᵢ^{σᵢ}`, the compensated [`stable_sum`] and the
//! `f64::MIN`-seeded max fold then run over the same values in the same
//! order.

use serde::{Deserialize, Serialize};

use crate::error::Result;
use crate::model::EffectiveGame;
use crate::numeric::stable_sum;
use crate::opt::engine::{OptCheckpoint, OptConfig, OptEstimate, OptEstimator, OptMethod};
use crate::social_cost::{max_latency, pure_latencies_into};
use crate::solvers::engine::Applicability;
use crate::solvers::exhaustive::{ensure_within_limit, for_each_profile, profile_count};
use crate::strategy::{LinkLoads, PureProfile};

/// The exact social optima of a game (Section 2): the minimum over all pure
/// assignments of the sum (`OPT1`) and of the maximum (`OPT2`) of the users'
/// expected latencies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocialOptimum {
    /// `OPT1(G)`: minimum total expected latency.
    pub opt1: f64,
    /// A profile attaining `OPT1`.
    pub opt1_profile: PureProfile,
    /// `OPT2(G)`: minimum of the maximum expected latency.
    pub opt2: f64,
    /// A profile attaining `OPT2`.
    pub opt2_profile: PureProfile,
}

/// Computes [`SocialOptimum`] exactly by enumerating all pure profiles.
///
/// A witness is replaced only on a strict improvement, so each witness is
/// the first strict minimum in [`for_each_profile`] order.
///
/// # Errors
/// Fails when `mⁿ` exceeds `limit`.
pub fn social_optimum(
    game: &EffectiveGame,
    initial: &LinkLoads,
    limit: u128,
) -> Result<SocialOptimum> {
    ensure_within_limit(game, limit)?;
    let (n, m) = (game.users(), game.links());
    let mut loads = Vec::with_capacity(m);
    let mut latencies = Vec::with_capacity(n);
    let mut best = SocialOptimum {
        opt1: f64::INFINITY,
        opt1_profile: PureProfile::all_on(n, 0),
        opt2: f64::INFINITY,
        opt2_profile: PureProfile::all_on(n, 0),
    };
    let mut first = true;
    for_each_profile(n, m, |profile| {
        pure_latencies_into(game, profile, initial, &mut loads, &mut latencies);
        let sum = stable_sum(&latencies);
        let max = max_latency(&latencies);
        if first || sum < best.opt1 {
            best.opt1 = sum;
            best.opt1_profile
                .choices_mut()
                .copy_from_slice(profile.choices());
        }
        if first || max < best.opt2 {
            best.opt2 = max;
            best.opt2_profile
                .choices_mut()
                .copy_from_slice(profile.choices());
        }
        first = false;
    });
    Ok(best)
}

/// Exhaustive enumeration behind the [`OptEstimator`] trait (conclusive
/// within the profile budget).
#[derive(Debug, Clone, Copy, Default)]
pub struct Exhaustive;

impl OptEstimator for Exhaustive {
    fn method(&self) -> OptMethod {
        OptMethod::Exhaustive
    }

    fn applicability(
        &self,
        game: &EffectiveGame,
        _initial: &LinkLoads,
        config: &OptConfig,
    ) -> Applicability {
        if profile_count(game.users(), game.links()) <= config.profile_limit {
            Applicability::Conclusive
        } else {
            Applicability::NotApplicable
        }
    }

    // Atomic: enumeration is only applicable when `mⁿ` fits the profile
    // budget, so one unit of work is the whole (bounded) sweep and the
    // checkpoint is deliberately ignored. The sweep costs `O(n + m)` per
    // profile and allocates only its buffers and witnesses, once.
    fn estimate_under(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        config: &OptConfig,
        _check: OptCheckpoint<'_>,
    ) -> Result<OptEstimate> {
        let optimum = social_optimum(game, initial, config.profile_limit)?;
        let iterations =
            Some(profile_count(game.users(), game.links()).min(u64::MAX as u128) as u64);
        Ok(OptEstimate::exact(optimum.opt1, optimum.opt2, iterations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::is_pure_nash;
    use crate::error::GameError;
    use crate::latency::pure_user_latency;
    use crate::numeric::Tolerance;
    use crate::solvers::exhaustive::all_pure_nash;
    use proptest::prelude::*;

    /// Every profile in odometer order (user 0 varies fastest), one fresh
    /// profile per step.
    fn reference_profiles(users: usize, links: usize) -> Vec<PureProfile> {
        let mut profiles = Vec::new();
        let mut choices = vec![0usize; users];
        loop {
            profiles.push(PureProfile::new(choices.clone()));
            let mut pos = 0;
            loop {
                if pos == users {
                    return profiles;
                }
                choices[pos] += 1;
                if choices[pos] < links {
                    break;
                }
                choices[pos] = 0;
                pos += 1;
            }
        }
    }

    /// The per-user enumeration the load-pass walk replaced: every latency
    /// is an `O(n)` [`pure_user_latency`] scan, so a profile costs `O(n²)`.
    /// Kept as the bit-identity oracle for [`social_optimum`].
    fn reference_social_optimum(game: &EffectiveGame, initial: &LinkLoads) -> SocialOptimum {
        let mut best: Option<SocialOptimum> = None;
        for profile in reference_profiles(game.users(), game.links()) {
            let latencies: Vec<f64> = (0..game.users())
                .map(|i| pure_user_latency(game, &profile, initial, i))
                .collect();
            let sum = stable_sum(&latencies);
            let max = latencies.iter().cloned().fold(f64::MIN, f64::max);
            match &mut best {
                None => {
                    best = Some(SocialOptimum {
                        opt1: sum,
                        opt1_profile: profile.clone(),
                        opt2: max,
                        opt2_profile: profile,
                    });
                }
                Some(b) => {
                    if sum < b.opt1 {
                        b.opt1 = sum;
                        b.opt1_profile = profile.clone();
                    }
                    if max < b.opt2 {
                        b.opt2 = max;
                        b.opt2_profile = profile;
                    }
                }
            }
        }
        best.expect("a validated game has at least one profile")
    }

    fn assert_matches_reference(game: &EffectiveGame, initial: &LinkLoads) {
        let got = social_optimum(game, initial, u128::MAX).unwrap();
        let want = reference_social_optimum(game, initial);
        assert_eq!(
            got.opt1.to_bits(),
            want.opt1.to_bits(),
            "OPT1 {got:?} vs {want:?}"
        );
        assert_eq!(
            got.opt2.to_bits(),
            want.opt2.to_bits(),
            "OPT2 {got:?} vs {want:?}"
        );
        assert_eq!(got.opt1_profile, want.opt1_profile);
        assert_eq!(got.opt2_profile, want.opt2_profile);
    }

    /// Games of `2..=7` users (the model's smallest game has two) on
    /// `2..=4` links, weights `2^e` for `e ∈ [0, 6)` (a 64× span),
    /// capacities in `[0.5, 8)`, and initial loads that are zero on about a
    /// third of the links.
    fn oracle_case() -> impl Strategy<Value = (EffectiveGame, LinkLoads)> {
        (2usize..=7, 2usize..=4)
            .prop_flat_map(|(n, m)| {
                (
                    collection::vec(0.0f64..6.0, n),
                    collection::vec(0.5f64..8.0, n * m),
                    collection::vec((0u32..3, 0.0f64..20.0), m),
                )
            })
            .prop_map(|(exponents, capacities, loads)| {
                let weights: Vec<f64> = exponents.iter().map(|&e| e.exp2()).collect();
                let m = loads.len();
                let rows = capacities.chunks(m).map(<[f64]>::to_vec).collect();
                let game = EffectiveGame::from_rows(weights, rows).unwrap();
                let loads = loads
                    .into_iter()
                    .map(|(zero, t)| if zero == 0 { 0.0 } else { t })
                    .collect();
                (game, LinkLoads::new(loads).unwrap())
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_load_pass_walk_is_bit_identical_to_the_per_user_enumeration(
            (game, initial) in oracle_case()
        ) {
            assert_matches_reference(&game, &initial);
        }

        #[test]
        fn all_pure_nash_is_the_in_order_filter_of_the_enumeration(
            (game, initial) in oracle_case()
        ) {
            let tol = Tolerance::default();
            let filtered: Vec<PureProfile> = reference_profiles(game.users(), game.links())
                .into_iter()
                .filter(|p| is_pure_nash(&game, p, &initial, tol))
                .collect();
            prop_assert_eq!(all_pure_nash(&game, &initial, tol, u128::MAX).unwrap(), filtered);
        }
    }

    #[test]
    fn the_walk_visits_profiles_in_odometer_order() {
        for (n, m) in [(1, 3), (3, 2), (4, 3)] {
            let mut seen = Vec::new();
            for_each_profile(n, m, |p| seen.push(p.clone()));
            assert_eq!(seen, reference_profiles(n, m));
        }
    }

    #[test]
    fn identical_games_pick_the_first_strict_minimum_like_the_reference() {
        // Every user and link alike: many profiles tie at each optimum, so
        // only the first-strict-minimum rule decides the witness.
        for n in 2..=7 {
            for m in 2..=4 {
                let game = EffectiveGame::from_rows(vec![1.0; n], vec![vec![1.0; m]; n]).unwrap();
                for initial in [LinkLoads::zero(m), LinkLoads::new(vec![0.5; m]).unwrap()] {
                    assert_matches_reference(&game, &initial);
                }
            }
        }
    }

    fn opposed_game() -> EffectiveGame {
        EffectiveGame::from_rows(vec![1.0, 1.0], vec![vec![10.0, 1.0], vec![1.0, 10.0]]).unwrap()
    }

    #[test]
    fn social_optimum_on_opposed_game_separates_users() {
        let g = opposed_game();
        let t = LinkLoads::zero(2);
        let opt = social_optimum(&g, &t, 1_000).unwrap();
        assert_eq!(opt.opt1_profile.choices(), &[0, 1]);
        assert_eq!(opt.opt2_profile.choices(), &[0, 1]);
        // Each user alone on its fast (capacity 10) link: latency 0.1 each.
        assert!((opt.opt1 - 0.2).abs() < 1e-12);
        assert!((opt.opt2 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn opt1_is_never_larger_than_n_times_opt2() {
        // Simple sanity relation: sum ≤ n·max for the same profile, hence
        // OPT1 ≤ n·OPT2.
        let g = EffectiveGame::from_rows(
            vec![2.0, 1.0, 3.0],
            vec![vec![1.0, 2.0], vec![2.0, 1.0], vec![3.0, 0.5]],
        )
        .unwrap();
        let t = LinkLoads::zero(2);
        let opt = social_optimum(&g, &t, 1_000).unwrap();
        assert!(opt.opt1 <= 3.0 * opt.opt2 + 1e-12);
        assert!(opt.opt2 <= opt.opt1 + 1e-12);
    }

    #[test]
    fn initial_traffic_shifts_the_optimum() {
        let g =
            EffectiveGame::from_rows(vec![1.0, 1.0], vec![vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let heavy = LinkLoads::new(vec![10.0, 0.0]).unwrap();
        let opt = social_optimum(&g, &heavy, 1_000).unwrap();
        // With link 0 saturated, the optimum puts both users on link 1.
        assert_eq!(opt.opt1_profile.choices(), &[1, 1]);
    }

    #[test]
    fn the_limit_is_enforced_and_gates_applicability() {
        let g = opposed_game();
        let t = LinkLoads::zero(2);
        assert!(matches!(
            social_optimum(&g, &t, 3),
            Err(GameError::TooLarge { .. })
        ));
        let config = OptConfig {
            profile_limit: 3,
            ..OptConfig::default()
        };
        assert_eq!(
            Exhaustive.applicability(&g, &t, &config),
            Applicability::NotApplicable
        );
        assert_eq!(
            Exhaustive.applicability(&g, &t, &OptConfig::default()),
            Applicability::Conclusive
        );
    }

    #[test]
    fn the_estimator_returns_point_brackets() {
        let g = opposed_game();
        let t = LinkLoads::zero(2);
        let estimate = Exhaustive.estimate(&g, &t, &OptConfig::default()).unwrap();
        assert!(estimate.opt1_exact && estimate.opt2_exact);
        assert_eq!(estimate.opt1_lower, estimate.opt1_upper);
        assert_eq!(estimate.opt2_lower, estimate.opt2_upper);
        assert_eq!(estimate.iterations, Some(4));
    }
}
