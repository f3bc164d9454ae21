//! Social cost, social optimum and the price of anarchy (Sections 2 and 4.2).
//!
//! Because beliefs are subjective there is no objective link congestion, so
//! the paper defines the social cost from the users' individual (minimum
//! expected) latencies:
//!
//! * `SC1(G, P) = Σᵢ λ_{i,bᵢ}(P)` — the sum of individual costs,
//! * `SC2(G, P) = maxᵢ λ_{i,bᵢ}(P)` — the maximum individual cost,
//!
//! with the corresponding optima `OPT1`, `OPT2` taken over pure assignments
//! and coordination ratios `CRᵢ = SCᵢ / OPTᵢ`. Theorems 4.13 and 4.14 give
//! closed-form upper bounds on the coordination ratio, reproduced here as
//! [`cr_bound_uniform_beliefs`] and [`cr_bound_general`].
//!
//! Optimum computation is delegated to the [`opt`] subsystem:
//! [`social_optimum`] is its exhaustive backend (exact, small games), and
//! [`measure_bracketed`] consumes a whole [`OptEngine`] to report *interval*
//! coordination ratios `CRᵢ ∈ [SCᵢ/upperᵢ, SCᵢ/lowerᵢ]` from certified
//! brackets — the form that scales to `n = 512`. Every ratio path is
//! guarded by [`checked_ratio`]: a degenerate (zero) optimum is a typed
//! error, never a NaN or ∞ in a report.

use serde::{Deserialize, Serialize};

use crate::error::{GameError, Result};
use crate::latency::{mixed_min_latencies, mixed_min_latencies_with_traffic};
use crate::model::EffectiveGame;
use crate::numeric::stable_sum;
use crate::opt::{self, OptBracket, OptEngine, OptOutcome, SocialOptimum};
use crate::solvers::exhaustive;
use crate::strategy::{LinkLoads, MixedProfile, PureProfile};

/// `SC1(G, P)`: the sum of the users' minimum expected latency costs.
pub fn sc1(game: &EffectiveGame, profile: &MixedProfile) -> f64 {
    stable_sum(&mixed_min_latencies(game, profile))
}

/// `SC2(G, P)`: the maximum of the users' minimum expected latency costs.
pub fn sc2(game: &EffectiveGame, profile: &MixedProfile) -> f64 {
    mixed_min_latencies(game, profile)
        .into_iter()
        .fold(f64::MIN, f64::max)
}

/// Every user's expected latency `λᵢ = (t^{σᵢ} + Σ_{k: σₖ=σᵢ} wₖ) / cᵢ^{σᵢ}`
/// in a pure profile, written into `latencies` from one load pass into
/// `loads` (both caller-owned, so the exhaustive walk reuses them for every
/// profile). The loads are summed in user-index order, exactly as
/// [`pure_user_latency`](crate::latency::pure_user_latency) sums them, so
/// each entry is bit-identical to the per-user form at `O(n + m)` in total.
pub(crate) fn pure_latencies_into(
    game: &EffectiveGame,
    profile: &PureProfile,
    initial: &LinkLoads,
    loads: &mut Vec<f64>,
    latencies: &mut Vec<f64>,
) {
    profile.link_loads_into(game, initial, loads);
    latencies.clear();
    latencies.extend(
        profile
            .choices()
            .iter()
            .enumerate()
            .map(|(user, &link)| loads[link] / game.capacity(user, link)),
    );
}

fn pure_latencies(game: &EffectiveGame, profile: &PureProfile, initial: &LinkLoads) -> Vec<f64> {
    let (mut loads, mut latencies) = (Vec::new(), Vec::new());
    pure_latencies_into(game, profile, initial, &mut loads, &mut latencies);
    latencies
}

/// Sum of the users' expected latencies in a pure profile (the quantity
/// minimised by `OPT1`). One load pass: `O(n + m)`.
pub fn pure_sc1(game: &EffectiveGame, profile: &PureProfile, initial: &LinkLoads) -> f64 {
    stable_sum(&pure_latencies(game, profile, initial))
}

/// Maximum of the users' expected latencies in a pure profile (the quantity
/// minimised by `OPT2`). One load pass: `O(n + m)`.
pub fn pure_sc2(game: &EffectiveGame, profile: &PureProfile, initial: &LinkLoads) -> f64 {
    max_latency(&pure_latencies(game, profile, initial))
}

/// The `f64::MIN`-seeded max fold over users in index order that defines
/// `SC2` on a latency vector (shared with the exhaustive `OPT2` walk).
pub(crate) fn max_latency(latencies: &[f64]) -> f64 {
    latencies.iter().copied().fold(f64::MIN, f64::max)
}

/// Computes the exact social optima by exhaustive enumeration (the
/// conclusive backend of the [`opt`] bracketing subsystem; use an
/// [`OptEngine`] via [`measure_bracketed`] for games beyond the limit).
///
/// # Errors
/// Fails when the profile space exceeds `limit`.
pub fn social_optimum(
    game: &EffectiveGame,
    initial: &LinkLoads,
    limit: u128,
) -> Result<SocialOptimum> {
    opt::exhaustive::social_optimum(game, initial, limit)
}

/// `sc / opt`, with a typed error instead of a NaN/∞ ratio when the optimum
/// is zero or not finite — the guard every coordination-ratio path in the
/// workspace (including the KP baseline) routes through.
///
/// # Errors
/// [`GameError::ZeroOptimum`] when `opt ≤ 0` or `opt` is not finite.
pub fn checked_ratio(sc: f64, opt: f64, which: &'static str) -> Result<f64> {
    if !(opt.is_finite() && opt > 0.0) {
        return Err(GameError::ZeroOptimum { which, value: opt });
    }
    Ok(sc / opt)
}

/// Both social costs and both coordination ratios of a mixed profile, measured
/// against the exact social optima.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// `SC1(G, P)`.
    pub sc1: f64,
    /// `SC2(G, P)`.
    pub sc2: f64,
    /// `OPT1(G)`.
    pub opt1: f64,
    /// `OPT2(G)`.
    pub opt2: f64,
    /// `SC1 / OPT1`.
    pub cr1: f64,
    /// `SC2 / OPT2`.
    pub cr2: f64,
}

/// `(SC1, SC2)` of a mixed profile on top of the initial traffic `t`: every
/// link's expected traffic starts at `tˡ`, so the costs are priced like the
/// optima they are divided by. With `t = 0` this is exactly
/// `(`[`sc1`]`, `[`sc2`]`)`, bit for bit.
fn costs_under(game: &EffectiveGame, profile: &MixedProfile, initial: &LinkLoads) -> (f64, f64) {
    let mut traffic = initial.as_slice().to_vec();
    profile.add_expected_traffic(game, &mut traffic);
    let mins = mixed_min_latencies_with_traffic(game, profile, &traffic);
    (stable_sum(&mins), mins.into_iter().fold(f64::MIN, f64::max))
}

/// Measures a mixed profile against the exact social optima of the game,
/// both priced on top of the initial traffic `initial`.
///
/// # Errors
/// Fails when the profile space exceeds `limit`, or with
/// [`GameError::ZeroOptimum`] when an optimum degenerates to zero (a ratio
/// is never reported as NaN/∞).
pub fn measure(
    game: &EffectiveGame,
    profile: &MixedProfile,
    initial: &LinkLoads,
    limit: u128,
) -> Result<CostReport> {
    let optimum = social_optimum(game, initial, limit)?;
    let (sc1, sc2) = costs_under(game, profile, initial);
    Ok(CostReport {
        sc1,
        sc2,
        opt1: optimum.opt1,
        opt2: optimum.opt2,
        cr1: checked_ratio(sc1, optimum.opt1, "OPT1")?,
        cr2: checked_ratio(sc2, optimum.opt2, "OPT2")?,
    })
}

/// An interval around a coordination ratio, induced by an [`OptBracket`]:
/// `SC/OPT ∈ [sc/upper, sc/lower]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RatioBracket {
    /// `sc / bracket.upper` — the ratio if the optimum is as expensive as
    /// the certified upper bound allows.
    pub lower: f64,
    /// `sc / bracket.lower` — the ratio if the optimum is as cheap as the
    /// certified lower bound allows.
    pub upper: f64,
}

/// The interval coordination ratio induced by a certified optimum bracket.
///
/// # Errors
/// [`GameError::ZeroOptimum`] when the bracket's lower end is zero (the
/// upper ratio would be ∞); [`GameError::EmptyBracket`] when the bracket is
/// unusable (no finite upper bound, or crossed bounds).
pub fn ratio_bracket(sc: f64, bracket: &OptBracket, which: &'static str) -> Result<RatioBracket> {
    if !bracket.upper.is_finite() || bracket.lower > bracket.upper {
        return Err(GameError::EmptyBracket {
            which,
            lower: bracket.lower,
            upper: bracket.upper,
        });
    }
    Ok(RatioBracket {
        lower: checked_ratio(sc, bracket.upper, which)?,
        upper: checked_ratio(sc, bracket.lower, which)?,
    })
}

/// Both social costs and both *interval* coordination ratios of a mixed
/// profile, measured against certified optimum brackets — the form of
/// [`CostReport`] that survives past the exhaustive wall. When the engine's
/// brackets are exact this degenerates to the classic point report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BracketedCostReport {
    /// `SC1(G, P)`.
    pub sc1: f64,
    /// `SC2(G, P)`.
    pub sc2: f64,
    /// Certified bracket around `OPT1(G)`.
    pub opt1: OptBracket,
    /// Certified bracket around `OPT2(G)`.
    pub opt2: OptBracket,
    /// `SC1/OPT1 ∈ [cr1.lower, cr1.upper]`.
    pub cr1: RatioBracket,
    /// `SC2/OPT2 ∈ [cr2.lower, cr2.upper]`.
    pub cr2: RatioBracket,
}

/// Measures a mixed profile against the certified optimum brackets of an
/// [`OptEngine`] — the scale-robust counterpart of [`measure`].
///
/// # Errors
/// Engine errors propagate; [`GameError::ZeroOptimum`] /
/// [`GameError::EmptyBracket`] when a ratio interval cannot be formed.
pub fn measure_bracketed(
    game: &EffectiveGame,
    profile: &MixedProfile,
    initial: &LinkLoads,
    engine: &OptEngine,
) -> Result<BracketedCostReport> {
    measure_against(game, profile, initial, &engine.estimate(game, initial)?)
}

/// Measures a mixed profile against already computed optimum brackets
/// (`outcome` must bracket the optima of `game` under `initial`). The
/// profile's costs are priced on top of `initial`, like the optima.
///
/// # Errors
/// [`GameError::ZeroOptimum`] / [`GameError::EmptyBracket`] when a ratio
/// interval cannot be formed (checked for `OPT1` first).
pub fn measure_against(
    game: &EffectiveGame,
    profile: &MixedProfile,
    initial: &LinkLoads,
    outcome: &OptOutcome,
) -> Result<BracketedCostReport> {
    let (sc1, sc2) = costs_under(game, profile, initial);
    Ok(BracketedCostReport {
        sc1,
        sc2,
        cr1: ratio_bracket(sc1, &outcome.opt1, "OPT1")?,
        cr2: ratio_bracket(sc2, &outcome.opt2, "OPT2")?,
        opt1: outcome.opt1,
        opt2: outcome.opt2,
    })
}

/// The range of social costs spanned by the *pure* Nash equilibria of a game:
/// the cheapest and the most expensive equilibrium under both cost notions.
///
/// This is the quantity behind the pure price of anarchy (worst / OPT) and the
/// price of stability (best / OPT); the paper only bounds the former, but the
/// spectrum is useful when studying how much coordination could help.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EquilibriumSpectrum {
    /// Number of pure Nash equilibria found.
    pub count: usize,
    /// Smallest `SC1` over all pure equilibria.
    pub best_sc1: f64,
    /// Largest `SC1` over all pure equilibria.
    pub worst_sc1: f64,
    /// Smallest `SC2` over all pure equilibria.
    pub best_sc2: f64,
    /// Largest `SC2` over all pure equilibria.
    pub worst_sc2: f64,
}

/// Enumerates all pure Nash equilibria and reports the spread of their social
/// costs. Returns `Ok(None)` when the game has no pure equilibrium (not
/// observed in practice; see Conjecture 3.7).
///
/// # Errors
/// Fails when the profile space exceeds `limit`.
pub fn pure_equilibrium_spectrum(
    game: &EffectiveGame,
    initial: &LinkLoads,
    tol: crate::numeric::Tolerance,
    limit: u128,
) -> Result<Option<EquilibriumSpectrum>> {
    let equilibria = exhaustive::all_pure_nash(game, initial, tol, limit)?;
    if equilibria.is_empty() {
        return Ok(None);
    }
    let mut spectrum = EquilibriumSpectrum {
        count: equilibria.len(),
        best_sc1: f64::INFINITY,
        worst_sc1: f64::NEG_INFINITY,
        best_sc2: f64::INFINITY,
        worst_sc2: f64::NEG_INFINITY,
    };
    for ne in &equilibria {
        let s1 = pure_sc1(game, ne, initial);
        let s2 = pure_sc2(game, ne, initial);
        spectrum.best_sc1 = spectrum.best_sc1.min(s1);
        spectrum.worst_sc1 = spectrum.worst_sc1.max(s1);
        spectrum.best_sc2 = spectrum.best_sc2.min(s2);
        spectrum.worst_sc2 = spectrum.worst_sc2.max(s2);
    }
    Ok(Some(spectrum))
}

/// The pure price of anarchy and price of stability of a game under `SC1`:
/// `(worst NE / OPT1, best NE / OPT1)`. Returns `Ok(None)` when no pure
/// equilibrium exists.
///
/// # Errors
/// Fails when the profile space exceeds `limit`, or with
/// [`GameError::ZeroOptimum`] when the optimum degenerates to zero.
pub fn pure_poa_and_pos(
    game: &EffectiveGame,
    initial: &LinkLoads,
    tol: crate::numeric::Tolerance,
    limit: u128,
) -> Result<Option<(f64, f64)>> {
    let Some(spectrum) = pure_equilibrium_spectrum(game, initial, tol, limit)? else {
        return Ok(None);
    };
    let optimum = social_optimum(game, initial, limit)?;
    Ok(Some((
        checked_ratio(spectrum.worst_sc1, optimum.opt1, "OPT1")?,
        checked_ratio(spectrum.best_sc1, optimum.opt1, "OPT1")?,
    )))
}

/// The coordination-ratio upper bound of Theorem 4.13, valid under the model
/// of uniform user beliefs:
/// `(c_max / c_min) · (m + n − 1) / m`.
pub fn cr_bound_uniform_beliefs(game: &EffectiveGame) -> f64 {
    let caps = game.capacities();
    let n = game.users() as f64;
    let m = game.links() as f64;
    (caps.max() / caps.min()) * (m + n - 1.0) / m
}

/// The coordination-ratio upper bound of Theorem 4.14 for the general case:
/// `(c_max² / c_min) · (m + n − 1) / Σⱼ cʲ_min`, where `cʲ_min = minᵢ cᵢʲ`.
pub fn cr_bound_general(game: &EffectiveGame) -> f64 {
    let caps = game.capacities();
    let n = game.users() as f64;
    let m = game.links() as f64;
    let link_min_sum: f64 = (0..game.links()).map(|l| caps.link_min(l)).sum();
    (caps.max() * caps.max() / caps.min()) * (m + n - 1.0) / link_min_sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fully_mixed::fully_mixed_nash;
    use crate::numeric::Tolerance;
    use crate::solvers::exhaustive::all_pure_nash;

    fn mild_game() -> EffectiveGame {
        EffectiveGame::from_rows(
            vec![1.0, 1.5, 2.0],
            vec![vec![2.0, 2.2], vec![2.1, 1.9], vec![2.0, 2.0]],
        )
        .unwrap()
    }

    #[test]
    fn sc1_is_sum_and_sc2_is_max_of_min_latencies() {
        let g = mild_game();
        let p = MixedProfile::uniform(3, 2);
        let mins = mixed_min_latencies(&g, &p);
        assert!((sc1(&g, &p) - stable_sum(&mins)).abs() < 1e-12);
        let max = mins.iter().cloned().fold(f64::MIN, f64::max);
        assert!((sc2(&g, &p) - max).abs() < 1e-12);
        assert!(sc2(&g, &p) <= sc1(&g, &p) + 1e-12);
    }

    #[test]
    fn pure_costs_match_mixed_costs_of_degenerate_profiles_at_equilibrium() {
        // For a pure Nash equilibrium the minimum expected latency of each
        // user equals the latency on its own link, so the mixed-profile social
        // costs coincide with the pure ones.
        let g = mild_game();
        let t = LinkLoads::zero(2);
        let tol = Tolerance::default();
        let equilibria = all_pure_nash(&g, &t, tol, 10_000).unwrap();
        assert!(!equilibria.is_empty());
        for pure in equilibria {
            let mixed = MixedProfile::from_pure(&pure, 2);
            assert!((sc1(&g, &mixed) - pure_sc1(&g, &pure, &t)).abs() < 1e-9);
            assert!((sc2(&g, &mixed) - pure_sc2(&g, &pure, &t)).abs() < 1e-9);
        }
    }

    #[test]
    fn optimum_is_a_lower_bound_for_equilibrium_costs() {
        let g = mild_game();
        let t = LinkLoads::zero(2);
        let tol = Tolerance::default();
        for pure in all_pure_nash(&g, &t, tol, 10_000).unwrap() {
            let mixed = MixedProfile::from_pure(&pure, 2);
            let report = measure(&g, &mixed, &t, 10_000).unwrap();
            assert!(report.cr1 >= 1.0 - 1e-9);
            assert!(report.cr2 >= 1.0 - 1e-9);
        }
    }

    /// Two users on two links with ten units of initial traffic on each.
    fn loaded_game() -> (EffectiveGame, LinkLoads) {
        let g =
            EffectiveGame::from_rows(vec![1.0, 2.0], vec![vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        (g, LinkLoads::new(vec![10.0, 10.0]).unwrap())
    }

    #[test]
    fn measure_prices_the_profile_on_top_of_initial_traffic() {
        // Profile [0, 1] loads the links to (11, 12). User 0's cheapest link
        // is link 1 at (1 + 12)/2 = 6.5, user 1's is link 0 at (2 + 11)/2 =
        // 6.5. OPT1 = 11.5 and OPT2 = 6 are both profile [1, 0]. Without t
        // the costs would be 2.5 and 1.5, and CR1 would fall below one.
        let (g, t) = loaded_game();
        let p = MixedProfile::from_pure(&PureProfile::new(vec![0, 1]), 2);
        let report = measure(&g, &p, &t, 100).unwrap();
        assert_eq!((report.sc1, report.sc2), (13.0, 6.5));
        assert_eq!((report.opt1, report.opt2), (11.5, 6.0));
        assert_eq!(report.cr1, 13.0 / 11.5);
        let bracketed = measure_bracketed(&g, &p, &t, &OptEngine::default()).unwrap();
        assert_eq!((bracketed.sc1, bracketed.sc2), (13.0, 6.5));
        assert_eq!(bracketed.cr1.lower, report.cr1);
        assert_eq!(bracketed.cr2.upper, report.cr2);
    }

    #[test]
    fn a_pure_equilibrium_under_initial_traffic_measures_at_its_pure_cost() {
        let (g, t) = loaded_game();
        let tol = Tolerance::default();
        let equilibria = all_pure_nash(&g, &t, tol, 100).unwrap();
        assert_eq!(equilibria, vec![PureProfile::new(vec![1, 0])]);
        for ne in equilibria {
            let mixed = MixedProfile::from_pure(&ne, 2);
            let report = measure(&g, &mixed, &t, 100).unwrap();
            assert!(tol.eq(report.sc1, pure_sc1(&g, &ne, &t)));
            assert!(tol.eq(report.sc2, pure_sc2(&g, &ne, &t)));
            assert_eq!((report.cr1, report.cr2), (1.0, 1.0));
        }
    }

    #[test]
    fn theorem_4_13_bound_holds_for_uniform_belief_equilibria() {
        // Uniform beliefs, varied per-user capacities and weights.
        let g = EffectiveGame::from_rows(
            vec![3.0, 1.0, 2.0, 1.5],
            vec![vec![2.0; 3], vec![0.5; 3], vec![1.0; 3], vec![4.0; 3]],
        )
        .unwrap();
        let t = LinkLoads::zero(3);
        let tol = Tolerance::default();
        let bound = cr_bound_uniform_beliefs(&g);
        for pure in all_pure_nash(&g, &t, tol, 100_000).unwrap() {
            let mixed = MixedProfile::from_pure(&pure, 3);
            let report = measure(&g, &mixed, &t, 100_000).unwrap();
            assert!(
                report.cr1 <= bound + 1e-9,
                "CR1 {} > bound {bound}",
                report.cr1
            );
            assert!(
                report.cr2 <= bound + 1e-9,
                "CR2 {} > bound {bound}",
                report.cr2
            );
        }
        // The fully mixed equilibrium (worst case by Theorems 4.11/4.12) also
        // respects the bound.
        let fmne = fully_mixed_nash(&g, tol).unwrap();
        let report = measure(&g, &fmne, &t, 100_000).unwrap();
        assert!(report.cr1 <= bound + 1e-9);
        assert!(report.cr2 <= bound + 1e-9);
    }

    #[test]
    fn theorem_4_14_bound_holds_for_general_equilibria() {
        let g = mild_game();
        let t = LinkLoads::zero(2);
        let tol = Tolerance::default();
        let bound = cr_bound_general(&g);
        for pure in all_pure_nash(&g, &t, tol, 10_000).unwrap() {
            let mixed = MixedProfile::from_pure(&pure, 2);
            let report = measure(&g, &mixed, &t, 10_000).unwrap();
            assert!(report.cr1 <= bound + 1e-9);
            assert!(report.cr2 <= bound + 1e-9);
        }
        if let Some(fmne) = fully_mixed_nash(&g, tol) {
            let report = measure(&g, &fmne, &t, 10_000).unwrap();
            assert!(report.cr1 <= bound + 1e-9);
            assert!(report.cr2 <= bound + 1e-9);
        }
    }

    #[test]
    fn equilibrium_spectrum_brackets_every_pure_equilibrium() {
        let g = mild_game();
        let t = LinkLoads::zero(2);
        let tol = Tolerance::default();
        let spectrum = pure_equilibrium_spectrum(&g, &t, tol, 10_000)
            .unwrap()
            .unwrap();
        let equilibria = all_pure_nash(&g, &t, tol, 10_000).unwrap();
        assert_eq!(spectrum.count, equilibria.len());
        for ne in &equilibria {
            let s1 = pure_sc1(&g, ne, &t);
            let s2 = pure_sc2(&g, ne, &t);
            assert!(spectrum.best_sc1 <= s1 + 1e-12 && s1 <= spectrum.worst_sc1 + 1e-12);
            assert!(spectrum.best_sc2 <= s2 + 1e-12 && s2 <= spectrum.worst_sc2 + 1e-12);
        }
        assert!(spectrum.best_sc1 <= spectrum.worst_sc1);
        assert!(spectrum.best_sc2 <= spectrum.worst_sc2);
    }

    #[test]
    fn poa_and_pos_are_ordered_and_at_least_one() {
        let g = mild_game();
        let t = LinkLoads::zero(2);
        let tol = Tolerance::default();
        let (poa, pos) = pure_poa_and_pos(&g, &t, tol, 10_000).unwrap().unwrap();
        assert!(pos >= 1.0 - 1e-9, "price of stability below 1: {pos}");
        assert!(poa >= pos - 1e-12, "PoA {poa} below PoS {pos}");
        assert!(poa <= cr_bound_general(&g) + 1e-9);
    }

    #[test]
    fn spectrum_respects_the_size_limit() {
        let g = mild_game();
        let t = LinkLoads::zero(2);
        assert!(pure_equilibrium_spectrum(&g, &t, Tolerance::default(), 2).is_err());
        assert!(pure_poa_and_pos(&g, &t, Tolerance::default(), 2).is_err());
    }

    #[test]
    fn degenerate_optima_are_typed_errors_not_nans() {
        assert!((checked_ratio(3.0, 2.0, "OPT1").unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(
            checked_ratio(3.0, 0.0, "OPT1"),
            Err(GameError::ZeroOptimum {
                which: "OPT1",
                value: 0.0
            })
        );
        assert!(checked_ratio(3.0, -1.0, "OPT2").is_err());
        assert!(checked_ratio(3.0, f64::INFINITY, "OPT2").is_err());
        assert!(checked_ratio(3.0, f64::NAN, "OPT2").is_err());
    }

    #[test]
    fn empty_or_zero_brackets_are_typed_errors() {
        let zero_lower = OptBracket {
            lower: 0.0,
            upper: 2.0,
            exact: false,
        };
        assert!(matches!(
            ratio_bracket(1.0, &zero_lower, "OPT1"),
            Err(GameError::ZeroOptimum { which: "OPT1", .. })
        ));
        let unresolved = OptBracket::unresolved();
        assert!(matches!(
            ratio_bracket(1.0, &unresolved, "OPT2"),
            Err(GameError::EmptyBracket { which: "OPT2", .. })
        ));
        let crossed = OptBracket {
            lower: 3.0,
            upper: 2.0,
            exact: false,
        };
        assert!(matches!(
            ratio_bracket(1.0, &crossed, "OPT1"),
            Err(GameError::EmptyBracket { .. })
        ));
    }

    #[test]
    fn bracketed_measurement_degenerates_to_the_exact_report_on_small_games() {
        let g = mild_game();
        let t = LinkLoads::zero(2);
        let p = MixedProfile::uniform(3, 2);
        let exact = measure(&g, &p, &t, 10_000).unwrap();
        let engine = OptEngine::default();
        let bracketed = measure_bracketed(&g, &p, &t, &engine).unwrap();
        assert!(bracketed.opt1.exact && bracketed.opt2.exact);
        assert_eq!(bracketed.sc1, exact.sc1);
        assert_eq!(bracketed.opt1.lower, exact.opt1);
        assert_eq!(bracketed.opt2.upper, exact.opt2);
        assert_eq!(bracketed.cr1.lower, exact.cr1);
        assert_eq!(bracketed.cr1.upper, exact.cr1);
        assert_eq!(bracketed.cr2.lower, exact.cr2);
    }

    #[test]
    fn bracketed_ratios_contain_the_exact_ratio_under_bound_backends() {
        use crate::opt::OptMethod;
        let g = mild_game();
        let t = LinkLoads::zero(2);
        let p = MixedProfile::uniform(3, 2);
        let exact = measure(&g, &p, &t, 10_000).unwrap();
        let engine = OptEngine::from_kinds(
            crate::opt::OptConfig::default(),
            &[
                OptMethod::LptGreedy,
                OptMethod::Descent,
                OptMethod::Relaxation,
            ],
        );
        let bracketed = measure_bracketed(&g, &p, &t, &engine).unwrap();
        assert!(bracketed.cr1.lower <= exact.cr1 + 1e-9);
        assert!(bracketed.cr1.upper >= exact.cr1 - 1e-9);
        assert!(bracketed.cr2.lower <= exact.cr2 + 1e-9);
        assert!(bracketed.cr2.upper >= exact.cr2 - 1e-9);
    }

    #[test]
    fn general_bound_is_never_tighter_than_uniform_bound_on_uniform_games() {
        // For uniform-belief games both bounds apply; Theorem 4.14's bound is
        // the coarser one.
        let g =
            EffectiveGame::from_rows(vec![1.0, 2.0], vec![vec![2.0, 2.0], vec![0.5, 0.5]]).unwrap();
        assert!(cr_bound_general(&g) >= cr_bound_uniform_beliefs(&g) - 1e-12);
    }
}
