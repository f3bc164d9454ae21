//! Differential certification of the opt backends against the exhaustive
//! oracle — the opt-side twin of [`solvers::oracle`](crate::solvers::oracle).
//!
//! On instances small enough for exhaustive enumeration, **every** backend's
//! contribution must bracket the true optima: lower bounds may never exceed
//! them, upper bounds may never undercut them, and an exactness claim must
//! hit them on the nose. [`check_kinds`] runs the contract for a backend
//! list on one instance and returns the violations; [`check_all`] is the
//! one-call form the proptest harness loops on. The oracle abstains (empty
//! report) when `mⁿ` exceeds the profile budget — bound *validity* at huge
//! sizes follows from the certified-by-construction arguments each backend
//! documents, and is cross-checked there by the engine's crossed-bracket
//! detection.

use std::fmt;

use crate::error::Result;
use crate::model::EffectiveGame;
use crate::opt::engine::{OptConfig, OptMethod};
use crate::opt::exhaustive::{social_optimum, SocialOptimum};
use crate::solvers::engine::Applicability;
use crate::solvers::exhaustive::profile_count;
use crate::strategy::LinkLoads;

/// Relative slack allowed between a bound and the exact optimum — covers
/// floating-point noise in the bound arithmetic, nothing more.
pub const ORACLE_EPS: f64 = 1e-9;

/// A breach of the bracketing contract by one backend on one instance.
#[derive(Debug, Clone, PartialEq)]
pub enum OptViolation {
    /// A certified lower bound exceeds the exact optimum.
    LowerExceedsOptimum {
        /// The offending backend.
        method: OptMethod,
        /// `"OPT1"` or `"OPT2"`.
        which: &'static str,
        /// The offending bound.
        bound: f64,
        /// The exact optimum.
        exact: f64,
    },
    /// A certified upper bound undercuts the exact optimum.
    UpperBelowOptimum {
        /// The offending backend.
        method: OptMethod,
        /// `"OPT1"` or `"OPT2"`.
        which: &'static str,
        /// The offending bound.
        bound: f64,
        /// The exact optimum.
        exact: f64,
    },
    /// A backend claimed exactness but missed the optimum.
    FalseExactness {
        /// The offending backend.
        method: OptMethod,
        /// `"OPT1"` or `"OPT2"`.
        which: &'static str,
        /// The claimed value.
        claimed: f64,
        /// The exact optimum.
        exact: f64,
    },
}

impl fmt::Display for OptViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptViolation::LowerExceedsOptimum {
                method,
                which,
                bound,
                exact,
            } => write!(
                f,
                "{method:?} lower bound {bound} exceeds the exact {which} {exact}"
            ),
            OptViolation::UpperBelowOptimum {
                method,
                which,
                bound,
                exact,
            } => write!(
                f,
                "{method:?} upper bound {bound} undercuts the exact {which} {exact}"
            ),
            OptViolation::FalseExactness {
                method,
                which,
                claimed,
                exact,
            } => write!(
                f,
                "{method:?} claimed {which} = {claimed} exactly, but it is {exact}"
            ),
        }
    }
}

fn check_bracket(
    method: OptMethod,
    which: &'static str,
    lower: Option<f64>,
    upper: Option<f64>,
    exact_claim: bool,
    exact: f64,
    violations: &mut Vec<OptViolation>,
) {
    let margin = ORACLE_EPS * 1.0_f64.max(exact.abs());
    if let Some(bound) = lower {
        if bound > exact + margin {
            violations.push(OptViolation::LowerExceedsOptimum {
                method,
                which,
                bound,
                exact,
            });
        }
    }
    if let Some(bound) = upper {
        if bound < exact - margin {
            violations.push(OptViolation::UpperBelowOptimum {
                method,
                which,
                bound,
                exact,
            });
        }
    }
    if exact_claim {
        let claimed = lower.or(upper).unwrap_or(f64::NAN);
        // NaN-safe: a NaN claim must count as a violation, so compare on
        // the failing side rather than negating the passing one.
        let misses = !(claimed - exact).abs().is_finite() || (claimed - exact).abs() > margin;
        if misses {
            violations.push(OptViolation::FalseExactness {
                method,
                which,
                claimed,
                exact,
            });
        }
    }
}

/// Runs the bracketing contract for every kind in `kinds` on one instance.
/// Returns the violations (empty when every backend is consistent with the
/// oracle); abstains with an empty list when the oracle itself cannot run.
pub fn check_kinds(
    kinds: &[OptMethod],
    game: &EffectiveGame,
    initial: &LinkLoads,
    config: &OptConfig,
) -> Result<Vec<OptViolation>> {
    if profile_count(game.users(), game.links()) > config.profile_limit {
        return Ok(Vec::new());
    }
    let exact: SocialOptimum = social_optimum(game, initial, config.profile_limit)?;
    let mut violations = Vec::new();
    for kind in kinds {
        let estimator = kind.build();
        if estimator.applicability(game, initial, config) == Applicability::NotApplicable {
            continue;
        }
        let estimate = estimator.estimate(game, initial, config)?;
        check_bracket(
            estimator.method(),
            "OPT1",
            estimate.opt1_lower,
            estimate.opt1_upper,
            estimate.opt1_exact,
            exact.opt1,
            &mut violations,
        );
        check_bracket(
            estimator.method(),
            "OPT2",
            estimate.opt2_lower,
            estimate.opt2_upper,
            estimate.opt2_exact,
            exact.opt2,
            &mut violations,
        );
    }
    Ok(violations)
}

/// All contract violations across every built-in backend on one instance.
pub fn check_all(
    game: &EffectiveGame,
    initial: &LinkLoads,
    config: &OptConfig,
) -> Result<Vec<OptViolation>> {
    check_kinds(&OptMethod::ALL, game, initial, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opposed_game() -> EffectiveGame {
        EffectiveGame::from_rows(vec![1.0, 1.0], vec![vec![10.0, 1.0], vec![1.0, 10.0]]).unwrap()
    }

    #[test]
    fn every_builtin_backend_satisfies_the_contract_on_a_fixed_instance() {
        let game = opposed_game();
        let initial = LinkLoads::zero(2);
        let violations = check_all(&game, &initial, &OptConfig::default()).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn the_oracle_abstains_beyond_the_profile_budget() {
        let game = opposed_game();
        let initial = LinkLoads::zero(2);
        let tiny = OptConfig {
            profile_limit: 3,
            ..OptConfig::default()
        };
        assert!(check_all(&game, &initial, &tiny).unwrap().is_empty());
    }

    #[test]
    fn violations_render_their_quantities() {
        let v = OptViolation::LowerExceedsOptimum {
            method: OptMethod::Relaxation,
            which: "OPT1",
            bound: 2.0,
            exact: 1.0,
        };
        let text = v.to_string();
        assert!(text.contains("OPT1") && text.contains('2') && text.contains('1'));
    }
}
