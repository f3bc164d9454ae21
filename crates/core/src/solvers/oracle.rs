//! Differential-testing support: every solver backend is certified against
//! the exhaustive oracle.
//!
//! Cheap iterative backends ([`LocalSearch`], [`BestResponse`]) only earn
//! trust when their fixed points are checked against an exact reference.
//! This module is that reference harness, shared by the workspace's
//! `tests/integration_differential.rs` suite and available to downstream
//! users adding their own [`Solver`] impls. The **contract** every backend
//! must satisfy on instances where the oracle applies (`mⁿ` within the
//! profile budget):
//!
//! 1. **Soundness** — any profile the solver returns passes
//!    [`is_pure_nash`] under the configured tolerance.
//! 2. **No phantom equilibria** — if exhaustive enumeration proves no pure
//!    NE exists, the solver must not return one.
//! 3. **Conclusive completeness** — a solver whose
//!    [`Applicability::Conclusive`] claim means "always finds an
//!    equilibrium when applicable" must not come back empty-handed when the
//!    oracle found one.
//!
//! Heuristic backends may give up within budget (that violates nothing);
//! they may **not** return an uncertified profile. [`check_kinds`] runs the
//! contract for every built-in backend on one instance and returns the
//! violations; a clean instance yields an empty list. Thread-count and
//! shard invariance — the other half of the certification story — are
//! properties of the callers that fan solves out (the harness's
//! `parallel_map` reassembles by task id) and are tested alongside them.
//!
//! [`LocalSearch`]: crate::solvers::local_search::LocalSearch
//! [`BestResponse`]: super::engine::BestResponse

use std::fmt;

use crate::algorithms::PureNashMethod;
use crate::equilibrium::is_pure_nash;
use crate::error::Result;
use crate::model::EffectiveGame;
use crate::solvers::engine::{Applicability, Solver, SolverConfig};
use crate::solvers::exhaustive;
use crate::solvers::kernel::KernelScratch;
use crate::strategy::LinkLoads;

/// What exhaustive enumeration says about an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleAnswer {
    /// At least one pure NE exists (enumeration found `count` of them).
    Exists {
        /// Number of pure Nash equilibria.
        count: u64,
    },
    /// Enumeration completed and found no pure NE.
    None,
    /// `mⁿ` exceeds the profile budget; the oracle abstains.
    TooLarge,
}

impl OracleAnswer {
    /// `Some(true/false)` when the oracle decided existence, `None` when it
    /// abstained.
    pub fn exists(self) -> Option<bool> {
        match self {
            OracleAnswer::Exists { .. } => Some(true),
            OracleAnswer::None => Some(false),
            OracleAnswer::TooLarge => None,
        }
    }
}

/// Decides pure-NE existence by exhaustive enumeration, within
/// `config.profile_limit`.
pub fn existence_oracle(
    game: &EffectiveGame,
    initial: &LinkLoads,
    config: &SolverConfig,
) -> OracleAnswer {
    if exhaustive::profile_count(game.users(), game.links()) > config.profile_limit {
        return OracleAnswer::TooLarge;
    }
    match exhaustive::all_pure_nash(game, initial, config.tol, config.profile_limit) {
        Ok(all) if all.is_empty() => OracleAnswer::None,
        Ok(all) => OracleAnswer::Exists {
            count: all.len() as u64,
        },
        // Unreachable given the size guard, but abstaining is the safe
        // reading of any enumeration failure.
        Err(_) => OracleAnswer::TooLarge,
    }
}

/// A breach of the differential contract by one solver on one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractViolation {
    /// The solver returned a profile that fails [`is_pure_nash`].
    UncertifiedSolution {
        /// The offending backend.
        method: PureNashMethod,
    },
    /// The solver returned a profile although the oracle proved no pure NE
    /// exists.
    PhantomEquilibrium {
        /// The offending backend.
        method: PureNashMethod,
    },
    /// A conclusive solver found nothing although the oracle found an
    /// equilibrium.
    MissedEquilibrium {
        /// The offending backend.
        method: PureNashMethod,
    },
}

impl fmt::Display for ContractViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractViolation::UncertifiedSolution { method } => {
                write!(f, "{method:?} returned a profile that is not a pure NE")
            }
            ContractViolation::PhantomEquilibrium { method } => write!(
                f,
                "{method:?} returned an equilibrium on an instance the oracle proved has none"
            ),
            ContractViolation::MissedEquilibrium { method } => write!(
                f,
                "{method:?} is conclusive but found nothing where the oracle found a pure NE"
            ),
        }
    }
}

/// The outcome of running one backend against the oracle on one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DifferentialReport {
    /// The backend checked.
    pub method: PureNashMethod,
    /// Its applicability claim on the instance.
    pub applicability: Applicability,
    /// Whether it returned a profile (always `false` when skipped as
    /// not-applicable).
    pub found: bool,
    /// Contract breaches; empty means the backend is consistent with the
    /// oracle on this instance.
    pub violations: Vec<ContractViolation>,
}

/// Checks one solver against the oracle's `answer` on one instance.
///
/// Not-applicable solvers are reported with no violations (skipping is
/// always allowed). Solver-level errors propagate as errors — an `Err`
/// from a backend is a harness bug, not a contract violation.
pub fn check_solver(
    solver: &dyn Solver,
    game: &EffectiveGame,
    initial: &LinkLoads,
    config: &SolverConfig,
    answer: OracleAnswer,
) -> Result<DifferentialReport> {
    let applicability = solver.applicability(game, initial, config);
    let mut report = DifferentialReport {
        method: solver.method(),
        applicability,
        found: false,
        violations: Vec::new(),
    };
    if applicability == Applicability::NotApplicable {
        return Ok(report);
    }
    let detail = solver
        .attempt(game, initial, config)?
        .run_to_completion(&mut KernelScratch::new());
    match detail.solution {
        Some(solution) => {
            report.found = true;
            if !is_pure_nash(game, &solution.profile, initial, config.tol) {
                report
                    .violations
                    .push(ContractViolation::UncertifiedSolution {
                        method: report.method,
                    });
            }
            if answer == OracleAnswer::None {
                report
                    .violations
                    .push(ContractViolation::PhantomEquilibrium {
                        method: report.method,
                    });
            }
        }
        None => {
            if applicability == Applicability::Conclusive
                && matches!(answer, OracleAnswer::Exists { .. })
            {
                report
                    .violations
                    .push(ContractViolation::MissedEquilibrium {
                        method: report.method,
                    });
            }
        }
    }
    Ok(report)
}

/// Runs the differential contract for every kind in `kinds` on one
/// instance, against a single oracle answer. Returns one report per kind,
/// in order.
pub fn check_kinds(
    kinds: &[PureNashMethod],
    game: &EffectiveGame,
    initial: &LinkLoads,
    config: &SolverConfig,
) -> Result<Vec<DifferentialReport>> {
    let answer = existence_oracle(game, initial, config);
    kinds
        .iter()
        .map(|kind| check_solver(kind.build().as_ref(), game, initial, config, answer))
        .collect()
}

/// All contract violations across every built-in backend on one instance —
/// the one-call form the proptest harness loops on. Empty means every
/// backend agrees with the oracle.
pub fn check_all(
    game: &EffectiveGame,
    initial: &LinkLoads,
    config: &SolverConfig,
) -> Result<Vec<ContractViolation>> {
    Ok(check_kinds(&PureNashMethod::ALL, game, initial, config)?
        .into_iter()
        .flat_map(|r| r.violations)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::engine::{Attempt, SolverDetail};
    use crate::strategy::PureProfile;

    fn opposed_game() -> EffectiveGame {
        EffectiveGame::from_rows(vec![1.0, 1.0], vec![vec![10.0, 1.0], vec![1.0, 10.0]]).unwrap()
    }

    #[test]
    fn the_oracle_decides_small_instances_and_abstains_on_huge_ones() {
        let game = opposed_game();
        let initial = LinkLoads::zero(2);
        let config = SolverConfig::default();
        assert_eq!(
            existence_oracle(&game, &initial, &config),
            OracleAnswer::Exists { count: 1 }
        );
        let tiny_budget = SolverConfig {
            profile_limit: 3,
            ..config
        };
        let answer = existence_oracle(&game, &initial, &tiny_budget);
        assert_eq!(answer, OracleAnswer::TooLarge);
        assert_eq!(answer.exists(), None);
    }

    #[test]
    fn every_builtin_backend_satisfies_the_contract_on_a_fixed_instance() {
        let game = opposed_game();
        let initial = LinkLoads::zero(2);
        let config = SolverConfig::default();
        let violations = check_all(&game, &initial, &config).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// A deliberately broken backend: claims every instance, returns a fixed
    /// (generally wrong) profile.
    struct Liar;

    impl Solver for Liar {
        fn method(&self) -> PureNashMethod {
            PureNashMethod::BestResponse
        }

        fn applicability(
            &self,
            _game: &EffectiveGame,
            _initial: &LinkLoads,
            _config: &SolverConfig,
        ) -> Applicability {
            Applicability::Heuristic
        }

        fn attempt<'a>(
            &self,
            game: &'a EffectiveGame,
            _initial: &'a LinkLoads,
            _config: &SolverConfig,
        ) -> Result<Attempt<'a>> {
            Ok(Attempt::Done(SolverDetail {
                solution: Some(crate::algorithms::PureNashSolution {
                    // Everyone on link 1 is not a NE of the opposed game.
                    profile: PureProfile::all_on(game.users(), 1),
                    method: self.method(),
                }),
                iterations: None,
                restarts: None,
            }))
        }
    }

    #[test]
    fn the_harness_catches_uncertified_solutions() {
        let game = opposed_game();
        let initial = LinkLoads::zero(2);
        let config = SolverConfig::default();
        let answer = existence_oracle(&game, &initial, &config);
        let report = check_solver(&Liar, &game, &initial, &config, answer).unwrap();
        assert_eq!(
            report.violations,
            vec![ContractViolation::UncertifiedSolution {
                method: PureNashMethod::BestResponse
            }]
        );
        assert!(!report.violations[0].to_string().is_empty());
    }
}
