//! Certified social-optimum estimation: the `OPT1`/`OPT2` bracketing
//! engine behind the coordination-ratio measurements.
//!
//! The paper's headline quantities are the ratios `SC1/OPT1` and
//! `SC2/OPT2`, but exhaustive computation of the optima dies at `mⁿ` —
//! exactly where the huge-game solvers start being interesting. This
//! subsystem replaces the single exhaustive routine with a composition of
//! [`OptEstimator`] backends (mirroring the [`Solver`] engine design):
//!
//! | backend | kind | contribution |
//! |---|---|---|
//! | [`exhaustive::Exhaustive`] | exact | both optima, conclusive within the profile budget |
//! | [`branch_and_bound::BranchAndBound`] | exact | pruned search for mid-size games; degrades to an upper bound on budget exhaustion |
//! | [`greedy::LptGreedy`] | upper | the LPT-style start portfolio, evaluated under both costs |
//! | [`descent::Descent`] | upper | seeded multi-restart objective descent |
//! | [`relaxation::Relaxation`] | lower | singleton/fractional, volume and size-partition-DP bounds |
//!
//! An [`OptEngine`] merges every contribution into one certified
//! [`OptBracket`] per objective — `lower ≤ OPT ≤ upper`, collapsed to a
//! point by the exact backends — with per-attempt telemetry and an opt-in
//! content-addressed [`OptCache`] whose keys embed the full opt budget set.
//! The [`oracle`] module certifies every backend against exhaustive ground
//! truth; `tests/integration_opt.rs` holds the property-based contract
//! suite, and `crates/sim`'s `poa_scaling` experiment (E14) consumes the
//! brackets as interval coordination ratios at `n = 512`.
//!
//! [`Solver`]: crate::solvers::engine::Solver

pub mod branch_and_bound;
pub mod cache;
pub mod descent;
pub mod engine;
pub mod exhaustive;
pub mod greedy;
pub mod oracle;
pub mod relaxation;

pub use cache::OptCache;
pub use engine::{
    OptAttempt, OptBracket, OptCheckpoint, OptConfig, OptEngine, OptEstimate, OptEstimator,
    OptMethod, OptOpened, OptOutcome, OptRun, OptTelemetry, OptWalk,
};
pub use exhaustive::{social_optimum, SocialOptimum};
pub use greedy::lpt_profile;

#[cfg(test)]
pub(crate) mod test_util {
    use crate::model::EffectiveGame;
    use crate::solvers::local_search::SplitMix64;

    /// A deterministic random instance shared by the opt backends' unit
    /// tests, so every backend is exercised on the same instance family.
    pub(crate) fn random_game(n: usize, m: usize, seed: u64) -> EffectiveGame {
        let mut rng = SplitMix64::new(seed);
        let weights: Vec<f64> = (0..n)
            .map(|_| 0.5 + (rng.next_below(100) as f64) / 28.0)
            .collect();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..m)
                    .map(|_| 0.5 + (rng.next_below(100) as f64) / 66.0)
                    .collect()
            })
            .collect();
        EffectiveGame::from_rows(weights, rows).unwrap()
    }
}
