//! One module per reproduced experiment (see `DESIGN.md` for the index),
//! plus the registry that exposes them through the declarative
//! [`Experiment`] trait.

use crate::experiment::Experiment;

pub mod belief_noise;
pub mod churn_repair;
pub mod conjecture;
pub mod fmne;
pub mod kp_compare;
pub mod milchtaich;
pub mod poa;
pub mod poa_scaling;
pub mod potential;
pub mod scaling;
pub mod three_users;
pub mod worst_case;

/// Every registered experiment, in report order (the `DESIGN.md` index:
/// E4, E5, E6, E7/E8, E9, E10, E11, E12, E13, E14, E15, E16).
pub fn all() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(three_users::ThreeUsers),
        Box::new(conjecture::Conjecture),
        Box::new(potential::Potential),
        Box::new(fmne::FullyMixed),
        Box::new(worst_case::WorstCase),
        Box::new(poa::PriceOfAnarchy),
        Box::new(milchtaich::Milchtaich),
        Box::new(kp_compare::KpCompare),
        Box::new(scaling::Scaling),
        Box::new(poa_scaling::PoaScaling),
        Box::new(belief_noise::BeliefNoise),
        Box::new(churn_repair::ChurnRepair),
    ]
}

/// Looks an experiment up by its registry id (e.g. `"conjecture"`).
pub fn find(id: &str) -> Option<Box<dyn Experiment>> {
    all().into_iter().find(|e| e.id() == id)
}

/// The registry ids, in report order.
pub fn ids() -> Vec<&'static str> {
    all().iter().map(|e| e.id()).collect()
}

/// The outcome of one experiment, run alone through a
/// [`SweepRunner`](crate::sweep::SweepRunner).
#[cfg(test)]
pub(crate) fn run_one(
    experiment: impl Experiment + 'static,
    config: &crate::config::ExperimentConfig,
) -> Result<crate::report::ExperimentOutcome, crate::sweep::MergeError> {
    let runner = crate::sweep::SweepRunner::with_experiments(*config, vec![Box::new(experiment)]);
    Ok(runner.outcomes()?.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;

    #[test]
    fn registry_ids_are_unique_and_in_design_order() {
        let ids = ids();
        assert_eq!(
            ids,
            vec![
                "three_users",
                "conjecture",
                "potential",
                "fmne",
                "worst_case",
                "poa",
                "milchtaich",
                "kp_compare",
                "scaling",
                "poa_scaling",
                "belief_noise",
                "churn_repair",
            ]
        );
    }

    #[test]
    fn find_resolves_registered_ids_only() {
        assert!(find("poa").is_some());
        assert!(find("conjecture").is_some());
        assert!(find("belief_noise").is_some());
        assert!(find("nonsense").is_none());
    }

    #[test]
    fn grids_are_dense_and_table_tagged() {
        let config = ExperimentConfig::quick();
        for experiment in all() {
            let grid = experiment.grid(&config);
            assert!(!grid.is_empty(), "{} has an empty grid", experiment.id());
            for (i, cell) in grid.iter().enumerate() {
                assert_eq!(cell.index, i, "{} grid is not dense", experiment.id());
            }
            assert!(!experiment.description().is_empty());
        }
    }
}
