//! Rendering the experiment suite's reports. The suite itself runs through
//! the sharded [`SweepRunner`](crate::sweep::SweepRunner):
//! `SweepRunner::new(config).outcomes()` sweeps every registered experiment.

use crate::report::ExperimentOutcome;

/// Renders a list of outcomes as one markdown document (the format used by
/// `EXPERIMENTS.md`).
pub fn render_markdown(outcomes: &[ExperimentOutcome]) -> String {
    let mut out = String::new();
    out.push_str("# Experiment report\n\n");
    let passed = outcomes.iter().filter(|o| o.holds).count();
    out.push_str(&format!(
        "{passed} of {} experiments are consistent with the paper's claims.\n\n",
        outcomes.len()
    ));
    for outcome in outcomes {
        out.push_str(&outcome.to_markdown());
        out.push('\n');
    }
    out
}

/// Serialises the outcomes as pretty-printed JSON.
pub fn to_json(outcomes: &[ExperimentOutcome]) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::sweep::SweepRunner;

    #[test]
    fn full_suite_runs_on_a_tiny_configuration() {
        let config = ExperimentConfig {
            samples: 4,
            ..ExperimentConfig::quick()
        };
        let outcomes = SweepRunner::new(config)
            .outcomes()
            .expect("the registry assembles its reports");
        assert_eq!(outcomes.len(), 12);
        assert!(
            outcomes.iter().all(|o| o.holds),
            "failing experiments: {:?}",
            outcomes
                .iter()
                .filter(|o| !o.holds)
                .map(|o| o.id.clone())
                .collect::<Vec<_>>()
        );
        let md = render_markdown(&outcomes);
        assert!(md.contains("# Experiment report"));
        assert!(md.contains("E5"));
        let json = to_json(&outcomes).expect("outcomes serialise");
        assert!(json.contains("\"E10\""));
    }
}
