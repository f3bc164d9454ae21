//! Integration tests for the experiment harness: the full suite runs end to
//! end on a small configuration, every outcome is consistent with the paper,
//! and the reports serialise and render.

use std::sync::OnceLock;

use sim_harness::{render_markdown, runner, ExperimentConfig, ExperimentOutcome, SweepRunner};

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        samples: 6,
        threads: 2,
        ..ExperimentConfig::quick()
    }
}

/// The suite's report under [`tiny_config`], computed once per test binary:
/// the read-only tests below all inspect the same report.
fn tiny_report() -> &'static [ExperimentOutcome] {
    static REPORT: OnceLock<Vec<ExperimentOutcome>> = OnceLock::new();
    REPORT.get_or_init(|| {
        SweepRunner::new(tiny_config())
            .outcomes()
            .expect("reports assemble")
    })
}

#[test]
fn the_full_suite_is_consistent_with_the_paper() {
    let outcomes = tiny_report();
    assert_eq!(outcomes.len(), 12, "every experiment in DESIGN.md must run");
    let failing: Vec<&ExperimentOutcome> = outcomes.iter().filter(|o| !o.holds).collect();
    assert!(
        failing.is_empty(),
        "experiments inconsistent with the paper: {:?}",
        failing
            .iter()
            .map(|o| (&o.id, &o.observed))
            .collect::<Vec<_>>()
    );
}

#[test]
fn experiment_ids_match_the_design_document() {
    let ids: Vec<&str> = tiny_report().iter().map(|o| o.id.as_str()).collect();
    assert_eq!(
        ids,
        vec!["E4", "E5", "E6", "E7/E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16",]
    );
}

#[test]
fn reports_render_and_serialise() {
    let outcomes = tiny_report();
    let md = render_markdown(outcomes);
    assert!(md.contains("# Experiment report"));
    for outcome in outcomes {
        assert!(
            md.contains(&outcome.id),
            "markdown missing section {}",
            outcome.id
        );
        assert!(
            !outcome.tables.is_empty(),
            "{} carries no tables",
            outcome.id
        );
    }
    let json = runner::to_json(outcomes).expect("outcomes serialise");
    let back: Vec<ExperimentOutcome> = serde_json::from_str(&json).expect("round trip");
    assert_eq!(back, outcomes);
}

#[test]
fn results_are_deterministic_in_the_seed() {
    // The shared report is the first run; `b` is a second, independent one.
    let a = tiny_report();
    let b = SweepRunner::new(tiny_config())
        .outcomes()
        .expect("reports assemble");
    assert_eq!(
        a, b,
        "same seed and sample count must reproduce identical reports"
    );

    let different_seed = ExperimentConfig {
        seed: 99,
        ..tiny_config()
    };
    let c = SweepRunner::new(different_seed)
        .outcomes()
        .expect("reports assemble");
    // Different seed changes the numbers (tables), though claims still hold.
    assert_ne!(a, c.as_slice());
    assert!(c.iter().all(|o| o.holds));
}

#[test]
fn thread_count_does_not_change_results() {
    let sequential = ExperimentConfig {
        threads: 1,
        ..tiny_config()
    };
    let parallel = ExperimentConfig {
        threads: 4,
        ..tiny_config()
    };
    assert_eq!(
        SweepRunner::new(sequential)
            .outcomes()
            .expect("reports assemble"),
        SweepRunner::new(parallel)
            .outcomes()
            .expect("reports assemble")
    );
}
