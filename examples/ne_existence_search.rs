//! Reproduces the simulation campaign behind Conjecture 3.7: sample random
//! general instances and search for pure Nash equilibria.
//!
//! Run with: `cargo run --release --example ne_existence_search [samples]`

use sim_harness::experiments::{conjecture::Conjecture, three_users::ThreeUsers};
use sim_harness::{ExperimentConfig, SweepRunner};

fn main() {
    let samples = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200usize);
    let config = ExperimentConfig {
        samples,
        ..ExperimentConfig::default()
    };

    println!("Searching for pure Nash equilibria on {samples} random instances per size...\n");
    let outcomes =
        SweepRunner::with_experiments(config, vec![Box::new(Conjecture), Box::new(ThreeUsers)])
            .outcomes()
            .expect("reports assemble");
    for outcome in &outcomes {
        print!("{}", outcome.to_markdown());
    }

    if outcomes.iter().all(|o| o.holds) {
        println!(
            "All sampled instances have pure Nash equilibria — consistent with Conjecture 3.7."
        );
    } else {
        println!("A counterexample candidate was found! Re-run with more samples and inspect it.");
    }
}
