//! Demonstrates that the fully mixed Nash equilibrium is the worst equilibrium
//! (Lemma 4.9, Theorems 4.11/4.12): first on a single hand-built instance,
//! then statistically over random instances.
//!
//! Run with: `cargo run --release --example fmne_worst_case [samples]`

use netuncert_core::prelude::*;
use sim_harness::experiments::worst_case::WorstCase;
use sim_harness::{ExperimentConfig, SweepRunner};

fn walkthrough() -> Result<()> {
    println!("== Walkthrough on one instance ==\n");
    let eg = EffectiveGame::from_rows(
        vec![1.0, 1.5, 2.0],
        vec![vec![2.0, 2.2], vec![2.1, 1.9], vec![2.0, 2.0]],
    )?;
    let tol = Tolerance::default();
    let t = LinkLoads::zero(2);

    let fmne = fully_mixed_nash(&eg, tol).expect("this instance has a fully mixed NE");
    println!(
        "fully mixed NE:     SC1 = {:.4}, SC2 = {:.4}",
        sc1(&eg, &fmne),
        sc2(&eg, &fmne)
    );

    for (idx, pure) in all_pure_nash(&eg, &t, tol, 10_000)?.iter().enumerate() {
        let mixed = MixedProfile::from_pure(pure, eg.links());
        println!(
            "pure NE #{idx} {:?}:  SC1 = {:.4}, SC2 = {:.4}",
            pure.choices(),
            sc1(&eg, &mixed),
            sc2(&eg, &mixed)
        );
        assert!(sc1(&eg, &mixed) <= sc1(&eg, &fmne) + 1e-9);
        assert!(sc2(&eg, &mixed) <= sc2(&eg, &fmne) + 1e-9);
    }
    println!("\nEvery pure equilibrium is (weakly) cheaper than the fully mixed one.\n");
    Ok(())
}

fn main() -> Result<()> {
    walkthrough()?;

    let samples = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100usize);
    let config = ExperimentConfig {
        samples,
        ..ExperimentConfig::default()
    };
    println!("== Statistical check on {samples} random instances per size ==\n");
    let outcomes = SweepRunner::with_experiments(config, vec![Box::new(WorstCase)])
        .outcomes()
        .expect("report assembles");
    print!("{}", outcomes[0].to_markdown());
    Ok(())
}
