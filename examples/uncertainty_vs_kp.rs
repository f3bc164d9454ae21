//! Compares routing under complete information (the KP-model) with routing
//! under belief uncertainty on the same network, then runs the statistical
//! KP-collapse experiment (E12).
//!
//! Run with: `cargo run --release --example uncertainty_vs_kp [samples]`

use kp_model::lpt::lpt_assignment;
use kp_model::KpGame;
use netuncert_core::prelude::*;
use sim_harness::experiments::kp_compare::KpCompare;
use sim_harness::{ExperimentConfig, SweepRunner};

fn scenario() -> Result<()> {
    println!("== One network, two information regimes ==\n");

    // The true network: link 0 is congested (low capacity).
    let true_caps = vec![1.0, 3.0, 4.0];
    let weights = vec![2.0, 1.0, 3.0, 1.5];
    let kp = KpGame::new(weights.clone(), true_caps.clone()).expect("valid KP game");

    // Complete information: everyone routes against the true capacities.
    let informed = lpt_assignment(&kp);
    println!("complete information assignment: {:?}", informed.choices());

    // Uncertainty: users only know the network is "usually healthy" and hold
    // optimistic beliefs; the healthy state says link 0 is fast.
    let states = StateSpace::from_rows(vec![
        vec![4.0, 3.0, 4.0], // believed-healthy state
        true_caps.clone(),   // the actual state
    ])?;
    let optimistic = Belief::new(vec![0.8, 0.2]).map_err(GameError::from)?;
    let game = Game::common_belief(weights, states, optimistic)?;
    let eg = game.effective_game();
    let tol = Tolerance::default();
    let t = LinkLoads::zero(3);
    let uncertain = SolverEngine::paper_order(SolverConfig::with_tol(tol))
        .solve(&eg, &t)?
        .solution
        .expect("a pure NE exists")
        .profile;
    println!("optimistic-belief assignment:    {:?}", uncertain.choices());

    // Evaluate both assignments against the *true* network.
    let true_eg = kp.to_effective_game();
    let informed_cost: f64 = (0..true_eg.users())
        .map(|i| pure_user_latency(&true_eg, &informed, &t, i))
        .sum();
    let uncertain_cost: f64 = (0..true_eg.users())
        .map(|i| pure_user_latency(&true_eg, &uncertain, &t, i))
        .sum();
    println!("\ntotal true latency, informed users:   {informed_cost:.3}");
    println!("total true latency, optimistic users: {uncertain_cost:.3}");
    println!(
        "uncertainty penalty: {:.1}%\n",
        100.0 * (uncertain_cost - informed_cost) / informed_cost
    );
    Ok(())
}

fn main() -> Result<()> {
    scenario()?;

    let samples = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50usize);
    let config = ExperimentConfig {
        samples,
        ..ExperimentConfig::default()
    };
    println!("== Statistical KP-collapse check ({samples} instances per size) ==\n");
    let outcomes = SweepRunner::with_experiments(config, vec![Box::new(KpCompare)])
        .outcomes()
        .expect("report assembles");
    print!("{}", outcomes[0].to_markdown());
    Ok(())
}
