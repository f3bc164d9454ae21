//! Quickstart: build an uncertain routing game, find its equilibria and
//! measure the price of anarchy — then solve it again through a cached
//! engine to show the memoisation layer at work.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use netuncert_core::prelude::*;

fn main() -> Result<()> {
    // A network of 3 parallel links that can be in one of three states:
    // healthy, link 0 congested, or link 2 down to a trickle.
    let states = StateSpace::from_rows(vec![
        vec![4.0, 3.0, 4.0], // state 0: healthy
        vec![1.0, 3.0, 4.0], // state 1: link 0 congested
        vec![4.0, 3.0, 0.5], // state 2: link 2 nearly down
    ])?;

    // Four users with different traffic demands and different information
    // sources, hence different beliefs about the network state.
    let beliefs = BeliefProfile::new(vec![
        Belief::new(vec![0.8, 0.1, 0.1]).map_err(GameError::from)?, // mostly trusts "healthy"
        Belief::new(vec![0.2, 0.7, 0.1]).map_err(GameError::from)?, // fears congestion on link 0
        Belief::new(vec![0.2, 0.1, 0.7]).map_err(GameError::from)?, // fears link 2 failure
        Belief::uniform(3),                                         // knows nothing
    ])?;
    let weights = vec![2.0, 1.0, 3.0, 1.5];
    let game = Game::new(weights, states, beliefs)?;

    println!("== The game ==");
    println!(
        "users: {}, links: {}, states: {}",
        game.users(),
        game.links(),
        game.states().len()
    );

    // Every algorithm works on the reduced effective game: the per-user,
    // per-link belief-harmonic-mean capacities.
    let eg = game.effective_game();
    println!("\nEffective capacities c_i^l (rows = users):");
    for user in 0..eg.users() {
        let row: Vec<String> = eg
            .capacities()
            .row(user)
            .iter()
            .map(|c| format!("{c:.3}"))
            .collect();
        println!(
            "  user {user} (w = {:.1}): [{}]",
            eg.weight(user),
            row.join(", ")
        );
    }

    // A pure Nash equilibrium via the dispatcher (here: best-response dynamics,
    // since the game is general with 3 links).
    let tol = Tolerance::default();
    let initial = LinkLoads::zero(eg.links());
    let solution = SolverEngine::paper_order(SolverConfig::with_tol(tol))
        .solve(&eg, &initial)?
        .solution
        .expect("a pure NE was found");
    println!("\n== Pure Nash equilibrium ({:?}) ==", solution.method);
    for user in 0..eg.users() {
        println!(
            "  user {user} -> link {} (expected latency {:.3})",
            solution.profile.link(user),
            pure_user_latency(&eg, &solution.profile, &initial, user)
        );
    }
    assert!(is_pure_nash(&eg, &solution.profile, &initial, tol));

    // The fully mixed Nash equilibrium (Theorem 4.6), if it exists.
    println!("\n== Fully mixed Nash equilibrium ==");
    match fully_mixed_nash(&eg, tol) {
        Some(fmne) => {
            for user in 0..eg.users() {
                let row: Vec<String> = fmne.row(user).iter().map(|p| format!("{p:.3}")).collect();
                println!("  user {user}: [{}]", row.join(", "));
            }
            assert!(is_mixed_nash(&eg, &fmne, tol));

            // Social costs and coordination ratios against the exact optimum.
            let report = measure(&eg, &fmne, &initial, 1_000_000)?;
            println!("\n== Social cost of the fully mixed NE ==");
            println!(
                "  SC1 = {:.3}  (OPT1 = {:.3}, CR1 = {:.3})",
                report.sc1, report.opt1, report.cr1
            );
            println!(
                "  SC2 = {:.3}  (OPT2 = {:.3}, CR2 = {:.3})",
                report.sc2, report.opt2, report.cr2
            );
            println!("  Theorem 4.14 bound: {:.3}", cr_bound_general(&eg));
        }
        None => println!("  the closed-form candidate is infeasible; no fully mixed NE exists"),
    }

    // How costly is selfishness here? Compare every pure equilibrium against
    // the social optimum.
    let (poa, pos) = pure_poa_and_pos(&eg, &initial, tol, 1_000_000)?
        .expect("a pure NE exists for this instance");
    let spectrum = pure_equilibrium_spectrum(&eg, &initial, tol, 1_000_000)?.unwrap();
    println!("\n== Pure equilibria overview ==");
    println!("  pure Nash equilibria: {}", spectrum.count);
    println!(
        "  SC1 range across equilibria: [{:.3}, {:.3}]",
        spectrum.best_sc1, spectrum.worst_sc1
    );
    println!("  pure price of anarchy (SC1):  {poa:.3}");
    println!("  pure price of stability (SC1): {pos:.3}");
    println!(
        "  Theorem 4.14 upper bound:      {:.3}",
        cr_bound_general(&eg)
    );

    // Perturbation sweeps re-solve identical effective games constantly; a
    // content-addressed cache in front of the engine shortcuts the repeats
    // while returning bit-identical solutions and telemetry.
    let cache = Arc::new(SolveCache::new());
    let engine = SolverEngine::default().with_cache(Arc::clone(&cache));
    let cold = engine.solve(&eg, &initial)?;
    let hit = engine.solve(&eg, &initial)?;
    assert_eq!(cold, hit, "a cache hit replays the cold solve exactly");
    let stats = cache.stats();
    println!("\n== Solve cache ==");
    println!(
        "  solved the same game twice: {} hit / {} miss ({} entry stored)",
        stats.hits, stats.misses, stats.entries
    );

    Ok(())
}
