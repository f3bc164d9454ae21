//! E6 — the game is not a potential game (Section 3.2).
//!
//! The paper states that the game does not admit an exact potential function
//! and, by an observation of B. Monien, that some instance's state space
//! contains an improvement cycle (ruling out ordinal potentials as well).
//! This experiment measures, over random instances:
//!
//! * how often the Monderer–Shapley four-cycle condition for exact potentials
//!   is violated (expected: essentially always for genuinely user-specific
//!   weighted instances);
//! * how often an improvement (better-response) cycle exists in the game
//!   graph, demonstrating that the finite-improvement property can fail even
//!   though every sampled instance still has a pure equilibrium.

use instance_gen::{CapacityDist, EffectiveSpec, WeightDist};
use netuncert_core::game_graph::{EdgeKind, GameGraph};
use netuncert_core::numeric::Tolerance;
use netuncert_core::potential::exact_potential_violation;
use netuncert_core::strategy::LinkLoads;
use par_exec::parallel_map;

use crate::config::ExperimentConfig;
use crate::experiment::{tables_from_cells, Cell, CellCtx, CellResult, Experiment};
use crate::report::{pct, ExperimentOutcome, ReportError};

/// The `(n, m)` grid probed by the experiment.
pub fn size_grid() -> Vec<(usize, usize)> {
    vec![(2, 2), (3, 2), (3, 3), (4, 3)]
}

const TABLE: (&str, &[&str]) = (
    "Potential-function structure of random instances",
    &[
        "n",
        "m",
        "instances",
        "exact potential violated",
        "improvement cycle found",
        "still has pure NE",
    ],
);

/// E6 as a registry entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Potential;

impl Experiment for Potential {
    fn id(&self) -> &'static str {
        "potential"
    }

    fn description(&self) -> &'static str {
        "E6 — the game admits no exact or ordinal potential function (Section 3.2)"
    }

    fn grid(&self, _config: &ExperimentConfig) -> Vec<Cell> {
        size_grid()
            .iter()
            .enumerate()
            .map(|(idx, &(n, m))| Cell::new(idx, 0, format!("n={n} m={m}")))
            .collect()
    }

    fn run_cell(&self, ctx: &CellCtx<'_>) -> CellResult {
        let config = ctx.config;
        let tol = Tolerance::default();
        let grid_idx = ctx.cell.index;
        let (n, m) = size_grid()[grid_idx];
        let spec = EffectiveSpec::General {
            users: n,
            links: m,
            capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        };
        let results = parallel_map(&ctx.parallel, config.samples, |sample| {
            let stream = 0xE6_0000_0000u64 | (grid_idx as u64) << 24 | sample as u64;
            let mut rng = instance_gen::rng(config.seed, stream);
            let game = spec.generate(&mut rng);
            let t = LinkLoads::zero(m);
            let violated = exact_potential_violation(&game, &t, tol, config.profile_limit)
                .expect("instances sized within the limit")
                .is_some();
            let graph = GameGraph::build(
                &game,
                &t,
                EdgeKind::BetterResponse,
                tol,
                config.profile_limit,
            )
            .expect("instances sized within the limit");
            let has_cycle = graph.find_cycle().is_some();
            let has_ne = graph.has_pure_nash();
            (violated, has_cycle, has_ne)
        });
        let violated = results.iter().filter(|r| r.0).count();
        let cycles = results.iter().filter(|r| r.1).count();
        let with_ne = results.iter().filter(|r| r.2).count();

        let mut out = CellResult::for_cell(self.id(), ctx.cell);
        out.holds = with_ne == config.samples;
        out.push_metric("violations", violated as f64);
        out.push_metric("cycles", cycles as f64);
        out.row = vec![
            n.to_string(),
            m.to_string(),
            config.samples.to_string(),
            pct(violated, config.samples),
            pct(cycles, config.samples),
            pct(with_ne, config.samples),
        ];
        out
    }

    fn outcome(
        &self,
        _config: &ExperimentConfig,
        cells: &[CellResult],
    ) -> Result<ExperimentOutcome, ReportError> {
        let any_violation = cells
            .iter()
            .any(|c| c.metric("violations").unwrap_or(0.0) > 0.0);
        let any_cycle = cells
            .iter()
            .any(|c| c.metric("cycles").unwrap_or(0.0) > 0.0);
        let all_have_ne = cells.iter().all(|c| c.holds);
        // The paper's two observations: no exact potential, and (for some
        // instance) an improvement cycle. Pure NE nonetheless exist everywhere.
        let holds = any_violation && all_have_ne;

        Ok(ExperimentOutcome {
            id: "E6".into(),
            name: "The game is not an (exact or ordinal) potential game (Section 3.2)".into(),
            paper_claim: "The game does not admit an exact potential function, and some \
                          instance's state space contains an improvement cycle; \
                          potential-function arguments therefore cannot settle Conjecture 3.7, \
                          yet pure NE still appear to exist."
                .into(),
            observed: format!(
                "exact-potential violations found: {any_violation}; improvement cycles found: \
                 {any_cycle}; every sampled instance still had a pure Nash equilibrium: \
                 {all_have_ne}"
            ),
            holds,
            tables: tables_from_cells(&[TABLE], cells)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_one;

    #[test]
    fn quick_run_detects_exact_potential_violations() {
        let mut config = ExperimentConfig::quick();
        config.samples = 8;
        let outcome = run_one(Potential, &config).expect("report assembles");
        assert!(outcome.holds, "{}", outcome.observed);
    }
}
