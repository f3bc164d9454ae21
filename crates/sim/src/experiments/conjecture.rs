//! E5 — Conjecture 3.7: existence of pure Nash equilibria in the general case.
//!
//! The paper reports that "simulations ran on numerous instances of the game
//! (dealing with small number of users and links) suggest the existence of
//! pure NE" and conjectures existence in general. This experiment repeats that
//! simulation campaign: random general games (fully user-specific effective
//! capacities, heterogeneous weights) are sampled for a grid of `(n, m)` sizes
//! and a pure Nash equilibrium is searched for with best-response dynamics,
//! falling back to exhaustive enumeration when the dynamics stall.

use instance_gen::{CapacityDist, EffectiveSpec, WeightDist};
use netuncert_core::algorithms::PureNashMethod;
use netuncert_core::solvers::engine::{BestResponse, Exhaustive, SolverEngine};
use netuncert_core::strategy::LinkLoads;
use par_exec::parallel_map;

use crate::config::ExperimentConfig;
use crate::experiment::{tables_from_cells, Cell, CellCtx, CellResult, Experiment};
use crate::report::{pct, ExperimentOutcome, ReportError};

/// Per-size tally of how equilibria were found.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    converged: usize,
    exhaustive_only: usize,
    none_found: usize,
    total_steps: usize,
}

/// The `(n, m)` grid probed by the experiment.
pub fn size_grid() -> Vec<(usize, usize)> {
    vec![
        (2, 2),
        (3, 2),
        (3, 3),
        (4, 3),
        (4, 4),
        (5, 3),
        (5, 4),
        (6, 3),
    ]
}

const TABLE: (&str, &[&str]) = (
    "Pure NE existence on random general instances",
    &[
        "n",
        "m",
        "instances",
        "BR converged",
        "exhaustive only",
        "no NE found",
        "avg BR steps",
    ],
);

/// E5 as a registry entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Conjecture;

impl Experiment for Conjecture {
    fn id(&self) -> &'static str {
        "conjecture"
    }

    fn description(&self) -> &'static str {
        "E5 — pure Nash equilibria exist on random general instances (Conjecture 3.7)"
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
        // The experiment probes the *general-case* machinery, so the engine
        // runs best-response dynamics first and exhaustive enumeration as the
        // conclusive fallback — deliberately without the special-case solvers
        // the sampled instances would otherwise trigger on two-link grid cells.
        let engine = ctx.attach(SolverEngine::with_solvers(
            config.solver_config(),
            vec![Box::new(BestResponse), Box::new(Exhaustive)],
        ));
        let grid_idx = ctx.cell.index;
        let (n, m) = size_grid()[grid_idx];
        let spec = EffectiveSpec::General {
            users: n,
            links: m,
            capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        };
        let results = parallel_map(&ctx.parallel, config.samples, |sample| {
            let stream = (grid_idx as u64) << 32 | sample as u64;
            let mut rng = instance_gen::rng(config.seed, stream);
            let game = spec.generate(&mut rng);
            engine.solve(&game, &LinkLoads::zero(m))
        });
        let mut tally = Tally::default();
        for result in results {
            let solved = result.expect("the engine's solvers are in-budget for the grid");
            match solved.method() {
                Some(PureNashMethod::BestResponse) => tally.converged += 1,
                Some(_) => tally.exhaustive_only += 1,
                None => tally.none_found += 1,
            }
            // Best-response dynamics always runs first; its move count is the
            // first attempt's iteration telemetry, converged or not.
            let br_steps = solved
                .telemetry
                .attempts
                .first()
                .and_then(|a| a.iterations)
                .unwrap_or(0);
            tally.total_steps += br_steps as usize;
        }

        let mut out = CellResult::for_cell(self.id(), ctx.cell);
        out.holds = tally.none_found == 0;
        out.row = vec![
            n.to_string(),
            m.to_string(),
            config.samples.to_string(),
            pct(tally.converged, config.samples),
            pct(tally.exhaustive_only, config.samples),
            tally.none_found.to_string(),
            format!("{:.1}", tally.total_steps as f64 / config.samples as f64),
        ];
        out
    }

    fn outcome(
        &self,
        _config: &ExperimentConfig,
        cells: &[CellResult],
    ) -> Result<ExperimentOutcome, ReportError> {
        let all_have_ne = cells.iter().all(|c| c.holds);
        Ok(ExperimentOutcome {
            id: "E5".into(),
            name: "Pure Nash equilibrium existence (Conjecture 3.7)".into(),
            paper_claim: "Simulations on numerous small instances suggest every game has a pure \
                          Nash equilibrium; the paper conjectures existence in general."
                .into(),
            observed: if all_have_ne {
                "every sampled instance possessed a pure Nash equilibrium (best-response dynamics \
                 converged or exhaustive search found one)"
                    .into()
            } else {
                "at least one sampled instance had no pure Nash equilibrium — this would DISPROVE \
                 Conjecture 3.7; inspect the table"
                    .into()
            },
            holds: all_have_ne,
            tables: tables_from_cells(&[TABLE], cells)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_one;

    #[test]
    fn quick_run_supports_the_conjecture() {
        let mut config = ExperimentConfig::quick();
        config.samples = 10;
        let outcome = run_one(Conjecture, &config).expect("report assembles");
        assert_eq!(outcome.id, "E5");
        assert!(
            outcome.holds,
            "conjecture violated on a tiny sample: {}",
            outcome.observed
        );
        assert_eq!(outcome.tables[0].rows.len(), size_grid().len());
    }
}
