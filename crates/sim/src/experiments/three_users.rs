//! E4 — three-user games always possess a pure Nash equilibrium
//! (Section 3.1, "The case of n = 3").
//!
//! The paper proves exhaustively that no three-user game of the model has a
//! best-response cycle, hence every such game has a pure Nash equilibrium —
//! in contrast to the Milchtaich counterexample for the general user-specific
//! class. This experiment reproduces the exhaustive check on random instances:
//! for every sampled game the full best-response game graph is built, cycles
//! are searched for, and the equilibrium set is enumerated.

use instance_gen::{CapacityDist, EffectiveSpec, WeightDist};
use netuncert_core::game_graph::{EdgeKind, GameGraph};
use netuncert_core::numeric::Tolerance;
use netuncert_core::strategy::LinkLoads;
use par_exec::parallel_map;

use crate::config::ExperimentConfig;
use crate::experiment::{tables_from_cells, Cell, CellCtx, CellResult, Experiment};
use crate::report::{ExperimentOutcome, ReportError};

/// Link counts probed with `n = 3`.
pub fn link_grid() -> Vec<usize> {
    vec![2, 3, 4, 5]
}

const TABLE: (&str, &[&str]) = (
    "Three-user games: best-response cycles and equilibrium counts",
    &[
        "m",
        "instances",
        "with pure NE",
        "with BR cycle",
        "min #NE",
        "max #NE",
    ],
);

/// E4 as a registry entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreeUsers;

impl Experiment for ThreeUsers {
    fn id(&self) -> &'static str {
        "three_users"
    }

    fn description(&self) -> &'static str {
        "E4 — every three-user game has a pure Nash equilibrium (Section 3.1)"
    }

    fn grid(&self, _config: &ExperimentConfig) -> Vec<Cell> {
        link_grid()
            .iter()
            .enumerate()
            .map(|(idx, &m)| Cell::new(idx, 0, format!("n=3 m={m}")))
            .collect()
    }

    fn run_cell(&self, ctx: &CellCtx<'_>) -> CellResult {
        let config = ctx.config;
        let tol = Tolerance::default();
        let grid_idx = ctx.cell.index;
        let m = link_grid()[grid_idx];
        let spec = EffectiveSpec::General {
            users: 3,
            links: m,
            capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        };
        let results = parallel_map(&ctx.parallel, config.samples, |sample| {
            let stream = 0xE4_0000_0000u64 | (grid_idx as u64) << 24 | sample as u64;
            let mut rng = instance_gen::rng(config.seed, stream);
            let game = spec.generate(&mut rng);
            let t = LinkLoads::zero(m);
            let graph =
                GameGraph::build(&game, &t, EdgeKind::BestResponse, tol, config.profile_limit)
                    .expect("3-user games are small enough to enumerate");
            let ne_count = graph.pure_nash_profiles().len();
            let has_cycle = graph.find_cycle().is_some();
            (ne_count, has_cycle)
        });
        let with_ne = results.iter().filter(|&&(c, _)| c > 0).count();
        let with_cycle = results.iter().filter(|&&(_, cyc)| cyc).count();
        let min_ne = results.iter().map(|&(c, _)| c).min().unwrap_or(0);
        let max_ne = results.iter().map(|&(c, _)| c).max().unwrap_or(0);

        let mut out = CellResult::for_cell(self.id(), ctx.cell);
        out.holds = with_ne == config.samples && with_cycle == 0;
        out.row = vec![
            m.to_string(),
            config.samples.to_string(),
            with_ne.to_string(),
            with_cycle.to_string(),
            min_ne.to_string(),
            max_ne.to_string(),
        ];
        out
    }

    fn outcome(
        &self,
        _config: &ExperimentConfig,
        cells: &[CellResult],
    ) -> Result<ExperimentOutcome, ReportError> {
        let claim_holds = cells.iter().all(|c| c.holds);
        Ok(ExperimentOutcome {
            id: "E4".into(),
            name: "Pure NE existence for three users (Section 3.1)".into(),
            paper_claim:
                "Every game with three users has a pure Nash equilibrium; the proof shows \
                          the game graph has no best-response cycle."
                    .into(),
            observed: if claim_holds {
                "every sampled 3-user instance had at least one pure Nash equilibrium and its \
                 best-response game graph was acyclic"
                    .into()
            } else {
                "a sampled 3-user instance lacked a pure NE or exhibited a best-response cycle — \
                 contradicting the paper's claim"
                    .into()
            },
            holds: claim_holds,
            tables: tables_from_cells(&[TABLE], cells)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_one;

    #[test]
    fn quick_run_confirms_three_user_existence() {
        let mut config = ExperimentConfig::quick();
        config.samples = 10;
        let outcome = run_one(ThreeUsers, &config).expect("report assembles");
        assert!(outcome.holds, "{}", outcome.observed);
        assert_eq!(outcome.tables[0].rows.len(), link_grid().len());
    }

    #[test]
    fn grid_matches_the_link_counts() {
        let grid = ThreeUsers.grid(&ExperimentConfig::quick());
        assert_eq!(grid.len(), link_grid().len());
        assert_eq!(grid[1].label, "n=3 m=3");
    }
}
