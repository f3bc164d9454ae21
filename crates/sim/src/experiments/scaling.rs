//! E13 — the huge-game regime: `LocalSearch` returns certified pure Nash
//! equilibria where exhaustive enumeration is inapplicable.
//!
//! The paper's worst-case and PoA experiments stop where `mⁿ` outruns the
//! exhaustive budget. This experiment opens the regime beyond that wall:
//! random general instances up to `n = 512, m = 16` are solved by the
//! multi-restart [`LocalSearch`](PureNashMethod::LocalSearch) backend and,
//! for comparison, by plain best-response dynamics; every returned
//! profile is certified by the equilibrium checker ([`is_pure_nash`]) —
//! the same predicate the differential harness uses — so a "solved" cell
//! can never rest on an unverified fixed point. The cell verdict (`holds`)
//! is about the new backend: `LocalSearch` must certify an equilibrium
//! on every sample.
//! Best-response dynamics is the reported baseline — its certification
//! rate and move counts appear in the table (and as metrics) but a BR
//! budget exhaustion does not fail the experiment.

use instance_gen::{CapacityDist, EffectiveSpec, WeightDist};
use netuncert_core::algorithms::PureNashMethod;
use netuncert_core::equilibrium::is_pure_nash;
use netuncert_core::solvers::exhaustive::profile_count;
use netuncert_core::solvers::SolverEngine;
use netuncert_core::strategy::LinkLoads;
use par_exec::parallel_map;

use crate::config::ExperimentConfig;
use crate::experiment::{tables_from_cells, Cell, CellCtx, CellResult, Experiment};
use crate::report::{pct, ExperimentOutcome, ReportError};

/// The `(n, m)` grid: from the exhaustive-able regime (the differential
/// anchor) up to sizes where only the iterative backends apply.
pub fn size_grid() -> Vec<(usize, usize)> {
    vec![(8, 4), (32, 8), (64, 8), (128, 8), (256, 16), (512, 16)]
}

const TABLE: (&str, &[&str]) = (
    "LocalSearch vs best-response dynamics on growing instances",
    &[
        "n",
        "m",
        "instances",
        "exhaustive applies",
        "LS certified NE",
        "LS moves (avg)",
        "LS restarts (avg)",
        "BR certified NE",
        "BR moves (avg)",
    ],
);

#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    ls_certified: bool,
    ls_moves: u64,
    ls_restarts: u64,
    br_certified: bool,
    br_moves: u64,
}

/// E13 as a registry entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scaling;

impl Experiment for Scaling {
    fn id(&self) -> &'static str {
        "scaling"
    }

    fn description(&self) -> &'static str {
        "E13 — certified pure NE at n up to 512 via the LocalSearch backend"
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
        let grid_idx = ctx.cell.index;
        let (n, m) = size_grid()[grid_idx];
        let spec = EffectiveSpec::General {
            users: n,
            links: m,
            capacity: CapacityDist::Uniform { lo: 0.5, hi: 2.0 },
            weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        };
        let solver_config = config.solver_config();
        let local = ctx.attach(SolverEngine::from_kinds(
            solver_config,
            &[PureNashMethod::LocalSearch],
        ));
        let best_response = ctx.attach(SolverEngine::from_kinds(
            solver_config,
            &[PureNashMethod::BestResponse],
        ));
        let initial = LinkLoads::zero(m);
        let results = parallel_map(&ctx.parallel, config.samples, |sample| {
            let stream = 0x5CA1_0000_0000u64 | (grid_idx as u64) << 24 | sample as u64;
            let mut rng = instance_gen::rng(config.seed, stream);
            let game = spec.generate(&mut rng);
            let mut out = Sample::default();
            let ls = local
                .solve(&game, &initial)
                .expect("heuristic backends never error");
            if let Some(attempt) = ls.telemetry.attempts.last() {
                out.ls_moves = attempt.iterations.unwrap_or(0);
                out.ls_restarts = attempt.restarts.unwrap_or(0);
            }
            out.ls_certified = ls
                .solution
                .as_ref()
                .is_some_and(|s| is_pure_nash(&game, &s.profile, &initial, solver_config.tol));
            let br = best_response
                .solve(&game, &initial)
                .expect("heuristic backends never error");
            if let Some(attempt) = br.telemetry.attempts.last() {
                out.br_moves = attempt.iterations.unwrap_or(0);
            }
            out.br_certified = br
                .solution
                .as_ref()
                .is_some_and(|s| is_pure_nash(&game, &s.profile, &initial, solver_config.tol));
            out
        });
        let ls_certified = results.iter().filter(|s| s.ls_certified).count();
        let br_certified = results.iter().filter(|s| s.br_certified).count();
        let samples = config.samples.max(1) as f64;
        let ls_moves = results.iter().map(|s| s.ls_moves).sum::<u64>() as f64 / samples;
        let ls_restarts = results.iter().map(|s| s.ls_restarts).sum::<u64>() as f64 / samples;
        let br_moves = results.iter().map(|s| s.br_moves).sum::<u64>() as f64 / samples;
        let exhaustive_applies = profile_count(n, m) <= config.profile_limit;

        let mut out = CellResult::for_cell(self.id(), ctx.cell);
        out.holds = ls_certified == config.samples;
        out.push_metric("ls_certified", ls_certified as f64);
        out.push_metric("br_certified", br_certified as f64);
        out.push_metric("exhaustive_applies", f64::from(exhaustive_applies));
        out.row = vec![
            n.to_string(),
            m.to_string(),
            config.samples.to_string(),
            if exhaustive_applies { "yes" } else { "no" }.to_string(),
            pct(ls_certified, config.samples),
            format!("{ls_moves:.1}"),
            format!("{ls_restarts:.2}"),
            pct(br_certified, config.samples),
            format!("{br_moves:.1}"),
        ];
        out
    }

    fn outcome(
        &self,
        _config: &ExperimentConfig,
        cells: &[CellResult],
    ) -> Result<ExperimentOutcome, ReportError> {
        let holds = cells.iter().all(|c| c.holds);
        let huge_open = cells
            .iter()
            .any(|c| !c.metric_flag("exhaustive_applies") && c.holds);
        Ok(ExperimentOutcome {
            id: "E13".into(),
            name: "Certified equilibria beyond the exhaustive wall (LocalSearch)".into(),
            paper_claim: "Conjecture 3.7 predicts pure Nash equilibria exist at every size; the \
                          paper's simulations stop where exhaustive verification becomes \
                          infeasible."
                .into(),
            observed: if holds && huge_open {
                "LocalSearch returned checker-certified pure NE on every sampled instance, \
                 including sizes where exhaustive enumeration is inapplicable"
                    .into()
            } else if holds {
                "every sampled instance was solved and certified (no cell beyond the exhaustive \
                 regime was configured)"
                    .into()
            } else {
                "LocalSearch failed to certify an equilibrium within budget on some instance — \
                 inspect the table"
                    .into()
            },
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
    fn quick_run_certifies_equilibria_at_every_size() {
        let mut config = ExperimentConfig::quick();
        config.samples = 2;
        let outcome = run_one(Scaling, &config).expect("report assembles");
        assert!(outcome.holds, "{}", outcome.observed);
        // The grid must actually reach past the exhaustive regime.
        assert!(size_grid()
            .iter()
            .any(|&(n, m)| profile_count(n, m) > config.profile_limit));
    }
}
