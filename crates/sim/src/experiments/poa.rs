//! E10 — coordination-ratio (price-of-anarchy) bounds
//! (Theorems 4.13 and 4.14).
//!
//! For random instances the worst Nash equilibrium found (every pure NE plus
//! the fully mixed NE when it exists) is measured against the exact social
//! optimum, and the resulting ratios `SC1/OPT1` and `SC2/OPT2` are compared to
//! the closed-form bounds: Theorem 4.13 for uniform user beliefs and
//! Theorem 4.14 in general. The experiment reports the largest observed ratio,
//! the smallest bound, and whether any instance violated its bound.

use instance_gen::{CapacityDist, EffectiveSpec, WeightDist};
use netuncert_core::fully_mixed::fully_mixed_nash;
use netuncert_core::numeric::Tolerance;
use netuncert_core::social_cost::{
    cr_bound_general, cr_bound_uniform_beliefs, measure, CostReport,
};
use netuncert_core::solvers::exhaustive::all_pure_nash;
use netuncert_core::strategy::{LinkLoads, MixedProfile};
use par_exec::parallel_map;

use crate::config::ExperimentConfig;
use crate::experiment::{tables_from_cells, Cell, CellCtx, CellResult, Experiment};
use crate::report::{fmt, ExperimentOutcome, ReportError};

/// The `(n, m)` grid probed by the experiment.
pub fn size_grid() -> Vec<(usize, usize)> {
    vec![(2, 2), (3, 2), (3, 3), (4, 3), (5, 3)]
}

const UNIFORM_TABLE: (&str, &[&str]) = (
    "Uniform user beliefs vs. the Theorem 4.13 bound (cmax/cmin)·(m+n−1)/m",
    &[
        "n",
        "m",
        "instances",
        "max CR1",
        "max CR2",
        "min bound",
        "violations",
    ],
);

const GENERAL_TABLE: (&str, &[&str]) = (
    "General instances vs. the Theorem 4.14 bound (cmax²/cmin)·(m+n−1)/Σ cmin^j",
    &[
        "n",
        "m",
        "instances",
        "max CR1",
        "max CR2",
        "min bound",
        "violations",
    ],
);

/// Worst-equilibrium measurement of one instance.
#[derive(Debug, Clone, Copy)]
struct Sample {
    worst_cr1: f64,
    worst_cr2: f64,
    bound: f64,
    violated: bool,
}

fn measure_instance(
    game: &netuncert_core::model::EffectiveGame,
    uniform_beliefs: bool,
    limit: u128,
) -> Sample {
    let tol = Tolerance::default();
    let t = LinkLoads::zero(game.links());
    let bound = if uniform_beliefs {
        cr_bound_uniform_beliefs(game)
    } else {
        cr_bound_general(game)
    };

    let mut equilibria: Vec<MixedProfile> = all_pure_nash(game, &t, tol, limit)
        .expect("instances sized within the limit")
        .iter()
        .map(|p| MixedProfile::from_pure(p, game.links()))
        .collect();
    if let Some(fmne) = fully_mixed_nash(game, tol) {
        equilibria.push(fmne);
    }

    let mut worst_cr1: f64 = 0.0;
    let mut worst_cr2: f64 = 0.0;
    for profile in &equilibria {
        let report: CostReport =
            measure(game, profile, &t, limit).expect("instances sized within the limit");
        worst_cr1 = worst_cr1.max(report.cr1);
        worst_cr2 = worst_cr2.max(report.cr2);
    }
    let violated = worst_cr1 > bound + 1e-6 || worst_cr2 > bound + 1e-6;
    Sample {
        worst_cr1,
        worst_cr2,
        bound,
        violated,
    }
}

/// E10 as a registry entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct PriceOfAnarchy;

impl Experiment for PriceOfAnarchy {
    fn id(&self) -> &'static str {
        "poa"
    }

    fn description(&self) -> &'static str {
        "E10 — coordination ratios stay below the paper's bounds (Thms 4.13/4.14)"
    }

    fn grid(&self, _config: &ExperimentConfig) -> Vec<Cell> {
        let sizes = size_grid();
        let uniform = sizes
            .iter()
            .enumerate()
            .map(|(idx, &(n, m))| Cell::new(idx, 0, format!("uniform n={n} m={m}")));
        let general = sizes
            .iter()
            .enumerate()
            .map(|(idx, &(n, m))| Cell::new(sizes.len() + idx, 1, format!("general n={n} m={m}")));
        uniform.chain(general).collect()
    }

    fn run_cell(&self, ctx: &CellCtx<'_>) -> CellResult {
        let config = ctx.config;
        let sizes = size_grid();
        let uniform_beliefs = ctx.cell.table == 0;
        let grid_idx = if uniform_beliefs {
            ctx.cell.index
        } else {
            ctx.cell.index - sizes.len()
        };
        let stream_tag: u64 = if uniform_beliefs {
            0xEA_0000_0000
        } else {
            0xEB_0000_0000
        };
        let (n, m) = sizes[grid_idx];
        let spec = if uniform_beliefs {
            EffectiveSpec::UniformPerUser {
                users: n,
                links: m,
                capacity: CapacityDist::Uniform { lo: 0.5, hi: 2.0 },
                weights: WeightDist::Uniform { lo: 0.5, hi: 2.0 },
            }
        } else {
            EffectiveSpec::General {
                users: n,
                links: m,
                capacity: CapacityDist::Uniform { lo: 0.5, hi: 2.0 },
                weights: WeightDist::Uniform { lo: 0.5, hi: 2.0 },
            }
        };
        let results = parallel_map(&ctx.parallel, config.samples, |sample| {
            let stream = stream_tag | (grid_idx as u64) << 24 | sample as u64;
            let mut rng = instance_gen::rng(config.seed, stream);
            measure_instance(
                &spec.generate(&mut rng),
                uniform_beliefs,
                config.profile_limit,
            )
        });
        let max_cr1 = results.iter().map(|s| s.worst_cr1).fold(0.0f64, f64::max);
        let max_cr2 = results.iter().map(|s| s.worst_cr2).fold(0.0f64, f64::max);
        let min_bound = results
            .iter()
            .map(|s| s.bound)
            .fold(f64::INFINITY, f64::min);
        let violations = results.iter().filter(|s| s.violated).count();

        let mut out = CellResult::for_cell(self.id(), ctx.cell);
        out.holds = violations == 0;
        out.row = vec![
            n.to_string(),
            m.to_string(),
            config.samples.to_string(),
            fmt(max_cr1),
            fmt(max_cr2),
            fmt(min_bound),
            violations.to_string(),
        ];
        out
    }

    fn outcome(
        &self,
        _config: &ExperimentConfig,
        cells: &[CellResult],
    ) -> Result<ExperimentOutcome, ReportError> {
        let holds = cells.iter().all(|c| c.holds);
        Ok(ExperimentOutcome {
            id: "E10".into(),
            name: "Price of anarchy against the paper's upper bounds (Thms 4.13/4.14)".into(),
            paper_claim: "SCᵢ/OPTᵢ ≤ (cmax/cmin)(m+n−1)/m under uniform beliefs, and \
                          SCᵢ/OPTᵢ ≤ (cmax²/cmin)(m+n−1)/Σⱼcⱼmin in general; the paper expects \
                          the bounds to be loose."
                .into(),
            observed: if holds {
                "no sampled equilibrium exceeded its bound; observed ratios stay well below the \
                 bounds, consistent with the paper's remark that the bounds are probably not tight"
                    .into()
            } else {
                "a sampled equilibrium exceeded the claimed bound — inspect the table".into()
            },
            holds,
            tables: tables_from_cells(&[UNIFORM_TABLE, GENERAL_TABLE], cells)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_one;

    #[test]
    fn quick_run_respects_both_bounds() {
        let mut config = ExperimentConfig::quick();
        config.samples = 8;
        let outcome = run_one(PriceOfAnarchy, &config).expect("report assembles");
        assert!(outcome.holds, "{}", outcome.observed);
        assert_eq!(outcome.tables.len(), 2);
    }
}
