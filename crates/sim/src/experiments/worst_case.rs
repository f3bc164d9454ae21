//! E9 — the fully mixed Nash equilibrium is the worst equilibrium
//! (Lemma 4.9, Theorems 4.11 and 4.12).
//!
//! For random instances whose fully mixed NE exists, every pure Nash
//! equilibrium is enumerated and compared against the FMNE: per user, the
//! individual minimum expected latency must not exceed the FMNE latency
//! (Lemma 4.9), hence both social costs SC1 and SC2 are maximised by the FMNE
//! (Theorems 4.11/4.12).

use instance_gen::{CapacityDist, EffectiveSpec, WeightDist};
use netuncert_core::fully_mixed::fully_mixed_nash;
use netuncert_core::latency::mixed_min_latencies;
use netuncert_core::numeric::Tolerance;
use netuncert_core::social_cost::{sc1, sc2};
use netuncert_core::solvers::exhaustive::all_pure_nash;
use netuncert_core::strategy::{LinkLoads, MixedProfile};
use par_exec::parallel_map;

use crate::config::ExperimentConfig;
use crate::experiment::{tables_from_cells, Cell, CellCtx, CellResult, Experiment};
use crate::report::{fmt, pct, ExperimentOutcome, ReportError};

/// The `(n, m)` grid probed by the experiment.
pub fn size_grid() -> Vec<(usize, usize)> {
    vec![(2, 2), (3, 2), (3, 3), (4, 3), (5, 3)]
}

const TABLE: (&str, &[&str]) = (
    "FMNE vs. every pure NE (per-instance verification)",
    &[
        "n",
        "m",
        "instances",
        "FMNE exists",
        "Lemma 4.9 holds",
        "SC1 maximised by FMNE",
        "SC2 maximised by FMNE",
        "avg pure NE count",
        "max SC1 gap (FMNE − pure)",
    ],
);

#[derive(Debug, Clone, Copy)]
struct Sample {
    fmne_exists: bool,
    pure_ne_count: usize,
    lemma_4_9_holds: bool,
    sc1_max_by_fmne: bool,
    sc2_max_by_fmne: bool,
    worst_gap_sc1: f64,
}

fn check_instance(game: &netuncert_core::model::EffectiveGame, limit: u128) -> Sample {
    let tol = Tolerance::default();
    // Comparisons between equilibrium costs tolerate a little more noise.
    let loose = Tolerance::new(1e-7);
    let t = LinkLoads::zero(game.links());
    let Some(fmne) = fully_mixed_nash(game, tol) else {
        return Sample {
            fmne_exists: false,
            pure_ne_count: 0,
            lemma_4_9_holds: true,
            sc1_max_by_fmne: true,
            sc2_max_by_fmne: true,
            worst_gap_sc1: 0.0,
        };
    };
    let fmne_latencies = mixed_min_latencies(game, &fmne);
    let fmne_sc1 = sc1(game, &fmne);
    let fmne_sc2 = sc2(game, &fmne);
    let pure = all_pure_nash(game, &t, tol, limit).expect("instances sized within the limit");
    let mut lemma = true;
    let mut sc1_max = true;
    let mut sc2_max = true;
    let mut worst_gap: f64 = 0.0;
    for p in &pure {
        let mixed = MixedProfile::from_pure(p, game.links());
        let latencies = mixed_min_latencies(game, &mixed);
        for (user, &lat) in latencies.iter().enumerate() {
            if !loose.leq(lat, fmne_latencies[user]) {
                lemma = false;
            }
        }
        let p_sc1 = sc1(game, &mixed);
        let p_sc2 = sc2(game, &mixed);
        if !loose.leq(p_sc1, fmne_sc1) {
            sc1_max = false;
        }
        if !loose.leq(p_sc2, fmne_sc2) {
            sc2_max = false;
        }
        worst_gap = worst_gap.max(fmne_sc1 - p_sc1);
    }
    Sample {
        fmne_exists: true,
        pure_ne_count: pure.len(),
        lemma_4_9_holds: lemma,
        sc1_max_by_fmne: sc1_max,
        sc2_max_by_fmne: sc2_max,
        worst_gap_sc1: worst_gap,
    }
}

/// E9 as a registry entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorstCase;

impl Experiment for WorstCase {
    fn id(&self) -> &'static str {
        "worst_case"
    }

    fn description(&self) -> &'static str {
        "E9 — the fully mixed NE maximises the social cost (Lemma 4.9, Thms 4.11/4.12)"
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
            weights: WeightDist::Uniform { lo: 0.5, hi: 2.0 },
        };
        let results = parallel_map(&ctx.parallel, config.samples, |sample| {
            let stream = 0xE9_0000_0000u64 | (grid_idx as u64) << 24 | sample as u64;
            let mut rng = instance_gen::rng(config.seed, stream);
            check_instance(&spec.generate(&mut rng), config.profile_limit)
        });
        let exists = results.iter().filter(|s| s.fmne_exists).count();
        let lemma = results.iter().filter(|s| s.lemma_4_9_holds).count();
        let sc1_ok = results.iter().filter(|s| s.sc1_max_by_fmne).count();
        let sc2_ok = results.iter().filter(|s| s.sc2_max_by_fmne).count();
        let avg_ne = results.iter().map(|s| s.pure_ne_count).sum::<usize>() as f64
            / results.iter().filter(|s| s.fmne_exists).count().max(1) as f64;
        let max_gap = results
            .iter()
            .map(|s| s.worst_gap_sc1)
            .fold(0.0f64, f64::max);

        let mut out = CellResult::for_cell(self.id(), ctx.cell);
        out.holds = lemma == config.samples && sc1_ok == config.samples && sc2_ok == config.samples;
        out.row = vec![
            n.to_string(),
            m.to_string(),
            config.samples.to_string(),
            pct(exists, config.samples),
            pct(lemma, config.samples),
            pct(sc1_ok, config.samples),
            pct(sc2_ok, config.samples),
            format!("{avg_ne:.2}"),
            fmt(max_gap),
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
            id: "E9".into(),
            name: "The fully mixed NE maximises the social cost (Lemma 4.9, Thms 4.11/4.12)".into(),
            paper_claim: "For every Nash equilibrium P and every user i, λᵢ(P) ≤ λᵢ(F); hence the \
                          fully mixed NE maximises both SC1 and SC2."
                .into(),
            observed: if holds {
                "on every sampled instance with a fully mixed NE, all pure equilibria had \
                 per-user latencies and social costs no larger than the FMNE's"
                    .into()
            } else {
                "an instance violated the worst-case property of the FMNE — inspect the table"
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
    fn quick_run_confirms_fmne_is_worst() {
        let mut config = ExperimentConfig::quick();
        config.samples = 10;
        let outcome = run_one(WorstCase, &config).expect("report assembles");
        assert!(outcome.holds, "{}", outcome.observed);
    }
}
