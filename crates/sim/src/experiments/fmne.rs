//! E7 / E8 — the fully mixed Nash equilibrium: closed form, uniqueness,
//! existence, and the uniform-beliefs `1/m` special case
//! (Lemmas 4.1–4.3, Theorem 4.6, Corollary 4.7, Theorem 4.8).
//!
//! For every sampled instance the closed-form candidate of Theorem 4.6 is
//! evaluated. When it is feasible (all probabilities in `(0,1)`) the candidate
//! must verify as a fully mixed Nash equilibrium and must make every link
//! equally attractive to every user (the Lemma 4.1 latency); under uniform
//! user beliefs the probabilities must all equal `1/m`.

use instance_gen::{CapacityDist, EffectiveSpec, WeightDist};
use netuncert_core::equilibrium::is_fully_mixed_nash;
use netuncert_core::fully_mixed::{fully_mixed_candidate, fully_mixed_latency, fully_mixed_nash};
use netuncert_core::latency::mixed_user_latencies;
use netuncert_core::numeric::Tolerance;
use par_exec::parallel_map;

use crate::config::ExperimentConfig;
use crate::experiment::{tables_from_cells, Cell, CellCtx, CellResult, Experiment};
use crate::report::{pct, ExperimentOutcome, ReportError};

/// The `(n, m)` grid probed by the experiment.
pub fn size_grid() -> Vec<(usize, usize)> {
    vec![(2, 2), (3, 3), (4, 2), (4, 4), (6, 3), (8, 4)]
}

const GENERAL_TABLE: (&str, &[&str]) = (
    "Fully mixed NE on random general instances (Theorem 4.6)",
    &[
        "n",
        "m",
        "instances",
        "FMNE exists",
        "verified as NE",
        "latencies equalised",
    ],
);

const UNIFORM_TABLE: (&str, &[&str]) = (
    "Uniform user beliefs: FMNE probabilities equal 1/m (Theorem 4.8)",
    &[
        "n",
        "m",
        "instances",
        "FMNE exists",
        "all probabilities = 1/m",
    ],
);

/// Per-instance verification result.
#[derive(Debug, Clone, Copy)]
struct Sample {
    exists: bool,
    verified: bool,
    equalised: bool,
}

fn check_instance(game: &netuncert_core::model::EffectiveGame, tol: Tolerance) -> Sample {
    let candidate = fully_mixed_candidate(game);
    match fully_mixed_nash(game, tol) {
        None => Sample {
            exists: false,
            verified: true,
            equalised: true,
        },
        Some(profile) => {
            let verified = is_fully_mixed_nash(game, &profile, tol);
            // Lemma 4.1: every link's expected latency equals λᵢ.
            let loose = Tolerance::new(1e-6);
            let equalised = (0..game.users()).all(|i| {
                let expected = fully_mixed_latency(game, i);
                mixed_user_latencies(game, &profile, i)
                    .into_iter()
                    .all(|lat| loose.eq(lat, expected))
                    && loose.eq(candidate.latency(i), expected)
            });
            Sample {
                exists: true,
                verified,
                equalised,
            }
        }
    }
}

/// E7/E8 as a registry entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullyMixed;

impl Experiment for FullyMixed {
    fn id(&self) -> &'static str {
        "fmne"
    }

    fn description(&self) -> &'static str {
        "E7/E8 — closed-form fully mixed NE and the uniform-beliefs 1/m law (Thms 4.6/4.8)"
    }

    fn grid(&self, _config: &ExperimentConfig) -> Vec<Cell> {
        let sizes = size_grid();
        let general = sizes
            .iter()
            .enumerate()
            .map(|(idx, &(n, m))| Cell::new(idx, 0, format!("general n={n} m={m}")));
        let uniform = sizes
            .iter()
            .enumerate()
            .map(|(idx, &(n, m))| Cell::new(sizes.len() + idx, 1, format!("uniform n={n} m={m}")));
        general.chain(uniform).collect()
    }

    fn run_cell(&self, ctx: &CellCtx<'_>) -> CellResult {
        let config = ctx.config;
        let tol = Tolerance::default();
        let sizes = size_grid();
        let mut out = CellResult::for_cell(self.id(), ctx.cell);

        if ctx.cell.table == 0 {
            // Theorem 4.6 on general instances.
            let grid_idx = ctx.cell.index;
            let (n, m) = sizes[grid_idx];
            let spec = EffectiveSpec::General {
                users: n,
                links: m,
                capacity: CapacityDist::Uniform { lo: 0.5, hi: 2.0 },
                weights: WeightDist::Uniform { lo: 0.5, hi: 2.0 },
            };
            let results = parallel_map(&ctx.parallel, config.samples, |sample| {
                let stream = 0xE7_0000_0000u64 | (grid_idx as u64) << 24 | sample as u64;
                let mut rng = instance_gen::rng(config.seed, stream);
                check_instance(&spec.generate(&mut rng), tol)
            });
            let exists = results.iter().filter(|s| s.exists).count();
            let verified = results.iter().filter(|s| s.verified).count();
            let equalised = results.iter().filter(|s| s.equalised).count();
            out.holds = verified == config.samples && equalised == config.samples;
            out.row = vec![
                n.to_string(),
                m.to_string(),
                config.samples.to_string(),
                pct(exists, config.samples),
                pct(verified, config.samples),
                pct(equalised, config.samples),
            ];
        } else {
            // Theorem 4.8: uniform user beliefs force pᵢˡ = 1/m.
            let grid_idx = ctx.cell.index - sizes.len();
            let (n, m) = sizes[grid_idx];
            let spec = EffectiveSpec::UniformPerUser {
                users: n,
                links: m,
                capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
                weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
            };
            let results = parallel_map(&ctx.parallel, config.samples, |sample| {
                let stream = 0xE8_0000_0000u64 | (grid_idx as u64) << 24 | sample as u64;
                let mut rng = instance_gen::rng(config.seed, stream);
                let game = spec.generate(&mut rng);
                match fully_mixed_nash(&game, tol) {
                    None => (false, false),
                    Some(profile) => {
                        let expected = 1.0 / m as f64;
                        let uniform = (0..n)
                            .all(|i| (0..m).all(|l| (profile.prob(i, l) - expected).abs() < 1e-9));
                        (true, uniform)
                    }
                }
            });
            let exists = results.iter().filter(|r| r.0).count();
            let uniform = results.iter().filter(|r| r.1).count();
            // Theorem 4.8 asserts both existence and the 1/m form under
            // uniform beliefs.
            out.holds = exists == config.samples && uniform == config.samples;
            out.row = vec![
                n.to_string(),
                m.to_string(),
                config.samples.to_string(),
                pct(exists, config.samples),
                pct(uniform, config.samples),
            ];
        }
        out
    }

    fn outcome(
        &self,
        _config: &ExperimentConfig,
        cells: &[CellResult],
    ) -> Result<ExperimentOutcome, ReportError> {
        let all_verified = cells.iter().filter(|c| c.table == 0).all(|c| c.holds);
        let uniform_holds = cells.iter().filter(|c| c.table == 1).all(|c| c.holds);
        Ok(ExperimentOutcome {
            id: "E7/E8".into(),
            name: "Fully mixed Nash equilibria: closed form, uniqueness, uniform beliefs".into(),
            paper_claim: "The closed-form probabilities of Theorem 4.6 characterise the unique \
                          fully mixed NE whenever they lie in (0,1); in the FMNE every link gives \
                          user i latency λᵢ of Lemma 4.1; under uniform user beliefs all \
                          probabilities are 1/m."
                .into(),
            observed: format!(
                "every feasible candidate verified as a fully mixed NE with equalised latencies \
                 ({all_verified}); uniform-beliefs instances matched the 1/m law ({uniform_holds})"
            ),
            holds: all_verified && uniform_holds,
            tables: tables_from_cells(&[GENERAL_TABLE, UNIFORM_TABLE], cells)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_one;

    #[test]
    fn quick_run_verifies_closed_form() {
        let mut config = ExperimentConfig::quick();
        config.samples = 10;
        let outcome = run_one(FullyMixed, &config).expect("report assembles");
        assert!(outcome.holds, "{}", outcome.observed);
        assert_eq!(outcome.tables.len(), 2);
    }

    #[test]
    fn grid_spans_both_tables() {
        let grid = FullyMixed.grid(&ExperimentConfig::quick());
        assert_eq!(grid.len(), 2 * size_grid().len());
        assert!(grid.iter().take(size_grid().len()).all(|c| c.table == 0));
        assert!(grid.iter().skip(size_grid().len()).all(|c| c.table == 1));
    }
}
