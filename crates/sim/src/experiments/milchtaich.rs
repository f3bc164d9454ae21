//! E11 — the Milchtaich counterexample and why it does not apply to the
//! paper's model (Section 3 / prior work \[17\]).
//!
//! Three measurements:
//!
//! 1. the fixed three-player weighted user-specific counterexample has no pure
//!    Nash equilibrium and its best-response dynamics cycle;
//! 2. random games from the same general user-specific class occasionally lack
//!    pure equilibria (the class genuinely contains counterexamples);
//! 3. random *belief-induced* three-user games — the paper's model, embedded
//!    into the user-specific class — always have a pure equilibrium,
//!    reproducing the paper's claim that the negative result does not carry
//!    over.

use congestion_games::milchtaich::{counterexample, from_effective_game};
use instance_gen::user_specific::UserSpecificSpec;
use instance_gen::{CapacityDist, EffectiveSpec, WeightDist};
use netuncert_core::numeric::Tolerance;
use netuncert_core::solvers::exhaustive::all_pure_nash;
use netuncert_core::strategy::LinkLoads;
use par_exec::parallel_map;

use crate::config::ExperimentConfig;
use crate::experiment::{tables_from_cells, Cell, CellCtx, CellResult, Experiment};
use crate::report::{pct, ExperimentOutcome, ReportError};

const TABLE: (&str, &[&str]) = (
    "User-specific class vs. belief-induced subclass (3 players, 3 resources)",
    &["family", "instances", "with pure NE", "without pure NE"],
);

/// E11 as a registry entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct Milchtaich;

impl Experiment for Milchtaich {
    fn id(&self) -> &'static str {
        "milchtaich"
    }

    fn description(&self) -> &'static str {
        "E11 — Milchtaich's non-existence counterexample does not apply to the model"
    }

    fn grid(&self, _config: &ExperimentConfig) -> Vec<Cell> {
        vec![
            Cell::new(0, 0, "fixed Milchtaich-style counterexample"),
            Cell::new(1, 0, "random weighted user-specific (step costs)"),
            Cell::new(2, 0, "random belief-induced (paper's model)"),
        ]
    }

    fn run_cell(&self, ctx: &CellCtx<'_>) -> CellResult {
        let config = ctx.config;
        let tol = Tolerance::default();
        let mut out = CellResult::for_cell(self.id(), ctx.cell);
        match ctx.cell.index {
            // 1. The fixed counterexample.
            0 => {
                let ce = counterexample();
                let ce_has_ne = ce.has_pure_nash();
                let ce_cycles = ce.find_best_response_cycle(vec![0, 0, 0]).is_some();
                out.holds = !ce_has_ne && ce_cycles;
                out.push_metric("ce_has_ne", ce_has_ne as u8 as f64);
                out.push_metric("ce_cycles", ce_cycles as u8 as f64);
                out.row = vec![
                    "fixed Milchtaich-style counterexample".into(),
                    "1".into(),
                    if ce_has_ne { "1".into() } else { "0".into() },
                    if ce_has_ne { "0".into() } else { "1".into() },
                ];
            }
            // 2. Random general user-specific games (Milchtaich class).
            1 => {
                let spec = UserSpecificSpec::milchtaich_shape();
                let general: Vec<bool> = parallel_map(&ctx.parallel, config.samples, |sample| {
                    let mut rng = instance_gen::rng(config.seed, 0xEC_0000_0000 | sample as u64);
                    spec.generate(&mut rng).has_pure_nash()
                });
                let general_without_ne = general.iter().filter(|&&has| !has).count();
                // The general class containing counterexamples is expected but
                // not required on a small sample; this cell never fails.
                out.holds = true;
                out.row = vec![
                    "random weighted user-specific (step costs)".into(),
                    config.samples.to_string(),
                    pct(config.samples - general_without_ne, config.samples),
                    general_without_ne.to_string(),
                ];
            }
            // 3. Belief-induced three-user games embedded into the class.
            _ => {
                let belief_spec = EffectiveSpec::General {
                    users: 3,
                    links: 3,
                    capacity: CapacityDist::Uniform { lo: 0.25, hi: 4.0 },
                    weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
                };
                let induced: Vec<(bool, bool)> =
                    parallel_map(&ctx.parallel, config.samples, |sample| {
                        let mut rng =
                            instance_gen::rng(config.seed, 0xED_0000_0000 | sample as u64);
                        let eg = belief_spec.generate(&mut rng);
                        let embedded = from_effective_game(&eg);
                        let core_has =
                            !all_pure_nash(&eg, &LinkLoads::zero(3), tol, config.profile_limit)
                                .unwrap()
                                .is_empty();
                        (core_has, embedded.has_pure_nash())
                    });
                let induced_with_ne = induced.iter().filter(|&&(core, _)| core).count();
                let embeddings_agree = induced.iter().all(|&(core, embedded)| core == embedded);
                out.holds = induced_with_ne == config.samples && embeddings_agree;
                out.push_metric("induced_with_ne", induced_with_ne as f64);
                out.push_metric("embeddings_agree", embeddings_agree as u8 as f64);
                out.row = vec![
                    "random belief-induced (paper's model)".into(),
                    config.samples.to_string(),
                    pct(induced_with_ne, config.samples),
                    (config.samples - induced_with_ne).to_string(),
                ];
            }
        }
        out
    }

    fn outcome(
        &self,
        config: &ExperimentConfig,
        cells: &[CellResult],
    ) -> Result<ExperimentOutcome, ReportError> {
        let ce = &cells[0];
        let induced = &cells[2];
        let ce_has_ne = ce.metric_flag("ce_has_ne");
        let ce_cycles = ce.metric_flag("ce_cycles");
        let induced_with_ne = induced.metric("induced_with_ne").unwrap_or(0.0) as usize;
        let embeddings_agree = induced.metric_flag("embeddings_agree");
        let holds =
            !ce_has_ne && ce_cycles && induced_with_ne == config.samples && embeddings_agree;

        Ok(ExperimentOutcome {
            id: "E11".into(),
            name: "The non-existence counterexample does not apply to the model".into(),
            paper_claim: "Weighted congestion games with user-specific functions may have no pure \
                          NE (3-user counterexample of [17]), but that counterexample is not an \
                          instance of the paper's model: every 3-user belief-induced game has a \
                          pure NE."
                .into(),
            observed: format!(
                "counterexample has no pure NE ({}) and its best-response dynamics cycle ({}); \
                 all sampled 3-user belief-induced games had a pure NE ({} of {}), and the \
                 embedding into the user-specific class preserved the equilibrium sets ({})",
                !ce_has_ne, ce_cycles, induced_with_ne, config.samples, embeddings_agree
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
    fn quick_run_separates_the_two_classes() {
        let mut config = ExperimentConfig::quick();
        config.samples = 10;
        let outcome = run_one(Milchtaich, &config).expect("report assembles");
        assert!(outcome.holds, "{}", outcome.observed);
        assert_eq!(outcome.tables[0].rows.len(), 3);
    }
}
