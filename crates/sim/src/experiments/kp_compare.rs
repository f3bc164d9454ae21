//! E12 — the KP-model is the complete-information special case.
//!
//! When every user holds a point-mass belief on the same state, the paper's
//! game coincides with the KP-model. This experiment verifies the collapse on
//! random instances and quantifies, on the same instances, how much belief
//! uncertainty changes equilibrium structure:
//!
//! * the effective game of a KP instance is user-independent and the LPT/greedy
//!   baseline equilibrium of the KP crate verifies as a pure NE of the
//!   uncertainty model (and vice versa via the general dispatcher);
//! * the fully mixed NE computed by the uncertainty model's closed form is a
//!   fully mixed NE of the KP game;
//! * perturbing beliefs away from the truth (the `NoisyPointMass` scheme)
//!   leaves the existence machinery intact but changes the equilibrium
//!   assignment on a measurable fraction of instances — the phenomenon the
//!   paper's model is built to capture.
//!
//! The perturbation study draws [`PERTURBATIONS_PER_BASE`] belief
//! perturbations around each *fixed* true network (weights and states come
//! from a per-group RNG stream, beliefs from a per-sample stream). Every
//! perturbed sample therefore re-solves the same bit-identical true network —
//! exactly the repeat structure an engine-level [`SolveCache`] shortcuts when
//! the sweep opts in.
//!
//! [`SolveCache`]: netuncert_core::solvers::cache::SolveCache

use instance_gen::kp::KpSpec;
use instance_gen::{BeliefKind, CapacityDist, GameSpec, WeightDist};
use kp_model::lpt::{is_kp_pure_nash, lpt_assignment};
use netuncert_core::equilibrium::{is_fully_mixed_nash, is_pure_nash};
use netuncert_core::fully_mixed::fully_mixed_nash;
use netuncert_core::numeric::Tolerance;
use netuncert_core::strategy::LinkLoads;
use par_exec::parallel_map;

use crate::config::ExperimentConfig;
use crate::experiment::{tables_from_cells, Cell, CellCtx, CellResult, Experiment};
use crate::report::{pct, ExperimentOutcome, ReportError};

/// The `(n, m)` grid probed by the experiment.
pub fn size_grid() -> Vec<(usize, usize)> {
    vec![(3, 2), (4, 3), (6, 3), (8, 4)]
}

/// How many belief perturbations are drawn around each fixed true network in
/// the drift study.
pub const PERTURBATIONS_PER_BASE: usize = 4;

const KP_TABLE: (&str, &[&str]) = (
    "Point-mass beliefs collapse to the KP-model",
    &[
        "n",
        "m",
        "instances",
        "LPT NE verifies in model",
        "model NE verifies in KP",
        "FMNE agrees",
    ],
);

const DRIFT_TABLE: (&str, &[&str]) = (
    "Belief noise changes equilibrium assignments",
    &[
        "n",
        "m",
        "instances",
        "assignment changed",
        "still a NE under true capacities",
    ],
);

/// E12 as a registry entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct KpCompare;

impl Experiment for KpCompare {
    fn id(&self) -> &'static str {
        "kp_compare"
    }

    fn description(&self) -> &'static str {
        "E12 — point-mass beliefs collapse to the KP-model; belief noise shifts equilibria"
    }

    fn grid(&self, _config: &ExperimentConfig) -> Vec<Cell> {
        let sizes = size_grid();
        let kp = sizes
            .iter()
            .enumerate()
            .map(|(idx, &(n, m))| Cell::new(idx, 0, format!("kp n={n} m={m}")));
        let drift = sizes
            .iter()
            .enumerate()
            .map(|(idx, &(n, m))| Cell::new(sizes.len() + idx, 1, format!("drift n={n} m={m}")));
        kp.chain(drift).collect()
    }

    fn run_cell(&self, ctx: &CellCtx<'_>) -> CellResult {
        let config = ctx.config;
        let tol = Tolerance::default();
        let engine = ctx.engine();
        let sizes = size_grid();
        let mut out = CellResult::for_cell(self.id(), ctx.cell);

        if ctx.cell.table == 0 {
            // Point-mass collapse to the KP-model.
            let grid_idx = ctx.cell.index;
            let (n, m) = sizes[grid_idx];
            let spec = KpSpec::related(n, m);
            let results = parallel_map(&ctx.parallel, config.samples, |sample| {
                let stream = 0xEE_0000_0000u64 | (grid_idx as u64) << 24 | sample as u64;
                let mut rng = instance_gen::rng(config.seed, stream);
                let kp = spec.generate(&mut rng);
                let eg = kp.to_effective_game();
                let t = LinkLoads::zero(m);

                // KP baseline equilibrium must be an equilibrium of the model.
                let lpt = lpt_assignment(&kp);
                let lpt_ok = is_pure_nash(&eg, &lpt, &t, tol);

                // The model's own solver must produce a KP equilibrium.
                let model_ne = engine.solve(&eg, &t).expect("solver succeeds").solution;
                let model_ok = model_ne
                    .map(|sol| is_kp_pure_nash(&kp, &sol.profile))
                    .unwrap_or(false);

                // Fully mixed equilibria agree (when the closed form is feasible).
                let fmne_ok = match fully_mixed_nash(&eg, tol) {
                    Some(p) => is_fully_mixed_nash(&eg, &p, tol),
                    None => true,
                };
                (lpt_ok, model_ok, fmne_ok)
            });
            let lpt_ok = results.iter().filter(|r| r.0).count();
            let model_ok = results.iter().filter(|r| r.1).count();
            let fmne_ok = results.iter().filter(|r| r.2).count();
            out.holds =
                lpt_ok == config.samples && model_ok == config.samples && fmne_ok == config.samples;
            out.row = vec![
                n.to_string(),
                m.to_string(),
                config.samples.to_string(),
                pct(lpt_ok, config.samples),
                pct(model_ok, config.samples),
                pct(fmne_ok, config.samples),
            ];
        } else {
            // Effect of uncertainty: belief perturbations around a fixed true
            // network, comparing the equilibrium computed under noisy beliefs
            // against the one computed under the true capacities.
            let grid_idx = ctx.cell.index - sizes.len();
            let (n, m) = sizes[grid_idx];
            let spec = GameSpec {
                users: n,
                links: m,
                states: 4,
                weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
                capacities: CapacityDist::TwoLevel { lo: 1.0, hi: 4.0 },
                beliefs: BeliefKind::NoisyPointMass { sharpness: 2.0 },
            };
            let results = parallel_map(&ctx.parallel, config.samples, |sample| {
                // All perturbations of one group share the base (network)
                // stream; beliefs vary per sample. The repeated true network
                // is what makes the solve cache pay off here.
                let group = (sample / PERTURBATIONS_PER_BASE) as u64;
                let base_stream = 0xF0_0000_0000u64 | (grid_idx as u64) << 24 | group;
                let belief_stream = 0xEF_0000_0000u64 | (grid_idx as u64) << 24 | sample as u64;
                let mut base_rng = instance_gen::rng(config.seed, base_stream);
                let mut belief_rng = instance_gen::rng(config.seed, belief_stream);
                let game = spec.generate_perturbed(&mut base_rng, &mut belief_rng);
                let noisy = game.effective_game();
                // The "true" network: state 0 known to everyone.
                let truth = netuncert_core::model::Game::new(
                    game.weights().to_vec(),
                    game.states().clone(),
                    netuncert_core::model::BeliefProfile::point_mass(n, game.states().len(), 0),
                )
                .expect("valid game")
                .effective_game();
                let t = LinkLoads::zero(m);
                let noisy_ne = engine.solve(&noisy, &t).expect("solver succeeds").solution;
                let true_ne = engine.solve(&truth, &t).expect("solver succeeds").solution;
                match (noisy_ne, true_ne) {
                    (Some(a), Some(b)) => {
                        let changed = a.profile != b.profile;
                        let still_ne = is_pure_nash(&truth, &a.profile, &t, tol);
                        (changed, still_ne)
                    }
                    _ => (false, false),
                }
            });
            let changed = results.iter().filter(|r| r.0).count();
            let still_ne = results.iter().filter(|r| r.1).count();
            // The drift rows are observational; they never fail the claim.
            out.holds = true;
            out.row = vec![
                n.to_string(),
                m.to_string(),
                config.samples.to_string(),
                pct(changed, config.samples),
                pct(still_ne, config.samples),
            ];
        }
        out
    }

    fn outcome(
        &self,
        _config: &ExperimentConfig,
        cells: &[CellResult],
    ) -> Result<ExperimentOutcome, ReportError> {
        let holds = cells.iter().filter(|c| c.table == 0).all(|c| c.holds);
        Ok(ExperimentOutcome {
            id: "E12".into(),
            name: "KP-model special case and the cost of uncertainty".into(),
            paper_claim: "When every user assigns probability one to the same state the model \
                          coincides with the KP-model; with genuine uncertainty users may settle \
                          on assignments that are not equilibria of the true network."
                .into(),
            observed: if holds {
                "all KP baselines and model solvers agreed on point-mass instances; belief noise \
                 changed the chosen assignment on a measurable fraction of instances"
                    .into()
            } else {
                "a point-mass instance produced disagreement between the KP baseline and the \
                 model — inspect the table"
                    .into()
            },
            holds,
            tables: tables_from_cells(&[KP_TABLE, DRIFT_TABLE], cells)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_one;

    #[test]
    fn quick_run_collapses_to_kp() {
        let mut config = ExperimentConfig::quick();
        config.samples = 8;
        let outcome = run_one(KpCompare, &config).expect("report assembles");
        assert!(outcome.holds, "{}", outcome.observed);
        assert_eq!(outcome.tables.len(), 2);
    }
}
