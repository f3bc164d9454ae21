//! E15 — the belief-noise axis at scale: how equilibria and coordination
//! ratios respond to the **intensity and structure** of belief uncertainty.
//!
//! E13/E14 established certified equilibria and certified OPT brackets at
//! `n = 512, m = 16`, but sampled beliefs from one unstructured
//! distribution. This experiment sweeps the paper's actual question along
//! three axes — belief model × noise intensity × scale:
//!
//! * every cell fixes a family of **true networks** (weights and the state
//!   space drawn from a base rng stream keyed by `(size, sample)` alone,
//!   so every model/intensity cell of a size shares bit-identical truths),
//! * a [`BeliefModel`] builds the structured belief perturbation from the
//!   belief rng stream (the `generate_perturbed` base/belief split,
//!   generalised to data),
//! * [`LocalSearch`] computes the equilibrium of the *believed* game and
//!   of the *true* game, every profile re-certified by the equilibrium
//!   checker,
//! * the **adaptive** [`OptEngine`] mode ([`OptConfig::width_goal`])
//!   brackets the true optima to `upper/lower ≤` [`WIDTH_GOAL`], spending
//!   estimator attempts in cost order and stopping at the goal — the
//!   telemetry's skipped-attempt records prove what the adaptive budgets
//!   saved (the descent restart budget on virtually every at-scale cell),
//! * the believed equilibrium is measured **under the true network**:
//!   interval coordination ratios `CRᵢ ∈ [SCᵢ/upperᵢ, SCᵢ/lowerᵢ]` against
//!   the certified brackets, plus the *belief-induced drift*
//!   `SC₁(believed NE) / SC₁(true NE)` — how much worse (or, occasionally,
//!   better) the society does because users acted on beliefs.
//!
//! A cell `holds` when every sample's equilibria are checker-certified,
//! every bracket is usable and meets the width goal, and brackets on
//! exhaustive-sized instances contain the exact optima (the differential
//! anchor, checked whenever the adaptive composition stopped short of
//! exactness). Drift itself is observational — it is the measurement, not
//! a claim. The anchor is `CellCtx::exact_anchor`: branch-and-bound
//! over an `n = 8` truth, falling back to enumerating all 4⁸ profiles only
//! if the search does not finish, with both returning enumeration's bits.
//! At this shape (related machines, capacities in `[2.5, 4)`) the two
//! searches expand ~6k–24k nodes, ~0.2–0.7 ms per sample, against
//! ~10 µs for that sample's solves and bracket, so the anchor is still
//! most of an `n = 8` cell's time.
//!
//! Because the true network of a `(size, sample)` pair is shared by every
//! model × intensity cell, a cached sweep (`--cache`) pays for each true
//! network's bracket, true-NE solve and exact anchor **once per cell
//! family** and serves every other cell from the caches.
//!
//! [`BeliefModel`]: instance_gen::BeliefModel
//! [`LocalSearch`]: netuncert_core::solvers::LocalSearch
//! [`OptConfig::width_goal`]: netuncert_core::opt::OptConfig

use instance_gen::{BeliefKind, BeliefModelKind, CapacityDist, GameSpec, WeightDist, TRUE_STATE};
use netuncert_core::algorithms::PureNashMethod;
use netuncert_core::equilibrium::is_pure_nash;
use netuncert_core::model::{BeliefProfile, Game};
use netuncert_core::opt::{OptConfig, OptEngine, OptMethod};
use netuncert_core::social_cost::{pure_sc1, pure_sc2, ratio_bracket};
use netuncert_core::solvers::exhaustive::profile_count;
use netuncert_core::solvers::SolverEngine;
use netuncert_core::strategy::LinkLoads;
use par_exec::parallel_map;

use crate::config::ExperimentConfig;
use crate::experiment::{tables_from_cells, Cell, CellCtx, CellResult, Experiment};
use crate::report::{fmt, pct, ExperimentOutcome, ReportError};

/// The default acceptance bar on the multiplicative bracket width — also
/// the adaptive engine's stopping goal when `--width-goal` is not given.
pub const WIDTH_GOAL: f64 = 1.5;

/// The `(n, m)` scale axis: one exhaustive-anchored size, a mid-size rung,
/// and the huge-game regime. Fixed (configuration-independent) so the base
/// rng streams — and therefore the shared true networks — never move.
pub fn size_grid() -> Vec<(usize, usize)> {
    vec![(8, 4), (128, 8), (512, 16)]
}

const TABLE: (&str, &[&str]) = (
    "Equilibrium response to structured belief noise (measured under the true network)",
    &[
        "model",
        "intensity",
        "n",
        "m",
        "instances",
        "NE certified",
        "max CR1 ≤",
        "max CR2 ≤",
        "width (max)",
        "drift1 (mean)",
        "NE changed",
        "opt attempts used/saved",
    ],
);

/// The belief-rng substream of one `(model, intensity, size, sample)`
/// combination — a SplitMix-style mix so structured axes never collide.
fn belief_stream(model: BeliefModelKind, intensity: f64, size_idx: usize, sample: usize) -> u64 {
    let mut h = 0x0E15_BE11_EF5E_ED00u64;
    for v in [
        model.tag(),
        intensity.to_bits(),
        size_idx as u64,
        sample as u64,
    ] {
        h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
    }
    h
}

/// The base (true-network) substream of one `(size, sample)` pair —
/// deliberately independent of model and intensity, so every cell of a
/// size shares bit-identical true networks.
fn base_stream(size_idx: usize, sample: usize) -> u64 {
    0xE15A_0000_0000u64 | ((size_idx as u64) << 24) | sample as u64
}

/// The generator of one scale rung's true networks and state spaces.
fn spec_for(n: usize, m: usize) -> GameSpec {
    GameSpec {
        users: n,
        links: m,
        states: 4,
        weights: WeightDist::Uniform { lo: 0.5, hi: 4.0 },
        // Capacity uncertainty over a smooth 1.6× band per state. A smooth
        // moderate band (rather than the harsher two-level failure pattern)
        // keeps the relaxation lower bounds tight enough for the 1.5 width
        // goal on *every* sample of a 200-instance default run, mid rung
        // included — a looser certified bracket would make the interval
        // coordination ratios vacuous at exactly the scale this experiment
        // exists to measure. (Measured worst widths over 200 truths:
        // ~1.42 at n=128, m=8; wider bands cross the goal there.)
        capacities: CapacityDist::Uniform { lo: 2.5, hi: 4.0 },
        // Unused: the belief model constructs the profile.
        beliefs: BeliefKind::CommonUniform,
    }
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    certified: bool,
    bracket_ok: bool,
    anchored: bool,
    changed: bool,
    cr1_hi: f64,
    cr2_hi: f64,
    width: f64,
    drift1: f64,
    attempts: u64,
    saved: u64,
    descent_skipped: bool,
}

impl Sample {
    fn failed() -> Self {
        Sample {
            certified: false,
            bracket_ok: false,
            anchored: true,
            changed: false,
            cr1_hi: f64::NAN,
            cr2_hi: f64::NAN,
            width: f64::INFINITY,
            drift1: f64::NAN,
            attempts: 0,
            saved: 0,
            descent_skipped: false,
        }
    }
}

/// E15 as a registry entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct BeliefNoise;

impl BeliefNoise {
    /// The adaptive stopping goal this configuration runs against.
    fn goal(config: &ExperimentConfig) -> f64 {
        config.width_goal.unwrap_or(WIDTH_GOAL)
    }
}

impl Experiment for BeliefNoise {
    fn id(&self) -> &'static str {
        "belief_noise"
    }

    fn description(&self) -> &'static str {
        "E15 — belief-model × intensity × scale sweep with adaptive OPT brackets"
    }

    // Labels read `model={id} i={intensity} n={n} m={m}`. Each intensity
    // and size suffix is formatted once per grid, not once per cell: the
    // float `Display` is most of what building the grid costs.
    fn grid(&self, config: &ExperimentConfig) -> Vec<Cell> {
        let models = config.belief_models.kinds();
        let intensities: Vec<String> = config
            .intensities
            .values()
            .iter()
            .map(|i| format!(" i={i}"))
            .collect();
        let sizes: Vec<String> = size_grid()
            .iter()
            .map(|(n, m)| format!(" n={n} m={m}"))
            .collect();
        let mut cells = Vec::with_capacity(models.len() * intensities.len() * sizes.len());
        for model in models {
            for intensity in &intensities {
                for size in &sizes {
                    // `concat` sizes the label exactly before copying.
                    let label = ["model=", model.id(), intensity, size].concat();
                    cells.push(Cell::new(cells.len(), 0, label));
                }
            }
        }
        cells
    }

    fn run_cell(&self, ctx: &CellCtx<'_>) -> CellResult {
        let config = ctx.config;
        let sizes = size_grid();
        // Decompose the dense cell index along (model, intensity, size).
        let per_model = config.intensities.values().len() * sizes.len();
        let model = config.belief_models.kinds()[ctx.cell.index / per_model];
        let intensity = config.intensities.values()[(ctx.cell.index % per_model) / sizes.len()];
        let size_idx = ctx.cell.index % sizes.len();
        let (n, m) = sizes[size_idx];

        let spec = spec_for(n, m);
        let model_impl = model.build();
        let goal = BeliefNoise::goal(config);
        let solver_config = config.solver_config();
        let solver = ctx.attach(SolverEngine::from_kinds(
            solver_config,
            &[PureNashMethod::LocalSearch],
        ));
        let opt_engine = ctx.attach_opt(OptEngine::from_kinds(
            OptConfig {
                width_goal: Some(goal),
                ..config.opt_config()
            },
            config.opt_backends.kinds(),
        ));
        let anchor = ctx.exact_anchor();
        let exhaustive_applies = profile_count(n, m) <= config.profile_limit;
        let initial = LinkLoads::zero(m);

        let results = parallel_map(&ctx.parallel, config.samples, |sample| {
            let mut base_rng = instance_gen::rng(config.seed, base_stream(size_idx, sample));
            let mut belief_rng = instance_gen::rng(
                config.seed,
                belief_stream(model, intensity, size_idx, sample),
            );
            let believed = spec.generate_with_beliefs(
                model_impl.as_ref(),
                intensity,
                &mut base_rng,
                &mut belief_rng,
            );
            let noisy = believed.effective_game();
            // The true network: the realised state known to everyone.
            let truth = Game::new(
                believed.weights().to_vec(),
                believed.states().clone(),
                BeliefProfile::point_mass(n, believed.states().len(), TRUE_STATE),
            )
            .expect("valid game")
            .effective_game();

            let mut out = Sample::failed();
            let believed_ne = solver
                .solve(&noisy, &initial)
                .expect("heuristic backends never error")
                .solution;
            let true_ne = solver
                .solve(&truth, &initial)
                .expect("heuristic backends never error")
                .solution;
            let (Some(believed_ne), Some(true_ne)) = (believed_ne, true_ne) else {
                return out;
            };
            out.certified = is_pure_nash(&noisy, &believed_ne.profile, &initial, solver_config.tol)
                && is_pure_nash(&truth, &true_ne.profile, &initial, solver_config.tol);
            if !out.certified {
                return out;
            }
            out.changed = believed_ne.profile != true_ne.profile;

            // The believed equilibrium, costed under the truth.
            let sc1 = pure_sc1(&truth, &believed_ne.profile, &initial);
            let sc2 = pure_sc2(&truth, &believed_ne.profile, &initial);
            let sc1_true = pure_sc1(&truth, &true_ne.profile, &initial);
            out.drift1 = sc1 / sc1_true;

            let Ok(outcome) = opt_engine.estimate(&truth, &initial) else {
                return out;
            };
            out.attempts = outcome.telemetry.attempts.len() as u64;
            out.saved = outcome.telemetry.skipped.len() as u64;
            out.descent_skipped = outcome
                .telemetry
                .skipped
                .iter()
                .any(|s| s.method == OptMethod::Descent);
            let (Ok(cr1), Ok(cr2)) = (
                ratio_bracket(sc1, &outcome.opt1, "OPT1"),
                ratio_bracket(sc2, &outcome.opt2, "OPT2"),
            ) else {
                return out;
            };
            out.bracket_ok = cr1.lower.is_finite()
                && cr1.upper.is_finite()
                && cr2.lower.is_finite()
                && cr2.upper.is_finite();
            out.cr1_hi = cr1.upper;
            out.cr2_hi = cr2.upper;
            out.width = outcome.opt1.width().max(outcome.opt2.width());
            // The differential anchor: where enumeration is feasible, an
            // adaptive early exit must still bracket the true optima.
            if exhaustive_applies && !outcome.exact() {
                out.anchored = anchor.brackets(&truth, &initial, &outcome);
            }
            out
        });

        let samples = config.samples;
        let certified = results.iter().filter(|s| s.certified).count();
        let bracketed = results.iter().filter(|s| s.bracket_ok).count();
        let anchored = results.iter().all(|s| s.anchored);
        let changed = results.iter().filter(|s| s.changed).count();
        let cr1_hi = results.iter().map(|s| s.cr1_hi).fold(0.0f64, f64::max);
        let cr2_hi = results.iter().map(|s| s.cr2_hi).fold(0.0f64, f64::max);
        let width = results.iter().map(|s| s.width).fold(1.0f64, f64::max);
        let drift_mean = if certified > 0 {
            results
                .iter()
                .filter(|s| s.certified && s.drift1.is_finite())
                .map(|s| s.drift1)
                .sum::<f64>()
                / certified as f64
        } else {
            f64::NAN
        };
        let attempts: u64 = results.iter().map(|s| s.attempts).sum();
        let saved: u64 = results.iter().map(|s| s.saved).sum();
        let descent_saves = results.iter().filter(|s| s.descent_skipped).count();
        let tight = width <= goal;

        let mut out = CellResult::for_cell(self.id(), ctx.cell);
        out.holds = certified == samples && bracketed == samples && anchored && tight;
        out.push_metric("certified", certified as f64);
        out.push_metric("bracketed", bracketed as f64);
        out.push_metric("anchored", f64::from(anchored));
        out.push_metric("changed", changed as f64);
        out.push_metric("exhaustive_applies", f64::from(exhaustive_applies));
        out.push_metric("max_cr1_upper", cr1_hi);
        out.push_metric("max_cr2_upper", cr2_hi);
        out.push_metric("max_width", width);
        out.push_metric("drift1_mean", drift_mean);
        out.push_metric("opt_attempts", attempts as f64);
        out.push_metric("opt_attempts_saved", saved as f64);
        out.push_metric("descent_saves", descent_saves as f64);
        out.row = vec![
            model.id().to_string(),
            intensity.to_string(),
            n.to_string(),
            m.to_string(),
            samples.to_string(),
            pct(certified, samples),
            fmt(cr1_hi),
            fmt(cr2_hi),
            fmt(width),
            fmt(drift_mean),
            pct(changed, samples),
            format!("{attempts}/{saved}"),
        ];
        out
    }

    fn outcome(
        &self,
        config: &ExperimentConfig,
        cells: &[CellResult],
    ) -> Result<ExperimentOutcome, ReportError> {
        let holds = cells.iter().all(|c| c.holds);
        let beyond_wall = cells
            .iter()
            .any(|c| !c.metric_flag("exhaustive_applies") && c.holds);
        let saved: f64 = cells
            .iter()
            .filter_map(|c| c.metric("opt_attempts_saved"))
            .sum();
        let used: f64 = cells.iter().filter_map(|c| c.metric("opt_attempts")).sum();
        let goal = BeliefNoise::goal(config);
        Ok(ExperimentOutcome {
            id: "E15".into(),
            name: "Equilibrium response to the intensity and structure of belief noise".into(),
            paper_claim: "Users act on beliefs about link capacities, not the true network; the \
                          model's point is how equilibria and coordination ratios respond to the \
                          strength and structure of that uncertainty."
                .into(),
            observed: if holds && beyond_wall {
                format!(
                    "every believed equilibrium was checker-certified and measured under the \
                     true network against adaptive OPT brackets of width ≤ {goal} up to \
                     n = 512, m = 16; the adaptive budgets spent {used:.0} estimator attempts \
                     and skipped {saved:.0} more that fixed budgets would have run"
                )
            } else if holds {
                "every cell held, but no configured cell lies beyond the exhaustive regime".into()
            } else {
                "a cell failed certification, bracketing or the width goal — inspect the table"
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
    use crate::config::IntensityLadder;
    use crate::experiments::run_one;
    use netuncert_core::method_list::MethodList;

    fn tiny() -> ExperimentConfig {
        let mut config = ExperimentConfig::quick();
        config.samples = 2;
        config
    }

    #[test]
    fn quick_run_holds_across_every_model_and_intensity() {
        let outcome = run_one(BeliefNoise, &tiny()).expect("report assembles");
        assert!(outcome.holds, "{}", outcome.observed);
        // The grid must reach past the exhaustive regime.
        assert!(size_grid()
            .iter()
            .any(|&(n, m)| profile_count(n, m) > tiny().profile_limit));
        assert_eq!(
            outcome.tables[0].rows.len(),
            BeliefModelKind::ALL.len() * IntensityLadder::standard().values().len() * 3
        );
    }

    #[test]
    fn the_grid_spans_the_configured_model_and_intensity_axes() {
        let mut config = tiny();
        config.belief_models = MethodList::parse("exact,partial").unwrap();
        config.intensities = IntensityLadder::parse("0.25,2").unwrap();
        let grid = BeliefNoise.grid(&config);
        assert_eq!(grid.len(), 2 * 2 * size_grid().len());
        assert_eq!(grid[0].label, "model=exact i=0.25 n=8 m=4");
        assert!(grid.iter().any(|c| c.label.contains("model=partial i=2")));
        // A restricted-axis run still assembles and holds.
        let outcome = run_one(BeliefNoise, &config).expect("report assembles");
        assert!(outcome.holds, "{}", outcome.observed);
    }

    #[test]
    fn every_label_matches_its_format_definition() {
        let mut custom = tiny();
        custom.intensities = IntensityLadder::parse("0,1e-7,0.1,2,12.625").unwrap();
        for config in [ExperimentConfig::default(), custom] {
            let sizes = size_grid();
            let mut want = Vec::new();
            for model in config.belief_models.kinds() {
                for &intensity in config.intensities.values() {
                    for &(n, m) in &sizes {
                        want.push(format!("model={} i={intensity} n={n} m={m}", model.id()));
                    }
                }
            }
            let grid = BeliefNoise.grid(&config);
            let labels: Vec<&str> = grid.iter().map(|c| c.label.as_str()).collect();
            assert_eq!(labels, want);
            assert!(grid
                .iter()
                .enumerate()
                .all(|(i, c)| c.index == i && c.table == 0));
        }
    }

    #[test]
    fn adaptive_budgets_save_attempts_at_scale() {
        // On the cells past the exhaustive wall the adaptive engine must
        // skip the descent backend (its restart budget is the saving the
        // ROADMAP promised); the per-cell telemetry metrics prove it.
        let config = tiny();
        let cells: Vec<CellResult> = {
            let grid = BeliefNoise.grid(&config);
            let inner = crate::experiment::inner_parallelism(config.parallel(), grid.len());
            grid.iter()
                .map(|cell| {
                    BeliefNoise.run_cell(&crate::experiment::CellCtx {
                        config: &config,
                        cell,
                        parallel: inner,
                        cache: None,
                        opt_cache: None,
                    })
                })
                .collect()
        };
        let at_scale: Vec<&CellResult> = cells
            .iter()
            .filter(|c| !c.metric_flag("exhaustive_applies"))
            .collect();
        assert!(!at_scale.is_empty());
        for cell in at_scale {
            assert!(
                cell.metric("opt_attempts_saved").unwrap() > 0.0,
                "cell `{}` saved no attempts",
                cell.label
            );
            assert!(
                cell.metric("descent_saves").unwrap() > 0.0,
                "cell `{}` never skipped descent",
                cell.label
            );
        }
    }
}
