//! E16 — incremental equilibrium repair under churn: warm-start repair vs
//! from-scratch solving on seeded edit streams.
//!
//! The paper treats every instance as a one-shot problem: each game is
//! solved (and certified) from nothing. This experiment measures the
//! *resident* regime the serve layer exposes: a game is solved once, then a
//! seeded churn stream (user joins, leaves, capacity drift) mutates it one
//! [`GameEdit`] at a time, and [`SolverEngine::repair`] carries the last
//! certified equilibrium across each edit instead of re-solving. Every
//! repaired profile is re-certified by the canonical checker
//! ([`is_pure_nash`]) on the *edited* game — the cell verdict (`holds`)
//! demands that certification on every event of every sample. For each
//! event the cell also runs a cold `LocalSearch` solve of the same edited
//! game, so the table reports the repair-vs-cold cost side by side (in
//! improving moves, a wall-clock-free proxy that keeps the golden snapshots
//! deterministic) together with the per-event equilibrium drift: the
//! fraction of incumbent users whose link assignment changed across the
//! repair.

use instance_gen::{ChurnSpec, EffectiveSpec};
use netuncert_core::algorithms::PureNashMethod;
use netuncert_core::equilibrium::is_pure_nash;
use netuncert_core::model::GameEdit;
use netuncert_core::solvers::SolverEngine;
use netuncert_core::strategy::{LinkLoads, PureProfile};
use par_exec::parallel_map;

use crate::config::ExperimentConfig;
use crate::experiment::{tables_from_cells, Cell, CellCtx, CellResult, Experiment};
use crate::report::{pct, ExperimentOutcome, ReportError};

/// The churn grid: `(users, links, edits-per-stream)`. Scales span the
/// exhaustive-able anchor up to the huge regime; the two edit counts probe
/// light and sustained churn on each scale.
pub fn churn_grid() -> Vec<(usize, usize, usize)> {
    vec![
        (32, 8, 4),
        (32, 8, 12),
        (128, 8, 4),
        (128, 8, 12),
        (512, 16, 4),
        (512, 16, 12),
    ]
}

const TABLE: (&str, &[&str]) = (
    "Warm-start repair vs from-scratch LocalSearch under churn",
    &[
        "n",
        "m",
        "edits",
        "streams",
        "repair certified",
        "repair moves (avg/event)",
        "cold moves (avg/event)",
        "move ratio",
        "drift (avg)",
        "cold fallbacks",
    ],
);

/// Per-stream tallies, summed over every edit event in the stream.
#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    events: u64,
    certified: u64,
    repair_moves: u64,
    cold_moves: u64,
    fallbacks: u64,
    drift: f64,
}

/// Fraction of incumbent users (present on both sides of `edit`) whose
/// link assignment changed between the previous certified profile and the
/// repaired one. A join's newcomer and a leave's departer are excluded —
/// drift measures how much of the *standing* equilibrium the edit shook.
fn incumbent_drift(prev: &PureProfile, edit: &GameEdit, repaired: &PureProfile) -> f64 {
    let new = repaired.choices();
    let (changed, incumbents) = match edit {
        // Same indexing on both sides; a join only appends. The zip stops
        // at the shorter (pre-edit) side, which is exactly the incumbents.
        GameEdit::CapacityChange { .. } | GameEdit::UserJoins { .. } => {
            let prev = prev.choices();
            let changed = prev.iter().zip(new).filter(|(a, b)| a != b).count();
            (changed, prev.len())
        }
        GameEdit::UserLeaves { user } => {
            let mut kept = prev.choices().to_vec();
            kept.remove(*user);
            let changed = kept.iter().zip(new).filter(|(a, b)| a != b).count();
            (changed, kept.len())
        }
    };
    changed as f64 / incumbents.max(1) as f64
}

/// E16 as a registry entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChurnRepair;

impl Experiment for ChurnRepair {
    fn id(&self) -> &'static str {
        "churn_repair"
    }

    fn description(&self) -> &'static str {
        "E16 — warm-start equilibrium repair vs cold solves on churn streams"
    }

    fn grid(&self, _config: &ExperimentConfig) -> Vec<Cell> {
        churn_grid()
            .iter()
            .enumerate()
            .map(|(idx, &(n, m, edits))| Cell::new(idx, 0, format!("n={n} m={m} edits={edits}")))
            .collect()
    }

    fn run_cell(&self, ctx: &CellCtx<'_>) -> CellResult {
        let config = ctx.config;
        let grid_idx = ctx.cell.index;
        let (n, m, edits) = churn_grid()[grid_idx];
        let churn = ChurnSpec::default_scenario();
        // Base games are drawn from the same distributions the churn stream
        // samples from, so drifted capacities stay in-distribution.
        let spec = EffectiveSpec::General {
            users: n,
            links: m,
            capacity: churn.capacity,
            weights: churn.weights,
        };
        let solver_config = config.solver_config();
        let engine = ctx.attach(SolverEngine::from_kinds(
            solver_config,
            &[PureNashMethod::LocalSearch],
        ));
        let initial = LinkLoads::zero(m);
        let results = parallel_map(&ctx.parallel, config.samples, |sample| {
            let stream_id = 0xC4A1_0000_0000u64 | (grid_idx as u64) << 24 | sample as u64;
            let mut rng = instance_gen::rng(config.seed, stream_id);
            let mut game = spec.generate(&mut rng);
            let solved = engine
                .solve(&game, &initial)
                .expect("heuristic backends never error");
            let Some(found) = solved.solution else {
                // No certified base equilibrium: the stream cannot start.
                // Report zero certifications so the cell fails loudly.
                return Stream {
                    events: edits as u64,
                    ..Stream::default()
                };
            };
            let mut current = found.profile;
            let mut out = Stream::default();
            let mut events = churn.stream(n, m, instance_gen::rng(config.seed, stream_id ^ 1));
            for _ in 0..edits {
                let edit = events.next_edit();
                let outcome = engine
                    .repair(&game, &initial, &current, &edit)
                    .expect("workload edits are structurally valid");
                out.events += 1;
                out.repair_moves += outcome.repair.moves;
                if outcome.repair.fallback_cold {
                    out.fallbacks += 1;
                }
                let cold = engine
                    .solve(&outcome.game, &initial)
                    .expect("heuristic backends never error");
                if let Some(attempt) = cold.telemetry.attempts.last() {
                    out.cold_moves += attempt.iterations.unwrap_or(0);
                }
                let Some(repaired) = outcome.solution.solution else {
                    // Repair (and its cold fallback) failed to certify:
                    // the stream cannot continue from an uncertified state.
                    break;
                };
                if !is_pure_nash(
                    &outcome.game,
                    &repaired.profile,
                    &initial,
                    solver_config.tol,
                ) {
                    break;
                }
                out.certified += 1;
                out.drift += incumbent_drift(&current, &edit, &repaired.profile);
                game = outcome.game;
                current = repaired.profile;
            }
            out
        });
        let events: u64 = results.iter().map(|s| s.events).sum();
        let certified: u64 = results.iter().map(|s| s.certified).sum();
        let fallbacks: u64 = results.iter().map(|s| s.fallbacks).sum();
        let repair_moves: u64 = results.iter().map(|s| s.repair_moves).sum();
        let cold_moves: u64 = results.iter().map(|s| s.cold_moves).sum();
        let drift: f64 = results.iter().map(|s| s.drift).sum();
        let per_event = events.max(1) as f64;
        let ratio = if cold_moves > 0 {
            repair_moves as f64 / cold_moves as f64
        } else {
            f64::NAN
        };

        let mut out = CellResult::for_cell(self.id(), ctx.cell);
        out.holds = events == (config.samples * edits) as u64 && certified == events;
        out.push_metric("events", events as f64);
        out.push_metric("repair_certified", certified as f64);
        out.push_metric("fallback_cold", fallbacks as f64);
        out.push_metric("repair_moves", repair_moves as f64);
        out.push_metric("cold_moves", cold_moves as f64);
        out.row = vec![
            n.to_string(),
            m.to_string(),
            edits.to_string(),
            config.samples.to_string(),
            pct(certified as usize, events as usize),
            format!("{:.1}", repair_moves as f64 / per_event),
            format!("{:.1}", cold_moves as f64 / per_event),
            if ratio.is_nan() {
                "-".to_string()
            } else {
                format!("{ratio:.3}")
            },
            format!("{:.4}", drift / per_event),
            fallbacks.to_string(),
        ];
        out
    }

    fn outcome(
        &self,
        _config: &ExperimentConfig,
        cells: &[CellResult],
    ) -> Result<ExperimentOutcome, ReportError> {
        let holds = cells.iter().all(|c| c.holds);
        let repair_moves: f64 = cells.iter().filter_map(|c| c.metric("repair_moves")).sum();
        let cold_moves: f64 = cells.iter().filter_map(|c| c.metric("cold_moves")).sum();
        let cheaper = cold_moves > 0.0 && repair_moves < cold_moves;
        Ok(ExperimentOutcome {
            id: "E16".into(),
            name: "Equilibrium repair under churn (warm start vs from scratch)".into(),
            paper_claim: "The paper solves every instance from scratch; its existence results \
                          (Conjecture 3.7) say nothing about re-solving cost when an instance \
                          drifts under churn."
                .into(),
            observed: if holds && cheaper {
                "every churn event was repaired to a checker-certified equilibrium of the edited \
                 game, at a fraction of the from-scratch LocalSearch move count"
                    .into()
            } else if holds {
                "every churn event was repaired to a checker-certified equilibrium, but warm \
                 repair was not cheaper than from-scratch solving — inspect the move ratios"
                    .into()
            } else {
                "some churn event could not be repaired to a certified equilibrium — inspect the \
                 table"
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
    fn quick_run_repairs_every_event_to_certification() {
        let mut config = ExperimentConfig::quick();
        config.samples = 2;
        let outcome = run_one(ChurnRepair, &config).expect("report assembles");
        assert!(outcome.holds, "{}", outcome.observed);
    }

    #[test]
    fn drift_counts_only_incumbents() {
        let prev = PureProfile::new(vec![0, 1, 2]);
        // A join appends user 3; incumbents 0 and 2 moved.
        let join = GameEdit::UserJoins {
            weight: 1.0,
            capacities: vec![1.0; 3],
        };
        let repaired = PureProfile::new(vec![1, 1, 0, 2]);
        let drift = incumbent_drift(&prev, &join, &repaired);
        assert!((drift - 2.0 / 3.0).abs() < 1e-12);
        // A leave drops user 1; the survivors (old 0 and 2) held still.
        let leave = GameEdit::UserLeaves { user: 1 };
        let repaired = PureProfile::new(vec![0, 2]);
        assert_eq!(incumbent_drift(&prev, &leave, &repaired), 0.0);
    }
}
