//! The declarative experiment API: cells, cell contexts and the
//! [`Experiment`] trait.
//!
//! Every reproduced experiment declares a *grid* of independent cells (one
//! per parameter setting), computes each cell in isolation, and assembles
//! the familiar [`ExperimentOutcome`] from the finished cell results. The
//! split is what makes the suite shardable: a [`SweepRunner`] can flatten
//! every experiment's grid into task-id-addressed cells, run any subset in
//! any process, and still merge back a bit-identical report, because each
//! [`CellResult`] carries everything [`Experiment::outcome`] needs —
//! pre-rendered table rows plus the named numeric metrics the verdict
//! depends on.
//!
//! [`SweepRunner`]: crate::sweep::SweepRunner

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use netuncert_core::model::EffectiveGame;
use netuncert_core::opt::{OptBackendKind, OptCache, OptConfig, OptEngine, OptOutcome};
use netuncert_core::solvers::cache::SolveCache;
use netuncert_core::solvers::engine::SolverEngine;
use netuncert_core::strategy::LinkLoads;
use par_exec::ParallelConfig;

use crate::config::ExperimentConfig;
use crate::report::{ExperimentOutcome, ReportError, Table};

/// One grid point of an experiment: a stable index plus a human label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Position in the experiment's grid; unique and dense (`0..grid.len()`).
    pub index: usize,
    /// Which of the experiment's output tables this cell's row belongs to.
    pub table: usize,
    /// Human-readable parameter description, e.g. `"n=4 m=3"`.
    pub label: String,
}

impl Cell {
    /// A cell for table `table` at grid position `index`.
    pub fn new(index: usize, table: usize, label: impl Into<String>) -> Self {
        Cell {
            index,
            table,
            label: label.into(),
        }
    }
}

/// Everything a cell computation may use: the shared configuration, the cell
/// being computed, the worker pool for its inner Monte-Carlo loop, and the
/// sweep's shared solve cache (when enabled).
pub struct CellCtx<'a> {
    /// The suite-wide configuration (seed, sample count, budgets).
    pub config: &'a ExperimentConfig,
    /// The grid point being computed.
    pub cell: &'a Cell,
    /// Worker pool for loops *inside* the cell. The sweep layer parallelises
    /// across cells, so this is normally sequential; results are identical
    /// either way because every inner loop is task-id deterministic.
    pub parallel: ParallelConfig,
    /// Content-addressed solve cache shared across the whole sweep, if the
    /// caller opted in.
    pub cache: Option<&'a Arc<SolveCache>>,
    /// Content-addressed optimum-bracket cache shared across the whole
    /// sweep, if the caller opted in (enabled together with `cache`).
    pub opt_cache: Option<&'a Arc<OptCache>>,
}

impl CellCtx<'_> {
    /// The engine for this cell — the configuration's solver selection
    /// (paper order unless overridden, e.g. by `run_experiments --solvers`)
    /// wired to the sweep's shared cache when enabled.
    pub fn engine(&self) -> SolverEngine {
        self.attach(self.config.solver_engine())
    }

    /// Wires an arbitrary engine to the sweep's shared cache; used by
    /// experiments that need a custom solver list.
    pub fn attach(&self, engine: SolverEngine) -> SolverEngine {
        match self.cache {
            Some(cache) => engine.with_cache(Arc::clone(cache)),
            None => engine,
        }
    }

    /// The optimum-bracketing engine for this cell — the configuration's
    /// opt-backend selection (default order unless overridden, e.g. by
    /// `run_experiments --opt-backends`) wired to the sweep's shared opt
    /// cache when enabled.
    pub fn opt_engine(&self) -> OptEngine {
        self.attach_opt(self.config.opt_engine())
    }

    /// Wires an arbitrary opt engine to the sweep's shared opt cache; used
    /// by experiments that need custom opt budgets (e.g. `belief_noise`
    /// forcing the adaptive width-goal mode). Keys embed every budget, so
    /// differently configured engines never collide in the shared cache.
    pub fn attach_opt(&self, engine: OptEngine) -> OptEngine {
        match self.opt_cache {
            Some(cache) => engine.with_cache(Arc::clone(cache)),
            None => engine,
        }
    }

    /// The differential anchor for this cell: the exact optima that a
    /// non-exact bracket on an enumeration-sized instance must contain.
    /// Build it once per cell; it is wired to the sweep's shared opt cache,
    /// so a true network shared by several cells is solved once.
    pub(crate) fn exact_anchor(&self) -> ExactAnchor {
        ExactAnchor {
            engine: self.attach_opt(OptEngine::from_kinds(
                OptConfig {
                    width_goal: None,
                    ..self.config.opt_config()
                },
                &[OptBackendKind::BranchAndBound, OptBackendKind::Exhaustive],
            )),
        }
    }
}

/// The exact optima behind the differential anchor (see
/// [`CellCtx::exact_anchor`]): a fixed-mode [`OptEngine`] over
/// `[branch_and_bound, exhaustive]`. The engine stops at its first exact
/// answer, so enumeration runs only when the pruned search does not
/// finish, and both return the bits enumeration computes.
pub(crate) struct ExactAnchor {
    engine: OptEngine,
}

impl ExactAnchor {
    /// Whether `outcome` brackets the exact optima of `game` under
    /// `initial` (relative slack `1e-9`).
    ///
    /// Panics unless enumeration fits the configuration's profile limit:
    /// callers gate the anchor on it.
    pub(crate) fn brackets(
        &self,
        game: &EffectiveGame,
        initial: &LinkLoads,
        outcome: &OptOutcome,
    ) -> bool {
        let exact = self
            .engine
            .estimate(game, initial)
            .expect("the pruned search always has an incumbent");
        assert!(exact.exact(), "the size gate admits enumeration");
        outcome.opt1.contains(exact.opt1.upper, 1e-9)
            && outcome.opt2.contains(exact.opt2.upper, 1e-9)
    }
}

/// The serialisable result of one cell: a pre-rendered table row, a local
/// verdict, and the named metrics the experiment-level verdict needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Id of the experiment the cell belongs to (see [`Experiment::id`]).
    pub experiment: String,
    /// Grid position (copied from the [`Cell`]).
    pub index: usize,
    /// Output table the row belongs to (copied from the [`Cell`]).
    pub table: usize,
    /// Human-readable parameter description (copied from the [`Cell`]).
    pub label: String,
    /// The rendered table row for this grid point.
    pub row: Vec<String>,
    /// Whether this cell, on its own, is consistent with the paper's claim.
    pub holds: bool,
    /// Named numeric metrics consumed by [`Experiment::outcome`] (booleans
    /// are encoded as `0.0`/`1.0`).
    pub metrics: Vec<(String, f64)>,
}

impl CellResult {
    /// Starts a result for `cell` with an empty row and no metrics.
    pub fn for_cell(experiment: &str, cell: &Cell) -> Self {
        CellResult {
            experiment: experiment.to_string(),
            index: cell.index,
            table: cell.table,
            label: cell.label.clone(),
            row: Vec::new(),
            holds: true,
            metrics: Vec::new(),
        }
    }

    /// Records a named metric (booleans as `0.0`/`1.0`).
    pub fn push_metric(&mut self, key: &str, value: f64) {
        self.metrics.push((key.to_string(), value));
    }

    /// Reads a named metric back.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Reads a named metric as a boolean (`!= 0.0`); `false` when absent.
    pub fn metric_flag(&self, key: &str) -> bool {
        self.metric(key).map(|v| v != 0.0).unwrap_or(false)
    }
}

/// A reproduced experiment, declared as a grid of independent cells.
///
/// Implementations must be stateless: the sweep layer shares them across
/// worker threads and may run any subset of the grid in any process.
pub trait Experiment: Send + Sync {
    /// Stable registry id (the module name, e.g. `"three_users"`).
    fn id(&self) -> &'static str;

    /// One-line description shown by `run_experiments --help` and the docs.
    fn description(&self) -> &'static str;

    /// The experiment's grid, in report order. Must be a deterministic
    /// function of `config` alone — most experiments ignore it entirely;
    /// `belief_noise` spans its model × intensity axes from the
    /// configuration's selections. Every result-determining configuration
    /// field is stamped into shard files and validated on merge/resume, so
    /// every shard of a sweep still addresses the same cells.
    fn grid(&self, config: &ExperimentConfig) -> Vec<Cell>;

    /// Computes one cell. Implementations derive all randomness from
    /// `ctx.config.seed` and the cell index, never from global state, so a
    /// cell computes identically in any process of a sharded sweep.
    fn run_cell(&self, ctx: &CellCtx<'_>) -> CellResult;

    /// Assembles the classic outcome from the full, index-ordered cell set.
    ///
    /// Fails (instead of panicking) when the cells are malformed — a row
    /// whose width disagrees with the declared columns, or a cell
    /// addressing an undeclared table.
    fn outcome(
        &self,
        config: &ExperimentConfig,
        cells: &[CellResult],
    ) -> Result<ExperimentOutcome, ReportError>;
}

/// Builds the experiment's output tables by distributing index-ordered cell
/// rows over per-table `(title, columns)` templates. Malformed cells (out
/// of range table, wrong row width) are errors, not panics.
pub fn tables_from_cells(
    templates: &[(&str, &[&str])],
    cells: &[CellResult],
) -> Result<Vec<Table>, ReportError> {
    let mut tables: Vec<Table> = templates
        .iter()
        .map(|(title, columns)| Table::new(*title, columns))
        .collect();
    for cell in cells {
        let table = tables
            .get_mut(cell.table)
            .ok_or(ReportError::UnknownTable {
                table: cell.table,
                tables: templates.len(),
            })?;
        table.push_row(cell.row.clone())?;
    }
    Ok(tables)
}

/// Sizes the worker pool for one cell's inner Monte-Carlo loop: the sweep
/// layer parallelises across cells first, and whatever width the pool has
/// beyond the cell count is pushed down into the cells — so a
/// single-experiment run with 3 cells on 8 threads still uses all 8.
/// Outputs never depend on the split (`parallel_map` is thread-count
/// invariant); only wall-clock does.
pub fn inner_parallelism(pool: ParallelConfig, cells: usize) -> ParallelConfig {
    ParallelConfig::new(pool.threads().div_ceil(cells.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_results_round_trip_through_json() {
        let cell = Cell::new(3, 1, "n=4 m=3");
        let mut result = CellResult::for_cell("demo", &cell);
        result.row = vec!["4".into(), "3".into()];
        result.holds = false;
        result.push_metric("violations", 2.0);
        let json = serde_json::to_string(&result).unwrap();
        let back: CellResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, result);
        assert_eq!(back.metric("violations"), Some(2.0));
        assert!(back.metric_flag("violations"));
        assert!(!back.metric_flag("absent"));
    }

    #[test]
    fn tables_from_cells_routes_rows_by_table() {
        let mut a = CellResult::for_cell("demo", &Cell::new(0, 0, "a"));
        a.row = vec!["r0".into()];
        let mut b = CellResult::for_cell("demo", &Cell::new(1, 1, "b"));
        b.row = vec!["r1".into()];
        let tables = tables_from_cells(&[("first", &["x"]), ("second", &["x"])], &[a, b]).unwrap();
        assert_eq!(tables[0].rows, vec![vec!["r0".to_string()]]);
        assert_eq!(tables[1].rows, vec![vec!["r1".to_string()]]);
    }

    #[test]
    fn malformed_cells_surface_as_report_errors() {
        // A cell addressing an undeclared table.
        let mut stray = CellResult::for_cell("demo", &Cell::new(0, 3, "stray"));
        stray.row = vec!["r".into()];
        assert_eq!(
            tables_from_cells(&[("only", &["x"])], &[stray]),
            Err(ReportError::UnknownTable {
                table: 3,
                tables: 1
            })
        );

        // A row whose width disagrees with the declared columns.
        let mut wide = CellResult::for_cell("demo", &Cell::new(0, 0, "wide"));
        wide.row = vec!["a".into(), "b".into()];
        assert!(matches!(
            tables_from_cells(&[("only", &["x"])], &[wide]),
            Err(ReportError::RowWidth {
                expected: 1,
                found: 2,
                ..
            })
        ));
    }
}
