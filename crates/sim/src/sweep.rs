//! The sharded sweep layer: flatten experiment grids into task-id-addressed
//! cells, run any shard in any process, and merge per-cell records back into
//! the exact reports a single-process run produces.
//!
//! Addressing is deterministic: a [`SweepRunner`] flattens its experiments'
//! grids in registry order, and a cell's `task_id` is its position in that
//! flattened list. A [`Shard`]` { index, count }` selects the cells with
//! `task_id % count == index`. Because every cell derives its randomness
//! from the configuration seed and its own grid position (never from global
//! state), the records a shard produces are bit-identical to the ones a
//! single-process run computes for the same cells — so
//! [`SweepRunner::merge`] over the union of all shards reproduces the
//! single-process [`ExperimentOutcome`]s exactly. The integration tests and
//! the CI sharding job prove this byte-for-byte on the rendered JSON.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use netuncert_core::obs::{elapsed_ns, Histogram};
use netuncert_core::opt::OptCache;
use netuncert_core::solvers::cache::{CacheStats, SolveCache};
use par_exec::parallel_map;

use instance_gen::BeliefModelKind;
use netuncert_core::algorithms::PureNashMethod;
use netuncert_core::method_list::MethodList;
use netuncert_core::opt::OptMethod;

use crate::config::{ExperimentConfig, IntensityLadder};
use crate::experiment::{Cell, CellCtx, CellResult, Experiment};
use crate::experiments;
use crate::report::{ExperimentOutcome, ReportError};

/// Why a shard specification is invalid — the typed form of every
/// degenerate `--shard` input (`0/0`, `i ≥ k`, `k = 0`, non-numeric),
/// raised by the single validation point [`Shard::new`] whether the spec
/// arrives from the CLI, a stamp file or code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardSpecError {
    /// The spec is not of the `i/k` form with two unsigned integers.
    Malformed {
        /// The offending input.
        spec: String,
    },
    /// `k = 0`: a sweep cannot be split into zero shards (this also covers
    /// `0/0`, which would otherwise divide by zero in the selector).
    ZeroCount,
    /// `i ≥ k`: the index does not name one of the `k` shards.
    IndexOutOfRange {
        /// The out-of-range index.
        index: usize,
        /// The shard count it must stay below.
        count: usize,
    },
}

impl fmt::Display for ShardSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardSpecError::Malformed { spec } => {
                write!(
                    f,
                    "expected a shard spec of the form i/k (e.g. 0/3), got `{spec}`"
                )
            }
            ShardSpecError::ZeroCount => write!(f, "the shard count must be at least 1"),
            ShardSpecError::IndexOutOfRange { index, count } => {
                write!(f, "shard index {index} is out of range 0..{count}")
            }
        }
    }
}

impl std::error::Error for ShardSpecError {}

impl From<ShardSpecError> for String {
    fn from(err: ShardSpecError) -> String {
        err.to_string()
    }
}

/// One slice of a sweep: run the cells whose `task_id % count == index`.
///
/// The fields are private and every constructor — [`Shard::new`],
/// [`Shard::parse`], deserialisation from a stamp file — funnels through
/// the same validation, so a degenerate shard (`0/0`, `i ≥ k`) cannot be
/// represented at all, let alone divide by zero in the selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    index: usize,
    count: usize,
}

impl Shard {
    /// A shard, validating `1 ≤ count` and `index < count`.
    pub fn new(index: usize, count: usize) -> Result<Self, ShardSpecError> {
        if count == 0 {
            return Err(ShardSpecError::ZeroCount);
        }
        if index >= count {
            return Err(ShardSpecError::IndexOutOfRange { index, count });
        }
        Ok(Shard { index, count })
    }

    /// The trivial single-shard split (every cell selected).
    pub fn solo() -> Self {
        Shard { index: 0, count: 1 }
    }

    /// Parses the CLI form `"i/k"` (e.g. `"0/3"`).
    pub fn parse(s: &str) -> Result<Self, ShardSpecError> {
        let malformed = || ShardSpecError::Malformed {
            spec: s.to_string(),
        };
        let (index, count) = s.split_once('/').ok_or_else(malformed)?;
        let index: usize = index.trim().parse().map_err(|_| malformed())?;
        let count: usize = count.trim().parse().map_err(|_| malformed())?;
        Shard::new(index, count)
    }

    /// This shard's index in `0..count()`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total number of shards in the split.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether this shard owns `task_id`.
    pub fn selects(&self, task_id: u64) -> bool {
        task_id % self.count as u64 == self.index as u64
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl Serialize for Shard {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("index".to_string(), self.index.to_value()),
            ("count".to_string(), self.count.to_value()),
        ])
    }
}

impl Deserialize for Shard {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected a shard object"))?;
        let field = |name: &str| {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| serde::Error::custom(format!("shard object missing `{name}`")))
        };
        let index = usize::from_value(field("index")?)?;
        let count = usize::from_value(field("count")?)?;
        // A hand-edited stamp cannot smuggle in a degenerate shard.
        Shard::new(index, count).map_err(|e| serde::Error::custom(e.to_string()))
    }
}

/// The durable per-cell record a shard emits: the sweep-wide task id plus the
/// full [`CellResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// Position of the cell in the sweep's flattened grid.
    pub task_id: u64,
    /// The computed cell.
    pub result: CellResult,
}

/// One cell's wall-clock measurement from a metered sweep run.
///
/// Metrics are a **sidecar**: they ride alongside the [`CellRecord`]s and
/// never enter them, so shard files (and the bit-identity contract over
/// them) are untouched by metering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellMetric {
    /// Position of the cell in the sweep's flattened grid.
    pub task_id: u64,
    /// The experiment registry id the cell belongs to.
    pub experiment: String,
    /// The cell's index within its experiment's grid.
    pub index: usize,
    /// Wall-clock nanoseconds `run_cell` took for this cell.
    pub wall_ns: u64,
}

/// Per-experiment wall-time distribution over a metered run's cells,
/// summarised through the same log2-bucket histogram the serve layer
/// reports (`p50 ≤ p90 ≤ p99 ≤ max`, each a bucket upper bound).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentMetric {
    /// The experiment registry id.
    pub experiment: String,
    /// Number of cells measured.
    pub cells: u64,
    /// Sum of the cells' wall times, nanoseconds.
    pub total_wall_ns: u64,
    /// Median cell wall time (bucket upper bound), nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile cell wall time, nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile cell wall time, nanoseconds.
    pub p99_ns: u64,
    /// Slowest observed bucket's upper bound, nanoseconds.
    pub max_ns: u64,
}

/// The machine-readable metrics sidecar of a metered sweep run
/// (`--metrics-json`): every cell's wall time in task-id order, plus
/// per-experiment distribution summaries — the offline counterpart of the
/// serve layer's `Metrics` reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepMetrics {
    /// Per-cell measurements, sorted by task id.
    pub cells: Vec<CellMetric>,
    /// Per-experiment summaries, in first-appearance (task-id) order.
    pub experiments: Vec<ExperimentMetric>,
}

impl SweepMetrics {
    /// Aggregates per-cell measurements into the sidecar document.
    pub fn from_cells(mut cells: Vec<CellMetric>) -> Self {
        cells.sort_by_key(|c| c.task_id);
        let mut experiments: Vec<ExperimentMetric> = Vec::new();
        let mut histograms: Vec<Histogram> = Vec::new();
        for cell in &cells {
            let pos = experiments
                .iter()
                .position(|e| e.experiment == cell.experiment)
                .unwrap_or_else(|| {
                    experiments.push(ExperimentMetric {
                        experiment: cell.experiment.clone(),
                        cells: 0,
                        total_wall_ns: 0,
                        p50_ns: 0,
                        p90_ns: 0,
                        p99_ns: 0,
                        max_ns: 0,
                    });
                    histograms.push(Histogram::new());
                    experiments.len() - 1
                });
            experiments[pos].cells += 1;
            experiments[pos].total_wall_ns += cell.wall_ns;
            histograms[pos].record(cell.wall_ns);
        }
        for (summary, histogram) in experiments.iter_mut().zip(&histograms) {
            let snapshot = histogram.snapshot();
            summary.p50_ns = snapshot.p50;
            summary.p90_ns = snapshot.p90;
            summary.p99_ns = snapshot.p99;
            summary.max_ns = snapshot.max;
        }
        SweepMetrics { cells, experiments }
    }

    /// Serialises the sidecar as pretty-printed JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}

/// Why a set of records could not be merged into outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// A record names an experiment the runner does not know.
    UnknownExperiment(String),
    /// A record addresses a cell index outside the experiment's grid.
    UnknownCell {
        /// The experiment id.
        experiment: String,
        /// The out-of-range cell index.
        index: usize,
    },
    /// A record's cell metadata (table, label) disagrees with the
    /// experiment's grid — a corrupted or hand-edited record file.
    MismatchedCell {
        /// The experiment id.
        experiment: String,
        /// The mismatching cell index.
        index: usize,
    },
    /// The same cell appears in more than one record (e.g. two overlapping
    /// shard files merged together).
    DuplicateCell {
        /// The experiment id.
        experiment: String,
        /// The duplicated cell index.
        index: usize,
    },
    /// An experiment is only partially covered (a shard file is missing).
    MissingCell {
        /// The experiment id.
        experiment: String,
        /// The first missing cell index.
        index: usize,
    },
    /// The records merged, but an outcome could not be assembled from them
    /// (malformed rows — see [`ReportError`]).
    Report(ReportError),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::UnknownExperiment(id) => {
                write!(f, "records mention unregistered experiment `{id}`")
            }
            MergeError::UnknownCell { experiment, index } => {
                write!(f, "experiment `{experiment}` has no cell {index}")
            }
            MergeError::MismatchedCell { experiment, index } => write!(
                f,
                "cell {index} of experiment `{experiment}` does not match the grid — corrupted \
                 record file?"
            ),
            MergeError::DuplicateCell { experiment, index } => {
                write!(f, "cell {index} of experiment `{experiment}` appears twice")
            }
            MergeError::MissingCell { experiment, index } => write!(
                f,
                "cell {index} of experiment `{experiment}` is missing — merge all shard files"
            ),
            MergeError::Report(err) => write!(f, "assembling the report failed: {err}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Runs experiment grids as a flat, shardable list of task-id-addressed
/// cells, and merges cell records back into classic outcomes.
pub struct SweepRunner {
    experiments: Vec<Box<dyn Experiment>>,
    config: ExperimentConfig,
    cache: Option<Arc<SolveCache>>,
    opt_cache: Option<Arc<OptCache>>,
}

impl SweepRunner {
    /// A runner over the full registry ([`experiments::all`]).
    pub fn new(config: ExperimentConfig) -> Self {
        SweepRunner::with_experiments(config, experiments::all())
    }

    /// A runner over an explicit experiment selection (kept in the given
    /// order; task ids are positions in this selection's flattened grid).
    pub fn with_experiments(
        config: ExperimentConfig,
        experiments: Vec<Box<dyn Experiment>>,
    ) -> Self {
        SweepRunner {
            experiments,
            config,
            cache: None,
            opt_cache: None,
        }
    }

    /// Enables the content-addressed caches shared by every cell of this
    /// runner's sweeps: a [`SolveCache`] for equilibrium solves and an
    /// [`OptCache`] for optimum brackets. Results are unchanged (hits replay
    /// the cold computation bit-for-bit); repeated instances — e.g. the
    /// fixed true network behind a group of belief perturbations — just
    /// stop being re-computed.
    #[must_use]
    pub fn with_cache(mut self) -> Self {
        self.cache = Some(Arc::new(SolveCache::new()));
        self.opt_cache = Some(Arc::new(OptCache::new()));
        self
    }

    /// Hit/miss counters of the shared solve cache, if enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Hit/miss counters of the shared optimum-bracket cache, if enabled.
    pub fn opt_cache_stats(&self) -> Option<CacheStats> {
        self.opt_cache.as_ref().map(|c| c.stats())
    }

    /// The experiment selection, in task-id order.
    pub fn experiments(&self) -> &[Box<dyn Experiment>] {
        &self.experiments
    }

    /// The shared configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The flattened cell list: `(task_id, experiment index, cell)`.
    fn flattened(&self) -> Vec<(u64, usize, Cell)> {
        let mut tasks = Vec::new();
        for (exp_idx, experiment) in self.experiments.iter().enumerate() {
            for cell in experiment.grid(&self.config) {
                tasks.push((tasks.len() as u64, exp_idx, cell));
            }
        }
        tasks
    }

    /// Total number of cells across the selection.
    pub fn task_count(&self) -> usize {
        self.experiments
            .iter()
            .map(|e| e.grid(&self.config).len())
            .sum()
    }

    /// The shared execution core: runs `selected` cells over the worker
    /// pool, timing each one. Both the plain and the metered entry points
    /// (and the resume path) funnel through here, so a cell is computed —
    /// and metered — identically no matter which door it came in by.
    fn run_cells(&self, selected: &[(u64, usize, Cell)]) -> Vec<(CellRecord, CellMetric)> {
        let inner = crate::experiment::inner_parallelism(self.config.parallel(), selected.len());
        parallel_map(&self.config.parallel(), selected.len(), |i| {
            let (task_id, exp_idx, cell) = &selected[i];
            let ctx = CellCtx {
                config: &self.config,
                cell,
                parallel: inner,
                cache: self.cache.as_ref(),
                opt_cache: self.opt_cache.as_ref(),
            };
            let started = Instant::now();
            let result = self.experiments[*exp_idx].run_cell(&ctx);
            let metric = CellMetric {
                task_id: *task_id,
                experiment: result.experiment.clone(),
                index: result.index,
                wall_ns: elapsed_ns(started),
            };
            (
                CellRecord {
                    task_id: *task_id,
                    result,
                },
                metric,
            )
        })
    }

    /// Runs the cells owned by `shard` over the configuration's worker pool
    /// and returns their records in task-id order.
    pub fn run_shard(&self, shard: Shard) -> Vec<CellRecord> {
        self.run_shard_metered(shard).0
    }

    /// Like [`run_shard`](SweepRunner::run_shard), but also returns the
    /// per-cell metrics sidecar. Records are unchanged by metering.
    pub fn run_shard_metered(&self, shard: Shard) -> (Vec<CellRecord>, SweepMetrics) {
        let selected: Vec<(u64, usize, Cell)> = self
            .flattened()
            .into_iter()
            .filter(|&(task_id, _, _)| shard.selects(task_id))
            .collect();
        let (records, cells): (Vec<_>, Vec<_>) = self.run_cells(&selected).into_iter().unzip();
        (records, SweepMetrics::from_cells(cells))
    }

    /// Runs the whole sweep in-process (the single-shard case).
    pub fn run(&self) -> Vec<CellRecord> {
        self.run_shard(Shard::solo())
    }

    /// Recombines cell records (from any number of shards, in any order)
    /// into the outcomes a single-process run produces.
    ///
    /// Experiments with no records at all are skipped, so a runner over the
    /// full registry can merge the output of a single-experiment run; an
    /// experiment that is only *partially* covered is an error.
    pub fn merge(&self, records: &[CellRecord]) -> Result<Vec<ExperimentOutcome>, MergeError> {
        let placed = self.validate_records(records)?;
        let mut outcomes = Vec::new();
        for (experiment, cells) in self.experiments.iter().zip(placed) {
            if cells.is_empty() {
                continue;
            }
            if let Some(missing) = cells.iter().position(Option::is_none) {
                return Err(MergeError::MissingCell {
                    experiment: experiment.id().to_string(),
                    index: missing,
                });
            }
            let cells: Vec<CellResult> = cells.into_iter().flatten().cloned().collect();
            outcomes.push(
                experiment
                    .outcome(&self.config, &cells)
                    .map_err(MergeError::Report)?,
            );
        }
        Ok(outcomes)
    }

    /// The task ids `shard` owns whose cells are absent from `existing` —
    /// the work list of a `--resume` run.
    pub fn missing_in_shard(&self, shard: Shard, existing: &[CellRecord]) -> Vec<u64> {
        let mut have: Vec<u64> = existing.iter().map(|r| r.task_id).collect();
        have.sort_unstable();
        (0..self.task_count() as u64)
            .filter(|&task_id| shard.selects(task_id) && have.binary_search(&task_id).is_err())
            .collect()
    }

    /// Resumes a shard run: recomputes only the cells `shard` owns that are
    /// missing from `existing`, and returns the union in task-id order.
    ///
    /// Records in `existing` are validated against the grids first (unknown
    /// experiments, out-of-range cells, grid mismatches and duplicates are
    /// the same hard errors as in [`merge`](SweepRunner::merge)), so a
    /// corrupted record file cannot be silently "completed". Because every
    /// cell derives its randomness from `(seed, cell index)` alone, resumed
    /// records are bit-identical to the ones a from-scratch run computes.
    pub fn run_missing(
        &self,
        shard: Shard,
        existing: &[CellRecord],
    ) -> Result<Vec<CellRecord>, MergeError> {
        Ok(self.run_missing_metered(shard, existing)?.0)
    }

    /// Like [`run_missing`](SweepRunner::run_missing), but also returns the
    /// metrics sidecar for the **recomputed** cells (cells taken from
    /// `existing` were never run here, so they carry no measurement).
    pub fn run_missing_metered(
        &self,
        shard: Shard,
        existing: &[CellRecord],
    ) -> Result<(Vec<CellRecord>, SweepMetrics), MergeError> {
        self.validate_records(existing)?;
        let missing = self.missing_in_shard(shard, existing);
        let selected: Vec<(u64, usize, Cell)> = self
            .flattened()
            .into_iter()
            .filter(|(task_id, _, _)| missing.binary_search(task_id).is_ok())
            .collect();
        let (fresh, cells): (Vec<_>, Vec<_>) = self.run_cells(&selected).into_iter().unzip();
        let mut combined: Vec<CellRecord> = existing.to_vec();
        combined.extend(fresh);
        combined.sort_by_key(|r| r.task_id);
        Ok((combined, SweepMetrics::from_cells(cells)))
    }

    /// Validates records against the experiment grids without requiring
    /// completeness (the merge-time checks minus [`MergeError::MissingCell`])
    /// and returns them placed by cell index, one slot list per experiment
    /// (empty for an experiment without records). Grids are built once per
    /// experiment (lazily), so validating a wide shard file stays linear.
    fn validate_records<'r>(
        &self,
        records: &'r [CellRecord],
    ) -> Result<Vec<Vec<Option<&'r CellResult>>>, MergeError> {
        let mut grids: Vec<Option<Vec<Cell>>> = vec![None; self.experiments.len()];
        let mut placed: Vec<Vec<Option<&CellResult>>> = vec![Vec::new(); self.experiments.len()];
        for record in records {
            let result = &record.result;
            let exp_idx = self
                .experiments
                .iter()
                .position(|e| e.id() == result.experiment)
                .ok_or_else(|| MergeError::UnknownExperiment(result.experiment.clone()))?;
            let grid = grids[exp_idx]
                .get_or_insert_with(|| self.experiments[exp_idx].grid(&self.config))
                .as_slice();
            if result.index >= grid.len() {
                return Err(MergeError::UnknownCell {
                    experiment: result.experiment.clone(),
                    index: result.index,
                });
            }
            let cell = &grid[result.index];
            if result.table != cell.table || result.label != cell.label {
                return Err(MergeError::MismatchedCell {
                    experiment: result.experiment.clone(),
                    index: result.index,
                });
            }
            let slots = &mut placed[exp_idx];
            slots.resize(grid.len(), None);
            if slots[result.index].replace(result).is_some() {
                return Err(MergeError::DuplicateCell {
                    experiment: result.experiment.clone(),
                    index: result.index,
                });
            }
        }
        Ok(placed)
    }

    /// Runs the whole sweep and merges it — the single-process semantics
    /// shard runs are proven against. Fails only when an experiment's cells
    /// cannot be assembled into a report ([`MergeError::Report`]).
    pub fn outcomes(&self) -> Result<Vec<ExperimentOutcome>, MergeError> {
        self.merge(&self.run())
    }
}

/// The durable shard-file format (`--json`/`--merge`): every configuration
/// field that determines cell results, stamped alongside the records so a
/// merge under a *different* configuration is a hard error instead of a
/// silently wrong report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardFile {
    /// Samples per parameter setting the records were computed with.
    pub samples: usize,
    /// Master seed the records were computed with.
    pub seed: u64,
    /// Exhaustive-enumeration cap the records were computed with.
    pub profile_limit: u128,
    /// Best-response/local-search step budget the records were computed with.
    pub max_steps: usize,
    /// Local-search restart budget the records were computed with.
    pub restarts: usize,
    /// The solver list (engine composition) the records were computed with,
    /// stamped as [`PureNashMethod::id`]s.
    pub solvers: MethodList<PureNashMethod>,
    /// The OPT-backend list the records were computed with, stamped as
    /// [`OptMethod::id`]s.
    pub opt_backends: MethodList<OptMethod>,
    /// The belief-model list spanning the `belief_noise` grid.
    pub belief_models: MethodList<BeliefModelKind>,
    /// The intensity ladder spanning the `belief_noise` grid.
    pub intensities: IntensityLadder,
    /// The adaptive bracket width goal the records were computed with
    /// (`null` = fixed budgets).
    pub width_goal: Option<f64>,
    /// The shard of the sweep this file's records belong to — checked by
    /// `--resume` so completing a file under a different `--shard` flag is
    /// a hard error instead of a silently mis-addressed record set.
    pub shard: Shard,
    /// The cell records.
    pub records: Vec<CellRecord>,
}

impl ShardFile {
    /// Stamps `records` with the result-determining fields of `config` and
    /// the `shard` that computed them.
    pub fn new(config: &ExperimentConfig, shard: Shard, records: Vec<CellRecord>) -> Self {
        ShardFile {
            samples: config.samples,
            seed: config.seed,
            profile_limit: config.profile_limit,
            max_steps: config.max_steps,
            restarts: config.restarts,
            solvers: config.solvers,
            opt_backends: config.opt_backends,
            belief_models: config.belief_models,
            intensities: config.intensities,
            width_goal: config.width_goal,
            shard,
            records,
        }
    }

    /// Verifies the file's shard stamp matches the `--shard` flag of a
    /// resume run. Completing a `0/3` file as shard `1/3` would recompute
    /// the wrong task ids and merge a corrupted sweep.
    pub fn check_shard(&self, shard: Shard) -> Result<(), String> {
        if self.shard == shard {
            Ok(())
        } else {
            Err(format!(
                "shard file was computed as shard {} but the flags name shard {}",
                self.shard, shard
            ))
        }
    }

    /// Verifies the file was computed under the same result-determining
    /// configuration as `config` (worker counts are deliberately ignored —
    /// they never affect results).
    pub fn check_config(&self, config: &ExperimentConfig) -> Result<(), String> {
        let mut mismatches = Vec::new();
        if self.samples != config.samples {
            mismatches.push(format!("samples {} vs {}", self.samples, config.samples));
        }
        if self.seed != config.seed {
            mismatches.push(format!("seed {:#x} vs {:#x}", self.seed, config.seed));
        }
        if self.profile_limit != config.profile_limit {
            mismatches.push(format!(
                "profile_limit {} vs {}",
                self.profile_limit, config.profile_limit
            ));
        }
        if self.max_steps != config.max_steps {
            mismatches.push(format!(
                "max_steps {} vs {}",
                self.max_steps, config.max_steps
            ));
        }
        if self.restarts != config.restarts {
            mismatches.push(format!("restarts {} vs {}", self.restarts, config.restarts));
        }
        if self.solvers != config.solvers {
            mismatches.push(format!("solvers {} vs {}", self.solvers, config.solvers));
        }
        if self.opt_backends != config.opt_backends {
            mismatches.push(format!(
                "opt_backends {} vs {}",
                self.opt_backends, config.opt_backends
            ));
        }
        if self.belief_models != config.belief_models {
            mismatches.push(format!(
                "belief_models {} vs {}",
                self.belief_models, config.belief_models
            ));
        }
        if self.intensities != config.intensities {
            mismatches.push(format!(
                "intensities {} vs {}",
                self.intensities, config.intensities
            ));
        }
        if self.width_goal != config.width_goal {
            mismatches.push(format!(
                "width_goal {:?} vs {:?}",
                self.width_goal, config.width_goal
            ));
        }
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "shard file was computed under a different configuration ({})",
                mismatches.join(", ")
            ))
        }
    }

    /// Serialises the file as pretty-printed JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a shard file produced by [`ShardFile::to_json`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            samples: 4,
            threads: 2,
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn shard_parsing_accepts_the_cli_form_only() {
        assert_eq!(Shard::parse("0/3").unwrap(), Shard::new(0, 3).unwrap());
        assert_eq!(Shard::parse("2/3").unwrap(), Shard::new(2, 3).unwrap());
        assert_eq!(Shard::parse("1/4").unwrap().to_string(), "1/4");
        // Every degenerate form is the same typed error the constructor
        // raises — parsing and construction validate in one place.
        assert_eq!(
            Shard::parse("3/3"),
            Err(ShardSpecError::IndexOutOfRange { index: 3, count: 3 })
        );
        assert_eq!(Shard::parse("1/0"), Err(ShardSpecError::ZeroCount));
        assert_eq!(Shard::parse("0/0"), Err(ShardSpecError::ZeroCount));
        for malformed in ["12", "a/b", "1/", "/3", "-1/3", "1/3/5", ""] {
            assert_eq!(
                Shard::parse(malformed),
                Err(ShardSpecError::Malformed {
                    spec: malformed.to_string()
                }),
                "`{malformed}` must be rejected as malformed"
            );
        }
        assert_eq!(Shard::new(0, 0), Err(ShardSpecError::ZeroCount));
        assert_eq!(
            Shard::new(5, 2),
            Err(ShardSpecError::IndexOutOfRange { index: 5, count: 2 })
        );
    }

    #[test]
    fn shard_serde_round_trips_and_rejects_degenerate_stamps() {
        let shard = Shard::new(1, 3).unwrap();
        let json = serde_json::to_string(&shard).unwrap();
        assert_eq!(json, "{\"index\":1,\"count\":3}");
        let back: Shard = serde_json::from_str(&json).unwrap();
        assert_eq!(back, shard);
        // A hand-edited stamp with a degenerate shard is rejected at parse
        // time, before it can divide by zero in the selector.
        assert!(serde_json::from_str::<Shard>("{\"index\":0,\"count\":0}").is_err());
        assert!(serde_json::from_str::<Shard>("{\"index\":9,\"count\":2}").is_err());
    }

    #[test]
    fn shards_partition_the_task_ids() {
        for count in 1..5usize {
            for task_id in 0..40u64 {
                let owners = (0..count)
                    .filter(|&i| Shard::new(i, count).unwrap().selects(task_id))
                    .count();
                assert_eq!(owners, 1, "task {task_id} with {count} shards");
            }
        }
    }

    #[test]
    fn task_ids_are_stable_positions_in_registry_order() {
        let runner = SweepRunner::new(tiny_config());
        let flat = runner.flattened();
        assert_eq!(flat.len(), runner.task_count());
        for (expected, &(task_id, _, _)) in flat.iter().enumerate() {
            assert_eq!(task_id, expected as u64);
        }
        // The first experiment's grid owns the first task ids.
        let first_grid = runner.experiments()[0].grid(runner.config()).len();
        assert!(flat[..first_grid].iter().all(|&(_, exp, _)| exp == 0));
    }

    #[test]
    fn single_experiment_shards_merge_to_the_in_process_outcome() {
        let config = tiny_config();
        let experiment = || experiments::find("three_users").unwrap();
        let runner = SweepRunner::with_experiments(config, vec![experiment()]);
        let direct = runner.outcomes().unwrap();

        let mut records = runner.run_shard(Shard::new(0, 2).unwrap());
        records.extend(runner.run_shard(Shard::new(1, 2).unwrap()));
        let merged = runner.merge(&records).unwrap();
        assert_eq!(direct, merged);
    }

    #[test]
    fn merge_rejects_incomplete_and_duplicated_records() {
        let config = tiny_config();
        let runner =
            SweepRunner::with_experiments(config, vec![experiments::find("milchtaich").unwrap()]);
        let records = runner.run();

        let partial = &records[..records.len() - 1];
        assert!(matches!(
            runner.merge(partial),
            Err(MergeError::MissingCell { .. })
        ));

        let mut doubled = records.clone();
        doubled.push(records[0].clone());
        assert!(matches!(
            runner.merge(&doubled),
            Err(MergeError::DuplicateCell { .. })
        ));

        let full_registry = SweepRunner::new(config);
        // Records for a subset of experiments merge fine on a full-registry
        // runner...
        assert_eq!(full_registry.merge(&records).unwrap().len(), 1);
        // ...but unknown experiment ids are rejected.
        let mut alien = records.clone();
        alien[0].result.experiment = "alien".into();
        assert!(matches!(
            full_registry.merge(&alien),
            Err(MergeError::UnknownExperiment(_))
        ));
    }

    #[test]
    fn shard_files_round_trip_and_validate_their_configuration() {
        let config = tiny_config();
        let runner =
            SweepRunner::with_experiments(config, vec![experiments::find("milchtaich").unwrap()]);
        let file = ShardFile::new(&config, Shard::solo(), runner.run());
        let json = file.to_json().unwrap();
        let back = ShardFile::from_json(&json).unwrap();
        assert_eq!(back, file);
        assert!(back.check_config(&config).is_ok());

        // Worker counts never affect results, so they don't gate merging.
        let other_threads = ExperimentConfig {
            threads: 7,
            ..config
        };
        assert!(back.check_config(&other_threads).is_ok());

        // Result-determining fields do.
        let other_samples = ExperimentConfig {
            samples: config.samples + 1,
            ..config
        };
        let err = back.check_config(&other_samples).unwrap_err();
        assert!(err.contains("samples"), "{err}");
        let other_seed = ExperimentConfig {
            seed: config.seed ^ 1,
            ..config
        };
        assert!(back.check_config(&other_seed).is_err());
        let other_restarts = ExperimentConfig {
            restarts: config.restarts + 1,
            ..config
        };
        let err = back.check_config(&other_restarts).unwrap_err();
        assert!(err.contains("restarts"), "{err}");
        let other_solvers = ExperimentConfig {
            solvers: MethodList::parse("local_search,exhaustive").unwrap(),
            ..config
        };
        let err = back.check_config(&other_solvers).unwrap_err();
        assert!(err.contains("solvers"), "{err}");
        let other_opt = ExperimentConfig {
            opt_backends: MethodList::parse("descent,relaxation").unwrap(),
            ..config
        };
        let err = back.check_config(&other_opt).unwrap_err();
        assert!(err.contains("opt_backends"), "{err}");
    }

    /// The durable format, byte for byte: a shard file written by an
    /// earlier build under non-default method lists, intensities, width goal
    /// and shard still parses, re-serialises to the same bytes, and merges
    /// under the configuration of its flags.
    #[test]
    fn a_recorded_shard_file_round_trips_byte_for_byte() {
        // run_experiments --samples 1 --experiment three_users
        //   --solvers local_search,exhaustive --opt-backends descent,relaxation
        //   --belief-model noise,partial --intensity 0.25,2 --width-goal 1.3
        //   --shard 1/2 --json shard_file.json
        let recorded = include_str!("../tests/golden/shard_file.json");
        let file = ShardFile::from_json(recorded).unwrap();
        assert_eq!(file.to_json().unwrap(), recorded);
        let config = ExperimentConfig {
            samples: 1,
            solvers: MethodList::parse("local_search,exhaustive").unwrap(),
            opt_backends: MethodList::parse("descent,relaxation").unwrap(),
            belief_models: MethodList::parse("noise,partial").unwrap(),
            intensities: IntensityLadder::parse("0.25,2").unwrap(),
            width_goal: Some(1.3),
            ..ExperimentConfig::default()
        };
        file.check_config(&config).unwrap();
        file.check_shard(Shard::new(1, 2).unwrap()).unwrap();
        let err = file.check_config(&ExperimentConfig::default()).unwrap_err();
        assert!(err.contains("belief_models"), "{err}");
    }

    #[test]
    fn metered_runs_produce_identical_records_plus_a_full_sidecar() {
        let config = tiny_config();
        let runner =
            SweepRunner::with_experiments(config, vec![experiments::find("milchtaich").unwrap()]);
        let (records, metrics) = runner.run_shard_metered(Shard::solo());
        // Metering is a sidecar: the records are the plain run's records.
        assert_eq!(records, runner.run());
        // Every cell is measured exactly once, in task-id order.
        assert_eq!(metrics.cells.len(), records.len());
        for (cell, record) in metrics.cells.iter().zip(&records) {
            assert_eq!(cell.task_id, record.task_id);
            assert_eq!(cell.experiment, record.result.experiment);
            assert_eq!(cell.index, record.result.index);
        }
        // The per-experiment summary accounts for every cell and keeps the
        // percentile ordering of the underlying histogram.
        assert_eq!(metrics.experiments.len(), 1);
        let summary = &metrics.experiments[0];
        assert_eq!(summary.cells, records.len() as u64);
        assert_eq!(
            summary.total_wall_ns,
            metrics.cells.iter().map(|c| c.wall_ns).sum::<u64>()
        );
        assert!(summary.p50_ns <= summary.p90_ns);
        assert!(summary.p90_ns <= summary.p99_ns);
        assert!(summary.p99_ns <= summary.max_ns);
        // And the sidecar serialises.
        let json = metrics.to_json().unwrap();
        let back: SweepMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, metrics);
    }

    #[test]
    fn merge_rejects_records_that_disagree_with_the_grid() {
        let config = tiny_config();
        let runner =
            SweepRunner::with_experiments(config, vec![experiments::find("milchtaich").unwrap()]);
        let mut records = runner.run();
        records[1].result.table = 9;
        assert!(matches!(
            runner.merge(&records),
            Err(MergeError::MismatchedCell { .. })
        ));
    }
}
