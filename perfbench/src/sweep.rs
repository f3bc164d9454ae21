//! The `sweep_e15` workload: E15 (`belief_noise`) through
//! `SweepRunner::run_shard_metered` on a two-thread pool, in process.
//!
//! A run repeats whole sweeps, each under its own seed derived from the
//! workload seed, until the measured sweep time reaches the run length.

use std::hint::black_box;
use std::time::Instant;

use sim_harness::{experiments, ExperimentConfig, Shard, SweepRunner};

use crate::inputs::mix;
use crate::stats::{nanos, Window};

/// Samples per E15 parameter setting: one sweep of 45 cells takes a few
/// seconds on two threads.
pub const SAMPLES: usize = 4;
/// Worker threads of the sweep's `par` pool.
pub const THREADS: usize = 2;
/// Runner constructions timed for the set-up metric.
const SETUP_REPS: usize = 201;

/// Everything one sweep run measured and checked.
#[derive(Default)]
pub struct SweepRun {
    /// Build-runner → ready-to-run-cells, one per repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Cells computed.
    pub cells: u64,
    /// Total sweep wall time, seconds.
    pub wall_s: f64,
    /// One window per sweep: its wall time, cells and cell times.
    pub windows: Vec<Window>,
    /// Every cell's own wall time, ms.
    pub cell_ms: Vec<f64>,
    /// Per sweep: summed cell time / (threads × sweep wall).
    pub busy: Vec<f64>,
    /// Cells run plus experiment outcomes assembled.
    pub attempted: u64,
    /// Cells or outcomes that do not hold, or failed to merge.
    pub failed: u64,
    /// The first few problems found.
    pub notes: Vec<String>,
}

fn config(seed: u64, sweep: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed: mix(&[seed, sweep]),
        samples: SAMPLES,
        threads: THREADS,
        ..ExperimentConfig::default()
    }
}

fn runner(config: ExperimentConfig) -> SweepRunner {
    let e15 = experiments::find("belief_noise").expect("E15 is registered");
    SweepRunner::with_experiments(config, vec![e15])
}

/// Runs sweeps for at least `seconds` of sweep time.
pub fn run(seed: u64, seconds: f64) -> SweepRun {
    let mut out = SweepRun::default();
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let built = runner(config(seed, rep as u64));
        black_box(built.task_count());
        out.setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut sweep = 0u64;
    while out.wall_s < seconds {
        let built = runner(config(seed, sweep));
        let start = Instant::now();
        let (records, metrics) = built.run_shard_metered(Shard::solo());
        let wall = start.elapsed();
        out.wall_s += wall.as_secs_f64();
        out.cells += records.len() as u64;
        let busy_ns: f64 = metrics.cells.iter().map(|c| c.wall_ns as f64).sum();
        out.busy.push(busy_ns / (THREADS as f64 * nanos(wall)));
        let cell_ms: Vec<f64> = metrics
            .cells
            .iter()
            .map(|c| c.wall_ns as f64 / 1e6)
            .collect();
        out.cell_ms.extend(&cell_ms);
        out.windows.push(Window {
            seconds: wall.as_secs_f64(),
            units: records.len() as u64,
            samples_ms: cell_ms,
        });

        out.attempted += records.len() as u64 + 1;
        for record in records.iter().filter(|r| !r.result.holds) {
            out.failed += 1;
            out.note(format!(
                "sweep {sweep}: cell {} ({}) does not hold",
                record.result.index, record.result.label
            ));
        }
        match built.merge(&records) {
            Ok(outcomes) if outcomes.iter().all(|o| o.holds) => {}
            Ok(_) => {
                out.failed += 1;
                out.note(format!("sweep {sweep}: E15 does not hold"));
            }
            Err(e) => {
                out.failed += 1;
                out.note(format!("sweep {sweep}: merge failed: {e}"));
            }
        }
        sweep += 1;
    }
    out
}

impl SweepRun {
    fn note(&mut self, message: String) {
        if self.notes.len() < 8 {
            self.notes.push(message);
        }
    }
}
