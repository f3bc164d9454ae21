//! Runs the experiment suite — whole, per-experiment, or as one shard of a
//! distributed sweep — and writes the markdown/JSON reports.
//!
//! ```text
//! # the classic single-process run
//! run_experiments [--samples N] [--seed S] [--threads T] [--out DIR]
//!
//! # select experiments by registry id (repeatable)
//! run_experiments --experiment poa --experiment conjecture
//!
//! # run one shard of a sweep and write its cell records
//! run_experiments --shard 0/3 --json shard0.json
//!
//! # merge shard record files back into the single-process report
//! run_experiments --merge shard0.json shard1.json shard2.json --out report/
//!
//! # share one content-addressed solve cache across the sweep
//! run_experiments --cache
//!
//! # pick the engine composition (ordered, comma-separated backend ids)
//! run_experiments --solvers two_links,local_search,exhaustive
//!
//! # recompute only the cells missing from an existing record file (the
//! # file's shard stamp must match the --shard flag)
//! run_experiments --resume --json shard0.json --shard 0/3
//!
//! # span the belief-noise experiment's axes and tighten its brackets
//! run_experiments --experiment belief_noise --belief-model noise,partial \
//!                 --intensity 0.5,2,8 --width-goal 1.4
//! ```
//!
//! Shard runs and the merged report are bit-identical to a single-process
//! run with the same configuration and experiment selection. The markdown
//! output is the source of the measured sections of `EXPERIMENTS.md` at the
//! workspace root.

use std::path::PathBuf;
use std::process::ExitCode;

use instance_gen::BeliefModelKind;
use netuncert_core::method_list::{MethodKind, MethodList};
use netuncert_core::opt::OptBackendKind;
use netuncert_core::solvers::SolverKind;
use sim_harness::config::{validate_width_goal, IntensityLadder};
use sim_harness::sweep::{ShardFile, SweepRunner};
use sim_harness::{experiments, render_markdown, runner, Experiment, ExperimentConfig, Shard};

struct Args {
    samples: usize,
    seed: u64,
    threads: usize,
    restarts: usize,
    solvers: MethodList<SolverKind>,
    opt_backends: MethodList<OptBackendKind>,
    belief_models: MethodList<BeliefModelKind>,
    intensities: IntensityLadder,
    width_goal: Option<f64>,
    experiment_ids: Vec<String>,
    shard: Shard,
    cache: bool,
    resume: bool,
    list: bool,
    json: Option<PathBuf>,
    metrics_json: Option<PathBuf>,
    merge: Vec<PathBuf>,
    out: Option<PathBuf>,
}

/// The `--list` output: every registry experiment id with its description.
fn experiment_listing() -> String {
    let mut out = String::new();
    for experiment in experiments::all() {
        out.push_str(&format!(
            "  {:12} {}\n",
            experiment.id(),
            experiment.description()
        ));
    }
    out
}

/// Appends one registry's section of the usage text: its title, its flag
/// and its ids.
fn push_registry<K: MethodKind>(out: &mut String, title: &str, flag: &str) {
    out.push_str(&format!("\n{title} ({flag}, ordered, comma-separated):\n"));
    for kind in K::ALL {
        out.push_str(&format!("  {}\n", kind.id()));
    }
}

fn usage() -> String {
    let mut out = String::from(
        "usage: run_experiments [--samples N] [--seed S] [--threads T]\n\
         \x20                      [--solvers LIST] [--opt-backends LIST] [--restarts N]\n\
         \x20                      [--belief-model LIST] [--intensity LIST] [--width-goal G]\n\
         \x20                      [--experiment ID]... [--shard I/K] [--cache] [--list]\n\
         \x20                      [--json FILE] [--metrics-json FILE] [--resume]\n\
         \x20                      [--merge FILE...] [--out DIR]\n\n\
         registered experiments:\n",
    );
    out.push_str(&experiment_listing());
    push_registry::<SolverKind>(&mut out, "solver backends", "--solvers");
    push_registry::<OptBackendKind>(&mut out, "opt backends", "--opt-backends");
    push_registry::<BeliefModelKind>(&mut out, "belief models", "--belief-model");
    out.push_str(
        "\n--intensity takes the belief-noise ladder (non-negative, strictly increasing,\n\
         e.g. 0.5,1.5,4) and --width-goal a finite bracket-width ratio above 1.0 that\n\
         switches every OPT engine into the adaptive cost-ordered early-exit mode.\n",
    );
    out
}

/// A flag value that parses as an integer of at least 1.
fn positive(value: Option<String>) -> Option<usize> {
    value.and_then(|v| v.parse().ok()).filter(|&n| n > 0)
}

fn parse_args() -> Result<Args, String> {
    let defaults = ExperimentConfig::default();
    let mut args = Args {
        samples: defaults.samples,
        seed: defaults.seed,
        threads: 0,
        restarts: defaults.restarts,
        solvers: defaults.solvers,
        opt_backends: defaults.opt_backends,
        belief_models: defaults.belief_models,
        intensities: defaults.intensities,
        width_goal: None,
        experiment_ids: Vec::new(),
        shard: Shard::solo(),
        cache: false,
        resume: false,
        list: false,
        json: None,
        metrics_json: None,
        merge: Vec::new(),
        out: None,
    };
    let mut iter = std::env::args().skip(1).peekable();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--samples" => {
                args.samples =
                    positive(iter.next()).ok_or("--samples requires a positive integer")?;
            }
            "--seed" => {
                args.seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed requires an integer")?;
            }
            "--threads" => {
                args.threads = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads requires an integer (0 = machine default)")?;
            }
            "--restarts" => {
                args.restarts =
                    positive(iter.next()).ok_or("--restarts requires a positive integer")?;
            }
            "--solvers" => {
                let list = iter
                    .next()
                    .ok_or("--solvers requires a comma-separated backend list")?;
                args.solvers = MethodList::parse(&list).map_err(|e| e.to_string())?;
            }
            "--opt-backends" => {
                let list = iter
                    .next()
                    .ok_or("--opt-backends requires a comma-separated backend list")?;
                args.opt_backends = MethodList::parse(&list).map_err(|e| e.to_string())?;
            }
            "--belief-model" => {
                let list = iter
                    .next()
                    .ok_or("--belief-model requires a comma-separated model list")?;
                args.belief_models = MethodList::parse(&list).map_err(|e| e.to_string())?;
            }
            "--intensity" => {
                let list = iter
                    .next()
                    .ok_or("--intensity requires a comma-separated value ladder")?;
                args.intensities = IntensityLadder::parse(&list)?;
            }
            "--width-goal" => {
                let goal = iter
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .ok_or("--width-goal requires a numeric ratio")?;
                args.width_goal = Some(validate_width_goal(goal)?);
            }
            "--list" => args.list = true,
            "--resume" => args.resume = true,
            "--experiment" => {
                let id = iter.next().ok_or("--experiment requires a registry id")?;
                if experiments::find(&id).is_none() {
                    return Err(format!(
                        "unknown experiment `{id}`; known ids: {}",
                        experiments::ids().join(", ")
                    ));
                }
                if args.experiment_ids.contains(&id) {
                    return Err(format!("experiment `{id}` was selected twice"));
                }
                args.experiment_ids.push(id);
            }
            "--shard" => {
                let spec = iter.next().ok_or("--shard requires I/K (e.g. 0/3)")?;
                args.shard = Shard::parse(&spec)?;
            }
            "--cache" => args.cache = true,
            "--json" => {
                args.json = Some(PathBuf::from(iter.next().ok_or("--json requires a file")?));
            }
            "--metrics-json" => {
                args.metrics_json = Some(PathBuf::from(
                    iter.next().ok_or("--metrics-json requires a file")?,
                ));
            }
            "--merge" => {
                while iter.peek().is_some_and(|a| !a.starts_with("--")) {
                    args.merge.push(PathBuf::from(iter.next().expect("peeked")));
                }
                if args.merge.is_empty() {
                    return Err("--merge requires at least one record file".into());
                }
            }
            "--out" => {
                args.out = Some(PathBuf::from(
                    iter.next().ok_or("--out requires a directory")?,
                ));
            }
            "--help" | "-h" => {
                eprintln!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}\n\n{}", usage())),
        }
    }
    Ok(args)
}

fn selected_experiments(ids: &[String]) -> Vec<Box<dyn Experiment>> {
    if ids.is_empty() {
        experiments::all()
    } else {
        ids.iter()
            .map(|id| experiments::find(id).expect("ids were validated during parsing"))
            .collect()
    }
}

fn write_reports(
    dir: &PathBuf,
    markdown: &str,
    outcomes: &[sim_harness::ExperimentOutcome],
) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("create output directory {}: {e}", dir.display()))?;
    let md_path = dir.join("experiment_report.md");
    let json_path = dir.join("experiment_report.json");
    let json =
        runner::to_json(outcomes).map_err(|e| format!("serialise the JSON report: {e:?}"))?;
    std::fs::write(&md_path, markdown).map_err(|e| format!("write {}: {e}", md_path.display()))?;
    std::fs::write(&json_path, json).map_err(|e| format!("write {}: {e}", json_path.display()))?;
    eprintln!("wrote {} and {}", md_path.display(), json_path.display());
    Ok(())
}

fn report_and_exit(
    outcomes: Vec<sim_harness::ExperimentOutcome>,
    out: Option<PathBuf>,
) -> Result<ExitCode, String> {
    let markdown = render_markdown(&outcomes);
    println!("{markdown}");
    if let Some(dir) = out {
        write_reports(&dir, &markdown, &outcomes)?;
    }
    if outcomes.iter().any(|o| !o.holds) {
        eprintln!("WARNING: at least one experiment is inconsistent with the paper");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.list {
        print!("{}", experiment_listing());
        return Ok(ExitCode::SUCCESS);
    }
    let config = ExperimentConfig {
        samples: args.samples,
        seed: args.seed,
        threads: args.threads,
        restarts: args.restarts,
        solvers: args.solvers,
        opt_backends: args.opt_backends,
        belief_models: args.belief_models,
        intensities: args.intensities,
        width_goal: args.width_goal,
        ..ExperimentConfig::default()
    };
    let mut sweep =
        SweepRunner::with_experiments(config, selected_experiments(&args.experiment_ids));
    if args.cache {
        sweep = sweep.with_cache();
    }

    // Merge mode: recombine shard record files into the classic report.
    if !args.merge.is_empty() {
        if args.shard.count() > 1
            || args.json.is_some()
            || args.metrics_json.is_some()
            || args.cache
            || args.resume
        {
            return Err(
                "--merge recombines existing record files and computes nothing; it cannot be \
                 combined with --shard, --json, --metrics-json, --cache or --resume"
                    .into(),
            );
        }
        let mut records = Vec::new();
        for file in &args.merge {
            let json = std::fs::read_to_string(file)
                .map_err(|e| format!("read {}: {e}", file.display()))?;
            let shard_file = ShardFile::from_json(&json)
                .map_err(|e| format!("parse {}: {e:?}", file.display()))?;
            // Shard files are stamped with the configuration that produced
            // them; merging under a different one would yield a silently
            // wrong report, so it is a hard error.
            shard_file
                .check_config(&config)
                .map_err(|e| format!("{}: {e}", file.display()))?;
            records.extend(shard_file.records);
        }
        eprintln!(
            "merging {} cell records from {} files",
            records.len(),
            args.merge.len()
        );
        let outcomes = sweep.merge(&records).map_err(|e| e.to_string())?;
        return report_and_exit(outcomes, args.out);
    }

    // A partial sweep cannot be merged alone; the records file is its only
    // product. Refuse before computing anything so shard work is never
    // silently discarded.
    if args.shard.count() > 1 && args.json.is_none() {
        return Err("a sharded run needs --json FILE to store its cell records".into());
    }

    // Resume mode: recompute only the cells missing from the record file.
    let existing = if args.resume {
        let Some(file) = &args.json else {
            return Err("--resume needs --json FILE naming the record file to complete".into());
        };
        if file.exists() {
            let json = std::fs::read_to_string(file)
                .map_err(|e| format!("read {}: {e}", file.display()))?;
            let shard_file = ShardFile::from_json(&json)
                .map_err(|e| format!("parse {}: {e:?}", file.display()))?;
            // Completing a file computed under a different configuration
            // would mix incompatible cells — the same hard error as --merge.
            shard_file
                .check_config(&config)
                .map_err(|e| format!("{}: {e}", file.display()))?;
            // A resume must also target the same shard the file was
            // computed as; completing a 0/3 file as 1/3 would recompute the
            // wrong task ids and corrupt the sweep.
            shard_file
                .check_shard(args.shard)
                .map_err(|e| format!("{}: {e}", file.display()))?;
            shard_file.records
        } else {
            Vec::new()
        }
    } else {
        Vec::new()
    };

    eprintln!(
        "running {} of {} cells (shard {}): samples per setting = {}, seed = {:#x}",
        (0..sweep.task_count())
            .filter(|&t| args.shard.selects(t as u64))
            .count(),
        sweep.task_count(),
        args.shard,
        config.samples,
        config.seed
    );

    let start = std::time::Instant::now();
    let (records, metrics) = if args.resume {
        let missing = sweep.missing_in_shard(args.shard, &existing);
        eprintln!(
            "resuming: {} of the shard's cells already present, recomputing {}",
            existing
                .iter()
                .filter(|r| args.shard.selects(r.task_id))
                .count(),
            missing.len()
        );
        sweep
            .run_missing_metered(args.shard, &existing)
            .map_err(|e| e.to_string())?
    } else {
        sweep.run_shard_metered(args.shard)
    };
    let elapsed = start.elapsed();
    eprintln!("computed {} cells in {:.1?}", records.len(), elapsed);
    if let Some(file) = &args.metrics_json {
        let json = metrics
            .to_json()
            .map_err(|e| format!("serialise the metrics sidecar: {e:?}"))?;
        std::fs::write(file, json).map_err(|e| format!("write {}: {e}", file.display()))?;
        eprintln!(
            "wrote wall-time metrics for {} cells ({} experiments) to {}",
            metrics.cells.len(),
            metrics.experiments.len(),
            file.display()
        );
    }
    if let Some(stats) = sweep.cache_stats() {
        eprintln!(
            "solve cache: {} hits / {} misses ({:.1}% hit rate, {} entries)",
            stats.hits,
            stats.misses,
            100.0 * stats.hit_rate(),
            stats.entries
        );
    }
    if let Some(stats) = sweep.opt_cache_stats() {
        eprintln!(
            "opt cache: {} hits / {} misses ({:.1}% hit rate, {} entries)",
            stats.hits,
            stats.misses,
            100.0 * stats.hit_rate(),
            stats.entries
        );
    }

    if let Some(file) = &args.json {
        let json = ShardFile::new(&config, args.shard, records.clone())
            .to_json()
            .map_err(|e| format!("serialise the cell records: {e:?}"))?;
        std::fs::write(file, json).map_err(|e| format!("write {}: {e}", file.display()))?;
        eprintln!("wrote {} cell records to {}", records.len(), file.display());
    }

    if args.shard.count() > 1 {
        return Ok(ExitCode::SUCCESS);
    }

    let outcomes = sweep.merge(&records).map_err(|e| e.to_string())?;
    report_and_exit(outcomes, args.out)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
