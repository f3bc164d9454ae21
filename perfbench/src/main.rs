//! The netuncert end-to-end benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --server PATH
//! ```
//!
//! Workloads: `solve_n512`, `bracket_n512`, `churn_n512` drive a spawned
//! `netuncert_serve` (PATH) over loopback from two closed-loop connections;
//! `sweep_e15` runs the E15 sweep in process. With `--trace 0` the run
//! reports the end-to-end metrics; with `--trace 1` it reports the
//! per-layer metrics of a traced replay. Every metric is printed by name
//! with its unit and sample count; the last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See NOTES.md.

mod inputs;
mod layers;
mod served;
mod service;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use inputs::Served;
use stats::{geo_mean, max, median, quantile, ratio, window_medians, Window};

/// The end-to-end metrics, reported with `--trace 0`: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
];

/// The per-layer metrics, reported with `--trace 1`: `(name, unit)`. A
/// layer the workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.wire.json_p50_ms", "ms"),
    ("serve.wire.binary_p50_ms", "ms"),
    ("serve.wire.json_tail_ms", "ms"),
    ("serve.wire.binary_tail_ms", "ms"),
    ("serve.protocol.decode_json_us", "us"),
    ("serve.protocol.request_key_us", "us"),
    ("serve.protocol.encode_json_us", "us"),
    ("serve.frame.decode_binary_us", "us"),
    ("serve.frame.encode_binary_us", "us"),
    ("serve.state.handle_us", "us"),
    ("serve.session.lookup_us", "us"),
    ("serve.server.queue_wait_us", "us"),
    ("serve.server.admit_fast_ratio", "ratio"),
    ("serve.server.transport_us", "us"),
    ("serve.client.write_us", "us"),
    ("serve.client.read_us", "us"),
    ("core.model.build_us", "us"),
    ("core.model.apply_edit_us", "us"),
    ("core.solvers.soa_pack_us", "us"),
    ("core.solvers.engine_solve_us", "us"),
    ("core.solvers.repair_us", "us"),
    ("core.solvers.repair_moves", "count"),
    ("core.solvers.repair_fallback_ratio", "ratio"),
    ("core.equilibrium.certify_us", "us"),
    ("core.opt.lpt_ms", "ms"),
    ("core.opt.relaxation_ms", "ms"),
    ("core.opt.relaxation_share", "ratio"),
    ("core.opt.bracket_width_opt1", "ratio"),
    ("core.opt.bracket_width_opt2", "ratio"),
    ("core.social_cost.measure_us", "us"),
    ("core.cache.solve_hit_ratio", "ratio"),
    ("core.cache.opt_hit_ratio", "ratio"),
    ("sim.sweep.cell_ms_p50", "ms"),
    ("sim.sweep.cell_ms_max", "ms"),
    ("par.busy_ratio", "ratio"),
    ("unaccounted_share", "ratio"),
    ("unaccounted_negative", "count"),
    ("trace.overhead_ms", "ms"),
    ("failed_ratio", "ratio"),
];

/// The per-call layer medians the traced replay reports directly.
const LAYER_MEDIANS: &[&str] = &[
    "serve.protocol.decode_json_us",
    "serve.protocol.request_key_us",
    "serve.protocol.encode_json_us",
    "serve.frame.decode_binary_us",
    "serve.frame.encode_binary_us",
    "serve.state.handle_us",
    "serve.session.lookup_us",
    "core.model.build_us",
    "core.model.apply_edit_us",
    "core.solvers.soa_pack_us",
    "core.solvers.engine_solve_us",
    "core.solvers.repair_us",
    "core.equilibrium.certify_us",
    "core.opt.lpt_ms",
    "core.opt.relaxation_ms",
    "core.social_cost.measure_us",
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Served(Served),
    Sweep,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "solve_n512" => Workload::Served(Served::Solve),
                    "bracket_n512" => Workload::Served(Served::Bracket),
                    "churn_n512" => Workload::Served(Served::Churn),
                    "sweep_e15" => Workload::Sweep,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds wants a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let server = match (workload, server) {
        (Workload::Sweep, s) => s.unwrap_or_default(),
        (_, Some(s)) => s,
        (_, None) => return Err("--server is required for served workloads".into()),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server,
    })
}

/// What one run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// `name → (value, samples)`.
    metrics: BTreeMap<&'static str, (f64, usize)>,
    notes: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, (value, samples));
    }

    /// Adds one phase's attempts, failures and notes.
    fn count(&mut self, attempted: u64, failed: u64, notes: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.notes.extend_from_slice(notes);
    }

    /// Prints the human-readable table and the final JSON line for the
    /// metric list `wanted`.
    fn emit(&self, wanted: &[(&str, &str)]) {
        let mut correct = self.failed == 0 && self.attempted > 0;
        for note in &self.notes {
            println!("note: {note}");
        }
        let mut json = Vec::new();
        for &(name, unit) in wanted {
            let (mut value, samples) = self.metrics.get(name).copied().unwrap_or((0.0, 0));
            if !value.is_finite() {
                println!("note: {name} was not finite");
                correct = false;
                value = 0.0;
            }
            println!("metric {name:<36} {value:>16.6} {unit:<6} samples={samples}");
            json.push(format!(
                r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
            ));
        }
        println!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.attempted,
            self.failed,
            json.join(", ")
        );
    }
}

/// The end-to-end tail: p90 of every window, whose median is reported.
const TAIL: f64 = 0.90;

/// The per-framing tail of the traced run: p99 where a phase holds
/// thousands of round trips, p90 where it holds a hundred brackets.
fn wire_tail(workload: Served) -> f64 {
    match workload {
        Served::Solve | Served::Churn => 0.99,
        Served::Bracket => 0.90,
    }
}

/// Sets the window-median end-to-end metrics over `units` of work.
fn end_to_end(report: &mut Report, windows: &[Window], setup_s: &[f64], units: u64) {
    let (throughput, p50, tail, used) = window_medians(windows, TAIL);
    println!("windows: {used} of {} full", windows.len());
    let units = units as usize;
    report.set("setup_s", median(setup_s), setup_s.len());
    report.set("throughput_per_s", throughput, units);
    report.set("p50_ms", p50, units);
    report.set("tail_ms", tail, units);
}

/// The service's mean queue wait (µs) and its sample count, and the share
/// of requests admitted on the reader's fast path, from its `Metrics`
/// reply.
fn server_metrics(run: &served::ServedRun) -> (f64, usize, f64) {
    let Some(metrics) = &run.metrics else {
        return (0.0, 0, 0.0);
    };
    let counter = |name: &str| {
        metrics
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0.0, |c| c.value as f64)
    };
    let (wait_us, waits) = metrics
        .histograms
        .iter()
        .find(|h| h.name == "serve.queue_wait_ns")
        .map_or((0.0, 0), |h| {
            (ratio(h.sum as f64, h.count as f64) / 1e3, h.count as usize)
        });
    let fast = counter("serve.admit_fast");
    let admit_ratio = ratio(fast, fast + counter("serve.admit_queued"));
    (wait_us, waits, admit_ratio)
}

/// The traced run of a served workload: an untraced and a traced served
/// phase of half the run each, then the in-process layer replay.
fn served_traced(report: &mut Report, args: &Args, workload: Served) {
    let half = args.seconds / 2.0;
    let untraced = served::run(&args.server, workload, args.seed, half, false);
    let traced = served::run(&args.server, workload, args.seed, half, true);
    let replay = layers::run(workload, args.seed, args.seconds);
    let q = wire_tail(workload);

    for run in [&untraced, &traced] {
        report.count(run.attempted, run.failed, &run.notes);
    }
    report.count(replay.requests, replay.failed, &replay.notes);

    let (json, binary) = (untraced.rtt_ms(Some(0)), untraced.rtt_ms(Some(1)));
    report.set("serve.wire.json_p50_ms", median(&json), json.len());
    report.set("serve.wire.binary_p50_ms", median(&binary), binary.len());
    report.set("serve.wire.json_tail_ms", quantile(&json, q), json.len());
    report.set(
        "serve.wire.binary_tail_ms",
        quantile(&binary, q),
        binary.len(),
    );
    report.set(
        "serve.client.write_us",
        median(&traced.write_us),
        traced.write_us.len(),
    );
    report.set(
        "serve.client.read_us",
        median(&traced.read_us),
        traced.read_us.len(),
    );

    for &name in LAYER_MEDIANS {
        let samples = replay.get(name);
        report.set(name, median(samples), samples.len());
    }
    let moves = replay.get("core.solvers.repair_moves");
    report.set(
        "core.solvers.repair_moves",
        ratio(moves.iter().sum(), moves.len() as f64),
        moves.len(),
    );
    report.set(
        "core.solvers.repair_fallback_ratio",
        ratio(replay.repair_fallbacks as f64, replay.repairs as f64),
        replay.repairs as usize,
    );
    report.set(
        "core.opt.relaxation_share",
        ratio(replay.opt_relaxation_ns, replay.opt_total_ns),
        replay.get("core.opt.relaxation_ms").len(),
    );
    for (k, name) in ["core.opt.bracket_width_opt1", "core.opt.bracket_width_opt2"]
        .into_iter()
        .enumerate()
    {
        report.set(
            name,
            geo_mean(&untraced.widths[k]),
            untraced.widths[k].len(),
        );
    }
    if let Some(stats) = &untraced.stats {
        let [solves, opts] = untraced.tier_requests;
        report.set(
            "core.cache.solve_hit_ratio",
            ratio(stats.solve_cache.hits as f64, solves as f64),
            solves as usize,
        );
        report.set(
            "core.cache.opt_hit_ratio",
            ratio(stats.opt_cache.hits as f64, opts as f64),
            opts as usize,
        );
    }
    let (wait_us, waits, admit_fast) = server_metrics(&untraced);
    report.set("serve.server.queue_wait_us", wait_us, waits);
    report.set("serve.server.admit_fast_ratio", admit_fast, waits);

    audit(report, &untraced, &replay, wait_us);

    let traced_rtts = traced.rtt_ms(None);
    report.set(
        "trace.overhead_ms",
        median(&traced_rtts) - median(&untraced.rtt_ms(None)),
        traced_rtts.len(),
    );
}

/// The accounting audit over the requests both the untraced served phase
/// and the traced replay ran: per connection, the round-trip median
/// against the sum of the medians of the top-level server-side layers
/// (decode, handle, encode in that connection's framing) plus the mean
/// queue wait. Nested layers (the solve inside `handle`) are not summed
/// again, so a negative share means layers were counted twice.
fn audit(report: &mut Report, served: &served::ServedRun, replay: &layers::LayerRun, wait_us: f64) {
    let mut rtt_us = 0.0;
    let mut layers_us = 0.0;
    let mut matched = 0;
    for conn in 0..2 {
        let mut rtts = Vec::new();
        let mut stages: [Vec<f64>; 3] = Default::default();
        for (id, entry) in replay.ledger.iter().filter(|(id, _)| id.0 == conn) {
            if let Some(rtt) = served.rtt_by_id.get(id) {
                rtts.push(rtt * 1e3);
                for (stage, value) in stages.iter_mut().zip(entry) {
                    stage.push(*value);
                }
            }
        }
        matched += rtts.len();
        rtt_us += median(&rtts) / 2.0;
        layers_us += (stages.iter().map(|s| median(s)).sum::<f64>() + wait_us) / 2.0;
    }
    let transport_us = rtt_us - layers_us;
    let share = ratio(transport_us, rtt_us);
    report.set("serve.server.transport_us", transport_us, matched);
    report.set("unaccounted_share", share, matched);
    report.set(
        "unaccounted_negative",
        f64::from(u8::from(share < 0.0)),
        matched,
    );
    println!(
        "accounting over {matched} requests: round-trip p50 {rtt_us:.1} us = layers {layers_us:.1} us + unaccounted {transport_us:.1} us ({:.1} %){}",
        share * 100.0,
        if share < 0.0 { "  NEGATIVE: layers counted twice" } else { "" }
    );
}

fn sweep_traced(report: &mut Report, args: &Args) {
    let run = sweep::run(args.seed, args.seconds);
    report.count(run.attempted, run.failed, &run.notes);
    report.set(
        "sim.sweep.cell_ms_p50",
        median(&run.cell_ms),
        run.cell_ms.len(),
    );
    report.set(
        "sim.sweep.cell_ms_max",
        max(&run.cell_ms),
        run.cell_ms.len(),
    );
    report.set("par.busy_ratio", median(&run.busy), run.busy.len());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = match args.workload {
        Workload::Served(Served::Solve) => "solve_n512",
        Workload::Served(Served::Bracket) => "bracket_n512",
        Workload::Served(Served::Churn) => "churn_n512",
        Workload::Sweep => "sweep_e15",
    };
    println!(
        "workload: {name}  seed: {}  seconds: {}  trace: {}  threads: {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut report = Report::default();
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    match (args.workload, args.trace) {
        (Workload::Served(w), false) => {
            let run = served::run(&args.server, w, args.seed, args.seconds, false);
            end_to_end(&mut report, &run.windows, &run.setup_s, run.units());
            report.count(run.attempted, run.failed, &run.notes);
        }
        (Workload::Served(w), true) => served_traced(&mut report, &args, w),
        (Workload::Sweep, false) => {
            let run = sweep::run(args.seed, args.seconds);
            end_to_end(&mut report, &run.windows, &run.setup_s, run.cells);
            report.count(run.attempted, run.failed, &run.notes);
        }
        (Workload::Sweep, true) => sweep_traced(&mut report, &args),
    }
    let failed_ratio = ratio(report.failed as f64, report.attempted as f64);
    report.set("failed_ratio", failed_ratio, report.attempted as usize);
    // The verdict travels in the JSON line; a printed result exits 0.
    report.emit(wanted);
    ExitCode::SUCCESS
}
