//! The resident service binary.
//!
//! ```text
//! netuncert_serve --addr 127.0.0.1:0 [--workers N] [--queue-depth N]
//!                 [--solve-cache N] [--opt-cache N] [--session-capacity N]
//!                 [--metrics-json PATH]
//! ```
//!
//! Prints `listening on <addr>` (the resolved address, so port `0` works
//! for tests) on stdout once bound, then serves until a `Shutdown`
//! request drains the service, and exits 0.
//!
//! `--workers` (default 4) is the number of compute permits, requests
//! running engine work at once; `--queue-depth` (default 256) bounds the
//! requests waiting for one, and the next gets a typed `Busy` at once.
//!
//! `--metrics-json PATH` periodically overwrites `PATH` with the same JSON
//! document a `Metrics` request returns (counters, gauges, histogram
//! percentiles), plus one final snapshot when the service drains — a
//! scrape file for dashboards that do not want to speak the wire protocol.

use std::time::Duration;

use netuncert_serve::protocol::wire_metrics;
use netuncert_serve::{ServeConfig, Server};

/// How often the `--metrics-json` writer re-snapshots the registry.
const METRICS_PERIOD: Duration = Duration::from_secs(1);

fn usage() -> ! {
    eprintln!(
        "usage: netuncert_serve --addr HOST:PORT [--workers N] [--queue-depth N] \
         [--solve-cache ENTRIES] [--opt-cache ENTRIES] [--session-capacity SESSIONS] \
         [--metrics-json PATH]\n  --workers: compute permits (requests running engine \
         work at once); --queue-depth: requests that may wait for one before a typed Busy"
    );
    std::process::exit(2);
}

fn parse_count(flag: &str, value: Option<String>) -> usize {
    let Some(value) = value else {
        eprintln!("{flag} needs a value");
        usage();
    };
    match value.parse::<usize>() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("{flag} wants a non-negative integer, got {value:?}");
            usage();
        }
    }
}

/// Serialises the current registry snapshot and writes it to `path` via a
/// temp-file rename, so a concurrent scraper never reads a torn document.
fn write_metrics_snapshot(state: &netuncert_serve::ServeState, path: &str) {
    let snapshot = wire_metrics(&state.registry().snapshot());
    let json = serde_json::to_string(&snapshot).expect("wire types always serialise");
    let tmp = format!("{path}.tmp");
    if std::fs::write(&tmp, json).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

fn main() {
    let mut addr = String::from("127.0.0.1:4700");
    let mut config = ServeConfig::default();
    let mut metrics_json: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--addr" => match argv.next() {
                Some(a) => addr = a,
                None => {
                    eprintln!("--addr needs a value");
                    usage();
                }
            },
            "--workers" => {
                config.workers = parse_count("--workers", argv.next()).max(1);
            }
            "--queue-depth" => {
                config.queue_depth = parse_count("--queue-depth", argv.next()).max(1);
            }
            "--solve-cache" => {
                config.solve_cache_capacity = parse_count("--solve-cache", argv.next());
            }
            "--opt-cache" => {
                config.opt_cache_capacity = parse_count("--opt-cache", argv.next());
            }
            "--session-capacity" => {
                config.session_capacity = parse_count("--session-capacity", argv.next()).max(1);
            }
            "--metrics-json" => match argv.next() {
                Some(path) => metrics_json = Some(path),
                None => {
                    eprintln!("--metrics-json needs a value");
                    usage();
                }
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }

    let server = match Server::bind(&addr, &config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(local) => {
            // The harness parses this line to find an ephemeral port.
            println!("listening on {local}");
        }
        Err(e) => {
            eprintln!("local_addr: {e}");
            std::process::exit(1);
        }
    }
    let snapshot_writer = metrics_json.map(|path| {
        let state = server.state();
        std::thread::spawn(move || {
            let tick = Duration::from_millis(50);
            while !state.draining() {
                write_metrics_snapshot(&state, &path);
                // Sleep in short ticks so a drain is noticed promptly and
                // does not hold up process exit for a full period.
                let mut slept = Duration::ZERO;
                while slept < METRICS_PERIOD && !state.draining() {
                    std::thread::sleep(tick);
                    slept += tick;
                }
            }
            // One final snapshot so the file reflects the full run.
            write_metrics_snapshot(&state, &path);
        })
    });
    if let Err(e) = server.run() {
        eprintln!("serve: {e}");
        std::process::exit(1);
    }
    if let Some(writer) = snapshot_writer {
        let _ = writer.join();
    }
}
