//! Replay-exact verification harness.
//!
//! Spawns (or connects to) a `netuncert_serve` instance, drives a
//! deterministic mixed workload over several concurrent connections, and
//! diffs **every** response byte-for-byte against a direct in-process
//! engine call with the same configuration. Exits 0 only if all answers
//! match and the service shuts down gracefully.
//!
//! ```text
//! serve_harness --server PATH [--requests N] [--connections K] [--seed S] [--binary]
//! serve_harness --addr HOST:PORT [...]   # use an already-running service
//! ```
//!
//! With `--binary`, every lane opens *two* connections — one JSON-framed,
//! one binary-framed — issues each request on both, and asserts the two
//! canonical response lines are byte-identical before also diffing them
//! against the in-process replay. That is a three-way check:
//! binary frame ↔ JSON frame ↔ direct engine call.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use netuncert_core::prelude::{is_pure_nash, EffectiveGame, LinkLoads, PureProfile, Tolerance};
use netuncert_serve::protocol::{
    EditRequest, ErrorKind, MetricsReply, ReleaseRequest, RequestBody, ResponseBody, UploadRequest,
    WireHistogram,
};
use netuncert_serve::replay::Replayer;
use netuncert_serve::state::ServeConfig;
use netuncert_serve::workload::{churn_session, mixed_request};
use netuncert_serve::{Client, ClientPool};

struct Options {
    server: Option<String>,
    addr: Option<String>,
    requests: usize,
    connections: usize,
    seed: u64,
    binary: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_harness (--server PATH | --addr HOST:PORT) \
         [--requests N] [--connections K] [--seed S] [--binary]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        server: None,
        addr: None,
        requests: 120,
        connections: 4,
        seed: 42,
        binary: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--server" => opts.server = Some(value("--server")),
            "--addr" => opts.addr = Some(value("--addr")),
            "--requests" => opts.requests = value("--requests").parse().unwrap_or_else(|_| usage()),
            "--connections" => {
                opts.connections = value("--connections").parse().unwrap_or_else(|_| usage())
            }
            "--seed" => opts.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--binary" => opts.binary = true,
            _ => usage(),
        }
    }
    if opts.server.is_none() && opts.addr.is_none() {
        usage();
    }
    opts
}

/// Spawns the service on an ephemeral port and parses the bound address
/// from its `listening on <addr>` banner.
fn spawn_server(path: &str) -> (Child, String) {
    let mut child = Command::new(path)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("spawn {path}: {e}");
            std::process::exit(1);
        });
    let stdout = child.stdout.take().expect("stdout piped");
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .unwrap_or_else(|e| {
            eprintln!("read banner: {e}");
            std::process::exit(1);
        });
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| {
            eprintln!("unexpected banner: {banner:?}");
            std::process::exit(1);
        })
        .to_string();
    (child, addr)
}

/// What the churn phase issued and observed, for the metrics audit.
struct ChurnCounts {
    /// Compute requests the phase issued (uploads + edits, including the
    /// deliberately stale one).
    compute: u64,
    /// Edits the service answered with a repaired, certified profile.
    repairs: u64,
}

/// Drives the resident-session workload through a connection pool: two
/// sessions upload, stream seeded edits with every repaired answer
/// re-certified client-side against a locally mirrored game, then release;
/// one final `Edit` on a released id must come back as the typed
/// `SessionEvicted` error, never a silent cold solve. Exits nonzero on any
/// contract violation.
fn drive_churn(addr: &str, seed: u64, binary: bool) -> ChurnCounts {
    const SESSIONS: u64 = 2;
    const EDITS: usize = 8;
    let pool = if binary {
        ClientPool::binary(addr.to_string(), 2)
    } else {
        ClientPool::json(addr.to_string(), 2)
    };
    let tol = Tolerance::default();
    let mut counts = ChurnCounts {
        compute: 0,
        repairs: 0,
    };
    let mut last_session = 0u64;
    for lane in 0..SESSIONS {
        let (instance, edits) = churn_session(seed.wrapping_add(lane), 8, 3, EDITS);
        let mut game =
            EffectiveGame::from_rows(instance.weights.clone(), instance.capacities.clone())
                .expect("workload instances are valid");
        let mut client = pool.get().unwrap_or_else(|e| {
            eprintln!("churn connect: {e}");
            std::process::exit(1);
        });

        let response = client
            .call(RequestBody::Upload(UploadRequest { instance }))
            .unwrap_or_else(|e| {
                eprintln!("churn upload: {e}");
                std::process::exit(1);
            });
        counts.compute += 1;
        let ResponseBody::Upload(upload) = response.body else {
            eprintln!("churn upload was refused: {:?}", response.body);
            std::process::exit(1);
        };
        let pinned = PureProfile::new(upload.solution.choices.clone());
        if !is_pure_nash(&game, &pinned, &LinkLoads::zero(game.links()), tol) {
            eprintln!("churn upload answer failed certification");
            std::process::exit(1);
        }

        for (index, edit) in edits.iter().enumerate() {
            game = game
                .apply_edit(&edit.to_edit())
                .expect("workload streams are valid");
            let response = client
                .call(RequestBody::Edit(EditRequest {
                    session: upload.session,
                    edit: edit.clone(),
                }))
                .unwrap_or_else(|e| {
                    eprintln!("churn edit {index}: {e}");
                    std::process::exit(1);
                });
            counts.compute += 1;
            let ResponseBody::Edit(reply) = response.body else {
                eprintln!("churn edit {index} was refused: {:?}", response.body);
                std::process::exit(1);
            };
            let repaired = PureProfile::new(reply.solution.choices.clone());
            if !is_pure_nash(&game, &repaired, &LinkLoads::zero(game.links()), tol) {
                eprintln!("churn edit {index} answer failed certification on the edited game");
                std::process::exit(1);
            }
            counts.repairs += 1;
        }

        let response = client
            .call(RequestBody::Release(ReleaseRequest {
                session: upload.session,
            }))
            .unwrap_or_else(|e| {
                eprintln!("churn release: {e}");
                std::process::exit(1);
            });
        let ResponseBody::Release(release) = response.body else {
            eprintln!("churn release was refused: {:?}", response.body);
            std::process::exit(1);
        };
        if release.edits != EDITS as u64 {
            eprintln!("release counted {} edits, expected {EDITS}", release.edits);
            std::process::exit(1);
        }
        last_session = upload.session;
    }

    // A released id must be answered with the typed error — the store never
    // falls back to a silent cold solve on stale state.
    let (_, edits) = churn_session(seed, 8, 3, 1);
    let mut client = pool.get().unwrap_or_else(|e| {
        eprintln!("stale-edit connect: {e}");
        std::process::exit(1);
    });
    let response = client
        .call(RequestBody::Edit(EditRequest {
            session: last_session,
            edit: edits.into_iter().next().expect("one edit requested"),
        }))
        .unwrap_or_else(|e| {
            eprintln!("stale edit: {e}");
            std::process::exit(1);
        });
    counts.compute += 1;
    match response.body {
        ResponseBody::Error(error) if error.kind == ErrorKind::SessionEvicted => {}
        other => {
            eprintln!("stale edit answered {other:?}, expected a SessionEvicted error");
            std::process::exit(1);
        }
    }
    counts
}

/// Fetches a `Metrics` reply and audits it: non-empty, sane percentile
/// ordering on every histogram, and — when `expected_compute` is known —
/// permit-wait/service counts equal to the compute requests issued, plus
/// repair-provenance count equality (`repair.moves` and `engine.repair_ns`
/// must both have observed exactly the successful repairs).
///
/// On a service this run owns (`expected_compute` known), a `Stats` reply
/// fetched just before on the same connection must read the counters
/// `Metrics` exports: `rejected` equals `serve.admit_busy`, and the
/// `serve.replies.*` counters sum to `requests + 1` (the `Stats` request
/// is counted between the two snapshots).
fn check_metrics(addr: &str, expected_compute: Option<u64>, expected_repairs: Option<u64>) -> bool {
    let mut client = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("connect for metrics: {e}");
        std::process::exit(1);
    });
    let stats = expected_compute.map(|_| {
        let response = client.call(RequestBody::Stats).unwrap_or_else(|e| {
            eprintln!("stats call: {e}");
            std::process::exit(1);
        });
        let ResponseBody::Stats(stats) = response.body else {
            eprintln!("Stats request did not return a Stats reply");
            std::process::exit(1);
        };
        stats
    });
    let response = client.call(RequestBody::Metrics).unwrap_or_else(|e| {
        eprintln!("metrics call: {e}");
        std::process::exit(1);
    });
    let ResponseBody::Metrics(metrics) = response.body else {
        eprintln!("Metrics request did not return a Metrics reply");
        return false;
    };
    let mut ok = true;
    if metrics.counters.is_empty() || metrics.histograms.is_empty() {
        eprintln!("metrics reply is empty (no counters or no histograms)");
        ok = false;
    }
    for histogram in &metrics.histograms {
        if !(histogram.p50 <= histogram.p90 && histogram.p90 <= histogram.p99) {
            eprintln!(
                "histogram {} has disordered percentiles: p50={} p90={} p99={}",
                histogram.name, histogram.p50, histogram.p90, histogram.p99
            );
            ok = false;
        }
    }
    if let Some(expected) = expected_compute {
        for name in ["serve.queue_wait_ns", "serve.service_ns"] {
            match find_histogram(&metrics, name) {
                Some(histogram) if histogram.count == expected => {}
                Some(histogram) => {
                    eprintln!(
                        "{name} counted {} observations, expected {expected}",
                        histogram.count
                    );
                    ok = false;
                }
                None => {
                    eprintln!("{name} is missing from the metrics reply");
                    ok = false;
                }
            }
        }
    }
    if let Some(stats) = stats {
        let counter = |name: &str| {
            let found = metrics.counters.iter().find(|c| c.name == name);
            found.map(|c| c.value)
        };
        let replies: Option<u64> = [
            "serve.replies.ok",
            "serve.replies.error",
            "serve.replies.deadline",
        ]
        .into_iter()
        .map(counter)
        .sum();
        if replies != Some(stats.requests + 1) {
            eprintln!(
                "serve.replies.* sum to {replies:?}, expected Stats.requests + 1 = {}",
                stats.requests + 1
            );
            ok = false;
        }
        let admit_busy = counter("serve.admit_busy");
        if admit_busy != Some(stats.rejected) {
            eprintln!(
                "serve.admit_busy is {admit_busy:?}, Stats.rejected is {}",
                stats.rejected
            );
            ok = false;
        }
    }
    if let Some(expected) = expected_repairs {
        // Provenance: every successful repair records its latency AND its
        // move count, exactly once, into the serve registry. A mismatch
        // between the two (or against what the driver counted) means a
        // repair escaped telemetry or was double-counted.
        for name in ["engine.repair_ns", "repair.moves"] {
            match find_histogram(&metrics, name) {
                Some(histogram) if histogram.count == expected => {}
                Some(histogram) => {
                    eprintln!(
                        "{name} counted {} repairs, driver observed {expected}",
                        histogram.count
                    );
                    ok = false;
                }
                None => {
                    eprintln!("{name} is missing from the metrics reply");
                    ok = false;
                }
            }
        }
    }
    ok
}

fn find_histogram<'a>(metrics: &'a MetricsReply, name: &str) -> Option<&'a WireHistogram> {
    metrics.histograms.iter().find(|h| h.name == name)
}

fn main() {
    let opts = parse_args();
    let (child, addr) = match (&opts.server, &opts.addr) {
        (Some(path), _) => {
            let (child, addr) = spawn_server(path);
            (Some(child), addr)
        }
        (None, Some(addr)) => (None, addr.clone()),
        _ => usage(),
    };

    // Drive the workload: `connections` threads, round-robin request split.
    // Each thread records its (request line, response line) pairs.
    let connections = opts.connections.max(1);
    let mut handles = Vec::new();
    for lane in 0..connections {
        let addr = addr.clone();
        let seed = opts.seed;
        let total = opts.requests;
        let binary = opts.binary;
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap_or_else(|e| {
                eprintln!("connect {addr}: {e}");
                std::process::exit(1);
            });
            // With --binary, a sibling binary-framed connection answers
            // every request too; the two framings must agree byte-for-byte
            // on the canonical response line.
            let mut binary_client = if binary {
                Some(Client::connect_binary(&addr).unwrap_or_else(|e| {
                    eprintln!("binary connect {addr}: {e}");
                    std::process::exit(1);
                }))
            } else {
                None
            };
            let mut pairs = Vec::new();
            for index in (lane..total).step_by(connections) {
                let request = mixed_request(seed, index);
                let line = serde_json::to_string(&request).expect("serialise");
                let response = client.call_line(&line).unwrap_or_else(|e| {
                    eprintln!("request {index}: {e}");
                    std::process::exit(1);
                });
                if let Some(binary_client) = binary_client.as_mut() {
                    let framed = binary_client.call_line(&line).unwrap_or_else(|e| {
                        eprintln!("binary request {index}: {e}");
                        std::process::exit(1);
                    });
                    if framed != response {
                        eprintln!(
                            "framing divergence on request {index}:\n  json:   {response}\n  binary: {framed}"
                        );
                        std::process::exit(1);
                    }
                }
                pairs.push((line, response));
            }
            pairs
        }));
    }
    let mut pairs: Vec<(String, String)> = Vec::new();
    for handle in handles {
        pairs.extend(handle.join().expect("driver thread"));
    }

    // Replay every answer through a fresh in-process state and byte-diff.
    let mut replayer = Replayer::new(&ServeConfig::default());
    let mut divergences = 0usize;
    for (request, served) in &pairs {
        if let Some(diff) = replayer.check(request, served) {
            eprintln!("{diff}");
            divergences += 1;
        }
    }

    // Churn phase: resident sessions streamed over pooled connections, with
    // client-side certification of every repaired answer and a typed-error
    // check on a released session id. These verbs are excluded from the
    // byte-replay (session state is cross-connection), so the phase audits
    // them against the engine contract directly.
    let churn = drive_churn(&addr, opts.seed, opts.binary);

    // Metrics audit: the registry must be populated and self-consistent
    // after the workload. When we spawned the service ourselves (no other
    // traffic), the permit-wait and service histograms must count exactly
    // the compute requests this run issued — mixed workload plus the churn
    // phase's uploads and edits (the stale edit still takes a permit) —
    // and the repair-provenance probes must count exactly the successful
    // repairs.
    let (expected_compute, expected_repairs) = if opts.server.is_some() {
        let mixed = (opts.requests * if opts.binary { 2 } else { 1 }) as u64;
        (Some(mixed + churn.compute), Some(churn.repairs))
    } else {
        (None, None)
    };
    let metrics_ok = check_metrics(&addr, expected_compute, expected_repairs);

    // Graceful shutdown (only if we own the process).
    let clean_exit = if let Some(mut child) = child {
        let mut client = Client::connect(&addr).unwrap_or_else(|e| {
            eprintln!("connect for shutdown: {e}");
            std::process::exit(1);
        });
        let response = client.call(RequestBody::Shutdown).unwrap_or_else(|e| {
            eprintln!("shutdown call: {e}");
            std::process::exit(1);
        });
        let acked = matches!(response.body, ResponseBody::Shutdown);
        let status = child.wait().unwrap_or_else(|e| {
            eprintln!("wait: {e}");
            std::process::exit(1);
        });
        if !acked {
            eprintln!("shutdown was not acknowledged");
        }
        if !status.success() {
            eprintln!("service exited with {status}");
        }
        acked && status.success()
    } else {
        true
    };

    println!(
        "serve_harness: {} checked, {} divergences, {} connections",
        replayer.checked(),
        divergences,
        connections
    );
    if divergences == 0 && clean_exit && metrics_ok {
        println!("serve_harness: PASS");
    } else {
        eprintln!("serve_harness: FAIL");
        std::process::exit(1);
    }
}
