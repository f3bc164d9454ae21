//! The observability tax, measured three ways.
//!
//! The `obs` layer promises that a disabled [`Recorder`] costs nothing on
//! the engine hot path: every probe collapses to one predicted branch on a
//! pre-resolved `Option`. This suite is the evidence behind that claim (and
//! the CI guard against regressing it):
//!
//! - `obs_overhead/local_search`: the paper's `n = 512, m = 16` local-search
//!   solve with no recorder attached, with a disabled recorder, and with a
//!   live registry recording every probe. The first two must be within
//!   noise of each other (the ≤2 % acceptance bound); the third prices what
//!   full tracing costs when it is actually wanted.
//! - `obs_instruments`: raw instrument costs — one histogram record and one
//!   counter increment — so a regression in the lock-free paths is visible
//!   before it shows up in a macro number.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use netuncert_bench::general_instance;
use netuncert_core::algorithms::PureNashMethod;
use netuncert_core::equilibrium::is_pure_nash;
use netuncert_core::obs::{Recorder, Registry};
use netuncert_core::solvers::engine::{SolverConfig, SolverEngine};
use netuncert_core::strategy::LinkLoads;

fn bench_obs_overhead(c: &mut Criterion) {
    let config = SolverConfig::default();
    let game = general_instance(512, 16, 46);
    let initial = LinkLoads::zero(16);

    // Three engines over the same instance, differing only in probes:
    // none (the baseline every other benchmark measures), disabled (the
    // default `Recorder` a caller gets without opting in), and enabled
    // (a live registry absorbing every record).
    let registry = Arc::new(Registry::new());
    let variants: [(&str, SolverEngine); 3] = [
        (
            "no_recorder",
            SolverEngine::from_kinds(config, &[PureNashMethod::LocalSearch]),
        ),
        (
            "recorder_disabled",
            SolverEngine::from_kinds(config, &[PureNashMethod::LocalSearch])
                .with_recorder(Recorder::disabled()),
        ),
        (
            "recorder_enabled",
            SolverEngine::from_kinds(config, &[PureNashMethod::LocalSearch])
                .with_recorder(Recorder::new(Arc::clone(&registry))),
        ),
    ];

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(20);
    for (label, engine) in &variants {
        // Certify the probes change nothing about the answer before timing.
        let solved = engine.solve(&game, &initial).unwrap();
        let solution = solved.solution.expect("local search converges");
        assert!(is_pure_nash(&game, &solution.profile, &initial, config.tol));
        group.bench_with_input(BenchmarkId::new(*label, "n512_m16"), label, |b, _| {
            b.iter(|| engine.solve(black_box(&game), black_box(&initial)))
        });
    }
    group.finish();
    // The enabled variant must actually have recorded something, or the
    // comparison above measured nothing.
    let snapshot = registry.snapshot();
    assert!(
        snapshot
            .histograms
            .iter()
            .any(|(name, h)| name == "engine.attempt_ns" && h.count > 0),
        "the enabled recorder saw no engine probes"
    );

    // Raw instrument costs: what one observation point charges the caller.
    let mut instruments = c.benchmark_group("obs_instruments");
    let registry = Registry::new();
    let histogram = registry.histogram("bench.record_ns");
    let counter = registry.counter("bench.incr");
    let mut tick = 0u64;
    instruments.bench_function("histogram_record", |b| {
        b.iter(|| {
            tick = tick.wrapping_add(0x9E37_79B9_7F4A_7C15);
            histogram.record(black_box(tick));
        })
    });
    instruments.bench_function("counter_incr", |b| b.iter(|| counter.incr(black_box(1))));
    instruments.finish();
}

criterion_group! {
    name = benches;
    config = netuncert_bench::bench_config();
    targets = bench_obs_overhead
}
criterion_main!(benches);
