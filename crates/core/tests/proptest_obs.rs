//! Property-based and concurrency tests for the observability layer.
//!
//! The histogram contract under test: `record`/`percentile` must
//! agree with a sorted-vector oracle up to bucket resolution — a reported
//! percentile is the upper bound of the log2 bucket that contains the
//! nearest-rank order statistic, so it lands in the *same* bucket as the
//! oracle value and never undershoots it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use netuncert_core::obs::{bucket_ceil, bucket_index, Histogram, Registry};

/// Nearest-rank percentile on a sorted slice (the oracle).
fn oracle_percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Strategy: observation sets that exercise small values, bucket
/// boundaries, and the full u64 range.
fn observations() -> impl Strategy<Value = Vec<u64>> {
    let value = prop_oneof![
        0u64..16,
        1u64..100_000,
        any::<u64>(),
        // Exact powers of two sit on bucket boundaries.
        (0u32..64).prop_map(|shift| 1u64 << shift),
    ];
    proptest::collection::vec(value, 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every percentile agrees with the sorted-vector oracle at bucket
    /// resolution: same bucket, reported as that bucket's upper bound.
    #[test]
    fn percentiles_agree_with_sorted_oracle(values in observations(), p in 0.0f64..=100.0) {
        let hist = Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let truth = oracle_percentile(&sorted, p);
        let reported = hist.percentile(p);
        prop_assert_eq!(bucket_index(reported), bucket_index(truth));
        prop_assert_eq!(reported, bucket_ceil(bucket_index(truth)));
        prop_assert!(reported >= truth);
    }

    /// count/sum are exact and p50 <= p90 <= p99 <= max always holds.
    #[test]
    fn snapshot_invariants(values in observations()) {
        let hist = Histogram::new();
        let mut sum = 0u64;
        for &v in &values {
            hist.record(v);
            sum = sum.wrapping_add(v);
        }
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum, sum);
        prop_assert!(snap.p50 <= snap.p90);
        prop_assert!(snap.p90 <= snap.p99);
        prop_assert!(snap.p99 <= snap.max);
        let bucket_total: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(bucket_total, snap.count);
    }
}

/// Concurrent `record` calls from many threads are never lost and never
/// tear: the final count, sum and bucket totals are exact, and every
/// mid-flight snapshot is internally consistent (bucket totals equal the
/// snapshot count, percentiles monotone) — the same single-consistent-cut
/// discipline the serve-layer counter race test pins.
#[test]
fn concurrent_records_are_exact_and_snapshots_consistent() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let hist = Arc::new(Histogram::new());
    let registry = Arc::new(Registry::new());
    let done = Arc::new(AtomicBool::new(false));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let hist = Arc::clone(&hist);
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                // Handles resolved through the registry must alias the
                // same instrument from every thread.
                let shared = registry.histogram("race.shared");
                for i in 0..PER_THREAD {
                    let value = t * PER_THREAD + i;
                    hist.record(value);
                    shared.record(value % 1024);
                }
            })
        })
        .collect();

    // Reader thread: hammer snapshots while writers are racing.
    let observer = {
        let hist = Arc::clone(&hist);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut snapshots = 0u64;
            while !done.load(Ordering::Relaxed) {
                let snap = hist.snapshot();
                let bucket_total: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
                assert_eq!(bucket_total, snap.count, "torn snapshot");
                assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99);
                snapshots += 1;
            }
            snapshots
        })
    };

    for worker in workers {
        worker.join().expect("writer thread");
    }
    done.store(true, Ordering::Relaxed);
    let snapshots = observer.join().expect("observer thread");
    assert!(snapshots > 0, "observer never ran");

    let total = THREADS * PER_THREAD;
    assert_eq!(hist.count(), total);
    // Sum of 0..total recorded exactly once each.
    assert_eq!(hist.sum(), total * (total - 1) / 2);
    assert_eq!(registry.histogram("race.shared").count(), total);
}
