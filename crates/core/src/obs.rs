//! Structured observability: counters, gauges, log2 histograms and spans.
//!
//! Everything in this module is std-only and allocation-free on the record
//! path. The design splits into three layers:
//!
//! * **Instruments** — [`Counter`], [`Gauge`] and [`Histogram`] are plain
//!   atomics; recording is lock-free and callers may clone their `Arc`
//!   handles freely across threads.
//! * **[`Registry`]** — a named, get-or-create directory of instruments.
//!   Each subsystem constructs its own (the serve layer owns one per
//!   service instance, so in-process replays never pollute live metrics).
//!   The registry lock is taken only when resolving a name to a handle,
//!   never when recording.
//! * **[`Recorder`]** — the hot-loop façade. A disabled recorder is a
//!   `None`: it resolves no handles and reads no clock, so engine code
//!   instrumented through a `Recorder` pays one predictable branch per
//!   probe when solving with the default disabled recorder.
//!
//! [`Span`]s time a region with a monotonic [`Instant`] and record the
//! elapsed nanoseconds into a histogram on [`Span::finish`].
//!
//! Histograms use 65 fixed log2 buckets: bucket `i` holds every value whose
//! bit length is `i` (bucket 0 holds only zero). Percentile readout returns
//! the upper bound of the bucket containing the nearest-rank element, so a
//! reported percentile is always within 2x of the true order statistic and
//! lands in the *same* bucket (the property the proptest oracle pins).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Number of log2 buckets in a [`Histogram`]: one per possible bit length
/// of a `u64` (1..=64) plus a dedicated zero bucket.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index for a recorded value: its bit length (0 for zero).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Largest value that lands in bucket `index` (saturating at `u64::MAX`).
#[inline]
pub fn bucket_ceil(index: usize) -> u64 {
    match index {
        0 => 0,
        64.. => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `by` to the counter. Lock-free.
    #[inline]
    pub fn incr(&self, by: u64) {
        self.value.fetch_add(by, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (queue depth, busy workers, ...).
///
/// Gauges are unsigned; [`Gauge::sub`] saturates at zero rather than
/// wrapping, so a racy decrement can never report `u64::MAX - 1` items.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Sets the gauge to an absolute value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Raises the gauge by `by`. Lock-free.
    #[inline]
    pub fn add(&self, by: u64) {
        self.value.fetch_add(by, Ordering::Relaxed);
    }

    /// Lowers the gauge by `by`, saturating at zero.
    #[inline]
    pub fn sub(&self, by: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(by))
            });
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log2 latency histogram with a lock-free record path.
///
/// `record` is three relaxed `fetch_add`s; there is no lock anywhere in the
/// type. Readout ([`Histogram::percentile`], [`Histogram::snapshot`]) copies
/// the bucket array once and computes from the copy, so a snapshot is
/// internally consistent even while writers are racing.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free; safe from any thread.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.load_buckets().iter().sum()
    }

    /// Sum of all recorded values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`), reported as the upper
    /// bound of the bucket holding the rank-th smallest observation.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        Self::percentile_of(&self.load_buckets(), p)
    }

    /// One consistent copy of the bucket array.
    fn load_buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    fn percentile_of(buckets: &[u64; HISTOGRAM_BUCKETS], p: f64) -> u64 {
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(count);
        let mut seen = 0u64;
        for (index, &n) in buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_ceil(index);
            }
        }
        bucket_ceil(HISTOGRAM_BUCKETS - 1)
    }

    /// A consistent point-in-time summary of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self.load_buckets();
        let count: u64 = buckets.iter().sum();
        let max = buckets
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &n)| n != 0)
            .map(|(i, _)| bucket_ceil(i))
            .unwrap_or(0);
        HistogramSnapshot {
            count,
            sum: self.sum(),
            p50: Self::percentile_of(&buckets, 50.0),
            p90: Self::percentile_of(&buckets, 90.0),
            p99: Self::percentile_of(&buckets, 99.0),
            max,
            buckets: buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n != 0)
                .map(|(i, &n)| (i as u32, n))
                .collect(),
        }
    }
}

/// Point-in-time summary of one [`Histogram`].
///
/// `count` and the percentiles are computed from a single copy of the
/// bucket array, so `p50 <= p90 <= p99 <= max` holds by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (wrapping).
    pub sum: u64,
    /// 50th-percentile bucket upper bound.
    pub p50: u64,
    /// 90th-percentile bucket upper bound.
    pub p90: u64,
    /// 99th-percentile bucket upper bound.
    pub p99: u64,
    /// Upper bound of the highest non-empty bucket.
    pub max: u64,
    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u32, u64)>,
}

/// A timed region. Created by [`Recorder::span`]; [`Span::finish`] records
/// the elapsed nanoseconds into the histogram `span.<name>`. A span holds no
/// thread-local state, so it can be handed across worker threads safely.
#[derive(Debug)]
pub struct Span {
    live: Option<(Instant, Arc<Histogram>)>,
}

impl Span {
    /// Ends the span, recording elapsed nanoseconds into its histogram.
    /// Returns the elapsed time (0 when the recorder is disabled).
    pub fn finish(self) -> u64 {
        let Some((start, sink)) = self.live else {
            return 0;
        };
        let ns = elapsed_ns(start);
        sink.record(ns);
        ns
    }
}

/// Saturating elapsed nanoseconds since `start`.
#[inline]
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A named directory of instruments.
///
/// Handles are get-or-create and shared: two callers asking for counter
/// `"x"` receive the same `Arc`. The internal lock guards only name
/// resolution; recording through a handle never touches it.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// Get-or-create `name` in one instrument map. No panic can leave a map
/// half-written, so a poisoned lock is recovered.
fn resolve<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(existing) = map.get(name) {
        return Arc::clone(existing);
    }
    let created = Arc::new(T::default());
    map.insert(name.to_string(), Arc::clone(&created));
    created
}

/// A name-sorted copy of one instrument map, read through `read`.
fn read_all<T, R>(
    map: &Mutex<BTreeMap<String, Arc<T>>>,
    read: impl Fn(&T) -> R,
) -> Vec<(String, R)> {
    map.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(name, instrument)| (name.clone(), read(instrument)))
        .collect()
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        resolve(&self.counters, name)
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        resolve(&self.gauges, name)
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        resolve(&self.histograms, name)
    }

    /// A name-sorted snapshot of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: read_all(&self.counters, Counter::value),
            gauges: read_all(&self.gauges, Gauge::value),
            histograms: read_all(&self.histograms, Histogram::snapshot),
        }
    }
}

/// A name-sorted snapshot of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` per histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// The hot-loop instrumentation façade: a registry handle that may be absent.
///
/// Callers resolve their handles once ([`Recorder::histogram`],
/// [`Recorder::counter`]) and record through them; a disabled recorder
/// resolves `None`, so every probe costs one predicted branch. Clock reads
/// go through [`Recorder::now`], which returns `None` when disabled so
/// instrumented loops skip the `Instant::now()` call too.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    registry: Option<Arc<Registry>>,
}

impl Recorder {
    /// A recorder that drops every probe. This is the default everywhere.
    pub fn disabled() -> Self {
        Self { registry: None }
    }

    /// A recorder writing into `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        Self {
            registry: Some(registry),
        }
    }

    /// `Instant::now()` when enabled; `None` (no clock read) when disabled.
    #[inline]
    pub fn now(&self) -> Option<Instant> {
        self.registry.as_ref().map(|_| Instant::now())
    }

    /// Resolves the histogram `name` once, for hot paths that record
    /// through the handle. `None` when disabled.
    pub fn histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        self.registry.as_ref().map(|r| r.histogram(name))
    }

    /// Resolves the counter `name` once, for hot paths that increment
    /// through the handle. `None` when disabled.
    pub fn counter(&self, name: &str) -> Option<Arc<Counter>> {
        self.registry.as_ref().map(|r| r.counter(name))
    }

    /// Opens a span; elapsed time is recorded into `span.<name>` on
    /// [`Span::finish`].
    pub fn span(&self, name: &str) -> Span {
        Span {
            live: self
                .registry
                .as_ref()
                .map(|r| (Instant::now(), r.histogram(&format!("span.{name}")))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // Zero has its own bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_ceil(0), 0);
        // Bucket i covers [2^(i-1), 2^i - 1].
        for i in 1..64 {
            let floor = 1u64 << (i - 1);
            let ceil = (1u64 << i) - 1;
            assert_eq!(bucket_index(floor), i, "floor of bucket {i}");
            assert_eq!(bucket_index(ceil), i, "ceil of bucket {i}");
            assert_eq!(bucket_ceil(i), ceil);
            // The boundary neighbours land in the adjacent buckets.
            assert_eq!(bucket_index(floor - 1), i - 1);
            if ceil < u64::MAX {
                assert_eq!(bucket_index(ceil + 1), i + 1);
            }
        }
        // The top bucket saturates at u64::MAX.
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_ceil(64), u64::MAX);
    }

    #[test]
    fn histogram_counts_and_sums_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 1000, u64::MAX / 2] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 6 + 1000 + u64::MAX / 2);
    }

    #[test]
    fn percentiles_are_monotone_and_bucket_accurate() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p90, p99) = (h.percentile(50.0), h.percentile(90.0), h.percentile(99.0));
        assert!(p50 <= p90 && p90 <= p99, "{p50} <= {p90} <= {p99}");
        // Nearest-rank oracle: the 500th/900th/990th smallest of 1..=1000.
        assert_eq!(bucket_index(p50), bucket_index(500));
        assert_eq!(bucket_index(p90), bucket_index(900));
        assert_eq!(bucket_index(p99), bucket_index(990));
        // Reported value is the bucket upper bound: within 2x of the truth.
        assert!((500..1024).contains(&p50));
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), 0);
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.max, 0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn gauge_sub_saturates_at_zero() {
        let g = Gauge::default();
        g.add(3);
        g.sub(5);
        assert_eq!(g.value(), 0);
        g.set(7);
        g.sub(2);
        assert_eq!(g.value(), 5);
    }

    #[test]
    fn registry_handles_are_shared_and_snapshot_is_sorted() {
        let registry = Registry::new();
        registry.counter("b.second").incr(2);
        registry.counter("a.first").incr(1);
        let again = registry.counter("b.second");
        again.incr(3);
        registry.gauge("depth").set(4);
        registry.histogram("lat").record(100);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.first".into(), 1), ("b.second".into(), 5)]
        );
        assert_eq!(snap.gauges, vec![("depth".into(), 4)]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].0, "lat");
        assert_eq!(snap.histograms[0].1.count, 1);
    }

    #[test]
    fn a_poisoned_registry_still_registers_and_snapshots() {
        let registry = Registry::new();
        registry.counter("before").incr(1);
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = registry.counters.lock().unwrap();
                panic!("poison the counter map");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(registry.counters.is_poisoned());
        registry.counter("after").incr(2);
        assert_eq!(
            registry.snapshot().counters,
            vec![("after".into(), 2), ("before".into(), 1)]
        );
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let recorder = Recorder::disabled();
        assert!(recorder.now().is_none());
        assert_eq!(recorder.span("leaf").finish(), 0);
        assert!(recorder.histogram("x").is_none());
        assert!(recorder.counter("y").is_none());
    }

    #[test]
    fn spans_record_into_named_histograms() {
        let registry = Arc::new(Registry::new());
        let recorder = Recorder::new(Arc::clone(&registry));
        assert!(recorder.now().is_some());
        let outer = recorder.span("request");
        recorder.span("leaf").finish();
        outer.finish();
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["span.leaf", "span.request"]);
        assert!(snap.histograms.iter().all(|(_, h)| h.count == 1));
    }
}
