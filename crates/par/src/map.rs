//! The parallel map over index ranges.
//!
//! Work distribution is dynamic: workers repeatedly claim small batches of
//! indices from a shared atomic counter, so unevenly sized tasks (e.g. game
//! instances whose exhaustive solvers differ wildly in cost) balance well.
//! Outputs are keyed by task id and reassembled in index order, so the result
//! never depends on scheduling: the output is bit-identical for any worker
//! count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::pool::ParallelConfig;

/// Size of the index batch a worker claims at a time. Small enough to balance
/// skewed workloads, large enough to keep counter contention negligible.
const CLAIM_BATCH: usize = 8;

/// Applies `f` to every index in `0..total` in parallel and collects the
/// results in index order.
pub fn parallel_map<T, F>(config: &ParallelConfig, total: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if total == 0 {
        return Vec::new();
    }
    if config.is_sequential() || total == 1 {
        return (0..total).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let workers = config.threads().min(total);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(total));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let start = next.fetch_add(CLAIM_BATCH, Ordering::Relaxed);
                    if start >= total {
                        break;
                    }
                    let end = (start + CLAIM_BATCH).min(total);
                    for i in start..end {
                        local.push((i, f(i)));
                    }
                }
                collected.lock().expect("no worker panicked").extend(local);
            });
        }
    });

    let pairs = collected.into_inner().expect("no worker panicked");
    let mut slots: Vec<Option<T>> = Vec::with_capacity(total);
    slots.resize_with(total, || None);
    for (i, value) in pairs {
        debug_assert!(slots[i].is_none(), "index {i} produced twice");
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_sequential_for_any_thread_count() {
        let expected: Vec<usize> = (0..503).map(|i| i * 7 + 1).collect();
        for threads in [1, 2, 3, 8, 32] {
            let cfg = ParallelConfig::new(threads);
            let got = parallel_map(&cfg, 503, |i| i * 7 + 1);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_singleton_inputs() {
        let cfg = ParallelConfig::new(4);
        assert!(parallel_map(&cfg, 0, |i| i).is_empty());
        assert_eq!(parallel_map(&cfg, 1, |i| i + 41), vec![41]);
    }

    #[test]
    fn uneven_workloads_still_produce_index_ordered_output() {
        // Tasks with wildly different costs: result must still be in order.
        let cfg = ParallelConfig::new(4);
        let out = parallel_map(&cfg, 64, |i| {
            if i % 7 == 0 {
                // Simulate a heavy task.
                let mut acc = 0u64;
                for k in 0..50_000u64 {
                    acc = acc.wrapping_add(k ^ i as u64);
                }
                (i, acc % 2)
            } else {
                (i, 0)
            }
        });
        for (i, item) in out.iter().enumerate() {
            assert_eq!(item.0, i);
        }
    }
}
