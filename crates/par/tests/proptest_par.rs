//! Property-based tests for the parallel execution substrate: results must be
//! identical to the sequential reference for every thread count, workload size
//! and chunking.

use proptest::prelude::*;

use par_exec::{chunk_ranges, parallel_map, ParallelConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parallel_map` produces exactly the sequential result, in order, for
    /// any thread count.
    #[test]
    fn parallel_map_equals_sequential(total in 0usize..500, threads in 1usize..16, salt in any::<u64>()) {
        let config = ParallelConfig::new(threads);
        let f = |i: usize| (i as u64).wrapping_mul(salt).wrapping_add(i as u64);
        let expected: Vec<u64> = (0..total).map(f).collect();
        prop_assert_eq!(parallel_map(&config, total, f), expected);
    }

    /// Chunking covers `0..total` exactly once with sizes differing by at most
    /// one, never yielding empty chunks.
    #[test]
    fn chunking_partitions_the_range(total in 0usize..10_000, parts in 0usize..64) {
        let chunks = chunk_ranges(total, parts);
        if total == 0 || parts == 0 {
            prop_assert!(chunks.is_empty());
        } else {
            prop_assert_eq!(chunks.len(), parts.min(total));
            let mut next = 0usize;
            let mut sizes = Vec::new();
            for c in &chunks {
                prop_assert_eq!(c.start, next);
                prop_assert!(!c.is_empty());
                sizes.push(c.len());
                next = c.end;
            }
            prop_assert_eq!(next, total);
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            prop_assert!(max - min <= 1);
        }
    }

    /// Worker count configuration is clamped but otherwise preserved.
    #[test]
    fn config_clamps_thread_count(threads in 0usize..256) {
        let config = ParallelConfig::new(threads);
        prop_assert_eq!(config.threads(), threads.max(1));
        prop_assert_eq!(config.is_sequential(), threads <= 1);
    }
}
