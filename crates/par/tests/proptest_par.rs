//! Property-based tests for the parallel execution substrate: results must be
//! identical to the sequential reference for every thread count and workload
//! size.

use proptest::prelude::*;

use par_exec::{parallel_map, ParallelConfig};

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

    /// Worker count configuration is clamped but otherwise preserved.
    #[test]
    fn config_clamps_thread_count(threads in 0usize..256) {
        let config = ParallelConfig::new(threads);
        prop_assert_eq!(config.threads(), threads.max(1));
        prop_assert_eq!(config.is_sequential(), threads <= 1);
    }
}
