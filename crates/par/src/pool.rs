//! Worker-count configuration.

use std::sync::OnceLock;

/// Number of worker threads the current machine can usefully run.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Configuration of the [`parallel_map`](crate::parallel_map) pool: how many
/// worker threads to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    threads: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: available_parallelism(),
        }
    }
}

impl ParallelConfig {
    /// A configuration with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.max(1),
        }
    }

    /// The worker count named by the `NETUNCERT_THREADS` environment
    /// variable, falling back to the machine parallelism when unset or
    /// invalid. Both are read once per process and remembered, so one
    /// process never splits its work across different pool sizes and
    /// repeated calls cost no environment or cgroup probe.
    pub fn from_env() -> Self {
        static THREADS: OnceLock<usize> = OnceLock::new();
        ParallelConfig::new(*THREADS.get_or_init(|| {
            match std::env::var("NETUNCERT_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
            {
                Some(n) if n >= 1 => n,
                _ => available_parallelism(),
            }
        }))
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether the configuration is effectively sequential.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_clamped_to_one() {
        assert_eq!(ParallelConfig::new(0).threads(), 1);
        assert!(ParallelConfig::new(0).is_sequential());
        assert_eq!(ParallelConfig::new(8).threads(), 8);
    }

    #[test]
    fn default_uses_machine_parallelism() {
        assert_eq!(ParallelConfig::default().threads(), available_parallelism());
        assert!(available_parallelism() >= 1);
    }
}
