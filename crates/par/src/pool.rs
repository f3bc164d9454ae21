//! Worker-count configuration.

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

    /// Reads the worker count from the `NETUNCERT_THREADS` environment
    /// variable, falling back to the machine parallelism when unset or invalid.
    pub fn from_env() -> Self {
        match std::env::var("NETUNCERT_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) if n >= 1 => ParallelConfig::new(n),
            _ => ParallelConfig::default(),
        }
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
