//! Pool configuration: team size and telemetry.

/// Configuration for [`crate::ThreadPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Team size, including the caller's thread (≥ 1).
    pub threads: usize,
    /// Collect telemetry: per-worker execution counters
    /// ([`pram_core::ExecStats`]: barrier waits, loop grabs) and
    /// per-round concurrent-write counters ([`pram_core::CwTelemetry`]):
    /// each worker records its claim outcomes into a cache-padded shard,
    /// and [`crate::WorkerCtx::converge_rounds`] snapshots the merged
    /// counters at every round's closing barrier into a
    /// [`pram_core::RoundReport`]. Off by default: recording costs one
    /// branch on the hot paths when disabled. The claim counters stay
    /// zero when the `telemetry` feature is disabled; the execution
    /// counters do not depend on the feature.
    pub telemetry: bool,
}

impl PoolConfig {
    /// A team of `threads` without telemetry.
    pub fn new(threads: usize) -> PoolConfig {
        PoolConfig {
            threads,
            ..PoolConfig::default()
        }
    }

    /// Enable or disable telemetry (execution and claim counters).
    pub fn telemetry(mut self, on: bool) -> PoolConfig {
        self.telemetry = on;
        self
    }
}

impl Default for PoolConfig {
    /// One thread per available core, no telemetry.
    fn default() -> PoolConfig {
        PoolConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            telemetry: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = PoolConfig::new(7).telemetry(true);
        assert_eq!(c.threads, 7);
        assert!(c.telemetry);
    }

    #[test]
    fn default_has_positive_team_and_no_telemetry() {
        let c = PoolConfig::default();
        assert!(c.threads >= 1);
        assert!(!c.telemetry);
    }
}
