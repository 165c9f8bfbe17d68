//! Pool configuration: team size and telemetry.

/// Configuration for [`crate::ThreadPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Team size, including the caller's thread (≥ 1).
    pub threads: usize,
    /// Collect telemetry into one cache-padded [`pram_core::CwTelemetry`]
    /// shard per worker: claim outcomes ([`pram_core::CwCounters`]) and
    /// execution events ([`pram_core::ExecCounters`]: barrier waits, loop
    /// grabs). [`crate::WorkerCtx::converge_rounds`] sums the shards inside
    /// its opening rendezvous and each round's closing one, logging the
    /// rounds' deltas into a [`pram_core::RoundReport`]. Off by default: a
    /// pool without telemetry pays one branch per barrier and per dynamic
    /// grab, and no atomic traffic.
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
