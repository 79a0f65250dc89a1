//! Per-node protocol statistics.

use xenic_sim::{Counter, Histogram, Meter, SimTime};

/// Counters and distributions one node accumulates during a run.
#[derive(Default)]
pub struct NodeStats {
    /// Committed metric transactions (e.g. TPC-C new orders) — the
    /// numerator of reported throughput.
    pub committed: Meter,
    /// All committed transactions, metric or not.
    pub committed_all: Counter,
    /// Aborted attempts (each retry that fails counts once).
    pub aborted: Counter,
    /// End-to-end latency of committed metric transactions, ns.
    pub latency: Histogram,
    /// Local-fast-path transactions (no network involved).
    pub local_fast_path: Counter,
    /// Transactions executed via NIC function shipping.
    pub nic_executed: Counter,
    /// Transactions committed via the multi-hop pattern.
    pub multihop: Counter,
    /// Range walks served by the NIC-resident ordered index (Execute
    /// phase; Validate re-walks are not counted).
    pub range_walks: Counter,
    /// Rows returned by those walks.
    pub scan_rows: Counter,
    /// Raft-style backend: term bumps this coordinator initiated after
    /// an unresponsive leader (re-elections).
    pub raft_elections: Counter,
    /// Raft-style backend: stale-term appends refused by a leader.
    pub raft_nacks: Counter,
    /// Hermes-style backend: invalidation messages applied at backups.
    pub hermes_invalidations: Counter,
    /// Hermes-style backend: validation messages applied at backups.
    pub hermes_validations: Counter,
    /// Commit-log records shipped to a replica's host memory over the
    /// DMA engine (primary appends + backup appends). Zero by contract
    /// on the CXL substrate (DESIGN.md §17).
    pub log_ship_writes: Counter,
    /// Commit-log records written once into the shared CXL pool instead
    /// of being DMA-shipped. Zero on every other substrate.
    pub cxl_log_writes: Counter,
    /// Whether measurement is active (set after warmup; latency and
    /// committed are only recorded while true).
    pub measuring: bool,
}

impl NodeStats {
    /// Starts the measurement window at `now`, discarding warmup data.
    pub fn start_measuring(&mut self, now: SimTime) {
        self.measuring = true;
        self.committed.restart(now);
        self.latency.clear();
        self.aborted = Counter::new();
        self.committed_all = Counter::new();
        self.local_fast_path = Counter::new();
        self.nic_executed = Counter::new();
        self.multihop = Counter::new();
        self.range_walks = Counter::new();
        self.scan_rows = Counter::new();
        self.raft_elections = Counter::new();
        self.raft_nacks = Counter::new();
        self.hermes_invalidations = Counter::new();
        self.hermes_validations = Counter::new();
        self.log_ship_writes = Counter::new();
        self.cxl_log_writes = Counter::new();
    }

    /// Records a committed transaction: its latency is the span from
    /// the first attempt's start to `now`.
    pub fn record_commit(&mut self, metric: bool, started: SimTime, now: SimTime) {
        if !self.measuring {
            return;
        }
        self.committed_all.inc();
        if metric {
            self.committed.mark(1);
            self.latency.record(now.since(started));
        }
    }

    /// Records an abort.
    pub fn record_abort(&mut self) {
        if self.measuring {
            self.aborted.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_data_discarded() {
        let mut s = NodeStats::default();
        // Pre-measurement commits are ignored.
        s.record_commit(true, SimTime::ZERO, SimTime::from_us(5));
        assert_eq!(s.latency.count(), 0);
        s.start_measuring(SimTime::from_ms(1));
        s.record_commit(true, SimTime::from_ms(1), SimTime::from_ms(1) + 3_000);
        assert_eq!(s.latency.count(), 1);
        assert_eq!(s.committed.events(), 1);
    }

    #[test]
    fn non_metric_commits_counted_separately() {
        let mut s = NodeStats::default();
        s.start_measuring(SimTime::ZERO);
        s.record_commit(false, SimTime::ZERO, SimTime::from_us(1));
        assert_eq!(s.committed.events(), 0);
        assert_eq!(s.committed_all.get(), 1);
        assert_eq!(s.latency.count(), 0);
    }

    #[test]
    fn start_measuring_resets_mix_counters() {
        // The path-mix counters (fast-path / NIC-executed / multihop) are
        // incremented unconditionally by the engine, so the measurement
        // window must drop whatever warmup accumulated — otherwise the
        // reported mix fractions are skewed by warmup traffic.
        let mut s = NodeStats::default();
        s.local_fast_path.add(7);
        s.nic_executed.add(11);
        s.multihop.add(13);
        s.aborted.add(3);
        s.committed_all.add(5);
        s.start_measuring(SimTime::from_ms(1));
        assert_eq!(s.local_fast_path.get(), 0);
        assert_eq!(s.nic_executed.get(), 0);
        assert_eq!(s.multihop.get(), 0);
        assert_eq!(s.aborted.get(), 0);
        assert_eq!(s.committed_all.get(), 0);
    }

    #[test]
    fn commit_latency_is_the_scheduled_span() {
        let mut s = NodeStats::default();
        s.start_measuring(SimTime::ZERO);
        s.record_commit(true, SimTime::ZERO + 500, SimTime::ZERO + 3_500);
        // The sample is exactly now - started.
        assert_eq!(s.latency.count(), 1);
        assert_eq!(s.latency.mean(), 3_000.0);
        assert_eq!(s.committed.events(), 1);
        assert_eq!(s.committed_all.get(), 1);
    }

    #[test]
    fn aborts_only_while_measuring() {
        let mut s = NodeStats::default();
        s.record_abort();
        assert_eq!(s.aborted.get(), 0);
        s.start_measuring(SimTime::ZERO);
        s.record_abort();
        assert_eq!(s.aborted.get(), 1);
    }
}
