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
    /// Every field restarts from `Default` in one statement, so a counter
    /// added later cannot be missed; the histogram it builds is one
    /// allocation per node per run, made before the window opens.
    pub fn start_measuring(&mut self, now: SimTime) {
        *self = NodeStats {
            measuring: true,
            ..NodeStats::default()
        };
        self.committed.restart(now);
    }

    /// Adds `other`'s counts and latency samples to these.
    pub fn merge(&mut self, other: &NodeStats) {
        self.committed.mark(other.committed.events());
        self.latency.merge(&other.latency);
        for (sum, add) in [
            (&mut self.committed_all, other.committed_all),
            (&mut self.aborted, other.aborted),
            (&mut self.local_fast_path, other.local_fast_path),
            (&mut self.nic_executed, other.nic_executed),
            (&mut self.multihop, other.multihop),
            (&mut self.range_walks, other.range_walks),
            (&mut self.scan_rows, other.scan_rows),
            (&mut self.raft_elections, other.raft_elections),
            (&mut self.raft_nacks, other.raft_nacks),
            (&mut self.hermes_invalidations, other.hermes_invalidations),
            (&mut self.hermes_validations, other.hermes_validations),
            (&mut self.log_ship_writes, other.log_ship_writes),
            (&mut self.cxl_log_writes, other.cxl_log_writes),
        ] {
            sum.add(add.get());
        }
    }

    /// The sum of every node's counters and latency samples.
    pub fn total<'a>(all: impl IntoIterator<Item = &'a NodeStats>) -> NodeStats {
        let mut total = NodeStats::default();
        for s in all {
            total.merge(s);
        }
        total
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
    fn start_measuring_resets_every_counter_and_sample() {
        let mut s = NodeStats::default();
        s.start_measuring(SimTime::ZERO);
        s.record_commit(true, SimTime::ZERO, SimTime::from_us(2));
        s.raft_elections.inc();
        s.hermes_validations.add(2);
        s.cxl_log_writes.add(3);
        s.start_measuring(SimTime::from_ms(1));
        let mut zero = NodeStats::default();
        zero.start_measuring(SimTime::from_ms(1));
        let fields = |s: &NodeStats| {
            let mut t = NodeStats::default();
            t.merge(s);
            (
                t.committed.events(),
                t.committed_all.get(),
                t.raft_elections.get(),
                t.hermes_validations.get(),
                t.cxl_log_writes.get(),
                t.latency.count(),
            )
        };
        assert_eq!(fields(&s), fields(&zero));
        assert_eq!(s.committed.rate_per_sec(SimTime::from_ms(2)), 0.0);
    }

    #[test]
    fn merge_sums_counters_and_samples() {
        let mut a = NodeStats::default();
        a.start_measuring(SimTime::ZERO);
        a.record_commit(true, SimTime::ZERO, SimTime::from_us(1));
        a.record_abort();
        a.scan_rows.add(4);
        let mut b = NodeStats::default();
        b.start_measuring(SimTime::ZERO);
        b.record_commit(true, SimTime::ZERO, SimTime::from_us(3));
        b.record_commit(false, SimTime::ZERO, SimTime::from_us(3));
        b.scan_rows.add(5);
        let t = NodeStats::total([&a, &b]);
        assert_eq!(t.committed.events(), 2);
        assert_eq!(t.committed_all.get(), 3);
        assert_eq!(t.aborted.get(), 1);
        assert_eq!(t.scan_rows.get(), 9);
        assert_eq!(
            (t.latency.count(), t.latency.min(), t.latency.max()),
            (2, 1_000, 3_000)
        );
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
