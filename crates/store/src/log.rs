//! The host-memory commit log (paper §4.1.1 step 3, §4.2 steps 5–7).
//!
//! Server-side SmartNICs append Log and Commit records to "a hugepage of
//! host memory reserved for logging" via DMA writes, and acknowledge the
//! coordinator once the DMA completes (the record is then durable under
//! the paper's battery-backed-DRAM assumption). Host-side Robinhood
//! worker threads poll the log, apply write sets to the primary/backup
//! tables off the critical path, and piggyback acks back to the NIC so it
//! can reclaim log space and unpin cache entries.
//!
//! The log is an in-order ring: entries carry monotonically increasing
//! LSNs; the host applies a prefix and acknowledges the highest applied
//! LSN; the NIC reclaims everything at or below the ack.

use crate::types::{Key, TxnId, Version, WritePayload};
use std::collections::VecDeque;
use std::sync::Arc;

/// An immutable write set shared by reference count: key, payload (full
/// value or delta), new version. The engine builds one per written shard
/// at the Log phase; the primary's commit request, every backup's log
/// request and the log entries they append all hold the same buffer, so
/// the fan-out to backups copies no payloads.
pub type SharedWrites = Arc<[(Key, WritePayload, Version)]>;

/// What a log record represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogKind {
    /// A backup-replica record written during the Log phase: the
    /// transaction's write set for one shard, applied to the backup table.
    Backup,
    /// A primary-side record written during Commit: the write set to
    /// apply to the primary table.
    Commit,
}

/// One appended record.
#[derive(Clone, Debug)]
pub struct LogEntry {
    /// Log sequence number (assigned by the log at append).
    pub lsn: u64,
    /// The committing transaction.
    pub txn: TxnId,
    /// Record kind.
    pub kind: LogKind,
    /// The shard whose table the writes target.
    pub shard: u32,
    /// Write set: key, payload (full value or delta), new version.
    pub writes: SharedWrites,
    /// Record size, summed once at append.
    bytes: u64,
}

impl LogEntry {
    /// On-wire / in-memory size of the record. Used for DMA sizing and
    /// ring occupancy.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Size of a record carrying `writes`: 32-byte header + 24 bytes per
/// write header + payloads.
fn record_bytes(writes: &[(Key, WritePayload, Version)]) -> u64 {
    32 + writes
        .iter()
        .map(|(_, p, _)| 8 + u64::from(p.wire_bytes()))
        .sum::<u64>()
}

/// Error: the ring is out of space until the host acks more entries.
/// Hands the rejected write set back, so a caller that must retry later
/// need not have kept a reference.
#[derive(Debug, PartialEq)]
pub struct LogFull(pub SharedWrites);

/// The host-memory commit log ring.
pub struct CommitLog {
    entries: VecDeque<LogEntry>,
    capacity_bytes: u64,
    used_bytes: u64,
    next_lsn: u64,
    /// Highest LSN handed to a worker (poll cursor).
    polled_lsn: u64,
    /// Highest LSN the host has acknowledged applying.
    acked_lsn: u64,
    appended: u64,
}

impl CommitLog {
    /// Creates a log ring with the given byte capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        CommitLog {
            entries: VecDeque::new(),
            capacity_bytes,
            used_bytes: 0,
            next_lsn: 1,
            polled_lsn: 0,
            acked_lsn: 0,
            appended: 0,
        }
    }

    /// Bytes currently occupied.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Total records appended over the log's lifetime.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Records appended but not yet acknowledged.
    pub fn outstanding(&self) -> usize {
        self.entries.len()
    }

    /// Appends a record (the NIC-side DMA write), assigning its LSN. A
    /// shared write set is kept by reference; a `Vec` is moved into one.
    pub fn append(
        &mut self,
        txn: TxnId,
        kind: LogKind,
        shard: u32,
        writes: impl Into<SharedWrites>,
    ) -> Result<u64, LogFull> {
        let writes = writes.into();
        let bytes = record_bytes(&writes);
        if self.used_bytes + bytes > self.capacity_bytes {
            return Err(LogFull(writes));
        }
        let lsn = self.next_lsn;
        self.used_bytes += bytes;
        self.next_lsn += 1;
        self.appended += 1;
        self.entries.push_back(LogEntry {
            lsn,
            txn,
            kind,
            shard,
            writes,
            bytes,
        });
        Ok(lsn)
    }

    /// Looks up a resident record by LSN in O(1).
    ///
    /// LSNs are contiguous in the ring — `append` assigns them
    /// sequentially and `ack_through` only reclaims from the front — so a
    /// record's position is its LSN offset from the front entry.
    pub fn get(&self, lsn: u64) -> Option<&LogEntry> {
        let front = self.entries.front()?;
        if lsn < front.lsn {
            return None;
        }
        let entry = self.entries.get((lsn - front.lsn) as usize)?;
        debug_assert_eq!(entry.lsn, lsn);
        Some(entry)
    }

    /// Hands the next unpolled record to a host worker, in LSN order.
    /// Returns a clone; the record stays resident until acked.
    pub fn poll_next(&mut self) -> Option<LogEntry> {
        let front_lsn = self.entries.front()?.lsn;
        let target = (self.polled_lsn + 1).max(front_lsn);
        let next = self.entries.get((target - front_lsn) as usize)?.clone();
        self.polled_lsn = next.lsn;
        Some(next)
    }

    /// Host acknowledges applying all records up to and including `lsn`;
    /// the ring reclaims their space. Each reclaimed entry is handed to
    /// `release` (so the NIC can unpin cache entries) without building a
    /// return vector — this runs once per applied batch on the hot path.
    pub fn ack_through_with(&mut self, lsn: u64, mut release: impl FnMut(&LogEntry)) {
        while let Some(front) = self.entries.front() {
            if front.lsn > lsn {
                break;
            }
            let e = self.entries.pop_front().expect("front exists");
            self.used_bytes -= e.bytes();
            release(&e);
        }
        self.acked_lsn = self.acked_lsn.max(lsn);
    }

    /// Collecting wrapper over [`CommitLog::ack_through_with`]: returns
    /// the reclaimed entries' `(txn, kind, keys)`.
    pub fn ack_through(&mut self, lsn: u64) -> Vec<(TxnId, LogKind, Vec<Key>)> {
        let mut released = Vec::new();
        self.ack_through_with(lsn, |e| {
            released.push((e.txn, e.kind, e.writes.iter().map(|w| w.0).collect()));
        });
        released
    }

    /// Unacknowledged records — what recovery scans (§4.2.1: "each node of
    /// the recovering shard scans its log for transactions that have not
    /// yet been acknowledged as committed").
    pub fn unacked(&self) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(n: u64) -> TxnId {
        TxnId::new(0, n)
    }

    fn writes(n: usize) -> Vec<(Key, WritePayload, Version)> {
        (0..n as u64)
            .map(|k| (k, WritePayload::Full(crate::types::Value::filled(12, 1)), 2))
            .collect()
    }

    #[test]
    fn append_assigns_increasing_lsns() {
        let mut log = CommitLog::new(1 << 20);
        let a = log.append(txn(1), LogKind::Backup, 0, writes(1)).unwrap();
        let b = log.append(txn(2), LogKind::Commit, 0, writes(1)).unwrap();
        assert!(b > a);
        assert_eq!(log.appended(), 2);
        assert_eq!(log.outstanding(), 2);
    }

    #[test]
    fn poll_returns_in_order_once_each() {
        let mut log = CommitLog::new(1 << 20);
        for i in 0..3 {
            log.append(txn(i), LogKind::Backup, 0, writes(1)).unwrap();
        }
        let l1 = log.poll_next().unwrap();
        let l2 = log.poll_next().unwrap();
        let l3 = log.poll_next().unwrap();
        assert!(log.poll_next().is_none());
        assert!(l1.lsn < l2.lsn && l2.lsn < l3.lsn);
    }

    #[test]
    fn ack_reclaims_space_and_reports_keys() {
        let mut log = CommitLog::new(1 << 20);
        let a = log.append(txn(1), LogKind::Commit, 0, writes(2)).unwrap();
        let b = log.append(txn(2), LogKind::Commit, 0, writes(1)).unwrap();
        let used = log.used_bytes();
        assert!(used > 0);
        let released = log.ack_through(a);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].0, txn(1));
        assert_eq!(released[0].2, vec![0, 1]);
        assert!(log.used_bytes() < used);
        log.ack_through(b);
        assert_eq!(log.used_bytes(), 0);
        assert_eq!(log.outstanding(), 0);
    }

    #[test]
    fn full_ring_rejects_until_acked() {
        let entry_bytes = record_bytes(&writes(1));
        let mut log = CommitLog::new(entry_bytes * 2);
        let a = log.append(txn(1), LogKind::Backup, 0, writes(1)).unwrap();
        log.append(txn(2), LogKind::Backup, 0, writes(1)).unwrap();
        // The rejected write set comes back to the caller intact.
        assert_eq!(
            log.append(txn(3), LogKind::Backup, 0, writes(1)),
            Err(LogFull(writes(1).into()))
        );
        log.ack_through(a);
        assert!(log.append(txn(3), LogKind::Backup, 0, writes(1)).is_ok());
    }

    #[test]
    fn unacked_supports_recovery_scan() {
        let mut log = CommitLog::new(1 << 20);
        let a = log.append(txn(1), LogKind::Commit, 0, writes(1)).unwrap();
        log.append(txn(2), LogKind::Commit, 0, writes(1)).unwrap();
        log.poll_next();
        log.poll_next();
        log.ack_through(a);
        let pending: Vec<_> = log.unacked().map(|e| e.txn).collect();
        assert_eq!(pending, vec![txn(2)]);
    }

    #[test]
    fn entry_size_accounts_payload() {
        let mut log = CommitLog::new(1 << 20);
        let full = vec![(9, WritePayload::Full(crate::types::Value::filled(100, 0)), 1)];
        let a = log.append(txn(1), LogKind::Backup, 3, full).unwrap();
        assert_eq!(log.get(a).unwrap().bytes(), 32 + 8 + 16 + 100);
        let delta = vec![(9, WritePayload::AddI64(-5), 1)];
        let b = log.append(txn(1), LogKind::Commit, 3, delta).unwrap();
        assert_eq!(log.get(b).unwrap().bytes(), 32 + 8 + 20);
        assert_eq!(log.used_bytes(), (32 + 8 + 16 + 100) + (32 + 8 + 20));
    }
}
