//! Transaction history capture.
//!
//! A [`History`] is the checker's entire view of a run: for each
//! transaction attempt, the keys it read with the versions it observed,
//! the keys it wrote with the versions it installed, and whether the
//! attempt committed. Engines note reads/writes as the evidence passes
//! through their commit paths and mark the commit exactly at the point
//! the protocol makes the outcome durable (all log acks in hand); the
//! verifier looks only at committed transactions, so notes from attempts
//! that later abort are inert.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use xenic_store::{Key, TxnId, Version};

/// What one transaction attempt did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TxnRecord {
    /// Key → version observed by the read. Last note wins (re-noting the
    /// same key is idempotent; engines may note a read from more than
    /// one vantage point of the same protocol evidence).
    pub reads: BTreeMap<Key, Version>,
    /// Key → version installed by the write.
    pub writes: BTreeMap<Key, Version>,
    /// Predicate (range) reads: each entry is the half-open evidence of a
    /// scan — the requested low bound and the highest key the walk
    /// actually covered (`hi_obs`). Every committed key the scan saw in
    /// `[lo, hi_obs]` also appears in `reads` as an item read; the pair
    /// lets the verifier detect *phantoms*: keys another transaction
    /// inserted into the range that this scan never observed. A set, so
    /// the record does not depend on the order the notes arrived in.
    pub predicates: BTreeSet<(Key, Key)>,
    /// True once the engine reached its commit point for this attempt.
    pub committed: bool,
}

/// A full recorded history. `BTreeMap` keyed by [`TxnId`] keeps iteration
/// deterministic, so verifier output (witness cycles included) is
/// reproducible byte for byte.
///
/// The history is *order-free*: every note lands in a map or set keyed
/// by what it says (transaction, key, range), so notes from different
/// nodes commute and two runs that note the same evidence produce equal
/// histories however their schedulers interleaved the nodes. (Notes about
/// one key of one transaction from two nodes carry the same version and
/// are causally ordered — the second node acts on a message from the
/// first — so "last note wins" never has to break a tie.) That is what
/// lets a recorded run use the lane scheduler.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct History {
    txns: BTreeMap<TxnId, TxnRecord>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes that `txn` read `key` and observed `version`.
    pub fn note_read(&mut self, txn: TxnId, key: Key, version: Version) {
        self.txns.entry(txn).or_default().reads.insert(key, version);
    }

    /// Notes that `txn` wrote `key`, installing `version`.
    pub fn note_write(&mut self, txn: TxnId, key: Key, version: Version) {
        self.txns.entry(txn).or_default().writes.insert(key, version);
    }

    /// Notes that `txn` scanned the range `[lo, hi_obs]`. Idempotent per
    /// distinct range, so engines may note the evidence from more than
    /// one vantage point.
    pub fn note_scan(&mut self, txn: TxnId, lo: Key, hi_obs: Key) {
        self.txns.entry(txn).or_default().predicates.insert((lo, hi_obs));
    }

    /// Marks `txn` committed.
    pub fn commit(&mut self, txn: TxnId) {
        self.txns.entry(txn).or_default().committed = true;
    }

    /// Convenience for building histories by hand (tests, the oracle's
    /// own tests): records reads + writes and commits in one call.
    pub fn push(&mut self, txn: TxnId, reads: &[(Key, Version)], writes: &[(Key, Version)]) {
        for &(k, v) in reads {
            self.note_read(txn, k, v);
        }
        for &(k, v) in writes {
            self.note_write(txn, k, v);
        }
        self.commit(txn);
    }

    /// Iterates the committed transactions in [`TxnId`] order.
    pub fn committed(&self) -> impl Iterator<Item = (TxnId, &TxnRecord)> {
        self.txns
            .iter()
            .filter(|(_, r)| r.committed)
            .map(|(t, r)| (*t, r))
    }

    /// Number of committed transactions.
    pub fn committed_count(&self) -> usize {
        self.txns.values().filter(|r| r.committed).count()
    }

    /// Total attempts recorded (committed or not).
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }
}

/// Shared handle to a [`History`] under construction.
///
/// Every node of a cluster holds a clone of the same recorder and the
/// harness snapshots it after the run. The handle is an `Arc<Mutex<..>>`:
/// on the lane scheduler the nodes of different lanes note into it from
/// different worker threads, and because [`History`] is order-free the
/// snapshot is the same whichever thread got the lock first.
#[derive(Clone, Default)]
pub struct HistoryRecorder(Arc<Mutex<History>>);

impl HistoryRecorder {
    /// A recorder over a fresh empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes a single read.
    pub fn note_read(&self, txn: TxnId, key: Key, version: Version) {
        self.0.lock().unwrap().note_read(txn, key, version);
    }

    /// Notes a batch of reads.
    pub fn note_reads(&self, txn: TxnId, reads: impl IntoIterator<Item = (Key, Version)>) {
        let mut h = self.0.lock().unwrap();
        for (k, v) in reads {
            h.note_read(txn, k, v);
        }
    }

    /// Notes a single write.
    pub fn note_write(&self, txn: TxnId, key: Key, version: Version) {
        self.0.lock().unwrap().note_write(txn, key, version);
    }

    /// Notes a batch of writes.
    pub fn note_writes(&self, txn: TxnId, writes: impl IntoIterator<Item = (Key, Version)>) {
        let mut h = self.0.lock().unwrap();
        for (k, v) in writes {
            h.note_write(txn, k, v);
        }
    }

    /// Notes a single predicate (range) read.
    pub fn note_scan(&self, txn: TxnId, lo: Key, hi_obs: Key) {
        self.0.lock().unwrap().note_scan(txn, lo, hi_obs);
    }

    /// Notes a batch of predicate reads.
    pub fn note_scans(&self, txn: TxnId, scans: impl IntoIterator<Item = (Key, Key)>) {
        let mut h = self.0.lock().unwrap();
        for (lo, hi) in scans {
            h.note_scan(txn, lo, hi);
        }
    }

    /// Marks `txn` committed.
    pub fn commit(&self, txn: TxnId) {
        self.0.lock().unwrap().commit(txn);
    }

    /// Clones the history recorded so far.
    pub fn snapshot(&self) -> History {
        self.0.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_filters_committed() {
        let mut h = History::new();
        let a = TxnId::new(0, 1);
        let b = TxnId::new(1, 1);
        h.note_read(a, 10, 1);
        h.note_write(a, 11, 2);
        h.commit(a);
        h.note_read(b, 10, 1); // never committed
        assert_eq!(h.len(), 2);
        assert_eq!(h.committed_count(), 1);
        let only: Vec<_> = h.committed().collect();
        assert_eq!(only.len(), 1);
        assert_eq!(only[0].0, a);
        assert_eq!(only[0].1.writes.get(&11), Some(&2));
    }

    #[test]
    fn renote_is_last_wins() {
        let mut h = History::new();
        let a = TxnId::new(0, 1);
        h.note_read(a, 5, 1);
        h.note_read(a, 5, 1);
        h.commit(a);
        assert_eq!(h.committed().next().unwrap().1.reads.len(), 1);
    }

    #[test]
    fn recorder_is_shared() {
        let r = HistoryRecorder::new();
        let r2 = r.clone();
        r.note_write(TxnId::new(0, 1), 7, 1);
        r2.commit(TxnId::new(0, 1));
        let snap = r.snapshot();
        assert_eq!(snap.committed_count(), 1);
    }
}
