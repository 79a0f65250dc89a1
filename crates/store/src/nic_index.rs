//! The SmartNIC caching index (paper §4.1.3).
//!
//! NIC DRAM holds, per host-table segment, an *index entry* with:
//!
//! * a cache of hot objects homed in that segment (value + version),
//! * the cached **version** of objects touched by ongoing transactions,
//! * the highest known displacement `d_i` of objects homed in the
//!   segment, plus an overflow-page flag — the hints that let a cache
//!   miss be served with a single bounded DMA read, and
//! * a pin count per object: write-set objects stay pinned from Commit
//!   until the host applies the log, so NIC lookups never return a stale
//!   object (§4.2 step 6).
//!
//! **Locks** still live *only* in NIC memory (§4.2.1: "lock state is
//! maintained in only one location (SmartNIC memory) and rebuilt upon
//! recovery") — as one small table of the locks currently *held*, not a
//! field per record: a scanned row or a validated read learns "unlocked"
//! from a table of a few dozen entries without touching the object's
//! record at all.
//!
//! Each entry keeps its first few records inline (a segment homes ~2.6
//! objects at the provisioned occupancy) and spills to a heap page beyond
//! that; a global NIC-memory budget drives clock eviction of unpinned,
//! unlocked, value-holding records.
//!
//! Beside the per-segment entries sits the NIC-resident **ordered
//! mirror** that range scans walk (DESIGN.md §14): a B+tree of every
//! committed key, fronted by a bounded version write buffer so that a
//! point write to an existing key never descends the tree.

use std::collections::hash_map::Entry;

use xenic_sim::{FastMap, SmallVec};

use crate::btree::BTree;
use crate::types::{Key, LockState, TxnId, Value, Version, WritePayload};

/// Configuration for a [`NicIndex`].
#[derive(Clone, Debug)]
pub struct NicIndexConfig {
    /// Number of host-table segments (one index entry each).
    pub segments: usize,
    /// Global budget of cached *values* (NIC DRAM is small; §4.3.3).
    pub max_cached_values: usize,
    /// The paper's `k`: extra slots read beyond `d_i` to tolerate hint
    /// staleness (set to 1 from experimentation, §4.1.3).
    pub slack_k: u32,
}

impl Default for NicIndexConfig {
    fn default() -> Self {
        NicIndexConfig {
            segments: 128,
            max_cached_values: 1 << 16,
            slack_k: 1,
        }
    }
}

/// Records an index entry holds inline before spilling to the heap.
const INLINE_RECORDS: usize = 3;

/// Committed version bumps the ordered mirror buffers before writing
/// them into the tree in one key-ordered pass. Small enough that the
/// buffer stays cache-resident for the per-row probe range walks make.
const WRITE_BUFFER_CAP: usize = 1024;

/// One object's record inside an index entry.
#[derive(Clone, Debug)]
struct ObjRecord {
    key: Key,
    /// Cached value, if NIC memory holds one.
    value: Option<Value>,
    /// Cached version (meaningful when `value.is_some()` or the object is
    /// mid-transaction).
    version: Version,
    /// Commit pins: > 0 means the host has not yet applied this object's
    /// latest committed write, so the record must not be evicted.
    pins: u32,
    /// True once a version has been learned for this object (execute-phase
    /// reads note versions so Validate is NIC-local).
    has_version: bool,
    /// Clock-eviction reference bit.
    referenced: bool,
    /// The key is known to be a *committed* member of the ordered mirror
    /// (learned from preload, from a commit, or from one tree probe), so
    /// locking it is an update, not an insert, and its version bumps may
    /// be buffered. Never set for a pending insert; never goes stale,
    /// because committed keys are never removed from the mirror.
    in_ordered: bool,
}

/// One per host-table segment.
#[derive(Clone, Debug, Default)]
struct IndexEntry {
    /// Known displacement hint for the segment.
    d_i: u32,
    /// Whether the segment has an overflow page on the host.
    has_overflow: bool,
    records: SmallVec<ObjRecord, INLINE_RECORDS>,
}

impl IndexEntry {
    fn record(&self, key: Key) -> Option<&ObjRecord> {
        self.records.iter().find(|r| r.key == key)
    }

    fn record_mut(&mut self, key: Key) -> Option<&mut ObjRecord> {
        self.records.iter_mut().find(|r| r.key == key)
    }

    fn ensure_record(&mut self, key: Key) -> &mut ObjRecord {
        let idx = match self.records.iter().position(|r| r.key == key) {
            Some(i) => i,
            None => {
                self.records.push(ObjRecord {
                    key,
                    value: None,
                    version: 0,
                    pins: 0,
                    has_version: false,
                    referenced: true,
                    in_ordered: false,
                });
                self.records.len() - 1
            }
        };
        &mut self.records[idx]
    }
}

/// Result of a NIC-side lookup.
#[derive(Clone, Debug)]
pub enum NicLookup {
    /// Served from NIC memory — no PCIe access (the "hot object" path).
    Hit {
        /// The cached value.
        value: Value,
        /// Its cached version.
        version: Version,
    },
    /// Not cached: the caller must issue a DMA read planned with these
    /// hints (see [`crate::robinhood::RobinhoodTable::dma_lookup`]).
    Miss {
        /// The segment's displacement hint `d_i`.
        d_hint: u32,
        /// The configured slack `k`.
        slack: u32,
        /// Whether the segment has a host-side overflow page.
        has_overflow: bool,
    },
}

/// Cache/index statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Lookups served from NIC memory.
    pub hits: u64,
    /// Lookups requiring a DMA read.
    pub misses: u64,
    /// Values evicted under memory pressure.
    pub evictions: u64,
}

/// The NIC-resident ordered index: every committed key homed at this
/// node, in key order, mapped to its last committed version. Range scans
/// walk the tree (metered per node visit, like
/// `RobinhoodTable::get_traced` meters point reads) instead of the
/// unordered host table. In-flight inserts appear as sentinels so a
/// concurrent scan detects the phantom before it commits.
///
/// Invariants:
/// * the tree's version of a key is authoritative *unless* `buffer`
///   holds the key, in which case the buffered version is newer;
/// * every buffered key is a committed member of the tree (so flushing
///   replaces versions in place and never changes the tree's shape);
/// * a pending key is in the tree (as a sentinel) but never in `buffer`.
struct OrderedMirror {
    tree: BTree<Version>,
    /// Owners of in-flight inserts: keys locked by a transaction that
    /// did not exist before it — present in `tree` as sentinels,
    /// retracted on abort, promoted to committed on commit.
    pending: FastMap<Key, TxnId>,
    /// Committed version bumps of existing keys not yet written into
    /// `tree`; at most [`WRITE_BUFFER_CAP`] entries.
    buffer: FastMap<Key, Version>,
    /// Flush scratch, kept so a flush allocates nothing.
    flush_scratch: Vec<(Key, Version)>,
}

impl OrderedMirror {
    fn new() -> Self {
        OrderedMirror {
            tree: BTree::new(),
            pending: FastMap::default(),
            buffer: FastMap::with_capacity_and_hasher(WRITE_BUFFER_CAP, Default::default()),
            flush_scratch: Vec::with_capacity(WRITE_BUFFER_CAP),
        }
    }

    /// `key` was just locked by `txn` and is not known to be a member:
    /// probe the tree once. Returns true if the key is committed;
    /// otherwise this is an insert in flight, and a sentinel is
    /// registered so any concurrent range walk over an interval
    /// containing `key` sees the phantom and refuses/aborts instead of
    /// missing it.
    fn lock_probe(&mut self, key: Key, txn: TxnId) -> bool {
        if self.tree.get(key).is_some() {
            return true;
        }
        self.tree.insert(key, 0);
        self.pending.insert(key, txn);
        false
    }

    /// `key`'s lock was released: an insert still pending at that point
    /// aborted (a commit would have promoted the sentinel first), so
    /// retract it.
    fn unlock(&mut self, key: Key) {
        if self.pending.remove(&key).is_some() {
            self.tree.remove(key);
        }
    }

    /// A write committed: `key` is now (or remains) a committed member
    /// at `version`; any insert sentinel it carried is promoted.
    /// `member` is the record's membership bit (false if unknown).
    fn commit(&mut self, member: bool, key: Key, version: Version) {
        // A buffered key is a member whose record forgot the bit.
        if member || self.buffer.contains_key(&key) {
            self.buffer.insert(key, version);
            if self.buffer.len() >= WRITE_BUFFER_CAP {
                self.flush();
            }
        } else {
            self.pending.remove(&key);
            self.tree.insert(key, version);
        }
    }

    /// Writes the buffered versions into the tree in key order (one
    /// sorted pass shares the upper levels between neighbours).
    fn flush(&mut self) {
        self.flush_scratch.extend(self.buffer.drain());
        self.flush_scratch.sort_unstable_by_key(|&(k, _)| k);
        for (key, version) in self.flush_scratch.drain(..) {
            *self
                .tree
                .get_mut(key)
                .expect("a buffered key is a committed tree member") = version;
        }
    }

    /// Every in-flight insert dies with its lock: retract the sentinels
    /// (sorted, so the rebuilt tree shape is deterministic regardless of
    /// hash-map iteration order).
    fn retract_all_pending(&mut self) {
        let mut aborted: Vec<Key> = self.pending.drain().map(|(k, _)| k).collect();
        aborted.sort_unstable();
        for key in aborted {
            self.tree.remove(key);
        }
    }

    /// The one walk: `f(key, version, visits)` for every row a walker on
    /// behalf of `exclude` sees — committed keys at their current version,
    /// other transactions' pending inserts as `None`, its own skipped.
    fn walk<F>(&self, lo: Key, hi: Key, exclude: Option<TxnId>, f: &mut F) -> usize
    where
        F: FnMut(Key, Option<Version>, usize) -> bool,
    {
        self.tree.range_visit_counted(lo, hi, &mut |k, v, visits| {
            if let Some(owner) = self.pending.get(&k) {
                return Some(*owner) == exclude || f(k, None, visits);
            }
            f(k, Some(self.buffer.get(&k).copied().unwrap_or(*v)), visits)
        })
    }
}

/// One row of a collected range walk ([`NicIndex::collect_rows`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanRow {
    /// The row's key.
    pub key: Key,
    /// Its committed version, or `None` for another transaction's
    /// in-flight insert sentinel.
    pub version: Option<Version>,
    /// Tree nodes visited up to and including this row's leaf: what
    /// [`NicIndex::range_walk`] returns when its visitor stops here.
    pub visits: usize,
}

/// The SmartNIC caching index.
pub struct NicIndex {
    cfg: NicIndexConfig,
    entries: Vec<IndexEntry>,
    /// The locks currently held: key → owner. Every held key also has a
    /// record (created at lock time, exempt from eviction and collection
    /// while held), which keeps record order — and so clock-eviction
    /// victims — independent of where lock state is stored.
    held: FastMap<Key, TxnId>,
    cached_values: usize,
    clock_hand: usize,
    stats: IndexStats,
    ordered: OrderedMirror,
}

impl NicIndex {
    /// Creates an index with one (empty) entry per segment.
    pub fn new(cfg: NicIndexConfig) -> Self {
        assert!(cfg.segments > 0);
        NicIndex {
            entries: vec![IndexEntry::default(); cfg.segments],
            held: FastMap::default(),
            cached_values: 0,
            clock_hand: 0,
            stats: IndexStats::default(),
            ordered: OrderedMirror::new(),
            cfg,
        }
    }

    /// Pre-sizes the held-lock table for `locks` simultaneously held
    /// locks, so the lock path does not rehash mid-run.
    pub fn reserve_locks(&mut self, locks: usize) {
        self.held.reserve(locks);
    }

    /// Current capacity of the held-lock table (for no-growth checks).
    pub fn lock_capacity(&self) -> usize {
        self.held.capacity()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Currently cached values.
    pub fn cached_values(&self) -> usize {
        self.cached_values
    }

    /// Configured slack `k`.
    pub fn slack(&self) -> u32 {
        self.cfg.slack_k
    }

    /// True if `key`'s value is cached (no stats side effects) — used by
    /// the multi-hop gate: shipping execution away only pays off when the
    /// coordinator's local part resolves without PCIe.
    pub fn peek_cached(&self, segment: usize, key: Key) -> bool {
        self.entries[segment]
            .record(key)
            .is_some_and(|r| r.value.is_some())
    }

    /// Looks up `key` (homed in `segment`) in NIC memory.
    pub fn lookup(&mut self, segment: usize, key: Key) -> NicLookup {
        let e = &mut self.entries[segment];
        if let Some(r) = e.record_mut(key) {
            if let Some(v) = &r.value {
                r.referenced = true;
                self.stats.hits += 1;
                return NicLookup::Hit {
                    value: v.clone(),
                    version: r.version,
                };
            }
        }
        self.stats.misses += 1;
        NicLookup::Miss {
            d_hint: e.d_i,
            slack: self.cfg.slack_k,
            has_overflow: e.has_overflow,
        }
    }

    /// Makes room for one more cached value in `segment` unless `key`
    /// already holds one.
    fn make_room(&mut self, segment: usize, key: Key) {
        if !self.peek_cached(segment, key) && self.cached_values >= self.cfg.max_cached_values {
            self.evict_one();
        }
    }

    /// Installs a value fetched by DMA (or committed) into the cache,
    /// evicting under memory pressure.
    pub fn install(&mut self, segment: usize, key: Key, value: Value, version: Version) {
        self.install_record(segment, key, value, version);
    }

    fn install_record(
        &mut self,
        segment: usize,
        key: Key,
        value: Value,
        version: Version,
    ) -> &mut ObjRecord {
        self.make_room(segment, key);
        let r = self.entries[segment].ensure_record(key);
        if r.value.replace(value).is_none() {
            self.cached_values += 1;
        }
        r.version = version;
        r.has_version = true;
        r.referenced = true;
        r
    }

    /// Records the version of an object without caching its value — the
    /// "transaction metadata" the paper keeps for objects touched by
    /// ongoing transactions, making Validate NIC-local (§4.1.3).
    pub fn note_version(&mut self, segment: usize, key: Key, version: Version) {
        let r = self.entries[segment].ensure_record(key);
        r.version = version;
        r.has_version = true;
    }

    /// Clock eviction: sweep segments for an unpinned, unlocked,
    /// value-holding record; clear reference bits as the hand passes.
    fn evict_one(&mut self) {
        let segments = self.entries.len();
        // Two full sweeps guarantee progress: the first clears reference
        // bits, the second finds a victim (unless everything is pinned).
        for _ in 0..(2 * segments) {
            let seg = self.clock_hand % segments;
            self.clock_hand = (self.clock_hand + 1) % segments;
            let records = &mut self.entries[seg].records;
            let mut victim = None;
            for (i, r) in records.iter_mut().enumerate() {
                if r.value.is_some() && r.pins == 0 && !self.held.contains_key(&r.key) {
                    if r.referenced {
                        r.referenced = false;
                    } else {
                        victim = Some(i);
                        break;
                    }
                }
            }
            if let Some(i) = victim {
                // Unpinned and unlocked: the record carries nothing the
                // protocol needs, so it goes with its value.
                records.swap_remove(i);
                self.cached_values -= 1;
                self.stats.evictions += 1;
                return;
            }
        }
    }

    /// Attempts to write-lock `key` for `txn`, allocating a metadata
    /// record if needed. Returns false if another transaction holds it.
    /// Re-locking by the same transaction succeeds (idempotent).
    pub fn try_lock(&mut self, segment: usize, key: Key, txn: TxnId) -> bool {
        match self.held.entry(key) {
            Entry::Occupied(owner) => return *owner.get() == txn,
            Entry::Vacant(slot) => slot.insert(txn),
        };
        let r = self.entries[segment].ensure_record(key);
        if !r.in_ordered {
            // First lock through this record: a key that has never
            // committed is an insert in flight.
            r.in_ordered = self.ordered.lock_probe(key, txn);
        }
        true
    }

    /// Releases `key`'s lock if held by `txn`. Valueless, pin-free
    /// records are garbage-collected.
    pub fn unlock(&mut self, segment: usize, key: Key, txn: TxnId) {
        match self.held.entry(key) {
            Entry::Occupied(owner) if *owner.get() == txn => owner.remove(),
            _ => return,
        };
        self.ordered.unlock(key);
        let records = &mut self.entries[segment].records;
        if let Some(i) = records.iter().position(|r| r.key == key) {
            let r = &records[i];
            if r.value.is_none() && r.pins == 0 && !r.has_version {
                records.swap_remove(i);
            }
        }
    }

    /// Current lock state for `key` — read from the held-lock table
    /// alone; `_segment` is accepted for symmetry with the other
    /// per-object operations.
    pub fn lock_state(&self, _segment: usize, key: Key) -> LockState {
        match self.held.get(&key) {
            Some(owner) => LockState::Held(*owner),
            None => LockState::Free,
        }
    }

    /// Cached version, if NIC memory knows one.
    pub fn version_of(&self, segment: usize, key: Key) -> Option<Version> {
        self.entries[segment]
            .record(key)
            .filter(|r| r.has_version || r.value.is_some() || r.pins > 0)
            .map(|r| r.version)
    }

    /// Cached value, if NIC memory holds one. Unlike [`Self::lookup`]
    /// this is a pure peek: no hit/miss accounting, no recency bit —
    /// range walks use it to serve rows without perturbing the
    /// point-read cache statistics.
    pub fn peek_value(&self, segment: usize, key: Key) -> Option<Value> {
        self.entries[segment]
            .record(key)
            .and_then(|r| r.value.clone())
    }

    /// Records a committed write: updates the cached entry (if present)
    /// and pins it until the host applies the log (§4.2 step 6: "the
    /// write-set objects are pinned in the NIC's index cache and cannot
    /// yet be evicted").
    pub fn commit_write(&mut self, segment: usize, key: Key, value: Value, version: Version) {
        // A committed write refreshes the cache: the new value is hot.
        let r = self.install_record(segment, key, value, version);
        r.pins += 1;
        let member = std::mem::replace(&mut r.in_ordered, true);
        self.ordered.commit(member, key, version);
    }

    /// Records a committed write of `payload` at `version`: what
    /// [`Self::lookup`], [`WritePayload::apply`] and [`Self::commit_write`]
    /// do in a row, with the same hit/miss count, reference bit, pin,
    /// eviction and ordered-mirror commit, but applied to the cached value
    /// in place. That copies only when another handle (a read-set
    /// snapshot, a preload template) shares the buffer. On a miss the
    /// payload applies to `host()`, the host table's copy (or to nothing,
    /// for a key that has none), and the result commits as a full value.
    pub fn commit_payload<'a>(
        &mut self,
        segment: usize,
        key: Key,
        payload: &WritePayload,
        version: Version,
        host: impl FnOnce() -> Option<&'a Value>,
    ) {
        let records = &self.entries[segment].records;
        let Some(i) = records
            .iter()
            .position(|r| r.key == key && r.value.is_some())
        else {
            self.stats.misses += 1;
            let value = match host() {
                Some(current) => payload.apply(current),
                None => payload.apply_absent(),
            };
            return self.commit_write(segment, key, value, version);
        };
        self.stats.hits += 1;
        let r = &mut self.entries[segment].records[i];
        payload.apply_in_place(r.value.as_mut().expect("cached"));
        r.version = version;
        r.has_version = true;
        r.referenced = true;
        r.pins += 1;
        let member = std::mem::replace(&mut r.in_ordered, true);
        self.ordered.commit(member, key, version);
    }

    /// Like [`NicIndex::commit_write`] but stores only the version
    /// metadata (used when object caching is disabled): the version is
    /// updated and the record pinned, without holding the value.
    pub fn commit_write_meta(&mut self, segment: usize, key: Key, version: Version) {
        let r = self.entries[segment].ensure_record(key);
        r.version = version;
        r.has_version = true;
        r.referenced = true;
        r.pins += 1;
        let member = std::mem::replace(&mut r.in_ordered, true);
        self.ordered.commit(member, key, version);
    }

    /// Host acknowledged applying this key's write: unpin.
    pub fn unpin(&mut self, segment: usize, key: Key) {
        if let Some(r) = self.entries[segment].record_mut(key) {
            r.pins = r.pins.saturating_sub(1);
        }
    }

    /// Sets a segment's displacement hint (learned at insert time or from
    /// a deeper-than-expected DMA read).
    pub fn set_hint(&mut self, segment: usize, d_i: u32, has_overflow: bool) {
        let e = &mut self.entries[segment];
        e.d_i = e.d_i.max(d_i);
        e.has_overflow |= has_overflow;
    }

    /// Reads a segment's hint.
    pub fn hint(&self, segment: usize) -> (u32, bool) {
        let e = &self.entries[segment];
        (e.d_i, e.has_overflow)
    }

    /// Drops all lock state (primary failover rebuild starts empty; locks
    /// are then re-acquired from surviving logs, §4.2.1).
    pub fn clear_locks(&mut self) {
        self.held.clear();
        for e in &mut self.entries {
            e.records.retain(|r| r.value.is_some() || r.pins > 0);
        }
        self.ordered.retract_all_pending();
    }

    /// Seeds the ordered index with a committed key (node bring-up and
    /// failover mirror the host table's contents, the way the real NIC
    /// builds its index when a partition is loaded).
    pub fn preload_ordered(&mut self, key: Key, version: Version) {
        self.ordered.commit(false, key, version);
    }

    /// Bring-up pre-warm: [`Self::install`] for an object whose key was
    /// seeded with [`Self::preload_ordered`], so its record starts out
    /// knowing the key is a member instead of probing the tree on its
    /// first lock.
    pub fn install_preloaded(&mut self, segment: usize, key: Key, value: Value, version: Version) {
        debug_assert!(
            self.ordered.tree.get(key).is_some() && !self.ordered.pending.contains_key(&key),
            "key {key} was not preloaded"
        );
        self.install_record(segment, key, value, version).in_ordered = true;
    }

    /// Walks the NIC-resident ordered index over `lo..=hi` in key order.
    /// Committed keys arrive as `f(key, Some(version))`; in-flight
    /// inserts by transactions *other than* `exclude` arrive as
    /// `f(key, None)` (the caller's own pending inserts are skipped —
    /// they are not committed state). `f` returns false to stop early.
    ///
    /// Returns the number of tree nodes visited: the walk is metered per
    /// node touched, exactly as [`NicIndex::lookup`] misses meter DMA
    /// depth — the engine charges NIC compute per visit.
    pub fn range_walk<F>(&self, lo: Key, hi: Key, exclude: Option<TxnId>, f: &mut F) -> usize
    where
        F: FnMut(Key, Option<Version>) -> bool,
    {
        self.ordered.walk(lo, hi, exclude, &mut |k, v, _| f(k, v))
    }

    /// Clears `out` and fills it with the rows of [`Self::range_walk`]
    /// over `lo..=hi`, stopping where a scan must: after the first
    /// sentinel (another transaction's insert, which refuses the scan) or
    /// after `limit` committed rows (at least one). Returns the walk's
    /// node visits — every row's [`ScanRow::visits`] is what the walk
    /// would have returned had it stopped there instead, so a caller
    /// that rejects row `i` charges exactly `out[i].visits`.
    pub fn collect_rows(
        &self,
        lo: Key,
        hi: Key,
        exclude: Option<TxnId>,
        limit: usize,
        out: &mut Vec<ScanRow>,
    ) -> usize {
        out.clear();
        let mut committed = 0;
        self.ordered
            .walk(lo, hi, exclude, &mut |key, version, visits| {
                out.push(ScanRow {
                    key,
                    version,
                    visits,
                });
                committed += 1;
                version.is_some() && committed < limit
            })
    }

    /// Starts fetching `segment`'s index entry: the one-entry form of
    /// [`Self::prefetch_keys`], for a loop that prefetches a fixed
    /// distance ahead of its own installs. Changes nothing.
    pub fn prefetch_segment(&self, segment: usize) {
        xenic_sim::prefetch(&self.entries[segment]);
    }

    /// Starts the memory fetches that a batch of operations on `keys`
    /// will wait on — every key's index entry, then every cached value
    /// those entries hold — so their misses overlap instead of arriving
    /// one key at a time. `segment_of` maps a key to its segment.
    /// Changes nothing.
    pub fn prefetch_keys<I>(&self, keys: I, segment_of: impl Fn(Key) -> usize)
    where
        I: IntoIterator<Item = Key>,
        I::IntoIter: Clone,
    {
        let keys = keys.into_iter();
        for key in keys.clone() {
            xenic_sim::prefetch(&self.entries[segment_of(key)]);
        }
        for key in keys {
            let entry = &self.entries[segment_of(key)];
            if let Some(value) = entry.record(key).and_then(|r| r.value.as_ref()) {
                value.prefetch();
            }
        }
    }

    /// Owner of the in-flight insert sentinel at `key`, if any.
    pub fn pending_insert_owner(&self, key: Key) -> Option<TxnId> {
        self.ordered.pending.get(&key).copied()
    }

    /// All in-flight insert sentinels with their owners, sorted by key
    /// (diagnostics: a drained index has none).
    pub fn pending_inserts(&self) -> Vec<(Key, TxnId)> {
        let mut out: Vec<(Key, TxnId)> = self.ordered.pending.iter().map(|(k, t)| (*k, *t)).collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Committed + in-flight keys in the ordered index (diagnostics).
    pub fn ordered_len(&self) -> usize {
        self.ordered.tree.len()
    }

    /// All currently held locks, sorted by key (diagnostics / recovery
    /// assertions).
    pub fn held_locks(&self) -> Vec<(Key, TxnId)> {
        let mut out: Vec<(Key, TxnId)> = self.held.iter().map(|(k, t)| (*k, *t)).collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(max_values: usize) -> NicIndex {
        NicIndex::new(NicIndexConfig {
            segments: 4,
            max_cached_values: max_values,
            slack_k: 1,
        })
    }

    fn val(n: u8) -> Value {
        Value::filled(8, n)
    }

    fn t(n: u64) -> TxnId {
        TxnId::new(0, n)
    }

    #[test]
    fn miss_then_install_then_hit() {
        let mut ix = idx(16);
        match ix.lookup(0, 42) {
            NicLookup::Miss { d_hint, slack, .. } => {
                assert_eq!(d_hint, 0);
                assert_eq!(slack, 1);
            }
            _ => panic!("expected miss"),
        }
        ix.install(0, 42, val(7), 3);
        match ix.lookup(0, 42) {
            NicLookup::Hit { value, version } => {
                assert_eq!(value.bytes()[0], 7);
                assert_eq!(version, 3);
            }
            _ => panic!("expected hit"),
        }
        assert_eq!(ix.stats().hits, 1);
        assert_eq!(ix.stats().misses, 1);
    }

    #[test]
    fn hint_propagates_to_miss() {
        let mut ix = idx(16);
        ix.set_hint(2, 5, true);
        match ix.lookup(2, 9) {
            NicLookup::Miss {
                d_hint,
                has_overflow,
                ..
            } => {
                assert_eq!(d_hint, 5);
                assert!(has_overflow);
            }
            _ => panic!("expected miss"),
        }
        // Hints are monotone (highest known).
        ix.set_hint(2, 3, false);
        assert_eq!(ix.hint(2), (5, true));
    }

    #[test]
    fn lock_conflict_and_idempotence() {
        let mut ix = idx(16);
        assert!(ix.try_lock(1, 5, t(1)));
        assert!(ix.try_lock(1, 5, t(1)), "re-lock by owner is fine");
        assert!(!ix.try_lock(1, 5, t(2)), "conflicting lock must fail");
        assert_eq!(ix.lock_state(1, 5), LockState::Held(t(1)));
        ix.unlock(1, 5, t(2)); // non-owner unlock is a no-op
        assert!(ix.lock_state(1, 5).is_held());
        ix.unlock(1, 5, t(1));
        assert_eq!(ix.lock_state(1, 5), LockState::Free);
        assert!(ix.try_lock(1, 5, t(2)));
    }

    #[test]
    fn lock_without_value_creates_metadata_only() {
        let mut ix = idx(16);
        assert!(ix.try_lock(0, 77, t(9)));
        assert_eq!(ix.cached_values(), 0);
        // Lookup still misses: metadata records are not value hits.
        assert!(matches!(ix.lookup(0, 77), NicLookup::Miss { .. }));
        ix.unlock(0, 77, t(9));
        assert!(ix.held_locks().is_empty());
    }

    #[test]
    fn eviction_respects_budget() {
        let mut ix = idx(4);
        for k in 0..10 {
            ix.install(0, k, val(k as u8), 1);
        }
        assert!(ix.cached_values() <= 4);
        assert!(ix.stats().evictions >= 6);
    }

    #[test]
    fn pinned_records_survive_eviction() {
        let mut ix = idx(2);
        ix.commit_write(0, 1, val(1), 2); // pinned
        ix.commit_write(0, 2, val(2), 2); // pinned
        for k in 10..20 {
            ix.install(1, k, val(0), 1);
        }
        // The pinned records must still hit.
        assert!(matches!(ix.lookup(0, 1), NicLookup::Hit { .. }));
        assert!(matches!(ix.lookup(0, 2), NicLookup::Hit { .. }));
    }

    #[test]
    fn unpin_makes_evictable() {
        let mut ix = idx(1);
        ix.commit_write(0, 1, val(1), 2);
        ix.unpin(0, 1);
        ix.install(1, 50, val(5), 1);
        ix.install(2, 60, val(6), 1);
        // Key 1 can now be evicted; budget is 1 so at most one value stays.
        assert!(ix.cached_values() <= 1);
    }

    #[test]
    fn locked_records_survive_eviction() {
        let mut ix = idx(1);
        ix.install(0, 1, val(1), 1);
        assert!(ix.try_lock(0, 1, t(3)));
        ix.install(1, 2, val(2), 1);
        ix.install(2, 3, val(3), 1);
        assert!(
            matches!(ix.lookup(0, 1), NicLookup::Hit { .. }),
            "locked record must not be evicted"
        );
    }

    #[test]
    fn commit_write_updates_version_and_pins() {
        let mut ix = idx(16);
        ix.install(0, 5, val(1), 1);
        ix.commit_write(0, 5, val(9), 2);
        match ix.lookup(0, 5) {
            NicLookup::Hit { value, version } => {
                assert_eq!(value.bytes()[0], 9);
                assert_eq!(version, 2);
            }
            _ => panic!("expected hit"),
        }
        assert_eq!(ix.version_of(0, 5), Some(2));
    }

    #[test]
    fn version_of_unknown_key_is_none() {
        let ix = idx(16);
        assert_eq!(ix.version_of(0, 123), None);
    }

    #[test]
    fn clear_locks_rebuild_path() {
        let mut ix = idx(16);
        ix.try_lock(0, 1, t(1));
        ix.try_lock(1, 2, t(2));
        ix.install(2, 3, val(3), 1);
        ix.clear_locks();
        assert!(ix.held_locks().is_empty());
        // Cached values survive a lock wipe.
        assert!(matches!(ix.lookup(2, 3), NicLookup::Hit { .. }));
    }

    fn walk(
        ix: &NicIndex,
        lo: Key,
        hi: Key,
        exclude: Option<TxnId>,
    ) -> Vec<(Key, Option<Version>)> {
        let mut out = Vec::new();
        ix.range_walk(lo, hi, exclude, &mut |k, v| {
            out.push((k, v));
            true
        });
        out
    }

    #[test]
    fn range_walk_sees_committed_keys_in_order() {
        let mut ix = idx(16);
        for k in [30u64, 10, 20] {
            ix.preload_ordered(k, 1);
        }
        ix.commit_write(0, 20, val(2), 5);
        assert_eq!(
            walk(&ix, 10, 30, None),
            vec![(10, Some(1)), (20, Some(5)), (30, Some(1))]
        );
        assert_eq!(walk(&ix, 11, 19, None), vec![]);
    }

    #[test]
    fn pending_insert_is_visible_to_other_walkers_only() {
        let mut ix = idx(16);
        ix.preload_ordered(10, 1);
        // t(1) locks a brand-new key: sentinel appears.
        assert!(ix.try_lock(0, 15, t(1)));
        assert_eq!(ix.pending_insert_owner(15), Some(t(1)));
        assert_eq!(walk(&ix, 10, 20, None), vec![(10, Some(1)), (15, None)]);
        // The inserter's own walk skips its pending key.
        assert_eq!(walk(&ix, 10, 20, Some(t(1))), vec![(10, Some(1))]);
        // Abort: sentinel retracted, lock freed.
        ix.unlock(0, 15, t(1));
        assert_eq!(ix.pending_insert_owner(15), None);
        assert_eq!(walk(&ix, 10, 20, None), vec![(10, Some(1))]);
    }

    #[test]
    fn pending_insert_promotes_on_commit() {
        let mut ix = idx(16);
        assert!(ix.try_lock(0, 7, t(2)));
        ix.commit_write(0, 7, val(7), 1);
        ix.unlock(0, 7, t(2));
        assert_eq!(ix.pending_insert_owner(7), None);
        assert_eq!(walk(&ix, 0, 100, None), vec![(7, Some(1))]);
        // Re-locking a committed key is an update, not an insert: no
        // sentinel, version stays visible.
        assert!(ix.try_lock(0, 7, t(3)));
        assert_eq!(ix.pending_insert_owner(7), None);
        assert_eq!(walk(&ix, 0, 100, None), vec![(7, Some(1))]);
        ix.unlock(0, 7, t(3));
        assert_eq!(walk(&ix, 0, 100, None), vec![(7, Some(1))]);
    }

    #[test]
    fn clear_locks_retracts_pending_inserts() {
        let mut ix = idx(16);
        ix.preload_ordered(5, 1);
        assert!(ix.try_lock(0, 6, t(1)));
        assert!(ix.try_lock(1, 8, t(2)));
        ix.clear_locks();
        assert!(ix.held_locks().is_empty());
        assert_eq!(walk(&ix, 0, 100, None), vec![(5, Some(1))]);
        assert_eq!(ix.ordered_len(), 1);
    }

    #[test]
    fn commit_write_meta_promotes_sentinel_too() {
        let mut ix = idx(16);
        assert!(ix.try_lock(0, 9, t(4)));
        ix.commit_write_meta(0, 9, 3);
        ix.unlock(0, 9, t(4));
        assert_eq!(walk(&ix, 0, 100, None), vec![(9, Some(3))]);
    }

    /// The three structural invariants of the ordered mirror.
    fn assert_invariants(ix: &NicIndex) {
        let m = &ix.ordered;
        for r in ix.entries.iter().flat_map(|e| e.records.iter()) {
            if r.in_ordered {
                assert!(
                    m.tree.get(r.key).is_some(),
                    "flagged key {} not in tree",
                    r.key
                );
                assert!(
                    !m.pending.contains_key(&r.key),
                    "flagged key {} is pending",
                    r.key
                );
            }
        }
        for k in m.buffer.keys() {
            assert!(m.tree.get(*k).is_some(), "buffered key {k} not in tree");
            assert!(!m.pending.contains_key(k), "buffered key {k} is pending");
        }
        assert!(m.buffer.len() < WRITE_BUFFER_CAP);
        for k in m.pending.keys() {
            assert_eq!(
                m.tree.get(*k),
                Some(&0),
                "pending key {k} lost its sentinel"
            );
            assert!(ix.held.contains_key(k), "pending key {k} is unlocked");
        }
    }

    /// A lock/commit/abort/evict schedule over existing and new keys.
    fn churn(ix: &mut NicIndex, rounds: u64, check_each: bool) {
        for i in 0..rounds {
            let k = i.wrapping_mul(0x9E37_79B9) % 3_000;
            let seg = (k % 4) as usize;
            let txn = t(i % 5);
            if ix.try_lock(seg, k, txn) {
                match i % 4 {
                    0 => {}                      // stays locked until a later round's unlock
                    1 => ix.unlock(seg, k, txn), // abort
                    2 => {
                        ix.commit_write(seg, k, val(i as u8), i + 2);
                        ix.unlock(seg, k, txn);
                        ix.unpin(seg, k);
                    }
                    _ => {
                        ix.commit_write_meta(seg, k, i + 2);
                        ix.unlock(seg, k, txn);
                        ix.unpin(seg, k);
                    }
                }
            } else {
                let owner = ix.held[&k];
                ix.unlock(seg, k, owner);
            }
            if i % 7 == 0 {
                ix.install(((k + 1) % 4) as usize, k + 1, val(1), 1);
            }
            if check_each {
                assert_invariants(ix);
            }
        }
    }

    #[test]
    fn flagged_and_buffered_keys_are_committed_tree_members() {
        // A budget of 8 values sheds records (and their membership bits)
        // constantly; half the universe is preloaded.
        let mut ix = idx(8);
        for k in (0..3_000).step_by(2) {
            ix.preload_ordered(k, 1);
        }
        churn(&mut ix, 6_000, true);
        assert!(ix.stats().evictions > 100);
        ix.clear_locks();
        assert_invariants(&ix);
        assert!(ix.ordered.pending.is_empty());
    }

    #[test]
    fn flush_is_invisible_to_range_walks() {
        let mut ix = idx(1 << 20);
        for k in 0..3_000 {
            ix.preload_ordered(k, 1);
        }
        // No eviction: membership bits persist, so commits to existing
        // keys buffer — and 12k rounds over 3k keys cross several
        // automatic flushes.
        churn(&mut ix, 12_000, false);
        assert_invariants(&ix);
        assert!(
            !ix.ordered.buffer.is_empty(),
            "schedule must end mid-buffer"
        );
        let buffered: Vec<(Key, Version)> =
            ix.ordered.buffer.iter().map(|(k, v)| (*k, *v)).collect();
        let before = walk(&ix, 0, Key::MAX, None);
        let visits_before = ix.range_walk(0, Key::MAX, None, &mut |_, _| true);
        let len_before = ix.ordered_len();
        ix.ordered.flush();
        assert!(ix.ordered.buffer.is_empty());
        for (k, v) in buffered {
            assert_eq!(ix.ordered.tree.get(k), Some(&v), "flush wrote key {k}");
        }
        assert_eq!(walk(&ix, 0, Key::MAX, None), before);
        assert_eq!(
            ix.range_walk(0, Key::MAX, None, &mut |_, _| true),
            visits_before
        );
        assert_eq!(ix.ordered_len(), len_before);
    }

    #[test]
    fn record_is_forty_bytes() {
        // Three inline records per entry is a cache-footprint decision;
        // a fatter record silently undoes it.
        assert_eq!(std::mem::size_of::<ObjRecord>(), 40);
    }

    #[test]
    fn held_locks_lists_owners() {
        let mut ix = idx(16);
        ix.try_lock(0, 1, t(1));
        ix.try_lock(3, 9, t(2));
        let mut locks = ix.held_locks();
        locks.sort();
        assert_eq!(locks, vec![(1, t(1)), (9, t(2))]);
    }
}
