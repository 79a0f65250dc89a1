//! Differential test: [`xenic_store::NicIndex`] against a naive
//! reference on seeded random schedules (mirroring
//! `btree_differential.rs`).
//!
//! The index keeps lock state in one held-lock table, records inline in
//! their segment entry, and committed version bumps of existing keys in
//! a bounded write buffer in front of the ordered B+tree. None of that
//! may be observable. The reference does everything the slow, obvious
//! way: a lock field per record, a plain `Vec` of records per segment,
//! a `BTreeMap<Key, Version>` holding every ordered key's version, and a
//! shape-only `BTree<()>` that is probed on *every* lock and written on
//! *every* commit — the unconditional point-path descents the real index
//! no longer makes. Equal visit counts therefore prove the buffered tree
//! keeps exactly the shape the unbuffered one would have.
//!
//! The schedules use a cache budget far below the key universe (constant
//! eviction), commit to several thousand distinct existing keys (many
//! write-buffer flushes), and mix committed and aborted inserts with
//! protocol-shaped transactions and arbitrary single operations.

use std::collections::{BTreeMap, HashMap};

use xenic_sim::DetRng;
use xenic_store::nic_index::{NicIndex, NicIndexConfig, NicLookup, ScanRow};
use xenic_store::{BTree, Key, LockState, TxnId, Value, Version, WritePayload};

const SEGMENTS: usize = 64;
const UNIVERSE: u64 = 4096;
const HOT: u64 = 64;
const BUDGET: usize = 48;

fn seg(key: Key) -> usize {
    (key % SEGMENTS as u64) as usize
}

fn val(tag: u8) -> Value {
    Value::filled(8, tag)
}

#[derive(Clone)]
struct Rec {
    key: Key,
    value: Option<Vec<u8>>,
    version: Version,
    lock: Option<TxnId>,
    has_version: bool,
    pins: u32,
    referenced: bool,
}

/// The obvious implementation.
struct Reference {
    segments: Vec<Vec<Rec>>,
    cached: usize,
    hand: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Every key of the ordered index (sentinels at version 0).
    ordered: BTreeMap<Key, Version>,
    pending: HashMap<Key, TxnId>,
    /// Same keys as `ordered`, in the production tree, for visit counts.
    shape: BTree<()>,
}

impl Reference {
    fn new() -> Self {
        Reference {
            segments: vec![Vec::new(); SEGMENTS],
            cached: 0,
            hand: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            ordered: BTreeMap::new(),
            pending: HashMap::new(),
            shape: BTree::new(),
        }
    }

    fn rec(&self, key: Key) -> Option<&Rec> {
        self.segments[seg(key)].iter().find(|r| r.key == key)
    }

    fn ensure(&mut self, key: Key) -> &mut Rec {
        let recs = &mut self.segments[seg(key)];
        let i = match recs.iter().position(|r| r.key == key) {
            Some(i) => i,
            None => {
                recs.push(Rec {
                    key,
                    value: None,
                    version: 0,
                    lock: None,
                    has_version: false,
                    pins: 0,
                    referenced: true,
                });
                recs.len() - 1
            }
        };
        &mut recs[i]
    }

    fn evict_one(&mut self) {
        for _ in 0..(2 * SEGMENTS) {
            let recs = &mut self.segments[self.hand % SEGMENTS];
            self.hand = (self.hand + 1) % SEGMENTS;
            let mut victim = None;
            for (i, r) in recs.iter_mut().enumerate() {
                if r.value.is_some() && r.pins == 0 && r.lock.is_none() {
                    if r.referenced {
                        r.referenced = false;
                    } else {
                        victim = Some(i);
                        break;
                    }
                }
            }
            if let Some(i) = victim {
                recs.swap_remove(i);
                self.cached -= 1;
                self.evictions += 1;
                return;
            }
        }
    }

    fn make_room(&mut self, key: Key) {
        let cached = self.rec(key).is_some_and(|r| r.value.is_some());
        if !cached && self.cached >= BUDGET {
            self.evict_one();
        }
    }

    fn set_value(&mut self, key: Key, bytes: &[u8], version: Version) -> &mut Rec {
        self.make_room(key);
        self.cached += usize::from(self.ensure(key).value.is_none());
        let r = self.ensure(key);
        r.value = Some(bytes.to_vec());
        r.version = version;
        r.has_version = true;
        r.referenced = true;
        r
    }

    fn install(&mut self, key: Key, bytes: &[u8], version: Version) {
        self.set_value(key, bytes, version);
    }

    fn note_version(&mut self, key: Key, version: Version) {
        let r = self.ensure(key);
        r.version = version;
        r.has_version = true;
    }

    fn lookup(&mut self, key: Key) -> Option<(Vec<u8>, Version)> {
        let recs = &mut self.segments[seg(key)];
        if let Some(r) = recs.iter_mut().find(|r| r.key == key) {
            if let Some(bytes) = &r.value {
                r.referenced = true;
                self.hits += 1;
                return Some((bytes.clone(), r.version));
            }
        }
        self.misses += 1;
        None
    }

    fn try_lock(&mut self, key: Key, txn: TxnId) -> bool {
        let r = self.ensure(key);
        let ok = match r.lock {
            None => {
                r.lock = Some(txn);
                true
            }
            Some(t) => t == txn,
        };
        // The unconditional probe of the ordered tree on every lock.
        if ok && self.shape.get(key).is_none() {
            self.shape.insert(key, ());
            self.ordered.insert(key, 0);
            self.pending.insert(key, txn);
        }
        ok
    }

    fn unlock(&mut self, key: Key, txn: TxnId) {
        if self.pending.get(&key) == Some(&txn) {
            self.pending.remove(&key);
            self.ordered.remove(&key);
            self.shape.remove(key);
        }
        let recs = &mut self.segments[seg(key)];
        if let Some(i) = recs.iter().position(|r| r.key == key) {
            if recs[i].lock == Some(txn) {
                recs[i].lock = None;
            }
            let r = &recs[i];
            if r.value.is_none() && r.pins == 0 && r.lock.is_none() && !r.has_version {
                recs.swap_remove(i);
            }
        }
    }

    /// The unconditional tree write on every commit.
    fn commit_ordered(&mut self, key: Key, version: Version) {
        self.pending.remove(&key);
        self.ordered.insert(key, version);
        self.shape.insert(key, ());
    }

    fn commit_write(&mut self, key: Key, bytes: &[u8], version: Version) {
        self.set_value(key, bytes, version).pins += 1;
        self.commit_ordered(key, version);
    }

    /// The sequence the in-place commit replaces: look the key up (a hit
    /// or a miss, counted), apply the payload to a copy of what the cache
    /// or else the host holds, and commit the result as a full value.
    fn commit_payload(
        &mut self,
        key: Key,
        payload: &WritePayload,
        version: Version,
        host: Option<&Value>,
    ) {
        let new = match self.lookup(key) {
            Some((bytes, _)) => payload.apply(&Value::from_vec(bytes)),
            None => match host {
                Some(current) => payload.apply(current),
                None => payload.apply_absent(),
            },
        };
        self.commit_write(key, new.bytes(), version);
    }

    fn commit_write_meta(&mut self, key: Key, version: Version) {
        let r = self.ensure(key);
        r.version = version;
        r.has_version = true;
        r.pins += 1;
        r.referenced = true;
        self.commit_ordered(key, version);
    }

    fn unpin(&mut self, key: Key) {
        if let Some(r) = self.segments[seg(key)].iter_mut().find(|r| r.key == key) {
            r.pins = r.pins.saturating_sub(1);
        }
    }

    fn clear_locks(&mut self) {
        for recs in &mut self.segments {
            recs.retain(|r| r.value.is_some() || r.pins > 0);
            for r in recs {
                r.lock = None;
            }
        }
        let mut aborted: Vec<Key> = self.pending.drain().map(|(k, _)| k).collect();
        aborted.sort_unstable();
        for key in aborted {
            self.ordered.remove(&key);
            self.shape.remove(key);
        }
    }

    fn lock_state(&self, key: Key) -> LockState {
        match self.rec(key).and_then(|r| r.lock) {
            Some(t) => LockState::Held(t),
            None => LockState::Free,
        }
    }

    fn version_of(&self, key: Key) -> Option<Version> {
        self.rec(key)
            .filter(|r| r.has_version || r.value.is_some() || r.pins > 0)
            .map(|r| r.version)
    }

    fn held_locks(&self) -> Vec<(Key, TxnId)> {
        let mut out: Vec<(Key, TxnId)> = self
            .segments
            .iter()
            .flatten()
            .filter_map(|r| r.lock.map(|t| (r.key, t)))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Rows from the `BTreeMap`s, visit count from the shape tree, both
    /// honouring the early stop after `limit` delivered rows.
    fn range_walk(
        &self,
        lo: Key,
        hi: Key,
        exclude: Option<TxnId>,
        limit: usize,
    ) -> (Vec<(Key, Option<Version>)>, usize) {
        let mut rows = Vec::new();
        for (&k, &v) in self.ordered.range(lo..=hi) {
            match self.pending.get(&k) {
                Some(owner) if Some(*owner) == exclude => continue,
                Some(_) => rows.push((k, None)),
                None => rows.push((k, Some(v))),
            }
            if rows.len() >= limit {
                break;
            }
        }
        let mut delivered = 0;
        let visits = self.shape.range_visit(lo, hi, &mut |k, _| {
            if self.pending.get(&k).copied() == exclude && exclude.is_some() {
                return true;
            }
            delivered += 1;
            delivered < limit
        });
        (rows, visits)
    }

    /// Every row a scan's collection reaches with no limit, up to and
    /// including the first sentinel, and the walk's total visits. A
    /// row's visit count comes from an *unstopped* shape walk that ends
    /// at its key, which enters exactly the nodes a walk stopped at the
    /// row has — so it does not depend on where the production walker
    /// counts a node.
    fn collect_rows(&self, lo: Key, hi: Key, exclude: Option<TxnId>) -> (Vec<ScanRow>, usize) {
        let mut rows = Vec::new();
        for (&key, &v) in self.ordered.range(lo..=hi) {
            let version = match self.pending.get(&key) {
                Some(owner) if Some(*owner) == exclude => continue,
                Some(_) => None,
                None => Some(v),
            };
            let visits = self.shape.range_visit(lo, key, &mut |_, _| true);
            rows.push(ScanRow {
                key,
                version,
                visits,
            });
            if version.is_none() {
                return (rows, visits);
            }
        }
        (rows, self.shape.range_visit(lo, hi, &mut |_, _| true))
    }
}

/// `all` (an unlimited collection) cut where a scan of `limit` ≥ 1
/// stops: after the `limit`-th committed row, with that row's visits.
/// Only the last row of `all` can be a sentinel, so the cut is a prefix.
fn limited(all: &(Vec<ScanRow>, usize), limit: usize) -> (&[ScanRow], usize) {
    if all.0.len() <= limit {
        (&all.0, all.1)
    } else {
        (&all.0[..limit], all.0[limit - 1].visits)
    }
}

/// The production collection at every limit from 1 to one past the
/// rows there are, against the reference. Returns which of the cases a
/// scan must get right this walk exercised: [a sentinel stop, a skipped
/// own insert, a row updated since preload].
fn check_collect(
    ix: &NicIndex,
    rf: &Reference,
    lo: Key,
    hi: Key,
    exclude: Option<TxnId>,
    what: &str,
) -> [bool; 3] {
    let all = rf.collect_rows(lo, hi, exclude);
    let mut got = Vec::new();
    for limit in (1..=all.0.len() + 1).chain([usize::MAX]) {
        let visits = ix.collect_rows(lo, hi, exclude, limit, &mut got);
        assert_eq!(
            (&got[..], visits),
            limited(&all, limit),
            "{what}: collect_rows({lo}, {hi}, {exclude:?}, limit {limit})"
        );
    }
    // With no sentinel to stop it, the total is the unstopped walk's.
    let sentinel = all.0.last().is_some_and(|r| r.version.is_none());
    if !sentinel {
        assert_eq!(all.1, ix.range_walk(lo, hi, exclude, &mut |_, _| true));
    }
    let own_skip = exclude.is_some_and(|t| {
        rf.ordered
            .range(lo..=hi)
            .any(|(k, _)| rf.pending.get(k) == Some(&t))
    });
    let updated = all.0.iter().any(|r| r.version.is_some_and(|v| v > 1));
    [sentinel, own_skip, updated]
}

fn walk(
    ix: &NicIndex,
    lo: Key,
    hi: Key,
    exclude: Option<TxnId>,
    limit: usize,
) -> (Vec<(Key, Option<Version>)>, usize) {
    let mut rows = Vec::new();
    let visits = ix.range_walk(lo, hi, exclude, &mut |k, v| {
        rows.push((k, v));
        rows.len() < limit
    });
    (rows, visits)
}

struct Harness {
    ix: NicIndex,
    rf: Reference,
    rng: DetRng,
    next_version: Version,
    /// Committed writes the "host" has not acknowledged yet.
    unacked: Vec<Key>,
    /// Collection checks that stopped at a sentinel / skipped an own
    /// insert / saw an updated row.
    collect_cases: [usize; 3],
    /// Read-set snapshots: cached values a lookup handed out (sharing the
    /// index's buffer), each with the bytes it held when taken.
    snapshots: Vec<(Value, Vec<u8>)>,
    /// In-place commits that hit a unique buffer / hit a shared one /
    /// missed and applied to a host copy / missed a key with none.
    payload_cases: [usize; 4],
    what: String,
}

impl Harness {
    fn new(seed: u64) -> Self {
        let mut h = Harness {
            ix: NicIndex::new(NicIndexConfig {
                segments: SEGMENTS,
                max_cached_values: BUDGET,
                slack_k: 1,
            }),
            rf: Reference::new(),
            rng: DetRng::new(seed),
            next_version: 2,
            unacked: Vec::new(),
            collect_cases: [0; 3],
            snapshots: Vec::new(),
            payload_cases: [0; 4],
            what: format!("seed {seed}"),
        };
        // Bring-up: every even key is a committed member at version 1;
        // the first few are also pre-warmed into the cache.
        for k in (0..UNIVERSE).step_by(2) {
            h.ix.preload_ordered(k, 1);
            h.rf.commit_ordered(k, 1);
        }
        for k in (0..BUDGET as u64).map(|i| i * 2) {
            h.ix.install_preloaded(seg(k), k, val(1), 1);
            h.rf.install(k, val(1).bytes(), 1);
        }
        h.check_all(0);
        h
    }

    fn key(&mut self) -> Key {
        if self.rng.below(2) == 0 {
            self.rng.below(HOT)
        } else {
            self.rng.below(UNIVERSE)
        }
    }

    fn txn(&mut self) -> TxnId {
        TxnId::new(self.rng.below(3) as u32, self.rng.below(4))
    }

    fn version(&mut self) -> Version {
        self.next_version += 1;
        self.next_version
    }

    fn commit(&mut self, key: Key) {
        let version = self.version();
        match self.rng.below(4) {
            0 => {
                self.ix.commit_write_meta(seg(key), key, version);
                self.rf.commit_write_meta(key, version);
            }
            1 => {
                let value = val(version as u8);
                self.rf.commit_write(key, value.bytes(), version);
                self.ix.commit_write(seg(key), key, value, version);
            }
            _ => self.commit_payload(key, version),
        }
        self.unacked.push(key);
    }

    /// The in-place commit against the reference's lookup → apply →
    /// commit_write, then the buffer check: a hit on a buffer no snapshot
    /// shares must mutate it where it is (unless a short value has to
    /// grow), and a shared one must be copied.
    fn commit_payload(&mut self, key: Key, version: Version) {
        let payload = match self.rng.below(3) {
            0 => WritePayload::Full(val(version as u8)),
            1 => WritePayload::AddI64(self.rng.below(1000) as i64 - 500),
            _ => WritePayload::Mutate,
        };
        // The host's copy, for a miss: absent, short (AddI64 pads it) or
        // full-size.
        let host = match self.rng.below(3) {
            0 => None,
            1 => Some(Value::filled(4, self.rng.below(256) as u8)),
            _ => Some(val(self.rng.below(256) as u8)),
        };
        let before = self
            .ix
            .peek_value(seg(key), key)
            .map(|v| (v.bytes().as_ptr(), v.len()));
        self.ix
            .commit_payload(seg(key), key, &payload, version, || host.as_ref());
        self.rf
            .commit_payload(key, &payload, version, host.as_ref());
        let after = self
            .ix
            .peek_value(seg(key), key)
            .map(|v| v.bytes().as_ptr())
            .expect("a committed write is cached");
        let what = &self.what;
        let case = match before {
            Some((ptr, len)) => {
                if self
                    .snapshots
                    .iter()
                    .any(|(v, _)| v.bytes().as_ptr() == ptr)
                {
                    assert_ne!(after, ptr, "{what}: shared buffer of {key} written");
                    1
                } else {
                    let in_place = match payload {
                        WritePayload::Full(_) => false,
                        WritePayload::AddI64(_) => len >= 8,
                        WritePayload::Mutate => true,
                    };
                    if in_place {
                        assert_eq!(after, ptr, "{what}: unique buffer of {key} copied");
                    }
                    0
                }
            }
            None if host.is_some() => 2,
            None => 3,
        };
        self.payload_cases[case] += 1;
    }

    /// Keeps a looked-up value as a read-set snapshot (at most 16; the
    /// one it displaces must still hold the bytes it was taken with).
    fn snapshot(&mut self, value: Value) {
        if self.snapshots.len() == 16 {
            let i = self.rng.below(16) as usize;
            let (old, bytes) = self.snapshots.swap_remove(i);
            assert_eq!(old.bytes(), &bytes[..], "{}: snapshot changed", self.what);
        }
        let bytes = value.bytes().to_vec();
        self.snapshots.push((value, bytes));
    }

    /// One step; returns the keys it touched.
    fn step(&mut self) -> Vec<Key> {
        let key = self.key();
        let txn = self.txn();
        match self.rng.below(100) {
            0..=9 => {
                let version = self.version();
                self.ix.install(seg(key), key, val(version as u8), version);
                self.rf.install(key, val(version as u8).bytes(), version);
            }
            10..=14 => {
                let version = self.version();
                self.ix.note_version(seg(key), key, version);
                self.rf.note_version(key, version);
            }
            15..=29 => {
                let got = self.ix.try_lock(seg(key), key, txn);
                assert_eq!(
                    got,
                    self.rf.try_lock(key, txn),
                    "{}: try_lock({key})",
                    self.what
                );
            }
            30..=41 => {
                self.ix.unlock(seg(key), key, txn);
                self.rf.unlock(key, txn);
            }
            // Commit without the protocol around it (recovery does this).
            42..=46 => self.commit(key),
            47..=58 => {
                if !self.unacked.is_empty() {
                    let i = self.rng.below(self.unacked.len() as u64) as usize;
                    let k = self.unacked.swap_remove(i);
                    self.ix.unpin(seg(k), k);
                    self.rf.unpin(k);
                    return vec![k];
                }
            }
            59..=66 => {
                let got = match self.ix.lookup(seg(key), key) {
                    NicLookup::Hit { value, version } => {
                        let got = Some((value.bytes().to_vec(), version));
                        if self.rng.below(2) == 0 {
                            self.snapshot(value);
                        }
                        got
                    }
                    NicLookup::Miss { .. } => None,
                };
                assert_eq!(got, self.rf.lookup(key), "{}: lookup({key})", self.what);
            }
            67..=72 => {
                let lo = self.rng.below(UNIVERSE);
                let hi = lo + self.rng.below(256);
                let exclude = (self.rng.below(2) == 0).then_some(txn);
                let limit = 1 + self.rng.below(64) as usize;
                assert_eq!(
                    walk(&self.ix, lo, hi, exclude, limit),
                    self.rf.range_walk(lo, hi, exclude, limit),
                    "{}: range_walk({lo}, {hi}, {exclude:?}, limit {limit})",
                    self.what
                );
                let seen = check_collect(&self.ix, &self.rf, lo, hi, exclude, &self.what);
                for (n, hit) in self.collect_cases.iter_mut().zip(seen) {
                    *n += usize::from(hit);
                }
            }
            // A protocol-shaped transaction: lock 1–3 keys all-or-nothing,
            // then commit (promoting any inserts) or abort (retracting).
            73..=98 => {
                let keys: Vec<Key> = (0..1 + self.rng.below(3)).map(|_| self.key()).collect();
                let mut locked = Vec::new();
                let mut all = true;
                for &k in &keys {
                    let got = self.ix.try_lock(seg(k), k, txn);
                    assert_eq!(
                        got,
                        self.rf.try_lock(k, txn),
                        "{}: txn lock({k})",
                        self.what
                    );
                    if got {
                        locked.push(k);
                    } else {
                        all = false;
                        break;
                    }
                }
                if all && self.rng.below(10) < 7 {
                    for &k in &locked {
                        self.commit(k);
                    }
                }
                for &k in &locked {
                    self.ix.unlock(seg(k), k, txn);
                    self.rf.unlock(k, txn);
                }
                return keys;
            }
            _ => {
                if self.rng.below(20) == 0 {
                    self.ix.clear_locks();
                    self.rf.clear_locks();
                }
            }
        }
        vec![key]
    }

    fn check_keys(&self, step: usize, keys: &[Key]) {
        let what = &self.what;
        for &k in keys {
            assert_eq!(
                self.ix.lock_state(seg(k), k),
                self.rf.lock_state(k),
                "{what}: lock_state({k}) @ {step}"
            );
            assert_eq!(
                self.ix.version_of(seg(k), k),
                self.rf.version_of(k),
                "{what}: version_of({k}) @ {step}"
            );
            assert_eq!(
                self.ix.peek_value(seg(k), k).map(|v| v.bytes().to_vec()),
                self.rf.rec(k).and_then(|r| r.value.clone()),
                "{what}: peek_value({k}) @ {step}"
            );
            assert_eq!(
                self.ix.pending_insert_owner(k),
                self.rf.pending.get(&k).copied(),
                "{what}: pending_insert_owner({k}) @ {step}"
            );
        }
        assert_eq!(
            self.ix.held_locks(),
            self.rf.held_locks(),
            "{what}: held_locks @ {step}"
        );
        assert_eq!(
            self.ix.ordered_len(),
            self.rf.ordered.len(),
            "{what}: ordered_len @ {step}"
        );
        assert_eq!(
            self.ix.cached_values(),
            self.rf.cached,
            "{what}: cached_values @ {step}"
        );
        let s = self.ix.stats();
        assert_eq!(
            (s.hits, s.misses, s.evictions),
            (self.rf.hits, self.rf.misses, self.rf.evictions),
            "{what}: stats @ {step}"
        );
    }

    fn check_all(&self, step: usize) {
        let all: Vec<Key> = (0..UNIVERSE).collect();
        self.check_keys(step, &all);
        assert_eq!(
            walk(&self.ix, 0, Key::MAX, None, usize::MAX),
            self.rf.range_walk(0, Key::MAX, None, usize::MAX),
            "{}: full walk @ {step}",
            self.what
        );
    }
}

fn differential(seed: u64, steps: usize) {
    let mut h = Harness::new(seed);
    for step in 1..=steps {
        let touched = h.step();
        h.check_keys(step, &touched);
        if step % 2048 == 0 {
            h.check_all(step);
        }
    }
    h.check_all(steps);
    assert!(
        h.rf.evictions > 1_000,
        "seed {seed}: the budget must force eviction"
    );
    assert!(
        h.rf.ordered.len() > UNIVERSE as usize / 2 + 500,
        "seed {seed}: inserts must commit"
    );
    assert!(
        h.payload_cases.iter().all(|&n| n > 50),
        "seed {seed}: in-place commits must hit unique and shared buffers and miss with and without a host copy: {:?}",
        h.payload_cases
    );
    assert!(
        h.collect_cases.iter().all(|&n| n > 10),
        "seed {seed}: collections must stop at sentinels, skip own inserts and see updates: {:?}",
        h.collect_cases
    );
}

#[test]
fn matches_reference_seed_1() {
    differential(1, 40_000);
}

#[test]
fn matches_reference_seed_2() {
    differential(0xfeed_beef, 40_000);
}

#[test]
fn matches_reference_seed_3() {
    differential(0x5eed_0003, 40_000);
}

/// Commits to more distinct existing keys than the write buffer holds,
/// with no eviction to shed membership bits: every flush boundary is
/// crossed with the buffer full of live keys.
#[test]
fn version_bumps_survive_buffer_flushes() {
    let keys = 5_000u64;
    let mut ix = NicIndex::new(NicIndexConfig {
        segments: SEGMENTS,
        max_cached_values: keys as usize,
        slack_k: 1,
    });
    let mut want: BTreeMap<Key, Version> = BTreeMap::new();
    let mut shape: BTree<()> = BTree::new();
    for k in 0..keys {
        ix.preload_ordered(k, 1);
        ix.install_preloaded(seg(k), k, val(0), 1);
        want.insert(k, 1);
        shape.insert(k, ());
    }
    let t = TxnId::new(0, 1);
    let mut rng = DetRng::new(9);
    for round in 0..12_000u64 {
        let k = rng.below(keys);
        assert!(ix.try_lock(seg(k), k, t));
        assert_eq!(
            ix.pending_insert_owner(k),
            None,
            "existing key is an update"
        );
        ix.commit_write(seg(k), k, val(round as u8), round + 2);
        ix.unlock(seg(k), k, t);
        ix.unpin(seg(k), k);
        want.insert(k, round + 2);
        if round % 500 == 0 || round > 11_990 {
            let (rows, visits) = walk(&ix, 0, Key::MAX, None, usize::MAX);
            let expect: Vec<(Key, Option<Version>)> =
                want.iter().map(|(k, v)| (*k, Some(*v))).collect();
            assert_eq!(rows, expect, "round {round}");
            assert_eq!(
                visits,
                shape.range_visit(0, Key::MAX, &mut |_, _| true),
                "round {round}"
            );
            // A scan's collection serves the buffered versions too, each
            // row with the visits of a walk stopped there.
            let lo = rng.below(keys - 200);
            let mut got = Vec::new();
            for limit in [1, 7, 64, 200, usize::MAX] {
                let total = ix.collect_rows(lo, lo + 150, None, limit, &mut got);
                let expect: Vec<ScanRow> = want
                    .range(lo..=lo + 150)
                    .take(limit)
                    .map(|(&key, &v)| ScanRow {
                        key,
                        version: Some(v),
                        visits: shape.range_visit(lo, key, &mut |_, _| true),
                    })
                    .collect();
                assert_eq!(got, expect, "round {round}, limit {limit}");
                let walked = if expect.len() < limit {
                    shape.range_visit(lo, lo + 150, &mut |_, _| true)
                } else {
                    expect.last().unwrap().visits
                };
                assert_eq!(total, walked, "round {round}, limit {limit}");
            }
        }
    }
}
