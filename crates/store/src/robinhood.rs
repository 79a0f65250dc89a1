//! The host-side Robinhood hash table (paper §4.1.2, Figure 5).
//!
//! A closed hash table with linear probing where insertions *displace*
//! already-placed elements that are closer to their home slot than the
//! element being inserted ("stealing displacement wealth"). This evens out
//! probe distances, which matters for Xenic because remote lookups read a
//! *contiguous region* of the table over PCIe: low displacement variance
//! means small, predictable DMA reads.
//!
//! Xenic's modifications, all implemented here:
//!
//! * a **global displacement limit `Dm`** — insertions that would exceed it
//!   land in a per-segment **overflow bucket** instead;
//! * the table is divided into fixed-size **segments**; the SmartNIC keeps
//!   one index entry per segment (see [`crate::nic_index`]) holding the
//!   highest known displacement `d_i` of elements homed in that segment;
//! * **deletion** swaps an overflow element over the deleted slot if one
//!   fits, and otherwise performs a bounded **backward shift** (no
//!   tombstones);
//! * **DMA-consistent swapping**: an insertion's displacement chain is
//!   planned first ([`RobinhoodTable::plan_insert`]) and applied starting
//!   from the last (free) element backward, so a concurrent DMA read never
//!   observes a state with an existing element missing. Objects larger
//!   than the inline cap (paper: 256 B) are stored outside the table and
//!   referenced by pointer, so swaps never move large payloads.
//!
//! # Lookup cost accounting
//!
//! [`RobinhoodTable::dma_lookup`] simulates what the server-side SmartNIC
//! does on a cache miss: read `home .. home + min(d_i + k, Dm)`, optionally
//! a second adjacent read up to `Dm`, optionally the overflow page. The
//! returned [`LookupTrace`] carries objects read, bytes, and PCIe
//! roundtrips — the raw material of Table 2.

use crate::hash::slot_for;
use crate::types::{Key, Value, Version, WritePayload};
use std::collections::HashMap;
use xenic_sim::SmallVec;

/// Fixed per-slot metadata bytes: key (8) + displacement (4) + version (8)
/// + value length (2), padded to 24.
const SLOT_HEADER_BYTES: u32 = 24;

/// Configuration for a [`RobinhoodTable`].
#[derive(Clone, Debug)]
pub struct RobinhoodConfig {
    /// Number of slots. Fixed at construction (the paper sizes tables to
    /// the workload; occupancy, not resizing, is the variable studied).
    pub capacity: usize,
    /// Global displacement limit `Dm`; `None` disables the limit (the
    /// "no limit" row of Table 2).
    pub displacement_limit: Option<u32>,
    /// Slots per segment (one NIC index entry per segment).
    pub segment_slots: usize,
    /// Largest value stored inline in a slot; larger values live outside
    /// the table behind a pointer (paper: 256 B).
    pub inline_cap: usize,
    /// Inline value area per slot, used for DMA byte accounting. Usually
    /// the workload's common value size.
    pub slot_value_bytes: u32,
}

impl Default for RobinhoodConfig {
    fn default() -> Self {
        RobinhoodConfig {
            capacity: 1024,
            displacement_limit: Some(8),
            segment_slots: 8,
            inline_cap: 256,
            slot_value_bytes: 64,
        }
    }
}

/// One occupied slot.
#[derive(Clone, Debug)]
struct Slot {
    key: Key,
    home: usize,
    version: Version,
    value: Stored,
}

/// Inline or out-of-table storage for a value.
#[derive(Clone, Debug)]
enum Stored {
    /// Value lives in the slot (≤ inline cap).
    Inline(Value),
    /// Value lives outside the table; the slot holds a pointer. The NIC
    /// fetches it with one extra single-object DMA read.
    Indirect(Value),
}

impl Stored {
    fn value(&self) -> &Value {
        match self {
            Stored::Inline(v) | Stored::Indirect(v) => v,
        }
    }

    fn value_mut(&mut self) -> &mut Value {
        match self {
            Stored::Inline(v) | Stored::Indirect(v) => v,
        }
    }

    fn is_indirect(&self) -> bool {
        matches!(self, Stored::Indirect(_))
    }
}

/// An overflow-bucket entry (insertion hit the displacement limit).
#[derive(Clone, Debug)]
struct OverflowEntry {
    key: Key,
    home: usize,
    version: Version,
    value: Stored,
}

/// Result of an insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// New key placed in the table.
    Inserted,
    /// New key appended to its segment's overflow bucket.
    InsertedOverflow,
    /// Key existed; value and version replaced in place.
    Updated,
    /// No free slot reachable (table effectively full).
    TableFull,
}

/// A contiguous region of slots read by one DMA.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadRegion {
    /// First slot index.
    pub start: usize,
    /// Number of slots read (may wrap modulo capacity).
    pub slots: usize,
}

/// The observable cost of one simulated remote (DMA) lookup.
#[derive(Clone, Debug)]
pub struct LookupTrace {
    /// The value and version, if the key exists.
    pub found: Option<(Value, Version)>,
    /// Table regions read, in order.
    pub regions: Vec<ReadRegion>,
    /// Overflow-bucket entries scanned (0 if the overflow page was not
    /// read).
    pub overflow_objects: usize,
    /// Whether the overflow page was read.
    pub read_overflow: bool,
    /// Extra single-object DMA read for an out-of-table (indirect) value,
    /// in bytes.
    pub indirect_bytes: u32,
    /// Total PCIe roundtrips (region reads + overflow page read; the
    /// indirect value fetch is a further dependent read).
    pub roundtrips: usize,
    /// Total objects (slots + overflow entries) read.
    pub objects_read: usize,
    /// Total bytes transferred over PCIe for the lookup.
    pub bytes_read: u64,
}

/// Planned placement chain for an insertion (see module docs on
/// DMA-consistent swapping).
#[derive(Clone, Debug)]
pub struct InsertPlan {
    /// Slot writes in probe order: the first entry is the incoming key at
    /// its final position; subsequent entries are displaced elements at
    /// their new positions. Applying in *reverse* order guarantees no
    /// element ever vanishes from the table mid-application. At the
    /// provisioned ~65% occupancy most chains are one or two entries, so
    /// the plan stays allocation-free inline (preload inserts one plan
    /// per key — this was the top allocation site of a TPC-C cluster
    /// build before the small-vector change).
    pub placements: SmallVec<(usize, PlannedEntry), 2>,
    /// Element pushed to an overflow bucket (segment id), if the chain's
    /// last displaced element hit the limit.
    pub overflow: Option<(usize, PlannedEntry)>,
}

/// An element in an [`InsertPlan`].
#[derive(Clone, Debug)]
pub struct PlannedEntry {
    /// The element's key.
    pub key: Key,
    /// Its home slot.
    pub home: usize,
    version: Version,
    value: Stored,
}

/// The Xenic host-side Robinhood hash table.
pub struct RobinhoodTable {
    cfg: RobinhoodConfig,
    slots: Vec<Option<Slot>>,
    /// Overflow buckets keyed by segment id.
    overflow: HashMap<usize, Vec<OverflowEntry>>,
    /// Highest displacement ever placed, per home-segment (the host-side
    /// truth that the NIC's `d_i` hints track). Monotone: deletions do not
    /// decrease it, matching the "highest known" semantics.
    seg_max_disp: Vec<u32>,
    /// Global max displacement ever placed (scan bound for unlimited Dm).
    global_max_disp: u32,
    len: usize,
    overflow_len: usize,
}

impl RobinhoodTable {
    /// Creates an empty table.
    pub fn new(cfg: RobinhoodConfig) -> Self {
        assert!(cfg.capacity > 0, "capacity must be positive");
        assert!(cfg.segment_slots > 0, "segment size must be positive");
        let segments = cfg.capacity.div_ceil(cfg.segment_slots);
        RobinhoodTable {
            slots: vec![None; cfg.capacity],
            overflow: HashMap::new(),
            seg_max_disp: vec![0; segments],
            global_max_disp: 0,
            len: 0,
            overflow_len: 0,
            cfg,
        }
    }

    /// Table capacity in slots.
    pub fn capacity(&self) -> usize {
        self.cfg.capacity
    }

    /// Keys stored in table slots (excludes overflow).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no keys at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0 && self.overflow_len == 0
    }

    /// Keys stored in overflow buckets.
    pub fn overflow_len(&self) -> usize {
        self.overflow_len
    }

    /// Fraction of slots occupied.
    pub fn occupancy(&self) -> f64 {
        self.len as f64 / self.cfg.capacity as f64
    }

    /// Number of segments.
    pub fn segments(&self) -> usize {
        self.seg_max_disp.len()
    }

    /// The segment a key's home slot belongs to.
    pub fn segment_of_key(&self, key: Key) -> usize {
        slot_for(key, self.cfg.capacity) / self.cfg.segment_slots
    }

    /// Highest displacement ever placed for elements homed in `segment` —
    /// what an up-to-date NIC `d_i` hint would hold.
    pub fn seg_max_disp(&self, segment: usize) -> u32 {
        self.seg_max_disp[segment]
    }

    /// Whether `segment` currently has overflow entries.
    pub fn seg_has_overflow(&self, segment: usize) -> bool {
        self.overflow.get(&segment).is_some_and(|v| !v.is_empty())
    }

    /// Bytes one slot occupies (header + inline value area).
    pub fn slot_bytes(&self) -> u32 {
        SLOT_HEADER_BYTES + self.cfg.slot_value_bytes
    }

    fn home_of(&self, key: Key) -> usize {
        slot_for(key, self.cfg.capacity)
    }

    fn disp_of(&self, home: usize, pos: usize) -> u32 {
        ((pos + self.cfg.capacity - home) % self.cfg.capacity) as u32
    }

    fn store_for(&self, value: Value) -> Stored {
        if value.len() > self.cfg.inline_cap {
            Stored::Indirect(value)
        } else {
            Stored::Inline(value)
        }
    }

    fn scan_bound(&self) -> u32 {
        match self.cfg.displacement_limit {
            Some(dm) => dm,
            None => self.global_max_disp,
        }
    }

    fn note_placement(&mut self, home: usize, disp: u32) {
        let seg = home / self.cfg.segment_slots;
        if disp > self.seg_max_disp[seg] {
            self.seg_max_disp[seg] = disp;
        }
        if disp > self.global_max_disp {
            self.global_max_disp = disp;
        }
    }

    /// Finds the slot index of `key`, if present in a table slot.
    fn find_slot(&self, key: Key) -> Option<usize> {
        let home = self.home_of(key);
        let bound = self.scan_bound();
        for i in 0..=bound {
            let pos = (home + i as usize) % self.cfg.capacity;
            match &self.slots[pos] {
                None => return None,
                Some(s) if s.key == key => return Some(pos),
                Some(_) => {}
            }
        }
        None
    }

    fn find_overflow(&self, key: Key) -> Option<(usize, usize)> {
        let seg = self.segment_of_key(key);
        let bucket = self.overflow.get(&seg)?;
        bucket
            .iter()
            .position(|e| e.key == key)
            .map(|idx| (seg, idx))
    }

    /// Local (host CPU) lookup: value and version.
    pub fn get(&self, key: Key) -> Option<(&Value, Version)> {
        if let Some(pos) = self.find_slot(key) {
            let s = self.slots[pos].as_ref().expect("found slot occupied");
            return Some((s.value.value(), s.version));
        }
        let (seg, idx) = self.find_overflow(key)?;
        let e = &self.overflow[&seg][idx];
        Some((e.value.value(), e.version))
    }

    /// Starts fetching the home slot of every key in `keys`, so a batch
    /// of point operations that follows pays overlapping misses instead
    /// of one dependent miss per key. Changes nothing.
    pub fn prefetch_slots(&self, keys: impl IntoIterator<Item = Key>) {
        for key in keys {
            xenic_sim::prefetch(&self.slots[self.home_of(key)]);
        }
    }

    /// Starts fetching the value buffer of every key in `keys` that is
    /// present. Probing the slots is what this waits on, so it belongs
    /// after [`Self::prefetch_slots`] over the same keys. Changes nothing.
    pub fn prefetch_values(&self, keys: impl IntoIterator<Item = Key>) {
        for key in keys {
            if let Some((value, _)) = self.get(key) {
                value.prefetch();
            }
        }
    }

    /// True if `key` exists (slot or overflow).
    pub fn contains(&self, key: Key) -> bool {
        self.find_slot(key).is_some() || self.find_overflow(key).is_some()
    }

    /// Plans an insertion without mutating the table. Returns `None` if
    /// the key already exists (use [`RobinhoodTable::update`]) or the
    /// table is full along the probe path.
    ///
    /// Exposed so tests can verify the DMA-consistency property: applying
    /// the plan's placements in reverse keeps every pre-existing element
    /// readable at every intermediate step.
    pub fn plan_insert(&self, key: Key, value: Value, version: Version) -> Option<InsertPlan> {
        let home = self.home_of(key);
        let mut carry = PlannedEntry {
            key,
            home,
            version,
            value: self.store_for(value),
        };
        let mut pos = home;
        let mut disp: u32 = 0;
        let mut placements = SmallVec::new();
        // Bound the walk at one full table sweep to guarantee termination.
        for _ in 0..self.cfg.capacity {
            if let Some(dm) = self.cfg.displacement_limit {
                if disp > dm {
                    let seg = carry.home / self.cfg.segment_slots;
                    return Some(InsertPlan {
                        placements,
                        overflow: Some((seg, carry)),
                    });
                }
            }
            match &self.slots[pos] {
                None => {
                    placements.push((pos, carry));
                    return Some(InsertPlan {
                        placements,
                        overflow: None,
                    });
                }
                Some(existing) => {
                    let existing_disp = self.disp_of(existing.home, pos);
                    if existing_disp < disp {
                        // Rich element: steal its slot, carry it onward.
                        placements.push((pos, carry));
                        carry = PlannedEntry {
                            key: existing.key,
                            home: existing.home,
                            version: existing.version,
                            value: existing.value.clone(),
                        };
                        disp = existing_disp;
                    }
                }
            }
            pos = (pos + 1) % self.cfg.capacity;
            disp += 1;
        }
        None
    }

    /// Applies a planned insertion. Placements are written in reverse
    /// order (last displaced element first), the copy-list discipline that
    /// keeps concurrent DMA readers from missing an element (§4.1.2).
    pub fn apply_plan(&mut self, plan: InsertPlan) {
        if let Some((seg, e)) = plan.overflow {
            self.overflow.entry(seg).or_default().push(OverflowEntry {
                key: e.key,
                home: e.home,
                version: e.version,
                value: e.value,
            });
            self.overflow_len += 1;
        }
        let mut new_in_table = 0;
        for (pos, e) in plan.placements.into_iter().rev() {
            let disp = self.disp_of(e.home, pos);
            self.note_placement(e.home, disp);
            let was_empty = self.slots[pos].is_none();
            self.slots[pos] = Some(Slot {
                key: e.key,
                home: e.home,
                version: e.version,
                value: e.value,
            });
            if was_empty {
                new_in_table += 1;
            }
        }
        // Exactly one net element enters the table per plan application
        // (the chain shifts existing elements; only the deepest placement
        // fills a previously-empty slot) — unless the new key itself went
        // to overflow with an empty chain.
        self.len += new_in_table;
    }

    /// Inserts a new key or updates an existing one.
    pub fn insert(&mut self, key: Key, value: Value) -> InsertOutcome {
        self.insert_versioned(key, value, 1)
    }

    /// Inserts with an explicit initial version.
    pub fn insert_versioned(&mut self, key: Key, value: Value, version: Version) -> InsertOutcome {
        if self.contains(key) {
            self.update(key, value, version);
            return InsertOutcome::Updated;
        }
        match self.plan_insert(key, value, version) {
            None => InsertOutcome::TableFull,
            Some(plan) => {
                // The outcome describes where the *new key* landed: it is
                // the chain's first placement when one exists; otherwise it
                // went straight to overflow.
                let new_key_overflowed = plan.placements.is_empty();
                self.apply_plan(plan);
                if new_key_overflowed {
                    InsertOutcome::InsertedOverflow
                } else {
                    InsertOutcome::Inserted
                }
            }
        }
    }

    /// Applies a write payload to an existing key with a single probe.
    /// Returns false if the key is absent (the caller inserts). Delta
    /// payloads preserve the value's length, so the slot's
    /// inline/indirect classification cannot flip and the bytes mutate in
    /// place when uniquely owned; full writes re-classify via the normal
    /// store path.
    pub fn apply_payload(&mut self, key: Key, payload: &WritePayload, version: Version) -> bool {
        if let WritePayload::Full(v) = payload {
            return self.update(key, v.clone(), version);
        }
        if let Some(pos) = self.find_slot(key) {
            let s = self.slots[pos].as_mut().expect("slot occupied");
            payload.apply_in_place(s.value.value_mut());
            s.version = version;
            return true;
        }
        if let Some((seg, idx)) = self.find_overflow(key) {
            let bucket = self.overflow.get_mut(&seg).expect("bucket exists");
            payload.apply_in_place(bucket[idx].value.value_mut());
            bucket[idx].version = version;
            return true;
        }
        false
    }

    /// Replaces the value and version of an existing key. Returns false if
    /// the key is absent.
    pub fn update(&mut self, key: Key, value: Value, version: Version) -> bool {
        if let Some(pos) = self.find_slot(key) {
            let stored = self.store_for(value);
            let s = self.slots[pos].as_mut().expect("slot occupied");
            s.value = stored;
            s.version = version;
            return true;
        }
        if let Some((seg, idx)) = self.find_overflow(key) {
            let stored = self.store_for(value);
            let bucket = self.overflow.get_mut(&seg).expect("bucket exists");
            bucket[idx].value = stored;
            bucket[idx].version = version;
            return true;
        }
        false
    }

    /// Deletes a key. Per §4.1.2: if an overflow element of the segment
    /// can legally take the freed slot, swap it in; otherwise perform a
    /// backward shift bounded by the displacement limit.
    pub fn remove(&mut self, key: Key) -> bool {
        // Overflow-resident keys just leave their bucket.
        if let Some((seg, idx)) = self.find_overflow(key) {
            let bucket = self.overflow.get_mut(&seg).expect("bucket exists");
            bucket.swap_remove(idx);
            self.overflow_len -= 1;
            return true;
        }
        let Some(pos) = self.find_slot(key) else {
            return false;
        };
        let seg_of_pos = pos / self.cfg.segment_slots;
        // Try to promote an overflow element into the freed slot: it must
        // be homed at-or-before `pos` and land within the limit.
        if let Some(bucket) = self.overflow.get_mut(&seg_of_pos) {
            let dm = self.cfg.displacement_limit.unwrap_or(u32::MAX);
            let cap = self.cfg.capacity;
            let fit = bucket.iter().position(|e| {
                let d = ((pos + cap - e.home) % cap) as u32;
                // Must not wrap past the probe window.
                d <= dm
            });
            if let Some(idx) = fit {
                let e = bucket.swap_remove(idx);
                self.overflow_len -= 1;
                let disp = self.disp_of(e.home, pos);
                self.note_placement(e.home, disp);
                self.slots[pos] = Some(Slot {
                    key: e.key,
                    home: e.home,
                    version: e.version,
                    value: e.value,
                });
                return true;
            }
        }
        // Backward shift: pull successors with positive displacement back
        // one slot until a hole or a zero-displacement element.
        self.slots[pos] = None;
        self.len -= 1;
        let mut hole = pos;
        loop {
            let next = (hole + 1) % self.cfg.capacity;
            let movable = match &self.slots[next] {
                Some(s) => self.disp_of(s.home, next) > 0,
                None => false,
            };
            if !movable {
                break;
            }
            self.slots[hole] = self.slots[next].take();
            hole = next;
        }
        true
    }

    /// Simulates the server-side SmartNIC's cache-miss lookup (§4.1.3).
    ///
    /// `d_hint` is the NIC index entry's known displacement `d_i` for the
    /// key's home segment; `slack` is the paper's `k` (set to 1 from
    /// experimentation). The plan:
    ///
    /// 1. read `home ..= home + min(d_hint + k, Dm)` — one DMA;
    /// 2. if not found and more table remains below `Dm`, a second
    ///    adjacent DMA up to `Dm`;
    /// 3. if still not found (or `d_i == Dm` already), read the segment's
    ///    overflow page;
    /// 4. an indirect (out-of-table) value adds a dependent single-object
    ///    read.
    pub fn dma_lookup(&self, key: Key, d_hint: u32, slack: u32) -> LookupTrace {
        let home = self.home_of(key);
        let bound = self.scan_bound();
        let mut trace = LookupTrace {
            found: None,
            regions: Vec::new(),
            overflow_objects: 0,
            read_overflow: false,
            indirect_bytes: 0,
            roundtrips: 0,
            objects_read: 0,
            bytes_read: 0,
        };
        let slot_bytes = u64::from(self.slot_bytes());
        let first_span = (d_hint.saturating_add(slack)).min(bound) as usize + 1;

        let scan = |trace: &mut LookupTrace, start_off: usize, span: usize| -> Option<usize> {
            if span == 0 {
                return None;
            }
            trace.regions.push(ReadRegion {
                start: (home + start_off) % self.cfg.capacity,
                slots: span,
            });
            trace.roundtrips += 1;
            trace.objects_read += span;
            trace.bytes_read += span as u64 * slot_bytes;
            for i in start_off..start_off + span {
                let pos = (home + i) % self.cfg.capacity;
                if let Some(s) = &self.slots[pos] {
                    if s.key == key {
                        return Some(pos);
                    }
                }
            }
            None
        };

        let mut found_pos = scan(&mut trace, 0, first_span);
        if found_pos.is_none() && first_span < bound as usize + 1 {
            // Second, adjacent read up to the limit.
            found_pos = scan(&mut trace, first_span, bound as usize + 1 - first_span);
        }
        if let Some(pos) = found_pos {
            let s = self.slots[pos].as_ref().expect("found slot occupied");
            if s.value.is_indirect() {
                trace.indirect_bytes = s.value.value().len() as u32;
                trace.bytes_read += u64::from(trace.indirect_bytes);
            }
            trace.found = Some((s.value.value().clone(), s.version));
            return trace;
        }
        // Overflow page.
        let seg = home / self.cfg.segment_slots;
        if let Some(bucket) = self.overflow.get(&seg) {
            if !bucket.is_empty() {
                trace.read_overflow = true;
                trace.roundtrips += 1;
                trace.overflow_objects = bucket.len();
                trace.objects_read += bucket.len();
                trace.bytes_read += bucket.len() as u64 * slot_bytes;
                if let Some(e) = bucket.iter().find(|e| e.key == key) {
                    if e.value.is_indirect() {
                        trace.indirect_bytes = e.value.value().len() as u32;
                        trace.bytes_read += u64::from(trace.indirect_bytes);
                    }
                    trace.found = Some((e.value.value().clone(), e.version));
                }
            }
        }
        trace
    }

    /// Iterates all `(key, version)` pairs (slots then overflow); used by
    /// recovery and consistency checks.
    pub fn iter_keys(&self) -> impl Iterator<Item = (Key, Version)> + '_ {
        self.slots
            .iter()
            .flatten()
            .map(|s| (s.key, s.version))
            .chain(
                self.overflow
                    .values()
                    .flatten()
                    .map(|e| (e.key, e.version)),
            )
    }

    /// Mean displacement of in-table elements (diagnostics / experiments).
    pub fn mean_displacement(&self) -> f64 {
        let mut total = 0u64;
        let mut n = 0u64;
        for (pos, s) in self.slots.iter().enumerate() {
            if let Some(s) = s {
                total += u64::from(self.disp_of(s.home, pos));
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(capacity: usize, dm: Option<u32>) -> RobinhoodConfig {
        RobinhoodConfig {
            capacity,
            displacement_limit: dm,
            segment_slots: 8,
            inline_cap: 256,
            slot_value_bytes: 64,
        }
    }

    fn val(n: u8) -> Value {
        Value::filled(8, n)
    }

    #[test]
    fn insert_and_get() {
        let mut t = RobinhoodTable::new(cfg(64, Some(8)));
        assert_eq!(t.insert(1, val(1)), InsertOutcome::Inserted);
        assert_eq!(t.insert(2, val(2)), InsertOutcome::Inserted);
        assert_eq!(t.get(1).unwrap().0.bytes()[0], 1);
        assert_eq!(t.get(2).unwrap().0.bytes()[0], 2);
        assert!(t.get(3).is_none());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn insert_existing_updates() {
        let mut t = RobinhoodTable::new(cfg(64, Some(8)));
        t.insert(1, val(1));
        assert_eq!(t.insert(1, val(9)), InsertOutcome::Updated);
        assert_eq!(t.get(1).unwrap().0.bytes()[0], 9);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn update_bumps_version() {
        let mut t = RobinhoodTable::new(cfg(64, Some(8)));
        t.insert(1, val(1));
        assert!(t.update(1, val(2), 7));
        assert_eq!(t.get(1).unwrap().1, 7);
        assert!(!t.update(99, val(2), 7));
    }

    #[test]
    fn fill_to_high_occupancy_all_findable() {
        let mut t = RobinhoodTable::new(cfg(1024, Some(8)));
        let n = 920; // ~90%
        for k in 0..n {
            let o = t.insert(k, val((k % 251) as u8));
            assert_ne!(o, InsertOutcome::TableFull, "key {k}");
        }
        assert_eq!(t.len() + t.overflow_len(), n as usize);
        for k in 0..n {
            let (v, _) = t.get(k).unwrap_or_else(|| panic!("key {k} lost"));
            assert_eq!(v.bytes()[0], (k % 251) as u8);
        }
        assert!(t.occupancy() > 0.85);
    }

    #[test]
    fn displacement_limit_respected_in_table() {
        let mut t = RobinhoodTable::new(cfg(256, Some(4)));
        for k in 0..230 {
            t.insert(k, val(0));
        }
        for (pos, s) in t.slots.iter().enumerate() {
            if let Some(s) = s {
                assert!(t.disp_of(s.home, pos) <= 4, "disp > Dm at {pos}");
            }
        }
        assert!(t.overflow_len() > 0, "high occupancy at Dm=4 must overflow");
    }

    #[test]
    fn unlimited_displacement_never_overflows() {
        let mut t = RobinhoodTable::new(cfg(256, None));
        for k in 0..250 {
            assert_ne!(t.insert(k, val(0)), InsertOutcome::TableFull);
        }
        assert_eq!(t.overflow_len(), 0);
        for k in 0..250 {
            assert!(t.get(k).is_some(), "key {k}");
        }
    }

    #[test]
    fn table_full_reported() {
        let mut t = RobinhoodTable::new(cfg(16, None));
        for k in 0..16 {
            assert_ne!(t.insert(k, val(0)), InsertOutcome::TableFull);
        }
        assert_eq!(t.insert(100, val(0)), InsertOutcome::TableFull);
    }

    #[test]
    fn remove_then_reinsert() {
        let mut t = RobinhoodTable::new(cfg(64, Some(8)));
        for k in 0..40 {
            t.insert(k, val(1));
        }
        assert!(t.remove(17));
        assert!(!t.contains(17));
        assert!(!t.remove(17));
        for k in 0..40 {
            if k != 17 {
                assert!(t.contains(k), "key {k} lost by backward shift");
            }
        }
        t.insert(17, val(2));
        assert_eq!(t.get(17).unwrap().0.bytes()[0], 2);
    }

    #[test]
    fn remove_promotes_overflow_when_possible() {
        let mut t = RobinhoodTable::new(cfg(256, Some(2)));
        for k in 0..240 {
            t.insert(k, val(0));
        }
        let before_overflow = t.overflow_len();
        assert!(before_overflow > 0);
        // Delete many in-table keys; overflow should shrink as elements
        // get promoted into freed slots.
        let keys: Vec<Key> = t
            .slots
            .iter()
            .flatten()
            .map(|s| s.key)
            .take(60)
            .collect();
        for k in keys {
            t.remove(k);
        }
        assert!(
            t.overflow_len() < before_overflow,
            "overflow {} not reduced from {}",
            t.overflow_len(),
            before_overflow
        );
        // Everything remaining must still be findable.
        let remaining: Vec<Key> = t.iter_keys().map(|(k, _)| k).collect();
        for k in remaining {
            assert!(t.get(k).is_some());
        }
    }

    #[test]
    fn dma_lookup_single_read_common_case() {
        let mut t = RobinhoodTable::new(cfg(1024, Some(8)));
        for k in 0..700 {
            t.insert(k, val(0));
        }
        let key = 350;
        let seg = t.segment_of_key(key);
        let hint = t.seg_max_disp(seg);
        let tr = t.dma_lookup(key, hint, 1);
        assert!(tr.found.is_some());
        assert_eq!(tr.roundtrips, 1, "accurate hint must give one DMA");
        assert_eq!(tr.objects_read, (hint + 1 + 1) as usize);
        assert_eq!(
            tr.bytes_read,
            tr.objects_read as u64 * u64::from(t.slot_bytes())
        );
    }

    #[test]
    fn dma_lookup_stale_hint_second_read() {
        let mut t = RobinhoodTable::new(cfg(1024, Some(16)));
        for k in 0..960 {
            t.insert(k, val(0));
        }
        // Find a key whose displacement is ≥ 3 and look it up with a stale
        // hint of 0: span 0+1+1=2 misses it, forcing a second read.
        let (pos, s) = t
            .slots
            .iter()
            .enumerate()
            .find_map(|(p, s)| {
                s.as_ref()
                    .filter(|s| t.disp_of(s.home, p) >= 3)
                    .map(|s| (p, s.key))
            })
            .expect("some displaced key at 94% occupancy");
        let _ = pos;
        let tr = t.dma_lookup(s, 0, 1);
        assert!(tr.found.is_some());
        assert_eq!(tr.roundtrips, 2);
        assert_eq!(tr.regions.len(), 2);
    }

    #[test]
    fn dma_lookup_overflow_roundtrip() {
        let mut t = RobinhoodTable::new(cfg(256, Some(2)));
        for k in 0..240 {
            t.insert(k, val(0));
        }
        // Pick an overflow-resident key.
        let (seg, e) = t
            .overflow
            .iter()
            .find(|(_, b)| !b.is_empty())
            .map(|(s, b)| (*s, b[0].key))
            .expect("overflow exists at Dm=2");
        let _ = seg;
        let tr = t.dma_lookup(e, 2, 1);
        assert!(tr.found.is_some());
        assert!(tr.read_overflow);
        assert!(tr.roundtrips >= 2);
        assert!(tr.overflow_objects >= 1);
    }

    #[test]
    fn dma_lookup_absent_key() {
        let mut t = RobinhoodTable::new(cfg(256, Some(8)));
        for k in 0..200 {
            t.insert(k, val(0));
        }
        let tr = t.dma_lookup(999_999, 8, 1);
        assert!(tr.found.is_none());
        assert!(tr.roundtrips >= 1);
    }

    #[test]
    fn large_values_stored_indirect() {
        let mut t = RobinhoodTable::new(cfg(64, Some(8)));
        let big = Value::filled(660, 3); // TPC-C's max object size
        t.insert(5, big.clone());
        let (v, _) = t.get(5).unwrap();
        assert_eq!(v, &big);
        let seg = t.segment_of_key(5);
        let tr = t.dma_lookup(5, t.seg_max_disp(seg), 1);
        assert_eq!(tr.indirect_bytes, 660);
        assert!(tr.bytes_read >= 660);
    }

    #[test]
    fn copy_list_application_never_loses_elements() {
        // The DMA-consistency property: applying a plan's placements in
        // reverse keeps every pre-existing key findable (by full scan) at
        // every intermediate step.
        let mut t = RobinhoodTable::new(cfg(128, Some(16)));
        for k in 0..100 {
            t.insert(k, val(0));
        }
        // Find a key whose insertion displaces a chain.
        let mut probe_key = 1000;
        let plan = loop {
            let p = t
                .plan_insert(probe_key, val(9), 1)
                .expect("table not full");
            if p.placements.len() > 2 {
                break p;
            }
            probe_key += 1;
        };
        let existing: Vec<Key> = t.iter_keys().map(|(k, _)| k).collect();
        // Apply placements one at a time, in reverse, scanning after each.
        let mut partial = InsertPlan {
            placements: SmallVec::new(),
            overflow: plan.overflow.clone(),
        };
        t.apply_plan(partial.clone());
        for (pos, e) in plan.placements.iter().rev() {
            partial = InsertPlan {
                placements: std::iter::once((*pos, e.clone())).collect(),
                overflow: None,
            };
            t.apply_plan(partial);
            // Every previously-present key remains present somewhere.
            for k in &existing {
                let in_slots = t.slots.iter().flatten().any(|s| s.key == *k);
                let in_overflow = t.overflow.values().flatten().any(|e| e.key == *k);
                assert!(in_slots || in_overflow, "key {k} vanished mid-apply");
            }
        }
        // And the new key is now findable.
        assert!(t.contains(probe_key));
    }

    #[test]
    fn seg_max_disp_tracks_placements() {
        let mut t = RobinhoodTable::new(cfg(1024, Some(8)));
        for k in 0..900 {
            t.insert(k, val(0));
        }
        // For every in-table element, its home segment's hint must be ≥
        // its actual displacement.
        for (pos, s) in t.slots.iter().enumerate() {
            if let Some(s) = s {
                let seg = s.home / t.cfg.segment_slots;
                assert!(t.seg_max_disp(seg) >= t.disp_of(s.home, pos));
            }
        }
    }

    #[test]
    fn mean_displacement_reasonable_at_90pct() {
        let mut t = RobinhoodTable::new(cfg(8192, None));
        for k in 0..7372 {
            t.insert(k, val(0));
        }
        let m = t.mean_displacement();
        // Robinhood at 90% occupancy: mean displacement in the low single
        // digits to ~6 (paper's no-limit mean objects read is 6.39).
        assert!((1.0..=8.0).contains(&m), "mean displacement {m}");
    }

    #[test]
    fn iter_keys_covers_table_and_overflow() {
        let mut t = RobinhoodTable::new(cfg(64, Some(1)));
        for k in 0..56 {
            t.insert(k, val(0));
        }
        let n = t.iter_keys().count();
        assert_eq!(n, 56);
        assert!(t.overflow_len() > 0);
    }
}
