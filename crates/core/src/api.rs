//! The workload-facing transaction API shared by Xenic and the baselines.
//!
//! A workload produces [`TxnSpec`]s — declarative descriptions of a
//! transaction's read set, write set (as [`UpdateOp`]s computable from the
//! read values), inserts, and compute cost. Because the write logic is
//! *data*, not host code, it can be executed anywhere: on the coordinator
//! host, on the coordinator-side SmartNIC (§4.2.2 function shipping), or
//! on a remote primary NIC (§4.2.3 multi-hop) — exactly the paper's
//! "abstract interface for execution logic ... exposing the transaction's
//! read and write sets and the external state associated with the
//! transaction".

use xenic_sim::SmallVec;
use xenic_store::{Key, Value, Version, WritePayload};

/// Number of bits of a [`Key`] reserved for the shard id (top byte).
pub const SHARD_SHIFT: u32 = 56;

/// Packs a shard id and a shard-local key into a global [`Key`].
pub fn make_key(shard: u32, local: u64) -> Key {
    debug_assert!(shard < 256);
    debug_assert!(local < (1 << SHARD_SHIFT));
    (u64::from(shard) << SHARD_SHIFT) | local
}

/// Extracts the shard id from a global key.
pub fn shard_of(key: Key) -> u32 {
    (key >> SHARD_SHIFT) as u32
}

/// Extracts the shard-local part of a global key.
pub fn local_of(key: Key) -> u64 {
    key & ((1 << SHARD_SHIFT) - 1)
}

/// Keyspace partitioning and replica placement.
///
/// Shard `s`'s primary is node `s`; its `replication - 1` backups are the
/// next nodes ring-wise ("each node acts as ... a primary replica of one
/// database shard, and a backup replica for \[other\] shards", §4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partitioning {
    /// Number of nodes (= number of shards).
    pub nodes: u32,
    /// Total replicas per shard (paper's benchmarks: 3 = 1 primary + 2
    /// backups).
    pub replication: u32,
}

impl Partitioning {
    /// Creates a partitioning; `replication` must fit the cluster.
    pub fn new(nodes: u32, replication: u32) -> Self {
        assert!(
            replication >= 1 && replication <= nodes,
            "replication {replication} does not fit a {nodes}-node cluster (need 1..={nodes})"
        );
        Partitioning { nodes, replication }
    }

    /// The primary node of a shard.
    pub fn primary(&self, shard: u32) -> usize {
        (shard % self.nodes) as usize
    }

    /// The backup nodes of a shard, in ring order. An iterator, not a
    /// `Vec`: every append, Execute fan-out and log shipment walks it.
    pub fn backups(&self, shard: u32) -> impl ExactSizeIterator<Item = usize> + Clone {
        let nodes = self.nodes;
        (1..self.replication).map(move |i| ((shard + i) % nodes) as usize)
    }

    /// All replica nodes of a shard: primary first, then the backups in
    /// ring order.
    pub fn replicas(&self, shard: u32) -> impl ExactSizeIterator<Item = usize> + Clone {
        let nodes = self.nodes;
        (0..self.replication).map(move |i| ((shard + i) % nodes) as usize)
    }

    /// Whether `node` hosts a replica (primary or backup) of `shard`.
    pub fn holds(&self, node: usize, shard: u32) -> bool {
        self.replicas(shard).any(|r| r == node)
    }

    /// The shards for which `node` is a backup.
    pub fn backup_shards(&self, node: usize) -> Vec<u32> {
        (0..self.nodes)
            .filter(|&s| self.backups(s).any(|b| b == node))
            .collect()
    }
}

/// A write computable from the transaction's read values — the shippable
/// execution logic.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateOp {
    /// Blind write of a new value.
    Put(Value),
    /// Interpret the first 8 bytes as a little-endian `i64` counter and
    /// add the delta (Smallbank balances, TPC-C stock quantities).
    AddI64(i64),
    /// Rewrite with a same-size value derived from the old one (models
    /// read-modify-write record edits whose exact bytes don't affect
    /// protocol behaviour).
    Mutate,
}

impl UpdateOp {
    /// The write payload this op ships to each replica.
    pub fn payload(&self) -> WritePayload {
        match self {
            UpdateOp::Put(v) => WritePayload::Full(v.clone()),
            UpdateOp::AddI64(d) => WritePayload::AddI64(*d),
            UpdateOp::Mutate => WritePayload::Mutate,
        }
    }

    /// Applies the op to the current value, producing the new value —
    /// exactly what each replica's [`WritePayload::apply`] computes.
    pub fn apply(&self, old: &Value) -> Value {
        self.payload().apply(old)
    }
}

/// Where a transaction's execution logic may run (the paper's
/// per-transaction user annotation, §4.3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ShipMode {
    /// Execute on the coordinator host (compute-heavy or local logic).
    #[default]
    Host,
    /// Shippable to the coordinator-side or a remote primary NIC (small
    /// state, cheap compute).
    Nic,
}

/// One additional execution round of a multi-shot transaction
/// (§4.2 step 3: "the coordinator may issue subsequent execute requests
/// to read and/or lock additional keys until execution is finished").
#[derive(Clone, Debug, Default)]
pub struct TxnRound {
    /// Keys read in this round.
    pub reads: Vec<Key>,
    /// Keys locked and updated in this round.
    pub updates: Vec<(Key, UpdateOp)>,
}

/// A range-read predicate: all keys in `lo..=hi` (one shard), up to
/// `limit` matches in key order. Executed as a NIC-resident ordered-index
/// walk at the range's primary; Validate re-checks the predicate
/// (membership, versions, and in-range locks) so concurrent inserts into
/// the scanned range force an abort — the next-key/predicate-locking
/// phantom guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanSpec {
    /// First key of the range (inclusive). Must be on the same shard as
    /// `hi` — ranges never span shards.
    pub lo: Key,
    /// Last key of the range (inclusive).
    pub hi: Key,
    /// Maximum number of matches returned (`u32::MAX` = unbounded).
    pub limit: u32,
}

impl ScanSpec {
    /// An unbounded range predicate over `lo..=hi`.
    pub fn new(lo: Key, hi: Key) -> Self {
        debug_assert!(lo <= hi, "empty scan range");
        debug_assert_eq!(shard_of(lo), shard_of(hi), "scan range spans shards");
        ScanSpec {
            lo,
            hi,
            limit: u32::MAX,
        }
    }

    /// Caps the number of matches.
    pub fn with_limit(mut self, limit: u32) -> Self {
        self.limit = limit.max(1);
        self
    }

    /// The shard the whole range lives on.
    pub fn shard(&self) -> u32 {
        shard_of(self.lo)
    }
}

/// Order-sensitive fingerprint of a scan's observed `(key, version)`
/// sequence (FNV-1a). The Execute walk computes it at the primary, the
/// coordinator echoes it into Validate, and the primary's re-walk must
/// reproduce it bit-for-bit — any membership or version change in the
/// observed range (a phantom) breaks the fingerprint.
pub fn scan_fingerprint(acc: u64, key: Key, version: Version) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = acc;
    for b in key.to_le_bytes().into_iter().chain(version.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Initial accumulator for [`scan_fingerprint`] (FNV-1a offset basis).
pub const SCAN_FP_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// A declarative transaction.
#[derive(Clone, Debug)]
pub struct TxnSpec {
    /// Keys read but not written.
    pub reads: Vec<Key>,
    /// Keys read-modified-written: locked during Execute, rewritten at
    /// Commit with `op.apply(read value)`.
    pub updates: Vec<(Key, UpdateOp)>,
    /// Brand-new keys inserted at Commit.
    pub inserts: Vec<(Key, Value)>,
    /// Range-read predicates, executed as ordered-index walks at each
    /// range's primary and re-validated for phantoms before commit.
    pub scans: Vec<ScanSpec>,
    /// Application compute on the coordinator host (e.g. B+tree work),
    /// charged when execution runs on the host, in ns.
    pub exec_host_ns: u64,
    /// The same compute on a NIC core (scaled by the Coremark ratio when
    /// built via [`TxnSpec::with_exec_cost`]), in ns.
    pub exec_nic_ns: u64,
    /// Whether the application allows shipping this transaction's logic.
    pub ship: ShipMode,
    /// Unshippable coordinator-host work charged when the transaction is
    /// initiated (e.g. TPC-C's local B+tree manipulations), in ns.
    pub local_work_ns: u64,
    /// Whether this transaction counts toward reported throughput and
    /// latency (TPC-C full mix reports only new-order transactions).
    pub metric: bool,
    /// Additional execution rounds (multi-shot transactions). Rounds run
    /// sequentially after the initial read/lock round; function shipping
    /// to remote NICs is limited to single-round transactions, exactly as
    /// in the paper (§4.2.3).
    pub rounds: Vec<TxnRound>,
}

impl Default for TxnSpec {
    fn default() -> Self {
        TxnSpec {
            reads: Vec::new(),
            updates: Vec::new(),
            inserts: Vec::new(),
            scans: Vec::new(),
            exec_host_ns: 0,
            exec_nic_ns: 0,
            ship: ShipMode::Host,
            local_work_ns: 0,
            metric: true,
            rounds: Vec::new(),
        }
    }
}

impl TxnSpec {
    /// Sets execution cost from a host-core figure, deriving the NIC cost
    /// from the Coremark ratio (NIC core ≈ 1/0.31 ≈ 3.2× slower).
    pub fn with_exec_cost(mut self, host_ns: u64, nic_core_ratio: f64) -> Self {
        self.exec_host_ns = host_ns;
        self.exec_nic_ns = (host_ns as f64 / nic_core_ratio).round() as u64;
        self
    }

    /// True if the spec writes nothing.
    pub fn is_read_only(&self) -> bool {
        self.updates.is_empty() && self.inserts.is_empty()
    }

    /// All keys the transaction touches, across every round.
    pub fn all_keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.reads
            .iter()
            .copied()
            .chain(self.updates.iter().map(|(k, _)| *k))
            .chain(self.inserts.iter().map(|(k, _)| *k))
            .chain(self.rounds.iter().flat_map(|r| {
                r.reads
                    .iter()
                    .copied()
                    .chain(r.updates.iter().map(|(k, _)| *k))
            }))
    }

    /// All write-set keys (updates + inserts), across every round.
    pub fn write_keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.updates
            .iter()
            .map(|(k, _)| *k)
            .chain(self.inserts.iter().map(|(k, _)| *k))
            .chain(self.rounds.iter().flat_map(|r| r.updates.iter().map(|(k, _)| *k)))
    }

    /// All update operations (initial round plus followups).
    pub fn all_updates(&self) -> impl Iterator<Item = &(Key, UpdateOp)> + '_ {
        self.updates
            .iter()
            .chain(self.rounds.iter().flat_map(|r| r.updates.iter()))
    }

    /// All read-set keys (initial round plus followups).
    pub fn all_reads(&self) -> impl Iterator<Item = Key> + '_ {
        self.reads
            .iter()
            .copied()
            .chain(self.rounds.iter().flat_map(|r| r.reads.iter().copied()))
    }

    /// True if this is a single-round transaction (shippable).
    pub fn single_round(&self) -> bool {
        self.rounds.is_empty()
    }

    /// True if the transaction carries any range-read predicate.
    pub fn has_scans(&self) -> bool {
        !self.scans.is_empty()
    }

    /// The distinct shards the transaction touches, sorted. Inline up to
    /// eight shards: this runs once per submitted transaction on the
    /// coordinator hot path, and a Retwis PostTweet spans up to six. The
    /// result is a temporary, so the wider inline buffer grows no stored
    /// struct.
    pub fn shards(&self) -> SmallVec<u32, 8> {
        let mut v: SmallVec<u32, 8> = SmallVec::new();
        for s in self
            .all_keys()
            .map(shard_of)
            .chain(self.scans.iter().map(ScanSpec::shard))
        {
            if !v.contains(&s) {
                v.push(s);
            }
        }
        v.sort_unstable();
        v
    }

    /// Serialized size estimate for PCIe/wire transfer of the spec.
    pub fn spec_bytes(&self) -> u32 {
        let keys = self.reads.len() + self.updates.len() + self.inserts.len();
        // A scan predicate travels as (lo, hi, limit): 20 bytes.
        let scan_bytes = self.scans.len() * 20;
        let insert_payload: usize = self.inserts.iter().map(|(_, v)| v.len()).sum();
        let update_payload: usize = self
            .updates
            .iter()
            .map(|(_, op)| match op {
                UpdateOp::Put(v) => v.len(),
                _ => 8,
            })
            .sum();
        (24 + keys * 12 + scan_bytes + insert_payload + update_payload) as u32
    }
}

/// A workload: a deterministic generator of transactions for a node.
///
/// `Send` is a supertrait so node states (which own their generator) can
/// move onto lane worker threads under the multi-lane scheduler; workload
/// generators are plain data plus a per-node RNG, so this costs nothing.
pub trait Workload: Send {
    /// Produces the next transaction a coordinator on `node` should run.
    fn next_txn(&mut self, node: usize, rng: &mut xenic_sim::DetRng) -> TxnSpec;

    /// Value size hint for sizing data-store slots.
    fn value_bytes(&self) -> u32 {
        64
    }

    /// Keys per shard to preload, as `(local key, value)` pairs.
    fn preload(&self, shard: u32) -> Vec<(Key, Value)>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_packing_roundtrips() {
        let k = make_key(5, 123_456);
        assert_eq!(shard_of(k), 5);
        assert_eq!(local_of(k), 123_456);
        let k2 = make_key(0, 0);
        assert_eq!(shard_of(k2), 0);
        assert_eq!(local_of(k2), 0);
    }

    #[test]
    fn partitioning_ring_placement() {
        let p = Partitioning::new(6, 3);
        assert_eq!(p.primary(0), 0);
        assert!(p.backups(0).eq([1, 2]));
        assert!(p.backups(5).eq([0, 1]));
        assert!(p.replicas(4).eq([4, 5, 0]));
        assert!(p.holds(0, 0));
        assert!(p.holds(2, 0));
        assert!(!p.holds(3, 0));
    }

    #[test]
    #[should_panic(expected = "replication 3 does not fit a 2-node cluster")]
    fn ring_placement_names_a_misfit() {
        Partitioning::new(2, 3);
    }

    #[test]
    fn backup_shards_inverse_of_backups() {
        let p = Partitioning::new(6, 3);
        for node in 0..6 {
            for s in p.backup_shards(node) {
                assert!(p.backups(s).any(|b| b == node));
            }
            // With RF=3 each node backs exactly 2 shards.
            assert_eq!(p.backup_shards(node).len(), 2);
        }
    }

    #[test]
    fn add_i64_update() {
        let v = Value::from_bytes(&100i64.to_le_bytes());
        let op = UpdateOp::AddI64(-30);
        let out = op.apply(&v);
        assert_eq!(i64::from_le_bytes(out.bytes()[..8].try_into().unwrap()), 70);
    }

    #[test]
    fn add_i64_pads_short_values() {
        let v = Value::from_bytes(&[5]);
        let out = UpdateOp::AddI64(2).apply(&v);
        assert_eq!(i64::from_le_bytes(out.bytes()[..8].try_into().unwrap()), 7);
    }

    #[test]
    fn put_and_mutate() {
        let old = Value::filled(12, 1);
        let new = Value::filled(12, 9);
        assert_eq!(UpdateOp::Put(new.clone()).apply(&old), new);
        let m = UpdateOp::Mutate.apply(&old);
        assert_eq!(m.len(), 12);
        assert_ne!(m, old);
    }

    #[test]
    fn spec_queries() {
        let spec = TxnSpec {
            reads: vec![make_key(0, 1), make_key(1, 2)],
            updates: vec![(make_key(1, 3), UpdateOp::AddI64(1))],
            inserts: vec![(make_key(2, 4), Value::filled(8, 0))],
            ..Default::default()
        };
        assert!(!spec.is_read_only());
        assert_eq!(spec.all_keys().count(), 4);
        assert_eq!(spec.write_keys().count(), 2);
        assert_eq!(spec.shards().as_slice(), &[0, 1, 2]);
        assert!(spec.spec_bytes() > 24);
    }

    #[test]
    fn exec_cost_scaling() {
        let spec = TxnSpec::default().with_exec_cost(310, 0.31);
        assert_eq!(spec.exec_host_ns, 310);
        assert_eq!(spec.exec_nic_ns, 1000);
    }

    #[test]
    fn read_only_spec() {
        let spec = TxnSpec {
            reads: vec![make_key(0, 1)],
            ..Default::default()
        };
        assert!(spec.is_read_only());
    }
}
