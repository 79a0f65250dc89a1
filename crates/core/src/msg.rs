//! Xenic protocol messages and their wire-size accounting.
//!
//! Every remote message charges `wire_bytes()` of frame payload: a 24-byte
//! operation header ([`OP_HEADER`]: transaction id, op kind, shard,
//! flags) plus 12 bytes per key reference and the value
//! payloads it carries. Bandwidth efficiency — fewer, leaner messages —
//! is where Xenic's throughput advantage comes from, so these sizes are
//! the load-bearing part of the model.

use crate::api::{ScanSpec, TxnSpec};
use crate::client::SlotMsg;
use std::fmt;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use xenic_sim::SmallVec;
use xenic_store::{Key, TxnId, Value, Version, WritePayload};

/// A replicated write set: key, payload (full value or shipped delta),
/// and the new version.
pub type WriteSet = Vec<(Key, WritePayload, Version)>;

/// A small key set carried inline in a (boxed) message body: the common
/// transaction touches ≤ 4 keys per shard, so read/lock/unlock sets ride
/// in the message's own box instead of a second heap block.
pub type KeySet = SmallVec<Key, 4>;

/// A small (key, version) check set, same rationale as [`KeySet`].
pub type CheckSet = SmallVec<(Key, Version), 4>;

/// Scan predicates carried by an Execute request. Transactions rarely
/// carry more than one range per shard, so two ride inline.
pub type ScanSet = SmallVec<ScanSpec, 2>;

/// Per-scan observation summaries in an ExecuteResp, request order.
pub type ScanObsSet = SmallVec<ScanObs, 2>;

/// Scan re-check set in a Validate request, same rationale.
pub type ScanCheckSet = SmallVec<ScanCheck, 2>;

/// Per-message operation header bytes.
pub const OP_HEADER: u32 = 24;
/// Bytes per key reference in a message.
pub const KEY_BYTES: u32 = 12;
/// Bytes per (key, version) check.
pub const CHECK_BYTES: u32 = 16;
/// Bytes per returned (key, value-header, version) before the payload.
pub const VALUE_HDR: u32 = 16;
/// Bytes per scan predicate in a request (lo, hi, limit).
pub const SCAN_BYTES: u32 = 20;
/// Bytes per scan observation summary in a response (lo, count, hi_obs,
/// fp).
pub const SCAN_OBS_BYTES: u32 = 28;
/// Bytes per scan re-check in a Validate (lo, hi_obs, count, fp).
pub const SCAN_CHECK_BYTES: u32 = 28;

/// What a primary NIC's range walk observed for one [`ScanSpec`]: the
/// matched rows themselves ride in [`ExecuteResp::values`] after the
/// point reads; this summary is what the coordinator needs to re-check
/// the predicate at Validate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanObs {
    /// Lower bound of the predicate this summary answers. Echoed so the
    /// coordinator can pair summaries with the spec's scans exactly even
    /// when split-mode responses (one request per predicate) or
    /// retransmissions reorder arrivals.
    pub lo: Key,
    /// Rows matched.
    pub count: u32,
    /// Upper bound actually observed: the scan's `hi`, unless the row
    /// limit cut the walk short — then the last matched key. The
    /// interval `[lo, hi_obs]` is the predicate the transaction truly
    /// depends on, and what Validate re-walks.
    pub hi_obs: Key,
    /// FNV-1a fingerprint over the matched (key, version) sequence
    /// (see [`crate::api::scan_fingerprint`]).
    pub fp: u64,
}

/// One scan's Validate-phase re-check: re-walk `[lo, hi_obs]` at the
/// primary and compare count + fingerprint against what Execute saw —
/// the next-key/predicate-lock equivalent that makes ranges phantom-safe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanCheck {
    /// Scanned interval lower bound.
    pub lo: Key,
    /// Observed upper bound (see [`ScanObs::hi_obs`]).
    pub hi_obs: Key,
    /// Expected row count.
    pub count: u32,
    /// Expected (key, version) fingerprint.
    pub fp: u64,
}

/// The Xenic message set.
///
/// The enum itself is the hot payload of every simulator event, inbox slot,
/// and aggregation buffer, so it is kept lean: any variant whose fields
/// exceed a few words lives behind a `Box` (its body struct shares the
/// variant's name). `crates/core/tests/engine_behaviors.rs` guards the
/// resulting sizes so a future variant can't silently re-bloat the queue.
#[derive(Clone, Debug)]
pub enum XMsg {
    // ---- Coordinator host ----
    /// An application thread slot starts (or restarts) a transaction.
    StartTxn {
        /// The app-thread slot index.
        slot: u32,
    },
    /// Backoff expired; retry the slot's aborted transaction.
    RetryTxn {
        /// The app-thread slot index.
        slot: u32,
    },
    /// C-NIC returns the read set for host-side execution (§4.2 step 3).
    ReadSet {
        /// Coordinator-local transaction sequence.
        seq: u64,
        /// The app-thread slot (host-side routing; not on the wire).
        slot: u32,
        /// Read values and versions.
        values: Vec<(Key, Value, Version)>,
    },
    /// Host finished execution; hand write payloads back to the C-NIC
    /// (versions are filled in by the C-NIC from its lock metadata).
    WritesReady {
        /// Coordinator-local transaction sequence.
        seq: u64,
        /// Computed write set.
        writes: WriteSet,
    },
    /// Final outcome reported to the host (§4.2 step 6).
    Outcome {
        /// The app-thread slot (host-side routing; not on the wire).
        slot: u32,
        /// True if committed.
        committed: bool,
    },
    /// A host worker thread applies one log record (§4.2 step 7).
    ApplyLog {
        /// The record's LSN in this node's log.
        lsn: u64,
    },
    /// Host acknowledges applied records through `lsn`; NIC reclaims log
    /// space and unpins cache entries.
    AppliedAck {
        /// Highest applied LSN.
        lsn: u64,
    },

    // ---- Coordinator host → coordinator NIC ----
    /// Transaction state shipped to the local SmartNIC (§4.2 step 1).
    TxnSubmit(MsgBox<TxnSubmit>),
    /// A local write transaction, pre-executed on the host (§4.2.4): the
    /// NIC validates, locks, and replicates.
    LocalCommit(MsgBox<LocalCommit>),

    // ---- NIC ↔ NIC remote operations ----
    /// Execute-phase request to a primary NIC.
    Execute(MsgBox<Execute>),
    /// Execute-phase response.
    ExecuteResp(MsgBox<ExecuteResp>),
    /// Validate-phase version check (§4.2 step 4).
    Validate(MsgBox<Validate>),
    /// Validate-phase response.
    ValidateResp {
        /// Transaction id.
        txn: TxnId,
        /// Echo of the request id.
        req: u64,
        /// Responding shard.
        shard: u32,
        /// True if all versions match and no key is locked.
        ok: bool,
    },
    /// Log-phase request to a backup NIC (§4.2 step 5).
    LogReq(MsgBox<LogReq>),
    /// Log-phase acknowledgement (sent after the log DMA completes).
    LogResp {
        /// Transaction id.
        txn: TxnId,
        /// Acknowledging node.
        from: u32,
        /// The shard whose log record this acknowledges. A node backs up
        /// several shards, so `(from, shard)` — not `from` alone —
        /// identifies the LogReq being acked; the coordinator dedups
        /// retransmitted acks on that pair.
        shard: u32,
        /// Always true in the steady state (backups retry full rings
        /// rather than refuse); the coordinator aborts defensively on
        /// false.
        ok: bool,
    },
    /// Commit-phase request to a primary NIC (§4.2 step 6).
    CommitReq(MsgBox<CommitReq>),
    /// Acknowledges a [`XMsg::CommitReq`]. Only sent (and only awaited)
    /// when fault injection is active: commit messages are fire-and-forget
    /// on a reliable fabric, but under loss the coordinator retransmits
    /// CommitReq until every target shard acks.
    CommitAck {
        /// Transaction id.
        txn: TxnId,
        /// The shard acknowledging the commit.
        shard: u32,
        /// The node acknowledging. For [`XMsg::CommitReq`] acks this is
        /// the shard's primary (== `shard` under identity placement);
        /// for Hermes validation acks and Raft laggard catch-up it is a
        /// backup, and `(shard, from)` identifies which registered
        /// retransmission to clear.
        from: u32,
    },
    /// Abort: release the locks this shard holds for `txn`.
    AbortReq(MsgBox<AbortReq>),

    // ---- Replication backends (DESIGN.md §15) ----
    /// Raft-style term-tagged append, routed to the shard group's
    /// current leader, which relays [`XMsg::LogReq`]s to followers.
    RaftAppend(MsgBox<RaftAppend>),
    /// A Raft leader's refusal of a stale-term append; carries the
    /// term the coordinator should adopt.
    RaftNack {
        /// Transaction id.
        txn: TxnId,
        /// The shard whose append was refused.
        shard: u32,
        /// The refusing node's current term for that shard.
        term: u32,
    },
    /// Hermes-style invalidation broadcast: doubles as the log append
    /// (the backup marks the keys invalid, then logs like a LogReq).
    HermesInv(MsgBox<HermesInv>),
    /// Hermes-style post-commit validation: the backup clears its
    /// invalid marks for `txn`'s keys on `shard`.
    HermesVal {
        /// Transaction id.
        txn: TxnId,
        /// The shard whose invalidation this validates.
        shard: u32,
    },

    // ---- Multi-hop / shipped execution (§4.2.3) ----
    /// Ship a whole transaction to a remote primary NIC for execution.
    ExecShip(MsgBox<ExecShip>),
    /// The remote primary's response: execution outcome plus the write
    /// values for the coordinator's local shard.
    ExecShipResp(MsgBox<ExecShipResp>),

    // ---- DMA continuations (same node, NIC pool) ----
    /// One roundtrip of a chained DMA lookup finished.
    DmaLookupDone(MsgBox<DmaLookupDone>),
    /// A primary's Commit append found the log ring full: retry after
    /// the host drains (locks stay held; cache entries stay pinned).
    RetryCommitApply(MsgBox<RetryCommitApply>),
    /// A backup's Log append found the ring full: retry.
    RetryBackupLog(MsgBox<RetryBackupLog>),
    /// A log-append DMA write became durable; acknowledge and hand the
    /// record to a host worker.
    DmaLogDone(MsgBox<DmaLogDone>),

    // ---- Loss-tolerance timers (same node, NIC pool; faults only) ----
    /// A coordinator-NIC phase timer fired: if the transaction is still in
    /// the phase this timer was armed for (`epoch` matches), retransmit
    /// the outstanding requests or abort.
    PhaseTimeout {
        /// Coordinator-local transaction sequence.
        seq: u64,
        /// The phase epoch this timer belongs to; stale timers (the
        /// transaction moved on and bumped its epoch) are ignored.
        epoch: u64,
    },
    /// A coordinator-NIC commit-retransmit timer fired: re-send any
    /// CommitReq not yet acknowledged by a [`XMsg::CommitAck`].
    CommitTick {
        /// Coordinator-local transaction sequence.
        seq: u64,
        /// Retransmission attempt number (for linear backoff).
        attempt: u32,
    },
}

/// Body of [`XMsg::TxnSubmit`].
#[derive(Clone, Debug)]
pub struct TxnSubmit {
    /// Coordinator-local sequence.
    pub seq: u64,
    /// The app-thread slot (echoed to the host; not on the wire).
    pub slot: u32,
    /// The transaction. Shared, not owned: submits, retries, and
    /// function-shipping re-sends all bump the same `Arc` instead of
    /// deep-copying the spec's key vectors.
    pub spec: Arc<TxnSpec>,
}

/// Body of [`XMsg::LocalCommit`].
#[derive(Clone, Debug)]
pub struct LocalCommit {
    /// Coordinator-local sequence.
    pub seq: u64,
    /// The app-thread slot (echoed to the host; not on the wire).
    pub slot: u32,
    /// Versions observed by the host's optimistic reads.
    pub checks: Vec<(Key, Version)>,
    /// Computed writes.
    pub writes: WriteSet,
}

/// Body of [`XMsg::Execute`].
#[derive(Clone, Debug)]
pub struct Execute {
    /// Transaction id.
    pub txn: TxnId,
    /// Coordinator-side request id, echoed by the response. Lets the
    /// coordinator pair responses with outstanding requests so
    /// retransmitted or duplicated messages are counted once.
    pub req: u64,
    /// Coordinator node to respond to.
    pub reply_to: u32,
    /// Keys to read. Smart mode combines all three sets in one request
    /// per shard; the Figure 9 baseline sends each key or predicate in a
    /// request of its own (one-sided RDMA's one-op-one-request shape).
    pub reads: KeySet,
    /// Keys to write-lock.
    pub locks: KeySet,
    /// Range predicates to walk on the NIC-resident ordered index.
    pub scans: ScanSet,
}

/// Body of [`XMsg::ExecuteResp`].
#[derive(Clone, Debug)]
pub struct ExecuteResp {
    /// Transaction id.
    pub txn: TxnId,
    /// Echo of the request id.
    pub req: u64,
    /// Responding shard.
    pub shard: u32,
    /// False if a lock was unavailable.
    pub ok: bool,
    /// Read values and their versions: the point reads in request
    /// order, then each scan's matched rows in key order (grouped per
    /// scan; `scan_obs[i].count` delimits group `i`).
    pub values: Vec<(Key, Value, Version)>,
    /// Current versions of the locked (write-set) keys — all the
    /// coordinator needs for delta updates; the value bytes stay home.
    pub lock_versions: Vec<(Key, Version)>,
    /// Per-scan observation summaries, request order.
    pub scan_obs: ScanObsSet,
}

/// Body of [`XMsg::Validate`].
#[derive(Clone, Debug)]
pub struct Validate {
    /// Transaction id.
    pub txn: TxnId,
    /// Coordinator-side request id, echoed by the response.
    pub req: u64,
    /// Coordinator node to respond to.
    pub reply_to: u32,
    /// Keys and the versions observed at Execute.
    pub checks: CheckSet,
    /// Scan predicates to re-walk and compare against Execute.
    pub scan_checks: ScanCheckSet,
}

/// Body of [`XMsg::LogReq`].
#[derive(Clone, Debug)]
pub struct LogReq {
    /// Transaction id.
    pub txn: TxnId,
    /// Shard whose backup should log this write set.
    pub shard: u32,
    /// Node to acknowledge (the coordinator — possibly not the
    /// sender, in the multi-hop pattern of Figure 7b).
    pub reply_to: u32,
    /// The write set.
    pub writes: WriteSet,
}

/// Body of [`XMsg::RaftAppend`].
#[derive(Clone, Debug)]
pub struct RaftAppend {
    /// Transaction id.
    pub txn: TxnId,
    /// Shard whose group should log this write set.
    pub shard: u32,
    /// The coordinator's view of the shard group's term; the leader
    /// refuses stale terms with a [`XMsg::RaftNack`].
    pub term: u32,
    /// Coordinator node to acknowledge (followers ack it directly).
    pub reply_to: u32,
    /// The write set.
    pub writes: WriteSet,
}

/// Body of [`XMsg::HermesInv`].
#[derive(Clone, Debug)]
pub struct HermesInv {
    /// Transaction id.
    pub txn: TxnId,
    /// Shard whose backup should invalidate and log this write set.
    pub shard: u32,
    /// Coordinator node to acknowledge.
    pub reply_to: u32,
    /// The write set.
    pub writes: WriteSet,
}

/// Body of [`XMsg::CommitReq`].
#[derive(Clone, Debug)]
pub struct CommitReq {
    /// Transaction id.
    pub txn: TxnId,
    /// Target shard.
    pub shard: u32,
    /// The write set to apply.
    pub writes: WriteSet,
}

/// Body of [`XMsg::AbortReq`].
#[derive(Clone, Debug)]
pub struct AbortReq {
    /// Transaction id.
    pub txn: TxnId,
    /// Keys to unlock.
    pub unlock: KeySet,
}

/// Body of [`XMsg::ExecShip`].
#[derive(Clone, Debug)]
pub struct ExecShip {
    /// Transaction id.
    pub txn: TxnId,
    /// Coordinator node.
    pub reply_to: u32,
    /// The transaction (remote + local keys), shared with the
    /// coordinator's own context — see [`TxnSubmit::spec`].
    pub spec: Arc<TxnSpec>,
    /// Values of the coordinator-local keys, read and locked by the
    /// coordinator NIC before shipping.
    pub local_vals: Vec<(Key, Value, Version)>,
}

/// Body of [`XMsg::ExecShipResp`].
#[derive(Clone, Debug)]
pub struct ExecShipResp {
    /// Transaction id.
    pub txn: TxnId,
    /// False if locking or validation failed at the remote primary.
    pub ok: bool,
    /// Writes belonging to the coordinator's local shard.
    pub local_writes: WriteSet,
}

/// Body of [`XMsg::DmaLookupDone`].
#[derive(Clone, Debug)]
pub struct DmaLookupDone {
    /// The pending server-side operation this lookup serves.
    pub op: u64,
    /// The key being looked up.
    pub key: Key,
    /// Remaining chained read sizes (next is issued immediately).
    pub remaining: Vec<u32>,
    /// The final result (applied when `remaining` is empty).
    pub result: Option<(Value, Version)>,
}

/// Body of [`XMsg::RetryCommitApply`].
#[derive(Clone, Debug)]
pub struct RetryCommitApply {
    /// Transaction id.
    pub txn: TxnId,
    /// The write set to apply.
    pub writes: WriteSet,
    /// Keys to unlock once durable.
    pub unlock: KeySet,
}

/// Body of [`XMsg::RetryBackupLog`].
#[derive(Clone, Debug)]
pub struct RetryBackupLog {
    /// Transaction id.
    pub txn: TxnId,
    /// Shard whose backup should log.
    pub shard: u32,
    /// Coordinator to acknowledge.
    pub reply_to: u32,
    /// The write set.
    pub writes: WriteSet,
}

/// Body of [`XMsg::DmaLogDone`].
#[derive(Clone, Debug)]
pub struct DmaLogDone {
    /// Transaction id.
    pub txn: TxnId,
    /// Who gets the LogResp (None for primary-side Commit records).
    pub reply_to: Option<u32>,
    /// The record's LSN.
    pub lsn: u64,
    /// Write-set keys to unlock once durable (Commit records).
    pub unlock: KeySet,
}

/// Per-type freelist cap: deep enough to absorb a burst of in-flight
/// messages of one kind, small enough that an idle pool pins < 40 KB.
const POOL_MAX: usize = 256;

/// A message body type with a thread-local allocation pool. Implemented
/// by the `from_body!` macro for every boxed [`XMsg`] variant.
pub trait PoolSlot: Sized + 'static {
    /// Runs `f` with this type's freelist of spare allocations.
    fn with_pool<R>(f: impl FnOnce(&mut Vec<Box<MaybeUninit<Self>>>) -> R) -> R;
}

/// Debug-build count of pooled boxes that were freed instead of recycled
/// because they were retired on a different thread (lane) than the one
/// that allocated them — the cross-lane handoff path of the multi-lane
/// scheduler. Tests use this to prove the drain path actually runs.
#[cfg(debug_assertions)]
static CROSS_LANE_DRAINS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Debug-build observer for [`MsgBox`]'s cross-lane drain counter.
#[cfg(debug_assertions)]
pub fn cross_lane_drains() -> u64 {
    CROSS_LANE_DRAINS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Returns an emptied slot to the current thread's pool. Debug builds
/// carry the allocating thread's id and assert the slot never entered a
/// foreign pool — callers must route cross-lane slots to the drain path,
/// never here.
#[cfg(debug_assertions)]
fn recycle<T: PoolSlot>(slot: Box<MaybeUninit<T>>, origin: std::thread::ThreadId) {
    debug_assert_eq!(
        origin,
        std::thread::current().id(),
        "pooled slot crossed lanes; cross-lane boxes are drained, not recycled"
    );
    T::with_pool(|p| {
        if p.len() < POOL_MAX {
            p.push(slot);
        }
    });
}

#[cfg(not(debug_assertions))]
fn recycle<T: PoolSlot>(slot: Box<MaybeUninit<T>>) {
    T::with_pool(|p| {
        if p.len() < POOL_MAX {
            p.push(slot);
        }
    });
}

/// A pooled box for message bodies.
///
/// Behaves like `Box<T>` (deref, clone, drop) except the allocation is
/// recycled through a per-type thread-local freelist instead of hitting
/// the allocator: messages are the dominant short-lived heap object on
/// the hot path (one body per send, plus clones for retransmit buffers
/// and duplication faults), so in steady state every construction reuses
/// a slot — the same freelist discipline as the runtime's frame pool and
/// the engine's `CoordTxn` pool (DESIGN.md §13).
///
/// # Thread confinement
///
/// Pools are `thread_local!`, so each lane worker of the multi-lane
/// scheduler (DESIGN.md §16) owns an independent freelist and no pool is
/// ever shared. A box built on lane A can legitimately travel to lane B
/// inside a cross-lane frame; the allocation is plain heap memory, so
/// retiring it on B is sound either way. Release builds recycle it into
/// B's pool (it's just a spare allocation). Debug builds carry the
/// allocating thread's id and *drain* (free) the box instead, with a
/// `debug_assert` in `recycle` enforcing that no slot ever enters a
/// foreign pool — making the confinement argument checkable, not just
/// prose.
///
/// Unlike `Box`, fields cannot be moved out through the pointer; use
/// [`MsgBox::take`] to move the whole body out (recycling the slot).
pub struct MsgBox<T: PoolSlot> {
    inner: ManuallyDrop<Box<T>>,
    /// Debug-only lane tag: the thread that allocated this box.
    #[cfg(debug_assertions)]
    origin: std::thread::ThreadId,
}

impl<T: PoolSlot> MsgBox<T> {
    /// Boxes `v`, reusing a pooled allocation when one is free.
    pub fn new(v: T) -> Self {
        let b = match T::with_pool(|p| p.pop()) {
            Some(mut slot) => {
                slot.write(v);
                // SAFETY: the slot was fully initialized by the write
                // above; MaybeUninit<T> and T share layout.
                unsafe { Box::from_raw(Box::into_raw(slot).cast::<T>()) }
            }
            None => Box::new(v),
        };
        MsgBox {
            inner: ManuallyDrop::new(b),
            #[cfg(debug_assertions)]
            origin: std::thread::current().id(),
        }
    }

    /// Retires an emptied slot: recycle on the allocating thread, drain
    /// (free) on any other — see the thread-confinement notes on the type.
    #[inline]
    fn retire(slot: Box<MaybeUninit<T>>, #[cfg(debug_assertions)] origin: std::thread::ThreadId) {
        #[cfg(debug_assertions)]
        {
            if origin != std::thread::current().id() {
                CROSS_LANE_DRAINS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                drop(slot);
                return;
            }
            recycle::<T>(slot, origin);
        }
        #[cfg(not(debug_assertions))]
        recycle::<T>(slot);
    }

    /// Moves the body out and returns the allocation to the pool.
    pub fn take(self) -> T {
        let mut this = ManuallyDrop::new(self);
        #[cfg(debug_assertions)]
        let origin = this.origin;
        // SAFETY: `this` is never dropped; the value is read out exactly
        // once (ownership moves to the caller) and the allocation is
        // recycled uninitialized.
        unsafe {
            let raw = Box::into_raw(ManuallyDrop::take(&mut this.inner));
            let v = raw.read();
            Self::retire(
                Box::from_raw(raw.cast::<MaybeUninit<T>>()),
                #[cfg(debug_assertions)]
                origin,
            );
            v
        }
    }
}

impl<T: PoolSlot> Drop for MsgBox<T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        let origin = self.origin;
        // SAFETY: the box is live until here; drop the body in place,
        // then recycle the now-uninitialized allocation.
        unsafe {
            let raw = Box::into_raw(ManuallyDrop::take(&mut self.inner));
            raw.drop_in_place();
            Self::retire(
                Box::from_raw(raw.cast::<MaybeUninit<T>>()),
                #[cfg(debug_assertions)]
                origin,
            );
        }
    }
}

impl<T: PoolSlot> Deref for MsgBox<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: PoolSlot> DerefMut for MsgBox<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: PoolSlot + Clone> Clone for MsgBox<T> {
    fn clone(&self) -> Self {
        MsgBox::new((**self).clone())
    }
}

impl<T: PoolSlot + fmt::Debug> fmt::Debug for MsgBox<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

macro_rules! from_body {
    ($($t:ident),* $(,)?) => {$(
        impl From<$t> for XMsg {
            fn from(b: $t) -> XMsg {
                XMsg::$t(MsgBox::new(b))
            }
        }
        impl PoolSlot for $t {
            fn with_pool<R>(f: impl FnOnce(&mut Vec<Box<MaybeUninit<Self>>>) -> R) -> R {
                thread_local! {
                    static POOL: std::cell::RefCell<Vec<Box<MaybeUninit<$t>>>> =
                        const { std::cell::RefCell::new(Vec::new()) };
                }
                POOL.with(|p| f(&mut p.borrow_mut()))
            }
        }
    )*};
}
from_body!(
    TxnSubmit,
    LocalCommit,
    Execute,
    ExecuteResp,
    Validate,
    LogReq,
    RaftAppend,
    HermesInv,
    CommitReq,
    AbortReq,
    ExecShip,
    ExecShipResp,
    DmaLookupDone,
    RetryCommitApply,
    RetryBackupLog,
    DmaLogDone,
);

impl SlotMsg for XMsg {
    fn start(slot: u32) -> Self {
        XMsg::StartTxn { slot }
    }
    fn retry(slot: u32) -> Self {
        XMsg::RetryTxn { slot }
    }
}

impl XMsg {
    /// Frame payload bytes this message occupies on the wire (Ethernet
    /// NIC-to-NIC or PCIe host↔NIC). Local-only continuations are free.
    pub fn wire_bytes(&self) -> u32 {
        fn vals(v: &[(Key, Value, Version)]) -> u32 {
            v.iter()
                .map(|(_, val, _)| VALUE_HDR + val.len() as u32)
                .sum()
        }
        fn ws(v: &[(Key, WritePayload, Version)]) -> u32 {
            v.iter().map(|(_, p, _)| 8 + p.wire_bytes()).sum()
        }
        match self {
            XMsg::StartTxn { .. } | XMsg::RetryTxn { .. } => 0,
            XMsg::ReadSet { values, .. } => OP_HEADER + vals(values),
            XMsg::WritesReady { writes, .. } => OP_HEADER + ws(writes),
            XMsg::Outcome { .. } => OP_HEADER,
            XMsg::ApplyLog { .. } => 0,
            XMsg::AppliedAck { .. } => OP_HEADER,
            XMsg::TxnSubmit(b) => b.spec.spec_bytes(),
            XMsg::LocalCommit(b) => {
                OP_HEADER + b.checks.len() as u32 * CHECK_BYTES + ws(&b.writes)
            }
            XMsg::Execute(b) => {
                OP_HEADER
                    + (b.reads.len() + b.locks.len()) as u32 * KEY_BYTES
                    + b.scans.len() as u32 * SCAN_BYTES
            }
            XMsg::ExecuteResp(b) => {
                OP_HEADER
                    + vals(&b.values)
                    + b.lock_versions.len() as u32 * CHECK_BYTES
                    + b.scan_obs.len() as u32 * SCAN_OBS_BYTES
            }
            XMsg::Validate(b) => {
                OP_HEADER
                    + b.checks.len() as u32 * CHECK_BYTES
                    + b.scan_checks.len() as u32 * SCAN_CHECK_BYTES
            }
            XMsg::ValidateResp { .. } => OP_HEADER,
            XMsg::LogReq(b) => OP_HEADER + ws(&b.writes),
            // A Raft append is a LogReq plus the 8-byte term tag; a
            // Hermes invalidation is wire-identical to a LogReq (the
            // invalid marks are derived from the write set).
            XMsg::RaftAppend(b) => OP_HEADER + 8 + ws(&b.writes),
            XMsg::HermesInv(b) => OP_HEADER + ws(&b.writes),
            XMsg::RaftNack { .. } | XMsg::HermesVal { .. } => OP_HEADER,
            XMsg::LogResp { .. } => OP_HEADER,
            XMsg::CommitReq(b) => OP_HEADER + ws(&b.writes),
            XMsg::CommitAck { .. } => OP_HEADER,
            XMsg::AbortReq(b) => OP_HEADER + b.unlock.len() as u32 * KEY_BYTES,
            XMsg::ExecShip(b) => b.spec.spec_bytes() + vals(&b.local_vals),
            XMsg::ExecShipResp(b) => OP_HEADER + ws(&b.local_writes),
            XMsg::DmaLookupDone { .. }
            | XMsg::DmaLogDone { .. }
            | XMsg::RetryCommitApply { .. }
            | XMsg::RetryBackupLog { .. }
            | XMsg::PhaseTimeout { .. }
            | XMsg::CommitTick { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::make_key;

    fn v(n: usize) -> Value {
        Value::filled(n, 1)
    }

    #[test]
    fn execute_size_scales_with_keys() {
        let small = XMsg::from(Execute {
            txn: TxnId::new(0, 1),
            req: 0,
            reply_to: 0,
            reads: vec![make_key(1, 1)].into(),
            locks: vec![].into(),
            scans: ScanSet::new(),
        });
        let large = XMsg::from(Execute {
            txn: TxnId::new(0, 1),
            req: 0,
            reply_to: 0,
            reads: vec![make_key(1, 1); 10].into(),
            locks: vec![make_key(1, 2); 5].into(),
            scans: ScanSet::new(),
        });
        assert_eq!(small.wire_bytes(), 24 + 12);
        assert_eq!(large.wire_bytes(), 24 + 15 * 12);
    }

    #[test]
    fn value_messages_include_payload() {
        let resp = XMsg::from(ExecuteResp {
            txn: TxnId::new(0, 1),
            req: 0,
            shard: 2,
            ok: true,
            values: vec![(1, v(64), 1), (2, v(12), 3)],
            lock_versions: vec![(3, 7)],
            scan_obs: ScanObsSet::new(),
        });
        assert_eq!(resp.wire_bytes(), 24 + (16 + 64) + (16 + 12) + 16);

        // Delta payloads keep big objects off the wire — the function-
        // shipping payoff: a 320-byte stock row's decrement costs 28 B.
        let log_full = XMsg::from(LogReq {
            txn: TxnId::new(0, 1),
            shard: 0,
            reply_to: 0,
            writes: vec![(9, WritePayload::Full(v(320)), 2)],
        });
        let log_delta = XMsg::from(LogReq {
            txn: TxnId::new(0, 1),
            shard: 0,
            reply_to: 0,
            writes: vec![(9, WritePayload::AddI64(-3), 2)],
        });
        assert_eq!(log_full.wire_bytes(), 24 + 8 + 16 + 320);
        assert_eq!(log_delta.wire_bytes(), 24 + 8 + 20);
    }

    /// The body pool is LIFO per type: dropping (or `take`-ing) a box
    /// and constructing the next one must reuse the same allocation —
    /// the property that makes steady-state sends allocation-free.
    #[test]
    fn msgbox_recycles_allocations() {
        let b = MsgBox::new(AbortReq {
            txn: TxnId::new(0, 1),
            unlock: KeySet::new(),
        });
        let p1 = &*b as *const AbortReq as usize;
        drop(b);
        let b2 = MsgBox::new(AbortReq {
            txn: TxnId::new(0, 2),
            unlock: KeySet::new(),
        });
        assert_eq!(
            &*b2 as *const AbortReq as usize,
            p1,
            "drop returns the slot; the next construction reuses it"
        );
        let body = b2.take();
        assert_eq!(body.txn, TxnId::new(0, 2), "take moves the body out intact");
        let b3 = MsgBox::new(AbortReq {
            txn: TxnId::new(0, 3),
            unlock: KeySet::new(),
        });
        assert_eq!(
            &*b3 as *const AbortReq as usize,
            p1,
            "take recycles the slot too"
        );
    }

    /// Clones (retransmit buffers, duplication faults) draw from the
    /// pool as well, and carried heap state survives the round-trip.
    #[test]
    fn msgbox_clone_preserves_contents() {
        let mut unlock = KeySet::new();
        for k in 0..7 {
            unlock.push(k); // spills past the inline capacity
        }
        let a = MsgBox::new(AbortReq {
            txn: TxnId::new(1, 9),
            unlock,
        });
        let b = a.clone();
        drop(a);
        let body = b.take();
        assert_eq!(body.unlock.len(), 7);
        assert_eq!(body.unlock.as_slice(), &[0, 1, 2, 3, 4, 5, 6]);
    }

    /// Thread-confinement discipline for the lane scheduler: a box
    /// allocated here and dropped on another thread must be *drained*
    /// (freed), never recycled into the foreign thread's pool, and the
    /// home pool keeps recycling normally afterwards.
    #[test]
    fn cross_thread_boxes_drain_not_recycle() {
        let handoff = MsgBox::new(AbortReq {
            txn: TxnId::new(3, 2),
            unlock: KeySet::new(),
        });
        #[cfg(debug_assertions)]
        let drains0 = cross_lane_drains();
        std::thread::spawn(move || {
            let pool_before = AbortReq::with_pool(|p| p.len());
            drop(handoff);
            let pool_after = AbortReq::with_pool(|p| p.len());
            #[cfg(debug_assertions)]
            assert_eq!(
                pool_after, pool_before,
                "cross-lane drop must drain, not recycle into the foreign pool"
            );
            // Release builds recycle into the receiving thread's own pool,
            // which is equally sound (the slot is plain heap memory).
            #[cfg(not(debug_assertions))]
            assert_eq!(pool_after, pool_before + 1);
        })
        .join()
        .unwrap();
        #[cfg(debug_assertions)]
        assert!(
            cross_lane_drains() > drains0,
            "the cross-lane drain path must actually run"
        );
        // The home thread's pool still recycles same-thread boxes.
        let a = MsgBox::new(AbortReq {
            txn: TxnId::new(3, 3),
            unlock: KeySet::new(),
        });
        let p = &*a as *const AbortReq as usize;
        drop(a);
        let b = MsgBox::new(AbortReq {
            txn: TxnId::new(3, 4),
            unlock: KeySet::new(),
        });
        assert_eq!(&*b as *const AbortReq as usize, p);
    }

    #[test]
    fn continuations_are_free() {
        let m = XMsg::from(DmaLogDone {
            txn: TxnId::new(0, 1),
            reply_to: None,
            lsn: 9,
            unlock: vec![1, 2, 3].into(),
        });
        assert_eq!(m.wire_bytes(), 0);
        assert_eq!(XMsg::ApplyLog { lsn: 1 }.wire_bytes(), 0);
    }

    #[test]
    fn smart_vs_split_total_bytes() {
        // One combined Execute (2 reads + 1 lock) is leaner than three
        // separate requests — the arithmetic behind Figure 9's "smart
        // remote ops" gain.
        let combined = XMsg::from(Execute {
            txn: TxnId::new(0, 1),
            req: 0,
            reply_to: 0,
            reads: vec![1, 2].into(),
            locks: vec![3].into(),
            scans: ScanSet::new(),
        })
        .wire_bytes();
        let split: u32 = [
            XMsg::from(Execute {
                txn: TxnId::new(0, 1),
                req: 0,
                reply_to: 0,
                reads: vec![1].into(),
                locks: vec![].into(),
                scans: ScanSet::new(),
            })
            .wire_bytes(),
            XMsg::from(Execute {
                txn: TxnId::new(0, 1),
                req: 0,
                reply_to: 0,
                reads: vec![2].into(),
                locks: vec![].into(),
                scans: ScanSet::new(),
            })
            .wire_bytes(),
            XMsg::from(Execute {
                txn: TxnId::new(0, 1),
                req: 0,
                reply_to: 0,
                reads: vec![].into(),
                locks: vec![3].into(),
                scans: ScanSet::new(),
            })
            .wire_bytes(),
        ]
        .iter()
        .sum();
        assert!(split as f64 > combined as f64 * 1.5);
    }
}
