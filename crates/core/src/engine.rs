//! The Xenic protocol engine (paper §4.2).
//!
//! Implements the full distributed OCC commit protocol on the cluster
//! runtime, with every §4 mechanism as a configuration knob:
//!
//! * **Execute / Validate / Log / Commit** phases driven by the
//!   coordinator-side SmartNIC, with locks and versions in NIC memory and
//!   host data reached by hint-bounded DMA chains;
//! * **smart remote ops** — one request locks write-set keys *and* reads
//!   read-set values per shard (off: separate read/lock/validate requests,
//!   the Figure 9 baseline);
//! * **NIC function shipping** — execution logic runs on the
//!   coordinator-side NIC for `ShipMode::Nic` transactions (§4.2.2);
//! * **multi-hop OCC** — transactions touching one remote shard (plus
//!   optionally the local shard) execute at the remote primary NIC, whose
//!   Log requests are acknowledged *directly to the coordinator*
//!   (§4.2.3 / Figure 7b), removing one message delay;
//! * **local fast path** — local write transactions execute optimistically
//!   on the host and replicate through the local NIC; local reads never
//!   touch PCIe (§4.2.4);
//! * **asynchronous log application** — server NICs append Log/Commit
//!   records to the host-memory log by DMA and host workers apply them off
//!   the critical path, acknowledging so the NIC can unpin and reclaim
//!   (§4.2 step 7).
//!
//! # Coordinator rounds and exits
//!
//! Every coordinator wait has the same shape — fan requests out, count
//! each response exactly once, retransmit what is still outstanding when
//! the timer fires — and it is written once: `Round` is the one record
//! of retransmittable sends (a phase's in `CoordTxn`, a concluded
//! transaction's in `XenicNode::committing`), `request` the one place a
//! request id is allocated, `Round::heard` the one exactly-once gate
//! and `Round::retransmit` the one resend loop. Every transaction
//! leaves through `conclude`, so no exit can forget to close its span,
//! release a lock, recycle the context or report the outcome. Tracking
//! is populated only when fault injection is on (DESIGN.md §8 note 9).
//!
//! The host's closed loop is the shared `crate::client::Client`
//! (DESIGN.md §8 note 11); the slot index rides with each attempt, so
//! the NIC counts a commit with its decision and `Outcome` turns it over.
//!
//! # Modeling notes
//!
//! * A DMA lookup's result is determined when the chain is planned; a
//!   write racing the in-flight DMA is not observed by it. The window is
//!   sub-microsecond and the paper's own DMA-consistency machinery
//!   guarantees only that reads see *some* consistent state, so this is
//!   faithful to the consistency level the hardware provides.
//! * Shipped (multi-hop) transactions lock their read-set keys too, which
//!   makes them trivially validation-free; the paper is silent on this
//!   detail, and DrTM+R uses the same lock-all strategy.
//! * CommitReq acknowledgements carry no protocol obligation here (the
//!   coordinator reports the outcome as soon as all Log acks arrive, per
//!   §4.2 step 6), so they are elided from the wire.

use std::sync::Arc;
use xenic_check::HistoryRecorder;
use xenic_sim::{FastMap, FastSet, SmallVec};

use xenic_net::{Exec, Protocol, Runtime};
use xenic_store::log::{LogFull, LogKind};
use xenic_store::nic_index::{NicIndex, NicIndexConfig, NicLookup, ScanRow};
use xenic_store::robinhood::{RobinhoodConfig, RobinhoodTable};
use xenic_store::{CommitLog, Key, TxnId, Value, Version, WritePayload};

use crate::client::Client;
use crate::api::{scan_fingerprint, shard_of, Partitioning, TxnSpec, Workload, SCAN_FP_INIT};
use crate::config::{ReplBackend, Weakening, XenicConfig};
use crate::msg::{
    pooled_vec, recycle_vec, AbortReq, CheckSet, CommitReq, DmaLogDone, DmaLookupDone, ExecShip,
    ExecShipResp, Execute, ExecuteResp, KeySet, LocalCommit, LogReq, MsgBox, RetryCommitApply,
    ScanCheck, ScanCheckSet, ScanObs, ScanObsSet, ScanSet, SharedWrites, TxnSubmit, Validate,
    WriteSet, XMsg,
};
use crate::repl::{backend, HermesInval, RaftCommit};
use crate::stats::NodeStats;
use xenic_hw::HwParams;

/// Delay between a log record becoming durable and a host worker picking
/// it up (poll loop period).
const WORKER_POLL_NS: u64 = 1_500;
/// Delay before a primary retries a Commit append that found the log
/// ring full (the host drains it within a few poll periods).
const COMMIT_RETRY_NS: u64 = 5_000;
/// Phase timeout (ns): when fault injection is active, a coordinator NIC
/// that has not heard back from every shard within this window
/// retransmits the outstanding Execute/Validate/Log requests (Log
/// retransmits forever; Execute/Validate give up after
/// [`MAX_PHASE_RETRIES`] and abort). Never armed on a reliable fabric.
const PHASE_TIMEOUT_NS: u64 = 30_000;
/// Retransmission period (ns) for unacknowledged post-outcome messages
/// (CommitReq, AbortReq, backend catch-up traffic) when fault injection
/// is active; backs off linearly per attempt.
const COMMIT_ACK_TIMEOUT_NS: u64 = 30_000;
/// Execute/Validate retransmission budget before the coordinator aborts
/// the transaction. Log-phase and post-outcome messages are never
/// abandoned — backups may already have applied the record.
const MAX_PHASE_RETRIES: u32 = 4;
/// How many rows ahead `XenicNode::new`'s preload loops prefetch: far
/// enough that a row's cache miss overlaps the inserts in between.
const PRELOAD_AHEAD: usize = 16;
/// Retired [`CoordTxn`] contexts kept for reuse (DESIGN.md §13): enough
/// to cover every app slot's in-flight transaction plus commit-phase
/// stragglers, small enough that a fault burst can't hoard memory.
const COORD_POOL_MAX: usize = 128;

/// Coordinator-NIC phase of an in-flight transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Waiting for Execute responses.
    Exec,
    /// Waiting for the host to compute writes.
    WaitHost,
    /// Waiting for Validate responses.
    Validate,
    /// Waiting for Log acks.
    Log,
    /// Multi-hop: waiting for the local lock+read round.
    MhLocal,
    /// Multi-hop: waiting for the remote primary + log acks.
    MhShipped,
    /// Local fast path: waiting for replication acks.
    LocalRepl,
}

/// How a coordinator transaction leaves through its one exit (`conclude`,
/// here and in the baselines).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The commit point was reached.
    Commit,
    /// A shard refused, validation failed, or the retry budget ran out.
    Abort,
}

/// What a tracked send is waiting to hear.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Awaits {
    /// The Execute/Validate response echoing this request id.
    Req(u64),
    /// Node `from`'s acknowledgement for `shard`: a backup's LogResp
    /// while the round is open, a CommitAck after the outcome.
    Ack { from: u32, shard: u32 },
    /// The multi-hop ExecShipResp.
    Shipped,
}

/// One retransmittable send.
pub(crate) struct InFlight {
    pub(crate) awaits: Awaits,
    pub(crate) dst: usize,
    pub(crate) msg: XMsg,
    /// Set by [`Round::heard`]; kept (not removed) so registration order
    /// survives and a retransmit policy may still resend it — the
    /// multi-hop ExecShip is resent after its response was heard, to
    /// make the remote primary replay its LogReq fan-out.
    pub(crate) heard: bool,
}

/// The retransmittable sends of one wait — a coordinator phase, or the
/// post-outcome Commit/Abort fan-out — in registration order. Populated
/// only when fault injection is on: on a reliable fabric nothing is
/// tracked, no timer is armed and responses are counted by `pending`
/// alone.
#[derive(Default)]
pub(crate) struct Round(pub(crate) Vec<InFlight>);

impl Round {
    /// Tracks `msg`, already on its way to `dst`, until `awaits` is heard.
    pub(crate) fn track(&mut self, awaits: Awaits, dst: usize, msg: XMsg) {
        self.0.push(InFlight { awaits, dst, msg, heard: false });
    }

    /// Sends `msg` to `dst`, tracking a clone when faults are active.
    fn send_tracked(
        &mut self,
        rt: &mut Runtime<XMsg>,
        awaits: Awaits,
        dst: usize,
        msg: XMsg,
    ) {
        if rt.faults_active() {
            self.track(awaits, dst, msg.clone());
        }
        send(rt, dst, msg);
    }

    /// Counts a response exactly once: true iff a tracked send was still
    /// waiting for `awaits`. A duplicated frame, a response to a request
    /// already retransmitted-and-heard, or one nothing here asked for is
    /// false and must not be counted.
    fn heard(&mut self, awaits: Awaits) -> bool {
        let mut any = false;
        for e in self.0.iter_mut().filter(|e| !e.heard && e.awaits == awaits) {
            e.heard = true;
            any = true;
        }
        any
    }

    /// True once every tracked send was heard.
    fn settled(&self) -> bool {
        self.0.iter().all(|e| e.heard)
    }

    /// Re-sends, in registration order, every tracked message `keep`
    /// selects.
    pub(crate) fn retransmit(
        &self,
        rt: &mut Runtime<XMsg>,
        seq: u64,
        keep: impl Fn(&InFlight) -> bool,
    ) {
        rt.trace_instant("Retransmit", seq);
        for e in self.0.iter().filter(|e| keep(e)) {
            send(rt, e.dst, e.msg.clone());
        }
    }
}

/// Sends `msg` to `dst`'s NIC over the fabric, charging its own wire size.
pub(crate) fn send(rt: &mut Runtime<XMsg>, dst: usize, msg: XMsg) {
    let bytes = msg.wire_bytes();
    rt.send_net(dst, Exec::Nic, msg, bytes);
}

/// Sends `msg` across PCIe to this node's `exec` side.
fn send_pcie(rt: &mut Runtime<XMsg>, exec: Exec, msg: XMsg) {
    let bytes = msg.wire_bytes();
    rt.send_pcie(exec, msg, bytes);
}

/// The group for `shard` in `groups`, appended empty if absent. Callers
/// sort by shard once filled: a linear scan into a tiny vec (≤ nodes
/// entries) plus one sort gives ascending-shard order without a tree map.
fn group_of<G: Default>(groups: &mut Vec<(u32, G)>, shard: u32) -> &mut G {
    let i = match groups.iter().position(|(s, _)| *s == shard) {
        Some(i) => i,
        None => {
            groups.push((shard, G::default()));
            groups.len() - 1
        }
    };
    &mut groups[i].1
}

/// Freezes `scratch`'s writes into one shared write set — a single
/// allocation, none when empty — leaving `scratch` empty with its
/// capacity for the next group.
fn share(scratch: &mut WriteSet) -> SharedWrites {
    if scratch.is_empty() {
        SharedWrites::default()
    } else {
        scratch.drain(..).collect()
    }
}

/// Coordinator-NIC state for one in-flight transaction.
///
/// Memory discipline (DESIGN.md §13): the spec is shared (`Arc`), the
/// tiny key/shard sets live inline (`SmallVec`), and retired contexts
/// recycle through `XenicNode`'s pool, so the steady-state commit
/// pipeline allocates nothing here. The larger collections stay `Vec`
/// on purpose: the pool retains their heap capacity across
/// transactions (equally allocation-free after warmup), while inline
/// buffers would bloat the struct — which is moved by value through
/// the pool and the coordinator map on every transaction.
pub(crate) struct CoordTxn {
    spec: Arc<TxnSpec>,
    /// The application slot whose attempt this is.
    slot: u32,
    pub(crate) phase: Phase,
    /// Outstanding responses in the current phase.
    pub(crate) pending: usize,
    /// Set false at the first failure; the txn is aborting.
    ok: bool,
    /// Read results collected in Execute.
    values: Vec<(Key, Value, Version)>,
    /// Versions of locked write-set keys collected in Execute.
    lock_versions: Vec<(Key, Version)>,
    /// Range-walk summaries collected in Execute, as `(shard, obs)` in
    /// per-shard arrival order; Validate re-walk checks are built from
    /// them. Boxed to respect the 320-byte move contract below — the box
    /// (and its capacity) recycles through the pool like the Vecs.
    #[allow(clippy::box_collection)]
    scan_obs: Box<Vec<(u32, ScanObs)>>,
    /// Computed write set, filled in place (its capacity recycles with
    /// the context). Empty once the Log phase grouped it.
    writes: WriteSet,
    /// The write set grouped by ascending shard, each group frozen once
    /// on entering Log and shared by the backend's appends and the
    /// CommitReq fan-out (which drains it; the outer capacity recycles).
    pub(crate) by_shard: Vec<(u32, SharedWrites)>,
    /// Shards where this txn acquired write locks (for abort cleanup).
    locked_shards: SmallVec<u32, 4>,
    /// Number of distinct primaries contacted during Execute.
    shards_contacted: usize,
    /// Execution rounds completed so far (multi-shot transactions).
    rounds_done: u32,
    /// Multi-hop: the remote shard whose primary executes (and holds the
    /// locks and staged writes of) this transaction.
    remote_shard: Option<u32>,
    /// Writes this NIC applies to its own shard at commit, shared with
    /// that shard's backup appends: the coordinator-local part of a
    /// multi-hop transaction, or a local fast-path commit's whole set.
    local_writes: SharedWrites,
    /// Multi-hop / local fast path: keys locked on this NIC directly
    /// (incl. read-set keys).
    local_locked: KeySet,

    // ---- Loss tolerance (populated only when fault injection is on) ----
    /// Phase epoch: bumped on every phase entry so stale [`XMsg::PhaseTimeout`]
    /// timers are ignored.
    epoch: u64,
    /// Retransmission attempts in the current phase.
    pub(crate) attempts: u32,
    /// This phase's retransmittable sends: Execute/Validate requests,
    /// backend appends, the ExecShip.
    pub(crate) round: Round,
    /// Log acks already counted, keyed by `(from, shard)`. Covers acks
    /// for sends this coordinator did not make itself (a shipped
    /// execution's LogReqs, a Raft leader's relays); the Raft backend
    /// also tallies these on a reliable fabric (its majority quorum
    /// needs per-shard counts either way).
    pub(crate) acks: FastSet<(u32, u32)>,
}

// CoordTxn moves by value through the pool and the coordinator map on
// every transaction, so its footprint is a performance contract like
// XMsg's 40-byte guard: a fat context turns each of those moves into a
// large memcpy that costs more than the allocations the pool saves.
// Grow it past this bound only by boxing or sharing the new field.
const _: () = assert!(std::mem::size_of::<CoordTxn>() <= 320);

impl CoordTxn {
    fn new(spec: Arc<TxnSpec>, slot: u32) -> Self {
        CoordTxn {
            spec,
            slot,
            phase: Phase::Exec,
            pending: 0,
            ok: true,
            values: Vec::new(),
            lock_versions: Vec::new(),
            scan_obs: Box::new(Vec::new()),
            writes: Vec::new(),
            by_shard: Vec::new(),
            locked_shards: SmallVec::new(),
            shards_contacted: 0,
            rounds_done: 0,
            remote_shard: None,
            local_writes: SharedWrites::default(),
            local_locked: SmallVec::new(),
            epoch: 0,
            attempts: 0,
            round: Round::default(),
            acks: FastSet::default(),
        }
    }

    /// Re-initializes a pooled context for a fresh transaction, keeping
    /// any heap capacity its containers acquired.
    fn reset(&mut self, spec: Arc<TxnSpec>, slot: u32) {
        self.spec = spec;
        self.slot = slot;
        self.phase = Phase::Exec;
        self.pending = 0;
        self.ok = true;
        self.values.clear();
        self.lock_versions.clear();
        self.scan_obs.clear();
        self.writes.clear();
        self.by_shard.clear();
        self.locked_shards.clear();
        self.shards_contacted = 0;
        self.rounds_done = 0;
        self.remote_shard = None;
        self.local_writes = SharedWrites::default();
        self.local_locked.clear();
        self.epoch = 0;
        self.attempts = 0;
        self.round.0.clear();
        self.acks.clear();
    }

    /// Starts a new wait: nothing outstanding, a fresh retransmission
    /// budget, and a new epoch so the previous wait's timer chain dies.
    fn enter_phase(&mut self, phase: Phase) {
        self.phase = phase;
        self.pending = 0;
        self.epoch += 1;
        self.attempts = 0;
        self.round.0.clear();
    }
}

/// Server-side pending operation (waiting on DMA chains).
// `Exec` dwarfs `Val` but is also the overwhelmingly common variant;
// boxing it would put an allocation on every Execute request.
#[allow(clippy::large_enum_variant)]
enum PendingOp {
    /// An Execute request resolving read values.
    Exec {
        txn: TxnId,
        req: u64,
        reply_to: u32,
        shard: u32,
        awaiting: usize,
        values: Vec<(Key, Value, Version)>,
        /// Versions of locked keys (resolved without shipping values).
        lock_versions: Vec<(Key, Version)>,
        /// Range-walk summaries (resolved synchronously: the ordered
        /// index lives in NIC memory, so walks never wait on DMA).
        scan_obs: ScanObsSet,
        /// Keys whose pending DMA resolves a version only (lock-side).
        lock_only: SmallVec<Key, 4>,
        /// Present when this is a shipped (multi-hop) execution.
        ship: Option<Box<ShipCtx>>,
        /// Set false when a DMA-resolved read turns out stale against
        /// NIC-authoritative metadata; the request is then refused.
        ok: bool,
        /// Locks acquired by this request (released on refusal).
        locked: SmallVec<Key, 4>,
    },
    /// A Validate request that needed DMA version fetches.
    Val {
        txn: TxnId,
        req: u64,
        reply_to: u32,
        shard: u32,
        awaiting: usize,
        ok: bool,
    },
}

/// Context of a shipped execution at a remote primary.
struct ShipCtx {
    spec: Arc<TxnSpec>,
    local_vals: Vec<(Key, Value, Version)>,
}

/// Per-node Xenic state: data stores, protocol tables, client, stats.
pub struct XenicNode {
    /// Engine configuration.
    pub cfg: XenicConfig,
    /// Placement map.
    pub part: Partitioning,
    /// This node's shard (== node index).
    pub shard: u32,
    /// Host-side Robinhood table (primary shard data).
    pub host_table: RobinhoodTable,
    /// SmartNIC caching index + lock/version metadata.
    pub nic_index: NicIndex,
    /// Host-memory commit log.
    pub log: CommitLog,
    /// Backup replicas of other shards: shard → key → (value, version).
    pub backups: FastMap<u32, FastMap<Key, (Value, Version)>>,
    /// The closed-loop client: workload, application slots, retries.
    pub client: Client,
    /// Statistics.
    pub stats: NodeStats,

    // Coordinator-NIC in-flight transactions.
    pub(crate) coord: FastMap<u64, CoordTxn>,
    // Retired coordinator contexts, recycled like the runtime's frame
    // freelist so the steady state re-uses their container capacity.
    coord_pool: Vec<CoordTxn>,
    // Placeholder spec for contexts that never carry one (local fast
    // path); cached so those transactions don't allocate a default spec.
    default_spec: Arc<TxnSpec>,
    // Server-side pending operations.
    pending: FastMap<u64, PendingOp>,
    next_op: u64,
    // Staged write sets for shipped transactions awaiting CommitReq.
    ship_staged: FastMap<TxnId, SharedWrites>,
    // All keys a shipped execution locked here (incl. read-set keys),
    // released at CommitReq.
    ship_locked: FastMap<TxnId, KeySet>,
    // LSNs whose records are durable but not yet applied in order. Pure
    // membership — never iterated — so an unordered set is safe.
    apply_ready: FastSet<u64>,
    next_apply_lsn: u64,
    // Range-walk scratch: one scan's collected rows, reused across
    // requests so a scan allocates only the rows it returns.
    scan_walk: Vec<ScanRow>,
    // Per-shard grouping scratch, reused across transactions like
    // `scan_walk`: one shard's writes on their way into a shared set
    // (`log_phase`, shipped executions), and Validate's per-shard
    // request bodies.
    write_group: WriteSet,
    validate_groups: Vec<(u32, (CheckSet, ScanCheckSet))>,

    // ---- Loss tolerance (populated only when fault injection is on) ----
    // Next Execute/Validate request id.
    next_req: u64,
    // Post-outcome retransmission: seq → the still-unacknowledged
    // CommitReqs, AbortReqs and backend post-commit traffic (Hermes
    // validations, Raft laggard catch-up appends). Iterated only by
    // on_restart, which sorts the keys first.
    pub(crate) committing: FastMap<u64, Round>,
    // CommitReqs already applied at this primary (dedup + re-ack).
    commit_seen: FastSet<TxnId>,
    // Backup log records by (txn, shard): false while the append's DMA is
    // in flight, true once durable (a duplicate LogReq then re-acks).
    pub(crate) backup_log_acked: FastMap<(TxnId, u32), bool>,
    // Raft backend: adopted leader terms by shard (absent = term 0, the
    // primary leads). Only ever populated by re-elections under faults.
    pub(crate) raft_terms: FastMap<u32, u32>,
    // Backup appends that arrived ahead of a version gap, buffered until
    // the missing versions land (key → pending (payload, version)).
    // Backups apply per-key in version order; only the Raft backend's
    // majority commit can reorder appends (a laggard's catch-up record
    // races later transactions' direct appends), so this stays empty
    // under the all-ack backends and on every drained, healed cluster.
    pub(crate) backup_gaps: FastMap<Key, Vec<(WritePayload, Version)>>,
    // Hermes backend: invalid marks installed by in-flight invalidations
    // at this backup, by (txn, shard). Reads of a marked key refuse
    // until the validation clears it.
    pub(crate) hermes_invalid: FastMap<(TxnId, u32), KeySet>,
    // Shipped-execution outcomes: the ExecShipResp plus the LogReq
    // fan-out, replayed verbatim when a retransmitted ExecShip arrives
    // (re-executing could re-lock keys the commit already released).
    ship_resp: FastMap<TxnId, (XMsg, Vec<(usize, XMsg)>)>,

    // Serializability-history recorder (None = recording off; the engine
    // must behave bit-identically either way — see tests/properties.rs).
    recorder: Option<HistoryRecorder>,
}

impl XenicNode {
    /// Builds a node: sizes the host table for the preloaded shard, loads
    /// primary data, backup replicas, and NIC hints.
    pub fn new(
        node: usize,
        cfg: XenicConfig,
        part: Partitioning,
        workload: Box<dyn Workload>,
        app_threads: usize,
    ) -> Self {
        let shard = node as u32;
        let own = workload.preload(shard);
        // Size for ~65% occupancy so displacement stays small, matching a
        // provisioned deployment; Table 2 studies occupancy separately.
        let capacity = (own.len() * 100 / 65).max(1024);
        let table_cfg = RobinhoodConfig {
            capacity,
            displacement_limit: Some(8),
            segment_slots: 4,
            inline_cap: 256,
            slot_value_bytes: workload.value_bytes(),
        };
        let mut host_table = RobinhoodTable::new(table_cfg);
        // Both preload loops below prefetch the row `PRELOAD_AHEAD`
        // places ahead, so each insert finds its home slot (index entry)
        // in cache; the inserts themselves keep their order.
        for (i, (k, v)) in own.iter().enumerate() {
            if let Some((ahead, _)) = own.get(i + PRELOAD_AHEAD) {
                host_table.prefetch_slots([*ahead]);
            }
            host_table.insert(*k, v.clone());
        }
        let mut nic_index = NicIndex::new(NicIndexConfig {
            segments: host_table.segments(),
            max_cached_values: cfg.nic_cache_values,
            slack_k: 1,
        });
        for seg in 0..host_table.segments() {
            nic_index.set_hint(seg, host_table.seg_max_disp(seg), host_table.seg_has_overflow(seg));
        }
        // The NIC-resident ordered index mirrors every committed key of
        // this shard (DESIGN.md §14): preloaded data starts at version 1,
        // exactly like the host table.
        for (k, _) in &own {
            nic_index.preload_ordered(*k, 1);
        }
        // Pre-warm: the LiquidIO's 16 GB DRAM holds the paper's benchmark
        // datasets outright, so a deployed node's cache is resident. Only
        // done when the shard fits the configured budget. (A pass of its
        // own: each install is one independent cache miss, and folding
        // the tree inserts above into this loop serializes them.)
        if cfg.nic_cache() && own.len() <= cfg.nic_cache_values {
            for (i, (k, v)) in own.iter().enumerate() {
                if let Some((ahead, _)) = own.get(i + PRELOAD_AHEAD) {
                    nic_index.prefetch_segment(host_table.segment_of_key(*ahead));
                }
                let seg = host_table.segment_of_key(*k);
                nic_index.install_preloaded(seg, *k, v.clone(), 1);
            }
        }
        let mut backups = FastMap::default();
        for s in part.backup_shards(node) {
            let data = workload.preload(s);
            // Exact-sized: `with_capacity` already budgets for the load
            // factor, and the benchmark workloads write in place rather
            // than inserting, so the preload is the high-water mark.
            let mut map: FastMap<Key, (Value, Version)> =
                FastMap::with_capacity_and_hasher(data.len(), Default::default());
            map.extend(data.into_iter().map(|(k, v)| (k, (v, 1))));
            backups.insert(s, map);
        }
        // Pre-size the per-transaction maps from config-derived bounds so
        // the hot path never rehashes: the coordinator tracks at most one
        // in-flight txn per app slot (plus commit-phase stragglers), and a
        // primary serves pending ops from every node's slots.
        let coord_cap = (app_threads * 4).max(64);
        let pending_cap = (part.nodes as usize * app_threads * 2).max(128);
        nic_index.reserve_locks(pending_cap);
        XenicNode {
            cfg,
            part,
            shard,
            host_table,
            nic_index,
            log: CommitLog::new(cfg.log_capacity_bytes),
            backups,
            client: Client::new(workload, app_threads),
            stats: NodeStats::default(),
            coord: FastMap::with_capacity_and_hasher(coord_cap, Default::default()),
            coord_pool: Vec::new(),
            default_spec: Arc::new(TxnSpec::default()),
            pending: FastMap::with_capacity_and_hasher(pending_cap, Default::default()),
            next_op: 1,
            ship_staged: FastMap::default(),
            ship_locked: FastMap::default(),
            apply_ready: FastSet::default(),
            next_apply_lsn: 1,
            scan_walk: Vec::new(),
            write_group: Vec::new(),
            validate_groups: Vec::new(),
            next_req: 1,
            committing: FastMap::default(),
            commit_seen: FastSet::default(),
            backup_log_acked: FastMap::default(),
            raft_terms: FastMap::default(),
            backup_gaps: FastMap::default(),
            hermes_invalid: FastMap::default(),
            ship_resp: FastMap::default(),
            recorder: None,
        }
    }

    /// Attaches a serializability-history recorder. Every node of a
    /// cluster shares one recorder; the engine notes committed reads and
    /// writes (with versions) at its commit points and never consults
    /// the recorder for decisions, so attaching one cannot change
    /// behavior.
    pub fn set_recorder(&mut self, recorder: HistoryRecorder) {
        self.recorder = Some(recorder);
    }

    /// Current capacities of the pre-sized hot-path maps, for the
    /// no-growth regression test: `[coord, pending, NIC lock table]`
    /// followed by each backup replica map. A steady-state run must leave
    /// every one unchanged (no mid-run rehash).
    pub fn hot_map_capacities(&self) -> Vec<usize> {
        let mut caps = vec![
            self.coord.capacity(),
            self.pending.capacity(),
            self.nic_index.lock_capacity(),
        ];
        let mut shards: Vec<u32> = self.backups.keys().copied().collect();
        shards.sort_unstable();
        caps.extend(shards.iter().map(|s| self.backups[s].capacity()));
        caps
    }

    /// Takes a context for `slot`'s attempt from the pool (or builds one).
    fn alloc_coord(&mut self, spec: Arc<TxnSpec>, slot: u32) -> CoordTxn {
        match self.coord_pool.pop() {
            Some(mut ct) => {
                ct.reset(spec, slot);
                ct
            }
            None => CoordTxn::new(spec, slot),
        }
    }

    /// Returns a retired coordinator context to the pool.
    fn recycle_coord(&mut self, mut ct: CoordTxn) {
        if self.coord_pool.len() < COORD_POOL_MAX {
            // Release shared payloads now (pooling them would pin value
            // buffers and the spec arbitrarily long); capacity is kept.
            ct.spec = Arc::clone(&self.default_spec);
            ct.values.clear();
            ct.writes.clear();
            ct.by_shard.clear();
            ct.local_writes = SharedWrites::default();
            ct.round.0.clear();
            self.coord_pool.push(ct);
        }
    }

    fn segment(&self, key: Key) -> usize {
        self.host_table.segment_of_key(key)
    }

    /// Current authoritative version of a key at this primary: the NIC
    /// metadata if present (covers the commit-to-apply window), else the
    /// host table. Used by recovery and consistency audits.
    pub fn current_version(&self, key: Key) -> Option<Version> {
        let seg = self.segment(key);
        self.nic_index
            .version_of(seg, key)
            .or_else(|| self.host_table.get(key).map(|(_, v)| v))
    }

}

/// Hermes backend: whether `key` is under an in-flight invalidation at
/// this replica (an invalidated key must not serve reads until its
/// validation arrives). A function of the mark table alone, so point
/// reads and range-walk rows (which hold the node partially borrowed)
/// share it. The table is empty under every other backend, so the check
/// is one branch on the hot path.
fn hermes_invalid(marks: &FastMap<(TxnId, u32), KeySet>, key: Key) -> bool {
    !marks.is_empty() && marks.values().any(|ks| ks.contains(&key))
}

/// Serves one row of `txn`'s range walk: its version and value, or `None`
/// if the row refuses the request — another transaction's insert
/// sentinel or write lock, a Hermes invalidation (see the point-read
/// check in `snic_execute`), or a row whose only value copy (the host
/// table) lags the committed version or is missing: the same staleness
/// refusal the DMA path makes.
fn scan_row_value(
    nic_index: &NicIndex,
    host_table: &RobinhoodTable,
    marks: &FastMap<(TxnId, u32), KeySet>,
    txn: TxnId,
    row: &ScanRow,
) -> Option<(Version, Value)> {
    let (k, ver) = (row.key, row.version?);
    let seg = host_table.segment_of_key(k);
    let lock = nic_index.lock_state(seg, k);
    if (lock.is_held() && !lock.held_by(txn)) || hermes_invalid(marks, k) {
        return None;
    }
    let value = match nic_index.peek_value(seg, k) {
        Some(value) => value,
        None => match host_table.get(k) {
            Some((value, hv)) if hv == ver => value.clone(),
            _ => return None,
        },
    };
    Some((ver, value))
}

/// Releases `keys` on this node's NIC index if `txn` holds them (the
/// unlock is owner-checked, hence idempotent).
fn unlock_keys<'a>(st: &mut XenicNode, txn: TxnId, keys: impl IntoIterator<Item = &'a Key>) {
    for k in keys {
        let seg = st.segment(*k);
        st.nic_index.unlock(seg, *k, txn);
    }
}

/// The Xenic protocol (marker type implementing [`Protocol`]).
pub struct Xenic;

/// NIC-core cost of a message carrying a log record (LogReq and the
/// backend append messages): the per-byte DMA-descriptor work.
fn log_record_cost(writes: &[(Key, WritePayload, Version)]) -> u64 {
    let bytes: u64 = writes
        .iter()
        .map(|(_, p, _)| u64::from(p.wire_bytes()) + 8)
        .sum();
    150 + bytes / 16
}

impl Protocol for Xenic {
    type Msg = XMsg;
    type State = XenicNode;

    fn cost(msg: &XMsg, exec: Exec, p: &HwParams) -> u64 {
        // NIC-side costs sit below the §3.3 standalone echo figure
        // (223 ns/RPC): the burst-oriented poll loop amortizes packet
        // RX/TX descriptor work across the ops sharing each aggregated
        // frame (§4.3.2) — the mechanism behind the measured 71.8 Mops/s.
        match exec {
            Exec::Nic => match msg {
                XMsg::TxnSubmit(b) => 180 + 15 * b.spec.all_keys().count() as u64,
                XMsg::Execute(b) => {
                    150 + 35 * (b.reads.len() + b.locks.len()) as u64 + 60 * b.scans.len() as u64
                }
                XMsg::ExecuteResp(b) => {
                    100 + 15 * b.values.len() as u64 + 20 * b.scan_obs.len() as u64
                }
                XMsg::Validate(b) => {
                    110 + 12 * b.checks.len() as u64 + 20 * b.scan_checks.len() as u64
                }
                XMsg::ValidateResp { .. } => 70,
                XMsg::LogReq(b) => log_record_cost(&b.writes),
                XMsg::LogResp { .. } => 70,
                // Backend append messages carry the same record as a
                // LogReq and pay the same per-byte DMA-descriptor cost;
                // the protocol deltas ride on top (leader relay work is
                // charged in the handler — it scales with the follower
                // count, which the message alone doesn't know).
                XMsg::RaftAppend(b) => log_record_cost(&b.writes),
                XMsg::HermesInv(b) => log_record_cost(&b.writes) + p.repl_inval_apply_ns,
                XMsg::HermesVal { .. } => 40 + p.repl_val_apply_ns,
                XMsg::RaftNack { .. } => 70,
                XMsg::CommitReq(b) => 150 + 40 * b.writes.len() as u64,
                XMsg::AbortReq(b) => 80 + 25 * b.unlock.len() as u64,
                XMsg::ExecShip(b) => 150 + 35 * b.spec.all_keys().count() as u64,
                XMsg::ExecShipResp(..) => 100,
                XMsg::WritesReady { writes, .. } => 100 + 10 * writes.len() as u64,
                XMsg::LocalCommit(b) => 150 + 35 * (b.checks.len() + b.writes.len()) as u64,
                XMsg::DmaLookupDone(..) => 60,
                XMsg::DmaLogDone(..) => 80,
                XMsg::AppliedAck { .. } => 50,
                _ => 100,
            },
            Exec::Host => match msg {
                XMsg::StartTxn { .. } | XMsg::RetryTxn { .. } => p.host_app_handle_ns,
                XMsg::ReadSet { values, .. } => {
                    p.host_app_handle_ns + 30 * values.len() as u64
                }
                XMsg::Outcome { .. } => 200,
                XMsg::ApplyLog { .. } => 150,
                _ => 150,
            },
        }
    }

    fn handle(st: &mut XenicNode, rt: &mut Runtime<XMsg>, me: usize, msg: XMsg) {
        match msg {
            // ---------------- Host side ----------------
            XMsg::StartTxn { slot } => host_start_txn(st, rt, me, slot, false),
            XMsg::RetryTxn { slot } => host_start_txn(st, rt, me, slot, true),
            XMsg::ReadSet { seq, slot, values } => host_read_set(st, rt, seq, slot, values),
            XMsg::Outcome { slot, committed: true } => st.client.turn_over(rt, slot),
            XMsg::Outcome { slot, committed: false } => st.client.abort(&mut st.stats, rt, slot),
            XMsg::ApplyLog { lsn } => host_apply_log(st, rt, lsn),

            // ---------------- Coordinator NIC ----------------
            XMsg::TxnSubmit(b) => cnic_submit(st, rt, me, b.take()),
            XMsg::ExecuteResp(b) => cnic_execute_resp(st, rt, me, b.take()),
            XMsg::ValidateResp { txn, req, ok, .. } => {
                cnic_validate_resp(st, rt, me, txn, req, ok)
            }
            XMsg::LogResp {
                txn,
                from,
                shard,
                ok,
            } => cnic_log_resp(st, rt, me, txn, from, shard, ok),
            XMsg::CommitAck { txn, shard, from } => cnic_commit_ack(st, txn, shard, from),
            XMsg::RaftNack { txn, shard, term } => {
                RaftCommit::coordinator_nack(st, rt, txn, shard, term)
            }
            XMsg::PhaseTimeout { seq, epoch } => cnic_phase_timeout(st, rt, me, seq, epoch),
            XMsg::CommitTick { seq, attempt } => cnic_commit_tick(st, rt, seq, attempt),
            XMsg::ExecShipResp(b) => cnic_ship_resp(st, rt, me, b.take()),
            XMsg::WritesReady { seq, writes } => cnic_writes_ready(st, rt, me, seq, writes),
            XMsg::LocalCommit(b) => cnic_local_commit(st, rt, me, b.take()),

            // ---------------- Server NIC ----------------
            XMsg::Execute(b) => snic_execute(st, rt, b.take(), None),
            XMsg::Validate(b) => snic_validate(st, rt, b.take()),
            XMsg::LogReq(b) => snic_log(st, rt, b.take(), false),
            XMsg::RaftAppend(b) => RaftCommit::leader_append(st, rt, me, b.take()),
            XMsg::HermesInv(b) => HermesInval::backup_invalidate(st, rt, b.take()),
            XMsg::HermesVal { txn, shard } => HermesInval::backup_validate(st, rt, txn, shard),
            XMsg::CommitReq(b) => snic_commit(st, rt, b.take()),
            XMsg::AbortReq(b) => snic_abort(st, rt, b.take()),
            XMsg::ExecShip(b) => snic_exec_ship(st, rt, b.take()),
            XMsg::DmaLookupDone(b) => snic_dma_lookup_done(st, rt, b.take()),
            XMsg::DmaLogDone(b) => snic_dma_log_done(st, rt, b.take()),
            XMsg::RetryCommitApply(b) => {
                let b = b.take();
                apply_commit_records(st, rt, b.txn, b.writes, b.unlock);
            }
            XMsg::RetryBackupLog(b) => snic_log(st, rt, b.take(), true),
            XMsg::AppliedAck { lsn } => {
                let XenicNode {
                    log,
                    nic_index,
                    host_table,
                    ..
                } = st;
                log.ack_through_with(lsn, |e| {
                    if e.kind == LogKind::Commit {
                        for (k, _, _) in e.writes.iter() {
                            let seg = host_table.segment_of_key(*k);
                            nic_index.unpin(seg, *k);
                        }
                    }
                });
            }
        }
    }

    /// Crash-stop recovery hook: node memory (stores, log, protocol
    /// tables) survived, but every in-flight event targeting this node —
    /// DMA completions, ApplyLog hand-offs, retransmission timers — was
    /// discarded. Re-prime the pipelines that those events were driving.
    fn on_restart(st: &mut XenicNode, rt: &mut Runtime<XMsg>, _me: usize) {
        // Revive the log-apply pipeline: any unacked record whose
        // DmaLogDone or ApplyLog event died with the crash is re-handed
        // to a host worker (host_apply_log applies strictly in LSN order
        // and tolerates duplicates).
        let lsns: Vec<u64> = st
            .log
            .unacked()
            .map(|e| e.lsn)
            .filter(|l| *l >= st.next_apply_lsn)
            .collect();
        for lsn in lsns {
            rt.send_local(Exec::Host, XMsg::ApplyLog { lsn }, WORKER_POLL_NS);
        }
        // Every backup record present in the log is durable, but its
        // LogResp (or the DMA completion that would have sent it) may have
        // died. Mark those acknowledgeable so retransmitted LogReqs re-ack.
        // An in-flight entry with *no* record (the append hit ring-full
        // backpressure and its retry event died with the crash) is dropped
        // instead, so the coordinator's retransmission appends it fresh —
        // acking it would commit a record this backup never logged.
        let logged: FastSet<(TxnId, u32)> = st
            .log
            .unacked()
            .filter(|e| e.kind == LogKind::Backup)
            .map(|e| (e.txn, e.shard))
            .collect();
        st.backup_log_acked
            .retain(|key, acked| *acked || logged.contains(key));
        for acked in st.backup_log_acked.values_mut() {
            *acked = true;
        }
        // Restart coordinator-side retransmission timers for every
        // in-flight transaction in a network-bound phase. The old timer
        // chains died with the crash; epoch bumps keep any stragglers
        // (scheduled pre-crash, delivered post-restart) inert.
        if !rt.faults_active() {
            return;
        }
        // Sorted scan: HashMap iteration order is per-instance random,
        // and the timer-arm order decides event-queue FIFO ties.
        let mut seqs: Vec<u64> = st.coord.keys().copied().collect();
        seqs.sort_unstable();
        for seq in seqs {
            let ct = st.coord.get_mut(&seq).expect("coord exists");
            match ct.phase {
                Phase::Exec
                | Phase::Validate
                | Phase::Log
                | Phase::MhShipped
                | Phase::LocalRepl => {
                    ct.epoch += 1;
                    arm_phase_timer(st, rt, seq);
                }
                // PCIe and intra-NIC hand-offs died with the crash and
                // cannot be retransmitted from here; these transactions
                // stall (their slots stay idle) but hold no remote
                // protocol obligations that block others.
                Phase::WaitHost | Phase::MhLocal => {}
            }
        }
        // Same sorted-scan idiom: `committing` is hash-ordered too, and
        // the CommitTick arm order decides FIFO ties.
        let mut pending_commits: Vec<u64> = st.committing.keys().copied().collect();
        pending_commits.sort_unstable();
        for seq in pending_commits {
            let tick = XMsg::CommitTick { seq, attempt: 0 };
            rt.send_local(Exec::Nic, tick, COMMIT_ACK_TIMEOUT_NS);
        }
    }
}

// =====================================================================
// Host-side handlers
// =====================================================================

fn host_start_txn(st: &mut XenicNode, rt: &mut Runtime<XMsg>, me: usize, slot: u32, retry: bool) {
    let Some((seq, spec)) = st.client.begin(rt, me, slot, retry) else {
        return;
    };
    // Unshippable local work (e.g. local B+tree manipulation) runs on the
    // host regardless of where the KV execution logic runs.
    if spec.local_work_ns > 0 {
        rt.charge(spec.local_work_ns);
    }

    let shards = spec.shards();
    let local_only = shards.len() == 1 && shards[0] == st.shard;

    if shards.is_empty() {
        // A no-op transaction (e.g. a TPC-C Delivery that found no
        // pending order): commits trivially after its local work.
        rt.charge(spec.exec_host_ns);
        st.client.count_commit(&mut st.stats, slot, rt.now());
        st.client.turn_over(rt, slot);
        return;
    }

    // Range transactions always go through the NIC: the ordered index
    // (and its phantom protection) lives in NIC memory, so the host fast
    // paths below cannot serve or guard a predicate read.
    let local_only = local_only && !spec.has_scans();

    if local_only && spec.is_read_only() {
        // §4.2.4: local reads complete entirely on the host. The host
        // table is a consistent cut of this shard's in-order log
        // application, so the observed (possibly NIC-lagging) versions
        // serialize at the cut point.
        rt.charge(spec.exec_host_ns + 100 * spec.reads.len() as u64);
        let txn = TxnId::new(me as u32, seq);
        for k in &spec.reads {
            let got = st.host_table.get(*k);
            if let Some(r) = &st.recorder {
                r.note_read(txn, *k, got.map(|(_, ver)| ver).unwrap_or(0));
            }
        }
        if let Some(r) = &st.recorder {
            r.commit(txn);
        }
        st.stats.local_fast_path.inc();
        st.client.count_commit(&mut st.stats, slot, rt.now());
        st.client.turn_over(rt, slot);
        return;
    }

    if local_only {
        // §4.2.4: local writes execute optimistically on the host, then
        // the NIC validates + locks + replicates.
        rt.charge(spec.exec_host_ns + 120 * spec.all_keys().count() as u64);
        // The spec lists every key up front: fetch their home slots
        // together, then read the versions.
        let table = &st.host_table;
        table.prefetch_slots(spec.all_keys());
        let version = |k: Key| table.get(k).map(|(_, ver)| ver);
        let updates = spec.all_updates().count();
        let mut checks = pooled_vec();
        checks.reserve(spec.reads.len() + updates);
        let mut writes: WriteSet = pooled_vec();
        writes.reserve(updates + spec.inserts.len());
        for k in &spec.reads {
            if let Some(ver) = version(*k) {
                checks.push((*k, ver));
            }
        }
        for (k, op) in spec.all_updates() {
            let ver = version(*k).unwrap_or(0);
            checks.push((*k, ver));
            writes.push((*k, op.payload(), ver + 1));
        }
        for (k, v) in &spec.inserts {
            let ver = version(*k).unwrap_or(0);
            writes.push((*k, WritePayload::Full(v.clone()), ver + 1));
        }
        st.stats.local_fast_path.inc();
        let commit = LocalCommit {
            seq,
            slot,
            checks,
            writes,
        };
        send_pcie(rt, Exec::Nic, commit.into());
        return;
    }

    // Distributed: ship the transaction state to the local SmartNIC.
    send_pcie(rt, Exec::Nic, TxnSubmit { seq, slot, spec }.into());
}

fn host_read_set(
    st: &mut XenicNode,
    rt: &mut Runtime<XMsg>,
    seq: u64,
    slot: u32,
    values: Vec<(Key, Value, Version)>,
) {
    let Some(spec) = st.client.spec(slot) else {
        return;
    };
    rt.charge(spec.exec_host_ns);
    let mut writes = pooled_vec();
    compute_writes(spec, &values, &[], &mut writes);
    recycle_vec(values);
    send_pcie(rt, Exec::Nic, XMsg::WritesReady { seq, writes });
}

fn host_apply_log(st: &mut XenicNode, rt: &mut Runtime<XMsg>, lsn: u64) {
    st.apply_ready.insert(lsn);
    let mut applied_to = None;
    while st.apply_ready.remove(&st.next_apply_lsn) {
        let lsn = st.next_apply_lsn;
        st.next_apply_lsn += 1;
        let Some(entry) = st.log.get(lsn) else {
            continue;
        };
        rt.charge(100 + 120 * entry.writes.len() as u64);
        if entry.shard == st.shard {
            // Primary apply into the Robinhood table (single-probe
            // in-place writes) as one batch: fetch every key's home slot,
            // then its value bytes, then apply. Refresh NIC hints for any
            // segment an insert may have deepened.
            let keys = entry.writes.iter().map(|(k, _, _)| *k);
            st.host_table.prefetch_slots(keys.clone());
            st.host_table.prefetch_values(keys);
            for (k, p, ver) in entry.writes.iter() {
                if !st.host_table.apply_payload(*k, p, *ver) {
                    st.host_table.insert_versioned(*k, p.apply_absent(), *ver);
                    let seg = st.host_table.segment_of_key(*k);
                    st.nic_index.set_hint(
                        seg,
                        st.host_table.seg_max_disp(seg),
                        st.host_table.seg_has_overflow(seg),
                    );
                }
            }
        } else {
            let map = st.backups.entry(entry.shard).or_default();
            backup_apply_all(map, &mut st.backup_gaps, &entry.writes);
        }
        applied_to = Some(lsn);
    }
    if let Some(lsn) = applied_to {
        send_pcie(rt, Exec::Nic, XMsg::AppliedAck { lsn });
    }
}

/// Applies one log record's writes at a backup replica as a batch: every
/// written key's current value is probed and its bytes prefetched first,
/// so the misses overlap, then each write goes through [`backup_apply`]
/// in record order.
fn backup_apply_all(
    map: &mut FastMap<Key, (Value, Version)>,
    gaps: &mut FastMap<Key, Vec<(WritePayload, Version)>>,
    writes: &[(Key, WritePayload, Version)],
) {
    for (k, _, _) in writes {
        if let Some((value, _)) = map.get(k) {
            value.prefetch();
        }
    }
    for (k, p, ver) in writes {
        backup_apply(map, gaps, *k, p, *ver);
    }
}

/// Applies one backup-replica write in per-key version order. In-order
/// records (`ver == cur + 1`, the only case the all-ack backends ever
/// produce) install directly; a record past a gap is buffered until the
/// missing versions land (the Raft backend's laggard catch-up can
/// deliver an older append after a newer transaction's direct append);
/// a record at or below the installed version is a duplicate and drops.
/// `Full` payloads replace, deltas accumulate — both are correct only
/// in version order, which this enforces.
fn backup_apply(
    map: &mut FastMap<Key, (Value, Version)>,
    gaps: &mut FastMap<Key, Vec<(WritePayload, Version)>>,
    k: Key,
    p: &WritePayload,
    ver: Version,
) {
    let slot = map.get_mut(&k);
    let cur = slot.as_ref().map_or(0, |slot| slot.1);
    if ver <= cur {
        return;
    }
    if ver > cur + 1 {
        let pending = gaps.entry(k).or_default();
        if !pending.iter().any(|(_, v)| *v == ver) {
            pending.push((p.clone(), ver));
        }
        return;
    }
    match slot {
        Some(slot) => {
            p.apply_in_place(&mut slot.0);
            slot.1 = ver;
        }
        None => {
            map.insert(k, (p.apply_absent(), ver));
        }
    }
    // The gap just closed may unblock buffered successors; drain every
    // now-contiguous version in order.
    if let Some(pending) = gaps.get_mut(&k) {
        let mut next = ver + 1;
        while let Some(i) = pending.iter().position(|(_, v)| *v == next) {
            let (dp, dv) = pending.swap_remove(i);
            let slot = map.get_mut(&k).expect("just installed");
            dp.apply_in_place(&mut slot.0);
            slot.1 = dv;
            next = dv + 1;
        }
        if pending.is_empty() {
            gaps.remove(&k);
        }
    }
}

/// Builds the write set from the spec into the empty `out`: delta-
/// shippable ops (AddI64, Mutate) travel as payloads applied at each
/// replica — the object's bytes never cross the wire; Put and inserts
/// carry full values. Versions come from execute-phase reads / lock
/// metadata.
fn compute_writes(
    spec: &TxnSpec,
    values: &[(Key, Value, Version)],
    lock_versions: &[(Key, Version)],
    out: &mut WriteSet,
) {
    out.reserve(spec.all_updates().count() + spec.inserts.len());
    for (k, op) in spec.all_updates() {
        out.push((*k, op.payload(), version_of(values, lock_versions, *k) + 1));
    }
    for (k, v) in &spec.inserts {
        let ver = version_of(values, lock_versions, *k);
        out.push((*k, WritePayload::Full(v.clone()), ver + 1));
    }
}

/// The version Execute observed for `k`: lock metadata first, else the
/// read value's, else 0 (a key nobody has written yet).
fn version_of(values: &[(Key, Value, Version)], lock_versions: &[(Key, Version)], k: Key) -> Version {
    let locked = lock_versions.iter().find(|(key, _)| *key == k).map(|(_, v)| *v);
    locked
        .or_else(|| values.iter().find(|(key, _, _)| *key == k).map(|(_, _, v)| *v))
        .unwrap_or(0)
}

// =====================================================================
// Coordinator-NIC handlers
// =====================================================================

/// Opens one Execute/Validate request of `seq`'s current wait: allocates
/// its id, counts it in `pending` and — only when faults are active —
/// tracks a clone of `build(id)` for retransmission. Returns the body
/// for the caller to deliver.
fn open_request<B: Clone + Into<XMsg>>(
    st: &mut XenicNode,
    rt: &mut Runtime<XMsg>,
    seq: u64,
    dst: usize,
    build: impl FnOnce(u64) -> B,
) -> B {
    let req = st.next_req;
    st.next_req += 1;
    let body = build(req);
    let ct = st.coord.get_mut(&seq).expect("coord exists");
    ct.pending += 1;
    if rt.faults_active() {
        ct.round.track(Awaits::Req(req), dst, body.clone().into());
    }
    body
}

/// Opens a request (see [`open_request`]) and sends it to `dst`.
fn request<B: Clone + Into<XMsg>>(
    st: &mut XenicNode,
    rt: &mut Runtime<XMsg>,
    seq: u64,
    dst: usize,
    build: impl FnOnce(u64) -> B,
) {
    let body = open_request(st, rt, seq, dst, build);
    send(rt, dst, body.into());
}

fn cnic_submit(st: &mut XenicNode, rt: &mut Runtime<XMsg>, me: usize, submit: TxnSubmit) {
    let TxnSubmit { seq, slot, spec } = submit;
    let txn = TxnId::new(me as u32, seq);
    let reply_to = me as u32;
    // The Execute span covers every coordinator variant: the standard
    // per-shard Execute round, the multi-hop local lock+read, and the
    // direct-ship path (which stays "executing" until the ship resolves).
    rt.trace_begin("Execute", seq);
    let shards = spec.shards();
    let remote_shards: SmallVec<u32, 8> =
        shards.iter().copied().filter(|&s| s != st.shard).collect();

    // Multi-hop requires a single remote shard, shippable logic, and —
    // when the local shard participates — a cache-resolvable local read
    // set (a local DMA miss would serialize in front of the shipped
    // execution and cost more than the saved message delay).
    let local_reads_cached = spec
        .reads
        .iter()
        .chain(spec.updates.iter().map(|(k, _)| k))
        .filter(|k| shard_of(**k) == st.shard)
        .all(|k| {
            let seg = st.segment(*k);
            st.nic_index.peek_cached(seg, *k)
        });
    let multihop_ok = st.cfg.occ_multihop
        && st.cfg.nic_execution
        && spec.ship == crate::api::ShipMode::Nic
        && !spec.is_read_only()
        && spec.single_round()
        && !spec.has_scans()
        && remote_shards.len() == 1
        && local_reads_cached;

    let mut ct = st.alloc_coord(Arc::clone(&spec), slot);

    if multihop_ok {
        ct.remote_shard = Some(remote_shards[0]);
        st.stats.multihop.inc();
        let local_keys: KeySet = spec
            .all_keys()
            .filter(|k| shard_of(*k) == st.shard)
            .collect();
        if local_keys.is_empty() {
            // Ship straight to the remote primary.
            st.coord.insert(seq, ct);
            ship_exec(st, rt, me, seq, Vec::new());
            return;
        }
        // Lock+read the local part inline — the coordinator NIC holds
        // the local locks and cache itself, so no self-message hop is
        // needed (cache misses fall back to the DMA machinery, whose
        // ExecuteResp self-delivers). Self-delivery is reliable: the
        // request is tracked for dedup symmetry, never retransmitted
        // (MhLocal arms no timer).
        ct.phase = Phase::MhLocal;
        ct.local_locked = local_keys.clone();
        st.coord.insert(seq, ct);
        let reads: KeySet = spec
            .reads
            .iter()
            .copied()
            .filter(|k| shard_of(*k) == st.shard)
            .collect();
        let exec = open_request(st, rt, seq, me, |req| Execute {
            txn,
            req,
            reply_to,
            reads,
            locks: local_keys,
            scans: ScanSet::new(),
        });
        rt.charge(30 * exec.locks.len() as u64);
        snic_execute(st, rt, exec, None);
        return;
    }

    // Standard path: Execute per shard. Read-set keys fetch values; write
    // (update/insert) keys are locked and return only their versions —
    // delta payloads make the values unnecessary at the coordinator.
    ct.shards_contacted = shards.len();
    st.coord.insert(seq, ct);
    for &shard in &shards {
        let reads: KeySet = spec
            .reads
            .iter()
            .copied()
            .filter(|k| shard_of(*k) == shard)
            .collect();
        let locks: KeySet = spec.write_keys().filter(|k| shard_of(*k) == shard).collect();
        let scans: ScanSet = spec
            .scans
            .iter()
            .copied()
            .filter(|s| s.shard() == shard)
            .collect();
        let dst = st.part.primary(shard);
        let exec = |req, reads, locks, scans| Execute {
            txn,
            req,
            reply_to,
            reads,
            locks,
            scans,
        };
        if st.cfg.smart_remote_ops {
            request(st, rt, seq, dst, |req| exec(req, reads, locks, scans));
            continue;
        }
        // Figure 9 baseline: one request per read key, per predicate and
        // per lock key, mirroring one-sided RDMA's one-op-one-request
        // structure.
        for k in reads {
            let one = std::iter::once(k).collect();
            request(st, rt, seq, dst, |req| exec(req, one, KeySet::new(), ScanSet::new()));
        }
        for s in scans {
            let one = std::iter::once(s).collect();
            request(st, rt, seq, dst, |req| exec(req, KeySet::new(), KeySet::new(), one));
        }
        for k in locks {
            let one = std::iter::once(k).collect();
            request(st, rt, seq, dst, |req| exec(req, KeySet::new(), one, ScanSet::new()));
        }
    }
    if st.coord[&seq].pending == 0 {
        // Nothing to wait for (degenerate spec): advance immediately.
        exec_complete(st, rt, me, seq, txn);
    } else if rt.faults_active() {
        arm_phase_timer(st, rt, seq);
    }
}

/// Arms one retransmission-timer chain for the coordinator transaction's
/// current phase epoch (fault injection only).
fn arm_phase_timer(st: &mut XenicNode, rt: &mut Runtime<XMsg>, seq: u64) {
    let Some(ct) = st.coord.get(&seq) else {
        return;
    };
    let timeout = XMsg::PhaseTimeout { seq, epoch: ct.epoch };
    rt.send_local(Exec::Nic, timeout, PHASE_TIMEOUT_NS);
}

/// Multi-hop: ships the whole transaction to its one remote primary,
/// carrying the coordinator-local values read and locked here. Expects
/// the ExecShipResp plus one LogResp per backup of each written shard.
fn ship_exec(
    st: &mut XenicNode,
    rt: &mut Runtime<XMsg>,
    me: usize,
    seq: u64,
    local_vals: Vec<(Key, Value, Version)>,
) {
    let ct = st.coord.get_mut(&seq).expect("coord exists");
    ct.enter_phase(Phase::MhShipped);
    let remote = ct.remote_shard.expect("multihop has remote");
    let spec = Arc::clone(&ct.spec);
    ct.pending = 1;
    for shard in [remote, st.shard] {
        if spec.write_keys().any(|k| shard_of(k) == shard) {
            ct.pending += st.part.backups(shard).len();
        }
    }
    let msg = XMsg::from(ExecShip {
        txn: TxnId::new(me as u32, seq),
        reply_to: me as u32,
        spec,
        local_vals,
    });
    ct.round.send_tracked(rt, Awaits::Shipped, st.part.primary(remote), msg);
    if rt.faults_active() {
        arm_phase_timer(st, rt, seq);
    }
}

fn cnic_execute_resp(st: &mut XenicNode, rt: &mut Runtime<XMsg>, me: usize, resp: ExecuteResp) {
    let ExecuteResp {
        txn,
        req,
        shard,
        ok,
        mut values,
        mut lock_versions,
        scan_obs,
    } = resp;
    let seq = txn.seq;
    let Some(ct) = st.coord.get_mut(&seq) else {
        return;
    };
    if rt.faults_active() && !ct.round.heard(Awaits::Req(req)) {
        return;
    }
    let mut release = KeySet::new();
    if !ok {
        ct.ok = false;
    } else if ct.ok {
        ct.values.append(&mut values);
        ct.lock_versions.append(&mut lock_versions);
        ct.scan_obs.extend(scan_obs.iter().map(|o| (shard, *o)));
        let locks_here = ct.spec.write_keys().any(|k| shard_of(k) == shard);
        if locks_here && !ct.locked_shards.contains(&shard) {
            ct.locked_shards.push(shard);
        }
    } else {
        // The txn is already aborting: release whatever this shard locked.
        release = ct
            .spec
            .write_keys()
            .filter(|k| shard_of(*k) == shard)
            .collect();
    }
    ct.pending -= 1;
    let (pending, txn_ok, phase) = (ct.pending, ct.ok, ct.phase);
    recycle_vec(values);
    recycle_vec(lock_versions);
    send_abort(st, rt, txn, shard, release);
    if pending > 0 {
        return;
    }
    if !txn_ok {
        conclude(st, rt, me, seq, Verdict::Abort);
        return;
    }
    match phase {
        Phase::MhLocal => {
            // Local part locked & read; ship to the remote primary. Lock
            // versions travel as value-less entries (16 B each).
            let ct = &st.coord[&seq];
            let mut local_vals = pooled_vec();
            local_vals.extend_from_slice(&ct.values);
            local_vals.extend(
                ct.lock_versions
                    .iter()
                    .map(|(k, v)| (*k, Value::empty(), *v)),
            );
            ship_exec(st, rt, me, seq, local_vals);
        }
        Phase::Exec => exec_complete(st, rt, me, seq, txn),
        _ => {}
    }
}

/// All Execute responses for the current round arrived successfully:
/// issue the next round if the transaction is multi-shot, otherwise run
/// execution logic (on NIC or host) and move to Validate.
fn exec_complete(st: &mut XenicNode, rt: &mut Runtime<XMsg>, me: usize, seq: u64, txn: TxnId) {
    let ct = st.coord.get_mut(&seq).expect("coord exists");
    let spec = Arc::clone(&ct.spec);
    if let Some(round) = spec.rounds.get(ct.rounds_done as usize) {
        // §4.2 step 3: subsequent execute requests read and/or lock
        // additional keys until execution is finished.
        ct.rounds_done += 1;
        let mut sends: Vec<(u32, (KeySet, KeySet))> = Vec::new();
        for k in &round.reads {
            group_of(&mut sends, shard_of(*k)).0.push(*k);
        }
        for (k, _) in &round.updates {
            group_of(&mut sends, shard_of(*k)).1.push(*k);
        }
        sends.sort_unstable_by_key(|(s, _)| *s);
        ct.shards_contacted += sends.len();
        // New round, new wait: the previous round's timer chain dies and
        // the retransmission budget starts afresh.
        ct.enter_phase(Phase::Exec);
        for (shard, (reads, locks)) in sends {
            let dst = st.part.primary(shard);
            request(st, rt, seq, dst, |req| Execute {
                txn,
                req,
                reply_to: me as u32,
                reads,
                locks,
                scans: ScanSet::new(),
            });
        }
        if rt.faults_active() {
            arm_phase_timer(st, rt, seq);
        }
        return;
    }
    if spec.is_read_only() && ct.shards_contacted <= 1 {
        // Reads from a single primary form an atomic snapshot; multi-shard
        // read sets must validate.
        conclude(st, rt, me, seq, Verdict::Commit);
        return;
    }
    rt.trace_end("Execute", seq);
    if spec.is_read_only() {
        send_validates(st, rt, me, seq, txn);
    } else if st.cfg.nic_execution && spec.ship == crate::api::ShipMode::Nic {
        // §4.2.2: run execution logic here on the coordinator NIC.
        rt.charge(spec.exec_nic_ns);
        st.stats.nic_executed.inc();
        ct.writes.clear();
        compute_writes(&spec, &ct.values, &ct.lock_versions, &mut ct.writes);
        send_validates(st, rt, me, seq, txn);
    } else {
        // Return the read set to the host for execution (§4.2 step 3).
        ct.enter_phase(Phase::WaitHost);
        let mut values = pooled_vec();
        values.extend_from_slice(&ct.values);
        send_pcie(rt, Exec::Host, XMsg::ReadSet { seq, slot: ct.slot, values });
    }
}

fn cnic_writes_ready(
    st: &mut XenicNode,
    rt: &mut Runtime<XMsg>,
    me: usize,
    seq: u64,
    mut writes: WriteSet,
) {
    let Some(ct) = st.coord.get_mut(&seq) else {
        return;
    };
    // The host computed payloads; versions come from the NIC's execute-
    // phase lock metadata.
    ct.writes.clear();
    ct.writes.extend(
        writes
            .drain(..)
            .map(|(k, p, _)| (k, p, version_of(&ct.values, &ct.lock_versions, k) + 1)),
    );
    recycle_vec(writes);
    send_validates(st, rt, me, seq, TxnId::new(me as u32, seq));
}

/// Sends Validate requests for read-set keys (not write-locked ones);
/// advances straight to Log if nothing needs checking.
fn send_validates(st: &mut XenicNode, rt: &mut Runtime<XMsg>, me: usize, seq: u64, txn: TxnId) {
    // Single entry into Validate for every path (NIC execution, host
    // execution, multi-shard read-only), so the span begins exactly once.
    rt.trace_begin("Validate", seq);
    let ct = st.coord.get_mut(&seq).expect("coord exists");
    ct.enter_phase(Phase::Validate);
    // Only pure reads validate; updates hold locks.
    let no_reads = ct.spec.all_reads().next().is_none();
    if (no_reads && ct.scan_obs.is_empty()) || ct.shards_contacted <= 1 {
        // Single-shard execute was atomic at the primary; no window —
        // the walk's in-range lock/pending-insert refusal covers
        // predicates too.
        log_phase(st, rt, me, seq, txn);
        return;
    }
    // Scan re-checks ride the same per-shard Validate: each Execute-phase
    // observation already carries everything the primary needs to
    // re-walk its predicate.
    let mut by_shard = std::mem::take(&mut st.validate_groups);
    for k in ct.spec.all_reads() {
        let v = version_of(&ct.values, &[], k);
        group_of(&mut by_shard, shard_of(k)).0.push((k, v));
    }
    for &(s, o) in ct.scan_obs.iter() {
        group_of(&mut by_shard, s).1.push(ScanCheck {
            lo: o.lo,
            hi_obs: o.hi_obs,
            count: o.count,
            fp: o.fp,
        });
    }
    by_shard.sort_unstable_by_key(|(s, _)| *s);
    let smart = st.cfg.smart_remote_ops;
    let validate = |req, checks, scan_checks| Validate {
        txn,
        req,
        reply_to: me as u32,
        checks,
        scan_checks,
    };
    for (shard, (checks, scan_checks)) in by_shard.drain(..) {
        let dst = st.part.primary(shard);
        if smart {
            request(st, rt, seq, dst, |req| validate(req, checks, scan_checks));
            continue;
        }
        for c in checks {
            let one = std::iter::once(c).collect();
            request(st, rt, seq, dst, |req| validate(req, one, ScanCheckSet::new()));
        }
        for sc in scan_checks {
            let one = std::iter::once(sc).collect();
            request(st, rt, seq, dst, |req| validate(req, CheckSet::new(), one));
        }
    }
    st.validate_groups = by_shard;
    if rt.faults_active() {
        arm_phase_timer(st, rt, seq);
    }
}

fn cnic_validate_resp(
    st: &mut XenicNode,
    rt: &mut Runtime<XMsg>,
    me: usize,
    txn: TxnId,
    req: u64,
    ok: bool,
) {
    let seq = txn.seq;
    let Some(ct) = st.coord.get_mut(&seq) else {
        return;
    };
    if ct.phase != Phase::Validate {
        return;
    }
    if rt.faults_active() && !ct.round.heard(Awaits::Req(req)) {
        return;
    }
    if !ok {
        ct.ok = false;
    }
    ct.pending -= 1;
    if ct.pending > 0 {
        return;
    }
    if ct.ok {
        log_phase(st, rt, me, seq, txn);
    } else {
        conclude(st, rt, me, seq, Verdict::Abort);
    }
}

/// §4.2 step 5: replicate the write set. The configured replication
/// backend (DESIGN.md §15) owns everything from here to the commit
/// point — who the appends go to, how many acks commit, and what the
/// retransmission policy is.
fn log_phase(st: &mut XenicNode, rt: &mut Runtime<XMsg>, me: usize, seq: u64, txn: TxnId) {
    let ct = st.coord.get_mut(&seq).expect("coord exists");
    if ct.spec.is_read_only() {
        // Nothing to replicate: validated reads commit here.
        conclude(st, rt, me, seq, Verdict::Commit);
        return;
    }
    rt.trace_end("Validate", seq);
    ct.enter_phase(Phase::Log);
    ct.acks.clear();
    rt.trace_begin("Log", seq);
    // Group the write set by shard, once, into one shared set per shard
    // in ascending shard order, keeping the write order within each: the
    // backend's appends share the groups and the CommitReq fan-out later
    // moves them out. Each pass moves one shard's writes into the
    // scratch, so the only allocation per shard is the shared set.
    let mut shards: SmallVec<u32, 8> = SmallVec::new();
    for (k, _, _) in &ct.writes {
        if !shards.contains(&shard_of(*k)) {
            shards.push(shard_of(*k));
        }
    }
    shards.sort_unstable();
    let group = &mut st.write_group;
    for &shard in &shards {
        group.extend(ct.writes.extract_if(.., |(k, _, _)| shard_of(*k) == shard));
        ct.by_shard.push((shard, share(group)));
    }
    backend(st.cfg.replication_backend).begin_log(st, rt, me, seq, txn);
}

/// Sends one append (`build()`) to every backup of `shard`, each
/// expected (and, under faults, tracked until) acknowledged.
pub(crate) fn append_to_backups(
    round: &mut Round,
    pending: &mut usize,
    rt: &mut Runtime<XMsg>,
    part: &Partitioning,
    shard: u32,
    build: impl Fn() -> XMsg,
) {
    for b in part.backups(shard) {
        *pending += 1;
        let from = b as u32;
        round.send_tracked(rt, Awaits::Ack { from, shard }, b, build());
    }
}

/// The appends of `seq`'s replication wait are out: commit at once if
/// no backup exists to acknowledge (replication factor 1), else — under
/// faults — arm the phase timer.
pub(crate) fn appends_sent(st: &mut XenicNode, rt: &mut Runtime<XMsg>, me: usize, seq: u64) {
    if st.coord[&seq].pending == 0 {
        conclude(st, rt, me, seq, Verdict::Commit);
    } else if rt.faults_active() {
        arm_phase_timer(st, rt, seq);
    }
}

fn cnic_log_resp(
    st: &mut XenicNode,
    rt: &mut Runtime<XMsg>,
    me: usize,
    txn: TxnId,
    from: u32,
    shard: u32,
    ok: bool,
) {
    let seq = txn.seq;
    let backend_kind = st.cfg.replication_backend;
    let Some(ct) = st.coord.get_mut(&seq) else {
        // Post-commit ack under Raft: a laggard catch-up append became
        // durable — stop retransmitting that backup's entry.
        if rt.faults_active() && backend_kind == ReplBackend::Raft {
            cnic_commit_ack(st, txn, shard, from);
        }
        return;
    };
    let log_awaiting = matches!(ct.phase, Phase::Log | Phase::MhShipped | Phase::LocalRepl);
    if rt.faults_active() {
        // Acks only count in log-awaiting phases, and each backup's ack
        // for each shard's record counts once — retransmitted LogReqs
        // produce duplicate LogResps.
        if !log_awaiting || !ct.acks.insert((from, shard)) {
            return;
        }
        ct.round.heard(Awaits::Ack { from, shard });
    } else if backend_kind == ReplBackend::Raft && ct.phase == Phase::Log {
        // Raft's majority quorum needs per-shard ack tallies even on a
        // reliable fabric (the other backends count every ack equally).
        ct.acks.insert((from, shard));
    }
    if !ok {
        ct.ok = false;
    }
    if ct.phase == Phase::Log {
        backend(backend_kind).on_log_ack(st, rt, me, seq, shard);
    } else if log_awaiting {
        count_ack(st, rt, me, seq);
    }
}

/// Counts one expected response of `seq`'s wait; the last one concludes
/// the transaction — committed, unless some replica refused.
pub(crate) fn count_ack(st: &mut XenicNode, rt: &mut Runtime<XMsg>, me: usize, seq: u64) {
    let ct = st.coord.get_mut(&seq).expect("coord exists");
    ct.pending -= 1;
    if ct.pending == 0 {
        let verdict = if ct.ok { Verdict::Commit } else { Verdict::Abort };
        conclude(st, rt, me, seq, verdict);
    }
}

/// The one exit of every coordinator transaction: closes the span its
/// phase left open, marks the verdict on the trace, and then
///
/// * **Commit** (§4.2 step 6; the backend's quorum of Log acks is in
///   hand, so the writes survive a coordinator crash): notes the
///   transaction's evidence in the history, reports Committed to the
///   host, and installs the writes — CommitReqs to the primaries (Log),
///   a slim CommitReq to the remote primary plus the local apply
///   (multi-hop), or the local apply alone (local fast path);
/// * **Abort**: releases the locks held on this NIC, tells every shard
///   that locked for the transaction to release, and reports the abort;
///
/// and recycles the context. (A LocalCommit refused at the door opens
/// no context and no span: `cnic_local_commit` sends its abort Outcome
/// itself.)
fn conclude(
    st: &mut XenicNode,
    rt: &mut Runtime<XMsg>,
    me: usize,
    seq: u64,
    verdict: Verdict,
) {
    let txn = TxnId::new(me as u32, seq);
    let mut ct = st.coord.remove(&seq).expect("concluding a live context");
    // WaitHost has no open span: Execute already ended and the host
    // round-trip is untraced.
    match ct.phase {
        Phase::Exec | Phase::MhLocal | Phase::MhShipped => rt.trace_end("Execute", seq),
        Phase::Validate => rt.trace_end("Validate", seq),
        Phase::Log | Phase::LocalRepl => rt.trace_end("Log", seq),
        Phase::WaitHost => {}
    }
    let slot = ct.slot;
    match verdict {
        Verdict::Commit => commit(st, rt, seq, txn, &mut ct),
        Verdict::Abort => abort(st, rt, seq, txn, &ct),
    }
    st.recycle_coord(ct);
    if verdict == Verdict::Abort {
        send_pcie(rt, Exec::Host, XMsg::Outcome { slot, committed: false });
    }
}

/// The Abort half of [`conclude`].
fn abort(st: &mut XenicNode, rt: &mut Runtime<XMsg>, seq: u64, txn: TxnId, ct: &CoordTxn) {
    rt.trace_instant("Abort", seq);
    if matches!(ct.phase, Phase::MhShipped | Phase::LocalRepl) {
        // Multi-hop / local fast path: this NIC locked the local keys
        // itself. A shipped transaction's remote primary — unless it was
        // the one refusing (`cnic_ship_resp`) — executed, so it holds
        // every key of its shard plus the staged writes.
        unlock_keys(st, txn, &ct.local_locked);
        if let Some(remote) = ct.remote_shard {
            let unlock = ct.spec.all_keys().filter(|k| shard_of(*k) == remote);
            send_abort(st, rt, txn, remote, unlock.collect());
        }
        return;
    }
    for &shard in &ct.locked_shards {
        let unlock = ct.spec.write_keys().filter(|k| shard_of(*k) == shard);
        send_abort(st, rt, txn, shard, unlock.collect());
    }
}

/// The Commit half of [`conclude`].
fn commit(st: &mut XenicNode, rt: &mut Runtime<XMsg>, seq: u64, txn: TxnId, ct: &mut CoordTxn) {
    rt.trace_instant("Commit", seq);
    // Remote-shard evidence of a multi-hop transaction was noted by the
    // remote primary in resolve_exec (before any ack could reach us), and
    // the local fast path noted its own when validation passed; whatever
    // this context collected is noted here.
    if let Some(r) = &st.recorder {
        r.note_reads(txn, ct.values.iter().map(|(k, _, v)| (*k, *v)));
        r.note_reads(txn, ct.lock_versions.iter().copied());
        r.note_scans(txn, ct.scan_obs.iter().map(|(_, o)| (o.lo, o.hi_obs)));
        let shared = ct.by_shard.iter().flat_map(|(_, ws)| ws.iter());
        let writes = shared.chain(ct.local_writes.iter());
        r.note_writes(txn, writes.map(|(k, _, v)| (*k, *v)));
        r.commit(txn);
    }
    // The commit is counted *here*, on the NIC, atomically with the
    // decision: the Outcome crossing PCIe only turns the slot over, so a
    // crash that swallows it can stall the slot but never make a
    // committed transaction vanish from the counters the conservation
    // audits check against applied state.
    st.client.count_commit(&mut st.stats, ct.slot, rt.now());
    send_pcie(rt, Exec::Host, XMsg::Outcome { slot: ct.slot, committed: true });
    let fa = rt.faults_active();
    let backend_kind = st.cfg.replication_backend;
    let mut unacked = Round::default();
    match ct.phase {
        Phase::Log => {
            // TEST ONLY: a weakened quorum also drops the retransmission
            // bookkeeping that keeps lossy commits convergent (see
            // `Weakening::Quorum`).
            let weakened =
                st.cfg.weaken == Some(Weakening::Quorum) && backend_kind == ReplBackend::Raft;
            let track = fa && !weakened;
            backend(backend_kind).after_commit(st, rt, txn, ct, track, &mut unacked);
            for (shard, writes) in ct.by_shard.drain(..) {
                let dst = st.part.primary(shard);
                let msg = XMsg::from(CommitReq { txn, shard, writes });
                if track {
                    let from = dst as u32;
                    unacked.track(Awaits::Ack { from, shard }, dst, msg.clone());
                }
                send(rt, dst, msg);
            }
            // The outcome is already reported: CommitReqs (and the
            // backend's post-commit traffic) must eventually land or the
            // commit evaporates.
            retransmit_until_acked(st, rt, seq, unacked);
        }
        Phase::MhShipped => {
            // Slim Commit to the remote primary (it staged its writes),
            // then the local-shard commit here (locks released after the
            // DMA; read-only local participation just unlocks).
            let remote = ct.remote_shard.expect("multihop has remote");
            let slim = XMsg::from(CommitReq {
                txn,
                shard: remote,
                writes: SharedWrites::default(),
            });
            send_until_acked(st, rt, seq, remote, slim);
            let local_locked = std::mem::take(&mut ct.local_locked);
            if ct.local_writes.is_empty() {
                unlock_keys(st, txn, &local_locked);
            } else {
                let local_writes = std::mem::take(&mut ct.local_writes);
                apply_commit_records(st, rt, txn, local_writes, local_locked);
            }
        }
        Phase::LocalRepl => {
            if backend_kind == ReplBackend::Hermes {
                // Return the backups to the valid state now that the
                // write is committed; under faults the validations
                // retransmit until each backup acks.
                let shard = st.shard;
                HermesInval::broadcast_validation(st, rt, txn, shard, fa, &mut unacked);
                retransmit_until_acked(st, rt, seq, unacked);
            }
            let writes = std::mem::take(&mut ct.local_writes);
            let unlock = std::mem::take(&mut ct.local_locked);
            apply_commit_records(st, rt, txn, writes, unlock);
        }
        // Read-only: nothing was written anywhere.
        _ => {}
    }
}

fn cnic_ship_resp(st: &mut XenicNode, rt: &mut Runtime<XMsg>, me: usize, resp: ExecShipResp) {
    let seq = resp.txn.seq;
    let Some(ct) = st.coord.get_mut(&seq) else {
        return;
    };
    if !resp.ok {
        // The remote primary refused and released its own locks: nothing
        // is left to abort there, and the log acks still pending will
        // never arrive — it never logged.
        ct.remote_shard = None;
        conclude(st, rt, me, seq, Verdict::Abort);
        return;
    }
    if rt.faults_active() && !(ct.phase == Phase::MhShipped && ct.round.heard(Awaits::Shipped)) {
        return;
    }
    ct.local_writes = resp.local_writes;
    count_ack(st, rt, me, seq);
}

/// Tells `shard`'s primary to release `unlock`, if there is anything to
/// release. On a lossy fabric a lost AbortReq would leave those keys
/// locked by a dead transaction forever (every later writer aborts on
/// them), so it is retransmitted like a CommitReq until the primary's
/// `CommitAck`; the unlock is owner-checked, hence idempotent.
fn send_abort(st: &mut XenicNode, rt: &mut Runtime<XMsg>, txn: TxnId, shard: u32, unlock: KeySet) {
    if !unlock.is_empty() {
        send_until_acked(st, rt, txn.seq, shard, XMsg::from(AbortReq { txn, unlock }));
    }
}

/// Sends a post-outcome `msg` to `shard`'s primary; under faults it is
/// registered first, to be retransmitted until that primary's CommitAck.
fn send_until_acked(st: &mut XenicNode, rt: &mut Runtime<XMsg>, seq: u64, shard: u32, msg: XMsg) {
    let dst = st.part.primary(shard);
    if rt.faults_active() {
        let mut one = Round::default();
        one.track(Awaits::Ack { from: dst as u32, shard }, dst, msg.clone());
        retransmit_until_acked(st, rt, seq, one);
    }
    send(rt, dst, msg);
}

/// Registers post-outcome messages of transaction `seq` (already sent)
/// for retransmission by `CommitTick` until each is acknowledged by a
/// `CommitAck` (on_restart re-arms the tick for `committing` entries).
fn retransmit_until_acked(st: &mut XenicNode, rt: &mut Runtime<XMsg>, seq: u64, unacked: Round) {
    if unacked.0.is_empty() {
        return;
    }
    let pending = st.committing.entry(seq).or_default();
    if pending.0.is_empty() {
        let tick = XMsg::CommitTick { seq, attempt: 0 };
        rt.send_local(Exec::Nic, tick, COMMIT_ACK_TIMEOUT_NS);
    }
    pending.0.extend(unacked.0);
}

// =====================================================================
// Loss-tolerance handlers (reached only when fault injection is active)
// =====================================================================

/// A replica acknowledged a post-outcome message (a primary's CommitReq
/// or AbortReq, a backup's Hermes validation or Raft catch-up append):
/// stop retransmitting that entry. Matching on `(from, shard)` keeps a
/// backup's ack from clearing the primary's CommitReq for the same shard.
fn cnic_commit_ack(st: &mut XenicNode, txn: TxnId, shard: u32, from: u32) {
    if let Some(unacked) = st.committing.get_mut(&txn.seq) {
        unacked.heard(Awaits::Ack { from, shard });
        if unacked.settled() {
            st.committing.remove(&txn.seq);
        }
    }
}

/// A phase timer fired: retransmit whatever is still outstanding, or —
/// for the abortable Exec/Validate phases — give up once the budget is
/// spent. Log-awaiting phases retransmit forever: backups apply log
/// records on receipt, so the coordinator may never walk a commit back.
fn cnic_phase_timeout(st: &mut XenicNode, rt: &mut Runtime<XMsg>, me: usize, seq: u64, epoch: u64) {
    let Some(ct) = st.coord.get_mut(&seq) else {
        return;
    };
    if ct.epoch != epoch {
        return;
    }
    match ct.phase {
        Phase::Exec | Phase::Validate if ct.attempts >= MAX_PHASE_RETRIES => {
            // A server may have locked and had its response lost, so
            // release at every write-key shard, not only the shards
            // whose locks we heard about.
            ct.ok = false;
            let spec = Arc::clone(&ct.spec);
            for s in spec.write_keys().map(shard_of) {
                if !ct.locked_shards.contains(&s) {
                    ct.locked_shards.push(s);
                }
            }
            conclude(st, rt, me, seq, Verdict::Abort);
            return;
        }
        Phase::Exec | Phase::Validate | Phase::LocalRepl => {
            ct.attempts += 1;
            ct.round.retransmit(rt, seq, |e| !e.heard);
        }
        // The replication backend owns the Log-phase retransmission
        // policy (resend-unacked for the all-ack backends; term bumps
        // and leader re-routing for Raft).
        Phase::Log => backend(st.cfg.replication_backend).on_log_timeout(st, rt, seq),
        // Resend the ExecShip even once its response was heard; the
        // remote primary replays its cached outcome and LogReq fan-out,
        // and the backups re-ack.
        Phase::MhShipped => ct.round.retransmit(rt, seq, |_| true),
        // PCIe and intra-node hand-offs are reliable; a stale timer from
        // the preceding phase has nothing to do here.
        Phase::WaitHost | Phase::MhLocal => return,
    }
    arm_phase_timer(st, rt, seq);
}

/// Commit-retransmission timer: re-send every unacknowledged post-outcome
/// message with linear backoff, forever — the outcome was already
/// reported.
fn cnic_commit_tick(st: &mut XenicNode, rt: &mut Runtime<XMsg>, seq: u64, attempt: u32) {
    let Some(unacked) = st.committing.get(&seq) else {
        return;
    };
    unacked.retransmit(rt, seq, |e| !e.heard);
    let next = attempt.saturating_add(1);
    let delay = COMMIT_ACK_TIMEOUT_NS * u64::from(next.min(8) + 1);
    rt.send_local(Exec::Nic, XMsg::CommitTick { seq, attempt: next }, delay);
}

/// §4.2.4 local fast path: the NIC validates host-read versions, locks,
/// and replicates.
fn cnic_local_commit(st: &mut XenicNode, rt: &mut Runtime<XMsg>, me: usize, lc: LocalCommit) {
    let LocalCommit {
        seq,
        slot,
        checks,
        mut writes,
    } = lc;
    let txn = TxnId::new(me as u32, seq);
    // Every key this handler touches is known up front: fetch their index
    // entries together, then lock the write keys.
    let write_keys = writes.iter().map(|(k, _, _)| *k);
    let keys = write_keys.chain(checks.iter().map(|(k, _)| *k));
    st.nic_index
        .prefetch_keys(keys, |k| st.host_table.segment_of_key(k));
    // Lock the write keys in order, up to the first refusal:
    // `writes[..locked]` are the keys this attempt holds.
    let locked = writes
        .iter()
        .take_while(|(k, _, _)| {
            let seg = st.segment(*k);
            st.nic_index.try_lock(seg, *k, txn)
        })
        .count();
    let mut ok = locked == writes.len();
    // Validate the host's optimistic reads against NIC-authoritative
    // versions (covers the commit-to-apply window).
    if ok {
        for (k, ver) in &checks {
            let seg = st.segment(*k);
            if let Some(current) = st.nic_index.version_of(seg, *k) {
                if current != *ver {
                    ok = false;
                    break;
                }
            }
            if st.nic_index.lock_state(seg, *k).is_held()
                && !st.nic_index.lock_state(seg, *k).held_by(txn)
            {
                ok = false;
                break;
            }
        }
    }
    if !ok {
        // Refused at the door: no context or span was opened, so release
        // what this attempt locked and report the abort.
        unlock_keys(st, txn, writes[..locked].iter().map(|(k, _, _)| k));
        recycle_vec(writes);
        recycle_vec(checks);
        send_pcie(rt, Exec::Host, XMsg::Outcome { slot, committed: false });
        return;
    }
    // Validation passed and all write locks are held: the commit is now
    // only waiting on replication, so this is where the transaction's
    // reads and writes are known-final. (The commit mark itself lands in
    // `conclude` once every Log ack arrives.)
    if let Some(r) = &st.recorder {
        r.note_reads(txn, checks.iter().copied());
        r.note_writes(txn, writes.iter().map(|(k, _, v)| (*k, *v)));
    }
    // The context comes from the pool: the local fast path never runs
    // Execute rounds, so only the fields it uses are filled in after the
    // reset.
    let mut ct = st.alloc_coord(Arc::clone(&st.default_spec), slot);
    ct.phase = Phase::LocalRepl;
    ct.local_locked.extend(writes.iter().map(|(k, _, _)| *k));
    // The local fast path skips Execute/Validate rounds entirely; its
    // replication wait is the transaction's Log phase.
    rt.trace_begin("Log", seq);
    // It replicates to all backups under every backend (its coordinator
    // IS the shard's primary — Raft's term-0 leader — so a leader relay
    // would be a self-send); Hermes appends double as invalidations here
    // exactly like in the remote Log phase.
    let append = backend(st.cfg.replication_backend);
    let shard = st.shard;
    let shared = share(&mut writes);
    append_to_backups(&mut ct.round, &mut ct.pending, rt, &st.part, shard, || {
        append.append(txn, shard, me as u32, Arc::clone(&shared))
    });
    ct.local_writes = shared;
    recycle_vec(writes);
    recycle_vec(checks);
    st.coord.insert(seq, ct);
    appends_sent(st, rt, me, seq);
}

/// Commits a write set at this (primary) node: log append + DMA, cache
/// update + pin, unlock once durable.
fn apply_commit_records(
    st: &mut XenicNode,
    rt: &mut Runtime<XMsg>,
    txn: TxnId,
    writes: SharedWrites,
    unlock: KeySet,
) {
    let shard = st.shard;
    match st.log.append(txn, LogKind::Commit, shard, writes) {
        Ok(lsn) => {
            let XenicNode {
                log,
                nic_index,
                host_table,
                cfg,
                ..
            } = &mut *st;
            let entry = log.get(lsn).expect("record was just appended");
            let segment_of = |k: Key| host_table.segment_of_key(k);
            nic_index.prefetch_keys(entry.writes.iter().map(|(k, _, _)| *k), segment_of);
            for (k, p, ver) in entry.writes.iter() {
                let seg = segment_of(*k);
                if cfg.nic_cache() {
                    // Resolve the new value locally: the primary holds the
                    // current value (cache, else host table — nothing newer
                    // can be pending while we hold the lock).
                    let host = || host_table.get(*k).map(|(value, _)| value);
                    nic_index.commit_payload(seg, *k, p, *ver, host);
                } else {
                    nic_index.commit_write_meta(seg, *k, *ver);
                }
            }
            let entry_bytes = entry.bytes() as u32;
            log_record_durable(
                st,
                rt,
                entry_bytes,
                DmaLogDone {
                    txn,
                    reply_to: None,
                    lsn,
                    unlock,
                },
            );
        }
        Err(LogFull(writes)) => {
            // Commit is past the point of no return: hold the locks and
            // retry after the host drains some ring space.
            rt.send_local(
                Exec::Nic,
                XMsg::from(RetryCommitApply { txn, writes, unlock }),
                COMMIT_RETRY_NS,
            );
        }
    }
}

/// Makes one appended commit-log record durable and schedules its
/// `DmaLogDone` completion. On DMA substrates the record is *shipped*
/// into this replica's host memory over the DMA engine (§4.2 step 5);
/// on the CXL substrate it is written once into the shared pool — no
/// per-replica log shipping, just one posted store's latency
/// (DESIGN.md §17). The per-path counters let sweeps and trend tests
/// assert the trade: `log_ship_writes == 0` on CXL, `cxl_log_writes ==
/// 0` everywhere else.
fn log_record_durable(
    st: &mut XenicNode,
    rt: &mut Runtime<XMsg>,
    entry_bytes: u32,
    done: DmaLogDone,
) {
    if rt.params.ships_log_via_dma() {
        st.stats.log_ship_writes.inc();
        rt.dma_write(entry_bytes, XMsg::from(done));
    } else {
        st.stats.cxl_log_writes.inc();
        let store_ns = rt.params.cxl_log_write_ns();
        rt.send_local(Exec::Nic, XMsg::from(done), store_ns);
    }
}

// =====================================================================
// Server-NIC handlers
// =====================================================================

/// Serves an Execute request — or, with `ship`, the Execute round of a
/// shipped (multi-hop) transaction — at this shard's primary.
fn snic_execute(
    st: &mut XenicNode,
    rt: &mut Runtime<XMsg>,
    exec: Execute,
    ship: Option<Box<ShipCtx>>,
) {
    let Execute {
        txn,
        req,
        reply_to,
        reads,
        locks,
        scans,
    } = exec;
    // Lock phase (§4.2 step 2): all-or-nothing within this request.
    let mut acquired: SmallVec<Key, 4> = SmallVec::new();
    for k in &locks {
        let seg = st.segment(*k);
        if st.nic_index.try_lock(seg, *k, txn) {
            acquired.push(*k);
        } else {
            refuse_exec(st, rt, txn, req, reply_to, ship.is_some(), acquired);
            return;
        }
    }
    // Refuse reads of keys another transaction holds write-locked: its
    // new value is not installed yet, and a single-shard transaction (or
    // a shipped one) skips Validate entirely, so serving the pre-lock
    // version here could commit an unserializable read. DrTM+H's READ
    // verb applies the same lock check.
    for k in &reads {
        let seg = st.segment(*k);
        let lock = st.nic_index.lock_state(seg, *k);
        if lock.is_held() && !lock.held_by(txn) {
            refuse_exec(st, rt, txn, req, reply_to, ship.is_some(), acquired);
            return;
        }
    }
    // Hermes-style backend: reads of a key with an in-flight
    // invalidation refuse until the validation clears it — only valid
    // replicas serve reads. On a healthy primary this never fires
    // (invalid marks only cover keys this node *backs up*), but after
    // recover_shard promotes a backup it is what keeps not-yet-validated
    // writes invisible.
    if reads.iter().any(|k| hermes_invalid(&st.hermes_invalid, *k)) {
        refuse_exec(st, rt, txn, req, reply_to, ship.is_some(), acquired);
        return;
    }
    // Range walks (DESIGN.md §14): the ordered index is NIC-resident and
    // authoritative, so walks resolve synchronously — no DMA wait. The
    // same conservative refusals that guard point reads apply per row:
    // another transaction's pending insert or write lock inside the
    // range, or a row whose only value copy (the host table) lags the
    // committed version, all refuse the request. That atomicity is what
    // lets single-shard scans skip Validate.
    //
    // Each scan resolves as a batch: collect the rows the walk reaches,
    // prefetch their index entries and cached values so the misses
    // overlap, then check the rows in key order. A refusal at a row
    // charges the visits a walk stopped there would have made.
    //
    // Scan rows lead the value stream (the point reads follow); the
    // per-scan summaries delimit and identify them for the coordinator.
    let mut scan_obs = ScanObsSet::new();
    let mut values = pooled_vec();
    if !scans.is_empty() {
        let mut visits_total = 0u64;
        let mut conflict = false;
        let XenicNode {
            nic_index,
            host_table,
            hermes_invalid: marks,
            scan_walk: rows,
            ..
        } = &mut *st;
        for s in &scans {
            let mut count = 0u32;
            let mut fp = SCAN_FP_INIT;
            let mut hi_obs = s.hi;
            let mut visits = nic_index.collect_rows(s.lo, s.hi, Some(txn), s.limit as usize, rows);
            nic_index.prefetch_keys(rows.iter().map(|r| r.key), |k| host_table.segment_of_key(k));
            values.reserve(rows.len());
            for row in rows.iter() {
                let Some((ver, value)) = scan_row_value(nic_index, host_table, marks, txn, row)
                else {
                    conflict = true;
                    visits = row.visits;
                    break;
                };
                values.push((row.key, value, ver));
                count += 1;
                fp = scan_fingerprint(fp, row.key, ver);
                if count >= s.limit {
                    hi_obs = row.key;
                }
            }
            visits_total += visits as u64;
            if conflict {
                break;
            }
            scan_obs.push(ScanObs {
                lo: s.lo,
                count,
                hi_obs,
                fp,
            });
        }
        rt.charge(visits_total * rt.params.nic_scan_visit_ns);
        if rt.trace_enabled() {
            rt.trace_instant("RangeWalk", txn.seq);
        }
        if conflict {
            recycle_vec(values);
            refuse_exec(st, rt, txn, req, reply_to, ship.is_some(), acquired);
            return;
        }
        st.stats.range_walks.add(scans.len() as u64);
        st.stats.scan_rows.add(values.len() as u64);
    }
    if ship.is_some() && !acquired.is_empty() {
        st.ship_locked.insert(txn, acquired.clone());
    }
    // Read phase: NIC cache, else hint-bounded DMA chain. Locked keys
    // resolve *versions only* — their values stay at the primary (delta
    // payloads are applied here at commit).
    let op_id = st.next_op;
    st.next_op += 1;
    let mut lock_versions = pooled_vec();
    let mut lock_only: SmallVec<Key, 4> = SmallVec::new();
    let mut awaiting = 0usize;
    for k in &reads {
        let seg = st.segment(*k);
        let hit = if st.cfg.nic_cache() {
            match st.nic_index.lookup(seg, *k) {
                NicLookup::Hit { value, version, .. } => Some((value, version)),
                NicLookup::Miss { .. } => None,
            }
        } else {
            None
        };
        if let Some((value, version)) = hit {
            st.nic_index.note_version(seg, *k, version);
            values.push((*k, value, version));
        } else {
            awaiting += 1;
            start_lookup_chain(st, rt, op_id, *k);
        }
    }
    for k in &locks {
        if reads.contains(k) {
            continue; // version arrives with the value
        }
        let seg = st.segment(*k);
        if let Some(ver) = st.nic_index.version_of(seg, *k) {
            lock_versions.push((*k, ver));
        } else {
            awaiting += 1;
            lock_only.push(*k);
            start_lookup_chain(st, rt, op_id, *k);
        }
    }
    let op = PendingOp::Exec {
        txn,
        req,
        reply_to,
        shard: st.shard,
        awaiting,
        values,
        lock_versions,
        scan_obs,
        lock_only,
        ship,
        ok: true,
        locked: acquired,
    };
    if awaiting == 0 {
        resolve_exec(st, rt, op);
    } else {
        st.pending.insert(op_id, op);
    }
}

/// Refuses an Execute/ExecShip request: releases any locks this request
/// acquired and answers the coordinator with a failure.
fn refuse_exec(
    st: &mut XenicNode,
    rt: &mut Runtime<XMsg>,
    txn: TxnId,
    req: u64,
    reply_to: u32,
    shipped: bool,
    acquired: SmallVec<Key, 4>,
) {
    unlock_keys(st, txn, &acquired);
    let msg = if shipped {
        st.ship_locked.remove(&txn);
        let msg = XMsg::from(ExecShipResp {
            txn,
            ok: false,
            local_writes: SharedWrites::default(),
        });
        if rt.faults_active() {
            // Cache the refusal: a retransmitted ExecShip must not
            // re-attempt the locks after the coordinator aborted.
            st.ship_resp.insert(txn, (msg.clone(), Vec::new()));
        }
        msg
    } else {
        XMsg::from(ExecuteResp {
            txn,
            req,
            shard: st.shard,
            ok: false,
            values: Vec::new(),
            lock_versions: Vec::new(),
            scan_obs: ScanObsSet::new(),
        })
    };
    send(rt, reply_to as usize, msg);
}

/// Plans a DMA lookup against the host table using the NIC's hints and
/// issues the first chained read.
fn start_lookup_chain(st: &mut XenicNode, rt: &mut Runtime<XMsg>, op_id: u64, key: Key) {
    let seg = st.segment(key);
    let (d_hint, _) = st.nic_index.hint(seg);
    let slack = st.nic_index.slack();
    let trace = st.host_table.dma_lookup(key, d_hint, slack);
    let slot_bytes = st.host_table.slot_bytes();
    let mut rounds: Vec<u32> = trace
        .regions
        .iter()
        .map(|r| r.slots as u32 * slot_bytes)
        .collect();
    if trace.read_overflow {
        rounds.push((trace.overflow_objects.max(1) as u32) * slot_bytes);
    }
    if trace.indirect_bytes > 0 {
        rounds.push(trace.indirect_bytes);
    }
    if rounds.is_empty() {
        rounds.push(slot_bytes);
    }
    let first = rounds.remove(0);
    rt.dma_read(
        first,
        XMsg::from(DmaLookupDone {
            op: op_id,
            key,
            remaining: rounds,
            result: trace.found,
        }),
    );
}

fn snic_dma_lookup_done(st: &mut XenicNode, rt: &mut Runtime<XMsg>, done: DmaLookupDone) {
    let DmaLookupDone {
        op: op_id,
        key,
        mut remaining,
        result,
    } = done;
    if !remaining.is_empty() {
        let next = remaining.remove(0);
        rt.dma_read(
            next,
            XMsg::from(DmaLookupDone {
                op: op_id,
                key,
                remaining,
                result,
            }),
        );
        return;
    }
    let seg = st.segment(key);
    let cache_enabled = st.cfg.nic_cache();
    let Some(op) = st.pending.get_mut(&op_id) else {
        return;
    };
    match op {
        PendingOp::Exec {
            awaiting,
            values,
            lock_versions,
            lock_only,
            ok,
            ..
        } => {
            let (value, version) = result
                .clone()
                .unwrap_or_else(|| (Value::empty(), 0));
            // The DMA result was planned against the host table, which
            // lags NIC-authoritative state by the commit-to-apply
            // window. If the NIC meanwhile knows a different version,
            // the fetched copy is stale: refuse the request rather than
            // serve a read that (on a single-shard or shipped path)
            // Validate would never re-check.
            let known = st.nic_index.version_of(seg, key);
            if known.is_some_and(|cur| cur != version) {
                *ok = false;
            }
            if lock_only.contains(&key) {
                lock_versions.push((key, version));
            } else {
                values.push((key, value.clone(), version));
            }
            *awaiting -= 1;
            let done = *awaiting == 0;
            // Install in the cache and note the version for Validate —
            // but never regress metadata a newer commit installed while
            // this DMA was in flight.
            if known.is_none_or(|cur| cur <= version) {
                if cache_enabled && result.is_some() {
                    st.nic_index.install(seg, key, value, version);
                } else {
                    st.nic_index.note_version(seg, key, version);
                }
            }
            if done {
                let op = st.pending.remove(&op_id).expect("present");
                resolve_exec(st, rt, op);
            }
        }
        PendingOp::Val { awaiting, ok, .. } => {
            // The fetched version must match what Execute observed; the
            // expected version was checked synchronously, so here we only
            // confirm the key is still at that version — encoded by the
            // caller storing expected-vs-fetched equality in `ok` lazily.
            // We conservatively re-check below in snic_validate's issuing
            // logic; a missing result fails validation.
            if result.is_none() {
                *ok = false;
            }
            *awaiting -= 1;
            if *awaiting == 0 {
                let op = st.pending.remove(&op_id).expect("present");
                if let PendingOp::Val {
                    txn,
                    req,
                    reply_to,
                    shard,
                    ok,
                    ..
                } = op
                {
                    let resp = XMsg::ValidateResp { txn, req, shard, ok };
                    send(rt, reply_to as usize, resp);
                }
            }
        }
    }
}

/// Finishes an Execute: ordinary requests answer the coordinator;
/// shipped requests run execution logic and fan out Log requests
/// (§4.2.3, Figure 7b).
fn resolve_exec(st: &mut XenicNode, rt: &mut Runtime<XMsg>, op: PendingOp) {
    let PendingOp::Exec {
        txn,
        req,
        reply_to,
        shard,
        values,
        lock_versions,
        scan_obs,
        ship,
        ok,
        locked,
        ..
    } = op
    else {
        unreachable!("resolve_exec on Val op");
    };
    if !ok {
        // A DMA-resolved read raced a concurrent commit (stale against
        // NIC metadata): refuse exactly as if the lock phase had failed.
        recycle_vec(values);
        recycle_vec(lock_versions);
        refuse_exec(st, rt, txn, req, reply_to, ship.is_some(), locked);
        return;
    }
    match ship {
        None => {
            let resp = ExecuteResp {
                txn,
                req,
                shard,
                ok: true,
                values,
                lock_versions,
                scan_obs,
            };
            send(rt, reply_to as usize, resp.into());
        }
        Some(ctx) => {
            // Execute the whole transaction here at the remote primary.
            let ShipCtx { spec, mut local_vals } = *ctx;
            rt.charge(spec.exec_nic_ns);
            let mut all_vals = values;
            all_vals.append(&mut local_vals);
            recycle_vec(local_vals);
            let mut writes = pooled_vec();
            compute_writes(&spec, &all_vals, &lock_versions, &mut writes);
            // Note the shipped transaction's reads and full write set
            // now: every commit ack the coordinator can collect passes
            // through messages sent after this point, so the notes are
            // always on record before the commit mark.
            if let Some(r) = &st.recorder {
                r.note_reads(txn, all_vals.iter().map(|(k, _, v)| (*k, *v)));
                r.note_reads(txn, lock_versions.iter().copied());
                r.note_writes(txn, writes.iter().map(|(k, _, v)| (*k, *v)));
            }
            let coord_shard = reply_to;
            let mut split = |shard: u32| {
                let group = &mut st.write_group;
                group.extend(writes.extract_if(.., |(k, _, _)| shard_of(*k) == shard));
                share(group)
            };
            let mine = split(st.shard);
            let local_writes = split(coord_shard);
            recycle_vec(writes);
            recycle_vec(all_vals);
            recycle_vec(lock_versions);
            // Fan out Log requests for both shards, acks direct to the
            // coordinator (the multi-hop pattern). Under faults the
            // outcome is remembered so a retransmitted ExecShip replays
            // it instead of re-executing.
            let fa = rt.faults_active();
            let mut fanout: Vec<(usize, XMsg)> = Vec::new();
            for (shard, writes) in [(st.shard, &mine), (coord_shard, &local_writes)] {
                if writes.is_empty() {
                    continue;
                }
                for b in st.part.backups(shard) {
                    let msg = XMsg::from(LogReq {
                        txn,
                        shard,
                        reply_to,
                        writes: Arc::clone(writes),
                    });
                    if fa {
                        fanout.push((b, msg.clone()));
                    }
                    send(rt, b, msg);
                }
            }
            if !mine.is_empty() {
                st.ship_staged.insert(txn, mine);
            }
            let msg = XMsg::from(ExecShipResp {
                txn,
                ok: true,
                local_writes,
            });
            if fa {
                st.ship_resp.insert(txn, (msg.clone(), fanout));
            }
            send(rt, reply_to as usize, msg);
        }
    }
}

fn snic_validate(st: &mut XenicNode, rt: &mut Runtime<XMsg>, validate: Validate) {
    let Validate {
        txn,
        req,
        reply_to,
        checks,
        scan_checks,
    } = validate;
    let mut ok = true;
    let mut dma_fetch: Vec<Key> = Vec::new();
    // CXL substrate (DESIGN.md §17): the lock and version words verified
    // below live in the shared pool, so Validate pays one cross-node
    // coherence fence per word before reading it. On non-CXL substrates
    // `coherence_ns()` is zero.
    let coherence_ns = rt.params.coherence_ns();
    // TEST ONLY (`Weakening`): the seeded bugs empty the check sets
    // server-side, which keeps the message flow (and thus the schedule)
    // identical to a correct run. `Validation` skips the whole re-check
    // loop, `PredicateLocks` the predicate re-walk, `CxlCoherence` the
    // pool re-check and its fence charge — on CXL only.
    let (checks, scan_checks) = match st.cfg.weaken {
        Some(Weakening::Validation) => (CheckSet::new(), scan_checks),
        Some(Weakening::CxlCoherence) if coherence_ns > 0 => (CheckSet::new(), scan_checks),
        Some(Weakening::PredicateLocks) => (checks, ScanCheckSet::new()),
        _ => (checks, scan_checks),
    };
    if coherence_ns > 0 && !checks.is_empty() {
        rt.charge(coherence_ns * checks.len() as u64);
    }
    // Predicate re-walk (DESIGN.md §14): replay each scan over
    // `[lo, hi_obs]` and require the identical (key, version) sequence.
    // A key inserted into the range since Execute — committed (version
    // change breaks the fingerprint), still pending (sentinel), or
    // merely write-locked — fails the transaction, which is exactly the
    // guarantee next-key locking provides in a lock-based design.
    if ok && !scan_checks.is_empty() {
        let mut visits_total = 0u64;
        let XenicNode {
            nic_index,
            host_table,
            ..
        } = &*st;
        for sc in &scan_checks {
            let mut count = 0u32;
            let mut fp = SCAN_FP_INIT;
            let mut clean = true;
            let visits = nic_index.range_walk(sc.lo, sc.hi_obs, Some(txn), &mut |k, v| {
                let Some(ver) = v else {
                    clean = false;
                    return false;
                };
                let seg = host_table.segment_of_key(k);
                let lock = nic_index.lock_state(seg, k);
                if lock.is_held() && !lock.held_by(txn) {
                    clean = false;
                    return false;
                }
                count += 1;
                fp = scan_fingerprint(fp, k, ver);
                true
            });
            visits_total += visits as u64;
            if !clean || count != sc.count || fp != sc.fp {
                ok = false;
                break;
            }
        }
        rt.charge(visits_total * rt.params.nic_scan_visit_ns);
        if rt.trace_enabled() {
            rt.trace_instant("RangeRecheck", txn.seq);
        }
    }
    for (k, expected) in &checks {
        let seg = st.segment(*k);
        let lock = st.nic_index.lock_state(seg, *k);
        if lock.is_held() && !lock.held_by(txn) {
            ok = false;
            break;
        }
        match st.nic_index.version_of(seg, *k) {
            Some(current) => {
                if current != *expected {
                    ok = false;
                    break;
                }
            }
            None => {
                // Metadata evicted: fall back to a DMA version fetch. The
                // host-table version is read at plan time; equality is
                // checked here.
                match st.host_table.get(*k) {
                    Some((_, current)) if current == *expected => dma_fetch.push(*k),
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
        }
    }
    if !ok || dma_fetch.is_empty() {
        let shard = st.shard;
        send(rt, reply_to as usize, XMsg::ValidateResp { txn, req, shard, ok });
        return;
    }
    // Pay the DMA latency for the fallback fetches before answering.
    let op_id = st.next_op;
    st.next_op += 1;
    let awaiting = dma_fetch.len();
    st.pending.insert(
        op_id,
        PendingOp::Val {
            txn,
            req,
            reply_to,
            shard: st.shard,
            awaiting,
            ok: true,
        },
    );
    for k in dma_fetch {
        start_lookup_chain(st, rt, op_id, k);
    }
}

/// Appends a backup log record (`retry`: re-attempting an append that
/// found the ring full, so the in-flight marker is this attempt's own).
pub(crate) fn snic_log(st: &mut XenicNode, rt: &mut Runtime<XMsg>, log: LogReq, retry: bool) {
    let LogReq {
        txn,
        shard,
        reply_to,
        writes,
    } = log;
    let fa = rt.faults_active();
    if fa && !retry {
        // Appending the same record twice would double-apply delta writes
        // at this backup. Ack retransmitted LogReqs from the log instead.
        match st.backup_log_acked.get(&(txn, shard)) {
            Some(true) => {
                let from = st.shard;
                send(rt, reply_to as usize, XMsg::LogResp { txn, from, shard, ok: true });
                return;
            }
            // Append (or its DMA) still in flight: the pending completion
            // will ack.
            Some(false) => return,
            None => {}
        }
    }
    match st.log.append(txn, LogKind::Backup, shard, writes) {
        Ok(lsn) => {
            if fa {
                st.backup_log_acked.insert((txn, shard), false);
            }
            let entry_bytes = st.log.get(lsn).map(|e| e.bytes()).unwrap_or(64) as u32;
            log_record_durable(
                st,
                rt,
                entry_bytes,
                DmaLogDone {
                    txn,
                    reply_to: Some(reply_to),
                    lsn,
                    unlock: KeySet::new(),
                },
            );
        }
        Err(LogFull(writes)) => {
            // Backpressure: the ring is full until the host drains it.
            // Retry the append after a few worker poll periods. Refusing
            // would be unsound: a sibling backup that *did* log would
            // apply writes for a transaction the coordinator then aborts.
            if fa {
                // Mark in-flight so a retransmitted LogReq arriving during
                // the retry window cannot race a second append.
                st.backup_log_acked.insert((txn, shard), false);
            }
            rt.send_local(
                Exec::Nic,
                XMsg::RetryBackupLog(MsgBox::new(LogReq {
                    txn,
                    shard,
                    reply_to,
                    writes,
                })),
                COMMIT_RETRY_NS,
            );
        }
    }
}

fn snic_commit(st: &mut XenicNode, rt: &mut Runtime<XMsg>, commit: CommitReq) {
    let CommitReq { txn, shard, writes } = commit;
    if rt.faults_active() {
        // The coordinator retransmits CommitReq until acked; commit is past
        // the point of no return once processed, so ack immediately and
        // drop duplicates (re-applying delta writes would corrupt state).
        let dup = !st.commit_seen.insert(txn);
        let from = st.shard;
        send(rt, txn.node as usize, XMsg::CommitAck { txn, shard, from });
        if dup {
            return;
        }
    }
    // A slim CommitReq means the writes were staged by a shipped
    // execution.
    let writes = if writes.is_empty() {
        st.ship_staged.remove(&txn).unwrap_or_default()
    } else {
        writes
    };
    // A shipped execution locked its read-set keys too; release the ones
    // that are not covered by the commit DMA's unlock list.
    if let Some(mut locked) = st.ship_locked.remove(&txn) {
        locked.retain(|k| !writes.iter().any(|(wk, _, _)| wk == k));
        unlock_keys(st, txn, &locked);
    }
    if writes.is_empty() {
        return;
    }
    let unlock: KeySet = writes.iter().map(|(k, _, _)| *k).collect();
    apply_commit_records(st, rt, txn, writes, unlock);
}

/// Releases the locks a refused or timed-out transaction left at this
/// primary. `send_abort` addresses one shard per (non-empty) AbortReq
/// and, under faults, retransmits until this ack.
fn snic_abort(st: &mut XenicNode, rt: &mut Runtime<XMsg>, abort: AbortReq) {
    let AbortReq { txn, unlock } = abort;
    unlock_keys(st, txn, &unlock);
    if let Some(shard) = unlock.first().map(|k| shard_of(*k)).filter(|_| rt.faults_active()) {
        let from = st.shard;
        send(rt, txn.node as usize, XMsg::CommitAck { txn, shard, from });
    }
}

/// Serves an ExecShip: lock every key of this shard and execute the
/// whole transaction here (§4.2.3).
fn snic_exec_ship(st: &mut XenicNode, rt: &mut Runtime<XMsg>, ship: ExecShip) {
    let ExecShip {
        txn,
        reply_to,
        spec,
        local_vals,
    } = ship;
    // A retransmitted ExecShip replays the cached outcome — re-executing
    // could re-lock keys the commit already released, or double-log at
    // the backups.
    if rt.faults_active() {
        if let Some((resp, fanout)) = st.ship_resp.get(&txn).cloned() {
            for (dst, msg) in fanout {
                send(rt, dst, msg);
            }
            send(rt, reply_to as usize, resp);
            return;
        }
    }
    let reads: KeySet = spec
        .reads
        .iter()
        .copied()
        .filter(|k| shard_of(*k) == st.shard)
        .collect();
    // Shipped executions lock read keys too (validation-free).
    let locks: KeySet = spec
        .all_keys()
        .filter(|k| shard_of(*k) == st.shard)
        .collect();
    // Multi-hop shipping is gated on `!spec.has_scans()` at the
    // coordinator, so shipped executions never carry range predicates.
    debug_assert!(!spec.has_scans());
    let exec = Execute {
        txn,
        req: 0,
        reply_to,
        reads,
        locks,
        scans: ScanSet::new(),
    };
    snic_execute(st, rt, exec, Some(Box::new(ShipCtx { spec, local_vals })));
}

fn snic_dma_log_done(st: &mut XenicNode, rt: &mut Runtime<XMsg>, done: DmaLogDone) {
    let DmaLogDone {
        txn,
        reply_to,
        lsn,
        unlock,
    } = done;
    // Locks release only once the commit record is durable (§4.2 step 6).
    unlock_keys(st, txn, &unlock);
    if let Some(r) = reply_to {
        // A node backs up several shards; recover the logged shard so the
        // coordinator can match this ack against the right LogReq.
        let entry_shard = st.log.get(lsn).map(|e| e.shard).unwrap_or(st.shard);
        if rt.faults_active() {
            if let Some(acked) = st.backup_log_acked.get_mut(&(txn, entry_shard)) {
                *acked = true;
            }
        }
        let (from, shard) = (st.shard, entry_shard);
        send(rt, r as usize, XMsg::LogResp { txn, from, shard, ok: true });
    }
    // Hand the durable record to a host worker (§4.2 step 7).
    rt.send_local(Exec::Host, XMsg::ApplyLog { lsn }, WORKER_POLL_NS);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{make_key, ShipMode, UpdateOp};
    use xenic_net::{Cluster, FaultPlan, NetConfig};
    use xenic_sim::{DetRng, SimTime};

    type Replica = FastMap<Key, (Value, Version)>;
    type Gaps = FastMap<Key, Vec<(WritePayload, Version)>>;

    fn ctr(v: i64) -> Value {
        Value::from_bytes(&v.to_le_bytes())
    }

    /// Delivers `records` (one log record's write set each) to a backup
    /// replica through the batched entry point, and to a second one key
    /// by key; after every record both must hold the same values,
    /// versions and buffered gaps. Returns the batched replica's state.
    fn backup_both_ways(records: &[WriteSet]) -> (Replica, Gaps) {
        let (mut map, mut gaps) = (Replica::default(), Gaps::default());
        let (mut map_k, mut gaps_k) = (Replica::default(), Gaps::default());
        for (i, writes) in records.iter().enumerate() {
            backup_apply_all(&mut map, &mut gaps, writes);
            for (k, p, ver) in writes {
                backup_apply(&mut map_k, &mut gaps_k, *k, p, *ver);
            }
            assert_eq!(map, map_k, "replica after record {i}");
            assert_eq!(gaps, gaps_k, "gaps after record {i}");
        }
        (map, gaps)
    }

    #[test]
    fn backup_apply_installs_in_order() {
        let (map, gaps) = backup_both_ways(&[
            vec![
                (1, WritePayload::Full(ctr(10)), 1),
                (2, WritePayload::Full(ctr(7)), 1),
            ],
            vec![
                (1, WritePayload::AddI64(3), 2),
                (2, WritePayload::Mutate, 2),
            ],
            vec![(1, WritePayload::AddI64(-1), 3)],
        ]);
        assert_eq!(map[&1], (ctr(12), 3));
        assert_eq!(map[&2], (ctr(8), 2), "Mutate bumps the first byte");
        assert!(gaps.is_empty());
    }

    #[test]
    fn backup_apply_drops_duplicates() {
        let (map, gaps) = backup_both_ways(&[
            vec![(1, WritePayload::Full(ctr(10)), 1)],
            vec![(1, WritePayload::AddI64(5), 2)],
            // A retransmitted record, and an older one arriving late.
            vec![
                (1, WritePayload::AddI64(5), 2),
                (1, WritePayload::Full(ctr(99)), 1),
            ],
        ]);
        assert_eq!(map[&1], (ctr(15), 2));
        assert!(gaps.is_empty());
    }

    #[test]
    fn backup_apply_gives_an_absent_key_the_payload_alone() {
        let (map, _) = backup_both_ways(&[vec![
            (1, WritePayload::AddI64(-4), 1),
            (2, WritePayload::Mutate, 1),
            (3, WritePayload::Full(ctr(6)), 1),
        ]]);
        assert_eq!(map[&1], (ctr(-4), 1));
        assert_eq!(map[&2], (Value::from_bytes(&[]), 1));
        assert_eq!(map[&3], (ctr(6), 1));
    }

    /// The Raft laggard case: a newer transaction's append overtakes an
    /// older one. Versions past the gap wait, a re-sent one is buffered
    /// once, and the record that closes the gap drains them in version
    /// order — a `Full` between two deltas makes any other order visible.
    #[test]
    fn backup_apply_buffers_a_gap_then_drains_it_in_order() {
        let mut records = vec![
            vec![(1, WritePayload::Full(ctr(1)), 1)],
            vec![
                (1, WritePayload::AddI64(4), 4),
                (9, WritePayload::AddI64(2), 2),
            ],
            vec![(1, WritePayload::Full(ctr(100)), 3)],
            vec![(1, WritePayload::Full(ctr(100)), 3)],
        ];
        let (map, gaps) = backup_both_ways(&records);
        assert_eq!(map[&1], (ctr(1), 1), "nothing past the gap applies");
        assert!(!map.contains_key(&9), "an absent key waits for version 1");
        assert_eq!(gaps[&1].len(), 2, "the re-sent version is buffered once");
        records.push(vec![
            (1, WritePayload::AddI64(2), 2),
            (9, WritePayload::Full(ctr(5)), 1),
        ]);
        let (map, gaps) = backup_both_ways(&records);
        assert_eq!(map[&1], (ctr(104), 4), "2, then Full 100, then +4");
        assert_eq!(map[&9], (ctr(7), 2));
        assert!(gaps.is_empty(), "a drained key leaves no buffer behind");
    }

    fn resp(req: u64) -> XMsg {
        XMsg::ValidateResp {
            txn: TxnId::new(0, 1),
            req,
            shard: 0,
            ok: true,
        }
    }

    /// A round with one request to node 1 per id, registered in `reqs` order.
    fn round_of(reqs: &[u64]) -> Round {
        let mut round = Round::default();
        for &r in reqs {
            round.track(Awaits::Req(r), 1, resp(r));
        }
        round
    }

    #[test]
    fn duplicated_response_is_counted_once() {
        let mut round = round_of(&[7, 8]);
        assert!(round.heard(Awaits::Req(7)));
        assert!(!round.heard(Awaits::Req(7)), "a duplicate must not count again");
        assert!(!round.settled());
        assert!(round.heard(Awaits::Req(8)));
        assert!(round.settled());
    }

    #[test]
    fn response_for_unknown_key_is_ignored() {
        let mut round = round_of(&[7]);
        assert!(!round.heard(Awaits::Req(9)));
        assert!(!round.heard(Awaits::Ack { from: 1, shard: 0 }));
        assert!(!round.heard(Awaits::Shipped));
        assert!(!round.settled(), "nothing this round asked for was heard");
        // Reliable fabric: nothing is tracked, so nothing is ever "heard".
        assert!(!Round::default().heard(Awaits::Req(7)));
    }

    /// Probe protocol: a `CommitTick` makes a node retransmit its round's
    /// unheard sends; every arriving `ValidateResp` is logged by id.
    struct Probe;
    #[derive(Default)]
    struct ProbeNode {
        round: Round,
        got: Vec<u64>,
    }
    impl Protocol for Probe {
        type Msg = XMsg;
        type State = ProbeNode;
        fn cost(_: &XMsg, _: Exec, _: &HwParams) -> u64 {
            10
        }
        fn handle(st: &mut ProbeNode, rt: &mut Runtime<XMsg>, _node: usize, msg: XMsg) {
            match msg {
                XMsg::CommitTick { seq, .. } => st.round.retransmit(rt, seq, |e| !e.heard),
                XMsg::ValidateResp { req, .. } => st.got.push(req),
                _ => {}
            }
        }
    }

    #[test]
    fn retransmit_resends_in_registration_order_and_skips_heard() {
        let mut cluster: Cluster<Probe> =
            Cluster::new(HwParams::paper_testbed(), NetConfig::full(), 1, |_| ProbeNode::default());
        // Registration order is not id order, and one was already heard.
        cluster.states[0].round = round_of(&[5, 3, 9, 4]);
        assert!(cluster.states[0].round.heard(Awaits::Req(9)));
        let tick = XMsg::CommitTick { seq: 1, attempt: 0 };
        cluster.seed(SimTime::ZERO, 0, Exec::Nic, tick.clone());
        cluster.run_until(SimTime::from_ms(1));
        assert_eq!(cluster.states[1].got, [5, 3, 4]);
        // Tracked sends stay tracked until heard: the next timer resends
        // exactly what is still outstanding.
        assert!(cluster.states[0].round.heard(Awaits::Req(5)));
        cluster.seed(SimTime::from_ms(1), 0, Exec::Nic, tick);
        cluster.run_until(SimTime::from_ms(2));
        assert_eq!(cluster.states[1].got, [5, 3, 4, 3, 4]);
    }

    /// Rotates through specs that between them reach every exit: two-shard
    /// write contention (standard path), multi-shard reads (Validate),
    /// one hot remote key (direct ship), a local key plus a remote one
    /// (MhLocal, then ship), and one hot local key (local fast path).
    struct EveryExit(u64);
    impl Workload for EveryExit {
        fn next_txn(&mut self, node: usize, _rng: &mut DetRng) -> TxnSpec {
            self.0 += 1;
            let bump = |k| (k, UpdateOp::AddI64(1));
            let (me, next) = (node as u32, (node as u32 + 1) % 6);
            let (reads, updates, ship) = match self.0 % 5 {
                0 => (vec![], vec![bump(make_key(0, 7)), bump(make_key(1, 9))], ShipMode::Host),
                1 => (vec![make_key(0, 7), make_key(1, 9)], vec![], ShipMode::Host),
                2 => (vec![], vec![bump(make_key(next, 7))], ShipMode::Nic),
                3 => (vec![make_key(me, 3)], vec![bump(make_key(next, 7))], ShipMode::Nic),
                _ => (vec![], vec![bump(make_key(me, 7))], ShipMode::Nic),
            };
            TxnSpec {
                reads,
                updates,
                ship,
                ..Default::default()
            }
        }
        fn value_bytes(&self) -> u32 {
            16
        }
        fn preload(&self, shard: u32) -> Vec<(Key, Value)> {
            (0..16)
                .map(|i| (make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes())))
                .collect()
        }
    }

    fn every_exit_cluster(net: NetConfig, windows: u32) -> Cluster<Xenic> {
        let part = Partitioning::new(6, 3);
        let mut cluster: Cluster<Xenic> = Cluster::new(HwParams::paper_testbed(), net, 5, |node| {
            let wl = Box::new(EveryExit(node as u64));
            XenicNode::new(node, XenicConfig::full(), part, wl, windows as usize)
        });
        for node in 0..6 {
            for slot in 0..windows {
                let at = SimTime::from_ns(u64::from(slot) * 97);
                cluster.seed(at, node, Exec::Host, XMsg::StartTxn { slot });
            }
        }
        cluster
    }

    #[test]
    fn stale_epoch_timer_is_inert() {
        // Jitter alone makes faults "active" (sends are tracked, timers
        // armed) while every message still arrives. No slot is started.
        let net = NetConfig::full().with_faults(FaultPlan::lossy(0.0, 0.0, 1));
        let mut cluster = every_exit_cluster(net, 0);
        // A transaction parked in Exec at epoch 3, one request outstanding.
        let mut ct = CoordTxn::new(Arc::new(TxnSpec::default()), 0);
        (ct.epoch, ct.pending) = (3, 1);
        ct.round.track(Awaits::Req(1), 1, resp(1));
        cluster.states[0].coord.insert(9, ct);

        cluster.seed(SimTime::ZERO, 0, Exec::Nic, XMsg::PhaseTimeout { seq: 9, epoch: 2 });
        cluster.run_until(SimTime::from_ns(10_000));
        let attempts = |c: &Cluster<Xenic>| c.states[0].coord[&9].attempts;
        assert_eq!((attempts(&cluster), cluster.rt.net_msgs_sent(0)), (0, 0), "stale timer acted");

        let live = XMsg::PhaseTimeout { seq: 9, epoch: 3 };
        cluster.seed(SimTime::from_ns(10_000), 0, Exec::Nic, live);
        cluster.run_until(SimTime::from_ns(20_000));
        assert_eq!((attempts(&cluster), cluster.rt.net_msgs_sent(0)), (1, 1), "live timer resends");
    }

    #[test]
    fn every_exit_leaves_no_context_behind() {
        // Once on a reliable fabric, once under loss and duplication
        // (timeouts, retransmission, post-outcome ack tracking).
        let lossy = NetConfig::full().with_faults(FaultPlan::lossy(0.01, 0.01, 2_000));
        for net in [NetConfig::full(), lossy] {
            let faults = net.faults.active();
            let mut cluster = every_exit_cluster(net, 4);
            for st in &mut cluster.states {
                st.stats.start_measuring(SimTime::ZERO);
            }
            cluster.run_until(SimTime::from_ms(3));
            crate::harness::drain(&mut cluster, SimTime::from_ms(100));
            let (mut committed, mut aborted, mut multihop, mut local) = (0, 0, 0, 0);
            for (node, st) in cluster.states.iter().enumerate() {
                assert!(st.coord.is_empty(), "faults={faults}: node {node} kept a context");
                assert!(st.committing.is_empty(), "faults={faults}: node {node} awaits acks");
                committed += st.stats.committed_all.get();
                aborted += st.stats.aborted.get();
                multihop += st.stats.multihop.get();
                local += st.stats.local_fast_path.get();
            }
            assert!(committed > 500 && aborted > 50, "faults={faults}: {committed}/{aborted}");
            assert!(multihop > 100 && local > 100, "faults={faults}: {multihop}/{local}");
            crate::audit::no_locks_held(&cluster.states).expect("no lock outlives its txn");
        }
    }
}
