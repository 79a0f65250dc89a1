//! The baseline protocol engine: one OCC skeleton, four RDMA op mappings.
//!
//! Coordinator logic runs on **host** cores (these systems have no
//! SmartNIC). One-sided verbs are answered by a zero-cost responder
//! context standing in for the remote RDMA NIC's DMA engine (see
//! `xenic_net::Runtime::rdma_request`); two-sided RPCs consume remote
//! host CPU.
//!
//! A coordinator transaction steps through its system's phase sequence,
//! held as data (`BaselineKind::phases`): `advance` enters each phase,
//! which does its local work and sends its requests; `settle` folds each
//! completion in and advances once the phase has heard them all; every
//! transaction leaves through one exit, `conclude(Verdict)`, where locks
//! are released and the outcome is reported (DESIGN.md §8, note 10).
//! The closed loop (slots, retries, accounting, drain) is the shared
//! `xenic::client::Client` (DESIGN.md §8, note 11).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use xenic_hw::rdma::Verb;
use xenic_hw::HwParams;
use xenic_net::{Exec, Protocol, Runtime};
use xenic_store::chained::ChainedTable;
use xenic_store::{Key, TxnId, Value, Version};

use xenic::api::{
    scan_fingerprint, shard_of, Partitioning, ScanSpec, TxnSpec, Workload, SCAN_FP_INIT,
};
use xenic::client::{Client, SlotMsg};
use xenic::engine::Verdict;
use xenic::stats::NodeStats;
use xenic_check::HistoryRecorder;

/// One scan re-check as it rides a FaSST Validate: `(lo, hi_obs,
/// count, fp)` — the summary the Execute walk returned.
type ScanCheckTuple = (Key, Key, u32, u64);

/// A successful walk: matched rows, observed upper bound, row count,
/// and the `(key, version)` fingerprint.
type ScanWalkOut = (Vec<(Key, Value, Version)>, Key, u32, u64);

/// Which baseline system this node runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineKind {
    /// DrTM+H: hybrid one-sided/two-sided with a location cache.
    DrtmH,
    /// DrTM+H NC: no location cache — RDMA hash-table traversal.
    DrtmHNc,
    /// FaSST: two-sided RPCs only, consolidated per-shard operations.
    Fasst,
    /// DrTM+R: one-sided only, locks **all** keys, no validation phase.
    DrtmR,
}

impl BaselineKind {
    /// All four, in the paper's legend order.
    pub const ALL: [BaselineKind; 4] = [
        BaselineKind::DrtmH,
        BaselineKind::DrtmHNc,
        BaselineKind::Fasst,
        BaselineKind::DrtmR,
    ];

    /// Short lowercase token (replay tokens).
    pub fn token(self) -> &'static str {
        match self {
            BaselineKind::DrtmH => "drtmh",
            BaselineKind::DrtmHNc => "drtmh-nc",
            BaselineKind::Fasst => "fasst",
            BaselineKind::DrtmR => "drtmr",
        }
    }

    /// True if the system speaks the scan protocol: only FaSST's
    /// two-sided RPCs can walk a range; the one-sided systems refuse.
    pub fn scans(self) -> bool {
        self == BaselineKind::Fasst
    }

    /// True if execution reads use the coordinator location cache.
    pub fn location_cache(&self) -> bool {
        matches!(self, BaselineKind::DrtmH | BaselineKind::DrtmR)
    }

    /// True if the read set is locked as well (DrTM+R's lock-all).
    pub fn lock_all(&self) -> bool {
        matches!(self, BaselineKind::DrtmR)
    }

    /// The coordinator's phase sequence: the one place the four systems'
    /// op mappings differ in shape. The one-sided systems read, lock and
    /// validate in separate roundtrips (the restriction §5.7's baseline
    /// mimics: "separate requests to read, lock, and validate objects");
    /// DrTM+R locks everything first, so it has no validation; FaSST
    /// consolidates execution into one RPC per shard.
    fn phases(self) -> &'static [Phase] {
        use Phase::*;
        match self {
            BaselineKind::DrtmH | BaselineKind::DrtmHNc => &[Read, Lock, Validate, Log],
            BaselineKind::DrtmR => &[Lock, Read, Log],
            BaselineKind::Fasst => &[ExecRpc, Validate, Log],
        }
    }
}

impl SlotMsg for BMsg {
    fn start(slot: u32) -> Self {
        BMsg::Start { slot }
    }
    fn retry(slot: u32) -> Self {
        BMsg::Retry { slot }
    }
}

/// Messages of the baseline engine.
#[derive(Clone, Debug)]
pub enum BMsg {
    /// An app-thread slot starts a transaction.
    Start {
        /// Slot index.
        slot: u32,
    },
    /// Backoff expired; retry.
    Retry {
        /// Slot index.
        slot: u32,
    },

    // ---- One-sided responder ops (zero-cost, RDMA NIC context) ----
    /// READ of an object (location-cached: exact; NC: bucket walk with
    /// `hops_left` further roundtrips driven by the coordinator).
    ReadReq {
        /// Transaction.
        txn: TxnId,
        /// Key to read.
        key: Key,
        /// Requesting node.
        from: u32,
        /// Validation read (version check only)?
        validate: Option<Version>,
        /// Chain hop number (NC traversal; 0 = the home bucket).
        hop: usize,
    },
    /// READ response.
    ReadResp {
        /// Transaction.
        txn: TxnId,
        /// Key.
        key: Key,
        /// Value and version if found.
        result: Option<(Value, Version)>,
        /// Whether the object's lock word was set.
        locked: bool,
        /// Validation verdict (for validate reads).
        validate_ok: Option<bool>,
        /// Remaining chain hops the coordinator must still fetch (NC).
        hops_left: usize,
        /// The hop this response answers.
        hop: usize,
    },
    /// Compare-and-swap on a lock word.
    CasReq {
        /// Transaction.
        txn: TxnId,
        /// Key to lock.
        key: Key,
        /// Requesting node.
        from: u32,
        /// Version the coordinator read during Execute; the CAS fails if
        /// the object moved past it (None = lock without version guard,
        /// DrTM+R's lock-then-read).
        expected: Option<Version>,
    },
    /// CAS response.
    CasResp {
        /// Transaction.
        txn: TxnId,
        /// Key.
        key: Key,
        /// True if the lock was acquired.
        won: bool,
    },
    /// One-sided WRITE applying a committed value and clearing the lock
    /// (DrTM+R commit).
    CommitWriteReq {
        /// Transaction.
        txn: TxnId,
        /// Key, value, version.
        write: (Key, Value, Version),
        /// Requesting node.
        from: u32,
    },
    /// Commit-write completion: charged as a polled completion, with no
    /// further coordinator work (the outcome was reported at the log
    /// point, as in the Xenic engine).
    CommitWriteResp {
        /// Transaction.
        txn: TxnId,
    },
    /// One-sided WRITE of a backup log record: ack completion.
    LogWriteDone {
        /// Transaction.
        txn: TxnId,
    },
    /// One-sided WRITE clearing a lock (abort path).
    UnlockReq {
        /// Transaction.
        txn: TxnId,
        /// Key to unlock.
        key: Key,
    },

    // ---- Two-sided RPCs (remote host CPU) ----
    /// FaSST consolidated execute: lock write keys + read values.
    RpcExec {
        /// Transaction.
        txn: TxnId,
        /// Requesting node.
        from: u32,
        /// Keys to read.
        reads: Vec<Key>,
        /// Keys to lock.
        locks: Vec<Key>,
        /// Range predicates to walk on this shard's ordered mirror.
        scans: Vec<ScanSpec>,
    },
    /// Execute RPC response.
    RpcExecResp {
        /// Transaction.
        txn: TxnId,
        /// Success (all locks acquired).
        ok: bool,
        /// Values read (point reads first, then scan rows).
        values: Vec<(Key, Value, Version)>,
        /// Per-scan observations: (lo, observed hi, row count, fingerprint).
        scan_obs: Vec<ScanCheckTuple>,
    },
    /// Validation RPC.
    RpcValidate {
        /// Transaction.
        txn: TxnId,
        /// Requesting node.
        from: u32,
        /// Version checks.
        checks: Vec<(Key, Version)>,
        /// Range re-checks: (lo, observed hi, expected count, expected
        /// fingerprint) — the phantom defence for FaSST scans.
        scan_checks: Vec<ScanCheckTuple>,
    },
    /// Validation response.
    RpcValidateResp {
        /// Transaction.
        txn: TxnId,
        /// Verdict.
        ok: bool,
    },
    /// Backup-log RPC.
    RpcLog {
        /// Transaction.
        txn: TxnId,
        /// Requesting node.
        from: u32,
        /// Write set bytes (records only; content applied at commit).
        bytes: u32,
    },
    /// Log ack.
    RpcLogResp {
        /// Transaction.
        txn: TxnId,
    },
    /// Commit RPC, unacknowledged: apply writes at the primary, clear
    /// locks. With empty writes this is an abort/unlock RPC for the listed
    /// keys.
    RpcCommit {
        /// Transaction.
        txn: TxnId,
        /// Writes to apply.
        writes: Vec<(Key, Value, Version)>,
        /// Extra keys to unlock (abort path).
        unlock: Vec<Key>,
    },
}

/// A coordinator phase: one step of [`BaselineKind::phases`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Execution reads: a local table read, or one READ per remote key.
    Read,
    /// Lock the write set (DrTM+R: every key): a local lock word, or one
    /// CAS per remote key.
    Lock,
    /// FaSST's consolidated execute: one RPC per shard locks its write
    /// keys, reads its keys and walks its scans.
    ExecRpc,
    /// Re-check the read set's versions (and FaSST's scans): locally, or
    /// by READ (one per key) or RPC (one per shard).
    Validate,
    /// Backup log writes: one-sided WRITEs, or FaSST's log RPCs.
    Log,
}

impl Phase {
    /// True on the execute side; writes are computed once on leaving it.
    fn executes(self) -> bool {
        matches!(self, Phase::Read | Phase::Lock | Phase::ExecRpc)
    }
}

/// In-flight coordinator transaction.
struct Coord {
    spec: Arc<TxnSpec>,
    /// The app-thread slot it runs on.
    slot: u32,
    /// Index of the next phase in [`BaselineKind::phases`].
    step: usize,
    /// Completions the current phase still awaits.
    pending: usize,
    ok: bool,
    values: Vec<(Key, Value, Version)>,
    writes: Vec<(Key, Value, Version)>,
    /// Keys whose lock words the transaction may hold (FaSST: every write
    /// key, locked inside the execute RPCs); released by owner check.
    locked: Vec<Key>,
    /// Scan observations gathered during Execute.
    scan_obs: Vec<ScanCheckTuple>,
}

/// Per-node baseline state.
pub struct BaselineNode {
    /// System variant.
    pub kind: BaselineKind,
    /// Placement.
    pub part: Partitioning,
    /// Own shard.
    pub shard: u32,
    /// Primary data: DrTM+H's chained-bucket table (shared structure for
    /// all four systems, per §5.1's common framework).
    pub table: ChainedTable,
    /// Lock words (host memory; CAS target).
    pub locks: HashMap<Key, TxnId>,
    /// Ordered mirror of this shard's keys → committed versions, plus
    /// version-0 sentinels for in-flight inserts. The chained hash table
    /// has no key order, so FaSST's scan RPCs walk this instead (real
    /// FaSST keeps a B-tree beside the hash index for the same reason).
    pub ordered: BTreeMap<Key, Version>,
    /// Owners of the version-0 sentinels (next-key lock information).
    pending_inserts: HashMap<Key, TxnId>,
    /// The closed-loop client: workload, application slots, retries.
    pub client: Client,
    /// Stats.
    pub stats: NodeStats,
    coord: HashMap<u64, Coord>,
    /// Optional commit-history recorder (serializability checking).
    recorder: Option<HistoryRecorder>,
}

impl BaselineNode {
    /// Builds a node and preloads its shard.
    pub fn new(
        node: usize,
        kind: BaselineKind,
        part: Partitioning,
        workload: Box<dyn Workload>,
        app_threads: usize,
    ) -> Self {
        let shard = node as u32;
        let data = workload.preload(shard);
        // Bucket width 8, sized for ~65% main-bucket occupancy.
        let buckets = (data.len() / 8 * 100 / 65).max(64);
        let mut table = ChainedTable::new(buckets, 8, workload.value_bytes());
        let mut ordered = BTreeMap::new();
        for (k, v) in &data {
            table.insert(*k, v.clone());
        }
        for (k, _) in &data {
            if let Some((_, ver)) = table.get(*k) {
                ordered.insert(*k, ver);
            }
        }
        BaselineNode {
            kind,
            part,
            shard,
            table,
            locks: HashMap::new(),
            ordered,
            pending_inserts: HashMap::new(),
            client: Client::new(workload, app_threads),
            stats: NodeStats::default(),
            coord: HashMap::new(),
            recorder: None,
        }
    }

    /// Attaches a history recorder; committed transactions report their
    /// read and write sets to it. Pure observer: never alters execution.
    pub fn set_recorder(&mut self, recorder: HistoryRecorder) {
        self.recorder = Some(recorder);
    }

    /// Visits the committed rows in key order: the ordered mirror,
    /// skipping version-0 insert sentinels.
    pub(crate) fn visit_rows(&self, visit: &mut dyn FnMut(Key, &Value, Version)) {
        for (&k, &ver) in self.ordered.iter().filter(|(_, ver)| **ver != 0) {
            let (v, tver) = self.table.get(k).expect("mirrored key present");
            debug_assert_eq!(tver, ver, "ordered mirror out of sync");
            visit(k, v, ver);
        }
    }

    /// What a drained node still holds that only an unfinished
    /// transaction may hold — lock words, insert sentinels, live
    /// coordinator contexts — or `None` when it holds nothing.
    pub(crate) fn residue(&self) -> Option<String> {
        let sentinels = self.ordered.values().filter(|ver| **ver == 0).count();
        if self.locks.is_empty() && sentinels == 0 && self.coord.is_empty() {
            return None;
        }
        let mut locks: Vec<_> = self.locks.iter().map(|(k, t)| (*k, *t)).collect();
        locks.sort_unstable();
        Some(format!(
            "{} lock word(s) held {:?}, {sentinels} insert sentinel(s), {} live coordinator \
             context(s)",
            locks.len(),
            &locks[..locks.len().min(4)],
            self.coord.len()
        ))
    }

    /// True if `k` is at version `expected` and not locked by another
    /// transaction: one read-set check, wherever it runs.
    fn check(&self, txn: TxnId, k: Key, expected: Version) -> bool {
        let unlocked = self.locks.get(&k).is_none_or(|owner| *owner == txn);
        unlocked && self.table.get(k).map(|(_, v)| v) == Some(expected)
    }

    /// Releases `txn`'s lock word on `k` and its insert sentinel, if any.
    fn release(&mut self, txn: TxnId, k: Key) {
        if self.locks.get(&k) == Some(&txn) {
            self.locks.remove(&k);
        }
        if self.pending_inserts.get(&k) == Some(&txn) {
            self.pending_inserts.remove(&k);
            self.ordered.remove(&k);
        }
    }

    /// Installs a committed write at this primary — table, then ordered
    /// mirror — and releases `txn`'s lock on it.
    fn install(&mut self, txn: TxnId, (k, v, ver): (Key, Value, Version)) {
        self.table.insert(k, v.clone());
        self.table.update(k, v, ver);
        self.pending_inserts.remove(&k);
        self.ordered.insert(k, ver);
        self.release(txn, k);
    }

    /// Walks `lo..=hi` for `txn`, up to `limit` rows. Returns the rows,
    /// observed upper bound, count and fingerprint — or `None` if the
    /// range contains another transaction's pending insert or lock.
    fn scan_walk(&self, txn: TxnId, lo: Key, hi: Key, limit: u32) -> Option<ScanWalkOut> {
        let mut rows = Vec::new();
        let mut fp = SCAN_FP_INIT;
        let mut count = 0u32;
        let mut hi_obs = hi;
        for (&k, &ver) in self.ordered.range(lo..=hi) {
            if self.pending_inserts.get(&k) == Some(&txn) {
                continue; // the transaction's own in-flight insert
            }
            if ver == 0 {
                return None; // another transaction's pending insert
            }
            if self.locks.get(&k).is_some_and(|o| *o != txn) {
                return None; // row locked by another transaction
            }
            let (v, tver) = self.table.get(k)?;
            debug_assert_eq!(tver, ver, "ordered mirror out of sync");
            rows.push((k, v.clone(), ver));
            count += 1;
            fp = scan_fingerprint(fp, k, ver);
            if count >= limit {
                hi_obs = k;
                break;
            }
        }
        Some((rows, hi_obs, count, fp))
    }

    /// Re-walks validated ranges in order, charging each walk, until one
    /// no longer matches (a count or fingerprint change means a phantom
    /// slipped in). True if all matched.
    fn recheck_scans<'a>(
        &self,
        rt: &mut Runtime<BMsg>,
        txn: TxnId,
        scans: impl IntoIterator<Item = &'a ScanCheckTuple>,
    ) -> bool {
        scans.into_iter().all(|&(lo, hi_obs, count, fp)| {
            let (mut c, mut f, mut visited) = (0u32, SCAN_FP_INIT, 0u64);
            let mut good = true;
            for (&k, &ver) in self.ordered.range(lo..=hi_obs) {
                visited += 1;
                if self.pending_inserts.get(&k) == Some(&txn) {
                    continue;
                }
                if ver == 0 || self.locks.get(&k).is_some_and(|o| *o != txn) {
                    good = false;
                    break;
                }
                c += 1;
                f = scan_fingerprint(f, k, ver);
            }
            rt.charge(100 * (visited + 1));
            good && c == count && f == fp
        })
    }
}

/// The baseline protocol marker.
pub struct Baseline;

impl Protocol for Baseline {
    type Msg = BMsg;
    type State = BaselineNode;

    fn cost(msg: &BMsg, exec: Exec, p: &HwParams) -> u64 {
        match exec {
            // One-sided responder context: the RDMA NIC, not a CPU.
            Exec::Nic => 0,
            Exec::Host => match msg {
                BMsg::Start { .. } | BMsg::Retry { .. } => p.host_app_handle_ns,
                // Completion-queue polling per one-sided completion.
                BMsg::ReadResp { .. }
                | BMsg::CasResp { .. }
                | BMsg::CommitWriteResp { .. }
                | BMsg::LogWriteDone { .. } => 120,
                // RPC handlers burn host CPU (§3.3).
                BMsg::RpcExec {
                    reads,
                    locks,
                    scans,
                    ..
                } => {
                    // Full store operations per key at the handler:
                    // lookup, lock word, value marshalling — for TPC-C
                    // sized objects this dwarfs the bare echo cost, which
                    // is why FaSST's host threads become the bottleneck
                    // (§5.2: "limits FaSST's throughput ... even when
                    // utilizing all host threads"). Scans additionally
                    // charge per visited row inside the handler.
                    p.host_rpc_handle_ns
                        + 900 * (reads.len() + locks.len()) as u64
                        + 600 * scans.len() as u64
                }
                BMsg::RpcValidate {
                    checks,
                    scan_checks,
                    ..
                } => {
                    p.host_rpc_handle_ns
                        + 150 * checks.len() as u64
                        + 400 * scan_checks.len() as u64
                }
                BMsg::RpcLog { bytes, .. } => p.host_rpc_handle_ns + u64::from(*bytes) / 8,
                BMsg::RpcCommit { writes, .. } => p.host_rpc_handle_ns + 300 * writes.len() as u64,
                BMsg::RpcExecResp { values, .. } => 150 + 20 * values.len() as u64,
                BMsg::RpcValidateResp { .. } | BMsg::RpcLogResp { .. } => 150,
                _ => 100,
            },
        }
    }

    fn handle(st: &mut BaselineNode, rt: &mut Runtime<BMsg>, me: usize, msg: BMsg) {
        match msg {
            BMsg::Start { slot } => start_txn(st, rt, me, slot, false),
            BMsg::Retry { slot } => start_txn(st, rt, me, slot, true),

            // ---- Responder side (zero-cost RDMA NIC context) ----
            BMsg::ReadReq {
                txn,
                key,
                from,
                validate,
                hop,
            } => {
                let locked = st.locks.get(&key).is_some_and(|owner| *owner != txn);
                let (result, total_hops) = if st.kind.location_cache() || validate.is_some() {
                    (st.table.get(key).map(|(v, ver)| (v.clone(), ver)), 1)
                } else {
                    let tr = st.table.remote_lookup(key);
                    (tr.found, tr.roundtrips)
                };
                // NC traversal: each bucket hop is its own READ roundtrip;
                // the value only comes back on the final hop.
                let last = hop + 1 >= total_hops;
                let hops_left = total_hops.saturating_sub(hop + 1);
                let (result, bytes) = if last {
                    let b = result.as_ref().map(|(v, _)| v.len() as u32).unwrap_or(8);
                    (result, b)
                } else {
                    (None, st.table.slot_bytes() * st.table.bucket_width() as u32)
                };
                let validate_ok = validate.map(|expected| st.check(txn, key, expected));
                let resp = BMsg::ReadResp {
                    txn,
                    key,
                    result,
                    locked,
                    validate_ok,
                    hops_left,
                    hop,
                };
                rt.rdma_response(from as usize, Verb::Read { bytes: bytes + 24 }, resp);
            }
            BMsg::CasReq {
                txn,
                key,
                from,
                expected,
            } => {
                let version_ok = match expected {
                    None => true,
                    Some(v) => st.table.get(key).map(|(_, ver)| ver).unwrap_or(0) == v,
                };
                let won = version_ok
                    && match st.locks.get(&key) {
                        None => {
                            st.locks.insert(key, txn);
                            true
                        }
                        Some(owner) => *owner == txn,
                    };
                rt.rdma_response(from as usize, Verb::Atomic, BMsg::CasResp { txn, key, won });
            }
            BMsg::CommitWriteReq { txn, write, from } => {
                st.install(txn, write);
                let done = BMsg::CommitWriteResp { txn };
                rt.rdma_response(from as usize, Verb::Write { bytes: 0 }, done);
            }
            BMsg::UnlockReq { txn, key } => st.release(txn, key),
            BMsg::CommitWriteResp { .. } => {}

            // ---- RPC handlers (remote host CPU) ----
            BMsg::RpcExec {
                txn,
                from,
                reads,
                locks,
                scans,
            } => {
                let mut acquired = Vec::new();
                let mut ok = locks.iter().all(|&k| match st.locks.get(&k) {
                    None => {
                        // An insert (absent key) leaves a version-0
                        // sentinel so concurrent scans of the range
                        // refuse — next-key locking.
                        if st.table.get(k).is_none() {
                            st.ordered.entry(k).or_insert(0);
                            st.pending_inserts.insert(k, txn);
                        }
                        st.locks.insert(k, txn);
                        acquired.push(k);
                        true
                    }
                    Some(owner) => *owner == txn,
                });
                // Range walks run after the locks so the transaction's own
                // insert sentinels exist (and are skipped) — mirroring the
                // Xenic NIC walk's visibility rules.
                let mut scan_obs = Vec::new();
                let mut scan_rows = Vec::new();
                for s in &scans {
                    let walk = if ok {
                        st.scan_walk(txn, s.lo, s.hi, s.limit)
                    } else {
                        None
                    };
                    let Some((rows, hi_obs, count, fp)) = walk else {
                        ok = false;
                        break;
                    };
                    rt.charge(150 * (rows.len() as u64 + 1));
                    scan_rows.extend(rows);
                    scan_obs.push((s.lo, hi_obs, count, fp));
                }
                let values: Vec<(Key, Value, Version)> = if ok {
                    // A locked insert key that already exists surfaces its
                    // current version, so the coordinator's re-insert
                    // installs version+1 rather than regressing to 1 (a
                    // version regression breaks every later OCC check on
                    // the key).
                    let lock_only = locks.iter().filter(|k| !reads.contains(k));
                    reads
                        .iter()
                        .chain(lock_only)
                        .filter_map(|k| st.table.get(*k).map(|(v, ver)| (*k, v.clone(), ver)))
                        .chain(scan_rows)
                        .collect()
                } else {
                    for k in acquired {
                        st.release(txn, k);
                    }
                    scan_obs.clear();
                    Vec::new()
                };
                let payload = 16
                    + 28 * scan_obs.len() as u32
                    + values
                        .iter()
                        .map(|(_, v, _)| 16 + v.len() as u32)
                        .sum::<u32>();
                let resp = BMsg::RpcExecResp {
                    txn,
                    ok,
                    values,
                    scan_obs,
                };
                rt.rdma_send(from as usize, resp, payload, true);
            }
            BMsg::RpcValidate {
                txn,
                from,
                checks,
                scan_checks,
            } => {
                let ok = checks
                    .iter()
                    .all(|(k, expected)| st.check(txn, *k, *expected))
                    && st.recheck_scans(rt, txn, &scan_checks);
                rt.rdma_send(from as usize, BMsg::RpcValidateResp { txn, ok }, 16, true);
            }
            BMsg::RpcLog { txn, from, .. } => {
                rt.rdma_send(from as usize, BMsg::RpcLogResp { txn }, 16, true);
            }
            BMsg::RpcCommit {
                txn,
                writes,
                unlock,
            } => {
                for w in writes {
                    st.install(txn, w);
                }
                for k in unlock {
                    st.release(txn, k);
                }
            }

            // ---- Coordinator completions ----
            resp => heard(st, rt, me, resp),
        }
    }
}

// =====================================================================
// Coordinator logic (host)
// =====================================================================

fn start_txn(st: &mut BaselineNode, rt: &mut Runtime<BMsg>, me: usize, slot: u32, retry: bool) {
    let Some((seq, spec)) = st.client.begin(rt, me, slot, retry) else {
        return;
    };
    debug_assert!(
        spec.single_round(),
        "multi-shot transactions are a Xenic engine capability; the \
         published baselines have no equivalent (chop the transaction \
         instead, as the paper does for TPC-C)"
    );
    debug_assert!(
        spec.scans.is_empty() || st.kind.scans(),
        "range scans are implemented only for the FaSST baseline: a \
         two-sided RPC can walk the primary's ordered index, but the \
         one-sided mappings have no remote compute to serve a range"
    );
    rt.charge(spec.local_work_ns); // unshippable local work (B+trees etc.)
    let coord = Coord {
        spec,
        slot,
        step: 0,
        pending: 0,
        ok: true,
        values: Vec::new(),
        writes: Vec::new(),
        locked: Vec::new(),
        scan_obs: Vec::new(),
    };
    advance(st, rt, me, seq, coord);
}

/// Steps `ct` through its kind's phases: each phase does its local work
/// and sends its requests; one that awaits completions parks the
/// transaction until [`settle`] hears the last. A refusal anywhere, or
/// the end of the sequence, leaves through [`conclude`].
fn advance(st: &mut BaselineNode, rt: &mut Runtime<BMsg>, me: usize, seq: u64, mut ct: Coord) {
    let txn = TxnId::new(me as u32, seq);
    let phases = st.kind.phases();
    loop {
        if !ct.ok {
            return conclude(st, rt, me, txn, ct, Verdict::Abort);
        }
        let Some(&phase) = phases.get(ct.step) else {
            return conclude(st, rt, me, txn, ct, Verdict::Commit);
        };
        // Leaving the execute side: the write set is computed once.
        if !phase.executes() && phases[..ct.step].last().is_some_and(|p| p.executes()) {
            rt.charge(ct.spec.exec_host_ns);
            ct.writes = compute_writes(&ct.spec, &ct.values);
        }
        ct.step += 1;
        ct.pending = issue(st, rt, me, txn, &mut ct, phase);
        if ct.pending > 0 {
            st.coord.insert(seq, ct);
            return;
        }
    }
}

/// Folds one completion into its transaction — `fold` only if it
/// succeeded — and advances the transaction once its phase has heard
/// every completion.
fn settle(
    st: &mut BaselineNode,
    rt: &mut Runtime<BMsg>,
    me: usize,
    txn: TxnId,
    ok: bool,
    fold: impl FnOnce(&mut Coord),
) {
    let Some(ct) = st.coord.get_mut(&txn.seq) else {
        return;
    };
    if ok {
        fold(ct);
    }
    ct.ok &= ok;
    ct.pending -= 1;
    if ct.pending == 0 {
        let ct = st.coord.remove(&txn.seq).expect("live transaction");
        advance(st, rt, me, txn.seq, ct);
    }
}

/// A completion at the coordinator.
fn heard(st: &mut BaselineNode, rt: &mut Runtime<BMsg>, me: usize, msg: BMsg) {
    match msg {
        // NC: chase the chain with another READ; this completion is
        // replaced by the next hop's.
        BMsg::ReadResp {
            txn,
            key,
            hops_left,
            hop,
            ..
        } if hops_left > 0 => read(st, rt, me, txn, key, None, hop + 1),
        BMsg::ReadResp {
            txn,
            validate_ok: Some(ok),
            ..
        }
        | BMsg::RpcValidateResp { txn, ok } => settle(st, rt, me, txn, ok, |_| {}),
        BMsg::ReadResp {
            txn,
            key,
            result,
            locked,
            ..
        } => {
            // DrTM+R reads under its own locks; the others treat a locked
            // object as a conflict.
            let ok = !locked || st.kind == BaselineKind::DrtmR;
            settle(st, rt, me, txn, ok, |ct| {
                ct.values.extend(result.map(|(v, ver)| (key, v, ver)))
            })
        }
        BMsg::CasResp { txn, key, won } => settle(st, rt, me, txn, won, |ct| ct.locked.push(key)),
        BMsg::RpcExecResp {
            txn,
            ok,
            values,
            scan_obs,
        } => settle(st, rt, me, txn, ok, |ct| {
            ct.values.extend(values);
            ct.scan_obs.extend(scan_obs);
        }),
        BMsg::LogWriteDone { txn } | BMsg::RpcLogResp { txn } => {
            settle(st, rt, me, txn, true, |_| {})
        }
        other => unreachable!("not a coordinator completion: {other:?}"),
    }
}

/// Enters `phase`: its local work, then its requests. Returns the number
/// of completions it awaits. Each site keeps its own send/charge order —
/// the timing of a send is the handler's charged work before it.
fn issue(
    st: &mut BaselineNode,
    rt: &mut Runtime<BMsg>,
    me: usize,
    txn: TxnId,
    ct: &mut Coord,
    phase: Phase,
) -> usize {
    let spec = Arc::clone(&ct.spec);
    let home = st.shard;
    let mut remote = 0;
    match phase {
        Phase::Read => {
            for k in spec.reads.iter().chain(spec.updates.iter().map(|(k, _)| k)) {
                if shard_of(*k) == home {
                    rt.charge(60);
                    if let Some((v, ver)) = st.table.get(*k) {
                        ct.values.push((*k, v.clone(), ver));
                    }
                } else {
                    remote += 1;
                    read(st, rt, me, txn, *k, None, 0);
                }
            }
        }
        Phase::Lock => {
            // DrTM+R locks every key unguarded and sends each CAS as it
            // goes; DrTM+H guards each write-key lock with the version it
            // read and sends every CAS after all local locks.
            let guarded = !st.kind.lock_all();
            let keys: Vec<Key> = if guarded {
                spec.write_keys().collect()
            } else {
                spec.all_keys().collect()
            };
            let mut deferred = Vec::new();
            for k in keys {
                let expected = guarded.then(|| version_of(&ct.values, k).unwrap_or(0));
                if shard_of(k) == home {
                    rt.charge(40);
                    let version = st.table.get(k).map(|(_, v)| v).unwrap_or(0);
                    match st.locks.get(&k) {
                        None if expected.is_none_or(|e| e == version) => {
                            st.locks.insert(k, txn);
                            ct.locked.push(k);
                        }
                        Some(owner) if *owner == txn => {}
                        _ => ct.ok = false,
                    }
                } else if guarded {
                    deferred.push((k, expected));
                } else {
                    remote += 1;
                    cas(st, rt, me, txn, k, None);
                }
            }
            remote += deferred.len();
            for (k, expected) in deferred {
                cas(st, rt, me, txn, k, expected);
            }
        }
        Phase::ExecRpc => {
            let reads = spec.reads.iter().chain(spec.updates.iter().map(|(k, _)| k));
            let mut reads = by_shard(reads.copied(), |k| shard_of(*k));
            let mut locks = by_shard(spec.write_keys(), |k| shard_of(*k));
            let mut scans = by_shard(spec.scans.iter().copied(), ScanSpec::shard);
            // The RPCs lock every write key they can; abort releases them
            // all by owner check.
            ct.locked = spec.write_keys().collect();
            for shard in spec.shards() {
                let reads = reads.remove(&shard).unwrap_or_default();
                let locks = locks.remove(&shard).unwrap_or_default();
                let scans = scans.remove(&shard).unwrap_or_default();
                let payload =
                    24 + 12 * (reads.len() + locks.len()) as u32 + 20 * scans.len() as u32;
                let from = me as u32;
                let msg = BMsg::RpcExec {
                    txn,
                    from,
                    reads,
                    locks,
                    scans,
                };
                remote += 1;
                rt.rdma_send(st.part.primary(shard), msg, payload, true);
            }
        }
        Phase::Validate => {
            let checks: Vec<(Key, Version)> = spec
                .reads
                .iter()
                .filter_map(|k| version_of(&ct.values, *k).map(|v| (*k, v)))
                .collect();
            let (local, remote_checks): (Vec<_>, Vec<_>) =
                checks.into_iter().partition(|(k, _)| shard_of(*k) == home);
            let points_ok = local
                .iter()
                .all(|(k, expected)| st.check(txn, *k, *expected));
            // Home-shard range re-walks are immediate too (the mirror
            // lives here), and run whatever the point checks found.
            let (local, remote_scans): (Vec<_>, Vec<_>) = ct
                .scan_obs
                .iter()
                .partition(|(lo, ..)| shard_of(*lo) == home);
            if !(st.recheck_scans(rt, txn, local) && points_ok) {
                ct.ok = false;
                return 0;
            }
            if st.kind != BaselineKind::Fasst {
                // One READ per read-set key (DrTM+H validation).
                for (k, expected) in remote_checks {
                    remote += 1;
                    read(st, rt, me, txn, k, Some(expected), 0);
                }
                return remote;
            }
            let mut checks = by_shard(remote_checks, |(k, _)| shard_of(*k));
            let mut scans = by_shard(remote_scans.into_iter().copied(), |(lo, ..)| shard_of(*lo));
            let shards: BTreeSet<u32> = checks.keys().chain(scans.keys()).copied().collect();
            for shard in shards {
                let checks = checks.remove(&shard).unwrap_or_default();
                let scan_checks = scans.remove(&shard).unwrap_or_default();
                let payload = 24 + 16 * checks.len() as u32 + 28 * scan_checks.len() as u32;
                let from = me as u32;
                let msg = BMsg::RpcValidate {
                    txn,
                    from,
                    checks,
                    scan_checks,
                };
                remote += 1;
                rt.rdma_send(st.part.primary(shard), msg, payload, true);
            }
        }
        Phase::Log => {
            let mut sends: Vec<(usize, u32)> = by_shard(&ct.writes, |(k, ..)| shard_of(*k))
                .into_iter()
                .flat_map(|(shard, writes)| {
                    let bytes = writes
                        .iter()
                        .map(|(_, v, _)| 24 + v.len() as u32)
                        .sum::<u32>();
                    st.part.backups(shard).map(move |b| (b, bytes))
                })
                .collect();
            sends.sort_unstable();
            for &(backup, bytes) in &sends {
                if st.kind == BaselineKind::Fasst {
                    let msg = BMsg::RpcLog {
                        txn,
                        from: me as u32,
                        bytes,
                    };
                    rt.rdma_send(backup, msg, bytes + 24, true);
                } else {
                    // One-sided WRITE of the log record (DrTM+H, DrTM+R,
                    // like FaRM): no remote CPU, ack on completion.
                    let verb = Verb::Write { bytes: bytes + 24 };
                    rt.rdma_one_sided(backup, verb, BMsg::LogWriteDone { txn }, true);
                }
            }
            remote = sends.len();
        }
    }
    remote
}

/// One READ of `key` at its primary: hop `hop` of an execution read, or
/// (with `validate`) a version check.
fn read(
    st: &BaselineNode,
    rt: &mut Runtime<BMsg>,
    me: usize,
    txn: TxnId,
    key: Key,
    validate: Option<Version>,
    hop: usize,
) {
    let bytes = match (validate, hop) {
        (Some(_), _) => 16,
        (None, 0) => st.table.slot_bytes(),
        (None, _) => st.table.slot_bytes() * st.table.bucket_width() as u32,
    };
    let msg = BMsg::ReadReq {
        txn,
        key,
        from: me as u32,
        validate,
        hop,
    };
    rt.rdma_request(
        st.part.primary(shard_of(key)),
        Verb::Read { bytes },
        msg,
        true,
    );
}

/// One CAS on `key`'s lock word at its primary.
fn cas(
    st: &BaselineNode,
    rt: &mut Runtime<BMsg>,
    me: usize,
    txn: TxnId,
    key: Key,
    expected: Option<Version>,
) {
    let msg = BMsg::CasReq {
        txn,
        key,
        from: me as u32,
        expected,
    };
    rt.rdma_request(st.part.primary(shard_of(key)), Verb::Atomic, msg, true);
}

/// The one exit. A commit reports the outcome and turns the slot over,
/// then installs the writes (home shard directly; remote by one-sided
/// WRITE per key on DrTM+R, else one commit RPC per shard) and releases
/// the locks it holds but does not write (DrTM+R's read locks). An abort
/// releases every lock it may hold, then backs off and retries.
fn conclude(
    st: &mut BaselineNode,
    rt: &mut Runtime<BMsg>,
    me: usize,
    txn: TxnId,
    ct: Coord,
    verdict: Verdict,
) {
    if verdict == Verdict::Abort {
        unlock(st, rt, txn, &ct.locked);
        st.client.abort(&mut st.stats, rt, ct.slot);
        return;
    }
    if let Some(r) = &st.recorder {
        r.note_reads(txn, ct.values.iter().map(|(k, _, ver)| (*k, *ver)));
        r.note_writes(txn, ct.writes.iter().map(|(k, _, ver)| (*k, *ver)));
        r.note_scans(txn, ct.scan_obs.iter().map(|(lo, hi, _, _)| (*lo, *hi)));
        r.commit(txn);
    }
    st.client.count_commit(&mut st.stats, ct.slot, rt.now());
    st.client.turn_over(rt, ct.slot);
    let read_locks: Vec<Key> = ct
        .locked
        .iter()
        .copied()
        .filter(|k| !ct.writes.iter().any(|(w, ..)| w == k))
        .collect();
    for (shard, writes) in by_shard(ct.writes, |(k, ..)| shard_of(*k)) {
        let primary = st.part.primary(shard);
        if shard == st.shard {
            rt.charge(100 * writes.len() as u64);
            for w in writes {
                st.install(txn, w);
            }
        } else if st.kind == BaselineKind::DrtmR {
            // One-sided value WRITE per key; the write also clears the
            // lock word (value+lock in one cacheline-adjacent write).
            for write in writes {
                let verb = Verb::Write {
                    bytes: write.1.len() as u32 + 24,
                };
                let from = me as u32;
                rt.rdma_request(
                    primary,
                    verb,
                    BMsg::CommitWriteReq { txn, write, from },
                    true,
                );
            }
        } else {
            let payload = 24
                + writes
                    .iter()
                    .map(|(_, v, _)| 16 + v.len() as u32)
                    .sum::<u32>();
            let msg = BMsg::RpcCommit {
                txn,
                writes,
                unlock: Vec::new(),
            };
            rt.rdma_send(primary, msg, payload, true);
        }
    }
    unlock(st, rt, txn, &read_locks);
}

/// Releases `keys`: a home key's lock word directly, a remote one by
/// one-sided WRITE per key, or (FaSST) one unlock RPC per shard.
fn unlock(st: &mut BaselineNode, rt: &mut Runtime<BMsg>, txn: TxnId, keys: &[Key]) {
    if st.kind == BaselineKind::Fasst {
        for (shard, keys) in by_shard(keys.iter().copied(), |k| shard_of(*k)) {
            if shard == st.shard {
                keys.into_iter().for_each(|k| st.release(txn, k));
            } else {
                let msg = BMsg::RpcCommit {
                    txn,
                    writes: Vec::new(),
                    unlock: keys,
                };
                rt.rdma_send(st.part.primary(shard), msg, 24, true);
            }
        }
        return;
    }
    for &key in keys {
        if shard_of(key) == st.shard {
            st.release(txn, key);
        } else {
            let msg = BMsg::UnlockReq { txn, key };
            rt.rdma_request(
                st.part.primary(shard_of(key)),
                Verb::Write { bytes: 8 },
                msg,
                true,
            );
        }
    }
}

/// Groups `items` by shard: shards ascending, each group in input order —
/// the one order every per-shard fan-out sends in.
fn by_shard<T>(
    items: impl IntoIterator<Item = T>,
    shard: impl Fn(&T) -> u32,
) -> BTreeMap<u32, Vec<T>> {
    let mut groups: BTreeMap<u32, Vec<T>> = BTreeMap::new();
    for item in items {
        groups.entry(shard(&item)).or_default().push(item);
    }
    groups
}

/// The version the transaction read `k` at, if it read it.
fn version_of(values: &[(Key, Value, Version)], k: Key) -> Option<Version> {
    values
        .iter()
        .find(|(key, ..)| *key == k)
        .map(|(.., ver)| *ver)
}

/// Shared write computation (same semantics as the Xenic engine).
fn compute_writes(spec: &TxnSpec, values: &[(Key, Value, Version)]) -> Vec<(Key, Value, Version)> {
    let lookup = |k: Key| -> (Value, Version) {
        values
            .iter()
            .find(|(key, _, _)| *key == k)
            .map(|(_, v, ver)| (v.clone(), *ver))
            .unwrap_or_else(|| (Value::filled(8, 0), 0))
    };
    let mut out = Vec::with_capacity(spec.updates.len() + spec.inserts.len());
    for (k, op) in &spec.updates {
        let (old, ver) = lookup(*k);
        out.push((*k, op.apply(&old), ver + 1));
    }
    for (k, v) in &spec.inserts {
        let (_, ver) = lookup(*k);
        out.push((*k, v.clone(), ver + 1));
    }
    out
}
