//! The baseline protocol engine: one OCC skeleton, four RDMA op mappings.
//!
//! Coordinator logic runs on **host** cores (these systems have no
//! SmartNIC). One-sided verbs are answered by a zero-cost responder
//! context standing in for the remote RDMA NIC's DMA engine (see
//! `xenic_net::Runtime::rdma_request`); two-sided RPCs consume remote
//! host CPU.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use xenic_hw::rdma::Verb;
use xenic_hw::HwParams;
use xenic_net::{Exec, Protocol, Runtime};
use xenic_sim::SimTime;
use xenic_store::chained::ChainedTable;
use xenic_store::{Key, TxnId, Value, Version};

use xenic::api::{
    scan_fingerprint, shard_of, Partitioning, ScanSpec, TxnSpec, Workload, SCAN_FP_INIT,
};
use xenic::stats::NodeStats;
use xenic_check::HistoryRecorder;

/// One scan re-check as it rides a FaSST Validate: `(lo, hi_obs,
/// count, fp)` — the summary the Execute walk returned.
type ScanCheckTuple = (Key, Key, u32, u64);

/// Per-shard Validate payload: item version checks + scan re-checks.
type ValidatePayload = (Vec<(Key, Version)>, Vec<ScanCheckTuple>);

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
    /// Commit-write ack.
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
        scan_obs: Vec<(Key, Key, u32, u64)>,
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
        scan_checks: Vec<(Key, Key, u32, u64)>,
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
    /// Commit RPC: apply writes at the primary, clear locks. With empty
    /// writes this is an abort/unlock RPC for the listed keys.
    RpcCommit {
        /// Transaction.
        txn: TxnId,
        /// Requesting node (for the ack).
        from: u32,
        /// Writes to apply.
        writes: Vec<(Key, Value, Version)>,
        /// Extra keys to unlock (abort path).
        unlock: Vec<Key>,
        /// Whether an ack is required.
        ack: bool,
    },
    /// Commit ack.
    RpcCommitResp {
        /// Transaction.
        txn: TxnId,
    },
}

/// Coordinator phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Execution reads in flight.
    Exec,
    /// Lock CASes in flight (one-sided systems; a separate, sequential
    /// roundtrip after the reads — the restriction §5.7's baseline
    /// mimics: "separate requests to read, lock, and validate objects").
    Lock,
    /// Validation reads in flight.
    Validate,
    /// Backup log writes in flight.
    Log,
}

/// In-flight coordinator transaction.
struct Coord {
    spec: Arc<TxnSpec>,
    phase: Phase,
    pending: usize,
    ok: bool,
    values: Vec<(Key, Value, Version)>,
    writes: Vec<(Key, Value, Version)>,
    locked: Vec<Key>,
    /// Scan observations gathered during Execute: (lo, hi_obs, count, fp).
    scan_obs: Vec<(Key, Key, u32, u64)>,
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
    /// Workload generator.
    pub workload: Box<dyn Workload>,
    /// App-thread slots.
    pub slots: Vec<Option<Arc<TxnSpec>>>,
    /// First-attempt start time per slot.
    pub slot_started: Vec<SimTime>,
    /// Stats.
    pub stats: NodeStats,
    next_seq: u64,
    coord: HashMap<u64, Coord>,
    host_txns: HashMap<u64, u32>,
    /// Backup log bytes received (for utilization accounting only).
    pub log_bytes: u64,
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
            workload,
            slots: vec![None; app_threads],
            slot_started: vec![SimTime::ZERO; app_threads],
            stats: NodeStats::default(),
            next_seq: 1,
            coord: HashMap::new(),
            host_txns: HashMap::new(),
            log_bytes: 0,
            recorder: None,
        }
    }

    /// Attaches a history recorder; committed transactions report their
    /// read and write sets to it. Pure observer: never alters execution.
    pub fn set_recorder(&mut self, recorder: HistoryRecorder) {
        self.recorder = Some(recorder);
    }

    // ---- Ordered-mirror maintenance (FaSST scan support) ----

    /// Registers a freshly acquired lock in the mirror: if the key is an
    /// insert (absent from the table), a version-0 sentinel marks the gap
    /// so concurrent scans of the range refuse — next-key locking.
    fn mirror_lock(&mut self, k: Key, txn: TxnId) {
        if self.table.get(k).is_none() {
            self.ordered.entry(k).or_insert(0);
            self.pending_inserts.insert(k, txn);
        }
    }

    /// Clears `txn`'s insert sentinel for `k`, if any (abort/unlock).
    fn mirror_unlock(&mut self, k: Key, txn: TxnId) {
        if self.pending_inserts.get(&k) == Some(&txn) {
            self.pending_inserts.remove(&k);
            self.ordered.remove(&k);
        }
    }

    /// Publishes a committed write's version in the mirror.
    fn mirror_apply(&mut self, k: Key, ver: Version) {
        self.pending_inserts.remove(&k);
        self.ordered.insert(k, ver);
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
            if self.locks.get(&k).map(|o| *o != txn).unwrap_or(false) {
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

    /// Re-walks a validated range. Returns `(still matches, keys visited)`;
    /// a count or fingerprint change means a phantom slipped in.
    fn scan_recheck(&self, txn: TxnId, lo: Key, hi_obs: Key, count: u32, fp: u64) -> (bool, u64) {
        let mut c = 0u32;
        let mut f = SCAN_FP_INIT;
        let mut visited = 0u64;
        for (&k, &ver) in self.ordered.range(lo..=hi_obs) {
            visited += 1;
            if self.pending_inserts.get(&k) == Some(&txn) {
                continue;
            }
            if ver == 0 || self.locks.get(&k).map(|o| *o != txn).unwrap_or(false) {
                return (false, visited);
            }
            c += 1;
            f = scan_fingerprint(f, k, ver);
        }
        (c == count && f == fp, visited)
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
                BMsg::RpcCommit { writes, .. } => {
                    p.host_rpc_handle_ns + 300 * writes.len() as u64
                }
                BMsg::RpcExecResp { values, .. } => 150 + 20 * values.len() as u64,
                BMsg::RpcValidateResp { .. }
                | BMsg::RpcLogResp { .. }
                | BMsg::RpcCommitResp { .. } => 150,
                _ => 100,
            },
        }
    }

    fn handle(st: &mut BaselineNode, rt: &mut Runtime<BMsg>, me: usize, msg: BMsg) {
        let retry = matches!(&msg, BMsg::Retry { .. });
        match msg {
            BMsg::Start { slot } | BMsg::Retry { slot } => start_txn(st, rt, me, slot, retry),

            // ---- Responder side (zero-cost RDMA NIC context) ----
            BMsg::ReadReq {
                txn,
                key,
                from,
                validate,
                hop,
            } => {
                let locked = st
                    .locks
                    .get(&key)
                    .map(|owner| *owner != txn)
                    .unwrap_or(false);
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
                let validate_ok = validate
                    .map(|expected| !locked && result.as_ref().map(|(_, v)| *v) == Some(expected));
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
                let (k, v, ver) = write;
                st.table.insert(k, v.clone());
                st.table.update(k, v, ver);
                st.mirror_apply(k, ver);
                if st.locks.get(&k) == Some(&txn) {
                    st.locks.remove(&k);
                }
                rt.rdma_response(
                    from as usize,
                    Verb::Write { bytes: 0 },
                    BMsg::CommitWriteResp { txn },
                );
            }
            BMsg::UnlockReq { txn, key } => {
                if st.locks.get(&key) == Some(&txn) {
                    st.locks.remove(&key);
                }
                st.mirror_unlock(key, txn);
            }
            BMsg::LogWriteDone { txn } => on_log_ack(st, rt, me, txn),

            // ---- Coordinator completions ----
            BMsg::ReadResp {
                txn,
                key,
                result,
                locked,
                validate_ok,
                hops_left,
                hop,
            } => on_read_resp(st, rt, me, txn, key, result, locked, validate_ok, hops_left, hop),
            BMsg::CasResp { txn, key, won } => on_cas_resp(st, rt, me, txn, key, won),
            BMsg::CommitWriteResp { txn } => on_commit_ack(st, rt, me, txn),
            BMsg::RpcExecResp {
                txn,
                ok,
                values,
                scan_obs,
            } => on_exec_resp(st, rt, me, txn, ok, values, scan_obs),
            BMsg::RpcValidateResp { txn, ok } => on_validate_resp(st, rt, me, txn, ok),
            BMsg::RpcLogResp { txn } => on_log_ack(st, rt, me, txn),
            BMsg::RpcCommitResp { txn } => on_commit_ack(st, rt, me, txn),

            // ---- RPC handlers (remote host CPU) ----
            BMsg::RpcExec {
                txn,
                from,
                reads,
                locks,
                scans,
            } => {
                let mut ok = true;
                let mut acquired = Vec::new();
                for k in &locks {
                    match st.locks.get(k) {
                        None => {
                            st.mirror_lock(*k, txn);
                            st.locks.insert(*k, txn);
                            acquired.push(*k);
                        }
                        Some(owner) if *owner == txn => {}
                        Some(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                // Range walks run after the locks so the transaction's own
                // insert sentinels exist (and are skipped) — mirroring the
                // Xenic NIC walk's visibility rules.
                let mut scan_obs = Vec::new();
                let mut scan_rows = Vec::new();
                if ok {
                    for s in &scans {
                        match st.scan_walk(txn, s.lo, s.hi, s.limit) {
                            Some((rows, hi_obs, count, fp)) => {
                                rt.charge(150 * (rows.len() as u64 + 1));
                                scan_rows.extend(rows);
                                scan_obs.push((s.lo, hi_obs, count, fp));
                            }
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                }
                if !ok {
                    for k in acquired {
                        st.locks.remove(&k);
                        st.mirror_unlock(k, txn);
                    }
                    scan_obs.clear();
                    scan_rows.clear();
                }
                let mut values: Vec<(Key, Value, Version)> = if ok {
                    let mut vals: Vec<(Key, Value, Version)> = reads
                        .iter()
                        .filter_map(|k| st.table.get(*k).map(|(v, ver)| (*k, v.clone(), ver)))
                        .collect();
                    // A locked insert key that already exists surfaces its
                    // current version, so the coordinator's re-insert
                    // installs version+1 rather than regressing to 1 (a
                    // version regression breaks every later OCC check on
                    // the key).
                    for k in &locks {
                        if !reads.contains(k) {
                            if let Some((v, ver)) = st.table.get(*k) {
                                vals.push((*k, v.clone(), ver));
                            }
                        }
                    }
                    vals
                } else {
                    Vec::new()
                };
                values.extend(scan_rows);
                let payload: u32 = 16
                    + 28 * scan_obs.len() as u32
                    + values
                        .iter()
                        .map(|(_, v, _): &(Key, Value, Version)| 16 + v.len() as u32)
                        .sum::<u32>();
                rt.rdma_send(
                    from as usize,
                    BMsg::RpcExecResp {
                        txn,
                        ok,
                        values,
                        scan_obs,
                    },
                    payload,
                    true,
                );
            }
            BMsg::RpcValidate {
                txn,
                from,
                checks,
                scan_checks,
            } => {
                let mut ok = checks.iter().all(|(k, expected)| {
                    let unlocked = st
                        .locks
                        .get(k)
                        .map(|owner| *owner == txn)
                        .unwrap_or(true);
                    unlocked && st.table.get(*k).map(|(_, v)| v) == Some(*expected)
                });
                if ok {
                    for (lo, hi_obs, count, fp) in &scan_checks {
                        let (good, visited) = st.scan_recheck(txn, *lo, *hi_obs, *count, *fp);
                        rt.charge(100 * (visited + 1));
                        if !good {
                            ok = false;
                            break;
                        }
                    }
                }
                rt.rdma_send(from as usize, BMsg::RpcValidateResp { txn, ok }, 16, true);
            }
            BMsg::RpcLog { txn, from, bytes } => {
                st.log_bytes += u64::from(bytes);
                rt.rdma_send(from as usize, BMsg::RpcLogResp { txn }, 16, true);
            }
            BMsg::RpcCommit {
                txn,
                from,
                writes,
                unlock,
                ack,
            } => {
                for (k, v, ver) in writes {
                    st.table.insert(k, v.clone());
                    st.table.update(k, v, ver);
                    st.mirror_apply(k, ver);
                    if st.locks.get(&k) == Some(&txn) {
                        st.locks.remove(&k);
                    }
                }
                for k in unlock {
                    if st.locks.get(&k) == Some(&txn) {
                        st.locks.remove(&k);
                    }
                    st.mirror_unlock(k, txn);
                }
                if ack {
                    rt.rdma_send(from as usize, BMsg::RpcCommitResp { txn }, 16, true);
                }
            }
        }
    }
}

// =====================================================================
// Coordinator logic (host)
// =====================================================================

fn start_txn(st: &mut BaselineNode, rt: &mut Runtime<BMsg>, me: usize, slot: u32, retry: bool) {
    let spec = if retry {
        match st.slots[slot as usize].clone() {
            Some(s) => s,
            None => return,
        }
    } else {
        let s = Arc::new(st.workload.next_txn(me, rt.txn_rng()));
        st.slots[slot as usize] = Some(Arc::clone(&s));
        st.slot_started[slot as usize] = rt.now();
        s
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
    let seq = st.next_seq;
    st.next_seq += 1;
    st.host_txns.insert(seq, slot);
    let txn = TxnId::new(me as u32, seq);
    rt.charge(spec.local_work_ns); // unshippable local work (B+trees etc.)

    let mut coord = Coord {
        spec: spec.clone(),
        phase: Phase::Exec,
        pending: 0,
        ok: true,
        values: Vec::new(),
        writes: Vec::new(),
        locked: Vec::new(),
        scan_obs: Vec::new(),
    };

    // Execute phase: reads + locks, per the system's op mapping.
    let read_keys: Vec<Key> = spec
        .reads
        .iter()
        .chain(spec.updates.iter().map(|(k, _)| k))
        .copied()
        .collect();
    let lock_keys: Vec<Key> = if st.kind.lock_all() {
        spec.all_keys().collect()
    } else {
        spec.write_keys().collect()
    };

    match st.kind {
        BaselineKind::Fasst => {
            // Consolidated per-shard RPC.
            let shards = spec.shards();
            for shard in shards {
                let reads: Vec<Key> = read_keys
                    .iter()
                    .copied()
                    .filter(|k| shard_of(*k) == shard)
                    .collect();
                let locks: Vec<Key> = lock_keys
                    .iter()
                    .copied()
                    .filter(|k| shard_of(*k) == shard)
                    .collect();
                let scans: Vec<ScanSpec> = spec
                    .scans
                    .iter()
                    .copied()
                    .filter(|s| s.shard() == shard)
                    .collect();
                let payload =
                    24 + 12 * (reads.len() + locks.len()) as u32 + 20 * scans.len() as u32;
                coord.pending += 1;
                rt.rdma_send(
                    st.part.primary(shard),
                    BMsg::RpcExec {
                        txn,
                        from: me as u32,
                        reads,
                        locks,
                        scans,
                    },
                    payload,
                    true,
                );
            }
        }
        BaselineKind::DrtmR => {
            // DrTM+R: CAS-lock *everything* first (lock-then-read — no
            // validation phase), reads follow once locks are held.
            coord.phase = Phase::Lock;
            for k in &lock_keys {
                if shard_of(*k) == st.shard {
                    rt.charge(40);
                    match st.locks.get(k) {
                        None => {
                            st.locks.insert(*k, txn);
                            coord.locked.push(*k);
                        }
                        Some(owner) if *owner == txn => {}
                        Some(_) => coord.ok = false,
                    }
                } else {
                    coord.pending += 1;
                    rt.rdma_request(
                        st.part.primary(shard_of(*k)),
                        Verb::Atomic,
                        BMsg::CasReq {
                            txn,
                            key: *k,
                            from: me as u32,
                            expected: None,
                        },
                        true,
                    );
                }
            }
        }
        _ => {
            // DrTM+H: optimistic READs first; the lock CASes are a
            // separate later roundtrip guarded by the read versions.
            coord.phase = Phase::Exec;
            for k in &read_keys {
                if shard_of(*k) == st.shard {
                    rt.charge(60);
                    if let Some((v, ver)) = st.table.get(*k) {
                        coord.values.push((*k, v.clone(), ver));
                    }
                } else {
                    coord.pending += 1;
                    let bytes = st.table.slot_bytes();
                    rt.rdma_request(
                        st.part.primary(shard_of(*k)),
                        Verb::Read { bytes },
                        BMsg::ReadReq {
                            txn,
                            key: *k,
                            from: me as u32,
                            validate: None,
                            hop: 0,
                        },
                        true,
                    );
                }
            }
        }
    }

    st.coord.insert(seq, coord);
    if st.coord[&seq].pending == 0 {
        match st.kind {
            BaselineKind::DrtmR => locks_done(st, rt, me, seq, txn),
            BaselineKind::Fasst => exec_done(st, rt, me, seq, txn),
            _ => reads_done(st, rt, me, seq, txn),
        }
    }
}

/// DrTM+H: execution reads finished — run the lock roundtrip (CAS per
/// write key, guarded by the versions just read).
fn reads_done(st: &mut BaselineNode, rt: &mut Runtime<BMsg>, me: usize, seq: u64, txn: TxnId) {
    let Some(ct) = st.coord.get_mut(&seq) else {
        return;
    };
    if !ct.ok {
        abort(st, rt, me, seq, txn);
        return;
    }
    ct.phase = Phase::Lock;
    let spec = ct.spec.clone();
    let values = ct.values.clone();
    let lock_keys: Vec<Key> = spec.write_keys().collect();
    if lock_keys.is_empty() {
        exec_done(st, rt, me, seq, txn);
        return;
    }
    let expected_of = |k: Key| -> Version {
        values
            .iter()
            .find(|(key, _, _)| *key == k)
            .map(|(_, _, v)| *v)
            .unwrap_or(0)
    };
    let mut remote = Vec::new();
    let mut ok = true;
    let mut locked_local = Vec::new();
    for k in &lock_keys {
        if shard_of(*k) == st.shard {
            rt.charge(40);
            let version_ok =
                st.table.get(*k).map(|(_, v)| v).unwrap_or(0) == expected_of(*k);
            match st.locks.get(k) {
                None if version_ok => {
                    st.locks.insert(*k, txn);
                    locked_local.push(*k);
                }
                Some(owner) if *owner == txn => {}
                _ => ok = false,
            }
        } else {
            remote.push((*k, expected_of(*k)));
        }
    }
    let ct = st.coord.get_mut(&seq).expect("coord");
    ct.locked.extend(locked_local);
    if !ok {
        ct.ok = false;
    }
    ct.pending = remote.len();
    if remote.is_empty() {
        locks_done(st, rt, me, seq, txn);
        return;
    }
    for (k, expected) in remote {
        rt.rdma_request(
            st.part.primary(shard_of(k)),
            Verb::Atomic,
            BMsg::CasReq {
                txn,
                key: k,
                from: me as u32,
                expected: Some(expected),
            },
            true,
        );
    }
}

/// Lock roundtrip finished. DrTM+H proceeds to validation; DrTM+R (which
/// locked before reading) now issues its reads.
fn locks_done(st: &mut BaselineNode, rt: &mut Runtime<BMsg>, me: usize, seq: u64, txn: TxnId) {
    let Some(ct) = st.coord.get_mut(&seq) else {
        return;
    };
    if !ct.ok {
        abort(st, rt, me, seq, txn);
        return;
    }
    if st.kind != BaselineKind::DrtmR {
        exec_done(st, rt, me, seq, txn);
        return;
    }
    // DrTM+R: reads under locks.
    ct.phase = Phase::Exec;
    let spec = ct.spec.clone();
    let read_keys: Vec<Key> = spec
        .reads
        .iter()
        .chain(spec.updates.iter().map(|(k, _)| k))
        .copied()
        .collect();
    let mut pending = 0;
    let mut local_vals = Vec::new();
    for k in &read_keys {
        if shard_of(*k) == st.shard {
            rt.charge(60);
            if let Some((v, ver)) = st.table.get(*k) {
                local_vals.push((*k, v.clone(), ver));
            }
        } else {
            pending += 1;
            let bytes = st.table.slot_bytes();
            rt.rdma_request(
                st.part.primary(shard_of(*k)),
                Verb::Read { bytes },
                BMsg::ReadReq {
                    txn,
                    key: *k,
                    from: me as u32,
                    validate: None,
                    hop: 0,
                },
                true,
            );
        }
    }
    let ct = st.coord.get_mut(&seq).expect("coord");
    ct.values.extend(local_vals);
    ct.pending = pending;
    if pending == 0 {
        exec_done(st, rt, me, seq, txn);
    }
}

#[allow(clippy::too_many_arguments)]
fn on_read_resp(
    st: &mut BaselineNode,
    rt: &mut Runtime<BMsg>,
    me: usize,
    txn: TxnId,
    key: Key,
    result: Option<(Value, Version)>,
    locked: bool,
    validate_ok: Option<bool>,
    hops_left: usize,
    hop: usize,
) {
    let seq = txn.seq;
    let Some(ct) = st.coord.get_mut(&seq) else {
        return;
    };
    if let Some(vok) = validate_ok {
        // Validation read.
        if !vok {
            ct.ok = false;
        }
        ct.pending -= 1;
        if ct.pending == 0 {
            validate_done(st, rt, me, seq, txn);
        }
        return;
    }
    if hops_left > 0 {
        // NC: the coordinator chases the chain with another READ; the
        // pending count is unchanged (this completion is replaced by the
        // next hop's).
        let bucket_bytes = st.table.slot_bytes() * st.table.bucket_width() as u32;
        rt.rdma_request(
            st.part.primary(shard_of(key)),
            Verb::Read {
                bytes: bucket_bytes,
            },
            BMsg::ReadReq {
                txn,
                key,
                from: me as u32,
                validate: None,
                hop: hop + 1,
            },
            true,
        );
        return;
    }
    if locked && st.kind != BaselineKind::DrtmR {
        // DrTM+R holds its own locks while reading; others treat a locked
        // object as a conflict.
        ct.ok = false;
    } else if let Some((v, ver)) = result {
        ct.values.push((key, v, ver));
    }
    ct.pending -= 1;
    if ct.pending == 0 {
        match st.kind {
            BaselineKind::DrtmR => exec_done(st, rt, me, seq, txn),
            BaselineKind::Fasst => exec_done(st, rt, me, seq, txn),
            _ => reads_done(st, rt, me, seq, txn),
        }
    }
}

fn on_cas_resp(
    st: &mut BaselineNode,
    rt: &mut Runtime<BMsg>,
    me: usize,
    txn: TxnId,
    key: Key,
    won: bool,
) {
    let seq = txn.seq;
    let Some(ct) = st.coord.get_mut(&seq) else {
        return;
    };
    if won {
        ct.locked.push(key);
    } else {
        ct.ok = false;
    }
    ct.pending -= 1;
    if ct.pending == 0 {
        locks_done(st, rt, me, seq, txn);
    }
}

fn on_exec_resp(
    st: &mut BaselineNode,
    rt: &mut Runtime<BMsg>,
    me: usize,
    txn: TxnId,
    ok: bool,
    values: Vec<(Key, Value, Version)>,
    scan_obs: Vec<(Key, Key, u32, u64)>,
) {
    let seq = txn.seq;
    let Some(ct) = st.coord.get_mut(&seq) else {
        return;
    };
    if !ok {
        ct.ok = false;
    } else {
        // Remote locks were acquired within the RPC; remember them for
        // abort cleanup (FaSST unlocks by commit/abort RPC).
        ct.values.extend(values);
        ct.scan_obs.extend(scan_obs);
    }
    ct.pending -= 1;
    if ct.pending == 0 {
        exec_done(st, rt, me, seq, txn);
    }
}

/// Reads and locks settled: compute writes, then validate (unless the
/// system locked everything).
fn exec_done(st: &mut BaselineNode, rt: &mut Runtime<BMsg>, me: usize, seq: u64, txn: TxnId) {
    let Some(ct) = st.coord.get_mut(&seq) else {
        return;
    };
    if !ct.ok {
        abort(st, rt, me, seq, txn);
        return;
    }
    let spec = ct.spec.clone();
    rt.charge(spec.exec_host_ns);
    let values = ct.values.clone();
    ct.writes = compute_writes(&spec, &values);

    // DrTM+R locked everything; FaSST/DrTM+H validate read-set keys.
    let checks: Vec<(Key, Version)> = if st.kind.lock_all() {
        Vec::new()
    } else {
        spec.reads
            .iter()
            .filter_map(|k| {
                values
                    .iter()
                    .find(|(key, _, _)| key == k)
                    .map(|(_, _, v)| (*k, *v))
            })
            .collect()
    };
    let remote_checks: Vec<(Key, Version)> = checks
        .iter()
        .copied()
        .filter(|(k, _)| shard_of(*k) != st.shard)
        .collect();
    let scan_obs = st.coord[&seq].scan_obs.clone();
    let remote_scans: Vec<(Key, Key, u32, u64)> = scan_obs
        .iter()
        .copied()
        .filter(|(lo, ..)| shard_of(*lo) != st.shard)
        .collect();
    // Local checks are immediate.
    let mut local_ok = checks
        .iter()
        .filter(|(k, _)| shard_of(*k) == st.shard)
        .all(|(k, expected)| {
            let unlocked = st.locks.get(k).map(|o| *o == txn).unwrap_or(true);
            unlocked && st.table.get(*k).map(|(_, v)| v) == Some(*expected)
        });
    // Home-shard range re-walks are immediate too (the mirror lives here).
    for (lo, hi_obs, count, fp) in scan_obs.iter().filter(|(lo, ..)| shard_of(*lo) == st.shard) {
        let (good, visited) = st.scan_recheck(txn, *lo, *hi_obs, *count, *fp);
        rt.charge(100 * (visited + 1));
        if !good {
            local_ok = false;
            break;
        }
    }
    let ct = st.coord.get_mut(&seq).expect("coord");
    if !local_ok {
        ct.ok = false;
        abort(st, rt, me, seq, txn);
        return;
    }
    if remote_checks.is_empty() && remote_scans.is_empty() {
        ct.phase = Phase::Validate;
        validate_done(st, rt, me, seq, txn);
        return;
    }
    ct.phase = Phase::Validate;
    match st.kind {
        BaselineKind::Fasst => {
            let mut by_shard: HashMap<u32, ValidatePayload> = HashMap::new();
            for (k, v) in remote_checks {
                by_shard.entry(shard_of(k)).or_default().0.push((k, v));
            }
            for sc in remote_scans {
                by_shard.entry(shard_of(sc.0)).or_default().1.push(sc);
            }
            let mut sends: Vec<_> = by_shard.into_iter().collect();
            sends.sort_by_key(|(s, _)| *s);
            let ct = st.coord.get_mut(&seq).expect("coord");
            ct.pending = sends.len();
            for (shard, (checks, scan_checks)) in sends {
                let payload = 24 + 16 * checks.len() as u32 + 28 * scan_checks.len() as u32;
                rt.rdma_send(
                    st.part.primary(shard),
                    BMsg::RpcValidate {
                        txn,
                        from: me as u32,
                        checks,
                        scan_checks,
                    },
                    payload,
                    true,
                );
            }
        }
        _ => {
            // One READ per read-set key (DrTM+H validation).
            let ct = st.coord.get_mut(&seq).expect("coord");
            ct.pending = remote_checks.len();
            for (k, expected) in remote_checks {
                rt.rdma_request(
                    st.part.primary(shard_of(k)),
                    Verb::Read { bytes: 16 },
                    BMsg::ReadReq {
                        txn,
                        key: k,
                        from: me as u32,
                        validate: Some(expected),
                        hop: 0,
                    },
                    true,
                );
            }
        }
    }
}

fn on_validate_resp(st: &mut BaselineNode, rt: &mut Runtime<BMsg>, me: usize, txn: TxnId, ok: bool) {
    let seq = txn.seq;
    let Some(ct) = st.coord.get_mut(&seq) else {
        return;
    };
    if !ok {
        ct.ok = false;
    }
    ct.pending -= 1;
    if ct.pending == 0 {
        validate_done(st, rt, me, seq, txn);
    }
}

/// Validation settled: log to backups, or finish read-only transactions.
fn validate_done(st: &mut BaselineNode, rt: &mut Runtime<BMsg>, me: usize, seq: u64, txn: TxnId) {
    let Some(ct) = st.coord.get_mut(&seq) else {
        return;
    };
    if !ct.ok {
        abort(st, rt, me, seq, txn);
        return;
    }
    if ct.writes.is_empty() {
        finish(st, rt, me, seq, txn, true);
        return;
    }
    ct.phase = Phase::Log;
    let mut by_shard: HashMap<u32, u32> = HashMap::new();
    for (k, v, _) in &ct.writes {
        *by_shard.entry(shard_of(*k)).or_default() += 24 + v.len() as u32;
    }
    let mut sends = Vec::new();
    for (shard, bytes) in by_shard {
        for b in st.part.backups(shard) {
            sends.push((b, bytes));
        }
    }
    sends.sort();
    let ct = st.coord.get_mut(&seq).expect("coord");
    ct.pending = sends.len();
    if sends.is_empty() {
        finish(st, rt, me, seq, txn, true);
        return;
    }
    let two_sided_log = matches!(st.kind, BaselineKind::Fasst);
    for (backup, bytes) in sends {
        if two_sided_log {
            rt.rdma_send(
                backup,
                BMsg::RpcLog {
                    txn,
                    from: me as u32,
                    bytes,
                },
                bytes + 24,
                true,
            );
        } else {
            // One-sided WRITE of the log record (DrTM+H, DrTM+R, like
            // FaRM): no remote CPU, ack on completion.
            rt.rdma_one_sided(
                backup,
                Verb::Write { bytes: bytes + 24 },
                BMsg::LogWriteDone { txn },
                true,
            );
        }
    }
}

fn on_log_ack(st: &mut BaselineNode, rt: &mut Runtime<BMsg>, me: usize, txn: TxnId) {
    let seq = txn.seq;
    // A backup node receiving RpcLog calls this on itself via the `from`
    // routing; coordinator acks land here too. Only the coordinator holds
    // the coord entry.
    if txn.node != me as u32 {
        return;
    }
    let Some(ct) = st.coord.get_mut(&seq) else {
        return;
    };
    if ct.phase != Phase::Log {
        return;
    }
    ct.pending -= 1;
    if ct.pending == 0 {
        finish(st, rt, me, seq, txn, true);
    }
}

/// Commit point: report the outcome, then push the Commit phase.
fn finish(
    st: &mut BaselineNode,
    rt: &mut Runtime<BMsg>,
    me: usize,
    seq: u64,
    txn: TxnId,
    committed: bool,
) {
    let Some(ct) = st.coord.remove(&seq) else {
        return;
    };
    let Some(slot) = st.host_txns.remove(&seq) else {
        return;
    };
    if committed {
        if let Some(r) = &st.recorder {
            r.note_reads(txn, ct.values.iter().map(|(k, _, ver)| (*k, *ver)));
            r.note_writes(txn, ct.writes.iter().map(|(k, _, ver)| (*k, *ver)));
            r.note_scans(txn, ct.scan_obs.iter().map(|(lo, hi, _, _)| (*lo, *hi)));
            r.commit(txn);
        }
        let started = st.slot_started[slot as usize];
        let metric = ct.spec.metric;
        st.stats.record_commit(metric, started, rt.now());
        st.slots[slot as usize] = None;
        rt.send_local(Exec::Host, BMsg::Start { slot }, 50);
        // Commit phase (post-ack): apply writes and release locks.
        // lock_all systems must also release read-set locks even when
        // the write set is empty.
        if !ct.writes.is_empty() || st.kind.lock_all() {
            push_commit(st, rt, me, txn, &ct);
        }
    } else {
        st.stats.record_abort();
        let backoff = rt.txn_rng().range_inclusive(2_000, 12_000);
        rt.send_local(Exec::Host, BMsg::Retry { slot }, backoff);
    }
}

fn push_commit(st: &mut BaselineNode, rt: &mut Runtime<BMsg>, me: usize, txn: TxnId, ct: &Coord) {
    let mut by_shard: HashMap<u32, Vec<(Key, Value, Version)>> = HashMap::new();
    for w in &ct.writes {
        by_shard.entry(shard_of(w.0)).or_default().push(w.clone());
    }
    let mut shards: Vec<_> = by_shard.into_iter().collect();
    shards.sort_by_key(|(s, _)| *s);
    for (shard, writes) in shards {
        if shard == st.shard {
            // Local apply.
            rt.charge(100 * writes.len() as u64);
            for (k, v, ver) in writes {
                st.table.insert(k, v.clone());
                st.table.update(k, v, ver);
                st.mirror_apply(k, ver);
                if st.locks.get(&k) == Some(&txn) {
                    st.locks.remove(&k);
                }
            }
            continue;
        }
        match st.kind {
            BaselineKind::DrtmR => {
                // One-sided value WRITE per key; the write also clears the
                // lock word (value+lock in one cacheline-adjacent write).
                for w in writes {
                    rt.rdma_request(
                        st.part.primary(shard),
                        Verb::Write {
                            bytes: w.1.len() as u32 + 24,
                        },
                        BMsg::CommitWriteReq {
                            txn,
                            write: w,
                            from: me as u32,
                        },
                        true,
                    );
                }
            }
            _ => {
                // DrTM+H and FaSST commit via RPC.
                let payload: u32 = 24 + writes
                    .iter()
                    .map(|(_, v, _)| 16 + v.len() as u32)
                    .sum::<u32>();
                rt.rdma_send(
                    st.part.primary(shard),
                    BMsg::RpcCommit {
                        txn,
                        from: me as u32,
                        writes,
                        unlock: Vec::new(),
                        ack: false,
                    },
                    payload,
                    true,
                );
            }
        }
    }
    // DrTM+R additionally unlocks the read-set keys it CAS-locked.
    if st.kind.lock_all() {
        for k in &ct.locked {
            if shard_of(*k) != st.shard && !ct.writes.iter().any(|(wk, _, _)| wk == k) {
                rt.rdma_request(
                    st.part.primary(shard_of(*k)),
                    Verb::Write { bytes: 8 },
                    BMsg::UnlockReq { txn, key: *k },
                    true,
                );
            } else if shard_of(*k) == st.shard && !ct.writes.iter().any(|(wk, _, _)| wk == k)
                && st.locks.get(k) == Some(&txn) {
                    st.locks.remove(k);
                }
        }
    }
}

fn on_commit_ack(_st: &mut BaselineNode, _rt: &mut Runtime<BMsg>, _me: usize, _txn: TxnId) {
    // Commit acknowledgements carry no further obligation (outcome was
    // reported at the log point, matching the Xenic engine).
}

/// Abort: unlock everything acquired, report, retry.
fn abort(st: &mut BaselineNode, rt: &mut Runtime<BMsg>, me: usize, seq: u64, txn: TxnId) {
    let Some(ct) = st.coord.get(&seq) else {
        return;
    };
    let locked = ct.locked.clone();
    let uses_rpc = matches!(st.kind, BaselineKind::Fasst);
    for k in locked {
        if shard_of(k) == st.shard {
            if st.locks.get(&k) == Some(&txn) {
                st.locks.remove(&k);
            }
            st.mirror_unlock(k, txn);
        } else if uses_rpc {
            rt.rdma_send(
                st.part.primary(shard_of(k)),
                BMsg::RpcCommit {
                    txn,
                    from: me as u32,
                    writes: Vec::new(),
                    unlock: vec![k],
                    ack: false,
                },
                24,
                true,
            );
        } else {
            rt.rdma_request(
                st.part.primary(shard_of(k)),
                Verb::Write { bytes: 8 },
                BMsg::UnlockReq { txn, key: k },
                true,
            );
        }
    }
    // FaSST also has to unlock keys locked inside remote RpcExec handlers;
    // those were acquired remotely and the coordinator may not have an
    // explicit list — send unlock RPCs to every write shard.
    if uses_rpc {
        // Home-shard keys were locked by the self-RPC handler: release
        // them directly (leaking them wedges every later transaction on
        // the same key — e.g. a TPC-C district).
        let home_keys: Vec<Key> = st.coord[&seq]
            .spec
            .write_keys()
            .filter(|k| shard_of(*k) == st.shard)
            .collect();
        for k in home_keys {
            if st.locks.get(&k) == Some(&txn) {
                st.locks.remove(&k);
            }
            st.mirror_unlock(k, txn);
        }
        let ct = st.coord.get(&seq).expect("coord");
        let mut shards: Vec<u32> = ct
            .spec
            .write_keys()
            .map(shard_of)
            .filter(|s| *s != st.shard)
            .collect();
        shards.sort_unstable();
        shards.dedup();
        for shard in shards {
            let keys: Vec<Key> = st.coord[&seq]
                .spec
                .write_keys()
                .filter(|k| shard_of(*k) == shard)
                .collect();
            rt.rdma_send(
                st.part.primary(shard),
                BMsg::RpcCommit {
                    txn,
                    from: me as u32,
                    writes: Vec::new(),
                    unlock: keys,
                    ack: false,
                },
                24,
                true,
            );
        }
    }
    finish(st, rt, me, seq, txn, false);
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
