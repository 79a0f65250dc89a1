//! Pluggable NIC-resident replication backends (DESIGN.md §15).
//!
//! The engine's Log phase — everything between "validation passed, the
//! write set is final" and "the commit point is reached" — is owned by a
//! [`Replication`] backend. "Reliable Replication Protocols on
//! SmartNICs" argues the replication protocol itself belongs on the NIC
//! beside the transaction logic; this module makes the protocol a
//! configuration axis rather than hard-coded machinery, with three
//! implementations charged identical `xenic-hw` NIC-core/DMA/verb costs:
//!
//! * [`LogShipping`] — Xenic's native scheme (§4.2 step 5): fan appends
//!   to every backup of every written shard, commit when all ack.
//! * [`RaftCommit`] — leader-based commit: term-tagged appends route
//!   through the shard group's leader, which relays to followers; the
//!   coordinator commits on a **majority** of backup acks, re-elects
//!   (bumps the term) when the leader goes quiet, and keeps laggard
//!   replicas convergent with a post-commit catch-up stream.
//! * [`HermesInval`] — invalidation-based: appends double as broadcast
//!   invalidations (reads of an invalid key refuse until validation),
//!   every backup must ack, and a post-commit validation broadcast
//!   returns replicas to the valid state.
//!
//! # The trait contract
//!
//! **What the engine guarantees the backend:** `begin_log` is called
//! exactly once per transaction, after Validate succeeded, with the
//! write set grouped by shard in ascending shard order and the
//! coordinator context in `Phase::Log` with cleared ack state.
//! `on_log_ack` is called only for acks that passed the phase gate and
//! the `(from, shard)` dedup. `on_log_timeout` is called only while the
//! transaction is still in `Phase::Log` (epoch-checked). `after_commit`
//! is called at the commit point, before the CommitReq fan-out, with
//! the final ack set. On crash/restart the engine re-arms a phase timer
//! for every in-flight Log-phase transaction and a CommitTick for every
//! registered post-commit entry, and re-primes backup-append dedup from
//! the durable log — backends need no restart hook of their own as long
//! as all their retransmittable state lives in `CoordTxn::resend` and
//! `XenicNode::committing`.
//!
//! **What the backend must guarantee recovery:** once the backend
//! reports the commit point, enough replicas must hold the log record
//! that [`Replication::evidence_threshold`] surviving records prove the
//! transaction (coordinator recovery re-commits on that evidence), and
//! the backend must drive every remaining replica of every written
//! shard to convergence — by refusing to commit before all acks
//! (log shipping, Hermes) or by registering catch-up retransmissions
//! for laggards (Raft). The backend may never walk a commit back.

use xenic_sim::FastSet;

use xenic_net::{Exec, Runtime};
use xenic_store::TxnId;

use crate::api::Partitioning;
use crate::config::{ReplBackend, Weakening};
use crate::engine::{
    abort_txn, arm_phase_timer, finish_commit, snic_log, CoordTxn, Phase, XenicNode,
};
use crate::msg::{HermesInv, KeySet, LogReq, RaftAppend, WriteSet, XMsg};

/// A NIC-resident replication protocol owning the Log phase end to end.
///
/// Implementations are stateless unit structs — all per-transaction
/// state lives in the engine's `CoordTxn` (retransmit buffer, ack set)
/// and per-node maps (`raft_terms`, `hermes_invalid`), which crash
/// recovery already knows how to re-prime.
pub trait Replication {
    /// The config token this backend implements.
    fn kind(&self) -> ReplBackend;

    /// Human-readable protocol name (figures, CSV headers).
    fn name(&self) -> &'static str;

    /// Starts the Log phase: send the protocol's append messages for
    /// `by_shard` (write set grouped by ascending shard), set
    /// `CoordTxn::pending` to the number of acks that reach the commit
    /// point, register retransmittable sends when faults are active,
    /// and arm the phase timer. Must call `finish_commit` directly when
    /// nothing needs replicating (replication factor 1).
    #[allow(clippy::too_many_arguments)]
    fn begin_log(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        seq: u64,
        txn: TxnId,
        by_shard: Vec<(u32, WriteSet)>,
    );

    /// A counted (deduplicated, phase-gated) Log ack from a backup for
    /// `shard` arrived; decide whether it advances the quorum and reach
    /// the commit point at zero pending.
    fn on_log_ack(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        seq: u64,
        txn: TxnId,
        shard: u32,
    );

    /// The Log-phase retransmission timer fired (faults active, epoch
    /// current): resend whatever the quorum is still missing. Log-phase
    /// messages are never abandoned — a backup may already have logged.
    fn on_log_timeout(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        seq: u64,
        txn: TxnId,
    );

    /// The commit point was reached: push any post-commit protocol
    /// traffic. Called before the CommitReq fan-out with the final ack
    /// set; entries pushed into `unacked` as `(shard, dst, msg)` are
    /// sent by CommitTick retransmission until a matching ack clears
    /// them (and re-armed across coordinator crashes). `track` is false
    /// when faults are inactive or the quorum is (test-only) weakened.
    #[allow(clippy::too_many_arguments)]
    fn after_commit(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        txn: TxnId,
        acks: &FastSet<(u32, u32)>,
        by_shard: &[(u32, WriteSet)],
        track: bool,
        unacked: &mut Vec<(u32, usize, XMsg)>,
    );

    /// Minimum number of surviving backup log records that prove a
    /// transaction may have committed, for a shard group of `group`
    /// replicas (primary + backups). Coordinator recovery re-commits a
    /// transaction with this much evidence at every written shard and
    /// discards anything below it.
    fn evidence_threshold(&self, group: usize) -> usize;
}

/// Returns the backend singleton for a config token.
pub fn backend(kind: ReplBackend) -> &'static dyn Replication {
    match kind {
        ReplBackend::LogShipping => &LogShipping,
        ReplBackend::Raft => &RaftCommit,
        ReplBackend::Hermes => &HermesInval,
    }
}

/// The current leader of `shard`'s replica group at `term`: the group
/// is `[primary, backups...]` in ring order and leadership rotates
/// deterministically with the term, so every node computes the same
/// leader without a separate election message exchange (the paper-side
/// simplification: election = adopting the next term).
pub fn leader_of(part: &Partitioning, shard: u32, term: u32) -> usize {
    let group = part.replicas(shard);
    group[term as usize % group.len()]
}

/// Majority-commit ack requirement per shard: with `backups` follower
/// replicas (group size `backups + 1` counting the leader's own copy),
/// the entry is majority-replicated once `floor(group / 2)` followers
/// acked — the leader itself holds the entry in flight, and the primary
/// installs it at CommitReq.
fn raft_needed(backups: usize) -> usize {
    backups.div_ceil(2)
}

// =====================================================================
// Log shipping (Xenic §4.2 step 5)
// =====================================================================

/// Xenic's native DMA log shipping: all backups of every written shard
/// must append and ack before the commit point.
pub struct LogShipping;

impl Replication for LogShipping {
    fn kind(&self) -> ReplBackend {
        ReplBackend::LogShipping
    }

    fn name(&self) -> &'static str {
        "DMA log shipping"
    }

    fn begin_log(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        seq: u64,
        txn: TxnId,
        by_shard: Vec<(u32, WriteSet)>,
    ) {
        let mut sends = Vec::new();
        for (shard, writes) in by_shard {
            for b in st.part.backups(shard) {
                sends.push((b, shard, writes.clone()));
            }
        }
        let fa = rt.faults_active();
        let ct = st.coord.get_mut(&seq).expect("coord exists");
        ct.pending = sends.len();
        if sends.is_empty() {
            // No backups configured (replication = 1): commit directly.
            finish_commit(st, rt, me, seq, txn);
            return;
        }
        let mut msgs: Vec<(usize, XMsg)> = Vec::with_capacity(sends.len());
        for (backup, shard, writes) in sends {
            let msg = XMsg::from(LogReq {
                txn,
                shard,
                reply_to: me as u32,
                writes,
            });
            if fa {
                ct.resend.push((backup, shard, msg.clone()));
            }
            msgs.push((backup, msg));
        }
        for (backup, msg) in msgs {
            let bytes = msg.wire_bytes();
            rt.send_net(backup, Exec::Nic, msg, bytes);
        }
        if fa {
            arm_phase_timer(st, rt, seq);
        }
    }

    fn on_log_ack(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        seq: u64,
        txn: TxnId,
        _shard: u32,
    ) {
        all_ack_count(st, rt, me, seq, txn);
    }

    fn on_log_timeout(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        _me: usize,
        seq: u64,
        _txn: TxnId,
    ) {
        resend_unacked(st, rt, seq);
    }

    fn after_commit(
        &self,
        _st: &mut XenicNode,
        _rt: &mut Runtime<XMsg>,
        _me: usize,
        _txn: TxnId,
        _acks: &FastSet<(u32, u32)>,
        _by_shard: &[(u32, WriteSet)],
        _track: bool,
        _unacked: &mut Vec<(u32, usize, XMsg)>,
    ) {
        // All backups acked before the commit point; the CommitReq
        // fan-out (engine-generic) is the only post-commit traffic.
    }

    fn evidence_threshold(&self, group: usize) -> usize {
        // Commit required every backup's ack, so a possibly-committed
        // transaction left a record at all `group - 1` backups.
        group.saturating_sub(1)
    }
}

/// Shared every-ack-counts quorum: decrement pending, commit (or abort)
/// at zero. Exactly the pre-refactor Log-phase arm.
fn all_ack_count(st: &mut XenicNode, rt: &mut Runtime<XMsg>, me: usize, seq: u64, txn: TxnId) {
    let ct = st.coord.get_mut(&seq).expect("coord exists");
    ct.pending -= 1;
    if ct.pending == 0 {
        if st.coord[&seq].ok {
            finish_commit(st, rt, me, seq, txn);
        } else {
            abort_txn(st, rt, me, seq, txn);
        }
    }
}

/// Shared retransmit-unacked policy: resend every registered send whose
/// `(dst, shard)` ack has not arrived. Exactly the pre-refactor arm.
fn resend_unacked(st: &mut XenicNode, rt: &mut Runtime<XMsg>, seq: u64) {
    let Some(ct) = st.coord.get_mut(&seq) else {
        return;
    };
    let resends: Vec<(usize, XMsg)> = ct
        .resend
        .iter()
        .filter(|(dst, shard, _)| !ct.acks.contains(&(*dst as u32, *shard)))
        .map(|(dst, _, msg)| (*dst, msg.clone()))
        .collect();
    rt.trace_instant("Retransmit", seq);
    for (dst, msg) in resends {
        let bytes = msg.wire_bytes();
        rt.send_net(dst, Exec::Nic, msg, bytes);
    }
    arm_phase_timer(st, rt, seq);
}

// =====================================================================
// Leader-based Raft-style commit
// =====================================================================

/// Leader-based majority commit: one term-tagged append per written
/// shard routes to the group's current leader, which relays the record
/// to its followers; followers ack the coordinator directly, and the
/// commit point is a majority of follower acks per shard. An
/// unresponsive leader is deposed by bumping the term (deterministic
/// rotation — see [`leader_of`]); laggard followers are caught up by
/// post-commit retransmission so replicas still converge.
pub struct RaftCommit;

impl RaftCommit {
    /// Handles a [`XMsg::RaftAppend`] at the (supposed) leader.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn leader_append(
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        txn: TxnId,
        shard: u32,
        term: u32,
        reply_to: u32,
        writes: WriteSet,
    ) {
        let cur = st.raft_terms.get(&shard).copied().unwrap_or(0);
        if term < cur {
            // Stale term: refuse, tell the coordinator the current one.
            st.stats.raft_nacks.inc();
            let msg = XMsg::RaftNack {
                txn,
                shard,
                term: cur,
            };
            let bytes = msg.wire_bytes();
            rt.send_net(reply_to as usize, Exec::Nic, msg, bytes);
            return;
        }
        if term > cur {
            // Adopt the newer term. The map only holds non-zero terms,
            // so fault-free runs keep it empty (and allocation-free).
            st.raft_terms.insert(shard, term);
        }
        let followers = st.part.backups(shard);
        // Relay work scales with the follower count (match-index
        // bookkeeping, descriptor copies).
        rt.charge(rt.params.repl_leader_relay_ns * followers.len() as u64);
        for b in followers {
            if b == me {
                // A deposed-primary era can elect a backup leader: its
                // own append is local. The primary itself is never a
                // follower of its own shard, so a term-0 leader (the
                // primary) never self-appends — it installs the record
                // at CommitReq like every primary.
                snic_log(st, rt, me, txn, shard, reply_to, writes.clone(), false);
            } else {
                let msg = XMsg::from(LogReq {
                    txn,
                    shard,
                    reply_to,
                    writes: writes.clone(),
                });
                let bytes = msg.wire_bytes();
                rt.send_net(b, Exec::Nic, msg, bytes);
            }
        }
    }

    /// Handles a [`XMsg::RaftNack`] at the coordinator: adopt the
    /// refused term and re-route the shard's append to its leader.
    pub(crate) fn coordinator_nack(
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        txn: TxnId,
        shard: u32,
        term: u32,
    ) {
        let seq = txn.seq;
        let part = st.part;
        let Some(ct) = st.coord.get_mut(&seq) else {
            return;
        };
        if ct.phase != Phase::Log {
            return;
        }
        let mut resends: Vec<(usize, XMsg)> = Vec::new();
        for (dst, s, msg) in ct.resend.iter_mut() {
            if *s != shard {
                continue;
            }
            if let XMsg::RaftAppend(b) = msg {
                if term > b.term {
                    b.term = term;
                    *dst = leader_of(&part, shard, term);
                    resends.push((*dst, msg.clone()));
                }
            }
        }
        for (dst, msg) in resends {
            let bytes = msg.wire_bytes();
            rt.send_net(dst, Exec::Nic, msg, bytes);
        }
    }
}

impl Replication for RaftCommit {
    fn kind(&self) -> ReplBackend {
        ReplBackend::Raft
    }

    fn name(&self) -> &'static str {
        "Raft-style leader commit"
    }

    fn begin_log(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        seq: u64,
        txn: TxnId,
        by_shard: Vec<(u32, WriteSet)>,
    ) {
        let fa = rt.faults_active();
        let weakened = st.cfg.weaken == Some(Weakening::Quorum);
        let mut pending = 0usize;
        let mut msgs: Vec<(usize, u32, XMsg)> = Vec::with_capacity(by_shard.len());
        for (shard, writes) in by_shard {
            let needed = raft_needed(st.part.backups(shard).len());
            if needed == 0 {
                // Replication factor 1: no followers to replicate to.
                continue;
            }
            pending += needed;
            let msg = XMsg::from(RaftAppend {
                txn,
                shard,
                term: 0,
                reply_to: me as u32,
                writes,
            });
            msgs.push((leader_of(&st.part, shard, 0), shard, msg));
        }
        let ct = st.coord.get_mut(&seq).expect("coord exists");
        // TEST ONLY (`Weakening::Quorum`): treat the quorum as already
        // satisfied — commit before any follower acked, and skip the
        // retransmission registration that would keep the appends and
        // CommitReqs alive under loss. The serial_fuzz negative
        // self-test proves the DSG checker rejects the result.
        ct.pending = if weakened { 0 } else { pending };
        if fa && !weakened {
            for (dst, shard, msg) in &msgs {
                ct.resend.push((*dst, *shard, msg.clone()));
            }
        }
        for (dst, _, msg) in msgs {
            let bytes = msg.wire_bytes();
            rt.send_net(dst, Exec::Nic, msg, bytes);
        }
        if weakened || pending == 0 {
            finish_commit(st, rt, me, seq, txn);
            return;
        }
        if fa {
            arm_phase_timer(st, rt, seq);
        }
    }

    fn on_log_ack(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        seq: u64,
        txn: TxnId,
        shard: u32,
    ) {
        let needed = raft_needed(st.cfg.replication.saturating_sub(1) as usize);
        let ct = st.coord.get_mut(&seq).expect("coord exists");
        // The ack was just inserted into `ct.acks`; count this shard's
        // tally and ignore acks beyond its majority (they still shrink
        // the post-commit catch-up set via the ack set itself).
        let tally = ct.acks.iter().filter(|(_, s)| *s == shard).count();
        if tally > needed {
            return;
        }
        all_ack_count(st, rt, me, seq, txn);
    }

    fn on_log_timeout(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        _me: usize,
        seq: u64,
        _txn: TxnId,
    ) {
        let needed = raft_needed(st.cfg.replication.saturating_sub(1) as usize);
        let part = st.part;
        let Some(ct) = st.coord.get_mut(&seq) else {
            return;
        };
        ct.attempts += 1;
        // Every second silent timeout deposes the shard's leader: bump
        // the term and re-route the append to the next group member.
        // (The first timeout retries the same leader — the append or
        // its acks may merely have been lost.)
        let elect = ct.attempts % 2 == 0;
        let CoordTxn { resend, acks, .. } = ct;
        let mut elections = 0u64;
        let mut resends: Vec<(usize, XMsg)> = Vec::new();
        for (dst, s, msg) in resend.iter_mut() {
            let tally = acks.iter().filter(|(_, sh)| sh == s).count();
            if tally >= needed {
                continue;
            }
            if elect {
                if let XMsg::RaftAppend(b) = msg {
                    b.term += 1;
                    *dst = leader_of(&part, *s, b.term);
                    elections += 1;
                }
            }
            resends.push((*dst, msg.clone()));
        }
        st.stats.raft_elections.add(elections);
        rt.trace_instant("Retransmit", seq);
        for (dst, msg) in resends {
            let bytes = msg.wire_bytes();
            rt.send_net(dst, Exec::Nic, msg, bytes);
        }
        arm_phase_timer(st, rt, seq);
    }

    fn after_commit(
        &self,
        st: &mut XenicNode,
        _rt: &mut Runtime<XMsg>,
        me: usize,
        txn: TxnId,
        acks: &FastSet<(u32, u32)>,
        by_shard: &[(u32, WriteSet)],
        track: bool,
        unacked: &mut Vec<(u32, usize, XMsg)>,
    ) {
        if !track {
            // Reliable fabric: the leader's relayed LogReqs are in
            // flight and will land; no catch-up stream needed.
            return;
        }
        // Majority commit leaves laggard followers: register a catch-up
        // append for every backup that had not acked at the commit
        // point. CommitTick retransmits these (and on_restart re-arms
        // them) until each backup's LogResp clears its entry — the
        // leader's original relay usually wins the race, and the
        // backup-side dedup makes the overlap harmless.
        for (shard, writes) in by_shard {
            for b in st.part.backups(*shard) {
                if acks.contains(&(b as u32, *shard)) {
                    continue;
                }
                let msg = XMsg::from(LogReq {
                    txn,
                    shard: *shard,
                    reply_to: me as u32,
                    writes: writes.clone(),
                });
                unacked.push((*shard, b, msg));
            }
        }
    }

    fn evidence_threshold(&self, group: usize) -> usize {
        // Majority commit: a possibly-committed transaction is proven
        // by floor(group/2) backup records (the leader's own copy is
        // the +1 that made the majority).
        group / 2
    }
}

// =====================================================================
// Invalidation-based Hermes-style protocol
// =====================================================================

/// Hermes-style invalidation replication: the append broadcast doubles
/// as an invalidation (backups mark the written keys invalid before
/// logging, and reads of invalid keys refuse until validated), every
/// backup must ack before the commit point, and a post-commit
/// validation broadcast clears the marks. The all-ack quorum is what
/// makes local reads at any valid replica safe — the Hermes trade:
/// higher write latency under faults, read availability everywhere.
pub struct HermesInval;

impl HermesInval {
    /// Handles a [`XMsg::HermesInv`] at a backup: install the invalid
    /// marks, then append + ack exactly like a LogReq.
    pub(crate) fn backup_invalidate(
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        txn: TxnId,
        shard: u32,
        reply_to: u32,
        writes: WriteSet,
    ) {
        // Marks are installed only on the first arrival: a straggler
        // retransmission landing after the validation must not
        // resurrect marks that the (already-consumed) validation would
        // never clear again. The append-side dedup tells first arrivals
        // apart under faults; without faults there are no duplicates.
        let first = !rt.faults_active() || !st.backup_log_acked.contains_key(&(txn, shard));
        if first {
            let mut keys = KeySet::new();
            keys.extend(writes.iter().map(|(k, _, _)| *k));
            st.hermes_invalid.insert((txn, shard), keys);
            st.stats.hermes_invalidations.inc();
        }
        snic_log(st, rt, me, txn, shard, reply_to, writes, false);
    }

    /// Handles a [`XMsg::HermesVal`] at a backup: clear the marks and
    /// (under faults) ack so the coordinator stops retransmitting.
    pub(crate) fn backup_validate(
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        txn: TxnId,
        shard: u32,
    ) {
        if st.hermes_invalid.remove(&(txn, shard)).is_some() {
            st.stats.hermes_validations.inc();
        }
        if rt.faults_active() {
            // Idempotent re-ack: duplicated or retransmitted VALs find
            // nothing to clear but still acknowledge.
            let msg = XMsg::CommitAck {
                txn,
                shard,
                from: st.shard,
            };
            let bytes = msg.wire_bytes();
            rt.send_net(txn.node as usize, Exec::Nic, msg, bytes);
        }
    }

    /// Broadcasts the post-commit validation for `shard` to its
    /// backups, registering retransmittable entries when `track`.
    pub(crate) fn broadcast_validation(
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        txn: TxnId,
        shard: u32,
        track: bool,
        unacked: &mut Vec<(u32, usize, XMsg)>,
    ) {
        for b in st.part.backups(shard) {
            let msg = XMsg::HermesVal { txn, shard };
            if track {
                unacked.push((shard, b, msg.clone()));
            }
            let bytes = msg.wire_bytes();
            rt.send_net(b, Exec::Nic, msg, bytes);
        }
    }
}

impl Replication for HermesInval {
    fn kind(&self) -> ReplBackend {
        ReplBackend::Hermes
    }

    fn name(&self) -> &'static str {
        "Hermes-style invalidation"
    }

    fn begin_log(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        seq: u64,
        txn: TxnId,
        by_shard: Vec<(u32, WriteSet)>,
    ) {
        // Same all-backup fan-out and all-ack quorum as log shipping;
        // the append message doubles as the invalidation.
        let mut sends = Vec::new();
        for (shard, writes) in by_shard {
            for b in st.part.backups(shard) {
                sends.push((b, shard, writes.clone()));
            }
        }
        let fa = rt.faults_active();
        let ct = st.coord.get_mut(&seq).expect("coord exists");
        ct.pending = sends.len();
        if sends.is_empty() {
            finish_commit(st, rt, me, seq, txn);
            return;
        }
        let mut msgs: Vec<(usize, XMsg)> = Vec::with_capacity(sends.len());
        for (backup, shard, writes) in sends {
            let msg = XMsg::from(HermesInv {
                txn,
                shard,
                reply_to: me as u32,
                writes,
            });
            if fa {
                ct.resend.push((backup, shard, msg.clone()));
            }
            msgs.push((backup, msg));
        }
        for (backup, msg) in msgs {
            let bytes = msg.wire_bytes();
            rt.send_net(backup, Exec::Nic, msg, bytes);
        }
        if fa {
            arm_phase_timer(st, rt, seq);
        }
    }

    fn on_log_ack(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        seq: u64,
        txn: TxnId,
        _shard: u32,
    ) {
        all_ack_count(st, rt, me, seq, txn);
    }

    fn on_log_timeout(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        _me: usize,
        seq: u64,
        _txn: TxnId,
    ) {
        resend_unacked(st, rt, seq);
    }

    fn after_commit(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        _me: usize,
        txn: TxnId,
        _acks: &FastSet<(u32, u32)>,
        by_shard: &[(u32, WriteSet)],
        track: bool,
        unacked: &mut Vec<(u32, usize, XMsg)>,
    ) {
        // Validation broadcast: return every backup to the valid state.
        for (shard, _) in by_shard {
            Self::broadcast_validation(st, rt, txn, *shard, track, unacked);
        }
    }

    fn evidence_threshold(&self, group: usize) -> usize {
        // All-ack quorum, same recovery evidence as log shipping.
        group.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_rotates_with_term() {
        let part = Partitioning::new(6, 3);
        // Term 0: the primary leads. Shard 1's group is [1, 2, 3].
        assert_eq!(leader_of(&part, 1, 0), 1);
        assert_eq!(leader_of(&part, 1, 1), 2);
        assert_eq!(leader_of(&part, 1, 2), 3);
        assert_eq!(leader_of(&part, 1, 3), 1);
    }

    #[test]
    fn raft_majority_math() {
        // Group of 3 (leader + 2 followers): 1 follower ack commits.
        assert_eq!(raft_needed(2), 1);
        // Group of 2: the single follower must ack.
        assert_eq!(raft_needed(1), 1);
        // Group of 1: nothing to wait for.
        assert_eq!(raft_needed(0), 0);
    }

    #[test]
    fn evidence_thresholds_match_quorums() {
        assert_eq!(LogShipping.evidence_threshold(3), 2);
        assert_eq!(HermesInval.evidence_threshold(3), 2);
        assert_eq!(RaftCommit.evidence_threshold(3), 1);
        assert_eq!(RaftCommit.evidence_threshold(2), 1);
        assert_eq!(LogShipping.evidence_threshold(1), 0);
        assert_eq!(RaftCommit.evidence_threshold(1), 0);
    }

    #[test]
    fn backend_dispatch_is_total() {
        for k in ReplBackend::ALL {
            assert_eq!(backend(k).kind(), k);
            assert!(!backend(k).name().is_empty());
        }
    }
}
