//! Pluggable NIC-resident replication backends (DESIGN.md §15).
//!
//! The engine's Log phase — everything between "validation passed, the
//! write set is final" and "the commit point is reached" — is owned by a
//! `Replication` backend. "Reliable Replication Protocols on
//! SmartNICs" argues the replication protocol itself belongs on the NIC
//! beside the transaction logic; this module makes the protocol a
//! configuration axis rather than hard-coded machinery, with three
//! implementations charged identical `xenic-hw` NIC-core/DMA/verb costs:
//!
//! * `LogShipping` — Xenic's native scheme (§4.2 step 5): fan appends
//!   to every backup of every written shard, commit when all ack.
//! * `RaftCommit` — leader-based commit: term-tagged appends route
//!   through the shard group's leader, which relays to followers; the
//!   coordinator commits on a **majority** of backup acks, re-elects
//!   (bumps the term) when the leader goes quiet, and keeps laggard
//!   replicas convergent with a post-commit catch-up stream.
//! * `HermesInval` — invalidation-based: appends double as broadcast
//!   invalidations (reads of an invalid key refuse until validation),
//!   every backup must ack, and a post-commit validation broadcast
//!   returns replicas to the valid state.
//!
//! # The trait contract
//!
//! **What the engine guarantees the backend:** `begin_log` is called
//! exactly once per transaction, after Validate succeeded, with the
//! coordinator context in `Phase::Log`, nothing pending, cleared ack
//! state, and the write set grouped by ascending shard in
//! `CoordTxn::by_shard` (the CommitReq fan-out reuses those groups, so
//! appends share them by reference count). `on_log_ack` is called only
//! for acks that passed the phase gate and the `(from, shard)` dedup.
//! `on_log_timeout` is called only while the transaction is still in
//! `Phase::Log` (epoch-checked); the engine re-arms the timer after it.
//! `after_commit` is called at the commit point, before the CommitReq
//! fan-out, with the final ack set. On crash/restart the engine re-arms
//! a phase timer for every in-flight Log-phase transaction and a
//! CommitTick for every registered post-commit entry, and re-primes
//! backup-append dedup from the durable log — backends need no restart
//! hook of their own as long as all their retransmittable state lives
//! in `CoordTxn::round` and `XenicNode::committing`.
//!
//! **What the backend must guarantee recovery:** once the backend
//! reports the commit point, enough replicas must hold the log record
//! that `Replication::evidence_threshold` surviving records prove the
//! transaction (coordinator recovery re-commits on that evidence), and
//! the backend must drive every remaining replica of every written
//! shard to convergence — by refusing to commit before all acks
//! (log shipping, Hermes) or by registering catch-up retransmissions
//! for laggards (Raft). The backend may never walk a commit back.

use xenic_net::Runtime;
use xenic_store::TxnId;

use crate::api::Partitioning;
use crate::config::{ReplBackend, Weakening};
use crate::engine::{
    append_to_backups, appends_sent, count_ack, send, snic_log, Awaits, CoordTxn, InFlight, Phase,
    Round, XenicNode,
};
use crate::msg::{KeySet, LogReq, MsgBox, RaftAppend, SharedWrites, XMsg};
use std::sync::Arc;

/// A NIC-resident replication protocol owning the Log phase end to end.
///
/// Implementations are stateless unit structs — all per-transaction
/// state lives in the engine's `CoordTxn` (tracked sends, ack set) and
/// per-node maps (`raft_terms`, `hermes_invalid`), which crash recovery
/// already knows how to re-prime. The provided methods are the all-ack
/// protocol shared by log shipping and Hermes: fan an append to every
/// backup of every written shard, count every ack, resend what was not
/// acked.
pub(crate) trait Replication {
    /// The message that makes one backup log `writes` for `shard` and
    /// acknowledge `reply_to` (also what the local fast path, which
    /// replicates to every backup under every backend, sends).
    fn append(&self, txn: TxnId, shard: u32, reply_to: u32, writes: SharedWrites) -> XMsg {
        XMsg::from(LogReq {
            txn,
            shard,
            reply_to,
            writes,
        })
    }

    /// Starts the Log phase: send the protocol's append messages for
    /// `CoordTxn::by_shard`, count in `CoordTxn::pending` the acks that
    /// reach the commit point, track retransmittable sends when faults
    /// are active, and finish with `appends_sent` (which arms the phase
    /// timer, or commits directly when nothing needs replicating —
    /// replication factor 1).
    fn begin_log(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        seq: u64,
        txn: TxnId,
    ) {
        let CoordTxn {
            by_shard,
            round,
            pending,
            ..
        } = st.coord.get_mut(&seq).expect("coord exists");
        for (shard, writes) in by_shard.iter() {
            append_to_backups(round, pending, rt, &st.part, *shard, || {
                self.append(txn, *shard, me as u32, Arc::clone(writes))
            });
        }
        appends_sent(st, rt, me, seq);
    }

    /// A counted (deduplicated, phase-gated) Log ack from a backup for
    /// `shard` arrived; decide whether it advances the quorum and reach
    /// the commit point at zero pending.
    fn on_log_ack(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        seq: u64,
        _shard: u32,
    ) {
        count_ack(st, rt, me, seq);
    }

    /// The Log-phase retransmission timer fired (faults active, epoch
    /// current): resend whatever the quorum is still missing. Log-phase
    /// messages are never abandoned — a backup may already have logged.
    fn on_log_timeout(&self, st: &mut XenicNode, rt: &mut Runtime<XMsg>, seq: u64) {
        st.coord[&seq].round.retransmit(rt, seq, |e| !e.heard);
    }

    /// The commit point was reached: push any post-commit protocol
    /// traffic. Called before the CommitReq fan-out with the concluding
    /// context (final ack set, grouped write set); sends tracked in
    /// `unacked` are retransmitted by CommitTick until a matching ack
    /// clears them (and re-armed across coordinator crashes). `track` is
    /// false when faults are inactive or the quorum is (test-only)
    /// weakened.
    fn after_commit(
        &self,
        _st: &mut XenicNode,
        _rt: &mut Runtime<XMsg>,
        _txn: TxnId,
        _ct: &CoordTxn,
        _track: bool,
        _unacked: &mut Round,
    ) {
        // All backups acked before the commit point; the CommitReq
        // fan-out (engine-generic) is the only post-commit traffic.
    }

    /// Minimum number of surviving backup log records that prove a
    /// transaction may have committed, for a shard group of `group`
    /// replicas (primary + backups). Coordinator recovery re-commits a
    /// transaction with this much evidence at every written shard and
    /// discards anything below it.
    fn evidence_threshold(&self, group: usize) -> usize {
        // Commit required every backup's ack, so a possibly-committed
        // transaction left a record at all `group - 1` backups.
        group.saturating_sub(1)
    }
}

/// Returns the backend singleton for a config token.
pub(crate) fn backend(kind: ReplBackend) -> &'static dyn Replication {
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
    let mut group = part.replicas(shard);
    let at = term as usize % group.len();
    group.nth(at).expect("term wraps within the group")
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
/// must append and ack before the commit point — the trait's provided
/// protocol, unmodified.
pub(crate) struct LogShipping;

impl Replication for LogShipping {}

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
pub(crate) struct RaftCommit;

/// The shard and append body of a tracked [`XMsg::RaftAppend`].
fn tracked_append(e: &mut InFlight) -> Option<(u32, &mut RaftAppend)> {
    match (e.awaits, &mut e.msg) {
        (Awaits::Ack { shard, .. }, XMsg::RaftAppend(b)) => Some((shard, &mut **b)),
        _ => None,
    }
}

impl RaftCommit {
    /// Handles a [`XMsg::RaftAppend`] at the (supposed) leader.
    pub(crate) fn leader_append(
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        append: RaftAppend,
    ) {
        let RaftAppend {
            txn,
            shard,
            term,
            reply_to,
            writes,
        } = append;
        let cur = st.raft_terms.get(&shard).copied().unwrap_or(0);
        if term < cur {
            // Stale term: refuse, tell the coordinator the current one.
            send(rt, reply_to as usize, XMsg::RaftNack { txn, shard, term: cur });
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
            let relay = LogReq {
                txn,
                shard,
                reply_to,
                writes: Arc::clone(&writes),
            };
            if b == me {
                // A deposed-primary era can elect a backup leader: its
                // own append is local. The primary itself is never a
                // follower of its own shard, so a term-0 leader (the
                // primary) never self-appends — it installs the record
                // at CommitReq like every primary.
                snic_log(st, rt, relay, false);
            } else {
                send(rt, b, relay.into());
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
        let Some(ct) = st.coord.get_mut(&txn.seq) else {
            return;
        };
        if ct.phase != Phase::Log {
            return;
        }
        for e in ct.round.0.iter_mut() {
            match tracked_append(e) {
                Some((s, b)) if s == shard && term > b.term => b.term = term,
                _ => continue,
            }
            e.dst = leader_of(&st.part, shard, term);
            send(rt, e.dst, e.msg.clone());
        }
    }
}

impl Replication for RaftCommit {
    fn begin_log(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        seq: u64,
        txn: TxnId,
    ) {
        // TEST ONLY (`Weakening::Quorum`): treat the quorum as already
        // satisfied — commit before any follower acked, and skip the
        // retransmission registration that would keep the appends and
        // CommitReqs alive under loss. The serial_fuzz negative
        // self-test proves the DSG checker rejects the result.
        let weakened = st.cfg.weaken == Some(Weakening::Quorum);
        let track = rt.faults_active() && !weakened;
        let ct = st.coord.get_mut(&seq).expect("coord exists");
        for (shard, writes) in ct.by_shard.iter() {
            let needed = raft_needed(st.part.backups(*shard).len());
            if needed == 0 {
                // Replication factor 1: no followers to replicate to.
                continue;
            }
            ct.pending += needed;
            let dst = leader_of(&st.part, *shard, 0);
            let msg = XMsg::from(RaftAppend {
                txn,
                shard: *shard,
                term: 0,
                reply_to: me as u32,
                writes: Arc::clone(writes),
            });
            if track {
                let awaits = Awaits::Ack {
                    from: dst as u32,
                    shard: *shard,
                };
                ct.round.track(awaits, dst, msg.clone());
            }
            send(rt, dst, msg);
        }
        if weakened {
            ct.pending = 0;
        }
        appends_sent(st, rt, me, seq);
    }

    fn on_log_ack(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        me: usize,
        seq: u64,
        shard: u32,
    ) {
        let needed = raft_needed(st.cfg.replication.saturating_sub(1) as usize);
        // The ack was just inserted into `acks`; count this shard's
        // tally and ignore acks beyond its majority (they still shrink
        // the post-commit catch-up set via the ack set itself).
        let tally = st.coord[&seq].acks.iter().filter(|(_, s)| *s == shard).count();
        if tally <= needed {
            count_ack(st, rt, me, seq);
        }
    }

    fn on_log_timeout(&self, st: &mut XenicNode, rt: &mut Runtime<XMsg>, seq: u64) {
        let needed = raft_needed(st.cfg.replication.saturating_sub(1) as usize);
        let ct = st.coord.get_mut(&seq).expect("coord exists");
        ct.attempts += 1;
        let CoordTxn { round, acks, .. } = ct;
        let behind = |shard: u32| acks.iter().filter(|(_, s)| *s == shard).count() < needed;
        // Every second silent timeout deposes the shard's leader: bump
        // the term and re-route the append to the next group member.
        // (The first timeout retries the same leader — the append or
        // its acks may merely have been lost.)
        if ct.attempts.is_multiple_of(2) {
            for e in round.0.iter_mut() {
                if let Some((shard, b)) = tracked_append(e).filter(|(s, _)| behind(*s)) {
                    b.term += 1;
                    e.dst = leader_of(&st.part, shard, b.term);
                    st.stats.raft_elections.inc();
                }
            }
        }
        round.retransmit(rt, seq, |e| matches!(e.awaits, Awaits::Ack { shard, .. } if behind(shard)));
    }

    fn after_commit(
        &self,
        st: &mut XenicNode,
        _rt: &mut Runtime<XMsg>,
        txn: TxnId,
        ct: &CoordTxn,
        track: bool,
        unacked: &mut Round,
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
        for (shard, writes) in &ct.by_shard {
            for b in st.part.backups(*shard) {
                let from = b as u32;
                if !ct.acks.contains(&(from, *shard)) {
                    let msg = self.append(txn, *shard, txn.node, Arc::clone(writes));
                    unacked.track(Awaits::Ack { from, shard: *shard }, b, msg);
                }
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
/// backup must ack before the commit point (the trait's provided
/// all-ack protocol), and a post-commit validation broadcast clears the
/// marks. The all-ack quorum is what makes local reads at any valid
/// replica safe — the Hermes trade: higher write latency under faults,
/// read availability everywhere.
pub(crate) struct HermesInval;

impl HermesInval {
    /// Handles a [`XMsg::HermesInv`] at a backup: install the invalid
    /// marks, then append + ack exactly like a LogReq.
    pub(crate) fn backup_invalidate(st: &mut XenicNode, rt: &mut Runtime<XMsg>, inv: LogReq) {
        let (txn, shard) = (inv.txn, inv.shard);
        // Marks are installed only on the first arrival: a straggler
        // retransmission landing after the validation must not
        // resurrect marks that the (already-consumed) validation would
        // never clear again. The append-side dedup tells first arrivals
        // apart under faults; without faults there are no duplicates.
        let first = !rt.faults_active() || !st.backup_log_acked.contains_key(&(txn, shard));
        if first {
            let mut keys = KeySet::new();
            keys.extend(inv.writes.iter().map(|(k, _, _)| *k));
            st.hermes_invalid.insert((txn, shard), keys);
            st.stats.hermes_invalidations.inc();
        }
        snic_log(st, rt, inv, false);
    }

    /// Handles a [`XMsg::HermesVal`] at a backup: clear the marks and
    /// (under faults) ack so the coordinator stops retransmitting.
    pub(crate) fn backup_validate(
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        txn: TxnId,
        shard: u32,
    ) {
        st.hermes_invalid.remove(&(txn, shard));
        if rt.faults_active() {
            // Idempotent re-ack: duplicated or retransmitted VALs find
            // nothing to clear but still acknowledge.
            let from = st.shard;
            send(rt, txn.node as usize, XMsg::CommitAck { txn, shard, from });
        }
    }

    /// Broadcasts the post-commit validation for `shard` to its
    /// backups, tracking each in `unacked` when `track`.
    pub(crate) fn broadcast_validation(
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        txn: TxnId,
        shard: u32,
        track: bool,
        unacked: &mut Round,
    ) {
        for b in st.part.backups(shard) {
            let msg = XMsg::HermesVal { txn, shard };
            if track {
                let from = b as u32;
                unacked.track(Awaits::Ack { from, shard }, b, msg.clone());
            }
            send(rt, b, msg);
        }
    }
}

impl Replication for HermesInval {
    /// The append doubles as the invalidation.
    fn append(&self, txn: TxnId, shard: u32, reply_to: u32, writes: SharedWrites) -> XMsg {
        XMsg::HermesInv(MsgBox::new(LogReq {
            txn,
            shard,
            reply_to,
            writes,
        }))
    }

    fn after_commit(
        &self,
        st: &mut XenicNode,
        rt: &mut Runtime<XMsg>,
        txn: TxnId,
        ct: &CoordTxn,
        track: bool,
        unacked: &mut Round,
    ) {
        // Validation broadcast: return every backup to the valid state.
        for (shard, _) in &ct.by_shard {
            Self::broadcast_validation(st, rt, txn, *shard, track, unacked);
        }
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
        // Each token reaches its own protocol: only Hermes appends with
        // an invalidation, only Raft commits on a majority.
        for k in ReplBackend::ALL {
            let append = backend(k).append(TxnId::new(0, 1), 0, 0, SharedWrites::default());
            assert_eq!(matches!(append, XMsg::HermesInv(_)), k == ReplBackend::Hermes);
            assert_eq!(backend(k).evidence_threshold(3) == 1, k == ReplBackend::Raft);
        }
    }
}
