//! Fault tolerance: reconfiguration and recovery (paper §4.2.1).
//!
//! Xenic adopts FaRM's recovery design, which rests on three properties
//! the engine maintains:
//!
//! 1. lock state lives in exactly one place (the primary's SmartNIC
//!    memory) and can be rebuilt;
//! 2. the host-side hash table holds the same object set a static hash
//!    table would;
//! 3. log records are durable in host memory before any Log/Commit
//!    acknowledgement.
//!
//! This module provides the off-critical-path pieces: a lease-based
//! [`ClusterManager`] (the paper uses ZooKeeper; leases here are tracked
//! in simulated time), and [`recover_shard`], which promotes a backup to
//! primary, reconstructs the shard's table from the backup replica,
//! scans surviving logs for unacknowledged transactions, re-acquires
//! their write locks, and resolves each transaction: fully applied if any
//! surviving replica logged it (it may have been acknowledged), aborted
//! otherwise.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::api::Partitioning;
use crate::engine::XenicNode;
use xenic_sim::SimTime;
use xenic_store::robinhood::{RobinhoodConfig, RobinhoodTable};
use xenic_store::{Key, TxnId, Value, Version, WritePayload};

/// Lease-based membership service (the paper's "typical Zookeeper-based
/// cluster manager": each node holds a lease; expiry triggers
/// reconfiguration).
#[derive(Debug, Default)]
pub struct ClusterManager {
    leases: HashMap<usize, SimTime>,
    lease_ns: u64,
    epoch: u64,
}

impl ClusterManager {
    /// Creates a manager granting leases of `lease_ns`.
    pub fn new(lease_ns: u64) -> Self {
        ClusterManager {
            leases: HashMap::new(),
            lease_ns,
            epoch: 1,
        }
    }

    /// Current configuration epoch (bumped on every reconfiguration).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Node renews its lease at `now`.
    pub fn renew(&mut self, node: usize, now: SimTime) {
        self.leases.insert(node, now + self.lease_ns);
    }

    /// True if `node` holds an unexpired lease at `now`.
    pub fn alive(&self, node: usize, now: SimTime) -> bool {
        self.leases.get(&node).is_some_and(|&exp| exp > now)
    }

    /// Nodes whose leases have expired at `now`.
    pub fn expired(&self, now: SimTime) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .leases
            .iter()
            .filter(|(_, &exp)| exp <= now)
            .map(|(&n, _)| n)
            .collect();
        v.sort_unstable();
        v
    }

    /// Removes a failed node and bumps the epoch.
    pub fn evict(&mut self, node: usize) -> u64 {
        self.leases.remove(&node);
        self.epoch += 1;
        self.epoch
    }
}

/// Outcome of recovering one shard after its primary failed.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The failed primary.
    pub failed: usize,
    /// The backup promoted to primary.
    pub new_primary: usize,
    /// Keys recovered into the new primary table.
    pub keys_recovered: usize,
    /// In-flight transactions found in surviving logs.
    pub recovering_txns: usize,
    /// Of those, transactions applied (logged at a surviving replica).
    pub applied: usize,
    /// Transactions aborted (no surviving evidence of commit).
    pub aborted: usize,
    /// Locks acquired during recovery (all released by the end).
    pub locks_taken: usize,
}

/// Recovers `shard` (whose primary `failed` is gone) onto its first
/// surviving backup, using the surviving nodes' logs and backup replicas.
///
/// `states` are the surviving nodes' engine states, indexed by node id
/// (the failed node's state must not be consulted — pass `None`).
pub fn recover_shard(
    states: &mut [Option<&mut XenicNode>],
    part: &Partitioning,
    failed: usize,
) -> RecoveryReport {
    let shard = failed as u32;
    let new_primary = part
        .backups(shard)
        .find(|&b| states[b].is_some())
        .expect("a surviving backup exists");

    // Step 1: gather the backup replica's data for the shard.
    let replica: BTreeMap<Key, (Value, Version)> = {
        let node = states[new_primary].as_ref().expect("survivor");
        node.backups
            .get(&shard)
            .map(|m| m.iter().map(|(k, v)| (*k, v.clone())).collect())
            .unwrap_or_default()
    };

    // Step 2: scan every surviving log for unacknowledged records that
    // touch the failed shard — these transactions are in flight.
    let mut recovering: BTreeMap<TxnId, Vec<(Key, WritePayload, Version)>> = BTreeMap::new();
    let mut evidence: HashSet<TxnId> = HashSet::new();
    for st in states.iter().flatten() {
        for entry in st.log.unacked() {
            if entry.shard != shard {
                continue;
            }
            evidence.insert(entry.txn);
            recovering
                .entry(entry.txn)
                .or_insert_with(|| entry.writes.to_vec());
        }
    }

    // Step 3: rebuild the primary table at the new primary.
    let keys_recovered = replica.len();
    let capacity = (keys_recovered * 100 / 65).max(1024);
    let value_bytes = {
        let node = states[new_primary].as_ref().expect("survivor");
        node.host_table.slot_bytes().saturating_sub(24)
    };
    let mut table = RobinhoodTable::new(RobinhoodConfig {
        capacity,
        displacement_limit: Some(8),
        segment_slots: 8,
        inline_cap: 256,
        slot_value_bytes: value_bytes,
    });
    for (k, (v, ver)) in &replica {
        table.insert_versioned(*k, v.clone(), *ver);
    }

    // Step 4: re-acquire locks for every recovering transaction's
    // write-set keys at the new primary — "once all locks are set, the
    // shard can serve new transactions."
    let node = states[new_primary].as_mut().expect("survivor");
    node.host_table = table;
    let segs = node.host_table.segments();
    let mut fresh_index = xenic_store::nic_index::NicIndex::new(
        xenic_store::nic_index::NicIndexConfig {
            segments: segs,
            max_cached_values: node.cfg.nic_cache_values,
            slack_k: 1,
        },
    );
    for seg in 0..segs {
        fresh_index.set_hint(
            seg,
            node.host_table.seg_max_disp(seg),
            node.host_table.seg_has_overflow(seg),
        );
    }
    // The ordered mirror is rebuilt from the replica like the table, or
    // every range walk on the promoted shard would see an empty index and
    // every lock on an existing key would register an insert sentinel.
    for (k, (_, ver)) in &replica {
        fresh_index.preload_ordered(*k, *ver);
    }
    node.nic_index = fresh_index;
    let mut locks_taken = 0;
    for (txn, writes) in &recovering {
        for (k, _, _) in writes {
            let seg = node.host_table.segment_of_key(*k);
            if node.nic_index.try_lock(seg, *k, *txn) {
                locks_taken += 1;
            }
        }
    }

    // Step 5: resolve each recovering transaction. A transaction whose
    // record survives in any replica's log may have been acknowledged to
    // the application, so it must be applied everywhere; with no
    // surviving record it cannot have been acknowledged and is aborted.
    // (All recovering txns here have surviving records by construction;
    // the abort path exists for records that fail integrity checks —
    // modeled as records with an empty write set.)
    let mut applied = 0;
    let mut aborted = 0;
    for (txn, writes) in &recovering {
        let commit = evidence.contains(txn) && !writes.is_empty();
        if commit {
            for (k, p, ver) in writes {
                let current_ver = node.host_table.get(*k).map(|(_, cv)| cv).unwrap_or(0);
                if *ver > current_ver {
                    match node.host_table.get(*k) {
                        Some((current, _)) => {
                            let new_value = p.apply(current);
                            node.host_table.update(*k, new_value, *ver);
                        }
                        None => {
                            node.host_table.insert_versioned(*k, p.apply_absent(), *ver);
                        }
                    }
                    // Mirror the applied version (promoting the sentinel
                    // step 4's lock registered if the key is new).
                    node.nic_index.preload_ordered(*k, *ver);
                }
            }
            applied += 1;
        } else {
            aborted += 1;
        }
        for (k, _, _) in writes {
            let seg = node.host_table.segment_of_key(*k);
            node.nic_index.unlock(seg, *k, *txn);
        }
    }

    RecoveryReport {
        failed,
        new_primary,
        keys_recovered,
        recovering_txns: recovering.len(),
        applied,
        aborted,
        locks_taken,
    }
}

/// Outcome of resolving a failed *coordinator*'s in-flight transactions.
#[derive(Debug, Default)]
pub struct CoordinatorRecovery {
    /// Transactions found holding locks or logged but unresolved.
    pub orphaned: usize,
    /// Of those, committed (log records present at every backup of every
    /// written shard — the coordinator may already have acknowledged).
    pub committed: usize,
    /// Aborted (incomplete log evidence: cannot have been acknowledged).
    pub aborted: usize,
    /// Locks released across the cluster.
    pub locks_released: usize,
}

/// Resolves transactions coordinated by a failed node (§4.2.1's other
/// half: the paper's replicas "communicate to ensure each recovering
/// transaction is either aborted or fully applied").
///
/// Evidence rule (FaRM's, generalized per backend): a transaction
/// reaches its Log phase only after validation succeeds, and the
/// coordinator acknowledges commit only after its replication backend's
/// quorum logged. So:
///
/// * at least `Replication::evidence_threshold` records
///   at every written shard → the outcome may have been observable →
///   commit everywhere;
/// * anything less → it cannot have been acknowledged → abort and
///   release its locks.
///
/// For the all-ack backends (log shipping, Hermes) the threshold is
/// every backup; for the Raft-style backend it is the majority that
/// committed — fewer surviving records than backups can still prove a
/// commit, which is exactly why its laggard catch-up stream must keep
/// running after the commit point.
pub fn recover_coordinator(
    states: &mut [Option<&mut XenicNode>],
    part: &Partitioning,
    failed_coord: usize,
) -> CoordinatorRecovery {
    let mut report = CoordinatorRecovery::default();
    // All nodes of a cluster share one config; any survivor knows the
    // backend whose quorum rule the evidence must be judged against.
    let backend = crate::repl::backend(
        states
            .iter()
            .flatten()
            .next()
            .map(|st| st.cfg.replication_backend)
            .unwrap_or(crate::config::ReplBackend::LogShipping),
    );

    // Gather evidence: which (txn, shard) pairs have backup log records,
    // and each txn's write set per shard.
    use std::collections::HashMap as Map;
    let mut logged_at: Map<(TxnId, u32), usize> = Map::new();
    let mut writes_of: BTreeMap<TxnId, Map<u32, crate::msg::WriteSet>> = BTreeMap::new();
    for st in states.iter().flatten() {
        for entry in st.log.unacked() {
            if entry.txn.node as usize != failed_coord {
                continue;
            }
            *logged_at.entry((entry.txn, entry.shard)).or_default() += 1;
            writes_of
                .entry(entry.txn)
                .or_default()
                .entry(entry.shard)
                .or_insert_with(|| entry.writes.to_vec());
        }
    }
    // Locks held for the failed coordinator's transactions.
    let mut locked: BTreeMap<TxnId, Vec<(usize, Key)>> = BTreeMap::new();
    for (node, st) in states.iter().enumerate() {
        let Some(st) = st else { continue };
        for (k, t) in st.nic_index.held_locks() {
            if t.node as usize == failed_coord {
                locked.entry(t).or_default().push((node, k));
            }
        }
    }

    let mut txns: Vec<TxnId> = writes_of.keys().copied().collect();
    for t in locked.keys() {
        if !txns.contains(t) {
            txns.push(*t);
        }
    }
    txns.sort();

    for txn in txns {
        report.orphaned += 1;
        let full_evidence = writes_of.get(&txn).is_some_and(|shards| {
            !shards.is_empty()
                && shards.iter().all(|(shard, _)| {
                    let group = part.backups(*shard).len() + 1;
                    let needed = backend.evidence_threshold(group);
                    logged_at.get(&(txn, *shard)).copied().unwrap_or(0) >= needed
                })
        });
        if full_evidence {
            // Commit: apply the writes at every surviving primary.
            for (shard, writes) in writes_of.get(&txn).expect("evidence implies writes") {
                let primary = part.primary(*shard);
                let Some(node) = states[primary].as_mut() else {
                    continue;
                };
                for (k, p, ver) in writes {
                    let current_ver = node.host_table.get(*k).map(|(_, v)| v).unwrap_or(0);
                    if *ver > current_ver {
                        match node.host_table.get(*k) {
                            Some((current, _)) => {
                                let new_value = p.apply(current);
                                node.host_table.update(*k, new_value, *ver);
                            }
                            None => {
                                node.host_table.insert_versioned(*k, p.apply_absent(), *ver);
                            }
                        }
                    }
                }
            }
            report.committed += 1;
        } else {
            report.aborted += 1;
        }
        // Either way: release the orphaned locks.
        if let Some(holds) = locked.get(&txn) {
            for (node, k) in holds {
                if let Some(st) = states[*node].as_mut() {
                    let seg = st.host_table.segment_of_key(*k);
                    st.nic_index.unlock(seg, *k, txn);
                    report.locks_released += 1;
                }
            }
        }
    }
    report
}

/// Audits that a recovered shard state is consistent with the surviving
/// replicas: every key present in a survivor's backup map must be present
/// at the new primary with a version at least as new.
pub fn audit_recovery(
    states: &[Option<&XenicNode>],
    part: &Partitioning,
    failed: usize,
    new_primary: usize,
) -> Result<(), String> {
    let shard = failed as u32;
    let primary = states[new_primary].ok_or("new primary missing")?;
    for (node_id, st) in states.iter().enumerate() {
        let Some(st) = st else { continue };
        if node_id == new_primary || !part.backups(shard).any(|b| b == node_id) {
            continue;
        }
        let Some(map) = st.backups.get(&shard) else {
            continue;
        };
        for (k, (_, ver)) in map {
            match primary.host_table.get(*k) {
                None => return Err(format!("key {k} lost in recovery")),
                Some((_, pver)) if pver < *ver => {
                    return Err(format!(
                        "key {k} regressed: primary v{pver} < backup v{ver}"
                    ));
                }
                _ => {}
            }
        }
    }
    // All recovery locks must be released.
    if !primary.nic_index.held_locks().is_empty() {
        return Err("locks left held after recovery".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{make_key, Partitioning, ShipMode, TxnSpec, UpdateOp, Workload};
    use crate::config::XenicConfig;
    use crate::engine::{Xenic, XenicNode};
    use crate::msg::XMsg;
    use xenic_hw::HwParams;
    use xenic_net::{Cluster, Exec, NetConfig};
    use xenic_sim::DetRng;

    struct Wl {
        n: u64,
    }

    impl Workload for Wl {
        fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
            let other = (node + 1) % 6;
            TxnSpec {
                reads: vec![make_key(node as u32, rng.below(self.n))],
                updates: vec![(
                    make_key(other as u32, rng.below(self.n)),
                    UpdateOp::AddI64(1),
                )],
                inserts: vec![],
                exec_host_ns: 150,
                exec_nic_ns: 500,
                ship: ShipMode::Nic,
                ..Default::default()
            }
        }

        fn value_bytes(&self) -> u32 {
            12
        }

        fn preload(&self, shard: u32) -> Vec<(Key, Value)> {
            (0..self.n)
                .map(|i| (make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes())))
                .collect()
        }
    }

    #[test]
    fn lease_lifecycle() {
        let mut cm = ClusterManager::new(10_000);
        cm.renew(0, SimTime::ZERO);
        cm.renew(1, SimTime::ZERO);
        assert!(cm.alive(0, SimTime::from_ns(5_000)));
        assert!(!cm.alive(0, SimTime::from_ns(10_000)));
        assert_eq!(cm.expired(SimTime::from_ns(10_000)), vec![0, 1]);
        cm.renew(1, SimTime::from_ns(9_000));
        assert_eq!(cm.expired(SimTime::from_ns(10_000)), vec![0]);
        let e0 = cm.epoch();
        let e1 = cm.evict(0);
        assert_eq!(e1, e0 + 1);
        assert!(!cm.alive(0, SimTime::ZERO));
    }

    fn run_cluster_and_fail_node(fail: usize) -> (Cluster<Xenic>, usize) {
        let params = HwParams::paper_testbed();
        let part = Partitioning::new(6, 3);
        let cfg = XenicConfig::full();
        let mut cluster: Cluster<Xenic> = Cluster::new(params, NetConfig::full(), 5, |node| {
            XenicNode::new(node, cfg, part, Box::new(Wl { n: 500 }), 4)
        });
        for node in 0..6 {
            for slot in 0..4 {
                cluster.seed(
                    SimTime::from_ns(slot as u64 * 89),
                    node,
                    Exec::Host,
                    XMsg::StartTxn { slot: slot as u32 },
                );
            }
        }
        // Run mid-workload, then freeze and "fail" the node.
        cluster.run_until(SimTime::from_ms(3));
        let committed: u64 = cluster
            .states
            .iter()
            .map(|s| s.stats.committed_all.get())
            .sum();
        let _ = committed;
        let mut refs: Vec<Option<&mut XenicNode>> = cluster
            .states
            .iter_mut()
            .enumerate()
            .map(|(i, s)| if i == fail { None } else { Some(s) })
            .collect();
        let report = recover_shard(&mut refs, &part, fail);
        assert_eq!(report.failed, fail);
        assert_ne!(report.new_primary, fail);
        assert!(
            report.keys_recovered >= 500,
            "recovered {} keys",
            report.keys_recovered
        );
        assert_eq!(report.applied + report.aborted, report.recovering_txns);
        // Audit: no committed data lost, no stuck locks.
        let ro: Vec<Option<&XenicNode>> = cluster
            .states
            .iter()
            .enumerate()
            .map(|(i, s)| if i == fail { None } else { Some(s) })
            .collect();
        audit_recovery(&ro, &part, fail, report.new_primary).expect("audit");
        (cluster, report.new_primary)
    }

    /// The promoted primary's ordered mirror must be rebuilt with the
    /// table: a fresh (empty) mirror makes every scan of the recovered
    /// shard return zero rows — with matching Validate fingerprints —
    /// and turns every lock on an existing key into a bogus insert.
    #[test]
    fn failover_rebuilds_the_ordered_mirror() {
        let (mut cluster, new_primary) = run_cluster_and_fail_node(2);
        let node = &mut cluster.states[new_primary];
        let mut want: Vec<(Key, Option<Version>)> = node
            .host_table
            .iter_keys()
            .map(|(k, ver)| (k, Some(ver)))
            .collect();
        want.sort_unstable();
        assert!(want.len() >= 500);
        let mut rows = Vec::new();
        node.nic_index.range_walk(0, Key::MAX, None, &mut |k, v| {
            rows.push((k, v));
            true
        });
        assert_eq!(rows.len(), want.len(), "rows walked vs keys in the table");
        assert!(rows == want, "walked versions differ from the host table's");
        assert!(
            rows.iter().any(|(_, v)| *v > Some(1)),
            "the run committed writes to the failed shard before the failover"
        );
        // Locking a pre-existing key is an update, not an insert.
        let k = make_key(2, 7);
        let seg = node.host_table.segment_of_key(k);
        let txn = TxnId::new(0, u64::MAX);
        assert!(node.nic_index.try_lock(seg, k, txn));
        assert_eq!(node.nic_index.pending_insert_owner(k), None);
        node.nic_index.unlock(seg, k, txn);
        assert_eq!(node.nic_index.ordered_len(), want.len());
    }

    #[test]
    fn primary_failover_preserves_data() {
        run_cluster_and_fail_node(2);
    }

    #[test]
    fn failover_of_node_zero() {
        run_cluster_and_fail_node(0);
    }

    #[test]
    fn coordinator_failure_resolves_orphans() {
        // Craft a cluster where a "failed" coordinator (node 5) left:
        //  (a) txn A: fully logged at both backups of shard 1 + locked →
        //      must COMMIT and unlock;
        //  (b) txn B: logged at only one backup → must ABORT and unlock.
        let params = HwParams::paper_testbed();
        let part = Partitioning::new(6, 3);
        let cfg = XenicConfig::full();
        let mut cluster: Cluster<Xenic> = Cluster::new(params, NetConfig::full(), 9, |node| {
            XenicNode::new(node, cfg, part, Box::new(Wl { n: 100 }), 1)
        });
        let txn_a = TxnId::new(5, 100);
        let txn_b = TxnId::new(5, 101);
        let ka = make_key(1, 10);
        let kb = make_key(1, 11);
        let wa = vec![(ka, WritePayload::AddI64(7), 2u64)];
        let wb = vec![(kb, WritePayload::AddI64(9), 2u64)];
        // Shard 1's backups are nodes 2 and 3.
        cluster.states[2]
            .log
            .append(txn_a, xenic_store::log::LogKind::Backup, 1, wa.clone())
            .unwrap();
        cluster.states[3]
            .log
            .append(txn_a, xenic_store::log::LogKind::Backup, 1, wa)
            .unwrap();
        cluster.states[2]
            .log
            .append(txn_b, xenic_store::log::LogKind::Backup, 1, wb)
            .unwrap();
        // Both txns hold locks at shard 1's primary (node 1).
        let seg_a = cluster.states[1].host_table.segment_of_key(ka);
        let seg_b = cluster.states[1].host_table.segment_of_key(kb);
        assert!(cluster.states[1].nic_index.try_lock(seg_a, ka, txn_a));
        assert!(cluster.states[1].nic_index.try_lock(seg_b, kb, txn_b));

        let mut refs: Vec<Option<&mut XenicNode>> = cluster
            .states
            .iter_mut()
            .enumerate()
            .map(|(i, s)| if i == 5 { None } else { Some(s) })
            .collect();
        let report = recover_coordinator(&mut refs, &part, 5);
        assert_eq!(report.orphaned, 2);
        assert_eq!(report.committed, 1);
        assert_eq!(report.aborted, 1);
        assert_eq!(report.locks_released, 2);
        // Txn A's write applied at the primary; txn B's not.
        let (va, ver_a) = cluster.states[1].host_table.get(ka).unwrap();
        assert_eq!(ver_a, 2);
        assert_eq!(i64::from_le_bytes(va.bytes()[..8].try_into().unwrap()), 7);
        let (_, ver_b) = cluster.states[1].host_table.get(kb).unwrap();
        assert_eq!(ver_b, 1, "aborted txn must not apply");
        assert!(cluster.states[1].nic_index.held_locks().is_empty());
    }

    #[test]
    fn recovery_resolves_in_flight_txns() {
        // Directly exercise the in-flight resolution path: craft logs by
        // hand on a small cluster.
        let params = HwParams::paper_testbed();
        let part = Partitioning::new(6, 3);
        let cfg = XenicConfig::full();
        let mut cluster: Cluster<Xenic> = Cluster::new(params, NetConfig::full(), 9, |node| {
            XenicNode::new(node, cfg, part, Box::new(Wl { n: 100 }), 1)
        });
        // Shard 1's backups are nodes 2 and 3. Append an unacked backup
        // record at node 2 for a txn writing shard 1.
        let txn = TxnId::new(5, 1000);
        let k = make_key(1, 7);
        let writes = vec![(
            k,
            WritePayload::Full(Value::from_bytes(&99i64.to_le_bytes())),
            5u64,
        )];
        cluster.states[2]
            .log
            .append(txn, xenic_store::log::LogKind::Backup, 1, writes)
            .unwrap();
        let mut refs: Vec<Option<&mut XenicNode>> = cluster
            .states
            .iter_mut()
            .enumerate()
            .map(|(i, s)| if i == 1 { None } else { Some(s) })
            .collect();
        let report = recover_shard(&mut refs, &part, 1);
        assert_eq!(report.new_primary, 2);
        assert_eq!(report.recovering_txns, 1);
        assert_eq!(report.applied, 1);
        assert!(report.locks_taken >= 1);
        // The recovered write must be visible at the new primary.
        let (v, ver) = cluster.states[2].host_table.get(k).expect("key exists");
        assert_eq!(ver, 5);
        assert_eq!(i64::from_le_bytes(v.bytes()[..8].try_into().unwrap()), 99);
        assert!(cluster.states[2].nic_index.held_locks().is_empty());
    }
}
