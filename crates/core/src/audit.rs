//! Reusable whole-cluster correctness audits.
//!
//! These checks back the strongest end-to-end tests in the repository:
//! after quiescing a cluster ([`crate::harness::drain`]), a serializable
//! history must leave the cluster in a state these functions accept. They are deliberately
//! *exact* — any lost, doubled, or phantom write fails them.

use crate::api::Partitioning;
use crate::engine::XenicNode;
use xenic_store::{Key, TxnId};

/// Sums the leading `i64` counter of every key at every primary.
///
/// For workloads whose committed effects are balanced `AddI64` deltas
/// plus `n` unit increments, the sum must equal `n` exactly. (Wrapping:
/// under any other workload the leading bytes are not counters and the
/// sum means nothing, but [`full_audit`] still has to survive it.)
pub fn counter_sum(states: &[XenicNode]) -> i64 {
    let mut sum = 0i64;
    for st in states {
        for (k, _) in st.host_table.iter_keys() {
            if let Some((v, _)) = st.host_table.get(k) {
                let mut bytes = [0u8; 8];
                let n = v.bytes().len().min(8);
                bytes[..n].copy_from_slice(&v.bytes()[..n]);
                sum = sum.wrapping_add(i64::from_le_bytes(bytes));
            }
        }
    }
    sum
}

/// Total committed transactions (metric or not) across the cluster.
pub fn total_committed(states: &[XenicNode]) -> u64 {
    states.iter().map(|s| s.stats.committed_all.get()).sum()
}

/// Checks that every backup replica byte-equals its primary. Returns the
/// number of `(backup, key)` pairs verified.
pub fn replicas_converged(states: &[XenicNode], part: &Partitioning) -> Result<usize, String> {
    let mut checked = 0;
    for shard in 0..part.nodes {
        let primary = &states[part.primary(shard)];
        for b in part.backups(shard) {
            let Some(map) = states[b].backups.get(&shard) else {
                continue;
            };
            for (k, (bv, bver)) in map {
                let Some((pv, pver)) = primary.host_table.get(*k) else {
                    return Err(format!("key {k} present at backup {b}, absent at primary"));
                };
                if pver != *bver {
                    return Err(format!(
                        "key {k}: primary v{pver} != backup {b} v{bver}"
                    ));
                }
                if pv != bv {
                    return Err(format!("key {k}: value diverged at backup {b}"));
                }
                checked += 1;
            }
        }
    }
    Ok(checked)
}

/// Checks that no SmartNIC holds a lock or a pending-insert sentinel (a
/// drained cluster must be lock-free: a lock that outlives its
/// transaction aborts every later writer of the key) and returns any
/// offenders.
pub fn no_locks_held(states: &[XenicNode]) -> Result<(), Vec<(usize, Key, TxnId)>> {
    let mut held = Vec::new();
    for (node, st) in states.iter().enumerate() {
        held.extend(st.nic_index.held_locks().into_iter().map(|(k, t)| (node, k, t)));
        held.extend(st.nic_index.pending_inserts().into_iter().map(|(k, t)| (node, k, t)));
    }
    if held.is_empty() {
        Ok(())
    } else {
        Err(held)
    }
}

/// Checks that every commit-log ring has been fully applied and
/// reclaimed.
pub fn logs_drained(states: &[XenicNode]) -> Result<(), usize> {
    let outstanding: usize = states.iter().map(|s| s.log.outstanding()).sum();
    if outstanding == 0 {
        Ok(())
    } else {
        Err(outstanding)
    }
}

/// Checks that replication left nothing behind: no lingering Hermes
/// invalidation mark (every INV must have been resolved by its
/// retransmitted VAL) and no backup append still buffered behind a
/// version gap (every Raft laggard catch-up must have completed) — both
/// trivially true for the backends that don't use the respective
/// machinery.
pub fn no_replication_residue(states: &[XenicNode]) -> Result<(), String> {
    for (n, st) in states.iter().enumerate() {
        let inv: usize = st.hermes_invalid.values().map(|ks| ks.len()).sum();
        let gaps: usize = st.backup_gaps.values().map(|v| v.len()).sum();
        if inv + gaps > 0 {
            return Err(format!(
                "node {n}: {inv} invalidation marks and {gaps} version-gapped backup appends \
                 survived the drain"
            ));
        }
    }
    Ok(())
}

/// Runs every audit: the one post-drain referee of the fuzzer, the chaos
/// suites and the examples.
pub fn full_audit(states: &[XenicNode], part: &Partitioning) -> Result<AuditReport, String> {
    let replicated = replicas_converged(states, part)?;
    no_locks_held(states).map_err(|held| format!("locks held after drain: {held:?}"))?;
    logs_drained(states).map_err(|n| format!("{n} unapplied log records"))?;
    no_replication_residue(states)?;
    Ok(AuditReport {
        committed: total_committed(states),
        counter_sum: counter_sum(states),
        replicated_pairs: replicated,
    })
}

/// What [`full_audit`] verified.
#[derive(Debug, Clone, Copy)]
pub struct AuditReport {
    /// Committed transactions across the cluster.
    pub committed: u64,
    /// Sum of all leading-i64 counters at the primaries.
    pub counter_sum: i64,
    /// Backup (key, value) pairs checked against primaries.
    pub replicated_pairs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{make_key, ShipMode, TxnSpec, UpdateOp, Workload};
    use crate::engine::Xenic;
    use crate::msg::XMsg;
    use crate::XenicConfig;
    use xenic_hw::HwParams;
    use xenic_net::{Cluster, Exec, NetConfig};
    use xenic_sim::{DetRng, SimTime};
    use xenic_store::Value;

    struct Incr;
    impl Workload for Incr {
        fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
            TxnSpec {
                updates: vec![(
                    make_key(rng.below(6) as u32, rng.below(200)),
                    UpdateOp::AddI64(1),
                )],
                reads: vec![make_key(node as u32, rng.below(200))],
                ship: ShipMode::Nic,
                ..Default::default()
            }
        }
        fn value_bytes(&self) -> u32 {
            16
        }
        fn preload(&self, shard: u32) -> Vec<(Key, Value)> {
            (0..200)
                .map(|i| (make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes())))
                .collect()
        }
    }

    #[test]
    fn full_audit_accepts_a_clean_run_and_counts_exactly() {
        let part = Partitioning::new(6, 3);
        let mut cluster: Cluster<Xenic> =
            Cluster::new(HwParams::paper_testbed(), NetConfig::full(), 4, |node| {
                XenicNode::new(node, XenicConfig::full(), part, Box::new(Incr), 4)
            });
        for node in 0..6 {
            for slot in 0..4 {
                cluster.seed(SimTime::from_ns(slot as u64), node, Exec::Host, XMsg::StartTxn { slot });
            }
        }
        for st in &mut cluster.states {
            st.stats.start_measuring(SimTime::ZERO);
        }
        cluster.run_until(SimTime::from_ms(4));
        crate::harness::drain(&mut cluster, SimTime::from_ms(60));
        let report = full_audit(&cluster.states, &part).expect("clean run must audit");
        assert!(report.committed > 1_000);
        assert_eq!(report.counter_sum as u64, report.committed);
        assert!(report.replicated_pairs > 0);
    }

    #[test]
    fn audit_detects_a_corrupted_replica() {
        let part = Partitioning::new(6, 3);
        let mut cluster: Cluster<Xenic> =
            Cluster::new(HwParams::paper_testbed(), NetConfig::full(), 4, |node| {
                XenicNode::new(node, XenicConfig::full(), part, Box::new(Incr), 2)
            });
        // Corrupt one backup entry: shard 0's backup at node 1.
        let k = make_key(0, 5);
        cluster.states[1]
            .backups
            .get_mut(&0)
            .unwrap()
            .insert(k, (Value::from_bytes(&999i64.to_le_bytes()), 42));
        let err = replicas_converged(&cluster.states, &part).unwrap_err();
        assert!(err.contains("key"), "diagnostic message: {err}");
    }

    #[test]
    fn audit_detects_held_locks() {
        let part = Partitioning::new(6, 3);
        let mut cluster: Cluster<Xenic> =
            Cluster::new(HwParams::paper_testbed(), NetConfig::full(), 4, |node| {
                XenicNode::new(node, XenicConfig::full(), part, Box::new(Incr), 2)
            });
        let k = make_key(2, 7);
        let seg = cluster.states[2].host_table.segment_of_key(k);
        let txn = TxnId::new(0, 1);
        cluster.states[2].nic_index.try_lock(seg, k, txn);
        let held = no_locks_held(&cluster.states).unwrap_err();
        assert_eq!(held, vec![(2, k, txn)]);
    }
}
