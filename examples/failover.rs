//! Primary failover walkthrough (paper §4.2.1).
//!
//! Runs a cluster mid-workload, "fails" one node, promotes a surviving
//! backup via the recovery machinery — rebuilding the shard's Robinhood
//! table from the backup replica, re-acquiring locks for in-flight
//! transactions found in surviving logs, and resolving each — then audits
//! that nothing committed was lost.
//!
//! ```sh
//! cargo run --release --example failover
//! ```

use xenic::api::{make_key, Partitioning, ShipMode, TxnSpec, UpdateOp, Workload};
use xenic::engine::{Xenic, XenicNode};
use xenic::msg::XMsg;
use xenic::recovery::{audit_recovery, recover_shard, ClusterManager};
use xenic::{NodeStats, XenicConfig};
use xenic_hw::HwParams;
use xenic_net::{Cluster, Exec, NetConfig};
use xenic_sim::{DetRng, SimTime};
use xenic_store::Value;

struct Wl;
impl Workload for Wl {
    fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
        let victim = ((node + 1) % 6) as u32;
        TxnSpec {
            reads: vec![make_key(node as u32, rng.below(2000))],
            updates: vec![(make_key(victim, rng.below(2000)), UpdateOp::AddI64(1))],
            exec_host_ns: 150,
            exec_nic_ns: 480,
            ship: ShipMode::Nic,
            ..Default::default()
        }
    }
    fn value_bytes(&self) -> u32 {
        16
    }
    fn preload(&self, shard: u32) -> Vec<(u64, Value)> {
        (0..2000)
            .map(|i| (make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes())))
            .collect()
    }
}

fn main() {
    const FAILED: usize = 2;
    let part = Partitioning::new(6, 3);
    let mut cluster: Cluster<Xenic> =
        Cluster::new(HwParams::paper_testbed(), NetConfig::full(), 5, |node| {
            XenicNode::new(node, XenicConfig::full(), part, Box::new(Wl), 8)
        });
    for node in 0..6 {
        for slot in 0..8 {
            cluster.seed(
                SimTime::from_ns(slot as u64 * 89),
                node,
                Exec::Host,
                XMsg::StartTxn { slot },
            );
        }
    }

    for st in &mut cluster.states {
        st.stats.start_measuring(SimTime::ZERO);
    }

    // Lease-based membership: every node renews until node 2 stops.
    let mut cm = ClusterManager::new(5_000_000); // 5 ms leases
    for n in 0..6 {
        cm.renew(n, SimTime::ZERO);
    }
    println!("running 6-node cluster, leases of 5 ms...");
    cluster.run_until(SimTime::from_ms(3));
    for n in 0..6 {
        if n != FAILED {
            cm.renew(n, cluster.rt.now());
        }
    }
    cluster.run_until(SimTime::from_us(7_500));
    let now = cluster.rt.now();
    let expired = cm.expired(now);
    println!("t={now}: expired leases: {expired:?}");
    assert_eq!(expired, vec![FAILED]);
    let epoch = cm.evict(FAILED);
    println!("node {FAILED} evicted; configuration epoch -> {epoch}");

    let committed_before = NodeStats::total(cluster.states.iter().map(|s| &s.stats))
        .committed_all
        .get();
    println!("committed so far: {committed_before}");

    // Promote a backup and rebuild the failed shard.
    let mut refs: Vec<Option<&mut XenicNode>> = cluster
        .states
        .iter_mut()
        .enumerate()
        .map(|(i, s)| if i == FAILED { None } else { Some(s) })
        .collect();
    let report = recover_shard(&mut refs, &part, FAILED);
    println!("\nrecovery report:");
    println!("  new primary:        node {}", report.new_primary);
    println!("  keys recovered:     {}", report.keys_recovered);
    println!("  in-flight txns:     {}", report.recovering_txns);
    println!("  applied / aborted:  {} / {}", report.applied, report.aborted);
    println!("  locks re-acquired:  {}", report.locks_taken);

    let ro: Vec<Option<&XenicNode>> = cluster
        .states
        .iter()
        .enumerate()
        .map(|(i, s)| if i == FAILED { None } else { Some(s) })
        .collect();
    audit_recovery(&ro, &part, FAILED, report.new_primary).expect("audit");
    println!("\naudit passed: no committed key lost, no version regressed,");
    println!("no recovery lock left held — shard {FAILED} serves from node {}.", report.new_primary);
}
