//! Chaos tests: whole-cluster runs under deterministic fault injection.
//!
//! Each test runs the exactly-auditable counter workload through a
//! [`FaultPlan`] — message loss, duplication, delay jitter, timed
//! partitions, and crash/restart — then drains and audits the strongest
//! invariants the engine offers: committed-increment conservation,
//! replica convergence, and an empty commit log. The plans are
//! deterministic, so every one of these runs is replayable bit for bit.
//!
//! The `all_backends_*` tests run the same drills over every pluggable
//! replication backend (DESIGN.md §15) — DMA log shipping, Raft-style
//! leader commit, Hermes-style invalidation — so each backend earns the
//! same conservation/convergence/recovery guarantees individually.

use xenic::api::{make_key, Partitioning, ShipMode, TxnSpec, UpdateOp, Workload};
use xenic::engine::{Xenic, XenicNode};
use xenic::harness::{build, RunOptions};
use xenic::recovery::{audit_recovery, recover_shard};
use xenic::{ReplBackend, XenicConfig};
use xenic_hw::HwParams;
use xenic_net::{Cluster, FaultPlan, NetConfig};
use xenic_sim::{DetRng, SimTime};
use xenic_store::Value;

/// Counter workload whose committed effects are exactly auditable: every
/// transaction adds 1 to a single counter, so after a full drain the sum
/// of all counters must equal the number of committed transactions.
struct Counters {
    keys: u64,
    remote_frac: f64,
}

impl Workload for Counters {
    fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
        let shard = if rng.chance(self.remote_frac) {
            rng.below(6) as u32
        } else {
            node as u32
        };
        TxnSpec {
            reads: vec![make_key(node as u32, rng.below(self.keys))],
            updates: vec![(make_key(shard, rng.below(self.keys)), UpdateOp::AddI64(1))],
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
        (0..self.keys)
            .map(|i| (make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes())))
            .collect()
    }
}

fn chaos_cluster(windows: usize, seed: u64, plan: FaultPlan) -> Cluster<Xenic> {
    chaos_cluster_cfg(XenicConfig::full(), windows, seed, plan)
}

fn chaos_cluster_cfg(
    cfg: XenicConfig,
    windows: usize,
    seed: u64,
    plan: FaultPlan,
) -> Cluster<Xenic> {
    let net = NetConfig::full().with_faults(plan);
    let opts = RunOptions { windows, seed, ..Default::default() };
    let mut cluster = build::<Xenic>(HwParams::paper_testbed(), net, cfg, &opts, |_| {
        Box::new(Counters {
            keys: 3000,
            remote_frac: 0.7,
        })
    });
    for st in &mut cluster.states {
        st.stats.start_measuring(SimTime::ZERO);
    }
    cluster
}

fn drain(cluster: &mut Cluster<Xenic>, until: SimTime) {
    for st in &mut cluster.states {
        st.draining = true;
    }
    cluster.run_until(until);
}

/// Sum of all primary counters across the cluster.
fn counter_sum(cluster: &Cluster<Xenic>) -> i64 {
    let mut sum = 0i64;
    for st in &cluster.states {
        for (k, _) in st.host_table.iter_keys() {
            let (v, _) = st.host_table.get(k).expect("key present");
            sum += i64::from_le_bytes(v.bytes()[..8].try_into().unwrap());
        }
    }
    sum
}

fn committed_total(cluster: &Cluster<Xenic>) -> u64 {
    cluster
        .states
        .iter()
        .map(|s| s.stats.committed_all.get())
        .sum()
}

fn assert_conserved(cluster: &Cluster<Xenic>, min_committed: u64) {
    let committed = committed_total(cluster);
    assert!(committed > min_committed, "committed only {committed}");
    assert_eq!(
        counter_sum(cluster) as u64,
        committed,
        "increments lost or duplicated under faults"
    );
    let outstanding: usize = cluster.states.iter().map(|s| s.log.outstanding()).sum();
    assert_eq!(outstanding, 0, "drain must apply every log record");
}

fn assert_replicas_converged(cluster: &Cluster<Xenic>) {
    let part = Partitioning::new(6, 3);
    for shard in 0..6u32 {
        let primary = &cluster.states[part.primary(shard)];
        for &b in &part.backups(shard) {
            let map = cluster.states[b]
                .backups
                .get(&shard)
                .expect("backup map exists");
            for (k, (bv, bver)) in map {
                let (pv, pver) = primary.host_table.get(*k).expect("primary has key");
                assert_eq!(pver, *bver, "version diverged for key {k}");
                assert_eq!(pv, bv, "value diverged for key {k}");
            }
        }
    }
}

#[test]
fn increments_conserved_under_loss_and_duplication() {
    // 1% drop + 1% duplication + 2us jitter on every link. Retransmission
    // must recover every lost message, and dedup must absorb every
    // duplicate, or the conservation equality breaks exactly.
    let plan = FaultPlan::lossy(0.01, 0.01, 2_000);
    let mut cluster = chaos_cluster(8, 71, plan);
    cluster.run_until(SimTime::from_ms(5));
    drain(&mut cluster, SimTime::from_ms(200));
    assert_conserved(&cluster, 2_000);
}

#[test]
fn replicas_converge_after_partition_heals() {
    // Mild loss everywhere, plus a 1.5ms pairwise partition between
    // nodes 0 and 3 in the middle of the run. The partition heals before
    // the drain, so retransmission must finish every in-flight
    // replication and all replicas must agree.
    let plan = FaultPlan::lossy(0.005, 0.005, 1_000).with_partition(0, 3, 1_000_000, 2_500_000);
    let mut cluster = chaos_cluster(6, 72, plan);
    cluster.run_until(SimTime::from_ms(5));
    drain(&mut cluster, SimTime::from_ms(200));
    assert_conserved(&cluster, 1_500);
    assert_replicas_converged(&cluster);
}

#[test]
fn crash_restart_preserves_conservation_then_recovers() {
    // Node 4 crash-stops at 2ms and restarts at 3ms (memory intact,
    // in-flight events and inboxes lost), with background loss on every
    // link. After the drain the usual invariants must hold; then node 4
    // is declared permanently failed and the recovery module must rebuild
    // its primary shard from the surviving replicas.
    let plan = FaultPlan::lossy(0.002, 0.002, 500).with_crash(4, 2_000_000, Some(3_000_000));
    let mut cluster = chaos_cluster(6, 73, plan);
    cluster.run_until(SimTime::from_ms(5));
    drain(&mut cluster, SimTime::from_ms(300));
    assert_conserved(&cluster, 1_500);
    assert_replicas_converged(&cluster);

    const FAILED: usize = 4;
    let part = Partitioning::new(6, 3);
    let mut refs: Vec<Option<&mut XenicNode>> = cluster
        .states
        .iter_mut()
        .enumerate()
        .map(|(i, s)| if i == FAILED { None } else { Some(s) })
        .collect();
    let report = recover_shard(&mut refs, &part, FAILED);
    assert!(report.keys_recovered >= 3000, "{}", report.keys_recovered);
    let ro: Vec<Option<&XenicNode>> = cluster
        .states
        .iter()
        .enumerate()
        .map(|(i, s)| if i == FAILED { None } else { Some(s) })
        .collect();
    audit_recovery(&ro, &part, FAILED, report.new_primary).expect("recovery audit");
}

/// Post-drain residue check shared by the per-backend drills: no
/// lingering Hermes invalidation marks (every INV must have been
/// resolved by its retransmitted VAL) and no backup appends still
/// buffered behind a version gap (every Raft laggard catch-up must have
/// completed) — both trivially true for the backends that don't use the
/// respective machinery.
fn assert_no_invalidation_residue(cluster: &Cluster<Xenic>) {
    for (n, st) in cluster.states.iter().enumerate() {
        assert_eq!(
            st.hermes_pending_invalidations(),
            0,
            "node {n}: invalidation marks survived the drain"
        );
        assert_eq!(
            st.backup_gap_entries(),
            0,
            "node {n}: version-gapped backup appends survived the drain"
        );
    }
}

/// Every replication backend conserves committed increments — and keeps
/// all replicas convergent — under message loss and duplication. Loss
/// exercises each backend's own retransmission machinery (log-shipping
/// unacked resends, Raft laggard catch-up, Hermes INV/VAL redelivery);
/// duplication exercises its dedup.
#[test]
fn all_backends_conserve_under_loss_and_duplication() {
    for &backend in ReplBackend::ALL.iter() {
        let plan = FaultPlan::lossy(0.01, 0.01, 2_000);
        let mut cluster = chaos_cluster_cfg(XenicConfig::with_backend(backend), 6, 81, plan);
        cluster.run_until(SimTime::from_ms(4));
        drain(&mut cluster, SimTime::from_ms(200));
        assert_conserved(&cluster, 1_000);
        assert_replicas_converged(&cluster);
        assert_no_invalidation_residue(&cluster);
    }
}

/// Every backend converges across a healed partition: nodes 0 and 3
/// cannot exchange appends/acks/validations for 1.5ms mid-run, so each
/// backend's redelivery path must finish every stalled replication after
/// the heal.
#[test]
fn all_backends_converge_after_partition_heals() {
    for &backend in ReplBackend::ALL.iter() {
        let plan =
            FaultPlan::lossy(0.005, 0.005, 1_000).with_partition(0, 3, 1_000_000, 2_500_000);
        let mut cluster = chaos_cluster_cfg(XenicConfig::with_backend(backend), 6, 82, plan);
        cluster.run_until(SimTime::from_ms(4));
        drain(&mut cluster, SimTime::from_ms(200));
        assert_conserved(&cluster, 1_000);
        assert_replicas_converged(&cluster);
        assert_no_invalidation_residue(&cluster);
    }
}

/// Every backend survives a crash/restart (node 4 down for 1ms with
/// background loss), drains clean, and then hands a consistent enough
/// cluster to the recovery module: node 4 is declared permanently failed
/// and `recover_shard` + `audit_recovery` must rebuild its shard from
/// the survivors — the crash re-priming and evidence rules the
/// Replication trait owes recovery (DESIGN.md §15).
#[test]
fn all_backends_recover_after_crash_restart() {
    for &backend in ReplBackend::ALL.iter() {
        let plan = FaultPlan::lossy(0.002, 0.002, 500).with_crash(4, 2_000_000, Some(3_000_000));
        let mut cluster = chaos_cluster_cfg(XenicConfig::with_backend(backend), 6, 83, plan);
        cluster.run_until(SimTime::from_ms(4));
        drain(&mut cluster, SimTime::from_ms(300));
        assert_conserved(&cluster, 1_000);
        assert_replicas_converged(&cluster);
        assert_no_invalidation_residue(&cluster);

        const FAILED: usize = 4;
        let part = Partitioning::new(6, 3);
        let mut refs: Vec<Option<&mut XenicNode>> = cluster
            .states
            .iter_mut()
            .enumerate()
            .map(|(i, s)| if i == FAILED { None } else { Some(s) })
            .collect();
        let report = recover_shard(&mut refs, &part, FAILED);
        assert!(
            report.keys_recovered >= 3000,
            "{backend:?}: recovered only {}",
            report.keys_recovered
        );
        let ro: Vec<Option<&XenicNode>> = cluster
            .states
            .iter()
            .enumerate()
            .map(|(i, s)| if i == FAILED { None } else { Some(s) })
            .collect();
        audit_recovery(&ro, &part, FAILED, report.new_primary)
            .unwrap_or_else(|e| panic!("{backend:?}: recovery audit failed: {e}"));
    }
}

#[test]
fn chaos_runs_are_deterministic() {
    // The entire fault schedule draws from a dedicated RNG stream seeded
    // by the cluster seed, so an identical (seed, plan) pair must replay
    // the run bit for bit — committed counts, per-key tables, versions,
    // everything. A different seed must produce a different universe.
    let plan = || {
        FaultPlan::lossy(0.02, 0.01, 3_000)
            .with_partition(1, 5, 1_500_000, 2_200_000)
            .with_crash(2, 2_400_000, Some(3_100_000))
    };
    let fingerprint = |seed: u64| {
        let mut cluster = chaos_cluster(6, seed, plan());
        cluster.run_until(SimTime::from_ms(4));
        drain(&mut cluster, SimTime::from_ms(250));
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for st in &cluster.states {
            let mut keys: Vec<u64> = st.host_table.iter_keys().map(|(k, _)| k).collect();
            keys.sort_unstable();
            for k in keys {
                let (v, ver) = st.host_table.get(k).expect("key present");
                for b in v.bytes() {
                    digest = (digest ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
                }
                digest = (digest ^ ver).wrapping_mul(0x100_0000_01b3);
            }
        }
        let aborted: u64 = cluster.states.iter().map(|s| s.stats.aborted.get()).sum();
        (committed_total(&cluster), aborted, digest)
    };
    assert_eq!(fingerprint(9), fingerprint(9), "same seed, same universe");
    assert_ne!(fingerprint(9), fingerprint(10), "seeds must matter");
}
