//! Chaos tests: whole-cluster runs under deterministic fault injection.
//!
//! Each test runs the exactly-auditable counter workload through a
//! [`FaultPlan`] — message loss, duplication, delay jitter, timed
//! partitions, and crash/restart — then drains and audits the strongest
//! invariants the engine offers (`xenic::audit`): committed-increment
//! conservation, replica convergence, an empty commit log, and no lock,
//! sentinel or replication residue. The plans are
//! deterministic, so every one of these runs is replayable bit for bit.
//!
//! The `all_backends_*` tests run the same drills over every pluggable
//! replication backend (DESIGN.md §15) — DMA log shipping, Raft-style
//! leader commit, Hermes-style invalidation — so each backend earns the
//! same conservation/convergence/recovery guarantees individually.

use xenic::audit::{self, full_audit};
use xenic::engine::{Xenic, XenicNode};
use xenic::harness::{build, cluster_digest, drain, RunOptions};
use xenic::recovery::{audit_recovery, recover_shard};
use xenic::{NodeStats, ReplBackend, XenicConfig};
use xenic_bench::fuzz::Counters;
use xenic_hw::HwParams;
use xenic_net::{Cluster, FaultPlan, NetConfig};
use xenic_sim::SimTime;

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

/// The post-drain referee (`xenic::audit::full_audit`: replicas
/// converged, no lock or insert sentinel held, logs applied, no
/// invalidation mark or gapped append left) plus exact conservation: the
/// counters sum to the number of committed increments.
///
/// Under a crash plan the lock check is left out: a commit whose apply
/// was in flight when its primary crash-stopped keeps its lock until
/// recovery runs inside the simulation (ROADMAP item 4).
fn assert_audited(cluster: &Cluster<Xenic>, min_committed: u64) {
    let (states, part) = (&cluster.states, cluster.states[0].part);
    let audited = if !cluster.rt.cfg.faults.crashes.is_empty() {
        audit::replicas_converged(states, &part)
            .and(audit::logs_drained(states).map_err(|n| format!("{n} unapplied log records")))
            .and(audit::no_replication_residue(states))
    } else {
        full_audit(states, &part).map(|_| ())
    };
    audited.unwrap_or_else(|e| panic!("audit failed: {e}"));
    let committed = audit::total_committed(states);
    assert!(committed > min_committed, "committed only {committed}");
    assert_eq!(
        audit::counter_sum(states) as u64,
        committed,
        "increments lost or duplicated under faults"
    );
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
    assert_audited(&cluster, 2_000);
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
    assert_audited(&cluster, 1_500);
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
    assert_audited(&cluster, 1_500);

    const FAILED: usize = 4;
    let part = cluster.states[0].part;
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
        assert_audited(&cluster, 1_000);
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
        assert_audited(&cluster, 1_000);
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
        assert_audited(&cluster, 1_000);

        const FAILED: usize = 4;
        let part = cluster.states[0].part;
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
        let aborted = NodeStats::total(cluster.states.iter().map(|s| &s.stats)).aborted.get();
        (audit::total_committed(&cluster.states), aborted, cluster_digest(&cluster))
    };
    assert_eq!(fingerprint(9), fingerprint(9), "same seed, same universe");
    assert_ne!(fingerprint(9), fingerprint(10), "seeds must matter");
}
