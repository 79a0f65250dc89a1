//! Behavioural tests for the baseline engines: phase sequencing,
//! version-guarded CAS, NC chain chasing, lock hygiene under aborts, and
//! cross-system result equivalence.

use xenic::api::{make_key, Partitioning, TxnSpec, UpdateOp, Workload};
use xenic::harness::{drain, run_recorded, RunOptions, RunResult};
use xenic_baselines::engine::{BMsg, Baseline, BaselineKind, BaselineNode};
use xenic_baselines::{residue, run_baseline};
use xenic_hw::HwParams;
use xenic_net::{Cluster, Exec, NetConfig};
use xenic_sim::{DetRng, SimTime};
use xenic_store::Value;

struct Fixed {
    spec: TxnSpec,
}

impl Workload for Fixed {
    fn next_txn(&mut self, _node: usize, _rng: &mut DetRng) -> TxnSpec {
        self.spec.clone()
    }
    fn value_bytes(&self) -> u32 {
        16
    }
    fn preload(&self, shard: u32) -> Vec<(u64, Value)> {
        (0..500)
            .map(|i| (make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes())))
            .collect()
    }
}

fn run_fixed(kind: BaselineKind, windows: usize, mk: impl Fn(usize) -> TxnSpec) -> RunResult {
    let opts = RunOptions {
        windows,
        warmup: SimTime::from_ms(1),
        measure: SimTime::from_ms(4),
        seed: 17,
        lanes: 1,
        ..Default::default()
    };
    run_baseline(kind, HwParams::paper_testbed(), &opts, move |node| {
        Box::new(Fixed { spec: mk(node) })
    })
}

/// Builds a raw baseline cluster for state inspection.
fn cluster_fixed(
    kind: BaselineKind,
    windows: usize,
    mk: impl Fn(usize) -> TxnSpec,
) -> Cluster<Baseline> {
    let part = Partitioning::new(6, 3);
    let mut cluster: Cluster<Baseline> =
        Cluster::new(HwParams::paper_testbed(), NetConfig::baseline(), 3, |node| {
            BaselineNode::new(node, kind, part, Box::new(Fixed { spec: mk(node) }), windows)
        });
    for node in 0..6 {
        for slot in 0..windows {
            cluster.seed(
                SimTime::from_ns(slot as u64 * 89),
                node,
                Exec::Host,
                BMsg::Start { slot: slot as u32 },
            );
        }
    }
    for st in &mut cluster.states {
        st.stats.start_measuring(SimTime::ZERO);
    }
    cluster
}

#[test]
fn version_guarded_cas_preserves_counter_exactness() {
    // All six coordinators increment one hot key through DrTM+H's
    // read → CAS(version) → log pipeline. The version guard must make
    // every successful lock-then-commit linearizable: final counter ==
    // committed transactions, exactly.
    let hot = make_key(0, 9);
    let mut cluster = cluster_fixed(BaselineKind::DrtmH, 3, |_| TxnSpec {
        updates: vec![(hot, UpdateOp::AddI64(1))],
        ..Default::default()
    });
    cluster.run_until(SimTime::from_ms(6));
    let committed_mid: u64 = cluster
        .states
        .iter()
        .map(|s| s.stats.committed_all.get())
        .sum();
    assert!(committed_mid > 300, "commits {committed_mid}");
    // Quiesce: stop the load and let in-flight transactions finish. A
    // drained cluster holds no lock word, and the counter equals the
    // number of committed increments exactly.
    drain(&mut cluster, SimTime::from_ms(60));
    let held: usize = cluster.states.iter().map(|s| s.locks.len()).sum();
    assert_eq!(held, 0, "locks survived the drain");
    assert_eq!(residue(&cluster.states), Ok(()));
    let committed: u64 = cluster
        .states
        .iter()
        .map(|s| s.stats.committed_all.get())
        .sum();
    let (v, _) = cluster.states[0].table.get(hot).expect("hot key");
    let counter = i64::from_le_bytes(v.bytes()[..8].try_into().unwrap());
    assert_eq!(counter, committed as i64);
}

#[test]
fn drtmh_nc_chain_chasing_terminates_with_values() {
    // Without the location cache, reads chase real chained-table hops.
    // Deep chains exist at 90% occupancy; every read must still resolve.
    let r = run_fixed(BaselineKind::DrtmHNc, 4, |node| TxnSpec {
        reads: vec![make_key(((node + 1) % 6) as u32, 7)],
        updates: vec![(
            make_key(((node + 2) % 6) as u32, 11),
            UpdateOp::AddI64(1),
        )],
        ..Default::default()
    });
    assert!(r.committed > 500, "NC committed {}", r.committed);
}

#[test]
fn drtmr_lock_all_has_no_validate_phase_but_more_conflicts() {
    // DrTM+R CAS-locks read keys too: under read-write sharing it must
    // abort more often than DrTM+H on the same workload.
    let shared = make_key(2, 3);
    let mk = move |node: usize| TxnSpec {
        reads: vec![shared],
        updates: vec![(
            make_key(((node + 1) % 6) as u32, 40 + node as u64),
            UpdateOp::AddI64(1),
        )],
        ..Default::default()
    };
    let h = run_fixed(BaselineKind::DrtmH, 6, mk);
    let r = run_fixed(BaselineKind::DrtmR, 6, mk);
    // DrTM+R serializes all 36 windows on the shared read key's lock, so
    // its throughput floor is the lock-hold ceiling, far below DrTM+H's.
    assert!(h.committed > 500, "DrTM+H committed {}", h.committed);
    assert!(r.committed > 100, "DrTM+R committed {}", r.committed);
    assert!(
        r.committed < h.committed,
        "lock-all must cost throughput under read sharing"
    );
    assert!(
        r.aborted > h.aborted,
        "lock-all must conflict more: DrTM+R {} vs DrTM+H {}",
        r.aborted,
        h.aborted
    );
}

#[test]
fn fasst_consolidated_rpcs_commit_multi_shard_txns() {
    let r = run_fixed(BaselineKind::Fasst, 4, |node| TxnSpec {
        reads: vec![make_key(((node + 1) % 6) as u32, 5)],
        updates: vec![
            (make_key(((node + 2) % 6) as u32, 6), UpdateOp::AddI64(1)),
            (make_key(((node + 3) % 6) as u32, 7), UpdateOp::AddI64(-1)),
        ],
        ..Default::default()
    });
    assert!(r.committed > 500, "FaSST committed {}", r.committed);
    assert!(r.host_busy_cores > 0.5, "RPCs must burn host CPU");
}

#[test]
fn hot_key_contention_resolves_for_every_baseline() {
    // Lock leaks freeze a hot-key workload; all four systems must keep
    // committing under maximal conflict.
    let hot = make_key(1, 1);
    for kind in [
        BaselineKind::DrtmH,
        BaselineKind::DrtmHNc,
        BaselineKind::Fasst,
        BaselineKind::DrtmR,
    ] {
        let r = run_fixed(kind, 3, |_| TxnSpec {
            updates: vec![(hot, UpdateOp::AddI64(1))],
            ..Default::default()
        });
        assert!(
            r.committed > 200,
            "{kind:?} wedged on hot key: {}",
            r.committed
        );
        assert!(r.aborted > 0, "{kind:?} must see conflicts");
    }
}

#[test]
fn baselines_never_ship_multi_round_specs() {
    // The baseline engines flatten rounds is NOT supported; the API keeps
    // multi-shot specs Xenic-only. Single-round specs carry rounds = [].
    let spec = TxnSpec {
        updates: vec![(make_key(1, 2), UpdateOp::AddI64(1))],
        ..Default::default()
    };
    assert!(spec.single_round());
}

/// A contended cross-shard mix for serializability checking: multi-shard
/// reads, read-modify-writes, and transfers over a small hot keyspace.
struct ContendedWl {
    keys: u64,
}

impl Workload for ContendedWl {
    fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
        let home = node as u32;
        let peer = ((node as u64 + 1 + rng.below(5)) % 6) as u32;
        let k_local = make_key(home, rng.below(self.keys));
        let k_remote = make_key(peer, rng.below(self.keys));
        match rng.below(3) {
            0 => TxnSpec {
                reads: vec![k_local, k_remote],
                ..Default::default()
            },
            1 => TxnSpec {
                reads: vec![k_local],
                updates: vec![(k_remote, UpdateOp::AddI64(1))],
                ..Default::default()
            },
            _ => TxnSpec {
                updates: vec![(k_local, UpdateOp::AddI64(1)), (k_remote, UpdateOp::AddI64(-1))],
                ..Default::default()
            },
        }
    }
    fn value_bytes(&self) -> u32 {
        8
    }
    fn preload(&self, shard: u32) -> Vec<(u64, Value)> {
        (0..self.keys)
            .map(|i| (make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes())))
            .collect()
    }
}

fn recorded_history(kind: BaselineKind, net: NetConfig) -> (RunResult, xenic_check::History) {
    let opts = RunOptions {
        windows: 3,
        warmup: SimTime::from_us(200),
        measure: SimTime::from_us(900),
        seed: 23,
        lanes: 1,
        ..Default::default()
    };
    let (r, _, recorder) = run_recorded::<Baseline>(HwParams::paper_testbed(), net, kind, &opts, |_| {
        Box::new(ContendedWl { keys: 24 })
    });
    (r, recorder.snapshot())
}

#[test]
fn all_four_baselines_produce_serializable_histories() {
    for kind in [
        BaselineKind::DrtmH,
        BaselineKind::DrtmHNc,
        BaselineKind::Fasst,
        BaselineKind::DrtmR,
    ] {
        let (r, history) = recorded_history(kind, NetConfig::baseline());
        assert!(r.committed > 300, "{kind:?} committed {}", r.committed);
        // The recorder sees every commit from t=0; RunResult counts only
        // the measurement window (post-warmup).
        assert!(
            history.committed_count() as u64 >= r.committed,
            "{kind:?}: recorder saw {} < measured {}",
            history.committed_count(),
            r.committed
        );
        let report = xenic_check::check_history(&history, &xenic_check::CheckOptions::strict());
        assert!(
            report.is_serializable(),
            "{kind:?} history not serializable:\n{}",
            report.describe()
        );
        assert!(report.edges > 0, "{kind:?}: contended run must induce edges");
    }
}

/// Scan-heavy mix for FaSST: short ranges over a tiny keyspace whose odd
/// slots are filled by concurrent inserts — the phantom stressor.
struct ScanWl {
    keys: u64,
    counter: u64,
}

impl Workload for ScanWl {
    fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
        let shard = rng.below(6) as u32;
        let space = self.keys * 2;
        if rng.below(100) < 80 {
            let lo = rng.below(space);
            let hi = (lo + 10).min(space - 1);
            TxnSpec {
                scans: vec![xenic::api::ScanSpec::new(
                    make_key(shard, lo),
                    make_key(shard, hi),
                )],
                ..Default::default()
            }
        } else {
            let slot = self.counter * 6 + node as u64;
            self.counter += 1;
            TxnSpec {
                inserts: vec![(
                    make_key(shard, (2 * slot + 1) % space),
                    Value::from_bytes(&1i64.to_le_bytes()),
                )],
                ..Default::default()
            }
        }
    }
    fn value_bytes(&self) -> u32 {
        8
    }
    fn preload(&self, shard: u32) -> Vec<(u64, Value)> {
        (0..self.keys)
            .map(|i| (make_key(shard, 2 * i), Value::from_bytes(&0i64.to_le_bytes())))
            .collect()
    }
}

#[test]
fn fasst_scans_commit_and_stay_phantom_free() {
    let opts = RunOptions {
        windows: 3,
        warmup: SimTime::from_us(200),
        measure: SimTime::from_ms(2),
        seed: 29,
        lanes: 1,
        ..Default::default()
    };
    let (r, _, recorder) = run_recorded::<Baseline>(
        HwParams::paper_testbed(),
        NetConfig::baseline(),
        BaselineKind::Fasst,
        &opts,
        |_| Box::new(ScanWl { keys: 16, counter: 0 }),
    );
    let history = recorder.snapshot();
    assert!(r.committed > 300, "FaSST scan mix committed {}", r.committed);
    // Committed scans must be on record as predicates, so the checker
    // actually looks for phantoms rather than vacuously passing.
    let with_preds = history
        .committed()
        .filter(|(_, rec)| !rec.predicates.is_empty())
        .count();
    assert!(with_preds > 100, "only {with_preds} predicate commits");
    let report = xenic_check::check_history(&history, &xenic_check::CheckOptions::strict());
    assert!(
        report.is_serializable(),
        "FaSST scan history not serializable:\n{}",
        report.describe()
    );
}

#[test]
fn baseline_histories_stay_serializable_under_a_lossy_plan() {
    // The baselines drive RDMA verbs over a lossless fabric, so a lossy
    // Ethernet fault plan must not perturb their schedules — and whatever
    // schedule results must still verify.
    let plan = xenic_net::FaultPlan::lossy(0.02, 0.01, 800);
    for kind in [
        BaselineKind::DrtmH,
        BaselineKind::DrtmHNc,
        BaselineKind::Fasst,
        BaselineKind::DrtmR,
    ] {
        let (clean, clean_h) = recorded_history(kind, NetConfig::baseline());
        let (lossy, lossy_h) = recorded_history(kind, NetConfig::baseline().with_faults(plan.clone()));
        assert_eq!(
            clean.committed, lossy.committed,
            "{kind:?}: RDMA lanes must shrug off the Ethernet fault plan"
        );
        assert_eq!(clean_h.committed_count(), lossy_h.committed_count());
        let report = xenic_check::check_history(&lossy_h, &xenic_check::CheckOptions::strict());
        assert!(
            report.is_serializable(),
            "{kind:?} lossy history not serializable:\n{}",
            report.describe()
        );
    }
}
