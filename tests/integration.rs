//! Cross-crate integration tests: whole-cluster runs spanning the
//! simulator, hardware models, data stores, protocol engines, and
//! workloads.

use xenic::api::{Partitioning, Workload};
use xenic::audit::{full_audit, replicas_converged};
use xenic::engine::{Xenic, XenicNode};
use xenic::harness::{build, drain, run_xenic, RunOptions};
use xenic::recovery::{audit_recovery, recover_shard};
use xenic::XenicConfig;
use xenic_baselines::{run_baseline, BaselineKind};
use xenic_bench::fuzz::Counters;
use xenic_hw::HwParams;
use xenic_net::{Cluster, FaultPlan, NetConfig};
use xenic_sim::SimTime;
use xenic_workloads::{Retwis, RetwisConfig, Smallbank, SmallbankConfig, Tpcc, TpccConfig, TpccMix};

/// A factory for per-node workload generators.
type WorkloadFactory = Box<dyn Fn(usize) -> Box<dyn Workload>>;

fn counter_cluster(windows: usize, seed: u64) -> Cluster<Xenic> {
    let opts = RunOptions { windows, seed, ..Default::default() };
    let mut cluster =
        build::<Xenic>(HwParams::paper_testbed(), NetConfig::full(), XenicConfig::full(), &opts, |_| {
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

#[test]
fn committed_increments_are_exactly_conserved() {
    // The strongest end-to-end serializability audit available: after a
    // full drain, the sum of all counters must equal the number of
    // committed increment transactions — any lost, doubled, or phantom
    // write breaks the equality exactly.
    let mut cluster = counter_cluster(8, 21);
    cluster.run_until(SimTime::from_ms(6));
    drain(&mut cluster, SimTime::from_ms(80));
    let report = full_audit(&cluster.states, &cluster.states[0].part).expect("clean run must audit");
    assert!(report.committed > 5_000, "committed {}", report.committed);
    assert_eq!(report.counter_sum as u64, report.committed, "increments lost or duplicated");
}

#[test]
fn replicas_converge_after_drain() {
    let mut cluster = counter_cluster(6, 33);
    cluster.run_until(SimTime::from_ms(5));
    drain(&mut cluster, SimTime::from_ms(80));
    // Every backup's copy of a shard must equal the primary's table.
    let checked = replicas_converged(&cluster.states, &cluster.states[0].part).expect("replicas diverged");
    assert!(checked >= 2 * 6 * 3000, "only {checked} backup rows compared");
}

#[test]
fn failover_mid_run_loses_nothing_committed() {
    let mut cluster = counter_cluster(6, 55);
    cluster.run_until(SimTime::from_ms(4));
    let part = Partitioning::new(6, 3);
    const FAILED: usize = 1;
    let mut refs: Vec<Option<&mut XenicNode>> = cluster
        .states
        .iter_mut()
        .enumerate()
        .map(|(i, s)| if i == FAILED { None } else { Some(s) })
        .collect();
    let report = recover_shard(&mut refs, &part, FAILED);
    assert!(report.keys_recovered >= 3000);
    let ro: Vec<Option<&XenicNode>> = cluster
        .states
        .iter()
        .enumerate()
        .map(|(i, s)| if i == FAILED { None } else { Some(s) })
        .collect();
    audit_recovery(&ro, &part, FAILED, report.new_primary).expect("recovery audit");
}

#[test]
fn all_five_systems_run_every_workload() {
    let opts = RunOptions {
        windows: 4,
        warmup: SimTime::from_ms(1),
        measure: SimTime::from_ms(3),
        seed: 5,
        lanes: 1,
        ..Default::default()
    };
    let params = HwParams::paper_testbed();
    let workloads: [(&str, WorkloadFactory); 3] = [
        (
            "smallbank",
            Box::new(|_| {
                Box::new(Smallbank::new(SmallbankConfig {
                    accounts_per_node: 20_000,
                    ..SmallbankConfig::sim(6)
                })) as Box<dyn Workload>
            }),
        ),
        (
            "retwis",
            Box::new(|_| {
                Box::new(Retwis::new(RetwisConfig {
                    keys_per_node: 20_000,
                    ..RetwisConfig::sim(6)
                })) as Box<dyn Workload>
            }),
        ),
        (
            "tpcc",
            Box::new(|_| {
                Box::new(Tpcc::new(TpccConfig {
                    warehouses_per_node: 4,
                    ..TpccConfig::sim(6, TpccMix::Full)
                })) as Box<dyn Workload>
            }),
        ),
    ];
    for (name, mkw) in &workloads {
        let x = run_xenic(
            params.clone(),
            NetConfig::full(),
            XenicConfig::full(),
            &opts,
            mkw.as_ref(),
        );
        assert!(x.committed > 100, "{name}/xenic committed {}", x.committed);
        for kind in [
            BaselineKind::DrtmH,
            BaselineKind::DrtmHNc,
            BaselineKind::Fasst,
            BaselineKind::DrtmR,
        ] {
            let r = run_baseline(kind, params.clone(), &opts, mkw.as_ref());
            assert!(
                r.committed > 50,
                "{name}/{kind:?} committed {}",
                r.committed
            );
        }
    }
}

#[test]
fn whole_stack_is_deterministic() {
    let run = |seed, net: NetConfig| {
        let r = run_xenic(
            HwParams::paper_testbed(),
            net,
            XenicConfig::full(),
            &RunOptions {
                windows: 6,
                warmup: SimTime::from_ms(1),
                measure: SimTime::from_ms(4),
                seed,
                lanes: 1,
                ..Default::default()
            },
            |_| {
                Box::new(Counters {
                    keys: 2000,
                    remote_frac: 0.6,
                })
            },
        );
        (r.committed, r.p50_ns, r.aborted)
    };
    assert_eq!(
        run(9, NetConfig::full()),
        run(9, NetConfig::full()),
        "same seed, same universe"
    );
    assert_ne!(
        run(9, NetConfig::full()),
        run(10, NetConfig::full()),
        "different seed, different schedule"
    );
    // Determinism must survive fault injection: the fault schedule is a
    // pure function of (seed, plan), so a lossy universe replays too.
    let lossy = || NetConfig::full().with_faults(FaultPlan::lossy(0.01, 0.01, 1_500));
    assert_eq!(
        run(9, lossy()),
        run(9, lossy()),
        "same seed, same faulty universe"
    );
    assert_ne!(
        run(9, lossy()),
        run(9, NetConfig::full()),
        "faults must perturb the run"
    );
}

#[test]
fn half_bandwidth_lowers_peak_throughput() {
    let mk = |_: usize| -> Box<dyn Workload> {
        Box::new(Tpcc::new(TpccConfig {
            warehouses_per_node: 8,
            ..TpccConfig::sim(6, TpccMix::NewOrderOnly)
        }))
    };
    let opts = RunOptions {
        windows: 48,
        warmup: SimTime::from_ms(2),
        measure: SimTime::from_ms(5),
        seed: 3,
        lanes: 1,
        ..Default::default()
    };
    let full = run_xenic(
        HwParams::paper_testbed(),
        NetConfig::full(),
        XenicConfig::full(),
        &opts,
        mk,
    );
    let half = run_xenic(
        HwParams::paper_testbed_half_bandwidth(),
        NetConfig::full(),
        XenicConfig::full(),
        &opts,
        mk,
    );
    assert!(
        half.tput_per_server < full.tput_per_server,
        "halving bandwidth must cost throughput: {} vs {}",
        half.tput_per_server,
        full.tput_per_server
    );
}

#[test]
fn xenic_beats_best_baseline_on_paper_benchmarks() {
    // The headline claim at a fixed moderate-to-high load level.
    let opts = RunOptions {
        windows: 48,
        warmup: SimTime::from_ms(2),
        measure: SimTime::from_ms(5),
        seed: 42,
        lanes: 1,
        ..Default::default()
    };
    let params = HwParams::paper_testbed();
    let mk = |_: usize| -> Box<dyn Workload> {
        Box::new(Smallbank::new(SmallbankConfig {
            accounts_per_node: 60_000,
            ..SmallbankConfig::sim(6)
        }))
    };
    let x = run_xenic(
        params.clone(),
        NetConfig::full(),
        XenicConfig::full(),
        &opts,
        mk,
    );
    let best_baseline = [BaselineKind::DrtmH, BaselineKind::Fasst, BaselineKind::DrtmR]
        .into_iter()
        .map(|k| run_baseline(k, params.clone(), &opts, mk).tput_per_server)
        .fold(0.0f64, f64::max);
    assert!(
        x.tput_per_server > best_baseline * 1.2,
        "Xenic {} vs best baseline {}",
        x.tput_per_server,
        best_baseline
    );
}

#[test]
fn scan_workloads_run_under_xenic_and_fasst_serializably() {
    // The two range-scan evaluation workloads — YCSB-E (95% scans) and
    // the scan-weighted TPC-C stock-level mix — must run under Xenic
    // full *and* the FaSST baseline (the one other system that speaks
    // the scan protocol), commit real work including predicate reads,
    // and leave strictly serializable histories.
    use xenic::harness::run_recorded;
    use xenic_baselines::Baseline;
    use xenic_check::{check_history, CheckOptions};
    use xenic_workloads::{YcsbE, YcsbEConfig};

    let opts = RunOptions {
        windows: 3,
        warmup: SimTime::from_us(500),
        measure: SimTime::from_ms(2),
        seed: 17,
        lanes: 1,
        ..Default::default()
    };
    let params = HwParams::paper_testbed();
    let workloads: [(&str, WorkloadFactory); 2] = [
        (
            "ycsbe",
            Box::new(|_| {
                Box::new(YcsbE::new(YcsbEConfig {
                    keys_per_node: 5_000,
                    ..YcsbEConfig::sim(6)
                })) as Box<dyn Workload>
            }),
        ),
        (
            "tpcc_stock",
            Box::new(|_| {
                Box::new(Tpcc::new(TpccConfig {
                    warehouses_per_node: 2,
                    ..TpccConfig::sim(6, TpccMix::StockScan)
                })) as Box<dyn Workload>
            }),
        ),
    ];
    for (name, mkw) in &workloads {
        let (x, _, xh) = run_recorded::<Xenic>(
            params.clone(),
            NetConfig::full(),
            XenicConfig::full(),
            &opts,
            mkw.as_ref(),
        );
        let (f, _, fh) = run_recorded::<Baseline>(
            params.clone(),
            NetConfig::baseline(),
            BaselineKind::Fasst,
            &opts,
            mkw.as_ref(),
        );
        for (sys, r, h) in [("xenic", &x, &xh.snapshot()), ("fasst", &f, &fh.snapshot())] {
            assert!(r.committed > 100, "{name}/{sys} committed {}", r.committed);
            let with_preds = h
                .committed()
                .filter(|(_, rec)| !rec.predicates.is_empty())
                .count();
            assert!(
                with_preds > 20,
                "{name}/{sys}: only {with_preds} committed scans recorded"
            );
            let report = check_history(h, &CheckOptions::strict());
            assert!(
                report.is_serializable(),
                "{name}/{sys} not serializable:\n{}",
                report.describe()
            );
        }
    }
}
