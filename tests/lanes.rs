//! Lane-count invariance: the multi-lane epoch-barrier scheduler
//! (DESIGN.md §16) must reproduce the serial scheduler bit for bit.
//!
//! Every event carries an intrinsic `(owner node, per-node counter)`
//! stamp and every RNG draw comes from a per-node stream, so the whole
//! simulation is a pure function of `(seed, config)` regardless of how
//! nodes are spread across worker threads. These tests assert that for
//! every workload × replication backend × fault plan in the matrix,
//! lanes ∈ {1, 2, 4} produce identical commit stats, identical event
//! counts, and identical whole-cluster table digests — the same style of
//! pin `queue_differential.rs` uses for the event queue itself — and that
//! a recorded run's `History` and a traced run's exports are
//! lane-invariant too.

use xenic::harness::{
    build, cluster_digest, run, run_recorded, run_xenic_cluster_with, RunOptions, RunResult,
};
use xenic::{ReplBackend, Workload, Xenic, XenicConfig};
use xenic_baselines::{Baseline, BaselineKind};
use xenic_check::HistoryRecorder;
use xenic_hw::HwParams;
use xenic_net::{Cluster, FaultPlan, LaneAssignment, NetConfig, ParCluster};
use xenic_sim::{SimTime, TraceConfig};
use xenic_workloads::{
    Retwis, RetwisConfig, Smallbank, SmallbankConfig, YcsbE, YcsbEConfig,
};

/// One run's complete fingerprint.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Fingerprint {
    committed: u64,
    aborted: u64,
    digest: u64,
    processed: u64,
}

fn fingerprint(
    nodes: usize,
    net: NetConfig,
    cfg: XenicConfig,
    opts: &RunOptions,
    mk: impl Fn(usize) -> Box<dyn Workload>,
) -> Fingerprint {
    run_on(HwParams::paper_testbed(), nodes, net, cfg, opts, mk, None).0
}

/// One run — with `recorder`, if given, attached to every node — as its
/// fingerprint, the harness result (lane counters included) and the
/// finished cluster (for its tracer).
fn run_on(
    base: HwParams,
    nodes: usize,
    net: NetConfig,
    cfg: XenicConfig,
    opts: &RunOptions,
    mk: impl Fn(usize) -> Box<dyn Workload>,
    recorder: Option<HistoryRecorder>,
) -> (Fingerprint, RunResult, Cluster<Xenic>) {
    let params = HwParams { nodes, ..base };
    let (r, cluster) = run_xenic_cluster_with(params, net, cfg, opts, mk, move |c| {
        if let Some(rec) = &recorder {
            for st in &mut c.states {
                st.set_recorder(rec.clone());
            }
        }
    });
    let fp = Fingerprint {
        committed: r.committed,
        aborted: r.aborted,
        digest: cluster_digest(&cluster),
        processed: cluster.rt.queue.processed(),
    };
    (fp, r, cluster)
}

fn quick_opts(seed: u64, lanes: usize) -> RunOptions {
    RunOptions {
        windows: 2,
        warmup: SimTime::from_us(100),
        measure: SimTime::from_us(250),
        seed,
        lanes,
        ..Default::default()
    }
}

#[derive(Clone, Copy)]
enum Wl {
    Smallbank,
    Retwis,
    YcsbE,
}

fn mk_workload(wl: Wl, nodes: u32) -> impl Fn(usize) -> Box<dyn Workload> {
    move |_| match wl {
        Wl::Smallbank => Box::new(Smallbank::new(SmallbankConfig {
            accounts_per_node: 5_000,
            ..SmallbankConfig::sim(nodes)
        })),
        Wl::Retwis => Box::new(Retwis::new(RetwisConfig::sim(nodes))),
        Wl::YcsbE => Box::new(YcsbE::new(YcsbEConfig::sim(nodes))),
    }
}

/// The tentpole contract: Smallbank/Retwis/YCSB-E × every replication
/// backend × a lossy fault plan, at lanes ∈ {1, 2, 4, 8}, all
/// byte-identical (8 lanes over 6 nodes also exercises the lane-count
/// clamp).
#[test]
fn lane_count_invariance_matrix() {
    let nodes = 6usize;
    for wl in [Wl::Smallbank, Wl::Retwis, Wl::YcsbE] {
        for backend in ReplBackend::ALL {
            let net = NetConfig::full().with_faults(FaultPlan::lossy(0.01, 0.01, 200));
            let cfg = XenicConfig::with_backend(backend);
            let run = |lanes: usize| {
                fingerprint(
                    nodes,
                    net.clone(),
                    cfg,
                    &quick_opts(11, lanes),
                    mk_workload(wl, nodes as u32),
                )
            };
            let serial = run(1);
            assert!(
                serial.committed > 0,
                "{}: matrix point must commit work",
                backend.token()
            );
            for lanes in [2usize, 4, 8] {
                let par = run(lanes);
                assert_eq!(
                    par,
                    serial,
                    "backend {} lanes {} diverged from serial",
                    backend.token(),
                    lanes
                );
            }
        }
    }
}

/// Fault-free lane invariance on the plain full config (no plan active:
/// engines take the pre-fault code paths, which must be just as
/// lane-stable).
#[test]
fn lane_count_invariance_fault_free() {
    let nodes = 6usize;
    let net = NetConfig::full();
    let run = |lanes: usize| {
        fingerprint(
            nodes,
            net.clone(),
            XenicConfig::full(),
            &quick_opts(3, lanes),
            mk_workload(Wl::Retwis, nodes as u32),
        )
    };
    let serial = run(1);
    assert!(serial.committed > 0);
    assert_eq!(run(2), serial);
    assert_eq!(run(4), serial);
    assert_eq!(run(8), serial);
}

/// Crash/restart fault plans cross the lane scheduler too: crash events
/// are stamped by (and routed to) the crashing node's lane, and every
/// `crashed[]` read in the runtime is owner-lane-local.
#[test]
fn lane_count_invariance_crash_restart() {
    use xenic_net::CrashEvent;
    let nodes = 6usize;
    let mut plan = FaultPlan::lossy(0.005, 0.0, 100);
    plan.crashes.push(CrashEvent {
        node: 2,
        at_ns: 150_000,
        restart_at_ns: Some(230_000),
    });
    let net = NetConfig::full().with_faults(plan);
    let run = |lanes: usize| {
        fingerprint(
            nodes,
            net.clone(),
            XenicConfig::full(),
            &quick_opts(5, lanes),
            mk_workload(Wl::Smallbank, nodes as u32),
        )
    };
    let serial = run(1);
    assert!(serial.committed > 0);
    assert_eq!(run(2), serial);
    assert_eq!(run(4), serial);
    assert_eq!(run(8), serial);
}

/// The alternative substrates (DESIGN.md §17) cross the lane scheduler
/// too: BlueField's shifted PCIe/DMA latencies and CXL's local
/// pool-store log completions are all owner-stamped events, so every
/// substrate must be fingerprint-identical at lanes {1, 2, 4, 8}.
#[test]
fn lane_count_invariance_substrates() {
    let nodes = 6usize;
    for base in [HwParams::off_path_bluefield(), HwParams::cxl_shared()] {
        let token = base.substrate.token();
        for wl in [Wl::Smallbank, Wl::Retwis] {
            let net = NetConfig::full().with_faults(FaultPlan::lossy(0.01, 0.01, 200));
            let run = |lanes: usize| {
                run_on(
                    base.clone(),
                    nodes,
                    net.clone(),
                    XenicConfig::full(),
                    &quick_opts(11, lanes),
                    mk_workload(wl, nodes as u32),
                    None,
                )
                .0
            };
            let serial = run(1);
            assert!(serial.committed > 0, "{token}: substrate point must commit work");
            for lanes in [2usize, 4, 8] {
                let par = run(lanes);
                assert_eq!(par, serial, "{token} lanes {lanes} diverged from serial");
            }
        }
    }
}

/// The referee on the scheduler users run: with a `HistoryRecorder`
/// attached, `lanes: N` really runs N lanes (`barriers > 0`) and returns
/// the fingerprint *and* the `History` of the serial run — Retwis for
/// item reads and writes, YCSB-E for scans (predicates), both under a
/// lossy plan so retransmissions cross lanes too.
#[test]
fn recorded_runs_are_lane_invariant() {
    let nodes = 6usize;
    for wl in [Wl::Retwis, Wl::YcsbE] {
        let net = NetConfig::full().with_faults(FaultPlan::lossy(0.01, 0.01, 200));
        let run = |lanes: usize| {
            let recorder = HistoryRecorder::new();
            let (fp, r, _) = run_on(
                HwParams::paper_testbed(),
                nodes,
                net.clone(),
                XenicConfig::full(),
                &quick_opts(23, lanes),
                mk_workload(wl, nodes as u32),
                Some(recorder.clone()),
            );
            (fp, r.barriers, recorder.snapshot())
        };
        let (serial, _, history) = run(1);
        assert!(history.committed_count() > 0, "recorded point must commit work");
        if matches!(wl, Wl::YcsbE) {
            assert!(
                history.committed().any(|(_, rec)| !rec.predicates.is_empty()),
                "YCSB-E must put predicates on record"
            );
        }
        for lanes in [2usize, 4] {
            let (par, barriers, par_history) = run(lanes);
            assert!(barriers > 0, "lanes {lanes}: a recorded run must not fall back to serial");
            assert_eq!(par, serial, "lanes {lanes}: recorded fingerprint diverged");
            assert!(par_history == history, "lanes {lanes}: recorded history diverged");
        }
    }
}

/// The tracer on the scheduler users run: with `TraceConfig::full()`
/// (spans, instants and per-node gauge sampling; the ring sized so
/// nothing drops), `lanes: N` really runs N lanes and the merged trace is
/// the serial run's, byte for byte, in both export formats.
#[test]
fn traced_runs_are_lane_invariant() {
    let nodes = 6usize;
    for wl in [Wl::Retwis, Wl::YcsbE] {
        let net = NetConfig::full()
            .with_faults(FaultPlan::lossy(0.01, 0.01, 200))
            .with_trace(TraceConfig::full().with_capacity(1 << 22));
        let run = |lanes: usize| {
            let (fp, r, cluster) = run_on(
                HwParams::paper_testbed(),
                nodes,
                net.clone(),
                XenicConfig::full(),
                &quick_opts(31, lanes),
                mk_workload(wl, nodes as u32),
                None,
            );
            let tr = cluster.rt.tracer();
            let exports = (tr.chrome_json(), tr.gauges_csv());
            (fp, r.barriers, exports, tr.dropped(), tr.instant_total("Commit"))
        };
        let (serial, _, exports, dropped, commits) = run(1);
        assert_eq!(dropped, 0, "ring must hold the whole run");
        assert!(commits > 0, "traced point must commit work");
        assert!(exports.1.lines().count() > 10 * nodes, "every node must be sampled");
        for lanes in [2usize, 4] {
            let (par, barriers, par_exports, par_dropped, par_commits) = run(lanes);
            assert!(barriers > 0, "lanes {lanes}: a traced run must not fall back to serial");
            assert_eq!(par, serial, "lanes {lanes}: traced fingerprint diverged");
            assert!(par_exports.0 == exports.0, "lanes {lanes}: chrome_json diverged");
            assert!(par_exports.1 == exports.1, "lanes {lanes}: gauges_csv diverged");
            assert_eq!((par_dropped, par_commits), (dropped, commits), "lanes {lanes}");
        }
    }
}

/// The same referee for the four RDMA baselines, which share the harness
/// and therefore the lane scheduler: `lanes: N` really runs N lanes and
/// returns the serial run's `RunResult` fingerprint and `History`.
#[test]
fn baselines_are_lane_invariant() {
    let nodes = 6usize;
    for kind in [
        BaselineKind::DrtmH,
        BaselineKind::DrtmHNc,
        BaselineKind::Fasst,
        BaselineKind::DrtmR,
    ] {
        let run = |lanes: usize| {
            let (r, cluster, recorder) = run_recorded::<Baseline>(
                HwParams::paper_testbed(),
                NetConfig::baseline(),
                kind,
                &quick_opts(29, lanes),
                mk_workload(Wl::Smallbank, nodes as u32),
            );
            let fp = (
                r.committed,
                r.aborted,
                cluster.rt.queue.processed(),
                r.mean_ns.to_bits(),
                r.p99_ns,
                r.host_busy_cores.to_bits(),
                r.cx5_utilization.to_bits(),
            );
            (fp, r.barriers, recorder.snapshot())
        };
        let (serial, barriers, history) = run(1);
        assert_eq!(barriers, 0, "{kind:?}: one lane is the serial scheduler");
        assert!(serial.0 > 0, "{kind:?}: point must commit work");
        assert!(history.committed_count() > 0, "{kind:?}: nothing on record");
        for lanes in [2usize, 4] {
            let (par, barriers, par_history) = run(lanes);
            assert!(barriers > 0, "{kind:?} lanes {lanes}: fell back to serial");
            assert_eq!(par, serial, "{kind:?} lanes {lanes}: fingerprint diverged");
            assert!(par_history == history, "{kind:?} lanes {lanes}: history diverged");
        }
    }
}

/// The first run ever above the paper's 6-node testbed: a 64-node
/// Smallbank cluster completes deterministically on 4 lanes, matches the
/// serial scheduler, and matches this pinned digest (update it only for
/// a deliberate, understood simulation change).
#[test]
fn smallbank_64_nodes_smoke() {
    let nodes = 64usize;
    let net = NetConfig::full();
    let opts = |lanes| RunOptions {
        windows: 2,
        warmup: SimTime::from_us(60),
        measure: SimTime::from_us(120),
        seed: 13,
        lanes,
        ..Default::default()
    };
    let mk = |_: usize| -> Box<dyn Workload> {
        Box::new(Smallbank::new(SmallbankConfig {
            accounts_per_node: 1_000,
            ..SmallbankConfig::sim(nodes as u32)
        }))
    };
    let params = HwParams {
        nodes,
        ..HwParams::paper_testbed()
    };
    let (r4, c4) = run::<Xenic>(params.clone(), net.clone(), XenicConfig::full(), &opts(4), mk);
    let (r1, c1) = run::<Xenic>(params, net, XenicConfig::full(), &opts(1), mk);
    assert!(r4.committed > 0, "64-node run must commit work");
    assert_eq!(r4.committed, r1.committed);
    assert_eq!(r4.aborted, r1.aborted);
    assert_eq!(cluster_digest(&c4), cluster_digest(&c1));
    assert_eq!(c4.rt.queue.processed(), c1.rt.queue.processed());
    // Pinned 64-node fingerprint (committed, digest, processed).
    assert_eq!(
        (r4.committed, cluster_digest(&c4), c4.rt.queue.processed()),
        PIN_SMALLBANK_64,
        "64-node smallbank fingerprint diverged"
    );
}

/// Captured from the first verified run of `smallbank_64_nodes_smoke`.
const PIN_SMALLBANK_64: (u64, u64, u64) = (2202, 17434623591772061208, 225339);

/// The scale proof for ISSUE 10: a 256-node Smallbank cluster — 4× the
/// previous ceiling, 42× the paper's testbed — runs deterministically at
/// every lane count in {1, 2, 4, 8} and matches a single pinned
/// fingerprint.
#[test]
fn smallbank_256_nodes_pinned() {
    let nodes = 256usize;
    let net = NetConfig::full();
    let opts = |lanes| RunOptions {
        windows: 2,
        warmup: SimTime::from_us(40),
        measure: SimTime::from_us(80),
        seed: 29,
        lanes,
        ..Default::default()
    };
    let mk = |_: usize| -> Box<dyn Workload> {
        Box::new(Smallbank::new(SmallbankConfig {
            accounts_per_node: 500,
            ..SmallbankConfig::sim(nodes as u32)
        }))
    };
    let run = |lanes: usize| {
        let params = HwParams {
            nodes,
            ..HwParams::paper_testbed()
        };
        let (r, c) = run::<Xenic>(params, net.clone(), XenicConfig::full(), &opts(lanes), mk);
        (r.committed, cluster_digest(&c), c.rt.queue.processed())
    };
    let serial = run(1);
    assert!(serial.0 > 0, "256-node run must commit work");
    assert_eq!(serial, PIN_SMALLBANK_256, "256-node smallbank fingerprint diverged");
    for lanes in [2usize, 4, 8] {
        assert_eq!(run(lanes), serial, "lanes {lanes}");
    }
}

/// Captured from the first verified run of `smallbank_256_nodes_pinned`.
const PIN_SMALLBANK_256: (u64, u64, u64) = (5375, 10831341962396519346, 474820);

/// `SimTime::MAX` is a horizon like any other ("run until the queue
/// drains"): a short Smallbank run, every node told to stop issuing, then
/// drained to the end of time on two lanes must return and leave what the
/// serial drain leaves. (The lane bound used to be `horizon + 1`: a
/// debug-build overflow panic, and in release a bound of 0 that woke no
/// lane and spun the coordinator forever.)
#[test]
fn draining_to_simtime_max_returns_on_lanes() {
    let nodes = 6usize;
    let drained = |lanes: usize| {
        let params = HwParams { nodes, ..HwParams::paper_testbed() };
        let mut cluster = build::<Xenic>(
            params,
            NetConfig::full(),
            XenicConfig::full(),
            &quick_opts(37, 1),
            mk_workload(Wl::Smallbank, nodes as u32),
        );
        cluster.run_until(SimTime::from_us(50));
        for st in &mut cluster.states {
            st.draining = true;
        }
        let cluster = if lanes > 1 {
            let mut par = ParCluster::from_cluster_assigned(
                cluster,
                &LaneAssignment::contiguous(nodes, lanes),
            );
            par.run_until(SimTime::MAX);
            par.into_cluster()
        } else {
            cluster.run_until(SimTime::MAX);
            cluster
        };
        assert!(cluster.rt.queue.is_empty(), "lanes {lanes}: drain must empty the queue");
        (cluster.rt.queue.processed(), cluster_digest(&cluster))
    };
    let serial = drained(1);
    assert!(serial.0 > 0);
    assert_eq!(drained(2), serial);
}
