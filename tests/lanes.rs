//! Lane-count invariance: the multi-lane epoch-barrier scheduler
//! (DESIGN.md §16) must reproduce the serial scheduler bit for bit.
//!
//! Every event carries an intrinsic `(owner node, per-node counter)`
//! stamp and every RNG draw comes from a per-node stream, so the whole
//! simulation is a pure function of `(seed, config)` regardless of how
//! nodes are spread across worker threads. These tests take the
//! multi-lane cells of the fuzzer's pairwise sample
//! (`FuzzPoint::sample`: every engine, backend, substrate, workload and
//! plan shape meets lanes 2 and lanes 4 there) and assert that each one
//! reproduces its serial sibling — commit stats, latencies, event counts,
//! whole-cluster table digests and the recorded `History` — and that a
//! traced run's exports are lane-invariant too. `serial_fuzz` makes the
//! same comparison in release, beside the exhaustive serial product.

use xenic::harness::{build, cluster_digest, run, RunOptions};
use xenic::{Workload, Xenic, XenicConfig};
use xenic_bench::fuzz::{run_point, FuzzEngine, FuzzPoint, PLANS};
use xenic_hw::{HwParams, SubstrateKind};
use xenic_net::{FaultPlan, LaneAssignment, NetConfig, ParCluster};
use xenic_sim::{SimTime, TraceConfig};
use xenic_workloads::{Retwis, RetwisConfig, Smallbank, SmallbankConfig, YcsbE, YcsbEConfig};

/// The multi-lane cells of the pairwise sample that `keep` accepts.
fn sampled(keep: impl Fn(&FuzzPoint) -> bool) -> Vec<FuzzPoint> {
    let cells: Vec<FuzzPoint> = FuzzPoint::sample()
        .into_iter()
        .filter(|p| p.lanes > 1 && keep(p))
        .collect();
    assert!(!cells.is_empty(), "the filter matches no sampled cell");
    cells
}

/// Runs every cell beside its serial sibling: both must pass the
/// fuzzer's referee and agree on everything but the lane counters.
fn assert_lane_invariant(cells: Vec<FuzzPoint>) {
    for p in cells {
        let (par, serial) = (run_point(&p), run_point(&FuzzPoint { lanes: 1, ..p }));
        assert!(serial.passed(), "{p} at lanes 1: {}", serial.describe());
        assert_eq!(serial.result.barriers, 0, "{p}: one lane is the serial scheduler");
        assert!(par.result.barriers > 0, "{p}: fell back to the serial scheduler");
        assert_eq!(par.fingerprint(), serial.fingerprint(), "{p}: fingerprint diverged");
        let timing = |r: &xenic::RunResult| {
            (r.p50_ns, r.p99_ns, r.mean_ns.to_bits(), r.host_busy_cores.to_bits(), r.cx5_utilization.to_bits())
        };
        assert_eq!(timing(&par.result), timing(&serial.result), "{p}: latencies diverged");
        assert!(par.history == serial.history, "{p}: recorded history diverged");
        if p.wl.has_scans() {
            assert!(
                par.history.committed().any(|(_, rec)| !rec.predicates.is_empty()),
                "{p}: a scan workload must put predicates on record"
            );
        }
    }
}

fn is_xenic(p: &FuzzPoint) -> bool {
    matches!(p.engine, FuzzEngine::Xenic { .. })
}

/// Xenic under delivery jitter, or under loss and duplication.
fn xenic_jitter_or_loss(p: &FuzzPoint) -> bool {
    is_xenic(p) && [PLANS[1], PLANS[2]].contains(&p.plan)
}

/// Fault-free lane invariance (no plan active: engines take the
/// pre-fault code paths, which must be just as lane-stable).
#[test]
fn lane_count_invariance_fault_free() {
    assert_lane_invariant(sampled(|p| is_xenic(p) && p.plan == PLANS[0]));
}

/// The paper's substrate under jitter and loss: retransmissions and
/// duplicate suppression cross lanes too. A pairwise cover need not put
/// Xenic, the paper's substrate, a lossy plan and lanes > 1 in one cell,
/// so the sampled lossy Xenic cells are moved onto it.
#[test]
fn lane_count_invariance_matrix() {
    let on_path = |p| FuzzPoint {
        substrate: SubstrateKind::OnPathLiquidIO,
        ..p
    };
    assert_lane_invariant(
        sampled(xenic_jitter_or_loss)
            .into_iter()
            .map(on_path)
            .collect(),
    );
}

/// The alternative substrates (DESIGN.md §17) under jitter and loss:
/// BlueField's shifted PCIe/DMA latencies and CXL's local pool-store log
/// completions are all owner-stamped events.
#[test]
fn lane_count_invariance_substrates() {
    assert_lane_invariant(sampled(|p| {
        xenic_jitter_or_loss(p) && p.substrate != SubstrateKind::OnPathLiquidIO
    }));
}

/// Crash/restart fault plans cross the lane scheduler too: crash events
/// are stamped by (and routed to) the crashing node's lane, and every
/// `crashed[]` read in the runtime is owner-lane-local.
#[test]
fn lane_count_invariance_crash_restart() {
    assert_lane_invariant(sampled(|p| is_xenic(p) && p.plan == PLANS[3]));
}

/// The referee on the scheduler users run: with a `HistoryRecorder`
/// attached, `lanes: N` really runs N lanes and returns the fingerprint
/// *and* the `History` of the serial run — predicates included, which is
/// what the scan workloads put on record.
#[test]
fn recorded_runs_are_lane_invariant() {
    assert_lane_invariant(sampled(|p| is_xenic(p) && p.wl.has_scans()));
}

/// The same referee for the four RDMA baselines, which share the harness
/// and therefore the lane scheduler.
#[test]
fn baselines_are_lane_invariant() {
    assert_lane_invariant(sampled(|p| !is_xenic(p)));
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

/// The tracer on the scheduler users run: with `TraceConfig::full()`
/// (spans, instants and per-node gauge sampling; the ring sized so
/// nothing drops), `lanes: N` really runs N lanes and the merged trace is
/// the serial run's, byte for byte, in both export formats.
#[test]
fn traced_runs_are_lane_invariant() {
    let nodes = 6usize;
    let workloads: [fn() -> Box<dyn Workload>; 2] = [
        || Box::new(Retwis::new(RetwisConfig::sim(6))),
        || Box::new(YcsbE::new(YcsbEConfig::sim(6))),
    ];
    for mk in workloads {
        let net = NetConfig::full()
            .with_faults(FaultPlan::lossy(0.01, 0.01, 200))
            .with_trace(TraceConfig::full().with_capacity(1 << 22));
        let run = |lanes: usize| {
            let (r, cluster) = run::<Xenic>(
                HwParams::paper_testbed(),
                net.clone(),
                XenicConfig::full(),
                &quick_opts(31, lanes),
                |_| mk(),
            );
            let fp = (r.committed, r.aborted, cluster_digest(&cluster), cluster.rt.queue.processed());
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
            |_| {
                Box::new(Smallbank::new(SmallbankConfig {
                    accounts_per_node: 5_000,
                    ..SmallbankConfig::sim(nodes as u32)
                }))
            },
        );
        cluster.run_until(SimTime::from_us(50));
        for st in &mut cluster.states {
            st.client.drain();
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
