//! Tracer integration tests: determinism of the export, observer purity
//! (tracing never perturbs protocol outcomes), and span hygiene across
//! full cluster runs.

use xenic::api::Workload;
use xenic::engine::Xenic;
use xenic::harness::{build, cluster_digest, drain, run, run_xenic, RunOptions};
use xenic::XenicConfig;
use xenic_bench::fuzz::{Counters, ScanWl};
use xenic_hw::HwParams;
use xenic_net::{Cluster, FaultPlan, NetConfig};
use xenic_sim::{SimTime, TraceConfig, TraceKind};
use xenic_workloads::{Retwis, RetwisConfig};

fn traced_opts(seed: u64) -> RunOptions {
    RunOptions {
        windows: 12,
        warmup: SimTime::from_ms(1),
        measure: SimTime::from_ms(3),
        seed,
        ..Default::default()
    }
}

fn mk_retwis(_: usize) -> Box<dyn Workload> {
    Box::new(Retwis::new(RetwisConfig {
        keys_per_node: 20_000,
        ..RetwisConfig::sim(6)
    }))
}

#[test]
fn export_is_byte_identical_across_reruns() {
    // The whole observability pipeline — event recording, gauge sampling,
    // span matching, JSON formatting — must be a pure function of
    // (configuration, seed). We assert it at the strongest level: the
    // exported bytes. Once fault-free, once under a lossy fault plan.
    let export = |net: NetConfig| {
        let (_, cluster) = run::<Xenic>(
            HwParams::paper_testbed(),
            net.with_trace(TraceConfig::full().with_capacity(1 << 22)),
            XenicConfig::full(),
            &traced_opts(7),
            mk_retwis,
        );
        assert_eq!(cluster.rt.tracer().dropped(), 0, "ring must not evict here");
        (
            cluster.rt.tracer().chrome_json(),
            cluster.rt.tracer().gauges_csv(),
        )
    };
    let (json_a, csv_a) = export(NetConfig::full());
    let (json_b, csv_b) = export(NetConfig::full());
    assert!(json_a == json_b, "chrome export must be byte-identical");
    assert!(csv_a == csv_b, "gauge CSV must be byte-identical");

    let lossy = || NetConfig::full().with_faults(FaultPlan::lossy(0.01, 0.01, 1_500));
    let (json_c, _) = export(lossy());
    let (json_d, _) = export(lossy());
    assert!(json_c == json_d, "lossy-universe export must replay too");
    assert!(json_a != json_c, "faults must perturb the event stream");
}

#[test]
fn range_walk_tracing_is_a_pure_observer_and_emits_instants() {
    // Same purity contract as `tracing_is_a_pure_observer`, but over the
    // scan crossfire workload so the range paths are on the hot path:
    // the `RangeWalk` (Execute-phase ordered-index walk) and
    // `RangeRecheck` (Validate-phase re-walk) instants must appear in
    // the trace without perturbing one measured bit of the run.
    let mk = |_: usize| Box::new(ScanWl { span: 16 }) as Box<dyn Workload>;
    let digest = |net: NetConfig| {
        let r = run_xenic(
            HwParams::paper_testbed(),
            net,
            XenicConfig::full(),
            &traced_opts(13),
            mk,
        );
        (r.committed, r.aborted, r.p50_ns, r.p99_ns, r.ops_per_frame)
    };
    let plain = digest(NetConfig::full());
    let disabled = digest(NetConfig::full().with_trace(TraceConfig::disabled()));
    let traced = digest(NetConfig::full().with_trace(TraceConfig::full()));
    assert_eq!(plain, disabled, "disabled tracing must be invisible");
    assert_eq!(plain, traced, "enabled tracing must not perturb scans");

    let (_, cluster) = run::<Xenic>(
        HwParams::paper_testbed(),
        NetConfig::full().with_trace(TraceConfig::full().with_capacity(1 << 22)),
        XenicConfig::full(),
        &traced_opts(13),
        mk,
    );
    let tracer = cluster.rt.tracer();
    assert_eq!(tracer.dropped(), 0, "ring must hold the whole run");
    let (mut walks, mut rechecks) = (0u64, 0u64);
    for ev in tracer.events() {
        if matches!(ev.kind, TraceKind::Instant { .. }) {
            match ev.name {
                "RangeWalk" => walks += 1,
                "RangeRecheck" => rechecks += 1,
                _ => {}
            }
        }
    }
    assert!(walks > 100, "expected many Execute walks, saw {walks}");
    assert!(rechecks > 20, "expected Validate re-walks, saw {rechecks}");
}

#[test]
fn tracing_is_a_pure_observer() {
    // Three universes that must be indistinguishable at the protocol
    // level: no trace config at all, tracing explicitly disabled, and
    // tracing fully on. The first two are the "zero-cost when disabled"
    // contract; the third holds because recording only mutates the
    // tracer (gauge sampling reads hardware state, never advances it).
    // On the serial scheduler and on four lanes alike.
    let digest = |net: NetConfig, lanes: usize| {
        let (r, cluster) = run::<Xenic>(
            HwParams::paper_testbed(),
            net,
            XenicConfig::full(),
            &RunOptions { lanes, ..traced_opts(9) },
            |_| {
                Box::new(Counters {
                    keys: 2000,
                    remote_frac: 0.6,
                }) as Box<dyn Workload>
            },
        );
        let table = cluster_digest(&cluster);
        (r.committed, r.aborted, r.p50_ns, r.p99_ns, r.ops_per_frame, table)
    };
    let plain = digest(NetConfig::full(), 1);
    for lanes in [1usize, 4] {
        let disabled = digest(NetConfig::full().with_trace(TraceConfig::disabled()), lanes);
        let traced = digest(NetConfig::full().with_trace(TraceConfig::full()), lanes);
        assert_eq!(plain, disabled, "lanes {lanes}: disabled tracing must be invisible");
        assert_eq!(plain, traced, "lanes {lanes}: enabled tracing must not perturb the run");
    }
}

/// Builds a traced counter cluster with every window seeded.
fn traced_counter_cluster(windows: usize, seed: u64, cfg: XenicConfig) -> Cluster<Xenic> {
    let net = NetConfig::full().with_trace(TraceConfig::spans().with_capacity(1 << 22));
    let opts = RunOptions { windows, seed, ..Default::default() };
    build::<Xenic>(HwParams::paper_testbed(), net, cfg, &opts, |_| {
        Box::new(Counters {
            keys: 3000,
            remote_frac: 0.7,
        })
    })
}

#[test]
fn drained_run_leaves_no_open_spans() {
    // Every span the engine opens must be closed on every path — commit,
    // read-only commit, local fast path, multi-hop, abort. After a full
    // drain nothing is in flight, so an unmatched begin can only mean a
    // leaked span on some protocol path.
    let mut cluster = traced_counter_cluster(8, 21, XenicConfig::full());
    cluster.run_until(SimTime::from_ms(4));
    drain(&mut cluster, SimTime::from_ms(80));
    let tracer = cluster.rt.tracer();
    assert_eq!(tracer.dropped(), 0, "sized the ring to hold everything");
    assert!(tracer.spans().len() > 1_000, "run must have produced spans");
    assert_eq!(
        tracer.open_span_count(),
        0,
        "a drained run must close every span it opened"
    );
}

#[test]
fn committed_txn_spans_cover_the_protocol_in_order() {
    // For standard-path committed transactions the tracer must show the
    // paper's §4.2 anatomy: Execute, then Validate, then Log, each
    // non-overlapping and in order, with the Commit instant at or after
    // the Log close. (Multi-hop transactions show a single Execute span;
    // read-only ones skip Log — both are filtered out by requiring all
    // three spans for an id.) Multi-hop is disabled so the single-shard
    // counter transactions take the standard Execute/Validate/Log path.
    use std::collections::{BTreeMap, HashMap};
    let mut cluster = traced_counter_cluster(
        8,
        33,
        XenicConfig {
            occ_multihop: false,
            ..XenicConfig::full()
        },
    );
    cluster.run_until(SimTime::from_ms(4));
    let tracer = cluster.rt.tracer();

    type PhaseWindows = BTreeMap<&'static str, (SimTime, SimTime)>;
    let mut by_id: HashMap<(u32, u64), PhaseWindows> = HashMap::new();
    for s in tracer.spans() {
        by_id.entry((s.node, s.id)).or_default().insert(s.name, (s.begin, s.end));
    }
    let mut commit_at: HashMap<(u32, u64), SimTime> = HashMap::new();
    for ev in tracer.events() {
        if let TraceKind::Instant { id } = ev.kind {
            if ev.name == "Commit" {
                commit_at.insert((ev.node, id), ev.at);
            }
        }
    }

    let mut checked = 0usize;
    for (key, phases) in &by_id {
        let (Some(exec), Some(val), Some(log)) = (
            phases.get("Execute"),
            phases.get("Validate"),
            phases.get("Log"),
        ) else {
            continue;
        };
        let Some(&commit) = commit_at.get(key) else {
            continue; // aborted or still in flight
        };
        assert!(exec.0 <= exec.1, "Execute must not run backwards");
        assert!(exec.1 <= val.0, "Validate must start after Execute ends");
        assert!(val.0 <= val.1 && val.1 <= log.0, "Log must follow Validate");
        assert!(log.0 <= log.1 && log.1 <= commit, "Commit seals the Log phase");
        checked += 1;
    }
    assert!(
        checked > 500,
        "expected many standard-path commits, checked only {checked}"
    );
}
