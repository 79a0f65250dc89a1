//! Run harness: builds a cluster, applies closed-loop load, and reports
//! the paper's metrics (per-server throughput, median latency).
//!
//! Two stages, both generic over the [`Engine`] (Xenic here, the RDMA
//! baselines in `xenic-baselines`): [`build`] constructs the nodes and
//! seeds the closed loop; [`measure`] runs warm-up and the measurement
//! window — serially or on scheduler lanes — and merges the per-node
//! statistics. [`run`] and [`run_recorded`] compose them; every
//! Figure 8 / Figure 9 / Table 3 experiment and all five systems go
//! through this one path.

use crate::api::{Partitioning, Workload};
use crate::config::XenicConfig;
use crate::engine::{Xenic, XenicNode};
use crate::client::{Client, SlotMsg};
use crate::stats::NodeStats;
use xenic_check::HistoryRecorder;
use xenic_hw::HwParams;
use xenic_net::{Cluster, Exec, LaneAssignment, LaneStats, NetConfig, ParCluster, Protocol};
use xenic_sim::SimTime;
use xenic_store::{Key, Value, Version};

/// Aggregate results of one measured run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Committed metric transactions per second, per server.
    pub tput_per_server: f64,
    /// Median latency of metric transactions, ns.
    pub p50_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// Mean latency, ns.
    pub mean_ns: f64,
    /// Total commits (metric) across the cluster in the window.
    pub committed: u64,
    /// Total aborted attempts in the window.
    pub aborted: u64,
    /// Mean busy host cores per node over the measurement window.
    pub host_busy_cores: f64,
    /// Mean busy NIC cores per node.
    pub nic_busy_cores: f64,
    /// Mean LiquidIO egress utilization across nodes (0–1).
    pub lio_utilization: f64,
    /// Mean CX5 egress utilization across nodes (0–1).
    pub cx5_utilization: f64,
    /// Mean protocol messages per Ethernet frame (§4.3.2 batching).
    pub ops_per_frame: f64,
    /// Mean DMA elements per submitted vector (§4.3.1 fill factor).
    pub dma_vector_fill: f64,
    /// DMA elements per committed metric transaction in the window
    /// (PCIe pressure; rises as the NIC cache shrinks, §4.3.3).
    pub dma_elements_per_txn: f64,
    /// Commit-log records DMA-shipped into replica host memory during
    /// the window. Zero by contract on the CXL substrate (DESIGN.md
    /// §17).
    pub log_ship_writes: u64,
    /// Commit-log records written once into the shared CXL pool. Zero
    /// on every other substrate.
    pub cxl_log_writes: u64,
    /// Events routed between scheduler lanes through the outboxes
    /// (DESIGN.md §18). Zero on the serial scheduler; deterministic for
    /// a fixed `(seed, config, lanes)` on any host.
    pub cross_lane_events: u64,
    /// Lane-worker wakeups the epoch coordinator actually paid (the
    /// amortized-barrier skip rule elides the rest). Zero on the serial
    /// scheduler; deterministic like [`RunResult::cross_lane_events`].
    pub barriers: u64,
}

/// How nodes map onto lanes when [`RunOptions::lanes`] exceeds 1. One
/// value: the shard-group policy was cut in PR 20 (DESIGN.md §18), and
/// the type survives because the `benchmark/` crate, frozen for that PR,
/// names `LaneAssign::Contiguous` (ROADMAP, blocked list).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LaneAssign {
    /// Balanced contiguous block split.
    #[default]
    Contiguous,
}

/// Harness options.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Closed-loop application threads ("windows") per node.
    pub windows: usize,
    /// Warmup before measurement starts.
    pub warmup: SimTime,
    /// Measurement window length.
    pub measure: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// Scheduler lanes: 1 = the serial scheduler; N > 1 runs the cluster
    /// on N worker threads with epoch barriers (DESIGN.md §16). 0 clamps
    /// to the machine's available parallelism. Results, recorded
    /// histories and trace exports are the same at every value.
    pub lanes: usize,
    /// One-valued; see [`LaneAssign`].
    pub assignment: LaneAssign,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            windows: 8,
            warmup: SimTime::from_ms(2),
            measure: SimTime::from_ms(10),
            seed: 42,
            lanes: 1,
            assignment: LaneAssign::Contiguous,
        }
    }
}

/// What the harness needs from a protocol beyond [`Protocol`]: how to
/// construct a node, and where its closed-loop client and counters
/// live. Implemented by [`Xenic`] and by `xenic_baselines::Baseline`;
/// it sits beside `Protocol` rather than inside it because `Protocol` is
/// the event loop's contract (cost + handle), which wrappers outside the
/// workspace implement without being able to build a cluster.
pub trait Engine: Protocol<Msg: Send + SlotMsg, State: Send> {
    /// Per-run engine configuration, handed to every node.
    type Config: Copy;

    /// Builds node `node` of a `nodes`-node cluster, preloaded with its
    /// shard of `workload`, with `windows` closed-loop slots.
    fn node(
        node: usize,
        nodes: usize,
        cfg: Self::Config,
        workload: Box<dyn Workload>,
        windows: usize,
    ) -> Self::State;

    /// The node's counters.
    fn stats(state: &mut Self::State) -> &mut NodeStats;

    /// Attaches a commit-history recorder (a pure observer).
    fn set_recorder(state: &mut Self::State, recorder: HistoryRecorder);

    /// The node's closed-loop client ([`drain`] stops it submitting).
    fn client(state: &mut Self::State) -> &mut Client;

    /// Visits the node's committed rows in key order ([`cluster_digest`]).
    fn visit_rows(state: &Self::State, visit: &mut dyn FnMut(Key, &Value, Version));
}

impl Engine for Xenic {
    type Config = XenicConfig;

    fn node(
        node: usize,
        nodes: usize,
        cfg: XenicConfig,
        workload: Box<dyn Workload>,
        windows: usize,
    ) -> XenicNode {
        let part = Partitioning::new(nodes as u32, cfg.replication);
        XenicNode::new(node, cfg, part, workload, windows)
    }

    fn stats(state: &mut XenicNode) -> &mut NodeStats {
        &mut state.stats
    }

    fn set_recorder(state: &mut XenicNode, recorder: HistoryRecorder) {
        state.set_recorder(recorder);
    }

    fn client(state: &mut XenicNode) -> &mut Client {
        &mut state.client
    }

    fn visit_rows(state: &XenicNode, visit: &mut dyn FnMut(Key, &Value, Version)) {
        let mut keys: Vec<Key> = state.host_table.iter_keys().map(|(k, _)| k).collect();
        keys.sort_unstable();
        for k in keys {
            let (v, ver) = state.host_table.get(k).expect("key present");
            visit(k, v, ver);
        }
    }
}

/// Stage one: builds the cluster and seeds one start message per
/// application-thread slot, staggered slightly so the first burst
/// doesn't collide artificially. Uses `opts.windows` and `opts.seed`.
///
/// `mk_workload` constructs each node's generator (they usually share a
/// config but must be independent objects).
pub fn build<E: Engine>(
    params: HwParams,
    net: NetConfig,
    cfg: E::Config,
    opts: &RunOptions,
    mk_workload: impl Fn(usize) -> Box<dyn Workload>,
) -> Cluster<E> {
    let (nodes, windows) = (params.nodes, opts.windows);
    let mut cluster: Cluster<E> = Cluster::new(params, net, opts.seed, |node| {
        E::node(node, nodes, cfg, mk_workload(node), windows)
    });
    for node in 0..nodes {
        for slot in 0..windows {
            cluster.seed(
                SimTime::from_ns((node * windows + slot) as u64 * 97),
                node,
                Exec::Host,
                E::Msg::start(slot as u32),
            );
        }
    }
    cluster
}

/// Stage two: warm-up, measurement window, metrics — on the serial
/// event loop, or on `opts.lanes` scheduler lanes when that exceeds 1.
/// Returns the finished cluster so callers can read post-run state
/// (tables, the tracer).
pub fn measure<E: Engine>(cluster: Cluster<E>, opts: &RunOptions) -> (RunResult, Cluster<E>) {
    let nodes = cluster.rt.node_count();
    let lanes = crate::resolve_parallelism(opts.lanes);
    let mut drv = if lanes > 1 {
        let assignment = LaneAssignment::contiguous(nodes, lanes);
        Driver::Par(ParCluster::from_cluster_assigned(cluster, &assignment))
    } else {
        Driver::Serial(cluster)
    };
    drv.run_until(opts.warmup);
    let mstart = drv.now();
    for n in 0..nodes {
        E::stats(drv.state_mut(n)).start_measuring(mstart);
    }
    let before = drv.counters(nodes);

    let horizon = SimTime::from_ns(opts.warmup.as_ns() + opts.measure.as_ns());
    drv.run_until(horizon);
    let mend = drv.now().max(horizon);
    let used = drv.counters(nodes).since(before);
    let lane_stats = match &drv {
        Driver::Serial(_) => LaneStats::default(),
        Driver::Par(p) => p.stats(),
    };
    let mut cluster = match drv {
        Driver::Serial(c) => c,
        Driver::Par(p) => p.into_cluster(),
    };
    let result = collect(&mut cluster, mend.since(mstart), used, lane_stats);
    (result, cluster)
}

/// [`build`] then [`measure`].
pub fn run<E: Engine>(
    params: HwParams,
    net: NetConfig,
    cfg: E::Config,
    opts: &RunOptions,
    mk_workload: impl Fn(usize) -> Box<dyn Workload>,
) -> (RunResult, Cluster<E>) {
    measure(build::<E>(params, net, cfg, opts, mk_workload), opts)
}

/// [`run`] with one [`HistoryRecorder`] attached to every node before
/// the first event. The recorder comes back as the live handle the
/// nodes still hold: snapshot it for [`xenic_check::check_history`] —
/// straight away, or after driving the returned cluster further (a
/// drain).
pub fn run_recorded<E: Engine>(
    params: HwParams,
    net: NetConfig,
    cfg: E::Config,
    opts: &RunOptions,
    mk_workload: impl Fn(usize) -> Box<dyn Workload>,
) -> (RunResult, Cluster<E>, HistoryRecorder) {
    let recorder = HistoryRecorder::new();
    let mut cluster = build::<E>(params, net, cfg, opts, mk_workload);
    for st in &mut cluster.states {
        E::set_recorder(st, recorder.clone());
    }
    let (result, cluster) = measure(cluster, opts);
    (result, cluster, recorder)
}

/// Quiesces a cluster: every node stops issuing new transactions, then
/// the event loop runs to `until` so in-flight work — and, under a fault
/// plan, every retransmission path — finishes. The precondition of
/// [`crate::audit::full_audit`] and of the baselines' residue audit.
pub fn drain<E: Engine>(cluster: &mut Cluster<E>, until: SimTime) {
    for st in &mut cluster.states {
        E::client(st).drain();
    }
    cluster.run_until(until);
}

/// Builds and runs a Xenic cluster under the given workload.
pub fn run_xenic(
    params: HwParams,
    net: NetConfig,
    cfg: XenicConfig,
    opts: &RunOptions,
    mk_workload: impl Fn(usize) -> Box<dyn Workload>,
) -> RunResult {
    run::<Xenic>(params, net, cfg, opts, mk_workload).0
}

/// [`run`] on Xenic with a `setup` hook between [`build`] and
/// [`measure`] — after the start messages are queued, before the first
/// event — for observers other than the history recorder.
pub fn run_xenic_cluster_with(
    params: HwParams,
    net: NetConfig,
    cfg: XenicConfig,
    opts: &RunOptions,
    mk_workload: impl Fn(usize) -> Box<dyn Workload>,
    setup: impl FnOnce(&mut Cluster<Xenic>),
) -> (RunResult, Cluster<Xenic>) {
    let mut cluster = build::<Xenic>(params, net, cfg, opts, mk_workload);
    setup(&mut cluster);
    measure(cluster, opts)
}

/// Monotone runtime counters, summed over the cluster's nodes.
#[derive(Clone, Copy, Default)]
struct Counters {
    host_busy_ns: u64,
    nic_busy_ns: u64,
    lio_tx_bytes: u64,
    cx5_tx_bytes: u64,
    dma_elements: u64,
}

impl Counters {
    fn since(self, before: Counters) -> Counters {
        Counters {
            host_busy_ns: self.host_busy_ns - before.host_busy_ns,
            nic_busy_ns: self.nic_busy_ns - before.nic_busy_ns,
            lio_tx_bytes: self.lio_tx_bytes - before.lio_tx_bytes,
            cx5_tx_bytes: self.cx5_tx_bytes - before.cx5_tx_bytes,
            dma_elements: self.dma_elements - before.dma_elements,
        }
    }
}

/// The scheduler behind one [`measure`]: the serial event loop or the
/// multi-lane epoch-barrier scheduler. Both produce bit-identical
/// simulations (DESIGN.md §16), so everything downstream of the
/// reassembled cluster is scheduler-agnostic.
enum Driver<E: Engine> {
    Serial(Cluster<E>),
    Par(ParCluster<E>),
}

impl<E: Engine> Driver<E> {
    fn run_until(&mut self, horizon: SimTime) {
        match self {
            Driver::Serial(c) => c.run_until(horizon),
            Driver::Par(p) => p.run_until(horizon),
        };
    }

    fn now(&self) -> SimTime {
        match self {
            Driver::Serial(c) => c.rt.now(),
            Driver::Par(p) => p.now(),
        }
    }

    fn state_mut(&mut self, node: usize) -> &mut E::State {
        match self {
            Driver::Serial(c) => &mut c.states[node],
            Driver::Par(p) => p.state_mut(node),
        }
    }

    fn counters(&self, nodes: usize) -> Counters {
        let mut c = Counters::default();
        for n in 0..nodes {
            let rt = match self {
                Driver::Serial(c) => &c.rt,
                Driver::Par(p) => p.rt_for(n),
            };
            c.host_busy_ns += rt.pool_busy_ns(n, Exec::Host);
            c.nic_busy_ns += rt.pool_busy_ns(n, Exec::Nic);
            c.lio_tx_bytes += rt.lio_tx_bytes(n);
            c.cx5_tx_bytes += rt.cx5_tx_bytes(n);
            c.dma_elements += rt.dma_elements(n);
        }
        c
    }
}

/// FNV digest over every node's committed rows (in key order: value
/// bytes, then version): the whole-cluster state fingerprint used by the
/// lane invariance tests, the fuzzer and the benchmark. Equal digests
/// mean the stores ended bit-identical.
pub fn cluster_digest<E: Engine>(cluster: &Cluster<E>) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |word: u64| digest = (digest ^ word).wrapping_mul(0x100_0000_01b3);
    for st in &cluster.states {
        E::visit_rows(st, &mut |_, v, ver| {
            v.bytes().iter().for_each(|b| fold(u64::from(*b)));
            fold(ver);
        });
    }
    digest
}

/// Gathers the metrics of a finished window of `window_ns`, during
/// which the runtime counters advanced by `used`.
fn collect<E: Engine>(
    cluster: &mut Cluster<E>,
    window_ns: u64,
    used: Counters,
    lane_stats: LaneStats,
) -> RunResult {
    let total = NodeStats::total(cluster.states.iter_mut().map(|s| &*E::stats(s)));
    let rt = &cluster.rt;
    let nodes = rt.node_count();
    let secs = window_ns as f64 / 1e9;
    let window_ns = window_ns as f64;
    let (latency, committed) = (&total.latency, total.committed.events());
    let all_committed = total.committed_all.get();
    let line_bytes = rt.params.net_gbps / 8.0 * window_ns;
    RunResult {
        tput_per_server: committed as f64 / secs / nodes as f64,
        p50_ns: latency.median(),
        p99_ns: latency.p99(),
        mean_ns: latency.mean(),
        committed,
        aborted: total.aborted.get(),
        host_busy_cores: used.host_busy_ns as f64 / window_ns / nodes as f64,
        nic_busy_cores: used.nic_busy_ns as f64 / window_ns / nodes as f64,
        lio_utilization: used.lio_tx_bytes as f64 / (line_bytes * nodes as f64),
        cx5_utilization: used.cx5_tx_bytes as f64 / (line_bytes * nodes as f64),
        ops_per_frame: (0..nodes).map(|n| rt.ops_per_frame(n)).sum::<f64>() / nodes as f64,
        dma_vector_fill: (0..nodes).map(|n| rt.dma_vector_fill(n)).sum::<f64>() / nodes as f64,
        dma_elements_per_txn: if all_committed == 0 {
            0.0
        } else {
            used.dma_elements as f64 / all_committed as f64
        },
        log_ship_writes: total.log_ship_writes.get(),
        cxl_log_writes: total.cxl_log_writes.get(),
        cross_lane_events: lane_stats.cross_lane_events,
        barriers: lane_stats.barriers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{make_key, ShipMode, TxnSpec, UpdateOp};
    use crate::msg::XMsg;
    use xenic_sim::DetRng;
    use xenic_store::Value;

    /// A tiny synthetic workload: counters spread over all shards;
    /// transactions read 2 keys and increment 1, sometimes remote.
    struct MiniWl {
        keys_per_shard: u64,
        shards: u32,
        remote_frac: f64,
    }

    impl Workload for MiniWl {
        fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
            let home = node as u32;
            let pick_shard = |rng: &mut DetRng, frac: f64, home: u32, shards: u32| -> u32 {
                if rng.chance(frac) {
                    let mut s = rng.below(shards as u64) as u32;
                    if s == home {
                        s = (s + 1) % shards;
                    }
                    s
                } else {
                    home
                }
            };
            let s1 = pick_shard(rng, self.remote_frac, home, self.shards);
            let s2 = pick_shard(rng, self.remote_frac, home, self.shards);
            let k1 = make_key(s1, rng.below(self.keys_per_shard));
            let mut k2 = make_key(s2, rng.below(self.keys_per_shard));
            if k2 == k1 {
                k2 = make_key(s2, (crate::api::local_of(k2) + 1) % self.keys_per_shard);
            }
            TxnSpec {
                reads: vec![k2],
                updates: vec![(k1, UpdateOp::AddI64(1))],
                inserts: vec![],
                exec_host_ns: 200,
                exec_nic_ns: 650,
                ship: ShipMode::Nic,
                ..Default::default()
            }
        }

        fn value_bytes(&self) -> u32 {
            12
        }

        fn preload(&self, shard: u32) -> Vec<(u64, Value)> {
            (0..self.keys_per_shard)
                .map(|i| (make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes()[..8])))
                .collect()
        }
    }

    fn mini(remote_frac: f64) -> impl Fn(usize) -> Box<dyn Workload> {
        move |_| {
            Box::new(MiniWl {
                keys_per_shard: 2000,
                shards: 6,
                remote_frac,
            })
        }
    }

    fn small_opts() -> RunOptions {
        RunOptions {
            windows: 4,
            warmup: SimTime::from_ms(1),
            measure: SimTime::from_ms(4),
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn xenic_commits_distributed_transactions() {
        let r = run::<Xenic>(
            HwParams::paper_testbed(),
            NetConfig::full(),
            XenicConfig::full(),
            &small_opts(),
            mini(0.8),
        ).0;
        assert!(r.committed > 500, "committed {}", r.committed);
        assert!(r.tput_per_server > 10_000.0, "tput {}", r.tput_per_server);
        assert!(r.p50_ns > 1_000, "p50 {}", r.p50_ns);
        assert!(r.p50_ns < 200_000, "p50 {}", r.p50_ns);
    }

    #[test]
    fn local_workload_uses_fast_path() {
        let r = run::<Xenic>(
            HwParams::paper_testbed(),
            NetConfig::full(),
            XenicConfig::full(),
            &small_opts(),
            mini(0.0),
        ).0;
        // All-local transactions never touch the wire for Execute; only
        // replication traffic flows.
        assert!(r.committed > 1_000, "committed {}", r.committed);
    }

    #[test]
    fn counters_conserved_under_concurrency() {
        // Correctness: with AddI64(1) increments, the final sum across the
        // cluster must equal the number of committed update transactions.
        // (Serializability violation would lose or duplicate increments.)
        let params = HwParams::paper_testbed();
        let part = Partitioning::new(6, 3);
        let cfg = XenicConfig::full();
        let mut cluster: Cluster<Xenic> = Cluster::new(params, NetConfig::full(), 3, |node| {
            XenicNode::new(
                node,
                cfg,
                part,
                Box::new(MiniWl {
                    keys_per_shard: 50, // tiny keyspace → heavy contention
                    shards: 6,
                    remote_frac: 0.7,
                }),
                4,
            )
        });
        for node in 0..6 {
            for slot in 0..4 {
                cluster.seed(
                    SimTime::from_ns((node * 4 + slot) as u64 * 131),
                    node,
                    Exec::Host,
                    XMsg::StartTxn { slot: slot as u32 },
                );
            }
        }
        for st in &mut cluster.states {
            st.stats.start_measuring(SimTime::ZERO);
        }
        cluster.run_until(SimTime::from_ms(5));
        // Drain: stop issuing new work by running until quiescent.
        let committed: u64 = cluster.states.iter().map(|s| s.stats.committed.events()).sum();
        let aborted: u64 = cluster.states.iter().map(|s| s.stats.aborted.get()).sum();
        assert!(committed > 100, "committed {committed}");
        assert!(aborted > 0, "contention must cause aborts, got none");
        // Let in-flight work finish (no new StartTxns once we stop
        // seeding... closed loop keeps going; instead verify bounded
        // divergence: applied sums can lag by at most in-flight txns).
        let mut sum = 0i64;
        for st in &cluster.states {
            for (k, _) in st.host_table.iter_keys() {
                if let Some((v, _)) = st.host_table.get(k) {
                    sum += i64::from_le_bytes(v.bytes()[..8].try_into().unwrap());
                }
            }
        }
        // The host tables lag commits by the unapplied log suffix; bound
        // the gap by outstanding log entries.
        let outstanding: u64 = cluster
            .states
            .iter()
            .map(|s| s.log.outstanding() as u64)
            .sum();
        let total: u64 = cluster
            .states
            .iter()
            .map(|s| s.stats.committed_all.get())
            .sum();
        let diff = (total as i64 - sum).unsigned_abs();
        assert!(
            diff <= outstanding + 24, // + in-flight txns (4 slots × 6 nodes)
            "sum {sum} vs committed {total}, outstanding {outstanding}"
        );
    }

    #[test]
    fn deterministic_results() {
        let run = || {
            run::<Xenic>(
                HwParams::paper_testbed(),
                NetConfig::full(),
                XenicConfig::full(),
                &small_opts(),
                mini(0.5),
            ).0
        };
        let a = run();
        let b = run();
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.p50_ns, b.p50_ns);
    }

    #[test]
    fn multihop_and_nic_execution_engage() {
        let params = HwParams::paper_testbed();
        let part = Partitioning::new(6, 3);
        let cfg = XenicConfig::full();
        let mut cluster: Cluster<Xenic> = Cluster::new(params, NetConfig::full(), 11, |node| {
            XenicNode::new(node, cfg, part, mini(0.9)(node), 4)
        });
        for node in 0..6 {
            for slot in 0..4 {
                cluster.seed(
                    SimTime::from_ns(slot as u64),
                    node,
                    Exec::Host,
                    XMsg::StartTxn { slot: slot as u32 },
                );
            }
        }
        cluster.run_until(SimTime::from_ms(3));
        let multihop: u64 = cluster.states.iter().map(|s| s.stats.multihop.get()).sum();
        assert!(multihop > 50, "multihop txns {multihop}");
    }

    #[test]
    fn ablation_knobs_change_behavior() {
        // Disabling smart remote ops sends more messages → lower
        // throughput at the same offered load (or at least not higher).
        let full = run::<Xenic>(
            HwParams::paper_testbed(),
            NetConfig::full(),
            XenicConfig::full(),
            &small_opts(),
            mini(0.9),
        ).0;
        let base = run::<Xenic>(
            HwParams::paper_testbed(),
            NetConfig::baseline(),
            XenicConfig::fig9_baseline(),
            &small_opts(),
            mini(0.9),
        ).0;
        assert!(
            full.tput_per_server >= base.tput_per_server * 0.95,
            "full {} vs baseline {}",
            full.tput_per_server,
            base.tput_per_server
        );
    }
}
