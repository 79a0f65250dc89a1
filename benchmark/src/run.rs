//! One repeat: build + seed, warm up, then the measured window cut into
//! [`SLICES`] equal sim-time slices, each slice one `run_until`.
//!
//! This drives the public API directly (`Cluster::new`, `XenicNode::new`,
//! `Cluster::seed`, `run_until`, `ParCluster::from_cluster_assigned`)
//! because `run_xenic_cluster` fuses build, warm-up and window into one
//! call, and the benchmark has to time them apart. The seeding schedule,
//! window bookkeeping and result formulas mirror that harness exactly;
//! `main` checks the two against each other on every run.

use std::sync::OnceLock;
use std::time::Instant;

use xenic::api::{Partitioning, Workload};
use xenic::engine::XenicNode;
use xenic::msg::XMsg;
use xenic::{Xenic, XenicConfig};
use xenic_net::{Cluster, Exec, LaneAssignment, LaneStats, ParCluster, Protocol, Runtime};
use xenic_sim::{Histogram, SimTime};

use crate::alloc;
use crate::workloads::Wl;

/// Slices per measured window.
pub const SLICES: usize = 16;
/// Warm-up before the window, simulated.
pub const WARMUP: SimTime = SimTime::from_us(250);

/// Nanoseconds since the process-wide epoch: the one clock every wall
/// time and every span in this benchmark is read from.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What one repeat runs.
#[derive(Clone, Copy)]
pub struct Plan {
    pub wl: Wl,
    pub seed: u64,
    pub window: SimTime,
    pub lanes: usize,
}

impl Plan {
    pub fn new(wl: Wl, seed: u64, window: SimTime) -> Self {
        Plan { wl, seed, window, lanes: wl.lanes() }
    }

    pub fn serial(mut self) -> Self {
        self.lanes = 1;
        self
    }

    pub fn horizon(&self) -> SimTime {
        SimTime::from_ns(WARMUP.as_ns() + self.window.as_ns())
    }
}

/// What every repeat must reproduce exactly. It is cheap, so it is
/// checked on each repeat; `cluster_digest` (every host table, bit for
/// bit) sorts millions of keys, so `main` takes it only where a whole
/// pass is compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub committed: u64,
    pub aborted: u64,
    /// Events processed since the cluster was built (warm-up included).
    pub events: u64,
    /// Mean committed latency, as bits: every sample enters it.
    pub latency_mean_bits: u64,
}

/// Monotone runtime counters, summed over the cluster's nodes.
#[derive(Clone, Copy, Default)]
pub struct HwCounters {
    pub host_busy_ns: u64,
    pub nic_busy_ns: u64,
    pub lio_tx_bytes: u64,
    pub lio_tx_frames: u64,
    pub net_msgs: u64,
    pub dma_elements: u64,
}

impl HwCounters {
    fn read<P: Protocol<Msg = XMsg, State = XenicNode>>(drv: &Driver<P>, nodes: usize) -> Self {
        let mut c = HwCounters::default();
        for n in 0..nodes {
            let rt = drv.rt_for(n);
            c.host_busy_ns += rt.pool_busy_ns(n, Exec::Host);
            c.nic_busy_ns += rt.pool_busy_ns(n, Exec::Nic);
            c.lio_tx_bytes += rt.lio_tx_bytes(n);
            c.lio_tx_frames += rt.lio_tx_frames(n);
            c.net_msgs += rt.net_msgs_sent(n);
            c.dma_elements += rt.dma_elements(n);
        }
        c
    }

    fn since(self, before: HwCounters) -> Self {
        HwCounters {
            host_busy_ns: self.host_busy_ns - before.host_busy_ns,
            nic_busy_ns: self.nic_busy_ns - before.nic_busy_ns,
            lio_tx_bytes: self.lio_tx_bytes - before.lio_tx_bytes,
            lio_tx_frames: self.lio_tx_frames - before.lio_tx_frames,
            net_msgs: self.net_msgs - before.net_msgs,
            dma_elements: self.dma_elements - before.dma_elements,
        }
    }
}

/// Counters of the measured window, summed over nodes.
pub struct Window {
    pub window_ns: u64,
    pub committed: u64,
    pub committed_all: u64,
    pub aborted: u64,
    /// Events processed inside the window (the slices' `run_until` sum).
    pub events: u64,
    pub latency: Histogram,
    pub hw: HwCounters,
    pub lanes: LaneStats,
}

/// One finished repeat.
pub struct Repeat {
    pub build_s: f64,
    /// Warm-up start and end, ns since the epoch.
    pub warmup: (u64, u64),
    /// Each slice's start and end, ns since the epoch.
    pub slices: [(u64, u64); SLICES],
    /// Events pending at the end of each slice, summed over lanes.
    pub queue_len: [usize; SLICES],
    /// Heap allocations during the window (0 unless counting was asked for).
    pub window_allocs: u64,
    pub window: Window,
    pub fingerprint: Fingerprint,
}

impl Repeat {
    pub fn warmup_s(&self) -> f64 {
        (self.warmup.1 - self.warmup.0) as f64 / 1e9
    }

    pub fn queue_len_mean(&self) -> f64 {
        self.queue_len.iter().sum::<usize>() as f64 / SLICES as f64
    }

    pub fn slice_s(&self, i: usize) -> f64 {
        (self.slices[i].1 - self.slices[i].0) as f64 / 1e9
    }
}

/// The scheduler behind a repeat (the harness keeps its own private).
enum Driver<P: Protocol> {
    Serial(Cluster<P>),
    /// The lane scheduler plus one node of each lane, to reach the
    /// lanes' runtimes through `rt_for`.
    Par(ParCluster<P>, Vec<usize>),
}

impl<P: Protocol<Msg = XMsg, State = XenicNode>> Driver<P> {
    fn run_until(&mut self, horizon: SimTime) -> u64 {
        match self {
            Driver::Serial(c) => c.run_until(horizon),
            Driver::Par(p, _) => p.run_until(horizon),
        }
    }

    fn now(&self) -> SimTime {
        match self {
            Driver::Serial(c) => c.rt.now(),
            Driver::Par(p, _) => p.now(),
        }
    }

    fn rt_for(&self, node: usize) -> &Runtime<XMsg> {
        match self {
            Driver::Serial(c) => &c.rt,
            Driver::Par(p, _) => p.rt_for(node),
        }
    }

    fn state_mut(&mut self, node: usize) -> &mut XenicNode {
        match self {
            Driver::Serial(c) => &mut c.states[node],
            Driver::Par(p, _) => p.state_mut(node),
        }
    }

    fn queue_len(&self) -> usize {
        match self {
            Driver::Serial(c) => c.rt.queue.len(),
            Driver::Par(p, heads) => heads.iter().map(|&n| p.rt_for(n).queue.len()).sum(),
        }
    }

    fn lane_stats(&self) -> LaneStats {
        match self {
            Driver::Serial(_) => LaneStats::default(),
            Driver::Par(p, _) => p.stats(),
        }
    }

    fn finish(self) -> Cluster<P> {
        match self {
            Driver::Serial(c) => c,
            Driver::Par(p, _) => p.into_cluster(),
        }
    }
}

/// Builds the cluster and seeds one `StartTxn` per application window,
/// exactly as `run_xenic_cluster_with` does. `wrap` sees every node's
/// generator on its way into `XenicNode::new`.
fn build<P: Protocol<Msg = XMsg, State = XenicNode>>(
    plan: &Plan,
    wrap: impl Fn(Box<dyn Workload>) -> Box<dyn Workload>,
) -> Cluster<P> {
    let cfg = XenicConfig::full();
    let params = plan.wl.params();
    let part = Partitioning::new(params.nodes as u32, cfg.replication);
    let windows = plan.wl.windows();
    let mut cluster: Cluster<P> = Cluster::new(params, plan.wl.net(), plan.seed, |node| {
        XenicNode::new(node, cfg, part, wrap(plan.wl.workload()), windows)
    });
    for node in 0..cluster.rt.node_count() {
        for slot in 0..windows {
            cluster.seed(
                SimTime::from_ns((node * windows + slot) as u64 * 97),
                node,
                Exec::Host,
                XMsg::StartTxn { slot: slot as u32 },
            );
        }
    }
    cluster
}

/// Runs one repeat of `plan` and returns it with the finished cluster.
/// With `count_allocs`, heap allocations are counted during the window
/// (and only then).
pub fn repeat<P>(
    plan: &Plan,
    count_allocs: bool,
    wrap: impl Fn(Box<dyn Workload>) -> Box<dyn Workload>,
) -> (Repeat, Cluster<Xenic>)
where
    P: Protocol<Msg = XMsg, State = XenicNode>,
{
    let t0 = now_ns();
    let cluster = build::<P>(plan, wrap);
    let nodes = cluster.rt.node_count();
    let mut drv = if plan.lanes > 1 {
        let assignment = LaneAssignment::contiguous(nodes, plan.lanes);
        let heads =
            (0..nodes).filter(|&n| n == 0 || assignment.lane_of(n) != assignment.lane_of(n - 1)).collect();
        Driver::Par(ParCluster::from_cluster_assigned(cluster, &assignment), heads)
    } else {
        Driver::Serial(cluster)
    };
    let t1 = now_ns();
    drv.run_until(WARMUP);
    let t2 = now_ns();

    let mstart = drv.now();
    for n in 0..nodes {
        drv.state_mut(n).stats.start_measuring(mstart);
    }
    let before = HwCounters::read(&drv, nodes);

    let mut slices = [(0u64, 0u64); SLICES];
    let mut queue_len = [0usize; SLICES];
    let mut events = 0u64;
    let mut window = || {
        for s in 0..SLICES {
            let upto = WARMUP.as_ns() + plan.window.as_ns() * (s as u64 + 1) / SLICES as u64;
            let begin = now_ns();
            events += drv.run_until(SimTime::from_ns(upto));
            slices[s] = (begin, now_ns());
            queue_len[s] = drv.queue_len();
        }
    };
    let window_allocs = if count_allocs {
        alloc::counted(&mut window).1
    } else {
        window();
        0
    };

    let mend = drv.now().max(plan.horizon());
    let hw = HwCounters::read(&drv, nodes).since(before);
    let lanes = drv.lane_stats();
    let cluster = drv.finish();
    // Both protocols here share `Msg` and `State`, so a finished traced
    // cluster is read back with the same code as an untraced one.
    let cluster: Cluster<Xenic> = Cluster { states: cluster.states, rt: cluster.rt };

    let mut latency = Histogram::new();
    let (mut committed, mut committed_all, mut aborted) = (0, 0, 0);
    for st in &cluster.states {
        latency.merge(&st.stats.latency);
        committed += st.stats.committed.events();
        committed_all += st.stats.committed_all.get();
        aborted += st.stats.aborted.get();
    }
    let fingerprint = Fingerprint {
        committed,
        aborted,
        events: cluster.rt.queue.processed(),
        latency_mean_bits: latency.mean().to_bits(),
    };
    let rep = Repeat {
        build_s: (t1 - t0) as f64 / 1e9,
        warmup: (t1, t2),
        slices,
        queue_len,
        window_allocs,
        window: Window {
            window_ns: mend.since(mstart),
            committed,
            committed_all,
            aborted,
            events,
            latency,
            hw,
            lanes,
        },
        fingerprint,
    };
    (rep, cluster)
}

/// The plain untraced repeat.
pub fn plain(plan: &Plan, count_allocs: bool) -> (Repeat, Cluster<Xenic>) {
    repeat::<Xenic>(plan, count_allocs, |w| w)
}
