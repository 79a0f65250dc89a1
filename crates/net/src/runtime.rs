//! The deterministic cluster runtime.
//!
//! A [`Cluster`] owns per-node hardware resources ([`xenic_hw`] models)
//! plus per-node protocol state, and drives one shared event queue. See
//! the crate docs for the execution model; the short version:
//!
//! * [`Protocol::handle`] runs when a message reaches the front of a core
//!   pool's run queue — queueing delay under load is real;
//! * handlers call [`Runtime`] methods to send messages, issue DMAs and
//!   RDMA verbs, and charge extra core time;
//! * every outcome is scheduled; nothing consults wall-clock time.

use std::collections::VecDeque;
use std::fmt;

use xenic_hw::cores::CoreClass;
use xenic_hw::dma::{DmaKind, DmaOp};
use xenic_hw::link::Port;
use xenic_hw::rdma::Verb;
use xenic_hw::{CorePool, DmaEngine, HwParams, RdmaNic};
use xenic_sim::{Component, DetRng, EventQueue, SimTime, Tracer};

use crate::config::NetConfig;

/// Which of a node's processor complexes executes a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Exec {
    /// Host CPU threads.
    Host,
    /// SmartNIC cores.
    Nic,
}

/// A protocol engine: per-node state plus a message handler.
pub trait Protocol: Sized {
    /// The message type exchanged between nodes (and used for timers and
    /// completion callbacks).
    type Msg: Clone + fmt::Debug;
    /// Per-node protocol state.
    type State;

    /// Core nanoseconds consumed by handling `msg` on `exec`. Handlers
    /// may add more via [`Runtime::charge`] for data-dependent work.
    fn cost(msg: &Self::Msg, exec: Exec, params: &HwParams) -> u64;

    /// Handles a message on `node`. Runs at the message's service-start
    /// time; sends initiated here depart when the charged work completes.
    fn handle(state: &mut Self::State, rt: &mut Runtime<Self::Msg>, node: usize, msg: Self::Msg);

    /// Called when a crashed node restarts (fault-plan schedule). The
    /// node's protocol *memory* survived the crash, but every in-flight
    /// event targeting it was discarded — engines that own retransmission
    /// timers or in-order apply chains re-arm them here. Default: no-op.
    fn on_restart(_state: &mut Self::State, _rt: &mut Runtime<Self::Msg>, _node: usize) {}
}

/// Internal event kinds.
#[derive(Debug)]
pub enum Event<M> {
    /// A message arrives at a node's core pool run queue.
    Deliver {
        /// Destination node.
        node: usize,
        /// Destination pool.
        exec: Exec,
        /// Payload.
        msg: M,
    },
    /// A core finished its work item; pump the run queue.
    CoreFree {
        /// Node.
        node: usize,
        /// Pool.
        exec: Exec,
    },
    /// Flush one of a node's batched egress channels.
    Flush {
        /// Sending node.
        node: usize,
        /// The channel.
        chan: Chan,
    },
    /// An Ethernet frame's first bit reaches a node: reserve ingress
    /// serialization *at arrival time* (reserving from the sender's
    /// handler would let out-of-order future reservations head-of-line
    /// block the receiver).
    NetArrive {
        /// Receiving node.
        dst: usize,
        /// Frame payload bytes (overhead added by the port).
        payload_bytes: u64,
        /// Messages in the frame.
        msgs: Vec<(Exec, M)>,
    },
    /// An RDMA packet reaches the responder NIC.
    RdmaArrive {
        /// Responder node.
        dst: usize,
        /// The verb.
        verb: Verb,
        /// What happens after the responder processes it (boxed: the
        /// continuation carries a whole message, and RDMA events are far
        /// rarer than Deliver/Flush traffic — keeping them fat would
        /// double the size of *every* queue slot).
        cont: Box<RdmaCont<M>>,
    },
    /// The responder NIC finished a one-sided verb: emit the response.
    RdmaServed {
        /// Responder node.
        dst: usize,
        /// The verb.
        verb: Verb,
        /// Requester and completion message.
        cont: Box<RdmaCont<M>>,
    },
    /// A response packet reaches the requester NIC.
    RdmaReturn {
        /// Requester node.
        to: usize,
        /// The verb (for response sizing).
        verb: Verb,
        /// Completion message for the requester host.
        msg: M,
    },
    /// Fault-plan crash-stop: the node goes dark.
    Crash {
        /// The node to crash.
        node: usize,
    },
    /// Fault-plan restart: the node comes back (memory intact) and the
    /// protocol's [`Protocol::on_restart`] hook runs.
    Restart {
        /// The node to restart.
        node: usize,
    },
    /// Periodic tracer gauge sampling of one node (self-rescheduling;
    /// only ever scheduled when tracing is enabled with a non-zero
    /// interval). Sampling is read-only, so it cannot perturb protocol
    /// outcomes, and it reads only its own node, so the node's lane runs
    /// it like any other event.
    GaugeSample {
        /// The node to sample.
        node: usize,
    },
}

impl<M> Event<M> {
    /// The node this event belongs to.
    pub(crate) fn owner(&self) -> usize {
        match self {
            Event::Deliver { node, .. }
            | Event::CoreFree { node, .. }
            | Event::Flush { node, .. }
            | Event::Crash { node }
            | Event::Restart { node }
            | Event::GaugeSample { node } => *node,
            Event::NetArrive { dst, .. }
            | Event::RdmaArrive { dst, .. }
            | Event::RdmaServed { dst, .. } => *dst,
            Event::RdmaReturn { to, .. } => *to,
        }
    }
}

/// What the responder does once an RDMA request is served.
#[derive(Debug)]
pub enum RdmaCont<M> {
    /// Pure one-sided verb: the runtime emits the response itself and the
    /// completion lands at the requester's host pool.
    OneSided {
        /// Requesting node.
        requester: usize,
        /// Completion message.
        done: M,
    },
    /// A protocol-visible one-sided memory op: delivered to the responder
    /// NIC pool (zero cost) so its handler can apply it and answer with
    /// [`Runtime::rdma_response`].
    Request {
        /// The request message.
        msg: M,
    },
    /// Two-sided SEND: delivered to the responder's host pool.
    Send {
        /// The message.
        msg: M,
    },
}

/// A node's batched egress channel: what an [`Event::Flush`] drains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chan {
    /// LiquidIO Ethernet frames toward this peer node.
    Eth(usize),
    /// The PCIe descriptor ring; `true` = host→NIC.
    Pcie(bool),
    /// The pending asynchronous DMA vector.
    Dma,
}

impl Chan {
    /// Which of [`Runtime::out_scratch`]'s vectors this channel recycles
    /// through: Ethernet and PCIe buffers trade vectors only within
    /// their own kind, so each kind's capacities settle on its own
    /// burst sizes.
    fn kind(self) -> usize {
        usize::from(matches!(self, Chan::Eth(_)))
    }

    /// This channel's index in [`NodeRes::agg`]: the two PCIe directions,
    /// then one Ethernet buffer per peer.
    fn slot(self) -> usize {
        match self {
            Chan::Pcie(up) => usize::from(up),
            Chan::Eth(dst) => 2 + dst,
            Chan::Dma => unreachable!("the DMA vector is not a message buffer"),
        }
    }
}

/// A message on an Ethernet or PCIe channel: destination pool, payload
/// and its share of frame bytes.
type Out<M> = (Exec, M, u32);

/// Items awaiting one flush: an aggregation buffer of [`Out`] messages
/// or the DMA vector. `scheduled` means an [`Event::Flush`] is pending.
struct AggBuf<T> {
    items: Vec<T>,
    scheduled: bool,
}

impl<T> AggBuf<T> {
    /// Queues `item`; true when the caller must schedule the flush (the
    /// first item since the last one).
    fn push(&mut self, item: T) -> bool {
        self.items.push(item);
        !std::mem::replace(&mut self.scheduled, true)
    }

    /// Takes the pending-flush mark as its flush runs; true if there is
    /// anything to send.
    fn take_due(&mut self) -> bool {
        self.scheduled = false;
        !self.items.is_empty()
    }

    /// Drops everything queued and the pending-flush mark.
    fn clear(&mut self) {
        self.items.clear();
        self.scheduled = false;
    }
}

impl<T> Default for AggBuf<T> {
    fn default() -> Self {
        AggBuf {
            items: Vec::new(),
            scheduled: false,
        }
    }
}

/// A core pool and its run queue.
struct Pool<M> {
    cores: CorePool,
    inbox: VecDeque<M>,
}

/// Per-node hardware resources and queues.
pub(crate) struct NodeRes<M> {
    /// Host and NIC pools, indexed by [`Exec`] (see [`NodeRes::pool`]).
    pools: [Pool<M>; 2],
    /// LiquidIO Ethernet port (Xenic traffic).
    lio: Port,
    /// CX5 Ethernet port (baseline RDMA traffic).
    cx5: Port,
    /// Host↔NIC PCIe message path (descriptor rings).
    pcie: Port,
    dma: DmaEngine,
    rdma: RdmaNic,
    /// Ethernet and PCIe aggregation buffers, indexed by [`Chan::slot`].
    agg: Vec<AggBuf<Out<M>>>,
    dma_vec: AggBuf<(DmaOp, M)>,
    dma_rr: usize,
    /// Protocol messages sent over the LiquidIO fabric (for batching
    /// observability: messages / frames = mean aggregation factor).
    net_msgs_sent: u64,
    /// Messages the fault layer silently discarded (drops + partitions).
    net_msgs_dropped: u64,
    /// Messages the fault layer delivered twice.
    net_msgs_duped: u64,
}

impl<M> NodeRes<M> {
    /// The pool that runs `exec` messages.
    fn pool(&self, exec: Exec) -> &Pool<M> {
        &self.pools[exec as usize]
    }

    /// The pool that runs `exec` messages, mutably.
    fn pool_mut(&mut self, exec: Exec) -> &mut Pool<M> {
        &mut self.pools[exec as usize]
    }
}

/// PCIe TLP-ish per-message overhead bytes on the descriptor-ring path.
const PCIE_MSG_OVERHEAD: u64 = 30;
/// Scheduling cost of a purely local hand-off (same pool, no wire).
const LOCAL_HOP_NS: u64 = 50;
/// Minimum sync delay before an aggregation buffer flushes when the port
/// is idle — one short poll-loop iteration (§4.3.2). When the egress
/// serializer is busy, the flush instead waits for it to free, which is
/// what makes batches grow under load (opportunistic batching).
const AGG_SYNC_NS: u64 = 60;
/// Delay before a partially-filled DMA vector is submitted when the
/// engine is idle; larger batches accumulate behind a busy queue.
const DMA_WINDOW_NS: u64 = 60;

/// Bit position of the owner-node id in an intrinsic push stamp: the low
/// 44 bits hold the per-node push counter (~17.6e12 pushes per node), the
/// high bits the node id (up to ~2^20 nodes).
const STAMP_NODE_SHIFT: u32 = 44;

/// Upper bound on retained frame buffers in the transmit freelist — caps
/// idle memory while still covering the in-flight frame population.
const FRAME_POOL_MAX: usize = 256;

/// The runtime handed to protocol handlers: clock, fabric, DMA, RDMA.
pub struct Runtime<M> {
    /// Calibrated hardware parameters.
    pub params: HwParams,
    /// Feature toggles.
    pub cfg: NetConfig,
    /// The event queue (exposed for harness horizon control).
    pub queue: EventQueue<Event<M>>,
    /// Per-node fault-injection streams (`net-faults-<i>`): each node's
    /// fault schedule is a pure function of `(seed, plan)` and that
    /// node's own send history — which is what lets lossy plans run
    /// lane-parallel. Separate from the protocol streams, so workload
    /// randomness is identical whether or not faults are enabled.
    pub(crate) fault_rngs: Vec<DetRng>,
    /// Per-node protocol streams (`node-txn-<i>`), handed out by
    /// [`Runtime::txn_rng`].
    pub(crate) node_rngs: Vec<DetRng>,
    /// Whether the configured fault plan can perturb this run at all.
    pub(crate) faults_active: bool,
    /// Per-node crashed flags (all false unless the plan crashes nodes).
    pub(crate) crashed: Vec<bool>,
    /// The run's trace recorder (disabled by default: zero events, zero
    /// RNG draws, so traced-off runs match an untraced build bit for bit).
    /// A lane's runtime has its own; [`crate::ParCluster::into_cluster`]
    /// merges them back into the master's.
    pub(crate) tracer: Tracer,
    pub(crate) nodes: Vec<NodeRes<M>>,
    pub(crate) cur_node: usize,
    pub(crate) cur_exec: Exec,
    pub(crate) cur_core: usize,
    pub(crate) cur_end: SimTime,
    pub(crate) in_handler: bool,
    /// Owner node of the event being dispatched: the stamp source for any
    /// push the current handler performs (see [`Runtime::push_ev`]).
    pub(crate) stamp_node: usize,
    /// Per-node push counters backing the intrinsic stamps.
    pub(crate) push_ctr: Vec<u64>,
    /// When this runtime is one lane of a [`crate::ParCluster`]: node →
    /// lane id. `None` on the serial scheduler.
    pub(crate) lane_of: Option<std::sync::Arc<[u16]>>,
    /// This runtime's lane id when split.
    pub(crate) my_lane: u16,
    /// Pushes owned by other lanes, buffered for the epoch coordinator to
    /// route at the next barrier.
    pub(crate) outbox: Vec<(SimTime, u64, Event<M>)>,
    // Reusable hot-path scratch: the transmit/flush paths drain borrowed
    // vectors instead of allocating per flush, and arrived frames recycle
    // their buffers through `frame_pool` (bounded by FRAME_POOL_MAX).
    out_scratch: [Vec<Out<M>>; 2],
    fault_scratch: Vec<Out<M>>,
    frame_pool: Vec<Vec<(Exec, M)>>,
    dma_batch_scratch: Vec<(DmaOp, M)>,
    dma_ops_scratch: Vec<DmaOp>,
    dma_done_scratch: Vec<SimTime>,
}

impl<M: Clone + fmt::Debug> Runtime<M> {
    /// The one place a runtime is put together: an empty queue, nothing
    /// crashed, no stamp issued, a fresh tracer from `cfg.trace`, and
    /// node blocks of the given aggregation fan-out (see
    /// [`Runtime::mk_node`]).
    fn assemble(
        params: HwParams,
        cfg: NetConfig,
        agg_fanout: usize,
        fault_rngs: Vec<DetRng>,
        node_rngs: Vec<DetRng>,
    ) -> Self {
        let n = params.nodes;
        Runtime {
            fault_rngs,
            node_rngs,
            faults_active: cfg.faults.active(),
            crashed: vec![false; n],
            tracer: Tracer::from_config(&cfg.trace),
            nodes: (0..n).map(|_| Self::mk_node(&params, agg_fanout)).collect(),
            params,
            cfg,
            queue: EventQueue::new(),
            cur_node: 0,
            cur_exec: Exec::Host,
            cur_core: 0,
            cur_end: SimTime::ZERO,
            in_handler: false,
            out_scratch: [Vec::new(), Vec::new()],
            fault_scratch: Vec::new(),
            frame_pool: Vec::new(),
            dma_batch_scratch: Vec::new(),
            dma_ops_scratch: Vec::new(),
            dma_done_scratch: Vec::new(),
            stamp_node: 0,
            push_ctr: vec![0; n],
            lane_of: None,
            my_lane: 0,
            outbox: Vec::new(),
        }
    }

    fn new(params: HwParams, cfg: NetConfig, seed: u64) -> Self {
        let n = params.nodes;
        let streams = |name: &str| {
            (0..n)
                .map(|i| DetRng::new(seed).stream(&format!("{name}-{i}")))
                .collect()
        };
        let mut rt = Self::assemble(params, cfg, n, streams("net-faults"), streams("node-txn"));
        // Fault-plan schedule: each crash/restart is stamped by (and lane-
        // routed to) the node it hits.
        let crashes = rt.cfg.faults.crashes.clone();
        for c in &crashes {
            rt.stamp_node = c.node;
            rt.push_ev(SimTime::from_ns(c.at_ns), Event::Crash { node: c.node });
            if let Some(r) = c.restart_at_ns {
                rt.push_ev(SimTime::from_ns(r), Event::Restart { node: c.node });
            }
        }
        // A disabled tracer reports interval 0.
        if rt.tracer.gauge_interval_ns() > 0 {
            let at = SimTime::from_ns(rt.tracer.gauge_interval_ns());
            for node in 0..n {
                rt.stamp_node = node;
                rt.push_ev(at, Event::GaugeSample { node });
            }
        }
        rt.stamp_node = 0;
        rt
    }

    /// One node's hardware-resource block. `agg_fanout` is the Ethernet
    /// aggregation fan-out: the cluster size for live nodes, 0 for the
    /// cheap placeholders a lane runtime holds for nodes it does not own.
    pub(crate) fn mk_node(params: &HwParams, agg_fanout: usize) -> NodeRes<M> {
        let pool = |class, cores| Pool {
            cores: CorePool::new(class, cores),
            inbox: VecDeque::new(),
        };
        NodeRes {
            pools: [
                pool(CoreClass::Host, params.host_threads),
                pool(CoreClass::Nic, params.nic_cores),
            ],
            lio: Port::new(params),
            cx5: Port::with(params.net_gbps, 0),
            pcie: Port::with(params.pcie_gbps, PCIE_MSG_OVERHEAD),
            dma: DmaEngine::new(params),
            rdma: RdmaNic::new(params),
            agg: (0..Chan::Eth(agg_fanout).slot()).map(|_| AggBuf::default()).collect(),
            dma_vec: AggBuf::default(),
            dma_rr: 0,
            net_msgs_sent: 0,
            net_msgs_dropped: 0,
            net_msgs_duped: 0,
        }
    }

    /// A lane's runtime: the master's deterministic state (RNG streams,
    /// push counters, crashed flags, config) around an empty queue,
    /// placeholder node resources and a tracer of its own. The caller
    /// moves the lane's owned [`NodeRes`] blocks in and routes its share
    /// of the pending events.
    pub(crate) fn lane_shell(&self, lane_of: std::sync::Arc<[u16]>, my_lane: u16) -> Runtime<M> {
        Runtime {
            crashed: self.crashed.clone(),
            push_ctr: self.push_ctr.clone(),
            lane_of: Some(lane_of),
            my_lane,
            ..Self::assemble(
                self.params.clone(),
                self.cfg.clone(),
                0,
                self.fault_rngs.clone(),
                self.node_rngs.clone(),
            )
        }
    }

    /// Central push: every event the runtime or a protocol handler
    /// schedules goes through here and is stamped with
    /// `(stamp_node << STAMP_NODE_SHIFT) | per-node counter` — the
    /// equal-time ordering key, in place of the queue's global insertion
    /// sequence. Each node's handler sequence is the same however the
    /// cluster is scheduled, so the stamp is a pure function of the
    /// stamping node's own history and equal-time tie-breaks are
    /// identical in serial and lane-parallel runs (DESIGN.md §16). When
    /// this runtime is a lane of a [`crate::ParCluster`], events owned by
    /// foreign lanes divert to the outbox for barrier-time routing.
    #[inline]
    pub(crate) fn push_ev(&mut self, t: SimTime, ev: Event<M>) {
        let node = self.stamp_node;
        let ctr = &mut self.push_ctr[node];
        debug_assert!(*ctr < 1 << STAMP_NODE_SHIFT, "per-node stamp counter overflow");
        let seq = ((node as u64) << STAMP_NODE_SHIFT) | *ctr;
        *ctr += 1;
        if let Some(map) = &self.lane_of {
            if map[ev.owner()] != self.my_lane {
                self.outbox.push((t, seq, ev));
                return;
            }
        }
        self.queue.push_with_seq(t, seq, ev);
    }

    /// The stream protocol engines draw workload/backoff randomness from:
    /// the current node's private stream. Draws happen in per-node
    /// handler order, which no scheduler can reorder — what makes
    /// lane-parallel execution reproduce them exactly.
    pub fn txn_rng(&mut self) -> &mut DetRng {
        &mut self.node_rngs[self.cur_node]
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// When the current handler's charged work completes — the departure
    /// time for anything it sends.
    fn departure(&self) -> SimTime {
        if self.in_handler {
            self.cur_end
        } else {
            self.now()
        }
    }

    /// Adds `ns` of work to the current handler's core reservation
    /// (data-dependent compute, e.g. a B+tree traversal).
    pub fn charge(&mut self, ns: u64) {
        if !self.in_handler {
            return;
        }
        let pool = self.nodes[self.cur_node].pool_mut(self.cur_exec);
        self.cur_end = pool.cores.extend(self.cur_core, ns);
    }

    /// Schedules `msg` for `node`/`exec` at an absolute time (harness
    /// seeding and protocol timers).
    pub fn schedule_at(&mut self, at: SimTime, node: usize, exec: Exec, msg: M) {
        self.push_ev(at, Event::Deliver { node, exec, msg });
    }

    /// Delivers `msg` to this node after `delay_ns` (timer / self-send).
    pub fn send_local(&mut self, exec: Exec, msg: M, delay_ns: u64) {
        let t = self.departure() + delay_ns.max(LOCAL_HOP_NS);
        let node = self.cur_node;
        self.push_ev(t, Event::Deliver { node, exec, msg });
    }

    /// Sends over the LiquidIO Ethernet fabric to `dst` (NIC-to-NIC).
    /// `wire_bytes` is the message's share of frame payload (op header +
    /// data). With aggregation enabled, messages to the same destination
    /// within the poll window share frame overhead.
    pub fn send_net(&mut self, dst: usize, exec: Exec, msg: M, wire_bytes: u32) {
        if dst == self.cur_node {
            self.send_local(exec, msg, LOCAL_HOP_NS);
            return;
        }
        self.egress(Chan::Eth(dst), (exec, msg, wire_bytes));
    }

    /// Sends a message across PCIe between this node's host and NIC. The
    /// direction is inferred from the executing pool: host handlers send
    /// up to the NIC, NIC handlers send down to the host.
    pub fn send_pcie(&mut self, exec: Exec, msg: M, wire_bytes: u32) {
        let up = self.cur_exec == Exec::Host;
        self.egress(Chan::Pcie(up), (exec, msg, wire_bytes));
    }

    /// The one enqueue of the Ethernet and PCIe channels. With
    /// aggregation the message joins the channel's buffer, and the first
    /// one since the last flush schedules the next: almost immediately
    /// when the port is idle, behind the serializer when it is busy
    /// (opportunistic batching). Without, it goes out on its own.
    fn egress(&mut self, chan: Chan, out: Out<M>) {
        let node = self.cur_node;
        let t0 = self.departure();
        if self.cfg.aggregation {
            let res = &mut self.nodes[node];
            let port_free = match chan {
                Chan::Eth(_) => res.lio.egress_free_at(),
                _ => res.pcie.egress_free_at(),
            };
            if res.agg[chan.slot()].push(out) {
                let at = (t0 + AGG_SYNC_NS).max(port_free);
                self.push_ev(at, Event::Flush { node, chan });
            }
        } else {
            let mut one = std::mem::take(&mut self.out_scratch[chan.kind()]);
            one.push(out);
            self.transmit(t0, node, chan, &mut one);
            self.out_scratch[chan.kind()] = one;
        }
    }

    /// Flushes one of `node`'s batched channels (the [`Event::Flush`]
    /// handler).
    pub(crate) fn flush(&mut self, node: usize, chan: Chan) {
        if chan == Chan::Dma {
            self.flush_dma(node);
            return;
        }
        let buf = &mut self.nodes[node].agg[chan.slot()];
        if !buf.take_due() {
            return;
        }
        // Hand the buffer a recycled vector and transmit from the full
        // one; the drained vector becomes the next recycled scratch.
        let scratch = &mut self.out_scratch[chan.kind()];
        let mut msgs = std::mem::replace(&mut buf.items, std::mem::take(scratch));
        let t = self.now();
        self.transmit(t, node, chan, &mut msgs);
        self.out_scratch[chan.kind()] = msgs;
    }

    /// Transmits (and drains) `msgs` from `node` on an Ethernet or PCIe
    /// channel, departing no earlier than `t0`.
    fn transmit(&mut self, t0: SimTime, node: usize, chan: Chan, msgs: &mut Vec<Out<M>>) {
        match chan {
            Chan::Eth(dst) => self.transmit_net(t0, node, dst, msgs),
            Chan::Pcie(up) => self.transmit_pcie(t0, node, up, msgs),
            Chan::Dma => unreachable!("the DMA vector is flushed by flush_dma"),
        }
    }

    /// Serializes messages into MTU-bounded frames and delivers them.
    ///
    /// This is the single choke point for Ethernet-lane fault injection:
    /// per-message drop/duplication, timed partitions (all messages cut),
    /// and per-frame delivery jitter all happen here, drawing from the
    /// sending node's fault RNG stream. The PCIe, DMA, RDMA, and local lanes
    /// stay reliable — the model is lossy datacenter Ethernet under a
    /// crash-stop node fault model, not arbitrary hardware corruption.
    fn transmit_net(&mut self, t0: SimTime, src: usize, dst: usize, msgs: &mut Vec<Out<M>>) {
        let mut jitter_max = 0u64;
        if self.faults_active {
            if self.crashed[src] {
                msgs.clear();
                return;
            }
            let lf = self.cfg.faults.link_for(src, dst);
            let cut = self.cfg.faults.partitioned(src, dst, t0.0);
            jitter_max = lf.jitter_ns;
            if cut || lf.drop_prob > 0.0 || lf.dup_prob > 0.0 {
                // Rebuild in a persistent scratch; the fault RNG draws
                // (drop check, then dup check, per message in order) match
                // the allocating implementation draw for draw.
                let mut kept = std::mem::take(&mut self.fault_scratch);
                debug_assert!(kept.is_empty());
                for (exec, msg, bytes) in msgs.drain(..) {
                    if cut || (lf.drop_prob > 0.0 && self.fault_rngs[src].chance(lf.drop_prob)) {
                        self.nodes[src].net_msgs_dropped += 1;
                        continue;
                    }
                    if lf.dup_prob > 0.0 && self.fault_rngs[src].chance(lf.dup_prob) {
                        self.nodes[src].net_msgs_duped += 1;
                        kept.push((exec, msg.clone(), bytes));
                    }
                    kept.push((exec, msg, bytes));
                }
                std::mem::swap(msgs, &mut kept);
                self.fault_scratch = kept;
                if msgs.is_empty() {
                    return;
                }
            }
        }
        // Surviving (post-fault) messages are what the port transmits, so
        // count them here to keep ops_per_frame reconciled with frames.
        self.nodes[src].net_msgs_sent += msgs.len() as u64;
        let mtu = u64::from(self.params.mtu_payload_bytes);
        let mut frame: Vec<(Exec, M)> = self.frame_pool.pop().unwrap_or_default();
        let mut frame_bytes = 0u64;
        // Build and send each frame in one pass: `send_frame` calls and
        // jitter draws happen in frame order, exactly as a build-then-send
        // split would produce.
        for (exec, msg, bytes) in msgs.drain(..) {
            if frame_bytes + u64::from(bytes) > mtu && !frame.is_empty() {
                self.send_net_frame(t0, src, dst, frame, frame_bytes, jitter_max);
                frame = self.frame_pool.pop().unwrap_or_default();
                frame_bytes = 0;
            }
            frame_bytes += u64::from(bytes);
            frame.push((exec, msg));
        }
        if frame.is_empty() {
            self.frame_pool.push(frame);
        } else {
            self.send_net_frame(t0, src, dst, frame, frame_bytes, jitter_max);
        }
    }

    /// Transmits one built frame: port serialization, optional jitter
    /// draw, and the in-flight `NetArrive` event.
    fn send_net_frame(
        &mut self,
        t0: SimTime,
        src: usize,
        dst: usize,
        frame: Vec<(Exec, M)>,
        frame_bytes: u64,
        jitter_max: u64,
    ) {
        let tx_done = self.nodes[src].lio.send_frame(t0, frame_bytes);
        let extra = if jitter_max > 0 {
            self.fault_rngs[src].below(jitter_max + 1)
        } else {
            0
        };
        self.push_ev(
            tx_done + self.params.wire_oneway_ns + extra,
            Event::NetArrive {
                dst,
                payload_bytes: frame_bytes,
                msgs: frame,
            },
        );
    }

    fn transmit_pcie(&mut self, t0: SimTime, node: usize, up: bool, msgs: &mut Vec<Out<M>>) {
        let total: u64 = msgs.iter().map(|(_, _, b)| u64::from(*b)).sum();
        let done = if up {
            self.nodes[node].pcie.send_frame(t0, total)
        } else {
            self.nodes[node].pcie.recv_frame(t0, total)
        };
        // Substrate-resolved (DESIGN.md §17): off-path profiles pay the
        // internal PCIe switch hop on every host↔NIC crossing.
        let lat = if up {
            self.params.pcie_up_lat_ns()
        } else {
            self.params.pcie_down_lat_ns()
        };
        let arrival = done + lat;
        for (exec, msg, _) in msgs.drain(..) {
            self.push_ev(arrival, Event::Deliver { node, exec, msg });
        }
    }

    /// Issues a DMA read of host memory from the NIC; `done` is delivered
    /// to this node's NIC pool when the data is available.
    pub fn dma_read(&mut self, bytes: u32, done: M) {
        self.dma_op(
            DmaOp {
                kind: DmaKind::Read,
                bytes,
            },
            done,
        );
    }

    /// Issues a DMA write to host memory from the NIC; `done` is
    /// delivered to this node's NIC pool when the write is durable.
    pub fn dma_write(&mut self, bytes: u32, done: M) {
        self.dma_op(
            DmaOp {
                kind: DmaKind::Write,
                bytes,
            },
            done,
        );
    }

    fn dma_op(&mut self, op: DmaOp, done: M) {
        let node = self.cur_node;
        if self.cfg.async_dma {
            let res = &mut self.nodes[node];
            let first = res.dma_vec.push((op, done));
            if res.dma_vec.items.len() >= self.params.dma_max_vector {
                self.flush_dma(node);
            } else if first {
                // Submit almost immediately when the engine is idle;
                // accumulate bigger vectors behind a busy queue.
                let queue_free = res.dma.queue_free_at(res.dma_rr);
                let t = (self.departure() + DMA_WINDOW_NS).max(queue_free);
                self.push_ev(t, Event::Flush { node, chan: Chan::Dma });
            }
        } else {
            // Synchronous model (Figure 9 baseline): submit immediately
            // and block the issuing core until completion.
            let t0 = self.departure();
            let res = &mut self.nodes[node];
            let queue_id = res.dma_rr;
            res.dma_rr = (res.dma_rr + 1) % self.params.dma_queues;
            let submit_busy = res.dma.submit(t0, queue_id, &[op], &mut self.dma_done_scratch);
            let done_at = self.dma_done_scratch[0];
            if self.in_handler && self.cur_exec == Exec::Nic {
                let block = done_at.since(self.cur_end) + submit_busy;
                self.charge(block);
            }
            self.push_ev(
                done_at,
                Event::Deliver {
                    node,
                    exec: Exec::Nic,
                    msg: done,
                },
            );
        }
    }

    /// Flushes the pending DMA vector: one core submission, vectored
    /// elements, per-element completion callbacks (§4.3.1).
    fn flush_dma(&mut self, node: usize) {
        if !self.nodes[node].dma_vec.take_due() {
            return;
        }
        let now = self.now().max(self.departure());
        let max_vec = self.params.dma_max_vector;
        let mut batch = std::mem::take(&mut self.dma_batch_scratch);
        let mut ops = std::mem::take(&mut self.dma_ops_scratch);
        let mut done_at = std::mem::take(&mut self.dma_done_scratch);
        while !self.nodes[node].dma_vec.items.is_empty() {
            let res = &mut self.nodes[node];
            let take = res.dma_vec.items.len().min(max_vec);
            batch.extend(res.dma_vec.items.drain(..take));
            ops.extend(batch.iter().map(|(op, _)| *op));
            let queue_id = res.dma_rr;
            res.dma_rr = (res.dma_rr + 1) % self.params.dma_queues;
            // The submitting NIC core pays the (amortized) submission cost.
            let nic = &mut res.pool_mut(Exec::Nic).cores;
            let (_, _, submit_end) = nic.reserve(now, self.params.dma_submit_ns);
            res.dma.submit(submit_end, queue_id, &ops, &mut done_at);
            for ((_, done), &at) in batch.drain(..).zip(&done_at) {
                self.push_ev(
                    at,
                    Event::Deliver {
                        node,
                        exec: Exec::Nic,
                        msg: done,
                    },
                );
            }
            ops.clear();
        }
        self.dma_batch_scratch = batch;
        self.dma_ops_scratch = ops;
        self.dma_done_scratch = done_at;
    }

    /// Processes a frame arrival: ingress serialization at arrival time,
    /// plus per-frame RX descriptor/buffer work on a NIC core. With burst
    /// batching the work is small and amortized (§4.3.2); without it each
    /// packet pays the full path — the §3.3 batched-vs-unbatched gap.
    pub(crate) fn net_arrive(&mut self, dst: usize, payload_bytes: u64, mut msgs: Vec<(Exec, M)>) {
        if self.crashed[dst] {
            // Frames in flight toward a crashed node vanish at its port
            // (the buffer still gets recycled below).
            msgs.clear();
        } else {
            let now = self.now();
            let rx_done = self.nodes[dst].lio.recv_frame(now, payload_bytes);
            // Substrate-resolved (DESIGN.md §17): off-path hardware RX
            // steering undercuts the LiquidIO's software poll loop.
            let rx_cpu = self.params.rx_frame_cpu_ns(self.cfg.aggregation);
            let nic = &mut self.nodes[dst].pool_mut(Exec::Nic).cores;
            let (_, _, frame_ready) = nic.reserve(rx_done, rx_cpu);
            for (exec, msg) in msgs.drain(..) {
                self.push_ev(
                    frame_ready,
                    Event::Deliver { node: dst, exec, msg },
                );
            }
        }
        if self.frame_pool.len() < FRAME_POOL_MAX {
            self.frame_pool.push(msgs);
        }
    }

    /// Frame bytes of a verb packet carrying `payload`: half the verb's
    /// wire overhead rides each direction.
    fn verb_wire_bytes(&self, payload: u32) -> u64 {
        u64::from(self.params.rdma_verb_wire_bytes) / 2 + u64::from(payload)
    }

    /// Processes an RDMA request arrival at the responder NIC.
    pub(crate) fn rdma_arrive(&mut self, dst: usize, verb: Verb, cont: Box<RdmaCont<M>>) {
        let (now, req_bytes) = (self.now(), self.verb_wire_bytes(verb.request_payload()));
        let rx_done = self.nodes[dst].cx5.recv_frame(now, req_bytes);
        let rdma = &mut self.nodes[dst].rdma;
        let (at, ev) = match *cont {
            RdmaCont::OneSided { .. } => {
                let served = rdma.reserve_rx(rx_done) + rdma.responder_fixed_ns(verb);
                (served, Event::RdmaServed { dst, verb, cont })
            }
            RdmaCont::Request { msg } => {
                let served = rdma.reserve_rx(rx_done) + rdma.responder_fixed_ns(verb);
                (served, Event::Deliver { node: dst, exec: Exec::Nic, msg })
            }
            RdmaCont::Send { msg } => {
                // Two-sided: the remote host's RPC stack (burst polling,
                // buffer handling, dispatch) adds latency beyond the
                // handler compute charged at delivery.
                let nic_done = rdma.reserve_rx(rx_done) + self.params.host_rpc_extra_ns;
                (nic_done.max(rx_done), Event::Deliver { node: dst, exec: Exec::Host, msg })
            }
        };
        self.push_ev(at, ev);
    }

    /// Responder NIC finished a one-sided verb: emit the response frame.
    pub(crate) fn rdma_served(&mut self, dst: usize, verb: Verb, cont: RdmaCont<M>) {
        let RdmaCont::OneSided { requester, done } = cont else {
            return;
        };
        let now = self.now();
        self.rdma_respond(dst, now, requester, verb, done);
    }

    /// Emits `verb`'s response frame from `from`'s CX5 no earlier than
    /// `t0`; it reaches `requester` one wire hop after serialization.
    fn rdma_respond(&mut self, from: usize, t0: SimTime, requester: usize, verb: Verb, msg: M) {
        let resp_bytes = self.verb_wire_bytes(verb.response_payload());
        let tx_done = self.nodes[from].cx5.send_frame(t0, resp_bytes);
        self.push_ev(
            tx_done + self.params.wire_oneway_ns,
            Event::RdmaReturn {
                to: requester,
                verb,
                msg,
            },
        );
    }

    /// A response packet reaches the requester: ingress, then completion.
    pub(crate) fn rdma_return(&mut self, to: usize, verb: Verb, msg: M) {
        let (now, resp_bytes) = (self.now(), self.verb_wire_bytes(verb.response_payload()));
        let done_at = self.nodes[to].cx5.recv_frame(now, resp_bytes);
        self.push_ev(
            done_at,
            Event::Deliver {
                node: to,
                exec: Exec::Host,
                msg,
            },
        );
    }

    /// The requester side of every verb: the host's doorbell post cost,
    /// then the CX5 TX pipeline, egress serialization and the wire to
    /// `dst`. A loopback request keeps the NIC pipeline but skips the
    /// wire, and a loopback SEND is a local hand-off; a loopback
    /// one-sided verb takes the wire like any other.
    fn rdma_post(&mut self, dst: usize, verb: Verb, cont: RdmaCont<M>, doorbell_batched: bool) {
        let src = self.cur_node;
        let post = self.nodes[src].rdma.post_cost_ns(doorbell_batched);
        self.charge(post);
        let t0 = self.departure();
        let cont = match cont {
            RdmaCont::Request { msg } if dst == src => {
                let rdma = &mut self.nodes[src].rdma;
                let served = rdma.reserve_rx(t0) + rdma.responder_fixed_ns(verb);
                self.push_ev(served, Event::Deliver { node: dst, exec: Exec::Nic, msg });
                return;
            }
            RdmaCont::Send { msg } if dst == src => {
                self.send_local(Exec::Host, msg, LOCAL_HOP_NS);
                return;
            }
            cont => cont,
        };
        let req_bytes = self.verb_wire_bytes(verb.request_payload());
        let issued = self.nodes[src].rdma.reserve_tx(t0);
        let tx_done = self.nodes[src].cx5.send_frame(issued, req_bytes);
        self.push_ev(
            tx_done + self.params.wire_oneway_ns,
            Event::RdmaArrive {
                dst,
                verb,
                cont: Box::new(cont),
            },
        );
    }

    /// Issues a one-sided RDMA verb from this node (host side) to `dst`;
    /// `done` is delivered back to this node's host pool at completion.
    ///
    /// Composes: host post cost → requester CX5 pipeline → wire →
    /// responder CX5 pipeline + host-DRAM access → wire back. The
    /// responder's host CPU is never involved — the whole point of
    /// one-sided RDMA (§2.1).
    pub fn rdma_one_sided(&mut self, dst: usize, verb: Verb, done: M, doorbell_batched: bool) {
        let requester = self.cur_node;
        self.rdma_post(dst, verb, RdmaCont::OneSided { requester, done }, doorbell_batched);
    }

    /// Issues a one-sided verb whose *responder-side memory operation*
    /// needs protocol state (a CAS on a lock word, a read of a real data
    /// structure): `req` is delivered to the destination's **NIC pool at
    /// zero handler cost** at the moment the responder NIC serves the verb
    /// — it stands in for the RDMA NIC's DMA engine, not a CPU. The
    /// responder's handler applies the memory op and answers with
    /// [`Runtime::rdma_response`].
    ///
    /// All pipeline, wire, and host-DRAM costs are identical to
    /// [`Runtime::rdma_one_sided`]; only the completion routing differs.
    pub fn rdma_request(&mut self, dst: usize, verb: Verb, req: M, doorbell_batched: bool) {
        self.rdma_post(dst, verb, RdmaCont::Request { msg: req }, doorbell_batched);
    }

    /// Sends a one-sided verb's response back to the requester (see
    /// [`Runtime::rdma_request`]): wire time for the response payload,
    /// delivered to the requester's **host** pool (its completion queue).
    pub fn rdma_response(&mut self, requester: usize, verb: Verb, resp: M) {
        let me = self.cur_node;
        let t0 = self.departure();
        if requester == me {
            self.push_ev(
                t0 + LOCAL_HOP_NS,
                Event::Deliver {
                    node: requester,
                    exec: Exec::Host,
                    msg: resp,
                },
            );
            return;
        }
        self.rdma_respond(me, t0, requester, verb, resp);
    }

    /// Sends a two-sided RDMA message (SEND/RECV RPC transport) to `dst`,
    /// delivered to its **host** pool — the remote CPU must poll and
    /// handle it, unlike one-sided verbs.
    pub fn rdma_send(&mut self, dst: usize, msg: M, payload_bytes: u32, doorbell_batched: bool) {
        let verb = Verb::Send {
            bytes: payload_bytes,
        };
        self.rdma_post(dst, verb, RdmaCont::Send { msg }, doorbell_batched);
    }

    // ---- Fault-plan machinery ----

    /// Crash-stops `node`: everything queued *at* the node — inboxes,
    /// aggregation buffers, the pending DMA vector — is lost, and events
    /// targeting it are discarded until restart. Protocol state is NOT
    /// touched: the crash model is fail-stop with memory intact.
    pub(crate) fn crash_node(&mut self, node: usize) {
        self.crashed[node] = true;
        let res = &mut self.nodes[node];
        for pool in &mut res.pools {
            pool.inbox.clear();
        }
        for buf in &mut res.agg {
            buf.clear();
        }
        res.dma_vec.clear();
    }

    /// Brings a crashed node back; the caller (the cluster loop) then
    /// invokes [`Protocol::on_restart`] so the engine can re-arm timers.
    pub(crate) fn restart_node(&mut self, node: usize) {
        self.crashed[node] = false;
    }

    /// Whether a node is currently crash-stopped.
    pub fn is_crashed(&self, node: usize) -> bool {
        self.crashed[node]
    }

    /// Whether this run's fault plan can perturb anything. Protocol
    /// engines gate their loss-tolerance machinery (dedup tables, timers,
    /// retransmits) on this so fault-free runs take the exact pre-fault
    /// code paths.
    pub fn faults_active(&self) -> bool {
        self.faults_active
    }

    // ---- Measurement accessors ----

    /// Cumulative busy nanoseconds of a node's pool.
    pub fn pool_busy_ns(&self, node: usize, exec: Exec) -> u64 {
        self.nodes[node].pool(exec).cores.total_busy_ns()
    }

    /// Equivalent fully-busy cores of a pool over `[0, now]`.
    pub fn busy_cores(&self, node: usize, exec: Exec) -> f64 {
        self.nodes[node].pool(exec).cores.busy_cores(self.now())
    }

    /// Total bytes the node's LiquidIO port has transmitted.
    pub fn lio_tx_bytes(&self, node: usize) -> u64 {
        self.nodes[node].lio.tx_bytes()
    }

    /// Total bytes the node's CX5 port has transmitted.
    pub fn cx5_tx_bytes(&self, node: usize) -> u64 {
        self.nodes[node].cx5.tx_bytes()
    }

    /// DMA elements the node's engine has processed.
    pub fn dma_elements(&self, node: usize) -> u64 {
        self.nodes[node].dma.elements_done()
    }

    /// Mean elements per DMA vector at a node (§4.3.1 fill factor).
    pub fn dma_vector_fill(&self, node: usize) -> f64 {
        self.nodes[node].dma.mean_vector_fill()
    }

    /// Frames the node's LiquidIO port has sent.
    pub fn lio_tx_frames(&self, node: usize) -> u64 {
        self.nodes[node].lio.tx_frames()
    }

    /// Protocol messages the node has sent over the LiquidIO fabric.
    pub fn net_msgs_sent(&self, node: usize) -> u64 {
        self.nodes[node].net_msgs_sent
    }

    /// Messages the fault layer discarded at this node's egress (random
    /// drops plus partition cuts).
    pub fn net_msgs_dropped(&self, node: usize) -> u64 {
        self.nodes[node].net_msgs_dropped
    }

    /// Messages the fault layer duplicated at this node's egress.
    pub fn net_msgs_duped(&self, node: usize) -> u64 {
        self.nodes[node].net_msgs_duped
    }

    /// Mean protocol messages per Ethernet frame at a node — the
    /// opportunistic-batching factor of §4.3.2.
    pub fn ops_per_frame(&self, node: usize) -> f64 {
        let frames = self.nodes[node].lio.tx_frames();
        if frames == 0 {
            0.0
        } else {
            self.nodes[node].net_msgs_sent as f64 / frames as f64
        }
    }

    /// RDMA verbs the node's CX5 has processed.
    pub fn rdma_verbs(&self, node: usize) -> u64 {
        self.nodes[node].rdma.verbs()
    }

    // ---- Tracing ----

    /// The run's trace recorder (empty unless tracing was configured).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Whether tracing is on — engines can use this to skip building
    /// anything trace-only.
    pub fn trace_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Component attribution for the currently-running handler.
    fn cur_component(&self) -> Component {
        match self.cur_exec {
            Exec::Host => Component::HostCore(self.cur_core as u16),
            Exec::Nic => Component::NicCore(self.cur_core as u16),
        }
    }

    /// Opens a phase span for the current handler's node, keyed by `id`.
    pub fn trace_begin(&mut self, name: &'static str, id: u64) {
        if !self.tracer.enabled() {
            return;
        }
        let (at, node, comp) = (self.now(), self.cur_node as u32, self.cur_component());
        self.tracer.begin(at, node, comp, name, id);
    }

    /// Closes a phase span opened with [`Runtime::trace_begin`].
    pub fn trace_end(&mut self, name: &'static str, id: u64) {
        if !self.tracer.enabled() {
            return;
        }
        let (at, node, comp) = (self.now(), self.cur_node as u32, self.cur_component());
        self.tracer.end(at, node, comp, name, id);
    }

    /// Records a point event for the current handler's node.
    pub fn trace_instant(&mut self, name: &'static str, id: u64) {
        if !self.tracer.enabled() {
            return;
        }
        let (at, node, comp) = (self.now(), self.cur_node as u32, self.cur_component());
        self.tracer.instant(at, node, comp, name, id);
    }

    /// Samples `node`'s gauges and re-arms its [`Event::GaugeSample`].
    /// Read-only with respect to protocol and hardware state.
    pub(crate) fn sample_gauges(&mut self, node: usize) {
        let now = self.now();
        let res = &self.nodes[node];
        // Backlog queued at a port's egress serializer, expressed in
        // bytes: remaining busy time × line rate.
        let backlog = |port: &Port| port.egress_free_at().since(now) as f64 * port.gbps() / 8.0;
        let (host, nic) = (res.pool(Exec::Host), res.pool(Exec::Nic));
        let busy_frac = |cores: &CorePool| cores.busy_at(now) as f64 / cores.len() as f64;
        let samples = [
            (Component::HostPool, "runq", host.inbox.len() as f64),
            (Component::HostPool, "busy_frac", busy_frac(&host.cores)),
            (Component::NicPool, "runq", nic.inbox.len() as f64),
            (Component::NicPool, "busy_frac", busy_frac(&nic.cores)),
            (Component::Dma, "busy_queues", res.dma.busy_queues(now) as f64),
            (Component::Dma, "vector_fill", res.dma.mean_vector_fill()),
            (Component::Dma, "pending_elems", res.dma_vec.items.len() as f64),
            (Component::LioPort, "inflight_bytes", backlog(&res.lio)),
            (Component::Cx5Port, "inflight_bytes", backlog(&res.cx5)),
            (Component::PciePort, "inflight_bytes", backlog(&res.pcie)),
        ];
        for (component, name, value) in samples {
            self.tracer.gauge(now, node as u32, component, name, value);
        }
        let at = now + self.tracer.gauge_interval_ns();
        self.push_ev(at, Event::GaugeSample { node });
    }
}

/// A cluster: protocol states plus the runtime, driving the event loop.
pub struct Cluster<P: Protocol> {
    /// Per-node protocol state.
    pub states: Vec<P::State>,
    /// The shared runtime.
    pub rt: Runtime<P::Msg>,
}

impl<P: Protocol> Cluster<P> {
    /// Builds a cluster; `mk_state` constructs each node's state.
    ///
    /// # Panics
    /// If `cfg.faults` names a node outside `0..params.nodes`, with the
    /// message of [`crate::FaultPlan::check`] — front ends that take a
    /// plan from the command line call `check` themselves first.
    pub fn new(
        params: HwParams,
        cfg: NetConfig,
        seed: u64,
        mut mk_state: impl FnMut(usize) -> P::State,
    ) -> Self {
        let n = params.nodes;
        if let Err(e) = cfg.faults.check(n) {
            panic!("{e}");
        }
        Cluster {
            states: (0..n).map(&mut mk_state).collect(),
            rt: Runtime::new(params, cfg, seed),
        }
    }

    /// Schedules an initial message (stamped by — and lane-routed to —
    /// the target node).
    pub fn seed(&mut self, at: SimTime, node: usize, exec: Exec, msg: P::Msg) {
        self.rt.stamp_node = node;
        self.rt.schedule_at(at, node, exec, msg);
    }

    /// Runs until the queue drains or the clock passes `horizon`.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let mut processed = 0;
        while let Some((_, ev)) = self.rt.queue.pop_at_or_before(horizon) {
            processed += 1;
            dispatch_event::<P>(&mut self.states, 0, &mut self.rt, ev);
        }
        processed
    }
}

/// Dispatches one popped event against the protocol: the single shared
/// event-loop body of the serial scheduler and every lane worker.
/// `states` holds the nodes `base..base + states.len()` — the serial
/// scheduler passes the full slice with `base == 0`, a lane worker its
/// contiguous chunk (the runtime's `nodes` vector is always full-length).
pub(crate) fn dispatch_event<P: Protocol>(
    states: &mut [P::State],
    base: usize,
    rt: &mut Runtime<P::Msg>,
    ev: Event<P::Msg>,
) {
    rt.stamp_node = ev.owner();
    rt.tracer.at_dispatch(rt.queue.last_seq());
    match ev {
        Event::Deliver { node, exec, msg } => {
            if rt.crashed[node] {
                return;
            }
            rt.nodes[node].pool_mut(exec).inbox.push_back(msg);
            service_node::<P>(states, base, rt, node, exec);
        }
        Event::CoreFree { node, exec } => service_node::<P>(states, base, rt, node, exec),
        Event::Flush { node, chan } => rt.flush(node, chan),
        Event::NetArrive {
            dst,
            payload_bytes,
            msgs,
        } => rt.net_arrive(dst, payload_bytes, msgs),
        Event::RdmaArrive { dst, verb, cont } => {
            if !rt.crashed[dst] {
                rt.rdma_arrive(dst, verb, cont);
            }
        }
        Event::RdmaServed { dst, verb, cont } => {
            if !rt.crashed[dst] {
                rt.rdma_served(dst, verb, *cont);
            }
        }
        Event::RdmaReturn { to, verb, msg } => {
            if !rt.crashed[to] {
                rt.rdma_return(to, verb, msg);
            }
        }
        Event::Crash { node } => rt.crash_node(node),
        Event::Restart { node } => {
            rt.restart_node(node);
            rt.cur_node = node;
            rt.cur_exec = Exec::Nic;
            P::on_restart(&mut states[node - base], rt, node);
        }
        Event::GaugeSample { node } => rt.sample_gauges(node),
    }
}

/// Pumps a node's run queue while idle cores and pending messages exist.
pub(crate) fn service_node<P: Protocol>(
    states: &mut [P::State],
    base: usize,
    rt: &mut Runtime<P::Msg>,
    node: usize,
    exec: Exec,
) {
    loop {
        let now = rt.queue.now();
        let pool = rt.nodes[node].pool_mut(exec);
        if pool.inbox.is_empty() || !pool.cores.has_idle(now) {
            return;
        }
        let msg = pool.inbox.pop_front().expect("checked non-empty");
        let cost = P::cost(&msg, exec, &rt.params);
        let (core, _start, end) = pool.cores.reserve(now, cost);
        rt.cur_node = node;
        rt.cur_exec = exec;
        rt.cur_core = core;
        rt.cur_end = end;
        rt.in_handler = true;
        P::handle(&mut states[node - base], rt, node, msg);
        rt.in_handler = false;
        let free = rt.nodes[node].pool(exec).cores.free_at(core);
        rt.push_ev(free, Event::CoreFree { node, exec });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy echo protocol exercising every runtime lane.
    struct Echo;

    #[derive(Clone, Debug)]
    enum EMsg {
        PingNet { from: usize, t0: SimTime },
        PongNet { t0: SimTime },
        PingRpc { from: usize, t0: SimTime },
        PongRpc { t0: SimTime },
        Dma { t0: SimTime },
        DmaDone { t0: SimTime },
        ReadDone { t0: SimTime },
        Spin(u64),
    }

    #[derive(Default)]
    struct EState {
        rtts: Vec<u64>,
        dma_lat: Vec<u64>,
        handled: u64,
    }

    impl Protocol for Echo {
        type Msg = EMsg;
        type State = EState;

        fn cost(msg: &EMsg, _exec: Exec, p: &HwParams) -> u64 {
            match msg {
                EMsg::PingNet { .. } | EMsg::PongNet { .. } => p.nic_rpc_handle_ns,
                EMsg::PingRpc { .. } | EMsg::PongRpc { .. } => p.host_rpc_handle_ns,
                EMsg::Dma { .. } => 80,
                EMsg::DmaDone { .. } | EMsg::ReadDone { .. } => 60,
                EMsg::Spin(ns) => *ns,
            }
        }

        fn handle(st: &mut EState, rt: &mut Runtime<EMsg>, _node: usize, msg: EMsg) {
            st.handled += 1;
            match msg {
                EMsg::PingNet { from, t0 } => {
                    rt.send_net(from, Exec::Nic, EMsg::PongNet { t0 }, 80);
                }
                EMsg::PongNet { t0 } => st.rtts.push(rt.now().since(t0)),
                EMsg::PingRpc { from, t0 } => {
                    rt.rdma_send(from, EMsg::PongRpc { t0 }, 80, false);
                }
                EMsg::PongRpc { t0 } => st.rtts.push(rt.now().since(t0)),
                EMsg::Dma { t0 } => rt.dma_write(64, EMsg::DmaDone { t0 }),
                EMsg::DmaDone { t0 } | EMsg::ReadDone { t0 } => {
                    st.dma_lat.push(rt.now().since(t0))
                }
                EMsg::Spin(_) => {}
            }
        }
    }

    fn cluster(cfg: NetConfig) -> Cluster<Echo> {
        Cluster::new(HwParams::paper_testbed(), cfg, 7, |_| EState::default())
    }

    #[test]
    fn net_ping_pong_rtt_in_expected_band() {
        let mut c = cluster(NetConfig::baseline());
        c.seed(
            SimTime::ZERO,
            0,
            Exec::Nic,
            EMsg::Spin(0), // warm the queue
        );
        // Node 0's NIC pings node 1's NIC.
        c.seed(
            SimTime::from_ns(10),
            1,
            Exec::Nic,
            EMsg::PingNet {
                from: 0,
                t0: SimTime::from_ns(10),
            },
        );
        c.run_until(SimTime::from_ms(1));
        // NIC→NIC RTT without aggregation: two handler costs + two wire
        // hops ≈ 0.22*2 + 0.6*2 + serialization ≈ 1.7–2.2 µs... but the
        // ping was seeded *at* node 1, so we only measure the pong leg
        // plus handling. Just check a sane sub-3µs bound.
        assert_eq!(c.states[0].rtts.len(), 1);
        let rtt = c.states[0].rtts[0];
        assert!((500..3_000).contains(&rtt), "one-leg latency {rtt} ns");
    }

    #[test]
    fn rpc_over_cx5_reaches_host_pool() {
        let mut c = cluster(NetConfig::baseline());
        c.seed(
            SimTime::ZERO,
            1,
            Exec::Host,
            EMsg::PingRpc {
                from: 0,
                t0: SimTime::ZERO,
            },
        );
        c.run_until(SimTime::from_ms(1));
        assert_eq!(c.states[0].rtts.len(), 1);
        assert!(c.rt.rdma_verbs(1) >= 1, "responder verb must be counted");
    }

    #[test]
    fn aggregation_reduces_frames_for_bursts() {
        // 20 messages to the same destination in one burst: aggregated
        // mode must emit far fewer frames than one-per-message.
        let run = |agg: bool| -> u64 {
            let cfg = if agg {
                NetConfig::full()
            } else {
                NetConfig::baseline()
            };
            let mut c = cluster(cfg);
            for i in 0..20 {
                c.seed(
                    SimTime::from_ns(i),
                    1,
                    Exec::Nic,
                    EMsg::PingNet {
                        from: 0,
                        t0: SimTime::from_ns(i),
                    },
                );
            }
            c.run_until(SimTime::from_ms(1));
            assert_eq!(c.states[0].rtts.len(), 20);
            c.rt.nodes[1].lio.tx_frames()
        };
        let frames_solo = run(false);
        let frames_agg = run(true);
        assert_eq!(frames_solo, 20);
        assert!(
            frames_agg <= frames_solo / 2,
            "aggregated {frames_agg} vs solo {frames_solo}"
        );
    }

    #[test]
    fn async_dma_batches_and_completes() {
        let mut c = cluster(NetConfig::full());
        // Handlers on node 0's NIC issue 20 DMA writes in a burst; the
        // async framework must vector them (≥2 elements per submission)
        // and deliver every completion.
        for i in 0..20u64 {
            c.seed(SimTime::from_ns(i), 0, Exec::Nic, EMsg::Dma { t0: SimTime::from_ns(i) });
        }
        c.run_until(SimTime::from_ms(1));
        assert_eq!(c.states[0].dma_lat.len(), 20, "all completions arrive");
        assert_eq!(c.rt.dma_elements(0), 20);
        assert!(
            c.rt.dma_vector_fill(0) >= 2.0,
            "burst must batch into vectors: fill {}",
            c.rt.dma_vector_fill(0)
        );
        // Completion latency includes the write pipeline depth.
        assert!(c.states[0].dma_lat.iter().all(|&l| l >= 570));
    }

    #[test]
    fn core_pool_queueing_limits_throughput() {
        // Flood one node's NIC pool: with 24 cores at 1 µs per message, a
        // 1 ms horizon completes ≈ 24k messages, not 100k.
        let mut c = cluster(NetConfig::baseline());
        for i in 0..100_000u64 {
            c.seed(SimTime::from_ns(i % 1000), 2, Exec::Nic, EMsg::Spin(1_000));
        }
        c.run_until(SimTime::from_ms(1));
        let handled = c.states[2].handled;
        assert!(
            (20_000..=26_000).contains(&handled),
            "handled {handled}, expected ~24k (24 cores × 1k msg/ms)"
        );
        let busy = c.rt.busy_cores(2, Exec::Nic);
        assert!(busy > 23.0, "pool saturated: {busy}");
    }

    #[test]
    fn one_sided_rdma_read_rtt_matches_calibration() {
        // Issue a READ via the runtime from a pseudo-handler context by
        // seeding a Spin and hooking: easiest is to call the runtime
        // directly outside a handler (departure = now).
        let mut c = cluster(NetConfig::baseline());
        c.rt.cur_node = 0;
        c.rt.rdma_one_sided(
            1,
            Verb::Read { bytes: 256 },
            EMsg::ReadDone { t0: SimTime::ZERO },
            false,
        );
        c.run_until(SimTime::from_ms(1));
        assert_eq!(c.states[0].dma_lat.len(), 1);
        let rtt = c.states[0].dma_lat[0];
        // Calibrated READ RTT plus serialization and completion cost.
        let base = c.rt.params.rdma_read_rtt_ns;
        assert!(
            (base - 100..=base + 600).contains(&rtt),
            "RDMA READ RTT {rtt} ns vs calibrated {base}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut c = cluster(NetConfig::full());
            for i in 0..50u64 {
                c.seed(
                    SimTime::from_ns(i * 13),
                    (i % 3) as usize + 1,
                    Exec::Nic,
                    EMsg::PingNet {
                        from: 0,
                        t0: SimTime::from_ns(i * 13),
                    },
                );
            }
            c.run_until(SimTime::from_ms(2));
            c.states[0].rtts.clone()
        };
        assert_eq!(run(), run());
    }

    // ---- Fault-plan tests ----

    use crate::config::FaultPlan;

    /// Seeds `n` pings from node 1 toward node 0 and returns the cluster
    /// after the run.
    fn ping_storm(cfg: NetConfig, n: u64) -> Cluster<Echo> {
        let mut c = cluster(cfg);
        for i in 0..n {
            c.seed(
                SimTime::from_ns(i * 13),
                1,
                Exec::Nic,
                EMsg::PingNet {
                    from: 0,
                    t0: SimTime::from_ns(i * 13),
                },
            );
        }
        c.run_until(SimTime::from_ms(5));
        c
    }

    #[test]
    fn drops_lose_messages_and_are_counted() {
        let c = ping_storm(
            NetConfig::full().with_faults(FaultPlan::lossy(0.5, 0.0, 0)),
            200,
        );
        let pongs = c.states[0].rtts.len();
        assert!(pongs < 200, "half-lossy link must lose pongs: {pongs}");
        assert!(c.rt.net_msgs_dropped(1) > 0, "drops must be counted");
        // Sent + dropped accounts for every message offered to the lossy
        // egress (node 1 only sends the 200 pongs; no dups configured).
        assert_eq!(c.rt.net_msgs_sent(1) + c.rt.net_msgs_dropped(1), 200);
    }

    #[test]
    fn duplicates_deliver_twice_and_are_counted() {
        let c = ping_storm(
            NetConfig::full().with_faults(FaultPlan::lossy(0.0, 0.5, 0)),
            200,
        );
        let pongs = c.states[0].rtts.len() as u64;
        assert!(pongs > 200, "duplicated pongs must arrive twice: {pongs}");
        assert_eq!(pongs, 200 + c.rt.net_msgs_duped(1));
    }

    #[test]
    fn partition_cuts_both_directions_then_heals() {
        // Pings seeded during the partition window die (either the ping's
        // pong or the ping itself, depending on direction); pings after
        // the heal complete normally.
        let cfg = NetConfig::full().with_faults(
            FaultPlan::none().with_partition(0, 1, 0, 1_000_000),
        );
        let mut c = cluster(cfg);
        c.seed(
            SimTime::from_ns(10),
            1,
            Exec::Nic,
            EMsg::PingNet {
                from: 0,
                t0: SimTime::from_ns(10),
            },
        );
        c.seed(
            SimTime::from_us(1_500),
            1,
            Exec::Nic,
            EMsg::PingNet {
                from: 0,
                t0: SimTime::from_us(1_500),
            },
        );
        c.run_until(SimTime::from_ms(5));
        assert_eq!(
            c.states[0].rtts.len(),
            1,
            "only the post-heal ping completes"
        );
    }

    #[test]
    fn jitter_delays_but_never_loses() {
        let c = ping_storm(
            NetConfig::full().with_faults(FaultPlan::lossy(0.0, 0.0, 2_000)),
            100,
        );
        assert_eq!(c.states[0].rtts.len(), 100, "jitter must not lose");
        let base = ping_storm(NetConfig::full(), 100);
        let max_j = *c.states[0].rtts.iter().max().unwrap();
        let max_b = *base.states[0].rtts.iter().max().unwrap();
        assert!(
            max_j > max_b,
            "jittered max latency {max_j} should exceed fault-free {max_b}"
        );
    }

    #[test]
    fn crash_discards_traffic_until_restart() {
        let cfg = NetConfig::full().with_faults(
            FaultPlan::none().with_crash(0, 0, Some(1_000_000)),
        );
        let mut c = cluster(cfg);
        // Ping toward the crashed node: the pong vanishes at its port.
        c.seed(
            SimTime::from_ns(10),
            1,
            Exec::Nic,
            EMsg::PingNet {
                from: 0,
                t0: SimTime::from_ns(10),
            },
        );
        // After restart, traffic flows again.
        c.seed(
            SimTime::from_us(1_500),
            1,
            Exec::Nic,
            EMsg::PingNet {
                from: 0,
                t0: SimTime::from_us(1_500),
            },
        );
        c.run_until(SimTime::from_ms(5));
        assert!(!c.rt.is_crashed(0));
        assert_eq!(c.states[0].rtts.len(), 1, "only the post-restart pong");
    }

    #[test]
    #[should_panic(expected = "fault plan names node 9, but the cluster has nodes 0..6: crash of node 9")]
    fn plan_naming_a_missing_node_is_refused_at_build() {
        cluster(NetConfig::full().with_faults(FaultPlan::none().with_crash(9, 0, None)));
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let run = || {
            let cfg = NetConfig::full().with_faults(FaultPlan::lossy(0.1, 0.05, 500));
            let c = ping_storm(cfg, 200);
            (
                c.states[0].rtts.clone(),
                c.rt.net_msgs_dropped(1),
                c.rt.net_msgs_duped(1),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn inert_plan_matches_fault_free_run_exactly() {
        let base = ping_storm(NetConfig::full(), 100);
        let zero = ping_storm(
            NetConfig::full().with_faults(FaultPlan::lossy(0.0, 0.0, 0)),
            100,
        );
        assert_eq!(base.states[0].rtts, zero.states[0].rtts);
        assert_eq!(zero.rt.net_msgs_dropped(1), 0);
        assert_eq!(zero.rt.net_msgs_duped(1), 0);
    }
}

#[cfg(test)]
mod lane_tests {
    use super::*;

    /// A minimal protocol for exercising individual runtime lanes.
    struct Lane;

    #[derive(Clone, Debug)]
    enum LMsg {
        Up { t0: SimTime },
        Down { t0: SimTime },
        GotHost { t0: SimTime },
        GotNic { t0: SimTime },
        Req { from: usize, t0: SimTime },
        Done { t0: SimTime },
    }

    #[derive(Default)]
    struct LState {
        latencies: Vec<u64>,
    }

    impl Protocol for Lane {
        type Msg = LMsg;
        type State = LState;

        fn cost(m: &LMsg, _e: Exec, _p: &HwParams) -> u64 {
            match m {
                LMsg::Up { .. } | LMsg::Down { .. } => 100,
                _ => 0,
            }
        }

        fn handle(st: &mut LState, rt: &mut Runtime<LMsg>, _me: usize, m: LMsg) {
            match m {
                LMsg::Up { t0 } => rt.send_pcie(Exec::Nic, LMsg::GotNic { t0 }, 64),
                LMsg::Down { t0 } => rt.send_pcie(Exec::Host, LMsg::GotHost { t0 }, 64),
                LMsg::GotHost { t0 } | LMsg::GotNic { t0 } => {
                    st.latencies.push(rt.now().since(t0))
                }
                LMsg::Req { from, t0 } => {
                    rt.rdma_response(from, Verb::Read { bytes: 64 }, LMsg::Done { t0 })
                }
                LMsg::Done { t0 } => st.latencies.push(rt.now().since(t0)),
            }
        }
    }

    #[test]
    fn pcie_down_is_cheaper_than_up() {
        // NIC→host completions are DMA writes to a polled buffer; the
        // host→NIC descriptor-ring path costs more (params asymmetry).
        let p = HwParams::paper_testbed();
        let mut up_c: Cluster<Lane> =
            Cluster::new(p.clone(), NetConfig::baseline(), 1, |_| LState::default());
        up_c.seed(SimTime::ZERO, 0, Exec::Host, LMsg::Up { t0: SimTime::ZERO });
        up_c.run_until(SimTime::from_ms(1));
        let up = up_c.states[0].latencies[0];

        let mut down_c: Cluster<Lane> =
            Cluster::new(p.clone(), NetConfig::baseline(), 1, |_| LState::default());
        down_c.seed(SimTime::ZERO, 0, Exec::Nic, LMsg::Down { t0: SimTime::ZERO });
        down_c.run_until(SimTime::from_ms(1));
        let down = down_c.states[0].latencies[0];

        assert!(up > down, "up {up} ns must exceed down {down} ns");
        assert!(up as i64 - down as i64 >= (p.pcie_msg_oneway_ns - p.pcie_down_ns) as i64 - 100);
    }

    #[test]
    fn rdma_request_response_roundtrip_is_calibrated() {
        // The event-hop decomposition (issue → RdmaArrive → handler →
        // rdma_response → RdmaReturn) must reassemble the calibrated RTT.
        let p = HwParams::paper_testbed();
        let mut c: Cluster<Lane> =
            Cluster::new(p.clone(), NetConfig::baseline(), 1, |_| LState::default());
        c.rt.cur_node = 0;
        c.rt.rdma_request(
            1,
            Verb::Read { bytes: 64 },
            LMsg::Req {
                from: 0,
                t0: SimTime::ZERO,
            },
            false,
        );
        c.run_until(SimTime::from_ms(1));
        let rtt = c.states[0].latencies[0];
        let base = p.rdma_read_rtt_ns;
        assert!(
            (base - 200..=base + 600).contains(&rtt),
            "request/response RTT {rtt} vs calibrated {base}"
        );
    }

    #[test]
    fn frames_and_message_counters_reconcile() {
        // ops_per_frame = msgs / frames must match raw counters.
        let p = HwParams::paper_testbed();
        let mut c: Cluster<Lane> =
            Cluster::new(p, NetConfig::full(), 1, |_| LState::default());
        // Drive a few NIC→NIC messages via the public API from a pseudo
        // handler context.
        c.rt.cur_node = 0;
        for _ in 0..10 {
            c.rt.send_net(1, Exec::Nic, LMsg::Done { t0: SimTime::ZERO }, 64);
        }
        c.run_until(SimTime::from_ms(1));
        assert_eq!(c.rt.net_msgs_sent(0), 10);
        assert!(c.rt.lio_tx_frames(0) >= 1);
        let expect = c.rt.net_msgs_sent(0) as f64 / c.rt.lio_tx_frames(0) as f64;
        assert!((c.rt.ops_per_frame(0) - expect).abs() < 1e-9);
        // Aggregation put several of the burst into shared frames.
        assert!(c.rt.ops_per_frame(0) > 1.5, "fill {}", c.rt.ops_per_frame(0));
    }

    /// An egress probe: `Go` issues one egress from the pool it runs on
    /// (a PCIe send goes to the other pool), `Serve` answers an RDMA
    /// request, `Done` records the completion time at its node.
    struct Probe;

    #[derive(Clone, Copy, Debug)]
    enum Via {
        Eth,
        Pcie,
        DmaRead,
        DmaWrite,
        OneSided(Verb),
        Request,
        Send,
    }

    #[derive(Clone, Debug)]
    enum PMsg {
        Go(Via, usize),
        Serve { from: usize },
        Done,
    }

    impl Protocol for Probe {
        type Msg = PMsg;
        type State = Vec<u64>;

        fn cost(m: &PMsg, _e: Exec, _p: &HwParams) -> u64 {
            match m {
                PMsg::Go(..) => 100,
                _ => 0,
            }
        }

        fn handle(done: &mut Vec<u64>, rt: &mut Runtime<PMsg>, me: usize, m: PMsg) {
            let read = Verb::Read { bytes: 64 };
            match m {
                PMsg::Go(Via::Eth, dst) => rt.send_net(dst, Exec::Nic, PMsg::Done, 64),
                PMsg::Go(Via::Pcie, _) => {
                    let to = if rt.cur_exec == Exec::Host { Exec::Nic } else { Exec::Host };
                    rt.send_pcie(to, PMsg::Done, 64)
                }
                PMsg::Go(Via::DmaRead, _) => rt.dma_read(64, PMsg::Done),
                PMsg::Go(Via::DmaWrite, _) => rt.dma_write(64, PMsg::Done),
                PMsg::Go(Via::OneSided(verb), dst) => {
                    rt.rdma_one_sided(dst, verb, PMsg::Done, false)
                }
                PMsg::Go(Via::Request, dst) => {
                    rt.rdma_request(dst, read, PMsg::Serve { from: me }, false)
                }
                PMsg::Go(Via::Send, dst) => rt.rdma_send(dst, PMsg::Done, 80, false),
                PMsg::Serve { from } => rt.rdma_response(from, read, PMsg::Done),
                PMsg::Done => done.push(rt.now().as_ns()),
            }
        }
    }

    /// Exact completion times and frame counts of every egress path, with
    /// aggregation and async DMA on (`full`) and off (`baseline`). Each
    /// case seeds a burst of `Go`s on node 0's `exec` pool at t = 0;
    /// completions are `(node, ns)` and frames are `[LiquidIO frames,
    /// CX5 frames, PCIe frames (both directions), DMA vectors]` summed
    /// over the cluster.
    #[test]
    fn egress_paths_have_pinned_timing() {
        use Exec::{Host, Nic};
        use Via::*;
        type Done = &'static [(usize, u64)];
        type Case = (&'static str, bool, Exec, Via, usize, usize, Done, [u64; 4]);
        let cases: &[Case] = &[
            ("eth/agg", true, Nic, Eth, 1, 3,
                &[(1, 842), (1, 842), (1, 842)], [1, 0, 0, 0]),
            ("eth/solo", false, Nic, Eth, 1, 3,
                &[(1, 2022), (1, 2033), (1, 2044)], [3, 0, 0, 0]),
            ("pcie-up/agg", true, Host, Pcie, 0, 3,
                &[(0, 1089), (0, 1089), (0, 1089)], [0, 0, 1, 0]),
            ("pcie-up/solo", false, Host, Pcie, 0, 3,
                &[(0, 1012), (0, 1024), (0, 1036)], [0, 0, 3, 0]),
            ("pcie-down/agg", true, Nic, Pcie, 0, 3,
                &[(0, 839), (0, 839), (0, 839)], [0, 0, 1, 0]),
            ("pcie-down/solo", false, Nic, Pcie, 0, 3,
                &[(0, 762), (0, 774), (0, 786)], [0, 0, 3, 0]),
            ("dma-read/async", true, Nic, DmaRead, 0, 3,
                &[(0, 1835), (0, 1950), (0, 2065)], [0, 0, 0, 1]),
            ("dma-write/async", true, Nic, DmaWrite, 0, 3,
                &[(0, 1110), (0, 1225), (0, 1340)], [0, 0, 0, 1]),
            ("dma-write/full-vector", true, Nic, DmaWrite, 0, 16,
                &[(0, 1050), (0, 1165), (0, 1280), (0, 1395), (0, 1510), (0, 1625),
                  (0, 1740), (0, 1855), (0, 1970), (0, 2085), (0, 2200), (0, 2315),
                  (0, 2430), (0, 2545), (0, 2660), (0, 2669)], [0, 0, 0, 2]),
            ("dma-read/sync", false, Nic, DmaRead, 0, 3,
                &[(0, 1585), (0, 1594), (0, 1603)], [0, 0, 0, 3]),
            ("dma-write/sync", false, Nic, DmaWrite, 0, 3,
                &[(0, 860), (0, 869), (0, 878)], [0, 0, 0, 3]),
            ("read", false, Host, OneSided(Verb::Read { bytes: 64 }), 1, 2,
                &[(0, 2600), (0, 2645)], [0, 4, 0, 0]),
            ("write", false, Host, OneSided(Verb::Write { bytes: 64 }), 1, 2,
                &[(0, 2600), (0, 2645)], [0, 4, 0, 0]),
            ("atomic", false, Host, OneSided(Verb::Atomic), 1, 2,
                &[(0, 2696), (0, 2741)], [0, 4, 0, 0]),
            ("request", false, Host, Request, 1, 2,
                &[(0, 2600), (0, 2645)], [0, 4, 0, 0]),
            ("request/loopback", false, Host, Request, 0, 2,
                &[(0, 1395), (0, 1440)], [0, 0, 0, 0]),
            ("send", false, Host, Send, 1, 2,
                &[(1, 2364), (1, 2409)], [0, 2, 0, 0]),
            ("send/loopback", false, Host, Send, 0, 2,
                &[(0, 220), (0, 220)], [0, 0, 0, 0]),
        ];
        for &(name, full, exec, via, dst, burst, want_done, want_frames) in cases {
            let cfg = if full { NetConfig::full() } else { NetConfig::baseline() };
            let mut c: Cluster<Probe> =
                Cluster::new(HwParams::paper_testbed(), cfg, 1, |_| Vec::new());
            for _ in 0..burst {
                c.seed(SimTime::ZERO, 0, exec, PMsg::Go(via, dst));
            }
            c.run_until(SimTime::from_ms(1));
            let done: Vec<(usize, u64)> = c
                .states
                .iter()
                .enumerate()
                .flat_map(|(n, ts)| ts.iter().map(move |&t| (n, t)))
                .collect();
            let sum = |f: &dyn Fn(&NodeRes<PMsg>) -> u64| c.rt.nodes.iter().map(f).sum::<u64>();
            let frames = [
                sum(&|r| r.lio.tx_frames()),
                sum(&|r| r.cx5.tx_frames()),
                sum(&|r| r.pcie.tx_frames() + r.pcie.rx_frames()),
                sum(&|r| r.dma.vectors_submitted()),
            ];
            assert_eq!((done.as_slice(), frames), (want_done, want_frames), "{name}");
        }
    }
}
