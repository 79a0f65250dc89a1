//! Deterministic multi-lane cluster execution (DESIGN.md §16, §18).
//!
//! [`ParCluster`] splits a fully-built serial [`Cluster`] into **lanes**:
//! contiguous node ranges, each owning its nodes' protocol state, hardware
//! resources, and a private event queue, each running on a scoped worker
//! thread. Lanes synchronize at conservative per-lane barriers:
//!
//! * The coordinator tracks `eff_next(L)` for every lane — the earliest
//!   event lane `L` will ever process, i.e. the minimum of its queue head
//!   and any cross-lane messages held for it. Lane `A`'s pop bound for an
//!   epoch is
//!   `min( min over other active lanes B of (eff_next(B) + lookahead),
//!         eff_next(A) + 2 * lookahead )`,
//!   where the lookahead is the minimum delivery latency of any message
//!   path between two nodes ([`xenic_hw::HwParams::min_remote_delivery_ns`]):
//!   every cross-node schedule in the runtime pays at least port
//!   serialization of a minimum frame plus one `wire_oneway_ns` hop, and
//!   jitter is non-negative. All lanes share one fabric, so one number
//!   serves every lane pair.
//! * A lane is only woken (**amortized barriers**) when it has work
//!   under its bound: lanes whose queues are empty — or whose next event
//!   lies at or beyond the bound — skip the stop-merge-restart cycle
//!   entirely, and idle lanes place no constraint on their neighbors
//!   (`eff_next = ∞`). The lane holding the global minimum always has a
//!   bound strictly above it, so every epoch makes progress.
//! * Each woken worker pops and dispatches its own events strictly below
//!   its bound. Intra-lane cascades under the bound run freely; pushes
//!   owned by foreign lanes divert to a per-lane outbox (see
//!   `Runtime::push_ev`). Outbox and inject buffers recycle through a
//!   coordinator-side freelist instead of allocating per epoch.
//! * At the barrier the coordinator routes every outbox entry to its
//!   owner lane, which merges it by the event's intrinsic
//!   `(time, owner-node, per-node counter)` stamp.
//!
//! Soundness of the per-lane bound: any future arrival into lane `A`
//! traces back to some lane processing an event it has not yet popped.
//! If that origin is another lane `B`, the message is generated at
//! `t ≥ eff_next(B)` and arrives at `t + lookahead` or later; chains
//! through intermediate lanes can never undercut this because every hop
//! adds at least the same lookahead again. If the origin
//! is `A` *itself* — `A` pops an event inside this very epoch, its
//! message wakes a neighbor, and the reply reflects back — the chain
//! makes at least two cross-lane hops, so it lands no earlier than
//! `eff_next(A)` plus the cheapest round trip; that is the second term
//! of the bound (without it, `A` could pop past the reflection of its
//! own send and miss a delivery). Events already in flight are all held
//! at the coordinator and accounted in `eff_next`. Hence nothing can
//! arrive in `A` below its bound.
//!
//! Determinism does not depend on barrier placement: the stamps are
//! assigned at *push* time from per-node counters, randomness comes from
//! per-node streams, and each node's handler sequence — hence its
//! pushes, stamps, and RNG draws — is identical whether the cluster runs
//! serially or on any lane count under any [`LaneAssignment`]. The
//! global schedule is a pure function of `(seed, config)`, and
//! whole-cluster digests are byte-identical to the serial scheduler's.
//!
//! Observers ride along. History recording is order-free
//! (`xenic_check::History` is keyed maps and sets). Each lane's runtime
//! has its own tracer, gauge sampling is one self-re-arming event per
//! node, owned by that node, and every trace record carries the
//! `(time, stamp)` of the event whose dispatch produced it — so
//! [`ParCluster::into_cluster`] merges the lane buffers into exactly the
//! stream the serial scheduler writes, whatever the lane count.

use std::sync::mpsc;
use std::sync::Arc;

use xenic_sim::SimTime;

use crate::runtime::{dispatch_event, Cluster, Event, Protocol, Runtime};

/// How a cluster's nodes map onto scheduler lanes.
///
/// Lanes own *contiguous* node ranges (lane-local state is indexed by
/// `node - base`), so an assignment is a monotone `node → lane` map; the
/// one in use is the balanced block split.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneAssignment {
    /// node → lane, monotone nondecreasing, values `0..lanes`.
    node_lane: Vec<u16>,
    /// Number of (non-empty) lanes.
    lanes: usize,
}

impl LaneAssignment {
    /// Balanced contiguous block split: node `i` belongs to lane
    /// `i * lanes / nodes`. `lanes` is clamped to `[1, nodes]`.
    pub fn contiguous(nodes: usize, lanes: usize) -> Self {
        let lanes = lanes.clamp(1, nodes.max(1));
        LaneAssignment {
            node_lane: (0..nodes).map(|i| (i * lanes / nodes) as u16).collect(),
            lanes,
        }
    }

    /// Number of nodes covered.
    pub fn nodes(&self) -> usize {
        self.node_lane.len()
    }

    /// Number of (non-empty) lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lane owning `node`.
    pub fn lane_of(&self, node: usize) -> usize {
        self.node_lane[node] as usize
    }

    /// The full monotone node → lane map.
    pub fn as_slice(&self) -> &[u16] {
        &self.node_lane
    }
}

/// Deterministic counters from the lane scheduler. For a fixed
/// `(seed, config, lane count, assignment)` these are identical on any
/// host: whether a push diverts to an outbox depends only on the
/// node → lane map, and the wake/skip schedule is a pure function of the
/// per-epoch queue states.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Events that crossed lanes through the outboxes.
    pub cross_lane_events: u64,
    /// Lane-worker wakeups — stop-merge-restart cycles actually paid
    /// (the amortized-barrier skip rule elides the rest).
    pub barriers: u64,
    /// Coordinator epochs.
    pub epochs: u64,
}

/// One lane: a contiguous node range with its own runtime and states.
struct LaneSlot<P: Protocol> {
    /// First node this lane owns; it owns `base..base + states.len()`.
    base: usize,
    states: Vec<P::State>,
    rt: Runtime<P::Msg>,
    /// Events this lane has popped since the split.
    processed: u64,
}

/// A buffered cross-lane event: `(time, stamp, event)`.
type Pending<M> = (SimTime, u64, Event<M>);

/// The coordinator→worker message for one epoch.
struct Go<M> {
    /// Inclusive time bound: pop events at or before this.
    upto_ns: u64,
    /// Cross-lane events routed to this lane since it last ran.
    injects: Vec<Pending<M>>,
    /// Recycled buffer the worker installs as its outbox (MsgBox-pool
    /// discipline: no per-epoch allocation on the barrier path).
    outbox_buf: Vec<Pending<M>>,
}

/// The worker→coordinator reply after one epoch.
struct Done<M> {
    lane: usize,
    /// Cross-lane pushes made during the epoch.
    outbox: Vec<Pending<M>>,
    /// The drained inject buffer, returned to the freelist.
    spare: Vec<Pending<M>>,
    /// Earliest event now pending in the lane's own queue.
    next: Option<SimTime>,
    /// Events popped this epoch.
    popped: u64,
}

/// A cluster split into parallel lanes. Built from (and reassembled into)
/// a serial [`Cluster`]; see the module docs for the execution model.
pub struct ParCluster<P: Protocol> {
    lanes: Vec<LaneSlot<P>>,
    /// node → owning lane.
    node_lane: Arc<[u16]>,
    /// Conservative lookahead, ns: no message from one node lands on
    /// another sooner than this after it was sent. All node pairs share
    /// one fabric, so it is the substrate's cross-node delivery floor
    /// ([`xenic_hw::HwParams::min_remote_delivery_ns`]), at least 1 so barriers
    /// always advance past the global minimum.
    lookahead_ns: u64,
    /// The master runtime, emptied of nodes and queue, kept for
    /// reassembly in [`ParCluster::into_cluster`].
    shell: Runtime<P::Msg>,
    /// Deterministic scheduler counters, accumulated across
    /// [`ParCluster::run_until`] calls.
    stats: LaneStats,
}

impl<P: Protocol> ParCluster<P>
where
    P::Msg: Send,
    P::State: Send,
{
    /// Splits `cluster` according to `assignment` (see
    /// [`LaneAssignment`]): every lane owns the contiguous node range
    /// the assignment maps to it, and the lookahead is the delivery
    /// floor of the cluster's substrate parameters.
    ///
    /// # Panics
    /// If the assignment does not cover exactly this cluster's nodes.
    pub fn from_cluster_assigned(cluster: Cluster<P>, assignment: &LaneAssignment) -> Self {
        let n = cluster.states.len();
        assert_eq!(assignment.nodes(), n, "assignment must cover every node");
        let lanes = assignment.lanes();
        let node_lane: Arc<[u16]> = assignment.as_slice().to_vec().into();
        let lookahead_ns = cluster.rt.params.min_remote_delivery_ns().max(1);

        let Cluster { states, rt } = cluster;
        let mut shell = rt;
        let pending = shell.queue.drain_sorted();
        let placeholders: Vec<_> = (0..n)
            .map(|_| Runtime::<P::Msg>::mk_node(&shell.params, 0))
            .collect();
        let all_nodes = std::mem::replace(&mut shell.nodes, placeholders);

        let mut slots: Vec<LaneSlot<P>> = Vec::with_capacity(lanes);
        let mut states_iter = states.into_iter();
        let mut base = 0;
        for l in 0..lanes {
            let count = node_lane.iter().filter(|&&x| x as usize == l).count();
            slots.push(LaneSlot {
                base,
                states: states_iter.by_ref().take(count).collect(),
                rt: shell.lane_shell(node_lane.clone(), l as u16),
                processed: 0,
            });
            base += count;
        }
        for (i, res) in all_nodes.into_iter().enumerate() {
            slots[node_lane[i] as usize].rt.nodes[i] = res;
        }
        for (t, seq, ev) in pending {
            slots[node_lane[ev.owner()] as usize].rt.queue.push_with_seq(t, seq, ev);
        }
        ParCluster {
            lanes: slots,
            node_lane,
            lookahead_ns,
            shell,
            stats: LaneStats::default(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_lane.len()
    }

    /// Deterministic scheduler counters accumulated so far.
    pub fn stats(&self) -> LaneStats {
        self.stats
    }

    /// Global simulated time: the furthest any lane has advanced (equal
    /// to the serial scheduler's clock after the same horizon).
    pub fn now(&self) -> SimTime {
        self.lanes
            .iter()
            .map(|l| l.rt.queue.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// The runtime owning `node` — use the per-node measurement accessors
    /// on it exactly as on a serial cluster's runtime. Its tracer holds
    /// that lane's records only; the whole stream is on the cluster
    /// [`ParCluster::into_cluster`] returns.
    pub fn rt_for(&self, node: usize) -> &Runtime<P::Msg> {
        &self.lanes[self.node_lane[node] as usize].rt
    }

    /// Shared read access to a node's protocol state.
    pub fn state(&self, node: usize) -> &P::State {
        let lane = &self.lanes[self.node_lane[node] as usize];
        &lane.states[node - lane.base]
    }

    /// Exclusive access to a node's protocol state.
    pub fn state_mut(&mut self, node: usize) -> &mut P::State {
        let lane = &mut self.lanes[self.node_lane[node] as usize];
        &mut lane.states[node - lane.base]
    }

    /// Runs all lanes until every queue drains or the clock passes
    /// `horizon`. Returns the number of events processed.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let lanes_n = self.lanes.len();
        let la = self.lookahead_ns;
        // With one lane nothing can reflect back.
        let round_trip = if lanes_n > 1 { la.saturating_mul(2) } else { u64::MAX };
        let node_lane = self.node_lane.clone();
        let mut next: Vec<Option<SimTime>> =
            self.lanes.iter().map(|l| l.rt.queue.peek_time()).collect();
        // Cross-lane events awaiting delivery, per destination lane.
        let mut pending: Vec<Vec<Pending<P::Msg>>> = (0..lanes_n).map(|_| Vec::new()).collect();
        // Recycled inject/outbox buffers (PR 5 MsgBox-pool discipline).
        let mut freelist: Vec<Vec<Pending<P::Msg>>> = Vec::new();
        let mut total = 0u64;
        let mut cross_lane_events = 0u64;
        let mut barriers = 0u64;
        let mut epochs = 0u64;

        std::thread::scope(|s| {
            let (done_tx, done_rx) = mpsc::channel::<Done<P::Msg>>();
            let mut go_txs = Vec::with_capacity(lanes_n);
            for (li, lane) in self.lanes.iter_mut().enumerate() {
                let (go_tx, go_rx) = mpsc::channel::<Go<P::Msg>>();
                go_txs.push(go_tx);
                let done_tx = done_tx.clone();
                s.spawn(move || {
                    while let Ok(mut go) = go_rx.recv() {
                        debug_assert!(lane.rt.outbox.is_empty(), "outbox drained at Done");
                        lane.rt.outbox = go.outbox_buf;
                        for (t, seq, ev) in go.injects.drain(..) {
                            lane.rt.queue.push_with_seq(t, seq, ev);
                        }
                        let upto = SimTime::from_ns(go.upto_ns);
                        let mut popped = 0u64;
                        while let Some((_, ev)) = lane.rt.queue.pop_at_or_before(upto) {
                            popped += 1;
                            dispatch_event::<P>(&mut lane.states, lane.base, &mut lane.rt, ev);
                        }
                        lane.processed += popped;
                        let done = Done {
                            lane: li,
                            outbox: std::mem::take(&mut lane.rt.outbox),
                            spare: go.injects,
                            next: lane.rt.queue.peek_time(),
                            popped,
                        };
                        if done_tx.send(done).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(done_tx);

            loop {
                // eff_next(L): the earliest event lane L will ever
                // process — queue head or held cross-lane delivery.
                let eff: Vec<Option<u64>> = (0..lanes_n)
                    .map(|l| {
                        let q = next[l].map(|t| t.0);
                        let p = pending[l].iter().map(|e| e.0 .0).min();
                        match (q, p) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, None) => a,
                            (None, b) => b,
                        }
                    })
                    .collect();
                let Some(t_min) = eff.iter().flatten().copied().min() else { break };
                if t_min > horizon.0 {
                    break;
                }
                epochs += 1;
                // Per-lane bound from the other *active* lanes' horizons;
                // idle lanes (eff_next = ∞) constrain nobody. Capped so no
                // lane runs past the horizon. The module docs state the
                // bound exclusively; here it is its last included instant,
                // so that `SimTime::MAX` is a horizon like any other.
                let mut woken = 0usize;
                for l in 0..lanes_n {
                    let others = (0..lanes_n).filter(|&m| m != l).filter_map(|m| eff[m]).min();
                    let mut upto = others.map_or(u64::MAX, |e| e.saturating_add(la - 1));
                    // Reflections of this lane's *own* events: a message
                    // sent while popping can bounce off a neighbor and
                    // come back after two hops, so the bound may not
                    // outrun eff_next(l) by more than a round trip.
                    if let Some(e) = eff[l] {
                        upto = upto.min(e.saturating_add(round_trip - 1));
                    }
                    let upto = upto.min(horizon.0);
                    // Amortized barrier: skip the wake entirely when the
                    // lane has nothing under its bound.
                    if eff[l].is_none_or(|e| e > upto) {
                        continue;
                    }
                    let injects =
                        std::mem::replace(&mut pending[l], freelist.pop().unwrap_or_default());
                    let go = Go {
                        upto_ns: upto,
                        injects,
                        outbox_buf: freelist.pop().unwrap_or_default(),
                    };
                    go_txs[l].send(go).expect("lane worker alive");
                    woken += 1;
                }
                barriers += woken as u64;
                debug_assert!(woken > 0, "the t_min lane always has work under its bound");
                for _ in 0..woken {
                    let mut done = done_rx.recv().expect("lane worker alive");
                    total += done.popped;
                    next[done.lane] = done.next;
                    cross_lane_events += done.outbox.len() as u64;
                    for entry in done.outbox.drain(..) {
                        pending[node_lane[entry.2.owner()] as usize].push(entry);
                    }
                    freelist.push(done.outbox);
                    freelist.push(done.spare);
                }
            }
            drop(go_txs);
        });

        // Undelivered cross-lane events beyond the horizon survive for the
        // next `run_until` call (or reassembly).
        for (l, v) in pending.into_iter().enumerate() {
            for (t, seq, ev) in v {
                self.lanes[l].rt.queue.push_with_seq(t, seq, ev);
            }
        }
        self.stats.cross_lane_events += cross_lane_events;
        self.stats.barriers += barriers;
        self.stats.epochs += epochs;
        total
    }

    /// Reassembles the serial [`Cluster`]: node resources, protocol
    /// states, RNG streams, queue remainders and trace records return to
    /// the master runtime, with the clock and processed-event counter
    /// advanced as a serial run over the same horizon would have left
    /// them — post-run inspection is indistinguishable.
    pub fn into_cluster(self) -> Cluster<P> {
        let mut rt = self.shell;
        let max_now = self
            .lanes
            .iter()
            .map(|l| l.rt.queue.now())
            .max()
            .unwrap_or(SimTime::ZERO);
        let mut states: Vec<P::State> = Vec::with_capacity(self.node_lane.len());
        let mut lane_pops = 0u64;
        let mut lane_tracers = Vec::with_capacity(self.lanes.len());
        for lane in self.lanes {
            lane_pops += lane.processed;
            let mut lane_rt = lane.rt;
            lane_tracers.push(std::mem::take(&mut lane_rt.tracer));
            for (j, st) in lane.states.into_iter().enumerate() {
                let node = lane.base + j;
                states.push(st);
                let placeholder = Runtime::<P::Msg>::mk_node(&lane_rt.params, 0);
                rt.nodes[node] = std::mem::replace(&mut lane_rt.nodes[node], placeholder);
                rt.crashed[node] = lane_rt.crashed[node];
                rt.push_ctr[node] = lane_rt.push_ctr[node];
                rt.node_rngs[node] = lane_rt.node_rngs[node].clone();
                rt.fault_rngs[node] = lane_rt.fault_rngs[node].clone();
            }
            for (t, seq, ev) in lane_rt.queue.drain_sorted() {
                rt.queue.push_with_seq(t, seq, ev);
            }
        }
        rt.queue.set_now(max_now);
        rt.queue.add_processed(lane_pops);
        rt.tracer.absorb(lane_tracers);
        Cluster { states, rt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xenic_hw::HwParams;

    #[test]
    fn contiguous_matches_block_formula() {
        for (nodes, lanes) in [(6usize, 2usize), (6, 4), (16, 4), (64, 8), (5, 8)] {
            let a = LaneAssignment::contiguous(nodes, lanes);
            let clamped = lanes.clamp(1, nodes);
            assert_eq!(a.lanes(), clamped);
            for i in 0..nodes {
                assert_eq!(a.lane_of(i), i * clamped / nodes);
            }
        }
    }

    /// Differential test: the lookahead must equal a brute-force
    /// minimum over every cross-node message path in the substrate cost
    /// model. The runtime's cross-node schedules are all
    /// `port-serialization + wire_oneway_ns (+ jitter ≥ 0)`, and the
    /// frames it transmits are Ethernet frames (≥ frame_overhead_bytes)
    /// or RDMA verb halves (≥ rdma_verb_wire_bytes / 2).
    #[test]
    fn lookahead_matches_brute_force_min_path() {
        for params in [
            HwParams::paper_testbed(),
            HwParams::paper_testbed_half_bandwidth(),
            HwParams::off_path_bluefield(),
            HwParams::cxl_shared(),
        ] {
            let candidate_bytes = [
                u64::from(params.frame_overhead_bytes),
                u64::from(params.frame_overhead_bytes) + 64, // any payload only adds
                u64::from(params.rdma_verb_wire_bytes) / 2,
                u64::from(params.rdma_verb_wire_bytes),
            ];
            let brute = candidate_bytes
                .iter()
                .map(|&b| params.wire_oneway_ns + params.net_ser_ns(b))
                .min()
                .unwrap();
            assert_eq!(
                params.min_remote_delivery_ns(),
                brute,
                "substrate {}",
                params.substrate.token()
            );
            // The floor is strictly wider than the PR 8 global lookahead
            // (bare wire_oneway_ns): serialization is never free.
            assert!(brute > params.wire_oneway_ns);
        }
    }
}
