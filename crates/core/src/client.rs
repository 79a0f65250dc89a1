//! The closed-loop client all five systems share (paper §5: each server
//! runs a fixed number of application threads, one transaction each).
//! It decides what an attempt is and what counts as a commit, an abort
//! and a latency sample; how an attempt travels stays with each engine
//! (DESIGN.md §8, note 11).

use std::fmt;
use std::sync::Arc;

use xenic_net::{Exec, Runtime};
use xenic_sim::SimTime;

use crate::api::{TxnSpec, Workload};
use crate::stats::NodeStats;

/// Abort retry backoff range in ns (uniform draw).
pub const RETRY_BACKOFF_NS: (u64, u64) = (2_000, 12_000);
/// Delay between a slot's commit and its next transaction's start.
pub const TURNOVER_NS: u64 = 50;

/// The messages a client schedules on its own host.
pub trait SlotMsg: Clone + fmt::Debug {
    /// Starts a new transaction on `slot`.
    fn start(slot: u32) -> Self;
    /// Retries `slot`'s aborted transaction.
    fn retry(slot: u32) -> Self;
}

/// One application thread: its transaction, kept across retries, and
/// when that transaction's first attempt started. `spare` is the last
/// committed transaction's `Arc`, which the next start overwrites in
/// place once nothing else holds it.
#[derive(Clone, Default)]
struct Slot {
    spec: Option<Arc<TxnSpec>>,
    spare: Option<Arc<TxnSpec>>,
    first_started: SimTime,
}

/// A node's workload, application slots, attempt counter and drain gate.
pub struct Client {
    workload: Box<dyn Workload>,
    slots: Vec<Slot>,
    next_seq: u64,
    draining: bool,
}

impl Client {
    /// A client drawing from `workload`, with `slots` idle slots.
    pub fn new(workload: Box<dyn Workload>, slots: usize) -> Self {
        Client {
            workload,
            slots: vec![Slot::default(); slots],
            next_seq: 1,
            draining: false,
        }
    }

    /// Drops every later start and retry, so in-flight work can finish.
    pub fn drain(&mut self) {
        self.draining = true;
    }

    /// Attempts begun so far (each retry counts).
    pub fn attempts(&self) -> u64 {
        self.next_seq - 1
    }

    /// The transaction `slot` is attempting, if any.
    pub fn spec(&self, slot: u32) -> Option<&Arc<TxnSpec>> {
        self.slots[slot as usize].spec.as_ref()
    }

    /// Begins an attempt on node `me`'s `slot` and returns its sequence
    /// number and spec: a retry re-uses the slot's spec (a refcount
    /// bump), a start draws the next one from the workload into the
    /// slot's spare `Arc` (allocating only while an earlier attempt's
    /// message still shares it). `None` when draining, or when a retry
    /// finds the slot idle.
    pub fn begin<M: SlotMsg>(
        &mut self,
        rt: &mut Runtime<M>,
        me: usize,
        slot: u32,
        retry: bool,
    ) -> Option<(u64, Arc<TxnSpec>)> {
        if self.draining {
            return None;
        }
        let s = &mut self.slots[slot as usize];
        if !retry {
            let txn = self.workload.next_txn(me, rt.txn_rng());
            let mut spec = s.spare.take();
            match spec.as_mut().and_then(Arc::get_mut) {
                Some(spare) => *spare = txn,
                None => spec = Some(Arc::new(txn)),
            }
            s.spec = spec;
            s.first_started = rt.now();
        }
        let spec = Arc::clone(s.spec.as_ref()?);
        self.next_seq += 1;
        Some((self.next_seq - 1, spec))
    }

    /// Counts `slot`'s transaction committed at `now`, its latency
    /// measured from the first attempt.
    pub fn count_commit(&self, stats: &mut NodeStats, slot: u32, now: SimTime) {
        let s = &self.slots[slot as usize];
        let spec = s.spec.as_ref().expect("a committing slot holds its spec");
        stats.record_commit(spec.metric, s.first_started, now);
    }

    /// Turns a committed slot over: its next start is [`TURNOVER_NS`] later
    /// and may reuse the finished spec's `Arc`.
    pub fn turn_over<M: SlotMsg>(&mut self, rt: &mut Runtime<M>, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.spare = s.spec.take();
        rt.send_local(Exec::Host, M::start(slot), TURNOVER_NS);
    }

    /// Counts an aborted attempt and schedules its retry after a draw
    /// from [`RETRY_BACKOFF_NS`].
    pub fn abort<M: SlotMsg>(&self, stats: &mut NodeStats, rt: &mut Runtime<M>, slot: u32) {
        stats.record_abort();
        let (lo, hi) = RETRY_BACKOFF_NS;
        let backoff = rt.txn_rng().range_inclusive(lo, hi);
        rt.send_local(Exec::Host, M::retry(slot), backoff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xenic_hw::HwParams;
    use xenic_net::{Cluster, NetConfig, Protocol};
    use xenic_sim::DetRng;

    /// Specs told apart by a drawn field.
    struct Draws;
    impl Workload for Draws {
        fn next_txn(&mut self, _node: usize, rng: &mut DetRng) -> TxnSpec {
            TxnSpec {
                exec_host_ns: rng.below(1_000),
                ..Default::default()
            }
        }
        fn preload(&self, _shard: u32) -> Vec<(u64, xenic_store::Value)> {
            Vec::new()
        }
    }

    #[derive(Clone, Debug)]
    enum Msg {
        Start(u32),
        Retry(u32),
    }

    impl SlotMsg for Msg {
        fn start(slot: u32) -> Self {
            Msg::Start(slot)
        }
        fn retry(slot: u32) -> Self {
            Msg::Retry(slot)
        }
    }

    /// Each attempt of slot 0 aborts while `aborts` lasts and commits
    /// after; every begun attempt's spec address is logged, and with
    /// `keep` its time and spec too (which keeps the spec alive). Without
    /// `keep`, each turnover parks a spec-sized block in `ballast`, so a
    /// spec freed at turnover would be taken and its slot's next spec
    /// would show a new address.
    struct Probe;
    struct ProbeNode {
        client: Client,
        stats: NodeStats,
        aborts: usize,
        keep: bool,
        begun: Vec<(SimTime, u64, Arc<TxnSpec>)>,
        spec_addrs: Vec<usize>,
        ballast: Vec<Arc<TxnSpec>>,
    }

    impl Protocol for Probe {
        type Msg = Msg;
        type State = ProbeNode;
        fn cost(_: &Msg, _: Exec, _: &HwParams) -> u64 {
            100
        }
        fn handle(st: &mut ProbeNode, rt: &mut Runtime<Msg>, _node: usize, msg: Msg) {
            let (slot, retry) = match msg {
                Msg::Start(slot) => (slot, false),
                Msg::Retry(slot) => (slot, true),
            };
            let Some((seq, spec)) = st.client.begin(rt, 0, slot, retry) else {
                return;
            };
            st.spec_addrs.push(Arc::as_ptr(&spec) as usize);
            if st.keep {
                st.begun.push((rt.now(), seq, spec));
            } else {
                drop(spec);
            }
            if st.aborts > 0 {
                st.aborts -= 1;
                st.client.abort(&mut st.stats, rt, slot);
            } else {
                st.client.count_commit(&mut st.stats, slot, rt.now());
                st.client.turn_over(rt, slot);
                if !st.keep {
                    st.ballast.push(Arc::default());
                }
            }
        }
    }

    fn probe(aborts: usize) -> Cluster<Probe> {
        let mut cluster: Cluster<Probe> =
            Cluster::new(HwParams::paper_testbed(), NetConfig::full(), 3, |_| {
                ProbeNode {
                    client: Client::new(Box::new(Draws), 2),
                    stats: NodeStats::default(),
                    aborts,
                    keep: true,
                    begun: Vec::new(),
                    spec_addrs: Vec::new(),
                    ballast: Vec::new(),
                }
            });
        cluster.states[0].stats.start_measuring(SimTime::ZERO);
        cluster.seed(SimTime::ZERO, 0, Exec::Host, Msg::Start(0));
        cluster
    }

    #[test]
    fn a_retry_reuses_the_spec_and_latency_runs_from_the_first_attempt() {
        let mut cluster = probe(1);
        // Abort, retry and commit; every later start commits at once.
        cluster.run_until(SimTime::from_us(20));
        let st = &cluster.states[0];
        let [(t0, s0, first), (t1, s1, retried), ..] = &st.begun[..] else {
            panic!("expected an attempt and its retry, got {}", st.begun.len());
        };
        assert!(
            Arc::ptr_eq(first, retried),
            "a retry must re-use the slot's spec"
        );
        assert_eq!(
            (*s0, *s1),
            (1, 2),
            "every attempt takes a new sequence number"
        );
        assert_eq!(st.stats.aborted.get(), 1);
        // The retry committed: one sample per commit, the retried one
        // measured from its first attempt (the later ones commit at once,
        // at zero latency).
        assert_eq!(st.stats.latency.count(), st.stats.committed.events());
        assert_eq!(st.stats.latency.max(), t1.since(*t0));
        assert!(st.begun.len() >= 3, "a commit turns the slot over");
        assert_eq!(
            st.begun[2].0,
            *t1 + 100 + TURNOVER_NS,
            "turnover after the handler's work"
        );
        assert!(
            !Arc::ptr_eq(first, &st.begun[2].2),
            "a new start draws a new spec"
        );
    }

    #[test]
    fn a_start_reuses_the_committed_specs_arc_unless_a_clone_is_alive() {
        // Nothing outlives an attempt: every start overwrites the slot's
        // one spec in place.
        let mut cluster = probe(0);
        cluster.states[0].keep = false;
        cluster.run_until(SimTime::from_us(2));
        let addrs = &cluster.states[0].spec_addrs;
        assert!(addrs.len() >= 3, "a commit turns the slot over");
        assert!(
            addrs.iter().all(|a| *a == addrs[0]),
            "an unshared spare must be reused: {addrs:x?}"
        );
        // Every attempt's spec is kept alive: each start allocates anew.
        let mut cluster = probe(0);
        cluster.run_until(SimTime::from_us(2));
        let st = &cluster.states[0];
        let mut addrs = st.spec_addrs.clone();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), st.begun.len(), "a shared spare must not be overwritten");
        let draws: Vec<u64> = st.begun.iter().map(|(_, _, s)| s.exec_host_ns).collect();
        assert!(draws.iter().any(|d| *d != draws[0]), "each start draws a new spec");
    }

    #[test]
    fn every_backoff_lies_in_the_retry_range() {
        let mut cluster = probe(200);
        cluster.run_until(SimTime::from_ms(10));
        let st = &cluster.states[0];
        assert!(st.begun.len() > 200, "every abort retries");
        let (lo, hi) = RETRY_BACKOFF_NS;
        let gaps: Vec<u64> = st.begun[..=200]
            .windows(2)
            .map(|w| w[1].0.since(w[0].0) - 100)
            .collect();
        assert!(
            gaps.iter().all(|g| (lo..=hi).contains(g)),
            "backoff outside {lo}..={hi}: {gaps:?}"
        );
        assert!(
            gaps.iter().any(|g| *g != gaps[0]),
            "backoffs are drawn, not fixed"
        );
        assert_eq!(st.stats.aborted.get(), 200);
    }

    #[test]
    fn a_drained_client_drops_starts_and_retries() {
        let mut cluster = probe(1);
        // The first attempt aborts at t = 0; its retry is pending.
        cluster.run_until(SimTime::from_ns(1_000));
        assert_eq!(cluster.states[0].begun.len(), 1);
        cluster.states[0].client.drain();
        cluster.seed(SimTime::from_ns(1_000), 0, Exec::Host, Msg::Start(1));
        cluster.run_until(SimTime::from_ms(1));
        let st = &cluster.states[0];
        assert_eq!(
            st.begun.len(),
            1,
            "neither the retry nor the start may begin"
        );
        assert_eq!(st.client.attempts(), 1);
        assert!(
            st.client.spec(0).is_some(),
            "the aborted transaction is kept, not committed"
        );
        assert!(st.client.spec(1).is_none());
    }
}
