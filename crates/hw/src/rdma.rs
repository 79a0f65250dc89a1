//! The Mellanox CX5 RDMA NIC model (§2.1, §3.2, §3.4).
//!
//! One-sided verbs (READ / WRITE / ATOMIC) are executed entirely by NIC
//! hardware: the requester NIC emits a RoCE packet, the responder NIC
//! DMAs host memory and replies, no CPU on either side. Two-sided
//! SEND/RECV delivers a message into a receive buffer that the remote host
//! CPU must poll and handle.
//!
//! Measured constants reproduced here:
//!
//! * small-op RTTs ≈ 2.0 µs (READ/WRITE), 2.1 µs (ATOMIC), 3.2 µs
//!   (SEND/RECV RPC) — Fig 2b;
//! * per-NIC verb rate 13.5–15 Mops/s for 16–256 B writes even with full
//!   doorbell batching (§3.4) — modeled as 69 ns/verb pipeline occupancy;
//! * doorbell batching reduces the *host CPU* post cost per verb
//!   (70 ns → 20 ns) but does not raise the NIC's verb ceiling, matching
//!   the paper's observation that "application-level doorbell batching is
//!   insufficient to achieve high throughput with small RDMA operations".

use crate::params::HwParams;
use xenic_sim::SimTime;

/// An RDMA operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// One-sided read of `bytes` from remote host memory.
    Read {
        /// Bytes fetched.
        bytes: u32,
    },
    /// One-sided write of `bytes` to remote host memory.
    Write {
        /// Bytes written.
        bytes: u32,
    },
    /// One-sided compare-and-swap or fetch-and-add (8 B).
    Atomic,
    /// Two-sided send of `bytes` into a remote receive buffer.
    Send {
        /// Message payload bytes.
        bytes: u32,
    },
}

impl Verb {
    /// Payload bytes this verb carries toward the responder.
    pub fn request_payload(&self) -> u32 {
        match *self {
            Verb::Read { .. } => 0,
            Verb::Write { bytes } => bytes,
            Verb::Atomic => 16,
            Verb::Send { bytes } => bytes,
        }
    }

    /// Payload bytes returned to the requester.
    pub fn response_payload(&self) -> u32 {
        match *self {
            Verb::Read { bytes } => bytes,
            Verb::Write { .. } => 0,
            Verb::Atomic => 8,
            Verb::Send { .. } => 0,
        }
    }
}

/// Per-node CX5 model: two verb-processing pipelines with busy-until
/// tracking — the TX unit serializes verbs this node *initiates*, the RX
/// unit serializes requests it *serves* as responder. Splitting the
/// directions matches the hardware (separate processing units) and is
/// essential in the simulator: responder reservations are made at future
/// arrival times and must not head-of-line-block local issues.
#[derive(Clone, Debug)]
pub struct RdmaNic {
    tx_verb_ns: u64,
    rx_verb_ns: u64,
    tx_free: SimTime,
    rx_free: SimTime,
    verbs: u64,
    post_ns: u64,
    post_batched_ns: u64,
    fixed_remote_ns: u64,
}

impl RdmaNic {
    /// Builds a CX5 model from hardware parameters.
    pub fn new(p: &HwParams) -> Self {
        // The fixed remote-side processing (parse + host-DRAM DMA + build
        // response) is the RTT residual after wire time and two pipeline
        // passes; derived once here so composed RTTs land on the Fig 2b
        // constants.
        let composed = 2 * p.wire_oneway_ns + p.rdma_verb_ns + p.rdma_verb_rx_ns;
        let fixed_remote_ns = p.rdma_read_rtt_ns.saturating_sub(composed);
        RdmaNic {
            tx_verb_ns: p.rdma_verb_ns,
            rx_verb_ns: p.rdma_verb_rx_ns,
            tx_free: SimTime::ZERO,
            rx_free: SimTime::ZERO,
            verbs: 0,
            post_ns: p.rdma_post_ns,
            post_batched_ns: p.rdma_post_batched_ns,
            fixed_remote_ns,
        }
    }

    /// Host CPU nanoseconds to post one verb.
    pub fn post_cost_ns(&self, doorbell_batched: bool) -> u64 {
        if doorbell_batched {
            self.post_batched_ns
        } else {
            self.post_ns
        }
    }

    /// Reserves a TX (initiator) pipeline slot starting no earlier than
    /// `now`; returns the time the NIC has emitted the verb.
    pub fn reserve_tx(&mut self, now: SimTime) -> SimTime {
        let start = self.tx_free.max(now);
        let done = start + self.tx_verb_ns;
        self.tx_free = done;
        self.verbs += 1;
        done
    }

    /// Reserves an RX (responder) pipeline slot starting no earlier than
    /// the request's arrival; returns the time the NIC has processed it.
    pub fn reserve_rx(&mut self, arrival: SimTime) -> SimTime {
        let start = self.rx_free.max(arrival);
        let done = start + self.rx_verb_ns;
        self.rx_free = done;
        self.verbs += 1;
        done
    }

    /// Fixed responder-side processing (address translation + host DRAM
    /// DMA + response build) for a one-sided verb, beyond the pipeline
    /// occupancy. ATOMICs serialize an extra read-modify-write.
    pub fn responder_fixed_ns(&self, verb: Verb) -> u64 {
        match verb {
            Verb::Atomic => self.fixed_remote_ns + 100,
            _ => self.fixed_remote_ns,
        }
    }

    /// Verbs processed so far.
    pub fn verbs(&self) -> u64 {
        self.verbs
    }

    /// Sustained responder verb rate in Mops/s (the §3.4 measurement).
    pub fn max_verb_rate_mops(&self) -> f64 {
        1_000.0 / self.rx_verb_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nic() -> RdmaNic {
        RdmaNic::new(&HwParams::paper_testbed())
    }

    #[test]
    fn verb_payloads() {
        assert_eq!(Verb::Read { bytes: 256 }.request_payload(), 0);
        assert_eq!(Verb::Read { bytes: 256 }.response_payload(), 256);
        assert_eq!(Verb::Write { bytes: 100 }.request_payload(), 100);
        assert_eq!(Verb::Write { bytes: 100 }.response_payload(), 0);
        assert_eq!(Verb::Atomic.request_payload(), 16);
        assert_eq!(Verb::Atomic.response_payload(), 8);
        assert_eq!(Verb::Send { bytes: 80 }.request_payload(), 80);
    }

    #[test]
    fn tx_pipeline_serializes_verbs() {
        let mut n = nic();
        let p = HwParams::paper_testbed();
        let a = n.reserve_tx(SimTime::ZERO);
        let b = n.reserve_tx(SimTime::ZERO);
        assert_eq!(a.as_ns(), p.rdma_verb_ns);
        assert_eq!(b.as_ns(), 2 * p.rdma_verb_ns);
        assert_eq!(n.verbs(), 2);
    }

    #[test]
    fn tx_and_rx_pipelines_are_independent() {
        // A responder reservation in the (relative) future must not delay
        // local verb issues — the head-of-line hazard the split fixes.
        let mut n = nic();
        let p = HwParams::paper_testbed();
        let served = n.reserve_rx(SimTime::from_ns(1_300));
        assert_eq!(served.as_ns(), 1_300 + p.rdma_verb_rx_ns);
        let issued = n.reserve_tx(SimTime::from_ns(10));
        assert_eq!(
            issued.as_ns(),
            10 + p.rdma_verb_ns,
            "TX must not queue behind future RX"
        );
    }

    #[test]
    fn responder_verb_rate_in_calibrated_band() {
        let n = nic();
        let rate = n.max_verb_rate_mops();
        assert!((15.0..=40.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn composed_read_rtt_matches_fig2() {
        // wire + pipeline×2 + responder fixed must reassemble the READ RTT.
        let p = HwParams::paper_testbed();
        let n = RdmaNic::new(&p);
        let rtt = 2 * p.wire_oneway_ns
            + p.rdma_verb_ns
            + p.rdma_verb_rx_ns
            + n.responder_fixed_ns(Verb::Read { bytes: 256 });
        assert_eq!(rtt, p.rdma_read_rtt_ns);
    }

    #[test]
    fn atomic_slower_than_read() {
        let n = nic();
        assert!(
            n.responder_fixed_ns(Verb::Atomic) > n.responder_fixed_ns(Verb::Read { bytes: 8 })
        );
    }

    #[test]
    fn doorbell_batching_cuts_post_cost_only() {
        let n = nic();
        assert!(n.post_cost_ns(true) < n.post_cost_ns(false));
        // The pipeline ceiling is unchanged — batching can't lift verb rate.
        assert_eq!(n.max_verb_rate_mops(), nic().max_verb_rate_mops());
    }

    #[test]
    fn idle_gap_resets_pipeline() {
        let mut n = nic();
        let p = HwParams::paper_testbed();
        n.reserve_tx(SimTime::ZERO);
        let later = n.reserve_tx(SimTime::from_us(10));
        assert_eq!(later.as_ns(), 10_000 + p.rdma_verb_ns);
        n.reserve_rx(SimTime::ZERO);
        let later = n.reserve_rx(SimTime::from_us(10));
        assert_eq!(later.as_ns(), 10_000 + p.rdma_verb_rx_ns);
    }
}
