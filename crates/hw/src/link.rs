//! Network port model.
//!
//! Each node owns one full-duplex port (the paper's 2×50 GbE pair is
//! modeled as a single 100 Gbps port, matching how the paper reports
//! "per-server total network bandwidth of 100Gbps"). Frames serialize on
//! the sender's egress and the receiver's ingress; base latency covers
//! propagation plus switching. Per-frame overhead bytes are charged here,
//! which is what makes op aggregation (§4.3.2) pay off.

use crate::params::HwParams;
use xenic_sim::SimTime;

/// One direction of a port: a serializer with busy-until tracking.
#[derive(Clone, Debug, Default)]
struct Serializer {
    free_at: SimTime,
    bytes: u64,
    frames: u64,
}

impl Serializer {
    /// Serializes `bytes` starting no earlier than `now`; returns the time
    /// the last bit leaves.
    fn push(&mut self, now: SimTime, bytes: u64, gbps: f64) -> SimTime {
        let start = self.free_at.max(now);
        let done = start + HwParams::ser_ns(bytes, gbps);
        self.free_at = done;
        self.bytes += bytes;
        self.frames += 1;
        done
    }
}

/// A full-duplex network port.
#[derive(Clone, Debug)]
pub struct Port {
    gbps: f64,
    frame_overhead: u64,
    egress: Serializer,
    ingress: Serializer,
}

impl Port {
    /// Creates a port with the testbed's bandwidth and frame overhead.
    pub fn new(p: &HwParams) -> Self {
        Self::with(p.net_gbps, u64::from(p.frame_overhead_bytes))
    }

    /// Creates a port with explicit bandwidth and per-frame overhead —
    /// used for the PCIe message path (TLP overhead instead of Ethernet)
    /// and the CX5 (whose per-verb wire overhead is charged explicitly).
    pub fn with(gbps: f64, frame_overhead_bytes: u64) -> Self {
        Port {
            gbps,
            frame_overhead: frame_overhead_bytes,
            egress: Serializer::default(),
            ingress: Serializer::default(),
        }
    }

    /// Earliest time the egress serializer frees.
    pub fn egress_free_at(&self) -> SimTime {
        self.egress.free_at
    }

    /// Port bandwidth in Gbit/s.
    pub fn gbps(&self) -> f64 {
        self.gbps
    }

    /// Sends a frame carrying `payload_bytes`: reserves egress time and
    /// returns when the last bit has left this port. Frame overhead is
    /// added automatically.
    pub fn send_frame(&mut self, now: SimTime, payload_bytes: u64) -> SimTime {
        self.egress
            .push(now, payload_bytes + self.frame_overhead, self.gbps)
    }

    /// Receives a frame: reserves ingress time from `arrival` and returns
    /// when the frame is fully received.
    pub fn recv_frame(&mut self, arrival: SimTime, payload_bytes: u64) -> SimTime {
        self.ingress
            .push(arrival, payload_bytes + self.frame_overhead, self.gbps)
    }

    /// Total payload+overhead bytes sent.
    pub fn tx_bytes(&self) -> u64 {
        self.egress.bytes
    }

    /// Total payload+overhead bytes received.
    pub fn rx_bytes(&self) -> u64 {
        self.ingress.bytes
    }

    /// Frames sent.
    pub fn tx_frames(&self) -> u64 {
        self.egress.frames
    }

    /// Frames received.
    pub fn rx_frames(&self) -> u64 {
        self.ingress.frames
    }

    /// Egress utilization over `[0, now]` (fraction of line rate).
    pub fn tx_utilization(&self, now: SimTime) -> f64 {
        if now.as_ns() == 0 {
            return 0.0;
        }
        let capacity_bytes = self.gbps / 8.0 * now.as_ns() as f64;
        self.egress.bytes as f64 / capacity_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port() -> Port {
        Port::new(&HwParams::paper_testbed())
    }

    #[test]
    fn frame_serialization_includes_overhead() {
        let mut p = port();
        // 1184 payload + 66 overhead = 1250 B at 100 Gbps = 100 ns.
        let done = p.send_frame(SimTime::ZERO, 1184);
        assert_eq!(done.as_ns(), 100);
    }

    #[test]
    fn back_to_back_frames_queue() {
        let mut p = port();
        p.send_frame(SimTime::ZERO, 1184);
        let second = p.send_frame(SimTime::ZERO, 1184);
        assert_eq!(second.as_ns(), 200);
    }

    #[test]
    fn idle_gap_resets_queue() {
        let mut p = port();
        p.send_frame(SimTime::ZERO, 1184);
        let later = p.send_frame(SimTime::from_us(1), 1184);
        assert_eq!(later.as_ns(), 1100);
    }

    #[test]
    fn duplex_directions_independent() {
        let mut p = port();
        let tx = p.send_frame(SimTime::ZERO, 1184);
        let rx = p.recv_frame(SimTime::ZERO, 1184);
        assert_eq!(tx.as_ns(), rx.as_ns());
        assert_eq!(p.tx_bytes(), 1250);
        assert_eq!(p.rx_bytes(), 1250);
    }

    #[test]
    fn small_frames_waste_bandwidth() {
        // The motivation for aggregation: 24 B ops one-per-frame carry 66 B
        // overhead each; 10 ops in one frame carry it once.
        let mut solo = port();
        let mut aggregated = port();
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            t = solo.send_frame(t, 24);
        }
        let agg_done = aggregated.send_frame(SimTime::ZERO, 240);
        assert!(agg_done < t);
        assert!(solo.tx_bytes() > aggregated.tx_bytes() * 2);
    }

    #[test]
    fn utilization_saturates_at_one() {
        let mut p = port();
        let mut t = SimTime::ZERO;
        for _ in 0..1000 {
            t = p.send_frame(t, 1434);
        }
        let u = p.tx_utilization(t);
        assert!((0.99..=1.01).contains(&u), "utilization {u}");
        assert_eq!(p.tx_frames(), 1000);
    }

    #[test]
    fn utilization_zero_at_t0() {
        let p = port();
        assert_eq!(p.tx_utilization(SimTime::ZERO), 0.0);
    }
}
