//! The calibrated hardware parameter set.
//!
//! Every constant here traces to a measurement in the paper (section noted
//! inline). Where the paper gives a range we pick the midpoint; where a
//! figure's absolute values are not recoverable from the text we derive a
//! consistent composition from the quantities that *are* stated (see the
//! field docs). EXPERIMENTS.md records the derivations.

use crate::substrate::{Substrate, SubstrateKind};

/// Hardware parameters for one testbed node (host + LiquidIO 3 SmartNIC +
/// CX5 RDMA NIC) and the fabric between nodes.
#[derive(Clone, Debug)]
pub struct HwParams {
    // ---- Cluster shape (§5) ----
    /// Number of servers in the testbed (paper: 6).
    pub nodes: usize,
    /// Host hardware threads per server (Xeon Gold 5218: 16C/32T).
    pub host_threads: usize,
    /// SmartNIC cores per server (LiquidIO 3: 24 ARM @ 2.2 GHz).
    pub nic_cores: usize,
    /// Per-thread NIC:host compute ratio from Coremark (§3.6, Table 3
    /// normalization: 0.31).
    pub nic_core_ratio: f64,

    // ---- Network (§5: 2×50 GbE per server) ----
    /// Usable per-server network bandwidth in Gbit/s (paper: 100; the
    /// DrTM+R comparison in §5.3 uses 50).
    pub net_gbps: f64,
    /// One-way wire latency: propagation + switch + port fixed costs, ns.
    /// Chosen so composed RTTs land in Fig 2's ranges (~2 µs RDMA READ,
    /// ~4 µs host-sourced NIC RPC, ~6.5 µs host RPC).
    pub wire_oneway_ns: u64,
    /// Ethernet per-frame wire overhead in bytes: preamble+IFG (20) +
    /// Ethernet (18) + IPv4 (20) + UDP (8) = 66.
    pub frame_overhead_bytes: u32,
    /// Maximum frame payload (MTU minus L3/L4 headers); standard 1500 MTU.
    pub mtu_payload_bytes: u32,

    // ---- LiquidIO SmartNIC packet path (§3.2, §3.3) ----
    /// NIC-core cost to receive+handle+respond to one small request, ns.
    /// From §3.3: 71.8 Mops/s across 16 NIC threads → 223 ns/op.
    pub nic_rpc_handle_ns: u64,
    /// Host-core DPDK cost per RPC, ns. From §3.3: 23.0 Mops/s across 16
    /// host threads → 696 ns/op.
    pub host_rpc_handle_ns: u64,
    /// One-way host→NIC packet transfer over PCIe descriptor rings, ns.
    /// Composed so host-sourced minus NIC-sourced RTT gap in Fig 2 (~2 µs)
    /// is two PCIe crossings minus the extra NIC hop.
    pub pcie_msg_oneway_ns: u64,
    /// One-way NIC→host message delivery: a DMA write into a host-polled
    /// completion buffer (§3.5's write completion ≈ 570 ns) plus poll
    /// pickup — cheaper than the descriptor-ring path up.
    pub pcie_down_ns: u64,
    /// Host application processing to build/consume a request, ns.
    pub host_app_handle_ns: u64,
    /// Per-frame RX descriptor/buffer work when bursts amortize it
    /// (§4.3.2), ns.
    pub nic_burst_per_frame_ns: u64,
    /// Per-packet RX processing without burst amortization, ns — the
    /// §3.3 unbatched case (9–10.4 Mops/s across ~16 active threads).
    pub nic_pkt_rx_ns: u64,

    // ---- LiquidIO DMA engine (§3.5, Fig 4) ----
    /// Hardware DMA queues (paper: 8).
    pub dma_queues: usize,
    /// Maximum scatter/gather elements per submitted vector (paper: 15).
    pub dma_max_vector: usize,
    /// Core-side submission cost per vector, ns (paper: up to 190).
    pub dma_submit_ns: u64,
    /// Per-element engine occupancy, ns. Fig 4a peaks at 8.7 Mops/s per
    /// queue with full vectors → 115 ns/element.
    pub dma_element_ns: u64,
    /// DMA read completion latency (submit→data available), ns (≤1295).
    pub dma_read_latency_ns: u64,
    /// DMA write completion latency, ns (≤570).
    pub dma_write_latency_ns: u64,
    /// Usable PCIe bandwidth for DMA payload, Gbit/s (PCIe 3.0 x8 ≈ 63
    /// usable).
    pub pcie_gbps: f64,

    // ---- CX5 RDMA NIC (§3.2, §3.4, Fig 2b/3) ----
    /// One-sided READ round-trip time at ≤256 B, ns.
    pub rdma_read_rtt_ns: u64,
    /// Requester-side (TX) verb issue cost, ns. Host posting across many
    /// QPs sustains well beyond one thread's doorbell-batched rate; 25 ns
    /// → 40 Mops/s issue ceiling.
    pub rdma_verb_ns: u64,
    /// Responder-side (RX) verb processing, ns. §3.4's 13.5–15 Mops/s
    /// plateau mixes responder processing with the five clients'
    /// posting-thread limits; attributing it all to the responder would
    /// cap protocol throughput below the paper's own Figure 8 results,
    /// so the responder share is modeled at 45 ns (~22 Mops/s).
    pub rdma_verb_rx_ns: u64,
    /// Per-verb wire overhead in bytes (RoCEv2: Eth+IP+UDP+BTH+RETH+ICRC
    /// ≈ 60 in, plus ACK ≈ 60 back) — charged per one-sided verb.
    pub rdma_verb_wire_bytes: u32,
    /// Host CPU cost to post a verb without doorbell batching, ns.
    pub rdma_post_ns: u64,
    /// Host CPU cost per verb when doorbell-batched, ns.
    pub rdma_post_batched_ns: u64,
    /// Extra per-hop latency of a two-sided RPC beyond wire and handler
    /// compute: DPDK burst polling, buffer management, dispatch. Derived
    /// from Fig 2: a host RPC RTT (~6.5 µs) exceeds the NIC RPC RTT
    /// (~4 µs) by far more than the handler-cost difference.
    pub host_rpc_extra_ns: u64,

    /// NIC-core cost per ordered-index node visited during a range walk,
    /// ns. The LiquidIO keeps the ordered index in its own DRAM, so a
    /// B+tree node visit is a couple of cache-missing pointer chases plus
    /// an in-node binary search on an ARM core — modeled at the same
    /// order as one Coremark-normalized host tree visit (35 ns / 0.31 ≈
    /// 113, rounded to the measured LiquidIO DRAM-touch granularity).
    pub nic_scan_visit_ns: u64,

    // ---- Replication-protocol NIC costs (DESIGN.md §15) ----
    // "Reliable Replication Protocols on SmartNICs" puts the protocol
    // state machine on the NIC cores; these are the per-message compute
    // costs beyond the generic RPC handling, sized from the same
    // Coremark-normalized ARM-core budget as the other NIC handlers.
    /// Leader-side cost per relayed follower append in the Raft-style
    /// backend (copy descriptor, bump match index), ns.
    pub repl_leader_relay_ns: u64,
    /// Backup-side cost to install per-key invalid marks for one
    /// Hermes-style invalidation, ns.
    pub repl_inval_apply_ns: u64,
    /// Backup-side cost to clear invalid marks on a Hermes-style
    /// validation, ns.
    pub repl_val_apply_ns: u64,

    // ---- Xenic protocol framing (§4.3) ----
    /// Poll-loop aggregation window on a NIC core, ns: outputs accumulated
    /// within one burst iteration share a frame.
    pub nic_poll_burst_ns: u64,

    // ---- Substrate profile (DESIGN.md §17) ----
    /// Which hardware substrate the calibrated fields describe. On
    /// [`Substrate::OnPathLiquidIO`] every substrate accessor below is
    /// an exact identity over the raw fields; the BlueField and CXL
    /// profiles override the paths that genuinely differ.
    pub substrate: Substrate,
}

impl HwParams {
    /// The paper's testbed: 6 servers, 100 Gbps, LiquidIO 3 + CX5.
    pub fn paper_testbed() -> Self {
        HwParams {
            nodes: 6,
            host_threads: 32,
            nic_cores: 24,
            nic_core_ratio: 0.31,

            net_gbps: 100.0,
            wire_oneway_ns: 600,
            frame_overhead_bytes: 66,
            mtu_payload_bytes: 1434,

            nic_rpc_handle_ns: 223,
            host_rpc_handle_ns: 696,
            pcie_msg_oneway_ns: 900,
            pcie_down_ns: 650,
            host_app_handle_ns: 300,
            nic_burst_per_frame_ns: 40,
            nic_pkt_rx_ns: 1300,

            dma_queues: 8,
            dma_max_vector: 15,
            dma_submit_ns: 190,
            dma_element_ns: 115,
            dma_read_latency_ns: 1295,
            dma_write_latency_ns: 570,
            pcie_gbps: 63.0,

            rdma_read_rtt_ns: 2400,
            rdma_verb_ns: 25,
            rdma_verb_rx_ns: 45,
            rdma_verb_wire_bytes: 120,
            rdma_post_ns: 70,
            rdma_post_batched_ns: 20,
            host_rpc_extra_ns: 1500,

            nic_scan_visit_ns: 115,

            repl_leader_relay_ns: 90,
            repl_inval_apply_ns: 60,
            repl_val_apply_ns: 40,

            nic_poll_burst_ns: 1500,

            substrate: Substrate::OnPathLiquidIO,
        }
    }

    /// The off-path BlueField-style profile: same cluster shape and
    /// fabric, NIC cores behind an internal PCIe switch (DESIGN.md §17).
    pub fn off_path_bluefield() -> Self {
        HwParams {
            substrate: Substrate::of(SubstrateKind::OffPathBluefield),
            ..Self::paper_testbed()
        }
    }

    /// The shared-CXL-pool profile: loads/stores on a shared pool, no
    /// per-replica DMA log shipping (DESIGN.md §17).
    pub fn cxl_shared() -> Self {
        HwParams {
            substrate: Substrate::of(SubstrateKind::CxlShared),
            ..Self::paper_testbed()
        }
    }

    /// `paper_testbed()` with `substrate` swapped — the canonical way to
    /// build a profile for sweeps.
    pub fn with_substrate(kind: SubstrateKind) -> Self {
        HwParams {
            substrate: Substrate::of(kind),
            ..Self::paper_testbed()
        }
    }

    // ---- Substrate accessors (DESIGN.md §17) ----
    //
    // Every cost that *differs* between substrates is charged through
    // one of these instead of a raw field read. On OnPathLiquidIO each
    // accessor returns the calibrated field unchanged, which is what
    // keeps every historical pinned digest byte-identical.

    /// One-way host→NIC message latency, ns.
    pub fn pcie_up_lat_ns(&self) -> u64 {
        match &self.substrate {
            Substrate::OffPathBluefield(b) => self.pcie_msg_oneway_ns + b.switch_up_extra_ns,
            _ => self.pcie_msg_oneway_ns,
        }
    }

    /// One-way NIC→host message delivery latency, ns.
    pub fn pcie_down_lat_ns(&self) -> u64 {
        match &self.substrate {
            Substrate::OffPathBluefield(b) => self.pcie_down_ns + b.switch_down_extra_ns,
            _ => self.pcie_down_ns,
        }
    }

    /// NIC-core RX cost for one arriving frame, ns (`batched` = burst
    /// amortization active).
    pub fn rx_frame_cpu_ns(&self, batched: bool) -> u64 {
        match &self.substrate {
            Substrate::OffPathBluefield(b) => {
                if batched {
                    b.rx_frame_ns
                } else {
                    b.rx_pkt_ns
                }
            }
            _ => {
                if batched {
                    self.nic_burst_per_frame_ns
                } else {
                    self.nic_pkt_rx_ns
                }
            }
        }
    }

    /// DMA read (host memory → NIC) completion latency, ns. On the CXL
    /// profile a "DMA read" is a load from the shared pool.
    pub fn dma_read_lat_ns(&self) -> u64 {
        match &self.substrate {
            Substrate::OffPathBluefield(b) => self.dma_read_latency_ns + b.dma_read_extra_ns,
            Substrate::CxlShared(c) => c.read_ns,
            Substrate::OnPathLiquidIO => self.dma_read_latency_ns,
        }
    }

    /// DMA write (NIC → host memory) completion latency, ns. On the CXL
    /// profile a "DMA write" is a posted store into the shared pool.
    pub fn dma_write_lat_ns(&self) -> u64 {
        match &self.substrate {
            Substrate::OffPathBluefield(b) => self.dma_write_latency_ns + b.dma_write_extra_ns,
            Substrate::CxlShared(c) => c.write_ns,
            Substrate::OnPathLiquidIO => self.dma_write_latency_ns,
        }
    }

    /// Whether commit-log records are *shipped* to each replica's host
    /// memory over the DMA engine (the paper's §4.2 step 5). False only
    /// on the CXL profile, where a record is written once into the
    /// shared pool ([`Self::cxl_log_write_ns`]).
    pub fn ships_log_via_dma(&self) -> bool {
        !matches!(self.substrate, Substrate::CxlShared(_))
    }

    /// Latency of one commit-record store into the shared CXL pool, ns.
    /// Only meaningful when [`Self::ships_log_via_dma`] is false.
    pub fn cxl_log_write_ns(&self) -> u64 {
        match &self.substrate {
            Substrate::CxlShared(c) => c.write_ns,
            _ => self.dma_write_latency_ns,
        }
    }

    /// Cross-node coherence fence on a contended lock/version word, ns.
    /// Zero on every substrate except CXL, where Validate pays it per
    /// word verified.
    pub fn coherence_ns(&self) -> u64 {
        match &self.substrate {
            Substrate::CxlShared(c) => c.coherence_ns,
            _ => 0,
        }
    }

    /// §5.3 DrTM+R comparison configuration: one 50 Gbps link per server.
    pub fn paper_testbed_half_bandwidth() -> Self {
        HwParams {
            net_gbps: 50.0,
            ..Self::paper_testbed()
        }
    }

    /// Scales NIC-core work to host-core time units using the Coremark
    /// ratio (§3.6): `host_equivalent = nic_threads * nic_core_ratio`.
    pub fn nic_threads_normalized(&self, nic_threads: usize) -> f64 {
        nic_threads as f64 * self.nic_core_ratio
    }

    /// Serialization time in ns for `bytes` at `gbps`.
    pub fn ser_ns(bytes: u64, gbps: f64) -> u64 {
        ((bytes as f64 * 8.0) / gbps).ceil() as u64
    }

    /// Serialization time on the node's network port.
    pub fn net_ser_ns(&self, bytes: u64) -> u64 {
        Self::ser_ns(bytes, self.net_gbps)
    }

    /// Serialization time on the PCIe link.
    pub fn pcie_ser_ns(&self, bytes: u64) -> u64 {
        Self::ser_ns(bytes, self.pcie_gbps)
    }

    /// Conservative lower bound on the delivery latency of *any*
    /// cross-node message, ns — the lane scheduler's lookahead floor
    /// (DESIGN.md §18).
    ///
    /// Every cross-node schedule in the runtime is "transmit done +
    /// [`Self::wire_oneway_ns`] (+ non-negative jitter)", and transmit
    /// charges port serialization of at least the smallest frame either
    /// NIC ever puts on the wire: one Ethernet frame overhead
    /// ([`Self::frame_overhead_bytes`]) or one half of an RDMA verb
    /// ([`Self::rdma_verb_wire_bytes`] covers the request/response
    /// pair). Substrate variations — off-path PCIe shifts, CXL pool
    /// stores — are node-local and never shorten the wire path, so the
    /// floor holds on every profile.
    pub fn min_remote_delivery_ns(&self) -> u64 {
        let min_frame_bytes =
            u64::from(self.frame_overhead_bytes).min(u64::from(self.rdma_verb_wire_bytes) / 2);
        self.wire_oneway_ns + self.net_ser_ns(min_frame_bytes)
    }
}

impl Default for HwParams {
    fn default() -> Self {
        Self::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_matches_stated_constants() {
        let p = HwParams::paper_testbed();
        assert_eq!(p.nodes, 6);
        assert_eq!(p.nic_cores, 24);
        assert_eq!(p.dma_queues, 8);
        assert_eq!(p.dma_max_vector, 15);
        assert_eq!(p.dma_submit_ns, 190);
        assert_eq!(p.dma_read_latency_ns, 1295);
        assert_eq!(p.dma_write_latency_ns, 570);
        assert!((p.nic_core_ratio - 0.31).abs() < 1e-9);
    }

    #[test]
    fn replication_costs_are_sub_handler() {
        // Per-message protocol work rides inside one RPC handling slot:
        // each extra cost must stay below the base NIC handler cost.
        let p = HwParams::paper_testbed();
        for ns in [
            p.repl_leader_relay_ns,
            p.repl_inval_apply_ns,
            p.repl_val_apply_ns,
        ] {
            assert!(ns > 0 && ns < p.nic_rpc_handle_ns);
        }
    }

    #[test]
    fn nic_rpc_rate_matches_paper() {
        // §3.3: 16 NIC threads at 223 ns/op ≈ 71.7 Mops/s.
        let p = HwParams::paper_testbed();
        let rate = 16.0 / (p.nic_rpc_handle_ns as f64 * 1e-9) / 1e6;
        assert!((rate - 71.8).abs() < 1.0, "NIC RPC rate {rate} Mops/s");
        // 16 host threads at 696 ns/op ≈ 23.0 Mops/s.
        let rate = 16.0 / (p.host_rpc_handle_ns as f64 * 1e-9) / 1e6;
        assert!((rate - 23.0).abs() < 0.5, "host RPC rate {rate} Mops/s");
    }

    #[test]
    fn dma_queue_rate_matches_fig4() {
        // Fig 4a: 8.7 Mops/s per queue with full vectors → 115 ns/element.
        let p = HwParams::paper_testbed();
        let rate = 1.0 / (p.dma_element_ns as f64 * 1e-9) / 1e6;
        assert!((rate - 8.7).abs() < 0.1, "DMA element rate {rate} Mops/s");
    }

    #[test]
    fn rdma_verb_rates_match_measurements() {
        // RX: above the §3.4 five-client plateau (which folds in client
        // posting limits), below the NIC's datasheet ceiling.
        let p = HwParams::paper_testbed();
        let rx = 1.0 / (p.rdma_verb_rx_ns as f64 * 1e-9) / 1e6;
        assert!((15.0..=40.0).contains(&rx), "RX verb rate {rx} Mops/s");
        // TX: aggregate posting ceiling above the single-thread figure.
        let tx = 1.0 / (p.rdma_verb_ns as f64 * 1e-9) / 1e6;
        assert!((15.0..=80.0).contains(&tx), "TX verb rate {tx} Mops/s");
    }

    #[test]
    fn serialization_math() {
        // 1250 bytes at 100 Gbps = 100 ns.
        assert_eq!(HwParams::ser_ns(1250, 100.0), 100);
        let p = HwParams::paper_testbed();
        assert_eq!(p.net_ser_ns(1250), 100);
        assert!(p.pcie_ser_ns(1250) > p.net_ser_ns(1250));
    }

    #[test]
    fn half_bandwidth_variant() {
        let p = HwParams::paper_testbed_half_bandwidth();
        assert_eq!(p.net_gbps, 50.0);
        assert_eq!(p.nodes, 6);
    }

    #[test]
    fn onpath_accessors_are_exact_identities() {
        // The contract that keeps every historical pin byte-identical:
        // on the default substrate each accessor returns the calibrated
        // field unchanged.
        let p = HwParams::paper_testbed();
        assert_eq!(p.substrate.kind(), SubstrateKind::OnPathLiquidIO);
        assert_eq!(p.pcie_up_lat_ns(), p.pcie_msg_oneway_ns);
        assert_eq!(p.pcie_down_lat_ns(), p.pcie_down_ns);
        assert_eq!(p.rx_frame_cpu_ns(true), p.nic_burst_per_frame_ns);
        assert_eq!(p.rx_frame_cpu_ns(false), p.nic_pkt_rx_ns);
        assert_eq!(p.dma_read_lat_ns(), p.dma_read_latency_ns);
        assert_eq!(p.dma_write_lat_ns(), p.dma_write_latency_ns);
        assert!(p.ships_log_via_dma());
        assert_eq!(p.coherence_ns(), 0);
    }

    #[test]
    fn bluefield_shifts_the_cliffs() {
        let b = HwParams::off_path_bluefield();
        let on = HwParams::paper_testbed();
        // Host↔NIC and DMA-to-host pay the switch hop…
        assert!(b.pcie_up_lat_ns() > on.pcie_up_lat_ns());
        assert!(b.pcie_down_lat_ns() > on.pcie_down_lat_ns());
        assert!(b.dma_read_lat_ns() > on.dma_read_lat_ns());
        assert!(b.dma_write_lat_ns() > on.dma_write_lat_ns());
        // …while wire RX is cheaper in both modes.
        assert!(b.rx_frame_cpu_ns(true) < on.rx_frame_cpu_ns(true));
        assert!(b.rx_frame_cpu_ns(false) < on.rx_frame_cpu_ns(false));
        assert!(b.ships_log_via_dma());
    }

    #[test]
    fn cxl_drops_log_shipping_and_charges_coherence() {
        let c = HwParams::cxl_shared();
        assert!(!c.ships_log_via_dma());
        assert!(c.coherence_ns() > 0);
        // Pool accesses undercut the LiquidIO DMA completion latencies.
        assert!(c.dma_read_lat_ns() < HwParams::paper_testbed().dma_read_lat_ns());
        assert!(c.cxl_log_write_ns() < HwParams::paper_testbed().dma_write_lat_ns());
    }

    #[test]
    fn normalization_uses_coremark_ratio() {
        let p = HwParams::paper_testbed();
        // Table 3: 16 NIC threads ≈ 4.96 host-thread equivalents.
        let norm = p.nic_threads_normalized(16);
        assert!((norm - 4.96).abs() < 0.01);
    }

    #[test]
    fn composed_rtts_are_ordered_like_fig2() {
        // Fig 2 orderings: an RDMA READ beats a host-sourced LiquidIO NIC
        // RPC, and an RPC the remote host handles is slower still.
        let p = HwParams::paper_testbed();
        let lio_nic_rpc_from_host = p.host_app_handle_ns
            + 2 * p.pcie_msg_oneway_ns
            + 2 * p.wire_oneway_ns
            + p.nic_rpc_handle_ns
            + p.host_app_handle_ns;
        assert!(p.rdma_read_rtt_ns < lio_nic_rpc_from_host);
        let lio_host_rpc_from_host = lio_nic_rpc_from_host + 2 * p.pcie_msg_oneway_ns
            - p.nic_rpc_handle_ns
            + 2 * p.nic_rpc_handle_ns
            + p.host_rpc_handle_ns;
        assert!(lio_host_rpc_from_host > lio_nic_rpc_from_host);
    }
}
