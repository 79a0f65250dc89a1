//! Hardware substrate profiles (DESIGN.md §17).
//!
//! The calibrated constants in [`crate::HwParams`] describe the paper's
//! testbed: an **on-path** LiquidIO 3, where the SmartNIC cores sit on
//! the packet path and reach host memory through the NIC's own DMA
//! engine. Two related systems define concretely different cost models:
//!
//! * **Off-path BlueField** ("Characterizing Off-path SmartNIC"): the
//!   ARM cores hang off an internal PCIe switch beside a ConnectX
//!   datapath. Wire RX is *cheaper* (hardware flow steering instead of
//!   a software poll loop), but every host↔NIC crossing pays the extra
//!   switch hop, and NIC-initiated DMA to host memory is markedly
//!   slower — the "latency cliff" the characterization paper measures.
//! * **CXL shared memory** ("Enabling Efficient Transaction Processing
//!   on CXL-Based Memory Sharing"): nodes load/store a shared CXL pool
//!   directly. There is no per-replica DMA log shipping — a commit
//!   record is written once into the pool — but every pool access pays
//!   `cxl_read_ns`/`cxl_write_ns`, and contended lock words pay a
//!   cross-node coherence fence.
//!
//! A profile is a set of *overrides* consulted by accessor methods on
//! [`crate::HwParams`]; on [`Substrate::OnPathLiquidIO`] every accessor
//! is an exact identity over the calibrated fields, so the default
//! profile reproduces every historical pinned digest bit for bit.

/// Discriminant for a [`Substrate`] profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SubstrateKind {
    /// The paper's testbed: on-path LiquidIO 3 (§3).
    OnPathLiquidIO,
    /// Off-path BlueField-style SmartNIC behind an internal PCIe switch.
    OffPathBluefield,
    /// Shared CXL memory pool, no DMA log shipping.
    CxlShared,
}

impl SubstrateKind {
    /// All substrates, in sweep order.
    pub const ALL: [SubstrateKind; 3] = [
        SubstrateKind::OnPathLiquidIO,
        SubstrateKind::OffPathBluefield,
        SubstrateKind::CxlShared,
    ];

    /// Short lowercase token (CLI flags, CSV columns).
    pub fn token(self) -> &'static str {
        match self {
            SubstrateKind::OnPathLiquidIO => "onpath",
            SubstrateKind::OffPathBluefield => "bluefield",
            SubstrateKind::CxlShared => "cxl",
        }
    }
}

/// Off-path SmartNIC overrides. Sized relative to the LiquidIO numbers
/// from the off-path characterization's qualitative findings: host→NIC
/// messaging roughly doubles (extra switch hop each way), NIC-initiated
/// DMA to host memory gains several hundred ns per completion, and the
/// hardware RX datapath undercuts the LiquidIO's software poll loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BluefieldParams {
    /// Extra host→NIC latency through the internal PCIe switch, ns
    /// (added to `pcie_msg_oneway_ns`: 900 → 1600).
    pub switch_up_extra_ns: u64,
    /// Extra NIC→host delivery latency through the switch, ns
    /// (added to `pcie_down_ns`: 650 → 1200).
    pub switch_down_extra_ns: u64,
    /// Per-frame RX cost with burst amortization, ns — hardware flow
    /// steering, cheaper than the LiquidIO's 40 ns software poll share.
    pub rx_frame_ns: u64,
    /// Per-packet RX cost without burst amortization, ns (LiquidIO:
    /// 1300).
    pub rx_pkt_ns: u64,
    /// Extra DMA **read** completion latency to host memory, ns — the
    /// off-path cliff (1295 → 1895).
    pub dma_read_extra_ns: u64,
    /// Extra DMA **write** completion latency to host memory, ns
    /// (570 → 1070).
    pub dma_write_extra_ns: u64,
}

impl Default for BluefieldParams {
    fn default() -> Self {
        BluefieldParams {
            switch_up_extra_ns: 700,
            switch_down_extra_ns: 550,
            rx_frame_ns: 25,
            rx_pkt_ns: 750,
            dma_read_extra_ns: 600,
            dma_write_extra_ns: 500,
        }
    }
}

/// CXL shared-pool overrides. A far-memory CXL load lands in the
/// 300–600 ns band in published measurements; writes post slightly
/// cheaper; a contended-line ownership transfer costs an extra fence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CxlParams {
    /// Latency of one load from the shared pool, ns.
    pub read_ns: u64,
    /// Latency of one posted store to the shared pool, ns.
    pub write_ns: u64,
    /// Cross-node coherence fence on a contended lock word, ns —
    /// charged once per lock/version word verified during Validate.
    pub coherence_ns: u64,
}

impl Default for CxlParams {
    fn default() -> Self {
        CxlParams {
            read_ns: 600,
            write_ns: 450,
            coherence_ns: 220,
        }
    }
}

/// A hardware substrate profile: the on-path default or one of the two
/// alternative cost models. Carried inside [`crate::HwParams`]; every
/// cost the runtime or engine charges that *differs* between substrates
/// goes through an accessor (`HwParams::pcie_up_lat_ns`,
/// `rx_frame_cpu_ns`, `dma_read_lat_ns`, `ships_log_via_dma`, …)
/// instead of a raw field read.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Substrate {
    /// The calibrated paper testbed; all accessors are identities.
    #[default]
    OnPathLiquidIO,
    /// Off-path SmartNIC with the given overrides.
    OffPathBluefield(BluefieldParams),
    /// Shared CXL pool with the given overrides.
    CxlShared(CxlParams),
}

impl Substrate {
    /// The profile's discriminant.
    pub fn kind(&self) -> SubstrateKind {
        match self {
            Substrate::OnPathLiquidIO => SubstrateKind::OnPathLiquidIO,
            Substrate::OffPathBluefield(_) => SubstrateKind::OffPathBluefield,
            Substrate::CxlShared(_) => SubstrateKind::CxlShared,
        }
    }

    /// Default profile for a kind.
    pub fn of(kind: SubstrateKind) -> Self {
        match kind {
            SubstrateKind::OnPathLiquidIO => Substrate::OnPathLiquidIO,
            SubstrateKind::OffPathBluefield => {
                Substrate::OffPathBluefield(BluefieldParams::default())
            }
            SubstrateKind::CxlShared => Substrate::CxlShared(CxlParams::default()),
        }
    }

    /// Short lowercase token.
    pub fn token(&self) -> &'static str {
        self.kind().token()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_and_kinds_roundtrip() {
        for kind in SubstrateKind::ALL {
            let s = Substrate::of(kind);
            assert_eq!(s.kind(), kind);
            assert_eq!(s.token(), kind.token());
        }
        assert_eq!(Substrate::default().kind(), SubstrateKind::OnPathLiquidIO);
    }

    #[test]
    fn bluefield_models_the_cliff_and_cheap_rx() {
        let b = BluefieldParams::default();
        // Host↔NIC crossings and DMA-to-host get *more* expensive…
        assert!(b.switch_up_extra_ns > 0 && b.switch_down_extra_ns > 0);
        assert!(b.dma_read_extra_ns > 0 && b.dma_write_extra_ns > 0);
        // …while the hardware RX datapath is cheaper than the LiquidIO's
        // software poll loop (40 ns burst share, 1300 ns unbatched).
        assert!(b.rx_frame_ns < 40);
        assert!(b.rx_pkt_ns < 1300);
    }

    #[test]
    fn cxl_pool_accesses_beat_dma_completions() {
        // The whole point of the CXL profile: a pool access is far
        // cheaper than a LiquidIO DMA completion (1295/570 ns).
        let c = CxlParams::default();
        assert!(c.read_ns < 1295);
        assert!(c.write_ns < 570);
        assert!(c.coherence_ns > 0);
    }
}
