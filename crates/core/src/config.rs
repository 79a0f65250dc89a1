//! Xenic engine configuration — including the Figure 9 ablation knobs
//! and the substrate placement policy (DESIGN.md §17).

use crate::api::TxnSpec;
use xenic_hw::HwParams;

/// Where a class of protocol metadata physically lives (DESIGN.md §17).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Loc {
    /// SmartNIC-local memory — the paper's design; free for NIC-side
    /// protocol logic on every substrate.
    Nic,
    /// Host DRAM: every NIC-side metadata touch pays one DMA completion
    /// (on-path 1295 ns; off-path adds the switch hop — the cliff).
    Host,
    /// The shared CXL pool: each touch pays `cxl_read_ns`. On substrates
    /// without a pool this is modeled as host-resident (documented
    /// fallback, asserted against in the sweeps).
    CxlPool,
}

impl Loc {
    /// Short lowercase token (CLI flags, CSV columns).
    pub fn token(self) -> &'static str {
        match self {
            Loc::Nic => "nic",
            Loc::Host => "host",
            Loc::CxlPool => "cxl",
        }
    }
}

/// Which core pool executes the Validate/Commit protocol logic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LogicPool {
    /// NIC cores (the paper's design) — no extra crossings.
    Nic,
    /// Host cores: each of the two commit-protocol decision points
    /// (Validate, Commit) pays a host↔NIC round trip.
    Host,
}

/// Placement policy: where lock words, version metadata, and the
/// ordered index live, and who runs commit logic (DESIGN.md §17).
///
/// Placement is a **latency overlay**, not a scheduler input: the
/// surcharge of the configured placement is computed analytically from
/// the committing transaction's access counts and the substrate's
/// per-access costs, and added to the recorded latency at commit time.
/// The event schedule — and therefore the committed transaction set,
/// every store digest, and every RNG draw — is byte-identical across
/// placements by construction. Placement moves cost; it never changes
/// outcomes. (Substrates, by contrast, genuinely reshape the schedule
/// and carry their own pinned digests.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Placement {
    /// Where per-key lock words live.
    pub lock_words: Loc,
    /// Where per-key version metadata lives.
    pub versions: Loc,
    /// Where the ordered (range) index lives.
    pub ordered_index: Loc,
    /// Which pool runs Validate/Commit decision logic.
    pub commit_logic: LogicPool,
}

impl Placement {
    /// The three presets, in sweep order.
    pub const ALL: [Placement; 3] = [
        Placement::nic_resident(),
        Placement::host_resident(),
        Placement::cxl_pool(),
    ];

    /// The paper's placement: everything NIC-resident. Zero overlay on
    /// every substrate — the default, so all historical pins hold.
    pub const fn nic_resident() -> Self {
        Placement {
            lock_words: Loc::Nic,
            versions: Loc::Nic,
            ordered_index: Loc::Nic,
            commit_logic: LogicPool::Nic,
        }
    }

    /// Host-heavy placement: metadata in host DRAM, commit logic on
    /// host cores — what a conventional RDMA design looks like when the
    /// NIC must reach back for every word.
    pub const fn host_resident() -> Self {
        Placement {
            lock_words: Loc::Host,
            versions: Loc::Host,
            ordered_index: Loc::Host,
            commit_logic: LogicPool::Host,
        }
    }

    /// CXL-pool placement: metadata in the shared pool, commit logic on
    /// host cores next to it. Only meaningful on the CXL substrate.
    pub const fn cxl_pool() -> Self {
        Placement {
            lock_words: Loc::CxlPool,
            versions: Loc::CxlPool,
            ordered_index: Loc::CxlPool,
            commit_logic: LogicPool::Host,
        }
    }

    /// Short token for sweeps: the dominant metadata location plus the
    /// commit-logic pool.
    pub fn token(&self) -> &'static str {
        match (self.lock_words, self.commit_logic) {
            (Loc::Nic, LogicPool::Nic) => "nic",
            (Loc::Host, LogicPool::Host) => "host",
            (Loc::CxlPool, LogicPool::Host) => "cxlpool",
            _ => "mixed",
        }
    }

    /// Per-touch cost of one metadata access at `loc`, ns.
    fn access_ns(loc: Loc, p: &HwParams) -> u64 {
        match loc {
            Loc::Nic => 0,
            // Reaching back to host DRAM costs one DMA read completion
            // (substrate-resolved: the off-path cliff lands here). On
            // the CXL substrate the DMA engine's own reads become pool
            // ops, but host DRAM is still behind PCIe — charge the raw
            // PCIe read so `host` and `cxlpool` placements stay
            // distinguishable there.
            Loc::Host => match p.substrate.cxl() {
                Some(_) => p.dma_read_latency_ns,
                None => p.dma_read_lat_ns(),
            },
            Loc::CxlPool => match p.substrate.cxl() {
                Some(c) => c.read_ns,
                // Documented fallback: no pool on this substrate.
                None => p.dma_read_lat_ns(),
            },
        }
    }

    /// The committing attempt's placement surcharge for `spec`, ns:
    /// lock words are touched twice per written key (acquire +
    /// release), version words once per key read or written, the
    /// ordered index ~3 node visits per range walked plus one per
    /// insert, and host-resident commit logic pays a host↔NIC round
    /// trip at each of the two decision points.
    pub fn commit_overlay_ns(&self, spec: &TxnSpec, p: &HwParams) -> u64 {
        let round_reads: usize = spec.rounds.iter().map(|r| r.reads.len()).sum();
        let round_writes: usize = spec.rounds.iter().map(|r| r.updates.len()).sum();
        let writes = (spec.updates.len() + spec.inserts.len() + round_writes) as u64;
        let reads = (spec.reads.len() + round_reads) as u64;
        let lock_touches = 2 * writes;
        let version_touches = reads + writes;
        let index_touches = 3 * spec.scans.len() as u64 + spec.inserts.len() as u64;
        let logic = match self.commit_logic {
            LogicPool::Nic => 0,
            LogicPool::Host => 2 * (p.pcie_up_lat_ns() + p.pcie_down_lat_ns()),
        };
        lock_touches * Self::access_ns(self.lock_words, p)
            + version_touches * Self::access_ns(self.versions, p)
            + index_touches * Self::access_ns(self.ordered_index, p)
            + logic
    }
}

impl Default for Placement {
    fn default() -> Self {
        Self::nic_resident()
    }
}

/// Which replication protocol the Log phase runs (DESIGN.md §15). All
/// three are NIC-resident and charged the same `xenic-hw` costs; they
/// differ in who the coordinator talks to, how many acks commit, and
/// what keeps laggards convergent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplBackend {
    /// Xenic's native scheme (§4.2 step 5): the coordinator fans log
    /// appends to every backup of each written shard and commits when
    /// all of them ack.
    LogShipping,
    /// Leader-based Raft-style commit: term-tagged appends route through
    /// the shard group's current leader, which relays to followers; the
    /// coordinator commits on a majority of backup acks and re-elects
    /// (bumps the term) when the leader stops answering.
    Raft,
    /// Invalidation-based Hermes-style protocol: appends double as
    /// broadcast invalidations; every backup must ack (making local
    /// reads at any replica safe), and a post-commit validation
    /// broadcast returns replicas to the valid state.
    Hermes,
}

impl ReplBackend {
    /// All backends, in sweep order.
    pub const ALL: [ReplBackend; 3] = [
        ReplBackend::LogShipping,
        ReplBackend::Raft,
        ReplBackend::Hermes,
    ];

    /// Short lowercase token (CLI flags, CSV columns).
    pub fn token(self) -> &'static str {
        match self {
            ReplBackend::LogShipping => "logship",
            ReplBackend::Raft => "raft",
            ReplBackend::Hermes => "hermes",
        }
    }
}

/// TEST ONLY: one deliberately seeded protocol bug. Each exists to prove
/// a referee can fail — a run with it set must be rejected, shrunk and
/// replayed by `serial_fuzz`'s negative self-tests (DESIGN.md §12). Never
/// set by any preset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Weakening {
    /// Skip the Validate phase's lock/version re-check entirely, so
    /// multi-shard OCC transactions commit on whatever they read during
    /// Execute. Must be rejected with a G2 cycle (see
    /// `tests/serializability.rs`).
    Validation,
    /// Skip the Validate phase's predicate re-walk and in-range lock
    /// check for scans, so range transactions commit on whatever the
    /// Execute walk observed even when a concurrent insert landed inside
    /// the range. A scan-heavy run must be rejected with a G2 (phantom)
    /// cycle.
    PredicateLocks,
    /// On the CXL substrate, skip the cross-node coherence charge *and*
    /// the lock-word fence that Validate performs against the shared
    /// pool — version/lock words are trusted as read during Execute.
    /// Must be rejected with a G2 cycle on a CXL profile; a no-op on
    /// every other substrate.
    CxlCoherence,
    /// The Raft-style backend acks the Log phase before a majority of
    /// backups have logged, and drops the post-commit retransmission
    /// bookkeeping that keeps lossy commits convergent. Under a lossy
    /// plan the wire eats an unretried commit record, the acknowledged
    /// write never reaches its primary, and the post-drain durability
    /// audit pins the evaporated commit to an exact key/version. A
    /// no-op under the other backends.
    Quorum,
}

impl Weakening {
    /// All weakenings, in self-test order.
    pub const ALL: [Weakening; 4] = [
        Weakening::Validation,
        Weakening::PredicateLocks,
        Weakening::CxlCoherence,
        Weakening::Quorum,
    ];

    /// Short lowercase token (replay tokens).
    pub fn token(self) -> &'static str {
        match self {
            Weakening::Validation => "validation",
            Weakening::PredicateLocks => "predicates",
            Weakening::CxlCoherence => "cxl",
            Weakening::Quorum => "quorum",
        }
    }
}

/// Configuration for the Xenic protocol engine: the §4 mechanisms an
/// experiment switches, and nothing else. Loss-tolerance timing (abort
/// retry backoff, phase timeout, commit-ack period, retry budget) was
/// never varied by any experiment and lives as constants in
/// `engine.rs`.
#[derive(Clone, Copy, Debug)]
pub struct XenicConfig {
    /// Combined remote commit operations: one Execute request both locks
    /// write-set keys and returns read-set values, and Validate piggybacks
    /// version checks in one message per shard. Off = the Figure 9
    /// baseline, which mimics DrTM+H's one-sided restrictions with
    /// *separate* read, lock, and validate requests per key group.
    pub smart_remote_ops: bool,
    /// Function-ship execution logic to the coordinator-side NIC for
    /// transactions annotated [`crate::api::ShipMode::Nic`], eliminating
    /// the mid-transaction PCIe roundtrip (§4.2.2).
    pub nic_execution: bool,
    /// Multi-hop OCC communication: ship single-remote-shard transactions
    /// to the remote primary NIC, whose Log requests are acknowledged
    /// directly to the coordinator NIC (§4.2.3, Figure 7b).
    pub occ_multihop: bool,
    /// Cache hot objects in SmartNIC memory. Off = every remote lookup
    /// pays a DMA read.
    pub nic_cache: bool,
    /// Replication factor (primary + backups). Paper benchmarks use 3.
    pub replication: u32,
    /// NIC cache budget in values per node. The LiquidIO's 16 GB DRAM
    /// holds the paper's benchmark datasets outright (Retwis 64 MB,
    /// Smallbank 58 MB, TPC-C ~3.4 GB), so the default budget admits the
    /// full sim-scale keyspace; shrink it to study cache pressure
    /// (§4.3.3).
    pub nic_cache_values: usize,
    /// Host-memory commit-log ring capacity in bytes ("a hugepage of
    /// host memory reserved for logging", §4.2 step 5). When the ring
    /// fills, NICs retry appends until host workers drain it.
    pub log_capacity_bytes: u64,
    /// Which replication backend owns the Log phase (DESIGN.md §15).
    pub replication_backend: ReplBackend,
    /// Placement policy (DESIGN.md §17): where lock words, version
    /// metadata, and the ordered index live, and which core pool runs
    /// Validate/Commit logic. A pure latency overlay — never changes
    /// outcomes. Default: the paper's all-NIC placement (zero overlay).
    pub placement: Placement,
    /// TEST ONLY: the one seeded bug this run carries, if any.
    pub weaken: Option<Weakening>,
}

impl XenicConfig {
    /// The full Xenic design as evaluated in §5.
    pub fn full() -> Self {
        XenicConfig {
            smart_remote_ops: true,
            nic_execution: true,
            occ_multihop: true,
            nic_cache: true,
            replication: 3,
            nic_cache_values: 1 << 20,
            log_capacity_bytes: 1 << 30,
            replication_backend: ReplBackend::LogShipping,
            placement: Placement::nic_resident(),
            weaken: None,
        }
    }

    /// The full design with a non-default placement policy.
    pub fn with_placement(placement: Placement) -> Self {
        XenicConfig {
            placement,
            ..Self::full()
        }
    }

    /// The Figure 9 "Xenic baseline": same remote-operation set as
    /// DrTM+H, no shipping, no multi-hop.
    pub fn fig9_baseline() -> Self {
        XenicConfig {
            smart_remote_ops: false,
            nic_execution: false,
            occ_multihop: false,
            ..Self::full()
        }
    }

    /// The full design running `backend`'s Log phase. Multi-hop shipped
    /// execution (§4.2.3) is a log-shipping-specific commit pattern —
    /// the remote primary fans LogReqs acked straight to the
    /// coordinator — so it is disabled for the other backends; the
    /// local fast path stays on for all of them.
    pub fn with_backend(backend: ReplBackend) -> Self {
        Self::full().on_backend(backend)
    }

    /// This configuration running `backend`'s Log phase (multi-hop off
    /// unless it is log shipping — see [`Self::with_backend`]).
    pub fn on_backend(self, backend: ReplBackend) -> Self {
        XenicConfig {
            replication_backend: backend,
            occ_multihop: self.occ_multihop && backend == ReplBackend::LogShipping,
            ..self
        }
    }
}

impl Default for XenicConfig {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_fig9_knobs() {
        let full = XenicConfig::full();
        let base = XenicConfig::fig9_baseline();
        assert!(full.smart_remote_ops && full.nic_execution && full.occ_multihop);
        assert!(!base.smart_remote_ops && !base.nic_execution && !base.occ_multihop);
        assert_eq!(full.replication, 3);
        assert!(base.nic_cache);
    }

    #[test]
    fn backend_presets() {
        let ls = XenicConfig::with_backend(ReplBackend::LogShipping);
        assert!(ls.occ_multihop);
        assert_eq!(ls.replication_backend, ReplBackend::LogShipping);
        for b in [ReplBackend::Raft, ReplBackend::Hermes] {
            let cfg = XenicConfig::with_backend(b);
            assert!(!cfg.occ_multihop, "{b:?} must not run multi-hop commit");
            assert!(cfg.nic_execution && cfg.smart_remote_ops);
        }
        assert_eq!(XenicConfig::full().replication_backend, ReplBackend::LogShipping);
    }

    fn overlay_spec() -> TxnSpec {
        TxnSpec {
            reads: vec![1, 2, 3],
            updates: vec![(4, crate::api::UpdateOp::AddI64(1))],
            ..Default::default()
        }
    }

    #[test]
    fn nic_resident_overlay_is_zero_everywhere() {
        // The default placement must cost nothing on any substrate —
        // that is what keeps historical latency pins intact.
        let spec = overlay_spec();
        for params in [
            HwParams::paper_testbed(),
            HwParams::off_path_bluefield(),
            HwParams::cxl_shared(),
        ] {
            assert_eq!(Placement::nic_resident().commit_overlay_ns(&spec, &params), 0);
        }
    }

    #[test]
    fn host_resident_overlay_shows_the_offpath_cliff() {
        let spec = overlay_spec();
        let host = Placement::host_resident();
        let on = host.commit_overlay_ns(&spec, &HwParams::paper_testbed());
        let off = host.commit_overlay_ns(&spec, &HwParams::off_path_bluefield());
        assert!(on > 0);
        // The same placement costs strictly more when every reach-back
        // crosses the off-path PCIe switch.
        assert!(off > on, "off-path cliff: {off} <= {on}");
    }

    #[test]
    fn cxl_pool_overlay_undercuts_host_residency() {
        let spec = overlay_spec();
        let params = HwParams::cxl_shared();
        let pool = Placement::cxl_pool().commit_overlay_ns(&spec, &params);
        let host = Placement::host_resident().commit_overlay_ns(&spec, &params);
        assert!(pool > 0);
        // Pool loads are cheaper than the commit-logic round trips the
        // host-resident policy adds on top.
        assert!(pool < host, "cxl pool {pool} >= host {host}");
        assert_eq!(Placement::cxl_pool().token(), "cxlpool");
        assert_eq!(Placement::nic_resident().token(), "nic");
        assert_eq!(Placement::host_resident().token(), "host");
    }

    #[test]
    fn no_preset_weakens() {
        assert_eq!(XenicConfig::full().weaken, None);
        assert_eq!(XenicConfig::fig9_baseline().weaken, None);
        for b in ReplBackend::ALL {
            assert_eq!(XenicConfig::with_backend(b).weaken, None);
        }
        assert_eq!(XenicConfig::with_placement(Placement::host_resident()).weaken, None);
        assert_eq!(
            XenicConfig::with_placement(Placement::host_resident()).placement,
            Placement::host_resident()
        );
    }
}
