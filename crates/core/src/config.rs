//! Xenic engine configuration — the Figure 9 ablation knobs and the
//! replication backend.

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
            weaken: None,
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

    #[test]
    fn no_preset_weakens() {
        assert_eq!(XenicConfig::full().weaken, None);
        assert_eq!(XenicConfig::fig9_baseline().weaken, None);
        for b in ReplBackend::ALL {
            assert_eq!(XenicConfig::with_backend(b).weaken, None);
        }
    }
}
