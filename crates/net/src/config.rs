//! Runtime feature toggles and the deterministic fault plan.
//!
//! The feature knobs are what Figure 9 sweeps: the ablation benches build
//! the same protocol with aggregation and asynchronous DMA selectively
//! disabled to measure each mechanism's contribution.
//!
//! [`FaultPlan`] adds *deterministic fault injection* on the LiquidIO
//! Ethernet lane: per-link message drop and duplication probabilities,
//! bounded per-frame delay jitter, timed pairwise partitions, and a
//! crash-stop/restart schedule. Faults draw from dedicated per-node RNG
//! streams derived from the cluster seed (one per sending node), so a
//! given `(seed, plan)` pair always produces the same fault schedule —
//! chaos runs are replayable bit for bit, on any lane count. A plan with
//! every knob at zero (`FaultPlan::none()`, the default) is inert: the
//! runtime takes the exact same code paths and consumes the exact same
//! randomness as before the fault layer existed.

use xenic_sim::TraceConfig;

/// Per-link Bernoulli fault rates and delay jitter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability an individual protocol message is silently dropped.
    pub drop_prob: f64,
    /// Probability an individual message is delivered twice.
    pub dup_prob: f64,
    /// Extra per-frame delivery delay, drawn uniformly from
    /// `[0, jitter_ns]`.
    pub jitter_ns: u64,
}

impl LinkFaults {
    /// A perfectly reliable link.
    pub fn none() -> Self {
        LinkFaults {
            drop_prob: 0.0,
            dup_prob: 0.0,
            jitter_ns: 0,
        }
    }

    /// True if any fault knob is non-zero.
    pub fn active(&self) -> bool {
        self.drop_prob > 0.0 || self.dup_prob > 0.0 || self.jitter_ns > 0
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        Self::none()
    }
}

/// A timed pairwise network partition: no frames pass between `a` and `b`
/// (either direction) while `from_ns <= now < until_ns`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    /// One side of the cut.
    pub a: usize,
    /// The other side.
    pub b: usize,
    /// Partition start (simulated ns).
    pub from_ns: u64,
    /// Partition end (simulated ns, exclusive).
    pub until_ns: u64,
}

/// A scheduled crash-stop: the node's inboxes, aggregation buffers, and
/// in-flight events are discarded at `at_ns`; frames to or from it vanish
/// until the optional restart. Node *memory* (protocol state, log, data
/// stores) survives — full state reconstruction is the recovery module's
/// job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// The node to crash.
    pub node: usize,
    /// Crash time (simulated ns).
    pub at_ns: u64,
    /// Restart time (simulated ns), or `None` to stay down forever.
    pub restart_at_ns: Option<u64>,
}

/// A deterministic fault-injection schedule for one cluster run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Fault rates applied to every inter-node link.
    pub link: LinkFaults,
    /// Per-link overrides, keyed by `(src, dst)` direction. The first
    /// matching entry wins; links without an override use `link`.
    pub link_overrides: Vec<(usize, usize, LinkFaults)>,
    /// Timed pairwise partitions.
    pub partitions: Vec<Partition>,
    /// Crash-stop/restart schedule.
    pub crashes: Vec<CrashEvent>,
}

impl FaultPlan {
    /// No faults at all — byte-identical behavior to a fault-free build.
    pub fn none() -> Self {
        Self::default()
    }

    /// Uniform lossy links: every link drops/duplicates with the given
    /// probabilities and jitters frame delivery by up to `jitter_ns`.
    pub fn lossy(drop_prob: f64, dup_prob: f64, jitter_ns: u64) -> Self {
        FaultPlan {
            link: LinkFaults {
                drop_prob,
                dup_prob,
                jitter_ns,
            },
            ..Self::default()
        }
    }

    /// Adds a timed partition between `a` and `b` (builder style).
    pub fn with_partition(mut self, a: usize, b: usize, from_ns: u64, until_ns: u64) -> Self {
        self.partitions.push(Partition {
            a,
            b,
            from_ns,
            until_ns,
        });
        self
    }

    /// Adds a crash (and optional restart) for `node` (builder style).
    pub fn with_crash(mut self, node: usize, at_ns: u64, restart_at_ns: Option<u64>) -> Self {
        self.crashes.push(CrashEvent {
            node,
            at_ns,
            restart_at_ns,
        });
        self
    }

    /// Overrides the fault rates of the directed link `src → dst`.
    pub fn with_link_override(mut self, src: usize, dst: usize, faults: LinkFaults) -> Self {
        self.link_overrides.push((src, dst, faults));
        self
    }

    /// True if this plan can perturb a run in any way. The runtime and
    /// the protocol engines gate every fault-tolerance code path on this,
    /// so an inert plan reproduces fault-free runs exactly.
    pub fn active(&self) -> bool {
        self.link.active()
            || !self.link_overrides.is_empty()
            || !self.partitions.is_empty()
            || !self.crashes.is_empty()
    }

    /// Checks that every node this plan names exists in a cluster of
    /// `nodes` nodes. An out-of-range link override or partition would be
    /// silently inert and an out-of-range crash an index panic deep in
    /// the runtime, so [`crate::Cluster::new`] refuses such a plan up
    /// front; the error names the offending entry.
    pub fn check(&self, nodes: usize) -> Result<(), String> {
        let bad = |entry: String, node: usize| {
            Err(format!(
                "fault plan names node {node}, but the cluster has nodes 0..{nodes}: {entry}"
            ))
        };
        for &(src, dst, _) in &self.link_overrides {
            if let Some(&n) = [src, dst].iter().find(|&&n| n >= nodes) {
                return bad(format!("link override {src} -> {dst}"), n);
            }
        }
        for p in &self.partitions {
            if let Some(&n) = [p.a, p.b].iter().find(|&&n| n >= nodes) {
                return bad(
                    format!("partition {} <-> {} over [{}, {}) ns", p.a, p.b, p.from_ns, p.until_ns),
                    n,
                );
            }
        }
        for c in &self.crashes {
            if c.node >= nodes {
                return bad(format!("crash of node {} at {} ns", c.node, c.at_ns), c.node);
            }
        }
        Ok(())
    }

    /// Fault rates for the directed link `src → dst`.
    pub fn link_for(&self, src: usize, dst: usize) -> LinkFaults {
        self.link_overrides
            .iter()
            .find(|(s, d, _)| *s == src && *d == dst)
            .map(|(_, _, f)| *f)
            .unwrap_or(self.link)
    }

    /// True if `a` and `b` are partitioned from each other at `now_ns`.
    pub fn partitioned(&self, a: usize, b: usize, now_ns: u64) -> bool {
        self.partitions.iter().any(|p| {
            ((p.a == a && p.b == b) || (p.a == b && p.b == a))
                && now_ns >= p.from_ns
                && now_ns < p.until_ns
        })
    }
}

/// Communication-layer configuration for a [`crate::Cluster`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Aggregate NIC outputs to the same destination within a poll burst
    /// into shared Ethernet frames (§4.3.2). Off = one frame per message.
    pub eth_aggregation: bool,
    /// Aggregate host↔NIC PCIe messages the same way.
    pub pcie_aggregation: bool,
    /// Accumulate DMA requests into 15-element vectors with completion
    /// callbacks (§4.3.1). Off = one submission per request, and the
    /// issuing core blocks for the completion (synchronous model).
    pub async_dma: bool,
    /// Deterministic fault-injection schedule (inert by default).
    pub faults: FaultPlan,
    /// Tracing configuration (off by default; a disabled tracer costs no
    /// events and no RNG draws, so traced-off runs are bit-identical to an
    /// untraced build).
    pub trace: TraceConfig,
}

impl NetConfig {
    /// Everything on — the full Xenic runtime.
    pub fn full() -> Self {
        NetConfig {
            eth_aggregation: true,
            pcie_aggregation: true,
            async_dma: true,
            faults: FaultPlan::none(),
            trace: TraceConfig::disabled(),
        }
    }

    /// Everything off — the Figure 9 baseline runtime.
    pub fn baseline() -> Self {
        NetConfig {
            eth_aggregation: false,
            pcie_aggregation: false,
            async_dma: false,
            faults: FaultPlan::none(),
            trace: TraceConfig::disabled(),
        }
    }

    /// Attaches a fault plan (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches a tracing configuration (builder style).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Identity. Per-node RNG streams and intrinsic event stamps are the
    /// only schedule the runtime has (DESIGN.md §16), so there is nothing
    /// to opt into; this stays only because the frozen
    /// `benchmark/src/workloads.rs` still calls it, and goes with the
    /// next `benchmark/` PR.
    pub fn with_per_node_rng(self) -> Self {
        self
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let f = NetConfig::full();
        assert!(f.eth_aggregation && f.pcie_aggregation && f.async_dma);
        let b = NetConfig::baseline();
        assert!(!b.eth_aggregation && !b.pcie_aggregation && !b.async_dma);
        let d = NetConfig::default();
        assert!(d.eth_aggregation);
        assert!(!d.faults.active());
        assert!(!d.trace.active(), "tracing must default off");
        let t = NetConfig::full().with_trace(TraceConfig::full());
        assert!(t.trace.active());
    }

    #[test]
    fn zero_rate_plan_is_inert() {
        assert!(!FaultPlan::none().active());
        assert!(!FaultPlan::lossy(0.0, 0.0, 0).active());
        assert!(FaultPlan::lossy(0.01, 0.0, 0).active());
        assert!(FaultPlan::lossy(0.0, 0.01, 0).active());
        assert!(FaultPlan::lossy(0.0, 0.0, 100).active());
        assert!(FaultPlan::none().with_partition(0, 1, 0, 10).active());
        assert!(FaultPlan::none().with_crash(2, 5, None).active());
        assert!(FaultPlan::none()
            .with_link_override(0, 1, LinkFaults::none())
            .active());
    }

    #[test]
    fn partition_windows_are_timed_and_symmetric() {
        let p = FaultPlan::none().with_partition(1, 4, 1_000, 2_000);
        assert!(!p.partitioned(1, 4, 999));
        assert!(p.partitioned(1, 4, 1_000));
        assert!(p.partitioned(4, 1, 1_500), "cut applies both directions");
        assert!(!p.partitioned(1, 4, 2_000), "until is exclusive");
        assert!(!p.partitioned(1, 3, 1_500), "other pairs unaffected");
    }

    /// One case per entry kind: `check` accepts in-range plans and names
    /// the first entry that names a node the cluster does not have.
    #[test]
    fn check_names_the_entry_on_a_missing_node() {
        let ok = FaultPlan::lossy(0.1, 0.1, 50)
            .with_link_override(0, 5, LinkFaults::none())
            .with_partition(1, 4, 0, 10)
            .with_crash(5, 7, Some(9));
        assert_eq!(ok.check(6), Ok(()));
        let none = FaultPlan::none;
        for (plan, entry) in [
            (none().with_link_override(9, 1, LinkFaults::none()), "link override 9 -> 1"),
            (none().with_link_override(1, 9, LinkFaults::none()), "link override 1 -> 9"),
            (none().with_partition(2, 9, 100, 200), "partition 2 <-> 9 over [100, 200) ns"),
            (none().with_crash(2, 1, None).with_crash(9, 2, None).with_crash(7, 3, None), "crash of node 9 at 2 ns"),
        ] {
            let want = format!("fault plan names node 9, but the cluster has nodes 0..6: {entry}");
            assert_eq!(plan.check(6), Err(want));
        }
    }

    #[test]
    fn link_overrides_take_precedence() {
        let lossy = LinkFaults {
            drop_prob: 0.5,
            dup_prob: 0.0,
            jitter_ns: 0,
        };
        let p = FaultPlan::lossy(0.01, 0.0, 0).with_link_override(2, 3, lossy);
        assert_eq!(p.link_for(2, 3).drop_prob, 0.5);
        assert_eq!(p.link_for(3, 2).drop_prob, 0.01, "override is directed");
        assert_eq!(p.link_for(0, 1).drop_prob, 0.01);
    }
}
