//! Substrate conformance suite (DESIGN.md §17).
//!
//! Three contracts lock the substrate refactor down:
//!
//! 1. **On-path identity** — on `OnPathLiquidIO` (the default) every
//!    substrate accessor is an identity over the calibrated fields, so
//!    its runs are pinned with p50/p99 included. (The pins predate the
//!    substrate refactor, which left them byte-identical; DESIGN.md §16
//!    records their one re-pin, for the single-schedule change.)
//! 2. **Per-substrate determinism** — BlueField and CXL runs replay bit
//!    for bit from `(seed, config)`; their whole-cluster digests and
//!    commit fingerprints are pinned here.
//! 3. **Trends** — the off-path cliff (measured from the schedule) and
//!    the CXL zero-log-shipping trade are asserted as *orderings*, not
//!    magic numbers.

use xenic::harness::{self, cluster_digest, RunOptions, RunResult};
use xenic::{Weakening, Workload, Xenic, XenicConfig};
use xenic_hw::HwParams;
use xenic_net::NetConfig;
use xenic_sim::SimTime;
use xenic_workloads::{Retwis, RetwisConfig, Smallbank, SmallbankConfig};

/// One run's outcome fingerprint — (committed, aborted, digest,
/// processed).
type Fingerprint = (u64, u64, u64, u64);

/// The pinned runs' shape (seed 21, fault-free): Smallbank, or Retwis.
fn run(params: HwParams, cfg: XenicConfig, smallbank: bool) -> (RunResult, Fingerprint) {
    let opts = RunOptions {
        windows: 2,
        warmup: SimTime::from_us(100),
        measure: SimTime::from_us(250),
        seed: 21,
        lanes: 1,
        ..Default::default()
    };
    let mk = |_: usize| -> Box<dyn Workload> {
        if smallbank {
            Box::new(Smallbank::new(SmallbankConfig {
                accounts_per_node: 5_000,
                ..SmallbankConfig::sim(6)
            }))
        } else {
            Box::new(Retwis::new(RetwisConfig::sim(6)))
        }
    };
    let (r, cluster) = harness::run::<Xenic>(params, NetConfig::full(), cfg, &opts, mk);
    let fp = (r.committed, r.aborted, cluster_digest(&cluster), cluster.rt.queue.processed());
    (r, fp)
}

// ---------------------------------------------------------------------
// 1. On-path identity: the paper's substrate, pinned with latencies.
// ---------------------------------------------------------------------

/// (committed, aborted, digest, processed, p50, p99) of a seed-21 quick
/// Smallbank run on `OnPathLiquidIO`. p50/p99 included: the substrate
/// accessors must be identities there.
const PIN_ONPATH_SMALLBANK: (u64, u64, u64, u64, u64, u64) =
    (491, 5, 17396022062811388106, 41882, 5440, 9600);
/// Same pin for Retwis.
const PIN_ONPATH_RETWIS: (u64, u64, u64, u64, u64, u64) =
    (405, 0, 10332575930123486873, 59779, 6464, 8576);

#[test]
fn onpath_identity_smallbank() {
    let (r, fp) = run(HwParams::paper_testbed(), XenicConfig::full(), true);
    assert_eq!(
        (fp.0, fp.1, fp.2, fp.3, r.p50_ns, r.p99_ns),
        PIN_ONPATH_SMALLBANK,
        "OnPathLiquidIO diverged from its pin"
    );
    // The paper's substrate ships its log over the DMA engine.
    assert!(r.log_ship_writes > 0);
    assert_eq!(r.cxl_log_writes, 0);
}

#[test]
fn onpath_identity_retwis() {
    let (r, fp) = run(HwParams::paper_testbed(), XenicConfig::full(), false);
    assert_eq!(
        (fp.0, fp.1, fp.2, fp.3, r.p50_ns, r.p99_ns),
        PIN_ONPATH_RETWIS,
        "OnPathLiquidIO diverged from its pin"
    );
}

/// `Weakening::CxlCoherence` must be a complete no-op away from the CXL
/// substrate — it guards a fence that only exists there.
#[test]
fn coherence_knob_is_noop_off_cxl() {
    let weak = XenicConfig { weaken: Some(Weakening::CxlCoherence), ..XenicConfig::full() };
    let (_, base) = run(HwParams::paper_testbed(), XenicConfig::full(), true);
    let (_, weakened) = run(HwParams::paper_testbed(), weak, true);
    assert_eq!(base, weakened);
}

// ---------------------------------------------------------------------
// 2. Per-substrate pinned fingerprints.
// ---------------------------------------------------------------------

/// Pinned (committed, aborted, digest, processed) per (substrate,
/// workload), seed 21. Captured from the first verified run; update
/// only for a deliberate, understood simulation change.
const PIN_BLUEFIELD_SMALLBANK: (u64, u64, u64, u64) = (386, 4, 14175707042961942407, 33170);
const PIN_BLUEFIELD_RETWIS: (u64, u64, u64, u64) = (342, 0, 8874709959816520689, 50584);
const PIN_CXL_SMALLBANK: (u64, u64, u64, u64) = (530, 6, 5803685861862156606, 42082);
const PIN_CXL_RETWIS: (u64, u64, u64, u64) = (401, 0, 12849898709383498819, 56357);

#[test]
fn substrate_fingerprints_pinned() {
    for (params, smallbank, pin) in [
        (HwParams::off_path_bluefield(), true, PIN_BLUEFIELD_SMALLBANK),
        (HwParams::off_path_bluefield(), false, PIN_BLUEFIELD_RETWIS),
        (HwParams::cxl_shared(), true, PIN_CXL_SMALLBANK),
        (HwParams::cxl_shared(), false, PIN_CXL_RETWIS),
    ] {
        let token = params.substrate.token();
        let (_, fp) = run(params, XenicConfig::full(), smallbank);
        assert!(fp.0 > 0, "{token}: substrate run must commit work");
        assert_eq!(fp, pin, "{token} fingerprint diverged");
    }
}

// ---------------------------------------------------------------------
// 3. Trend tests: the off-path cliff and the CXL log-shipping trade.
// ---------------------------------------------------------------------

/// The off-path cliff, measured from the schedule: BlueField's switch
/// hop on every PCIe crossing and DMA completion is a real event delay,
/// so the same run is strictly slower there at p50 and at p99, and
/// commits less inside the same window.
#[test]
fn offpath_latency_cliff_ordering() {
    for smallbank in [true, false] {
        let (on, _) = run(HwParams::paper_testbed(), XenicConfig::full(), smallbank);
        let (bf, _) = run(HwParams::off_path_bluefield(), XenicConfig::full(), smallbank);
        let shape = |r: &RunResult| (r.committed, r.p50_ns, r.p99_ns);
        assert!(
            bf.p50_ns > on.p50_ns && bf.p99_ns > on.p99_ns,
            "off-path cliff missing (smallbank={smallbank}): bluefield {:?} vs onpath {:?}",
            shape(&bf),
            shape(&on)
        );
        assert!(bf.committed < on.committed, "{:?} vs {:?}", shape(&bf), shape(&on));
    }
}

/// The CXL trade: zero DMA log shipping, every record a single pool
/// store — and the paper substrates are the exact complement.
#[test]
fn cxl_ships_no_log() {
    let (cxl, _) = run(HwParams::cxl_shared(), XenicConfig::full(), true);
    assert!(cxl.committed > 0);
    assert_eq!(cxl.log_ship_writes, 0, "CXL must not DMA-ship log records");
    assert!(cxl.cxl_log_writes > 0, "CXL commits must write pool records");
    let (bf, _) = run(HwParams::off_path_bluefield(), XenicConfig::full(), true);
    assert!(bf.log_ship_writes > 0);
    assert_eq!(bf.cxl_log_writes, 0);
}
