//! The four benchmark workloads. All run `XenicConfig::full()` over
//! `NetConfig::full()`, fault-free, closed-loop at a fixed window count
//! per node; `BENCHMARK.json` records why each is here.

use xenic::api::Workload;
use xenic_hw::HwParams;
use xenic_net::NetConfig;
use xenic_sim::SimTime;
use xenic_workloads::{
    Retwis, RetwisConfig, Smallbank, SmallbankConfig, Tpcc, TpccConfig, TpccMix, YcsbE, YcsbEConfig,
};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wl {
    /// Short 1–4-key transactions at saturation (paper Fig 8 point).
    RetwisSat,
    /// The full five-type TPC-C mix: wide transactions.
    TpccFull,
    /// YCSB-E range scans on an ordered index that outgrows L2.
    YcsbeScan,
    /// 64 nodes on two scheduler lanes: the only run of `net::lanes`.
    Smallbank64nLanes2,
}

impl Wl {
    pub const ALL: [Wl; 4] = [Wl::RetwisSat, Wl::TpccFull, Wl::YcsbeScan, Wl::Smallbank64nLanes2];

    pub fn name(self) -> &'static str {
        match self {
            Wl::RetwisSat => "retwis_sat",
            Wl::TpccFull => "tpcc_full",
            Wl::YcsbeScan => "ycsbe_scan",
            Wl::Smallbank64nLanes2 => "smallbank_64n_lanes2",
        }
    }

    pub fn from_name(name: &str) -> Option<Wl> {
        Wl::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn nodes(self) -> usize {
        match self {
            Wl::Smallbank64nLanes2 => 64,
            _ => 6,
        }
    }

    pub fn params(self) -> HwParams {
        HwParams { nodes: self.nodes(), ..HwParams::paper_testbed() }
    }

    /// Scheduler lanes the timed repeats run on.
    pub fn lanes(self) -> usize {
        match self {
            Wl::Smallbank64nLanes2 => 2,
            _ => 1,
        }
    }

    /// The lanes workload needs the lane-safe RNG discipline; the serial
    /// ones keep the default (global) discipline every pinned digest in
    /// the repo was recorded under.
    pub fn net(self) -> NetConfig {
        match self {
            Wl::Smallbank64nLanes2 => NetConfig::full().with_per_node_rng(),
            _ => NetConfig::full(),
        }
    }

    /// Closed-loop application windows per node.
    pub fn windows(self) -> usize {
        match self {
            Wl::Smallbank64nLanes2 => 8,
            _ => 64,
        }
    }

    /// Measured window in simulated time. Sized so one window is about
    /// 2 s of wall time on the 2-core reference host (shorter windows
    /// are noisier, longer ones break the driver's time cap) and backs
    /// p99 with well over 10 000 latency samples.
    pub fn window(self) -> SimTime {
        match self {
            Wl::RetwisSat => SimTime::from_us(1_800),
            Wl::TpccFull => SimTime::from_us(2_700),
            Wl::YcsbeScan => SimTime::from_us(3_600),
            Wl::Smallbank64nLanes2 => SimTime::from_us(1_100),
        }
    }

    /// Fewest timed repeats a full run makes.
    pub fn min_repeats(self) -> usize {
        match self {
            Wl::Smallbank64nLanes2 => 8,
            _ => 6,
        }
    }

    /// A fresh generator for one node.
    pub fn workload(self) -> Box<dyn Workload> {
        match self {
            Wl::RetwisSat => Box::new(Retwis::new(RetwisConfig::sim(6))),
            Wl::TpccFull => Box::new(Tpcc::new(TpccConfig::sim(6, TpccMix::Full))),
            // Four times the sim preset: the ordered index outgrows L2
            // and the build clears 0.25 s.
            Wl::YcsbeScan => {
                Box::new(YcsbE::new(YcsbEConfig { keys_per_node: 200_000, ..YcsbEConfig::sim(6) }))
            }
            // 1/24 of the sim preset: 64 nodes of it build in about half a
            // second; the full preset takes 40 s and 10 GB per build.
            Wl::Smallbank64nLanes2 => Box::new(Smallbank::new(SmallbankConfig {
                accounts_per_node: 10_000,
                ..SmallbankConfig::sim(64)
            })),
        }
    }
}
