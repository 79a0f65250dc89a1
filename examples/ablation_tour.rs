//! A tour of Xenic's design knobs (the Figure 9 ablation surface).
//!
//! Runs one moderate-load Smallbank configuration repeatedly, toggling
//! one mechanism at a time, so you can see what each buys — and what the
//! system behaves like without it.
//!
//! ```sh
//! cargo run --release --example ablation_tour
//! ```

use xenic::api::Workload;
use xenic::harness::{run_xenic, RunOptions};
use xenic::XenicConfig;
use xenic_hw::HwParams;
use xenic_net::NetConfig;
use xenic_sim::SimTime;
use xenic_workloads::{Smallbank, SmallbankConfig};

fn main() {
    let params = HwParams::paper_testbed();
    let mk = |_: usize| -> Box<dyn Workload> { Box::new(Smallbank::new(SmallbankConfig::sim(6))) };
    let opts = RunOptions {
        windows: 32,
        warmup: SimTime::from_ms(2),
        measure: SimTime::from_ms(8),
        seed: 9,
        lanes: 1,
        ..Default::default()
    };
    let full = XenicConfig::full();
    let variants: [(&str, XenicConfig, NetConfig); 6] = [
        ("full design", full, NetConfig::full()),
        (
            "- multi-hop OCC",
            XenicConfig {
                occ_multihop: false,
                ..full
            },
            NetConfig::full(),
        ),
        (
            "- NIC execution",
            XenicConfig {
                nic_execution: false,
                occ_multihop: false,
                ..full
            },
            NetConfig::full(),
        ),
        (
            "- smart remote ops",
            XenicConfig::fig9_baseline(),
            NetConfig::full(),
        ),
        (
            "- async DMA",
            full,
            NetConfig {
                async_dma: false,
                ..NetConfig::full()
            },
        ),
        (
            "- aggregation",
            full,
            NetConfig {
                aggregation: false,
                ..NetConfig::full()
            },
        ),
    ];
    println!("Smallbank, 32 windows/node — one knob off at a time\n");
    println!(
        "{:<20} {:>14} {:>10} {:>9} {:>9}",
        "configuration", "txn/s/server", "p50[us]", "hostCPU", "nicCPU"
    );
    for (name, cfg, net) in variants {
        let r = run_xenic(params.clone(), net, cfg, &opts, mk);
        println!(
            "{name:<20} {:>14.0} {:>10.1} {:>9.1} {:>9.1}",
            r.tput_per_server,
            r.p50_ns as f64 / 1e3,
            r.host_busy_cores,
            r.nic_busy_cores
        );
    }
    println!("\nReading the table: smart remote ops and aggregation carry the");
    println!("throughput; NIC execution and multi-hop carry the latency; async");
    println!("DMA keeps NIC cores from blocking on PCIe completions (§4.3).");
}
