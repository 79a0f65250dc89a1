//! Cache-pressure ablation (paper §4.3.3).
//!
//! "Xenic uses SmartNIC memory to cache objects, adapting to available
//! capacity. When caching is ineffective, due to the access pattern or
//! cache eviction policy, the need for DMA lookups increases. These
//! misses incur PCIe bandwidth overhead, potentially becoming a
//! bottleneck."
//!
//! This harness shrinks the NIC cache budget from full residency down to
//! nothing on the Retwis workload and reports throughput, latency, and
//! DMA traffic at each size. Budgets are independent simulations:
//! `--jobs N` (default: all cores) computes them on worker threads and
//! prints in budget order afterwards, byte-identical to `--jobs 1`.

use xenic::api::Workload;
use xenic::harness::{run_xenic, RunOptions};
use xenic::XenicConfig;
use xenic_hw::HwParams;
use xenic_net::NetConfig;
use xenic_bench::{args, par_points};
use xenic_sim::SimTime;
use xenic_workloads::{Retwis, RetwisConfig};

fn main() {
    let jobs = args::jobs();
    let params = HwParams::paper_testbed();
    let mk = |_: usize| -> Box<dyn Workload> { Box::new(Retwis::new(RetwisConfig::sim(6))) };
    let opts = RunOptions {
        windows: 48,
        warmup: SimTime::from_ms(2),
        measure: SimTime::from_ms(6),
        seed: 42,
        lanes: 1,
        ..Default::default()
    };
    println!("# Cache-pressure sweep: Retwis, 48 windows/node, 100k keys/shard");
    println!(
        "{:>12} {:>14} {:>10} {:>14} {:>10}",
        "cache[vals]", "txn/s/server", "p50[us]", "dma-el/txn", "vec-fill"
    );
    let budgets = [1usize << 20, 1 << 16, 1 << 14, 1 << 12, 0];
    let rows = par_points(jobs, &budgets, |&budget| {
        let cfg = XenicConfig {
            nic_cache: budget > 0,
            nic_cache_values: budget.max(1),
            ..XenicConfig::full()
        };
        run_xenic(params.clone(), NetConfig::full(), cfg, &opts, mk)
    });
    for (&budget, r) in budgets.iter().zip(&rows) {
        println!(
            "{:>12} {:>14.0} {:>10.1} {:>14.1} {:>10.1}",
            if budget > 0 {
                budget.to_string()
            } else {
                "off".to_string()
            },
            r.tput_per_server,
            r.p50_ns as f64 / 1e3,
            r.dma_elements_per_txn,
            r.dma_vector_fill,
        );
    }
    println!();
    println!("(expected shape: full residency at the top; as the cache shrinks,");
    println!(" lookups shift to hint-bounded DMA reads — throughput falls and");
    println!(" latency rises, but the hint mechanism keeps lookups one roundtrip)");
}
