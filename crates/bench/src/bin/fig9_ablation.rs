//! Figure 9: contribution of Xenic's design features (paper §5.7).
//!
//! (a) Retwis per-server throughput, sequentially enabling the
//!     throughput-oriented mechanisms on top of the DrTM+H-like baseline:
//!     smart remote operations → aggregated Ethernet transmission →
//!     asynchronous (vectored) DMA.
//! (b) Smallbank median latency, sequentially enabling the
//!     latency-oriented mechanisms: smart remote ops → NIC execution
//!     (coordinator-side function shipping) → the multi-hop OCC pattern.
//!
//! DrTM+H runs alongside as the external reference, as in the paper.
//!
//! All ten runs (reference + four steps per panel) are independent
//! simulations; `--jobs N` (default: all cores) computes them on worker
//! threads and prints after collection, so output is byte-identical to
//! `--jobs 1`.

use xenic::api::Workload;
use xenic::harness::{run_xenic, RunOptions};
use xenic::XenicConfig;
use xenic_baselines::{run_baseline, BaselineKind};
use xenic_hw::HwParams;
use xenic_net::NetConfig;
use xenic_bench::{args, par_points};
use xenic_sim::SimTime;
use xenic_workloads::{Retwis, RetwisConfig, Smallbank, SmallbankConfig};

fn main() {
    let jobs = args::jobs();
    let params = HwParams::paper_testbed();
    let mk_rw =
        |_: usize| -> Box<dyn Workload> { Box::new(Retwis::new(RetwisConfig::sim(6))) };
    let mk_sb =
        |_: usize| -> Box<dyn Workload> { Box::new(Smallbank::new(SmallbankConfig::sim(6))) };

    // ---- (a) Retwis throughput at high load ----
    let tput_opts = RunOptions {
        windows: 64,
        warmup: SimTime::from_ms(2),
        measure: SimTime::from_ms(8),
        seed: 42,
        lanes: 1,
        ..Default::default()
    };
    let base_cfg = XenicConfig::fig9_baseline();
    let steps_a: [(&str, XenicConfig, NetConfig); 4] = [
        ("Xenic baseline", base_cfg, NetConfig::baseline()),
        (
            "+ smart remote ops",
            XenicConfig {
                smart_remote_ops: true,
                ..base_cfg
            },
            NetConfig::baseline(),
        ),
        (
            "+ aggregation",
            XenicConfig {
                smart_remote_ops: true,
                ..base_cfg
            },
            NetConfig {
                async_dma: false,
                ..NetConfig::full()
            },
        ),
        (
            "+ async DMA",
            XenicConfig {
                smart_remote_ops: true,
                ..base_cfg
            },
            NetConfig::full(),
        ),
    ];
    // ---- (b) config ----
    let lat_opts = RunOptions {
        windows: 2,
        warmup: SimTime::from_ms(2),
        measure: SimTime::from_ms(8),
        seed: 42,
        lanes: 1,
        ..Default::default()
    };
    let steps_b: [(&str, XenicConfig); 4] = [
        ("Xenic baseline", base_cfg),
        (
            "+ smart remote ops",
            XenicConfig {
                smart_remote_ops: true,
                ..base_cfg
            },
        ),
        (
            "+ NIC execution",
            XenicConfig {
                smart_remote_ops: true,
                nic_execution: true,
                ..base_cfg
            },
        ),
        (
            "+ OCC optimization",
            XenicConfig {
                smart_remote_ops: true,
                nic_execution: true,
                occ_multihop: true,
                ..base_cfg
            },
        ),
    ];
    // Ten independent runs: [a: DrTM+H, 4 steps][b: DrTM+H, 4 steps].
    let point_ids: Vec<usize> = (0..10).collect();
    let results = par_points(jobs, &point_ids, |&i| match i {
        0 => run_baseline(BaselineKind::DrtmH, params.clone(), &tput_opts, mk_rw),
        1..=4 => {
            let (_, cfg, net) = &steps_a[i - 1];
            run_xenic(params.clone(), net.clone(), *cfg, &tput_opts, mk_rw)
        }
        5 => run_baseline(BaselineKind::DrtmH, params.clone(), &lat_opts, mk_sb),
        _ => {
            let (_, cfg) = &steps_b[i - 6];
            run_xenic(params.clone(), NetConfig::full(), *cfg, &lat_opts, mk_sb)
        }
    });

    // ---- (a) Retwis throughput at high load ----
    println!("# Figure 9(a): Retwis per-server throughput [txn/s], windows=64");
    let drtmh = &results[0];
    println!("{:<24} {:>12.0}", "DrTM+H", drtmh.tput_per_server);
    let base_tput = results[1].tput_per_server;
    for (i, (label, _, _)) in steps_a.iter().enumerate() {
        let r = &results[i + 1];
        println!(
            "{label:<24} {:>12.0}   ({:.2}x baseline, {:.2}x DrTM+H) [aborts={} nic={:.1} host={:.1} p50={:.0}us]",
            r.tput_per_server,
            r.tput_per_server / base_tput,
            r.tput_per_server / drtmh.tput_per_server,
            r.aborted,
            r.nic_busy_cores,
            r.host_busy_cores,
            r.p50_ns as f64 / 1e3,
        );
    }
    println!("(paper: +47% smart ops, 1.98x with aggregation, 2.30x cumulative,");
    println!(" 2.07x relative to DrTM+H)");
    println!();

    // ---- (b) Smallbank median latency at low load ----
    println!("# Figure 9(b): Smallbank median latency [us], windows=2");
    let drtmh = &results[5];
    println!("{:<24} {:>9.1}", "DrTM+H", drtmh.p50_ns as f64 / 1e3);
    let base_lat = results[6].p50_ns as f64 / 1e3;
    for (i, (label, _)) in steps_b.iter().enumerate() {
        let r = &results[i + 6];
        let p50 = r.p50_ns as f64 / 1e3;
        println!(
            "{label:<24} {p50:>9.1}   ({:+.0}% vs baseline, {:.2}x DrTM+H)",
            (p50 / base_lat - 1.0) * 100.0,
            p50 / (drtmh.p50_ns as f64 / 1e3)
        );
    }
    println!("(paper: baseline 1.37x DrTM+H; -20% smart ops; -32% NIC execution;");
    println!(" -42% multi-hop, landing 22% below DrTM+H)");
}
