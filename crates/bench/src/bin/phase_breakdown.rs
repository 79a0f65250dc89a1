//! Per-phase latency anatomy of Xenic's commit protocol.
//!
//! Usage: `phase_breakdown [--trace <out.json>]`
//!
//! Shows where a transaction's time goes — Execute (lock+read at the
//! primaries), Validate (version re-check), Log (backup replication) —
//! at low and high load, for the standard coordinator path (multi-hop
//! transactions fold log into execute and are reported separately by
//! count). The numbers come straight from the tracer's phase spans; with
//! `--trace` the highest-load run's full event stream is additionally
//! dumped as Chrome-trace JSON (open at <https://ui.perfetto.dev>).

use std::fs;
use xenic::harness::{build, RunOptions};
use xenic::{NodeStats, Xenic, XenicConfig};
use xenic_hw::HwParams;
use xenic_net::{NetConfig, TraceConfig};
use xenic_sim::{Histogram, SimTime};
use xenic_workloads::{Retwis, RetwisConfig};

fn main() {
    let trace_path: Option<String> = xenic_bench::args::value("--trace");

    println!("# Xenic commit-phase latency breakdown (Retwis) [us: p50 / p99]");
    println!(
        "{:>8} {:>16} {:>16} {:>16} {:>10}",
        "windows", "execute", "validate", "log", "multihop%"
    );
    let loads = [2usize, 16, 64];
    for windows in loads {
        let mut cluster = build::<Xenic>(
            HwParams::paper_testbed(),
            NetConfig::full().with_trace(TraceConfig::spans().with_capacity(1 << 22)),
            XenicConfig::full(),
            &RunOptions { windows, seed: 42, ..Default::default() },
            |_| Box::new(Retwis::new(RetwisConfig::sim(6))),
        );
        cluster.run_until(SimTime::from_ms(2));
        let t0 = cluster.rt.now();
        for st in &mut cluster.states {
            st.stats.start_measuring(t0);
        }
        cluster.run_until(SimTime::from_ms(8));
        let mut exec = Histogram::new();
        let mut val = Histogram::new();
        let mut log = Histogram::new();
        for s in cluster.rt.tracer().spans() {
            if s.begin < t0 {
                continue; // warmup
            }
            match s.name {
                "Execute" => exec.record(s.dur_ns()),
                "Validate" => val.record(s.dur_ns()),
                "Log" => log.record(s.dur_ns()),
                _ => {}
            }
        }
        let total = NodeStats::total(cluster.states.iter().map(|s| &s.stats));
        let (mh, all) = (total.multihop.get(), total.committed_all.get());
        let f = |h: &Histogram| {
            format!(
                "{:>6.1} /{:>6.1}",
                h.median() as f64 / 1e3,
                h.p99() as f64 / 1e3
            )
        };
        println!(
            "{windows:>8} {:>16} {:>16} {:>16} {:>9.0}%",
            f(&exec),
            f(&val),
            f(&log),
            mh as f64 / all.max(1) as f64 * 100.0
        );
        if windows == *loads.last().unwrap() {
            if let Some(path) = &trace_path {
                fs::write(path, cluster.rt.tracer().chrome_json()).expect("write trace");
                println!("(trace written to {path}; open at https://ui.perfetto.dev)");
            }
        }
    }
    println!();
    println!("(execute grows with queueing; validate stays one NIC-NIC roundtrip;");
    println!(" log includes the backup DMA durability wait)");
}
