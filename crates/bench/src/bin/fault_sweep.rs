//! Fault sweep: Xenic throughput, latency, and abort behavior as a
//! function of injected network fault rates.
//!
//! Usage: `fault_sweep [--fast] [--dup] [--jitter <ns>] [--jobs N]
//! [--trace <out.json>]`
//!
//! Sweeps a uniform per-link message drop probability (optionally with an
//! equal duplication probability and delay jitter) and reports per-server
//! throughput of metric transactions, median latency, abort counts, and
//! — via the tracer's retransmission instants — how many retransmission
//! rounds the loss-tolerance machinery fired at each rate. The 0.000 row
//! runs with an *inert* plan and therefore reproduces the fault-free
//! numbers exactly. Every row is deterministic: the fault schedule
//! derives from the cluster seed, so a rerun replays the same universe.
//! Results also land in `results/fault_sweep.csv`; with `--trace`, the
//! highest-rate run's event stream is dumped as Chrome-trace JSON. Rows
//! are independent simulations: `--jobs N` (default: all cores) computes
//! them on worker threads and prints in rate order afterwards, so output
//! is byte-identical to `--jobs 1`.

use std::fs;
use xenic::api::Workload;
use xenic::harness::{run, RunOptions};
use xenic::{Xenic, XenicConfig};
use xenic_hw::HwParams;
use xenic_net::{FaultPlan, NetConfig, TraceConfig};
use xenic_bench::{args, par_points};
use xenic_sim::SimTime;
use xenic_workloads::{Smallbank, SmallbankConfig};

fn main() {
    let fast = args::flag("--fast");
    let dup = args::flag("--dup");
    let jitter_ns: u64 = args::value("--jitter").unwrap_or(0);
    let trace_path: Option<String> = args::value("--trace");
    let jobs = args::jobs();

    let params = HwParams::paper_testbed();
    let opts = RunOptions {
        windows: 48,
        warmup: SimTime::from_ms(2),
        measure: SimTime::from_ms(if fast { 3 } else { 6 }),
        seed: 42,
        lanes: 1,
        ..Default::default()
    };
    let mk = |_: usize| -> Box<dyn Workload> {
        Box::new(Smallbank::new(SmallbankConfig {
            accounts_per_node: 60_000,
            ..SmallbankConfig::sim(6)
        }))
    };

    let rates = [0.0, 0.001, 0.005, 0.01, 0.02, 0.05];
    println!(
        "# Fault sweep: Smallbank, windows={}, dup={}, jitter={}ns",
        opts.windows,
        if dup { "=drop" } else { "off" },
        jitter_ns
    );
    println!(
        "{:>8} {:>14} {:>10} {:>10} {:>12} {:>10}",
        "drop", "tput/server", "p50[us]", "p99[us]", "aborted", "retrans"
    );
    let mut csv = String::from("drop_prob,tput_per_server,p50_ns,p99_ns,aborted,retransmits\n");
    let last_rate = *rates.last().unwrap();
    let want_trace = trace_path.is_some();
    // Each rate is an independent universe; fan the rows out and print in
    // rate order once all have landed.
    let rows = par_points(jobs, &rates, |&rate| {
        let dup_rate = if dup { rate } else { 0.0 };
        // Span tracing is a pure observer, so the traced rows replay the
        // untraced universe exactly — the retransmit count comes from the
        // tracer's eviction-proof instant tally.
        let plan = FaultPlan::lossy(rate, dup_rate, jitter_ns);
        let net = NetConfig::full()
            .with_faults(plan)
            .with_trace(TraceConfig::spans());
        let (r, cluster) = run::<Xenic>(params.clone(), net, XenicConfig::full(), &opts, mk);
        let retrans = cluster.rt.tracer().instant_total("Retransmit");
        let trace_json = if want_trace && rate == last_rate {
            Some(cluster.rt.tracer().chrome_json())
        } else {
            None
        };
        (r, retrans, trace_json)
    });
    let base_tput = rows[0].0.tput_per_server;
    for (&rate, (r, retrans, trace_json)) in rates.iter().zip(&rows) {
        println!(
            "{rate:>8.3} {:>14.0} {:>10.1} {:>10.1} {:>12} {:>10}   ({:.2}x fault-free)",
            r.tput_per_server,
            r.p50_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
            r.aborted,
            retrans,
            r.tput_per_server / base_tput,
        );
        csv.push_str(&format!(
            "{rate},{},{},{},{},{retrans}\n",
            r.tput_per_server, r.p50_ns, r.p99_ns, r.aborted
        ));
        if let (Some(json), Some(path)) = (trace_json, &trace_path) {
            fs::write(path, json).expect("write trace");
            println!("(trace written to {path}; open at https://ui.perfetto.dev)");
        }
    }
    fs::create_dir_all("results").ok();
    fs::write("results/fault_sweep.csv", csv).ok();
    println!("(CSV written to results/fault_sweep.csv)");
}
