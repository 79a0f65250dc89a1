//! Figure 8: throughput–latency curves for the five systems on all four
//! workloads (paper §5.2–§5.5).
//!
//! Usage: `fig8_sweep [tpcc_no|tpcc_full|retwis|smallbank|all] [--fast]
//! [--jobs N] [--trace <out.json>]`
//!
//! Each curve sweeps the closed-loop window count per node and reports
//! per-server throughput of metric transactions against median latency.
//! Sweep points are independent simulations, so `--jobs N` (default: all
//! cores) runs them on worker threads; results are merged in input order,
//! making the tables and CSV byte-identical to a `--jobs 1` run.
//! Results print as aligned tables and are also written as CSV to
//! `results/fig8_<workload>.csv`. With `--trace`, one additional traced
//! Xenic run (Retwis, moderate load, gauges on) is dumped as Chrome-trace
//! JSON — open it at <https://ui.perfetto.dev> to see per-transaction
//! phase spans and per-component gauge tracks for every node.

use std::fs;
use xenic::api::Workload;
use xenic::harness::{run, RunOptions};
use xenic::{Xenic, XenicConfig};
use xenic_bench::{args, curves_csv, par_points, print_curve, run_system, CurvePoint, System};
use xenic_hw::HwParams;
use xenic_net::{NetConfig, TraceConfig};
use xenic_sim::SimTime;
use xenic_workloads::{Retwis, RetwisConfig, Smallbank, SmallbankConfig, Tpcc, TpccConfig, TpccMix};

fn mk(name: &str) -> Box<dyn Fn(usize) -> Box<dyn Workload>> {
    match name {
        "tpcc_no" => Box::new(|_| {
            Box::new(Tpcc::new(TpccConfig::sim(6, TpccMix::NewOrderOnly))) as Box<dyn Workload>
        }),
        "tpcc_full" => Box::new(|_| {
            Box::new(Tpcc::new(TpccConfig::sim(6, TpccMix::Full))) as Box<dyn Workload>
        }),
        "retwis" => {
            Box::new(|_| Box::new(Retwis::new(RetwisConfig::sim(6))) as Box<dyn Workload>)
        }
        "smallbank" => {
            Box::new(|_| Box::new(Smallbank::new(SmallbankConfig::sim(6))) as Box<dyn Workload>)
        }
        other => panic!("unknown workload {other}"),
    }
}

fn run_workload(name: &str, fast: bool, jobs: usize) {
    let params = HwParams::paper_testbed();
    let windows: &[usize] = if fast {
        &[2, 16, 64]
    } else {
        &[2, 8, 24, 64, 96]
    };
    let measure = if fast {
        SimTime::from_ms(4)
    } else {
        SimTime::from_ms(6)
    };
    println!("==== Figure 8 [{name}] ====");
    // Every (system, window) pair is an independent simulation; fan them
    // all out and regroup into per-system curves afterwards.
    let points: Vec<(System, usize)> = System::ALL
        .iter()
        .flat_map(|s| windows.iter().map(move |w| (*s, *w)))
        .collect();
    let results = par_points(jobs, &points, |&(sys, w)| {
        let opts = RunOptions {
            windows: w,
            warmup: SimTime::from_ms(2),
            measure,
            seed: 42,
            lanes: 1,
            ..Default::default()
        };
        let r = run_system(sys, params.clone(), &opts, mk(name).as_ref());
        CurvePoint {
            windows: w,
            tput: r.tput_per_server,
            p50_us: r.p50_ns as f64 / 1000.0,
            p99_us: r.p99_ns as f64 / 1000.0,
            result: r,
        }
    });
    let mut curves = Vec::new();
    for (si, sys) in System::ALL.into_iter().enumerate() {
        let curve: Vec<CurvePoint> =
            results[si * windows.len()..(si + 1) * windows.len()].to_vec();
        print_curve(&format!("{name} / {}", sys.label()), &curve);
        curves.push((sys, curve));
    }
    // Headline comparisons, paper-style.
    let xenic_peak = xenic_bench::peak_tput(&curves[0].1);
    let best_alt = curves[1..]
        .iter()
        .map(|(s, c)| (xenic_bench::peak_tput(c), s.label()))
        .fold((0.0, ""), |a, b| if b.0 > a.0 { b } else { a });
    let xenic_lat = xenic_bench::min_p50(&curves[0].1);
    let alt_lat = curves[1..]
        .iter()
        .map(|(s, c)| (xenic_bench::min_p50(c), s.label()))
        .fold((f64::INFINITY, ""), |a, b| if b.0 < a.0 { b } else { a });
    println!();
    println!(
        "headline: Xenic peak {:.0}/s/server = {:.2}x best alternative ({} at {:.0})",
        xenic_peak,
        xenic_peak / best_alt.0,
        best_alt.1,
        best_alt.0
    );
    println!(
        "          Xenic min p50 {:.1}us vs best alternative {:.1}us ({}) -> {:+.0}%",
        xenic_lat,
        alt_lat.0,
        alt_lat.1,
        (xenic_lat / alt_lat.0 - 1.0) * 100.0
    );
    fs::create_dir_all("results").ok();
    fs::write(format!("results/fig8_{name}.csv"), curves_csv(&curves)).ok();
    println!("(CSV written to results/fig8_{name}.csv)");
    println!();
}

/// One traced Xenic run (Retwis, moderate load) dumped as Chrome JSON.
fn dump_trace(path: &str) {
    let (r, cluster) = run::<Xenic>(
        HwParams::paper_testbed(),
        NetConfig::full().with_trace(TraceConfig::full().with_capacity(1 << 22)),
        XenicConfig::full(),
        &RunOptions {
            windows: 48,
            warmup: SimTime::from_ms(1),
            measure: SimTime::from_ms(2),
            seed: 42,
            lanes: 1,
            ..Default::default()
        },
        |_| Box::new(Retwis::new(RetwisConfig::sim(6))) as Box<dyn Workload>,
    );
    let tracer = cluster.rt.tracer();
    fs::write(path, tracer.chrome_json()).expect("write trace");
    println!(
        "traced run: {} committed, {} events buffered ({} evicted)",
        r.committed,
        tracer.len(),
        tracer.dropped()
    );
    println!("(trace written to {path}; open at https://ui.perfetto.dev)");
}

fn main() {
    let fast = args::flag("--fast");
    let jobs = args::jobs();
    let trace_path: Option<String> = args::value("--trace");
    let workload = args::positional(&["--trace", "--jobs"]);
    let which: Vec<&str> = match &workload {
        Some(w) if w != "all" => vec![w.as_str()],
        Some(_) => vec!["tpcc_no", "tpcc_full", "retwis", "smallbank"],
        // `fig8_sweep --trace out.json` with no workload: trace only,
        // skipping the (long) sweeps.
        None if trace_path.is_some() => vec![],
        None => vec!["tpcc_no", "tpcc_full", "retwis", "smallbank"],
    };
    for w in which {
        run_workload(w, fast, jobs);
    }
    if let Some(path) = trace_path {
        dump_trace(&path);
    }
}
