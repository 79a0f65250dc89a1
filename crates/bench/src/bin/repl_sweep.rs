//! Replication-backend sweep: availability, throughput, and latency of
//! each pluggable NIC-resident replication backend (DESIGN.md §15) as a
//! function of injected network fault rate.
//!
//! Usage: `repl_sweep [--quick] [--jobs N]`
//!
//! For every backend — DMA log shipping (the paper's scheme), Raft-style
//! leader commit, Hermes-style invalidation — and every drop rate, one
//! deterministic Smallbank run reports per-server throughput of metric
//! transactions, median/p99 latency, availability (committed fraction of
//! finished transaction attempts), retransmission rounds, and the
//! backend's own protocol events (Raft re-elections, Hermes
//! invalidations). The 0.000 rows run an inert plan, so they reproduce
//! each backend's fault-free numbers exactly; every other row replays
//! bit for bit from the same seed.
//!
//! Every run is also **gated**: the committed history is recorded and
//! verified against the Adya DSG checker, and the binary exits non-zero
//! if any (backend, rate) point fails — the sweep doubles as an
//! end-to-end proof that all three backends stay serializable at every
//! measured fault rate. Results land in `results/repl_sweep.csv`.
//! Rows are independent simulations: `--jobs N` (default: all cores)
//! computes them on worker threads; output is byte-identical to
//! `--jobs 1`.

use std::fs;
use xenic::api::Workload;
use xenic::harness::{run_recorded, RunOptions};
use xenic::{NodeStats, ReplBackend, Xenic, XenicConfig};
use xenic_bench::{args, par_points};
use xenic_check::{check_history, CheckOptions};
use xenic_hw::HwParams;
use xenic_net::{FaultPlan, NetConfig, TraceConfig};
use xenic_sim::SimTime;
use xenic_workloads::{Smallbank, SmallbankConfig};

fn main() {
    let quick = args::flag("--quick");
    let jobs = args::jobs();

    let params = HwParams::paper_testbed();
    let opts = RunOptions {
        windows: if quick { 8 } else { 32 },
        warmup: SimTime::from_ms(1),
        measure: SimTime::from_ms(if quick { 1 } else { 4 }),
        seed: 42,
        lanes: 1,
        ..Default::default()
    };
    let accounts = if quick { 10_000 } else { 60_000 };
    let mk = move |_: usize| -> Box<dyn Workload> {
        Box::new(Smallbank::new(SmallbankConfig {
            accounts_per_node: accounts,
            ..SmallbankConfig::sim(6)
        }))
    };

    let rates: &[f64] = if quick {
        &[0.0, 0.01]
    } else {
        &[0.0, 0.001, 0.005, 0.01, 0.02, 0.05]
    };
    let points: Vec<(ReplBackend, f64)> = ReplBackend::ALL
        .iter()
        .flat_map(|&b| rates.iter().map(move |&r| (b, r)))
        .collect();

    println!(
        "# Replication-backend sweep: Smallbank, windows={}, every row DSG-verified",
        opts.windows
    );
    println!(
        "{:>9} {:>8} {:>13} {:>9} {:>9} {:>7} {:>9} {:>8} {:>8}",
        "backend", "drop", "tput/server", "p50[us]", "p99[us]", "avail", "retrans", "elects", "invals"
    );

    let rows = par_points(jobs, &points, |&(backend, rate)| {
        let net = NetConfig::full()
            .with_faults(FaultPlan::lossy(rate, rate / 2.0, 500))
            .with_trace(TraceConfig::spans());
        let (r, cluster, recorder) = run_recorded::<Xenic>(
            params.clone(),
            net,
            XenicConfig::with_backend(backend),
            &opts,
            mk,
        );
        let retrans = cluster.rt.tracer().instant_total("Retransmit");
        let total = NodeStats::total(cluster.states.iter().map(|s| &s.stats));
        let elections = total.raft_elections.get();
        let invals = total.hermes_invalidations.get();
        let report = check_history(&recorder.snapshot(), &CheckOptions::strict());
        (r, retrans, elections, invals, report)
    });

    let mut csv = String::from(
        "backend,drop_prob,tput_per_server,p50_ns,p99_ns,aborted,availability,\
         retransmits,raft_elections,hermes_invalidations,serializable\n",
    );
    let mut violations = 0usize;
    for (&(backend, rate), (r, retrans, elections, invals, report)) in points.iter().zip(&rows) {
        let finished = r.committed + r.aborted;
        let avail = if finished == 0 {
            0.0
        } else {
            r.committed as f64 / finished as f64
        };
        let ok = report.is_serializable();
        if !ok {
            violations += 1;
        }
        println!(
            "{:>9} {rate:>8.3} {:>13.0} {:>9.1} {:>9.1} {:>7.4} {:>9} {:>8} {:>8}{}",
            backend.token(),
            r.tput_per_server,
            r.p50_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
            avail,
            retrans,
            elections,
            invals,
            if ok { "" } else { "   NOT SERIALIZABLE" },
        );
        if !ok {
            println!("{}", report.describe());
        }
        csv.push_str(&format!(
            "{},{rate},{},{},{},{},{avail},{retrans},{elections},{invals},{}\n",
            backend.token(),
            r.tput_per_server,
            r.p50_ns,
            r.p99_ns,
            r.aborted,
            ok
        ));
    }
    fs::create_dir_all("results").ok();
    fs::write("results/repl_sweep.csv", csv).ok();
    println!("(CSV written to results/repl_sweep.csv)");
    if violations > 0 {
        eprintln!("{violations} sweep point(s) failed DSG verification");
        std::process::exit(1);
    }
    println!(
        "all {} (backend, rate) points verified serializable",
        points.len()
    );
}
