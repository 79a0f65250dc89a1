//! Substrate sweep: throughput, latency, and log-shipping behaviour of
//! the transaction engine on each NIC substrate profile (DESIGN.md §17).
//!
//! Usage: `substrate_sweep [--quick] [--jobs N]`
//!
//! Rows are (substrate, workload) points over `onpath` (the paper's
//! LiquidIO testbed), `bluefield` (off-path, behind a PCIe switch) and
//! `cxl` (shared memory pool), all with the paper's NIC-resident
//! metadata.
//!
//! Every row is DSG-gated: the committed history is recorded and
//! verified against the Adya checker, and the binary exits non-zero on
//! any violation. Two trend contracts are also enforced, the ones the
//! substrate model exists to reproduce:
//!
//! 1. **The off-path cliff** — the switch hop BlueField adds to every
//!    PCIe crossing and DMA completion lands in the event schedule, so
//!    the measured latency of the same workload is strictly worse there:
//!    p50 and p99 (bluefield) > p50 and p99 (onpath), per workload.
//! 2. **The CXL log-shipping trade** — on `cxl` every commit record is a
//!    single pool store (`cxl_log_writes > 0`, `log_ship_writes == 0`);
//!    on the DMA substrates the complement holds.
//!
//! Results land in `results/substrate_sweep.csv`. Rows are independent
//! deterministic simulations; `--jobs N` output is byte-identical to
//! `--jobs 1`.

use std::fs;
use xenic::api::Workload;
use xenic::harness::{run_recorded, RunOptions, RunResult};
use xenic::{Xenic, XenicConfig};
use xenic_bench::{args, par_points};
use xenic_check::{check_history, CheckOptions};
use xenic_hw::{HwParams, SubstrateKind};
use xenic_net::NetConfig;
use xenic_sim::SimTime;
use xenic_workloads::{Retwis, RetwisConfig, Smallbank, SmallbankConfig};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Wl {
    Smallbank,
    Retwis,
}

impl Wl {
    fn token(self) -> &'static str {
        match self {
            Wl::Smallbank => "smallbank",
            Wl::Retwis => "retwis",
        }
    }
}

type Point = (SubstrateKind, Wl);

fn params_for(kind: SubstrateKind) -> HwParams {
    HwParams::with_substrate(kind)
}

fn main() {
    let quick = args::flag("--quick");
    let jobs = args::jobs();

    let opts = RunOptions {
        windows: if quick { 8 } else { 32 },
        warmup: SimTime::from_ms(1),
        measure: SimTime::from_ms(if quick { 1 } else { 4 }),
        seed: 42,
        lanes: 1,
        ..Default::default()
    };
    let accounts = if quick { 10_000 } else { 60_000 };

    let mut points: Vec<Point> = Vec::new();
    for wl in [Wl::Smallbank, Wl::Retwis] {
        for kind in SubstrateKind::ALL {
            points.push((kind, wl));
        }
    }

    println!(
        "# Substrate sweep: windows={}, every row DSG-verified",
        opts.windows
    );
    println!(
        "{:>10} {:>10} {:>13} {:>9} {:>9} {:>8} {:>9} {:>9}",
        "substrate", "workload", "tput/server", "p50[us]", "p99[us]", "aborts", "logShip", "cxlLog"
    );

    let rows = par_points(jobs, &points, |&(kind, wl)| {
        let params = params_for(kind);
        let mk = move |_: usize| -> Box<dyn Workload> {
            match wl {
                Wl::Smallbank => Box::new(Smallbank::new(SmallbankConfig {
                    accounts_per_node: accounts,
                    ..SmallbankConfig::sim(6)
                })),
                Wl::Retwis => Box::new(Retwis::new(RetwisConfig::sim(6))),
            }
        };
        let (r, _, recorder) =
            run_recorded::<Xenic>(params, NetConfig::full(), XenicConfig::full(), &opts, mk);
        let report = check_history(&recorder.snapshot(), &CheckOptions::strict());
        (r, report)
    });

    let mut csv = String::from(
        "substrate,workload,tput_per_server,p50_ns,p99_ns,aborted,\
         log_ship_writes,cxl_log_writes,serializable\n",
    );
    let mut violations = 0usize;
    for (&(kind, wl), (r, report)) in points.iter().zip(&rows) {
        let sub = kind.token();
        let ok = report.is_serializable();
        if !ok {
            violations += 1;
        }
        println!(
            "{:>10} {:>10} {:>13.0} {:>9.1} {:>9.1} {:>8} {:>9} {:>9}{}",
            sub,
            wl.token(),
            r.tput_per_server,
            r.p50_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
            r.aborted,
            r.log_ship_writes,
            r.cxl_log_writes,
            if ok { "" } else { "   NOT SERIALIZABLE" },
        );
        if !ok {
            println!("{}", report.describe());
        }
        csv.push_str(&format!(
            "{sub},{},{},{},{},{},{},{},{ok}\n",
            wl.token(),
            r.tput_per_server,
            r.p50_ns,
            r.p99_ns,
            r.aborted,
            r.log_ship_writes,
            r.cxl_log_writes,
        ));
    }

    fs::create_dir_all("results").ok();
    fs::write("results/substrate_sweep.csv", csv).ok();
    println!("(CSV written to results/substrate_sweep.csv)");

    if violations > 0 {
        eprintln!("{violations} sweep point(s) failed DSG verification");
        std::process::exit(1);
    }

    // Trend contracts, per workload.
    let find = |kind: SubstrateKind, wl: Wl| -> &RunResult {
        points
            .iter()
            .zip(&rows)
            .find(|(&p, _)| p == (kind, wl))
            .map(|(_, (r, _))| r)
            .expect("point missing from sweep")
    };
    let mut trend_failures = 0usize;
    for wl in [Wl::Smallbank, Wl::Retwis] {
        let on = find(SubstrateKind::OnPathLiquidIO, wl);
        let bf = find(SubstrateKind::OffPathBluefield, wl);
        println!(
            "off-path cliff [{}]: p50 +{:.1} us, p99 +{:.1} us, tput/server x{:.2}",
            wl.token(),
            (bf.p50_ns as f64 - on.p50_ns as f64) / 1e3,
            (bf.p99_ns as f64 - on.p99_ns as f64) / 1e3,
            bf.tput_per_server / on.tput_per_server
        );
        if !(bf.p50_ns > on.p50_ns && bf.p99_ns > on.p99_ns) {
            eprintln!(
                "TREND VIOLATION [{}]: off-path cliff missing \
                 (bluefield p50/p99={}/{} onpath p50/p99={}/{})",
                wl.token(),
                bf.p50_ns,
                bf.p99_ns,
                on.p50_ns,
                on.p99_ns
            );
            trend_failures += 1;
        }
        for (kind, r) in [
            (SubstrateKind::OnPathLiquidIO, on),
            (SubstrateKind::OffPathBluefield, bf),
        ] {
            if r.log_ship_writes == 0 || r.cxl_log_writes != 0 {
                eprintln!(
                    "TREND VIOLATION [{}]: {} must DMA-ship its log \
                     (log_ship={} cxl_log={})",
                    wl.token(),
                    kind.token(),
                    r.log_ship_writes,
                    r.cxl_log_writes
                );
                trend_failures += 1;
            }
        }
        let cxl = find(SubstrateKind::CxlShared, wl);
        if cxl.log_ship_writes != 0 || cxl.cxl_log_writes == 0 {
            eprintln!(
                "TREND VIOLATION [{}]: cxl must ship no log over DMA \
                 (log_ship={} cxl_log={})",
                wl.token(),
                cxl.log_ship_writes,
                cxl.cxl_log_writes
            );
            trend_failures += 1;
        }
    }
    if trend_failures > 0 {
        eprintln!("{trend_failures} trend contract(s) violated");
        std::process::exit(1);
    }
    println!(
        "all {} (substrate, workload) points verified serializable; \
         off-path cliff and CXL log trade reproduced",
        points.len()
    );
}
