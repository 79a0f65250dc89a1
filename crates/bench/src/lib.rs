//! Benchmark harness regenerating every table and figure in the Xenic
//! paper's evaluation (§3 and §5).
//!
//! Each experiment is a binary (`cargo run --release -p xenic-bench --bin
//! <name>`); the mapping from paper artifact to binary lives in DESIGN.md
//! §4 and EXPERIMENTS.md. How fast the simulator itself runs is the
//! benchmark crate's business (`benchmark/README.md`).

pub mod args;
pub mod fuzz;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use xenic::api::Workload;
use xenic::harness::{RunOptions, RunResult};
use xenic::XenicConfig;
use xenic_baselines::{run_baseline, BaselineKind};
use xenic_hw::HwParams;
use xenic_net::NetConfig;
use xenic_sim::SimTime;

/// Runs `run` over every point on up to `jobs` worker threads and returns
/// the results **in input order**.
///
/// Each simulation point is an independent deterministic computation (its
/// own cluster, its own seeded RNGs), so executing points concurrently
/// and merging by input index yields byte-identical output to a serial
/// sweep — callers print only after collection. With `jobs <= 1` the
/// points run serially on the calling thread in input order, which is
/// also the fallback shape for a single point.
pub fn par_points<T, R>(jobs: usize, points: &[T], run: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let jobs = xenic::resolve_parallelism(jobs).min(points.len().max(1));
    if jobs == 1 {
        return points.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(points.len()));
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= points.len() {
                    break;
                }
                let r = run(&points[i]);
                collected.lock().expect("collector poisoned").push((i, r));
            });
        }
    });
    let mut collected = collected.into_inner().expect("collector poisoned");
    debug_assert_eq!(collected.len(), points.len());
    collected.sort_unstable_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, r)| r).collect()
}

/// The five systems of Figure 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// Xenic (full design).
    Xenic,
    /// DrTM+H hybrid with location cache.
    DrtmH,
    /// DrTM+H without the location cache.
    DrtmHNc,
    /// FaSST (all two-sided RPC).
    Fasst,
    /// DrTM+R (all one-sided, lock-all).
    DrtmR,
}

impl System {
    /// All five, in the paper's legend order.
    pub const ALL: [System; 5] = [
        System::Xenic,
        System::DrtmH,
        System::DrtmHNc,
        System::Fasst,
        System::DrtmR,
    ];

    /// Display label matching the paper's legend.
    pub fn label(&self) -> &'static str {
        match self {
            System::Xenic => "Xenic",
            System::DrtmH => "DrTM+H",
            System::DrtmHNc => "DrTM+H NC",
            System::Fasst => "FaSST",
            System::DrtmR => "DrTM+R",
        }
    }
}

/// One point on a throughput–latency curve.
#[derive(Clone, Debug)]
pub struct CurvePoint {
    /// Closed-loop windows per node at this point.
    pub windows: usize,
    /// Committed metric txns/s per server.
    pub tput: f64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// p99 latency, µs.
    pub p99_us: f64,
    /// Full result for further inspection.
    pub result: RunResult,
}

/// Runs one system at one load level.
pub fn run_system(
    system: System,
    params: HwParams,
    opts: &RunOptions,
    mk_workload: &dyn Fn(usize) -> Box<dyn Workload>,
) -> RunResult {
    match system {
        System::Xenic => xenic::harness::run_xenic(
            params,
            NetConfig::full(),
            XenicConfig::full(),
            opts,
            mk_workload,
        ),
        System::DrtmH => run_baseline(BaselineKind::DrtmH, params, opts, mk_workload),
        System::DrtmHNc => run_baseline(BaselineKind::DrtmHNc, params, opts, mk_workload),
        System::Fasst => run_baseline(BaselineKind::Fasst, params, opts, mk_workload),
        System::DrtmR => run_baseline(BaselineKind::DrtmR, params, opts, mk_workload),
    }
}

/// Sweeps offered load (windows per node) to trace a Figure 8 curve.
pub fn sweep(
    system: System,
    params: &HwParams,
    window_levels: &[usize],
    warmup: SimTime,
    measure: SimTime,
    seed: u64,
    mk_workload: &dyn Fn(usize) -> Box<dyn Workload>,
) -> Vec<CurvePoint> {
    window_levels
        .iter()
        .map(|&w| {
            let opts = RunOptions {
                windows: w,
                warmup,
                measure,
                seed,
                lanes: 1,
                ..Default::default()
            };
            let r = run_system(system, params.clone(), &opts, mk_workload);
            CurvePoint {
                windows: w,
                tput: r.tput_per_server,
                p50_us: r.p50_ns as f64 / 1000.0,
                p99_us: r.p99_ns as f64 / 1000.0,
                result: r,
            }
        })
        .collect()
}

/// Peak throughput across a curve.
pub fn peak_tput(curve: &[CurvePoint]) -> f64 {
    curve.iter().map(|p| p.tput).fold(0.0, f64::max)
}

/// Minimum (low-load) median latency across a curve.
pub fn min_p50(curve: &[CurvePoint]) -> f64 {
    curve
        .iter()
        .map(|p| p.p50_us)
        .fold(f64::INFINITY, f64::min)
}

/// Prints a curve as an aligned table (one row per load level).
pub fn print_curve(name: &str, curve: &[CurvePoint]) {
    println!("# {name}");
    println!(
        "{:>8} {:>14} {:>10} {:>10} {:>8} {:>9} {:>9}",
        "windows", "tput/server", "p50[us]", "p99[us]", "aborts", "hostCPU", "nicCPU"
    );
    for p in curve {
        println!(
            "{:>8} {:>14.0} {:>10.1} {:>10.1} {:>8} {:>9.1} {:>9.1}",
            p.windows,
            p.tput,
            p.p50_us,
            p.p99_us,
            p.result.aborted,
            p.result.host_busy_cores,
            p.result.nic_busy_cores,
        );
    }
}

/// Writes curves as CSV: `system,windows,tput,p50_us,p99_us`.
pub fn curves_csv(curves: &[(System, Vec<CurvePoint>)]) -> String {
    let mut out = String::from("system,windows,tput_per_server,p50_us,p99_us\n");
    for (sys, curve) in curves {
        for p in curve {
            out.push_str(&format!(
                "{},{},{:.0},{:.2},{:.2}\n",
                sys.label(),
                p.windows,
                p.tput,
                p.p50_us,
                p.p99_us
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_points_preserves_input_order() {
        let pts: Vec<usize> = (0..37).collect();
        let serial = par_points(1, &pts, |&p| p * p + 1);
        let parallel = par_points(8, &pts, |&p| p * p + 1);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[6], 37);
    }

    #[test]
    fn par_points_handles_empty_and_oversubscribed() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_points(4, &empty, |&p| p).is_empty());
        let one = vec![7u32];
        assert_eq!(par_points(64, &one, |&p| p + 1), vec![8]);
    }

    #[test]
    fn system_labels() {
        assert_eq!(System::ALL.len(), 5);
        assert_eq!(System::Xenic.label(), "Xenic");
        assert_eq!(System::DrtmHNc.label(), "DrTM+H NC");
    }

    #[test]
    fn csv_format() {
        let curves = vec![(
            System::Xenic,
            vec![CurvePoint {
                windows: 4,
                tput: 1000.0,
                p50_us: 12.5,
                p99_us: 30.0,
                result: xenic::harness::RunResult {
                    tput_per_server: 1000.0,
                    p50_ns: 12_500,
                    p99_ns: 30_000,
                    mean_ns: 15_000.0,
                    committed: 100,
                    aborted: 1,
                    host_busy_cores: 2.0,
                    nic_busy_cores: 3.0,
                    lio_utilization: 0.5,
                    cx5_utilization: 0.0,
                    ops_per_frame: 0.0,
                    dma_vector_fill: 0.0,
                    dma_elements_per_txn: 0.0,
                    log_ship_writes: 0,
                    cxl_log_writes: 0,
                    cross_lane_events: 0,
                    barriers: 0,
                },
            }],
        )];
        let csv = curves_csv(&curves);
        assert!(csv.contains("Xenic,4,1000,12.50,30.00"));
    }
}
