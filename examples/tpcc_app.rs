//! TPC-C on Xenic: the full five-type mix, with per-server new-order
//! throughput (the benchmark's reported metric) and the local B+tree
//! side of the workload made visible.
//!
//! ```sh
//! cargo run --release --example tpcc_app
//! ```

use xenic::harness::{build, RunOptions};
use xenic::{NodeStats, Xenic, XenicConfig};
use xenic_hw::HwParams;
use xenic_net::NetConfig;
use xenic_sim::SimTime;
use xenic_workloads::{Tpcc, TpccConfig, TpccMix};

fn main() {
    let params = HwParams::paper_testbed();
    let cfg = XenicConfig::full();
    let tpcc_cfg = TpccConfig::sim(6, TpccMix::Full);
    println!(
        "TPC-C full mix on Xenic: {} warehouses/node, {} districts, {} customers/district",
        tpcc_cfg.warehouses_per_node, tpcc_cfg.districts, tpcc_cfg.customers_per_district
    );

    let opts = RunOptions { windows: 24, seed: 5, ..Default::default() };
    let mut cluster =
        build::<Xenic>(params, NetConfig::full(), cfg, &opts, |_| Box::new(Tpcc::new(tpcc_cfg)));
    cluster.run_until(SimTime::from_ms(2));
    let t0 = cluster.rt.now();
    for st in &mut cluster.states {
        st.stats.start_measuring(t0);
    }
    cluster.run_until(SimTime::from_ms(12));
    let window_s = cluster.rt.now().since(t0) as f64 / 1e9;

    let total = NodeStats::total(cluster.states.iter().map(|s| &s.stats));
    let (new_orders, all) = (total.committed.events(), total.committed_all.get());
    println!("\ncommitted transactions (all types): {all}");
    println!("  of which new orders:              {new_orders} ({:.0}%)", new_orders as f64 / all as f64 * 100.0);
    println!("aborted attempts:                   {}", total.aborted.get());
    println!("new orders/s per server:            {:.0}", new_orders as f64 / window_s / 6.0);
    let lat = &total.latency;
    println!("new-order latency p50/p99:          {:.1} / {:.1} us", lat.median() as f64 / 1e3, lat.p99() as f64 / 1e3);

    println!("\nmultihop commits: {}", total.multihop.get());
    println!("NIC-executed txns: {}", total.nic_executed.get());
    println!("local fast-path txns: {}", total.local_fast_path.get());
    println!("\n(the ORDER / NEW-ORDER / ORDER-LINE trees are real per-node B+trees");
    println!(" whose measured traversal costs were charged to the host cores)");
}
