//! TPC-C consistency conditions, checked through the full Xenic commit
//! protocol (spec §3.3.2 conditions 1 and 2, adapted to the modeled
//! schema).
//!
//! * **YTD balance**: every Payment adds the same amount to its home
//!   warehouse's YTD and to one district's YTD in a single transaction,
//!   so after quiescing, `W_YTD(w) == Σ_d D_YTD(w, d)` must hold exactly
//!   for every warehouse. A single lost or torn update anywhere in the
//!   Execute/Validate/Commit/replicate pipeline breaks the equality.
//! * **NEXT_O_ID monotonicity**: every New-Order bumps its district's
//!   order counter by one. The recorded history must show each district
//!   key's installed versions forming a gapless, duplicate-free chain
//!   from the preload version, and the final counter must equal the
//!   number of commits that wrote it.

use xenic::harness::{run_recorded, RunOptions};
use xenic::{Xenic, XenicConfig};
use xenic_check::{check_history, CheckOptions};
use xenic_hw::HwParams;
use xenic_net::NetConfig;
use xenic_sim::SimTime;
use xenic_store::{Key, Value};
use xenic_workloads::{Tpcc, TpccConfig, TpccMix};

const NODES: u32 = 6;

fn cfg(mix: TpccMix) -> TpccConfig {
    TpccConfig {
        warehouses_per_node: 2,
        nodes: NODES,
        districts: 4,
        customers_per_district: 40,
        items: 200,
        mix,
    }
}

/// Runs the mix through the Xenic harness with a recorder attached,
/// drains all in-flight transactions, and returns the recorded history
/// plus the final `(value, version)` of every requested key read from
/// each shard's primary host table.
fn run_and_settle(
    mix: TpccMix,
    seed: u64,
    keys_of: impl Fn(&Tpcc, u32) -> Vec<Key>,
) -> (xenic_check::History, Vec<(Key, i64, u64)>) {
    let opts = RunOptions {
        windows: 3,
        warmup: SimTime::from_us(200),
        measure: SimTime::from_ms(1),
        seed,
        lanes: 1,
        ..Default::default()
    };
    let (result, mut cluster, recorder) = run_recorded::<Xenic>(
        HwParams::paper_testbed(),
        NetConfig::full(),
        XenicConfig::full(),
        &opts,
        |_| Box::new(Tpcc::new(cfg(mix))),
    );
    assert!(result.committed + result.aborted > 0 || mix == TpccMix::PaymentOnly);
    // Quiesce: stop issuing new transactions and let in-flight ones
    // finish, so the host tables reflect a transaction-consistent state.
    xenic::harness::drain(&mut cluster, SimTime::from_ms(50));

    let probe = Tpcc::new(cfg(mix));
    let mut finals = Vec::new();
    for shard in 0..NODES {
        for key in keys_of(&probe, shard) {
            let (value, version) = cluster.states[shard as usize]
                .host_table
                .get(key)
                .expect("preloaded key missing after run");
            finals.push((key, first_i64(value), version));
        }
    }
    (recorder.snapshot(), finals)
}

fn first_i64(v: &Value) -> i64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&v.bytes()[..8]);
    i64::from_le_bytes(b)
}

#[test]
fn payment_ytd_balances_warehouse_against_districts() {
    let c = cfg(TpccMix::PaymentOnly);
    let (history, finals) = run_and_settle(TpccMix::PaymentOnly, 11, |t, shard| {
        let mut keys = Vec::new();
        for w in 0..c.warehouses_per_node {
            keys.push(t.warehouse_key(shard, w));
            for d in 0..c.districts {
                keys.push(t.district_key(shard, w, d));
            }
        }
        keys
    });
    assert!(history.committed_count() > 300, "payments committed: {}", history.committed_count());

    // finals is grouped per (shard, warehouse): warehouse row first, then
    // its districts. Both counters preload to 0, so absolute values (not
    // deltas) must balance.
    let group = 1 + c.districts as usize;
    let mut total_ytd = 0i64;
    for chunk in finals.chunks(group) {
        let (wkey, w_ytd, _) = chunk[0];
        let district_sum: i64 = chunk[1..].iter().map(|&(_, v, _)| v).sum();
        assert_eq!(
            w_ytd, district_sum,
            "warehouse {wkey:#x}: W_YTD {w_ytd} != Σ D_YTD {district_sum}"
        );
        total_ytd += w_ytd;
    }
    assert!(total_ytd > 0, "payments must move money");

    // The same history must of course be serializable.
    let report = check_history(&history, &CheckOptions::strict());
    assert!(report.is_serializable(), "{}", report.describe());
}

#[test]
fn new_order_district_counters_are_gapless_and_monotonic() {
    let c = cfg(TpccMix::NewOrderOnly);
    let (history, finals) = run_and_settle(TpccMix::NewOrderOnly, 12, |t, shard| {
        let mut keys = Vec::new();
        for w in 0..c.warehouses_per_node {
            for d in 0..c.districts {
                keys.push(t.district_key(shard, w, d));
            }
        }
        keys
    });
    assert!(history.committed_count() > 300, "new-orders committed: {}", history.committed_count());

    for (key, counter, final_version) in finals {
        // Installed versions of this district key across all commits.
        let mut versions: Vec<u64> = history
            .committed()
            .filter_map(|(_, rec)| rec.writes.get(&key).copied())
            .collect();
        versions.sort_unstable();
        let n = versions.len() as u64;
        // Preload installs version 1; each commit installs prev + 1. A
        // gapless duplicate-free chain 2..=n+1 is exactly "no lost or
        // reordered NEXT_O_ID increment".
        let expected: Vec<u64> = (2..=n + 1).collect();
        assert_eq!(
            versions, expected,
            "district {key:#x}: version chain has gaps or duplicates"
        );
        assert_eq!(
            final_version,
            n + 1,
            "district {key:#x}: table version disagrees with history"
        );
        assert_eq!(
            counter, n as i64,
            "district {key:#x}: NEXT_O_ID {counter} != committed increments {n}"
        );
    }
}
