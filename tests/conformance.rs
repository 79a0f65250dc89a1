//! Paper-shape conformance suite: pins the reproduction to the shapes the
//! paper reports, so silent behavioral drift fails loudly.
//!
//! Three layers of pinning:
//!
//! * **Table 2** — the data-structure lookup costs are deterministic
//!   integer measurements of the real tables, so they are asserted as
//!   *exact totals*: a change of a single object read or roundtrip
//!   anywhere in the probe stream fails the suite.
//! * **Figure 8 / Figure 9(a)** — end-to-end performance shapes
//!   (Xenic leads the baselines; each ablation step helps) asserted as
//!   orderings, which are robust to incidental retuning.
//! * **§4.2.3 phase anatomy** — the commit path of a single-shard
//!   transaction must fit a message-delay budget derived from the
//!   hardware parameters; an accidental extra roundtrip in validate or
//!   log blows the budget.
//!
//! Run with `cargo test --release --test conformance` (the Table 2 rows
//! populate hash tables with 10^5 keys; debug builds work but crawl).

use xenic::api::{make_key, ShipMode, TxnSpec, UpdateOp, Workload};
use xenic::harness::{run, run_xenic, RunOptions};
use xenic::{Xenic, XenicConfig};
use xenic_baselines::{run_baseline, BaselineKind};
use xenic_hw::HwParams;
use xenic_net::NetConfig;
use xenic_sim::{DetRng, SimTime, TraceConfig};
use xenic_store::robinhood::{RobinhoodConfig, RobinhoodTable};
use xenic_store::{ChainedTable, HopscotchTable, Value};
use xenic_workloads::{Retwis, RetwisConfig};

// ---- Table 2: exact lookup-cost pinning ----------------------------------
//
// Same recipes as the `table2_lookup` bench, at 1/10th scale (the
// statistics are occupancy-driven, not size-driven). All integer
// arithmetic: debug and release agree bit-for-bit.

const OCCUPANCY: f64 = 0.9;
const KEYS: usize = 100_000;
const PROBES: usize = 20_000;

/// (total objects read, total roundtrips) over the whole probe stream.
fn robinhood_totals(dm: Option<u32>) -> (usize, usize) {
    let capacity = (KEYS as f64 / OCCUPANCY) as usize;
    let mut t = RobinhoodTable::new(RobinhoodConfig {
        capacity,
        displacement_limit: dm,
        segment_slots: 4,
        inline_cap: 256,
        slot_value_bytes: 64,
    });
    let v = Value::filled(64, 1);
    for k in 0..KEYS as u64 {
        t.insert(k, v.clone());
    }
    let mut rng = DetRng::new(42);
    let (mut objects, mut rts) = (0usize, 0usize);
    for _ in 0..PROBES {
        let k = rng.below(KEYS as u64);
        let seg = t.segment_of_key(k);
        let tr = t.dma_lookup(k, t.seg_max_disp(seg), 1);
        assert!(tr.found.is_some(), "populated key must be found");
        objects += tr.objects_read;
        rts += tr.roundtrips;
    }
    (objects, rts)
}

fn hopscotch_totals(h: usize) -> (usize, usize) {
    let capacity = (KEYS as f64 / OCCUPANCY) as usize;
    let mut t = HopscotchTable::new(capacity, h, 64);
    let v = Value::filled(64, 1);
    for k in 0..KEYS as u64 {
        t.insert(k, v.clone());
    }
    let mut rng = DetRng::new(43);
    let (mut objects, mut rts) = (0usize, 0usize);
    for _ in 0..PROBES {
        let tr = t.remote_lookup(rng.below(KEYS as u64));
        assert!(tr.found.is_some());
        objects += tr.objects_read;
        rts += tr.roundtrips;
    }
    (objects, rts)
}

fn chained_totals(b: usize) -> (usize, usize) {
    let buckets = ((KEYS as f64 / OCCUPANCY) as usize).div_ceil(b);
    let mut t = ChainedTable::new(buckets, b, 64);
    let v = Value::filled(64, 1);
    for k in 0..KEYS as u64 {
        t.insert(k, v.clone());
    }
    let mut rng = DetRng::new(44);
    let (mut objects, mut rts) = (0usize, 0usize);
    for _ in 0..PROBES {
        let tr = t.remote_lookup(rng.below(KEYS as u64));
        assert!(tr.found.is_some());
        objects += tr.objects_read;
        rts += tr.roundtrips;
    }
    (objects, rts)
}

#[test]
fn table2_robinhood_lookup_costs_are_pinned_exactly() {
    // Xenic's Robinhood table with NIC d_i hints, Dm = 8 / 16 / 32.
    assert_eq!(robinhood_totals(Some(8)), (113_088, 20_362), "Dm=8 drifted");
    assert_eq!(robinhood_totals(Some(16)), (137_851, 20_066), "Dm=16 drifted");
    assert_eq!(robinhood_totals(Some(32)), (148_683, 20_000), "Dm=32 drifted");
}

#[test]
fn table2_baseline_lookup_costs_are_pinned_exactly() {
    // FaRM's Hopscotch (H=8) and DrTM+H's chained table (B = 4 / 8 / 16).
    assert_eq!(hopscotch_totals(8), (160_598, 20_515), "Hopscotch H=8 drifted");
    assert_eq!(chained_totals(4), (92_996, 23_249), "Chained B=4 drifted");
    assert_eq!(chained_totals(8), (176_096, 22_012), "Chained B=8 drifted");
    assert_eq!(chained_totals(16), (338_304, 21_144), "Chained B=16 drifted");
}

#[test]
fn table2_trends_match_the_paper() {
    // The paper's qualitative claims, independent of the pinned values:
    // larger Dm reads more objects but needs fewer roundtrips, and every
    // chained configuration needs more roundtrips than Robinhood.
    let r8 = robinhood_totals(Some(8));
    let r16 = robinhood_totals(Some(16));
    let r32 = robinhood_totals(Some(32));
    assert!(r8.0 < r16.0 && r16.0 < r32.0, "objects must grow with Dm");
    assert!(r8.1 > r16.1 && r16.1 > r32.1, "roundtrips must shrink with Dm");
    for b in [4, 8, 16] {
        assert!(
            chained_totals(b).1 > r32.1,
            "chained B={b} should pay more roundtrips than Robinhood"
        );
    }
}

// ---- Figures 8 and 9(a): end-to-end shape pinning ------------------------

#[test]
fn fig8_xenic_leads_every_baseline_on_retwis() {
    // Small-scale Figure 8 ordering: at a moderate-to-high fixed load,
    // Xenic's Retwis throughput must be at least the best of DrTM+H,
    // FaSST, and DrTM+R.
    let opts = RunOptions {
        windows: 48,
        warmup: SimTime::from_ms(2),
        measure: SimTime::from_ms(4),
        seed: 42,
        lanes: 1,
        ..Default::default()
    };
    let params = HwParams::paper_testbed();
    let mk = |_: usize| -> Box<dyn Workload> { Box::new(Retwis::new(RetwisConfig::sim(6))) };
    let x = run_xenic(
        params.clone(),
        NetConfig::full(),
        XenicConfig::full(),
        &opts,
        mk,
    );
    for kind in [BaselineKind::DrtmH, BaselineKind::Fasst, BaselineKind::DrtmR] {
        let b = run_baseline(kind, params.clone(), &opts, mk);
        assert!(
            x.tput_per_server >= b.tput_per_server,
            "Xenic {:.0}/s/server must lead {kind:?} at {:.0}",
            x.tput_per_server,
            b.tput_per_server
        );
    }
}

#[test]
fn fig9a_each_ablation_step_helps() {
    // Figure 9(a) monotonicity: enabling smart remote ops, then Ethernet
    // aggregation, then async DMA must each not hurt Retwis throughput.
    // Same configs as the fig9_ablation bench, shorter measure window.
    let opts = RunOptions {
        windows: 64,
        warmup: SimTime::from_ms(2),
        measure: SimTime::from_ms(4),
        seed: 42,
        lanes: 1,
        ..Default::default()
    };
    let base_cfg = XenicConfig::fig9_baseline();
    let smart = XenicConfig {
        smart_remote_ops: true,
        ..base_cfg
    };
    let steps: [(&str, XenicConfig, NetConfig); 4] = [
        ("baseline", base_cfg, NetConfig::baseline()),
        ("+smart remote ops", smart, NetConfig::baseline()),
        (
            "+aggregation",
            smart,
            NetConfig {
                async_dma: false,
                ..NetConfig::full()
            },
        ),
        ("+async DMA", smart, NetConfig::full()),
    ];
    let mut prev = 0.0f64;
    let mut prev_label = "";
    for (label, cfg, net) in steps {
        let r = run_xenic(
            HwParams::paper_testbed(),
            net,
            cfg,
            &opts,
            |_| Box::new(Retwis::new(RetwisConfig::sim(6))) as Box<dyn Workload>,
        );
        assert!(
            r.tput_per_server >= prev,
            "{label} ({:.0}/s) must not fall below {prev_label} ({prev:.0}/s)",
            r.tput_per_server
        );
        prev = r.tput_per_server;
        prev_label = label;
    }
}

// ---- §4.2.3 phase anatomy -------------------------------------------------

/// Workload of single-shard read+update transactions against one fixed
/// remote shard: the standard coordinator path, one primary, no multi-hop.
struct SingleShard {
    keys: u64,
}

impl Workload for SingleShard {
    fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
        let shard = (node as u32 + 1) % 6; // always remote, always one shard
        TxnSpec {
            reads: vec![make_key(shard, rng.below(self.keys))],
            updates: vec![(make_key(shard, rng.below(self.keys)), UpdateOp::AddI64(1))],
            exec_host_ns: 150,
            exec_nic_ns: 480,
            ship: ShipMode::Nic,
            ..Default::default()
        }
    }

    fn value_bytes(&self) -> u32 {
        16
    }

    fn preload(&self, shard: u32) -> Vec<(u64, Value)> {
        (0..self.keys)
            .map(|i| (make_key(shard, i), Value::from_bytes(&0i64.to_le_bytes())))
            .collect()
    }
}

#[test]
fn phase_anatomy_fits_the_message_delay_budget() {
    // §4.2.3: for a single-shard transaction, validate is one NIC-to-NIC
    // roundtrip and log is one replication roundtrip plus the backup DMA
    // durability wait. Build the budget from first principles out of the
    // hardware parameters and demand the *median* commit tail
    // (Validate begin → Log end) fits it at low load. An accidental
    // extra roundtrip on either phase (~2 µs with handling) blows this.
    let p = HwParams::paper_testbed();
    // One NIC→NIC request/response: two wire flights, RPC handling on
    // each side, and up to one polling burst of batching delay per hop.
    let roundtrip =
        2 * p.wire_oneway_ns + 2 * p.nic_rpc_handle_ns + 2 * p.nic_poll_burst_ns;
    // The backup's durability DMA: submit + one element + write latency.
    let dma_write = p.dma_submit_ns + p.dma_element_ns + p.dma_write_latency_ns;
    // Validate roundtrip + log (replication roundtrip ∥ DMA, bounded by
    // their sum) + scheduling slack for core contention at 2 windows.
    let budget_ns = 2 * roundtrip + dma_write + 2_000;

    let multihop_off = XenicConfig {
        occ_multihop: false,
        ..XenicConfig::full()
    };
    let (_, cluster) = run::<Xenic>(
        HwParams::paper_testbed(),
        NetConfig::full().with_trace(TraceConfig::spans().with_capacity(1 << 22)),
        multihop_off,
        &RunOptions {
            windows: 2,
            warmup: SimTime::from_ms(1),
            measure: SimTime::from_ms(3),
            seed: 42,
            lanes: 1,
            ..Default::default()
        },
        |_| Box::new(SingleShard { keys: 3000 }) as Box<dyn Workload>,
    );

    // Commit tail per transaction: Validate begin → Log end.
    use std::collections::HashMap;
    let mut val_begin: HashMap<(u32, u64), SimTime> = HashMap::new();
    let mut log_end: HashMap<(u32, u64), SimTime> = HashMap::new();
    for s in cluster.rt.tracer().spans() {
        match s.name {
            "Validate" => {
                val_begin.insert((s.node, s.id), s.begin);
            }
            "Log" => {
                log_end.insert((s.node, s.id), s.end);
            }
            _ => {}
        }
    }
    let mut tails: Vec<u64> = log_end
        .iter()
        .filter_map(|(key, &end)| val_begin.get(key).map(|&b| end.since(b)))
        .collect();
    assert!(tails.len() > 500, "too few commit tails: {}", tails.len());
    tails.sort_unstable();
    let p50 = tails[tails.len() / 2];
    assert!(
        p50 <= budget_ns,
        "median commit tail {p50}ns exceeds the §4.2.3 budget {budget_ns}ns — \
         an extra roundtrip crept into validate or log"
    );
}
