//! Table 2: average objects read and roundtrips per remote lookup at 90%
//! table occupancy (paper §4.1.4).
//!
//! This is a *measurement of the real data structures*, not a model: the
//! Robinhood table (Dm = 8/16/32/no limit, with NIC `d_i` hints and
//! k = 1 slack), FaRM's Hopscotch table (H = 8), and DrTM+H's chained
//! table (B = 4/8/16) are populated with uniform-random keys to 90%
//! occupancy and probed with uniform-random lookups.
//!
//! The paper uses 8 M keys; we default to 1 M (the statistics are
//! occupancy-driven, not size-driven — pass `--full` for 8 M).

use xenic_sim::DetRng;
use xenic_store::robinhood::{RobinhoodConfig, RobinhoodTable};
use xenic_store::{ChainedTable, HopscotchTable, Value};

const OCCUPANCY: f64 = 0.9;

fn robinhood_row(keys: usize, dm: Option<u32>, probes: usize, seg_slots: usize) -> (f64, f64) {
    let capacity = (keys as f64 / OCCUPANCY) as usize;
    let mut t = RobinhoodTable::new(RobinhoodConfig {
        capacity,
        displacement_limit: dm,
        segment_slots: seg_slots,
        inline_cap: 256,
        slot_value_bytes: 64,
    });
    let v = Value::filled(64, 1);
    for k in 0..keys as u64 {
        t.insert(k, v.clone());
    }
    // NIC hints: the per-segment d_i values as the index would hold them.
    let mut rng = DetRng::new(42);
    let mut objects = 0usize;
    let mut rts = 0usize;
    for _ in 0..probes {
        let k = rng.below(keys as u64);
        let seg = t.segment_of_key(k);
        let tr = t.dma_lookup(k, t.seg_max_disp(seg), 1);
        assert!(tr.found.is_some(), "populated key must be found");
        objects += tr.objects_read;
        rts += tr.roundtrips;
    }
    (objects as f64 / probes as f64, rts as f64 / probes as f64)
}

fn hopscotch_row(keys: usize, h: usize, probes: usize) -> (f64, f64) {
    let capacity = (keys as f64 / OCCUPANCY) as usize;
    let mut t = HopscotchTable::new(capacity, h, 64);
    let v = Value::filled(64, 1);
    for k in 0..keys as u64 {
        t.insert(k, v.clone());
    }
    let mut rng = DetRng::new(43);
    let mut objects = 0usize;
    let mut rts = 0usize;
    for _ in 0..probes {
        let k = rng.below(keys as u64);
        let tr = t.remote_lookup(k);
        assert!(tr.found.is_some());
        objects += tr.objects_read;
        rts += tr.roundtrips;
    }
    (objects as f64 / probes as f64, rts as f64 / probes as f64)
}

fn chained_row(keys: usize, b: usize, probes: usize) -> (f64, f64) {
    let buckets = ((keys as f64 / OCCUPANCY) as usize).div_ceil(b);
    let mut t = ChainedTable::new(buckets, b, 64);
    let v = Value::filled(64, 1);
    for k in 0..keys as u64 {
        t.insert(k, v.clone());
    }
    let mut rng = DetRng::new(44);
    let mut objects = 0usize;
    let mut rts = 0usize;
    for _ in 0..probes {
        let k = rng.below(keys as u64);
        let tr = t.remote_lookup(k);
        assert!(tr.found.is_some());
        objects += tr.objects_read;
        rts += tr.roundtrips;
    }
    (objects as f64 / probes as f64, rts as f64 / probes as f64)
}

fn main() {
    let full = xenic_bench::args::flag("--full");
    let keys = if full { 8_000_000 } else { 1_000_000 };
    let probes = 200_000;
    println!("# Table 2: lookup cost at 90% occupancy ({keys} keys, {probes} probes)");
    println!("{:<28} {:>12} {:>11}", "structure", "objects/rd", "roundtrips");
    for dm in [Some(8u32), Some(16), Some(32), None] {
        let (o, r) = robinhood_row(keys, dm, probes, 4);
        let label = match dm {
            Some(d) => format!("Xenic Robinhood, Dm={d}"),
            None => "Xenic Robinhood, no limit".to_string(),
        };
        println!("{label:<28} {o:>12.2} {r:>11.2}");
    }
    let (o, r) = hopscotch_row(keys, 8, probes);
    println!("{:<28} {o:>12.2} {r:>11.2}", "FaRM Hopscotch, H=8");
    for b in [4usize, 8, 16] {
        let (o, r) = chained_row(keys, b, probes);
        println!("{:<28} {o:>12.2} {r:>11.2}", format!("DrTM+H Chained, B={b}"));
    }
    println!();
    println!("(paper: Robinhood 3.43/1.07 @Dm=8, 4.13/1.04 @16, 4.84/1.02 @32,");
    println!(" 6.39/1.00 no-limit; Hopscotch >8/1.04; Chained 4.65/1.16 @B=4,");
    println!(" 8.81/1.10 @B=8, 16.96/1.06 @B=16.");
    println!(" Note: our Robinhood rows sit ~1.5-2 objects above the paper's;");
    println!(" linear-probing displacement at 90% load averages >= 4.5 slots");
    println!(" (a conservation invariant), so the trend -- smaller Dm => smaller");
    println!(" reads, fewer roundtrips than chained designs -- is the");
    println!(" reproducible signal. See EXPERIMENTS.md.)");
}
