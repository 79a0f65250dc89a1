//! Layer probes: public `sim` and `store` functions timed in isolation,
//! on the structures repeat 0 left behind on node 0 and with seeded key
//! draws, so a layer can be read (and later improved) apart from the
//! run loop that normally surrounds it.

use std::hint::black_box;

use xenic::api::{local_of, make_key, SHARD_SHIFT};
use xenic::engine::XenicNode;
use xenic::msg::XMsg;
use xenic::XenicConfig;
use xenic_hw::HwParams;
use xenic_net::{Event, Exec};
use xenic_sim::{DetRng, EventQueue, SimTime};
use xenic_store::{CommitLog, Key, LogKind, TxnId, Value, WritePayload};

use crate::run::now_ns;

/// Point operations per table probe.
const POINT_OPS: usize = 1_000_000;
/// Range walks per scan probe.
const WALKS: usize = 50_000;
/// YCSB-E's scan-length distribution: uniform on `1..=MAX_SCAN_LEN`.
const MAX_SCAN_LEN: u64 = 100;
/// Pop+push pairs in the queue probe; appends in the log probe.
const QUEUE_OPS: usize = 2_000_000;
const LOG_OPS: usize = 500_000;

/// Probe results, ns per operation.
pub struct Probes {
    pub queue_ns_per_event: f64,
    pub robinhood_get_ns: f64,
    pub nic_lookup_ns: f64,
    pub range_walk_ns_per_row: f64,
    pub log_append_ns: f64,
}

fn per_op(start_ns: u64, ops: usize) -> f64 {
    (now_ns() - start_ns) as f64 / ops as f64
}

/// Runs every probe. `queue_len` is the run's mean event-queue length.
pub fn run(node0: &mut XenicNode, params: &HwParams, queue_len: usize, seed: u64) -> Probes {
    let rng = DetRng::new(seed);
    let mut resident: Vec<Key> = node0.host_table.iter_keys().map(|(k, _)| k).collect();
    resident.sort_unstable();
    let mut draw = rng.stream("probe-keys");
    let keys: Vec<Key> =
        (0..POINT_OPS).map(|_| resident[draw.below(resident.len() as u64) as usize]).collect();

    let t = now_ns();
    for &k in &keys {
        black_box(node0.host_table.get(black_box(k)));
    }
    let robinhood_get_ns = per_op(t, keys.len());

    let t = now_ns();
    for &k in &keys {
        let seg = node0.host_table.segment_of_key(k);
        black_box(node0.nic_index.lookup(seg, black_box(k)));
    }
    let nic_lookup_ns = per_op(t, keys.len());

    // Walks start at a resident key and stop after a drawn row count,
    // bounded by the end of node 0's shard.
    let shard_end = make_key(node0.shard, (1 << SHARD_SHIFT) - 1);
    let mut draw = rng.stream("probe-scans");
    let walks: Vec<(Key, u64)> = (0..WALKS)
        .map(|_| {
            let lo = resident[draw.below(resident.len() as u64) as usize];
            (lo, draw.range_inclusive(1, MAX_SCAN_LEN))
        })
        .collect();
    let mut rows = 0usize;
    let t = now_ns();
    for &(lo, len) in &walks {
        let mut left = len;
        black_box(node0.nic_index.range_walk(lo, shard_end, None, &mut |k, v| {
            black_box((k, v));
            rows += 1;
            left -= 1;
            left > 0
        }));
    }
    let range_walk_ns_per_row = per_op(t, rows);

    Probes {
        queue_ns_per_event: queue_probe(params, queue_len, &rng),
        robinhood_get_ns,
        nic_lookup_ns,
        range_walk_ns_per_row,
        log_append_ns: log_probe(&resident, &rng),
    }
}

/// `EventQueue::pop_at_or_before` + `push` at the run's mean queue length,
/// with re-push delays drawn from the hardware model's own latencies (the
/// mix decides how many pushes land in the near calendar and how many in
/// the far heap).
fn queue_probe(p: &HwParams, queue_len: usize, rng: &DetRng) -> f64 {
    let delays = [
        p.nic_burst_per_frame_ns,
        p.dma_submit_ns,
        p.nic_rpc_handle_ns,
        p.host_app_handle_ns,
        p.dma_write_latency_ns,
        p.wire_oneway_ns,
        p.pcie_down_ns,
        p.pcie_msg_oneway_ns,
        p.dma_read_latency_ns,
        p.nic_poll_burst_ns,
    ];
    let mut draw = rng.stream("probe-queue");
    let mut delay = move || delays[draw.below(delays.len() as u64) as usize];
    // The runtime's own event type, so entries are the size the run moves.
    let event = || Event::<XMsg>::CoreFree { node: 0, exec: Exec::Nic };
    let mut q = EventQueue::new();
    for _ in 0..queue_len.max(1) {
        q.push(SimTime::from_ns(delay()), event());
    }
    let horizon = SimTime::from_ns(u64::MAX);
    let t = now_ns();
    for _ in 0..QUEUE_OPS {
        let (now, ev) = q.pop_at_or_before(horizon).expect("queue never drains");
        q.push(now + delay(), black_box(ev));
    }
    per_op(t, QUEUE_OPS)
}

/// `CommitLog::append` of a two-write record plus the `ack_through` that
/// reclaims it, acknowledged in batches of 64 as the host workers do.
fn log_probe(resident: &[Key], rng: &DetRng) -> f64 {
    let mut draw = rng.stream("probe-log");
    let value = Value::filled(64, 7);
    let mut log = CommitLog::new(XenicConfig::full().log_capacity_bytes);
    let t = now_ns();
    for i in 0..LOG_OPS {
        let k = resident[draw.below(resident.len() as u64) as usize];
        let writes = vec![
            (k, WritePayload::Full(value.clone()), 2),
            (make_key(0, local_of(k)), WritePayload::AddI64(1), 2),
        ];
        let lsn = log
            .append(TxnId::new(0, i as u64), LogKind::Commit, 0, writes)
            .expect("ring is acknowledged long before it fills");
        if lsn.is_multiple_of(64) {
            black_box(log.ack_through(lsn));
        }
    }
    per_op(t, LOG_OPS)
}
