//! The per-layer table: exact counters read from repeat 0, and the
//! numbers of the traced passes (S, T1, T2, probes, DrTM+H).

use std::fmt::Write as _;

use xenic::Xenic;
use xenic_net::Cluster;

use crate::passes::{self, Checks, Expect, Observed, Timed};
use crate::probes::Probes;
use crate::report::{min_of, slice_min_sum, Metrics};
use crate::run::{Plan, Repeat};
use crate::spans::{self, Phase};
use crate::workloads::Wl;

/// Repeats of pass T1: the less disturbed one is read layer by layer,
/// and both price the tracing by their slice minima.
const T1_REPEATS: usize = 2;
/// Serial repeats behind `lanes.speedup_vs_serial`.
const SERIAL_REPEATS: usize = 3;

/// Counters of repeat 0's window and of the cluster it left behind; all
/// exact for a given seed.
pub fn exact(r0: &Repeat, cluster: &Cluster<Xenic>, out: &mut Metrics) {
    let w = &r0.window;
    let nodes = cluster.states.len();
    let per_commit = |x: u64| x as f64 / w.committed_all.max(1) as f64;
    let per_node = |x: f64| x / nodes as f64;
    let sum = |f: &dyn Fn(&xenic::XenicNode) -> u64| cluster.states.iter().map(f).sum::<u64>();
    let mean = |f: &dyn Fn(usize) -> f64| per_node((0..nodes).map(f).sum());
    let (hits, misses) = cluster.states.iter().fold((0, 0), |(h, m), st| {
        let s = st.nic_index.stats();
        (h + s.hits, m + s.misses)
    });
    let line_bytes = cluster.rt.params.net_gbps / 8.0 * w.window_ns as f64;
    let window_ns = w.window_ns as f64;

    out.push("sim.events_per_commit", "count", per_commit(w.events));
    out.push("sim.queue_len_mean", "count", r0.queue_len_mean());
    out.push("net.msgs_per_commit", "count", per_commit(w.hw.net_msgs));
    out.push("net.frames_per_commit", "count", per_commit(w.hw.lio_tx_frames));
    out.push("net.ops_per_frame", "count", mean(&|n| cluster.rt.ops_per_frame(n)));
    out.push("hw.nic_busy_cores", "cores", per_node(w.hw.nic_busy_ns as f64 / window_ns));
    out.push("hw.host_busy_cores", "cores", per_node(w.hw.host_busy_ns as f64 / window_ns));
    out.push("hw.lio_utilization", "ratio", per_node(w.hw.lio_tx_bytes as f64 / line_bytes));
    out.push("hw.dma_vector_fill", "count", mean(&|n| cluster.rt.dma_vector_fill(n)));
    out.push("hw.dma_elements_per_commit", "count", per_commit(w.hw.dma_elements));
    out.push("store.nic_cache_hit_ratio", "ratio", hits as f64 / (hits + misses).max(1) as f64);
    out.push("store.robinhood_occupancy", "ratio", mean(&|n| cluster.states[n].host_table.occupancy()));
    let displacement = mean(&|n| cluster.states[n].host_table.mean_displacement());
    out.push("store.robinhood_mean_displacement", "count", displacement);
    out.push("store.range_walks_per_commit", "count", per_commit(sum(&|s| s.stats.range_walks.get())));
    out.push("store.scan_rows_per_commit", "count", per_commit(sum(&|s| s.stats.scan_rows.get())));
    let log_ships = sum(&|s| s.stats.log_ship_writes.get());
    out.push("store.log_ship_writes_per_commit", "count", per_commit(log_ships));
    out.push("core.abort_share", "ratio", w.aborted as f64 / (w.committed_all + w.aborted).max(1) as f64);
    let fast_path = sum(&|s| s.stats.local_fast_path.get());
    out.push("core.local_fast_path_share", "ratio", per_commit(fast_path));
    out.push("core.nic_executed_share", "ratio", per_commit(sum(&|s| s.stats.nic_executed.get())));
    out.push("core.multihop_share", "ratio", per_commit(sum(&|s| s.stats.multihop.get())));
    out.push("lanes.cross_lane_fraction", "ratio", w.lanes.cross_lane_events as f64 / w.events as f64);
    out.push("lanes.barriers_per_kevent", "count", w.lanes.barriers as f64 * 1e3 / w.events as f64);
}

/// What the traced passes start from.
pub struct Traced<'a> {
    pub plan: &'a Plan,
    pub r0: &'a Repeat,
    pub expect: Expect<'a>,
    /// The run's untraced timed repeats.
    pub timed: &'a Timed,
    pub observed: &'a Observed,
    pub probe: Probes,
}

impl Traced<'_> {
    /// Runs pass S (lanes workload), pass T1 and the DrTM+H pass
    /// (`retwis_sat`), and books their numbers with the probes' and T2's.
    /// Returns the Chrome trace of T1 and the lines that print the identity
    /// `host_us_per_commit ≈ events_per_commit × loop_self + handle_ns_per_commit`
    /// with its measured terms.
    pub fn run(
        self,
        quick: bool,
        run_facts: &str,
        xenic_tput: f64,
        out: &mut Metrics,
        checks: &mut Checks,
    ) -> (String, String) {
        let wl = self.plan.wl;
        let w = &self.r0.window;
        let per_commit = |x: u64| x as f64 / w.committed_all.max(1) as f64;
        let window_s = self.timed.window_s();

        // Pass S (lanes workload): the same config on the serial
        // scheduler, for the speedup and as T1's untraced reference.
        let serial_plan = self.plan.serial();
        let serial_window_s = if wl.lanes() > 1 {
            let repeats = if quick { 1 } else { SERIAL_REPEATS };
            let s = passes::timed_repeats(&serial_plan, repeats, 0.0, self.expect, "serial", checks);
            s.window_s()
        } else {
            window_s
        };
        let speedup = if wl.lanes() > 1 { serial_window_s / window_s } else { 0.0 };
        out.push("lanes.speedup_vs_serial", "ratio", speedup);

        // Pass T1. Handlers never outnumber events; `next_txn` runs once
        // per attempt.
        let capacity = self.r0.fingerprint.events + 2 * (w.committed_all + w.aborted) + 1024;
        let t1_repeats = if quick { 1 } else { T1_REPEATS };
        let (t1_slices, t1, recorded) =
            passes::t1(&serial_plan, t1_repeats, capacity as usize, self.expect, checks);
        let l = spans::layers(&t1, &recorded);
        let trace_json = spans::chrome_json(&t1, &recorded, &format!("{{{run_facts}}}"));
        drop(recorded);
        let loop_self_ns_per_event = l.loop_self_ns() as f64 / w.events as f64;
        let overhead = slice_min_sum(&t1_slices) / serial_window_s - 1.0;

        let p = &self.probe;
        out.push("sim.queue_probe_ns_per_event", "ns", p.queue_ns_per_event);
        out.push("net.loop_self_ns_per_event", "ns", loop_self_ns_per_event);
        out.push("store.robinhood_get_ns", "ns", p.robinhood_get_ns);
        out.push("store.nic_lookup_ns", "ns", p.nic_lookup_ns);
        out.push("store.range_walk_ns_per_row", "ns", p.range_walk_ns_per_row);
        out.push("store.log_append_ns", "ns", p.log_append_ns);
        out.push("core.handle_ns_per_commit", "ns", per_commit(l.handle_ns));
        out.push("core.handle_self_ns_per_commit", "ns", per_commit(l.handle_ns - l.gen_ns));
        out.push("core.handles_per_commit", "count", per_commit(l.handles));
        for phase in Phase::ALL {
            let ns = l.handle_ns_by_phase[phase as usize];
            out.push(format!("core.handle_ns.{}", phase.name()), "ns", per_commit(ns));
        }
        for (name, p50) in ["execute", "validate", "log", "commit"].iter().zip(self.observed.phase_p50_ns) {
            out.push(format!("core.phase_{name}_ns_p50"), "ns", p50);
        }
        out.push("workloads.gen_ns_per_txn", "ns", l.gen_ns as f64 / l.gens.max(1) as f64);
        out.push("workloads.txns_generated", "count", l.gens as f64);
        out.push("workloads.keys_per_txn", "count", l.gen_keys as f64 / l.gens.max(1) as f64);

        let drtmh = (wl == Wl::RetwisSat).then(|| passes::drtmh(wl, self.plan.seed));
        let (tput, ratio, ns_per_event) = drtmh.map_or((0.0, 0.0, 0.0), |d| {
            (d.tput_per_server, xenic_tput / d.tput_per_server, d.host_ns_per_event)
        });
        out.push("baselines.drtmh_tput_per_server", "1/s", tput);
        out.push("baselines.xenic_over_drtmh", "ratio", ratio);
        out.push("baselines.drtmh_host_ns_per_event", "ns", ns_per_event);

        out.push("check.dsg_ns_per_txn", "ns", self.observed.dsg_ns_per_txn);
        out.push("check.history_txns", "count", self.observed.history_txns as f64);
        out.push("bench.trace_overhead_pct", "%", overhead * 100.0);
        out.push("bench.slice_spread_pct", "%", self.timed.spread_pct());
        out.push("bench.repeats", "count", self.timed.slices.len() as f64);
        out.push("bench.build_first_s", "s", self.r0.build_s);
        out.push("bench.warmup_s", "s", min_of(&self.timed.warmup_s));
        out.push("bench.cores", "count", crate::report::cores() as f64);

        let events_per_commit = per_commit(w.events);
        let handle = per_commit(l.handle_ns);
        let traced_us = (events_per_commit * loop_self_ns_per_event + handle) / 1e3;
        let untraced_us = serial_window_s * 1e6 / w.committed_all.max(1) as f64;
        let mut text = String::new();
        let _ = writeln!(
            text,
            "identity (serial scheduler): sim.events_per_commit {events_per_commit:.2} x \
             net.loop_self_ns_per_event {loop_self_ns_per_event:.1} + core.handle_ns_per_commit {handle:.0} \
             = {traced_us:.3} us per commit under T1;"
        );
        let _ = writeln!(
            text,
            "  less bench.trace_overhead_pct {:.1} % = {:.3} us; untraced slice-minimum {untraced_us:.3} us; \
             residual {:+.2} %. Loop share {:.0} %, handler share {:.0} %.",
            overhead * 100.0,
            traced_us / (1.0 + overhead),
            (traced_us / (1.0 + overhead) / untraced_us - 1.0) * 100.0,
            l.loop_self_ns() as f64 / l.window_ns as f64 * 100.0,
            l.handle_ns as f64 / l.window_ns as f64 * 100.0,
        );
        if wl == Wl::RetwisSat {
            let _ = writeln!(
                text,
                "fidelity: Xenic over DrTM+H {ratio:.2}x here; the paper reports 2.07x, EXPERIMENTS.md measures 3.76x."
            );
        }
        (trace_json, text)
    }
}
