//! The passes a run is made of, each built on [`crate::run`]: the short
//! pair, the timed repeats, pass T1 and the DrTM+H pass; and the list of
//! checks they feed.

use xenic::api::Partitioning;
use xenic::harness::{cluster_digest, run_xenic_cluster_with, LaneAssign, RunOptions};
use xenic::XenicConfig;
use xenic_baselines::engine::BMsg;
use xenic_baselines::{Baseline, BaselineKind, BaselineNode};
use xenic_check::{check_history, CheckOptions, HistoryRecorder};
use xenic_net::{Cluster, Exec, NetConfig, TraceConfig};
use xenic_sim::{SimTime, TraceKind};

use crate::report::{slice_median_sum, slice_min_sum, SliceTable};
use crate::run::{self, now_ns, Fingerprint, Plan, Repeat, SLICES, WARMUP};
use crate::spans::{self, Span, Spanned, SpannedWorkload};
use crate::workloads::Wl;

/// Window of the short passes (harness cross-check, observers, DrTM+H)
/// and of every pass under `--quick`.
pub const SHORT_WINDOW: SimTime = SimTime::from_us(250);
/// Most timed repeats of any run, however fast the host.
const MAX_REPEATS: usize = 16;

/// Named pass/fail checks of one run.
#[derive(Default)]
pub struct Checks(pub Vec<(String, bool)>);

impl Checks {
    pub fn add(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            println!("CHECK FAILED: {name}");
        }
        self.0.push((name, ok));
    }

    fn same(&mut self, name: &str, a: &Fingerprint, b: &Fingerprint) {
        if a != b {
            println!("  {a:?}\n  {b:?}");
        }
        self.add(name, a == b);
    }

    pub fn all(&self) -> bool {
        self.0.iter().all(|c| c.1)
    }
}

/// What repeat 0 left for every later pass to reproduce.
#[derive(Clone, Copy)]
pub struct Expect<'a> {
    pub fingerprint: &'a Fingerprint,
    pub digest: u64,
}

/// Committed metric transactions per modelled second per server, by the
/// harness's own formula (operation for operation, so the two compare
/// with `==`).
pub fn tput_per_server(rep: &Repeat, nodes: usize) -> f64 {
    let secs = rep.window.window_ns as f64 / 1e9;
    rep.window.committed as f64 / secs / nodes as f64
}

/// What the harness side of the short pair observed.
pub struct Observed {
    /// Modelled phase medians, ns: execute, validate, log, commit.
    pub phase_p50_ns: [f64; 4],
    pub history_txns: usize,
    pub dsg_ns_per_txn: f64,
}

/// The short pair: one short repeat of ours (`ours`, with its digest)
/// against `run_xenic_cluster_with` on the same options with a tracer and
/// a history recorder attached. Equal results show at once that
/// `run::repeat` has not drifted from the real harness, that both
/// observers are pure, and (on the lanes workload, where observers force
/// the harness onto the serial scheduler) that two lanes reproduce the
/// serial schedule. The harness's cluster then serves pass T2 and the
/// serializability check.
pub fn short_pair(wl: Wl, seed: u64, ours: &Repeat, ours_digest: u64, checks: &mut Checks) -> Observed {
    let recorder = HistoryRecorder::new();
    let hook = recorder.clone();
    let opts = RunOptions {
        windows: wl.windows(),
        warmup: WARMUP,
        measure: SHORT_WINDOW,
        seed,
        lanes: wl.lanes(),
        assignment: LaneAssign::Contiguous,
    };
    let net = wl.net().with_trace(TraceConfig::spans().with_capacity(1 << 22));
    let attach = |c: &mut Cluster<xenic::Xenic>| {
        for st in &mut c.states {
            st.set_recorder(hook.clone());
        }
    };
    let (res, cluster) =
        run_xenic_cluster_with(wl.params(), net, XenicConfig::full(), &opts, |_| wl.workload(), attach);
    let theirs = Fingerprint {
        committed: res.committed,
        aborted: res.aborted,
        events: cluster.rt.queue.processed(),
        latency_mean_bits: res.mean_ns.to_bits(),
    };
    checks.same("short repeat equals run_xenic_cluster_with (observers on)", &ours.fingerprint, &theirs);
    checks.add("short repeat's cluster_digest equals the harness's", ours_digest == cluster_digest(&cluster));
    checks.add(
        "short repeat's throughput, p50 and p99 equal the harness's",
        tput_per_server(ours, wl.nodes()) == res.tput_per_server
            && ours.window.latency.median() == res.p50_ns
            && ours.window.latency.p99() == res.p99_ns,
    );
    let tracer = cluster.rt.tracer();
    checks.add("tracer dropped no event", tracer.dropped() == 0);

    // T2: modelled spans of the window, by phase. Commit is an instant
    // (the phase is fire-and-forget), so its figure is the coordinator
    // NIC's whole path: first phase opened → Commit.
    let mut phases = [const { Vec::<u64>::new() }; 4];
    for s in tracer.spans().iter().filter(|s| s.begin >= WARMUP) {
        match s.name {
            "Execute" => phases[0].push(s.dur_ns()),
            "Validate" => phases[1].push(s.dur_ns()),
            "Log" => phases[2].push(s.dur_ns()),
            _ => {}
        }
    }
    let mut opened = std::collections::HashMap::new();
    for ev in tracer.events().filter(|e| e.at >= WARMUP) {
        match ev.kind {
            TraceKind::Begin { id } if ev.name == "Execute" => {
                opened.insert((ev.node, id), ev.at);
            }
            TraceKind::Instant { id } if ev.name == "Commit" => {
                if let Some(begin) = opened.remove(&(ev.node, id)) {
                    phases[3].push(ev.at.since(begin));
                }
            }
            _ => {}
        }
    }
    let phase_p50_ns = phases.map(|mut v| {
        v.sort_unstable();
        v.get(v.len() / 2).map_or(0.0, |&ns| ns as f64)
    });

    let history = recorder.snapshot();
    let t = now_ns();
    let verdict = check_history(&history, &CheckOptions::strict());
    let dsg_ns = now_ns() - t;
    if !verdict.is_serializable() {
        println!("{}", verdict.describe());
    }
    checks.add("recorded history is serializable (strict)", verdict.is_serializable() && verdict.txns > 0);
    Observed {
        phase_p50_ns,
        history_txns: verdict.txns,
        dsg_ns_per_txn: dsg_ns as f64 / verdict.txns.max(1) as f64,
    }
}

/// Build, warm-up and slice times of a series of repeats.
pub struct Timed {
    pub build_s: Vec<f64>,
    pub warmup_s: Vec<f64>,
    pub slices: SliceTable,
}

impl Timed {
    /// The estimate of one undisturbed window, s: Σ slice minima.
    pub fn window_s(&self) -> f64 {
        slice_min_sum(&self.slices)
    }

    /// This series' own noise, %: Σ slice medians over Σ slice minima − 1.
    pub fn spread_pct(&self) -> f64 {
        (slice_median_sum(&self.slices) / self.window_s() - 1.0) * 100.0
    }
}

pub fn slice_row(rep: &Repeat) -> [f64; SLICES] {
    std::array::from_fn(|s| rep.slice_s(s))
}

/// Untraced repeats of `plan`: at least `min`, then more while the next
/// one still fits in `seconds` (never more than [`MAX_REPEATS`]). Each
/// must reproduce repeat 0's fingerprint, the last one its
/// `cluster_digest` too.
pub fn timed_repeats(
    plan: &Plan,
    min: usize,
    seconds: f64,
    expect: Expect,
    label: &str,
    checks: &mut Checks,
) -> Timed {
    let mut out = Timed { build_s: Vec::new(), warmup_s: Vec::new(), slices: Vec::new() };
    let begin = now_ns();
    let mut identical = true;
    loop {
        let t = now_ns();
        let (rep, cluster) = run::plain(plan, false);
        identical &= rep.fingerprint == *expect.fingerprint;
        out.build_s.push(rep.build_s);
        out.warmup_s.push(rep.warmup_s());
        out.slices.push(slice_row(&rep));
        let done = out.slices.len();
        let spent = (now_ns() - begin) as f64 / 1e9;
        let one = (now_ns() - t) as f64 / 1e9;
        if done >= MAX_REPEATS || (done >= min && spent + one > seconds) {
            checks.add(
                format!("last {label} repeat's cluster_digest equals repeat 0's"),
                cluster_digest(&cluster) == expect.digest,
            );
            break;
        }
    }
    checks.add(format!("every {label} repeat's fingerprint equals repeat 0's"), identical);
    out
}

/// Pass T1: `repeats` serial repeats with host spans on. Returns every
/// repeat's slice times (their minima price the tracing) and the least
/// disturbed repeat with its spans (read layer by layer).
pub fn t1(
    plan: &Plan,
    repeats: usize,
    span_capacity: usize,
    expect: Expect,
    checks: &mut Checks,
) -> (SliceTable, Repeat, Vec<Span>) {
    let window_ns = |r: &Repeat| r.slices.iter().map(|s| s.1 - s.0).sum::<u64>();
    let mut slices = SliceTable::new();
    let mut best: Option<(Repeat, Vec<Span>)> = None;
    for _ in 0..repeats {
        spans::reset(span_capacity);
        let (rep, cluster) = run::repeat::<Spanned>(plan, false, |g| Box::new(SpannedWorkload(g)));
        let recorded = spans::take();
        checks.same("T1 (host spans on) equals repeat 0", &rep.fingerprint, expect.fingerprint);
        checks.add("T1's cluster_digest equals repeat 0's", cluster_digest(&cluster) == expect.digest);
        slices.push(slice_row(&rep));
        if best.as_ref().is_none_or(|(b, _)| window_ns(&rep) < window_ns(b)) {
            best = Some((rep, recorded));
        }
    }
    let (rep, recorded) = best.expect("T1 makes at least one repeat");
    (slices, rep, recorded)
}

/// DrTM+H on the same workload and load, short: its modelled throughput
/// (for the fidelity ratio printed beside Xenic's) and what an event of
/// the baseline engine costs this host.
pub struct DrtmH {
    pub tput_per_server: f64,
    pub host_ns_per_event: f64,
}

pub fn drtmh(wl: Wl, seed: u64) -> DrtmH {
    let params = wl.params();
    let nodes = params.nodes;
    let part = Partitioning::new(nodes as u32, 3);
    let windows = wl.windows();
    let mut cluster: Cluster<Baseline> = Cluster::new(params, NetConfig::baseline(), seed, |node| {
        BaselineNode::new(node, BaselineKind::DrtmH, part, wl.workload(), windows)
    });
    for node in 0..nodes {
        for slot in 0..windows {
            let at = SimTime::from_ns((node * windows + slot) as u64 * 97);
            cluster.seed(at, node, Exec::Host, BMsg::Start { slot: slot as u32 });
        }
    }
    cluster.run_until(WARMUP);
    let mstart = cluster.rt.now();
    for st in &mut cluster.states {
        st.stats.start_measuring(mstart);
    }
    let horizon = SimTime::from_ns(WARMUP.as_ns() + 2 * SHORT_WINDOW.as_ns());
    let t = now_ns();
    let events = cluster.run_until(horizon);
    let wall_ns = now_ns() - t;
    let secs = cluster.rt.now().max(horizon).since(mstart) as f64 / 1e9;
    let committed: u64 = cluster.states.iter().map(|s| s.stats.committed.events()).sum();
    DrtmH {
        tput_per_server: committed as f64 / secs / nodes as f64,
        host_ns_per_event: wall_ns as f64 / events.max(1) as f64,
    }
}
