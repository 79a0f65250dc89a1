//! Pass T1: host-time spans recorded from outside the crates.
//!
//! [`Spanned`] is a `Protocol` whose messages and state are Xenic's and
//! whose `handle` times `Xenic::handle`; [`SpannedWorkload`] times
//! `next_txn` on the generator handed to `XenicNode::new`. Spans go to a
//! preallocated in-memory buffer and are written out after the run. A
//! span's self time is its duration minus its children's: a slice's self
//! time is the run loop (event queue + runtime dispatch/flush/arrive +
//! hardware models), which cannot be split further from outside.
//!
//! T1 always runs on the serial scheduler: lane workers are spawned per
//! `run_until`, so a per-thread buffer would not outlive a slice, and the
//! simulation is lane-count invariant by construction.

use std::cell::RefCell;
use std::fmt::Write as _;

use xenic::api::{TxnSpec, Workload};
use xenic::engine::XenicNode;
use xenic::msg::XMsg;
use xenic::Xenic;
use xenic_hw::HwParams;
use xenic_net::{Exec, Protocol, Runtime};
use xenic_sim::DetRng;
use xenic_store::{Key, Value};

use crate::run::{now_ns, Repeat, SLICES};

/// Protocol phase a message belongs to: the grouping of
/// `core.handle_ns.*`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Start,
    Execute,
    Validate,
    Log,
    Commit,
    Timer,
}

impl Phase {
    pub const ALL: [Phase; 6] =
        [Phase::Start, Phase::Execute, Phase::Validate, Phase::Log, Phase::Commit, Phase::Timer];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Start => "start",
            Phase::Execute => "execute",
            Phase::Validate => "validate",
            Phase::Log => "log",
            Phase::Commit => "commit",
            Phase::Timer => "timer",
        }
    }
}

/// Every message kind with the phase it is booked under; a span stores
/// its kind as an index into this table.
const KINDS: [(&str, Phase); 30] = [
    ("StartTxn", Phase::Start),
    ("RetryTxn", Phase::Start),
    ("TxnSubmit", Phase::Start),
    ("Execute", Phase::Execute),
    ("ExecuteResp", Phase::Execute),
    ("ExecShip", Phase::Execute),
    ("ExecShipResp", Phase::Execute),
    ("ReadSet", Phase::Execute),
    ("WritesReady", Phase::Execute),
    ("DmaLookupDone", Phase::Execute),
    ("Validate", Phase::Validate),
    ("ValidateResp", Phase::Validate),
    ("LogReq", Phase::Log),
    ("LogResp", Phase::Log),
    ("ApplyLog", Phase::Log),
    ("AppliedAck", Phase::Log),
    ("DmaLogDone", Phase::Log),
    ("RaftAppend", Phase::Log),
    ("RaftNack", Phase::Log),
    ("HermesInv", Phase::Log),
    ("HermesVal", Phase::Log),
    ("CommitReq", Phase::Commit),
    ("CommitAck", Phase::Commit),
    ("LocalCommit", Phase::Commit),
    ("Outcome", Phase::Commit),
    ("AbortReq", Phase::Commit),
    ("PhaseTimeout", Phase::Timer),
    ("CommitTick", Phase::Timer),
    ("RetryCommitApply", Phase::Timer),
    ("RetryBackupLog", Phase::Timer),
];
/// `Span::kind` of a `next_txn` span.
const GEN: u8 = KINDS.len() as u8;

fn kind_of(msg: &XMsg) -> u8 {
    match msg {
        XMsg::StartTxn { .. } => 0,
        XMsg::RetryTxn { .. } => 1,
        XMsg::TxnSubmit(_) => 2,
        XMsg::Execute(_) => 3,
        XMsg::ExecuteResp(_) => 4,
        XMsg::ExecShip(_) => 5,
        XMsg::ExecShipResp(_) => 6,
        XMsg::ReadSet { .. } => 7,
        XMsg::WritesReady { .. } => 8,
        XMsg::DmaLookupDone(_) => 9,
        XMsg::Validate(_) => 10,
        XMsg::ValidateResp { .. } => 11,
        XMsg::LogReq(_) => 12,
        XMsg::LogResp { .. } => 13,
        XMsg::ApplyLog { .. } => 14,
        XMsg::AppliedAck { .. } => 15,
        XMsg::DmaLogDone(_) => 16,
        XMsg::RaftAppend(_) => 17,
        XMsg::RaftNack { .. } => 18,
        XMsg::HermesInv(_) => 19,
        XMsg::HermesVal { .. } => 20,
        XMsg::CommitReq(_) => 21,
        XMsg::CommitAck { .. } => 22,
        XMsg::LocalCommit(_) => 23,
        XMsg::Outcome { .. } => 24,
        XMsg::AbortReq(_) => 25,
        XMsg::PhaseTimeout { .. } => 26,
        XMsg::CommitTick { .. } => 27,
        XMsg::RetryCommitApply(_) => 28,
        XMsg::RetryBackupLog(_) => 29,
    }
}

/// One recorded span, 16 bytes so that recording a few million of them
/// disturbs the caches of the run it observes as little as it can.
#[derive(Clone, Copy)]
pub struct Span {
    /// ns since the process epoch.
    pub start: u64,
    pub dur_ns: u32,
    pub node: u16,
    /// Index into [`KINDS`] for a handler span, [`GEN`] for `next_txn`.
    kind: u8,
    /// Handler: 1 if it ran on a NIC core, 0 on a host thread.
    /// `next_txn`: the returned spec's read+write+scan set size.
    aux: u8,
}

struct Recorder {
    /// Spans in the order they closed: a `next_txn` span's parent is the
    /// next handler span after it.
    spans: Vec<Span>,
    /// Pool of the message being serviced: `cost` is told, `handle` is
    /// not, and the runtime calls them back to back.
    on_nic: u8,
}

thread_local! {
    static REC: RefCell<Recorder> = const {
        RefCell::new(Recorder { spans: Vec::new(), on_nic: 0 })
    };
}

/// Empties the buffer and reserves room for `spans` spans, so that
/// recording never reallocates.
pub fn reset(spans: usize) {
    REC.with_borrow_mut(|r| r.spans = Vec::with_capacity(spans));
}

/// Takes the recorded spans, in the order they closed.
pub fn take() -> Vec<Span> {
    REC.with_borrow_mut(|r| std::mem::take(&mut r.spans))
}

fn record(start: u64, node: usize, kind: u8, aux: Option<u8>) {
    let dur_ns = (now_ns() - start).min(u64::from(u32::MAX)) as u32;
    REC.with_borrow_mut(|r| {
        let aux = aux.unwrap_or(r.on_nic);
        r.spans.push(Span { start, dur_ns, node: node as u16, kind, aux });
    });
}

/// Xenic with a span around every handler call.
pub struct Spanned;

impl Protocol for Spanned {
    type Msg = XMsg;
    type State = XenicNode;

    fn cost(msg: &XMsg, exec: Exec, params: &HwParams) -> u64 {
        REC.with_borrow_mut(|r| r.on_nic = u8::from(exec == Exec::Nic));
        Xenic::cost(msg, exec, params)
    }

    fn handle(state: &mut XenicNode, rt: &mut Runtime<XMsg>, node: usize, msg: XMsg) {
        let kind = kind_of(&msg);
        let start = now_ns();
        Xenic::handle(state, rt, node, msg);
        record(start, node, kind, None);
    }

    fn on_restart(state: &mut XenicNode, rt: &mut Runtime<XMsg>, node: usize) {
        Xenic::on_restart(state, rt, node);
    }
}

/// A generator with a span around every `next_txn`.
pub struct SpannedWorkload(pub Box<dyn Workload>);

impl Workload for SpannedWorkload {
    fn next_txn(&mut self, node: usize, rng: &mut DetRng) -> TxnSpec {
        let start = now_ns();
        let spec = self.0.next_txn(node, rng);
        let keys = spec.all_keys().count() + spec.scans.len();
        record(start, node, GEN, Some(keys.min(255) as u8));
        spec
    }

    fn value_bytes(&self) -> u32 {
        self.0.value_bytes()
    }

    fn preload(&self, shard: u32) -> Vec<(Key, Value)> {
        self.0.preload(shard)
    }
}

/// Host time of the T1 window, by layer. All times in ns.
#[derive(Default)]
pub struct Layers {
    /// Σ slice spans.
    pub window_ns: u64,
    /// Σ handler spans inside the window.
    pub handle_ns: u64,
    pub handles: u64,
    pub handle_ns_by_phase: [u64; 6],
    /// Σ `next_txn` spans inside the window.
    pub gen_ns: u64,
    pub gens: u64,
    pub gen_keys: u64,
}

impl Layers {
    /// The slices' self time: run loop, queue, dispatch, hardware models.
    pub fn loop_self_ns(&self) -> u64 {
        self.window_ns - self.handle_ns
    }
}

/// Books every span that lies inside the repeat's window to its layer.
pub fn layers(rep: &Repeat, spans: &[Span]) -> Layers {
    let (w0, w1) = (rep.slices[0].0, rep.slices[SLICES - 1].1);
    let mut out = Layers { window_ns: rep.slices.iter().map(|s| s.1 - s.0).sum(), ..Layers::default() };
    let inside = |s: &&Span| s.start >= w0 && s.start + u64::from(s.dur_ns) <= w1;
    for s in spans.iter().filter(inside) {
        let dur = u64::from(s.dur_ns);
        if s.kind == GEN {
            out.gen_ns += dur;
            out.gens += 1;
            out.gen_keys += u64::from(s.aux);
        } else {
            out.handle_ns += dur;
            out.handles += 1;
            out.handle_ns_by_phase[KINDS[s.kind as usize].1 as usize] += dur;
        }
    }
    out
}

/// Spans written to the Chrome trace; the rest are only aggregated.
const TRACE_SPAN_CAP: usize = 100_000;

/// Chrome `trace_event` JSON (loads in <https://ui.perfetto.dev>): the
/// warm-up and the 16 slices as root spans on one track, with the first
/// [`TRACE_SPAN_CAP`] handler and `next_txn` spans nested inside them
/// (a handler's parent is the slice that contains it).
/// `facts` is a JSON object stored as the file's metadata.
pub fn chrome_json(rep: &Repeat, spans: &[Span], facts: &str) -> String {
    let us = |ns: u64| ns as f64 / 1e3;
    let mut out = String::with_capacity(TRACE_SPAN_CAP * 160);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"metadata\":");
    out.push_str(facts);
    out.push_str(",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"warmup\",\"cat\":\"net\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3}}}",
        us(rep.warmup.0),
        us(rep.warmup.1 - rep.warmup.0)
    );
    for (i, s) in rep.slices.iter().enumerate() {
        let _ = write!(
            out,
            ",\n{{\"name\":\"slice {i}\",\"cat\":\"net\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"queue_len_at_end\":{}}}}}",
            us(s.0),
            us(s.1 - s.0),
            rep.queue_len[i]
        );
    }
    let shown = &spans[..spans.len().min(TRACE_SPAN_CAP)];
    for (i, s) in shown.iter().enumerate() {
        let (name, cat, args) = if s.kind == GEN {
            // Spans close inside out: the parent is the next handler.
            let parent = (i + 1..shown.len()).find(|&j| shown[j].kind != GEN);
            let parent = parent.map_or("null".to_string(), |j| j.to_string());
            ("next_txn", "workloads", format!("\"parent\":{parent},\"keys\":{}", s.aux))
        } else {
            let (name, phase) = KINDS[s.kind as usize];
            let exec = if s.aux == 1 { "Nic" } else { "Host" };
            (name, "core", format!("\"exec\":\"{exec}\",\"phase\":\"{}\"", phase.name()))
        };
        let _ = write!(
            out,
            ",\n{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"node\":{},{args}}}}}",
            us(s.start),
            us(u64::from(s.dur_ns)),
            s.node
        );
    }
    out.push_str("\n]}\n");
    out
}
