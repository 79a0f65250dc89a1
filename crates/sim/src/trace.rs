//! Deterministic tracing: typed events for spans, instants, and gauges.
//!
//! The [`Tracer`] is the observability substrate of the whole stack: the
//! cluster runtime owns one, protocol engines emit *phase spans*
//! (Execute / Validate / Log / Commit / Retransmit / Abort), and a
//! periodic sampler records *gauges* (run-queue depth, busy cores, DMA
//! occupancy, port backlog). Every event is stamped with [`SimTime`], the
//! node id, and the emitting [`Component`].
//!
//! # Determinism contract
//!
//! * A **disabled** tracer records nothing, allocates nothing beyond the
//!   struct itself, and — crucially — draws **no randomness** and causes
//!   **no extra simulation events**, so a traced-off run is bit-identical
//!   to a build where tracing was never wired in.
//! * An **enabled** tracer is a pure observer: recording mutates only the
//!   tracer, so enabling it cannot perturb protocol outcomes either. The
//!   event stream, and therefore every exporter's byte output, is a pure
//!   function of `(configuration, seed)`.
//! * The buffer is a bounded ring: when `capacity` is reached the oldest
//!   event is evicted (and counted in [`Tracer::dropped`]), so memory is
//!   bounded no matter how long a run is.
//! * The stream does not depend on how the run was scheduled: every
//!   record is keyed by `(time, stamp of the event being dispatched)`,
//!   the simulation's total order, so per-lane recorders merge
//!   ([`Tracer::absorb`]) into exactly the stream one recorder would
//!   have written, ring bound included.
//!
//! # Exporters
//!
//! * [`Tracer::chrome_json`] — Chrome `trace_event` JSON, loadable in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. Nodes
//!   become processes, components become named threads, matched
//!   begin/end pairs become complete (`"X"`) events, instants become
//!   `"i"` events, and gauges become counter (`"C"`) tracks.
//! * [`Tracer::gauges_csv`] — the gauge series as CSV
//!   (`t_ns,node,component,gauge,value`).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt::Write as _;

use crate::time::SimTime;

/// Tracing configuration, carried by the cluster's network config.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. Off (the default) means zero cost and zero events.
    pub enabled: bool,
    /// Ring-buffer bound, in events. Oldest events are evicted beyond it.
    pub capacity: usize,
    /// Gauge sampling period in simulated ns; `0` disables sampling (span
    /// and instant events are still recorded).
    pub gauge_interval_ns: u64,
}

impl TraceConfig {
    /// Tracing off — the default; byte-identical to an untraced build.
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 0,
            gauge_interval_ns: 0,
        }
    }

    /// Spans and instants only (no periodic gauge sampling).
    pub fn spans() -> Self {
        TraceConfig {
            enabled: true,
            capacity: 1 << 20,
            gauge_interval_ns: 0,
        }
    }

    /// Spans, instants, and gauges sampled every 10 µs.
    pub fn full() -> Self {
        TraceConfig {
            enabled: true,
            capacity: 1 << 20,
            gauge_interval_ns: 10_000,
        }
    }

    /// Overrides the ring-buffer capacity (builder style).
    pub fn with_capacity(mut self, events: usize) -> Self {
        self.capacity = events;
        self
    }

    /// Overrides the gauge sampling period (builder style).
    pub fn with_gauge_interval_ns(mut self, ns: u64) -> Self {
        self.gauge_interval_ns = ns;
        self
    }

    /// True if this config records anything at all.
    pub fn active(&self) -> bool {
        self.enabled && self.capacity > 0
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The piece of modeled hardware an event is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// A specific host (Xeon) hardware thread.
    HostCore(u16),
    /// A specific SmartNIC (ARM) core.
    NicCore(u16),
    /// The host core pool as a whole (run-queue/busy gauges).
    HostPool,
    /// The NIC core pool as a whole.
    NicPool,
    /// The LiquidIO PCIe DMA engine.
    Dma,
    /// The LiquidIO Ethernet port (Xenic protocol traffic).
    LioPort,
    /// The CX5 Ethernet port (RDMA baseline traffic).
    Cx5Port,
    /// The host↔NIC PCIe message path.
    PciePort,
}

impl Component {
    /// Stable integer thread id for Chrome-trace export.
    pub fn tid(&self) -> u32 {
        match self {
            Component::HostPool => 10,
            Component::NicPool => 11,
            Component::Dma => 20,
            Component::LioPort => 30,
            Component::Cx5Port => 31,
            Component::PciePort => 32,
            Component::HostCore(i) => 100 + u32::from(*i),
            Component::NicCore(i) => 200 + u32::from(*i),
        }
    }

    /// Human-readable track label.
    pub fn label(&self) -> String {
        match self {
            Component::HostCore(i) => format!("host core {i}"),
            Component::NicCore(i) => format!("nic core {i}"),
            Component::HostPool => "host pool".to_string(),
            Component::NicPool => "nic pool".to_string(),
            Component::Dma => "dma engine".to_string(),
            Component::LioPort => "lio port".to_string(),
            Component::Cx5Port => "cx5 port".to_string(),
            Component::PciePort => "pcie port".to_string(),
        }
    }
}

/// What kind of event was recorded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceKind {
    /// A span opens. Matched to the next [`TraceKind::End`] with the same
    /// `(node, name, id)`.
    Begin {
        /// Correlation id (e.g. transaction sequence number).
        id: u64,
    },
    /// A span closes.
    End {
        /// Correlation id.
        id: u64,
    },
    /// A point event (e.g. a commit decision or a retransmission).
    Instant {
        /// Correlation id.
        id: u64,
    },
    /// A sampled gauge value.
    Gauge {
        /// The sampled value.
        value: f64,
    },
}

/// One recorded trace event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: SimTime,
    /// Node the event belongs to.
    pub node: u32,
    /// Hardware component attribution.
    pub component: Component,
    /// Event name (phase or gauge name).
    pub name: &'static str,
    /// Kind and kind-specific payload.
    pub kind: TraceKind,
}

/// A matched begin/end pair, as returned by [`Tracer::spans`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Span name (e.g. `"Execute"`).
    pub name: &'static str,
    /// Correlation id shared by the begin and end events.
    pub id: u64,
    /// Node the span belongs to.
    pub node: u32,
    /// Component that opened the span.
    pub component: Component,
    /// Open time.
    pub begin: SimTime,
    /// Close time.
    pub end: SimTime,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end.since(self.begin)
    }
}

/// A bounded, deterministic recorder of typed trace events.
#[derive(Clone, Debug)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    gauge_interval_ns: u64,
    /// Stamp of the simulation event being dispatched (see
    /// [`Tracer::at_dispatch`]).
    stamp: u64,
    /// The ring, each record with the stamp it was made under; ascending
    /// by `(at, stamp)`.
    events: VecDeque<(u64, TraceEvent)>,
    dropped: u64,
    instant_totals: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// A tracer that records nothing — the zero-cost default.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            capacity: 0,
            gauge_interval_ns: 0,
            stamp: 0,
            events: VecDeque::new(),
            dropped: 0,
            instant_totals: BTreeMap::new(),
        }
    }

    /// Builds a tracer from a config (disabled configs record nothing).
    pub fn from_config(cfg: &TraceConfig) -> Self {
        if !cfg.active() {
            return Self::disabled();
        }
        Tracer {
            enabled: true,
            capacity: cfg.capacity,
            gauge_interval_ns: cfg.gauge_interval_ns,
            ..Self::disabled()
        }
    }

    /// Whether this tracer records events.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Gauge sampling period (0 = sampling off).
    pub fn gauge_interval_ns(&self) -> u64 {
        self.gauge_interval_ns
    }

    /// Names the simulation event about to be dispatched by its queue
    /// stamp. Everything recorded until the next call happened inside
    /// that dispatch, at that event's time, so `(at, stamp)` places a
    /// record in the simulation's total order whichever scheduler lane
    /// wrote it down.
    pub fn at_dispatch(&mut self, stamp: u64) {
        self.stamp = stamp;
    }

    fn push(&mut self, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((self.stamp, ev));
    }

    /// Merges the recorders of a run's scheduler lanes into this one,
    /// which holds whatever was recorded before the run was split: the
    /// result is the stream a single recorder would hold after the same
    /// run. Records interleave by `(at, stamp)`; records sharing a key
    /// come from one dispatch, hence one recorder, and keep their order.
    /// The ring rule stays exact, because an event among the last
    /// `capacity` of the merged order is also among the last `capacity`
    /// of its own recorder: the merge keeps that suffix and counts the
    /// rest as dropped.
    pub fn absorb(&mut self, lanes: impl IntoIterator<Item = Tracer>) {
        if !self.enabled {
            return;
        }
        let mut all = Vec::from(std::mem::take(&mut self.events));
        for lane in lanes {
            self.dropped += lane.dropped;
            for (name, n) in lane.instant_totals {
                *self.instant_totals.entry(name).or_insert(0) += n;
            }
            all.extend(lane.events);
        }
        all.sort_by_key(|(stamp, ev)| (ev.at, *stamp));
        let excess = all.len().saturating_sub(self.capacity);
        self.dropped += excess as u64;
        all.drain(..excess);
        self.events = all.into();
    }

    /// Opens a span.
    pub fn begin(
        &mut self,
        at: SimTime,
        node: u32,
        component: Component,
        name: &'static str,
        id: u64,
    ) {
        self.push(TraceEvent {
            at,
            node,
            component,
            name,
            kind: TraceKind::Begin { id },
        });
    }

    /// Closes a span.
    pub fn end(
        &mut self,
        at: SimTime,
        node: u32,
        component: Component,
        name: &'static str,
        id: u64,
    ) {
        self.push(TraceEvent {
            at,
            node,
            component,
            name,
            kind: TraceKind::End { id },
        });
    }

    /// Records a point event. Instants are additionally tallied in a
    /// ring-proof running total (see [`Tracer::instant_total`]).
    pub fn instant(
        &mut self,
        at: SimTime,
        node: u32,
        component: Component,
        name: &'static str,
        id: u64,
    ) {
        if !self.enabled {
            return;
        }
        *self.instant_totals.entry(name).or_insert(0) += 1;
        self.push(TraceEvent {
            at,
            node,
            component,
            name,
            kind: TraceKind::Instant { id },
        });
    }

    /// Records a gauge sample.
    pub fn gauge(
        &mut self,
        at: SimTime,
        node: u32,
        component: Component,
        name: &'static str,
        value: f64,
    ) {
        self.push(TraceEvent {
            at,
            node,
            component,
            name,
            kind: TraceKind::Gauge { value },
        });
    }

    /// Events currently in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().map(|(_, ev)| ev)
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total instants recorded under `name` over the whole run — counted
    /// at record time, so ring eviction cannot under-report.
    pub fn instant_total(&self, name: &str) -> u64 {
        self.instant_totals.get(name).copied().unwrap_or(0)
    }

    /// Matches begin/end pairs by `(node, name, id)` and returns the
    /// closed spans in close order. Unmatched begins (spans still open)
    /// and unmatched ends (begin evicted by the ring) are skipped.
    pub fn spans(&self) -> Vec<Span> {
        type OpenStacks = HashMap<(u32, &'static str, u64), Vec<(SimTime, Component)>>;
        let mut open: OpenStacks = HashMap::new();
        let mut out = Vec::new();
        for ev in self.events() {
            match ev.kind {
                TraceKind::Begin { id } => open
                    .entry((ev.node, ev.name, id))
                    .or_default()
                    .push((ev.at, ev.component)),
                TraceKind::End { id } => {
                    if let Some(stack) = open.get_mut(&(ev.node, ev.name, id)) {
                        if let Some((begin, component)) = stack.pop() {
                            out.push(Span {
                                name: ev.name,
                                id,
                                node: ev.node,
                                component,
                                begin,
                                end: ev.at,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Number of spans begun but never closed (should be 0 after a fully
    /// drained fault-free run).
    pub fn open_span_count(&self) -> usize {
        let mut open: HashMap<(u32, &'static str, u64), i64> = HashMap::new();
        for ev in self.events() {
            match ev.kind {
                TraceKind::Begin { id } => *open.entry((ev.node, ev.name, id)).or_insert(0) += 1,
                TraceKind::End { id } => *open.entry((ev.node, ev.name, id)).or_insert(0) -= 1,
                _ => {}
            }
        }
        open.values().filter(|&&n| n > 0).map(|&n| n as usize).sum()
    }

    /// Exports the buffer as Chrome `trace_event` JSON (Perfetto-loadable).
    /// Byte output is a pure function of the recorded event sequence.
    pub fn chrome_json(&self) -> String {
        // Microsecond timestamps with explicit sub-us digits: formatting
        // integers keeps the output byte-stable.
        fn ts(t: SimTime) -> String {
            let ns = t.as_ns();
            format!("{}.{:03}", ns / 1000, ns % 1000)
        }
        // Pre-match spans so begin events can emit complete ("X") events.
        let mut open: HashMap<(u32, &'static str, u64), Vec<usize>> = HashMap::new();
        let mut end_at: HashMap<usize, SimTime> = HashMap::new();
        for (i, ev) in self.events().enumerate() {
            match ev.kind {
                TraceKind::Begin { id } => {
                    open.entry((ev.node, ev.name, id)).or_default().push(i)
                }
                TraceKind::End { id } => {
                    if let Some(stack) = open.get_mut(&(ev.node, ev.name, id)) {
                        if let Some(b) = stack.pop() {
                            end_at.insert(b, ev.at);
                        }
                    }
                }
                _ => {}
            }
        }
        let mut tracks: BTreeSet<(u32, Component)> = BTreeSet::new();
        for ev in self.events() {
            tracks.insert((ev.node, ev.component));
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push_str(",\n");
            }
        };
        for &(node, comp) in &tracks {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{node},\"tid\":0,\
                 \"args\":{{\"name\":\"node {node}\"}}}}"
            );
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{node},\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                comp.tid(),
                comp.label()
            );
        }
        for (i, ev) in self.events().enumerate() {
            match ev.kind {
                TraceKind::Begin { id } => {
                    let Some(&end) = end_at.get(&i) else {
                        continue; // still open: no complete event
                    };
                    sep(&mut out);
                    let dur_ns = end.since(ev.at);
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"phase\",\"pid\":{},\
                         \"tid\":{},\"ts\":{},\"dur\":{}.{:03},\"args\":{{\"id\":{}}}}}",
                        ev.name,
                        ev.node,
                        ev.component.tid(),
                        ts(ev.at),
                        dur_ns / 1000,
                        dur_ns % 1000,
                        id
                    );
                }
                TraceKind::End { .. } => {}
                TraceKind::Instant { id } => {
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"phase\",\"s\":\"t\",\
                         \"pid\":{},\"tid\":{},\"ts\":{},\"args\":{{\"id\":{}}}}}",
                        ev.name,
                        ev.node,
                        ev.component.tid(),
                        ts(ev.at),
                        id
                    );
                }
                TraceKind::Gauge { value } => {
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"ph\":\"C\",\"name\":\"{} {}\",\"pid\":{},\"tid\":{},\
                         \"ts\":{},\"args\":{{\"value\":{}}}}}",
                        ev.component.label(),
                        ev.name,
                        ev.node,
                        ev.component.tid(),
                        ts(ev.at),
                        value
                    );
                }
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }

    /// Exports the gauge series as CSV: `t_ns,node,component,gauge,value`.
    pub fn gauges_csv(&self) -> String {
        let mut out = String::from("t_ns,node,component,gauge,value\n");
        for ev in self.events() {
            if let TraceKind::Gauge { value } = ev.kind {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{}",
                    ev.at.as_ns(),
                    ev.node,
                    ev.component.label(),
                    ev.name,
                    value
                );
            }
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        tr.begin(t(1), 0, Component::NicCore(0), "Execute", 7);
        tr.instant(t(2), 0, Component::NicCore(0), "Commit", 7);
        tr.gauge(t(3), 0, Component::Dma, "busy_queues", 4.0);
        assert!(tr.is_empty());
        assert_eq!(tr.dropped(), 0);
        assert_eq!(tr.instant_total("Commit"), 0);
        assert!(!tr.enabled());
    }

    #[test]
    fn spans_match_by_node_name_id() {
        let mut tr = Tracer::from_config(&TraceConfig::spans());
        tr.begin(t(100), 0, Component::NicCore(1), "Execute", 1);
        tr.begin(t(110), 1, Component::NicCore(2), "Execute", 1); // other node
        tr.end(t(150), 0, Component::NicCore(1), "Execute", 1);
        tr.end(t(180), 1, Component::NicCore(2), "Execute", 1);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].node, 0);
        assert_eq!(spans[0].dur_ns(), 50);
        assert_eq!(spans[1].node, 1);
        assert_eq!(spans[1].dur_ns(), 70);
        assert_eq!(tr.open_span_count(), 0);
    }

    #[test]
    fn open_spans_are_counted() {
        let mut tr = Tracer::from_config(&TraceConfig::spans());
        tr.begin(t(1), 0, Component::NicCore(0), "Execute", 1);
        tr.begin(t(2), 0, Component::NicCore(0), "Execute", 2);
        tr.end(t(3), 0, Component::NicCore(0), "Execute", 1);
        assert_eq!(tr.open_span_count(), 1);
        assert_eq!(tr.spans().len(), 1);
    }

    #[test]
    fn ring_bound_evicts_oldest() {
        let cfg = TraceConfig::spans().with_capacity(3);
        let mut tr = Tracer::from_config(&cfg);
        for i in 0..5u64 {
            tr.instant(t(i), 0, Component::NicPool, "tick", i);
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped(), 2);
        let first = tr.events().next().unwrap();
        assert_eq!(first.at, t(2));
        // The running total is eviction-proof.
        assert_eq!(tr.instant_total("tick"), 5);
    }

    /// Three lane recorders and the pre-split one, all at capacity 4,
    /// against one recorder fed the same records in `(at, stamp)` order:
    /// `absorb` must leave exactly its ring, drop count and totals.
    #[test]
    fn absorb_keeps_the_last_capacity_events_of_the_merged_order() {
        let cfg = TraceConfig::spans().with_capacity(4);
        // (recorder, at, stamp): recorder 0 is the pre-split shell, whose
        // records all precede the lanes'. Lane 3 is long enough to evict
        // on its own; two dispatches share t=20 and differ by stamp only.
        let script: [(usize, u64, u64); 12] = [
            (0, 1, 7),
            (0, 2, 3),
            (1, 10, 5),
            (2, 10, 9),
            (3, 11, 1),
            (3, 12, 2),
            (1, 20, 4),
            (2, 20, 6),
            (3, 21, 8),
            (3, 22, 0),
            (3, 23, 0),
            (1, 30, 2),
        ];
        let mut one = Tracer::from_config(&cfg);
        let mut parts: Vec<Tracer> = (0..4).map(|_| Tracer::from_config(&cfg)).collect();
        for &(who, at, stamp) in &script {
            for tr in [&mut one, &mut parts[who]] {
                tr.at_dispatch(stamp);
                tr.instant(t(at), who as u32, Component::NicPool, "tick", stamp);
                tr.begin(t(at), who as u32, Component::NicPool, "Execute", stamp);
            }
        }
        assert!(parts[3].dropped() > 0, "a lane ring must evict on its own");
        let mut merged = parts.remove(0);
        merged.absorb(parts);
        assert_eq!(merged.len(), 4);
        assert!(merged.events().eq(one.events()), "merged ring differs");
        assert_eq!(merged.dropped(), one.dropped());
        assert_eq!(merged.dropped(), 2 * script.len() as u64 - 4);
        assert_eq!(merged.instant_total("tick"), script.len() as u64);
    }

    #[test]
    fn chrome_json_is_deterministic_and_structured() {
        let mk = || {
            let mut tr = Tracer::from_config(&TraceConfig::full());
            tr.begin(t(1_000), 0, Component::NicCore(3), "Execute", 42);
            tr.end(t(3_500), 0, Component::NicCore(3), "Execute", 42);
            tr.instant(t(3_600), 0, Component::NicCore(3), "Commit", 42);
            tr.gauge(t(4_000), 1, Component::Dma, "busy_queues", 2.5);
            tr.chrome_json()
        };
        let a = mk();
        assert_eq!(a, mk(), "export must be byte-identical");
        assert!(a.contains("\"ph\":\"X\""), "complete event missing:\n{a}");
        assert!(a.contains("\"dur\":2.500"), "duration missing:\n{a}");
        assert!(a.contains("\"ph\":\"i\""), "instant missing:\n{a}");
        assert!(a.contains("\"ph\":\"C\""), "counter missing:\n{a}");
        assert!(a.contains("nic core 3"), "thread name missing:\n{a}");
        assert!(a.contains("node 1"), "process name missing:\n{a}");
        // Valid JSON shape (cheap checks; the real validation is loading
        // the file in Perfetto).
        assert!(a.starts_with('{') && a.trim_end().ends_with('}'));
        assert_eq!(
            a.matches('{').count(),
            a.matches('}').count(),
            "unbalanced braces"
        );
    }

    #[test]
    fn gauges_csv_has_only_gauges() {
        let mut tr = Tracer::from_config(&TraceConfig::full());
        tr.begin(t(1), 0, Component::NicCore(0), "Execute", 1);
        tr.gauge(t(10_000), 2, Component::HostPool, "runq", 3.0);
        tr.gauge(t(20_000), 2, Component::LioPort, "inflight_bytes", 1500.0);
        let csv = tr.gauges_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 gauges:\n{csv}");
        assert_eq!(lines[0], "t_ns,node,component,gauge,value");
        assert_eq!(lines[1], "10000,2,host pool,runq,3");
        assert_eq!(lines[2], "20000,2,lio port,inflight_bytes,1500");
    }

    #[test]
    fn config_presets() {
        assert!(!TraceConfig::disabled().active());
        assert!(!TraceConfig::default().active());
        assert!(TraceConfig::spans().active());
        assert_eq!(TraceConfig::spans().gauge_interval_ns, 0);
        assert!(TraceConfig::full().gauge_interval_ns > 0);
        assert!(!TraceConfig::spans().with_capacity(0).active());
        let tr = Tracer::from_config(&TraceConfig::full().with_gauge_interval_ns(5_000));
        assert_eq!(tr.gauge_interval_ns(), 5_000);
    }
}
