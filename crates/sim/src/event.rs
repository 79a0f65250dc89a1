//! The event queue at the heart of the simulator.
//!
//! Events are totally ordered by `(time, sequence)`: equal timestamps pop
//! in insertion order. This FIFO tie-break is what makes whole-cluster
//! simulations reproducible across runs and platforms.
//!
//! # Two-lane layout
//!
//! Discrete-event simulations of a rack are dominated by *short* delays:
//! local hops (~50 ns), aggregation windows (~60 ns), core service times
//! (hundreds of ns), wire latencies (a few µs). A comparison heap pays
//! `O(log n)` pointer-chasing on every one of them. Instead the queue keeps
//! two lanes:
//!
//! * a **near-future calendar**: a ring of [`NEAR_BUCKETS`] buckets, each
//!   [`BUCKET_NS`] wide (a 512 ns horizon past `now`). An event lands in
//!   bucket `time / BUCKET_NS`; buckets keep entries sorted ascending by
//!   `(time, seq)`, so an append/pop-front is O(1). An occupancy bitmap
//!   finds the next non-empty bucket with a couple of `trailing_zeros`,
//!   never a linear slot walk.
//! * a **far heap**: a four-ary implicit min-heap for everything past the
//!   horizon. Four-ary halves the tree depth of a binary heap and keeps
//!   sift children in one cache line's worth of slots.
//!
//! The far heap is not a side lane for rare long delays. Wire latencies
//! of a few µs overshoot the 512 ns horizon, so it takes 23 % of pushes
//! on the benchmark's `retwis_sat`, 52 % on `tpcc_full` and 54 % on
//! `ycsbe_scan`, with a mean length at pop of about 800, 620 and 280
//! entries; 99.7 % of the Retwis far pushes land 0.5–4.1 µs ahead. The
//! near lane's O(1) append also holds only for the auto-sequence
//! [`EventQueue::push`]: under the owner-stamped
//! [`EventQueue::push_with_seq`] that the cluster runtime uses, 24 % of
//! Retwis near pushes meet an equal-time entry with a larger `seq` and
//! take the binary-search insert. (Counted with counters kept out of the
//! tree.) A wider calendar was tried and measured slower: 2048 or 4096
//! buckets, with `VecDeque` buckets, gave `retwis_sat`
//! `host_us_per_commit` medians of three of 24.4 and 26.2 µs against
//! 23.8 µs at 512. A next attempt at the queue should start from these
//! figures.
//!
//! `pop` compares the lane minima, so the merged order is *exactly* the
//! `(time, seq)` order of the old single binary heap — asserted against a
//! reference `BinaryHeap` implementation on randomized schedules in
//! `crates/sim/tests/queue_differential.rs`.
//!
//! Why the ring can't alias: every live near-lane event satisfies
//! `time >= now` (anything earlier would already have popped, since `pop`
//! always takes the global minimum), and events beyond `now + horizon` go
//! to the far heap at push time. So live bucket indices always span fewer
//! than [`NEAR_BUCKETS`] consecutive values and each ring slot holds one
//! linear bucket at a time. Far-heap events whose time drifts inside the
//! horizon as `now` advances simply stay in the far heap; the pop-time
//! comparison keeps them ordered.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Number of near-future calendar buckets (power of two).
const NEAR_BUCKETS: usize = 512;
/// Width of one calendar bucket in nanoseconds.
///
/// One bucket per nanosecond: a dense simulation schedules hundreds of
/// events inside any wider window, and a sub-bucket ordered insert would
/// degenerate into `O(n)` memmoves. At 1 ns a bucket only ever holds
/// equal-time entries. Under [`EventQueue::push`] their `seq` increases
/// monotonically, so every insert is an O(1) append; under
/// [`EventQueue::push_with_seq`] a caller's stamp can be smaller than a
/// queued one, and the insert binary-searches the bucket (see the module
/// docs for how often). Every pop is an O(1) pop-front.
const BUCKET_NS: u64 = 1;
/// Words in the occupancy bitmap.
const OCC_WORDS: usize = NEAR_BUCKETS / 64;

/// A deterministic future-event list.
///
/// `E` is the simulation's event payload type; the kernel imposes no
/// structure on it. Protocol crates define their own event enums and drive
/// the loop themselves:
///
/// ```
/// use xenic_sim::{EventQueue, SimTime};
///
/// enum Ev { Tick }
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_us(1), Ev::Tick);
/// while let Some((t, _ev)) = q.pop() {
///     assert_eq!(t, SimTime::from_us(1));
/// }
/// ```
pub struct EventQueue<E> {
    /// Near-future calendar ring; slot `b % NEAR_BUCKETS` holds linear
    /// bucket `b`, entries ascending by `(time, seq)`.
    near: Vec<VecDeque<(SimTime, u64, E)>>,
    /// Occupancy bitmap over ring slots (bit set ⇔ slot non-empty).
    occ: [u64; OCC_WORDS],
    /// Number of events in the near lane.
    near_len: usize,
    /// Cached minimum `(time, seq)` of the near lane, if non-empty.
    near_min: Option<(SimTime, u64)>,
    /// Four-ary implicit min-heap for events past the calendar horizon.
    far: Vec<(SimTime, u64, E)>,
    seq: u64,
    now: SimTime,
    popped: u64,
    /// Tie-break sequence of the last popped event.
    last_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            near: (0..NEAR_BUCKETS).map(|_| VecDeque::new()).collect(),
            occ: [0; OCC_WORDS],
            near_len: 0,
            near_min: None,
            far: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            last_seq: 0,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Tie-break sequence of the last popped event (0 before the first
    /// pop). With [`EventQueue::now`] it is the event's position in the
    /// total order, which the tracer keys its records by.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Number of events waiting.
    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events processed so far (popped).
    pub fn processed(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// Scheduling in the past is a logic error in the caller; the kernel
    /// clamps it to `now` rather than silently travelling backwards, so a
    /// buggy component degrades to zero-latency instead of corrupting the
    /// clock. Debug builds assert.
    pub fn push(&mut self, time: SimTime, event: E) {
        debug_assert!(
            time >= self.now,
            "event scheduled in the past: {:?} < {:?}",
            time,
            self.now
        );
        let time = time.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let bucket = time.as_ns() / BUCKET_NS;
        let horizon = self.now.as_ns() / BUCKET_NS + NEAR_BUCKETS as u64;
        if bucket < horizon {
            self.near_push(bucket, time, seq, event);
        } else {
            self.far_push(time, seq, event);
        }
    }

    /// Schedules `event` after a relative delay in nanoseconds.
    pub fn push_after(&mut self, delay_ns: u64, event: E) {
        let t = self.now + delay_ns;
        self.push(t, event);
    }

    /// Schedules `event` with a caller-supplied tie-break sequence.
    ///
    /// Lane-scheduler plumbing: the multi-lane cluster scheduler stamps
    /// every event with an intrinsic `(owner_node, per-node counter)` key
    /// so equal-time ordering is a pure function of simulation history
    /// rather than of queue insertion order. The caller owns the sequence
    /// space and must keep keys unique; the internal auto-sequence counter
    /// is left untouched (mixing `push` and `push_with_seq` on one queue
    /// is the caller's ordering problem).
    pub fn push_with_seq(&mut self, time: SimTime, seq: u64, event: E) {
        debug_assert!(
            time >= self.now,
            "event scheduled in the past: {:?} < {:?}",
            time,
            self.now
        );
        let time = time.max(self.now);
        let bucket = time.as_ns() / BUCKET_NS;
        let horizon = self.now.as_ns() / BUCKET_NS + NEAR_BUCKETS as u64;
        if bucket < horizon {
            self.near_push(bucket, time, seq, event);
        } else {
            self.far_push(time, seq, event);
        }
    }

    /// Removes and returns every pending event, ascending by
    /// `(time, seq)`, without advancing the clock or counting anything as
    /// processed. Lane-scheduler plumbing: used to split a master queue
    /// into per-lane queues and to merge lane remainders back.
    pub fn drain_sorted(&mut self) -> Vec<(SimTime, u64, E)> {
        let mut all: Vec<(SimTime, u64, E)> = Vec::with_capacity(self.len());
        for b in &mut self.near {
            all.extend(b.drain(..));
        }
        all.append(&mut self.far);
        self.occ = [0; OCC_WORDS];
        self.near_len = 0;
        self.near_min = None;
        all.sort_by_key(|e| (e.0, e.1));
        all
    }

    /// Advances the clock to `t` without popping (never moves backwards).
    /// Lane-scheduler plumbing: a reassembled master queue takes the
    /// latest lane clock so later pushes satisfy the `time >= now` check.
    pub fn set_now(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    /// Adds externally-processed events to the popped counter.
    /// Lane-scheduler plumbing: per-lane pops count toward the reassembled
    /// cluster's total so `processed()` matches the serial scheduler.
    pub fn add_processed(&mut self, n: u64) {
        self.popped += n;
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let take_near = match (self.near_min, self.far.first()) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(n), Some(f)) => n < (f.0, f.1),
        };
        let (time, seq, event) = if take_near {
            self.near_pop_min()
        } else {
            self.far_pop()
        };
        debug_assert!(time >= self.now);
        self.now = time;
        self.last_seq = seq;
        self.popped += 1;
        Some((time, event))
    }

    /// Pops the next event only if its timestamp is at or before
    /// `horizon`, advancing the clock. Equivalent to a `peek_time`
    /// check followed by `pop`, but the lane comparison runs once — this
    /// is the event loop's per-event fast path.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let take_near = match (self.near_min, self.far.first()) {
            (None, None) => return None,
            (Some(n), None) => {
                if n.0 > horizon {
                    return None;
                }
                true
            }
            (None, Some(f)) => {
                if f.0 > horizon {
                    return None;
                }
                false
            }
            (Some(n), Some(f)) => {
                let near = n < (f.0, f.1);
                if (if near { n.0 } else { f.0 }) > horizon {
                    return None;
                }
                near
            }
        };
        let (time, seq, event) = if take_near {
            self.near_pop_min()
        } else {
            self.far_pop()
        };
        debug_assert!(time >= self.now);
        self.now = time;
        self.last_seq = seq;
        self.popped += 1;
        Some((time, event))
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.near_min, self.far.first()) {
            (None, None) => None,
            (Some((t, _)), None) => Some(t),
            (None, Some(f)) => Some(f.0),
            (Some(n), Some(f)) => Some(if n < (f.0, f.1) { n.0 } else { f.0 }),
        }
    }

    /// Drops all pending events (used by harnesses at the measurement
    /// horizon). The clock is left where it is.
    pub fn clear(&mut self) {
        for b in &mut self.near {
            b.clear();
        }
        self.occ = [0; OCC_WORDS];
        self.near_len = 0;
        self.near_min = None;
        self.far.clear();
    }

    // ---- near lane ----

    fn near_push(&mut self, bucket: u64, time: SimTime, seq: u64, event: E) {
        let key = (time, seq);
        if self.near_min.is_none_or(|m| key < m) {
            self.near_min = Some(key);
        }
        let slot = bucket as usize & (NEAR_BUCKETS - 1);
        let items = &mut self.near[slot];
        if items.back().is_none_or(|e| (e.0, e.1) < key) {
            items.push_back((time, seq, event));
        } else {
            // An equal-time entry with a larger seq is already queued:
            // rare under `push`, a quarter of Retwis near pushes under
            // the runtime's owner-stamped `push_with_seq`.
            let mut lo = 0;
            let mut hi = items.len();
            while lo < hi {
                let mid = (lo + hi) / 2;
                let e = &items[mid];
                if (e.0, e.1) < key {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            items.insert(lo, (time, seq, event));
        }
        self.occ[slot / 64] |= 1 << (slot % 64);
        self.near_len += 1;
    }

    fn near_pop_min(&mut self) -> (SimTime, u64, E) {
        let (t, _) = self.near_min.expect("near lane non-empty");
        let bucket = t.as_ns() / BUCKET_NS;
        let slot = bucket as usize & (NEAR_BUCKETS - 1);
        let entry = self.near[slot].pop_front().expect("cached min bucket");
        debug_assert_eq!((entry.0, entry.1), self.near_min.unwrap());
        if self.near[slot].is_empty() {
            self.occ[slot / 64] &= !(1 << (slot % 64));
        }
        self.near_len -= 1;
        self.near_min = if self.near_len == 0 {
            None
        } else {
            // The lane minimum lives in the first occupied slot at or
            // after this one in ring order: live bucket indices span fewer
            // than NEAR_BUCKETS consecutive values starting at `bucket`.
            let s = self.next_occupied(slot);
            let e = self.near[s].front().expect("occupancy bit set");
            Some((e.0, e.1))
        };
        entry
    }

    /// First slot at or after `from` (in ring order) with its occupancy
    /// bit set. Caller guarantees at least one bit is set.
    fn next_occupied(&self, from: usize) -> usize {
        let w0 = from / 64;
        let masked = self.occ[w0] & (!0u64 << (from % 64));
        if masked != 0 {
            return w0 * 64 + masked.trailing_zeros() as usize;
        }
        for i in 1..=OCC_WORDS {
            let w = (w0 + i) % OCC_WORDS;
            if self.occ[w] != 0 {
                return w * 64 + self.occ[w].trailing_zeros() as usize;
            }
        }
        unreachable!("near lane marked non-empty but no occupancy bit set")
    }

    // ---- far lane: four-ary implicit min-heap on (time, seq) ----

    fn far_push(&mut self, time: SimTime, seq: u64, event: E) {
        self.far.push((time, seq, event));
        let mut i = self.far.len() - 1;
        while i > 0 {
            let p = (i - 1) / 4;
            if (self.far[i].0, self.far[i].1) < (self.far[p].0, self.far[p].1) {
                self.far.swap(i, p);
                i = p;
            } else {
                break;
            }
        }
    }

    fn far_pop(&mut self) -> (SimTime, u64, E) {
        let last = self.far.len() - 1;
        self.far.swap(0, last);
        let entry = self.far.pop().expect("far lane non-empty");
        let n = self.far.len();
        let mut i = 0;
        loop {
            let first = 4 * i + 1;
            if first >= n {
                break;
            }
            let mut m = first;
            for c in first + 1..(first + 4).min(n) {
                if (self.far[c].0, self.far[c].1) < (self.far[m].0, self.far[m].1) {
                    m = c;
                }
            }
            if (self.far[m].0, self.far[m].1) < (self.far[i].0, self.far[i].1) {
                self.far.swap(i, m);
                i = m;
            } else {
                break;
            }
        }
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        let got: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ns(5), i);
        }
        let got: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let want: Vec<i32> = (0..100).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), ());
        q.push(SimTime::from_ns(10), ());
        q.push(SimTime::from_ns(25), ());
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            assert_eq!(q.now(), t);
        }
        assert_eq!(last, SimTime::from_ns(25));
    }

    #[test]
    fn push_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(100), "first");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t.as_ns(), 100);
        q.push_after(50, "second");
        let (t2, e) = q.pop().unwrap();
        assert_eq!(t2.as_ns(), 150);
        assert_eq!(e, "second");
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(40), 4);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_ns(20), 2);
        q.push(SimTime::from_ns(30), 3);
        let got: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn processed_counts_pops() {
        let mut q = EventQueue::new();
        for _ in 0..5 {
            q.push_after(1, ());
        }
        while q.pop().is_some() {}
        assert_eq!(q.processed(), 5);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7)));
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn far_events_merge_in_order() {
        // Straddle the calendar horizon: short and long delays interleave
        // but still pop in global (time, seq) order.
        let mut q = EventQueue::new();
        let horizon = NEAR_BUCKETS as u64 * BUCKET_NS;
        q.push(SimTime::from_ns(horizon + 10), 4);
        q.push(SimTime::from_ns(5), 1);
        q.push(SimTime::from_ns(2 * horizon), 5);
        q.push(SimTime::from_ns(horizon - 1), 2);
        q.push(SimTime::from_ns(horizon - 1), 3);
        let got: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
        assert_eq!(q.processed(), 5);
    }

    #[test]
    fn ring_wrap_keeps_order() {
        // Pop far enough that bucket indices wrap the ring several times,
        // pushing as we go (the classic calendar-queue aliasing trap).
        let mut q = EventQueue::new();
        let mut next = Vec::new();
        for i in 0..4 * NEAR_BUCKETS as u64 {
            q.push(SimTime::from_ns(i * (BUCKET_NS + 1)), i);
            next.push(i);
        }
        let mut got = Vec::new();
        while let Some((t, e)) = q.pop() {
            got.push(e);
            // Interleave pushes relative to the advancing clock.
            if e % 3 == 0 && e < 1000 {
                q.push(t + 13, 1_000_000 + e);
            }
        }
        // All original events must appear in index order (their times are
        // strictly increasing by construction).
        let originals: Vec<u64> = got.iter().copied().filter(|&e| e < 1_000_000).collect();
        assert_eq!(originals, next);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn push_with_seq_orders_by_supplied_key() {
        // Supplied seqs override insertion order at equal times, across
        // both lanes and out-of-order arrival.
        let mut q = EventQueue::new();
        let horizon = NEAR_BUCKETS as u64 * BUCKET_NS;
        q.push_with_seq(SimTime::from_ns(5), 30, 'c');
        q.push_with_seq(SimTime::from_ns(5), 10, 'a');
        q.push_with_seq(SimTime::from_ns(5), 20, 'b');
        q.push_with_seq(SimTime::from_ns(2 * horizon), 2, 'e');
        q.push_with_seq(SimTime::from_ns(2 * horizon), 1, 'd');
        let got: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, vec!['a', 'b', 'c', 'd', 'e']);
    }

    #[test]
    fn drain_sorted_preserves_keys_and_counters() {
        let mut q = EventQueue::new();
        let horizon = NEAR_BUCKETS as u64 * BUCKET_NS;
        q.push_with_seq(SimTime::from_ns(9), 7, 'b');
        q.push_with_seq(SimTime::from_ns(3 * horizon), 1, 'c');
        q.push_with_seq(SimTime::from_ns(9), 2, 'a');
        let drained = q.drain_sorted();
        assert!(q.is_empty());
        assert_eq!(q.processed(), 0, "drain must not count as processing");
        let keys: Vec<(u64, u64, char)> =
            drained.iter().map(|&(t, s, e)| (t.as_ns(), s, e)).collect();
        assert_eq!(
            keys,
            vec![(9, 2, 'a'), (9, 7, 'b'), (3 * horizon, 1, 'c')]
        );
        // Rebuild a queue from the drained set; order survives.
        let mut q2 = EventQueue::new();
        for (t, s, e) in drained {
            q2.push_with_seq(t, s, e);
        }
        q2.add_processed(5);
        assert_eq!(q2.processed(), 5);
        q2.set_now(SimTime::from_ns(4));
        assert_eq!(q2.now(), SimTime::from_ns(4));
        q2.set_now(SimTime::from_ns(2));
        assert_eq!(q2.now(), SimTime::from_ns(4), "set_now never rewinds");
        let got: Vec<char> = std::iter::from_fn(|| q2.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, vec!['a', 'b', 'c']);
    }

    #[test]
    fn clear_empties_both_lanes() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(1), 1);
        q.push(SimTime::from_ns(1_000_000), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        // The queue remains usable after a clear.
        q.push_after(3, 9);
        assert_eq!(q.pop().unwrap().1, 9);
    }
}
