//! Event-queue kernel micro-bench: push/pop throughput of the two-lane
//! `EventQueue` under schedules shaped like the simulator's real traffic.
//!
//! Run with `cargo bench -p xenic-sim`. Timing uses `std::time::Instant`
//! directly (no external harness dependency): one warmup iteration, then
//! best/mean of N. These numbers regression-track the kernel in
//! isolation; the benchmark crate (`benchmark/README.md`) covers the
//! whole simulator.

use std::hint::black_box;
use std::time::Instant;
use xenic_sim::{DetRng, EventQueue, SimTime};

const SAMPLES: usize = 5;

fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    black_box(f());
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        black_box(f());
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        best = best.min(dt);
        total += dt;
    }
    println!(
        "{name:<40} best {best:>9.3} ms   mean {:>9.3} ms   ({SAMPLES} samples)",
        total / SAMPLES as f64
    );
}

/// Steady-state hold-then-advance: the dominant runtime pattern. Events
/// are scheduled a short, mixed distance ahead (message delays, core
/// frees), so nearly all traffic stays in the near lane.
fn near_lane_steady(ops: usize) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = DetRng::new(7);
    for i in 0..256u64 {
        q.push(SimTime::from_ns(i % 97), i);
    }
    let mut acc = 0u64;
    for _ in 0..ops {
        let (t, e) = q.pop().expect("queue stays primed");
        acc = acc.wrapping_add(e);
        // 1–400 ns ahead: aggregation windows, wire latencies, core busy
        // periods.
        q.push(t + 1 + rng.below(400), e);
    }
    acc
}

/// Mixed-horizon traffic: a slice of pushes lands past the calendar ring
/// (retransmission timers, gauge sampling), exercising the far heap and
/// lane migration on ring advance.
fn mixed_horizon(ops: usize) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = DetRng::new(11);
    for i in 0..256u64 {
        q.push(SimTime::from_ns(i % 89), i);
    }
    let mut acc = 0u64;
    for _ in 0..ops {
        let (t, e) = q.pop().expect("queue stays primed");
        acc = acc.wrapping_add(e);
        let delay = if rng.below(16) == 0 {
            // Timer-class event: well past the near horizon.
            10_000 + rng.below(100_000)
        } else {
            1 + rng.below(300)
        };
        q.push(t + delay, e);
    }
    acc
}

/// Burst fan-out then drain: flush-style moments where one event pushes
/// many (frame arrivals delivering per-message events).
fn burst_drain(rounds: usize) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = DetRng::new(13);
    let mut acc = 0u64;
    let mut now = SimTime::ZERO;
    for _ in 0..rounds {
        for i in 0..64u64 {
            q.push(now + 1 + rng.below(200), i);
        }
        while let Some((t, e)) = q.pop() {
            acc = acc.wrapping_add(e);
            now = t;
        }
    }
    acc
}

fn main() {
    bench("queue/near_lane_steady_1M", || near_lane_steady(1_000_000));
    bench("queue/mixed_horizon_1M", || mixed_horizon(1_000_000));
    bench("queue/burst_drain_16k_rounds", || burst_drain(16_000));
}
