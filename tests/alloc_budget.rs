//! Allocation budget of the commit path (DESIGN.md §13).
//!
//! Runs a 6-node cluster on the serial scheduler — warm-up, then a short
//! window — and asserts the heap allocations per committed transaction
//! stay at or below a ceiling pinned from a release build's count, with
//! under 10 % headroom. The benchmark's `host_allocs_per_commit` catches
//! the same regression, but only when the benchmark runs; this keeps the
//! commit path from re-fattening one `Vec::new()` at a time between runs.
//!
//! The counting allocator below is this test binary's own, so it affects
//! no other test. It counts only on the thread that switched it on: the
//! serial scheduler runs the whole cluster on the test's thread, and the
//! harness's other test threads stay out of the count.
//!
//! Run in release, as `verify.sh` does, with
//! `cargo test --release -q --test alloc_budget`; a debug build makes
//! the same allocations, only slower.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xenic::api::Workload;
use xenic::harness::{build, RunOptions};
use xenic::{Xenic, XenicConfig};
use xenic_hw::HwParams;
use xenic_net::NetConfig;
use xenic_sim::SimTime;
use xenic_workloads::{Retwis, RetwisConfig, Tpcc, TpccConfig, TpccMix};

thread_local! {
    /// Allocations counted on this thread while `Some`.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls on a thread that
/// asked for it; frees are not counted.
struct Counting;

#[inline]
fn note() {
    // `try_with`: an allocation during thread teardown, after the slot is
    // gone, simply goes uncounted.
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns the allocations it made on this thread.
fn counted(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).expect("counting was on")
}

/// Warm-up before counting: every pool (message bodies, coordinator
/// contexts, message vectors) and every pre-sized table reaches its
/// steady state well inside it.
const WARMUP: SimTime = SimTime::from_us(250);

/// Heap allocations per committed transaction over `window` of a 6-node
/// cluster at 64 closed-loop windows per node, `XenicConfig::full()`,
/// fault-free, seed 42.
fn allocs_per_commit(window: SimTime, workload: impl Fn() -> Box<dyn Workload>) -> f64 {
    let params = HwParams {
        nodes: 6,
        ..HwParams::paper_testbed()
    };
    let opts = RunOptions {
        windows: 64,
        seed: 42,
        ..RunOptions::default()
    };
    let mut cluster = build::<Xenic>(
        params,
        NetConfig::full(),
        XenicConfig::full(),
        &opts,
        |_| workload(),
    );
    cluster.run_until(WARMUP);
    let now = cluster.rt.now();
    for st in &mut cluster.states {
        st.stats.start_measuring(now);
    }
    let end = SimTime::from_ns(WARMUP.as_ns() + window.as_ns());
    let allocs = counted(|| {
        cluster.run_until(end);
    });
    let committed: u64 = cluster
        .states
        .iter()
        .map(|s| s.stats.committed_all.get())
        .sum();
    assert!(
        committed > 1_000,
        "too few commits ({committed}) to measure a budget"
    );
    allocs as f64 / committed as f64
}

#[test]
fn retwis_commit_path_stays_within_budget() {
    // Measured 10.16 in release when pinned: 7.1 of it are the template
    // copy-on-writes DESIGN.md §13 keeps, 1.5 the generator's spec
    // vectors, 1.5 the one shared write set per written shard. (The
    // benchmark's `retwis_sat` reads 9.27: its longer window dilutes
    // the first-write copies.)
    const CEILING: f64 = 11.0;
    let per_commit = allocs_per_commit(SimTime::from_us(300), || {
        Box::new(Retwis::new(RetwisConfig::sim(6)))
    });
    assert!(
        per_commit <= CEILING,
        "Retwis commit path makes {per_commit:.2} allocations per commit, ceiling {CEILING}"
    );
}

#[test]
fn tpcc_commit_path_stays_within_budget() {
    // Measured 22.76 in release when pinned: 18.0 of it are the
    // template copy-on-writes, most of the rest the generator's spec
    // vectors and local B+tree inserts.
    const CEILING: f64 = 25.0;
    let tpcc = || Box::new(Tpcc::new(TpccConfig::sim(6, TpccMix::Full))) as Box<dyn Workload>;
    let per_commit = allocs_per_commit(SimTime::from_us(300), tpcc);
    assert!(
        per_commit <= CEILING,
        "TPC-C commit path makes {per_commit:.2} allocations per commit, ceiling {CEILING}"
    );
}
