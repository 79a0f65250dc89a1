//! Heap allocations per value write: a copy-on-write of a shared value
//! costs exactly one (the new value's buffer, built in place), an edit of
//! a uniquely owned one costs none.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xenic_store::{Value, WritePayload};

/// Counts the calling thread's `alloc`, `alloc_zeroed` and `realloc`
/// calls, so tests running on other threads do not disturb a count; frees
/// are not counted.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// const-initialised thread-local `Cell` without a destructor, which never
// allocates.
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

/// Runs `f`, returning how many allocations it made and its result.
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The deltas, each with a current value it applies to: a full row, a
/// value shorter than `AddI64`'s 8-byte counter, and a row to mutate.
fn deltas() -> [(WritePayload, Value); 3] {
    [
        (WritePayload::AddI64(7), Value::filled(320, 1)),
        (WritePayload::AddI64(7), Value::filled(3, 1)),
        (WritePayload::Mutate, Value::filled(320, 1)),
    ]
}

#[test]
fn a_write_to_a_shared_value_allocates_once() {
    for (p, current) in deltas() {
        let (n, out) = allocs(|| p.apply(&current));
        assert_eq!(n, 1, "{p:?}.apply on {current:?}");
        drop(out);
        let mut target = current.clone();
        let (n, ()) = allocs(|| p.apply_in_place(&mut target));
        assert_eq!(n, 1, "{p:?}.apply_in_place on a shared {current:?}");
    }
}

#[test]
fn a_write_to_a_unique_value_allocates_nothing() {
    for (p, current) in deltas() {
        // A short value grows to 8 bytes on its first AddI64 (one
        // allocation); from then on it is edited in place.
        let mut target = p.apply(&current);
        let (n, ()) = allocs(|| p.apply_in_place(&mut target));
        assert_eq!(n, 0, "{p:?}.apply_in_place on a unique {target:?}");
    }
}

#[test]
fn filled_allocates_once_and_empty_never() {
    let (n, v) = allocs(|| Value::filled(320, 9));
    assert_eq!(n, 1, "Value::filled");
    assert_eq!(v.len(), 320);
    let shared = Value::empty();
    let (n, _) = allocs(|| (shared.clone(), Value::empty(), Value::empty().clone()));
    assert_eq!(n, 0, "Value::empty and its clones");
}
