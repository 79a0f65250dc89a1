//! A hand-rolled small-size-optimized vector.
//!
//! The first `N` elements live inline in the struct; pushing past `N`
//! spills the contents to a heap `Vec` once and stays there (so a
//! recycled container that spilled keeps its heap capacity across
//! `clear`, matching the freelist idiom used elsewhere). Iteration,
//! indexing, and all slice operations go through `Deref<Target = [T]>`,
//! so ordering semantics are exactly `Vec`'s: insertion order, and
//! `remove` is the shifting (order-preserving) variant — important
//! because several engine paths treat container order as the
//! deterministic send/retransmit order.
//!
//! Hand-rolled (like [`crate::fasthash::FastMap`]) because crates.io is
//! unreachable in this build environment.

use std::fmt;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::{Deref, DerefMut};
use std::ptr;

enum Repr<T, const N: usize> {
    Inline {
        buf: [MaybeUninit<T>; N],
        len: usize,
    },
    Heap(Vec<T>),
}

/// A vector storing up to `N` elements inline before spilling to the heap.
pub struct SmallVec<T, const N: usize> {
    repr: Repr<T, N>,
}

#[inline]
fn uninit_array<T, const N: usize>() -> [MaybeUninit<T>; N] {
    // SAFETY: an array of MaybeUninit is always "initialized".
    unsafe { MaybeUninit::<[MaybeUninit<T>; N]>::uninit().assume_init() }
}

impl<T, const N: usize> SmallVec<T, N> {
    /// An empty, allocation-free vector.
    #[inline]
    pub fn new() -> Self {
        SmallVec {
            repr: Repr::Inline {
                buf: uninit_array(),
                len: 0,
            },
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len,
            Repr::Heap(v) => v.len(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the contents have moved to the heap.
    #[inline]
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Heap(_))
    }

    /// Appends an element, spilling to the heap on the push past `N`.
    #[inline]
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                if *len < N {
                    buf[*len].write(value);
                    *len += 1;
                } else {
                    self.spill_and_push(value);
                }
            }
            Repr::Heap(v) => v.push(value),
        }
    }

    #[cold]
    fn spill_and_push(&mut self, value: T) {
        let mut v = Vec::with_capacity((N * 2).max(4));
        if let Repr::Inline { buf, len } = &mut self.repr {
            for slot in buf.iter_mut().take(*len) {
                // SAFETY: slots [0, len) are initialized; we move each
                // out exactly once and reset len below.
                v.push(unsafe { slot.assume_init_read() });
            }
            *len = 0;
        }
        v.push(value);
        self.repr = Repr::Heap(v);
    }

    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                if *len == 0 {
                    None
                } else {
                    *len -= 1;
                    // SAFETY: slot `len` was initialized and is now out
                    // of the live range.
                    Some(unsafe { buf[*len].assume_init_read() })
                }
            }
            Repr::Heap(v) => v.pop(),
        }
    }

    /// Removes and returns the element at `index`, shifting later
    /// elements left (order-preserving, like `Vec::remove`).
    pub fn remove(&mut self, index: usize) -> T {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                assert!(index < *len, "remove index {index} out of range {len}");
                // SAFETY: slot `index` is initialized; the shifted range
                // stays within the previously-live prefix.
                unsafe {
                    let out = buf[index].assume_init_read();
                    let p = buf.as_mut_ptr();
                    ptr::copy(p.add(index + 1), p.add(index), *len - index - 1);
                    *len -= 1;
                    out
                }
            }
            Repr::Heap(v) => v.remove(index),
        }
    }

    /// Removes and returns the element at `index`, moving the last
    /// element into its place (O(1), like `Vec::swap_remove`).
    pub fn swap_remove(&mut self, index: usize) -> T {
        let len = self.len();
        assert!(index < len, "swap_remove index {index} out of range {len}");
        self.as_mut_slice().swap(index, len - 1);
        self.pop().expect("len > index >= 0")
    }

    /// Keeps only the elements `keep` accepts, preserving their order
    /// (like `Vec::retain`).
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut i = 0;
        while i < self.len() {
            if keep(&self[i]) {
                i += 1;
            } else {
                self.remove(i);
            }
        }
    }

    /// Drops all elements. A spilled vector keeps its heap capacity, so
    /// pooled containers don't re-allocate on reuse.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                let live = *len;
                *len = 0;
                for slot in buf.iter_mut().take(live) {
                    // SAFETY: slots [0, live) were initialized; len is
                    // already zeroed so a panic mid-drop can't double-drop.
                    unsafe { slot.assume_init_drop() };
                }
            }
            Repr::Heap(v) => v.clear(),
        }
    }

    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { buf, len } => {
                // SAFETY: slots [0, len) are initialized.
                unsafe { &*(ptr::slice_from_raw_parts(buf.as_ptr().cast::<T>(), *len)) }
            }
            Repr::Heap(v) => v.as_slice(),
        }
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.repr {
            Repr::Inline { buf, len } => {
                // SAFETY: slots [0, len) are initialized.
                unsafe {
                    &mut *(ptr::slice_from_raw_parts_mut(buf.as_mut_ptr().cast::<T>(), *len))
                }
            }
            Repr::Heap(v) => v.as_mut_slice(),
        }
    }
}

impl<T, const N: usize> Drop for SmallVec<T, N> {
    fn drop(&mut self) {
        self.clear();
    }
}

impl<T, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        SmallVec::new()
    }
}

impl<T, const N: usize> Deref for SmallVec<T, N> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> DerefMut for SmallVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Clone, const N: usize> Clone for SmallVec<T, N> {
    fn clone(&self) -> Self {
        let mut out = SmallVec::new();
        out.extend(self.iter().cloned());
        out
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T, const N: usize> Extend<T> for SmallVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl<T, const N: usize> From<Vec<T>> for SmallVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        v.into_iter().collect()
    }
}

impl<T, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = SmallVec::new();
        out.extend(iter);
        out
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a mut SmallVec<T, N> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

/// Owning iterator; yields in insertion order for both representations.
pub enum IntoIter<T, const N: usize> {
    Inline {
        buf: [MaybeUninit<T>; N],
        pos: usize,
        len: usize,
    },
    Heap(std::vec::IntoIter<T>),
}

impl<T, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;
    #[inline]
    fn next(&mut self) -> Option<T> {
        match self {
            IntoIter::Inline { buf, pos, len } => {
                if pos < len {
                    let i = *pos;
                    *pos += 1;
                    // SAFETY: slot i is initialized and visited once.
                    Some(unsafe { buf[i].assume_init_read() })
                } else {
                    None
                }
            }
            IntoIter::Heap(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            IntoIter::Inline { pos, len, .. } => {
                let n = *len - *pos;
                (n, Some(n))
            }
            IntoIter::Heap(it) => it.size_hint(),
        }
    }
}

impl<T, const N: usize> DoubleEndedIterator for IntoIter<T, N> {
    #[inline]
    fn next_back(&mut self) -> Option<T> {
        match self {
            IntoIter::Inline { buf, pos, len } => {
                if pos < len {
                    *len -= 1;
                    // SAFETY: slot len-1 is initialized and visited once;
                    // shrinking `len` removes it from the drop range.
                    Some(unsafe { buf[*len].assume_init_read() })
                } else {
                    None
                }
            }
            IntoIter::Heap(it) => it.next_back(),
        }
    }
}

impl<T, const N: usize> ExactSizeIterator for IntoIter<T, N> {}

impl<T, const N: usize> Drop for IntoIter<T, N> {
    fn drop(&mut self) {
        if let IntoIter::Inline { buf, pos, len } = self {
            let (from, to) = (*pos, *len);
            *pos = to;
            for slot in buf.iter_mut().take(to).skip(from) {
                // SAFETY: unvisited slots [pos, len) are still initialized.
                unsafe { slot.assume_init_drop() };
            }
        }
    }
}

impl<T, const N: usize> IntoIterator for SmallVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(self) -> Self::IntoIter {
        let this = ManuallyDrop::new(self);
        // SAFETY: `this` is never dropped; its repr is moved out exactly
        // once and ownership of the elements transfers to the iterator.
        match unsafe { ptr::read(&this.repr) } {
            Repr::Inline { buf, len } => IntoIter::Inline { buf, pos: 0, len },
            Repr::Heap(v) => IntoIter::Heap(v.into_iter()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn into_iter_reverses_and_drops_cleanly() {
        // Inline representation.
        let v: SmallVec<u32, 4> = (0..3).collect();
        assert_eq!(v.into_iter().rev().collect::<Vec<_>>(), vec![2, 1, 0]);
        // Spilled representation.
        let v: SmallVec<u32, 2> = (0..5).collect();
        assert_eq!(v.into_iter().rev().collect::<Vec<_>>(), vec![4, 3, 2, 1, 0]);
        // Mixed front/back consumption with a partial drop.
        let v: SmallVec<u32, 4> = (0..4).collect();
        let mut it = v.into_iter();
        assert_eq!(it.next(), Some(0));
        assert_eq!(it.next_back(), Some(3));
        assert_eq!(it.len(), 2);
        drop(it);
    }

    #[test]
    fn inline_until_capacity_then_spills() {
        let mut v: SmallVec<u32, 4> = SmallVec::new();
        for i in 0..4 {
            v.push(i);
            assert!(!v.spilled());
        }
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        v.push(4);
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn order_is_insertion_order_across_spill() {
        let mut v: SmallVec<u64, 3> = SmallVec::new();
        for i in 0..10 {
            v.push(i * 7);
        }
        let collected: Vec<u64> = v.iter().copied().collect();
        assert_eq!(collected, (0..10).map(|i| i * 7).collect::<Vec<_>>());
        let owned: Vec<u64> = v.into_iter().collect();
        assert_eq!(owned, (0..10).map(|i| i * 7).collect::<Vec<_>>());
    }

    #[test]
    fn remove_shifts_and_preserves_order() {
        for spill in [false, true] {
            let mut v: SmallVec<u32, 8> = SmallVec::new();
            let n = if spill { 12 } else { 6 };
            for i in 0..n {
                v.push(i);
            }
            assert_eq!(v.remove(2), 2);
            assert_eq!(v[2], 3, "later elements shift left");
            assert_eq!(v.len() as u32, n - 1);
            let rest: Vec<u32> = v.iter().copied().collect();
            let expect: Vec<u32> = (0..n).filter(|&i| i != 2).collect();
            assert_eq!(rest, expect);
        }
    }

    #[test]
    fn swap_remove_and_retain_match_vec() {
        for n in [3u32, 9] {
            let mut v: SmallVec<u32, 4> = (0..n).collect();
            let mut model: Vec<u32> = (0..n).collect();
            assert_eq!(v.swap_remove(1), model.swap_remove(1));
            assert_eq!(v.as_slice(), model.as_slice());
            let last = v.len() - 1;
            assert_eq!(v.swap_remove(last), model.swap_remove(last));
            v.retain(|x| x % 2 == 0);
            model.retain(|x| x % 2 == 0);
            assert_eq!(v.as_slice(), model.as_slice());
        }
    }

    #[test]
    fn pop_and_clear() {
        let mut v: SmallVec<u8, 2> = SmallVec::new();
        assert_eq!(v.pop(), None);
        v.push(1);
        v.push(2);
        v.push(3); // spills
        assert_eq!(v.pop(), Some(3));
        v.clear();
        assert!(v.is_empty());
        assert!(v.spilled(), "clear keeps the heap representation");
        v.push(9);
        assert_eq!(v.as_slice(), &[9]);
    }

    /// Counts drops via a shared cell to prove no element is leaked or
    /// double-dropped through push/spill/remove/clear/into_iter paths.
    struct DropTally<'a>(&'a Cell<u32>);
    impl Drop for DropTally<'_> {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn drop_correctness_inline_and_spilled() {
        let drops = Cell::new(0);
        {
            let mut v: SmallVec<DropTally, 2> = SmallVec::new();
            v.push(DropTally(&drops));
            v.push(DropTally(&drops));
        }
        assert_eq!(drops.get(), 2, "inline drop");

        drops.set(0);
        {
            let mut v: SmallVec<DropTally, 2> = SmallVec::new();
            for _ in 0..5 {
                v.push(DropTally(&drops));
            }
            assert_eq!(drops.get(), 0, "spill moves, never drops");
            drop(v.remove(1));
            assert_eq!(drops.get(), 1);
        }
        assert_eq!(drops.get(), 5, "spilled drop");

        drops.set(0);
        {
            let mut it = {
                let mut v: SmallVec<DropTally, 4> = SmallVec::new();
                for _ in 0..3 {
                    v.push(DropTally(&drops));
                }
                v.into_iter()
            };
            drop(it.next());
            assert_eq!(drops.get(), 1);
            // Iterator dropped with 2 unvisited elements.
        }
        assert_eq!(drops.get(), 3, "partial into_iter drop");
    }

    #[test]
    fn equality_and_from_iter() {
        let a: SmallVec<u32, 4> = (0..3).collect();
        let b: SmallVec<u32, 4> = (0..6).collect();
        assert_ne!(a, b);
        let c: SmallVec<u32, 4> = (0..3).collect();
        assert_eq!(a, c);
        assert_eq!(format!("{a:?}"), "[0, 1, 2]");
    }
}
