//! A software prefetch hint for batched pointer chases.
//!
//! A loop that looks up N independent rows one after another pays N
//! serial cache misses. Issuing a prefetch for every row first and doing
//! the lookups second lets those misses overlap, the host-side analogue
//! of the paper's vectored DMA (§4.3): one round of latency for a batch
//! instead of one per element.

/// Hints the CPU to pull the cache line holding `p` towards L1 ahead of
/// a load. A pure hint: it never faults (any address, dangling or null,
/// is fine), never changes a result, and is a no-op off x86_64.
#[inline(always)]
pub fn prefetch<T: ?Sized>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: the call's one requirement is the SSE target feature,
        // which every x86_64 CPU has; PREFETCHT0 itself reads no memory
        // architecturally and cannot fault, whatever the address.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_address_is_a_harmless_hint() {
        let v = vec![1u64, 2, 3];
        prefetch(v.as_ptr());
        prefetch(v.as_slice());
        prefetch(std::ptr::null::<u8>());
        prefetch(usize::MAX as *const u8);
        assert_eq!(v, [1, 2, 3]);
    }
}
