//! A cache-prefetch hint: a protocol step that schedules the event whose
//! handler reads some per-page state asks for that state's cache line now,
//! so the load overlaps the event loop's work in between instead of
//! stalling the handler.

/// Hints the CPU to pull the cache line holding `*r` into every cache
/// level. Changes no state and never faults; a no-op off x86_64.
#[inline(always)]
pub fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` only hints the cache hierarchy: it never
    // faults, whatever the address, and has no architectural effect. SSE,
    // which provides it, is part of the x86_64 baseline, and the pointer
    // comes from a live reference anyway.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((r as *const T).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_leaves_the_value_untouched() {
        let v = [7u64; 16];
        prefetch(&v[3]);
        prefetch(&v);
        assert_eq!(v, [7; 16]);
    }
}
