//! Cache hints for hot event loops.
//!
//! An event loop that walks a batch of events touching scattered records
//! can ask for the records of events a few positions ahead while it works
//! on the current one, so their cache misses overlap instead of queueing
//! one after another. A hint changes no state and no value it fetches
//! feeds the simulation, so it cannot change any result: a build without
//! it (any target but x86_64) runs the same events to the same bytes.

/// Cache line size assumed by [`prefetch`].
const LINE: usize = 64;

/// Start loading every cache line `value` occupies into every cache
/// level, without waiting for them.
///
/// On x86_64 this is one `prefetcht0` per line (a 56-byte value that
/// straddles a line boundary costs two); elsewhere it does nothing. Only
/// `value` itself is fetched, not what it points to: a `Vec`'s header,
/// not its buffer.
#[inline(always)]
pub fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let start = (value as *const T).cast::<i8>();
        let offset = start as usize % LINE;
        let first = start.wrapping_sub(offset);
        for k in 0..(offset + std::mem::size_of::<T>().max(1)).div_ceil(LINE) {
            // SAFETY: `_mm_prefetch` is unsafe only because it is a
            // `#[target_feature(enable = "sse")]` intrinsic, and SSE is
            // part of the x86_64 baseline, so the feature is present. A
            // prefetch never faults, not even on an invalid address, and
            // writes nothing; here every line overlaps the live value
            // `value` refers to anyway. The workspace's only `unsafe`
            // (DESIGN.md §8).
            #[allow(unsafe_code)]
            unsafe {
                _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(k * LINE));
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_leaves_the_value_unchanged() {
        let table: Vec<u64> = (0..1024).collect();
        for v in &table {
            prefetch(v);
        }
        prefetch(&table);
        prefetch(&());
        assert!(table.iter().enumerate().all(|(i, &v)| v == i as u64));
    }
}
