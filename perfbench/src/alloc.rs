//! Heap-allocation counting for the traced build.
//!
//! The traced build installs a counting global allocator; the untraced
//! build keeps the system allocator untouched, so its timings carry no
//! counting cost and [`counts`] reads `None`.

/// Allocations and bytes requested since the process started, or `None`
/// when this build does not count.
pub fn counts() -> Option<(u64, u64)> {
    #[cfg(feature = "trace")]
    {
        Some(counting::counts())
    }
    #[cfg(not(feature = "trace"))]
    {
        None
    }
}

#[cfg(feature = "trace")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    // Statistics only: they publish no other data, so `Relaxed` suffices.
    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    pub fn counts() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }

    fn note(bytes: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// The system allocator, counting every allocation and reallocation.
    struct Counting;

    // SAFETY: every method forwards to `System` with the caller's own
    // arguments, so `System`'s guarantees carry over unchanged; the
    // counters are atomics and never allocate.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: forwarded with the caller's layout, which the
            // `GlobalAlloc::alloc` contract makes valid and non-zero-sized.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: as for `alloc`.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from this allocator, i.e. from `System`,
            // with this `layout`, as the caller guarantees.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            // SAFETY: `ptr`/`layout` describe a live `System` block and
            // `new_size` is valid, as the caller guarantees.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;
}
