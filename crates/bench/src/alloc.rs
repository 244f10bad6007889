//! The counting global allocator shared by the bench binaries and the
//! allocation-regression tests.
//!
//! Rust requires the `#[global_allocator]` attribute to sit in the crate
//! that gets the allocator, so each binary installs its own static of
//! this type:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: sesame_bench::alloc::CountingAllocator =
//!     sesame_bench::alloc::CountingAllocator;
//! ```
//!
//! and then reads [`allocations`] around a measured span. The counter is
//! process-global and monotonic; callers diff two readings rather than
//! resetting it, so concurrent readers never race a reset.
//! [`thread_allocations`] counts the calling thread only, for spans that
//! share the process with other work (tests run in parallel threads).
//!
//! Only *allocations* are counted — `dealloc` is passthrough. The number
//! serves as a proxy for allocator pressure on the hot path (the honest
//! zero-copy scorecard), not as a leak detector. When the installing
//! crate forgets the attribute the counter simply stays at zero; the
//! allocation-regression test guards against that footgun by asserting
//! the counter moves for a known-allocating operation first.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation made by the process — the allocs-proxy.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Total allocations since process start (zero if no binary installed
/// [`CountingAllocator`] as its global allocator). Diff two readings to
/// bracket a measured span.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations made so far by the calling thread only: a span measured
/// with this is not charged for other threads, such as concurrently
/// running tests in the same binary.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}
