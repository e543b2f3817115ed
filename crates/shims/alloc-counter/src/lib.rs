//! A counting [`GlobalAlloc`] wrapper for zero-allocation assertions.
//!
//! Wraps the [`System`] allocator and counts every `alloc`/`realloc`
//! call, and the bytes those calls request, with relaxed atomics.
//! Install it in a test binary with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc::new();
//! ```
//!
//! and bracket the region under test with [`allocations`] or
//! [`allocated_bytes`] snapshots.
//! The counter is process-global, so a test binary that asserts exact
//! counts must run exactly one such test (Cargo runs tests in one
//! process, concurrently) — keep one `#[test]` per asserting binary.
//!
//! This is measurement infrastructure, not a memory-safety tool: frees
//! are not tracked and counts include allocator-internal reallocation.

// The allocator hooks below are the one place this workspace needs
// `unsafe`: a `GlobalAlloc` impl is an unsafe trait by definition. The
// impl only forwards to `System` after bumping a counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Total `alloc` + `realloc` calls since process start.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Total bytes requested since process start: each `alloc`'s size plus
/// each `realloc`'s growth (a shrinking `realloc` adds nothing). Frees
/// are not subtracted, so this bounds what a region asked for, not what
/// it still holds.
pub fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// A `System`-backed allocator that counts allocation calls.
#[derive(Debug, Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// Creates the allocator (const, so it can be a `static`).
    pub const fn new() -> Self {
        CountingAlloc
    }
}

// SAFETY: defers entirely to `System`; the counter bumps cannot
// allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
}
