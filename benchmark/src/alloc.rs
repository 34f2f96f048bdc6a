//! Process-wide counting allocator.
//!
//! `mtl-runtime.allocs_per_batch` counts heap allocations over a whole
//! `submit()` -> `Ticket::wait()` span, which crosses from the generator
//! thread to the worker and back — so the counter is one shared atomic,
//! not a thread-local. It only counts while [`set_counting`] is on (the
//! traced run turns it on around the batches it counts); otherwise an
//! allocation pays one relaxed load on top of the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

fn bump() {
    if COUNTING.load(Relaxed) {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic counter bump,
// which performs no allocation.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is exactly `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, hence by
        // `System`, with this same `layout` (caller contract).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            bump();
        }
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`; `new_size` is nonzero per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Turns counting on or off, process-wide.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Allocations counted so far, on any thread.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Relaxed)
}
