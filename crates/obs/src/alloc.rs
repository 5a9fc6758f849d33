//! Per-thread heap-allocation counting.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation (reallocations included) made by the current thread, so a
//! single-threaded measurement is not disturbed by worker threads or by
//! tests running in parallel. A binary or test target opts in by
//! installing it (`bench_summary` and the allocation-budget tests do):
//!
//! ```
//! #[global_allocator]
//! static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;
//!
//! fn main() {
//!     // The first counted allocation marks the allocator as installed.
//!     let first = std::hint::black_box(Box::new(1u64));
//!     let before = obs::alloc::allocations().expect("CountingAlloc is installed");
//!     let buffer = std::hint::black_box(vec![0u8; 64]);
//!     assert_eq!(obs::alloc::allocations(), Some(before + 1));
//!     drop((first, buffer));
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Set by the first counted allocation: whether the process installed
/// [`CountingAlloc`].
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// [`System`] plus a per-thread allocation count.
pub struct CountingAlloc;

fn counted() {
    if !INSTALLED.load(Ordering::Relaxed) {
        INSTALLED.store(true, Ordering::Relaxed);
    }
    // `try_with`: the thread-local may already be gone while a thread
    // tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only an atomic flag and a thread-local
// integer, never the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout`, as the
        // caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations the current thread has made so far, or `None` when the
/// process did not install [`CountingAlloc`].
pub fn allocations() -> Option<u64> {
    INSTALLED
        .load(Ordering::Relaxed)
        .then(|| ALLOCATIONS.with(Cell::get))
}
