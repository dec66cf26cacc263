//! A counting global allocator for the peak-heap metric.
//!
//! Counting is off until [`peak_during`] turns it on, so the timed
//! measurements pay one relaxed load per allocation and nothing more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Live bytes allocated minus freed since counting began. Signed: memory
/// allocated before and freed during a measurement drives it below zero.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Forwards to [`System`], counting live bytes while enabled.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    if COUNTING.load(Relaxed) {
        let now = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
        PEAK.fetch_max(now, Relaxed);
    }
}

fn shrank(bytes: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only updates atomics
// and never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // `realloc`'s contract for `new_size`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

/// Runs `f` with counting on; returns its result and the highest number of
/// heap bytes that were live at once beyond those live when it started.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    (out, PEAK.load(Relaxed).max(0) as u64)
}
