//! Allocator-level memory accounting: a counting [`GlobalAlloc`]
//! wrapper over [`System`] that tracks live, peak, and total allocated
//! bytes behind a runtime gate.
//!
//! Two gates keep this free when unused:
//!
//! - **Compile-time**: the counting fast path only exists under the
//!   `alloc-count` cargo feature. Without it, [`CountingAlloc`] forwards
//!   straight to [`System`] — not even an atomic load on the malloc
//!   path — so binaries that never install it (or install it with the
//!   feature off) pay nothing.
//! - **Runtime**: even when compiled in, counting is off until
//!   [`enable`] flips one relaxed [`AtomicBool`], so a binary with the
//!   allocator installed can still run unmeasured phases.
//!
//! Live bytes are tracked as a signed counter: allocations made before
//! [`enable`] and freed after would otherwise underflow an unsigned
//! one. [`stats`] clamps the reported value at zero.
//!
//! Install in a binary with:
//!
//! ```ignore
//! #[cfg(feature = "alloc-count")]
//! #[global_allocator]
//! static ALLOC: dtdinfer_obs::alloc::CountingAlloc = dtdinfer_obs::alloc::CountingAlloc;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Net bytes currently live (alloc − dealloc), signed; see module docs.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// High-water mark of `LIVE` since the last [`reset`].
static PEAK: AtomicI64 = AtomicI64::new(0);
/// Cumulative bytes ever allocated while enabled. Monotone.
static TOTAL: AtomicU64 = AtomicU64::new(0);
/// Cumulative allocation calls while enabled. Monotone.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The counting allocator. Zero-sized; all state is in module statics so
/// the type can be a `static` item itself.
pub struct CountingAlloc;

/// Turns counting on. Cheap to call repeatedly.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns counting off. Counters keep their values for later [`stats`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether counting is currently enabled.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A point-in-time copy of the allocator counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently live (clamped at zero; see module docs).
    pub live_bytes: u64,
    /// High-water mark of live bytes since the last reset.
    pub peak_bytes: u64,
    /// Total bytes ever allocated while enabled. Monotone.
    pub total_bytes: u64,
    /// Total allocation calls while enabled. Monotone.
    pub allocations: u64,
}

/// Reads the current counters.
pub fn stats() -> AllocStats {
    AllocStats {
        live_bytes: u64::try_from(LIVE.load(Ordering::Relaxed)).unwrap_or(0),
        peak_bytes: u64::try_from(PEAK.load(Ordering::Relaxed)).unwrap_or(0),
        total_bytes: TOTAL.load(Ordering::Relaxed),
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
    }
}

/// Zeroes every counter.
pub fn reset() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    TOTAL.store(0, Ordering::Relaxed);
    ALLOCATIONS.store(0, Ordering::Relaxed);
}

/// Allocator hook: records `size` bytes allocated. Public so the
/// `GlobalAlloc` impl and tests share one code path; nothing else
/// should call it. Must stay allocation-free (it runs inside malloc).
#[inline]
pub fn note_alloc(size: usize) {
    let size = size as i64;
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    TOTAL.fetch_add(size as u64, Ordering::Relaxed);
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
}

/// Allocator hook: records `size` bytes freed. See [`note_alloc`].
#[inline]
pub fn note_dealloc(size: usize) {
    LIVE.fetch_sub(size as i64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        #[cfg(feature = "alloc-count")]
        if !ptr.is_null() && is_enabled() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        #[cfg(feature = "alloc-count")]
        if is_enabled() {
            note_dealloc(layout.size());
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        #[cfg(feature = "alloc-count")]
        if !ptr.is_null() && is_enabled() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        #[cfg(feature = "alloc-count")]
        if !new_ptr.is_null() && is_enabled() {
            // Model as free-then-alloc so TOTAL counts the new block and
            // LIVE nets out to the size change.
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        new_ptr
    }
}

/// Publishes the current allocator counters as gauges on the global
/// metrics registry (`alloc.live_bytes` etc.). No-op rows of zero when
/// the feature is compiled out — callers don't need to gate.
pub fn publish_gauges() {
    let s = stats();
    crate::gauge("alloc.live_bytes", s.live_bytes);
    crate::gauge("alloc.peak_bytes", s.peak_bytes);
    crate::gauge("alloc.total_bytes", s.total_bytes);
    crate::gauge("alloc.allocations", s.allocations);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// The counters are process globals; every test that touches them
    /// serializes on this lock (and none of the module's own state leaks
    /// between them because each resets first).
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(Mutex::default)
            .lock()
            .expect("alloc test lock poisoned")
    }

    #[test]
    fn hooks_track_live_peak_and_total() {
        let _g = guard();
        reset();
        note_alloc(100);
        note_alloc(200);
        note_dealloc(100);
        note_alloc(50);
        let s = stats();
        assert_eq!(s.live_bytes, 250);
        assert_eq!(s.peak_bytes, 300, "peak is the high-water mark");
        assert_eq!(s.total_bytes, 350, "total never decreases");
        assert_eq!(s.allocations, 3);
        note_dealloc(250);
        assert_eq!(stats().live_bytes, 0);
        assert_eq!(stats().peak_bytes, 300, "dealloc leaves peak alone");
    }

    #[test]
    fn pre_enable_frees_clamp_instead_of_underflowing() {
        let _g = guard();
        reset();
        // A block allocated before counting started gets freed under it.
        note_dealloc(4096);
        let s = stats();
        assert_eq!(s.live_bytes, 0, "clamped, not wrapped to u64::MAX");
        note_alloc(100);
        // The signed counter is still at -3996; reported live stays 0.
        assert_eq!(stats().live_bytes, 0);
        assert_eq!(stats().total_bytes, 100, "total is unaffected by skew");
    }

    #[test]
    fn runtime_gate_flips() {
        let _g = guard();
        enable();
        assert!(is_enabled());
        disable();
        assert!(!is_enabled());
    }

    #[test]
    fn publish_gauges_lands_in_registry() {
        let _g = guard();
        let _r = crate::global_test_lock();
        reset();
        note_alloc(640);
        crate::enable(true, false);
        crate::metrics::registry().reset();
        publish_gauges();
        let snap = crate::snapshot();
        crate::disable();
        assert_eq!(snap.gauges.get("alloc.peak_bytes"), Some(&640));
        assert_eq!(snap.gauges.get("alloc.live_bytes"), Some(&640));
    }
}
