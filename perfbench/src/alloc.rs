//! Allocation counting that only the traced run pays for.
//!
//! `alloc_track::TrackingAlloc` updates process-wide atomics on every
//! allocation. Installed unconditionally, those shared read-modify-writes
//! would slow the untraced run, whose producer allocates and whose
//! consumer frees, so this allocator routes to it only while counting
//! is switched on and goes straight to `System` otherwise.
//!
//! Counting is switched on once, before the traced pass allocates, and
//! off once, after it. A block allocated before the window and freed
//! inside it would make the live-byte counter wrap, so the window opens
//! before anything the traced pass frees is allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

use alloc_track::TrackingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

/// The benchmark's global allocator.
pub struct Switch;

fn counting() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

// SAFETY: both arms hand the request to `System` (`TrackingAlloc` wraps
// it and only adds counter updates), so a block may be freed through
// either arm whatever arm allocated it.
unsafe impl GlobalAlloc for Switch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass on unchanged.
        unsafe {
            if counting() {
                TrackingAlloc.alloc(layout)
            } else {
                System.alloc(layout)
            }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`; `ptr` came from `System` either way.
        unsafe {
            if counting() {
                TrackingAlloc.dealloc(ptr, layout)
            } else {
                System.dealloc(ptr, layout)
            }
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        unsafe {
            if counting() {
                TrackingAlloc.alloc_zeroed(layout)
            } else {
                System.alloc_zeroed(layout)
            }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
        unsafe {
            if counting() {
                TrackingAlloc.realloc(ptr, layout, new_size)
            } else {
                System.realloc(ptr, layout, new_size)
            }
        }
    }
}

/// Switches counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Process-wide allocation counters at one instant.
#[derive(Clone, Copy)]
pub struct Mark {
    allocs: usize,
    live: usize,
}

impl Mark {
    /// Reads the counters and restarts the high-water mark from here.
    pub fn now() -> Mark {
        alloc_track::reset_peak();
        Mark {
            allocs: alloc_track::total_allocs(),
            live: alloc_track::live_bytes(),
        }
    }

    /// Allocations since this mark.
    pub fn allocs_since(&self) -> u64 {
        alloc_track::total_allocs().wrapping_sub(self.allocs) as u64
    }

    /// Highest live heap since this mark, above the live heap at it.
    pub fn peak_growth_bytes(&self) -> u64 {
        alloc_track::peak_bytes().saturating_sub(self.live) as u64
    }
}
