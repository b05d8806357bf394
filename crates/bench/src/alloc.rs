//! The harness binaries' global allocator: the system allocator, wrapped to
//! count `alloc`/`realloc` calls and to track live bytes and their
//! high-water mark. A binary installs it and reads it through [`calls`]
//! and [`peak_during`]; both read 0 in a binary that does not install it.
//!
//! ```
//! use dpar2_bench::alloc::{self, Tracking};
//!
//! #[global_allocator]
//! static ALLOC: Tracking = Tracking;
//!
//! fn main() {
//!     let before = alloc::calls();
//!     let (buf, peak) = alloc::peak_during(|| vec![0u8; 4096]);
//!     assert!(peak >= buf.len());
//!     assert!(alloc::calls() > before);
//! }
//! ```

// `GlobalAlloc` is an unsafe trait: this module is the crate's one carve-out
// from the workspace-wide `deny(unsafe_code)`. It only updates counters
// around the system allocator's own calls.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting calls and tracking live and peak bytes.
#[derive(Debug)]
pub struct Tracking;

/// One `alloc` or `realloc` call that leaves `size` more bytes live.
fn grow(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grow(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `alloc` and `realloc` calls so far, process-wide.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Runs `f` and returns its result with the peak live bytes seen meanwhile,
/// measured from the live level at entry (so resident fixtures don't
/// count).
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}
