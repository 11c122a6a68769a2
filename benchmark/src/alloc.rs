//! A counting allocator: `System` plus allocation, byte and peak-live
//! counters behind one relaxed `AtomicBool`.
//!
//! Off in every timed round (one load of a shared, read-only cache line
//! per call); switched on only in the memory pass, after the span buffers
//! have been allocated. Peak resident set size moved 9 % between runs of
//! identical code; the heap's own high-water mark does not depend on what
//! the kernel happens to have paged in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes since the last [`start`]; signed because blocks allocated
/// before it may be freed after it.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

// The counters are statistics that publish no other data: Relaxed.
fn grew(bytes: usize) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            shrank(layout.size());
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            shrank(layout.size());
            grew(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// What the allocator saw between [`start`] and [`stop`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub count: u64,
    pub bytes: u64,
    pub peak_live_bytes: u64,
}

/// Zero the counters and start counting.
pub fn start() {
    COUNT.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::SeqCst);
}

/// The counters so far, without stopping.
pub fn read() -> Tally {
    Tally {
        count: COUNT.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak_live_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// Stop counting and return the counters.
pub fn stop() -> Tally {
    ON.store(false, Ordering::SeqCst);
    read()
}
