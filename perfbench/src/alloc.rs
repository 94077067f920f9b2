//! A std-only counting `#[global_allocator]`: allocations, bytes
//! allocated and the live-heap high-water, read by diffing snapshots
//! around each public call the benchmark makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Forwards to [`System`] and counts every allocation.
pub struct Counting;

// Statistics only: no other data is published through these, so
// relaxed ordering is enough.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    let size = size as u64;
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged and only adds counter updates, so `System`'s
// guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence by
        // `System`) with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A reallocation counts as one allocation of its new size;
            // the live heap moves by the difference.
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(new_size as u64, Relaxed);
            let old = layout.size() as u64;
            let new = new_size as u64;
            if new >= old {
                let live = LIVE.fetch_add(new - old, Relaxed) + (new - old);
                PEAK.fetch_max(live, Relaxed);
            } else {
                LIVE.fetch_sub(old - new, Relaxed);
            }
        }
        p
    }
}

/// Cumulative allocation counts at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapSnapshot {
    /// Allocations (and reallocations) so far.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl HeapSnapshot {
    /// Counts recorded since `earlier`.
    pub fn since(&self, earlier: &HeapSnapshot) -> HeapSnapshot {
        HeapSnapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// The counters now.
pub fn snapshot() -> HeapSnapshot {
    HeapSnapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Starts a new high-water window at the current live heap.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Live-heap high-water since the last [`reset_peak`], in bytes.
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_an_allocation_and_its_bytes() {
        let before = snapshot();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        let delta = snapshot().since(&before);
        // Other test threads may allocate too, so these are lower bounds.
        assert!(delta.allocs >= 1);
        assert!(delta.bytes >= 1 << 20);
        assert!(peak_bytes() >= 1 << 20);
        drop(v);
    }
}
