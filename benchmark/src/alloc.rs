//! Process-wide allocation counting for the `broker.allocs_per_event`
//! window: a pass-through over the system allocator that bumps one
//! relaxed counter per heap acquisition. Frees are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Heap acquisitions (alloc, alloc_zeroed, realloc) since start-up.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

struct CountingAllocator;

// SAFETY: every method delegates to `System`, which upholds the
// `GlobalAlloc` contract; the added counter bump is a relaxed atomic
// increment that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING_ALLOCATOR: CountingAllocator = CountingAllocator;

/// Pins glibc's mmap threshold at its default start value, 128 KiB. glibc
/// otherwise raises the threshold after the first large free; from then
/// on, whether each 4096-slot subscriber channel buffer is a fresh mapping
/// or recycled heap depends on the process's allocation history, and that
/// moved `exact_fanout`'s `peak_rss_mb` by about a fifth between runs.
/// Call before any other thread starts.
pub fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        const M_MMAP_THRESHOLD: c_int = -3;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        // SAFETY: `mallopt` only sets an allocator parameter and takes no
        // pointers; no other thread is allocating yet. A failure leaves
        // the dynamic threshold, which only makes the RSS noisier.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}
