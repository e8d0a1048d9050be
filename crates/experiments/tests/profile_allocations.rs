//! Profile capture allocates per buffer growth step, not per entry.
//!
//! A counting global allocator wraps the system one, so this file is its
//! own test binary with one test. E17 at seed 1 captures about 6,800
//! entries; under Profile it may allocate only a little more than under
//! Cost, which captures none.
//!
//! ```sh
//! cargo test -p tussle-experiments --test profile_allocations
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tussle_experiments::{registry, run_captured, run_profiled};

/// Counts every allocation and reallocation, then defers to [`System`].
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes, its result dropped uncounted.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(out);
    made
}

#[test]
fn profile_capture_allocates_per_growth_step_not_per_entry() {
    let (name, run) = registry().into_iter().find(|(name, _)| *name == "E17").expect("E17");
    // Warm up once so lazily built statics count in neither run.
    let _ = run_captured(name, run, 1);
    let cost = allocations(|| run_captured(name, run, 1));
    let mut entries = 0;
    let profile = allocations(|| {
        let (report, record) = run_profiled(name, run, 1);
        entries = record.ring.len();
        (report, record)
    });
    assert!(entries > 5_000, "E17 captured only {entries} entries");
    assert!(
        profile <= cost + 1_000,
        "Profile made {profile} allocations against Cost's {cost} for {entries} captured entries"
    );
}
