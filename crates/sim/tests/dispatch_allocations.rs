//! A dispatched event allocates at most its boxed closure.
//!
//! A counting global allocator wraps the system one, so this file is its
//! own test binary with one test. A 10,000-event self-rescheduling chain
//! records one trace entry per event, with a static message and with a
//! `format_args!` message, each with no observation scope, under Cost and
//! under Profile. The engine trace keeps its entries in a `TraceLog`
//! arena, renders each message into one reused buffer and reuses its
//! dispatch buffers, so every run makes at most one allocation per event
//! (the closure the handler schedules) plus the buffers' growth steps.
//!
//! ```sh
//! cargo test -p tussle-sim --test dispatch_allocations
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tussle_sim::{obs, Ctx, Engine, ObsMode, RunDigest, SimTime};

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

/// Events in the chain.
const EVENTS: u64 = 10_000;

/// Allocations a run may make beyond one per event: the per-run setup and
/// the growth steps of the trace, queue, metric and Profile-capture
/// buffers, about fourteen doublings each for 10,000 entries. Runs make
/// 47 to 132 of them; one more allocation per 100 events would breach it.
const SLACK: u64 = 200;

/// One link of the chain: count, trace, reschedule until `EVENTS`.
fn tick(formatted: bool) -> impl FnOnce(&mut u64, &mut Ctx<u64>) + 'static {
    move |w, ctx| {
        *w += 1;
        if formatted {
            ctx.trace("chain.tick", format_args!("tick {} of {EVENTS}", *w));
        } else {
            ctx.trace("chain.tick", "tick");
        }
        ctx.metrics.incr("chain.ticks");
        if *w < EVENTS {
            ctx.schedule_in(SimTime::from_micros(10), tick(formatted));
        }
    }
}

/// Run the chain under `mode` (no scope for `None`): the engine digest and
/// the allocations the whole run made.
fn run_chain(mode: Option<ObsMode>, formatted: bool) -> (RunDigest, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let guard = mode.map(obs::begin);
    let mut eng: Engine<u64> = Engine::new(0, 1);
    eng.schedule_at(SimTime::ZERO, tick(formatted));
    assert_eq!(eng.run_to_completion(), EVENTS);
    let digest = eng.digest();
    drop(eng);
    if let Some(guard) = guard {
        let record = guard.finish();
        assert_eq!(record.events, EVENTS);
        assert_eq!(record.trace_entries, EVENTS);
    }
    (digest, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_dispatched_event_allocates_at_most_its_closure() {
    // Warm up once so lazily built statics count in no run.
    let _ = run_chain(Some(ObsMode::Profile), true);
    for (formatted, pinned) in [(false, "7f06549878af6139"), (true, "f397de235b7fe4d7")] {
        for mode in [None, Some(ObsMode::Cost), Some(ObsMode::Profile)] {
            let (digest, allocations) = run_chain(mode, formatted);
            assert_eq!(digest.to_hex(), pinned, "{mode:?} formatted={formatted}");
            assert!(
                allocations <= EVENTS + SLACK,
                "{mode:?} formatted={formatted}: {allocations} allocations for {EVENTS} events \
                 ({:.2} per event)",
                allocations as f64 / EVENTS as f64
            );
        }
    }
}
