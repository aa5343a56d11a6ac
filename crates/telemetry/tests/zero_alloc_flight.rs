//! Proves the flight-recorder record path is allocation-free in steady
//! state — with the recorder on (including ring wrap-around and chunk
//! refills) and with it off (the single-branch early-out) — using a
//! counting global allocator, the same technique as `zero_alloc.rs`.

use ms_telemetry::flight;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: TLS may be unavailable during thread teardown.
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Allocations observed on this thread while running `f`.
fn allocations(mut f: impl FnMut()) -> u64 {
    let before = ALLOC_COUNT.with(|c| c.get());
    f();
    let after = ALLOC_COUNT.with(|c| c.get());
    after - before
}

fn full_chain(trace: u64) {
    flight::wire_decoded(trace, 2_000);
    flight::admitted(trace);
    flight::enqueued(trace);
    flight::sealed_into_batch(trace, trace, 0.75, 0.9);
    flight::dispatch_start(trace, 1, 1.0, 0.75);
    flight::compute_done(trace);
    flight::delivered(trace);
}

// One #[test] so the cold (allocating) ring initialization is sequenced
// before every measured region.
#[test]
fn flight_record_path_is_allocation_free() {
    // Cold path: set_recording(true) materializes the ring (one-time
    // allocation), the first record claims this thread's first chunk.
    flight::set_recording(true);
    full_chain(1);

    // Steady state, recorder ON. 20k chains × 7 events wraps the 65 536
    // slot ring twice over — wrap-around must recycle slots, not grow.
    let during_on = allocations(|| {
        for i in 0..20_000u64 {
            full_chain(2 + i);
        }
    });
    assert_eq!(
        during_on, 0,
        "recorder-on steady state must not allocate ({during_on} allocations seen)"
    );

    // Recorder OFF: every record site is one relaxed load and a branch.
    flight::set_recording(false);
    let during_off = allocations(|| {
        for i in 0..20_000u64 {
            full_chain(30_000 + i);
        }
    });
    assert_eq!(
        during_off, 0,
        "recorder-off path must not allocate ({during_off} allocations seen)"
    );

    // The untraced sentinel (trace_id == 0) is equally free.
    flight::set_recording(true);
    let during_untraced = allocations(|| {
        for _ in 0..20_000u64 {
            full_chain(0);
        }
    });
    assert_eq!(during_untraced, 0, "untraced records must not allocate");
    flight::set_recording(false);
}
