//! The record path allocates nothing.
//!
//! A counting global allocator (same technique as `ms-nn`'s steady-state
//! test) verifies the registry's core contract: registration is the cold,
//! allocating step; recording through the returned handles — counter adds,
//! gauge stores, histogram records, and (when compiled) span enter/exit —
//! performs **zero** heap allocations. The counter is thread-local so the
//! harness' own threads cannot pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` keeps the hook safe during TLS teardown.
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations(mut f: impl FnMut()) -> u64 {
    let before = ALLOC_COUNT.with(Cell::get);
    f();
    ALLOC_COUNT.with(Cell::get) - before
}

/// One test function so the warm-up (handle registration, span-site
/// resolution, thread-local span stack growth) and the measured steady
/// state share a single thread.
#[test]
fn steady_state_recording_allocates_nothing() {
    let reg = ms_telemetry::global();

    // Cold path: registration allocates — do all of it up front.
    let hits = reg.counter("za_hits_total", "test counter");
    let labeled = reg.counter_with("za_rate_total", &[("rate", "0.5")], "labeled");
    let depth = reg.gauge("za_depth", "test gauge");
    let service = reg.histogram("za_service_seconds", "test histogram");

    // Warm the record path once (first histogram touch, first span
    // enter resolving its site and reserving the thread's stack).
    hits.inc();
    labeled.add(2);
    depth.set(1.0);
    depth.add(0.5);
    service.record(3.4e-4);
    {
        let _outer = ms_telemetry::span!("za.outer");
        let _inner = ms_telemetry::span!("za.inner");
    }

    let delta = allocations(|| {
        for i in 0..10_000u64 {
            hits.inc();
            labeled.add(i & 3);
            depth.set(i as f64);
            depth.add(-0.25);
            service.record(1e-6 * (i + 1) as f64);
        }
    });
    assert_eq!(delta, 0, "metric recording allocated {delta}x");

    let delta = allocations(|| {
        for _ in 0..10_000 {
            let _outer = ms_telemetry::span!("za.outer");
            let _inner = ms_telemetry::span!("za.inner");
        }
    });
    assert_eq!(delta, 0, "span enter/exit allocated {delta}x");

    // Reading scalar values is also allocation-free (snapshot rendering is
    // not, and is not claimed to be).
    let delta = allocations(|| {
        assert!(hits.get() >= 10_000);
        assert!(service.count() >= 10_000);
        assert!(service.percentile(0.99) > 0.0);
    });
    assert_eq!(delta, 0, "scalar reads allocated {delta}x");

    #[cfg(feature = "telemetry-spans")]
    {
        // Each `span!` occurrence is its own site; aggregate by name (the
        // warm-up block and the measured loop are distinct sites).
        let snap = ms_telemetry::spans::snapshot();
        let calls = |name: &str| -> u64 {
            snap.iter()
                .filter(|s| s.name == name)
                .map(|s| s.calls)
                .sum()
        };
        assert!(calls("za.outer") >= 10_001, "outer calls: {snap:?}");
        assert!(calls("za.inner") >= 10_001, "inner calls: {snap:?}");
        for s in snap.iter().filter(|s| s.name.starts_with("za.")) {
            // Self time never exceeds total time.
            assert!(s.self_ns <= s.total_ns, "self > total: {s:?}");
        }
    }
}
