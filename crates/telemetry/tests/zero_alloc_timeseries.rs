//! The time-series steady state allocates nothing.
//!
//! Same counting-allocator technique as `zero_alloc.rs`, applied to the
//! sampling layer: series discovery and ring allocation are the cold,
//! first-tick step; every warm `tick_at` (registry snapshot into
//! preallocated rings), every windowed query (`counter_delta`,
//! `counter_rate`, `gauge_last`, `hist_window`) and every transition-free
//! `SloEngine::evaluate` must perform **zero** heap allocations — the
//! sampler thread runs forever at a fixed cadence, so any per-tick
//! allocation is an unbounded churn source.

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

use ms_telemetry::slo::{SeriesRef, SloEngine, SloSpec};
use ms_telemetry::{Registry, TimeStore, TsConfig, WindowedHistogram};

#[test]
fn warm_sampler_tick_and_slo_evaluate_allocate_nothing() {
    let reg: &'static Registry = Box::leak(Box::new(Registry::new()));

    // Cold: registration, store construction, SLO engine gauges.
    let total = reg.counter_with("zat_requests_total", &[("server", "0")], "total");
    let bad = reg.counter_with("zat_miss_total", &[("server", "0")], "bad");
    let depth = reg.gauge_with("zat_depth", &[("server", "0")], "gauge");
    let service = reg.histogram_with("zat_service_seconds", &[("server", "0")], "histogram");
    let store = TimeStore::with_registry(
        reg,
        TsConfig {
            capacity: 64,
            hist_capacity: 8,
        },
    );
    let mut spec = SloSpec::new(
        "deadline",
        SeriesRef::new("zat_miss_total", &[("server", "0")]),
        SeriesRef::new("zat_requests_total", &[("server", "0")]),
        0.99,
    );
    // Second-scale windows so the evaluations below see real spans.
    spec.fast.short_window = 1.0;
    spec.fast.long_window = 4.0;
    spec.slow.short_window = 4.0;
    spec.slow.long_window = 16.0;
    let engine = SloEngine::with_registry(reg, vec![spec]);

    // First tick discovers every series and allocates its rings; the
    // second one warms the ring-wraparound path too. First evaluate warms
    // the engine (gauge first-touch).
    let mut t = 0.0;
    for _ in 0..3 {
        total.add(10);
        depth.set(1.0);
        service.record(1e-4);
        t += 1.0;
        store.tick_at(t);
        engine.evaluate(&store, t);
    }

    // Steady state: bursts, ticks (with ring wraparound — 64 slots, 200
    // ticks), windowed queries and healthy (transition-free) SLO
    // evaluations. Zero heap allocations, total.
    let labels: &[(&str, &str)] = &[("server", "0")];
    let delta = allocations(|| {
        for i in 0..200u64 {
            total.add(i & 7);
            depth.set(i as f64);
            service.record(1e-5 * (i + 1) as f64);
            t += 1.0;
            store.tick_at(t);
            engine.evaluate(&store, t);
            assert!(store
                .counter_delta("zat_requests_total", labels, 4.0)
                .is_some());
            assert!(store
                .counter_rate("zat_requests_total", labels, 4.0)
                .is_some());
            assert!(store.gauge_last("zat_depth", labels).is_some());
            assert!(store
                .hist_window("zat_service_seconds", labels, 4.0)
                .is_some());
            assert!(!engine.is_firing("deadline", "fast"));
        }
    });
    assert_eq!(delta, 0, "warm sampling allocated {delta}x");
    let _ = bad; // registered to give the SLO a real (never-incremented) bad series

    // The windowed-histogram refresh path (the router's per-refresh work)
    // is allocation-free too once constructed.
    let mut w = WindowedHistogram::new(service.clone());
    w.refresh();
    let delta = allocations(|| {
        for i in 0..100u64 {
            service.record(1e-5 * (i + 1) as f64);
            let (count, p99) = w.refresh();
            assert!(count > 0 && p99 > 0.0);
        }
    });
    assert_eq!(delta, 0, "windowed refresh allocated {delta}x");
}
