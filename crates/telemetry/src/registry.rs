//! The metrics registry: named counters, gauges and histograms.
//!
//! Registration is get-or-create keyed on `(name, labels)` under one mutex
//! — cold, allocating, idempotent (two callers registering the same series
//! share one cell). The returned handles are `Arc`s onto atomic cells;
//! recording through a handle is lock-free and allocation-free, which is
//! what lets the GEMM inner loops, the buffer pool and the engine workers
//! record without perturbing the zero-allocation guarantees of PR 1/PR 2.

use crate::histogram::Histogram;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Metric identity: name, label pairs, help text.
#[derive(Debug, Clone)]
pub(crate) struct Desc {
    pub(crate) name: String,
    pub(crate) labels: Vec<(String, String)>,
    pub(crate) help: String,
}

impl Desc {
    pub(crate) fn new(name: &str, labels: &[(&str, &str)], help: &str) -> Desc {
        Desc {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            help: help.to_string(),
        }
    }

    fn key(&self) -> (String, Vec<(String, String)>) {
        (self.name.clone(), self.labels.clone())
    }
}

/// An `AtomicU64` alone on its cache line. Metric cells are small heap
/// allocations made back to back at registration, so without padding two
/// cells' hot atomics can share a line — and whether the submit thread's
/// counter false-shares with a worker-written gauge becomes allocator
/// luck, costing a few percent of throughput on some runs and none on
/// others. The padding makes the record path's cost deterministic.
#[repr(align(64))]
pub(crate) struct PaddedAtomicU64(AtomicU64);

impl PaddedAtomicU64 {
    pub(crate) fn new(v: u64) -> Self {
        PaddedAtomicU64(AtomicU64::new(v))
    }

    #[inline]
    pub(crate) fn load(&self, order: Ordering) -> u64 {
        self.0.load(order)
    }

    #[inline]
    pub(crate) fn store(&self, v: u64, order: Ordering) {
        self.0.store(v, order)
    }

    #[inline]
    pub(crate) fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
        self.0.fetch_add(v, order)
    }

    #[inline]
    pub(crate) fn compare_exchange_weak(
        &self,
        cur: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        self.0.compare_exchange_weak(cur, new, success, failure)
    }
}

pub(crate) struct CounterCell {
    pub(crate) desc: Desc,
    value: PaddedAtomicU64,
}

/// Monotone counter handle. `inc`/`add` are one relaxed `fetch_add`.
#[derive(Clone)]
pub struct Counter(pub(crate) Arc<CounterCell>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// Metric name.
    pub fn name(&self) -> &str {
        &self.0.desc.name
    }

    /// Label pairs.
    pub fn labels(&self) -> &[(String, String)] {
        &self.0.desc.labels
    }
}

pub(crate) struct GaugeCell {
    pub(crate) desc: Desc,
    bits: PaddedAtomicU64,
}

/// Gauge handle holding an `f64` (stored as bits in an `AtomicU64`).
/// `set` is one relaxed store; `add` is a CAS loop.
#[derive(Clone)]
pub struct Gauge(pub(crate) Arc<GaugeCell>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: f64) {
        let mut cur = self.0.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .0
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.bits.load(Ordering::Relaxed))
    }

    /// Metric name.
    pub fn name(&self) -> &str {
        &self.0.desc.name
    }

    /// Label pairs.
    pub fn labels(&self) -> &[(String, String)] {
        &self.0.desc.labels
    }
}

enum Slot {
    Counter(usize),
    Gauge(usize),
    Histogram(usize),
}

#[derive(Default)]
pub(crate) struct Inner {
    pub(crate) counters: Vec<Counter>,
    pub(crate) gauges: Vec<Gauge>,
    pub(crate) histograms: Vec<Histogram>,
    index: HashMap<(String, Vec<(String, String)>), Slot>,
}

/// A metrics registry. Most code uses the process-wide [`global`] one;
/// fresh instances exist for tests that need isolation.
#[derive(Default)]
pub struct Registry {
    pub(crate) inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Gets or registers an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Gets or registers a counter with labels. Panics if `(name, labels)`
    /// is already registered as a different metric kind.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        let desc = Desc::new(name, labels, help);
        let mut inner = self.inner.lock().expect("registry lock");
        match inner.index.get(&desc.key()) {
            Some(Slot::Counter(i)) => inner.counters[*i].clone(),
            Some(_) => panic!("metric {name} already registered as a different kind"),
            None => {
                let c = Counter(Arc::new(CounterCell {
                    desc: desc.clone(),
                    value: PaddedAtomicU64::new(0),
                }));
                let i = inner.counters.len();
                inner.counters.push(c.clone());
                inner.index.insert(desc.key(), Slot::Counter(i));
                c
            }
        }
    }

    /// Gets or registers an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, &[], help)
    }

    /// Gets or registers a gauge with labels.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        let desc = Desc::new(name, labels, help);
        let mut inner = self.inner.lock().expect("registry lock");
        match inner.index.get(&desc.key()) {
            Some(Slot::Gauge(i)) => inner.gauges[*i].clone(),
            Some(_) => panic!("metric {name} already registered as a different kind"),
            None => {
                let g = Gauge(Arc::new(GaugeCell {
                    desc: desc.clone(),
                    bits: PaddedAtomicU64::new(0f64.to_bits()),
                }));
                let i = inner.gauges.len();
                inner.gauges.push(g.clone());
                inner.index.insert(desc.key(), Slot::Gauge(i));
                g
            }
        }
    }

    /// Gets or registers an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, &[], help)
    }

    /// Clones every handle registered after the per-kind watermarks —
    /// the incremental discovery step of the time-series sampler. Indices
    /// are stable (the per-kind vectors only ever append), so a caller
    /// tracking `(counters, gauges, histograms)` lengths sees each series
    /// exactly once, and the registry mutex is held only for the clone of
    /// the new tail, never across a sampling pass.
    pub(crate) fn handles_since(
        &self,
        counters_seen: usize,
        gauges_seen: usize,
        histograms_seen: usize,
    ) -> (Vec<Counter>, Vec<Gauge>, Vec<Histogram>) {
        let inner = self.inner.lock().expect("registry lock");
        (
            inner.counters[counters_seen..].to_vec(),
            inner.gauges[gauges_seen..].to_vec(),
            inner.histograms[histograms_seen..].to_vec(),
        )
    }

    /// Gets or registers a histogram with labels.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Histogram {
        let desc = Desc::new(name, labels, help);
        let mut inner = self.inner.lock().expect("registry lock");
        match inner.index.get(&desc.key()) {
            Some(Slot::Histogram(i)) => inner.histograms[*i].clone(),
            Some(_) => panic!("metric {name} already registered as a different kind"),
            None => {
                let h = Histogram::new_cell(desc.clone());
                let i = inner.histograms.len();
                inner.histograms.push(h.clone());
                inner.index.insert(desc.key(), Slot::Histogram(i));
                h
            }
        }
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shares_cells() {
        let r = Registry::new();
        let a = r.counter("reqs_total", "requests");
        let b = r.counter("reqs_total", "requests");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn labels_distinguish_series() {
        let r = Registry::new();
        let a = r.counter_with("served", &[("rate", "0.25")], "");
        let b = r.counter_with("served", &[("rate", "1.0")], "");
        a.inc();
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 0);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_collision_panics() {
        let r = Registry::new();
        let _ = r.counter("x", "");
        let _ = r.gauge("x", "");
    }

    #[test]
    fn gauge_set_add_get() {
        let r = Registry::new();
        let g = r.gauge("depth", "");
        g.set(4.0);
        g.add(-1.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let r = Registry::new();
        let c = r.counter("concurrent_total", "");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }
}
