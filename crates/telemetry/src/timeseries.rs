//! Fixed-capacity in-process time-series store sampled from the registry.
//!
//! The registry (PR 3) answers "what has happened since process start";
//! this module answers "what is happening *now*". A [`TimeStore`] keeps a
//! ring-buffer history per registered series and a background [`Sampler`]
//! ticks it at a fixed interval:
//!
//! * **counters** — the raw cumulative value is recorded per tick;
//!   windowed rates fall out of snapshot differencing
//!   (`(v₂ − v₁)/(t₂ − t₁)`) at query time, so one history serves every
//!   window width;
//! * **gauges** — last value per tick;
//! * **histograms** — the full bucket-count snapshot is recorded per tick
//!   ([`Histogram::snapshot_counts_into`]); differencing two snapshots
//!   gives the bucket distribution of exactly the samples recorded
//!   between them, from which [`percentile_from_counts`] yields *true
//!   per-window* p50/p99 rather than lifetime-cumulative ones.
//!
//! Capacity is fixed at construction: every ring is preallocated when its
//! series is first discovered, discovery is incremental (the registry's
//! per-kind vectors only append, so a length watermark sees each series
//! exactly once), and a warm tick — no new series since the last one —
//! performs **zero** heap allocations (`tests/zero_alloc_timeseries.rs`).
//! Memory is bounded by `series × capacity` regardless of uptime.
//!
//! Window semantics, shared by every query and mirrored by the
//! brute-force oracle in `tests/timeseries_props.rs`: the window anchor
//! is the most recent sample at or before `t_end − window`, clamped to
//! the oldest retained sample when history is shorter than the window
//! (partial windows degrade gracefully; rates always divide by the
//! *actual* elapsed span, never the nominal window).

use crate::histogram::{percentile_from_counts, Histogram, NBUCKETS};
use crate::registry::{global, Counter, Gauge, Registry};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ring capacities for a [`TimeStore`].
#[derive(Debug, Clone, Copy)]
pub struct TsConfig {
    /// Points retained per counter/gauge series. The covered wall-time is
    /// `capacity × sampling interval` — the default (640 at a 1 s tick)
    /// covers the 10-minute slow SLO window with slack.
    pub capacity: usize,
    /// Bucket snapshots retained per histogram. Each snapshot is
    /// `NBUCKETS` u64s (~6.4 KiB), so this is the memory knob: the
    /// default (16) costs ~103 KiB per histogram and covers a 16 s
    /// percentile window at a 1 s tick.
    pub hist_capacity: usize,
}

impl Default for TsConfig {
    fn default() -> TsConfig {
        TsConfig {
            capacity: 640,
            hist_capacity: 16,
        }
    }
}

/// Scalar ring: parallel `t`/`v` arrays, oldest overwritten first.
struct Ring {
    t: Box<[f64]>,
    v: Box<[f64]>,
    /// Next write slot.
    head: usize,
    len: usize,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        assert!(cap >= 2, "ring needs at least two points for a window");
        Ring {
            t: vec![0.0; cap].into_boxed_slice(),
            v: vec![0.0; cap].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    fn push(&mut self, t: f64, v: f64) {
        self.t[self.head] = t;
        self.v[self.head] = v;
        self.head = (self.head + 1) % self.t.len();
        self.len = (self.len + 1).min(self.t.len());
    }

    /// `(t, v)` of the `i`-th retained point, oldest first (`i < len`).
    fn at(&self, i: usize) -> (f64, f64) {
        debug_assert!(i < self.len);
        let cap = self.t.len();
        let idx = (self.head + cap - self.len + i) % cap;
        (self.t[idx], self.v[idx])
    }

    /// Index (oldest-first) of the window anchor for `cutoff = t_end −
    /// window`: the most recent point with `t ≤ cutoff`, clamped to the
    /// oldest point when the whole history is newer.
    fn anchor(&self, cutoff: f64) -> Option<usize> {
        if self.len < 2 {
            return None;
        }
        let mut a = 0;
        for i in 0..self.len - 1 {
            if self.at(i).0 <= cutoff {
                a = i;
            } else {
                break;
            }
        }
        Some(a)
    }
}

struct CounterTrack {
    h: Counter,
    ring: Ring,
}

struct GaugeTrack {
    h: Gauge,
    ring: Ring,
}

/// Histogram ring: timestamps plus a flat `hist_capacity × NBUCKETS`
/// snapshot arena (slot `i` is `snaps[i·NBUCKETS ..][.. NBUCKETS]`).
struct HistTrack {
    h: Histogram,
    t: Box<[f64]>,
    snaps: Box<[u64]>,
    head: usize,
    len: usize,
}

impl HistTrack {
    fn new(h: Histogram, cap: usize) -> HistTrack {
        assert!(cap >= 2, "histogram ring needs at least two snapshots");
        HistTrack {
            h,
            t: vec![0.0; cap].into_boxed_slice(),
            snaps: vec![0u64; cap * NBUCKETS].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    fn cap(&self) -> usize {
        self.t.len()
    }

    fn push(&mut self, t: f64) {
        let slot = self.head;
        self.t[slot] = t;
        self.h
            .snapshot_counts_into(&mut self.snaps[slot * NBUCKETS..][..NBUCKETS]);
        self.head = (self.head + 1) % self.cap();
        self.len = (self.len + 1).min(self.cap());
    }

    fn time_at(&self, i: usize) -> f64 {
        debug_assert!(i < self.len);
        self.t[self.slot_of(i)]
    }

    fn slot_of(&self, i: usize) -> usize {
        let cap = self.cap();
        (self.head + cap - self.len + i) % cap
    }

    fn snap_at(&self, i: usize) -> &[u64] {
        &self.snaps[self.slot_of(i) * NBUCKETS..][..NBUCKETS]
    }

    fn anchor(&self, cutoff: f64) -> Option<usize> {
        if self.len < 2 {
            return None;
        }
        let mut a = 0;
        for i in 0..self.len - 1 {
            if self.time_at(i) <= cutoff {
                a = i;
            } else {
                break;
            }
        }
        Some(a)
    }
}

struct StoreInner {
    counters_seen: usize,
    gauges_seen: usize,
    histograms_seen: usize,
    counters: Vec<CounterTrack>,
    gauges: Vec<GaugeTrack>,
    hists: Vec<HistTrack>,
    last_t: Option<f64>,
}

/// Windowed stats of one histogram over `(t_anchor, t_end]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistWindow {
    /// Samples recorded inside the window.
    pub count: u64,
    /// Actual elapsed span of the window (≤ the requested width when
    /// history is short).
    pub elapsed: f64,
    /// Windowed median, bucket resolution. 0 when `count == 0`.
    pub p50: f64,
    /// Windowed 99th percentile, bucket resolution. 0 when `count == 0`.
    pub p99: f64,
}

/// One series' retained history, for exposition/plotting
/// (see `expose::render_history_json`).
pub enum SeriesHistory {
    /// `(t, cumulative value, rate per second since the previous tick)`.
    Counter {
        name: String,
        labels: Vec<(String, String)>,
        points: Vec<(f64, f64, f64)>,
    },
    /// `(t, value)`.
    Gauge {
        name: String,
        labels: Vec<(String, String)>,
        points: Vec<(f64, f64)>,
    },
    /// Per-tick deltas: `(t, samples since previous tick, p50, p99)`.
    Histogram {
        name: String,
        labels: Vec<(String, String)>,
        points: Vec<(f64, u64, f64, f64)>,
    },
}

/// The in-process time-series store. Construction is cheap; rings are
/// allocated lazily as series are discovered on each tick.
pub struct TimeStore {
    cfg: TsConfig,
    registry: &'static Registry,
    started: Instant,
    inner: Mutex<StoreInner>,
}

fn labels_match(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have
            .iter()
            .zip(want)
            .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

impl TimeStore {
    /// A store over the process-wide registry.
    pub fn new(cfg: TsConfig) -> TimeStore {
        TimeStore::with_registry(global(), cfg)
    }

    /// A store over an explicit registry (tests use
    /// `Box::leak(Box::new(Registry::new()))` for isolation).
    pub fn with_registry(registry: &'static Registry, cfg: TsConfig) -> TimeStore {
        TimeStore {
            cfg,
            registry,
            started: Instant::now(),
            inner: Mutex::new(StoreInner {
                counters_seen: 0,
                gauges_seen: 0,
                histograms_seen: 0,
                counters: Vec::new(),
                gauges: Vec::new(),
                hists: Vec::new(),
                last_t: None,
            }),
        }
    }

    /// Samples every series at the wall clock (seconds since the store
    /// was created).
    pub fn tick(&self) {
        self.tick_at(self.started.elapsed().as_secs_f64());
    }

    /// Samples every series at an explicit timestamp — the deterministic
    /// entry point tests and the [`Sampler`] thread share. Non-advancing
    /// timestamps (`t ≤` the previous tick) are ignored so rate
    /// denominators stay positive.
    pub fn tick_at(&self, t: f64) {
        let mut inner = self.inner.lock().expect("timestore lock");
        if inner.last_t.is_some_and(|last| t <= last) {
            return;
        }
        // Incremental discovery: cold and allocating only when series were
        // registered since the previous tick; a no-op (three empty clones)
        // on the warm path.
        let (nc, ng, nh) = self.registry.handles_since(
            inner.counters_seen,
            inner.gauges_seen,
            inner.histograms_seen,
        );
        inner.counters_seen += nc.len();
        inner.gauges_seen += ng.len();
        inner.histograms_seen += nh.len();
        let cap = self.cfg.capacity;
        let hcap = self.cfg.hist_capacity;
        for h in nc {
            inner.counters.push(CounterTrack {
                h,
                ring: Ring::new(cap),
            });
        }
        for h in ng {
            inner.gauges.push(GaugeTrack {
                h,
                ring: Ring::new(cap),
            });
        }
        for h in nh {
            inner.hists.push(HistTrack::new(h, hcap));
        }
        // The warm steady state: in-place ring writes, zero allocations.
        for c in &mut inner.counters {
            let v = c.h.get() as f64;
            c.ring.push(t, v);
        }
        for g in &mut inner.gauges {
            let v = g.h.get();
            g.ring.push(t, v);
        }
        for ht in &mut inner.hists {
            ht.push(t);
        }
        inner.last_t = Some(t);
    }

    /// Timestamp of the most recent tick.
    pub fn last_tick(&self) -> Option<f64> {
        self.inner.lock().expect("timestore lock").last_t
    }

    /// Windowed counter increase: `v(t_end) − v(anchor)`. `None` until the
    /// series has two samples. Allocation-free.
    pub fn counter_delta(&self, name: &str, labels: &[(&str, &str)], window: f64) -> Option<f64> {
        self.counter_window(name, labels, window)
            .map(|(dv, _dt)| dv)
    }

    /// Windowed counter rate per second: increase over the window divided
    /// by the *actual* elapsed span. `None` until the series has two
    /// samples. Allocation-free.
    pub fn counter_rate(&self, name: &str, labels: &[(&str, &str)], window: f64) -> Option<f64> {
        self.counter_window(name, labels, window)
            .map(|(dv, dt)| if dt > 0.0 { dv / dt } else { 0.0 })
    }

    fn counter_window(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        window: f64,
    ) -> Option<(f64, f64)> {
        let inner = self.inner.lock().expect("timestore lock");
        let c = inner
            .counters
            .iter()
            .find(|c| c.h.name() == name && labels_match(c.h.labels(), labels))?;
        let (t_end, v_end) = c.ring.at(c.ring.len.checked_sub(1)?);
        let a = c.ring.anchor(t_end - window)?;
        let (t_a, v_a) = c.ring.at(a);
        Some((v_end - v_a, t_end - t_a))
    }

    /// Most recent sampled gauge value. Allocation-free.
    pub fn gauge_last(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let inner = self.inner.lock().expect("timestore lock");
        let g = inner
            .gauges
            .iter()
            .find(|g| g.h.name() == name && labels_match(g.h.labels(), labels))?;
        let last = g.ring.len.checked_sub(1)?;
        Some(g.ring.at(last).1)
    }

    /// Windowed-delta histogram stats: the bucket distribution of exactly
    /// the samples recorded in the window, percentiled at bucket
    /// resolution. `None` until two snapshots exist. Heap-allocation-free
    /// (the delta scratch lives on the stack).
    pub fn hist_window(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        window: f64,
    ) -> Option<HistWindow> {
        let inner = self.inner.lock().expect("timestore lock");
        let ht = inner
            .hists
            .iter()
            .find(|h| h.h.name() == name && labels_match(h.h.labels(), labels))?;
        let newest = ht.len.checked_sub(1)?;
        let t_end = ht.time_at(newest);
        let a = ht.anchor(t_end - window)?;
        let mut delta = [0u64; NBUCKETS];
        let end = ht.snap_at(newest);
        let start = ht.snap_at(a);
        let mut count = 0u64;
        for i in 0..NBUCKETS {
            // Bucket counts are monotone; saturate anyway so a torn read
            // can never wrap into an absurd count.
            delta[i] = end[i].saturating_sub(start[i]);
            count += delta[i];
        }
        Some(HistWindow {
            count,
            elapsed: t_end - ht.time_at(a),
            p50: percentile_from_counts(&delta, 0.50),
            p99: percentile_from_counts(&delta, 0.99),
        })
    }

    /// Full retained history of every series — the (allocating, cold)
    /// exposition path behind `expose::render_history_json`.
    pub fn series_histories(&self) -> Vec<SeriesHistory> {
        let inner = self.inner.lock().expect("timestore lock");
        let mut out = Vec::new();
        for c in &inner.counters {
            let mut points = Vec::with_capacity(c.ring.len);
            for i in 0..c.ring.len {
                let (t, v) = c.ring.at(i);
                let rate = if i == 0 {
                    0.0
                } else {
                    let (tp, vp) = c.ring.at(i - 1);
                    if t > tp {
                        (v - vp) / (t - tp)
                    } else {
                        0.0
                    }
                };
                points.push((t, v, rate));
            }
            out.push(SeriesHistory::Counter {
                name: c.h.name().to_string(),
                labels: c.h.labels().to_vec(),
                points,
            });
        }
        for g in &inner.gauges {
            let mut points = Vec::with_capacity(g.ring.len);
            for i in 0..g.ring.len {
                points.push(g.ring.at(i));
            }
            out.push(SeriesHistory::Gauge {
                name: g.h.name().to_string(),
                labels: g.h.labels().to_vec(),
                points,
            });
        }
        let mut delta = [0u64; NBUCKETS];
        for ht in &inner.hists {
            let mut points = Vec::with_capacity(ht.len);
            for i in 1..ht.len {
                let end = ht.snap_at(i);
                let start = ht.snap_at(i - 1);
                let mut count = 0u64;
                for b in 0..NBUCKETS {
                    delta[b] = end[b].saturating_sub(start[b]);
                    count += delta[b];
                }
                points.push((
                    ht.time_at(i),
                    count,
                    percentile_from_counts(&delta, 0.50),
                    percentile_from_counts(&delta, 0.99),
                ));
            }
            out.push(SeriesHistory::Histogram {
                name: ht.h.name().to_string(),
                labels: ht.h.labels().to_vec(),
                points,
            });
        }
        out
    }
}

/// A self-contained windowed-p99 tracker over one histogram handle, for
/// callers that want snapshot differencing at their own cadence rather
/// than through a [`TimeStore`] — the router's replica health score uses
/// one per replica. `refresh()` closes the current window: it diffs the
/// bucket counts against the previous refresh and reports the p50/p99 of
/// exactly the samples recorded in between. Allocation-free after
/// construction.
pub struct WindowedHistogram {
    h: Histogram,
    prev: Box<[u64]>,
    curr: Box<[u64]>,
    delta: Box<[u64]>,
    last_count: u64,
    last_p99: f64,
}

impl WindowedHistogram {
    pub fn new(h: Histogram) -> WindowedHistogram {
        let mut prev = vec![0u64; NBUCKETS].into_boxed_slice();
        // Start the first window at "now", not process start: samples
        // recorded before this tracker existed are not recent evidence.
        h.snapshot_counts_into(&mut prev);
        WindowedHistogram {
            h,
            prev,
            curr: vec![0u64; NBUCKETS].into_boxed_slice(),
            delta: vec![0u64; NBUCKETS].into_boxed_slice(),
            last_count: 0,
            last_p99: 0.0,
        }
    }

    /// Closes the window opened by the previous `refresh` (or by
    /// construction): returns `(samples in window, windowed p99)`. An
    /// empty window reports `(0, 0.0)` — no recent evidence reads as
    /// healthy, so a replica that was slow long ago recovers as soon as
    /// its stale samples age out of the window.
    pub fn refresh(&mut self) -> (u64, f64) {
        self.h.snapshot_counts_into(&mut self.curr);
        let mut count = 0u64;
        for i in 0..NBUCKETS {
            self.delta[i] = self.curr[i].saturating_sub(self.prev[i]);
            count += self.delta[i];
        }
        self.last_count = count;
        self.last_p99 = percentile_from_counts(&self.delta, 0.99);
        std::mem::swap(&mut self.prev, &mut self.curr);
        (self.last_count, self.last_p99)
    }

    /// The p99 reported by the most recent `refresh`.
    pub fn last_p99(&self) -> f64 {
        self.last_p99
    }
}

/// Background thread driving [`TimeStore::tick`] at a fixed interval,
/// with an optional per-tick hook (the server hangs its SLO evaluation
/// off it). Stops and joins on drop.
pub struct Sampler {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling `store` every `interval`.
    pub fn start(store: Arc<TimeStore>, interval: Duration) -> Sampler {
        Sampler::start_with_hook(store, interval, |_, _| {})
    }

    /// Starts sampling with `hook(store, t)` invoked after every tick.
    pub fn start_with_hook(
        store: Arc<TimeStore>,
        interval: Duration,
        mut hook: impl FnMut(&TimeStore, f64) + Send + 'static,
    ) -> Sampler {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop_t = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("ms-ts-sampler".into())
            .spawn(move || {
                let (lock, cv) = &*stop_t;
                loop {
                    store.tick();
                    if let Some(t) = store.last_tick() {
                        hook(&store, t);
                    }
                    let guard = lock.lock().expect("sampler stop lock");
                    let (guard, _) = cv.wait_timeout(guard, interval).expect("sampler stop wait");
                    if *guard {
                        return;
                    }
                }
            })
            .expect("spawn sampler");
        Sampler {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        let (lock, cv) = &*self.stop;
        *lock.lock().expect("sampler stop lock") = true;
        cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaked_registry() -> &'static Registry {
        Box::leak(Box::new(Registry::new()))
    }

    #[test]
    fn counter_windowed_rates_from_snapshot_differencing() {
        let reg = leaked_registry();
        let store = TimeStore::with_registry(
            reg,
            TsConfig {
                capacity: 8,
                hist_capacity: 2,
            },
        );
        let c = reg.counter("ts_reqs_total", "");
        store.tick_at(0.0);
        c.add(100);
        store.tick_at(1.0);
        c.add(300);
        store.tick_at(2.0);

        // Last 1 s: +300. Last 2 s: +400 over 2 s.
        assert_eq!(store.counter_rate("ts_reqs_total", &[], 1.0), Some(300.0));
        assert_eq!(store.counter_rate("ts_reqs_total", &[], 2.0), Some(200.0));
        assert_eq!(store.counter_delta("ts_reqs_total", &[], 2.0), Some(400.0));
        // Wider-than-history windows clamp to the oldest sample.
        assert_eq!(store.counter_rate("ts_reqs_total", &[], 50.0), Some(200.0));
        assert_eq!(store.counter_rate("nope", &[], 1.0), None);
    }

    #[test]
    fn ring_wraps_and_drops_oldest() {
        let reg = leaked_registry();
        let store = TimeStore::with_registry(
            reg,
            TsConfig {
                capacity: 4,
                hist_capacity: 2,
            },
        );
        let c = reg.counter("ts_wrap_total", "");
        for i in 0..10 {
            c.add(10);
            store.tick_at(i as f64);
        }
        // Only ticks t=6..9 retained: a 100 s window clamps to t=6.
        assert_eq!(store.counter_delta("ts_wrap_total", &[], 100.0), Some(30.0));
    }

    #[test]
    fn gauge_history_keeps_last() {
        let reg = leaked_registry();
        let store = TimeStore::with_registry(reg, TsConfig::default());
        let g = reg.gauge_with("ts_depth", &[("engine", "0")], "");
        g.set(3.0);
        store.tick_at(1.0);
        g.set(7.5);
        store.tick_at(2.0);
        assert_eq!(store.gauge_last("ts_depth", &[("engine", "0")]), Some(7.5));
        assert_eq!(store.gauge_last("ts_depth", &[("engine", "1")]), None);
    }

    #[test]
    fn hist_window_sees_only_recent_samples() {
        let reg = leaked_registry();
        let store = TimeStore::with_registry(
            reg,
            TsConfig {
                capacity: 8,
                hist_capacity: 8,
            },
        );
        let h = reg.histogram("ts_service_seconds", "");
        store.tick_at(0.0);
        for _ in 0..100 {
            h.record(1.0); // slow era
        }
        store.tick_at(1.0);
        for _ in 0..50 {
            h.record(1e-3); // fast era
        }
        store.tick_at(2.0);

        let w = store.hist_window("ts_service_seconds", &[], 1.0).unwrap();
        assert_eq!(w.count, 50);
        assert!(w.p99 < 2e-3, "windowed p99 {}", w.p99);
        // Lifetime view still dominated by the slow era.
        assert!(h.percentile(0.99) > 0.9);
        // The wide window includes both eras.
        let wide = store.hist_window("ts_service_seconds", &[], 10.0).unwrap();
        assert_eq!(wide.count, 150);
        assert!(wide.p99 > 0.9);
    }

    #[test]
    fn non_advancing_ticks_are_ignored() {
        let reg = leaked_registry();
        let store = TimeStore::with_registry(reg, TsConfig::default());
        let c = reg.counter("ts_mono_total", "");
        store.tick_at(5.0);
        c.inc();
        store.tick_at(5.0); // ignored
        store.tick_at(4.0); // ignored
        assert_eq!(store.last_tick(), Some(5.0));
        store.tick_at(6.0);
        assert_eq!(store.counter_delta("ts_mono_total", &[], 1.0), Some(1.0));
    }

    #[test]
    fn windowed_histogram_recovers_after_load_shift() {
        let h = Histogram::detached("wh");
        for _ in 0..100 {
            h.record(2.0);
        }
        let mut w = WindowedHistogram::new(h.clone());
        // Pre-construction samples are not recent evidence.
        assert_eq!(w.refresh(), (0, 0.0));
        for _ in 0..10 {
            h.record(2.0);
        }
        let (n, p99) = w.refresh();
        assert_eq!(n, 10);
        assert!(p99 > 1.9);
        // Load shifts away: the very next window is clean.
        let (n, p99) = w.refresh();
        assert_eq!(n, 0);
        assert_eq!(p99, 0.0);
        assert_eq!(w.last_p99(), 0.0);
    }

    #[test]
    fn sampler_thread_ticks_and_stops() {
        let reg = leaked_registry();
        let store = Arc::new(TimeStore::with_registry(reg, TsConfig::default()));
        let c = reg.counter("ts_sampler_total", "");
        c.add(5);
        let ticked = Arc::new(Mutex::new(0u32));
        let ticked_h = Arc::clone(&ticked);
        let s =
            Sampler::start_with_hook(Arc::clone(&store), Duration::from_millis(5), move |_, _| {
                *ticked_h.lock().unwrap() += 1;
            });
        let t0 = Instant::now();
        while *ticked.lock().unwrap() < 3 {
            assert!(t0.elapsed() < Duration::from_secs(5), "sampler stalled");
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(s); // joins
        assert!(store.last_tick().is_some());
        assert!(store.gauge_last("no_such", &[]).is_none());
    }

    #[test]
    fn series_histories_cover_all_kinds() {
        let reg = leaked_registry();
        let store = TimeStore::with_registry(
            reg,
            TsConfig {
                capacity: 8,
                hist_capacity: 4,
            },
        );
        let c = reg.counter("tsh_total", "");
        let g = reg.gauge("tsh_depth", "");
        let h = reg.histogram("tsh_seconds", "");
        store.tick_at(0.0);
        c.add(10);
        g.set(2.0);
        h.record(0.5);
        store.tick_at(1.0);
        let hist = store.series_histories();
        assert_eq!(hist.len(), 3);
        for s in hist {
            match s {
                SeriesHistory::Counter { name, points, .. } => {
                    assert_eq!(name, "tsh_total");
                    assert_eq!(points.len(), 2);
                    assert_eq!(points[1], (1.0, 10.0, 10.0));
                }
                SeriesHistory::Gauge { name, points, .. } => {
                    assert_eq!(name, "tsh_depth");
                    assert_eq!(points[1], (1.0, 2.0));
                }
                SeriesHistory::Histogram { name, points, .. } => {
                    assert_eq!(name, "tsh_seconds");
                    assert_eq!(points.len(), 1);
                    let (t, n, _p50, p99) = points[0];
                    assert_eq!((t, n), (1.0, 1));
                    assert!(p99 >= 0.5 && p99 < 0.6);
                }
            }
        }
    }
}
