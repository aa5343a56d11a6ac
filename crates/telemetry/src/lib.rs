//! Zero-cost observability for the model-slicing stack.
//!
//! The serving story of §4.1 — pick the widest slice rate whose predicted
//! cost fits the instantaneous budget — is only operable in production if
//! the operator can *see* what the controller is doing: per-rate service
//! times, shed decisions, queue depth, batch fill. This crate provides that
//! visibility without taxing the hot paths it observes:
//!
//! - [`registry`] — a global, lock-free-on-record metrics registry of named
//!   **counters**, **gauges** and log-bucketed **histograms**. Registration
//!   (cold) takes a mutex and allocates; recording (hot) is a handful of
//!   relaxed atomic ops on pre-resolved handles and never allocates.
//! - [`histogram`] — log-linear bucketing (16 sub-buckets per octave,
//!   ≤ ~6 % relative bucket width) with percentile queries that are exact
//!   to within one bucket width of the true sorted-vector percentile.
//! - [`spans`] — a thread-local span tracer with RAII guards
//!   (`span!("gemm.pack_a")`) aggregating per-site call count, total time
//!   and self time. Compiled in only under the `telemetry-spans` feature;
//!   without it every site is a zero-sized no-op that vanishes entirely.
//! - [`expose`] — Prometheus text-format and JSON snapshot writers plus a
//!   periodic [`Flusher`] thread that dumps both to a directory (the
//!   engine and the experiment harness point it at `results/logs/`).
//! - [`flight`] — a request-scoped flight recorder: per-request lifecycle
//!   events (decode → admit → seal → dispatch → deliver/shed) in a
//!   fixed-capacity atomic ring, reassembled post-hoc into per-stage
//!   latency attribution, tail-sampled chains and Chrome `trace_event`
//!   JSON. Off by default ([`flight::set_recording`]).
//! - [`timeseries`] — a fixed-capacity in-process time-series store
//!   sampled from the registry by a background [`timeseries::Sampler`]:
//!   ring-buffer histories per series, windowed counter rates by snapshot
//!   differencing, and *windowed-delta* histogram percentiles (true
//!   per-window p50/p99, not lifetime-cumulative). Warm ticks allocate
//!   nothing.
//! - [`slo`] — Google-SRE-style multi-window burn-rate tracking over the
//!   time-series store, with a hysteresis alert state machine
//!   (`firing`/`resolved`) exposed as gauges, transition counters and a
//!   bounded event ring.
//!
//! Snapshots can also be pulled over the network: the `ms-net` TCP server
//! answers a `Metrics` frame with [`Registry::render_prometheus`] output
//! from the serving process, so a live scrape (`ms-net`'s `scrape` binary, or
//! any client speaking the frame protocol) needs no file [`Flusher`] at
//! all.

pub mod expose;
pub mod flight;
pub mod histogram;
pub mod registry;
pub mod slo;
pub mod spans;
pub mod timeseries;

pub use expose::Flusher;
pub use histogram::Histogram;
pub use registry::{global, Counter, Gauge, Registry};
pub use slo::{SloEngine, SloSpec, SloStatus};
pub use timeseries::{Sampler, TimeStore, TsConfig, WindowedHistogram};

/// `true` when this build compiled the span tracer in
/// (`--features telemetry-spans`).
pub const fn spans_compiled() -> bool {
    cfg!(feature = "telemetry-spans")
}

/// Opens a named span, returning an RAII guard that records elapsed time
/// into the global span table when dropped.
///
/// ```ignore
/// let _g = ms_telemetry::span!("gemm.pack_a");
/// ```
///
/// Each call site gets one static [`spans::SpanSite`] registered lazily on
/// first entry; afterwards enter/exit is a `Instant::now()` pair, a
/// thread-local stack push/pop and three relaxed `fetch_add`s — no
/// allocation, no locks. Guards must be dropped in LIFO order per thread,
/// which scope-bound `let _g = …` bindings guarantee.
///
/// Without the `telemetry-spans` feature the expansion is a zero-sized
/// guard and an empty `#[inline(always)]` call: the optimizer removes the
/// site entirely, so uninstrumented builds are bit-for-bit as fast as if
/// the macro were never written.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __MS_SPAN_SITE: $crate::spans::SpanSite = $crate::spans::SpanSite::new($name);
        $crate::spans::SpanGuard::enter(&__MS_SPAN_SITE)
    }};
}
