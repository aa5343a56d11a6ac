//! Request-scoped flight recorder: a fixed-capacity, lock-light ring of
//! per-request lifecycle events.
//!
//! Aggregate histograms (PR 3) can show that p99 moved; they cannot show
//! *where* a tail request spent its time or why it was shed. The flight
//! recorder answers that: every request carries a `trace_id` from the wire
//! header through admission, sealing, dispatch and delivery, and each hop
//! appends one [`FlightEvent`] to a global ring buffer. Post-hoc,
//! [`harvest`] stitches events back into per-request chains, attributes
//! latency to five stages (wire, queue wait, batch wait, compute,
//! delivery), feeds the stage histograms in the metrics registry (with the
//! trace id of the slowest sample attached as an exemplar) and retains the
//! interesting chains — everything shed, everything past its deadline, and
//! the slowest K of the rest — for dumping as Chrome `trace_event` JSON.
//!
//! # Hot-path design
//!
//! The record path must be safe to leave on in production:
//!
//! - **No locks, no allocation.** The ring is a flat array of slots made of
//!   plain `AtomicU64`s, allocated once on first use. Threads claim slots
//!   in chunks of `CHUNK` (64) with a single `fetch_add` on a global cursor
//!   and then hand them out from a thread-local `Cell` — the common case
//!   writes six relaxed/release stores and touches no shared cache line.
//! - **Per-slot seqlock.** Each slot's `stamp` holds `1 + global event
//!   index`; writers zero it, write the payload, then publish the new
//!   stamp with `Release`. Readers that observe a torn slot (stamp changed
//!   mid-read) simply skip it — an overwritten event is stale by
//!   definition.
//! - **Runtime kill switch, off by default.** [`record`] first does one
//!   relaxed load of the `RECORDING` flag and returns if it is clear (or
//!   if `trace_id == 0`, the "untraced" sentinel), so workloads that never
//!   call [`set_recording`] pay a single predictable branch per site.
//!   Unlike the metrics, which always record, recording defaults to
//!   **off**: traces are a debugging instrument, not a steady-state metric.
//!
//! Wrap-around loses the *oldest* events; [`RING_CAP`] (65 536 slots,
//! ~3 MiB) holds the full seven-event chains of ~9 000 in-flight requests,
//! far beyond any queue this engine admits.

use crate::histogram::Histogram;
use crate::registry::Counter;
use std::cell::Cell;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Ring capacity in events. Power of two, multiple of `CHUNK` (64).
pub const RING_CAP: usize = 1 << 16;
/// Events a thread claims per refill of its local lane.
const CHUNK: usize = 64;

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// Lifecycle stages of one traced request, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// Frame parsed off the socket. `a` = deadline in µs (0 = none).
    WireDecoded = 1,
    /// Passed the engine's admission gates (stop / backpressure).
    Admitted = 2,
    /// Pushed onto the open batch queue.
    Enqueued = 3,
    /// Sealed into a work batch. `a` = batch id; `b` packs the chosen
    /// slice rate (high 32 bits, f32 bits) and batch fill (low 32 bits).
    SealedIntoBatch = 4,
    /// A worker popped the batch. `a` = worker index; `b` packs the rate
    /// planned at seal (high 32 bits, f32 bits) and the rate bound at
    /// dispatch, the one actually run (low 32 bits). They differ when the
    /// window left at dispatch no longer fit the plan.
    DispatchStart = 5,
    /// Batched forward finished on the worker.
    ComputeDone = 6,
    /// Response handed to the connection writer. Terminal.
    Delivered = 7,
    /// Refused. `a` = [`ShedCause`] code. Terminal.
    Shed = 8,
    /// An anytime refinement pass lifted the batch to a wider rate. `a` and
    /// `b` hold the from/to slice rates as f32 bits. Repeats once per
    /// ladder step between `ComputeDone` and `Delivered`.
    RefineStep = 9,
}

impl EventKind {
    fn from_code(code: u64) -> Option<EventKind> {
        Some(match code {
            1 => EventKind::WireDecoded,
            2 => EventKind::Admitted,
            3 => EventKind::Enqueued,
            4 => EventKind::SealedIntoBatch,
            5 => EventKind::DispatchStart,
            6 => EventKind::ComputeDone,
            7 => EventKind::Delivered,
            8 => EventKind::Shed,
            9 => EventKind::RefineStep,
            _ => return None,
        })
    }

    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::WireDecoded => "wire_decoded",
            EventKind::Admitted => "admitted",
            EventKind::Enqueued => "enqueued",
            EventKind::SealedIntoBatch => "sealed_into_batch",
            EventKind::DispatchStart => "dispatch_start",
            EventKind::ComputeDone => "compute_done",
            EventKind::Delivered => "delivered",
            EventKind::Shed => "shed",
            EventKind::RefineStep => "refine_step",
        }
    }
}

/// Why a traced request was refused. Codes match the wire protocol's
/// `WireShedReason` so a dumped trace reads the same as the client saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// Queue full at submit.
    Backpressure = 1,
    /// Dropped by the SLA controller at seal (Eq. 3 said no).
    Admission = 2,
    /// Engine shutting down.
    Stopping = 3,
    /// Server draining.
    Draining = 4,
}

impl ShedCause {
    pub fn from_code(code: u64) -> Option<ShedCause> {
        Some(match code {
            1 => ShedCause::Backpressure,
            2 => ShedCause::Admission,
            3 => ShedCause::Stopping,
            4 => ShedCause::Draining,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            ShedCause::Backpressure => "backpressure",
            ShedCause::Admission => "admission",
            ShedCause::Stopping => "stopping",
            ShedCause::Draining => "draining",
        }
    }
}

/// One recorded lifecycle event, as read back out of the ring.
#[derive(Debug, Clone, Copy)]
pub struct FlightEvent {
    pub trace_id: u64,
    /// Nanoseconds since the recorder epoch (first record in the process).
    pub t_nanos: u64,
    pub kind: EventKind,
    /// Kind-specific argument — see [`EventKind`] docs.
    pub a: u64,
    /// Second kind-specific argument.
    pub b: u64,
    /// Global event sequence number (total order of record calls).
    pub seq: u64,
}

// ---------------------------------------------------------------------------
// The ring
// ---------------------------------------------------------------------------

struct Slot {
    /// 0 = never written; otherwise `1 + global event index`, published
    /// last with `Release`. Zeroed (invalidated) before each rewrite.
    stamp: AtomicU64,
    trace_id: AtomicU64,
    t_nanos: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

struct Ring {
    slots: Box<[Slot]>,
    /// Next global event index to hand out (pre-modulo).
    cursor: AtomicU64,
    epoch: Instant,
}

static RING: OnceLock<Ring> = OnceLock::new();
static RECORDING: AtomicBool = AtomicBool::new(false);
static TRACE_SEQ: AtomicU64 = AtomicU64::new(1);

fn ring() -> &'static Ring {
    RING.get_or_init(|| {
        let mut slots = Vec::with_capacity(RING_CAP);
        for _ in 0..RING_CAP {
            slots.push(Slot {
                stamp: AtomicU64::new(0),
                trace_id: AtomicU64::new(0),
                t_nanos: AtomicU64::new(0),
                kind: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            });
        }
        Ring {
            slots: slots.into_boxed_slice(),
            cursor: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    })
}

thread_local! {
    /// (next global event index, slots left in the claimed chunk).
    static LANE: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

/// Turns the recorder on or off. Off (the default) reduces every record
/// site to one relaxed load and a branch.
pub fn set_recording(on: bool) {
    set_recording_inner(on);
}

fn set_recording_inner(on: bool) {
    if on {
        // Materialize the ring outside the hot path so the first traced
        // request doesn't pay the one-time allocation.
        let _ = ring();
    }
    RECORDING.store(on, Ordering::Release);
}

/// Whether the recorder is currently on (one relaxed load).
#[inline(always)]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Allocates a fresh process-unique trace id (never 0).
pub fn next_trace_id() -> u64 {
    TRACE_SEQ.fetch_add(1, Ordering::Relaxed)
}

/// Records one event. No-op when the recorder is off or `trace_id == 0`.
#[inline]
pub fn record(trace_id: u64, kind: EventKind, a: u64, b: u64) {
    if !recording() || trace_id == 0 {
        return;
    }
    record_slow(trace_id, kind, a, b);
}

#[inline(never)]
fn record_slow(trace_id: u64, kind: EventKind, a: u64, b: u64) {
    let ring = ring();
    let t = ring.epoch.elapsed().as_nanos() as u64;
    // Thread-local lane: one global fetch_add per CHUNK events. Fall back
    // to a direct claim if TLS is unavailable (thread teardown).
    let g = LANE
        .try_with(|lane| {
            let (idx, left) = lane.get();
            if left == 0 {
                let base = ring.cursor.fetch_add(CHUNK as u64, Ordering::Relaxed);
                lane.set((base + 1, CHUNK - 1));
                base
            } else {
                lane.set((idx + 1, left - 1));
                idx
            }
        })
        .unwrap_or_else(|_| ring.cursor.fetch_add(1, Ordering::Relaxed));
    let slot = &ring.slots[(g as usize) % RING_CAP];
    slot.stamp.store(0, Ordering::Relaxed);
    fence(Ordering::Release);
    slot.trace_id.store(trace_id, Ordering::Relaxed);
    slot.t_nanos.store(t, Ordering::Relaxed);
    slot.kind.store(kind as u64, Ordering::Relaxed);
    slot.a.store(a, Ordering::Relaxed);
    slot.b.store(b, Ordering::Relaxed);
    slot.stamp.store(g + 1, Ordering::Release);
}

// Typed convenience recorders — one per lifecycle stage.

/// Frame parsed off the socket; `deadline_micros` = 0 means no deadline.
#[inline]
pub fn wire_decoded(trace_id: u64, deadline_micros: u64) {
    record(trace_id, EventKind::WireDecoded, deadline_micros, 0);
}

#[inline]
pub fn admitted(trace_id: u64) {
    record(trace_id, EventKind::Admitted, 0, 0);
}

#[inline]
pub fn enqueued(trace_id: u64) {
    record(trace_id, EventKind::Enqueued, 0, 0);
}

#[inline]
pub fn sealed_into_batch(trace_id: u64, batch_id: u64, rate: f32, fill: f32) {
    let b = ((rate.to_bits() as u64) << 32) | fill.to_bits() as u64;
    record(trace_id, EventKind::SealedIntoBatch, batch_id, b);
}

#[inline]
pub fn dispatch_start(trace_id: u64, worker: u64, planned_rate: f32, bound_rate: f32) {
    let b = ((planned_rate.to_bits() as u64) << 32) | bound_rate.to_bits() as u64;
    record(trace_id, EventKind::DispatchStart, worker, b);
}

#[inline]
pub fn compute_done(trace_id: u64) {
    record(trace_id, EventKind::ComputeDone, 0, 0);
}

#[inline]
pub fn delivered(trace_id: u64) {
    record(trace_id, EventKind::Delivered, 0, 0);
}

#[inline]
pub fn shed(trace_id: u64, cause: ShedCause) {
    record(trace_id, EventKind::Shed, cause as u64, 0);
}

/// Anytime refinement lifted the request's batch from one slice rate to a
/// wider one — one event per ladder step, between `compute_done` and
/// `delivered`.
#[inline]
pub fn refine_step(trace_id: u64, from: f32, to: f32) {
    record(
        trace_id,
        EventKind::RefineStep,
        from.to_bits() as u64,
        to.to_bits() as u64,
    );
}

/// Copies every currently-valid slot out of the ring, oldest first.
/// Slots being rewritten concurrently are skipped (seqlock read side).
pub fn snapshot() -> Vec<FlightEvent> {
    let ring = ring();
    let mut out = Vec::with_capacity(RING_CAP);
    for slot in ring.slots.iter() {
        let s1 = slot.stamp.load(Ordering::Acquire);
        if s1 == 0 {
            continue;
        }
        let ev = FlightEvent {
            trace_id: slot.trace_id.load(Ordering::Relaxed),
            t_nanos: slot.t_nanos.load(Ordering::Relaxed),
            kind: match EventKind::from_code(slot.kind.load(Ordering::Relaxed)) {
                Some(k) => k,
                None => continue,
            },
            a: slot.a.load(Ordering::Relaxed),
            b: slot.b.load(Ordering::Relaxed),
            seq: s1 - 1,
        };
        fence(Ordering::Acquire);
        if slot.stamp.load(Ordering::Relaxed) != s1 {
            continue; // torn read: the slot was recycled under us
        }
        out.push(ev);
    }
    out.sort_by_key(|e| e.seq);
    out
}

// ---------------------------------------------------------------------------
// Chains and stage attribution
// ---------------------------------------------------------------------------

/// Names of the five latency stages, in order. Consecutive by
/// construction: they tile `[WireDecoded, Delivered]` exactly, so their
/// sum equals the server-side end-to-end latency.
pub const STAGE_NAMES: [&str; 5] = ["wire", "queue_wait", "batch_wait", "compute", "delivery"];

/// All recorded events of one trace id, in timestamp order.
#[derive(Debug, Clone)]
pub struct TraceChain {
    pub trace_id: u64,
    pub events: Vec<FlightEvent>,
}

impl TraceChain {
    /// First event of the given kind, if recorded.
    pub fn event(&self, kind: EventKind) -> Option<&FlightEvent> {
        self.events.iter().find(|e| e.kind == kind)
    }

    /// Terminal event kind: `Delivered`, `Shed`, or `None` (in flight or
    /// partially overwritten).
    pub fn terminal(&self) -> Option<EventKind> {
        self.events
            .iter()
            .rev()
            .find(|e| matches!(e.kind, EventKind::Delivered | EventKind::Shed))
            .map(|e| e.kind)
    }

    pub fn shed_cause(&self) -> Option<ShedCause> {
        self.event(EventKind::Shed)
            .and_then(|e| ShedCause::from_code(e.a))
    }

    /// Deadline carried on the wire, in µs (0 = none).
    pub fn deadline_micros(&self) -> u64 {
        self.event(EventKind::WireDecoded).map_or(0, |e| e.a)
    }

    /// Timestamps never decrease along the chain.
    pub fn is_monotonic(&self) -> bool {
        self.events.windows(2).all(|w| w[0].t_nanos <= w[1].t_nanos)
    }

    /// End-to-end nanoseconds from `WireDecoded` to the terminal event.
    pub fn total_nanos(&self) -> Option<u64> {
        let start = self.event(EventKind::WireDecoded)?.t_nanos;
        let end = self
            .events
            .iter()
            .rev()
            .find(|e| matches!(e.kind, EventKind::Delivered | EventKind::Shed))?
            .t_nanos;
        Some(end.saturating_sub(start))
    }

    /// A chain is complete when it begins at `WireDecoded`, reaches a
    /// terminal event, and — for delivered requests — passed through every
    /// intermediate stage.
    pub fn is_complete(&self) -> bool {
        if self.event(EventKind::WireDecoded).is_none() {
            return false;
        }
        match self.terminal() {
            Some(EventKind::Delivered) => [
                EventKind::Admitted,
                EventKind::Enqueued,
                EventKind::SealedIntoBatch,
                EventKind::DispatchStart,
                EventKind::ComputeDone,
            ]
            .iter()
            .all(|&k| self.event(k).is_some()),
            Some(EventKind::Shed) => true,
            _ => false,
        }
    }

    /// `(planned, bound)` slice rates of the chain's dispatch: what the
    /// controller planned at seal and what the worker ran after fitting the
    /// batch to the window it had left. `bound < planned` answers "why was
    /// this served narrower than the controller chose".
    pub fn dispatch_rates(&self) -> Option<(f32, f32)> {
        self.event(EventKind::DispatchStart).map(|e| {
            (
                f32::from_bits((e.b >> 32) as u32),
                f32::from_bits(e.b as u32),
            )
        })
    }

    /// Refinement ladder steps recorded on this chain, in order, as
    /// `(from, to)` slice-rate pairs.
    pub fn refine_steps(&self) -> Vec<(f32, f32)> {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::RefineStep)
            .map(|e| (f32::from_bits(e.a as u32), f32::from_bits(e.b as u32)))
            .collect()
    }

    /// The request missed the deadline it carried on the wire.
    pub fn deadline_missed(&self) -> bool {
        let d = self.deadline_micros();
        d > 0 && self.total_nanos().map_or(false, |t| t > d * 1000)
    }

    /// Per-stage durations in nanoseconds, `STAGE_NAMES` order, for
    /// complete delivered chains. The stages tile the chain: their sum is
    /// exactly `total_nanos()`.
    pub fn stage_nanos(&self) -> Option<[u64; 5]> {
        if self.terminal() != Some(EventKind::Delivered) || !self.is_complete() {
            return None;
        }
        let t = |k| self.event(k).map(|e| e.t_nanos);
        let wire = t(EventKind::WireDecoded)?;
        let enq = t(EventKind::Enqueued)?;
        let sealed = t(EventKind::SealedIntoBatch)?;
        let disp = t(EventKind::DispatchStart)?;
        let done = t(EventKind::ComputeDone)?;
        let deliv = t(EventKind::Delivered)?;
        Some([
            enq.saturating_sub(wire),
            sealed.saturating_sub(enq),
            disp.saturating_sub(sealed),
            done.saturating_sub(disp),
            deliv.saturating_sub(done),
        ])
    }
}

/// Groups the current ring contents into per-trace chains (oldest trace
/// first by first event).
pub fn chains() -> Vec<TraceChain> {
    chains_of(&snapshot())
}

fn chains_of(events: &[FlightEvent]) -> Vec<TraceChain> {
    let mut by_id: HashMap<u64, Vec<FlightEvent>> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for &e in events {
        let v = by_id.entry(e.trace_id).or_default();
        if v.is_empty() {
            order.push(e.trace_id);
        }
        v.push(e);
    }
    order
        .into_iter()
        .map(|id| {
            let mut events = by_id.remove(&id).unwrap();
            events.sort_by_key(|e| (e.t_nanos, e.seq));
            TraceChain {
                trace_id: id,
                events,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Harvest: stage histograms, exemplars, tail sampling
// ---------------------------------------------------------------------------

/// Which completed chains the recorder retains for dumping.
#[derive(Debug, Clone, Copy)]
pub struct TailPolicy {
    /// Slowest K *served* chains kept per harvest window (shed and
    /// deadline-missed chains are always kept).
    pub slowest_k: usize,
    /// Upper bound on retained chains; oldest are evicted first.
    pub retain_cap: usize,
}

impl Default for TailPolicy {
    fn default() -> Self {
        TailPolicy {
            slowest_k: 8,
            retain_cap: 256,
        }
    }
}

struct StageMetrics {
    stages: [Histogram; 5],
    chains_served: Counter,
    chains_shed: Counter,
    chains_incomplete: Counter,
    deadline_missed: Counter,
}

fn stage_metrics() -> &'static StageMetrics {
    static METRICS: OnceLock<StageMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = crate::global();
        let hist = |stage: &str| {
            reg.histogram_with(
                "flight_stage_seconds",
                &[("stage", stage)],
                "per-request latency attributed to one lifecycle stage",
            )
        };
        let outcome = |o: &str| {
            reg.counter_with(
                "flight_chains_total",
                &[("outcome", o)],
                "completed trace chains folded by harvest()",
            )
        };
        StageMetrics {
            stages: [
                hist(STAGE_NAMES[0]),
                hist(STAGE_NAMES[1]),
                hist(STAGE_NAMES[2]),
                hist(STAGE_NAMES[3]),
                hist(STAGE_NAMES[4]),
            ],
            chains_served: outcome("served"),
            chains_shed: outcome("shed"),
            chains_incomplete: outcome("incomplete"),
            deadline_missed: reg.counter(
                "flight_deadline_missed_total",
                "traced requests whose end-to-end latency exceeded their wire deadline",
            ),
        }
    })
}

struct HarvestState {
    /// Highest event seq already folded; events at or below are skipped.
    watermark: u64,
    policy: TailPolicy,
    retained: VecDeque<TraceChain>,
}

fn harvest_state() -> &'static Mutex<HarvestState> {
    static STATE: OnceLock<Mutex<HarvestState>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(HarvestState {
            watermark: 0,
            policy: TailPolicy::default(),
            retained: VecDeque::new(),
        })
    })
}

/// Replaces the tail-sampling policy for subsequent harvests.
pub fn set_tail_policy(policy: TailPolicy) {
    harvest_state().lock().unwrap().policy = policy;
}

/// Folds newly-terminated chains out of the ring: records per-stage
/// histograms (attaching the trace id as an exemplar), counts outcomes,
/// and retains shed / deadline-missed / slowest-K chains for dumping.
/// Returns how many chains were folded. Cold path; call from scrape
/// handlers, tests, or experiment teardown — never per request.
pub fn harvest() -> usize {
    let events = snapshot();
    let mut st = harvest_state().lock().unwrap();
    let watermark = st.watermark;
    // A chain is folded when its terminal event is new since last harvest.
    let new_terminal: Vec<u64> = events
        .iter()
        .filter(|e| e.seq > watermark && matches!(e.kind, EventKind::Delivered | EventKind::Shed))
        .map(|e| e.trace_id)
        .collect();
    st.watermark = events.last().map_or(watermark, |e| e.seq.max(watermark));
    if new_terminal.is_empty() {
        return 0;
    }
    let m = stage_metrics();
    let mut folded = 0usize;
    let mut served: Vec<TraceChain> = Vec::new();
    for chain in chains_of(&events) {
        if !new_terminal.contains(&chain.trace_id) {
            continue;
        }
        folded += 1;
        if !chain.is_complete() {
            m.chains_incomplete.inc();
            continue;
        }
        if chain.deadline_missed() {
            m.deadline_missed.inc();
        }
        match chain.terminal() {
            Some(EventKind::Shed) => {
                m.chains_shed.inc();
                retain(&mut st, chain);
            }
            Some(EventKind::Delivered) => {
                m.chains_served.inc();
                if let Some(stages) = chain.stage_nanos() {
                    for (h, &ns) in m.stages.iter().zip(stages.iter()) {
                        h.record_traced(ns as f64 * 1e-9, chain.trace_id);
                    }
                }
                if chain.deadline_missed() {
                    retain(&mut st, chain);
                } else {
                    served.push(chain);
                }
            }
            _ => unreachable!("chain passed is_complete() without a terminal event"),
        }
    }
    // Slowest K of the uneventful served chains round out the tail sample.
    served.sort_by_key(|c| std::cmp::Reverse(c.total_nanos().unwrap_or(0)));
    let k = st.policy.slowest_k.min(served.len());
    for chain in served.into_iter().take(k) {
        retain(&mut st, chain);
    }
    folded
}

fn retain(st: &mut HarvestState, chain: TraceChain) {
    while st.retained.len() >= st.policy.retain_cap {
        st.retained.pop_front();
    }
    st.retained.push_back(chain);
}

/// Chains retained by tail sampling, oldest first.
pub fn retained() -> Vec<TraceChain> {
    harvest_state()
        .lock()
        .unwrap()
        .retained
        .iter()
        .cloned()
        .collect()
}

/// Clears the retained set and fast-forwards the harvest watermark past
/// everything currently in the ring. Ring slots themselves are not wiped —
/// trace ids are process-unique, so stale events cannot collide.
pub fn reset() {
    let tail = snapshot().last().map_or(0, |e| e.seq);
    let mut st = harvest_state().lock().unwrap();
    st.watermark = st.watermark.max(tail);
    st.retained.clear();
}

// ---------------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------------

/// Renders chains as Chrome `trace_event` JSON (the "JSON Array Format"
/// with an object wrapper), loadable in `chrome://tracing` and Perfetto.
/// Served chains become one complete (`"ph":"X"`) slice per stage; shed
/// chains end in an instant event naming the cause. Each chain gets its
/// own `tid` so Perfetto draws one lane per request.
pub fn chrome_trace_json(chains: &[TraceChain]) -> String {
    let mut out = String::with_capacity(256 + chains.len() * 640);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: &str, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(s);
    };
    emit(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"ms flight recorder\"}}",
        &mut first,
    );
    for (lane, chain) in chains.iter().enumerate() {
        let tid = lane + 1;
        emit(
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"trace {:#x}\"}}}}",
                chain.trace_id
            ),
            &mut first,
        );
        let us = |ns: u64| ns as f64 / 1000.0;
        if let Some(stages) = chain.stage_nanos() {
            let mut t = chain.event(EventKind::WireDecoded).unwrap().t_nanos;
            let (planned, bound) = chain.dispatch_rates().unwrap_or((0.0, 0.0));
            for (name, &dur) in STAGE_NAMES.iter().zip(stages.iter()) {
                emit(
                    &format!(
                        "{{\"name\":\"{name}\",\"cat\":\"request\",\"ph\":\"X\",\
                         \"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid},\
                         \"args\":{{\"trace_id\":{},\"deadline_us\":{},\
                         \"rate_planned\":{planned},\"rate_bound\":{bound}}}}}",
                        us(t),
                        us(dur),
                        chain.trace_id,
                        chain.deadline_micros()
                    ),
                    &mut first,
                );
                t += dur;
            }
        } else {
            // Shed or partial chain: emit each raw event as an instant.
            for e in &chain.events {
                let label = if e.kind == EventKind::Shed {
                    format!(
                        "shed ({})",
                        ShedCause::from_code(e.a).map_or("?", |c| c.name())
                    )
                } else {
                    e.kind.name().to_string()
                };
                emit(
                    &format!(
                        "{{\"name\":\"{label}\",\"cat\":\"request\",\"ph\":\"i\",\
                         \"s\":\"t\",\"ts\":{:.3},\"pid\":1,\"tid\":{tid},\
                         \"args\":{{\"trace_id\":{}}}}}",
                        us(e.t_nanos),
                        chain.trace_id
                    ),
                    &mut first,
                );
            }
        }
    }
    out.push_str("]}");
    out
}

/// Harvests, then writes the retained chains to
/// `<dir>/trace_<name>.json` in Chrome `trace_event` format. Returns the
/// path written.
pub fn export_chrome_trace(dir: impl AsRef<Path>, name: &str) -> io::Result<PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    harvest();
    let path = dir.join(format!("trace_{name}.json"));
    std::fs::write(&path, chrome_trace_json(&retained()))?;
    Ok(path)
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    // Flight state (ring, recording flag, harvest watermark) is global;
    // run the stateful tests under one lock and give each its own trace-id
    // range so concurrent crate tests cannot interleave ids.
    static GATE: Mutex<()> = Mutex::new(());

    fn full_chain(id: u64) {
        wire_decoded(id, 5_000);
        admitted(id);
        enqueued(id);
        sealed_into_batch(id, 7, 0.75, 0.5);
        dispatch_start(id, 2, 0.75, 0.5);
        compute_done(id);
        delivered(id);
    }

    fn chain_for(id: u64) -> TraceChain {
        chains()
            .into_iter()
            .find(|c| c.trace_id == id)
            .unwrap_or_else(|| panic!("trace {id} not found in ring"))
    }

    #[test]
    fn record_and_reassemble_chains() {
        let _g = GATE.lock().unwrap();
        set_recording(true);
        let base = 0xA000_0000u64;
        full_chain(base + 1);
        wire_decoded(base + 2, 0);
        shed(base + 2, ShedCause::Backpressure);

        let served = chain_for(base + 1);
        assert_eq!(served.events.len(), 7);
        assert!(served.is_monotonic());
        assert!(served.is_complete());
        assert_eq!(served.terminal(), Some(EventKind::Delivered));
        assert_eq!(served.deadline_micros(), 5_000);
        let stages = served.stage_nanos().expect("served chain has stages");
        assert_eq!(
            stages.iter().sum::<u64>(),
            served.total_nanos().unwrap(),
            "stages must tile the chain exactly"
        );
        let sealed = served.event(EventKind::SealedIntoBatch).unwrap();
        assert_eq!(sealed.a, 7);
        assert_eq!(f32::from_bits((sealed.b >> 32) as u32), 0.75);
        assert_eq!(f32::from_bits(sealed.b as u32), 0.5);
        assert_eq!(served.dispatch_rates(), Some((0.75, 0.5)));

        let refused = chain_for(base + 2);
        assert!(refused.is_complete());
        assert_eq!(refused.terminal(), Some(EventKind::Shed));
        assert_eq!(refused.shed_cause(), Some(ShedCause::Backpressure));
        set_recording(false);
    }

    #[test]
    fn kill_switch_and_zero_id_drop_events() {
        let _g = GATE.lock().unwrap();
        set_recording(false);
        full_chain(0xB000_0001);
        assert!(chains().iter().all(|c| c.trace_id != 0xB000_0001));
        set_recording(true);
        delivered(0); // untraced sentinel
        assert!(chains().iter().all(|c| c.trace_id != 0));
        set_recording(false);
    }

    #[test]
    fn ring_wraps_without_losing_newest() {
        let _g = GATE.lock().unwrap();
        set_recording(true);
        let base = 0xC000_0000u64;
        for i in 0..(RING_CAP as u64 + 500) {
            delivered(base + i);
        }
        let events = snapshot();
        assert!(events.len() <= RING_CAP);
        // The newest events must all be present.
        let newest: Vec<u64> = events
            .iter()
            .filter(|e| e.trace_id >= base + RING_CAP as u64)
            .map(|e| e.trace_id)
            .collect();
        assert_eq!(newest.len(), 500);
        set_recording(false);
    }

    #[test]
    fn harvest_tail_sampling_and_stage_metrics() {
        let _g = GATE.lock().unwrap();
        set_recording(true);
        reset();
        set_tail_policy(TailPolicy {
            slowest_k: 2,
            retain_cap: 64,
        });
        let base = 0xD000_0000u64;
        // Five served chains, one shed, one with a 1 µs deadline that the
        // chain (however fast) cannot meet... a deadline of 0 means none,
        // so use 1 ns-scale: deadline_micros = 0 ⇒ not missed.
        for i in 0..5 {
            full_chain(base + i);
        }
        wire_decoded(base + 10, 0);
        admitted(base + 10);
        enqueued(base + 10);
        shed(base + 10, ShedCause::Admission);

        let folded = harvest();
        assert_eq!(folded, 6);
        let kept = retained();
        // 1 shed chain + slowest 2 of the 5 served.
        assert_eq!(kept.len(), 3);
        assert!(kept.iter().any(|c| c.trace_id == base + 10));
        // Stage histograms saw 5 served chains.
        let m = stage_metrics();
        assert!(m.stages[0].count() >= 5);
        assert!(m.chains_served.get() >= 5);
        assert!(m.chains_shed.get() >= 1);
        // Exemplar carries a trace id from this batch.
        let (_, id) = m.stages[0].exemplar().expect("exemplar recorded");
        assert!(id != 0);
        // A second harvest with nothing new folds nothing.
        assert_eq!(harvest(), 0);
        set_recording(false);
    }

    #[test]
    fn chrome_trace_json_is_structurally_valid() {
        let _g = GATE.lock().unwrap();
        set_recording(true);
        let base = 0xE000_0000u64;
        full_chain(base + 1);
        wire_decoded(base + 2, 100);
        shed(base + 2, ShedCause::Draining);
        let sel: Vec<TraceChain> = chains()
            .into_iter()
            .filter(|c| c.trace_id == base + 1 || c.trace_id == base + 2)
            .collect();
        assert_eq!(sel.len(), 2);
        let json = chrome_trace_json(&sel);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""), "served chain emits slices");
        assert!(
            json.contains("shed (draining)"),
            "shed chain emits an instant"
        );
        for stage in STAGE_NAMES {
            assert!(json.contains(&format!("\"name\":\"{stage}\"")));
        }
        // Balanced braces/brackets outside string context (no escapes or
        // braces inside our generated strings).
        let (mut braces, mut brackets, mut in_str) = (0i64, 0i64, false);
        for ch in json.chars() {
            match ch {
                '"' => in_str = !in_str,
                '{' if !in_str => braces += 1,
                '}' if !in_str => braces -= 1,
                '[' if !in_str => brackets += 1,
                ']' if !in_str => brackets -= 1,
                _ => {}
            }
            assert!(braces >= 0 && brackets >= 0);
        }
        assert_eq!((braces, brackets, in_str), (0, 0, false));
        set_recording(false);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert!(a != 0 && b != 0 && a != b);
    }
}
