//! The multi-threaded elastic inference engine.
//!
//! Actual forward passes through the sliced network, on actual OS threads,
//! with the slice rate chosen per batch by an [`SlaController`] planning
//! against a [`LatencyProfile`].
//!
//! # Threading model
//!
//! - **One model replica per worker.** `forward` needs `&mut self` (slice
//!   bookkeeping, workspaces), so workers never share a model. Each worker
//!   owns a replica hydrated from the same
//!   [`SharedWeights`](ms_nn::shared::SharedWeights) snapshot, plus its own
//!   thread-local buffer pool and layer workspaces — the zero-allocation
//!   steady state of PR 1, replicated per thread.
//! - **Queue ownership.** All mutable queue state (`open` accumulation
//!   batch, `ready` sealed batches, in-flight count, response log) lives in
//!   one mutex; two condvars signal it (`work`: a batch became ready,
//!   `idle`: a batch finished). Whoever drives time owns sealing: in live
//!   serving the server's dispatcher seals, on the virtual clock
//!   [`Engine::replay`] does.
//! - **One way in, one way out.** A request enters through
//!   [`Engine::submit`] (an [`EngineRequest`], or a bare tensor for no
//!   deadline of its own and no trace) and its answer leaves through
//!   [`Engine::wait_events`]: a response, or its id among the
//!   admission-shed ones. `wait_events(Duration::ZERO)` polls.
//! - **Shedding policy.** Two gates, both counted: *backpressure* at
//!   [`Engine::submit`] when the queue already holds `max_queue` requests
//!   (the engine is not allowed to buffer itself into deadline violations),
//!   and *admission* at [`Engine::seal`] when the controller decides even
//!   the base rate cannot serve the whole batch within the budget — the
//!   overflow tail is shed rather than served late.
//!
//! # Rate binding
//!
//! [`Engine::seal`] plans a batch's rate and admission from its size and the
//! planning budget, as if compute started at once. A batch that waits behind
//! a backlog starts with less of its window left, so under
//! [`RatePolicy::Elastic`](crate::controller::RatePolicy) the worker that
//! pops it re-fits the rate to `headroom × (deadline − now)`
//! ([`SlaController::rebind`]): narrower when the plan no longer fits, never
//! wider, so seal-time admission and shed accounting stand. The response,
//! the per-rate histograms and the `DispatchStart` flight event all carry
//! the rate actually run; `engine_rate_rebound_total` counts the batches
//! that moved.
//!
//! # One clock
//!
//! An engine reads time from exactly one source, fixed at construction.
//! [`Engine::start`] reads the wall. [`Engine::start_virtual`] reads a
//! virtual clock on which nothing moves but what the engine does: requests
//! arrive and batches are sealed when the replay driver says so, a batch
//! starts when the earliest-free of one lane per replica is free, and a
//! forward pass takes what a *truth* [`LatencyProfile`] says it costs. The
//! five reads — seal time, dispatch time, the base pass's measured drift,
//! the ladder's fit, service time — go through the same `Clock`, so live and
//! replayed batches run one worker body: binding and the refinement ladder
//! act under replay exactly as they do live, against virtual time.
//!
//! # Determinism
//!
//! Batch composition (one batch per seal), the planned rate (a pure function
//! of batch size and budget), and per-row kernel results (fixed-order
//! accumulators; a row's output is independent of its batch companions) are
//! all independent of worker count and scheduling. On the virtual clock so
//! is time itself: a [`ReplayReport`] — logits, rates, rebinds, ladder
//! steps, every deadline verdict — is a pure function of the trace, the
//! controller's profile, the truth profile, the replica count and the
//! engine's configuration. When the truth is the profile the controller
//! plans with, an elastic replay binds nothing and misses nothing, so
//! replaying one trace on 1 replica and on N produces bitwise-identical
//! logits per request (`tests/engine_determinism.rs`).

use crate::controller::{AccuracyTable, SlaController, SlaDecision};
use crate::profile::LatencyProfile;
use crate::workload::WorkloadTrace;
use ms_core::inference::{batched_sliced_forward, refine_batched_forward};
use ms_core::slice_rate::SliceRate;
use ms_nn::layer::Layer;
use ms_telemetry::flight;
use ms_telemetry::{Counter, Gauge, Histogram};
use ms_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Monotone per-process engine id, used as the `engine` label so several
/// engines (tests spin up many) keep distinct registry series.
static ENGINE_SEQ: AtomicU64 = AtomicU64::new(0);

/// The engine's one time source (module docs, "One clock"). A time is a
/// [`Duration`] since the engine started: whole nanoseconds on either clock,
/// so virtual times add up exactly and a batch that fills its window to the
/// bit frees its lane at the next seal, not one rounding error after it.
enum Clock {
    /// Live serving: the wall, counted from this instant.
    Wall(Instant),
    /// Replay: a forward pass takes what this truth profile predicts for it,
    /// and nothing else takes any time.
    Virtual(LatencyProfile),
}

impl Clock {
    /// The time now. `at` is where the caller stands on the virtual clock;
    /// the wall does not need telling.
    fn now(&self, at: Duration) -> Duration {
        match self {
            Clock::Wall(epoch) => epoch.elapsed(),
            Clock::Virtual(_) => at,
        }
    }

    /// When a popped batch sealed at `sealed` starts: now on the wall; on
    /// the virtual clock when the earliest-free lane is free and not before
    /// the batch exists. That lane is taken out of `free_at` until
    /// [`Clock::release`] puts it back.
    fn dispatch(&self, free_at: &mut Vec<Duration>, sealed: Duration) -> Duration {
        match self {
            Clock::Wall(_) => self.now(sealed),
            Clock::Virtual(_) => {
                let (lane, _) = (free_at.iter().enumerate())
                    .min_by_key(|&(_, free)| free)
                    .expect("a lane per replica, one batch in flight");
                free_at.swap_remove(lane).max(sealed)
            }
        }
    }

    /// Virtual time a pass over `n` samples takes that lifts them to `to` —
    /// from scratch, or incrementally from the rate they are at. On the wall
    /// the pass has taken its time by itself.
    fn pass(&self, n: usize, from: Option<SliceRate>, to: SliceRate) -> Duration {
        match self {
            Clock::Wall(_) => Duration::ZERO,
            Clock::Virtual(truth) => {
                let upto = |r| Duration::from_secs_f64(truth.predict(n, r));
                upto(to).saturating_sub(from.map_or(Duration::ZERO, upto))
            }
        }
    }

    /// Time since a batch was dispatched at `t0`, for a worker that has run
    /// `ran` of virtual passes on it since.
    fn since(&self, t0: Duration, ran: Duration) -> Duration {
        match self {
            Clock::Wall(_) => self.now(t0).saturating_sub(t0),
            Clock::Virtual(_) => ran,
        }
    }

    /// Hands back the lane [`Clock::dispatch`] took, free again at `done`.
    fn release(&self, free_at: &mut Vec<Duration>, done: Duration) {
        if let Clock::Virtual(_) = self {
            free_at.push(done);
        }
    }
}

/// Indices into [`EngineMetrics::shed_reason`].
const SHED_BACKPRESSURE: usize = 0;
const SHED_ADMISSION: usize = 1;
const SHED_STOPPING: usize = 2;
const SHED_REASON_NAMES: [&str; 3] = ["backpressure", "admission", "stopping"];

/// Registry handles for one engine instance. All series carry an
/// `engine="<n>"` label; per-rate series add `rate="<r>"`, indexed like
/// the controller profile's rate list so the record path is a direct
/// vector index — no lookup, no allocation, no lock.
struct EngineMetrics {
    submitted: Counter,
    served: Counter,
    shed: Counter,
    /// Per-reason shed counters (`reason` label), indexed by the
    /// `SHED_REASON_*` constants. `shed` above stays the aggregate.
    shed_reason: [Counter; 3],
    batches: Counter,
    /// Slice rate most recently chosen: by the controller at seal, lowered
    /// by a worker whose dispatch-time binding moved it (0 before the first
    /// seal) — the "current controller rate" the health endpoint reports.
    last_rate: Gauge,
    /// Requests buffered (open batch + sealed-but-unstarted). Updated at
    /// batch granularity — on seal and on worker pop, not per submit — so
    /// the per-request hot path pays no gauge store; a scraper sees the
    /// depth as of the last batch boundary.
    queue_depth: Gauge,
    /// Admitted size of the last sealed batch as a fraction of the largest
    /// batch the chosen rate could serve within the planning budget.
    batch_fill: Gauge,
    /// Batches per candidate rate (the old `rate_counts` atomics).
    rate_batches: Vec<Counter>,
    /// Measured batch service seconds per candidate rate.
    rate_service: Vec<Histogram>,
    /// Measured batch service seconds across all rates — the histogram
    /// behind [`EngineCounters::p50_service`]/[`p99_service`].
    service: Histogram,
    /// Requests lifted to a wider rate by the anytime refinement ladder
    /// (one increment per request per ladder step).
    refined: Counter,
    /// Batches whose dispatch-time rate came out below their seal-time plan.
    rebound: Counter,
}

impl EngineMetrics {
    fn new(controller: &SlaController) -> EngineMetrics {
        let reg = ms_telemetry::global();
        let id = ENGINE_SEQ.fetch_add(1, Ordering::Relaxed).to_string();
        let e: &[(&str, &str)] = &[("engine", id.as_str())];
        let mut rate_batches = Vec::new();
        let mut rate_service = Vec::new();
        for r in controller.profile().list().iter() {
            let rs = format!("{r}");
            let labels: &[(&str, &str)] = &[("engine", id.as_str()), ("rate", rs.as_str())];
            rate_batches.push(reg.counter_with(
                "engine_rate_batches_total",
                labels,
                "batches served at each slice rate",
            ));
            rate_service.push(reg.histogram_with(
                "engine_service_seconds",
                labels,
                "batch service time per slice rate, on the engine's clock",
            ));
        }
        EngineMetrics {
            submitted: reg.counter_with(
                "engine_submitted_total",
                e,
                "requests offered to submit (accepted + shed)",
            ),
            served: reg.counter_with("engine_served_total", e, "requests served (logits produced)"),
            shed: reg.counter_with(
                "engine_shed_total",
                e,
                "requests shed (backpressure + admission control)",
            ),
            shed_reason: SHED_REASON_NAMES.map(|reason| {
                reg.counter_with(
                    "engine_shed_reason_total",
                    &[("engine", id.as_str()), ("reason", reason)],
                    "requests shed, by reason",
                )
            }),
            batches: reg.counter_with("engine_batches_total", e, "batches executed"),
            last_rate: reg.gauge_with(
                "engine_last_rate",
                e,
                "slice rate most recently chosen (seal-time plan, or a narrower dispatch-time binding)",
            ),
            queue_depth: reg.gauge_with(
                "engine_queue_depth",
                e,
                "requests buffered: open batch + sealed not yet running",
            ),
            batch_fill: reg.gauge_with(
                "engine_batch_fill",
                e,
                "last sealed batch size over the chosen rate's budget capacity",
            ),
            rate_batches,
            rate_service,
            service: reg.histogram_with(
                "engine_service_seconds",
                &[("engine", id.as_str()), ("rate", "all")],
                "batch service time on the engine's clock, all rates",
            ),
            refined: reg.counter_with(
                "engine_refined_total",
                e,
                "requests lifted to a wider rate by anytime refinement (per ladder step)",
            ),
            rebound: reg.counter_with(
                "engine_rate_rebound_total",
                e,
                "batches run below their seal-time rate: the window left at dispatch no longer fit the plan",
            ),
        }
    }
}

/// Engine parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The SLA: worst-case latency `T` in seconds. Batches accumulate for
    /// `T/2` and must be processed within the remaining `T/2` (§4.1).
    pub latency: f64,
    /// Fraction of the `T/2` processing budget the controller plans to
    /// (planning to 100 % leaves no room for measurement jitter; the
    /// remaining fraction is the deadline safety margin).
    pub headroom: f64,
    /// Maximum requests buffered (accumulating + sealed, not yet running)
    /// before `submit` sheds — backpressure instead of unbounded queueing.
    pub max_queue: usize,
    /// Anytime refinement: after a batch's planned pass completes, workers
    /// keep lifting it to wider rates through the incremental prefix path
    /// while the profile predicts the *marginal* cost still fits before the
    /// batch deadline. Off by default — with it on, a live engine's served
    /// rate depends on measured wall-clock time, so runs are no longer
    /// bit-reproducible across machines (each step's logits still are).
    pub refine: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            latency: 0.04,
            headroom: 0.7,
            max_queue: 4096,
            refine: false,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission queue is full.
    Backpressure,
    /// The engine is shutting down.
    Stopping,
}

/// One request offered to [`Engine::submit`]. A bare [`Tensor`] converts
/// into a request with no deadline of its own and no trace.
#[derive(Debug)]
pub struct EngineRequest {
    /// The sample to run.
    pub input: Tensor,
    /// This request's own end-to-end latency bound `T_i` in seconds, or
    /// `None` for the engine-wide SLA (see [`Engine::submit`]).
    pub deadline: Option<f64>,
    /// Flight-recorder trace id (0 = untraced).
    pub trace_id: u64,
}

impl From<Tensor> for EngineRequest {
    fn from(input: Tensor) -> Self {
        EngineRequest {
            input,
            deadline: None,
            trace_id: 0,
        }
    }
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct EngineResponse {
    /// Submission id (monotone in submission order).
    pub id: u64,
    /// The network's logits for this request.
    pub logits: Tensor,
    /// Slice rate the request was actually run at (after dispatch-time
    /// binding and any refinement).
    pub rate: f32,
    /// Sequence number of the batch that carried it.
    pub batch_seq: usize,
    /// Service time of that whole batch in seconds, dispatch to last pass,
    /// on the engine's clock: measured on the wall, what the truth profile
    /// charges on the virtual one.
    pub service_time: f64,
    /// Seal-to-completion time of that batch (queue wait + service) on the
    /// engine's clock — what [`Engine::replay`] judges deadlines by.
    pub(crate) latency: Duration,
    /// Flight-recorder trace id the request was submitted with (0 =
    /// untraced).
    pub trace_id: u64,
}

/// Aggregate engine counters, exposed for the experiments binaries.
///
/// Since PR 3 this is a façade over the engine's series on the global
/// `ms-telemetry` registry (labeled `engine="<n>"`): the same numbers the
/// Prometheus/JSON dumps carry, snapshotted into the struct the
/// experiments binaries already consume. Percentiles come from the shared
/// log-bucketed histogram, so they are resolved to one bucket width
/// (≤ ~6 % relative) rather than exact order statistics.
#[derive(Debug, Clone, Default)]
pub struct EngineCounters {
    /// Requests offered to `submit` (accepted + shed).
    pub submitted: u64,
    /// Requests served (logits produced).
    pub served: u64,
    /// Requests shed (backpressure + admission control).
    pub shed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Requests lifted to a wider rate by the anytime refinement ladder
    /// (one per request per ladder step; 0 unless `EngineConfig::refine`).
    pub refined: u64,
    /// Batches run below their seal-time rate by dispatch-time binding.
    pub rebound: u64,
    /// `(rate, batches run at that rate)`, ascending.
    pub rate_histogram: Vec<(f32, u64)>,
    /// Median measured batch service time (seconds; 0 when no batches
    /// ran), bucket-resolution.
    pub p50_service: f64,
    /// 99th-percentile measured batch service time, bucket-resolution.
    pub p99_service: f64,
}

struct WorkBatch {
    seq: usize,
    ids: Vec<u64>,
    /// Trace id per request, parallel to `ids` (0 = untraced).
    traces: Vec<u64>,
    inputs: Vec<Tensor>,
    /// The rate planned at seal.
    rate: SliceRate,
    /// When the batch was sealed, on the engine's clock.
    sealed: Duration,
    /// The planning budget `rate` was chosen against: `headroom ×` the
    /// processing window that opened at `sealed`. Dispatch-time binding fits
    /// the rate to what is left of it (all of it, to the bit, for a batch
    /// that starts the instant it is sealed), and the refinement ladder
    /// climbs only while predicted marginal cost fits before the window
    /// closes.
    budget: f64,
}

struct EngineState {
    open_ids: Vec<u64>,
    /// Trace id per open request, parallel to `open_ids`.
    open_traces: Vec<u64>,
    open_inputs: Vec<Tensor>,
    /// Tightest per-request planning budget among the open requests
    /// (`+inf` when none carries a deadline). A request submitted with a
    /// deadline tighter than the engine's configured SLA pulls the whole
    /// batch's planning budget down to its own — the controller then picks
    /// a narrower rate (or sheds) so the most urgent request still fits.
    open_budget_min: f64,
    ready: VecDeque<WorkBatch>,
    /// Requests inside `ready` (kept incrementally for the backpressure gate).
    ready_len: usize,
    in_flight: usize,
    next_seq: usize,
    /// Completed requests, in completion order; [`Engine::wait_events`]
    /// drains them in id order.
    responses: Vec<EngineResponse>,
    /// Ids shed by admission control at [`Engine::seal`]. Unlike
    /// backpressure (which fails `submit` synchronously), admission
    /// shedding happens after the caller already holds an id, so consumers
    /// that promised a reply per id (the TCP server) collect these from
    /// [`Engine::wait_events`].
    shed_ids: Vec<u64>,
    /// Virtual clock only: the driver's time — when requests arrive and
    /// batches are sealed. [`Engine::replay`] moves it; it is 0 otherwise.
    now: Duration,
    /// Virtual clock only: when each replica's lane is next free.
    free_at: Vec<Duration>,
    stop: bool,
    /// Submit-path tallies kept as plain integers under the state lock and
    /// flushed to the registry counters at seal (and on `counters()`).
    /// `submit` runs once per request; a lock-prefixed `fetch_add` there is
    /// the single biggest telemetry cost on the serving hot path, while a
    /// plain `+= 1` under the already-held mutex is free.
    pending_submitted: u64,
    /// Synchronous-refusal tallies by reason (backpressure, stopping);
    /// admission sheds are counted directly at seal.
    pending_shed_backpressure: u64,
    pending_shed_stopping: u64,
}

struct Shared {
    state: Mutex<EngineState>,
    work: Condvar,
    idle: Condvar,
    clock: Clock,
    controller: SlaController,
    /// The deadline window `T/2` — batches must process inside it (§4.1).
    window: f64,
    /// Planning budget: `window × headroom` (the margin the controller sees).
    budget: f64,
    /// The configured headroom fraction, kept so per-request deadlines map
    /// to planning budgets the same way the engine-wide SLA does.
    headroom: f64,
    max_queue: usize,
    /// Anytime refinement ladder enabled (see [`EngineConfig::refine`]).
    refine: bool,
    metrics: EngineMetrics,
}

/// The worker-pool engine. See the module docs for the threading model.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Engine {
    /// Starts one worker thread per replica, after packing each replica's
    /// weight panels ([`Layer::prepack`]: its convs' and recurrent layers';
    /// a `Linear` reads its weight in place). Replicas must be structurally
    /// identical and hydrated from the same weights for the determinism
    /// guarantee to hold (e.g. via [`ms_nn::shared::SharedWeights`]).
    pub fn start(
        cfg: EngineConfig,
        controller: SlaController,
        replicas: Vec<Box<dyn Layer + Send>>,
    ) -> Engine {
        Engine::start_on(Clock::Wall(Instant::now()), cfg, controller, replicas)
    }

    /// [`Engine::start`] on the virtual clock (module docs, "One clock"): a
    /// forward pass over `n` samples at rate `r` takes `truth.predict(n, r)`
    /// seconds whatever the machine does, so everything the engine decides
    /// by the clock — binding, the refinement ladder, what
    /// [`Engine::replay`] reports — is arithmetic. `truth` is what the
    /// replicas cost; the controller plans with its own profile, and the two
    /// differ exactly when the test is about a profile that has drifted.
    /// Batches run one at a time, so lanes are handed out in sealing order
    /// and not by which OS thread finishes first.
    pub fn start_virtual(
        cfg: EngineConfig,
        controller: SlaController,
        truth: LatencyProfile,
        replicas: Vec<Box<dyn Layer + Send>>,
    ) -> Engine {
        let rates = controller.profile().list();
        assert!(
            rates.iter().all(|r| truth.list().index_of(r).is_some()),
            "the truth profile must price every rate the controller can pick"
        );
        Engine::start_on(Clock::Virtual(truth), cfg, controller, replicas)
    }

    fn start_on(
        clock: Clock,
        cfg: EngineConfig,
        controller: SlaController,
        mut replicas: Vec<Box<dyn Layer + Send>>,
    ) -> Engine {
        assert!(!replicas.is_empty(), "need at least one worker replica");
        assert!(cfg.latency > 0.0 && cfg.headroom > 0.0 && cfg.headroom <= 1.0);
        // Weights are fixed from here on: pack the panels of those layers
        // that have them once, so every batch multiplies straight off them
        // (a no-op for replicas that arrive packed, and for dense layers).
        // The profile was calibrated on this path.
        for replica in &mut replicas {
            replica.prepack();
        }
        let metrics = EngineMetrics::new(&controller);
        let shared = Arc::new(Shared {
            state: Mutex::new(EngineState {
                open_ids: Vec::new(),
                open_traces: Vec::new(),
                open_inputs: Vec::new(),
                open_budget_min: f64::INFINITY,
                ready: VecDeque::new(),
                ready_len: 0,
                in_flight: 0,
                next_seq: 0,
                responses: Vec::new(),
                shed_ids: Vec::new(),
                now: Duration::ZERO,
                free_at: vec![Duration::ZERO; replicas.len()],
                stop: false,
                pending_submitted: 0,
                pending_shed_backpressure: 0,
                pending_shed_stopping: 0,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            clock,
            controller,
            window: cfg.latency / 2.0,
            budget: cfg.latency / 2.0 * cfg.headroom,
            headroom: cfg.headroom,
            max_queue: cfg.max_queue,
            refine: cfg.refine,
            metrics,
        });
        let workers = replicas
            .into_iter()
            .enumerate()
            .map(|(i, model)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ms-worker-{i}"))
                    .spawn(move || worker_loop(shared, i, model))
                    .expect("spawn worker")
            })
            .collect();
        Engine {
            shared,
            workers,
            next_id: AtomicU64::new(0),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The controller in use.
    pub fn controller(&self) -> &SlaController {
        &self.shared.controller
    }

    /// Offers one request to the open batch: the one way in. Refuses (and
    /// counts the refusal) under backpressure instead of buffering beyond
    /// `max_queue`, and once the engine is stopping; a refused input is
    /// handed back, so a router can fail the same tensor over to another
    /// replica without copying it.
    ///
    /// A request's `deadline` is its own end-to-end latency bound `T_i` in
    /// seconds, overriding the engine-wide `EngineConfig::latency` when
    /// tighter. Its planning budget is `(T_i/2) · headroom` — the same
    /// mapping the engine default goes through — and the batch it lands in
    /// plans against the tightest budget of its members. Deadlines looser
    /// than the engine default do not relax the batch (the engine still owes
    /// its configured SLA to every other member).
    ///
    /// With a non-zero `trace_id` and the recorder on, `Admitted` and
    /// `Enqueued` events are stamped on the way into the open batch. The
    /// recorder's `Shed` event is *not* stamped on refusal — the caller owns
    /// it, because a refusal here may still be served by a failover replica.
    pub fn submit(&self, req: impl Into<EngineRequest>) -> Result<u64, (ShedReason, Tensor)> {
        let EngineRequest {
            input,
            deadline,
            trace_id,
        } = req.into();
        let mut st = self.shared.state.lock().expect("engine lock");
        st.pending_submitted += 1;
        if st.stop {
            st.pending_shed_stopping += 1;
            return Err((ShedReason::Stopping, input));
        }
        if st.open_ids.len() + st.ready_len >= self.shared.max_queue {
            st.pending_shed_backpressure += 1;
            return Err((ShedReason::Backpressure, input));
        }
        flight::admitted(trace_id);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        st.open_ids.push(id);
        st.open_traces.push(trace_id);
        st.open_inputs.push(input);
        if let Some(t) = deadline {
            if t.is_finite() && t > 0.0 {
                let budget = t / 2.0 * self.shared.headroom;
                st.open_budget_min = st.open_budget_min.min(budget);
            }
        }
        flight::enqueued(trace_id);
        Ok(id)
    }

    /// Closes the open batch: the controller picks the rate and admission,
    /// the admitted prefix becomes a work item, the overflow tail is shed.
    /// Returns the sealed batch's sequence number, or `None` when the open
    /// batch was empty or fully shed.
    pub fn seal(&self) -> Option<usize> {
        let mut st = self.shared.state.lock().expect("engine lock");
        self.flush_submit_tallies(&mut st);
        let n = st.open_ids.len();
        if n == 0 {
            return None;
        }
        // The batch honours the tightest deadline among its members: the
        // engine-wide budget unless some request asked for less.
        let budget = self.shared.budget.min(st.open_budget_min);
        st.open_budget_min = f64::INFINITY;
        let SlaDecision { rate, admit, shed } = self.shared.controller.decide(n, budget);
        self.shared.metrics.last_rate.set(rate.get() as f64);
        let mut ids = std::mem::take(&mut st.open_ids);
        let mut traces = std::mem::take(&mut st.open_traces);
        let mut inputs = std::mem::take(&mut st.open_inputs);
        if shed > 0 {
            let dropped = ids.split_off(admit);
            let dropped_traces = traces.split_off(admit);
            // Request tensors are the submitter's storage, not this
            // thread's pool's: they are dropped, never recycled.
            inputs.truncate(admit);
            st.shed_ids.extend(dropped);
            self.shared.metrics.shed.add(shed as u64);
            self.shared.metrics.shed_reason[SHED_ADMISSION].add(shed as u64);
            if flight::recording() {
                for &tr in &dropped_traces {
                    flight::shed(tr, flight::ShedCause::Admission);
                }
            }
        }
        if admit == 0 {
            self.shared.metrics.queue_depth.set(st.ready_len as f64);
            drop(st);
            // Admission-shed ids are events too: wake keyed waiters.
            self.shared.idle.notify_all();
            return None;
        }
        let capacity = self.shared.controller.profile().max_batch(rate, budget);
        let fill = admit as f64 / capacity.max(1) as f64;
        self.shared.metrics.batch_fill.set(fill);
        let seq = st.next_seq;
        st.next_seq += 1;
        st.ready_len += admit;
        if flight::recording() {
            for &tr in &traces {
                flight::sealed_into_batch(tr, seq as u64, rate.get(), fill as f32);
            }
        }
        let sealed = self.shared.clock.now(st.now);
        st.ready.push_back(WorkBatch {
            seq,
            ids,
            traces,
            inputs,
            rate,
            sealed,
            budget,
        });
        self.shared.metrics.queue_depth.set(st.ready_len as f64);
        drop(st);
        self.shared.work.notify_one();
        if shed > 0 {
            self.shared.idle.notify_all();
        }
        Some(seq)
    }

    /// Publishes the submit-path tallies to the registry counters.
    fn flush_submit_tallies(&self, st: &mut EngineState) {
        if st.pending_submitted > 0 {
            let n = std::mem::take(&mut st.pending_submitted);
            self.shared.metrics.submitted.add(n);
        }
        if st.pending_shed_backpressure > 0 {
            let n = std::mem::take(&mut st.pending_shed_backpressure);
            self.shared.metrics.shed.add(n);
            self.shared.metrics.shed_reason[SHED_BACKPRESSURE].add(n);
        }
        if st.pending_shed_stopping > 0 {
            let n = std::mem::take(&mut st.pending_shed_stopping);
            self.shared.metrics.shed.add(n);
            self.shared.metrics.shed_reason[SHED_STOPPING].add(n);
        }
    }

    /// Blocks until the queue is empty and no batch is in flight. The open
    /// (unsealed) batch is not waited on — seal first.
    pub fn drain(&self) {
        let mut st = self.shared.state.lock().expect("engine lock");
        while !st.ready.is_empty() || st.in_flight > 0 {
            st = self.shared.idle.wait(st).expect("engine lock");
        }
    }

    /// The one way out: blocks until at least one completion event
    /// (response or admission-shed id) is available, or `timeout` elapses;
    /// drains and returns everything pending, responses in submission-id
    /// order. `Duration::ZERO` returns at once. The network front-end's
    /// per-replica dispatcher lives on this call.
    pub fn wait_events(&self, timeout: Duration) -> (Vec<EngineResponse>, Vec<u64>) {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock().expect("engine lock");
        while st.responses.is_empty() && st.shed_ids.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                return (Vec::new(), Vec::new());
            }
            let (guard, _) = self
                .shared
                .idle
                .wait_timeout(st, deadline - now)
                .expect("engine lock");
            st = guard;
        }
        let mut responses = std::mem::take(&mut st.responses);
        responses.sort_by_key(|r| r.id);
        let shed = std::mem::take(&mut st.shed_ids);
        (responses, shed)
    }

    /// The batching window `T/2` in seconds (half the configured SLA).
    pub fn window(&self) -> f64 {
        self.shared.window
    }

    /// The configured headroom fraction.
    pub fn headroom(&self) -> f64 {
        self.shared.headroom
    }

    /// Counter snapshot from the telemetry registry (percentiles come from
    /// the shared log-bucketed service-time histogram, resolved to one
    /// bucket width).
    pub fn counters(&self) -> EngineCounters {
        {
            let mut st = self.shared.state.lock().expect("engine lock");
            self.flush_submit_tallies(&mut st);
        }
        let m = &self.shared.metrics;
        let list = self.shared.controller.profile().list();
        EngineCounters {
            submitted: m.submitted.get(),
            served: m.served.get(),
            shed: m.shed.get(),
            batches: m.batches.get(),
            refined: m.refined.get(),
            rebound: m.rebound.get(),
            rate_histogram: list
                .iter()
                .zip(&m.rate_batches)
                .map(|(r, c)| (r.get(), c.get()))
                .filter(|(_, c)| *c > 0)
                .collect(),
            p50_service: m.service.percentile(0.50),
            p99_service: m.service.percentile(0.99),
        }
    }

    /// Current queue-depth gauge (open batch + sealed-but-unstarted).
    pub fn queue_depth(&self) -> f64 {
        self.shared.metrics.queue_depth.get()
    }

    /// Handle to the all-rates service-time histogram (the series behind
    /// [`EngineCounters::p50_service`]/[`p99_service`]). Consumers that
    /// need *windowed* rather than lifetime-cumulative percentiles — the
    /// router's health score, the server's SLO block — wrap this in a
    /// `ms_telemetry::WindowedHistogram` and difference bucket snapshots
    /// at their own cadence.
    ///
    /// [`p99_service`]: EngineCounters::p99_service
    pub fn service_histogram(&self) -> ms_telemetry::Histogram {
        self.shared.metrics.service.clone()
    }

    /// Slice rate picked by the controller for the most recently sealed
    /// batch (0 until the first seal).
    pub fn last_rate(&self) -> f32 {
        self.shared.metrics.last_rate.get() as f32
    }

    /// Stops the workers and joins them. Queued batches are abandoned;
    /// callers that care should [`Engine::drain`] first.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("engine lock");
            st.stop = true;
        }
        self.shared.work.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop_and_join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, worker: usize, mut model: Box<dyn Layer + Send>) {
    loop {
        let (batch, t0) = {
            let mut st = shared.state.lock().expect("engine lock");
            loop {
                // One batch at a time on the virtual clock, so the lanes go
                // out in sealing order whichever thread is quicker.
                if st.in_flight == 0 || matches!(shared.clock, Clock::Wall(_)) {
                    if let Some(b) = st.ready.pop_front() {
                        st.ready_len -= b.ids.len();
                        st.in_flight += 1;
                        shared
                            .metrics
                            .queue_depth
                            .set((st.open_ids.len() + st.ready_len) as f64);
                        let t0 = shared.clock.dispatch(&mut st.free_at, b.sealed);
                        break (b, t0);
                    }
                }
                if st.stop {
                    return;
                }
                st = shared.work.wait(st).expect("engine lock");
            }
        };
        let n = batch.inputs.len();
        // Dispatch-time binding (module docs, "Rate binding"): fit the plan
        // to the part of the batch's budget that is still left.
        let planned = batch.rate;
        let wait = t0.saturating_sub(batch.sealed);
        let left = batch.budget - shared.headroom * wait.as_secs_f64();
        let mut rate = shared.controller.rebind(n, planned, left);
        if rate != planned {
            shared.metrics.rebound.inc();
            shared.metrics.last_rate.set(rate.get() as f64);
        }
        if flight::recording() {
            for &tr in &batch.traces {
                flight::dispatch_start(tr, worker as u64, planned.get(), rate.get());
            }
        }
        // Virtual time of the passes run on this batch so far.
        let mut ran = Duration::ZERO;
        let mut rows;
        if shared.refine {
            // Prefix path: the planned pass establishes each layer's cached
            // prefix activations so later ladder steps compute only the
            // delta panels.
            rows = Vec::new();
            {
                let _span = ms_telemetry::span!("engine.batch_forward");
                refine_batched_forward(model.as_mut(), &batch.inputs, None, rate, &mut rows);
            }
            ran += shared.clock.pass(n, None, rate);
            if flight::recording() {
                for &tr in &batch.traces {
                    flight::compute_done(tr);
                }
            }
            // Anytime ladder: climb while the profile predicts the marginal
            // cost of the next step still fits before the batch deadline.
            // Prediction deltas (not fresh-pass costs) are the right charge
            // because the prefix path reuses everything below `rate`. The
            // base pass just measured how far the profile is off right now
            // (a drifted profile, a busy machine): a prediction that ran
            // `drift`× over is charged `drift`× for the next rung too, so an
            // optimistic profile cannot talk the ladder past the deadline.
            let profile = shared.controller.profile();
            let base = shared.clock.since(t0, ran).as_secs_f64();
            let drift = (base / profile.predict(n, rate)).max(1.0);
            // The window behind the batch's budget: the engine SLA's T/2,
            // or the tightest member deadline's T_i/2.
            let window = batch.budget / shared.headroom;
            while let Some(next) = profile.list().next_above(rate) {
                let marginal = (profile.predict(n, next) - profile.predict(n, rate)) * drift;
                let spent = wait + shared.clock.since(t0, ran);
                if spent.as_secs_f64() + marginal.max(0.0) > window {
                    break;
                }
                {
                    let _span = ms_telemetry::span!("engine.batch_refine");
                    refine_batched_forward(
                        model.as_mut(),
                        &batch.inputs,
                        Some(rate),
                        next,
                        &mut rows,
                    );
                }
                ran += shared.clock.pass(n, Some(rate), next);
                shared.metrics.refined.add(n as u64);
                if flight::recording() {
                    for &tr in &batch.traces {
                        flight::refine_step(tr, rate.get(), next.get());
                    }
                }
                rate = next;
            }
        } else {
            rows = {
                let _span = ms_telemetry::span!("engine.batch_forward");
                batched_sliced_forward(model.as_mut(), &batch.inputs, rate)
            };
            ran += shared.clock.pass(n, None, rate);
            if flight::recording() {
                for &tr in &batch.traces {
                    flight::compute_done(tr);
                }
            }
        }
        let service = shared.clock.since(t0, ran);
        let service_time = service.as_secs_f64();
        // The requests' own storage, which no pool lent: dropped, not
        // recycled into this worker's pool, which never draws its size.
        drop(batch.inputs);
        shared.metrics.served.add(batch.ids.len() as u64);
        shared.metrics.batches.inc();
        shared.metrics.service.record(service_time);
        if let Some(idx) = shared.controller.profile().list().index_of(rate) {
            shared.metrics.rate_batches[idx].inc();
            shared.metrics.rate_service[idx].record(service_time);
        }
        let mut st = shared.state.lock().expect("engine lock");
        for ((id, trace_id), logits) in batch.ids.into_iter().zip(batch.traces).zip(rows) {
            st.responses.push(EngineResponse {
                id,
                logits,
                rate: rate.get(),
                batch_seq: batch.seq,
                service_time,
                latency: wait + service,
                trace_id,
            });
        }
        shared.clock.release(&mut st.free_at, t0 + service);
        st.in_flight -= 1;
        drop(st);
        shared.idle.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Trace replay: a workload trace through the real engine on virtual time.
// ---------------------------------------------------------------------------

/// Outcome of replaying one workload trace through a virtual-clock engine:
/// real forward passes (the logits are the network's), virtual time (every
/// figure below is arithmetic on the trace and the two profiles — see the
/// module docs, "Determinism").
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Requests in the trace.
    pub arrived: usize,
    /// Requests that produced logits.
    pub served: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Served requests whose batch finished within the `T/2` processing
    /// window of its seal (total latency ≤ `T` counting accumulation).
    pub on_time: usize,
    /// Served requests that finished late.
    pub late: usize,
    /// Median per-request latency (queue wait + service, virtual seconds
    /// from the batch's seal) over served requests.
    pub p50_latency: f64,
    /// 99th-percentile per-request latency.
    pub p99_latency: f64,
    /// All responses, sorted by request id.
    pub responses: Vec<EngineResponse>,
    /// Engine counter snapshot taken after the replay drained.
    pub counters: EngineCounters,
    /// The deadline window `T/2` the verdicts above were judged by.
    window: Duration,
}

impl ReplayReport {
    /// The §4.1 score: each on-time answer scores its rate's accuracy in
    /// `table`, shed and late requests score 0, and the sum is divided by the
    /// requests that arrived.
    pub fn effective_accuracy(&self, table: &AccuracyTable) -> f64 {
        let on_time = self.responses.iter().filter(|r| r.latency <= self.window);
        let score: f64 = on_time.map(|r| table.at(SliceRate::new(r.rate))).sum();
        score / self.arrived.max(1) as f64
    }
}

impl Engine {
    /// Replays a workload trace on the virtual clock: tick `k`'s arrivals
    /// (inputs produced by `input_for(id)`) are submitted and sealed at
    /// `(k + 1) · T/2`, the workers run each batch as they would live —
    /// binding, ladder and all — and deadlines are judged on the same clock.
    ///
    /// Needs an engine from [`Engine::start_virtual`], freshly started (or
    /// fully drained and emptied through [`Engine::wait_events`]), with a
    /// `max_queue` the trace cannot fill. Leaves the engine empty again.
    pub fn replay(
        &self,
        trace: &WorkloadTrace,
        mut input_for: impl FnMut(u64) -> Tensor,
    ) -> ReplayReport {
        assert!(
            matches!(self.shared.clock, Clock::Virtual(_)),
            "replay drives the virtual clock: build the engine with Engine::start_virtual"
        );
        // The deadline window is the full T/2, not the headroom-scaled
        // planning budget: headroom is margin, not a tighter SLA.
        let window = Duration::from_secs_f64(self.shared.window);
        let mut arrived = 0usize;
        for (tick, &n) in trace.arrivals.iter().enumerate() {
            self.shared.state.lock().expect("engine lock").now = window * (tick as u32 + 1);
            arrived += n;
            for _ in 0..n {
                let id = self.next_id.load(Ordering::Relaxed);
                // Backpressure looks at how far the worker threads have
                // really got, which no virtual clock governs: a report that
                // depended on it would not be reproducible.
                self.submit(input_for(id))
                    .expect("replay: give the engine a max_queue the trace cannot fill");
            }
            self.seal();
        }
        self.drain();
        // Admission-shed ids leave through the same drain as the responses;
        // the report counts them as `arrived - served`.
        let (responses, _shed) = self.wait_events(Duration::ZERO);
        let mut latencies: Vec<Duration> = responses.iter().map(|r| r.latency).collect();
        let on_time = latencies.iter().filter(|&&l| l <= window).count();
        latencies.sort_unstable();
        let pct = |q: f64| -> f64 {
            if latencies.is_empty() {
                0.0
            } else {
                latencies[((latencies.len() - 1) as f64 * q).round() as usize].as_secs_f64()
            }
        };
        ReplayReport {
            arrived,
            served: responses.len(),
            shed: arrived - responses.len(),
            on_time,
            late: responses.len() - on_time,
            p50_latency: pct(0.50),
            p99_latency: pct(0.99),
            counters: self.counters(),
            responses,
            window,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::RatePolicy;
    use crate::profile::LatencyProfile;
    use crate::workload::WorkloadConfig;
    use ms_core::slice_rate::SliceRateList;
    use ms_nn::linear::{Linear, LinearConfig};
    use ms_nn::sequential::Sequential;
    use ms_nn::shared::SharedWeights;
    use ms_tensor::SeededRng;

    fn net(seed: u64) -> Box<dyn Layer + Send> {
        let mut rng = SeededRng::new(seed);
        Box::new(
            Sequential::new("net")
                .push(Linear::new(
                    "fc1",
                    LinearConfig {
                        in_dim: 8,
                        out_dim: 32,
                        in_groups: None,
                        out_groups: Some(4),
                        bias: true,
                        input_rescale: true,
                    },
                    &mut rng,
                ))
                .push(Linear::new(
                    "fc2",
                    LinearConfig {
                        in_dim: 32,
                        out_dim: 4,
                        in_groups: Some(4),
                        out_groups: None,
                        bias: true,
                        input_rescale: true,
                    },
                    &mut rng,
                )),
        )
    }

    fn replica(weights: &SharedWeights) -> Box<dyn Layer + Send> {
        let mut net = net(999);
        weights.hydrate(net.as_mut());
        net
    }

    fn weights() -> SharedWeights {
        SharedWeights::capture(net(5).as_mut())
    }

    fn quadratic(t_full: f64) -> LatencyProfile {
        LatencyProfile::quadratic(SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]), t_full)
    }

    const CONFIG: EngineConfig = EngineConfig {
        latency: 2e-3,
        headroom: 1.0,
        max_queue: usize::MAX / 2,
        refine: false,
    };

    fn engine(workers: usize, policy: RatePolicy) -> Engine {
        let w = weights();
        Engine::start(
            CONFIG,
            SlaController::new(quadratic(1e-5), policy),
            (0..workers).map(|_| replica(&w)).collect(),
        )
    }

    /// The same engine on the virtual clock: it plans with `quadratic(1e-5)`
    /// and a full-width sample costs `t_full` (1e-5: the plan is the truth).
    fn virtual_engine(workers: usize, policy: RatePolicy, t_full: f64) -> Engine {
        let w = weights();
        Engine::start_virtual(
            CONFIG,
            SlaController::new(quadratic(1e-5), policy),
            quadratic(t_full),
            (0..workers).map(|_| replica(&w)).collect(),
        )
    }

    fn input(id: u64) -> Tensor {
        Tensor::full([8], (id % 17) as f32 * 0.1 - 0.8)
    }

    #[test]
    fn submit_seal_drain_produces_one_response_per_request() {
        let e = engine(2, RatePolicy::Elastic);
        for _ in 0..10 {
            e.submit(Tensor::zeros([8])).unwrap();
        }
        assert!(e.seal().is_some());
        e.drain();
        let (rs, _) = e.wait_events(Duration::ZERO);
        assert_eq!(rs.len(), 10);
        let mut ids: Vec<u64> = rs.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        for r in &rs {
            assert_eq!(r.logits.dims(), &[4]);
            assert!(r.service_time > 0.0);
        }
        let c = e.counters();
        assert_eq!((c.submitted, c.served, c.shed, c.batches), (10, 10, 0, 1));
        e.shutdown();
    }

    #[test]
    fn empty_seal_is_a_noop_and_drain_returns_immediately() {
        let e = engine(1, RatePolicy::Elastic);
        assert!(e.seal().is_none());
        e.drain();
        assert_eq!(e.counters().batches, 0);
        e.shutdown();
    }

    #[test]
    fn overload_sheds_at_admission_and_within_budget() {
        // Quadratic profile, t_full 10µs, budget 1ms → r_min capacity
        // = 1ms / (0.0625·10µs) = 1600; offer 2000.
        let e = engine(2, RatePolicy::Elastic);
        for _ in 0..2000 {
            e.submit(Tensor::zeros([8])).unwrap();
        }
        e.seal();
        e.drain();
        let c = e.counters();
        assert_eq!(c.served, 1600);
        assert_eq!(c.shed, 400);
        assert_eq!(c.rate_histogram, vec![(0.25, 1)]);
        e.shutdown();
    }

    #[test]
    fn backpressure_sheds_when_the_queue_is_full() {
        let w = weights();
        let profile = quadratic(1e-5);
        let e = Engine::start(
            EngineConfig {
                latency: 2e-3,
                headroom: 1.0,
                max_queue: 4,
                refine: false,
            },
            SlaController::elastic(profile),
            vec![replica(&w)],
        );
        let mut accepted = 0;
        let mut shed = 0;
        for _ in 0..10 {
            match e.submit(Tensor::zeros([8])) {
                Ok(_) => accepted += 1,
                Err((ShedReason::Backpressure, _)) => shed += 1,
                Err((r, _)) => panic!("unexpected {r:?}"),
            }
        }
        assert_eq!((accepted, shed), (4, 6));
        e.seal();
        e.drain();
        let c = e.counters();
        assert_eq!(c.submitted, 10);
        assert_eq!(c.served + c.shed, 10);
        e.shutdown();
    }

    #[test]
    fn an_idle_trace_is_served_at_full_width_with_zero_wait() {
        let trace = WorkloadTrace::generate(&WorkloadConfig {
            ticks: 200,
            base_rate: 15.0,
            diurnal_amplitude: 1.0,
            spike_prob: 0.0,
            ..WorkloadConfig::default()
        });
        let e = virtual_engine(1, RatePolicy::Elastic, 1e-5);
        let r = e.replay(&trace, input);
        e.shutdown();
        assert_eq!((r.arrived, r.shed), (trace.total(), 0));
        assert_eq!((r.on_time, r.late), (r.arrived, 0));
        assert_eq!(r.responses.len(), r.arrived);
        for resp in &r.responses {
            assert_eq!(resp.rate, 1.0);
            let waited = resp.latency.as_secs_f64() - resp.service_time;
            assert_eq!(waited, 0.0, "request {}", resp.id);
        }
    }

    #[test]
    #[should_panic(expected = "Engine::start_virtual")]
    fn replay_refuses_a_wall_clock_engine() {
        let trace = WorkloadTrace::two_crowds(&quadratic(1e-5), 1e-3, 4, 1);
        engine(1, RatePolicy::Elastic).replay(&trace, input);
    }

    #[test]
    fn admission_shed_ids_are_reported() {
        // Same setting as `overload_sheds_at_admission_and_within_budget`:
        // capacity 1600 of 2000 → the 400-id tail is shed at seal.
        let e = engine(2, RatePolicy::Elastic);
        for _ in 0..2000 {
            e.submit(Tensor::zeros([8])).unwrap();
        }
        e.seal();
        e.drain();
        let (responses, shed) = e.wait_events(Duration::ZERO);
        assert_eq!(shed.len(), 400);
        assert!(shed.iter().all(|&id| id >= 1600), "the tail is shed");
        assert_eq!(responses.len(), 1600);
        let (responses, shed) = e.wait_events(Duration::ZERO);
        assert!(responses.is_empty() && shed.is_empty(), "drained");
        e.shutdown();
    }

    #[test]
    fn replay_leaves_no_admission_shed_ids_behind() {
        // Same capacity as above: 1600 of the first tick's 2000 fit, the
        // 400-id tail is shed at its seal; the second tick fits whole.
        let e = virtual_engine(1, RatePolicy::Elastic, 1e-5);
        let trace = WorkloadTrace {
            rates: vec![2000.0, 10.0],
            arrivals: vec![2000, 10],
        };
        let r = e.replay(&trace, input);
        assert_eq!((r.arrived, r.served, r.shed), (2010, 1610, 400));
        let (responses, shed) = e.wait_events(Duration::ZERO);
        assert!(responses.is_empty(), "replay handed out every response");
        assert!(shed.is_empty(), "replay collected every admission-shed id");
        e.shutdown();
    }

    #[test]
    fn per_request_deadline_tightens_the_batch_budget() {
        // Quadratic profile, t_full 10µs, engine budget 1ms. 64 requests at
        // the default plan at full width (64·1·10µs = 0.64ms ≤ 1ms); one
        // request with a 0.5ms total SLA (budget 0.25ms) forces the whole
        // batch down to the widest rate with 64·r²·10µs ≤ 0.25ms → r = 0.5.
        // On the virtual clock, with the plan for truth: the second batch
        // starts 0.16 ms into its window and still fits at full width.
        let e = virtual_engine(1, RatePolicy::Elastic, 1e-5);
        for _ in 0..63 {
            e.submit(Tensor::zeros([8])).unwrap();
        }
        e.submit(EngineRequest {
            input: Tensor::zeros([8]),
            deadline: Some(0.5e-3),
            trace_id: 0,
        })
        .expect("admitted");
        let tight = e.seal().expect("sealed");
        // The tightened budget does not leak into the next batch.
        for _ in 0..64 {
            e.submit(Tensor::zeros([8])).unwrap();
        }
        let loose = e.seal().expect("sealed");
        e.drain();
        let (rs, _) = e.wait_events(Duration::ZERO);
        assert_eq!(rs.len(), 128);
        for r in &rs {
            assert!(r.batch_seq == tight || r.batch_seq == loose);
            let want = if r.batch_seq == tight { 0.5 } else { 1.0 };
            assert_eq!(r.rate, want, "batch {} ran at {}", r.batch_seq, r.rate);
        }
        e.shutdown();
    }

    /// A replica that counts `prepack` calls.
    struct PrepackCounter {
        prepacks: Arc<AtomicU64>,
    }

    impl Layer for PrepackCounter {
        fn forward(&mut self, x: &Tensor, _mode: ms_nn::layer::Mode) -> Tensor {
            Tensor::zeros([x.dims()[0], 4])
        }
        fn backward(&mut self, dy: &Tensor) -> Tensor {
            dy.clone()
        }
        fn visit_params(&mut self, _f: &mut dyn FnMut(&mut ms_nn::layer::Param)) {}
        fn prepack(&mut self) -> bool {
            self.prepacks.fetch_add(1, Ordering::SeqCst);
            true
        }
        fn name(&self) -> &str {
            "prepack-counter"
        }
    }

    #[test]
    fn start_prepacks_every_replica() {
        let prepacks = Arc::new(AtomicU64::new(0));
        let replica = || -> Box<dyn Layer + Send> {
            let prepacks = Arc::clone(&prepacks);
            Box::new(PrepackCounter { prepacks })
        };
        let replicas = vec![replica(), replica()];
        let e = Engine::start(CONFIG, SlaController::elastic(quadratic(1e-5)), replicas);
        assert_eq!(prepacks.load(Ordering::SeqCst), 2);
        e.shutdown();
    }

    #[test]
    fn a_batch_dispatched_past_its_window_is_rebound_to_the_base_rate() {
        // Window 1 ms and one lane; a full-width sample truly costs 3 ms, so
        // the second of two batches sealed together starts 2 ms past its
        // window.
        let e = virtual_engine(1, RatePolicy::Elastic, 3e-3);
        let first = e.submit(Tensor::zeros([8])).unwrap();
        e.seal();
        let second = e.submit(Tensor::zeros([8])).unwrap();
        e.seal();
        e.drain();
        let (rs, _) = e.wait_events(Duration::ZERO);
        let served = |id| rs.iter().find(|r| r.id == id).expect("served");
        // Planned at full width (one request against a 1 ms budget).
        let on_plan = served(first);
        let ms3 = Duration::from_millis(3);
        assert_eq!((on_plan.rate, on_plan.latency), (1.0, ms3));
        assert_eq!(on_plan.service_time, 3e-3);
        let late = served(second);
        assert_eq!(late.rate, 0.25, "nothing fits a closed window → r_min");
        // It waited out the first, then ran a sixteenth of its cost.
        assert_eq!(late.latency, ms3 + ms3 / 16);
        let c = e.counters();
        // Binding never sheds.
        assert_eq!((c.served, c.shed, c.rebound), (2, 0, 1));
        // The per-rate series record the rate actually run.
        assert_eq!(c.rate_histogram, vec![(0.25, 1), (1.0, 1)]);
        e.shutdown();

        // A fixed-rate engine in the same spot runs what it pinned.
        let e = virtual_engine(1, RatePolicy::Fixed(SliceRate::FULL), 3e-3);
        e.submit(Tensor::zeros([8])).unwrap();
        e.seal();
        let second = e.submit(Tensor::zeros([8])).unwrap();
        e.seal();
        e.drain();
        let (rs, _) = e.wait_events(Duration::ZERO);
        assert_eq!(
            rs.iter().find(|r| r.id == second).expect("served").rate,
            1.0
        );
        assert_eq!(e.counters().rebound, 0);
        e.shutdown();

        // A second lane takes the second batch at once: nothing to rebind.
        let e = virtual_engine(2, RatePolicy::Elastic, 3e-3);
        e.submit(Tensor::zeros([8])).unwrap();
        e.seal();
        let second = e.submit(Tensor::zeros([8])).unwrap();
        e.seal();
        e.drain();
        let (rs, _) = e.wait_events(Duration::ZERO);
        let r = rs.iter().find(|r| r.id == second).expect("served");
        assert_eq!((r.rate, r.latency, e.counters().rebound), (1.0, ms3, 0));
        e.shutdown();
    }

    #[test]
    fn wait_events_delivers_responses_and_times_out_when_idle() {
        let e = engine(1, RatePolicy::Elastic);
        let (rs, shed) = e.wait_events(std::time::Duration::from_millis(5));
        assert!(rs.is_empty() && shed.is_empty(), "timeout on idle engine");
        for _ in 0..4 {
            e.submit(Tensor::zeros([8])).unwrap();
        }
        e.seal();
        let (rs, shed) = e.wait_events(std::time::Duration::from_secs(5));
        assert_eq!(rs.len(), 4);
        assert!(shed.is_empty());
        e.shutdown();
    }

    #[test]
    fn refine_lifts_batches_to_full_width_given_slack() {
        let w = weights();
        let profile = quadratic(1e-5);
        // A 2-second SLA dwarfs the microsecond-scale predicted deltas, so
        // the ladder always climbs to full width.
        let e = Engine::start(
            EngineConfig {
                latency: 2.0,
                headroom: 0.5,
                max_queue: 10_000,
                refine: true,
            },
            SlaController::new(profile, RatePolicy::Fixed(SliceRate::new(0.25))),
            vec![replica(&w)],
        );
        for i in 0..8 {
            e.submit(Tensor::full([8], i as f32 * 0.1 - 0.4)).unwrap();
        }
        e.seal();
        e.drain();
        let (rs, _) = e.wait_events(Duration::ZERO);
        assert_eq!(rs.len(), 8);
        assert!(
            rs.iter().all(|r| r.rate == 1.0),
            "served at {}, not lifted to full",
            rs[0].rate
        );
        // Three ladder steps (0.25→0.5→0.75→1.0) for each of 8 requests.
        assert_eq!(e.counters().refined, 24);
        // The refined logits are bitwise what a direct prefix pass at full
        // width produces — refinement changes cost, never the answer.
        let mut reference = replica(&w);
        let inputs: Vec<Tensor> = (0..8)
            .map(|i| Tensor::full([8], i as f32 * 0.1 - 0.4))
            .collect();
        let mut want = Vec::new();
        refine_batched_forward(
            reference.as_mut(),
            &inputs,
            None,
            SliceRate::FULL,
            &mut want,
        );
        for (r, w) in rs.iter().zip(&want) {
            assert_eq!(r.logits.data(), w.data(), "request {}", r.id);
        }
        e.shutdown();
    }

    #[test]
    fn drop_without_shutdown_joins_workers() {
        let e = engine(2, RatePolicy::Elastic);
        e.submit(Tensor::zeros([8])).unwrap();
        e.seal();
        e.drain();
        drop(e); // must not hang or leak the threads
    }
}
