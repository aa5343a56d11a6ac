//! Deadline-aware sharding across engine replicas.
//!
//! The router owns N independent [`Engine`]s (each with its own worker
//! pool, batcher and [`SlaController`](ms_serving::SlaController)) and
//! places every incoming request on the replica most likely to serve it
//! within its deadline. Placement is by **health score** — lower is
//! healthier:
//!
//! ```text
//! score(i) = queue_depth(i) + W · p99_service(i) / window(i)
//! ```
//!
//! Queue depth is the replica's buffered request count (a single atomic
//! gauge read); the second term converts the replica's **recent** p99
//! batch service time into "windows of lateness" so a replica that has
//! started missing its budget repels traffic even when its queue happens
//! to be momentarily short. "Recent" is load-bearing: the p99 comes from
//! a `WindowedHistogram` that differences bucket snapshots of the
//! replica's service histogram every
//! [`RouterConfig::p99_refresh_every`] placements, so it reflects only
//! the batches served *since the previous refresh* — a replica that was
//! slow an hour ago but is fast now scores healthy again within one
//! refresh window. (The first cut of this router read the
//! lifetime-cumulative `Histogram::percentile`, which can never forget a
//! bad era; `tests/router_windowed.rs` pins the recovery behaviour.)
//! A refresh window containing no finished batches halves the cached p99
//! instead of zeroing it: "no recent evidence" decays toward healthy
//! without the score snapping and flapping placement between replicas.
//! Refreshing also amortizes cost exactly as before — walking ~800
//! buckets is far too much for the per-request path, while a
//! 64-request-stale p99 is indistinguishable from a fresh one at serving
//! rates.
//!
//! Degradation order mirrors the paper's: spreading load across replicas
//! keeps per-batch `n` low, which lets each elastic controller *widen* its
//! rate; as load grows the controllers narrow before anything is shed; only
//! when every live replica's admission gate refuses does the router report
//! a shed. A draining replica is excluded from placement outright — hard
//! failover — but keeps serving what it already accepted.

use ms_serving::engine::{Engine, EngineRequest, ShedReason};
use ms_telemetry::WindowedHistogram;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Router tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Weight `W` of the normalized-p99 term in the health score.
    pub p99_weight: f64,
    /// Placements between refreshes of a replica's cached p99.
    pub p99_refresh_every: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            p99_weight: 32.0,
            p99_refresh_every: 64,
        }
    }
}

/// Why the router could not place a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// Every live replica refused (the reason from the last one tried).
    Shed(ShedReason),
    /// Every replica is draining.
    Draining,
}

struct Replica {
    engine: Arc<Engine>,
    draining: AtomicBool,
    /// Windowed-delta p99 tracker over the engine's service histogram;
    /// locked only on the amortized refresh path.
    windowed_p99: Mutex<WindowedHistogram>,
    /// Cached *windowed* p99 seconds as f64 bits, lock-free for the
    /// per-placement score reads between refreshes.
    cached_p99: AtomicU64,
    /// Placements since the last p99 refresh.
    since_refresh: AtomicU64,
    routed: ms_telemetry::Counter,
    health: ms_telemetry::Gauge,
}

/// Monotone router id for telemetry labels (tests build many routers).
static ROUTER_SEQ: AtomicU64 = AtomicU64::new(0);

/// Shards requests across engine replicas by health score. See the module
/// docs for the placement policy.
pub struct Router {
    replicas: Vec<Replica>,
    cfg: RouterConfig,
    failovers: ms_telemetry::Counter,
    shed: ms_telemetry::Counter,
}

impl Router {
    /// Wraps the engines with the default tuning.
    pub fn new(engines: Vec<Engine>) -> Router {
        Router::with_config(engines, RouterConfig::default())
    }

    /// Wraps the engines; replicas keep router order for health reporting.
    pub fn with_config(engines: Vec<Engine>, cfg: RouterConfig) -> Router {
        assert!(!engines.is_empty(), "router needs at least one replica");
        assert!(cfg.p99_refresh_every > 0);
        let reg = ms_telemetry::global();
        let rid = ROUTER_SEQ.fetch_add(1, Ordering::Relaxed).to_string();
        let replicas = engines
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                let ridx = i.to_string();
                let labels: &[(&str, &str)] =
                    &[("router", rid.as_str()), ("replica", ridx.as_str())];
                let windowed_p99 = Mutex::new(WindowedHistogram::new(e.service_histogram()));
                Replica {
                    engine: Arc::new(e),
                    draining: AtomicBool::new(false),
                    windowed_p99,
                    cached_p99: AtomicU64::new(0f64.to_bits()),
                    since_refresh: AtomicU64::new(0),
                    routed: reg.counter_with(
                        "router_routed_total",
                        labels,
                        "requests placed on each replica",
                    ),
                    health: reg.gauge_with(
                        "router_health_score",
                        labels,
                        "replica health score (queue depth + weighted normalized p99)",
                    ),
                }
            })
            .collect();
        Router {
            replicas,
            cfg,
            failovers: reg.counter_with(
                "router_failover_total",
                &[("router", rid.as_str())],
                "placements that fell through to a lower-ranked replica",
            ),
            shed: reg.counter_with(
                "router_shed_total",
                &[("router", rid.as_str())],
                "requests no live replica would accept",
            ),
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The engine behind replica `i`.
    pub fn engine(&self, i: usize) -> &Arc<Engine> {
        &self.replicas[i].engine
    }

    /// Marks a replica as draining (`true`: no new placements, hard
    /// failover to the others) or live again (`false`).
    pub fn set_draining(&self, i: usize, draining: bool) {
        self.replicas[i].draining.store(draining, Ordering::Release);
    }

    /// Whether replica `i` is draining.
    pub fn is_draining(&self, i: usize) -> bool {
        self.replicas[i].draining.load(Ordering::Acquire)
    }

    /// The current health score of replica `i` (lower is healthier),
    /// refreshing its cached windowed-delta p99 if due. A refresh closes
    /// the window opened by the previous one: batches served in between
    /// set the p99; an empty window halves the cached value (decay toward
    /// healthy, no snap). `try_lock` keeps concurrent scorers lock-free —
    /// whoever loses the race reads the cache refreshed by the winner.
    pub fn health_score(&self, i: usize) -> f64 {
        let rep = &self.replicas[i];
        let due = rep.since_refresh.fetch_add(1, Ordering::Relaxed);
        if due.is_multiple_of(self.cfg.p99_refresh_every) {
            if let Ok(mut w) = rep.windowed_p99.try_lock() {
                let (count, p99) = w.refresh();
                let next = if count > 0 {
                    p99
                } else {
                    0.5 * f64::from_bits(rep.cached_p99.load(Ordering::Relaxed))
                };
                rep.cached_p99.store(next.to_bits(), Ordering::Relaxed);
            }
        }
        let p99 = f64::from_bits(rep.cached_p99.load(Ordering::Relaxed));
        let window = rep.engine.window().max(1e-12);
        let score = rep.engine.queue_depth() + self.cfg.p99_weight * p99 / window;
        rep.health.set(score);
        score
    }

    /// Places one request: tries live replicas healthiest-first, failing
    /// over on backpressure, and returns `(replica index, engine id)` on
    /// success. The id is scoped to that replica's engine — collect the
    /// response from `self.engine(i)`.
    ///
    /// The request's trace id (0 = untraced) rides into whichever replica
    /// finally admits it. On `Err(_)` no replica holds the trace — the
    /// *caller* owns stamping the terminal `Shed` flight event, precisely
    /// because a refusal here may have been preceded by failed attempts on
    /// other replicas.
    pub fn route(&self, req: impl Into<EngineRequest>) -> Result<(usize, u64), RouteError> {
        let mut order: Vec<(f64, usize)> = (0..self.replicas.len())
            .filter(|&i| !self.is_draining(i))
            .map(|i| (self.health_score(i), i))
            .collect();
        let EngineRequest {
            mut input,
            deadline,
            trace_id,
        } = req.into();
        if order.is_empty() {
            self.shed.inc();
            return Err(RouteError::Draining);
        }
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite score"));
        let mut last = ShedReason::Backpressure;
        for (attempt, &(_, i)) in order.iter().enumerate() {
            let req = EngineRequest {
                input,
                deadline,
                trace_id,
            };
            match self.replicas[i].engine.submit(req) {
                Ok(id) => {
                    if attempt > 0 {
                        self.failovers.inc();
                    }
                    self.replicas[i].routed.inc();
                    return Ok((i, id));
                }
                Err((reason, returned)) => {
                    last = reason;
                    input = returned;
                }
            }
        }
        // Dropped, not recycled: a decoded request owes this thread's pool
        // nothing.
        drop(input);
        self.shed.inc();
        Err(RouteError::Shed(last))
    }

    /// Seals the open batch on every live replica (one batching tick).
    pub fn seal_all(&self) {
        for rep in &self.replicas {
            rep.engine.seal();
        }
    }

    /// Seals and drains every replica (including draining ones): after this
    /// returns, no request is buffered or running anywhere.
    pub fn drain_all(&self) {
        for rep in &self.replicas {
            rep.engine.seal();
        }
        for rep in &self.replicas {
            rep.engine.drain();
        }
    }
}
