//! The TCP front-end: an epoll readiness reactor over the router.
//!
//! # Threading model
//!
//! - **Reactor pool** (a few threads, [`ServerConfig::reactors`]): each
//!   reactor owns an epoll instance (see [`crate::sys`]) and a disjoint
//!   set of connections, assigned round-robin at accept time. Reactor 0
//!   additionally owns the non-blocking listener. Everything readiness-
//!   driven happens here: accepting, incremental frame decoding
//!   ([`crate::protocol::FrameDecoder`]), request placement, inline
//!   control replies, partial-write resumption and connection teardown.
//! - **One dispatcher per replica**, the replica's only thread in the
//!   server: it seals the replica's open batch every [`Engine::window`]
//!   (or [`ServerConfig::seal_interval`]), each seal one interval after
//!   the last, and between seals waits in [`Engine::wait_events`] for at
//!   most the time to the next seal or 20 ms, so it sees the stop flag
//!   within 20 ms. It translates each completion into an `InferResponse`
//!   frame (logits or admission-shed) and enqueues it on the owning
//!   connection's output queue, waking that connection's reactor.
//!
//! # Per-connection state machine
//!
//! ```text
//!            ┌──────── readable ────────┐
//!            ▼                          │
//! Open ──▶ Reading ──frame──▶ handle ───┘
//!   │         │ EOF/err                │ Drain/misuse
//!   │         ▼                        ▼
//!   │     FlushClose ◀────────────  ReadShut
//!   │         │ queue empty            │ (writes continue)
//!   ▼         ▼                        │
//! reaped    Closed ◀───────────────────┘ stop + flushed
//! ```
//!
//! Reads accumulate into a [`FrameDecoder`] that never over-reads; a
//! malformed frame closes the connection — after corruption the stream
//! offset can no longer be trusted, so resynchronization is the client's
//! job (reconnect). Writes go through a bounded per-connection output
//! queue ([`ServerConfig::max_conn_backlog`]): producers (dispatchers,
//! inline control replies) append encoded frames and wake the reactor;
//! the reactor writes until `WouldBlock`, arms `EPOLLOUT` for the
//! remainder, and resumes mid-frame on the next writability event. A
//! peer that stops reading grows its queue to the cap and is then shed —
//! its queue is cleared, the socket closed, server memory reclaimed.
//!
//! Two defenses reap misbehaving peers: a **slow-loris deadline**
//! ([`ServerConfig::read_deadline`]) closes connections stalled mid-frame
//! (idle connections *between* frames are fine), and the protocol's
//! **frame cap** ([`MAX_PAYLOAD`](crate::protocol::MAX_PAYLOAD)) rejects
//! oversized declarations from the header alone.
//!
//! # Rendezvous
//!
//! One server-wide pending table, keyed by `(replica, engine id)`, joins
//! the reactor (who knows the connection) to the dispatcher (who has the
//! result). Placement holds the table's lock across `route()` and the
//! insert, so an entry is filed before its request's result can be looked
//! up: the dispatcher takes the lock only after [`Engine::wait_events`]
//! returned, and always finds the entry. The lock order is table, then
//! engine, and only on the reactor; the dispatcher never holds the table
//! while it calls into the engine. Exactly one response goes out per
//! placed request.
//!
//! # Drain state machine
//!
//! ```text
//! Accepting ──Drain frame / drain()──▶ Draining ──in_flight == 0──▶ Stopped
//!   accept ok                     new requests shed(Draining)    sockets closed
//!   requests routed               in-flight keeps completing     threads joined
//! ```
//!
//! Draining refuses new work (`Shed(Draining)` replies, no new
//! connections) while the drain gate repeatedly seals all replicas and
//! dispatchers keep flushing what was already accepted. Only when the
//! in-flight count hits zero — every placed request answered, served or
//! shed — is the `DrainAck` *enqueued*, and only then is the stop flag
//! raised. Reactors leaving the event loop flush every non-empty output
//! queue before closing its socket, which is what makes "every in-flight
//! response precedes the ack" hold per connection. Zero in-flight
//! requests are dropped.

use crate::protocol::{
    Frame, FrameDecoder, HealthReply, InferOutcome, InferRequest, InferResponse, ReplicaHealth,
    WireShedReason,
};
use crate::router::{RouteError, Router};
use crate::sys::{Event, Poller, Waker};
use ms_serving::engine::{Engine, EngineRequest, EngineResponse, ShedReason};
use ms_telemetry::flight;
use ms_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Batching tick; `None` seals each replica at its own engine window
    /// (`T/2`), the paper's accumulation interval.
    pub seal_interval: Option<Duration>,
    /// Reactor threads; `0` picks `min(available_parallelism, 4)`.
    pub reactors: usize,
    /// Slow-loris defense: a connection stalled *mid-frame* (bytes of an
    /// incomplete frame buffered, nothing new arriving) for this long is
    /// closed. Idle connections between frames are never reaped.
    pub read_deadline: Duration,
    /// Bounded output queue: a connection whose peer stops reading may
    /// accumulate at most this many undelivered response bytes before it
    /// is shed (queue cleared, socket closed).
    pub max_conn_backlog: usize,
    /// Live SLO tracking: when true the server runs a telemetry sampler
    /// thread that snapshots the registry every [`Self::sample_interval`],
    /// evaluates the deadline and shed SLOs (Google-SRE multi-window
    /// burn-rate alerts with hysteresis), and fills the optional SLO block
    /// of every `HealthReply`.
    pub slo_sampling: bool,
    /// Registry snapshot cadence of the sampler thread.
    pub sample_interval: Duration,
    /// Shard identity stamped into every `HealthReply` when this server
    /// runs as a supervised cluster shard (the `shard_server` bin);
    /// `None` for standalone servers (the identity tail stays off the
    /// wire entirely).
    pub shard: Option<crate::protocol::ShardIdentity>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            seal_interval: None,
            reactors: 0,
            read_deadline: Duration::from_secs(10),
            max_conn_backlog: 64 << 20,
            slo_sampling: true,
            sample_interval: Duration::from_secs(1),
            shard: None,
        }
    }
}

/// Deadline SLO objective: target fraction of served responses delivered
/// within their effective deadline (the request's own wire deadline, or
/// twice the engine window for requests without one).
const DEADLINE_OBJECTIVE: f64 = 0.99;
/// Shed SLO objective: target fraction of requests *not* shed.
const SHED_OBJECTIVE: f64 = 0.99;
/// Longest a dispatcher waits in [`Engine::wait_events`] before it looks at
/// the seal timer and the stop flag again.
const DISPATCH_POLL: Duration = Duration::from_millis(20);

/// Wire-layer metrics (registered once per server on the global registry).
struct NetMetrics {
    /// The `server` label value — SLO specs and windowed-histogram
    /// queries must address exactly the series registered here.
    server_id: String,
    connections: ms_telemetry::Gauge,
    accepted: ms_telemetry::Counter,
    frames_rx: ms_telemetry::Counter,
    frames_tx: ms_telemetry::Counter,
    bytes_rx: ms_telemetry::Counter,
    bytes_tx: ms_telemetry::Counter,
    decode_errors: ms_telemetry::Counter,
    requests: ms_telemetry::Counter,
    responses_ok: ms_telemetry::Counter,
    responses_shed: ms_telemetry::Counter,
    reaped: ms_telemetry::Counter,
    backpressure_closed: ms_telemetry::Counter,
    /// Served responses classified against their effective deadline
    /// (the deadline-SLO event stream: total and misses).
    deadline_total: ms_telemetry::Counter,
    deadline_miss: ms_telemetry::Counter,
    /// Route-to-delivery latency of served requests (server-side).
    request_seconds: ms_telemetry::Histogram,
}

static SERVER_SEQ: AtomicU64 = AtomicU64::new(0);

impl NetMetrics {
    fn new() -> NetMetrics {
        let reg = ms_telemetry::global();
        let id = SERVER_SEQ.fetch_add(1, Ordering::Relaxed).to_string();
        let l: &[(&str, &str)] = &[("server", id.as_str())];
        NetMetrics {
            server_id: id.clone(),
            connections: reg.gauge_with("net_connections", l, "currently open connections"),
            deadline_total: reg.counter_with(
                "net_deadline_total",
                l,
                "served responses classified against their effective deadline",
            ),
            deadline_miss: reg.counter_with(
                "net_deadline_miss_total",
                l,
                "served responses delivered after their effective deadline",
            ),
            accepted: reg.counter_with("net_connections_total", l, "connections accepted"),
            frames_rx: reg.counter_with("net_frames_rx_total", l, "frames received"),
            frames_tx: reg.counter_with("net_frames_tx_total", l, "frames sent"),
            bytes_rx: reg.counter_with("net_bytes_rx_total", l, "bytes received"),
            bytes_tx: reg.counter_with("net_bytes_tx_total", l, "bytes sent"),
            decode_errors: reg.counter_with(
                "net_decode_errors_total",
                l,
                "malformed frames (each closes its connection)",
            ),
            requests: reg.counter_with("net_requests_total", l, "inference requests received"),
            responses_ok: reg.counter_with("net_responses_ok_total", l, "logit responses sent"),
            responses_shed: reg.counter_with("net_responses_shed_total", l, "shed responses sent"),
            reaped: reg.counter_with(
                "net_reaped_total",
                l,
                "connections reaped by the slow-loris read deadline",
            ),
            backpressure_closed: reg.counter_with(
                "net_backpressure_closed_total",
                l,
                "connections shed at the output backlog cap",
            ),
            request_seconds: reg.histogram_with(
                "net_request_seconds",
                l,
                "server-side route-to-delivery latency of served requests",
            ),
        }
    }
}

/// Bounded per-connection output queue. Producers (dispatchers, inline
/// replies) push whole encoded frames; the owning reactor writes them
/// out, resuming partial writes at `head`.
#[derive(Default)]
struct OutBuf {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of `queue[0]` already written to the socket.
    head: usize,
    /// Total unwritten bytes across the queue (backlog accounting).
    bytes: usize,
    /// Set on close/shed: producers drop frames instead of queueing.
    dead: bool,
}

impl OutBuf {
    fn clear_dead(&mut self) {
        self.dead = true;
        self.queue.clear();
        self.bytes = 0;
        self.head = 0;
    }
}

enum WriteResult {
    /// The queue is empty; everything reached the kernel.
    Drained,
    /// The socket buffer filled; leftover bytes need `EPOLLOUT`.
    Blocked,
    /// The socket is broken.
    Failed,
}

/// Writes queued output to the (non-blocking) socket until the queue
/// empties or the socket blocks, resuming the front frame at the
/// recorded `head` offset. The caller holds the [`OutBuf`] lock — that
/// lock is what serializes producer inline writes with reactor resumes.
fn write_queue(metrics: &NetMetrics, ob: &mut OutBuf, stream: &TcpStream) -> WriteResult {
    let mut sock = stream;
    loop {
        let Some(front) = ob.queue.front() else {
            return WriteResult::Drained;
        };
        let front_len = front.len();
        match sock.write(&front[ob.head..]) {
            Ok(n) => {
                ob.head += n;
                ob.bytes -= n;
                metrics.bytes_tx.add(n as u64);
                if ob.head == front_len {
                    ob.head = 0;
                    ob.queue.pop_front();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return WriteResult::Blocked,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return WriteResult::Failed,
        }
    }
}

/// Cross-thread instruction to one reactor.
enum Cmd {
    /// Adopt a connection accepted by reactor 0.
    Register(u64, Arc<TcpStream>, Arc<Mutex<OutBuf>>),
    /// A producer left bytes in an output queue the socket wouldn't take
    /// (`EPOLLOUT` must be armed to resume them).
    Flush(u64),
    /// Shed the connection immediately (backlog cap exceeded).
    Kill(u64),
}

struct ReactorHandle {
    cmds: Mutex<Vec<Cmd>>,
    waker: Waker,
}

impl ReactorHandle {
    fn send(&self, cmd: Cmd) {
        let was_empty = {
            let mut g = self.cmds.lock().expect("cmds lock");
            let was = g.is_empty();
            g.push(cmd);
            was
        };
        // A non-empty queue means a wake is already pending: the reactor
        // takes the whole vec at once.
        if was_empty {
            self.waker.wake();
        }
    }
}

/// What the rest of the server knows about a connection: which reactor
/// owns it, where its outbound frames queue, and the (non-blocking)
/// socket itself for opportunistic inline writes. All writes — producer
/// inline or reactor resume — happen under the [`OutBuf`] lock, so the
/// byte stream stays FIFO no matter who drains the queue.
#[derive(Clone)]
struct ConnHandle {
    reactor: usize,
    out: Arc<Mutex<OutBuf>>,
    stream: Arc<TcpStream>,
}

struct Pending {
    conn: u64,
    correlation_id: u64,
    t0: Instant,
    /// Effective deadline (seconds) this request is judged against for
    /// the deadline SLO: the wire deadline when the client sent one,
    /// otherwise twice the placed replica's engine window (a served batch
    /// should clear two accumulation intervals).
    deadline: f64,
    /// Flight-recorder trace context (0 = untraced).
    trace: u64,
}

struct Shared {
    router: Router,
    cfg: ServerConfig,
    started: Instant,
    draining: AtomicBool,
    stop: AtomicBool,
    /// Requests placed on an engine whose response has not yet been handed
    /// to a connection's output queue. The drain gate waits for zero.
    in_flight: AtomicU64,
    delivered: AtomicU64,
    reaped: AtomicU64,
    backpressure_closed: AtomicU64,
    /// The rendezvous (module docs): placed requests by `(replica, engine
    /// id)`, filed by placement, taken by the replica's dispatcher.
    pending: Mutex<HashMap<(usize, u64), Pending>>,
    conns: Mutex<HashMap<u64, ConnHandle>>,
    reactors: Vec<ReactorHandle>,
    metrics: NetMetrics,
    /// Live SLO telemetry (`None` when [`ServerConfig::slo_sampling`] is
    /// off): registry snapshots plus the burn-rate alert engine the
    /// sampler thread evaluates on every tick.
    slo: Option<SloTelemetry>,
}

/// The sampler-fed half of the server's observability: a [`TimeStore`]
/// snapshotting the global registry and the [`SloEngine`] evaluated over
/// it. Both are shared with the sampler thread's hook.
struct SloTelemetry {
    store: Arc<ms_telemetry::TimeStore>,
    engine: Arc<ms_telemetry::SloEngine>,
}

impl Shared {
    fn wake_all(&self) {
        for r in &self.reactors {
            r.waker.wake();
        }
    }

    /// Encodes `frame`, appends it to `conn`'s output queue, and
    /// opportunistically writes the queue straight to the (non-blocking)
    /// socket — the common case never touches the reactor. Bytes the
    /// socket won't take stay queued and a `Flush` command asks the
    /// owning reactor to arm `EPOLLOUT` and resume them. Enforces the
    /// backlog cap: a connection over the cap is shed on the spot (dead
    /// queue, `Kill` to its reactor) — the producer never blocks and
    /// server memory stays bounded no matter how slow the peer reads.
    fn send_to(&self, conn: u64, frame: Frame, trace: u64) {
        let handle = {
            let conns = self.conns.lock().expect("conns lock");
            conns.get(&conn).cloned()
        };
        // A dead connection just drops its responses; in-flight
        // accounting is settled by the caller either way.
        let Some(h) = handle else { return };
        let bytes = frame.to_bytes_traced(trace);
        let mut action = None;
        {
            let mut ob = h.out.lock().expect("outbuf lock");
            if ob.dead {
                return;
            }
            if ob.bytes + bytes.len() > self.cfg.max_conn_backlog {
                ob.clear_dead();
                action = Some(Cmd::Kill(conn));
            } else {
                ob.bytes += bytes.len();
                ob.queue.push_back(bytes);
                self.metrics.frames_tx.inc();
                match write_queue(&self.metrics, &mut ob, &h.stream) {
                    // Write error: mark dead; the reactor observes the
                    // broken socket (HUP/read error) and closes it.
                    WriteResult::Failed => ob.clear_dead(),
                    WriteResult::Blocked => action = Some(Cmd::Flush(conn)),
                    WriteResult::Drained => {}
                }
            }
        }
        match action {
            Some(kill @ Cmd::Kill(_)) => {
                self.backpressure_closed.fetch_add(1, Ordering::Relaxed);
                self.metrics.backpressure_closed.inc();
                self.reactors[h.reactor].send(kill);
            }
            Some(flush) => self.reactors[h.reactor].send(flush),
            None => {}
        }
    }

    fn shed_frame(&self, correlation_id: u64, reason: WireShedReason) -> Frame {
        self.metrics.responses_shed.inc();
        Frame::InferResponse(InferResponse {
            correlation_id,
            rate_used: 0.0,
            outcome: InferOutcome::Shed(reason),
        })
    }

    /// Final leg of the rendezvous: builds the response frame for what the
    /// engine reported — a response, or `None` for an admission shed —
    /// enqueues it on the connection, settles accounting.
    ///
    /// Flight terminal: a served request gets its `Delivered` stamp here
    /// (response handed to the wire layer); an admission-shed one was
    /// already stamped `Shed` by the engine at seal time, so delivering
    /// the shed *frame* adds nothing.
    fn deliver(&self, p: Pending, served: Option<EngineResponse>) {
        let is_served = served.is_some();
        let frame = match served {
            Some(r) => {
                self.metrics.responses_ok.inc();
                let elapsed = p.t0.elapsed().as_secs_f64();
                self.metrics.request_seconds.record_traced(elapsed, p.trace);
                // Deadline-SLO event: every served response is classified
                // hit or miss against its effective deadline.
                self.metrics.deadline_total.inc();
                if elapsed > p.deadline {
                    self.metrics.deadline_miss.inc();
                }
                Frame::InferResponse(InferResponse {
                    correlation_id: p.correlation_id,
                    rate_used: r.rate,
                    outcome: InferOutcome::Logits {
                        dims: r.logits.dims().iter().map(|&d| d as u32).collect(),
                        data: r.logits.into_vec(),
                    },
                })
            }
            None => self.shed_frame(p.correlation_id, WireShedReason::Admission),
        };
        self.send_to(p.conn, frame, p.trace);
        if is_served {
            flight::delivered(p.trace);
        }
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.delivered.fetch_add(1, Ordering::AcqRel);
    }

    /// Takes the pending entry placement filed for `(replica, id)`.
    fn take_pending(&self, replica: usize, id: u64) -> Pending {
        let mut pending = self.pending.lock().expect("pending lock");
        pending
            .remove(&(replica, id))
            .expect("placement files the entry before its result can arrive")
    }

    /// The optional SLO block of a `HealthReply`: per-SLO long-window
    /// burn rates, the firing-alert count, and the windowed p99 of the
    /// request-latency histogram (over up to the last minute of retained
    /// snapshots). `None` when sampling is off.
    fn slo_health(&self) -> Option<crate::protocol::SloHealth> {
        let slo = self.slo.as_ref()?;
        let (deadline_fast_burn, deadline_slow_burn) =
            slo.engine.slo_burns("deadline").unwrap_or((0.0, 0.0));
        let (shed_fast_burn, shed_slow_burn) = slo.engine.slo_burns("shed").unwrap_or((0.0, 0.0));
        let firing_alerts = slo.engine.status().firing;
        let l: &[(&str, &str)] = &[("server", self.metrics.server_id.as_str())];
        let window_p99_s = slo
            .store
            .hist_window("net_request_seconds", l, 60.0)
            .map(|w| w.p99)
            .unwrap_or(0.0);
        Some(crate::protocol::SloHealth {
            deadline_fast_burn,
            deadline_slow_burn,
            shed_fast_burn,
            shed_slow_burn,
            firing_alerts,
            window_p99_s,
        })
    }

    fn health_reply(&self) -> Frame {
        let replicas = (0..self.router.replicas())
            .map(|i| {
                let e = self.router.engine(i);
                let c = e.counters();
                ReplicaHealth {
                    draining: self.router.is_draining(i),
                    queue_depth: e.queue_depth(),
                    p99_service_s: c.p99_service,
                    served: c.served,
                    shed: c.shed,
                    rate: e.last_rate(),
                }
            })
            .collect();
        Frame::HealthReply(HealthReply {
            draining: self.draining.load(Ordering::Acquire),
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            build: build_string(),
            replicas,
            slo: self.slo_health(),
            shard: self.cfg.shard,
        })
    }

    /// The drain gate: refuse new work and flush every in-flight request.
    /// Returns the lifetime delivered count (the `DrainAck` payload) but
    /// does *not* raise the stop flag — the caller decides what happens
    /// after (the wire path enqueues the ack first so the reactors'
    /// flush-before-close carries it out).
    fn drain_flush(&self) -> u64 {
        self.draining.store(true, Ordering::Release);
        // Seal on every pass so the flush does not depend on the seal
        // cadence (a long-window config would otherwise stall here).
        while self.in_flight.load(Ordering::Acquire) > 0 {
            self.router.seal_all();
            std::thread::sleep(Duration::from_millis(1));
        }
        self.delivered.load(Ordering::Acquire)
    }

    /// The full drain state machine: flush in-flight, then tear the
    /// server down.
    fn drain_and_stop(&self) -> u64 {
        let delivered = self.drain_flush();
        self.stop.store(true, Ordering::Release);
        self.wake_all();
        delivered
    }
}

/// The TCP front-end. See the module docs for the threading model and the
/// drain state machine.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
    /// Telemetry sampler thread; kept for its Drop (stop + join). `None`
    /// when SLO sampling is disabled.
    _sampler: Option<ms_telemetry::Sampler>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// reactor pool plus one thread per replica: its dispatcher, which
    /// seals the replica's batches and delivers their results.
    pub fn start(
        addr: impl ToSocketAddrs,
        router: Router,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let n = router.replicas();
        let n_reactors = if cfg.reactors > 0 {
            cfg.reactors
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .clamp(1, 4)
        };
        let reactors = (0..n_reactors)
            .map(|_| {
                Ok(ReactorHandle {
                    cmds: Mutex::new(Vec::new()),
                    waker: Waker::new()?,
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        let metrics = NetMetrics::new();
        let slo = cfg.slo_sampling.then(|| {
            let sid = metrics.server_id.clone();
            let l: &[(&str, &str)] = &[("server", sid.as_str())];
            use ms_telemetry::slo::SeriesRef;
            let specs = vec![
                ms_telemetry::SloSpec::new(
                    "deadline",
                    SeriesRef::new("net_deadline_miss_total", l),
                    SeriesRef::new("net_deadline_total", l),
                    DEADLINE_OBJECTIVE,
                ),
                ms_telemetry::SloSpec::new(
                    "shed",
                    SeriesRef::new("net_responses_shed_total", l),
                    SeriesRef::new("net_requests_total", l),
                    SHED_OBJECTIVE,
                ),
            ];
            SloTelemetry {
                store: Arc::new(ms_telemetry::TimeStore::new(
                    ms_telemetry::TsConfig::default(),
                )),
                engine: Arc::new(ms_telemetry::SloEngine::new(specs)),
            }
        });
        let sampler = slo.as_ref().map(|s| {
            let engine = Arc::clone(&s.engine);
            ms_telemetry::Sampler::start_with_hook(
                Arc::clone(&s.store),
                cfg.sample_interval,
                move |store, t| engine.evaluate(store, t),
            )
        });
        let shared = Arc::new(Shared {
            router,
            cfg,
            started: Instant::now(),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
            backpressure_closed: AtomicU64::new(0),
            pending: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            reactors,
            metrics,
            slo,
        });
        let mut threads = Vec::new();
        let mut listener = Some(listener);
        for i in 0..n_reactors {
            let shared = Arc::clone(&shared);
            let l = if i == 0 { listener.take() } else { None };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ms-net-reactor-{i}"))
                    .spawn(move || reactor_loop(shared, i, l))
                    .expect("spawn reactor"),
            );
        }
        for i in 0..n {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ms-net-dispatch-{i}"))
                    .spawn(move || dispatcher_loop(shared, i))
                    .expect("spawn dispatcher"),
            );
        }
        Ok(Server {
            shared,
            local_addr,
            threads,
            _sampler: sampler,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The router (for tests and per-replica drain orchestration).
    pub fn router(&self) -> &Router {
        &self.shared.router
    }

    /// Whether the server has entered the drain state machine.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Whether the stop flag is up — for a wire-initiated drain this
    /// means the flush finished and the `DrainAck` is queued, so a host
    /// process may now call [`Server::shutdown`] (join) without racing
    /// the drain thread. The `shard_server` bin keys its exit off this.
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Responses delivered so far (served + admission-shed).
    pub fn delivered(&self) -> u64 {
        self.shared.delivered.load(Ordering::Acquire)
    }

    /// Currently open connections across all reactors.
    pub fn connections(&self) -> u64 {
        self.shared.conns.lock().expect("conns lock").len() as u64
    }

    /// Connections reaped by the slow-loris read deadline so far.
    pub fn reaped_connections(&self) -> u64 {
        self.shared.reaped.load(Ordering::Relaxed)
    }

    /// Connections shed at the output backlog cap so far.
    pub fn backpressure_closed(&self) -> u64 {
        self.shared.backpressure_closed.load(Ordering::Relaxed)
    }

    /// Programmatic drain: same state machine the `Drain` frame runs, then
    /// a full teardown. Returns the delivered count.
    pub fn drain(mut self) -> u64 {
        let delivered = self.shared.drain_and_stop();
        self.join_all();
        delivered
    }

    /// Hard stop: queued responses are still flushed on the way out, but
    /// no in-flight guarantee beyond the dispatchers' final sweep. Use
    /// [`Server::drain`] for the graceful path.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.join_all();
    }

    fn join_all(&mut self) {
        self.shared.wake_all();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shared.stop.store(true, Ordering::Release);
            self.join_all();
        }
    }
}

/// Reactor poller tokens 0 and 1 are reserved; connection ids start above.
const TOKEN_WAKER: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
static CONN_SEQ: AtomicU64 = AtomicU64::new(2);

/// Build identity string for the `Health` frame: crate version plus the
/// compile-time knobs an operator needs to interpret the numbers.
fn build_string() -> String {
    format!(
        "ms-net {} ({}{})",
        env!("CARGO_PKG_VERSION"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        if ms_telemetry::spans_compiled() {
            ", spans"
        } else {
            ""
        },
    )
}

/// One connection's reactor-side state.
struct Conn {
    stream: Arc<TcpStream>,
    fd: RawFd,
    decoder: FrameDecoder,
    out: Arc<Mutex<OutBuf>>,
    last_read: Instant,
    /// No more inbound frames are processed (Drain received, misuse, or
    /// peer EOF); writes continue until flushed.
    read_shut: bool,
    /// Close the socket as soon as the output queue empties.
    close_after_flush: bool,
    /// Whether `EPOLLOUT` is currently armed.
    want_write: bool,
}

/// What `handle_frame` wants done with the connection afterwards.
enum FrameAction {
    Continue,
    /// Stop reading (Drain in progress); keep the write side open.
    ReadShut,
    /// Flush queued replies, then close (protocol misuse).
    Close,
}

fn reactor_loop(shared: Arc<Shared>, idx: usize, mut listener: Option<TcpListener>) {
    let mut poller = Poller::new().expect("create poller");
    poller
        .add(shared.reactors[idx].waker.fd(), TOKEN_WAKER, true, false)
        .expect("register waker");
    if let Some(l) = &listener {
        poller
            .add(l.as_raw_fd(), TOKEN_LISTENER, true, false)
            .expect("register listener");
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut last_reap = Instant::now();
    let mut stop_state: Option<(Instant, Instant)> = None; // (since, last_progress)

    loop {
        events.clear();
        let timeout = if stop_state.is_some() {
            Duration::from_millis(5)
        } else {
            Duration::from_millis(25)
        };
        if poller.wait(&mut events, timeout).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }

        // Cross-thread commands first: registrations and flush requests
        // raced the wake, and Kill must beat further queue growth.
        let cmds: Vec<Cmd> = {
            let mut g = shared.reactors[idx].cmds.lock().expect("cmds lock");
            std::mem::take(&mut *g)
        };
        for cmd in cmds {
            match cmd {
                Cmd::Register(id, stream, out) => {
                    if shared.stop.load(Ordering::Acquire) {
                        drop_unregistered(&shared, id, &stream);
                        continue;
                    }
                    let fd = stream.as_raw_fd();
                    if poller.add(fd, id, true, false).is_err() {
                        drop_unregistered(&shared, id, &stream);
                        continue;
                    }
                    conns.insert(
                        id,
                        Conn {
                            stream,
                            fd,
                            decoder: FrameDecoder::new(),
                            out,
                            last_read: Instant::now(),
                            read_shut: false,
                            close_after_flush: false,
                            want_write: false,
                        },
                    );
                    // Responses may have queued up before we adopted it.
                    flush_conn(&shared, &mut poller, &mut conns, id);
                }
                Cmd::Flush(id) => flush_conn(&shared, &mut poller, &mut conns, id),
                Cmd::Kill(id) => close_conn(&shared, &mut poller, &mut conns, id),
            }
        }

        for ev in events.drain(..) {
            match ev.token {
                TOKEN_WAKER => shared.reactors[idx].waker.drain(),
                TOKEN_LISTENER => {
                    if let Some(l) = &listener {
                        accept_ready(&shared, &mut poller, &mut conns, l, idx);
                    }
                }
                id => {
                    if ev.readable {
                        read_ready(&shared, &mut poller, &mut conns, id, &mut read_buf);
                    }
                    if ev.writable {
                        flush_conn(&shared, &mut poller, &mut conns, id);
                    }
                }
            }
        }

        // Slow-loris reap: connections stalled mid-frame past the read
        // deadline are closed; idle-between-frames connections are not.
        if last_reap.elapsed() >= Duration::from_millis(50) {
            last_reap = Instant::now();
            let deadline = shared.cfg.read_deadline;
            let stalled: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| {
                    !c.read_shut && c.decoder.mid_frame() && c.last_read.elapsed() > deadline
                })
                .map(|(&id, _)| id)
                .collect();
            for id in stalled {
                shared.reaped.fetch_add(1, Ordering::Relaxed);
                shared.metrics.reaped.inc();
                close_conn(&shared, &mut poller, &mut conns, id);
            }
        }

        // Stop path: refuse accepts, flush every queue, close as they
        // empty, bail out when done (or when progress stalls — a peer
        // that never reads cannot pin the shutdown).
        if shared.stop.load(Ordering::Acquire) {
            let now = Instant::now();
            if stop_state.is_none() {
                if let Some(l) = listener.take() {
                    let _ = poller.del(l.as_raw_fd());
                }
                stop_state = Some((now, now));
            }
            let backlog = |conns: &HashMap<u64, Conn>| {
                conns.len()
                    + conns
                        .values()
                        .map(|c| c.out.lock().expect("outbuf lock").bytes)
                        .sum::<usize>()
            };
            let before = backlog(&conns);
            let ids: Vec<u64> = conns.keys().copied().collect();
            for id in ids {
                if let Some(c) = conns.get_mut(&id) {
                    c.close_after_flush = true;
                }
                flush_conn(&shared, &mut poller, &mut conns, id);
            }
            if conns.is_empty() {
                return;
            }
            let after = backlog(&conns);
            let (since, last_progress) = stop_state.as_mut().expect("stop state set above");
            if after < before {
                *last_progress = now;
            }
            if now.duration_since(*last_progress) > Duration::from_secs(1)
                || now.duration_since(*since) > Duration::from_secs(5)
            {
                let ids: Vec<u64> = conns.keys().copied().collect();
                for id in ids {
                    close_conn(&shared, &mut poller, &mut conns, id);
                }
                return;
            }
        }
    }
}

/// A connection registered in `shared.conns` but never adopted by a
/// reactor (stop raced the handoff): undo the registration.
fn drop_unregistered(shared: &Arc<Shared>, id: u64, stream: &TcpStream) {
    shared.conns.lock().expect("conns lock").remove(&id);
    let _ = stream.shutdown(Shutdown::Both);
    shared.metrics.connections.add(-1.0);
}

fn accept_ready(
    shared: &Arc<Shared>,
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    listener: &TcpListener,
    idx: usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.draining.load(Ordering::Acquire) || shared.stop.load(Ordering::Acquire) {
                    // Drain refuses new connections outright.
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let stream = Arc::new(stream);
                let id = CONN_SEQ.fetch_add(1, Ordering::Relaxed);
                let out = Arc::new(Mutex::new(OutBuf::default()));
                let target = (id % shared.reactors.len() as u64) as usize;
                shared.conns.lock().expect("conns lock").insert(
                    id,
                    ConnHandle {
                        reactor: target,
                        out: Arc::clone(&out),
                        stream: Arc::clone(&stream),
                    },
                );
                shared.metrics.accepted.inc();
                shared.metrics.connections.add(1.0);
                if target == idx {
                    let fd = stream.as_raw_fd();
                    if poller.add(fd, id, true, false).is_err() {
                        drop_unregistered(shared, id, &stream);
                        continue;
                    }
                    conns.insert(
                        id,
                        Conn {
                            stream,
                            fd,
                            decoder: FrameDecoder::new(),
                            out,
                            last_read: Instant::now(),
                            read_shut: false,
                            close_after_flush: false,
                            want_write: false,
                        },
                    );
                } else {
                    shared.reactors[target].send(Cmd::Register(id, stream, out));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Services a readable connection: read until `WouldBlock` (bounded per
/// pass for fairness), feed the incremental decoder, handle each
/// completed frame.
fn read_ready(
    shared: &Arc<Shared>,
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    id: u64,
    read_buf: &mut [u8],
) {
    // 16 × 64 KiB per pass: one chatty peer cannot starve its reactor.
    const MAX_READS_PER_PASS: usize = 16;
    let mut eof = false;
    let mut fatal = false;
    for _ in 0..MAX_READS_PER_PASS {
        let Some(c) = conns.get_mut(&id) else { return };
        if c.read_shut {
            return;
        }
        let mut sock = &*c.stream;
        let n = match sock.read(read_buf) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                fatal = true;
                break;
            }
        };
        c.last_read = Instant::now();
        shared.metrics.bytes_rx.add(n as u64);
        let mut off = 0;
        while off < n {
            let c = match conns.get_mut(&id) {
                Some(c) => c,
                None => return, // closed mid-pass (e.g. backlog Kill raced)
            };
            if c.read_shut {
                return;
            }
            match c.decoder.feed(&read_buf[off..n]) {
                Ok((consumed, completed)) => {
                    off += consumed;
                    let Some((frame, mut trace, _bytes)) = completed else {
                        continue;
                    };
                    shared.metrics.frames_rx.inc();
                    // Trace context starts here: honor a client-supplied
                    // id, or mint one for untraced inference requests
                    // while recording.
                    if let Frame::InferRequest(ref req) = frame {
                        if trace == 0 && flight::recording() {
                            trace = flight::next_trace_id();
                        }
                        flight::wire_decoded(trace, req.deadline_micros);
                    }
                    match handle_frame(shared, id, frame, trace) {
                        FrameAction::Continue => {}
                        FrameAction::ReadShut => {
                            shut_read(poller, conns, id);
                            return;
                        }
                        FrameAction::Close => {
                            if let Some(c) = conns.get_mut(&id) {
                                c.close_after_flush = true;
                            }
                            shut_read(poller, conns, id);
                            flush_conn(shared, poller, conns, id);
                            return;
                        }
                    }
                }
                Err(_) => {
                    shared.metrics.decode_errors.inc();
                    close_conn(shared, poller, conns, id);
                    return;
                }
            }
        }
        if n < read_buf.len() {
            break; // socket likely drained; level-triggering re-reports
        }
    }
    if fatal {
        close_conn(shared, poller, conns, id);
        return;
    }
    if eof {
        // Peer half-closed (or hung up). Responses already queued still
        // go out; the socket closes once the queue empties. Read
        // interest must go away — EOF keeps an fd level-readable forever.
        let empty = match conns.get(&id) {
            Some(c) => c.out.lock().expect("outbuf lock").bytes == 0,
            None => return,
        };
        if empty {
            close_conn(shared, poller, conns, id);
        } else {
            if let Some(c) = conns.get_mut(&id) {
                c.close_after_flush = true;
            }
            shut_read(poller, conns, id);
        }
    }
}

/// Stops reading a connection (Drain, misuse, or peer EOF): marks it and
/// drops read interest so a level-triggered poller stops reporting it.
fn shut_read(poller: &mut Poller, conns: &mut HashMap<u64, Conn>, id: u64) {
    if let Some(c) = conns.get_mut(&id) {
        c.read_shut = true;
        let _ = poller.modify(c.fd, id, false, c.want_write);
    }
}

/// Writes a connection's queued output until `WouldBlock` or empty,
/// arming/disarming `EPOLLOUT` to match, resuming partial frames at the
/// recorded offset. Closes the connection on write failure or when a
/// requested close-after-flush completes.
fn flush_conn(shared: &Arc<Shared>, poller: &mut Poller, conns: &mut HashMap<u64, Conn>, id: u64) {
    let mut do_close = false;
    {
        let Some(c) = conns.get_mut(&id) else { return };
        let (failed, empty) = {
            let mut ob = c.out.lock().expect("outbuf lock");
            let r = write_queue(&shared.metrics, &mut ob, &c.stream);
            (matches!(r, WriteResult::Failed), ob.queue.is_empty())
        };
        if failed || (empty && c.close_after_flush) {
            do_close = true;
        } else if !empty && !c.want_write {
            c.want_write = true;
            let _ = poller.modify(c.fd, id, !c.read_shut, true);
        } else if empty && c.want_write {
            c.want_write = false;
            let _ = poller.modify(c.fd, id, !c.read_shut, false);
        }
    }
    if do_close {
        close_conn(shared, poller, conns, id);
    }
}

fn close_conn(shared: &Arc<Shared>, poller: &mut Poller, conns: &mut HashMap<u64, Conn>, id: u64) {
    let Some(c) = conns.remove(&id) else { return };
    let _ = poller.del(c.fd);
    c.out.lock().expect("outbuf lock").clear_dead();
    shared.conns.lock().expect("conns lock").remove(&id);
    let _ = c.stream.shutdown(Shutdown::Both);
    shared.metrics.connections.add(-1.0);
}

/// Handles one inbound frame; the returned action tells the reactor what
/// to do with the connection.
fn handle_frame(shared: &Arc<Shared>, conn: u64, frame: Frame, trace: u64) -> FrameAction {
    match frame {
        Frame::InferRequest(req) => {
            shared.metrics.requests.inc();
            if let Some(f) = place_request(shared, conn, req, trace) {
                shared.send_to(conn, f, trace);
            }
            FrameAction::Continue
        }
        Frame::HealthRequest => {
            shared.send_to(conn, shared.health_reply(), 0);
            FrameAction::Continue
        }
        Frame::MetricsRequest => {
            // Fold finished chains into the stage histograms first, so the
            // scrape sees flight-derived series that are current.
            flight::harvest();
            let text = ms_telemetry::global().render_prometheus();
            shared.send_to(conn, Frame::MetricsReply(text), 0);
            FrameAction::Continue
        }
        Frame::TraceDumpRequest => {
            flight::harvest();
            let json = flight::chrome_trace_json(&flight::retained());
            shared.send_to(conn, Frame::TraceDumpReply(json), 0);
            FrameAction::Continue
        }
        Frame::Drain => {
            // The drain gate blocks until every in-flight request is
            // answered — far too long to stall a reactor servicing other
            // connections' reads and writes. A one-shot thread runs the
            // gate, enqueues the ack (after all responses, FIFO per
            // connection), and only then raises stop.
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name("ms-net-drain".into())
                .spawn(move || {
                    let delivered = shared.drain_flush();
                    shared.send_to(conn, Frame::DrainAck { delivered }, 0);
                    shared.stop.store(true, Ordering::Release);
                    shared.wake_all();
                })
                .expect("spawn drain");
            FrameAction::ReadShut
        }
        // Server-to-client frames arriving at the server are protocol
        // misuse; drop the connection.
        Frame::InferResponse(_)
        | Frame::HealthReply(_)
        | Frame::MetricsReply(_)
        | Frame::TraceDumpReply(_)
        | Frame::DrainAck { .. } => {
            shared.metrics.decode_errors.inc();
            FrameAction::Close
        }
    }
}

/// Routes one request; returns the immediate reply frame when the request
/// was refused synchronously (otherwise the dispatcher answers later).
///
/// Synchronous refusals stamp the terminal `Shed` flight event *here* —
/// the router may have tried several replicas, so only this final arbiter
/// knows the request is truly refused.
fn place_request(shared: &Arc<Shared>, conn: u64, req: InferRequest, trace: u64) -> Option<Frame> {
    if shared.draining.load(Ordering::Acquire) || shared.stop.load(Ordering::Acquire) {
        flight::shed(trace, flight::ShedCause::Draining);
        return Some(shared.shed_frame(req.correlation_id, WireShedReason::Draining));
    }
    let dims: Vec<usize> = req.dims.iter().map(|&d| d as usize).collect();
    let input = match Tensor::from_vec(dims, req.data) {
        Ok(t) => t,
        // Unreachable for frames the decoder accepted; refuse defensively.
        Err(_) => {
            flight::shed(trace, flight::ShedCause::Backpressure);
            return Some(shared.shed_frame(req.correlation_id, WireShedReason::Backpressure));
        }
    };
    let deadline = if req.deadline_micros > 0 {
        Some(req.deadline_micros as f64 * 1e-6)
    } else {
        None
    };
    // Counted before placement so the drain gate can never observe zero
    // while a placed request still lacks its rendezvous entry.
    shared.in_flight.fetch_add(1, Ordering::AcqRel);
    // Reactor side of the rendezvous (module docs): the table stays locked
    // from before the engine sees the request until its entry is filed.
    let mut pending = shared.pending.lock().expect("pending lock");
    let routed = shared.router.route(EngineRequest {
        input,
        deadline,
        trace_id: trace,
    });
    match routed {
        Ok((replica, id)) => {
            let p = Pending {
                conn,
                correlation_id: req.correlation_id,
                t0: Instant::now(),
                deadline: deadline.unwrap_or_else(|| 2.0 * shared.router.engine(replica).window()),
                trace,
            };
            pending.insert((replica, id), p);
            None
        }
        Err(e) => {
            drop(pending);
            shared.in_flight.fetch_sub(1, Ordering::AcqRel);
            let (reason, cause) = match e {
                RouteError::Draining => (WireShedReason::Draining, flight::ShedCause::Draining),
                RouteError::Shed(ShedReason::Backpressure) => (
                    WireShedReason::Backpressure,
                    flight::ShedCause::Backpressure,
                ),
                RouteError::Shed(ShedReason::Stopping) => {
                    (WireShedReason::Stopping, flight::ShedCause::Stopping)
                }
            };
            flight::shed(trace, cause);
            Some(shared.shed_frame(req.correlation_id, reason))
        }
    }
}

/// Delivers every event from one `wait_events` call; returns how many.
fn sweep(shared: &Shared, replica: usize, engine: &Engine, timeout: Duration) -> usize {
    let (responses, shed) = engine.wait_events(timeout);
    let n = responses.len() + shed.len();
    for r in responses {
        shared.deliver(shared.take_pending(replica, r.id), Some(r));
    }
    for id in shed {
        shared.deliver(shared.take_pending(replica, id), None);
    }
    n
}

/// The replica's one thread: seals its batches on the interval and
/// delivers what the engine reports (module docs, "Threading model").
fn dispatcher_loop(shared: Arc<Shared>, replica: usize) {
    let engine = Arc::clone(shared.router.engine(replica));
    let interval = shared
        .cfg
        .seal_interval
        .unwrap_or_else(|| Duration::from_secs_f64(engine.window().max(1e-4)));
    let mut next_seal = Instant::now() + interval;
    loop {
        let stopping = shared.stop.load(Ordering::Acquire);
        if !stopping && Instant::now() >= next_seal {
            engine.seal();
            next_seal = Instant::now() + interval;
        }
        let wait = next_seal.saturating_duration_since(Instant::now());
        let delivered_now = sweep(&shared, replica, &engine, wait.min(DISPATCH_POLL));
        if stopping && delivered_now == 0 {
            // Stop was already set before this (empty) wait: flush whatever
            // the engine still holds, sweep once more, and exit.
            engine.seal();
            engine.drain();
            sweep(&shared, replica, &engine, Duration::from_millis(1));
            return;
        }
    }
}
