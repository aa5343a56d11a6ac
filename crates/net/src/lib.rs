//! # ms-net — serving model slicing over the network
//!
//! The network front-end for the elastic inference engine: a
//! length-prefixed, checksummed binary wire protocol, an epoll readiness
//! reactor serving tens of thousands of concurrent connections, blocking
//! and pipelined clients, and a deadline-aware router that shards
//! requests across engine replicas by health score. Std-only — sockets
//! and threads from the standard library plus thin libc FFI for
//! `epoll`/`eventfd` (see [`sys`]); no async runtime, no external
//! dependencies.
//!
//! The stack, bottom to top:
//!
//! - [`sys`] — minimal level-triggered readiness polling: `epoll` on
//!   Linux, POSIX `poll` elsewhere, plus an `eventfd`/pipe [`sys::Waker`]
//!   for cross-thread wakeups and a `RLIMIT_NOFILE` helper for
//!   high-connection-count runs.
//! - [`protocol`] — versioned frames ([`Frame`]) with an FNV-1a checksum
//!   over header and payload; decoding rejects malformed bytes with a
//!   [`WireError`], never a panic. Every frame carries an 8-byte
//!   flight-recorder trace id in its fixed header (0 = untraced), and a
//!   frame of any other version than this build's is refused.
//!   [`FrameDecoder`] is the incremental entry point for non-blocking
//!   streams: feed it whatever bytes arrived, get complete frames out; it
//!   never over-reads, and it runs the same header check and body parse
//!   as the buffer decoder, so both reach the same verdict.
//! - [`router`] — [`Router`] places each request on the healthiest of N
//!   [`Engine`](ms_serving::engine::Engine) replicas
//!   (`score = queue_depth + W·p99/window`), failing over on
//!   backpressure and excluding draining replicas outright.
//! - [`server`] — [`Server`] runs a small reactor pool: per-connection
//!   read/write state machines over non-blocking sockets, bounded output
//!   queues with backpressure shedding, a slow-loris read deadline, and
//!   per-request wire deadlines forwarded as [`SlaController`](ms_serving::SlaController)
//!   budget overrides. One dispatcher thread per replica
//!   seals its batches and turns engine completions into responses
//!   matched by correlation id. `Drain` runs the graceful
//!   shutdown state machine: refuse new work, flush every in-flight
//!   request, ack, stop.
//! - [`client`] — one framed connection ([`client::Connection`]: two
//!   fds, a buffered reader and writer half) under every client side of
//!   the wire. [`Client`] runs it synchronously (strict
//!   request/response); [`PipelinedClient`] runs its one reader loop on a
//!   thread and keeps the server's batching window full; the cluster's
//!   front router runs the same loop per shard. All stay blocking: simple
//!   client code, reactor-grade server.
//!
//! ## Loopback in five lines
//!
//! ```no_run
//! # use ms_net::{Server, ServerConfig, Router, Client};
//! # fn demo(engines: Vec<ms_serving::engine::Engine>, input: ms_tensor::Tensor) {
//! let server = Server::start("127.0.0.1:0", Router::new(engines), ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let response = client.infer(7, 2_000, &input).unwrap(); // 2 ms deadline
//! let (_flushed, _delivered) = client.drain().unwrap();    // graceful shutdown
//! # let _ = response;
//! # }
//! ```

pub mod client;
pub mod protocol;
pub mod router;
pub mod server;
pub mod sys;

pub use client::{Client, PipelinedClient};
pub use protocol::{
    Frame, FrameDecoder, HealthReply, InferOutcome, InferRequest, InferResponse, NetError,
    ReplicaHealth, ShardIdentity, SloHealth, WireError, WireShedReason,
};
pub use router::{RouteError, Router, RouterConfig};
pub use server::{Server, ServerConfig};
