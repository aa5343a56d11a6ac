//! The cluster front router: fans requests out across live shards and
//! hard-fails-over when a shard dies mid-request.
//!
//! One [`Connection`] per shard, its reader loop on a thread turning each
//! response into a `Resp` event and the end of the stream (EOF, RST,
//! corrupt bytes: reported once) into one `Down` event, onto a single
//! mpsc the router drains. Connections carry a monotonically increasing
//! token so an event from a dead incarnation can never be confused with
//! its restarted successor under the same shard id.
//!
//! Orphan policy: a correlation id that was in flight on a dead shard is
//! settled **client-side** with a synthesized
//! `Shed(WireShedReason::Failover)` response rather than silently
//! re-dispatched. Re-execution can double-serve (the dying shard may
//! have computed and even transmitted the answer) and makes deadline
//! accounting ambiguous; an explicit distinct shed cause keeps every id
//! accounted for — delivered or shed, never lost, never twice (a late
//! response to an id already shed is dropped) — which is the invariant
//! the cluster e2e asserts. Callers who want re-execution can resubmit
//! under a fresh id on seeing the cause.

use ms_net::client::{request_frame, Connection};
use ms_net::protocol::{Frame, InferOutcome, InferResponse, WireShedReason};
use ms_tensor::Tensor;
use std::collections::HashSet;
use std::io;
use std::net::SocketAddr;
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

enum Event {
    /// A response arrived on connection `token`.
    Resp(u64, InferResponse),
    /// Connection `token` died (EOF, reset, or corrupt stream).
    Down(u64),
}

struct ConnState {
    token: u64,
    shard_id: u32,
    conn: Connection,
    /// Correlation ids dispatched here and not yet settled.
    outstanding: HashSet<u64>,
    alive: bool,
    /// Cleared before a shard is drained so no new work lands on it.
    accepting: bool,
}

/// Fans requests across shard connections; synthesizes `Failover` sheds
/// for requests orphaned by a shard death.
pub struct FrontRouter {
    conns: Vec<ConnState>,
    tx: Sender<Event>,
    rx: Receiver<Event>,
    next_token: u64,
    /// Settled responses not yet handed to the caller (synthesized sheds
    /// land here between pumps).
    pending: Vec<InferResponse>,
    failover_sheds: ms_telemetry::Counter,
}

impl FrontRouter {
    pub fn new() -> Self {
        let (tx, rx) = mpsc::channel();
        FrontRouter {
            conns: Vec::new(),
            tx,
            rx,
            next_token: 0,
            pending: Vec::new(),
            failover_sheds: ms_telemetry::global().counter(
                "cluster_failover_sheds_total",
                "requests settled as Shed(Failover) after a shard died mid-flight",
            ),
        }
    }

    /// Connects to a shard and starts its reader thread.
    pub fn add_shard(
        &mut self,
        shard_id: u32,
        generation: u32,
        addr: SocketAddr,
    ) -> io::Result<()> {
        let mut conn = Connection::connect(addr)?;
        let token = self.next_token;
        self.next_token += 1;
        let tx = self.tx.clone();
        // Generation in the thread name: `Down` races across a restart are
        // disambiguated by token, but a stack trace should still say which
        // incarnation it watched.
        let name = format!("ms-cluster-front-{shard_id}g{generation}");
        conn.spawn_reader(name, move |frame| match frame {
            Some((Frame::InferResponse(resp), _)) => tx.send(Event::Resp(token, resp)).is_ok(),
            Some(_) => true, // health/drain traffic: not ours
            None => {
                let _ = tx.send(Event::Down(token));
                false
            }
        })?;
        self.conns.push(ConnState {
            token,
            shard_id,
            conn,
            outstanding: HashSet::new(),
            alive: true,
            accepting: true,
        });
        Ok(())
    }

    /// Stops routing new work to a shard (called before the supervisor
    /// drains it; in-flight responses still arrive and settle normally).
    pub fn stop_accepting(&mut self, shard_id: u32) {
        for c in &mut self.conns {
            if c.shard_id == shard_id {
                c.accepting = false;
            }
        }
    }

    /// Drops a shard's connection(s), settling anything still
    /// outstanding as `Failover` sheds. Call after the shard process has
    /// exited (retired or crashed-and-being-replaced).
    pub fn remove_shard(&mut self, shard_id: u32) {
        let tokens: Vec<u64> = self
            .conns
            .iter()
            .filter(|c| c.shard_id == shard_id)
            .map(|c| c.token)
            .collect();
        for t in tokens {
            self.mark_down(t);
        }
        // Dropping a connection joins its reader thread.
        self.conns.retain(|c| c.shard_id != shard_id);
    }

    /// Live, accepting shard count.
    pub fn live_shards(&self) -> usize {
        self.conns.iter().filter(|c| c.alive && c.accepting).count()
    }

    /// Correlation ids currently in flight across all connections.
    pub fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.outstanding.len()).sum()
    }

    /// Dispatches one request to the live accepting shard with the
    /// fewest outstanding requests (join-shortest-queue). A connection
    /// that fails at write time is declared down on the spot — its
    /// orphans become `Failover` sheds — and the dispatch retries the
    /// remaining shards. Returns `Some(shed)` only when *no* live shard
    /// could accept, so the request still settles instead of being lost.
    pub fn dispatch(
        &mut self,
        correlation_id: u64,
        deadline_micros: u64,
        input: &Tensor,
    ) -> Option<InferResponse> {
        let frame = request_frame(correlation_id, deadline_micros, input);
        loop {
            let best = self
                .conns
                .iter_mut()
                .filter(|c| c.alive && c.accepting)
                .min_by_key(|c| c.outstanding.len());
            let Some(c) = best else {
                self.failover_sheds.inc();
                return Some(failover_shed(correlation_id));
            };
            if c.conn.send(&frame, 0).is_ok() {
                c.outstanding.insert(correlation_id);
                return None;
            }
            let token = c.token;
            self.mark_down(token); // then retry the remaining shards
        }
    }

    /// Pushes buffered frames on every live connection.
    pub fn flush(&mut self) {
        let mut dead = Vec::new();
        for c in &mut self.conns {
            if c.alive && c.conn.flush().is_err() {
                dead.push(c.token);
            }
        }
        for t in dead {
            self.mark_down(t);
        }
    }

    /// Collects settled responses: everything already synthesized plus
    /// events arriving within `timeout`. With `timeout` zero this only
    /// drains what is immediately available.
    pub fn pump(&mut self, timeout: Duration) -> Vec<InferResponse> {
        let mut out = std::mem::take(&mut self.pending);
        let deadline = Instant::now() + timeout;
        loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            let ev = if out.is_empty() && !wait.is_zero() {
                match self.rx.recv_timeout(wait) {
                    Ok(e) => e,
                    Err(_) => break,
                }
            } else {
                match self.rx.try_recv() {
                    Ok(e) => e,
                    Err(_) => break,
                }
            };
            match ev {
                Event::Resp(token, resp) => {
                    // An id already settled as a failover shed stays settled.
                    let open = self.conns.iter_mut().find(|c| c.token == token);
                    if open.is_some_and(|c| c.outstanding.remove(&resp.correlation_id)) {
                        out.push(resp);
                    }
                }
                Event::Down(token) => self.mark_down(token),
            }
        }
        out.extend(std::mem::take(&mut self.pending));
        out
    }

    /// Declares a connection dead and settles its orphans as `Failover`
    /// sheds. Idempotent: the reader's `Down` event after a write-error
    /// declaration is a no-op.
    fn mark_down(&mut self, token: u64) {
        let Some(c) = self.conns.iter_mut().find(|c| c.token == token) else {
            return;
        };
        if !c.alive {
            return;
        }
        c.alive = false;
        c.accepting = false;
        c.conn.shutdown();
        let orphans: Vec<u64> = c.outstanding.drain().collect();
        self.failover_sheds.add(orphans.len() as u64);
        self.pending.extend(orphans.into_iter().map(failover_shed));
    }
}

impl Default for FrontRouter {
    fn default() -> Self {
        Self::new()
    }
}

/// The synthesized client-side settlement for an orphaned request.
fn failover_shed(correlation_id: u64) -> InferResponse {
    InferResponse {
        correlation_id,
        rate_used: 0.0,
        outcome: InferOutcome::Shed(WireShedReason::Failover),
    }
}
