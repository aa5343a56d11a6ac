//! Clients for the ms-net wire protocol, over one framed connection.
//!
//! [`Connection`] is a socket split into a buffered reader half and a
//! buffered writer half (two fds). [`Client`] reads it synchronously:
//! strict request/response. [`PipelinedClient`] runs its reader loop on a
//! thread, so the caller keeps submitting while responses land, which is
//! what saturates a batching server: the engine accumulates a whole `T/2`
//! window of requests instead of one. The cluster's front router runs the
//! same loop per shard.
//!
//! All stay plain blocking sockets even though the server side is a
//! readiness reactor (DESIGN.md §14): the wire is unchanged, and a
//! blocking peer is the strictest exerciser of the server's
//! partial-read/partial-write handling.

use crate::protocol::{
    read_frame, write_frame, Frame, HealthReply, InferRequest, InferResponse, NetError, WireError,
};
use ms_tensor::Tensor;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::Duration;

/// The request frame for one inference of `input`.
pub fn request_frame(correlation_id: u64, deadline_micros: u64, input: &Tensor) -> Frame {
    Frame::InferRequest(InferRequest {
        correlation_id,
        deadline_micros,
        dims: input.dims().iter().map(|&d| d as u32).collect(),
        data: input.data().to_vec(),
    })
}

/// One framed client socket: two fds, a buffered reader half and a
/// buffered writer half. Dropping it flushes, shuts the socket down
/// through the writer half and joins the reader thread, if one runs.
pub struct Connection {
    /// `None` once [`spawn_reader`](Self::spawn_reader) moved it to a thread.
    reader: Option<BufReader<TcpStream>>,
    writer: BufWriter<TcpStream>,
    thread: Option<JoinHandle<()>>,
}

impl Connection {
    /// Connects with Nagle off and splits the socket into its two halves.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(Connection {
            reader: Some(BufReader::new(stream)),
            writer: BufWriter::new(write_half),
            thread: None,
        })
    }

    /// Queues one frame (buffered; [`flush`](Self::flush) pushes it).
    pub fn send(&mut self, frame: &Frame, trace_id: u64) -> io::Result<()> {
        write_frame(&mut self.writer, frame, trace_id).map(drop)
    }

    /// Pushes every queued frame to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Blocks for the next server frame and the trace id it carried.
    /// Panics once the reader half runs on a thread.
    pub fn recv(&mut self) -> Result<(Frame, u64), NetError> {
        let reader = self
            .reader
            .as_mut()
            .expect("recv: the reader runs on a thread");
        let (frame, trace, _) = read_frame(reader)?;
        Ok((frame, trace))
    }

    /// Moves the reader half onto a thread named `name`. It calls
    /// `on_frame(Some((frame, trace_id)))` for every frame in arrival
    /// order until the stream ends (EOF, reset, corrupt bytes) or the
    /// closure returns `false`, then `on_frame(None)` exactly once.
    pub fn spawn_reader(
        &mut self,
        name: String,
        mut on_frame: impl FnMut(Option<(Frame, u64)>) -> bool + Send + 'static,
    ) -> io::Result<()> {
        let mut reader = self.reader.take().expect("spawn_reader: called twice");
        let thread = std::thread::Builder::new().name(name).spawn(move || {
            while let Ok((frame, trace, _)) = read_frame(&mut reader) {
                if !on_frame(Some((frame, trace))) {
                    break;
                }
            }
            on_frame(None);
        })?;
        self.thread = Some(thread);
        Ok(())
    }

    /// Shuts the socket down both ways; a reader thread sees the end of
    /// its stream. Does not wait for it.
    pub fn shutdown(&self) {
        let _ = self.writer.get_ref().shutdown(Shutdown::Both);
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        let _ = self.writer.flush();
        self.shutdown();
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

/// Strictly request/response blocking client.
pub struct Client {
    conn: Connection,
}

impl Client {
    /// Connects to a [`Server`](crate::server::Server).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Connection::connect(addr).map(|conn| Client { conn })
    }

    /// Sends `frame` and reads until `reply` takes a frame. An
    /// `InferResponse` it leaves is a stale answer to an earlier
    /// (abandoned) exchange and is skipped; any other frame it leaves is
    /// a protocol error.
    fn exchange<T>(
        &mut self,
        frame: &Frame,
        trace_id: u64,
        mut reply: impl FnMut(Frame, u64) -> Option<T>,
    ) -> Result<T, NetError> {
        self.conn.send(frame, trace_id)?;
        self.conn.flush()?;
        loop {
            let (frame, trace) = self.conn.recv()?;
            let stale = matches!(frame, Frame::InferResponse(_));
            if let Some(t) = reply(frame, trace) {
                return Ok(t);
            }
            if !stale {
                return Err(NetError::Wire(WireError::Malformed(
                    "unexpected reply frame",
                )));
            }
        }
    }

    /// Submits one request and blocks for its response.
    /// `deadline_micros = 0` uses the server's profile default.
    pub fn infer(
        &mut self,
        correlation_id: u64,
        deadline_micros: u64,
        input: &Tensor,
    ) -> Result<InferResponse, NetError> {
        self.infer_traced(correlation_id, deadline_micros, input, 0)
            .map(|(r, _)| r)
    }

    /// [`Client::infer`] with an explicit flight-recorder trace context.
    /// Returns the response together with the trace id its frame carried
    /// back (the server echoes the request's id, minting one if the
    /// recorder is on and `trace_id` was 0).
    pub fn infer_traced(
        &mut self,
        correlation_id: u64,
        deadline_micros: u64,
        input: &Tensor,
        trace_id: u64,
    ) -> Result<(InferResponse, u64), NetError> {
        let frame = request_frame(correlation_id, deadline_micros, input);
        self.exchange(&frame, trace_id, |f, trace| match f {
            Frame::InferResponse(r) if r.correlation_id == correlation_id => Some((r, trace)),
            _ => None,
        })
    }

    /// Fetches the server's replica health snapshot.
    pub fn health(&mut self) -> Result<HealthReply, NetError> {
        self.exchange(&Frame::HealthRequest, 0, |f, _| match f {
            Frame::HealthReply(h) => Some(h),
            _ => None,
        })
    }

    /// Fetches the Prometheus text exposition of the server's registry.
    pub fn metrics(&mut self) -> Result<String, NetError> {
        self.exchange(&Frame::MetricsRequest, 0, |f, _| match f {
            Frame::MetricsReply(text) => Some(text),
            _ => None,
        })
    }

    /// Fetches the server's flight-recorder dump as Chrome trace-event
    /// JSON (load it in `chrome://tracing` or Perfetto).
    pub fn trace_dump(&mut self) -> Result<String, NetError> {
        self.exchange(&Frame::TraceDumpRequest, 0, |f, _| match f {
            Frame::TraceDumpReply(json) => Some(json),
            _ => None,
        })
    }

    /// Initiates a graceful drain and blocks for the `DrainAck`. Responses
    /// to this connection's still-in-flight requests arrive first (the
    /// server orders them before the ack); they are returned alongside the
    /// server's lifetime delivered count.
    pub fn drain(mut self) -> Result<(Vec<InferResponse>, u64), NetError> {
        let mut flushed = Vec::new();
        let delivered = self.exchange(&Frame::Drain, 0, |f, _| match f {
            Frame::InferResponse(r) => {
                flushed.push(r);
                None
            }
            Frame::DrainAck { delivered } => Some(delivered),
            _ => None,
        })?;
        Ok((flushed, delivered))
    }
}

/// Pipelined client: submit without waiting; the connection's reader
/// thread collects responses concurrently. Responses carry correlation
/// ids, so arrival order (batch completion order) need not match
/// submission order.
pub struct PipelinedClient {
    conn: Connection,
    responses: Receiver<(InferResponse, u64)>,
    /// Every other server frame: health, metrics, trace-dump replies and
    /// the drain ack.
    control: Receiver<Frame>,
}

impl PipelinedClient {
    /// Connects and starts the background reader.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<PipelinedClient> {
        let mut conn = Connection::connect(addr)?;
        let (resp_tx, responses) = mpsc::channel();
        let (ctrl_tx, control) = mpsc::channel();
        conn.spawn_reader("ms-net-client-read".into(), move |frame| match frame {
            Some((Frame::InferResponse(resp), trace)) => resp_tx.send((resp, trace)).is_ok(),
            // Health, metrics and trace-dump replies and the drain ack; the
            // caller waiting for one rejects any other frame.
            Some((frame, _)) => ctrl_tx.send(frame).is_ok(),
            None => false,
        })?;
        Ok(PipelinedClient {
            conn,
            responses,
            control,
        })
    }

    /// Queues one request (buffered; call [`flush`](Self::flush) to push).
    pub fn send(
        &mut self,
        correlation_id: u64,
        deadline_micros: u64,
        input: &Tensor,
    ) -> Result<(), NetError> {
        self.send_traced(correlation_id, deadline_micros, input, 0)
    }

    /// [`PipelinedClient::send`] with an explicit flight-recorder trace
    /// context (`0` = untraced).
    pub fn send_traced(
        &mut self,
        correlation_id: u64,
        deadline_micros: u64,
        input: &Tensor,
        trace_id: u64,
    ) -> Result<(), NetError> {
        let frame = request_frame(correlation_id, deadline_micros, input);
        Ok(self.conn.send(&frame, trace_id)?)
    }

    /// Pushes all queued requests to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        self.conn.flush()
    }

    /// Next available response, in arrival order; `None` on timeout or
    /// when the connection died with nothing buffered.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<InferResponse> {
        self.recv_traced_timeout(timeout).map(|(r, _)| r)
    }

    /// [`PipelinedClient::recv_timeout`] that also yields the trace id the
    /// response frame carried (0 = untraced).
    pub fn recv_traced_timeout(&self, timeout: Duration) -> Option<(InferResponse, u64)> {
        self.responses.recv_timeout(timeout).ok()
    }

    /// Sends a control frame and waits up to `timeout` for the next
    /// control reply.
    fn control(&mut self, frame: &Frame, timeout: Duration) -> Result<Option<Frame>, NetError> {
        self.conn.send(frame, 0)?;
        self.conn.flush()?;
        Ok(self.control.recv_timeout(timeout).ok())
    }

    /// Requests a health snapshot and waits for it.
    pub fn health(&mut self, timeout: Duration) -> Result<HealthReply, NetError> {
        match self.control(&Frame::HealthRequest, timeout)? {
            Some(Frame::HealthReply(h)) => Ok(h),
            _ => Err(timed_out("no health reply")),
        }
    }

    /// Requests the Prometheus exposition and waits for it.
    pub fn metrics(&mut self, timeout: Duration) -> Result<String, NetError> {
        match self.control(&Frame::MetricsRequest, timeout)? {
            Some(Frame::MetricsReply(m)) => Ok(m),
            _ => Err(timed_out("no metrics reply")),
        }
    }

    /// Requests the server's flight-recorder dump (Chrome trace-event
    /// JSON) and waits for it.
    pub fn trace_dump(&mut self, timeout: Duration) -> Result<String, NetError> {
        match self.control(&Frame::TraceDumpRequest, timeout)? {
            Some(Frame::TraceDumpReply(j)) => Ok(j),
            _ => Err(timed_out("no trace dump reply")),
        }
    }

    /// Initiates a graceful server drain and waits for the ack. In-flight
    /// responses keep landing on [`recv_timeout`](Self::recv_timeout) until
    /// the ack arrives (the server orders them before it). Returns the
    /// server's lifetime delivered count.
    pub fn drain_server(&mut self, timeout: Duration) -> Result<u64, NetError> {
        match self.control(&Frame::Drain, timeout)? {
            Some(Frame::DrainAck { delivered }) => Ok(delivered),
            _ => Err(timed_out("no drain ack")),
        }
    }
}

fn timed_out(what: &'static str) -> NetError {
    NetError::Io(io::Error::new(io::ErrorKind::TimedOut, what))
}
