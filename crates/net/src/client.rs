//! Blocking and pipelined clients for the ms-net wire protocol.
//!
//! [`Client`] is strictly request/response: one frame out, wait for the
//! matching reply. [`PipelinedClient`] decouples the two halves — a
//! background reader thread collects responses while the caller keeps
//! submitting — which is what saturates a batching server: the engine
//! accumulates a whole `T/2` window of requests instead of one.
//!
//! Both clients are deliberately plain blocking sockets even though the
//! server side is a readiness reactor (DESIGN.md §14): the wire is
//! unchanged, and a blocking peer is the strictest exerciser of the
//! server's partial-read/partial-write handling.

use crate::protocol::{
    read_frame, write_frame, Frame, HealthReply, InferRequest, InferResponse, NetError, WireError,
};
use ms_tensor::Tensor;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

fn request_frame(correlation_id: u64, deadline_micros: u64, input: &Tensor) -> Frame {
    Frame::InferRequest(InferRequest {
        correlation_id,
        deadline_micros,
        dims: input.dims().iter().map(|&d| d as u32).collect(),
        data: input.data().to_vec(),
    })
}

/// Strictly request/response blocking client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a [`Server`](crate::server::Server).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
        })
    }

    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        write_frame(&mut self.writer, frame, 0)?;
        self.writer.flush().map_err(NetError::Io)
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        let (frame, _, _) = read_frame(&mut self.reader)?;
        Ok(frame)
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
        write_frame(
            &mut self.writer,
            &request_frame(correlation_id, deadline_micros, input),
            trace_id,
        )?;
        self.writer.flush().map_err(NetError::Io)?;
        loop {
            let (frame, trace, _) = read_frame(&mut self.reader)?;
            match frame {
                Frame::InferResponse(r) if r.correlation_id == correlation_id => {
                    return Ok((r, trace))
                }
                // Stale response from an earlier (abandoned) exchange.
                Frame::InferResponse(_) => continue,
                _ => {
                    return Err(NetError::Wire(WireError::Malformed(
                        "unexpected reply frame",
                    )))
                }
            }
        }
    }

    /// Fetches the server's replica health snapshot.
    pub fn health(&mut self) -> Result<HealthReply, NetError> {
        self.send(&Frame::HealthRequest)?;
        loop {
            match self.recv()? {
                Frame::HealthReply(h) => return Ok(h),
                Frame::InferResponse(_) => continue,
                _ => {
                    return Err(NetError::Wire(WireError::Malformed(
                        "unexpected reply frame",
                    )))
                }
            }
        }
    }

    /// Fetches the Prometheus text exposition of the server's registry.
    pub fn metrics(&mut self) -> Result<String, NetError> {
        self.send(&Frame::MetricsRequest)?;
        loop {
            match self.recv()? {
                Frame::MetricsReply(text) => return Ok(text),
                Frame::InferResponse(_) => continue,
                _ => {
                    return Err(NetError::Wire(WireError::Malformed(
                        "unexpected reply frame",
                    )))
                }
            }
        }
    }

    /// Fetches the server's flight-recorder dump as Chrome trace-event
    /// JSON (load it in `chrome://tracing` or Perfetto).
    pub fn trace_dump(&mut self) -> Result<String, NetError> {
        self.send(&Frame::TraceDumpRequest)?;
        loop {
            match self.recv()? {
                Frame::TraceDumpReply(json) => return Ok(json),
                Frame::InferResponse(_) => continue,
                _ => {
                    return Err(NetError::Wire(WireError::Malformed(
                        "unexpected reply frame",
                    )))
                }
            }
        }
    }

    /// Initiates a graceful drain and blocks for the `DrainAck`. Responses
    /// to this connection's still-in-flight requests arrive first (the
    /// server orders them before the ack); they are returned alongside the
    /// server's lifetime delivered count.
    pub fn drain(mut self) -> Result<(Vec<InferResponse>, u64), NetError> {
        self.send(&Frame::Drain)?;
        let mut flushed = Vec::new();
        loop {
            match self.recv()? {
                Frame::InferResponse(r) => flushed.push(r),
                Frame::DrainAck { delivered } => return Ok((flushed, delivered)),
                _ => {
                    return Err(NetError::Wire(WireError::Malformed(
                        "unexpected reply frame",
                    )))
                }
            }
        }
    }
}

/// Frames a pipelined client's reader thread forwards out-of-band.
enum Control {
    Health(HealthReply),
    Metrics(String),
    TraceDump(String),
    DrainAck(u64),
}

/// Pipelined client: submit without waiting; a reader thread collects
/// responses concurrently. Responses carry correlation ids, so arrival
/// order (batch completion order) need not match submission order.
pub struct PipelinedClient {
    writer: BufWriter<TcpStream>,
    stream: TcpStream,
    responses: Receiver<(InferResponse, u64)>,
    control: Receiver<Control>,
    reader: Option<JoinHandle<()>>,
}

impl PipelinedClient {
    /// Connects and starts the background reader.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<PipelinedClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let write_half = stream.try_clone()?;
        let (resp_tx, resp_rx) = mpsc::channel();
        let (ctrl_tx, ctrl_rx) = mpsc::channel();
        let reader = std::thread::Builder::new()
            .name("ms-net-client-read".into())
            .spawn(move || {
                let mut r = BufReader::new(read_half);
                loop {
                    match read_frame(&mut r) {
                        Ok((Frame::InferResponse(resp), trace, _)) => {
                            if resp_tx.send((resp, trace)).is_err() {
                                break;
                            }
                        }
                        Ok((Frame::HealthReply(h), _, _)) => {
                            let _ = ctrl_tx.send(Control::Health(h));
                        }
                        Ok((Frame::MetricsReply(m), _, _)) => {
                            let _ = ctrl_tx.send(Control::Metrics(m));
                        }
                        Ok((Frame::TraceDumpReply(j), _, _)) => {
                            let _ = ctrl_tx.send(Control::TraceDump(j));
                        }
                        Ok((Frame::DrainAck { delivered }, _, _)) => {
                            let _ = ctrl_tx.send(Control::DrainAck(delivered));
                        }
                        Ok(_) => break,  // client-to-server frame: protocol misuse
                        Err(_) => break, // EOF, socket closed, or corrupt stream
                    }
                }
            })?;
        Ok(PipelinedClient {
            writer: BufWriter::new(write_half),
            stream,
            responses: resp_rx,
            control: ctrl_rx,
            reader: Some(reader),
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
        write_frame(
            &mut self.writer,
            &request_frame(correlation_id, deadline_micros, input),
            trace_id,
        )?;
        Ok(())
    }

    /// Pushes all queued requests to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Next available response, in arrival order; `None` on timeout or
    /// when the connection died with nothing buffered.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<InferResponse> {
        self.recv_traced_timeout(timeout).map(|(r, _)| r)
    }

    /// [`PipelinedClient::recv_timeout`] that also yields the trace id the
    /// response frame carried (0 = untraced).
    pub fn recv_traced_timeout(&self, timeout: Duration) -> Option<(InferResponse, u64)> {
        match self.responses.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Requests a health snapshot and waits for it.
    pub fn health(&mut self, timeout: Duration) -> Result<HealthReply, NetError> {
        write_frame(&mut self.writer, &Frame::HealthRequest, 0)?;
        self.flush().map_err(NetError::Io)?;
        match self.control.recv_timeout(timeout) {
            Ok(Control::Health(h)) => Ok(h),
            _ => Err(NetError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "no health reply",
            ))),
        }
    }

    /// Requests the Prometheus exposition and waits for it.
    pub fn metrics(&mut self, timeout: Duration) -> Result<String, NetError> {
        write_frame(&mut self.writer, &Frame::MetricsRequest, 0)?;
        self.flush().map_err(NetError::Io)?;
        match self.control.recv_timeout(timeout) {
            Ok(Control::Metrics(m)) => Ok(m),
            _ => Err(NetError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "no metrics reply",
            ))),
        }
    }

    /// Requests the server's flight-recorder dump (Chrome trace-event
    /// JSON) and waits for it.
    pub fn trace_dump(&mut self, timeout: Duration) -> Result<String, NetError> {
        write_frame(&mut self.writer, &Frame::TraceDumpRequest, 0)?;
        self.flush().map_err(NetError::Io)?;
        match self.control.recv_timeout(timeout) {
            Ok(Control::TraceDump(j)) => Ok(j),
            _ => Err(NetError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "no trace dump reply",
            ))),
        }
    }

    /// Initiates a graceful server drain and waits for the ack. In-flight
    /// responses keep landing on [`recv_timeout`](Self::recv_timeout) until
    /// the ack arrives (the server orders them before it). Returns the
    /// server's lifetime delivered count.
    pub fn drain_server(&mut self, timeout: Duration) -> Result<u64, NetError> {
        write_frame(&mut self.writer, &Frame::Drain, 0)?;
        self.flush().map_err(NetError::Io)?;
        match self.control.recv_timeout(timeout) {
            Ok(Control::DrainAck(delivered)) => Ok(delivered),
            _ => Err(NetError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "no drain ack",
            ))),
        }
    }
}

impl Drop for PipelinedClient {
    fn drop(&mut self) {
        let _ = self.writer.flush();
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}
