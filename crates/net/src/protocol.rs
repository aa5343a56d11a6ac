//! The length-prefixed binary wire protocol.
//!
//! Every message is one **frame**: a fixed 24-byte header followed by a
//! type-specific payload. All integers are little-endian; floats travel as
//! their IEEE-754 bit patterns (`to_le_bytes` of the bits), so a round trip
//! is bitwise lossless — the property the soak test's logits comparison
//! depends on.
//!
//! ```text
//! offset  size  field
//!      0     4  magic     0x4D534E46 ("MSNF")
//!      4     2  version   3
//!      6     2  type      frame type tag (see the `ty` constants)
//!      8     4  length    payload bytes (≤ 64 MiB)
//!     12     4  checksum  FNV-1a/32 over bytes [4..12) ++ [16..end)
//!     16     8  trace_id  flight-recorder trace context (0 = untraced)
//!     24     …  payload
//! ```
//!
//! There is one version. Every peer of the protocol is built from this
//! tree, so a frame stamped with any other version is refused by its
//! header instead of being parsed under a guessed layout.
//!
//! The checksum covers the version/type/length fields, the trace id and
//! the payload, so *any* single corrupted byte is rejected: a flipped type
//! tag cannot reinterpret a valid payload as a different frame kind.
//! Decoding is total: malformed input of every sort (truncated, oversized,
//! bit-flipped, structurally invalid) returns a [`WireError`], never
//! panics, and never allocates more than the declared-and-validated
//! payload length.
//!
//! Every entry point — [`Frame::decode_traced`] over a slice,
//! [`read_frame`] over a `Read`, [`FrameDecoder::feed`] over whatever
//! chunks arrive — runs the same two steps: one header check (magic,
//! version, type, declared length against the cap) before anything is
//! allocated for the payload, then one body parse (checksum, payload)
//! over the complete frame.

use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: `"MSNF"` as a little-endian u32.
pub const MAGIC: u32 = 0x464E_534D;
/// The protocol version; frames stamped with any other are refused.
pub const VERSION: u16 = 3;
/// Fixed header bytes, trace id included.
pub const HEADER_LEN: usize = 24;
/// Hard cap on the payload length a peer may declare.
pub const MAX_PAYLOAD: u32 = 64 << 20;
/// Hard cap on tensor rank in a frame.
pub const MAX_DIMS: usize = 8;
/// Hard cap on tensor elements in a frame (64 Mi floats would already
/// exceed `MAX_PAYLOAD`; this bounds the shape arithmetic itself).
pub const MAX_NUMEL: u64 = 1 << 24;

/// Frame type tags (the `type` header field).
pub mod ty {
    pub const INFER_REQUEST: u16 = 1;
    pub const INFER_RESPONSE: u16 = 2;
    pub const HEALTH_REQUEST: u16 = 3;
    pub const HEALTH_REPLY: u16 = 4;
    pub const METRICS_REQUEST: u16 = 5;
    pub const METRICS_REPLY: u16 = 6;
    pub const DRAIN: u16 = 7;
    pub const DRAIN_ACK: u16 = 8;
    pub const TRACE_DUMP_REQUEST: u16 = 9;
    pub const TRACE_DUMP_REPLY: u16 = 10;
}

/// Why a frame failed to decode. Every variant is a rejection, not a crash:
/// the decoder is total over arbitrary bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes are not the protocol magic.
    BadMagic,
    /// The version field is not [`VERSION`].
    UnsupportedVersion(u16),
    /// The type field names no known frame kind.
    UnknownType(u16),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The buffer ends before the declared payload does (or mid-header).
    Truncated,
    /// Bytes follow the declared payload.
    TrailingBytes,
    /// The FNV-1a checksum does not match — corruption in flight.
    ChecksumMismatch,
    /// The payload parsed but violates the frame's structural rules.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            WireError::Oversized(n) => write!(f, "declared payload of {n} bytes exceeds cap"),
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::TrailingBytes => write!(f, "bytes after the declared payload"),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A transport-or-protocol failure on a framed stream.
#[derive(Debug)]
pub enum NetError {
    /// The bytes arrived but do not form a valid frame.
    Wire(WireError),
    /// The socket failed (includes clean EOF as `UnexpectedEof`).
    Io(io::Error),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Why the server refused to answer a request with logits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireShedReason {
    /// The chosen engine's admission queue was full (synchronous refusal).
    Backpressure,
    /// Admission control shed the request at seal time: even the narrowest
    /// subnet could not serve the whole batch within its budget.
    Admission,
    /// The engine is shutting down.
    Stopping,
    /// The server is draining and no longer accepts new work.
    Draining,
    /// The shard process holding this request died mid-flight; the cluster
    /// front router answered on its behalf rather than letting the client
    /// time out. Synthesized client-side (ms-cluster), never by a live
    /// server — a distinct cause so callers can tell a capacity refusal
    /// from a crash.
    Failover,
}

impl WireShedReason {
    fn code(self) -> u8 {
        match self {
            WireShedReason::Backpressure => 1,
            WireShedReason::Admission => 2,
            WireShedReason::Stopping => 3,
            WireShedReason::Draining => 4,
            WireShedReason::Failover => 5,
        }
    }

    fn from_code(c: u8) -> Result<Self, WireError> {
        match c {
            1 => Ok(WireShedReason::Backpressure),
            2 => Ok(WireShedReason::Admission),
            3 => Ok(WireShedReason::Stopping),
            4 => Ok(WireShedReason::Draining),
            5 => Ok(WireShedReason::Failover),
            _ => Err(WireError::Malformed("unknown shed reason")),
        }
    }
}

/// One inference request: a correlation id chosen by the client, an
/// optional per-request latency SLA, and a shaped f32 tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct InferRequest {
    /// Client-chosen id echoed verbatim in the response.
    pub correlation_id: u64,
    /// Per-request end-to-end latency bound in microseconds; 0 means "use
    /// the engine's configured SLA".
    pub deadline_micros: u64,
    /// Tensor shape (rank ≥ 1, every dim ≥ 1).
    pub dims: Vec<u32>,
    /// Row-major tensor data; `data.len()` equals the product of `dims`.
    pub data: Vec<f32>,
}

/// The served-or-shed outcome of a request.
#[derive(Debug, Clone, PartialEq)]
pub enum InferOutcome {
    /// The network's logits for this request.
    Logits { dims: Vec<u32>, data: Vec<f32> },
    /// The request was refused.
    Shed(WireShedReason),
}

/// One inference response, delivered by correlation id.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// The id from the matching [`InferRequest`].
    pub correlation_id: u64,
    /// Slice rate the request was served at (0.0 when shed).
    pub rate_used: f32,
    /// Logits or the shed reason.
    pub outcome: InferOutcome,
}

/// Health of one engine replica behind the router.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaHealth {
    /// Whether the replica is refusing new work.
    pub draining: bool,
    /// Requests buffered (open batch + sealed not yet running).
    pub queue_depth: f64,
    /// 99th-percentile measured batch service time, seconds.
    pub p99_service_s: f64,
    /// Requests served since start.
    pub served: u64,
    /// Requests shed since start.
    pub shed: u64,
    /// Slice rate the controller chose for the most recently sealed batch
    /// (0.0 before the first seal).
    pub rate: f32,
}

/// Live SLO status carried by a [`HealthReply`] from servers that run the
/// telemetry sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct SloHealth {
    /// Deadline-SLO burn rate over the fast (seconds-scale) window, in
    /// error-budget multiples (1.0 = burning exactly at budget).
    pub deadline_fast_burn: f64,
    /// Deadline-SLO burn rate over the slow (minutes-scale) window.
    pub deadline_slow_burn: f64,
    /// Shed-SLO burn rate over the fast window.
    pub shed_fast_burn: f64,
    /// Shed-SLO burn rate over the slow window.
    pub shed_slow_burn: f64,
    /// Alerts currently firing across all of the server's SLOs.
    pub firing_alerts: u32,
    /// p99 of end-to-end request latency over the sampler's most recent
    /// window, seconds (0.0 when the window held no requests).
    pub window_p99_s: f64,
}

/// Identity of the shard *process* behind a [`HealthReply`] — set by
/// servers run as cluster shards (the `shard_server` bin), `None` for
/// standalone servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardIdentity {
    /// Supervisor-assigned shard id, stable across restarts.
    pub shard_id: u32,
    /// OS process id of the serving process.
    pub pid: u32,
    /// Incarnation counter: 1 for the first spawn, bumped by the
    /// supervisor on every restart of the same shard id.
    pub generation: u32,
}

/// Reply to a [`Frame::HealthRequest`]. Every field is always on the
/// wire; `slo` and `shard` each travel as a presence byte (0 or 1)
/// followed, when 1, by their fixed-size block.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReply {
    /// Whether the whole server is draining.
    pub draining: bool,
    /// Seconds since the server started.
    pub uptime_seconds: f64,
    /// Human-readable build identifier (crate version + compiled
    /// features).
    pub build: String,
    /// Per-replica health, in router order.
    pub replicas: Vec<ReplicaHealth>,
    /// Live SLO status; `None` with sampling disabled.
    pub slo: Option<SloHealth>,
    /// Shard-process identity; `None` from standalone servers.
    pub shard: Option<ShardIdentity>,
}

/// Every message the protocol can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    InferRequest(InferRequest),
    InferResponse(InferResponse),
    HealthRequest,
    HealthReply(HealthReply),
    MetricsRequest,
    /// Prometheus text exposition of the server's registry.
    MetricsReply(String),
    /// Ask the server to stop accepting work, flush in-flight requests and
    /// shut down.
    Drain,
    /// Drain completed; `delivered` responses were flushed over the
    /// server's lifetime.
    DrainAck {
        delivered: u64,
    },
    /// Ask the server to harvest its flight recorder and dump the retained
    /// trace chains.
    TraceDumpRequest,
    /// Chrome `trace_event` JSON of the server's retained trace chains.
    TraceDumpReply(String),
}

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

fn fnv1a(seed: u32, bytes: &[u8]) -> u32 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

const FNV_OFFSET: u32 = 0x811C_9DC5;

/// The checksum of one whole encoded frame: FNV-1a over the version, type
/// and length fields `[4..12)`, then the trace id and payload `[16..)`.
fn checksum(frame: &[u8]) -> u32 {
    fnv1a(fnv1a(FNV_OFFSET, &frame[4..12]), &frame[16..])
}

// ---------------------------------------------------------------------------
// Byte cursor (checked reads, never panics)
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) is N long"))
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A presence byte ahead of an optional block: 0 (absent) or 1
    /// (present); any other value is corruption.
    fn present(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("presence byte not 0 or 1")),
        }
    }

    /// The payload must be fully consumed — trailing bytes are corruption.
    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

fn read_shape_and_data(r: &mut Reader) -> Result<(Vec<u32>, Vec<f32>), WireError> {
    let ndim = r.u8()? as usize;
    if ndim == 0 || ndim > MAX_DIMS {
        return Err(WireError::Malformed("tensor rank out of range"));
    }
    let mut dims = Vec::with_capacity(ndim);
    let mut numel: u64 = 1;
    for _ in 0..ndim {
        let d = r.u32()?;
        if d == 0 {
            return Err(WireError::Malformed("zero tensor dimension"));
        }
        numel = numel
            .checked_mul(d as u64)
            .filter(|&n| n <= MAX_NUMEL)
            .ok_or(WireError::Malformed("tensor element count out of range"))?;
        dims.push(d);
    }
    let mut data = Vec::with_capacity(numel as usize);
    for _ in 0..numel {
        data.push(r.f32()?);
    }
    Ok((dims, data))
}

fn write_shape_and_data(out: &mut Vec<u8>, dims: &[u32], data: &[f32]) {
    debug_assert!(!dims.is_empty() && dims.len() <= MAX_DIMS);
    debug_assert_eq!(
        dims.iter().map(|&d| d as u64).product::<u64>(),
        data.len() as u64
    );
    out.push(dims.len() as u8);
    for &d in dims {
        out.extend_from_slice(&d.to_le_bytes());
    }
    for &v in data {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

impl Frame {
    fn type_tag(&self) -> u16 {
        match self {
            Frame::InferRequest(_) => ty::INFER_REQUEST,
            Frame::InferResponse(_) => ty::INFER_RESPONSE,
            Frame::HealthRequest => ty::HEALTH_REQUEST,
            Frame::HealthReply(_) => ty::HEALTH_REPLY,
            Frame::MetricsRequest => ty::METRICS_REQUEST,
            Frame::MetricsReply(_) => ty::METRICS_REPLY,
            Frame::Drain => ty::DRAIN,
            Frame::DrainAck { .. } => ty::DRAIN_ACK,
            Frame::TraceDumpRequest => ty::TRACE_DUMP_REQUEST,
            Frame::TraceDumpReply(_) => ty::TRACE_DUMP_REPLY,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Frame::InferRequest(q) => {
                out.extend_from_slice(&q.correlation_id.to_le_bytes());
                out.extend_from_slice(&q.deadline_micros.to_le_bytes());
                write_shape_and_data(out, &q.dims, &q.data);
            }
            Frame::InferResponse(r) => {
                out.extend_from_slice(&r.correlation_id.to_le_bytes());
                out.extend_from_slice(&r.rate_used.to_bits().to_le_bytes());
                match &r.outcome {
                    InferOutcome::Logits { dims, data } => {
                        out.push(0);
                        write_shape_and_data(out, dims, data);
                    }
                    InferOutcome::Shed(reason) => out.push(reason.code()),
                }
            }
            Frame::HealthRequest
            | Frame::MetricsRequest
            | Frame::Drain
            | Frame::TraceDumpRequest => {}
            Frame::HealthReply(h) => {
                out.push(h.draining as u8);
                out.extend_from_slice(&h.uptime_seconds.to_bits().to_le_bytes());
                out.extend_from_slice(&(h.build.len() as u32).to_le_bytes());
                out.extend_from_slice(h.build.as_bytes());
                out.extend_from_slice(&(h.replicas.len() as u32).to_le_bytes());
                for e in &h.replicas {
                    out.push(e.draining as u8);
                    out.extend_from_slice(&e.queue_depth.to_bits().to_le_bytes());
                    out.extend_from_slice(&e.p99_service_s.to_bits().to_le_bytes());
                    out.extend_from_slice(&e.served.to_le_bytes());
                    out.extend_from_slice(&e.shed.to_le_bytes());
                    out.extend_from_slice(&e.rate.to_bits().to_le_bytes());
                }
                out.push(h.slo.is_some() as u8);
                if let Some(s) = &h.slo {
                    out.extend_from_slice(&s.deadline_fast_burn.to_bits().to_le_bytes());
                    out.extend_from_slice(&s.deadline_slow_burn.to_bits().to_le_bytes());
                    out.extend_from_slice(&s.shed_fast_burn.to_bits().to_le_bytes());
                    out.extend_from_slice(&s.shed_slow_burn.to_bits().to_le_bytes());
                    out.extend_from_slice(&s.firing_alerts.to_le_bytes());
                    out.extend_from_slice(&s.window_p99_s.to_bits().to_le_bytes());
                }
                out.push(h.shard.is_some() as u8);
                if let Some(id) = &h.shard {
                    out.extend_from_slice(&id.shard_id.to_le_bytes());
                    out.extend_from_slice(&id.pid.to_le_bytes());
                    out.extend_from_slice(&id.generation.to_le_bytes());
                }
            }
            Frame::MetricsReply(text) | Frame::TraceDumpReply(text) => {
                out.extend_from_slice(text.as_bytes())
            }
            Frame::DrainAck { delivered } => out.extend_from_slice(&delivered.to_le_bytes()),
        }
    }

    /// Appends the complete encoded frame (header + payload) to `out`,
    /// untraced (`trace_id == 0`).
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.encode_traced(0, out);
    }

    /// Appends the complete encoded frame carrying `trace_id` in its
    /// header (`0` = untraced). Panics only on frames this process built
    /// wrong (payload over the cap), never on remote input.
    fn encode_traced(&self, trace_id: u64, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.type_tag().to_le_bytes());
        out.extend_from_slice(&[0u8; 8]); // length + checksum placeholders
        out.extend_from_slice(&trace_id.to_le_bytes());
        self.encode_payload(out);
        let payload_len = out.len() - start - HEADER_LEN;
        assert!(payload_len as u64 <= MAX_PAYLOAD as u64, "frame too large");
        out[start + 8..start + 12].copy_from_slice(&(payload_len as u32).to_le_bytes());
        let sum = checksum(&out[start..]);
        out[start + 12..start + 16].copy_from_slice(&sum.to_le_bytes());
    }

    /// Encodes into a fresh buffer, untraced.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Encodes into a fresh buffer with a trace id.
    pub fn to_bytes_traced(&self, trace_id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_traced(trace_id, &mut out);
        out
    }

    /// Decodes one complete frame from `buf`, discarding its trace id.
    /// The buffer must hold exactly the frame — a short buffer is
    /// [`WireError::Truncated`], a long one [`WireError::TrailingBytes`].
    /// Total over arbitrary input: returns an error for anything invalid,
    /// never panics.
    pub fn decode(buf: &[u8]) -> Result<Frame, WireError> {
        Self::decode_traced(buf).map(|(frame, _)| frame)
    }

    /// Decodes one complete frame plus its trace id (0 = untraced), in
    /// place. The frame the header declares is checked first; bytes past
    /// it are then [`WireError::TrailingBytes`] — the verdict a
    /// [`FrameDecoder`] reaches on the same bytes.
    pub fn decode_traced(buf: &[u8]) -> Result<(Frame, u64), WireError> {
        let header = buf.get(..HEADER_LEN).ok_or(WireError::Truncated)?;
        let total = check_header(header)?;
        let decoded = parse_frame(buf.get(..total).ok_or(WireError::Truncated)?)?;
        if buf.len() > total {
            return Err(WireError::TrailingBytes);
        }
        Ok(decoded)
    }
}

// ---------------------------------------------------------------------------
// Decode: one header check, one body parse
// ---------------------------------------------------------------------------

/// Step one of every decode: the header's magic, version, type and
/// declared payload length (against [`MAX_PAYLOAD`]), checked before
/// anything is allocated for the payload. `header` holds [`HEADER_LEN`]
/// bytes; returns the whole frame's byte count.
fn check_header(header: &[u8]) -> Result<usize, WireError> {
    let mut r = Reader::new(header);
    if r.u32()? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let tag = r.u16()?;
    if !(ty::INFER_REQUEST..=ty::TRACE_DUMP_REPLY).contains(&tag) {
        return Err(WireError::UnknownType(tag));
    }
    let length = r.u32()?;
    if length > MAX_PAYLOAD {
        return Err(WireError::Oversized(length));
    }
    Ok(HEADER_LEN + length as usize)
}

/// Step two: checksums one complete frame — exactly the byte count
/// [`check_header`] returned — and parses its payload. Returns the frame
/// with its trace id.
fn parse_frame(buf: &[u8]) -> Result<(Frame, u64), WireError> {
    let mut r = Reader::new(buf);
    r.bytes(6)?; // magic + version
    let tag = r.u16()?;
    r.bytes(4)?; // length
    if r.u32()? != checksum(buf) {
        return Err(WireError::ChecksumMismatch);
    }
    let trace_id = r.u64()?;
    let payload_len = buf.len() - HEADER_LEN;
    let frame = match tag {
        ty::INFER_REQUEST => {
            let correlation_id = r.u64()?;
            let deadline_micros = r.u64()?;
            let (dims, data) = read_shape_and_data(&mut r)?;
            Frame::InferRequest(InferRequest {
                correlation_id,
                deadline_micros,
                dims,
                data,
            })
        }
        ty::INFER_RESPONSE => {
            let correlation_id = r.u64()?;
            let rate_used = r.f32()?;
            let status = r.u8()?;
            let outcome = if status == 0 {
                let (dims, data) = read_shape_and_data(&mut r)?;
                InferOutcome::Logits { dims, data }
            } else {
                InferOutcome::Shed(WireShedReason::from_code(status)?)
            };
            Frame::InferResponse(InferResponse {
                correlation_id,
                rate_used,
                outcome,
            })
        }
        ty::HEALTH_REQUEST => Frame::HealthRequest,
        ty::HEALTH_REPLY => {
            let draining = r.u8()? != 0;
            let uptime_seconds = r.f64()?;
            let blen = r.u32()? as usize;
            if blen > 4096 {
                return Err(WireError::Malformed("build string out of range"));
            }
            let build = std::str::from_utf8(r.bytes(blen)?)
                .map_err(|_| WireError::Malformed("build string not utf-8"))?
                .to_string();
            let n = r.u32()? as usize;
            if n > 4096 {
                return Err(WireError::Malformed("replica count out of range"));
            }
            let mut replicas = Vec::with_capacity(n);
            for _ in 0..n {
                replicas.push(ReplicaHealth {
                    draining: r.u8()? != 0,
                    queue_depth: r.f64()?,
                    p99_service_s: r.f64()?,
                    served: r.u64()?,
                    shed: r.u64()?,
                    rate: r.f32()?,
                });
            }
            let slo = if r.present()? {
                Some(SloHealth {
                    deadline_fast_burn: r.f64()?,
                    deadline_slow_burn: r.f64()?,
                    shed_fast_burn: r.f64()?,
                    shed_slow_burn: r.f64()?,
                    firing_alerts: r.u32()?,
                    window_p99_s: r.f64()?,
                })
            } else {
                None
            };
            let shard = if r.present()? {
                Some(ShardIdentity {
                    shard_id: r.u32()?,
                    pid: r.u32()?,
                    generation: r.u32()?,
                })
            } else {
                None
            };
            Frame::HealthReply(HealthReply {
                draining,
                uptime_seconds,
                build,
                replicas,
                slo,
                shard,
            })
        }
        ty::METRICS_REQUEST => Frame::MetricsRequest,
        ty::METRICS_REPLY => {
            let text = std::str::from_utf8(r.bytes(payload_len)?)
                .map_err(|_| WireError::Malformed("metrics text not utf-8"))?;
            Frame::MetricsReply(text.to_string())
        }
        ty::DRAIN => Frame::Drain,
        ty::DRAIN_ACK => Frame::DrainAck {
            delivered: r.u64()?,
        },
        ty::TRACE_DUMP_REQUEST => Frame::TraceDumpRequest,
        ty::TRACE_DUMP_REPLY => {
            let text = std::str::from_utf8(r.bytes(payload_len)?)
                .map_err(|_| WireError::Malformed("trace dump not utf-8"))?;
            Frame::TraceDumpReply(text.to_string())
        }
        t => return Err(WireError::UnknownType(t)),
    };
    r.done()?;
    Ok((frame, trace_id))
}

// ---------------------------------------------------------------------------
// Stream IO
// ---------------------------------------------------------------------------

/// Writes one frame carrying `trace_id` (0 = untraced); returns the bytes
/// put on the wire.
pub fn write_frame(w: &mut impl Write, frame: &Frame, trace_id: u64) -> io::Result<usize> {
    let bytes = frame.to_bytes_traced(trace_id);
    w.write_all(&bytes)?;
    Ok(bytes.len())
}

/// Reads one frame; returns it with its trace id (0 = untraced) and the
/// bytes consumed. Each read takes exactly what a [`FrameDecoder`] still
/// wants — the header, then the payload — so the header is checked before
/// the payload is allocated and nothing past the frame is read.
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, u64, usize), NetError> {
    let mut dec = FrameDecoder::new();
    loop {
        let mut chunk = vec![0u8; dec.want()];
        r.read_exact(&mut chunk)?;
        if let (_, Some(frame)) = dec.feed(&chunk)? {
            return Ok(frame);
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental decoding (reactor front-end)
// ---------------------------------------------------------------------------

/// Incremental frame decoder for non-blocking streams.
///
/// The reactor hands this whatever bytes `read` produced — one byte or
/// sixty-four kilobytes — and gets back complete frames as they finish.
/// The decoder accumulates exactly one frame at a time and **never
/// over-reads**: [`FrameDecoder::feed`] consumes at most the bytes the
/// current frame still needs, so the caller's offset arithmetic stays
/// trivial and pipelined frames are never swallowed into a stale buffer.
///
/// The header is checked the moment its last byte arrives — before any
/// payload-sized allocation — so a hostile peer cannot make the server
/// reserve more than [`MAX_PAYLOAD`]. The complete frame then goes through
/// the same body parse as [`Frame::decode_traced`], so the incremental path
/// reaches the buffer decoder's verdict on every byte string — the property
/// the chaos proptests pin down.
///
/// Any error poisons the decoder (stream framing is unrecoverable after
/// corruption); subsequent `feed` calls return the same error.
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Total frame bytes currently known to be needed: `HEADER_LEN`
    /// until the header completes, then header + payload.
    need: usize,
    header_done: bool,
    poisoned: Option<WireError>,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A decoder accepting payloads up to the protocol cap,
    /// [`MAX_PAYLOAD`]: frames declaring more are rejected as
    /// [`WireError::Oversized`] from the header alone.
    pub fn new() -> Self {
        FrameDecoder {
            buf: Vec::with_capacity(HEADER_LEN),
            need: HEADER_LEN,
            header_done: false,
            poisoned: None,
        }
    }

    /// True while a partially received frame sits in the buffer — the
    /// reactor's slow-loris reaper keys off this.
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Bytes still needed to complete the current frame (or the next
    /// header when between frames).
    pub fn want(&self) -> usize {
        self.need - self.buf.len()
    }

    /// Feeds `chunk` to the decoder. Returns how many bytes were
    /// consumed (≤ `chunk.len()`, never past the end of the current
    /// frame) and at most one completed frame as
    /// `(frame, trace_id, frame_bytes)`. Call again with the unconsumed
    /// tail to continue. Total over arbitrary input; errors poison the
    /// decoder.
    #[allow(clippy::type_complexity)]
    pub fn feed(
        &mut self,
        chunk: &[u8],
    ) -> Result<(usize, Option<(Frame, u64, usize)>), WireError> {
        if let Some(e) = self.poisoned {
            return Err(e);
        }
        let mut consumed = 0usize;
        loop {
            let take = self.want().min(chunk.len() - consumed);
            self.buf
                .extend_from_slice(&chunk[consumed..consumed + take]);
            consumed += take;
            if self.buf.len() < self.need {
                return Ok((consumed, None));
            }
            if !self.header_done {
                // Exactly HEADER_LEN bytes buffered: step one, before
                // reserving payload space.
                self.need = match check_header(&self.buf) {
                    Ok(total) => total,
                    Err(e) => return Err(self.poison(e)),
                };
                self.header_done = true;
                self.buf.reserve(self.need - HEADER_LEN);
                continue; // an empty payload completes the frame already
            }
            // Whole frame buffered: step two.
            let frame_bytes = self.buf.len();
            let result = parse_frame(&self.buf);
            self.buf.clear();
            // Don't let one huge frame pin its allocation forever.
            if self.buf.capacity() > (1 << 20) {
                self.buf = Vec::with_capacity(HEADER_LEN);
            }
            self.need = HEADER_LEN;
            self.header_done = false;
            return match result {
                Ok((frame, trace_id)) => Ok((consumed, Some((frame, trace_id, frame_bytes)))),
                Err(e) => Err(self.poison(e)),
            };
        }
    }

    fn poison(&mut self, e: WireError) -> WireError {
        self.poisoned = Some(e);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::InferRequest(InferRequest {
                correlation_id: 42,
                deadline_micros: 10_000,
                dims: vec![2, 3],
                data: vec![1.0, -2.5, 0.0, f32::MIN_POSITIVE, 3.25e7, -0.125],
            }),
            Frame::InferResponse(InferResponse {
                correlation_id: 42,
                rate_used: 0.5,
                outcome: InferOutcome::Logits {
                    dims: vec![4],
                    data: vec![0.1, 0.2, -0.3, 9.9],
                },
            }),
            Frame::InferResponse(InferResponse {
                correlation_id: 7,
                rate_used: 0.0,
                outcome: InferOutcome::Shed(WireShedReason::Draining),
            }),
            Frame::HealthRequest,
            Frame::HealthReply(HealthReply {
                draining: false,
                uptime_seconds: 12.75,
                build: "ms-net 0.1.0 (release)".to_string(),
                replicas: vec![ReplicaHealth {
                    draining: true,
                    queue_depth: 12.0,
                    p99_service_s: 0.0031,
                    served: 1000,
                    shed: 3,
                    rate: 0.75,
                }],
                slo: None,
                shard: None,
            }),
            Frame::HealthReply(HealthReply {
                draining: false,
                uptime_seconds: 901.5,
                build: "ms-net 0.1.0 (release)".to_string(),
                replicas: vec![ReplicaHealth {
                    draining: false,
                    queue_depth: 2.0,
                    p99_service_s: 0.0009,
                    served: 77_000,
                    shed: 12,
                    rate: 1.0,
                }],
                slo: Some(SloHealth {
                    deadline_fast_burn: 2.25,
                    deadline_slow_burn: 0.5,
                    shed_fast_burn: 0.0,
                    shed_slow_burn: 0.125,
                    firing_alerts: 1,
                    window_p99_s: 0.0041,
                }),
                shard: Some(ShardIdentity {
                    shard_id: 3,
                    pid: 41_507,
                    generation: 2,
                }),
            }),
            Frame::HealthReply(HealthReply {
                draining: false,
                uptime_seconds: 4.5,
                build: "ms-net 0.1.0 (debug)".to_string(),
                replicas: vec![],
                slo: None,
                shard: Some(ShardIdentity {
                    shard_id: 0,
                    pid: 1,
                    generation: 1,
                }),
            }),
            Frame::MetricsRequest,
            Frame::MetricsReply("# TYPE x counter\nx 1\n".to_string()),
            Frame::Drain,
            Frame::DrainAck { delivered: 99 },
            Frame::TraceDumpRequest,
            Frame::TraceDumpReply("{\"traceEvents\":[]}".to_string()),
        ]
    }

    #[test]
    fn round_trip_identity() {
        for f in sample_frames() {
            let bytes = f.to_bytes();
            assert_eq!(Frame::decode(&bytes).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn trace_id_round_trips_on_the_one_version() {
        for f in sample_frames() {
            for trace in [0u64, 1, 0xDEAD_BEEF_CAFE_F00D, u64::MAX] {
                let bytes = f.to_bytes_traced(trace);
                assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), VERSION, "{f:?}");
                assert_eq!(bytes[16..24], trace.to_le_bytes(), "{f:?}");
                let (got, got_trace) = Frame::decode_traced(&bytes).unwrap();
                assert_eq!(got, f, "{f:?}");
                assert_eq!(got_trace, trace, "{f:?}");
            }
        }
    }

    #[test]
    fn presence_byte_of_two_is_malformed() {
        // With both optional blocks absent, the payload ends in the slo
        // and shard presence bytes.
        let h = HealthReply {
            draining: false,
            uptime_seconds: 1.0,
            build: String::new(),
            replicas: vec![],
            slo: None,
            shard: None,
        };
        let bytes = Frame::HealthReply(h).to_bytes();
        for from_end in [1, 2] {
            let mut bad = bytes.clone();
            let at = bad.len() - from_end;
            bad[at] = 2;
            let sum = checksum(&bad);
            bad[12..16].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(
                Frame::decode(&bad),
                Err(WireError::Malformed("presence byte not 0 or 1"))
            );
        }
    }

    #[test]
    fn stream_round_trip() {
        let mut buf = Vec::new();
        for (i, f) in sample_frames().iter().enumerate() {
            write_frame(&mut buf, f, i as u64).unwrap();
        }
        let mut cursor = io::Cursor::new(buf);
        for (i, f) in sample_frames().into_iter().enumerate() {
            let (got, trace, n) = read_frame(&mut cursor).unwrap();
            assert_eq!(n, f.to_bytes().len());
            assert_eq!(got, f);
            assert_eq!(trace, i as u64);
        }
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        // Exhaustive over a small frame: no corrupted bit may slip through.
        let f = Frame::InferResponse(InferResponse {
            correlation_id: 3,
            rate_used: 0.75,
            outcome: InferOutcome::Logits {
                dims: vec![2],
                data: vec![1.5, -0.5],
            },
        });
        // Untraced and traced: the flipped bit may land in the trace id.
        for bytes in [f.to_bytes(), f.to_bytes_traced(0x1234_5678_9ABC_DEF0)] {
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut corrupt = bytes.clone();
                    corrupt[i] ^= 1 << bit;
                    assert!(
                        Frame::decode(&corrupt).is_err(),
                        "flip byte {i} bit {bit} decoded"
                    );
                }
            }
        }
    }

    #[test]
    fn truncation_and_extension_are_rejected() {
        let bytes = sample_frames()[0].to_bytes();
        for cut in 0..bytes.len() {
            assert!(Frame::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(Frame::decode(&longer), Err(WireError::TrailingBytes));
    }

    #[test]
    fn oversized_declaration_is_rejected_before_allocation() {
        let mut bytes = Frame::Drain.to_bytes();
        bytes[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes),
            Err(WireError::Oversized(MAX_PAYLOAD + 1))
        );
        let mut cursor = io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::Wire(WireError::Oversized(_)))
        ));
    }

    #[test]
    fn structural_rules_are_enforced() {
        // Zero dimension.
        let f = Frame::InferRequest(InferRequest {
            correlation_id: 0,
            deadline_micros: 0,
            dims: vec![1],
            data: vec![0.0],
        });
        let mut bytes = f.to_bytes();
        // dims[0] sits after corr(8) + deadline(8) + ndim(1) in the payload.
        let off = HEADER_LEN + 17;
        bytes[off..off + 4].copy_from_slice(&0u32.to_le_bytes());
        // Re-encoding the checksum by hand so only the structure is invalid.
        let sum = checksum(&bytes);
        bytes[12..16].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes),
            Err(WireError::Malformed("zero tensor dimension"))
        );
    }

    #[test]
    fn floats_survive_bitwise() {
        let weird = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::from_bits(0x7F80_0001), // signalling NaN payload
        ];
        let f = Frame::InferRequest(InferRequest {
            correlation_id: 1,
            deadline_micros: 0,
            dims: vec![weird.len() as u32],
            data: weird.clone(),
        });
        match Frame::decode(&f.to_bytes()).unwrap() {
            Frame::InferRequest(q) => {
                for (a, b) in q.data.iter().zip(&weird) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn incremental_decoder_reassembles_byte_at_a_time() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            f.encode_traced(if i % 2 == 0 { 0 } else { 0xAB00 + i as u64 }, &mut wire);
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &wire {
            let (n, out) = dec.feed(&[b]).expect("valid stream");
            assert_eq!(n, 1);
            if let Some((frame, trace, bytes)) = out {
                got.push((frame, trace, bytes));
            }
        }
        assert_eq!(got.len(), frames.len());
        for (i, (frame, trace, _)) in got.iter().enumerate() {
            assert_eq!(frame, &frames[i]);
            let want_trace = if i % 2 == 0 { 0 } else { 0xAB00 + i as u64 };
            assert_eq!(*trace, want_trace);
        }
        assert!(!dec.mid_frame());
        assert_eq!(dec.want(), HEADER_LEN);
    }

    #[test]
    fn incremental_decoder_never_consumes_past_one_frame() {
        // Two frames in one chunk: the first feed must stop exactly at
        // the first frame boundary.
        let a = Frame::Drain.to_bytes();
        let b = Frame::DrainAck { delivered: 5 }.to_bytes();
        let mut wire = a.clone();
        wire.extend_from_slice(&b);
        let mut dec = FrameDecoder::new();
        let (n, out) = dec.feed(&wire).unwrap();
        assert_eq!(n, a.len(), "consumed into the second frame");
        assert!(matches!(out, Some((Frame::Drain, 0, _))));
        let (n2, out2) = dec.feed(&wire[n..]).unwrap();
        assert_eq!(n2, b.len());
        assert!(matches!(
            out2,
            Some((Frame::DrainAck { delivered: 5 }, 0, _))
        ));
    }

    #[test]
    fn incremental_decoder_rejects_oversize_from_header_alone() {
        let mut bytes = Frame::Drain.to_bytes();
        bytes[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut dec = FrameDecoder::new();
        // Feed only the header: the declared length must be rejected
        // before any payload byte arrives or is allocated for.
        let err = dec.feed(&bytes[..HEADER_LEN]).unwrap_err();
        assert_eq!(err, WireError::Oversized(MAX_PAYLOAD + 1));
        // Poisoned: same error forever after.
        assert_eq!(dec.feed(&[0]).unwrap_err(), err);
    }

    #[test]
    fn incremental_decoder_agrees_with_buffer_decoder_on_corruption() {
        let bytes = sample_frames()[1].to_bytes_traced(7);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            let mut dec = FrameDecoder::new();
            let incremental = match dec.feed(&corrupt) {
                Ok((_, Some((frame, trace, _)))) => Ok((frame, trace)),
                // Still waiting for bytes a grown length field promised:
                // what the buffer decoder calls Truncated.
                Ok((_, None)) if dec.mid_frame() => Err(WireError::Truncated),
                Ok((_, None)) => panic!("byte {i}: silent stall"),
                Err(e) => Err(e),
            };
            assert_eq!(Frame::decode_traced(&corrupt), incremental, "byte {i}");
        }
    }
}
