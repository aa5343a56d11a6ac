//! Fault-injecting transport harness for the incremental codec: the
//! reactor's [`FrameDecoder`] must survive every pathology a hostile or
//! merely unlucky network can produce — byte-at-a-time reads, short
//! writes, mid-frame EOF, flipped bits — and must accept *exactly* the
//! byte strings the buffer decoder accepts, never panicking and never
//! consuming past the frame it is currently assembling.

use ms_net::protocol::{
    write_frame, Frame, FrameDecoder, HealthReply, InferOutcome, InferRequest, InferResponse,
    ReplicaHealth, ShardIdentity, SloHealth, WireError, WireShedReason, HEADER_LEN,
};
use proptest::prelude::*;
use std::io::{self, Read, Write};

/// splitmix64 — one `u64` seed expands deterministically into frames and
/// chunk-size schedules (the vendored proptest has no strategy
/// combinators).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f32(&mut self) -> f32 {
        f32::from_bits(self.next() as u32)
    }

    fn tensor(&mut self) -> (Vec<u32>, Vec<f32>) {
        let rank = 1 + (self.next() % 4) as usize;
        let dims: Vec<u32> = (0..rank).map(|_| 1 + (self.next() % 4) as u32).collect();
        let numel = dims.iter().product::<u32>() as usize;
        let data = (0..numel).map(|_| self.f32()).collect();
        (dims, data)
    }
}

/// One deterministic frame of the selected kind (same builder as
/// `protocol_props.rs`, covering all 11 wire variants).
fn build_frame(variant: usize, seed: u64) -> Frame {
    let mut m = Mix(seed);
    match variant {
        0 => {
            let (dims, data) = m.tensor();
            Frame::InferRequest(InferRequest {
                correlation_id: m.next(),
                deadline_micros: m.next(),
                dims,
                data,
            })
        }
        1 => {
            let (dims, data) = m.tensor();
            Frame::InferResponse(InferResponse {
                correlation_id: m.next(),
                rate_used: m.f32(),
                outcome: InferOutcome::Logits { dims, data },
            })
        }
        2 => {
            let reason = match m.next() % 5 {
                0 => WireShedReason::Backpressure,
                1 => WireShedReason::Admission,
                2 => WireShedReason::Stopping,
                3 => WireShedReason::Failover,
                _ => WireShedReason::Draining,
            };
            Frame::InferResponse(InferResponse {
                correlation_id: m.next(),
                rate_used: 0.0,
                outcome: InferOutcome::Shed(reason),
            })
        }
        3 => Frame::HealthRequest,
        4 => {
            let n = (m.next() % 4) as usize;
            let replicas = (0..n)
                .map(|_| ReplicaHealth {
                    draining: m.next().is_multiple_of(2),
                    queue_depth: (m.next() % 1_000_000) as f64,
                    p99_service_s: (m.next() % 1_000_000_000) as f64 * 1e-9,
                    served: m.next(),
                    shed: m.next(),
                    rate: f32::from_bits(m.next() as u32),
                })
                .collect();
            let blen = (m.next() % 40) as usize;
            let build: String = (0..blen)
                .map(|_| char::from_u32(32 + (m.next() % 95) as u32).unwrap())
                .collect();
            let slo = if m.next().is_multiple_of(2) {
                Some(SloHealth {
                    deadline_fast_burn: (m.next() % 1000) as f64 * 0.01,
                    deadline_slow_burn: (m.next() % 1000) as f64 * 0.01,
                    shed_fast_burn: (m.next() % 1000) as f64 * 0.01,
                    shed_slow_burn: (m.next() % 1000) as f64 * 0.01,
                    firing_alerts: (m.next() % 5) as u32,
                    window_p99_s: (m.next() % 1_000_000_000) as f64 * 1e-9,
                })
            } else {
                None
            };
            // Independent coin for the shard block: all four slo × shard
            // layouts flow through every chaos property.
            let shard = if m.next().is_multiple_of(2) {
                Some(ShardIdentity {
                    shard_id: (m.next() % 64) as u32,
                    pid: m.next() as u32,
                    generation: 1 + (m.next() % 9) as u32,
                })
            } else {
                None
            };
            Frame::HealthReply(HealthReply {
                draining: m.next().is_multiple_of(2),
                uptime_seconds: (m.next() % 1_000_000_000) as f64 * 1e-3,
                build,
                replicas,
                slo,
                shard,
            })
        }
        5 => Frame::MetricsRequest,
        6 => {
            let len = (m.next() % 200) as usize;
            let text: String = (0..len)
                .map(|_| char::from_u32(32 + (m.next() % 95) as u32).unwrap())
                .collect();
            Frame::MetricsReply(text)
        }
        7 => Frame::Drain,
        8 => Frame::DrainAck {
            delivered: m.next(),
        },
        9 => Frame::TraceDumpRequest,
        _ => {
            let len = (m.next() % 300) as usize;
            let json: String = (0..len)
                .map(|_| char::from_u32(32 + (m.next() % 95) as u32).unwrap())
                .collect();
            Frame::TraceDumpReply(json)
        }
    }
}

const VARIANTS: usize = 11;

/// A fault-injecting in-memory transport. Reads return 1..=`max_chunk`
/// bytes at a time (size drawn per call from the seed), writes accept at
/// most `max_chunk` bytes per call (a chronic short-writer), the stream
/// can hang up mid-frame (`eof_at`), and a single bit can be flipped in
/// transit (`flip_bit`).
struct ChaosStream {
    bytes: Vec<u8>,
    pos: usize,
    max_chunk: usize,
    eof_at: Option<usize>,
    rng: Mix,
}

impl ChaosStream {
    fn new(
        mut bytes: Vec<u8>,
        max_chunk: usize,
        eof_at: Option<usize>,
        flip_bit: Option<usize>,
    ) -> Self {
        if let Some(bit) = flip_bit {
            let bit = bit % (bytes.len() * 8).max(1);
            if !bytes.is_empty() {
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        ChaosStream {
            bytes,
            pos: 0,
            max_chunk: max_chunk.max(1),
            eof_at,
            rng: Mix(0xC0FF_EE00 ^ max_chunk as u64),
        }
    }

    /// The transport's view of end-of-stream: the injected hangup point
    /// or the natural end of the byte string, whichever comes first.
    fn limit(&self) -> usize {
        self.eof_at
            .map_or(self.bytes.len(), |e| e.min(self.bytes.len()))
    }
}

impl Read for ChaosStream {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.limit().saturating_sub(self.pos);
        if avail == 0 || out.is_empty() {
            return Ok(0); // EOF (possibly mid-frame) — never an error.
        }
        let chunk = 1 + (self.rng.next() as usize) % self.max_chunk;
        let n = chunk.min(avail).min(out.len());
        out[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A sink that accepts at most `max_chunk` bytes per `write` call —
/// `write_all` and the encoder must loop, not assume one-shot writes.
struct ShortWriter {
    sink: Vec<u8>,
    max_chunk: usize,
    rng: Mix,
}

impl Write for ShortWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = (1 + (self.rng.next() as usize) % self.max_chunk).min(buf.len());
        self.sink.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Drives a [`FrameDecoder`] from a [`ChaosStream`] exactly the way the
/// reactor drives it from a socket: read whatever arrives, feed every
/// byte, collect completed frames. Returns the frames (with trace ids
/// and wire sizes), whether the stream hit EOF mid-frame, and the first
/// decode error if any.
#[allow(clippy::type_complexity)]
fn pump(
    stream: &mut ChaosStream,
    dec: &mut FrameDecoder,
) -> (Vec<(Frame, u64, usize)>, bool, Option<WireError>) {
    let mut frames = Vec::new();
    let mut scratch = [0u8; 257];
    loop {
        let n = stream
            .read(&mut scratch)
            .expect("chaos reads never io-fail");
        if n == 0 {
            return (frames, dec.mid_frame(), None);
        }
        let mut off = 0;
        while off < n {
            match dec.feed(&scratch[off..n]) {
                Ok((used, done)) => {
                    assert!(
                        used <= n - off,
                        "decoder consumed {used} of a {}-byte chunk",
                        n - off
                    );
                    assert!(used > 0 || done.is_some(), "no progress on non-empty chunk");
                    off += used;
                    if let Some(f) = done {
                        frames.push(f);
                    }
                }
                Err(e) => return (frames, false, Some(e)),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Multi-frame streams reassemble exactly under arbitrary read
    /// fragmentation: every frame comes back in order, re-encodes to its
    /// original bytes, reports its true wire size, and the decoder ends
    /// the stream empty-handed (nothing buffered, nothing lost).
    #[test]
    fn fragmented_reads_reassemble_exactly(
        seed in any::<u64>(),
        max_chunk in 1usize..64,
        nframes in 1usize..6,
    ) {
        let mut m = Mix(seed);
        let mut wire = Vec::new();
        let mut expect = Vec::new();
        for _ in 0..nframes {
            let frame = build_frame((m.next() as usize) % VARIANTS, m.next());
            let trace = if m.next().is_multiple_of(2) { m.next() } else { 0 };
            let bytes = frame.to_bytes_traced(trace);
            expect.push((bytes.len(), trace, frame));
            wire.extend_from_slice(&bytes);
        }
        let mut stream = ChaosStream::new(wire, max_chunk, None, None);
        let mut dec = FrameDecoder::new();
        let (got, mid, err) = pump(&mut stream, &mut dec);
        prop_assert!(err.is_none(), "clean stream must decode: {err:?}");
        prop_assert!(!mid, "clean stream must not end mid-frame");
        prop_assert_eq!(got.len(), expect.len());
        for ((frame, trace, size), (esize, etrace, eframe)) in got.iter().zip(&expect) {
            prop_assert_eq!(size, esize);
            prop_assert_eq!(trace, etrace);
            prop_assert_eq!(frame.to_bytes_traced(*trace), eframe.to_bytes_traced(*etrace));
        }
    }

    /// A single flipped bit anywhere in a frame: the incremental decoder
    /// reaches the buffer decoder's verdict on the corrupted bytes — the
    /// same frame, or the same error. The buffer decoder's `Truncated` is
    /// the stream ending mid-frame (a grown length field), which must be
    /// visible as `mid_frame()`: the stall the slow-loris reaper kills.
    #[test]
    fn bit_flips_agree_with_buffer_decoder(
        variant in 0usize..VARIANTS,
        seed in any::<u64>(),
        trace in any::<u64>(),
        bit in any::<usize>(),
        max_chunk in 1usize..32,
    ) {
        let clean = build_frame(variant, seed).to_bytes_traced(trace);
        let mut stream = ChaosStream::new(clean.clone(), max_chunk, None, Some(bit));
        let corrupt = stream.bytes.clone();
        let buffered = Frame::decode_traced(&corrupt).map(|(f, t)| f.to_bytes_traced(t));

        let mut dec = FrameDecoder::new();
        let (got, mid, err) = pump(&mut stream, &mut dec);
        let streamed = match (got.as_slice(), mid, err) {
            ([], _, Some(e)) => Err(e),
            ([], true, None) => Err(WireError::Truncated),
            ([(f, t, _)], false, None) => Ok(f.to_bytes_traced(*t)),
            (_, _, e) => {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "stream gave {} frames, mid_frame {mid}, error {e:?}",
                    got.len()
                )));
            }
        };
        prop_assert_eq!(buffered, streamed);
    }

    /// Mid-frame hangup: EOF at any strict prefix of a frame leaves the
    /// decoder visibly mid-frame (the reaper's signal) with nothing
    /// emitted — and EOF on a frame boundary leaves it idle.
    #[test]
    fn mid_frame_eof_is_detected(
        variant in 0usize..VARIANTS,
        seed in any::<u64>(),
        trace in any::<u64>(),
        cut in any::<usize>(),
        max_chunk in 1usize..32,
    ) {
        let bytes = build_frame(variant, seed).to_bytes_traced(trace);
        let cut = cut % (bytes.len() + 1); // 0..=len: boundary cases included
        let mut stream = ChaosStream::new(bytes.clone(), max_chunk, Some(cut), None);
        let mut dec = FrameDecoder::new();
        let (got, mid, err) = pump(&mut stream, &mut dec);
        prop_assert!(err.is_none(), "a clean prefix must not error: {err:?}");
        if cut == bytes.len() {
            prop_assert_eq!(got.len(), 1);
            prop_assert!(!mid);
        } else {
            prop_assert!(got.is_empty());
            prop_assert_eq!(mid, cut > 0, "mid_frame must track buffered bytes at cut {cut}");
        }
    }

    /// Arbitrary byte soup under arbitrary fragmentation never panics,
    /// never over-reads a chunk, and once poisoned the decoder stays
    /// poisoned with the same error (no resynchronizing on garbage).
    #[test]
    fn byte_soup_never_panics_and_errors_stick(
        soup in proptest::collection::vec(0u8..=255, 0..512),
        max_chunk in 1usize..32,
    ) {
        let mut stream = ChaosStream::new(soup, max_chunk, None, None);
        let mut dec = FrameDecoder::new();
        let (_, _, err) = pump(&mut stream, &mut dec);
        if let Some(first) = err {
            for probe in [&[0u8; 1][..], &[0xFF; 7][..]] {
                match dec.feed(probe) {
                    Err(again) => prop_assert_eq!(
                        std::mem::discriminant(&again),
                        std::mem::discriminant(&first)
                    ),
                    Ok(r) => return Err(proptest::test_runner::TestCaseError::fail(
                        format!("poisoned decoder accepted bytes: {r:?}"),
                    )),
                }
            }
        }
    }

    /// Short writes: encoding through a sink that takes a few bytes per
    /// call produces the identical wire bytes, which then survive a
    /// byte-at-a-time read back through the incremental decoder.
    #[test]
    fn short_writes_round_trip(
        variant in 0usize..VARIANTS,
        seed in any::<u64>(),
        trace in any::<u64>(),
        max_chunk in 1usize..16,
    ) {
        let frame = build_frame(variant, seed);
        let direct = frame.to_bytes_traced(trace);
        let mut w = ShortWriter { sink: Vec::new(), max_chunk, rng: Mix(seed ^ 0xDEAD) };
        let n = match write_frame(&mut w, &frame, trace) {
            Ok(n) => n,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("short-write encode failed: {e}"),
            )),
        };
        prop_assert_eq!(n, direct.len());
        prop_assert_eq!(&w.sink, &direct);

        let mut stream = ChaosStream::new(w.sink, 1, None, None);
        let mut dec = FrameDecoder::new();
        let (got, mid, err) = pump(&mut stream, &mut dec);
        prop_assert!(err.is_none());
        prop_assert!(!mid);
        prop_assert_eq!(got.len(), 1);
        let (f, t, size) = &got[0];
        prop_assert_eq!(*t, trace);
        prop_assert_eq!(*size, direct.len());
        prop_assert_eq!(f.to_bytes_traced(*t), direct);
    }
}

/// Deterministic spot check: a decoder that just finished a frame has an
/// empty buffer and `want() == HEADER_LEN` — it never holds bytes of the
/// next frame hostage.
#[test]
fn decoder_resets_cleanly_between_frames() {
    let a = Frame::HealthRequest.to_bytes();
    let b = Frame::Drain.to_bytes_traced(7);
    let mut wire = a.clone();
    wire.extend_from_slice(&b);

    let mut dec = FrameDecoder::new();
    let (used, done) = dec.feed(&wire).unwrap();
    assert_eq!(used, a.len(), "first feed must stop at the frame boundary");
    assert!(done.is_some());
    assert!(!dec.mid_frame());
    assert_eq!(dec.want(), HEADER_LEN);

    let (used, done) = dec.feed(&wire[a.len()..]).unwrap();
    assert_eq!(used, b.len());
    let (frame, trace, _) = done.unwrap();
    assert_eq!(trace, 7);
    assert_eq!(frame.to_bytes_traced(7), b);
}
