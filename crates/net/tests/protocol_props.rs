//! Property-based codec fuzzing: the decoder must treat the wire as
//! hostile. For arbitrary frames, round-tripping is the identity; for
//! truncated, oversized, or bit-flipped bytes the decoder must return
//! `Err` — and never panic — on every input.
//!
//! Frame equality is asserted on *re-encoded bytes* rather than on the
//! structs: encoding is canonical, and byte equality stays exact for f32
//! payloads whose bit patterns (NaNs included) must survive the wire.

use ms_net::protocol::{
    read_frame, Frame, FrameDecoder, HealthReply, InferOutcome, InferRequest, InferResponse,
    NetError, ReplicaHealth, ShardIdentity, SloHealth, WireError, WireShedReason, HEADER_LEN,
    MAGIC, MAX_PAYLOAD, VERSION,
};
use proptest::prelude::*;

/// splitmix64: a tiny deterministic stream so one `u64` seed expands into
/// a whole frame (the vendored proptest has no strategy combinators).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Raw f32 bit patterns: normals, subnormals, infinities, NaNs.
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

/// Builds one deterministic frame of the selected kind from a seed.
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
            // Half the generated replies carry the optional SLO block, so
            // every property (round-trip, truncation, bit-flip, stream
            // agreement) covers both layouts.
            let slo = if m.next().is_multiple_of(2) {
                Some(SloHealth {
                    deadline_fast_burn: (m.next() % 10_000) as f64 * 1e-2,
                    deadline_slow_burn: (m.next() % 10_000) as f64 * 1e-2,
                    shed_fast_burn: (m.next() % 10_000) as f64 * 1e-2,
                    shed_slow_burn: (m.next() % 10_000) as f64 * 1e-2,
                    firing_alerts: (m.next() % 8) as u32,
                    window_p99_s: (m.next() % 1_000_000_000) as f64 * 1e-9,
                })
            } else {
                None
            };
            // Independent coin for the shard-identity block: round-trip,
            // truncation, and bit-flip properties all cover the four
            // slo × shard layouts.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// decode ∘ encode is the identity (asserted on canonical bytes, so
    /// NaN payloads count too).
    #[test]
    fn round_trip_is_identity(variant in 0usize..VARIANTS, seed in any::<u64>()) {
        let frame = build_frame(variant, seed);
        let bytes = frame.to_bytes();
        let decoded = match Frame::decode(&bytes) {
            Ok(f) => f,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("own encoding must decode: {e}"),
            )),
        };
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    /// Any strict prefix is rejected as an error, never a panic.
    #[test]
    fn truncation_always_errors(variant in 0usize..VARIANTS, seed in any::<u64>(), cut in any::<u64>()) {
        let bytes = build_frame(variant, seed).to_bytes();
        let cut = (cut as usize) % bytes.len(); // 0..len, strictly shorter
        prop_assert!(Frame::decode(&bytes[..cut]).is_err());
    }

    /// Appending garbage after a valid frame is rejected.
    #[test]
    fn trailing_bytes_always_error(
        variant in 0usize..VARIANTS,
        seed in any::<u64>(),
        extra in proptest::collection::vec(0u8..=255, 1..16),
    ) {
        let mut bytes = build_frame(variant, seed).to_bytes();
        bytes.extend_from_slice(&extra);
        prop_assert!(Frame::decode(&bytes).is_err());
    }

    /// Every single-bit flip anywhere in the frame is detected: flips in
    /// the magic fail the magic check, flips in the stored checksum no
    /// longer match, and flips in the checksummed region always change the
    /// FNV-1a value (each step `h ↦ (h⊕b)·p` is a bijection for fixed `b`,
    /// so a one-byte difference can never cancel).
    #[test]
    fn any_bit_flip_is_rejected(variant in 0usize..VARIANTS, seed in any::<u64>(), bit in any::<u64>()) {
        let mut bytes = build_frame(variant, seed).to_bytes();
        let bit = (bit as usize) % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(Frame::decode(&bytes).is_err());
    }

    /// Arbitrary byte soup never panics the buffer decoder or the stream
    /// reader (success is allowed in principle; the checksum makes it
    /// astronomically unlikely).
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = Frame::decode(&bytes);
        let mut cursor = std::io::Cursor::new(bytes);
        let _ = read_frame(&mut cursor);
    }

    /// A header declaring an oversized payload is refused by the stream
    /// reader from the header alone (an unknown type tag is refused
    /// first), whatever follows.
    #[test]
    fn oversized_declared_length_is_refused(
        declared in (MAX_PAYLOAD + 1)..=u32::MAX,
        ty in 0u16..=u16::MAX,
    ) {
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC.to_le_bytes());
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&ty.to_le_bytes());
        header.extend_from_slice(&declared.to_le_bytes());
        header.extend_from_slice(&[0u8; 12]); // checksum + trace id
        let mut cursor = std::io::Cursor::new(header);
        prop_assert!(matches!(
            read_frame(&mut cursor),
            Err(NetError::Wire(WireError::Oversized(_) | WireError::UnknownType(_)))
        ));
    }

    /// Streamed and buffered decoding agree byte-for-byte, and the stream
    /// reader reports the exact frame size.
    #[test]
    fn stream_reader_matches_buffer_decoder(variant in 0usize..VARIANTS, seed in any::<u64>()) {
        let bytes = build_frame(variant, seed).to_bytes();
        let mut cursor = std::io::Cursor::new(bytes.clone());
        let (decoded, _, n) = match read_frame(&mut cursor) {
            Ok(r) => r,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("stream decode failed: {e}"),
            )),
        };
        prop_assert_eq!(n, bytes.len());
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }

    /// The trace context round-trips the codec for every frame kind and
    /// every trace id, including 0.
    #[test]
    fn trace_context_round_trips(variant in 0usize..VARIANTS, seed in any::<u64>(), trace in any::<u64>()) {
        let frame = build_frame(variant, seed);
        let bytes = frame.to_bytes_traced(trace);
        let (decoded, got_trace) = match Frame::decode_traced(&bytes) {
            Ok(r) => r,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("own traced encoding must decode: {e}"),
            )),
        };
        prop_assert_eq!(got_trace, trace);
        prop_assert_eq!(decoded.to_bytes_traced(trace), bytes);
    }

    /// Every single-bit flip in a traced frame is rejected — the trace id
    /// is inside the checksummed region, and a flip in the version field
    /// names a version no decoder accepts.
    #[test]
    fn traced_bit_flip_is_rejected(variant in 0usize..VARIANTS, seed in any::<u64>(), bit in any::<u64>()) {
        let mut bytes = build_frame(variant, seed).to_bytes_traced(0x1234_5678_9ABC_DEF0);
        let bit = (bit as usize) % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(Frame::decode_traced(&bytes).is_err());
    }

    /// The traced stream reader agrees with the traced buffer decoder.
    #[test]
    fn traced_stream_reader_matches_buffer_decoder(
        variant in 0usize..VARIANTS,
        seed in any::<u64>(),
        trace in any::<u64>(),
    ) {
        let bytes = build_frame(variant, seed).to_bytes_traced(trace);
        let mut cursor = std::io::Cursor::new(bytes.clone());
        let (decoded, got_trace, n) = match read_frame(&mut cursor) {
            Ok(r) => r,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("traced stream decode failed: {e}"),
            )),
        };
        prop_assert_eq!(n, bytes.len());
        prop_assert_eq!(got_trace, trace);
        prop_assert_eq!(decoded.to_bytes_traced(trace), bytes);
    }

    /// A frame stamped with an earlier version — re-checksummed, so the
    /// version is the only thing wrong with it — is refused as
    /// `UnsupportedVersion` by the buffer decoder, the stream reader and
    /// the incremental decoder alike.
    #[test]
    fn earlier_versions_are_refused_by_every_entry_point(
        variant in 0usize..VARIANTS,
        seed in any::<u64>(),
        trace in any::<u64>(),
        old in 1u16..=2,
    ) {
        let mut bytes = build_frame(variant, seed).to_bytes_traced(trace);
        bytes[4..6].copy_from_slice(&old.to_le_bytes());
        restamp_checksum(&mut bytes);
        let refused = WireError::UnsupportedVersion(old);
        prop_assert_eq!(Frame::decode_traced(&bytes).err(), Some(refused));
        let streamed = read_frame(&mut std::io::Cursor::new(bytes.clone()));
        prop_assert!(matches!(streamed, Err(NetError::Wire(e)) if e == refused));
        prop_assert_eq!(FrameDecoder::new().feed(&bytes).err(), Some(refused));
    }
}

/// Re-stamps the checksum of a frame a test has edited: FNV-1a over bytes
/// [4..12), then [16..) — the encoder's formula.
fn restamp_checksum(bytes: &mut [u8]) {
    let mut h: u32 = 0x811C_9DC5;
    for &b in bytes[4..12].iter().chain(&bytes[16..]) {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    bytes[12..16].copy_from_slice(&h.to_le_bytes());
}
