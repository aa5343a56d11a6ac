//! Loopback integration: every frame kind exercised against a real TCP
//! server fronting small engines with a synthetic (quadratic) latency
//! profile — fast enough to run unignored on every `cargo test`.

use ms_core::slice_rate::SliceRateList;
use ms_net::protocol::InferOutcome;
use ms_net::{Client, PipelinedClient, Router, Server, ServerConfig, WireShedReason};
use ms_nn::layer::Layer;
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::sequential::Sequential;
use ms_nn::shared::SharedWeights;
use ms_nn::slice::SliceRate;
use ms_serving::controller::{RatePolicy, SlaController};
use ms_serving::engine::{Engine, EngineConfig};
use ms_serving::profile::LatencyProfile;
use ms_tensor::{SeededRng, Tensor};
use std::time::Duration;

const IN_DIM: usize = 8;
const OUT_DIM: usize = 4;

fn net(seed: u64) -> Box<dyn Layer + Send> {
    let mut rng = SeededRng::new(seed);
    Box::new(
        Sequential::new("net")
            .push(Linear::new(
                "fc1",
                LinearConfig {
                    in_dim: IN_DIM,
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
                    out_dim: OUT_DIM,
                    in_groups: Some(4),
                    out_groups: None,
                    bias: true,
                    input_rescale: true,
                },
                &mut rng,
            )),
    )
}

fn engine(weights: &SharedWeights, workers: usize, policy: RatePolicy) -> Engine {
    let profile =
        LatencyProfile::quadratic(SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]), 1e-5);
    let replicas = (0..workers)
        .map(|i| {
            let mut m = net(100 + i as u64);
            weights.hydrate(m.as_mut());
            m
        })
        .collect();
    Engine::start(
        EngineConfig {
            latency: 2e-3,
            headroom: 1.0,
            max_queue: 10_000,
            refine: false,
        },
        SlaController::new(profile, policy),
        replicas,
    )
}

fn start_server_with(replicas: usize, cfg: ServerConfig) -> (Server, SharedWeights) {
    let mut proto = net(7);
    let weights = SharedWeights::capture(proto.as_mut());
    let engines = (0..replicas)
        .map(|_| engine(&weights, 1, RatePolicy::Elastic))
        .collect();
    let server = Server::start("127.0.0.1:0", Router::new(engines), cfg).expect("bind loopback");
    (server, weights)
}

fn start_server(replicas: usize) -> (Server, SharedWeights) {
    start_server_with(replicas, ServerConfig::default())
}

fn input_for(id: u64) -> Tensor {
    Tensor::full([IN_DIM], ((id % 13) as f32) * 0.1 - 0.6)
}

#[test]
fn blocking_infer_round_trips_logits() {
    let (server, _w) = start_server(1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let r = client.infer(42, 2_000, &input_for(42)).expect("infer");
    assert_eq!(r.correlation_id, 42);
    match &r.outcome {
        InferOutcome::Logits { dims, data } => {
            assert_eq!(dims.as_slice(), &[OUT_DIM as u32]);
            assert_eq!(data.len(), OUT_DIM);
            assert!(data.iter().all(|x| x.is_finite()));
        }
        other => panic!("expected logits, got {other:?}"),
    }
    assert!(r.rate_used > 0.0 && r.rate_used <= 1.0);
    server.shutdown();
}

#[test]
fn pipelined_client_gets_every_response_back() {
    let (server, _w) = start_server(2);
    let mut client = PipelinedClient::connect(server.local_addr()).expect("connect");
    let n = 200u64;
    for id in 0..n {
        client.send(id, 0, &input_for(id)).expect("send");
    }
    client.flush().expect("flush");
    let mut seen = vec![false; n as usize];
    for _ in 0..n {
        let r = client
            .recv_timeout(Duration::from_secs(5))
            .expect("response before timeout");
        assert!(!seen[r.correlation_id as usize], "duplicate response");
        seen[r.correlation_id as usize] = true;
        assert!(matches!(r.outcome, InferOutcome::Logits { .. }));
    }
    assert!(seen.iter().all(|&s| s), "lost correlation ids");
    server.shutdown();
}

#[test]
fn identical_input_gets_bitwise_identical_logits_in_process() {
    // The engine's row outputs are independent of batch companions, so the
    // same input served at the same rate must match an in-process run bit
    // for bit — the property the wire must preserve (f32 as bit patterns).
    // The elastic engine picks its rate from measured latency, so the
    // in-process engine is pinned to the rate the wire's engine used.
    let (server, weights) = start_server(1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let r = client.infer(1, 0, &input_for(1)).expect("infer");
    let wire_logits = match r.outcome {
        InferOutcome::Logits { data, .. } => data,
        other => panic!("expected logits, got {other:?}"),
    };
    server.shutdown();

    let local = engine(&weights, 1, RatePolicy::Fixed(SliceRate::new(r.rate_used)));
    local.submit(input_for(1)).expect("submit");
    local.seal();
    local.drain();
    let (rs, _) = local.wait_events(Duration::ZERO);
    assert_eq!(rs.len(), 1);
    assert_eq!(rs[0].rate, r.rate_used, "different rate chosen");
    let local_bits: Vec<u32> = rs[0].logits.data().iter().map(|x| x.to_bits()).collect();
    let wire_bits: Vec<u32> = wire_logits.iter().map(|x| x.to_bits()).collect();
    assert_eq!(local_bits, wire_bits);
    local.shutdown();
}

#[test]
fn metrics_frame_serves_prometheus_text() {
    let (server, _w) = start_server(1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.infer(9, 0, &input_for(9)).expect("infer");
    let text = client.metrics().expect("metrics");
    assert!(
        text.contains("net_requests_total"),
        "missing net counters in exposition:\n{text}"
    );
    assert!(text.contains("# TYPE"), "not Prometheus text format");
    server.shutdown();
}

/// The live SLO block: a sampling server answers health with `Some` —
/// burn rates finite, the windowed p99 reflecting recent traffic — and a
/// sampler-off server answers `None`.
#[test]
fn health_frame_carries_live_slo_block() {
    let (server, _w) = start_server_with(
        1,
        ServerConfig {
            sample_interval: Duration::from_millis(25),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for id in 0..40 {
        let r = client.infer(id, 50_000, &input_for(id)).expect("infer");
        assert!(matches!(r.outcome, InferOutcome::Logits { .. }));
    }
    // Let the sampler take at least two snapshots so windows exist.
    std::thread::sleep(Duration::from_millis(120));
    let h = client.health().expect("health");
    let slo = h.slo.expect("sampling server must fill the SLO block");
    for burn in [
        slo.deadline_fast_burn,
        slo.deadline_slow_burn,
        slo.shed_fast_burn,
        slo.shed_slow_burn,
    ] {
        assert!(burn.is_finite() && burn >= 0.0, "burn {burn}");
    }
    assert!(
        slo.window_p99_s > 0.0,
        "windowed p99 must see the served requests"
    );
    server.shutdown();

    let (server, _w) = start_server_with(
        1,
        ServerConfig {
            slo_sampling: false,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let h = client.health().expect("health");
    assert_eq!(h.slo, None, "sampling off must send no SLO block");
    server.shutdown();
}

#[test]
fn health_frame_reports_each_replica() {
    let (server, _w) = start_server(3);
    server.router().set_draining(1, true);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let h = client.health().expect("health");
    assert!(!h.draining);
    assert_eq!(h.replicas.len(), 3);
    assert!(!h.replicas[0].draining);
    assert!(h.replicas[1].draining);
    assert!(!h.replicas[2].draining);
    server.shutdown();
}

#[test]
fn draining_replica_fails_over_to_the_live_one() {
    let (server, _w) = start_server(2);
    server.router().set_draining(0, true);
    let mut client = PipelinedClient::connect(server.local_addr()).expect("connect");
    for id in 0..50u64 {
        client.send(id, 0, &input_for(id)).expect("send");
    }
    client.flush().expect("flush");
    for _ in 0..50 {
        let r = client
            .recv_timeout(Duration::from_secs(5))
            .expect("response before timeout");
        assert!(matches!(r.outcome, InferOutcome::Logits { .. }));
    }
    // Everything landed on replica 1.
    let c0 = server.router().engine(0).counters();
    let c1 = server.router().engine(1).counters();
    assert_eq!(c0.served, 0);
    assert_eq!(c1.served, 50);
    server.shutdown();
}

#[test]
fn drain_flushes_every_in_flight_request_then_acks() {
    let (server, _w) = start_server(2);
    let delivered_before = server.delivered();
    assert_eq!(delivered_before, 0);
    let mut client = PipelinedClient::connect(server.local_addr()).expect("connect");
    let n = 300u64;
    for id in 0..n {
        client.send(id, 0, &input_for(id)).expect("send");
    }
    client.flush().expect("flush");
    // Drain immediately: many of those are still queued or in open batches.
    let delivered = client
        .drain_server(Duration::from_secs(10))
        .expect("drain ack");
    assert_eq!(delivered, n, "drain dropped in-flight requests");
    // Every response was written before the ack, so they are all readable
    // now without waiting.
    let mut seen = vec![false; n as usize];
    for _ in 0..n {
        let r = client
            .recv_timeout(Duration::from_secs(1))
            .expect("response flushed before ack");
        assert!(!seen[r.correlation_id as usize]);
        seen[r.correlation_id as usize] = true;
    }
    assert!(seen.iter().all(|&s| s), "lost correlation ids across drain");
}

#[test]
fn slow_loris_half_frame_is_reaped_but_healthy_and_idle_conns_survive() {
    use ms_net::protocol::{Frame, InferRequest};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Instant;

    let (server, _w) = start_server_with(
        1,
        ServerConfig {
            read_deadline: Duration::from_millis(150),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    // An idle connection: connected, zero bytes sent. Between frames is
    // not mid-frame — the reaper must leave it alone.
    let mut idle = Client::connect(addr).expect("connect idle");

    // The attacker: half an otherwise-valid frame, then silence.
    let frame = Frame::InferRequest(InferRequest {
        correlation_id: 666,
        deadline_micros: 0,
        dims: vec![IN_DIM as u32],
        data: vec![0.5; IN_DIM],
    })
    .to_bytes();
    let mut loris = TcpStream::connect(addr).expect("connect loris");
    loris
        .write_all(&frame[..frame.len() / 2])
        .expect("half frame");
    loris.flush().expect("flush half frame");

    // A healthy client keeps getting service the whole time the stalled
    // connection ages toward its deadline.
    let mut healthy = Client::connect(addr).expect("connect healthy");
    let start = Instant::now();
    let mut served = 0u64;
    while start.elapsed() < Duration::from_millis(600) {
        let r = healthy
            .infer(served, 0, &input_for(served))
            .expect("healthy infer");
        assert!(matches!(r.outcome, InferOutcome::Logits { .. }));
        served += 1;
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(served > 0);

    // The stalled half-frame connection was reaped...
    let deadline = Instant::now() + Duration::from_secs(3);
    while server.reaped_connections() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        server.reaped_connections(),
        1,
        "loris connection not reaped"
    );

    // ...and the attacker observes the hangup.
    loris
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("read timeout");
    let mut scratch = [0u8; 64];
    match loris.read(&mut scratch) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("reaped socket produced {n} bytes"),
    }

    // The idle connection is still perfectly serviceable.
    let r = idle
        .infer(9_999, 0, &input_for(3))
        .expect("idle infer after reap window");
    assert!(matches!(r.outcome, InferOutcome::Logits { .. }));
    assert_eq!(server.reaped_connections(), 1, "idle connection was reaped");
    server.shutdown();
}

#[test]
fn reader_that_never_drains_is_shed_at_the_output_cap() {
    use ms_net::protocol::Frame;
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Instant;

    let (server, _w) = start_server_with(
        1,
        ServerConfig {
            max_conn_backlog: 32 << 10, // 32 KiB: reachable fast on loopback
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    // Flood metrics requests and never read a byte back: each reply is
    // kilobytes of exposition text, so once the kernel socket buffers
    // fill, the server-side output queue must hit the cap and the
    // connection must be shed — not grow without bound.
    let mut glutton = TcpStream::connect(addr).expect("connect glutton");
    glutton
        .set_write_timeout(Some(Duration::from_millis(200)))
        .expect("write timeout");
    let req = Frame::MetricsRequest.to_bytes();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.backpressure_closed() == 0 && Instant::now() < deadline {
        // Write errors (reset by the shed) and timeouts (kernel buffer
        // full while the queue drains toward the cap) are both expected.
        if glutton.write_all(&req).is_err() {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    assert!(
        server.backpressure_closed() >= 1,
        "undrained reader was never shed at the output cap"
    );

    // Healthy traffic is unaffected by the shed connection.
    let mut healthy = Client::connect(addr).expect("connect healthy");
    let r = healthy.infer(1, 0, &input_for(1)).expect("healthy infer");
    assert!(matches!(r.outcome, InferOutcome::Logits { .. }));
    server.shutdown();
}

#[test]
fn requests_after_drain_are_refused_with_draining() {
    let (server, _w) = start_server(1);
    let addr = server.local_addr();
    let mut a = Client::connect(addr).expect("connect");
    a.infer(1, 0, &input_for(1)).expect("infer");
    let (flushed, delivered) = a.drain().expect("drain");
    assert!(flushed.is_empty());
    assert_eq!(delivered, 1);
    // The listener is gone (or refuses) after drain; either connecting
    // fails or the first request comes back shed as Draining.
    // A connection reset is acceptable too.
    if let Ok(mut b) = Client::connect(addr) {
        if let Ok(r) = b.infer(2, 0, &input_for(2)) {
            assert_eq!(
                r.outcome,
                InferOutcome::Shed(WireShedReason::Draining),
                "post-drain request must be refused"
            );
        }
    }
}
