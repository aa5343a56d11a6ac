//! End-to-end serving over TCP: the `tests/serving_sla.rs` flash-crowd
//! trace, told through the wire instead of in-process replay.
//!
//! A client paces the two-crowd trace in real time over a loopback socket,
//! stamping every request with its SLA as a wire deadline, then drains the
//! server with the backlog still in flight. What is asserted is what is
//! logical over a real socket: every correlation id comes back exactly
//! once, served or shed; the `DrainAck` counts all of them; the elastic
//! policy sheds under the crowds and the fixed one never does. How many
//! arrive *on time* is a measurement, and lives on the benchmark
//! (`loadgen.on_time_frac`, `loadgen.step<k>_on_time_frac` @`wire_staircase`);
//! that elastic beats every fixed rate on deadline hits is arithmetic, and
//! lives in `tests/serving_sla.rs` on the engine's virtual clock.

use modelslicing::models::mlp::{Mlp, MlpConfig};
use modelslicing::net::protocol::{read_frame, write_frame, Frame, InferOutcome, InferRequest};
use modelslicing::net::{Client, PipelinedClient, Router, Server, ServerConfig};
use modelslicing::nn::layer::Layer;
use modelslicing::nn::shared::SharedWeights;
use modelslicing::serving::controller::{RatePolicy, SlaController};
use modelslicing::serving::engine::{Engine, EngineConfig};
use modelslicing::serving::profile::LatencyProfile;
use modelslicing::serving::workload::WorkloadTrace;
use modelslicing::slicing::slice_rate::{SliceRate, SliceRateList};
use modelslicing::telemetry::flight;
use modelslicing::tensor::{SeededRng, Tensor};
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The flight recorder is process-global and the soaks hold thousands of
/// sockets: one test of this binary at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const INPUT_DIM: usize = 64;
const REPLICAS: usize = 2;

/// Heavier than the in-process test's MLP on purpose: wall-clock pacing
/// needs engine windows in the milliseconds, or OS scheduling and sleep
/// granularity (~0.1–1 ms) would dominate the µs-scale windows a tiny
/// model calibrates to and every response would miss its deadline for
/// reasons that have nothing to do with the serving policy.
fn mlp_config() -> MlpConfig {
    MlpConfig {
        input_dim: INPUT_DIM,
        hidden_dims: vec![512, 512],
        num_classes: 8,
        groups: 4,
        dropout: 0.0,
        input_rescale: true,
    }
}

fn calibrated_profile() -> LatencyProfile {
    let mut rng = SeededRng::new(11);
    let mut net = Mlp::new(&mlp_config(), &mut rng);
    LatencyProfile::calibrate(
        &mut net,
        SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]),
        &[INPUT_DIM],
        512,
        5,
    )
}

fn input_for(id: u64) -> Tensor {
    Tensor::full([INPUT_DIM], ((id % 31) as f32) * 0.06 - 0.9)
}

/// The client-side SLA is this multiple of the engine's internal SLA:
/// the engine plans against the tighter budget, and the allowance covers
/// what the in-process test never pays — transport, the server's
/// rendezvous, and worker/dispatcher contention when CI gives us one core.
const WIRE_ALLOWANCE: f64 = 2.0;

struct WireRun {
    served: usize,
    shed: usize,
    /// The `DrainAck` payload: responses the server flushed in its lifetime.
    ack_delivered: u64,
}

/// Stands up a routed multi-replica server under `policy`, paces `trace`
/// through one pipelined connection (one tick per engine window, every
/// request carrying `latency` as its wire deadline), then drains the
/// server over the wire and accounts for every correlation id: none
/// unknown, none twice.
fn run_over_wire(
    profile: &LatencyProfile,
    policy: RatePolicy,
    trace: &WorkloadTrace,
    latency: f64,
) -> WireRun {
    let mut proto = Mlp::new(&mlp_config(), &mut SeededRng::new(17));
    let weights = SharedWeights::capture(&mut proto);
    let engines = (0..REPLICAS)
        .map(|i| {
            let mut m = Mlp::new(&mlp_config(), &mut SeededRng::new(100 + i as u64));
            weights.hydrate(&mut m);
            Engine::start(
                EngineConfig {
                    latency,
                    headroom: 0.5,
                    max_queue: usize::MAX / 2,
                    refine: false,
                },
                SlaController::new(profile.clone(), policy),
                vec![Box::new(m) as Box<dyn Layer + Send>],
            )
        })
        .collect();
    let server = Server::start("127.0.0.1:0", Router::new(engines), ServerConfig::default())
        .expect("bind loopback");

    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader_stream = stream.try_clone().expect("clone stream");

    let total: usize = trace.arrivals.iter().sum();
    let window = latency / 2.0;
    let deadline = latency * WIRE_ALLOWANCE;
    // Looser than the engine default, so it exercises the wire field
    // without tightening the planner below its configured budget.
    let deadline_micros = (deadline * 1e6) as u64;

    let (answers, ack) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut reader = BufReader::new(reader_stream);
            let mut got: Vec<(u64, bool)> = Vec::new();
            let mut ack = None;
            loop {
                match read_frame(&mut reader) {
                    Ok((Frame::InferResponse(r), _, _)) => {
                        let ok = matches!(r.outcome, InferOutcome::Logits { .. });
                        got.push((r.correlation_id, ok));
                    }
                    Ok((Frame::DrainAck { delivered }, _, _)) => {
                        ack = Some(delivered);
                        break;
                    }
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            (got, ack)
        });

        // Pace the trace on an absolute schedule: one tick per window; a
        // burst that takes longer than a window to serialise just spills
        // into the next tick, exactly as a real client's would.
        let mut writer = BufWriter::new(&stream);
        let start = Instant::now();
        let mut id: u64 = 0;
        for (t, &n) in trace.arrivals.iter().enumerate() {
            let due = window * t as f64;
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed < due {
                std::thread::sleep(Duration::from_secs_f64(due - elapsed));
            }
            for _ in 0..n {
                write_frame(
                    &mut writer,
                    &Frame::InferRequest(InferRequest {
                        correlation_id: id,
                        deadline_micros,
                        dims: vec![INPUT_DIM as u32],
                        data: input_for(id).data().to_vec(),
                    }),
                    0,
                )
                .expect("write request");
                id += 1;
            }
            writer.flush().expect("flush tick");
        }
        // Graceful drain while the backlog is still in flight: every
        // response must be flushed to us before the ack arrives.
        write_frame(&mut writer, &Frame::Drain, 0).expect("write drain");
        writer.flush().expect("flush drain");
        collector.join().expect("collector thread")
    });

    server.shutdown();

    let ack_delivered = ack.expect("no DrainAck before the connection closed");
    let mut seen = vec![false; total];
    let mut served = 0usize;
    for (cid, ok) in &answers {
        let idx = *cid as usize;
        assert!(idx < total, "response for an id never sent: {cid}");
        assert!(!seen[idx], "duplicate response for id {cid}");
        seen[idx] = true;
        served += *ok as usize;
    }
    WireRun {
        served,
        shed: answers.len() - served,
        ack_delivered,
    }
}

#[test]
fn a_drain_under_backlog_answers_every_id_shed_or_served() {
    let _serial = serial();
    let profile = calibrated_profile();
    // Window sized so a full-width batch of a hundred samples fits: small
    // enough that the fixed-rate run (which must serve *everything* before
    // its drain completes) stays affordable on one core.
    let budget = profile.predict(100, SliceRate::FULL);
    let latency = budget * 4.0; // window = T/2 = 2·budget, headroom 0.5
    let trace = WorkloadTrace::two_crowds(&profile, budget, 60, 5);
    let total = trace.total();

    let elastic = run_over_wire(&profile, RatePolicy::Elastic, &trace, latency);
    // Drain dropped nothing: every correlation id came back, and the
    // server's own delivery count agrees.
    assert_eq!(elastic.served + elastic.shed, total, "lost requests");
    assert_eq!(elastic.ack_delivered as usize, total);
    assert!(elastic.served > 0);
    // Under the flash crowds the elastic engine sheds rather than queues…
    assert!(elastic.shed > 0, "flash crowds force admission shedding");

    // …while the inelastic full-width server answers everything: the
    // deepest backlog a drain can meet, and it still loses nothing.
    let full = RatePolicy::Fixed(SliceRate::FULL);
    let fixed = run_over_wire(&profile, full, &trace, latency);
    assert_eq!(fixed.served + fixed.shed, total, "lost requests");
    assert_eq!(fixed.ack_delivered as usize, total);
    assert_eq!(fixed.shed, 0, "a fixed rate never sheds");
}

/// Turns the flight recorder on for one test and guarantees it is off
/// (and the retained set cleared) however the test exits.
struct RecorderGuard;

impl RecorderGuard {
    fn on() -> RecorderGuard {
        flight::reset();
        // The soak can shed hundreds of requests; keep them all so the
        // retained-set assertions below are not at the mercy of eviction.
        flight::set_tail_policy(flight::TailPolicy {
            slowest_k: 8,
            retain_cap: 4096,
        });
        flight::set_recording(true);
        RecorderGuard
    }
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        flight::set_recording(false);
        flight::set_tail_policy(flight::TailPolicy::default());
        flight::reset();
    }
}

/// End-to-end tracing under contention: 16 pipelined clients, each
/// stamping its own trace ids onto the wire, soak a routed two-replica
/// server. Every single request — served or shed — must come back with a
/// complete, monotonically-timestamped flight chain under its client-
/// chosen id, the chain's terminal must agree with what the client saw,
/// and for the slowest served request the five per-stage durations must
/// tile the chain exactly. The dump is exported as Chrome trace-event JSON
/// and structurally checked.
#[test]
fn sixteen_client_soak_traces_every_request_end_to_end() {
    let _serial = serial();
    traced_soak(&calibrated_profile(), 0xE2E0_0000_0000_0000);
}

const SOAK_CLIENTS: usize = 16;
const SOAK_PER_CLIENT: usize = 40;

fn traced_soak(profile: &LatencyProfile, trace_base: u64) {
    let _recorder = RecorderGuard::on();
    let budget = profile.predict(100, SliceRate::FULL);
    // A wide SLA (long seal window) on purpose: the flood then queues for
    // multiple windows.
    let latency = budget * 8.0;
    let mut proto = Mlp::new(&mlp_config(), &mut SeededRng::new(17));
    let weights = SharedWeights::capture(&mut proto);
    let engines = (0..REPLICAS)
        .map(|i| {
            let mut m = Mlp::new(&mlp_config(), &mut SeededRng::new(200 + i as u64));
            weights.hydrate(&mut m);
            Engine::start(
                EngineConfig {
                    latency,
                    headroom: 0.5,
                    max_queue: usize::MAX / 2,
                    refine: false,
                },
                SlaController::new(profile.clone(), RatePolicy::Elastic),
                vec![Box::new(m) as Box<dyn Layer + Send>],
            )
        })
        .collect();
    let server = Server::start("127.0.0.1:0", Router::new(engines), ServerConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();
    // Deliberately tight: one full-width batch budget. The flood queues
    // several windows deep, so requests *will* miss this and the
    // controller's narrowed planning budget *will* shed — the outcomes the
    // tail sampler exists for.
    let deadline_micros = (budget * 1e6) as u64;

    // Each client fires its requests in bursts (flood first, collect
    // later) so the replicas see real queueing — the soak must produce
    // deadline misses or admission sheds, not a sequence of idle RPCs.
    type ClientLog = Vec<(u64, f64, bool)>; // (trace_id, client latency s, served)
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SOAK_CLIENTS)
            .map(|k| {
                s.spawn(move || {
                    let mut client = PipelinedClient::connect(addr).expect("connect");
                    // Warm-up round trip: the measured phase must not bill
                    // accept-loop polling and reader/writer thread spawns
                    // to the first request's latency.
                    client
                        .send_traced(u64::MAX, 0, &input_for(0), 0)
                        .expect("warm-up send");
                    client.flush().expect("warm-up flush");
                    client
                        .recv_traced_timeout(Duration::from_secs(60))
                        .expect("warm-up response");
                    let mut sent: Vec<(u64, Instant)> = Vec::with_capacity(SOAK_PER_CLIENT);
                    for i in 0..SOAK_PER_CLIENT {
                        let trace = trace_base + (k as u64) * 1_000 + i as u64;
                        let input = input_for((k * SOAK_PER_CLIENT + i) as u64);
                        // Flush per request: `t0` must mean "this frame is
                        // on the wire", or client-side write buffering
                        // would count against the server's attribution.
                        sent.push((trace, Instant::now()));
                        client
                            .send_traced(i as u64, deadline_micros, &input, trace)
                            .expect("send");
                        client.flush().expect("flush");
                    }
                    let mut log: ClientLog = Vec::with_capacity(SOAK_PER_CLIENT);
                    for _ in 0..SOAK_PER_CLIENT {
                        let (resp, trace) = client
                            .recv_traced_timeout(Duration::from_secs(60))
                            .expect("response before timeout");
                        let (sent_trace, t0) = sent[resp.correlation_id as usize];
                        assert_eq!(
                            trace, sent_trace,
                            "response must echo the request's trace id"
                        );
                        let served = matches!(resp.outcome, InferOutcome::Logits { .. });
                        log.push((trace, t0.elapsed().as_secs_f64(), served));
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    // What `scrape <addr> trace` fetches: the server's own harvest, as a
    // `TraceDumpReply` over the wire.
    let wire_json = Client::connect(addr)
        .expect("connect")
        .trace_dump()
        .expect("trace dump over the wire");
    server.shutdown();

    // Zero lost ids: one complete, monotone chain per request, terminal
    // agreeing with the client-observed outcome.
    // Only this run's chains: the recorder is process-global.
    let trace_end = trace_base + (SOAK_CLIENTS as u64) * 1_000;
    let chains: Vec<flight::TraceChain> = flight::chains()
        .into_iter()
        .filter(|c| c.trace_id >= trace_base && c.trace_id < trace_end)
        .collect();
    let total = SOAK_CLIENTS * SOAK_PER_CLIENT;
    assert_eq!(chains.len(), total, "every request must leave a chain");
    let by_id: std::collections::HashMap<u64, &flight::TraceChain> =
        chains.iter().map(|c| (c.trace_id, c)).collect();
    let mut slowest_served: Option<(u64, f64)> = None; // (trace, client s)
    let mut misses = 0usize;
    let mut sheds = 0usize;
    for (trace, client_s, served) in logs.iter().flatten() {
        let chain = by_id
            .get(trace)
            .unwrap_or_else(|| panic!("trace {trace:#x} lost"));
        assert!(chain.is_monotonic(), "non-monotone chain for {trace:#x}");
        assert!(chain.is_complete(), "incomplete chain for {trace:#x}");
        let terminal = chain.terminal().expect("complete chain has terminal");
        if *served {
            assert_eq!(terminal, flight::EventKind::Delivered, "trace {trace:#x}");
            if chain.deadline_missed() {
                misses += 1;
            }
            if slowest_served.is_none_or(|(_, s)| *client_s > s) {
                slowest_served = Some((*trace, *client_s));
            }
        } else {
            assert_eq!(terminal, flight::EventKind::Shed, "trace {trace:#x}");
            sheds += 1;
        }
    }
    eprintln!(
        "DIAG soak: sheds={sheds} misses={misses} slowest={:?} deadline={:.4}s",
        slowest_served,
        deadline_micros as f64 * 1e-6
    );
    assert!(
        misses + sheds > 0,
        "soak produced neither a deadline miss nor a shed — not a soak"
    );

    // Per-stage attribution: on the slowest served request the five stages
    // tile the chain exactly. How close that comes to what the client itself
    // measured is printed, and gated on the benchmark
    // (`net.unattributed_ms_p50`).
    let (slow_trace, client_s) = slowest_served.expect("soak served nothing");
    let chain = by_id[&slow_trace];
    let stages = chain.stage_nanos().expect("served chain has stages");
    let stage_sum_s = stages.iter().sum::<u64>() as f64 * 1e-9;
    assert_eq!(
        stage_sum_s,
        chain.total_nanos().unwrap() as f64 * 1e-9,
        "stages must tile the chain exactly"
    );
    let rel = (client_s - stage_sum_s).abs() / client_s;
    eprintln!(
        "DIAG slowest trace {slow_trace:#x}: client {client_s:.4}s, stages {stage_sum_s:.4}s \
         (rel err {:.2}%), misses={misses} sheds={sheds}",
        rel * 100.0
    );

    // The dump round: harvest retains the interesting tail (every shed +
    // every miss + slowest-K), and the Chrome export is structurally valid.
    flight::harvest();
    let retained = flight::retained();
    assert!(
        retained.iter().any(|c| c.trace_id == slow_trace),
        "slowest served chain must be tail-sampled"
    );
    let path = flight::export_chrome_trace("results/logs", "e2e").expect("export");
    let json = std::fs::read_to_string(&path).expect("read export");
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    assert!(json.contains("\"ph\":\"M\""), "needs metadata events");
    assert!(json.contains("\"ph\":\"X\""), "needs duration slices");
    for name in flight::STAGE_NAMES {
        assert!(
            json.contains(&format!("\"name\":\"{name}\"")),
            "missing {name}"
        );
    }
    assert!(
        json.contains(&format!("\"trace_id\":{slow_trace}")),
        "slowest chain must appear in the export"
    );
    assert!(wire_json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(
        wire_json.contains(&format!("\"trace_id\":{slow_trace}")),
        "slowest chain must appear in the dump served over the wire"
    );
}

// ---------------------------------------------------------------------------
// 10k-connection reactor soak
// ---------------------------------------------------------------------------

/// The tiny sliced MLP for the connection-scale soak: at these widths
/// every batch of ≤ 32 rows stays on the per-row small-GEMM path, so a
/// request's logits are independent of its batch companions and bitwise
/// replay is a fair demand (same argument as `crates/net/tests/soak.rs`).
fn small_mlp_config() -> MlpConfig {
    MlpConfig {
        input_dim: 8,
        hidden_dims: vec![32],
        num_classes: 4,
        groups: 4,
        dropout: 0.0,
        input_rescale: true,
    }
}

fn small_profile() -> LatencyProfile {
    LatencyProfile::quadratic(SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]), 1e-5)
}

fn small_input(id: u64) -> Tensor {
    Tensor::full([8], ((id % 251) as f32) * 0.008 - 1.0)
}

/// A live engine for the server, or (`replayed`) the same engine on the
/// virtual clock for the in-process reference.
fn small_engine(
    cfg: &MlpConfig,
    weights: &SharedWeights,
    policy: RatePolicy,
    replayed: bool,
) -> Engine {
    let mut m = Mlp::new(cfg, &mut SeededRng::new(400));
    weights.hydrate(&mut m);
    let config = EngineConfig {
        // Wide window and deep queue: this soak is about connection
        // scale and delivery accounting, not SLAs — nothing may shed.
        latency: 0.05,
        headroom: 1.0,
        max_queue: 1_000_000,
        refine: false,
    };
    let controller = SlaController::new(small_profile(), policy);
    if replayed {
        Engine::start_virtual(config, controller, small_profile(), vec![Box::new(m)])
    } else {
        Engine::start(config, controller, vec![Box::new(m)])
    }
}

/// The out-of-process client fleet for the 10k soak below — not a test
/// in its own right (an immediate no-op unless `MS_SOAK10K_ADDR` is
/// set). fd limits are per-process and this container caps
/// `RLIMIT_NOFILE` at 20k with `CAP_SYS_RESOURCE` dropped, while 10k
/// blocking clients cost 20k fds on their own (each `Client` holds two
/// via `try_clone`) on top of the server's 10k accepted sockets — so
/// the soak re-execs this binary twice, each child holding half the
/// client fleet, leaving the server half of every pair to the parent.
///
/// Each child's threads open their blocking clients (a barrier holds
/// until the whole child fleet is connected before any request flows),
/// round-robin requests over every connection, and stream
/// `id rate_bits logit_bits…` lines to `MS_SOAK10K_OUT` for the parent
/// to verify against an in-process replay.
#[test]
#[ignore = "helper process for the 10k soak; no-op unless MS_SOAK10K_ADDR is set"]
fn soak10k_client_fleet_helper() {
    use modelslicing::net::{sys, Client};
    use std::io::BufWriter as IoBufWriter;
    use std::sync::{Arc, Barrier};

    let Ok(addr) = std::env::var("MS_SOAK10K_ADDR") else {
        return;
    };
    let out_path = std::env::var("MS_SOAK10K_OUT").expect("MS_SOAK10K_OUT");
    let threads: usize = std::env::var("MS_SOAK10K_THREADS")
        .expect("MS_SOAK10K_THREADS")
        .parse()
        .expect("thread count");
    let per_thread: usize = std::env::var("MS_SOAK10K_CONNS_PER_THREAD")
        .expect("MS_SOAK10K_CONNS_PER_THREAD")
        .parse()
        .expect("conns per thread");
    let reqs_per_conn: usize = std::env::var("MS_SOAK10K_REQS_PER_CONN")
        .expect("MS_SOAK10K_REQS_PER_CONN")
        .parse()
        .expect("reqs per conn");
    let thread_base: usize = std::env::var("MS_SOAK10K_THREAD_BASE")
        .expect("MS_SOAK10K_THREAD_BASE")
        .parse()
        .expect("thread base");
    // A blocking `Client` costs two fds (`try_clone` splits the stream
    // into buffered read/write halves), hence the factor of 2.
    let nofile = sys::raise_nofile_limit(65_536).expect("raise RLIMIT_NOFILE");
    assert!(
        nofile as usize >= threads * per_thread * 2 + 200,
        "client fleet needs {} fds, RLIMIT_NOFILE is {nofile}",
        threads * per_thread * 2
    );

    let barrier = Arc::new(Barrier::new(threads));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut conns: Vec<Client> = (0..per_thread)
                    .map(|_| Client::connect(&*addr).expect("connect"))
                    .collect();
                barrier.wait(); // all fleet connections open before any request

                let mut got: Vec<(u64, f32, Vec<f32>)> =
                    Vec::with_capacity(per_thread * reqs_per_conn);
                for seq in 0..reqs_per_conn {
                    for (k, conn) in conns.iter_mut().enumerate() {
                        let id = (((thread_base + t) * per_thread + k) as u64) * 100 + seq as u64;
                        let deadline_micros = if seq % 2 == 0 { 0 } else { 500_000 };
                        let r = conn
                            .infer(id, deadline_micros, &small_input(id))
                            .expect("infer");
                        assert_eq!(r.correlation_id, id, "response for the wrong request");
                        match r.outcome {
                            InferOutcome::Logits { data, .. } => got.push((id, r.rate_used, data)),
                            InferOutcome::Shed(reason) => {
                                panic!("unexpected shed {reason:?} for id {id}")
                            }
                        }
                    }
                }
                got
            })
        })
        .collect();

    let mut out = IoBufWriter::new(std::fs::File::create(&out_path).expect("create out file"));
    for w in workers {
        for (id, rate, logits) in w.join().expect("fleet thread") {
            write!(out, "{id} {}", rate.to_bits()).expect("write result");
            for l in &logits {
                write!(out, " {}", l.to_bits()).expect("write result");
            }
            writeln!(out).expect("write result");
        }
    }
    out.into_inner()
        .expect("flush results")
        .sync_all()
        .expect("sync results");
}

/// 10,000 concurrent connections against the reactor: the client fleet
/// runs in a re-exec of this binary (see `soak10k_client_fleet_helper`
/// for why fd limits force two processes), all 10k held open at once —
/// asserted via the live connection gauge — while churn clients in this
/// process connect, fire requests, and vanish without reading, some
/// hanging up with unread response bytes (an RST on Linux, which may
/// retroactively discard their request). Then a graceful drain with a
/// 200-request burst still in flight.
///
/// Asserted: zero lost correlation ids across 20k healthy requests,
/// every healthy response bitwise-identical to an in-process `replay()`
/// at the same rate, every burst response flushed before the `DrainAck`,
/// and the ack's delivery count bracketed by exact churn accounting.
#[test]
#[ignore = "10k-connection soak; run with cargo test --release --test net_loopback -- --ignored"]
fn ten_thousand_connections_zero_loss_bitwise_replay_and_drain_under_churn() {
    use modelslicing::net::{sys, Client};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const CHILDREN: usize = 2; // fd budget: see soak10k_client_fleet_helper
    const THREADS_PER_CHILD: usize = 8;
    const THREADS: usize = CHILDREN * THREADS_PER_CHILD;
    const CONNS_PER_THREAD: usize = 625; // 16 × 625 = 10,000 connections
    const REQS_PER_CONN: usize = 2;
    const CHURN_THREADS: usize = 8;
    const CHURN_ITERS: usize = 40;
    const BURST: u64 = 200;
    const FLEET: u64 = (THREADS * CONNS_PER_THREAD) as u64;

    let _guard = serial();
    // This process holds the server half of every fleet socket (~10k fds);
    // the fleet child holds the client half under its own limit.
    let nofile = sys::raise_nofile_limit(65_536).expect("raise RLIMIT_NOFILE");
    assert!(
        nofile >= FLEET + 1_000,
        "server side of {FLEET} connections needs fds; RLIMIT_NOFILE is {nofile}"
    );

    let cfg = small_mlp_config();
    let mut proto = Mlp::new(&cfg, &mut SeededRng::new(7));
    let weights = SharedWeights::capture(&mut proto);
    let engines = (0..REPLICAS)
        .map(|_| small_engine(&cfg, &weights, RatePolicy::Elastic, false))
        .collect();
    let server = Server::start(
        "127.0.0.1:0",
        Router::new(engines),
        ServerConfig {
            seal_interval: Some(Duration::from_millis(1)),
            reactors: 2, // exercise cross-reactor round-robin at scale
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Phases 1–2 run in the fleet child: connect all 10k, then round-robin
    // blocking requests over every connection (≤ 16 healthy requests
    // outstanding, so server batches stay on the small-GEMM path even
    // with churn rows).
    // A fleet child that outlives a parent panic would pin its half of
    // every socket open forever; reap on every exit path.
    struct KillOnDrop(std::process::Child);
    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    std::fs::create_dir_all("results/logs").expect("results dir");
    let exe = std::env::current_exe().expect("current_exe");
    let mut out_paths = Vec::new();
    let mut fleet: Vec<KillOnDrop> = (0..CHILDREN)
        .map(|child| {
            let out_path = format!(
                "results/logs/soak10k_fleet_{}_{child}.txt",
                std::process::id()
            );
            let spawned = std::process::Command::new(&exe)
                .args([
                    "soak10k_client_fleet_helper",
                    "--exact",
                    "--ignored",
                    "--nocapture",
                ])
                .env("MS_SOAK10K_ADDR", addr.to_string())
                .env("MS_SOAK10K_OUT", &out_path)
                .env("MS_SOAK10K_THREADS", THREADS_PER_CHILD.to_string())
                .env("MS_SOAK10K_CONNS_PER_THREAD", CONNS_PER_THREAD.to_string())
                .env("MS_SOAK10K_REQS_PER_CONN", REQS_PER_CONN.to_string())
                .env(
                    "MS_SOAK10K_THREAD_BASE",
                    (child * THREADS_PER_CHILD).to_string(),
                )
                .spawn()
                .expect("spawn client fleet");
            out_paths.push(out_path);
            KillOnDrop(spawned)
        })
        .collect();

    // The fleet holds every connection open until its request phase ends,
    // so the gauge reaching 10k proves all of them concurrently open.
    let connect_deadline = Instant::now() + Duration::from_secs(120);
    while server.connections() < FLEET {
        assert!(
            Instant::now() < connect_deadline,
            "fleet stalled at {} of {FLEET} connections",
            server.connections()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Churn: clients that connect, send, and disconnect mid-trace. Rude
    // hangups (drop with the response unread) may RST before the server
    // reads the request, so delivery is *bracketed*: every completed
    // round trip is a floor, every successful write a ceiling.
    let churn_written = Arc::new(AtomicU64::new(0));
    let churn_read = Arc::new(AtomicU64::new(0));
    let churners: Vec<_> = (0..CHURN_THREADS)
        .map(|ct| {
            let written = Arc::clone(&churn_written);
            let read = Arc::clone(&churn_read);
            std::thread::spawn(move || {
                for it in 0..CHURN_ITERS {
                    let id = 0x8000_0000_0000_0000u64 | ((ct as u64) << 32) | it as u64;
                    if it % 2 == 0 {
                        // Polite: full round trip, then hang up cleanly.
                        let mut c = Client::connect(addr).expect("churn connect");
                        let r = c.infer(id, 0, &small_input(id)).expect("churn infer");
                        assert_eq!(r.correlation_id, id);
                        written.fetch_add(1, Ordering::Relaxed);
                        read.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // Rude: write the request, give the server a moment,
                        // vanish with the response unread.
                        let mut s = TcpStream::connect(addr).expect("churn connect");
                        let val = ((id % 251) as f32) * 0.008 - 1.0;
                        let req = Frame::InferRequest(InferRequest {
                            correlation_id: id,
                            deadline_micros: 0,
                            dims: vec![8],
                            data: vec![val; 8],
                        });
                        if write_frame(&mut s, &req, 0).is_ok() {
                            written.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        drop(s);
                    }
                }
            })
        })
        .collect();

    let mut by_id: HashMap<u64, (f32, Vec<f32>)> = HashMap::new();
    for (child, out_path) in fleet.iter_mut().zip(&out_paths) {
        let status = child.0.wait().expect("await client fleet");
        assert!(status.success(), "client fleet failed: {status}");
        for line in std::fs::read_to_string(out_path)
            .expect("fleet results")
            .lines()
        {
            let mut cols = line.split_ascii_whitespace();
            let id: u64 = cols.next().expect("id").parse().expect("id");
            let rate = f32::from_bits(cols.next().expect("rate").parse().expect("rate"));
            let logits: Vec<f32> = cols
                .map(|c| f32::from_bits(c.parse().expect("logit bits")))
                .collect();
            assert!(
                by_id.insert(id, (rate, logits)).is_none(),
                "duplicate response for id {id}"
            );
        }
        std::fs::remove_file(out_path).ok();
    }
    let healthy_total = FLEET * REQS_PER_CONN as u64;
    assert_eq!(by_id.len() as u64, healthy_total, "lost correlation ids");
    for c in churners {
        c.join().expect("churn thread");
    }

    // Phase 3: graceful drain with a burst still in flight. Every burst
    // response must be flushed before the ack (readable without waiting).
    let mut tail = PipelinedClient::connect(addr).expect("connect tail");
    for i in 0..BURST {
        tail.send(0xC000_0000_0000_0000 + i, 0, &small_input(i))
            .expect("burst send");
    }
    tail.flush().expect("burst flush");
    let ack = tail
        .drain_server(Duration::from_secs(30))
        .expect("drain ack");
    let mut seen = vec![false; BURST as usize];
    for _ in 0..BURST {
        let r = tail
            .recv_timeout(Duration::from_secs(1))
            .expect("burst response flushed before ack");
        let k = (r.correlation_id - 0xC000_0000_0000_0000) as usize;
        assert!(!seen[k], "duplicate burst response");
        seen[k] = true;
        assert!(matches!(r.outcome, InferOutcome::Logits { .. }));
    }
    assert!(
        seen.iter().all(|&s| s),
        "lost correlation ids in the drain burst"
    );

    let floor = healthy_total + BURST + churn_read.load(Ordering::Relaxed);
    let ceiling = healthy_total + BURST + churn_written.load(Ordering::Relaxed);
    assert!(
        ack >= floor && ack <= ceiling,
        "drain ack {ack} outside churn-accounting bracket [{floor}, {ceiling}]"
    );
    server.shutdown();

    // Phase 4: bitwise replay. Group healthy responses by the rate the
    // server actually used, replay each group in ≤ 16-row ticks through a
    // fresh in-process engine fixed at that rate, compare bit patterns.
    let mut groups: HashMap<u32, Vec<u64>> = HashMap::new();
    for (&id, &(rate, _)) in &by_id {
        groups.entry(rate.to_bits()).or_default().push(id);
    }
    let rates = small_profile().list().clone();
    for (rate_bits, mut ids) in groups {
        let rate = f32::from_bits(rate_bits);
        let sr = rates
            .iter()
            .find(|sr| sr.get() == rate)
            .unwrap_or_else(|| panic!("server used rate {rate} not in the profile list"));
        ids.sort_unstable();
        let reference = small_engine(&cfg, &weights, RatePolicy::Fixed(sr), true);
        let arrivals: Vec<usize> = ids.chunks(16).map(|c| c.len()).collect();
        let trace = WorkloadTrace {
            rates: arrivals.iter().map(|&n| n as f64).collect(),
            arrivals,
        };
        let ids_for_replay = ids.clone();
        let report = reference.replay(&trace, move |replay_id| {
            small_input(ids_for_replay[replay_id as usize])
        });
        reference.shutdown();
        assert_eq!(report.served, ids.len());
        for resp in &report.responses {
            assert_eq!(resp.rate, rate);
            let wire = &by_id[&ids[resp.id as usize]].1;
            let wire_bits: Vec<u32> = wire.iter().map(|x| x.to_bits()).collect();
            let ref_bits: Vec<u32> = resp.logits.data().iter().map(|x| x.to_bits()).collect();
            assert_eq!(
                wire_bits, ref_bits,
                "logits differ from in-process replay for id {} at rate {rate}",
                ids[resp.id as usize]
            );
        }
    }
}
