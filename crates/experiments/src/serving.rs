//! §4.1 — dynamic-workload serving demonstration.
//!
//! Trains the VGG analogue with model slicing, measures its real accuracy
//! at each rate, then replays a query stream with diurnal load and 9× flash
//! crowds through the serving engine under five policies. Expected result:
//! the model-slicing policy sheds (almost) nothing, answers every admitted
//! query within T, and delivers the highest effective accuracy — full-width
//! answers off-peak, gracefully narrower answers during spikes — while the
//! inelastic full-width server answers everything and most of it late.
//!
//! The report is the replays on the engine's virtual clock. Two wall-clock
//! demonstrations print after it ([`demos`]): the same story on a profile
//! calibrated on this machine, and over a loopback socket.

use crate::{eval_accuracy, scalar, sweep, Fmt, ImageSetting, ImageTrack, Report, Run, Table};
use ms_core::slice_rate::{SliceRate, SliceRateList};
use ms_models::mlp::{Mlp, MlpConfig};
use ms_nn::layer::Layer;
use ms_serving::controller::{AccuracyTable, RatePolicy, SlaController};
use ms_serving::engine::{Engine, EngineConfig};
use ms_serving::profile::LatencyProfile;
use ms_serving::workload::{WorkloadConfig, WorkloadTrace};
use ms_tensor::{SeededRng, Tensor};

/// Runs the §4.1 replays.
pub fn run(run: &Run) -> Report {
    let track = ImageTrack::new(ImageSetting::standard(run));
    let rates = &track.setting.rates;

    eprintln!("[serving] training sliced model…");
    let mut model = track.sliced_vgg(&mut SeededRng::new(3000), 3001);
    let points = sweep(&mut model, rates, |m, r| eval_accuracy(m, &track.test, r));
    let table = AccuracyTable::new(rates.clone(), points.iter().map(|p| p.value).collect());

    // Workload: base 8 queries/tick with 2× diurnal swing and 9× flash
    // crowds — peaks land right at the base subnet's capacity, the §4.1
    // regime where fine-grained degradation shines. (See
    // tests/serving_sla.rs for the extreme-overload boundary case.)
    let trace = WorkloadTrace::generate(&WorkloadConfig {
        ticks: if run.quick { 300 } else { 4000 },
        base_rate: 8.0,
        diurnal_amplitude: 2.0,
        diurnal_period: 500,
        spike_prob: 0.003,
        spike_multiplier: 9.0,
        spike_len: 40,
        seed: 23,
    });
    let mut report = Report::default();
    report.line(
        "\nworkload: {} queries over {} ticks, peak/mean volatility {}x",
        vec![
            scalar("queries", trace.total() as f64, Fmt::Int),
            scalar("ticks", trace.arrivals.len() as f64, Fmt::Int),
            scalar("volatility", trace.volatility(), Fmt::Dec(1)),
        ],
    );

    // Latency T = 40 ms and a full-width pass of 1 ms a sample: a T/2
    // window holds 20 of them, ~2× the base rate. Each policy is a replay
    // of the trace through one replica on the engine's virtual clock, where
    // a pass costs what Eq. 3's quadratic law says (the stand-in replica
    // only has to slice at the same rates), at headroom 1.0: the planning
    // budget is T/2. Late batches delay the ones behind them.
    let t_full = 1e-3;
    let law = LatencyProfile::quadratic(rates.clone(), t_full);
    let r_min = rates.min();
    // The swap to a GBDT-like model is elastic width over {r_min, 1}: the
    // r_min pass stands in for the cheap model, charged 5 % of a full pass
    // and scored the cheap model's accuracy.
    let cheap = SliceRateList::from_rates(&[r_min.get(), 1.0]);
    let swap = LatencyProfile::new(cheap.clone(), vec![0.05 * t_full, t_full], 0.0);
    let scored = AccuracyTable::new(cheap, vec![0.70, table.at(SliceRate::FULL)]);
    let fixed = RatePolicy::Fixed(SliceRate::FULL);
    let base = RatePolicy::FixedShedding(r_min);
    let drop = RatePolicy::FixedShedding(SliceRate::FULL);
    let elastic = RatePolicy::Elastic;
    let policies = [
        ("FixedFull", fixed, &law, &table),
        ("FixedBase", base, &law, &table),
        ("ModelSwap (GBDT-like)", elastic, &swap, &scored),
        ("DropCandidates", drop, &law, &table),
        ("ModelSlicing", elastic, &law, &table),
    ];
    let mut cols = vec![Vec::new(); 6];
    let mut histogram = Vec::new();
    for (_, policy, profile, scores) in policies {
        let engine = Engine::start_virtual(
            EngineConfig {
                latency: 0.04,
                headroom: 1.0,
                max_queue: usize::MAX / 2,
                refine: false,
            },
            SlaController::new(profile.clone(), policy),
            profile.clone(),
            vec![Box::new(Mlp::new(&mlp_config(8), &mut SeededRng::new(11)))],
        );
        let r = engine.replay(&trace, input_for);
        engine.shutdown();
        let row = [
            r.served as f64,
            r.shed as f64,
            r.late as f64,
            r.shed as f64 / r.arrived.max(1) as f64,
            r.effective_accuracy(scores),
            r.p99_latency * 1e3,
        ];
        for (col, v) in cols.iter_mut().zip(row) {
            col.push(v);
        }
        histogram = r.counters.rate_histogram;
    }
    let formats = [
        ("served", Fmt::Int),
        ("shed", Fmt::Int),
        ("late", Fmt::Int),
        ("shed %", Fmt::Pct),
        ("eff. accuracy %", Fmt::Pct),
        ("p99 latency ms", Fmt::Dec(1)),
    ];
    let mut table = Table::new("policy", policies.iter().map(|p| p.0.to_string()).collect());
    for ((name, fmt), values) in formats.into_iter().zip(cols) {
        table = table.col(name, fmt, values);
    }
    report.title("§4.1 — serving under dynamic workload (latency T = 40 ms, budget T/2)");
    report.table(table);
    // The last policy's, model slicing's.
    report.line("\nmodel-slicing width usage (batches per rate):", vec![]);
    for (r, c) in histogram {
        let rate = scalar("rate", r as f64, Fmt::Dec(3));
        report.line(
            "  rate {}: {}",
            vec![rate, scalar("batches", c as f64, Fmt::Int)],
        );
    }
    report
}

/// The wall-clock demonstrations: a replay timed by a profile calibrated
/// on this machine, then a run over a loopback socket.
pub fn demos() {
    real_engine_replay();
    loopback_serving_run();
}

const INPUT_DIM: usize = 16;

/// The small sliced MLP the engine sections serve.
fn mlp_config(groups: usize) -> MlpConfig {
    MlpConfig {
        input_dim: INPUT_DIM,
        hidden_dims: vec![48, 48],
        num_classes: 8,
        groups,
        dropout: 0.0,
        input_rescale: true,
    }
}

fn input_for(id: u64) -> Tensor {
    Tensor::full([INPUT_DIM], ((id % 31) as f32) * 0.06 - 0.9)
}

/// Replays a flash-crowd trace through `ms_serving::engine` with 2 replicas
/// and prints the counters for the elastic policy vs the inelastic
/// full-width server: real forward passes, timed on the virtual clock by
/// the profile calibrated here, so the rows say what this machine's
/// measured cost law implies and do not move with its load.
fn real_engine_replay() {
    let cfg = mlp_config(4);
    let rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let mut net = Mlp::new(&cfg, &mut SeededRng::new(11));
    let profile = LatencyProfile::calibrate(&mut net, rates, &[INPUT_DIM], 512, 5);

    let budget = profile.predict(200, SliceRate::FULL);
    let latency = budget * 4.0;
    let trace = WorkloadTrace::two_crowds(&profile, budget, 60, 5);

    println!(
        "\nreal engine (2 replicas, SLA {:.2} ms, profile calibrated on this machine):",
        latency * 1e3
    );
    let proto = Mlp::new(&cfg, &mut SeededRng::new(17));
    for (name, policy) in [
        ("Elastic", RatePolicy::Elastic),
        ("FixedFull", RatePolicy::Fixed(SliceRate::FULL)),
    ] {
        let replicas = (0..2)
            .map(|_| Box::new(proto.replica()) as Box<dyn Layer + Send>)
            .collect();
        let engine = Engine::start_virtual(
            EngineConfig {
                latency,
                headroom: 0.5,
                max_queue: usize::MAX / 2,
                refine: false,
            },
            SlaController::new(profile.clone(), policy),
            profile.clone(),
            replicas,
        );
        let r = engine.replay(&trace, input_for);
        let counters = engine.counters();
        engine.shutdown();
        println!(
            "  {name}: served {} shed {} on-time {} ({:.1}% of arrivals) \
             p99-wait {:.3} ms p99-service {:.3} ms batches {}",
            r.served,
            r.shed,
            r.on_time,
            100.0 * r.on_time as f64 / r.arrived.max(1) as f64,
            r.p99_latency * 1e3,
            counters.p99_service * 1e3,
            counters.batches
        );
        if name == "Elastic" {
            print!("    width usage (batches per rate):");
            for (rate, count) in &counters.rate_histogram {
                if *count > 0 {
                    print!("  {rate:.2}×{count}");
                }
            }
            println!();
        }
    }
}

/// The same flash-crowd story through `ms_net`: two elastic replicas
/// behind the TCP front-end, a pipelined client pacing the trace over
/// loopback — with the flight recorder on, so the run ends with a health
/// snapshot, a trace dump (`results/logs/trace_serving.json`, loadable in
/// Perfetto), and a graceful drain.
fn loopback_serving_run() {
    use ms_net::protocol::InferOutcome;
    use ms_net::{PipelinedClient, Router, Server, ServerConfig};
    use ms_telemetry::flight;
    use std::time::Duration;

    let cfg = mlp_config(4);
    let rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let mut net = Mlp::new(&cfg, &mut SeededRng::new(11));
    let profile = LatencyProfile::calibrate(&mut net, rates, &[INPUT_DIM], 512, 5);
    let budget = profile.predict(200, SliceRate::FULL);
    let latency = budget * 4.0;
    let window = latency / 2.0;
    let arrivals = WorkloadTrace::two_crowds(&profile, budget, 30, 3).arrivals;
    let sent: usize = arrivals.iter().sum();

    let proto = Mlp::new(&cfg, &mut SeededRng::new(17));
    let engines = (0..2)
        .map(|_| {
            let m = proto.replica();
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
    println!(
        "\nserving over the network: {} requests through 2 elastic replicas at {} \
         (SLA {:.2} ms as the wire deadline)",
        sent,
        server.local_addr(),
        latency * 1e3
    );

    // Flight recorder on for the whole run: every request below carries a
    // trace id end-to-end, and the tail sampler keeps the slowest and every
    // shed/deadline-missed chain for the dump at the end. The retain cap is
    // raised well past its default because this trace sheds thousands of
    // requests during the crowds — at 256 the late deadline-missed chains
    // would evict every shed.
    flight::reset();
    flight::set_tail_policy(flight::TailPolicy {
        slowest_k: 8,
        retain_cap: 4096,
    });
    flight::set_recording(true);

    let mut client = PipelinedClient::connect(server.local_addr()).expect("connect");
    let deadline_micros = (latency * 1e6) as u64;
    let mut id = 0u64;
    for &n in &arrivals {
        for _ in 0..n {
            client
                .send_traced(
                    id,
                    deadline_micros,
                    &input_for(id),
                    0x5E1F_0000_0000_0000 + id,
                )
                .expect("send");
            id += 1;
        }
        client.flush().expect("flush");
        std::thread::sleep(Duration::from_secs_f64(window));
    }
    let mut served = 0usize;
    let mut shed = 0usize;
    for _ in 0..sent {
        match client.recv_timeout(Duration::from_secs(30)) {
            Some(r) => match r.outcome {
                InferOutcome::Logits { .. } => served += 1,
                InferOutcome::Shed(_) => shed += 1,
            },
            None => break,
        }
    }
    let health = client.health(Duration::from_secs(5)).expect("health");
    for (i, rep) in health.replicas.iter().enumerate() {
        println!(
            "  replica {i}: queue {:.0}, p99 service {:.3} ms, served {}, shed {}",
            rep.queue_depth,
            rep.p99_service_s * 1e3,
            rep.served,
            rep.shed
        );
    }
    if let Ok(json) = client.trace_dump(Duration::from_secs(10)) {
        if std::fs::create_dir_all("results/logs").is_ok()
            && std::fs::write("results/logs/trace_serving.json", &json).is_ok()
        {
            println!(
                "  flight dump: results/logs/trace_serving.json ({} bytes)",
                json.len()
            );
        }
    }
    let delivered = client
        .drain_server(Duration::from_secs(30))
        .expect("drain ack");
    println!(
        "  client: {served} served + {shed} shed of {sent} sent; graceful drain \
         delivered {delivered} (zero dropped: {})",
        delivered as usize == sent
    );
    drop(client);
    server.shutdown();
    flight::set_recording(false);
    flight::set_tail_policy(flight::TailPolicy::default());
}
