//! Per-layer probes on an idle system, and the overhead ladder.
//!
//! Every traced run, whatever its workload, ends by timing calls into the
//! public functions of each layer, one layer at a time with nothing else
//! running: GEMM shapes of the heavy MLP, single layers of workload shape,
//! whole-network passes, the engine, the wire, a shard process. The ladder
//! pushes the same 32-sample full-width MLP batch through each boundary in
//! turn (`core` → `serving` → `net` → `cluster`), so each rung minus the one
//! beneath is that layer's overhead. All times are medians.

use crate::models::{self, Model, BATCH};
use crate::runner::Runner;
use crate::workloads::{train_sliced, wire_staircase};
use crate::{spans, stats, sys};
use ms_cluster::{FrontRouter, ShardSpec, Supervisor};
use ms_core::slice_rate::SliceRate;
use ms_net::protocol::{Frame, FrameDecoder, InferRequest};
use ms_net::{Client, PipelinedClient};
use ms_nn::conv2d::{Conv2d, Conv2dConfig};
use ms_nn::layer::{Layer, Mode};
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::norm::GroupNorm;
use ms_nn::rnn::lstm::{Lstm, LstmConfig};
use ms_nn::slice::active_units;
use ms_serving::controller::RatePolicy;
use ms_tensor::matmul::{gemm, Trans};
use ms_tensor::panels::{gemm_packed_b, PackedB};
use ms_tensor::{pool, SeededRng, Tensor};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

type Metrics = BTreeMap<&'static str, f64>;

/// Every per-layer metric a traced run prints, with its unit. A metric the
/// run's workload does not exercise and no probe measures reads 0.
/// `BENCHMARK.json` carries the same table; a unit test keeps them in step.
pub const PER_LAYER: [(&str, &str); 125] = [
    // ms-tensor: `gemm` (packs per call) and `panels::gemm_packed_b` on the
    // MLP hidden shape, m = 32, k = n = 2048·r; a local FMA loop for peak.
    ("tensor.gemm_gflops_r050", "GFLOP/s"),
    ("tensor.gemm_gflops_r100", "GFLOP/s"),
    ("tensor.gemm_packed_gflops_r050", "GFLOP/s"),
    ("tensor.gemm_packed_gflops_r100", "GFLOP/s"),
    ("tensor.peak_gflops_probe", "GFLOP/s"),
    ("tensor.gemm_roofline_frac", "ratio"),
    ("tensor.pool_hit_frac_infer", "ratio"),
    ("tensor.pool_hit_frac_train", "ratio"),
    // ms-nn: one layer of workload shape, batch 32.
    ("nn.linear_fwd_us_r050", "us"),
    ("nn.linear_fwd_us_r100", "us"),
    ("nn.linear_prefix_us_r050", "us"),
    ("nn.linear_prefix_us_r100", "us"),
    ("nn.conv_fwd_us_r050", "us"),
    ("nn.conv_fwd_us_r100", "us"),
    ("nn.conv_prefix_us_r050", "us"),
    ("nn.conv_prefix_us_r100", "us"),
    ("nn.lstm_fwd_us_r050", "us"),
    ("nn.lstm_fwd_us_r100", "us"),
    ("nn.lstm_prefix_us_r050", "us"),
    ("nn.lstm_prefix_us_r100", "us"),
    ("nn.groupnorm_fwd_us_r100", "us"),
    ("nn.linear_bwd_us_r100", "us"),
    ("nn.conv_bwd_us_r100", "us"),
    ("nn.lstm_bwd_us_r100", "us"),
    // ms-core: whole networks, batch 32.
    ("core.batched_fwd_us_mlp_r038", "us"),
    ("core.batched_fwd_us_mlp_r050", "us"),
    ("core.batched_fwd_us_mlp_r075", "us"),
    ("core.batched_fwd_us_mlp_r100", "us"),
    ("core.batched_fwd_us_vgg_r038", "us"),
    ("core.batched_fwd_us_vgg_r050", "us"),
    ("core.batched_fwd_us_vgg_r075", "us"),
    ("core.batched_fwd_us_vgg_r100", "us"),
    ("core.batched_fwd_us_nnlm_r038", "us"),
    ("core.batched_fwd_us_nnlm_r050", "us"),
    ("core.batched_fwd_us_nnlm_r075", "us"),
    ("core.batched_fwd_us_nnlm_r100", "us"),
    ("core.refine_step_us_038_050", "us"),
    ("core.refine_step_us_050_075", "us"),
    ("core.refine_step_us_075_100", "us"),
    ("core.refine_over_direct", "ratio"),
    ("core.direct_sps", "1/s"),
    ("core.refine_sps", "1/s"),
    ("core.eq3_exponent_mlp", "ratio"),
    ("core.eq3_exponent_vgg", "ratio"),
    ("core.eq3_exponent_nnlm", "ratio"),
    ("core.eq3_resid_max", "ratio"),
    ("core.macs_per_sample_r100", "MAC"),
    ("core.train_step_ms_p50_vgg", "ms"),
    ("core.train_step_ms_p50_nnlm", "ms"),
    ("core.train_rates_per_step", "count"),
    // ms-serving.
    ("serving.calibrate_s", "s"),
    ("serving.profile_err_r025", "ratio"),
    ("serving.profile_err_r050", "ratio"),
    ("serving.profile_err_r075", "ratio"),
    ("serving.profile_err_r100", "ratio"),
    ("serving.submit_us_p50", "us"),
    ("serving.submit_us_p99", "us"),
    ("serving.engine_batch32_us", "us"),
    ("serving.engine_overhead_us", "us"),
    ("serving.mean_batch_size", "count"),
    ("serving.queue_wait_ms_p50", "ms"),
    ("serving.batch_wait_ms_p50", "ms"),
    ("serving.compute_ms_p50", "ms"),
    ("serving.shed_backpressure", "count"),
    ("serving.shed_admission", "count"),
    // ms-net.
    ("net.encode_ns_per_req", "ns"),
    ("net.decode_ns_per_req", "ns"),
    ("net.decoder_feed_ns_per_req", "ns"),
    ("net.bytes_per_req", "bytes"),
    ("net.rtt_idle_us_p50", "us"),
    ("net.rtt_idle_us_p99", "us"),
    ("net.batch32_rtt_us", "us"),
    ("net.wire_overhead_us", "us"),
    ("net.send_us_p50", "us"),
    ("net.send_us_p99", "us"),
    ("net.stage_wire_ms_p50", "ms"),
    ("net.stage_delivery_ms_p50", "ms"),
    ("net.unattributed_ms_p50", "ms"),
    ("net.health_rtt_us", "us"),
    ("net.reaped", "count"),
    ("net.backpressure_closed", "count"),
    // ms-cluster.
    ("cluster.spawn_to_ready_ms", "ms"),
    ("cluster.retire_ms", "ms"),
    ("cluster.dispatch_us_p50", "us"),
    ("cluster.dispatch_us_p99", "us"),
    ("cluster.pump_us_p50", "us"),
    ("cluster.control_tick_ms_p50", "ms"),
    ("cluster.control_tick_ms_p99", "ms"),
    ("cluster.batch32_rtt_us", "us"),
    ("cluster.front_overhead_us", "us"),
    ("cluster.jsq_imbalance", "ratio"),
    ("cluster.shard_cpu_s", "s"),
    ("cluster.shard_rss_mb", "MiB"),
    ("cluster.failover_shed", "count"),
    ("cluster.restarts", "count"),
    // ms-telemetry and the harness itself.
    ("telemetry.scrape_ms", "ms"),
    ("telemetry.trace_dump_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.latency_p50_ms", "ms"),
    ("bench.hits_per_cpu_s", "1/s"),
    // The load generator (serving workloads).
    ("loadgen.lateness_ms_p50", "ms"),
    ("loadgen.lateness_ms_p99", "ms"),
    ("loadgen.lateness_ms_max", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.delivered", "count"),
    ("loadgen.shed", "count"),
    ("loadgen.lost", "count"),
    ("loadgen.on_time_frac", "ratio"),
    ("loadgen.mean_served_rate", "ratio"),
    ("loadgen.step1_on_time_frac", "ratio"),
    ("loadgen.step2_on_time_frac", "ratio"),
    ("loadgen.step3_on_time_frac", "ratio"),
    ("loadgen.step4_on_time_frac", "ratio"),
    ("loadgen.step5_on_time_frac", "ratio"),
    ("loadgen.step1_p99_ms", "ms"),
    ("loadgen.step2_p99_ms", "ms"),
    ("loadgen.step3_p99_ms", "ms"),
    ("loadgen.step4_p99_ms", "ms"),
    ("loadgen.step5_p99_ms", "ms"),
    ("loadgen.step1_mean_rate", "ratio"),
    ("loadgen.step2_mean_rate", "ratio"),
    ("loadgen.step3_mean_rate", "ratio"),
    ("loadgen.step4_mean_rate", "ratio"),
    ("loadgen.step5_mean_rate", "ratio"),
    ("loadgen.max_ok_rps", "1/s"),
];

/// Median microseconds of `f` over `reps` timed calls after one untimed.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

/// Nanoseconds one recorded span costs, measured on this thread's recorder.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 20_000;
    let t = Instant::now();
    for i in 0..N {
        let _s = spans::span("bench.span_cost", i);
    }
    let ns = t.elapsed().as_nanos() as f64 / N as f64;
    let _ = spans::take();
    ns
}

/// Runs every probe. `shard_bin` is the `shard_server` the cluster rungs
/// spawn.
pub fn run_all(seed: u64, shard_bin: &Path) -> Result<Metrics, String> {
    sys::CpuSplit::get().share_one_cpu();
    let mut m = Metrics::new();
    tensor(&mut m);
    nn(&mut m);
    core(seed, &mut m);
    ladder(seed, shard_bin, &mut m)?;
    Ok(m)
}

fn random(rng: &mut SeededRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// Sustained FMA rate of one core on register-resident data: sixteen
/// independent vector-width accumulator chains, enough to cover the FMA
/// latency of both ports. This is the roof `gemm` is measured against.
fn peak_gflops() -> f64 {
    const LANES: usize = 256;
    const ITERS: usize = 400_000;
    let mut acc = [1.0f32; LANES];
    let (a, b) = (black_box(0.999_999f32), black_box(1e-7f32));
    let t = Instant::now();
    for _ in 0..ITERS {
        for v in acc.iter_mut() {
            *v = v.mul_add(a, b);
        }
    }
    let secs = t.elapsed().as_secs_f64();
    black_box(acc);
    2.0 * LANES as f64 * ITERS as f64 / secs / 1e9
}

fn tensor(m: &mut Metrics) {
    let full = models::MLP_HIDDEN;
    let mut rng = SeededRng::new(11);
    let a = random(&mut rng, BATCH * full);
    let w = random(&mut rng, full * full); // [out, in], as Linear stores it
    let mut c = vec![0.0f32; BATCH * full];
    let mut packed = PackedB::new();
    packed.pack(Trans::Yes, &w, full, full, full);
    let names = [
        (
            0.5f32,
            "tensor.gemm_gflops_r050",
            "tensor.gemm_packed_gflops_r050",
        ),
        (
            1.0,
            "tensor.gemm_gflops_r100",
            "tensor.gemm_packed_gflops_r100",
        ),
    ];
    for (r, plain, prepacked) in names {
        let kn = active_units(full, models::GROUPS, SliceRate::new(r));
        let gflop = 2.0 * (BATCH * kn * kn) as f64 / 1e9;
        let us = median_us(9, || {
            gemm(
                Trans::No,
                Trans::Yes,
                BATCH,
                kn,
                kn,
                1.0,
                &a,
                full,
                &w,
                full,
                0.0,
                &mut c,
                full,
            );
            black_box(&mut c);
        });
        m.insert(plain, gflop / (us * 1e-6));
        let us = median_us(9, || {
            gemm_packed_b(
                BATCH, 0, kn, 0, kn, 1.0, &a, full, &packed, 0.0, &mut c, full,
            );
            black_box(&mut c);
        });
        m.insert(prepacked, gflop / (us * 1e-6));
    }
    let peak = peak_gflops();
    m.insert("tensor.peak_gflops_probe", peak);
    m.insert(
        "tensor.gemm_roofline_frac",
        m["tensor.gemm_gflops_r100"] / peak,
    );
}

/// Times one layer at r = 0.5 and r = 1.0: `forward(Infer)`, a fresh
/// `forward_prefix`, and at full width `forward(Train)` + `backward`.
fn layer_probe(
    m: &mut Metrics,
    layer: &mut dyn Layer,
    input: &dyn Fn(SliceRate) -> Tensor,
    fwd: [&'static str; 2],
    prefix: Option<[&'static str; 2]>,
    bwd: Option<&'static str>,
) {
    for (i, r) in [0.5f32, 1.0].into_iter().enumerate() {
        let r = SliceRate::new(r);
        let x = input(r);
        layer.set_slice_rate(r);
        m.insert(
            fwd[i],
            median_us(7, || layer.forward(&x, Mode::Infer).recycle()),
        );
        if let Some(names) = prefix {
            m.insert(
                names[i],
                median_us(7, || layer.forward_prefix(&x, None, r).recycle()),
            );
        }
    }
    if let Some(name) = bwd {
        let x = input(SliceRate::FULL);
        layer.set_slice_rate(SliceRate::FULL);
        let us = median_us(7, || {
            let y = layer.forward(&x, Mode::Train);
            let dx = layer.backward(&y);
            y.recycle();
            dx.recycle();
        });
        m.insert(name, us);
    }
}

fn nn(m: &mut Metrics) {
    let g = models::GROUPS;
    let mut rng = SeededRng::new(12);
    let tensor_of = |dims: Vec<usize>| {
        let n = dims.iter().product();
        Tensor::from_vec(dims, random(&mut SeededRng::new(13), n)).expect("probe input shape")
    };

    // The MLP's hidden-to-hidden layer.
    let h = models::MLP_HIDDEN;
    let mut linear = Linear::new(
        "probe.fc",
        LinearConfig {
            in_dim: h,
            out_dim: h,
            in_groups: Some(g),
            out_groups: Some(g),
            bias: true,
            input_rescale: true,
        },
        &mut rng,
    );
    layer_probe(
        m,
        &mut linear,
        &|r| tensor_of(vec![BATCH, active_units(h, g, r)]),
        ["nn.linear_fwd_us_r050", "nn.linear_fwd_us_r100"],
        Some(["nn.linear_prefix_us_r050", "nn.linear_prefix_us_r100"]),
        Some("nn.linear_bwd_us_r100"),
    );

    // The VGG's second-stage convolution: 32 → 32 channels, 3×3 on 8×8.
    let (ch, side) = (32, 8);
    let mut conv = Conv2d::new(
        "probe.conv",
        Conv2dConfig {
            in_ch: ch,
            out_ch: ch,
            kernel: 3,
            stride: 1,
            pad: 1,
            h: side,
            w: side,
            in_groups: Some(g),
            out_groups: Some(g),
            bias: false,
        },
        &mut rng,
    );
    let image = |r: SliceRate| tensor_of(vec![BATCH, active_units(ch, g, r), side, side]);
    layer_probe(
        m,
        &mut conv,
        &image,
        ["nn.conv_fwd_us_r050", "nn.conv_fwd_us_r100"],
        Some(["nn.conv_prefix_us_r050", "nn.conv_prefix_us_r100"]),
        Some("nn.conv_bwd_us_r100"),
    );
    let mut norm = GroupNorm::new("probe.gn", ch, g);
    let x = image(SliceRate::FULL);
    m.insert(
        "nn.groupnorm_fwd_us_r100",
        median_us(7, || norm.forward(&x, Mode::Infer).recycle()),
    );

    // The NNLM's second recurrent layer: 64 → 64 over 16 steps.
    let d = 64;
    let mut lstm = Lstm::new(
        "probe.lstm",
        LstmConfig {
            in_dim: d,
            hidden_dim: d,
            in_groups: Some(g),
            out_groups: Some(g),
            input_rescale: true,
        },
        &mut rng,
    );
    layer_probe(
        m,
        &mut lstm,
        &|r| tensor_of(vec![BATCH, models::SEQ_LEN, active_units(d, g, r)]),
        ["nn.lstm_fwd_us_r050", "nn.lstm_fwd_us_r100"],
        Some(["nn.lstm_prefix_us_r050", "nn.lstm_prefix_us_r100"]),
        Some("nn.lstm_bwd_us_r100"),
    );
}

const BATCHED_FWD: [[&str; 4]; 3] = [
    [
        "core.batched_fwd_us_mlp_r038",
        "core.batched_fwd_us_mlp_r050",
        "core.batched_fwd_us_mlp_r075",
        "core.batched_fwd_us_mlp_r100",
    ],
    [
        "core.batched_fwd_us_vgg_r038",
        "core.batched_fwd_us_vgg_r050",
        "core.batched_fwd_us_vgg_r075",
        "core.batched_fwd_us_vgg_r100",
    ],
    [
        "core.batched_fwd_us_nnlm_r038",
        "core.batched_fwd_us_nnlm_r050",
        "core.batched_fwd_us_nnlm_r075",
        "core.batched_fwd_us_nnlm_r100",
    ],
];
const EQ3_EXPONENT: [&str; 3] = [
    "core.eq3_exponent_mlp",
    "core.eq3_exponent_vgg",
    "core.eq3_exponent_nnlm",
];
const REFINE_STEP: [&str; 3] = [
    "core.refine_step_us_038_050",
    "core.refine_step_us_050_075",
    "core.refine_step_us_075_100",
];

fn core(seed: u64, m: &mut Metrics) {
    let rates = models::rates();
    let mut rng = SeededRng::new(seed);
    let mut direct_sps = Vec::new();
    let mut refine_sps = Vec::new();
    let mut resid_max = 0.0f64;
    for (mi, model) in Model::ALL.into_iter().enumerate() {
        let mut run = Runner::new(model, 1, &mut rng.fork(mi as u64));
        if model == Model::Mlp {
            pool::reset_stats();
        }
        let mut times = [0.0; 4];
        for (ri, &r) in rates.iter().enumerate() {
            times[ri] = median_us(7, || run.direct(0, r));
            m.insert(BATCHED_FWD[mi][ri], times[ri]);
            direct_sps.push(BATCH as f64 / (times[ri] * 1e-6));
        }
        if model == Model::Mlp {
            let s = pool::stats();
            m.insert(
                "tensor.pool_hit_frac_infer",
                s.hits as f64 / (s.hits + s.misses).max(1) as f64,
            );
            m.insert("core.macs_per_sample_r100", run.macs[3]);
        }
        // Eq. 3 says time ∝ r²: the slope of log time on log r should be 2.
        let x: Vec<f64> = models::RATES.iter().map(|r| f64::from(*r).ln()).collect();
        let y: Vec<f64> = times.iter().map(|t| t.ln()).collect();
        let (slope, _, resid) = stats::linfit(&x, &y);
        m.insert(EQ3_EXPONENT[mi], slope);
        resid_max = resid_max.max(resid);

        // The whole ladder, and on the MLP each upward rung on its own.
        let mut rungs = vec![Vec::new(); 4];
        let mut ladders = Vec::new();
        for rep in 0..8 {
            let t = Instant::now();
            let mut last = t;
            run.ladder(0, |_, i| {
                let now = Instant::now();
                rungs[i].push((now - last).as_secs_f64() * 1e6);
                last = now;
            });
            if rep > 0 {
                ladders.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        let ladder_us = stats::median(&ladders);
        refine_sps.push(BATCH as f64 / (ladder_us * 1e-6));
        if model == Model::Mlp {
            for (i, name) in REFINE_STEP.into_iter().enumerate() {
                m.insert(name, stats::median(&rungs[i + 1][1..]));
            }
            m.insert("core.refine_over_direct", ladder_us / times[3]);
        }
    }
    m.insert("core.eq3_resid_max", resid_max);
    m.insert("core.direct_sps", stats::geomean(&direct_sps));
    m.insert("core.refine_sps", stats::geomean(&refine_sps));

    pool::reset_stats();
    let (vgg_ms, nnlm_ms, rates_per_step) = train_sliced::probe(seed);
    let s = pool::stats();
    m.insert(
        "tensor.pool_hit_frac_train",
        s.hits as f64 / (s.hits + s.misses).max(1) as f64,
    );
    m.insert("core.train_step_ms_p50_vgg", vgg_ms);
    m.insert("core.train_step_ms_p50_nnlm", nnlm_ms);
    m.insert("core.train_rates_per_step", rates_per_step);
}

const PROFILE_ERR: [&str; 4] = [
    "serving.profile_err_r025",
    "serving.profile_err_r050",
    "serving.profile_err_r075",
    "serving.profile_err_r100",
];

/// Rounds of the overhead ladder; each round visits every rung once.
const LADDER_ROUNDS: usize = 15;

/// The overhead ladder, the probes of `ms-serving` and `ms-net` that need a
/// live stack, and the cost of growing and shrinking a fleet.
///
/// The four rungs are timed in turn inside one loop, so the slow drift of
/// the machine lands on all of them alike and the differences between rungs
/// — which are what the ladder is for — stay clear of it:
///
/// * `core`: `batched_sliced_forward_into` on the batch;
/// * `serving`: 32 × `Engine::submit` + `seal` + `wait_events`, on an engine
///   of its own (a server's dispatcher would take the events);
/// * `net`: the same 32 requests through a `PipelinedClient` and an
///   in-process `Server` that never seals on its own; the probe seals the
///   engine itself once all 32 have been admitted;
/// * `cluster`: the same through a `FrontRouter` to a `shard_server`
///   process holding the same MLP. Its seal timer (every 2 ms) cannot be
///   driven from outside, so this rung includes the wait for the next tick,
///   about 1 ms; its profile claims a negligible cost so the controller
///   always serves full width.
fn ladder(seed: u64, shard_bin: &Path, m: &mut Metrics) -> Result<(), String> {
    let io = |what: &str, e: std::io::Error| format!("cluster probe: {what}: {e}");
    let mut rng = SeededRng::new(seed);
    let mut run = Runner::new(Model::Mlp, 1, &mut rng);
    let batch: Vec<Tensor> = run.batches[0].rows.clone();
    let full = SliceRate::FULL;

    // What calibration costs, and how well its profile predicts a batch of 32.
    let t = Instant::now();
    let profile = wire_staircase::calibrate(&mut models::mlp());
    m.insert("serving.calibrate_s", t.elapsed().as_secs_f64());
    for (i, r) in crate::loadgen::SERVE_RATES.into_iter().enumerate() {
        let r = SliceRate::new(r);
        let measured_s = median_us(7, || run.direct(0, r)) * 1e-6;
        m.insert(PROFILE_ERR[i], measured_s / profile.predict(BATCH, r));
    }

    let engine = wire_staircase::engine(RatePolicy::Fixed(full));
    let mut stack =
        wire_staircase::setup_with(RatePolicy::Fixed(full), Some(Duration::from_secs(3600)));
    let wire_engine = std::sync::Arc::clone(stack.server.router().engine(0));
    let cfg = models::mlp_config();
    let mut supervisor = Supervisor::new(ShardSpec {
        input_dim: cfg.input_dim,
        hidden: cfg.hidden_dims.clone(),
        classes: cfg.num_classes,
        groups: cfg.groups,
        latency_us: 4_000,
        t_full_us: 1,
        ..ShardSpec::small(shard_bin.to_path_buf())
    });
    let (id, addr) = supervisor
        .spawn_shard()
        .map_err(|e| io("spawn heavy shard", e))?;
    let mut router = FrontRouter::new();
    router
        .add_shard(id, 1, addr)
        .map_err(|e| io("connect", e))?;

    let mut submit_us = Vec::new();
    let mut next_id = 1u64;
    // One batch (or its first `n` requests) over the socket.
    let mut wire_round = |client: &mut PipelinedClient, n: usize| {
        let before = wire_engine.counters().submitted;
        let t = Instant::now();
        for x in &batch[..n] {
            client.send(next_id, 0, x).expect("probe send");
            next_id += 1;
        }
        client.flush().expect("probe flush");
        while wire_engine.counters().submitted < before + n as u64 {
            std::thread::yield_now();
        }
        wire_engine.seal();
        for _ in 0..n {
            client
                .recv_timeout(Duration::from_secs(10))
                .expect("probe response");
        }
        t.elapsed().as_secs_f64() * 1e6
    };
    let mut rungs: [Vec<f64>; 4] = Default::default();
    for round in 0..=LADDER_ROUNDS {
        let mut times = [0.0; 4];
        let t = Instant::now();
        run.direct(0, full);
        times[0] = t.elapsed().as_secs_f64() * 1e6;

        let t = Instant::now();
        for x in &batch {
            let s = Instant::now();
            engine.submit(x.clone()).expect("probe submit");
            submit_us.push(s.elapsed().as_secs_f64() * 1e6);
        }
        engine.seal();
        let mut got = 0;
        while got < BATCH {
            let (responses, shed) = engine.wait_events(Duration::from_secs(10));
            if !shed.is_empty() || responses.is_empty() {
                return Err("serving probe: the engine lost its batch".into());
            }
            got += responses.len();
            for r in responses {
                r.logits.recycle();
            }
        }
        times[1] = t.elapsed().as_secs_f64() * 1e6;

        times[2] = wire_round(&mut stack.client, BATCH);

        let t = Instant::now();
        for (k, x) in batch.iter().enumerate() {
            let id = (round * BATCH + k) as u64 + 1;
            if router.dispatch(id, 0, x).is_some() {
                return Err("cluster probe: the shard refused a request".into());
            }
        }
        router.flush();
        let mut got = 0;
        while got < BATCH {
            let back = router.pump(Duration::from_secs(10));
            if back.is_empty() {
                return Err("cluster probe: the shard stopped answering".into());
            }
            got += back.len();
        }
        times[3] = t.elapsed().as_secs_f64() * 1e6;

        if round > 0 {
            for (rung, t) in rungs.iter_mut().zip(times) {
                rung.push(t);
            }
        }
    }
    let [core_us, engine_us, net_us, cluster_us] = rungs.map(|r| stats::median(&r));
    // The `core.batched_fwd_us_mlp_r100` cell is timed on its own earlier;
    // the overheads below use the ladder's interleaved timing of the same call.
    m.insert("serving.engine_batch32_us", engine_us);
    m.insert("serving.engine_overhead_us", engine_us - core_us);
    m.insert("net.batch32_rtt_us", net_us);
    m.insert("net.wire_overhead_us", net_us - engine_us);
    m.insert("cluster.batch32_rtt_us", cluster_us);
    m.insert("cluster.front_overhead_us", cluster_us - net_us);
    let submit_us = stats::sorted(submit_us);
    m.insert("serving.submit_us_p50", stats::percentile(&submit_us, 0.5));
    m.insert("serving.submit_us_p99", stats::percentile(&submit_us, 0.99));
    drop(router);
    drop(supervisor);
    engine.shutdown();

    // One request at a time over the socket, and the telemetry frames.
    let idle = stats::sorted((0..60).map(|_| wire_round(&mut stack.client, 1)).collect());
    m.insert("net.rtt_idle_us_p50", stats::percentile(&idle, 0.5));
    m.insert("net.rtt_idle_us_p99", stats::percentile(&idle, 0.99));
    let mut client = Client::connect(stack.server.local_addr()).expect("probe client");
    m.insert(
        "net.health_rtt_us",
        median_us(20, || drop(client.health().expect("health"))),
    );
    m.insert(
        "telemetry.scrape_ms",
        median_us(5, || drop(client.metrics().expect("metrics"))) / 1e3,
    );
    m.insert(
        "telemetry.trace_dump_ms",
        median_us(3, || drop(client.trace_dump().expect("trace dump"))) / 1e3,
    );
    drop(client);
    let wire_staircase::Stack { server, client } = stack;
    drop(client);
    server.shutdown();
    codec(&batch[0], m);

    // Spawn-to-ready and lossless retirement of a small shard, three times.
    let mut small = Supervisor::new(ShardSpec::small(shard_bin.to_path_buf()));
    let (mut spawn_ms, mut retire_ms) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let (id, _) = small.spawn_shard().map_err(|e| io("spawn", e))?;
        spawn_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        small
            .retire(id, Duration::from_secs(5))
            .map_err(|e| io("retire", e))?;
        retire_ms.push(t.elapsed().as_secs_f64() * 1e3);
        small.poll_exits();
    }
    m.insert("cluster.spawn_to_ready_ms", stats::median(&spawn_ms));
    m.insert("cluster.retire_ms", stats::median(&retire_ms));
    Ok(())
}

/// Frame encode, decode and incremental decode of one inference request.
fn codec(input: &Tensor, m: &mut Metrics) {
    const N: usize = 2000;
    let frame = Frame::InferRequest(InferRequest {
        correlation_id: 7,
        deadline_micros: 0,
        dims: vec![input.numel() as u32],
        data: input.data().to_vec(),
    });
    let mut buf = Vec::new();
    frame.encode(&mut buf);
    m.insert("net.bytes_per_req", buf.len() as f64);
    let mut out = Vec::with_capacity(buf.len());
    let us = median_us(5, || {
        for _ in 0..N {
            out.clear();
            frame.encode(&mut out);
            black_box(&out);
        }
    });
    m.insert("net.encode_ns_per_req", us * 1e3 / N as f64);
    let us = median_us(5, || {
        for _ in 0..N {
            black_box(Frame::decode(&buf).expect("own frame decodes"));
        }
    });
    m.insert("net.decode_ns_per_req", us * 1e3 / N as f64);
    // A stream of frames arriving in Ethernet-payload-sized pieces.
    let stream: Vec<u8> = buf.iter().copied().cycle().take(buf.len() * N).collect();
    let us = median_us(5, || {
        let mut decoder = FrameDecoder::new();
        let mut frames = 0;
        for piece in stream.chunks(1460) {
            let mut rest = piece;
            while !rest.is_empty() {
                let (used, frame) = decoder.feed(rest).expect("own stream decodes");
                frames += usize::from(frame.is_some());
                rest = &rest[used..];
            }
        }
        assert_eq!(frames, N);
    });
    m.insert("net.decoder_feed_ns_per_req", us * 1e3 / N as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::RATE_TAGS;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in PER_LAYER {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        for tag in RATE_TAGS {
            assert!(seen.contains(format!("core.batched_fwd_us_mlp_{tag}").as_str()));
        }
    }

    #[test]
    fn the_peak_probe_beats_a_scalar_loop() {
        // One FMA per cycle at 1 GHz would be 2 GFLOP/s; a vectorised
        // sixteen-chain loop is far above that on anything this builds on.
        assert!(peak_gflops() > 2.0);
    }
}
