//! Where a forward pass's and a training step's time goes, per network, from
//! the span tracer.
//!
//! ```text
//! cargo run --release -p ms-bench --features telemetry-spans --bin forward_profile
//! ```
//!
//! Three tables on the networks the benchmark runs
//! (`Vgg::vgg13_scaled(10, 8)`, `NnlmConfig::scaled(200, 8)` over 16 tokens,
//! the 64-2048-2048-8 MLP), batch 32. The first is inference on the prepacked
//! nets at r ∈ {0.375, 1.0}: GEMM kernel, operand packing (the VGG's convs
//! multiply straight from the image and pack nothing), im2col (which no
//! forward writes), activations, pooling, normalisation, buffer-pool copies
//! and zero fills (`copy+zero`, the `tensor.pool_*` spans, whose per-pass
//! counts close the row as `copies` and `zeros`); after
//! each network's rows, `rate_efficiency(0.375)` — its time ratio over its
//! MAC ratio, `(t(0.375)/t(1)) / (MACs(0.375)/MACs(1))`, 1 where a narrow
//! slice costs exactly its multiply-adds. The second is every GEMM shape
//! those forwards issue — a conv's over the whole batch, `n = B·OH·OW` — with
//! its *tile fill* — useful multiply-adds over the multiply-adds of the
//! `MR×NR` register tiles it is padded to on this build target — and the
//! GFLOP/s the driver the layer calls reaches on that shape alone, packing
//! included: the table a tile shape is argued from, and where a later change
//! of vector width would show its waste first. A dense layer's rows are its
//! product as it issues it, the weight on the left: `m` its output units,
//! `n` the batch along the tile's lanes. A recurrent layer's rows are
//! its products as it issues them, all gates side by side: `rnn*.x` one
//! `T·B × G·a_h × a_d` input projection, `rnn*.h` `T` products of
//! `B × G·a_h × a_h`. The
//! third is one Algorithm-1 `Trainer::step` over the static rate list
//! {0.25, 0.5, 0.75, 1.0} (NNLM dropout on, as trained): GEMM kernel, operand
//! packing (a conv backward's columns and output gradient included),
//! im2col + col2im (which only a strided conv's backward still runs),
//! pooling, normalisation, dropout, loss, the optimiser (gradient averaging
//! and the SGD update), the elementwise work of activations and backward
//! bodies, and buffer-pool copies and zero fills. Each column is the summed
//! *self* time of the spans in that bucket; `other` is what no span claims
//! (bias adds, a dense layer's transpose of its out-major product into its
//! output, the embedding, the chunk copies of convs whose columns are
//! packed, the rest of the buffer pool's bookkeeping).
//!
//! A step runs on two threads (`ms_tensor::par`: the second part of every
//! split layer pass goes to the fork-join helper), so its buckets are summed
//! over both and add up to `2-thread` — the caller's wall time plus the
//! helper's busy time — not to `wall`; `join wait` is the caller blocked on
//! the helper's part. The last four columns count the step's joins and, of
//! those, the ones whose second half the caller took back and ran itself
//! because the helper had not picked it up in time (`par::taken_back`): a
//! helper that shares its caller's CPU shows as a high share taken back;
//! then the step's pool copies and zero fills.
//! A last line times the bare handoff: 10 000 joins with
//! nothing to do back to back (the helper polling) and 10 000 after a pause
//! long enough for it to park. Without the feature the spans compile to nothing
//! and only the totals and the tile table are printed. DESIGN.md §8 records a
//! run of all three.

use ms_core::scheduler::{Scheduler, SchedulerKind};
use ms_core::slice_rate::SliceRateList;
use ms_core::trainer::{Batch, Trainer, TrainerConfig};
use ms_models::mlp::{Mlp, MlpConfig};
use ms_models::nnlm::{Nnlm, NnlmConfig};
use ms_models::vgg::{Vgg, VggConfig};
use ms_nn::layer::{Layer, Mode};
use ms_nn::optim::SgdConfig;
use ms_nn::slice::{active_units, SliceRate};
use ms_telemetry::spans::{self, SpanStats};
use ms_tensor::conv::{ConvGeom, Im2col};
use ms_tensor::matmul::{Trans, MR, NR};
use ms_tensor::panels::{conv_packed_a_stepped, gemm_packed_b, linear_in_place, PackedA, PackedB};
use ms_tensor::{par, SeededRng, Tensor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const BATCH: usize = 32;
const PASSES: u32 = 50;
const STEPS: u32 = 30;
const GROUPS: usize = 8;
const SEQ_LEN: usize = 16;
const RATES: [f32; 2] = [0.375, 1.0];

/// A table column: its heading and the span-name prefixes it sums.
type Column = (&'static str, &'static [&'static str]);

/// Everything of a GEMM that is not operand packing: the blocked loop under
/// `gemm` and the weight-stationary entry points.
const KERNEL: Column = ("kernel", &["gemm.panel_", "gemm.in_place_a", "gemm.packed"]);
/// Operand packing, a conv's columns packed from the image included.
const PACK: Column = ("pack", &["gemm.pack_"]);

/// Buffer-pool copies (`pooled_clone`) and zero fills (`pooled_zeros`):
/// the activation traffic a layer boundary can avoid.
const POOL_FILL: Column = ("copy+zero", &["tensor.pool_"]);
/// The spans a pass's pool copies and zero fills are counted by.
const COPY_SPAN: &str = "tensor.pool_copy";
const ZERO_SPAN: &str = "tensor.pool_zero";

const FORWARD_COLUMNS: [Column; 7] = [
    KERNEL,
    PACK,
    ("im2col", &["conv.im2col"]),
    ("activ.", &["ops.gate_activation", "ops.relu"]),
    ("pooling", &["pool."]),
    ("norm", &["nn.groupnorm"]),
    POOL_FILL,
];

/// `elemwise` is the activations plus what the conv and recurrent backward
/// bodies do themselves, outside any GEMM: the gate gradients of the time
/// loop, layout shuffles, bias sums.
const STEP_COLUMNS: [Column; 11] = [
    KERNEL,
    PACK,
    ("im+col2im", &["conv.im2col", "conv.col2im"]),
    ("pooling", &["pool."]),
    ("norm", &["nn.groupnorm"]),
    ("dropout", &["nn.dropout"]),
    ("loss", &["loss.xent"]),
    ("optim", &["trainer.average", "optim."]),
    (
        "elemwise",
        &[
            "ops.gate_activation",
            "ops.relu",
            "nn.conv_bwd",
            "nn.lstm_bwd",
            "nn.gru_bwd",
        ],
    ),
    POOL_FILL,
    ("join wait", &["par.join_wait"]),
];

/// Calls of span `name` between two snapshots, per repetition.
fn calls_per(before: &[SpanStats], after: &[SpanStats], name: &str, reps: u32) -> f64 {
    let calls = |stats: &[SpanStats]| {
        let site = stats.iter().filter(|s| s.name == name);
        site.map(|s| s.calls).sum::<u64>()
    };
    (calls(after) - calls(before)) as f64 / f64::from(reps)
}

fn self_ns(stats: &[SpanStats], prefixes: &[&str]) -> u64 {
    stats
        .iter()
        .filter(|s| prefixes.iter().any(|p| s.name.starts_with(p)))
        .map(|s| s.self_ns)
        .sum()
}

/// Prints one row: the leading figures as given (µs per repetition), then
/// each column's share of the span time recorded between the two snapshots,
/// then what of the last leading figure no column claims, then the trailing
/// figures as given.
fn print_row(
    label: &str,
    leading: &[f64],
    reps: u32,
    columns: &[Column],
    before: &[SpanStats],
    after: &[SpanStats],
    trailing: &[f64],
) {
    print!("{label}");
    for us in leading {
        print!(" {us:>9.0}");
    }
    let mut claimed = 0.0;
    for (_, prefixes) in columns {
        let ns = self_ns(after, prefixes) - self_ns(before, prefixes);
        let us = ns as f64 / 1e3 / f64::from(reps);
        claimed += us;
        print!(" {us:>9.0}");
    }
    let budget_us = leading.last().copied().unwrap_or(0.0);
    print!(" {:>9.0}", budget_us - claimed);
    for figure in trailing {
        print!(" {figure:>9.1}");
    }
    println!();
}

fn print_header(first: &str, leading: &[&str], columns: &[Column], trailing: &[&str]) {
    print!("{first}");
    let columns = columns.iter().map(|(column, _)| column);
    for column in leading.iter().chain(columns) {
        print!(" {column:>9}");
    }
    print!(" {:>9}", "other");
    for column in trailing {
        print!(" {column:>9}");
    }
    println!();
}

/// One Algorithm-1 step over all four rates, `STEPS` times.
fn profile_step(name: &str, net: &mut dyn Layer, sgd: SgdConfig, batch: &Batch) {
    let list = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let scheduler = Scheduler::new(SchedulerKind::Static, list, &mut SeededRng::new(5));
    let mut trainer = Trainer::new(
        scheduler,
        TrainerConfig {
            sgd,
            average_subnet_grads: true,
        },
    );
    for _ in 0..3 {
        trainer.step(net, batch);
    }
    let before = spans::snapshot();
    let (joins, taken_back) = (par::joins(), par::taken_back());
    let t = Instant::now();
    for _ in 0..STEPS {
        trainer.step(net, batch);
    }
    let wall_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(STEPS);
    let after = spans::snapshot();
    let per_step = |n: u64| n as f64 / f64::from(STEPS);
    let [joins, taken] = [par::joins() - joins, par::taken_back() - taken_back].map(per_step);
    let copies = calls_per(&before, &after, COPY_SPAN, STEPS);
    let zeros = calls_per(&before, &after, ZERO_SPAN, STEPS);
    // The helper is busy whenever it is not in its idle span; no idle span
    // at all means no helper, or no span tracer.
    let idle = &["par.helper_idle"];
    let idle_us = (self_ns(&after, idle) - self_ns(&before, idle)) as f64 / 1e3 / f64::from(STEPS);
    let busy_us = if idle_us > 0.0 {
        (wall_us - idle_us).max(0.0)
    } else {
        0.0
    };
    print_row(
        &format!("{name:<5}"),
        &[wall_us, wall_us + busy_us],
        STEPS,
        &STEP_COLUMNS,
        &before,
        &after,
        &[joins, taken, copies, zeros],
    );
}

/// Times `n` joins with nothing to do, each after `pause`; returns
/// `(p50, p99)` in µs. The first half ends when the second has started, so
/// the helper really runs it (a caller that is done first takes its job
/// back) and the time is post → pick-up → run → signal → seen.
fn handoff_us(n: usize, pause: Option<Duration>) -> (f64, f64) {
    let mut us: Vec<f64> = (0..n)
        .map(|_| {
            if let Some(pause) = pause {
                std::thread::sleep(pause);
            }
            let started = AtomicBool::new(false);
            let t = Instant::now();
            par::join(
                || {
                    while !started.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                },
                || started.store(true, Ordering::Release),
            );
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    (us[n / 2], us[n * 99 / 100])
}

/// One line: the round trip of a bare handoff to the helper and back.
fn print_handoff() {
    const JOINS: usize = 10_000;
    let team = par::enter();
    if !team.holds_helper() {
        println!("# no fork-join helper on this machine: every join runs inline");
        return;
    }
    let (spin50, spin99) = handoff_us(JOINS, None);
    // Twice the helper's polling interval: it has parked by then.
    let (park50, park99) = handoff_us(JOINS, Some(Duration::from_micros(400)));
    println!(
        "# handoff round trip over {JOINS} joins, µs p50/p99: helper polling {spin50:.2}/{spin99:.2}, \
         helper parked {park50:.1}/{park99:.1}"
    );
}

/// One GEMM a `forward(Infer)` issues: `calls` multiplies of `m×k` by `k×n`
/// per batch, through the driver the layer calls.
struct GemmShape {
    layer: String,
    driver: Driver,
    m: usize,
    n: usize,
    k: usize,
    calls: usize,
}

/// Which side a layer's weight is on, and how it is read.
enum Driver {
    /// A `Linear`'s weight on the left, read in place (`linear_in_place`):
    /// `m` output units, `n` the batch.
    Linear,
    /// The recurrent gates' panels on the right (`gemm_packed_b`): `m` the
    /// batch rows, `n` the gates side by side.
    Panels,
    /// A conv's panels on the left (`conv_packed_a_stepped`), the columns of
    /// the whole batch (`n = B·OH·OW`) read straight from the image of this
    /// window and active input channel count.
    Conv(ConvGeom, usize),
}

impl GemmShape {
    /// A dense layer of `k` inputs and `units` outputs over `batch` rows.
    fn linear(layer: impl Into<String>, batch: usize, units: usize, k: usize) -> Self {
        GemmShape {
            layer: layer.into(),
            driver: Driver::Linear,
            m: units,
            n: batch,
            k,
            calls: 1,
        }
    }

    /// A recurrent product of `m` rows against `n` gate columns.
    fn gates(layer: impl Into<String>, m: usize, n: usize, k: usize) -> Self {
        GemmShape {
            layer: layer.into(),
            driver: Driver::Panels,
            m,
            n,
            k,
            calls: 1,
        }
    }

    /// A 3×3 "same" conv over `hw × hw` planes: one sweep over the batch.
    fn conv(layer: String, hw: usize, a_in: usize, a_out: usize) -> Self {
        let geom = ConvGeom {
            h: hw,
            w: hw,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        GemmShape {
            layer,
            driver: Driver::Conv(geom, a_in),
            m: a_out,
            n: BATCH * geom.out_len(),
            k: a_in * 9,
            calls: 1,
        }
    }

    fn macs(&self) -> usize {
        self.m * self.n * self.k * self.calls
    }

    /// The multiply-adds the micro-kernel performs: whole `MR×NR` tiles.
    fn padded_macs(&self) -> usize {
        self.m.next_multiple_of(MR) * self.n.next_multiple_of(NR) * self.k * self.calls
    }
}

fn mlp_shapes(rate: SliceRate) -> Vec<GemmShape> {
    let w = active_units(2048, GROUPS, rate);
    vec![
        GemmShape::linear("fc0", BATCH, w, 64),
        GemmShape::linear("fc1", BATCH, w, w),
        GemmShape::linear("head", BATCH, 8, w),
    ]
}

fn vgg_shapes(rate: SliceRate) -> Vec<GemmShape> {
    let cfg = VggConfig::vgg13_scaled(10, GROUPS);
    let (mut in_ch, mut hw) = (cfg.in_channels, cfg.image_size);
    let mut shapes = Vec::new();
    for (si, &(n_convs, _)) in cfg.stages.iter().enumerate() {
        let out_ch = active_units(cfg.stage_width(si), GROUPS, rate);
        for ci in 0..n_convs {
            shapes.push(GemmShape::conv(format!("s{si}c{ci}"), hw, in_ch, out_ch));
            in_ch = out_ch;
        }
        hw /= 2;
    }
    shapes.push(GemmShape::linear("head", BATCH, cfg.num_classes, in_ch));
    shapes
}

fn nnlm_shapes(rate: SliceRate) -> Vec<GemmShape> {
    let h = active_units(64, GROUPS, rate);
    let mut shapes = Vec::new();
    for (name, d) in [("rnn1", 64), ("rnn2", h)] {
        // The four gates side by side: every step's input projection in one
        // product, then the recurrence one product per step.
        let proj = GemmShape::gates(format!("{name}.x"), SEQ_LEN * BATCH, 4 * h, d);
        let mut rec = GemmShape::gates(format!("{name}.h"), BATCH, 4 * h, h);
        rec.calls = SEQ_LEN;
        shapes.extend([proj, rec]);
    }
    shapes.push(GemmShape::linear("decoder", SEQ_LEN * BATCH, 200, h));
    shapes
}

/// GFLOP/s of the layer's driver on `shape` alone: operands of the sliced
/// size read out of a weight of `full` size — in place, or from panels —
/// as the layers do (a conv's columns read from an image on every call).
fn achieved_gflops(shape: &GemmShape, full: &GemmShape, rng: &mut SeededRng) -> f64 {
    let (m, n, k) = (shape.m, shape.n, shape.k);
    let mut fill = |len: usize| -> Vec<f32> { (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect() };
    let mut c = vec![0.0f32; m * n];
    let mut run: Box<dyn FnMut()> = match shape.driver {
        Driver::Linear => {
            let (w, x) = (fill(full.m * full.k), fill(n * k));
            let ldw = full.k;
            Box::new(move || linear_in_place(n, k, m, 1.0, &x, k, &w, ldw, None, &mut c, m))
        }
        Driver::Conv(geom, channels) => {
            let samples = n / geom.out_len();
            let (w, image) = (
                fill(full.m * full.k),
                fill(samples * channels * geom.h * geom.w),
            );
            let mut pa = PackedA::new();
            pa.pack(Trans::No, &w, full.k, full.m, full.k);
            Box::new(move || {
                let cols = Im2col {
                    input: &image,
                    channels,
                    geom,
                    samples,
                };
                conv_packed_a_stepped(&[0, m], &[k], &pa, cols, &mut c, m * geom.out_len())
            })
        }
        Driver::Panels => {
            let (w, x) = (fill(full.n * full.k), fill(m * k));
            let mut pb = PackedB::new();
            pb.pack(Trans::Yes, &w, full.k, full.k, full.n);
            Box::new(move || gemm_packed_b(m, 0, k, 0, n, 1.0, &x, k, &pb, 0.0, &mut c, n))
        }
    };
    for _ in 0..3 {
        run();
    }
    let (t, mut calls) = (Instant::now(), 0u32);
    while calls < 10 || t.elapsed() < Duration::from_millis(20) {
        run();
        calls += 1;
    }
    2.0 * (m * n * k) as f64 * f64::from(calls) / t.elapsed().as_secs_f64() / 1e9
}

/// The tile table of one network: a row per GEMM shape and rate, then the
/// fill of the whole forward. The shape list is checked against the MACs the
/// network itself counts (per `per_sample_units` of a batch row: tokens for
/// the NNLM).
fn print_tile_fill(
    name: &str,
    net: &mut dyn Layer,
    per_sample_units: usize,
    shapes: fn(SliceRate) -> Vec<GemmShape>,
) {
    let mut rng = SeededRng::new(11);
    let full = shapes(SliceRate::FULL);
    for rate in RATES {
        let rate = SliceRate::new(rate);
        net.set_slice_rate(rate);
        let list = shapes(rate);
        let (macs, padded): (usize, usize) = list
            .iter()
            .fold((0, 0), |(u, p), s| (u + s.macs(), p + s.padded_macs()));
        // The network counts GroupNorm's scale-and-shift too, a few
        // hundredths of a percent of a conv net.
        let counted = net.flops_per_sample() * (BATCH * per_sample_units) as u64;
        assert!(
            (counted as f64 / macs as f64 - 1.0).abs() < 1e-3,
            "{name}: the shape list ({macs} MACs) no longer describes the network ({counted})"
        );
        for (shape, full) in list.iter().zip(&full) {
            println!(
                "{name:<5} {:>6.3} {:<8} {:>5} {:>5} {:>5} {:>5} {:>6.3} {:>7.3} {:>8.1}",
                rate.get(),
                shape.layer,
                shape.m,
                shape.n,
                shape.k,
                shape.calls,
                shape.macs() as f64 / macs as f64,
                shape.macs() as f64 / shape.padded_macs() as f64,
                achieved_gflops(shape, full, &mut rng),
            );
        }
        println!(
            "{name:<5} {:>6.3} {:<8} {:>37.3}",
            rate.get(),
            "(all)",
            macs as f64 / padded as f64
        );
    }
    net.set_slice_rate(SliceRate::FULL);
}

/// The first table's rows of one network, then its `rate_efficiency` at the
/// narrower rate against full width.
fn profile(name: &str, net: &mut dyn Layer, x: &Tensor) {
    net.prepack();
    let mut cost = Vec::new();
    for rate in RATES {
        net.set_slice_rate(SliceRate::new(rate));
        for _ in 0..5 {
            net.forward(x, Mode::Infer).recycle();
        }
        let before = spans::snapshot();
        let t = Instant::now();
        for _ in 0..PASSES {
            net.forward(x, Mode::Infer).recycle();
        }
        let total_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(PASSES);
        let after = spans::snapshot();
        let label = format!("{name:<5} {rate:>6.3}");
        let copies = calls_per(&before, &after, COPY_SPAN, PASSES);
        let zeros = calls_per(&before, &after, ZERO_SPAN, PASSES);
        print_row(
            &label,
            &[total_us],
            PASSES,
            &FORWARD_COLUMNS,
            &before,
            &after,
            &[copies, zeros],
        );
        cost.push((total_us, net.flops_per_sample() as f64));
    }
    let [(t_r, macs_r), (t_1, macs_1)] = cost[..] else {
        unreachable!("one narrow rate and full width")
    };
    println!(
        "# {name} rate_efficiency({}) = ({t_r:.0}/{t_1:.0} µs) / ({macs_r:.0}/{macs_1:.0} MACs) = {:.2}",
        RATES[0],
        (t_r / t_1) / (macs_r / macs_1)
    );
}

fn main() {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown cpu".into());
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("# {cpu}, {cores} logical cores; batch {BATCH}, µs per pass over {PASSES} passes");
    if !cfg!(feature = "telemetry-spans") {
        println!("# built without --features telemetry-spans: only `total` is measured");
    }
    print_header(
        &format!("{:<5} {:>6}", "model", "rate"),
        &["total"],
        &FORWARD_COLUMNS,
        &["copies", "zeros"],
    );

    let mut rng = SeededRng::new(7);
    let mut vgg = Vgg::new(
        &VggConfig::vgg13_scaled(10, GROUPS),
        &mut SeededRng::new(42),
    );
    let n = BATCH * 3 * 16 * 16;
    let images = Tensor::from_vec(
        [BATCH, 3, 16, 16],
        (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect(),
    )
    .expect("image batch");
    profile("vgg", &mut vgg, &images);

    let cfg = NnlmConfig {
        dropout: 0.0,
        ..NnlmConfig::scaled(200, GROUPS)
    };
    let mut nnlm = Nnlm::new(&cfg, &mut SeededRng::new(43));
    let ids = Tensor::from_vec(
        [BATCH, SEQ_LEN],
        (0..BATCH * SEQ_LEN)
            .map(|_| rng.below(200) as f32)
            .collect(),
    )
    .expect("token batch");
    profile("nnlm", &mut nnlm, &ids);

    println!(
        "# tile fill on this target's {MR}x{NR} register tile: per GEMM shape of a batch-{BATCH} forward, \
         its share of the forward's MACs, useful MACs / MACs of the padded tiles, and the GFLOP/s of the \
         panel driver on that shape alone"
    );
    println!(
        "{:<5} {:>6} {:<8} {:>5} {:>5} {:>5} {:>5} {:>6} {:>7} {:>8}",
        "model", "rate", "layer", "m", "n", "k", "calls", "share", "fill", "GFLOP/s"
    );
    let mlp_cfg = MlpConfig {
        input_dim: 64,
        hidden_dims: vec![2048, 2048],
        num_classes: 8,
        groups: GROUPS,
        dropout: 0.0,
        input_rescale: true,
    };
    let mut mlp = Mlp::new(&mlp_cfg, &mut SeededRng::new(41));
    print_tile_fill("mlp", &mut mlp, 1, mlp_shapes);
    drop(mlp);
    print_tile_fill("vgg", &mut vgg, 1, vgg_shapes);
    print_tile_fill("nnlm", &mut nnlm, SEQ_LEN, nnlm_shapes);

    println!(
        "# one Trainer::step over rates {{0.25, 0.5, 0.75, 1.0}}, µs per step over {STEPS} steps"
    );
    print_header(
        &format!("{:<5}", "model"),
        &["wall", "2-thread"],
        &STEP_COLUMNS,
        &["joins", "taken", "copies", "zeros"],
    );
    let mut vgg = Vgg::new(
        &VggConfig::vgg13_scaled(10, GROUPS),
        &mut SeededRng::new(42),
    );
    let vision = SgdConfig {
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 5e-4,
        clip_norm: Some(5.0),
    };
    let labelled = Batch {
        x: images,
        y: (0..BATCH).map(|i| i % 10).collect(),
    };
    profile_step("vgg", &mut vgg, vision, &labelled);
    let mut nnlm = Nnlm::new(&NnlmConfig::scaled(200, GROUPS), &mut SeededRng::new(43));
    let text = SgdConfig {
        lr: 1.0,
        momentum: 0.0,
        weight_decay: 0.0,
        clip_norm: Some(1.0),
    };
    let next_tokens = Batch {
        x: ids,
        y: (0..BATCH * SEQ_LEN).map(|i| (i * 7) % 200).collect(),
    };
    profile_step("nnlm", &mut nnlm, text, &next_tokens);
    print_handoff();
}
