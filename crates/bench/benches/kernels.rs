//! Kernel microbenchmarks: the sub-block GEMM that powers sliced layers
//! (full matrix vs top-left block with a large leading dimension — the
//! block multiply must not pay for the inactive columns), and the non-GEMM
//! work of a conv or recurrent forward: im2col at the VGG stage shapes, the
//! gate activations of one NNLM layer, a conv forward on the persistent
//! panels with its columns read from the image and with them packed, a
//! dense layer's product with its weight read in place against the same
//! product on panels, the bare handoff of the training step's fork-join,
//! and seeded weight init: a bulk normal fill and the heavy MLP's
//! 2048×2048 Kaiming weight.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ms_nn::conv2d::{Conv2d, Conv2dConfig};
use ms_nn::layer::{Layer, Mode};
use ms_nn::slice::{active_units, SliceRate};
use ms_tensor::conv::{im2col, ConvGeom};
use ms_tensor::matmul::{gemm, Trans};
use ms_tensor::ops::{sigmoid_cols, tanh_cols};
use ms_tensor::panels::{gemm_packed_b, linear_in_place, PackedB};
use ms_tensor::{init, par, SeededRng, Tensor};

fn gemm_blocks(c: &mut Criterion) {
    let mut rng = SeededRng::new(1);
    let full = 256usize;
    let a: Vec<f32> = (0..full * full).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let b: Vec<f32> = (0..full * full).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let mut group = c.benchmark_group("gemm_subblock");
    for &frac in &[0.25f32, 0.5, 1.0] {
        let m = (full as f32 * frac) as usize;
        let mut out = vec![0.0f32; m * m];
        group.bench_with_input(BenchmarkId::from_parameter(frac), &frac, |bch, _| {
            bch.iter(|| {
                gemm(
                    Trans::No,
                    Trans::Yes,
                    m,
                    m,
                    m,
                    1.0,
                    &a,
                    full,
                    &b,
                    full,
                    0.0,
                    &mut out,
                    m,
                )
            })
        });
    }
    group.finish();

    // Products of a few micro-tiles or less, the sizes a batch-1 dense
    // layer or one recurrent step issues: each is dominated by the blocked
    // loop's fixed cost (packing into the thread's buffers, one pass of
    // the driver), not by its MACs.
    let mut group = c.benchmark_group("gemm_tiny");
    for (m, n, k) in [(1, 64, 64), (8, 8, 8), (16, 16, 16), (32, 24, 24)] {
        let mut out = vec![0.0f32; m * n];
        group.bench_function(format!("{m}x{n}x{k}"), |bch| {
            bch.iter(|| {
                gemm(
                    Trans::No,
                    Trans::No,
                    m,
                    n,
                    k,
                    1.0,
                    &a,
                    k,
                    &b,
                    n,
                    0.0,
                    &mut out,
                    n,
                )
            })
        });
    }
    group.finish();
}

/// Layer-shaped GEMMs at the paper's slice rates. Both channel widths
/// (`m` = output rows, `k` = reduction) scale with the rate while the
/// batch/spatial dimension `n` is fixed, so the measured cost must track
/// `r²` — the Eq. 3 quadratic-cost claim, on real VGG/ResNet/LSTM shapes.
/// Sliced blocks read the top-left corner of the full buffers, i.e. with
/// leading dimensions larger than the active widths.
fn gemm_layer_shapes(c: &mut Criterion) {
    // (label, full_m, n, full_k). Conv layers lower to m = out_ch,
    // k = in_ch·K², n = OH·OW; the LSTM gate matmul is taken transposed so
    // that its sliceable widths (4H, D) also land on m and k.
    let shapes: [(&str, usize, usize, usize); 3] = [
        ("vgg_conv3_128_28x28", 128, 784, 1152),
        ("resnet_conv3_256_14x14", 256, 196, 2304),
        ("lstm_gates_h256_b32", 1024, 32, 256),
    ];
    let mut rng = SeededRng::new(3);
    for (label, full_m, n, full_k) in shapes {
        let a: Vec<f32> = (0..full_m * full_k)
            .map(|_| rng.uniform(-1.0, 1.0))
            .collect();
        let b: Vec<f32> = (0..full_k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut group = c.benchmark_group(label);
        for &rate in &[0.375f32, 0.5, 0.75, 1.0] {
            let m = (full_m as f32 * rate).round() as usize;
            let k = (full_k as f32 * rate).round() as usize;
            let mut out = vec![0.0f32; m * n];
            group.bench_with_input(BenchmarkId::from_parameter(rate), &rate, |bch, _| {
                bch.iter(|| {
                    gemm(
                        Trans::No,
                        Trans::No,
                        m,
                        n,
                        k,
                        1.0,
                        &a,
                        full_k,
                        &b,
                        n,
                        0.0,
                        &mut out,
                        n,
                    )
                })
            });
        }
        group.finish();
    }
}

/// `(channels, side)` of the three stages of `Vgg::vgg13_scaled`.
const VGG_STAGES: [(usize, usize); 3] = [(16, 16), (32, 8), (64, 4)];

fn random(rng: &mut SeededRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

/// One sample's 3×3 / pad-1 lowering at each VGG stage.
fn im2col_lowering(c: &mut Criterion) {
    let mut rng = SeededRng::new(2);
    let mut group = c.benchmark_group("im2col");
    for (channels, side) in VGG_STAGES {
        let geom = ConvGeom {
            h: side,
            w: side,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let input = random(&mut rng, channels * side * side);
        let mut col = vec![0.0f32; channels * 9 * geom.out_len()];
        group.bench_function(format!("{channels}ch_{side}x{side}_k3"), |b| {
            b.iter(|| im2col(&input, channels, &geom, &mut col, geom.out_len(), 0))
        });
    }
    group.finish();
}

/// The activations of one 64-unit LSTM layer over a 32 × 16 batch, as the
/// layer runs them per step: on rows of its four gates side by side, the
/// sigmoid gates and the tanh gate, then `tanh(c)` over a slab.
fn gate_activations(c: &mut Criterion) {
    let (batch, hidden, steps) = (32usize, 64usize, 16usize);
    let (rows, width) = (batch * steps, 4 * hidden);
    let pre = random(&mut SeededRng::new(4), rows * (width + hidden));
    let mut slab = pre.clone();
    c.bench_function("gate_activations/32x64x16", |b| {
        b.iter(|| {
            slab.copy_from_slice(&pre);
            let (gates, cell) = slab.split_at_mut(rows * width);
            sigmoid_cols(gates, width, 0..2 * hidden);
            tanh_cols(gates, width, 2 * hidden..3 * hidden);
            sigmoid_cols(gates, width, 3 * hidden..width);
            tanh_cols(cell, cell.len(), 0..cell.len());
        })
    });
}

/// A batch-32 3×3 conv forward on the persistent panels: at each VGG stage,
/// where the micro-kernel reads the columns from the image, and on two
/// geometries whose columns are packed chunk by chunk — a stride-2 conv and
/// a 7×7 plane.
fn conv_fwd_packed(c: &mut Criterion) {
    let mut rng = SeededRng::new(5);
    let mut group = c.benchmark_group("conv_fwd_packed");
    let direct = VGG_STAGES.map(|(channels, side)| ("direct", channels, side, 1));
    let columns = [("columns", 16, 16, 2), ("columns", 64, 7, 1)];
    for (path, channels, side, stride) in direct.into_iter().chain(columns) {
        let cfg = Conv2dConfig {
            in_ch: channels,
            out_ch: channels,
            kernel: 3,
            stride,
            pad: 1,
            h: side,
            w: side,
            in_groups: Some(8),
            out_groups: Some(8),
            bias: false,
        };
        let mut conv = Conv2d::new("bench.conv", cfg, &mut rng);
        conv.prepack();
        let n = 32 * channels * side * side;
        let x = Tensor::from_vec([32, channels, side, side], random(&mut rng, n)).expect("input");
        let shape = format!("{channels}ch_{side}x{side}_s{stride}");
        group.bench_function(format!("{path}/{shape}"), |b| {
            b.iter(|| conv.forward(&x, Mode::Infer).recycle())
        });
    }
    group.finish();
}

/// A dense forward `y = x·W_activeᵀ` (no bias) both ways, out of a weight
/// of full size: `in_place/…`, the weight on the left read where it lies
/// and the product transposed into `y` (`linear_in_place`, what a `Linear`
/// runs), against `panels/…`, the weight on the right packed once into
/// panels of `Wᵀ` (`gemm_packed_b`, what a recurrent layer runs). The
/// shapes: the benchmark MLP's `fc1` (2048 × 2048, eight groups) at the
/// slice rates, at batches of 8, 32 and 120; and the NNLM decoder (200
/// words from 64 hidden units) over 32 × 16 tokens at r = 0.375 and 1.
fn dense_weight_side(c: &mut Criterion) {
    let mut rng = SeededRng::new(6);
    let mut shapes = Vec::new();
    for rate in [0.375, 0.5, 0.75, 1.0] {
        let w = active_units(2048, 8, SliceRate::new(rate));
        for batch in [8, 32, 120] {
            shapes.push((format!("fc1_r{rate}_b{batch}"), batch, w, w, (2048, 2048)));
        }
    }
    for h in [24, 64] {
        shapes.push((format!("decoder_k{h}_b512"), 512, h, 200, (200, 64)));
    }
    let mut group = c.benchmark_group("dense_weight_side");
    for (shape, n, k, m, (full_m, full_k)) in shapes {
        let (w, x) = (random(&mut rng, full_m * full_k), random(&mut rng, n * k));
        let mut y = vec![0.0f32; n * m];
        group.bench_function(format!("in_place/{shape}"), |b| {
            b.iter(|| linear_in_place(n, k, m, 1.0, &x, k, &w, full_k, None, &mut y, m))
        });
        let mut pb = PackedB::new();
        pb.pack(Trans::Yes, &w, full_k, full_k, full_m);
        group.bench_function(format!("panels/{shape}"), |b| {
            b.iter(|| gemm_packed_b(n, 0, k, 0, m, 1.0, &x, k, &pb, 0.0, &mut y, m))
        });
    }
    group.finish();
}

/// An empty `join`: to the helper thread and back when this thread gets it
/// (nothing else here competes), inline on a one-core machine.
fn par_join(c: &mut Criterion) {
    let _team = par::enter();
    c.bench_function("par_join", |b| {
        b.iter(|| par::join(|| black_box(1u32), || black_box(2u32)))
    });
}

/// Seeded init: 64 Ki normals drawn in bulk into a warm buffer, and one
/// 2048×2048 Kaiming-normal weight, its allocation included, as a model
/// build runs it.
fn seeded_init(c: &mut Criterion) {
    let mut rng = SeededRng::new(41);
    let mut buf = vec![0.0f32; 1 << 16];
    c.bench_function("rng/fill_normal", |b| {
        b.iter(|| rng.fill_normal(&mut buf, 0.0, 1.0))
    });
    c.bench_function("init/kaiming_normal_2048x2048", |b| {
        b.iter(|| init::kaiming_normal([2048, 2048], 2048, &mut rng))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(30);
    targets = gemm_blocks, gemm_layer_shapes, im2col_lowering, gate_activations,
        conv_fwd_packed, dense_weight_side, par_join, seeded_init
}
criterion_main!(benches);
