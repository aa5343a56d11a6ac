//! No stale pooled buffer leaks into a result.
//!
//! Layers draw the outputs they write in full with `Tensor::pooled_stale`,
//! which skips the zero fill and hands back whatever the buffer's last user
//! left there. Here every pass runs twice on identically warmed twins: once
//! with the calling thread's pool seeded with NaN buffers of every size
//! class the pass can draw, once with the same buffers zero-filled. Pool
//! traffic is the same on both runs, so a `pooled_stale` site that leaves
//! any element unwritten shows up as a NaN (or at least a differing bit) in
//! the logits, the loss or a gradient.

use ms_core::inference::batched_sliced_forward;
use ms_core::scheduler::{Scheduler, SchedulerKind};
use ms_core::slice_rate::{SliceRate, SliceRateList};
use ms_core::trainer::{Batch, Trainer, TrainerConfig};
use ms_models::mlp::{Mlp, MlpConfig};
use ms_models::nnlm::{Nnlm, NnlmConfig};
use ms_models::vgg::{Vgg, VggConfig};
use ms_nn::layer::{Layer, Mode};
use ms_nn::optim::SgdConfig;
use ms_tensor::{pool, SeededRng, Tensor};

/// Size classes `2^0 … 2^(CLASSES − 1)` floats: a draw of `len` takes a
/// pooled buffer of capacity `len … 2·len`, so some class serves every draw
/// up to the largest, and `COPIES` of each fill the pool
/// (`pool::MAX_POOLED`).
const CLASSES: u32 = 18;
const COPIES: usize = pool::MAX_POOLED / CLASSES as usize;

/// Empties this thread's pool and fills it with buffers holding `value`.
fn seed_pool(value: f32) {
    pool::clear();
    for _ in 0..COPIES {
        for class in 0..CLASSES {
            Tensor::full([1usize << class], value).recycle();
        }
    }
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

/// Every parameter's value and gradient (if it has one), in `visit_params`
/// order.
type Params = Vec<(String, Vec<u32>, Option<Vec<u32>>)>;

fn params(net: &mut dyn Layer) -> Params {
    let mut out = Vec::new();
    net.visit_params(&mut |p| {
        let grad = p.grad.get().map(|g| bits(g.data()));
        out.push((p.name.clone(), bits(p.value.data()), grad));
    });
    out
}

/// Runs `pass` on `nets[0]` over a NaN-seeded pool and on `nets[1]` over a
/// zero-seeded one, and asserts both results and both nets' parameters and
/// gradients agree bit for bit.
fn assert_same_on_nan_and_zero_pools<N: Layer, R: std::fmt::Debug + PartialEq>(
    what: &str,
    nets: &mut [N; 2],
    mut pass: impl FnMut(&mut N) -> R,
) {
    let [on_nan, on_zero] = nets;
    seed_pool(f32::NAN);
    let got = pass(on_nan);
    seed_pool(0.0);
    let want = pass(on_zero);
    assert_eq!(got, want, "{what}: a stale buffer reached the result");
    let (got, want) = (params(on_nan), params(on_zero));
    for ((name, value, grad), (_, want_value, want_grad)) in got.iter().zip(&want) {
        assert!(
            value == want_value && grad == want_grad,
            "{what}: a stale buffer reached {name}"
        );
    }
}

fn random(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = SeededRng::new(seed);
    let n = dims.iter().product();
    Tensor::from_vec(dims, (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap()
}

fn token_ids(dims: [usize; 2], vocab: usize, seed: u64) -> Tensor {
    let mut rng = SeededRng::new(seed);
    let n = dims[0] * dims[1];
    Tensor::from_vec(dims, (0..n).map(|_| rng.below(vocab) as f32).collect()).unwrap()
}

fn vgg() -> Vgg {
    Vgg::new(&VggConfig::vgg13_scaled(10, 8), &mut SeededRng::new(11))
}

fn nnlm(dropout: f64) -> Nnlm {
    let cfg = NnlmConfig {
        dropout,
        ..NnlmConfig::scaled(60, 8)
    };
    Nnlm::new(&cfg, &mut SeededRng::new(12))
}

fn trainer(sgd: SgdConfig) -> Trainer {
    let list = SliceRateList::from_rates(&[0.375, 0.5, 0.75, 1.0]);
    let scheduler = Scheduler::new(SchedulerKind::Static, list, &mut SeededRng::new(13));
    Trainer::new(
        scheduler,
        TrainerConfig {
            sgd,
            average_subnet_grads: true,
        },
    )
}

/// A warm step (losses and grad norm as bits), then every weight and
/// gradient it left, on both pools.
fn assert_warm_step_is_clean<N: Layer>(
    what: &str,
    mut nets: [N; 2],
    sgd: SgdConfig,
    batch: &Batch,
) {
    let mut trainers = [trainer(sgd), trainer(sgd)];
    for (net, trainer) in nets.iter_mut().zip(&mut trainers) {
        trainer.step(net, batch);
    }
    // The first call steps the NaN-pool twin, the second the zero-pool one.
    let mut which = 0;
    assert_same_on_nan_and_zero_pools(what, &mut nets, |net| {
        let stats = trainers[which].step(net, batch);
        which += 1;
        let losses: Vec<u64> = stats
            .subnet_losses
            .iter()
            .map(|(_, l)| l.to_bits())
            .collect();
        (losses, stats.grad_norm.to_bits())
    });
}

#[test]
fn vgg_train_step_reads_no_stale_element() {
    let sgd = SgdConfig {
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 5e-4,
        clip_norm: Some(5.0),
    };
    let batch = Batch {
        x: random(&[4, 3, 16, 16], 21),
        y: vec![0, 3, 7, 9],
    };
    assert_warm_step_is_clean("VGG Trainer::step", [vgg(), vgg()], sgd, &batch);
}

#[test]
fn nnlm_train_step_reads_no_stale_element() {
    let sgd = SgdConfig {
        lr: 1.0,
        momentum: 0.0,
        weight_decay: 0.0,
        clip_norm: Some(1.0),
    };
    let batch = Batch {
        x: token_ids([4, 8], 60, 22),
        y: (0..32).map(|i| (i * 7) % 60).collect(),
    };
    assert_warm_step_is_clean("NNLM Trainer::step", [nnlm(0.3), nnlm(0.3)], sgd, &batch);
}

/// A warm `forward(Infer)` at r = 0.375 and r = 1 on prepacked nets,
/// through the borrowed entry and, where the logits are one row per sample
/// (`batched`), through the engine's batched path, which stacks the batch
/// and splits the logits into stale buffers of their own.
fn assert_warm_inference_is_clean<N: Layer>(
    what: &str,
    mut nets: [N; 2],
    x: &Tensor,
    batched: bool,
) {
    let samples: Vec<Tensor> = (0..x.dims()[0])
        .map(|s| Tensor::from_vec(&x.dims()[1..], x.row(s).to_vec()).unwrap())
        .collect();
    for net in &mut nets {
        net.prepack();
    }
    for rate in [0.375, 1.0].map(SliceRate::new) {
        for net in &mut nets {
            net.set_slice_rate(rate);
            net.forward(x, Mode::Infer).recycle();
        }
        assert_same_on_nan_and_zero_pools(&format!("{what} forward at {rate}"), &mut nets, |net| {
            net.set_slice_rate(rate);
            bits(net.forward(x, Mode::Infer).data())
        });
        if batched {
            let label = format!("{what} batched forward at {rate}");
            assert_same_on_nan_and_zero_pools(&label, &mut nets, |net| {
                let rows = batched_sliced_forward(net, &samples, rate);
                rows.iter().map(|r| bits(r.data())).collect::<Vec<_>>()
            });
        }
    }
}

#[test]
fn vgg_inference_reads_no_stale_element() {
    let x = random(&[4, 3, 16, 16], 31);
    assert_warm_inference_is_clean("VGG", [vgg(), vgg()], &x, true);
}

#[test]
fn mlp_inference_reads_no_stale_element() {
    let cfg = MlpConfig {
        input_dim: 24,
        hidden_dims: vec![64, 64],
        num_classes: 7,
        groups: 8,
        dropout: 0.2,
        input_rescale: true,
    };
    let mlp = || Mlp::new(&cfg, &mut SeededRng::new(14));
    assert_warm_inference_is_clean("MLP", [mlp(), mlp()], &random(&[5, 24], 32), true);
}

#[test]
fn nnlm_inference_reads_no_stale_element() {
    let ids = token_ids([4, 8], 60, 33);
    assert_warm_inference_is_clean("NNLM", [nnlm(0.3), nnlm(0.3)], &ids, false);
}
