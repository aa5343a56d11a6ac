//! A training step computes the same bits whoever executes its parts.
//!
//! Every split layer pass partitions the batch the same way whether the
//! second part runs on the fork-join helper or inline after the first, so
//! five `Trainer::step`s must leave every parameter, every subnet loss and
//! the gradient norm bit-for-bit equal in three situations: the test thread
//! holds the helper itself (every `join` goes to the second core), another
//! thread holds it (every `join` runs inline — what a one-core machine
//! does), and whatever the concurrently running tests leave it with.

use modelslicing::models::nnlm::{Nnlm, NnlmConfig, RnnCell};
use modelslicing::models::vgg::{Vgg, VggConfig};
use modelslicing::nn::activation::Relu;
use modelslicing::nn::depthwise::{DepthwiseConv2d, DepthwiseConv2dConfig};
use modelslicing::nn::norm::{BatchNorm, SwitchableBatchNorm};
use modelslicing::nn::optim::SgdConfig;
use modelslicing::nn::pool::GlobalAvgPool;
use modelslicing::nn::sequential::Sequential;
use modelslicing::prelude::*;
use modelslicing::slicing::trainer::Batch;
use modelslicing::tensor::par;
use std::sync::mpsc;
use std::thread;

const RATES: [f32; 4] = [0.25, 0.5, 0.75, 1.0];
const STEPS: usize = 5;

fn has_helper() -> bool {
    thread::available_parallelism().map_or(1, usize::from) > 1
}

/// Claims the helper for the calling thread, waiting out other holders.
fn hold_helper() -> par::Team {
    loop {
        let team = par::enter();
        if team.holds_helper() {
            return team;
        }
        thread::yield_now();
    }
}

/// Runs `f` while another thread holds the helper, so every `join` `f`
/// issues runs inline.
fn with_helper_held_elsewhere<R>(f: impl FnOnce() -> R) -> R {
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    thread::scope(|scope| {
        scope.spawn(move || {
            let _team = hold_helper();
            held_tx.send(()).expect("the test thread waits for this");
            // Released by the sender being dropped.
            let _ = release_rx.recv();
        });
        held_rx.recv().expect("the holder reports before exiting");
        let out = f();
        drop(release_tx);
        out
    })
}

/// Everything a run leaves behind, as bits.
#[derive(PartialEq, Debug)]
struct Outcome {
    params: Vec<Vec<u32>>,
    losses: Vec<Vec<u64>>,
    grad_norms: Vec<u64>,
    joins: u64,
}

fn train(net: &mut dyn Layer, sgd: SgdConfig, batches: &[Batch]) -> Outcome {
    let list = SliceRateList::from_rates(&RATES);
    let scheduler = Scheduler::new(
        SchedulerKind::r_weighted_3(&list),
        list.clone(),
        &mut SeededRng::new(5),
    );
    let mut trainer = Trainer::new(
        scheduler,
        TrainerConfig {
            sgd,
            average_subnet_grads: true,
        },
    );
    let joins_before = par::joins();
    let (mut losses, mut grad_norms) = (Vec::new(), Vec::new());
    for batch in batches.iter().cycle().take(STEPS) {
        let stats = trainer.step(net, batch);
        losses.push(
            stats
                .subnet_losses
                .iter()
                .map(|(_, l)| l.to_bits())
                .collect(),
        );
        grad_norms.push(stats.grad_norm.to_bits());
    }
    let mut params = Vec::new();
    net.visit_params(&mut |p| params.push(p.value.data().iter().map(|v| v.to_bits()).collect()));
    Outcome {
        params,
        losses,
        grad_norms,
        joins: par::joins() - joins_before,
    }
}

/// Trains a freshly built network three times — helper held by this thread,
/// held elsewhere, and unconstrained — and returns the common outcome.
fn assert_invariant<N: Layer>(build: impl Fn() -> N, sgd: SgdConfig, batches: &[Batch]) -> Outcome {
    let plain = train(&mut build(), sgd, batches);
    if has_helper() {
        let on_helper = {
            let _team = hold_helper();
            train(&mut build(), sgd, batches)
        };
        let inline = with_helper_held_elsewhere(|| train(&mut build(), sgd, batches));
        assert!(on_helper == inline, "helper vs inline differ");
        assert!(on_helper == plain, "held vs unconstrained differ");
    } else {
        assert!(plain == train(&mut build(), sgd, batches), "rerun differs");
    }
    plain
}

fn image_batches(batch: usize, channels: usize, side: usize, classes: usize) -> Vec<Batch> {
    let mut rng = SeededRng::new(17);
    (0..2)
        .map(|_| Batch {
            x: Tensor::from_vec(
                [batch, channels, side, side],
                (0..batch * channels * side * side)
                    .map(|_| rng.uniform(-1.0, 1.0))
                    .collect(),
            )
            .expect("image batch"),
            y: (0..batch).map(|_| rng.below(classes)).collect(),
        })
        .collect()
}

const VISION: SgdConfig = SgdConfig {
    lr: 0.05,
    momentum: 0.9,
    weight_decay: 5e-4,
    clip_norm: Some(5.0),
};

#[test]
fn vgg_steps_are_bitwise_independent_of_who_runs_the_parts() {
    // An odd batch: the two parts differ in size.
    let batches = image_batches(9, 3, 16, 10);
    let outcome = assert_invariant(
        || Vgg::new(&VggConfig::vgg13_scaled(10, 8), &mut SeededRng::new(42)),
        VISION,
        &batches,
    );
    // Six conv, six GroupNorm and three max-pool layers, three rates a step:
    // one join per layer per pass, forward and backward. (The head's GEMMs
    // are too small to cut at this batch.)
    let layers = 6 + 6 + 3;
    assert_eq!(outcome.joins, (STEPS * 3 * 2 * layers) as u64);
}

#[test]
fn nnlm_steps_with_dropout_are_bitwise_independent_of_who_runs_the_parts() {
    // An odd batch; 66 decoder rows, so the decoder halves its rows at every
    // rate (its batch is its long side).
    let (batch, steps, vocab) = (11, 6, 50);
    let mut rng = SeededRng::new(23);
    let batches: Vec<Batch> = (0..2)
        .map(|_| Batch {
            x: Tensor::from_vec(
                [batch, steps],
                (0..batch * steps)
                    .map(|_| rng.below(vocab) as f32)
                    .collect(),
            )
            .expect("token batch"),
            y: (0..batch * steps).map(|_| rng.below(vocab)).collect(),
        })
        .collect();
    let sgd = SgdConfig {
        lr: 1.0,
        momentum: 0.0,
        weight_decay: 0.0,
        clip_norm: Some(1.0),
    };
    for cell in [RnnCell::Lstm, RnnCell::Gru] {
        let cfg = NnlmConfig {
            cell,
            ..NnlmConfig::scaled(vocab, 8)
        };
        assert!(cfg.dropout > 0.0);
        let outcome = assert_invariant(|| Nnlm::new(&cfg, &mut SeededRng::new(43)), sgd, &batches);
        // Two recurrent layers (one join forward, two backward) and the
        // decoder (one each).
        assert_eq!(outcome.joins, (STEPS * 3 * (2 * 3 + 2)) as u64, "{cell:?}");
    }
}

/// Batch statistics are a reduction across samples, so `BatchNorm`,
/// `SwitchableBatchNorm` and `DepthwiseConv2d` are left as they were: a net
/// of only those issues no join at all, and trains to the same bits held or
/// not.
#[test]
fn layers_left_serial_issue_no_join() {
    let (channels, side) = (8, 6);
    let batches = image_batches(5, channels, side, channels);
    let build = || {
        let depthwise = |name: &str, rng: &mut SeededRng| {
            DepthwiseConv2d::new(
                name,
                DepthwiseConv2dConfig {
                    channels,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    h: side,
                    w: side,
                    groups: None,
                },
                rng,
            )
        };
        let mut rng = SeededRng::new(3);
        Sequential::new("serial")
            .push(depthwise("dw1", &mut rng))
            .push(BatchNorm::new("bn", channels))
            .push(Relu::new())
            .push(depthwise("dw2", &mut rng))
            .push(SwitchableBatchNorm::new("sbn", channels, 1, &RATES))
            .push(Relu::new())
            .push(GlobalAvgPool::new())
    };
    let outcome = assert_invariant(build, VISION, &batches);
    assert_eq!(outcome.joins, 0);
}
