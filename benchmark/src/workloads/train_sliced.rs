//! `train_sliced`: closed loop, one thread, the write side of the kernels.
//!
//! A frozen number of `Trainer::step`s (Algorithm 1, `r_weighted_3` over
//! {0.25, 0.5, 0.75, 1.0}) on the VGG over synthetic images and on the NNLM
//! over synthetic text: `Mode::Train` forwards, backward, transposed GEMMs,
//! optimiser, pool churn. An inference-path gain that costs training shows
//! here and nowhere else.
//!
//! The step count, not the clock, ends the timed section: the scheduler
//! draws a different set of rates each step, so only the same sequence of
//! draws makes two runs do the same work. The counts are frozen from one
//! sizing pass (see README) as steps per second of `--seconds`.

use crate::harness::{repeat_setup, Args, Outcome};
use crate::models::{self, BATCH, CLASSES, GROUPS, SEQ_LEN, VOCAB};
use crate::record::{Loop, Marks, Rec};
use crate::{spans, sys};
use ms_core::cost::CostModel;
use ms_core::scheduler::{Scheduler, SchedulerKind};
use ms_core::slice_rate::{SliceRate, SliceRateList};
use ms_core::trainer::{Batch, Trainer, TrainerConfig};
use ms_data::loader::{ImageBatcher, TextBatcher};
use ms_data::synth_images::{ImageDataset, ImageDatasetConfig};
use ms_data::synth_text::{TextCorpus, TextCorpusConfig};
use ms_models::nnlm::{Nnlm, NnlmConfig};
use ms_nn::layer::Layer;
use ms_nn::optim::SgdConfig;
use ms_tensor::SeededRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Steps per second of `--seconds`, frozen on the reference box so that the
/// timed section lasts about `--seconds` there with both networks finishing
/// together.
pub const VGG_STEPS_PER_S: f64 = 9.5;
pub const NNLM_STEPS_PER_S: f64 = 19.5;

const TRAIN_RATES: [f32; 4] = [0.25, 0.5, 0.75, 1.0];
/// Distinct training batches per network, cycled.
const TRAIN_BATCHES: usize = 48;
const EVAL_BATCHES: usize = 8;
const WARMUP_STEPS: usize = 2;
/// Tail percentile: the highest a tenth of the run (~58 steps) supports
/// with ten samples beyond it.
const TAIL_Q: f64 = 0.75;
/// Fixed: `--seed` drives data only, so the draw sequence never changes.
const SCHEDULER_SEED: u64 = 5;

/// The sets of three of the four rates the scheduler can draw, as bit masks
/// over `TRAIN_RATES`. Steps that drew the same set on the same network do
/// the same work and form one cell.
const RATE_SETS: [u16; 4] = [0b0111, 0b1011, 0b1101, 0b1110];

/// Cell of a step of network `c` (0 the VGG, 1 the NNLM) that trained `rates`.
fn cell(c: usize, rates: impl Iterator<Item = SliceRate>) -> u16 {
    let set = rates.fold(0u16, |set, r| {
        let i = TRAIN_RATES
            .iter()
            .position(|t| SliceRate::new(*t) == r)
            .expect("a scheduled rate");
        set | 1 << i
    });
    (c as u16) << 4 | set
}

/// One network with its trainer and data.
struct Side {
    net: Box<dyn Layer + Send>,
    trainer: Trainer,
    train: Vec<Batch>,
    eval: Vec<Batch>,
    /// Forward multiply-adds per sample at each of `TRAIN_RATES`.
    cost: CostModel,
    per_sample_scale: f64,
    losses: Vec<f64>,
    steps_done: usize,
}

fn batches(pairs: Vec<(ms_tensor::Tensor, Vec<usize>)>, n: usize) -> Vec<Batch> {
    pairs
        .into_iter()
        .take(n)
        .map(|(x, y)| Batch { x, y })
        .collect()
}

fn side(
    mut net: Box<dyn Layer + Send>,
    sgd: SgdConfig,
    train: Vec<Batch>,
    eval: Vec<Batch>,
    scale: f64,
) -> Side {
    let list = SliceRateList::from_rates(&TRAIN_RATES);
    let scheduler = Scheduler::new(
        SchedulerKind::r_weighted_3(&list),
        list.clone(),
        &mut SeededRng::new(SCHEDULER_SEED),
    );
    let cost = CostModel::measure(net.as_mut(), list);
    let mut s = Side {
        net,
        trainer: Trainer::new(
            scheduler,
            TrainerConfig {
                sgd,
                average_subnet_grads: true,
            },
        ),
        train,
        eval,
        cost,
        per_sample_scale: scale,
        losses: Vec::new(),
        steps_done: 0,
    };
    for i in 0..WARMUP_STEPS {
        s.trainer.step(s.net.as_mut(), &s.train[i % s.train.len()]);
    }
    s
}

fn setup(seed: u64) -> [Side; 2] {
    let images = ImageDataset::generate(ImageDatasetConfig {
        classes: CLASSES,
        train: TRAIN_BATCHES * BATCH,
        test: EVAL_BATCHES * BATCH,
        seed,
        ..ImageDatasetConfig::default()
    });
    let mut rng = SeededRng::new(seed);
    let img_train = batches(
        ImageBatcher::new(&images, BATCH, false, &mut rng).epoch(),
        TRAIN_BATCHES,
    );
    let (tx, ty) = images.test_tensor();
    let per = tx.numel() / ty.len();
    let img_eval = ty
        .chunks(BATCH)
        .enumerate()
        .map(|(i, y)| Batch {
            x: ms_tensor::Tensor::from_vec(
                [y.len(), 3, 16, 16],
                tx.data()[i * BATCH * per..(i * BATCH + y.len()) * per].to_vec(),
            )
            .expect("eval batch shape"),
            y: y.to_vec(),
        })
        .collect();
    let window = BATCH * SEQ_LEN;
    let corpus = TextCorpus::generate(TextCorpusConfig {
        vocab: VOCAB,
        train_tokens: (TRAIN_BATCHES + 1) * window + BATCH,
        valid_tokens: (EVAL_BATCHES + 1) * window + BATCH,
        test_tokens: window,
        seed,
        ..TextCorpusConfig::default()
    });
    let txt_train = batches(
        TextBatcher::new(&corpus.train, BATCH, SEQ_LEN).epoch(),
        TRAIN_BATCHES,
    );
    let txt_eval = batches(
        TextBatcher::new(&corpus.valid, BATCH, SEQ_LEN).epoch(),
        EVAL_BATCHES,
    );
    // The experiment crate's settings for the two families.
    let vision = SgdConfig {
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 5e-4,
        clip_norm: Some(5.0),
    };
    let text = SgdConfig {
        lr: 1.0,
        momentum: 0.0,
        weight_decay: 0.0,
        clip_norm: Some(1.0),
    };
    let nnlm = Nnlm::new(&NnlmConfig::scaled(VOCAB, GROUPS), &mut SeededRng::new(43));
    [
        side(Box::new(models::vgg()), vision, img_train, img_eval, 1.0),
        side(Box::new(nnlm), text, txt_train, txt_eval, SEQ_LEN as f64),
    ]
}

pub fn run(args: &Args) -> Outcome {
    let (mut sides, setup_s) = repeat_setup(args.trace, || setup(args.seed));
    let planned = [
        (VGG_STEPS_PER_S * args.seconds).round().max(1.0) as usize,
        (NNLM_STEPS_PER_S * args.seconds).round().max(1.0) as usize,
    ];
    let mut recs = Vec::with_capacity(planned[0] + planned[1]);
    let mut marks = Marks::start(args.seconds, sys::cpu_seconds_self());
    let t0 = Instant::now();
    let mut rate_passes = 0usize;
    while !sys::interrupted() {
        // The side furthest behind its plan goes next, so both finish together.
        let progress = |c: usize| sides[c].steps_done as f64 / planned[c] as f64;
        let c = if progress(0) <= progress(1) { 0 } else { 1 };
        if sides[c].steps_done >= planned[c] {
            break;
        }
        let s = &mut sides[c];
        let batch = &s.train[s.steps_done % s.train.len()];
        let due = t0.elapsed().as_secs_f64();
        let t = Instant::now();
        let stats = {
            let _s = spans::span(
                if c == 0 {
                    "core.train_step_vgg"
                } else {
                    "core.train_step_nnlm"
                },
                recs.len() as u64 + 1,
            );
            s.trainer.step(s.net.as_mut(), batch)
        };
        let lat_ms = t.elapsed().as_secs_f64() * 1e3;
        s.steps_done += 1;
        rate_passes += stats.subnet_losses.len();
        let loss = stats.subnet_losses.iter().map(|(_, l)| l).sum::<f64>()
            / stats.subnet_losses.len() as f64;
        s.losses.push(loss);
        // Forward plus backward is about three forward passes of work.
        let macs: f64 = stats
            .subnet_losses
            .iter()
            .map(|(r, _)| s.cost.flops_at(*r) as f64 * 3.0 * s.per_sample_scale * BATCH as f64)
            .sum();
        recs.push(Rec {
            t: due,
            lat_ms,
            good: loss.is_finite() && stats.grad_norm.is_finite(),
            samples: BATCH as u32,
            macs,
            cell: cell(c, stats.subnet_losses.iter().map(|(r, _)| *r)),
        });
        marks.poll(t0.elapsed().as_secs_f64(), sys::cpu_seconds_self);
    }
    marks.finish(t0.elapsed().as_secs_f64(), sys::cpu_seconds_self());

    let mut errors = Vec::new();
    let mut layer = BTreeMap::new();
    for (s, tag) in sides.iter_mut().zip(["vgg", "nnlm"]) {
        let q = (s.losses.len() / 4).max(1);
        let head = s.losses[..q].iter().sum::<f64>() / q as f64;
        let tail = s.losses[s.losses.len() - q..].iter().sum::<f64>() / q as f64;
        if tail.is_nan() || tail >= head {
            errors.push(format!("{tag}: loss did not fall ({head:.4} → {tail:.4})"));
        }
        let (loss_full, acc_full) = s.trainer.evaluate(s.net.as_mut(), &s.eval, SliceRate::FULL);
        let base = SliceRate::new(TRAIN_RATES[0]);
        let (loss_base, acc_base) = s.trainer.evaluate(s.net.as_mut(), &s.eval, base);
        // The image model is well trained by now, so the wider net must not
        // be the worse one. The language model has barely left its start in
        // these few hundred steps (the thin net still wins on accuracy by
        // guessing the commonest token), so it is only held to having
        // learnt something at both widths: held-out loss below ln(vocab).
        let untrained = (VOCAB as f64).ln();
        let ok = match tag {
            "vgg" => acc_full + 0.02 >= acc_base,
            _ => loss_full < untrained && loss_base < untrained,
        };
        let held_out = format!(
            "held-out loss/accuracy r=1.0 {loss_full:.4}/{acc_full:.4}, r=0.25 {loss_base:.4}/{acc_base:.4}"
        );
        if !ok {
            errors.push(format!("{tag}: {held_out}"));
        }
        eprintln!("train_sliced {tag}: loss {head:.4} → {tail:.4}; {held_out}");
    }
    layer.insert(
        "core.train_rates_per_step",
        rate_passes as f64 / recs.len().max(1) as f64,
    );
    let failed = recs.iter().filter(|r| !r.good).count() as u64 + errors.len() as u64;
    Outcome {
        attempted: recs.len() as u64 + 4,
        failed,
        errors,
        setup_s,
        recs,
        lp: Loop::Closed {
            paths: (0..2)
                .map(|c| RATE_SETS.iter().map(|set| (c as u16) << 4 | set).collect())
                .collect(),
        },
        marks,
        tail_q: TAIL_Q,
        layer,
    }
}

/// The training probe of a traced run: a few steps per network on freshly
/// built sides; returns `(VGG step ms p50, NNLM step ms p50, rates per step)`.
pub fn probe(seed: u64) -> (f64, f64, f64) {
    const STEPS: usize = 12;
    let mut sides = setup(seed);
    let mut passes = 0usize;
    let p50: Vec<f64> = sides
        .iter_mut()
        .map(|s| {
            let ms: Vec<f64> = (0..STEPS)
                .map(|i| {
                    let t = Instant::now();
                    let stats = s.trainer.step(s.net.as_mut(), &s.train[i % s.train.len()]);
                    passes += stats.subnet_losses.len();
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            crate::stats::median(&ms)
        })
        .collect();
    (p50[0], p50[1], passes as f64 / (2 * STEPS) as f64)
}
