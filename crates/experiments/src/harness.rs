//! Settings, training recipes and evaluation shared by the experiments.

use ms_core::scheduler::{Scheduler, SchedulerKind};
use ms_core::slice_rate::{SliceRate, SliceRateList};
use ms_core::trainer::{self, Batch, Trainer, TrainerConfig};
use ms_data::loader::{ImageBatcher, TextBatcher};
use ms_data::synth_images::{ImageDataset, ImageDatasetConfig};
use ms_data::synth_text::{TextCorpus, TextCorpusConfig};
use ms_models::vgg::{Vgg, VggConfig};
use ms_nn::layer::{Layer, Network};
use ms_nn::optim::{LrSchedule, Sgd, SgdConfig, StepSchedule};
use ms_nn::slice::{active_groups, active_units};
use ms_tensor::{ops, SeededRng, Tensor};

/// What every experiment is given: the scale to run at.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Smoke-test scale (`MS_QUICK=1`): small datasets and two epochs, so
    /// every experiment finishes in about a second. Reported numbers come
    /// from full runs.
    pub quick: bool,
}

/// Standard experiment scale for the image track. Quick mode cuts both the
/// dataset and the epochs.
#[derive(Debug, Clone)]
pub struct ImageSetting {
    /// Dataset generator config.
    pub dataset: ImageDatasetConfig,
    /// Architecture (VGG track).
    pub vgg: VggConfig,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Base learning rate.
    pub lr: f32,
    /// Candidate slice rates (paper CIFAR list: 0.375…1.0 step 1/8).
    pub rates: SliceRateList,
}

impl ImageSetting {
    /// The default ("CIFAR-10 analogue") setting.
    pub fn standard(run: &Run) -> Self {
        let q = run.quick;
        ImageSetting {
            dataset: ImageDatasetConfig {
                classes: 8,
                channels: 3,
                size: 12,
                train: if q { 160 } else { 1200 },
                test: if q { 80 } else { 400 },
                noise: 0.55,
                distractor: 0.5,
                seed: 7,
            },
            vgg: VggConfig {
                in_channels: 3,
                image_size: 12,
                stages: vec![(1, 8), (1, 16), (2, 32)],
                num_classes: 8,
                groups: 8,
                width_multiplier: 1.0,
            },
            epochs: if q { 2 } else { 45 },
            batch: 64,
            lr: 0.05,
            rates: SliceRateList::paper_cifar(),
        }
    }

    /// SGD settings for the image track (paper §5.3.2 scaled; the global
    /// gradient-norm clip guards the occasional divergent seed at this
    /// small batch scale).
    pub fn sgd(&self) -> SgdConfig {
        SgdConfig {
            lr: self.lr,
            momentum: 0.9,
            weight_decay: 5e-4,
            clip_norm: Some(5.0),
        }
    }
}

/// Standard experiment scale for the language-modelling track.
#[derive(Debug, Clone)]
pub struct TextSetting {
    /// Corpus generator config.
    pub corpus: TextCorpusConfig,
    /// Batch streams.
    pub batch: usize,
    /// BPTT window length.
    pub seq_len: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Base learning rate (plateau-decayed ÷4, §5.2.2 scaled).
    pub lr: f32,
    /// Candidate rates.
    pub rates: SliceRateList,
}

impl TextSetting {
    /// The default ("PTB analogue") setting.
    pub fn standard(run: &Run) -> Self {
        let q = run.quick;
        TextSetting {
            corpus: TextCorpusConfig {
                vocab: 64,
                branching: 4,
                smoothing: 0.15,
                train_tokens: if q { 4_000 } else { 24_000 },
                valid_tokens: if q { 1_000 } else { 4_000 },
                test_tokens: if q { 1_000 } else { 4_000 },
                seed: 11,
            },
            batch: 16,
            seq_len: 16,
            epochs: if q { 2 } else { 12 },
            lr: 1.0,
            rates: SliceRateList::paper_cifar(), // same 0.375…1.0 list as Fig. 4
        }
    }
}

/// Config of a *fixed-width* comparison model matching exactly the channel
/// counts the sliced `base` model activates at `rate` — including the
/// GroupNorm granularity, so the only difference is independent training.
pub fn fixed_vgg_config(base: &VggConfig, rate: SliceRate) -> VggConfig {
    let g_act = base
        .stages
        .iter()
        .map(|&(_, w)| active_groups(w, base.groups, rate))
        .min()
        .unwrap_or(1)
        .max(1);
    VggConfig {
        in_channels: base.in_channels,
        image_size: base.image_size,
        stages: base
            .stages
            .iter()
            .map(|&(n, w)| (n, active_units(w, base.groups, rate)))
            .collect(),
        num_classes: base.num_classes,
        groups: g_act,
        width_multiplier: 1.0,
    }
}

/// Builds the test split as evaluation batches.
pub fn test_batches(ds: &ImageDataset, batch: usize) -> Vec<Batch> {
    let (x, y) = ds.test_tensor();
    let cfg = ds.config();
    let img = ds.image_len();
    let mut out = Vec::new();
    let n = y.len();
    let mut i = 0;
    while i < n {
        let j = (i + batch).min(n);
        let xs = x.data()[i * img..j * img].to_vec();
        out.push(Batch {
            x: Tensor::from_vec([j - i, cfg.channels, cfg.size, cfg.size], xs)
                .expect("batch shape"),
            y: y[i..j].to_vec(),
        });
        i = j;
    }
    out
}

/// The image track of one experiment: its setting, the dataset generated
/// from it, and the test split in batches of 128.
pub struct ImageTrack {
    /// The setting the dataset was generated from.
    pub setting: ImageSetting,
    /// Train and test splits.
    pub ds: ImageDataset,
    /// The test split as evaluation batches.
    pub test: Vec<Batch>,
}

impl ImageTrack {
    /// Generates the dataset of `setting`.
    pub fn new(setting: ImageSetting) -> Self {
        let ds = ImageDataset::generate(setting.dataset.clone());
        let test = test_batches(&ds, 128);
        ImageTrack { setting, ds, test }
    }

    /// Trains `model` with Algorithm 1 under `kind` over the setting's
    /// rates, averaging the scheduled subnets' gradients.
    pub fn train(&self, model: &mut dyn Layer, kind: SchedulerKind, seed: u64) {
        self.train_with(model, kind, true, seed, |_, _| {});
    }

    /// [`ImageTrack::train`], with the subnets' gradients averaged or (as
    /// Algorithm 1 prints it) summed, and `hook(epoch, model)` run after
    /// every epoch (probes, curves).
    pub fn train_with(
        &self,
        model: &mut dyn Layer,
        kind: SchedulerKind,
        average_subnet_grads: bool,
        seed: u64,
        mut hook: impl FnMut(usize, &mut dyn Layer),
    ) {
        let setting = &self.setting;
        let mut rng = SeededRng::new(seed);
        let scheduler = Scheduler::new(kind, setting.rates.clone(), &mut rng);
        let mut trainer = Trainer::new(
            scheduler,
            TrainerConfig {
                sgd: setting.sgd(),
                average_subnet_grads,
            },
        );
        let mut schedule = StepSchedule::cifar(setting.lr, setting.epochs);
        let mut batcher = ImageBatcher::new(&self.ds, setting.batch, true, &mut rng);
        for epoch in 0..setting.epochs {
            trainer.optimizer_mut().set_lr(schedule.lr_for(epoch, None));
            let batches: Vec<Batch> = batcher
                .epoch()
                .into_iter()
                .map(|(x, y)| Batch { x, y })
                .collect();
            trainer.train_epoch(model, &batches);
            hook(epoch, model);
        }
    }

    /// A fixed-width VGG with the channels the sliced VGG activates at
    /// `rate`, initialised from `rng` and trained conventionally.
    pub fn fixed_vgg(&self, rate: SliceRate, rng: &mut SeededRng, seed: u64) -> Vgg {
        let mut model = Vgg::new(&fixed_vgg_config(&self.setting.vgg, rate), rng);
        self.train(&mut model, SchedulerKind::Fixed(1.0), seed);
        model
    }

    /// The setting's VGG, initialised from `rng` and trained with model
    /// slicing under R-weighted-3, the paper's small-dataset reporting
    /// configuration (§5.1.2).
    pub fn sliced_vgg(&self, rng: &mut SeededRng, seed: u64) -> Vgg {
        let mut model = Vgg::new(&self.setting.vgg, rng);
        self.train(
            &mut model,
            SchedulerKind::r_weighted_3(&self.setting.rates),
            seed,
        );
        model
    }

    /// Plain SGD outside Algorithm 1, for baselines with a loss or gradient
    /// surgery of their own: per batch the gradients are zeroed,
    /// `backward(model, x, labels)` accumulates new ones, and SGD steps.
    pub fn train_sgd<M: Layer>(
        &self,
        model: &mut M,
        epochs: usize,
        seed: u64,
        mut backward: impl FnMut(&mut M, &Tensor, &[usize]),
    ) {
        let mut rng = SeededRng::new(seed);
        let mut opt = Sgd::new(self.setting.sgd());
        let mut schedule = StepSchedule::cifar(self.setting.lr, epochs);
        let mut batcher = ImageBatcher::new(&self.ds, self.setting.batch, true, &mut rng);
        for epoch in 0..epochs {
            opt.set_lr(schedule.lr_for(epoch, None));
            for (x, y) in batcher.epoch() {
                model.zero_grads();
                backward(model, &x, &y);
                opt.step(model);
            }
        }
    }
}

/// Predicted class per item of `batches`, in order, with `model` sliced at
/// `rate` (left at full width after).
pub fn eval_predictions(model: &mut dyn Layer, batches: &[Batch], rate: SliceRate) -> Vec<usize> {
    let mut preds = Vec::new();
    trainer::infer_batches(model, batches, rate, |b, logits| {
        let k = *logits.dims().last().expect("rank");
        preds.extend(logits.data().chunks(k).take(b.y.len()).map(ops::argmax));
    });
    preds
}

/// Indices of the wrongly predicted items, ascending (Fig. 8's inclusion
/// coefficients).
pub fn eval_errors(model: &mut dyn Layer, batches: &[Batch], rate: SliceRate) -> Vec<usize> {
    let labels = batches.iter().flat_map(|b| &b.y);
    let preds = eval_predictions(model, batches, rate);
    let items = preds.into_iter().zip(labels).enumerate();
    items
        .filter(|(_, (p, y))| p != *y)
        .map(|(i, _)| i)
        .collect()
}

/// Accuracy of `model` sliced at `rate` over `batches`.
pub fn eval_accuracy(model: &mut dyn Layer, batches: &[Batch], rate: SliceRate) -> f64 {
    let total: usize = batches.iter().map(|b| b.y.len()).sum();
    let wrong = eval_errors(model, batches, rate).len();
    (total - wrong) as f64 / total.max(1) as f64
}

/// Mean NLL (nats per item) of `model` sliced at `rate`.
pub fn eval_nll(model: &mut dyn Layer, batches: &[Batch], rate: SliceRate) -> f64 {
    trainer::evaluate(model, batches, rate).0
}

/// One point of a rate sweep.
#[derive(Debug, Clone, Copy)]
pub struct RatePoint {
    /// Slice rate.
    pub rate: f32,
    /// The swept metric at this rate.
    pub value: f64,
    /// Per-sample MACs at this rate.
    pub flops: u64,
}

/// `metric(model, rate)` and the cost at every rate of `rates`.
pub fn sweep(
    model: &mut dyn Layer,
    rates: &SliceRateList,
    mut metric: impl FnMut(&mut dyn Layer, SliceRate) -> f64,
) -> Vec<RatePoint> {
    rates
        .iter()
        .map(|r| {
            let value = metric(model, r);
            model.set_slice_rate(r);
            let flops = model.flops_per_sample();
            model.set_slice_rate(SliceRate::FULL);
            RatePoint {
                rate: r.get(),
                value,
                flops,
            }
        })
        .collect()
}

/// Trains the NNLM with a given scheduling scheme; plateau LR decay on the
/// validation stream (§5.2.2).
pub fn train_text_model(
    model: &mut dyn Layer,
    corpus: &TextCorpus,
    setting: &TextSetting,
    kind: SchedulerKind,
    seed: u64,
) {
    let mut rng = SeededRng::new(seed);
    let scheduler = Scheduler::new(kind, setting.rates.clone(), &mut rng);
    let mut trainer = Trainer::new(
        scheduler,
        TrainerConfig {
            sgd: SgdConfig {
                lr: setting.lr,
                momentum: 0.0,
                weight_decay: 0.0,
                clip_norm: Some(1.0),
            },
            average_subnet_grads: true,
        },
    );
    let train = text_eval_batches(&corpus.train, setting.batch, setting.seq_len);
    let valid = text_eval_batches(&corpus.valid, setting.batch, setting.seq_len);
    let mut schedule = ms_nn::optim::PlateauSchedule::new(setting.lr, 0.25, 1e-3);
    for _epoch in 0..setting.epochs {
        trainer.train_epoch(model, &train);
        let val_nll = eval_nll(model, &valid, SliceRate::FULL);
        trainer
            .optimizer_mut()
            .set_lr(schedule.lr_for(0, Some(val_nll)));
    }
}

/// Text-track batches: `batch` streams of `seq_len` tokens.
pub fn text_eval_batches(tokens: &[usize], batch: usize, seq_len: usize) -> Vec<Batch> {
    TextBatcher::new(tokens, batch, seq_len)
        .epoch()
        .into_iter()
        .map(|(x, y)| Batch { x, y })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_nn::layer::Mode;

    const QUICK: Run = Run { quick: true };

    fn quick_track(epochs: usize) -> ImageTrack {
        let mut s = ImageSetting::standard(&QUICK);
        s.dataset.train = 64;
        s.dataset.test = 32;
        s.epochs = epochs;
        ImageTrack::new(s)
    }

    #[test]
    fn fixed_vgg_config_matches_sliced_widths() {
        let base = ImageSetting::standard(&QUICK).vgg;
        let cfg = fixed_vgg_config(&base, SliceRate::new(0.375));
        // active_units(8,8,.375)=3, (16,8,.375)=6, (32,8,.375)=12.
        assert_eq!(cfg.stages, vec![(1usize, 3usize), (1, 6), (2, 12)]);
        assert_eq!(cfg.groups, 3); // min active group count across stages
                                   // Full rate reproduces the base.
        let cfg = fixed_vgg_config(&base, SliceRate::FULL);
        assert_eq!(cfg.stages, base.stages);
    }

    #[test]
    fn test_batches_cover_split_exactly_once() {
        let track = quick_track(1);
        let batches = test_batches(&track.ds, 10);
        let total: usize = batches.iter().map(|b| b.y.len()).sum();
        assert_eq!(total, 32);
        assert_eq!(batches.len(), 4); // 10+10+10+2
        assert_eq!(batches[0].x.dims(), &[10, 3, 12, 12]);
    }

    #[test]
    fn train_with_runs_hook_every_epoch() {
        let track = quick_track(3);
        let mut model = Vgg::new(&track.setting.vgg, &mut SeededRng::new(1));
        let mut calls = 0usize;
        track.train_with(&mut model, SchedulerKind::Fixed(1.0), true, 2, |_, _| {
            calls += 1
        });
        assert_eq!(calls, 3);
        // Model left at full width.
        let logits = model.forward(&Tensor::zeros([1, 3, 12, 12]), Mode::Infer);
        assert_eq!(logits.dims(), &[1, 8]);
    }

    #[test]
    fn eval_helpers_agree() {
        let track = quick_track(1);
        let mut model = Vgg::new(&track.setting.vgg, &mut SeededRng::new(3));
        let test = test_batches(&track.ds, 16);
        let r = SliceRate::FULL;
        let acc = eval_accuracy(&mut model, &test, r);
        let wrong = eval_errors(&mut model, &test, r);
        let preds = eval_predictions(&mut model, &test, r);
        let labels: Vec<usize> = test.iter().flat_map(|b| b.y.iter().copied()).collect();
        assert_eq!(preds.len(), labels.len());
        let right = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
        assert_eq!(acc, right as f64 / labels.len() as f64);
        assert_eq!(wrong.len(), labels.len() - right);
        // Errors are sorted unique indices.
        assert!(wrong.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn text_pipeline_shapes() {
        let mut cfg = TextSetting::standard(&QUICK).corpus;
        cfg.train_tokens = 2000;
        cfg.valid_tokens = 600;
        cfg.test_tokens = 600;
        let corpus = TextCorpus::generate(cfg);
        let batches = text_eval_batches(&corpus.test, 4, 8);
        assert!(!batches.is_empty());
        assert_eq!(batches[0].x.dims(), &[4, 8]);
        assert_eq!(batches[0].y.len(), 32);
    }
}
