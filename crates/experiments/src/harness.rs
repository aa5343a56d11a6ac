//! Shared training/evaluation harness for the experiment binaries.

use ms_core::scheduler::{Scheduler, SchedulerKind};
use ms_core::slice_rate::{SliceRate, SliceRateList};
use ms_core::trainer::{Batch, Trainer, TrainerConfig};
use ms_data::loader::{ImageBatcher, TextBatcher};
use ms_data::synth_images::{ImageDataset, ImageDatasetConfig};
use ms_data::synth_text::{TextCorpus, TextCorpusConfig};
use ms_models::vgg::VggConfig;
use ms_nn::layer::{Layer, Mode};
use ms_nn::loss::CrossEntropy;
use ms_nn::optim::{LrSchedule, SgdConfig, StepSchedule};
use ms_nn::slice::{active_groups, active_units};
use ms_tensor::{ops, SeededRng, Tensor};
use serde::Serialize;

/// Whether `MS_QUICK=1` smoke-test mode is active.
pub fn quick() -> bool {
    std::env::var("MS_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// Standard experiment scale for the image track. Quick mode cuts both the
/// dataset and the epochs so every binary finishes in seconds.
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
    pub fn standard() -> Self {
        let q = quick();
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
    pub fn standard() -> Self {
        let q = quick();
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

/// One point of a rate sweep.
#[derive(Debug, Clone, Serialize)]
pub struct RatePoint {
    /// Slice rate.
    pub rate: f32,
    /// Test accuracy (image track) — or `None` for text.
    pub accuracy: Option<f64>,
    /// Test perplexity (text track) — or `None` for images.
    pub perplexity: Option<f64>,
    /// Per-sample MACs at this rate.
    pub flops: u64,
    /// Active parameters at this rate.
    pub params: u64,
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

/// Trains an image model with a given scheduling scheme (Algorithm 1).
/// `epoch_hook(epoch, model)` runs after every epoch (probes, curves).
pub fn train_image_model(
    model: &mut dyn Layer,
    ds: &ImageDataset,
    setting: &ImageSetting,
    kind: SchedulerKind,
    seed: u64,
    mut epoch_hook: impl FnMut(usize, &mut dyn Layer),
) {
    let mut rng = SeededRng::new(seed);
    let scheduler = Scheduler::new(kind, setting.rates.clone(), &mut rng);
    let mut trainer = Trainer::new(
        scheduler,
        TrainerConfig {
            sgd: setting.sgd(),
            average_subnet_grads: true,
        },
    );
    let mut schedule = StepSchedule::cifar(setting.lr, setting.epochs);
    let mut batcher = ImageBatcher::new(ds, setting.batch, true, &mut rng);
    for epoch in 0..setting.epochs {
        trainer.optimizer_mut().set_lr(schedule.lr_for(epoch, None));
        let batches: Vec<Batch> = batcher
            .epoch()
            .into_iter()
            .map(|(x, y)| Batch { x, y })
            .collect();
        trainer.train_epoch(model, &batches);
        epoch_hook(epoch, model);
    }
}

/// Accuracy of `model` sliced at `rate` over evaluation batches.
pub fn eval_accuracy(model: &mut dyn Layer, batches: &[Batch], rate: SliceRate) -> f64 {
    model.set_slice_rate(rate);
    let mut correct = 0usize;
    let mut total = 0usize;
    for b in batches {
        let logits = model.forward(&b.x, Mode::Infer);
        let k = *logits.dims().last().expect("rank");
        for (row, &t) in b.y.iter().enumerate() {
            if ops::argmax(&logits.data()[row * k..(row + 1) * k]) == t {
                correct += 1;
            }
        }
        total += b.y.len();
    }
    model.set_slice_rate(SliceRate::FULL);
    correct as f64 / total.max(1) as f64
}

/// Error indices (for the Fig-8 inclusion coefficients), sorted ascending.
pub fn eval_errors(model: &mut dyn Layer, batches: &[Batch], rate: SliceRate) -> Vec<usize> {
    model.set_slice_rate(rate);
    let mut wrong = Vec::new();
    let mut offset = 0usize;
    for b in batches {
        let logits = model.forward(&b.x, Mode::Infer);
        let k = *logits.dims().last().expect("rank");
        for (row, &t) in b.y.iter().enumerate() {
            if ops::argmax(&logits.data()[row * k..(row + 1) * k]) != t {
                wrong.push(offset + row);
            }
        }
        offset += b.y.len();
    }
    model.set_slice_rate(SliceRate::FULL);
    wrong
}

/// Predictions per item (for the Table-5 cascade), in batch order.
pub fn eval_predictions(model: &mut dyn Layer, batches: &[Batch], rate: SliceRate) -> Vec<usize> {
    model.set_slice_rate(rate);
    let mut preds = Vec::new();
    for b in batches {
        let logits = model.forward(&b.x, Mode::Infer);
        let k = *logits.dims().last().expect("rank");
        for row in 0..b.y.len() {
            preds.push(ops::argmax(&logits.data()[row * k..(row + 1) * k]));
        }
    }
    model.set_slice_rate(SliceRate::FULL);
    preds
}

/// Full rate sweep: accuracy + measured cost at every candidate rate.
pub fn accuracy_sweep(
    model: &mut dyn Layer,
    batches: &[Batch],
    rates: &SliceRateList,
) -> Vec<RatePoint> {
    let mut out = Vec::with_capacity(rates.len());
    for r in rates.iter() {
        let accuracy = eval_accuracy(model, batches, r);
        model.set_slice_rate(r);
        let flops = model.flops_per_sample();
        let params = model.active_param_count();
        model.set_slice_rate(SliceRate::FULL);
        out.push(RatePoint {
            rate: r.get(),
            accuracy: Some(accuracy),
            perplexity: None,
            flops,
            params,
        });
    }
    out
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
    let train = TextBatcher::new(&corpus.train, setting.batch, setting.seq_len);
    let valid = TextBatcher::new(&corpus.valid, setting.batch, setting.seq_len);
    let valid_batches: Vec<Batch> = valid
        .epoch()
        .into_iter()
        .map(|(x, y)| Batch { x, y })
        .collect();
    let mut schedule = ms_nn::optim::PlateauSchedule::new(setting.lr, 0.25, 1e-3);
    for _epoch in 0..setting.epochs {
        let batches: Vec<Batch> = train
            .epoch()
            .into_iter()
            .map(|(x, y)| Batch { x, y })
            .collect();
        trainer.train_epoch(model, &batches);
        let val_nll = eval_nll(model, &valid_batches, SliceRate::FULL);
        trainer
            .optimizer_mut()
            .set_lr(schedule.lr_for(0, Some(val_nll)));
    }
}

/// Mean NLL (nats/token) of `model` sliced at `rate`.
pub fn eval_nll(model: &mut dyn Layer, batches: &[Batch], rate: SliceRate) -> f64 {
    model.set_slice_rate(rate);
    let mut nll = 0.0f64;
    let mut total = 0usize;
    for b in batches {
        let logits = model.forward(&b.x, Mode::Infer);
        nll += CrossEntropy.loss_only(&logits, &b.y) * b.y.len() as f64;
        total += b.y.len();
    }
    model.set_slice_rate(SliceRate::FULL);
    nll / total.max(1) as f64
}

/// Perplexity sweep over the candidate rates (Fig. 4 / Table 2).
pub fn perplexity_sweep(
    model: &mut dyn Layer,
    batches: &[Batch],
    rates: &SliceRateList,
) -> Vec<RatePoint> {
    let mut out = Vec::with_capacity(rates.len());
    for r in rates.iter() {
        let ppl = eval_nll(model, batches, r).exp();
        model.set_slice_rate(r);
        let flops = model.flops_per_sample();
        let params = model.active_param_count();
        model.set_slice_rate(SliceRate::FULL);
        out.push(RatePoint {
            rate: r.get(),
            accuracy: None,
            perplexity: Some(ppl),
            flops,
            params,
        });
    }
    out
}

/// Text-track evaluation batches.
pub fn text_eval_batches(tokens: &[usize], batch: usize, seq_len: usize) -> Vec<Batch> {
    TextBatcher::new(tokens, batch, seq_len)
        .epoch()
        .into_iter()
        .map(|(x, y)| Batch { x, y })
        .collect()
}

/// Starts the periodic telemetry flusher for an experiment binary: the
/// global registry (trainer iteration metrics, engine counters, pool
/// hit/miss, spans when compiled) is dumped to
/// `results/logs/<name>.{prom,json}` every second and once more when the
/// returned [`ms_telemetry::Flusher`] is dropped — so even a run killed
/// mid-training leaves a fresh snapshot behind. Returns `None` on
/// read-only checkouts, where printing is the only output anyway.
pub fn telemetry_flusher(name: &str) -> Option<ms_telemetry::Flusher> {
    ms_telemetry::Flusher::start("results/logs", name, std::time::Duration::from_secs(1)).ok()
}

/// Writes a JSON results file under `results/` (created on demand), so runs
/// are machine-readable as well as printed.
pub fn write_results<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return; // read-only checkout: printing is enough
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warn: could not write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warn: could not serialise {name}: {e}"),
    }
}

/// Manual Fixed-width training loop with per-step hooks, used by the
/// Network-Slimming baseline (L1-on-γ during training, prune-mask
/// enforcement during fine-tuning). `pre_step` runs after the backward pass
/// (gradients populated) and `post_step` after the optimiser update.
pub fn train_image_manual(
    model: &mut dyn Layer,
    ds: &ImageDataset,
    setting: &ImageSetting,
    epochs: usize,
    seed: u64,
    mut pre_step: impl FnMut(&mut dyn Layer),
    mut post_step: impl FnMut(&mut dyn Layer),
) {
    use ms_nn::layer::Network;
    let mut rng = SeededRng::new(seed);
    let mut opt = ms_nn::optim::Sgd::new(setting.sgd());
    let mut schedule = StepSchedule::cifar(setting.lr, epochs);
    let mut batcher = ImageBatcher::new(ds, setting.batch, true, &mut rng);
    let criterion = CrossEntropy;
    for epoch in 0..epochs {
        opt.set_lr(schedule.lr_for(epoch, None));
        for (x, y) in batcher.epoch() {
            model.zero_grads();
            let logits = model.forward(&x, Mode::Train);
            let (_, dlogits) = criterion.forward(&logits, &y);
            let _ = model.backward(&dlogits);
            pre_step(model);
            opt.step(model);
            post_step(model);
        }
    }
}

/// Joint training of the multi-classifier (early-exit) baseline: summed
/// cross-entropy over every exit per batch.
pub fn train_multi_classifier(
    model: &mut ms_models::multi_classifier::MultiClassifierNet,
    ds: &ImageDataset,
    setting: &ImageSetting,
    seed: u64,
) {
    use ms_nn::layer::Network;
    let mut rng = SeededRng::new(seed);
    let mut opt = ms_nn::optim::Sgd::new(setting.sgd());
    let mut schedule = StepSchedule::cifar(setting.lr, setting.epochs);
    let mut batcher = ImageBatcher::new(ds, setting.batch, true, &mut rng);
    let criterion = CrossEntropy;
    let exits = model.num_exits();
    for epoch in 0..setting.epochs {
        opt.set_lr(schedule.lr_for(epoch, None));
        for (x, y) in batcher.epoch() {
            model.zero_grads();
            let outs = model.forward_exits(&x, Mode::Train);
            let grads: Vec<Tensor> = outs
                .iter()
                .map(|logits| {
                    let (_, mut g) = criterion.forward(logits, &y);
                    // Equal loss weights, averaged over exits.
                    g.scale(1.0 / exits as f32);
                    g
                })
                .collect();
            model.backward_exits(&grads);
            opt.step(model);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_models::vgg::Vgg;
    use ms_nn::layer::Layer;

    fn quick_setting() -> ImageSetting {
        let mut s = ImageSetting::standard();
        s.dataset.train = 64;
        s.dataset.test = 32;
        s.epochs = 1;
        s
    }

    #[test]
    fn fixed_vgg_config_matches_sliced_widths() {
        let base = VggConfig {
            in_channels: 3,
            image_size: 12,
            stages: vec![(1, 8), (1, 16), (2, 32)],
            num_classes: 8,
            groups: 8,
            width_multiplier: 1.0,
        };
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
        let setting = quick_setting();
        let ds = ImageDataset::generate(setting.dataset.clone());
        let batches = test_batches(&ds, 10);
        let total: usize = batches.iter().map(|b| b.y.len()).sum();
        assert_eq!(total, 32);
        assert_eq!(batches.len(), 4); // 10+10+10+2
        assert_eq!(batches[0].x.dims(), &[10, 3, 12, 12]);
    }

    #[test]
    fn train_image_model_runs_hook_every_epoch() {
        let mut setting = quick_setting();
        setting.epochs = 3;
        let ds = ImageDataset::generate(setting.dataset.clone());
        let mut rng = SeededRng::new(1);
        let mut model = Vgg::new(&setting.vgg, &mut rng);
        let mut calls = 0usize;
        train_image_model(
            &mut model,
            &ds,
            &setting,
            SchedulerKind::Fixed(1.0),
            2,
            |_, _| calls += 1,
        );
        assert_eq!(calls, 3);
        // Model left at full width.
        assert_eq!(
            model
                .forward(&Tensor::zeros([1, 3, 12, 12]), Mode::Infer)
                .dims(),
            &[1, 8]
        );
    }

    #[test]
    fn eval_helpers_agree() {
        let setting = quick_setting();
        let ds = ImageDataset::generate(setting.dataset.clone());
        let mut rng = SeededRng::new(3);
        let mut model = Vgg::new(&setting.vgg, &mut rng);
        let test = test_batches(&ds, 16);
        let r = SliceRate::FULL;
        let acc = eval_accuracy(&mut model, &test, r);
        let wrong = eval_errors(&mut model, &test, r);
        let preds = eval_predictions(&mut model, &test, r);
        let labels: Vec<usize> = test.iter().flat_map(|b| b.y.iter().copied()).collect();
        assert_eq!(preds.len(), labels.len());
        let acc_from_preds =
            preds.iter().zip(&labels).filter(|(p, l)| p == l).count() as f64 / labels.len() as f64;
        assert!((acc - acc_from_preds).abs() < 1e-12);
        assert_eq!(
            wrong.len(),
            labels.len() - (acc * labels.len() as f64).round() as usize
        );
        // Errors are sorted unique indices.
        assert!(wrong.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn text_pipeline_shapes() {
        let setting = TextSetting::standard();
        let mut cfg = setting.corpus.clone();
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
