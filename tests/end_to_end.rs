//! Cross-crate integration tests: the full train → slice → serve pipeline.

use modelslicing::data::loader::ImageBatcher;
use modelslicing::data::synth_images::{ImageDataset, ImageDatasetConfig};
use modelslicing::models::vgg::{Vgg, VggConfig};
use modelslicing::prelude::*;
use modelslicing::slicing::inference::ElasticEngine;
use modelslicing::slicing::trainer::Batch;

fn tiny_dataset() -> ImageDataset {
    ImageDataset::generate(ImageDatasetConfig {
        classes: 4,
        channels: 3,
        size: 8,
        train: 240,
        test: 120,
        noise: 0.3,
        distractor: 0.3,
        seed: 5,
    })
}

fn tiny_vgg(rng: &mut SeededRng) -> Vgg {
    Vgg::new(
        &VggConfig {
            in_channels: 3,
            image_size: 8,
            stages: vec![(1, 8), (1, 16)],
            num_classes: 4,
            groups: 4,
            width_multiplier: 1.0,
        },
        rng,
    )
}

fn train(model: &mut dyn Layer, ds: &ImageDataset, epochs: usize, seed: u64) -> Trainer {
    let mut rng = SeededRng::new(seed);
    let rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let scheduler = Scheduler::new(SchedulerKind::Static, rates, &mut rng);
    let mut trainer = Trainer::new(scheduler, TrainerConfig::default());
    let mut batcher = ImageBatcher::new(ds, 32, true, &mut rng);
    for _ in 0..epochs {
        let batches: Vec<Batch> = batcher
            .epoch()
            .into_iter()
            .map(|(x, y)| Batch { x, y })
            .collect();
        trainer.train_epoch(model, &batches);
    }
    trainer
}

fn test_batches(ds: &ImageDataset) -> Vec<Batch> {
    let (x, y) = ds.test_tensor();
    vec![Batch { x, y }]
}

#[test]
fn sliced_cnn_trains_above_chance_at_every_rate() {
    let ds = tiny_dataset();
    let mut rng = SeededRng::new(1);
    let mut model = tiny_vgg(&mut rng);
    let trainer = train(&mut model, &ds, 12, 2);
    let test = test_batches(&ds);
    // Chance is 25 %; every subnet must be clearly above it, and accuracy
    // must not *decrease* dramatically with width.
    let mut accs = Vec::new();
    for &r in &[0.25f32, 0.5, 0.75, 1.0] {
        let (_, acc) = trainer.evaluate(&mut model, &test, SliceRate::new(r));
        assert!(acc > 0.45, "rate {r}: accuracy {acc} barely above chance");
        accs.push(acc);
    }
    assert!(
        accs.last().unwrap() + 0.1 >= accs[0],
        "full width should not be much worse than base: {accs:?}"
    );
}

#[test]
fn budget_solver_never_exceeds_budget_end_to_end() {
    let mut rng = SeededRng::new(3);
    let mut model = tiny_vgg(&mut rng);
    let rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let cost = CostModel::measure(&mut model, rates.clone());
    let engine = ElasticEngine::new(cost);
    let x = Tensor::zeros([2, 3, 8, 8]);
    let full = engine.cost().full_flops();
    for budget in [full, full / 2, full / 4, full / 10, 1] {
        let (logits, used) = engine.predict_with_budget(&mut model, &x, FlopsBudget(budget));
        assert_eq!(logits.dims(), &[2, 4]);
        let spent = engine.cost().flops_at(used);
        // Either within budget, or clamped to the base network (documented
        // starvation behaviour).
        assert!(
            spent <= budget || used == rates.min(),
            "budget {budget}: used rate {used} costing {spent}"
        );
    }
}

#[test]
fn subnet_logits_are_prefix_consistent_without_rescale() {
    // A conv stack (GroupNorm-stabilised, no dense rescale) sliced at rate
    // r must produce *exactly* the first-a-channels activations of the full
    // network at every intermediate layer. We verify the end effect: the
    // sliced forward of the feature extractor equals the full forward's
    // prefix. (The classifier rescales, so we compare pre-classifier.)
    let mut rng = SeededRng::new(4);
    let mut conv = modelslicing::nn::conv2d::Conv2d::new(
        "c",
        modelslicing::nn::conv2d::Conv2dConfig {
            in_ch: 3,
            out_ch: 8,
            kernel: 3,
            stride: 1,
            pad: 1,
            h: 8,
            w: 8,
            in_groups: None,
            out_groups: Some(4),
            bias: false,
        },
        &mut rng,
    );
    let mut gn = modelslicing::nn::norm::GroupNorm::new("g", 8, 4);
    let x = Tensor::from_vec(
        [1, 3, 8, 8],
        (0..192).map(|i| (i as f32 * 0.37).sin()).collect(),
    )
    .unwrap();
    let full = gn.forward(&conv.forward(&x, Mode::Infer), Mode::Infer);
    conv.set_slice_rate(SliceRate::new(0.5));
    gn.set_slice_rate(SliceRate::new(0.5));
    let half = gn.forward(&conv.forward(&x, Mode::Infer), Mode::Infer);
    for c in 0..4 {
        for i in 0..8 {
            for j in 0..8 {
                let a = half.at(&[0, c, i, j]);
                let b = full.at(&[0, c, i, j]);
                assert!((a - b).abs() < 1e-5, "({c},{i},{j}): {a} vs {b}");
            }
        }
    }
}

#[test]
fn trained_weights_survive_rate_switching() {
    // Switching rates must not mutate parameters — only the active-width
    // bookkeeping.
    let mut rng = SeededRng::new(5);
    let mut model = tiny_vgg(&mut rng);
    let mut before = Vec::new();
    model.visit_params(&mut |p| before.push(p.value.clone()));
    for &r in &[0.25f32, 0.75, 0.5, 1.0, 0.25] {
        model.set_slice_rate(SliceRate::new(r));
        let _ = model.forward(&Tensor::zeros([1, 3, 8, 8]), Mode::Infer);
    }
    let mut after = Vec::new();
    model.visit_params(&mut |p| after.push(p.value.clone()));
    assert_eq!(before, after);
}
