//! Cascade ranking with one sliced model (paper §4.2, Table 5).
//!
//! Builds a 4-stage ranking pipeline where every stage is the *same*
//! trained model at an increasing slice rate, and contrasts its aggregate
//! recall with a cascade of independently trained fixed models over the
//! same synthetic items.
//!
//! Run with: `cargo run --release --example cascade_ranking`

use modelslicing::baselines::cascade::cascade_metrics;
use modelslicing::data::synth_images::{ImageDataset, ImageDatasetConfig};
use modelslicing::models::vgg::{Vgg, VggConfig};
use modelslicing::prelude::*;
use modelslicing::slicing::trainer::Batch;

fn batches_from(ds: &ImageDataset) -> (Vec<Batch>, Vec<usize>) {
    let (x, y) = ds.test_tensor();
    (vec![Batch { x, y: y.clone() }], y)
}

fn train(model: &mut dyn Layer, ds: &ImageDataset, kind: SchedulerKind, seed: u64) {
    let mut rng = SeededRng::new(seed);
    let rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let scheduler = Scheduler::new(kind, rates, &mut rng);
    let mut trainer = Trainer::new(scheduler, TrainerConfig::default());
    let mut batcher = modelslicing::data::loader::ImageBatcher::new(ds, 64, true, &mut rng);
    for _ in 0..15 {
        let batches: Vec<Batch> = batcher
            .epoch()
            .into_iter()
            .map(|(x, y)| Batch { x, y })
            .collect();
        trainer.train_epoch(model, &batches);
    }
}

fn predictions(model: &mut dyn Layer, batches: &[Batch], rate: SliceRate) -> Vec<usize> {
    model.set_slice_rate(rate);
    let mut out = Vec::new();
    for b in batches {
        let logits = model.forward(&b.x, Mode::Infer);
        let k = *logits.dims().last().expect("rank");
        for row in 0..b.y.len() {
            out.push(modelslicing::tensor::ops::argmax(
                &logits.data()[row * k..(row + 1) * k],
            ));
        }
    }
    model.set_slice_rate(SliceRate::FULL);
    out
}

fn main() {
    let ds = ImageDataset::generate(ImageDatasetConfig {
        classes: 6,
        channels: 3,
        size: 12,
        train: 600,
        test: 300,
        noise: 0.5,
        distractor: 0.4,
        seed: 3,
    });
    let cfg = VggConfig {
        in_channels: 3,
        image_size: 12,
        stages: vec![(1, 8), (1, 16), (1, 32)],
        num_classes: 6,
        groups: 4,
        width_multiplier: 1.0,
    };
    let (test, labels) = batches_from(&ds);
    let stage_rates = [0.25f32, 0.5, 0.75, 1.0];

    // Pipeline A: one sliced model.
    println!("training the sliced model…");
    let mut rng = SeededRng::new(1);
    let mut sliced = Vgg::new(&cfg, &mut rng);
    train(&mut sliced, &ds, SchedulerKind::RandomMinMax, 2);
    let sliced_preds: Vec<Vec<usize>> = stage_rates
        .iter()
        .map(|&r| predictions(&mut sliced, &test, SliceRate::new(r)))
        .collect();

    // Pipeline B: independently trained fixed models (different seeds).
    let mut fixed_preds = Vec::new();
    for (i, _) in stage_rates.iter().enumerate() {
        println!("training fixed cascade stage {}…", i + 1);
        let mut rng = SeededRng::new(100 + i as u64);
        let mut m = Vgg::new(&cfg, &mut rng);
        train(&mut m, &ds, SchedulerKind::Fixed(1.0), 200 + i as u64);
        fixed_preds.push(predictions(&mut m, &test, SliceRate::FULL));
    }

    println!("\nstage | sliced prec / agg-recall | cascade prec / agg-recall");
    let a = cascade_metrics(&sliced_preds, &labels);
    let b = cascade_metrics(&fixed_preds, &labels);
    for i in 0..stage_rates.len() {
        println!(
            "  {}   |      {:>5.1}% / {:>5.1}%      |      {:>5.1}% / {:>5.1}%",
            i + 1,
            a[i].precision * 100.0,
            a[i].aggregate_recall * 100.0,
            b[i].precision * 100.0,
            b[i].aggregate_recall * 100.0,
        );
    }
    println!(
        "\nthe sliced pipeline loses {:.1} pts of recall across stages; the \
         conventional cascade loses {:.1} pts — consistency is what cascades buy \
         from model slicing.",
        (a[0].aggregate_recall - a.last().unwrap().aggregate_recall) * 100.0,
        (b[0].aggregate_recall - b.last().unwrap().aggregate_recall) * 100.0,
    );
}
