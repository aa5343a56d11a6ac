//! Ablations of the training-scheme design choices (DESIGN.md §5, paper
//! §3.2/§5.1): what each ingredient buys.
//!
//! 1. **Input rescaling** (the dense-layer `full/active` factor): trains the
//!    VGG classifier head with and without it. Without rescaling the logit
//!    scale shrinks with the width, distorting the softmax temperature of
//!    narrow subnets.
//! 2. **Gradient averaging across scheduled subnets** (Algorithm 1 sums;
//!    we default to averaging): sum vs average at the same LR.
//! 3. **Separable (MobileNet-style) vs plain convolutions** under slicing —
//!    the §3.5 multi-branch suitability claim.
//!
//! Each ablation is a full training run; accuracy is reported at every rate.

use ms_core::scheduler::{Scheduler, SchedulerKind};
use ms_core::trainer::{Batch, Trainer, TrainerConfig};
use ms_data::loader::ImageBatcher;
use ms_data::synth_images::ImageDataset;
use ms_experiments::{
    eval_accuracy, pct, print_table, test_batches, train_image_model, write_results, ImageSetting,
};
use ms_models::mobile::{MobileConfig, MobileNetStyle};
use ms_models::vgg::Vgg;
use ms_nn::layer::Layer;
use ms_nn::optim::{LrSchedule, StepSchedule};
use ms_tensor::SeededRng;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct AblationResults {
    rates: Vec<f32>,
    variants: BTreeMap<String, Vec<f64>>,
}

/// Trains with explicit control of gradient averaging (the harness default
/// averages; Algorithm 1 as printed in the paper sums).
fn train_with_averaging(
    model: &mut dyn Layer,
    ds: &ImageDataset,
    setting: &ImageSetting,
    average: bool,
    seed: u64,
) {
    let mut rng = SeededRng::new(seed);
    let scheduler = Scheduler::new(
        SchedulerKind::r_weighted_3(&setting.rates),
        setting.rates.clone(),
        &mut rng,
    );
    let mut trainer = Trainer::new(
        scheduler,
        TrainerConfig {
            sgd: setting.sgd(),
            average_subnet_grads: average,
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
    }
}

fn main() {
    let start = std::time::Instant::now();
    let setting = ImageSetting::standard();
    let ds = ImageDataset::generate(setting.dataset.clone());
    let test = test_batches(&ds, 128);
    let rates: Vec<f32> = setting.rates.rates().to_vec();
    let mut variants: BTreeMap<String, Vec<f64>> = BTreeMap::new();

    let sweep = |m: &mut dyn Layer, test: &[Batch]| -> Vec<f64> {
        setting
            .rates
            .iter()
            .map(|r| eval_accuracy(m, test, r))
            .collect()
    };
    use ms_core::trainer::Batch;

    // (1a) Baseline: rescaled head, averaged gradients.
    eprintln!("[ablation] baseline (rescale on, averaging on)…");
    let mut rng = SeededRng::new(3100);
    let mut baseline = Vgg::new(&setting.vgg, &mut rng);
    train_image_model(
        &mut baseline,
        &ds,
        &setting,
        SchedulerKind::r_weighted_3(&setting.rates),
        3101,
        |_, _| {},
    );
    variants.insert("baseline".into(), sweep(&mut baseline, &test));

    // (1b) No input rescaling on the classifier head: narrow subnets see
    // logits shrunk by their width fraction *during training*, which warps
    // the loss surface the shared features are optimised under.
    eprintln!("[ablation] no head rescaling…");
    let mut rng = SeededRng::new(3200);
    let mut norescale = Vgg::new_with_head_rescale(&setting.vgg, false, &mut rng);
    train_image_model(
        &mut norescale,
        &ds,
        &setting,
        SchedulerKind::r_weighted_3(&setting.rates),
        3201,
        |_, _| {},
    );
    variants.insert("no head rescale".into(), sweep(&mut norescale, &test));

    // (2) Sum vs average gradients across scheduled subnets.
    eprintln!("[ablation] summed gradients (Algorithm 1 literal)…");
    let mut rng = SeededRng::new(3300);
    let mut summed = Vgg::new(&setting.vgg, &mut rng);
    train_with_averaging(&mut summed, &ds, &setting, false, 3301);
    variants.insert("summed grads".into(), sweep(&mut summed, &test));

    // (3) Separable (MobileNet-style) model under slicing.
    eprintln!("[ablation] separable convolutions…");
    let mut rng = SeededRng::new(3400);
    let mut mobile = MobileNetStyle::new(
        &MobileConfig {
            in_channels: 3,
            image_size: 12,
            stages: vec![(1, 8), (1, 16), (2, 32)],
            num_classes: setting.dataset.classes,
            groups: 8,
        },
        &mut rng,
    );
    train_image_model(
        &mut mobile,
        &ds,
        &setting,
        SchedulerKind::r_weighted_3(&setting.rates),
        3401,
        |_, _| {},
    );
    variants.insert("separable convs".into(), sweep(&mut mobile, &test));

    // Report.
    let names: Vec<&String> = variants.keys().collect();
    let mut headers = vec!["rate".to_string()];
    headers.extend(names.iter().map(|n| n.to_string()));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut rows = Vec::new();
    for (ri, r) in rates.iter().enumerate().rev() {
        let mut row = vec![format!("{r:.3}")];
        for n in &names {
            row.push(pct(variants[*n][ri]));
        }
        rows.push(row);
    }
    println!("\nAblations — training-scheme design choices (accuracy %, VGG track)\n");
    print_table(&header_refs, &rows);
    println!("elapsed: {:.1}s", start.elapsed().as_secs_f64());
    write_results("ablation", &AblationResults { rates, variants });
}
