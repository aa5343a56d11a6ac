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

use crate::{eval_accuracy, Fmt, ImageSetting, ImageTrack, Report, Run, Table};
use ms_core::scheduler::SchedulerKind;
use ms_models::mobile::{MobileConfig, MobileNetStyle};
use ms_models::vgg::Vgg;
use ms_nn::layer::Layer;
use ms_tensor::SeededRng;

/// Runs the ablations.
pub fn run(run: &Run) -> Report {
    let track = ImageTrack::new(ImageSetting::standard(run));
    let setting = &track.setting;
    let sliced = || SchedulerKind::r_weighted_3(&setting.rates);
    let accuracies = |m: &mut dyn Layer| -> Vec<f64> {
        let rates = setting.rates.iter();
        rates.map(|r| eval_accuracy(m, &track.test, r)).collect()
    };
    let rows = setting.rates.rates().iter().map(|r| format!("{r:.3}"));
    let mut table = Table::new("rate", rows.collect());

    // (1a) Baseline: rescaled head, averaged gradients.
    eprintln!("[ablation] baseline (rescale on, averaging on)…");
    let mut baseline = track.sliced_vgg(&mut SeededRng::new(3100), 3101);
    table = table.col("baseline", Fmt::Pct, accuracies(&mut baseline));

    // (1b) No input rescaling on the classifier head: narrow subnets see
    // logits shrunk by their width fraction *during training*, which warps
    // the loss surface the shared features are optimised under.
    eprintln!("[ablation] no head rescaling…");
    let mut norescale = Vgg::new_with_head_rescale(&setting.vgg, false, &mut SeededRng::new(3200));
    track.train(&mut norescale, sliced(), 3201);
    table = table.col("no head rescale", Fmt::Pct, accuracies(&mut norescale));

    // (3) Separable (MobileNet-style) model under slicing.
    eprintln!("[ablation] separable convolutions…");
    let mut mobile = MobileNetStyle::new(
        &MobileConfig {
            in_channels: 3,
            image_size: 12,
            stages: vec![(1, 8), (1, 16), (2, 32)],
            num_classes: setting.dataset.classes,
            groups: 8,
        },
        &mut SeededRng::new(3400),
    );
    track.train(&mut mobile, sliced(), 3401);
    table = table.col("separable convs", Fmt::Pct, accuracies(&mut mobile));

    // (2) Sum vs average gradients across scheduled subnets.
    eprintln!("[ablation] summed gradients (Algorithm 1 literal)…");
    let mut summed = Vgg::new(&setting.vgg, &mut SeededRng::new(3300));
    track.train_with(&mut summed, sliced(), false, 3301, |_, _| {});
    table = table.col("summed grads", Fmt::Pct, accuracies(&mut summed));

    let mut report = Report::default();
    // Rates descending, as in the paper.
    let table = table.rev();
    report.title("Ablations — training-scheme design choices (accuracy %, VGG track)");
    report.table(table);
    report
}
