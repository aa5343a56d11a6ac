//! Figure 5 + Table 4: accuracy vs inference FLOPs for the VGG family.
//!
//! Reproduces, on the synthetic CIFAR analogue:
//! - `VGG-lb-1.0` — conventionally trained, then *direct slicing*: collapses
//!   as soon as channels are removed (the Table-4 top row / Fig-5 "Direct
//!   Slicing" curve).
//! - `VGG-fixed-models` — an ensemble of independently trained fixed-width
//!   models, one per rate (the strong baseline).
//! - `VGG-lb-0.375` — one model trained with model slicing, evaluated at
//!   every rate (the paper's method).
//!
//! Expected shape (paper Table 4): the sliced model tracks the fixed-model
//! ensemble within noise across rates — sometimes beating it near full
//! width — while the conventionally trained model collapses toward chance.

use crate::{
    eval_accuracy, scalar, sweep, Fmt, ImageSetting, ImageTrack, RatePoint, Report, Run, Table,
};
use ms_baselines::ensemble::FixedEnsemble;
use ms_core::slice_rate::SliceRate;
use ms_nn::layer::Network;
use ms_tensor::SeededRng;

/// Runs Figure 5 / Table 4.
pub fn run(run: &Run) -> Report {
    let track = ImageTrack::new(ImageSetting::standard(run));
    let rates = &track.setting.rates;
    let test = &track.test;
    let mut rng = SeededRng::new(100);

    // (1) Conventional training, then direct slicing (lb = 1.0).
    eprintln!("[fig5] training conventional model (lb=1.0)…");
    let mut conventional = track.fixed_vgg(SliceRate::FULL, &mut rng, 1);
    let direct: Vec<f64> = rates
        .iter()
        .map(|r| eval_accuracy(&mut conventional, test, r))
        .collect();

    // (2) Fixed-width ensemble: one conventional model per rate.
    let mut fixed_acc = Vec::with_capacity(rates.len());
    let mut ensemble = FixedEnsemble::new();
    for (i, r) in rates.iter().enumerate() {
        eprintln!("[fig5] training fixed model width {:.3}…", r.get());
        let mut model = track.fixed_vgg(r, &mut rng, 10 + i as u64);
        fixed_acc.push(eval_accuracy(&mut model, test, SliceRate::FULL));
        ensemble.add(format!("width-{:.3}", r.get()), Box::new(model));
    }

    // (3) Model slicing: one run, R-weighted-3 scheduling.
    eprintln!("[fig5] training model-slicing model (lb=0.375)…");
    let mut sliced = track.sliced_vgg(&mut rng, 2);
    let points = sweep(&mut sliced, rates, |m, r| eval_accuracy(m, test, r));

    // Report, descending rates.
    let full_flops = points.last().expect("nonempty").flops as f64;
    let of = |f: fn(&RatePoint) -> f64| points.iter().map(f).collect();
    let rows = points.iter().map(|p| format!("{:.4}", p.rate));
    let ct = points.iter().map(|p| 100.0 * p.flops as f64 / full_flops);
    let table = Table::new("slice rate", rows.collect())
        .col("Ct (%)", Fmt::Dec(2), ct.collect())
        .col("FLOPs", Fmt::Flops, of(|p| p.flops as f64))
        .col("lb-1.0 (direct)", Fmt::Pct, direct)
        .col("fixed-models", Fmt::Pct, fixed_acc)
        .col("model slicing", Fmt::Pct, of(|p| p.value))
        .rev();
    let mut report = Report::default();
    report.title("Figure 5 / Table 4 — accuracy vs inference cost (VGG, synthetic CIFAR)");
    report.table(table);
    report.line(
        "\nDeployment storage: fixed ensemble {} params vs one sliced model {} params",
        vec![
            scalar(
                "fixed_ensemble_params",
                ensemble.total_params() as f64,
                Fmt::Params,
            ),
            scalar(
                "sliced_params",
                sliced.full_param_count() as f64,
                Fmt::Params,
            ),
        ],
    );
    report
}
