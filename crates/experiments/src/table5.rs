//! Table 5: cascade-ranking simulation.
//!
//! Six stages of increasing width (0.375 → 1.0). Two pipelines over the
//! same test items:
//! - **Cascade model** — six independently trained fixed-width models;
//! - **Model slicing** — one sliced model evaluated at the six rates.
//!
//! An item survives a stage only if its prediction agrees with the previous
//! stage's; the aggregate recall counts items correct at *every* stage.
//! Expected shape (paper Table 5): the sliced pipeline's aggregate recall
//! degrades far more slowly (its subnets share representation, so their
//! predictions are consistent — Fig. 8), and it stores one model's
//! parameters instead of six.

use crate::{eval_predictions, scalar, Fmt, ImageSetting, ImageTrack, Report, Run, Table};
use ms_baselines::cascade::cascade_metrics;
use ms_core::slice_rate::SliceRate;
use ms_nn::layer::{Layer, Network};
use ms_tensor::SeededRng;

/// Runs Table 5.
pub fn run(run: &Run) -> Report {
    let track = ImageTrack::new(ImageSetting::standard(run));
    let labels: Vec<usize> = track
        .test
        .iter()
        .flat_map(|b| b.y.iter().copied())
        .collect();
    let rates: Vec<SliceRate> = track.setting.rates.iter().collect(); // ascending: stage order

    // Conventional cascade: one fixed model per stage.
    let mut cascade_preds = Vec::new();
    let mut stage_params = Vec::new();
    let mut stage_flops = Vec::new();
    for (i, &r) in rates.iter().enumerate() {
        eprintln!(
            "[table5] training cascade stage {} (width {:.3})…",
            i + 1,
            r.get()
        );
        let mut m = track.fixed_vgg(r, &mut SeededRng::new(2000 + i as u64), 2100 + i as u64);
        stage_params.push(m.full_param_count() as f64);
        stage_flops.push(m.flops_per_sample() as f64);
        cascade_preds.push(eval_predictions(&mut m, &track.test, SliceRate::FULL));
    }
    let cascade = cascade_metrics(&cascade_preds, &labels);

    // Model slicing: one model, six rates.
    eprintln!("[table5] training sliced model…");
    let mut sliced = track.sliced_vgg(&mut SeededRng::new(2200), 2201);
    let slicing_preds: Vec<Vec<usize>> = rates
        .iter()
        .map(|&r| eval_predictions(&mut sliced, &track.test, r))
        .collect();
    let slicing = cascade_metrics(&slicing_preds, &labels);

    let cascade_params = stage_params.iter().sum::<f64>();
    let table = Table::new("stage", (1..=rates.len()).map(|s| s.to_string()).collect())
        .col(
            "width",
            Fmt::Dec(3),
            rates.iter().map(|r| r.get() as f64).collect(),
        )
        .col("params", Fmt::Params, stage_params)
        .col("FLOPs", Fmt::Flops, stage_flops)
        .col(
            "casc prec",
            Fmt::Pct,
            cascade.iter().map(|m| m.precision).collect(),
        )
        .col(
            "casc agg-recall",
            Fmt::Pct,
            cascade.iter().map(|m| m.aggregate_recall).collect(),
        )
        .col(
            "slice prec",
            Fmt::Pct,
            slicing.iter().map(|m| m.precision).collect(),
        )
        .col(
            "slice agg-recall",
            Fmt::Pct,
            slicing.iter().map(|m| m.aggregate_recall).collect(),
        );
    let mut report = Report::default();
    report.title("Table 5 — cascade ranking: conventional cascade vs model slicing");
    report.table(table);
    report.line(
        "\nstorage: cascade {} params total vs sliced single model {} params",
        vec![
            scalar("cascade_params", cascade_params, Fmt::Params),
            scalar(
                "sliced_params",
                sliced.full_param_count() as f64,
                Fmt::Params,
            ),
        ],
    );
    report
}
