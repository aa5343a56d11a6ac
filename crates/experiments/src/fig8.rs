//! Figure 8: prediction-consistency heatmaps.
//!
//! Computes the pairwise inclusion coefficient of wrong-prediction sets
//! between (a) independently trained fixed-width models and (b) subnets of
//! one model trained with model slicing. Expected shape (paper Fig. 8):
//! fixed models overlap ≈ 0.6 while sliced subnets overlap 0.75–0.97 and
//! increase toward neighbouring rates — the property that makes the sliced
//! cascade of Table 5 accumulate fewer false negatives.

use crate::{eval_errors, scalar, Fmt, ImageSetting, ImageTrack, Report, Run, Table};
use ms_core::slice_rate::SliceRate;
use ms_data::metrics::inclusion_coefficient;
use ms_tensor::SeededRng;

/// The inclusion-coefficient matrix of `errors` as a table (rates
/// descending), then the mean off-diagonal coefficient, the figure's
/// summary statistic.
fn matrix(report: &mut Report, title: &str, rates: &[String], errors: &[Vec<usize>]) {
    let n = errors.len();
    let mut table = Table::new("rate", rates.to_vec()).titled(title);
    for (j, name) in rates.iter().enumerate() {
        let column = (0..n).map(|i| inclusion_coefficient(&errors[i], &errors[j]));
        table = table.col(name, Fmt::Dec(3), column.collect());
    }
    let mut sum = 0.0;
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            sum += table.columns[j].values[i];
        }
    }
    report.table(table);
    let mean = sum / (n * (n - 1)).max(1) as f64;
    report.line(
        "mean off-diagonal: {}\n",
        vec![scalar("mean_off_diagonal", mean, Fmt::Dec(3))],
    );
}

/// Runs Figure 8.
pub fn run(run: &Run) -> Report {
    let track = ImageTrack::new(ImageSetting::standard(run));
    let mut rates: Vec<SliceRate> = track.setting.rates.iter().collect();
    rates.reverse(); // descending, matching the paper's axes

    // Fixed models.
    let mut fixed_errors = Vec::new();
    for (i, &r) in rates.iter().enumerate() {
        eprintln!("[fig8] training fixed model width {:.3}…", r.get());
        let mut m = track.fixed_vgg(r, &mut SeededRng::new(2700 + i as u64), 2800 + i as u64);
        fixed_errors.push(eval_errors(&mut m, &track.test, SliceRate::FULL));
    }

    // Sliced subnets of one model.
    eprintln!("[fig8] training sliced model…");
    let mut sliced = track.sliced_vgg(&mut SeededRng::new(2900), 2901);
    let sliced_errors: Vec<Vec<usize>> = rates
        .iter()
        .map(|&r| eval_errors(&mut sliced, &track.test, r))
        .collect();

    let names: Vec<String> = rates.iter().map(|r| format!("{:.3}", r.get())).collect();
    let mut report = Report::default();
    report.title("Figure 8 — inclusion coefficient of wrong-prediction sets");
    matrix(
        &mut report,
        "(a) independently trained fixed models",
        &names,
        &fixed_errors,
    );
    matrix(
        &mut report,
        "(b) subnets of one model-slicing model",
        &names,
        &sliced_errors,
    );
    report
}
