//! Figure 3: the impact of the lower bound `lb` on the trained subnets.
//!
//! One model-slicing run per lower bound `lb ∈ {0.375, 0.5, …, 1.0}`
//! (candidate list `lb…1.0` step 1/8), each evaluated at *every* rate from
//! 0.25 to 1.0 — including rates *below* its training lower bound.
//!
//! Expected shape (paper Fig. 3): error rises gently while `r ≥ lb` and
//! jumps catastrophically once `r < lb` (slicing into the base network
//! destroys the base representation); each model is slightly best at its
//! own lower bound.

use crate::{eval_accuracy, Fmt, ImageSetting, ImageTrack, Report, Run, Table};
use ms_core::scheduler::SchedulerKind;
use ms_core::slice_rate::{SliceRate, SliceRateList};
use ms_models::vgg::Vgg;
use ms_tensor::SeededRng;

/// Runs Figure 3.
pub fn run(run: &Run) -> Report {
    let mut track = ImageTrack::new(ImageSetting::standard(run));
    let lbs = [0.375f32, 0.5, 0.625, 0.75, 0.875, 1.0];
    let eval_rates = [1.0f32, 0.875, 0.75, 0.625, 0.5, 0.375, 0.25];
    let rows = eval_rates.iter().map(|er| format!("{er:.3}"));
    let mut table = Table::new("eval rate", rows.collect());
    for (i, &lb) in lbs.iter().enumerate() {
        eprintln!("[fig3] training with lb={lb}…");
        track.setting.rates = SliceRateList::with_granularity(lb, 0.125);
        let kind = match track.setting.rates.len() {
            1 => SchedulerKind::Fixed(1.0),
            2 => SchedulerKind::Static,
            _ => SchedulerKind::RandomMinMax,
        };
        let mut model = Vgg::new(&track.setting.vgg, &mut SeededRng::new(700 + i as u64));
        track.train(&mut model, kind, 800 + i as u64);
        let errors = eval_rates
            .iter()
            .map(|&r| 100.0 * (1.0 - eval_accuracy(&mut model, &track.test, SliceRate::new(r))));
        table = table.col(&format!("lb={lb}"), Fmt::Dec(2), errors.collect());
    }
    let mut report = Report::default();
    report.title("Figure 3 — test error (%) vs eval rate for different lower bounds");
    report.table(table);
    report.line(
        "\n(read column lb=x downward: error explodes once eval rate < lb)",
        vec![],
    );
    report
}
