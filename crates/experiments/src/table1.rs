//! Table 1: slice-rate scheduling-scheme ablation.
//!
//! Trains the VGG analogue once per scheme over the 4-rate list
//! `(0.25, 0.5, 0.75, 1.0)` and reports accuracy at each rate:
//! Fixed (ensemble of independently trained models), R-uniform-2,
//! R-weighted-2, R-weighted-3, Static, R-min, R-max, R-min-max, and
//! Slimmable (static scheduling + switchable batch-norm).
//!
//! Expected shape (paper Table 1): weighted random ≥ uniform; static worst
//! of the random family at small rates; R-min/R-max lift their anchored
//! subnet; Slimmable strong at large rates, weaker at the base rate.

use crate::{eval_accuracy, Fmt, ImageSetting, ImageTrack, Report, Run, Table};
use ms_baselines::slimmable::SlimmableVgg;
use ms_core::scheduler::SchedulerKind;
use ms_core::slice_rate::{SliceRate, SliceRateList};
use ms_models::vgg::Vgg;
use ms_tensor::SeededRng;

/// Runs Table 1.
pub fn run(run: &Run) -> Report {
    let mut setting = ImageSetting::standard(run);
    // Table 1 uses the coarser 4-rate list.
    setting.rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let track = ImageTrack::new(setting);
    let rates = &track.setting.rates;
    let mut rates_desc: Vec<SliceRate> = rates.iter().collect();
    rates_desc.reverse();
    let mut table = Table::new(
        "rate",
        rates_desc
            .iter()
            .map(|r| format!("{:.2}", r.get()))
            .collect(),
    );

    // Fixed: one independently trained model per rate.
    eprintln!("[table1] fixed models…");
    let fixed = rates_desc.iter().enumerate().map(|(i, &r)| {
        let mut model = track.fixed_vgg(r, &mut SeededRng::new(200 + i as u64), 300 + i as u64);
        eval_accuracy(&mut model, &track.test, SliceRate::FULL)
    });
    table = table.col("Fixed", Fmt::Pct, fixed.collect());

    // Random / static / random-static schemes, one sliced run each.
    let g = rates.len();
    let mut w2 = vec![0.25 / (g - 2) as f64; g];
    w2[0] = 0.25;
    w2[g - 1] = 0.5;
    let schemes: Vec<(&str, SchedulerKind)> = vec![
        ("R-uniform-2", SchedulerKind::RandomUniform { k: 2 }),
        (
            "R-weighted-2",
            SchedulerKind::RandomWeighted {
                weights: w2.clone(),
                k: 2,
            },
        ),
        (
            "R-weighted-3",
            SchedulerKind::RandomWeighted { weights: w2, k: 3 },
        ),
        ("Static", SchedulerKind::Static),
        ("R-min", SchedulerKind::RandomMin),
        ("R-max", SchedulerKind::RandomMax),
        ("R-min-max", SchedulerKind::RandomMinMax),
    ];
    for (si, (name, kind)) in schemes.into_iter().enumerate() {
        eprintln!("[table1] {name}…");
        let mut model = Vgg::new(&track.setting.vgg, &mut SeededRng::new(400 + si as u64));
        track.train(&mut model, kind, 500 + si as u64);
        let accs = rates_desc
            .iter()
            .map(|&r| eval_accuracy(&mut model, &track.test, r));
        table = table.col(name, Fmt::Pct, accs.collect());
    }

    // SlimmableNet: static scheduling + switchable BN.
    eprintln!("[table1] Slimmable…");
    let mut slim = SlimmableVgg::new(&track.setting.vgg, rates.rates(), &mut SeededRng::new(600));
    track.train(&mut slim, SchedulerKind::Static, 601);
    let accs = rates_desc
        .iter()
        .map(|&r| eval_accuracy(&mut slim, &track.test, r));
    table = table.col("Slimmable", Fmt::Pct, accs.collect());

    let mut report = Report::default();
    report.title("Table 1 — scheduling-scheme ablation (VGG, synthetic CIFAR)");
    report.table(table);
    report
}
