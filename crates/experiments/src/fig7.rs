//! Figure 7: learning curves of the sliced subnets vs the full fixed model.
//!
//! Trains (a) a conventional fixed model and (b) a model-slicing model,
//! recording per-epoch test error and test loss of the fixed model and of
//! each subnet. Expected shape (paper Fig. 7): larger subnets' error drops
//! first and smaller subnets follow closely (knowledge-distillation
//! effect); the full subnet's final curve approaches the fixed model.

use crate::{eval_accuracy, eval_nll, Fmt, ImageSetting, ImageTrack, Item, Report, Run, Table};
use ms_core::scheduler::SchedulerKind;
use ms_core::slice_rate::SliceRate;
use ms_models::vgg::Vgg;
use ms_nn::layer::Layer;
use ms_tensor::SeededRng;

/// Runs Figure 7.
pub fn run(run: &Run) -> Report {
    let track = ImageTrack::new(ImageSetting::standard(run));
    let epochs = track.setting.epochs;
    // Test error (%) and loss after every epoch of `model`, at each rate.
    let curves = |model: &mut Vgg, kind: SchedulerKind, seed: u64, rates: &[f32]| {
        let mut curves = vec![(Vec::new(), Vec::new()); rates.len()];
        track.train_with(model, kind, true, seed, |_, net: &mut dyn Layer| {
            for (&r, (err, loss)) in rates.iter().zip(&mut curves) {
                let rate = SliceRate::new(r);
                err.push(100.0 * (1.0 - eval_accuracy(net, &track.test, rate)));
                loss.push(eval_nll(net, &track.test, rate));
            }
        });
        curves
    };

    eprintln!("[fig7] training fixed full model…");
    let mut fixed = Vgg::new(&track.setting.vgg, &mut SeededRng::new(2600));
    let mut all = curves(&mut fixed, SchedulerKind::Fixed(1.0), 2601, &[1.0]);
    eprintln!("[fig7] training sliced model…");
    let mut sliced = Vgg::new(&track.setting.vgg, &mut SeededRng::new(2610));
    let tracked = [1.0f32, 0.75, 0.5, 0.375];
    let kind = SchedulerKind::r_weighted_3(&track.setting.rates);
    all.extend(curves(&mut sliced, kind, 2611, &tracked));

    let names: Vec<String> = std::iter::once("fixed".to_string())
        .chain(tracked.iter().map(|r| format!("sub-{r}")))
        .collect();
    let mut record = Table::new("epoch", (1..=epochs).map(|e| e.to_string()).collect());
    for (name, (err, loss)) in names.iter().zip(&all) {
        record = record
            .col(&format!("{name} err"), Fmt::Dec(2), err.clone())
            .col(&format!("{name} loss"), Fmt::Dec(4), loss.clone());
    }
    // Print every few epochs.
    let shown: Vec<usize> = (0..epochs).step_by((epochs / 10).max(1)).collect();
    let mut table = Table::new("epoch", shown.iter().map(|e| (e + 1).to_string()).collect());
    for (name, (err, _)) in names.iter().zip(&all) {
        table = table.col(
            &format!("{name} err"),
            Fmt::Dec(2),
            shown.iter().map(|&e| err[e]).collect(),
        );
    }
    let mut report = Report::default();
    report.title("Figure 7 — test error (%) learning curves");
    report.table(table);
    report.items.push(Item::Record(
        record.titled("per-epoch test error (%) and loss"),
    ));
    report
}
