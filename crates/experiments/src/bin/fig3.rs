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

use ms_core::scheduler::SchedulerKind;
use ms_core::slice_rate::{SliceRate, SliceRateList};
use ms_data::synth_images::ImageDataset;
use ms_experiments::{
    eval_accuracy, print_table, test_batches, train_image_model, write_results, ImageSetting,
};
use ms_models::vgg::Vgg;
use ms_tensor::SeededRng;
use serde::Serialize;

#[derive(Serialize)]
struct Fig3Results {
    eval_rates: Vec<f32>,
    /// `(lb, test error % per eval rate)`.
    curves: Vec<(f32, Vec<f64>)>,
}

fn main() {
    let start = std::time::Instant::now();
    let setting = ImageSetting::standard();
    let ds = ImageDataset::generate(setting.dataset.clone());
    let test = test_batches(&ds, 128);

    let lbs = [0.375f32, 0.5, 0.625, 0.75, 0.875, 1.0];
    let eval_rates: Vec<f32> = vec![0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];
    let mut curves = Vec::new();
    for (i, &lb) in lbs.iter().enumerate() {
        eprintln!("[fig3] training with lb={lb}…");
        let mut run_setting = setting.clone();
        run_setting.rates = SliceRateList::with_granularity(lb, 0.125);
        let kind = if run_setting.rates.len() >= 3 {
            SchedulerKind::RandomMinMax
        } else if run_setting.rates.len() == 2 {
            SchedulerKind::Static
        } else {
            SchedulerKind::Fixed(1.0)
        };
        let mut rng = SeededRng::new(700 + i as u64);
        let mut model = Vgg::new(&setting.vgg, &mut rng);
        train_image_model(
            &mut model,
            &ds,
            &run_setting,
            kind,
            800 + i as u64,
            |_, _| {},
        );
        let errors: Vec<f64> = eval_rates
            .iter()
            .map(|&r| 100.0 * (1.0 - eval_accuracy(&mut model, &test, SliceRate::new(r))))
            .collect();
        curves.push((lb, errors));
    }

    let mut headers: Vec<String> = vec!["eval rate".into()];
    headers.extend(lbs.iter().map(|lb| format!("lb={lb}")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut rows = Vec::new();
    for (ri, &er) in eval_rates.iter().enumerate().rev() {
        let mut row = vec![format!("{er:.3}")];
        for (_, errs) in &curves {
            row.push(format!("{:.2}", errs[ri]));
        }
        rows.push(row);
    }
    println!("\nFigure 3 — test error (%) vs eval rate for different lower bounds\n");
    print_table(&header_refs, &rows);
    println!("\n(read column lb=x downward: error explodes once eval rate < lb)");
    println!("elapsed: {:.1}s", start.elapsed().as_secs_f64());

    write_results("fig3", &Fig3Results { eval_rates, curves });
}
