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

use ms_baselines::cascade::cascade_metrics;
use ms_core::scheduler::SchedulerKind;
use ms_core::slice_rate::SliceRate;
use ms_data::synth_images::ImageDataset;
use ms_experiments::{
    eval_predictions, fixed_vgg_config, pct, print_table, test_batches, train_image_model,
    write_results, ImageSetting,
};
use ms_models::vgg::Vgg;
use ms_nn::layer::{Layer, Network};
use ms_tensor::SeededRng;
use serde::Serialize;

#[derive(Serialize)]
struct Table5Results {
    rates: Vec<f32>,
    stage_params: Vec<u64>,
    stage_flops: Vec<u64>,
    cascade_precision: Vec<f64>,
    cascade_recall: Vec<f64>,
    slicing_precision: Vec<f64>,
    slicing_recall: Vec<f64>,
    cascade_total_params: u64,
    slicing_total_params: u64,
}

fn main() {
    let start = std::time::Instant::now();
    let setting = ImageSetting::standard();
    let ds = ImageDataset::generate(setting.dataset.clone());
    let test = test_batches(&ds, 128);
    let labels: Vec<usize> = test.iter().flat_map(|b| b.y.iter().copied()).collect();
    let rates: Vec<SliceRate> = setting.rates.iter().collect(); // ascending: stage order

    // Conventional cascade: one fixed model per stage.
    let mut cascade_preds = Vec::new();
    let mut stage_params = Vec::new();
    let mut stage_flops = Vec::new();
    let mut cascade_total_params = 0u64;
    for (i, &r) in rates.iter().enumerate() {
        eprintln!(
            "[table5] training cascade stage {} (width {:.3})…",
            i + 1,
            r.get()
        );
        let cfg = fixed_vgg_config(&setting.vgg, r);
        let mut rng = SeededRng::new(2000 + i as u64);
        let mut m = Vgg::new(&cfg, &mut rng);
        train_image_model(
            &mut m,
            &ds,
            &setting,
            SchedulerKind::Fixed(1.0),
            2100 + i as u64,
            |_, _| {},
        );
        stage_params.push(m.full_param_count());
        stage_flops.push(m.flops_per_sample());
        cascade_total_params += m.full_param_count();
        cascade_preds.push(eval_predictions(&mut m, &test, SliceRate::FULL));
    }
    let cascade = cascade_metrics(&cascade_preds, &labels);

    // Model slicing: one model, six rates.
    eprintln!("[table5] training sliced model…");
    let mut rng = SeededRng::new(2200);
    let mut sliced = Vgg::new(&setting.vgg, &mut rng);
    train_image_model(
        &mut sliced,
        &ds,
        &setting,
        SchedulerKind::r_weighted_3(&setting.rates),
        2201,
        |_, _| {},
    );
    let slicing_preds: Vec<Vec<usize>> = rates
        .iter()
        .map(|&r| eval_predictions(&mut sliced, &test, r))
        .collect();
    let slicing = cascade_metrics(&slicing_preds, &labels);

    // Report.
    let mut rows = Vec::new();
    for (i, &r) in rates.iter().enumerate() {
        rows.push(vec![
            format!("{}", i + 1),
            format!("{:.3}", r.get()),
            ms_data::metrics::format_params(stage_params[i]),
            ms_data::metrics::format_flops(stage_flops[i]),
            pct(cascade[i].precision),
            pct(cascade[i].aggregate_recall),
            pct(slicing[i].precision),
            pct(slicing[i].aggregate_recall),
        ]);
    }
    println!("\nTable 5 — cascade ranking: conventional cascade vs model slicing\n");
    print_table(
        &[
            "stage",
            "width",
            "params",
            "FLOPs",
            "casc prec",
            "casc agg-recall",
            "slice prec",
            "slice agg-recall",
        ],
        &rows,
    );
    println!(
        "\nstorage: cascade {} params total vs sliced single model {} params",
        ms_data::metrics::format_params(cascade_total_params),
        ms_data::metrics::format_params(sliced.full_param_count()),
    );
    println!("elapsed: {:.1}s", start.elapsed().as_secs_f64());

    write_results(
        "table5",
        &Table5Results {
            rates: rates.iter().map(|r| r.get()).collect(),
            stage_params,
            stage_flops,
            cascade_precision: cascade.iter().map(|m| m.precision).collect(),
            cascade_recall: cascade.iter().map(|m| m.aggregate_recall).collect(),
            slicing_precision: slicing.iter().map(|m| m.precision).collect(),
            slicing_recall: slicing.iter().map(|m| m.aggregate_recall).collect(),
            cascade_total_params,
            slicing_total_params: sliced.full_param_count(),
        },
    );
}
