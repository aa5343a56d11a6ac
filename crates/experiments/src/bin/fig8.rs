//! Figure 8: prediction-consistency heatmaps.
//!
//! Computes the pairwise inclusion coefficient of wrong-prediction sets
//! between (a) independently trained fixed-width models and (b) subnets of
//! one model trained with model slicing. Expected shape (paper Fig. 8):
//! fixed models overlap ≈ 0.6 while sliced subnets overlap 0.75–0.97 and
//! increase toward neighbouring rates — the property that makes the sliced
//! cascade of Table 5 accumulate fewer false negatives.

use ms_core::scheduler::SchedulerKind;
use ms_core::slice_rate::SliceRate;
use ms_data::metrics::inclusion_coefficient;
use ms_data::synth_images::ImageDataset;
use ms_experiments::{
    eval_errors, fixed_vgg_config, fmt, print_table, test_batches, train_image_model,
    write_results, ImageSetting,
};
use ms_models::vgg::Vgg;
use ms_tensor::SeededRng;
use serde::Serialize;

#[derive(Serialize)]
struct Fig8Results {
    rates: Vec<f32>,
    fixed_matrix: Vec<Vec<f64>>,
    sliced_matrix: Vec<Vec<f64>>,
}

fn matrix_of(errors: &[Vec<usize>]) -> Vec<Vec<f64>> {
    let n = errors.len();
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| inclusion_coefficient(&errors[i], &errors[j]))
                .collect()
        })
        .collect()
}

fn print_matrix(title: &str, rates: &[SliceRate], m: &[Vec<f64>]) {
    println!("{title}");
    let mut headers: Vec<String> = vec!["rate".into()];
    headers.extend(rates.iter().map(|r| format!("{:.3}", r.get())));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<String>> = m
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut r = vec![format!("{:.3}", rates[i].get())];
            r.extend(row.iter().map(|&v| fmt(v, 3)));
            r
        })
        .collect();
    print_table(&header_refs, &rows);
    // Mean off-diagonal consistency, the figure's summary statistic.
    let n = m.len();
    let mut sum = 0.0;
    let mut cnt = 0;
    #[allow(clippy::needless_range_loop)] // i and j address a square matrix
    for i in 0..n {
        for j in 0..n {
            if i != j {
                sum += m[i][j];
                cnt += 1;
            }
        }
    }
    println!("mean off-diagonal: {:.3}\n", sum / cnt.max(1) as f64);
}

fn main() {
    let start = std::time::Instant::now();
    let setting = ImageSetting::standard();
    let ds = ImageDataset::generate(setting.dataset.clone());
    let test = test_batches(&ds, 128);
    let mut rates: Vec<SliceRate> = setting.rates.iter().collect();
    rates.reverse(); // descending, matching the paper's axes

    // Fixed models.
    let mut fixed_errors = Vec::new();
    for (i, &r) in rates.iter().enumerate() {
        eprintln!("[fig8] training fixed model width {:.3}…", r.get());
        let cfg = fixed_vgg_config(&setting.vgg, r);
        let mut rng = SeededRng::new(2700 + i as u64);
        let mut m = Vgg::new(&cfg, &mut rng);
        train_image_model(
            &mut m,
            &ds,
            &setting,
            SchedulerKind::Fixed(1.0),
            2800 + i as u64,
            |_, _| {},
        );
        fixed_errors.push(eval_errors(&mut m, &test, SliceRate::FULL));
    }

    // Sliced subnets of one model.
    eprintln!("[fig8] training sliced model…");
    let mut rng = SeededRng::new(2900);
    let mut sliced = Vgg::new(&setting.vgg, &mut rng);
    train_image_model(
        &mut sliced,
        &ds,
        &setting,
        SchedulerKind::r_weighted_3(&setting.rates),
        2901,
        |_, _| {},
    );
    let sliced_errors: Vec<Vec<usize>> = rates
        .iter()
        .map(|&r| eval_errors(&mut sliced, &test, r))
        .collect();

    let fixed_matrix = matrix_of(&fixed_errors);
    let sliced_matrix = matrix_of(&sliced_errors);
    println!("\nFigure 8 — inclusion coefficient of wrong-prediction sets\n");
    print_matrix(
        "(a) independently trained fixed models:",
        &rates,
        &fixed_matrix,
    );
    print_matrix(
        "(b) subnets of one model-slicing model:",
        &rates,
        &sliced_matrix,
    );
    println!("elapsed: {:.1}s", start.elapsed().as_secs_f64());

    write_results(
        "fig8",
        &Fig8Results {
            rates: rates.iter().map(|r| r.get()).collect(),
            fixed_matrix,
            sliced_matrix,
        },
    );
}
