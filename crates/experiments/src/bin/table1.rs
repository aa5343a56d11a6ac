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

use ms_baselines::slimmable::SlimmableVgg;
use ms_core::scheduler::SchedulerKind;
use ms_core::slice_rate::{SliceRate, SliceRateList};
use ms_data::synth_images::ImageDataset;
use ms_experiments::{
    eval_accuracy, fixed_vgg_config, pct, print_table, test_batches, train_image_model,
    write_results, ImageSetting,
};
use ms_models::vgg::Vgg;
use ms_tensor::SeededRng;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize)]
struct Table1Results {
    rates: Vec<f32>,
    /// scheme name → accuracy per rate (descending rate order).
    schemes: BTreeMap<String, Vec<f64>>,
}

fn main() {
    let start = std::time::Instant::now();
    let mut setting = ImageSetting::standard();
    // Table 1 uses the coarser 4-rate list.
    setting.rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let ds = ImageDataset::generate(setting.dataset.clone());
    let test = test_batches(&ds, 128);
    let mut rates_desc: Vec<SliceRate> = setting.rates.iter().collect();
    rates_desc.reverse();
    let mut results: BTreeMap<String, Vec<f64>> = BTreeMap::new();

    // Fixed: one independently trained model per rate.
    eprintln!("[table1] fixed models…");
    let mut fixed = Vec::new();
    for (i, &r) in rates_desc.iter().enumerate() {
        let cfg = fixed_vgg_config(&setting.vgg, r);
        let mut rng = SeededRng::new(200 + i as u64);
        let mut model = Vgg::new(&cfg, &mut rng);
        train_image_model(
            &mut model,
            &ds,
            &setting,
            SchedulerKind::Fixed(1.0),
            300 + i as u64,
            |_, _| {},
        );
        fixed.push(eval_accuracy(&mut model, &test, SliceRate::FULL));
    }
    results.insert("Fixed".into(), fixed);

    // Random / static / random-static schemes, one sliced run each.
    let g = setting.rates.len();
    let w2 = {
        let mut w = vec![0.25 / (g - 2) as f64; g];
        w[0] = 0.25;
        w[g - 1] = 0.5;
        w
    };
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
        let mut rng = SeededRng::new(400 + si as u64);
        let mut model = Vgg::new(&setting.vgg, &mut rng);
        train_image_model(&mut model, &ds, &setting, kind, 500 + si as u64, |_, _| {});
        let accs: Vec<f64> = rates_desc
            .iter()
            .map(|&r| eval_accuracy(&mut model, &test, r))
            .collect();
        results.insert(name.to_string(), accs);
    }

    // SlimmableNet: static scheduling + switchable BN.
    eprintln!("[table1] Slimmable…");
    let mut rng = SeededRng::new(600);
    let mut slim = SlimmableVgg::new(&setting.vgg, setting.rates.rates(), &mut rng);
    train_image_model(
        &mut slim,
        &ds,
        &setting,
        SchedulerKind::Static,
        601,
        |_, _| {},
    );
    let accs: Vec<f64> = rates_desc
        .iter()
        .map(|&r| eval_accuracy(&mut slim, &test, r))
        .collect();
    results.insert("Slimmable".into(), accs);

    // Report in the paper's column order.
    let order = [
        "Fixed",
        "R-uniform-2",
        "R-weighted-2",
        "R-weighted-3",
        "Static",
        "R-min",
        "R-max",
        "R-min-max",
        "Slimmable",
    ];
    let mut headers = vec!["rate"];
    headers.extend(order.iter());
    let mut rows = Vec::new();
    for (ri, r) in rates_desc.iter().enumerate() {
        let mut row = vec![format!("{:.2}", r.get())];
        for name in order {
            row.push(pct(results[name][ri]));
        }
        rows.push(row);
    }
    println!("\nTable 1 — scheduling-scheme ablation (VGG, synthetic CIFAR)\n");
    print_table(&headers, &rows);
    println!("elapsed: {:.1}s", start.elapsed().as_secs_f64());

    write_results(
        "table1",
        &Table1Results {
            rates: rates_desc.iter().map(|r| r.get()).collect(),
            schemes: results,
        },
    );
}
