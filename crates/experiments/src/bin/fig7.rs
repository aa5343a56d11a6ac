//! Figure 7: learning curves of the sliced subnets vs the full fixed model.
//!
//! Trains (a) a conventional fixed model and (b) a model-slicing model,
//! recording per-epoch test error and test loss of the fixed model and of
//! each subnet. Expected shape (paper Fig. 7): larger subnets' error drops
//! first and smaller subnets follow closely (knowledge-distillation
//! effect); the full subnet's final curve approaches the fixed model.

use ms_core::scheduler::SchedulerKind;
use ms_core::slice_rate::SliceRate;
use ms_data::synth_images::ImageDataset;
use ms_experiments::{
    eval_accuracy, fmt, print_table, test_batches, train_image_model, write_results, ImageSetting,
};
use ms_models::vgg::Vgg;
use ms_nn::layer::{Layer, Mode};
use ms_nn::loss::CrossEntropy;
use ms_tensor::SeededRng;
use serde::Serialize;

#[derive(Serialize)]
struct Fig7Results {
    epochs: usize,
    tracked_rates: Vec<f32>,
    /// `subnet_error[r][epoch]`, percent.
    subnet_error: Vec<Vec<f64>>,
    /// `subnet_loss[r][epoch]`.
    subnet_loss: Vec<Vec<f64>>,
    fixed_error: Vec<f64>,
    fixed_loss: Vec<f64>,
}

fn eval_loss(model: &mut dyn Layer, batches: &[ms_core::trainer::Batch], rate: SliceRate) -> f64 {
    model.set_slice_rate(rate);
    let mut loss = 0.0;
    let mut n = 0usize;
    for b in batches {
        let logits = model.forward(&b.x, Mode::Infer);
        loss += CrossEntropy.loss_only(&logits, &b.y) * b.y.len() as f64;
        n += b.y.len();
    }
    model.set_slice_rate(SliceRate::FULL);
    loss / n.max(1) as f64
}

fn main() {
    let start = std::time::Instant::now();
    let setting = ImageSetting::standard();
    let ds = ImageDataset::generate(setting.dataset.clone());
    let test = test_batches(&ds, 128);
    let tracked = [1.0f32, 0.75, 0.5, 0.375];

    // Fixed full model.
    eprintln!("[fig7] training fixed full model…");
    let mut rng = SeededRng::new(2600);
    let mut fixed = Vgg::new(&setting.vgg, &mut rng);
    let mut fixed_err = Vec::new();
    let mut fixed_loss = Vec::new();
    {
        let (fe, fl, t) = (&mut fixed_err, &mut fixed_loss, &test);
        train_image_model(
            &mut fixed,
            &ds,
            &setting,
            SchedulerKind::Fixed(1.0),
            2601,
            |_, net| {
                fe.push(100.0 * (1.0 - eval_accuracy(net, t, SliceRate::FULL)));
                fl.push(eval_loss(net, t, SliceRate::FULL));
            },
        );
    }

    // Sliced model, tracking each subnet per epoch.
    eprintln!("[fig7] training sliced model…");
    let mut rng = SeededRng::new(2610);
    let mut sliced = Vgg::new(&setting.vgg, &mut rng);
    let mut sub_err: Vec<Vec<f64>> = vec![Vec::new(); tracked.len()];
    let mut sub_loss: Vec<Vec<f64>> = vec![Vec::new(); tracked.len()];
    {
        let (se, sl, t) = (&mut sub_err, &mut sub_loss, &test);
        train_image_model(
            &mut sliced,
            &ds,
            &setting,
            SchedulerKind::r_weighted_3(&setting.rates),
            2611,
            |_, net| {
                for (i, &r) in tracked.iter().enumerate() {
                    let rate = SliceRate::new(r);
                    se[i].push(100.0 * (1.0 - eval_accuracy(net, t, rate)));
                    sl[i].push(eval_loss(net, t, rate));
                }
            },
        );
    }

    // Print every few epochs.
    let stride = (setting.epochs / 10).max(1);
    let mut headers: Vec<String> = vec!["epoch".into(), "fixed err".into()];
    headers.extend(tracked.iter().map(|r| format!("sub-{r} err")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut rows = Vec::new();
    for e in (0..setting.epochs).step_by(stride) {
        let mut row = vec![format!("{}", e + 1), fmt(fixed_err[e], 2)];
        for se in &sub_err {
            row.push(fmt(se[e], 2));
        }
        rows.push(row);
    }
    println!("\nFigure 7 — test error (%) learning curves\n");
    print_table(&header_refs, &rows);
    println!("elapsed: {:.1}s", start.elapsed().as_secs_f64());

    write_results(
        "fig7",
        &Fig7Results {
            epochs: setting.epochs,
            tracked_rates: tracked.to_vec(),
            subnet_error: sub_err,
            subnet_loss: sub_loss,
            fixed_error: fixed_err,
            fixed_loss,
        },
    );
}
