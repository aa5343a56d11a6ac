//! Figure 6: evolution of GroupNorm scale factors γ during model-slicing
//! training — the group-residual-learning visualisation.
//!
//! Trains the VGG analogue with model slicing, snapshotting per-group mean
//! |γ| of two probe layers (an early conv and a late conv) after every
//! epoch, and prints the heat matrices as text. Expected shape (paper
//! Fig. 6): a *stratified* pattern — the base groups (G1–G3) grow the
//! largest scales, later groups progressively smaller, because later groups
//! only learn residual refinements.

use ms_core::scheduler::SchedulerKind;
use ms_data::synth_images::ImageDataset;
use ms_experiments::{train_image_model, write_results, ImageSetting};
use ms_models::vgg::Vgg;
use ms_nn::slice::group_boundary;
use ms_tensor::SeededRng;
use serde::Serialize;

#[derive(Serialize)]
struct Fig6Results {
    /// Per probe: `(layer name, epochs × groups matrix of mean |γ|)`.
    probes: Vec<(String, Vec<Vec<f64>>)>,
}

fn group_means(gammas: &[f32], groups: usize) -> Vec<f64> {
    (0..groups)
        .map(|g| {
            let lo = group_boundary(gammas.len(), groups, g);
            let hi = group_boundary(gammas.len(), groups, g + 1);
            gammas[lo..hi].iter().map(|&v| v.abs() as f64).sum::<f64>() / (hi - lo).max(1) as f64
        })
        .collect()
}

fn heat_char(v: f64, max: f64) -> char {
    const RAMP: [char; 8] = [' ', '.', ':', '-', '=', '+', '#', '@'];
    let idx = ((v / max.max(1e-9)) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[idx.min(RAMP.len() - 1)]
}

fn main() {
    let start = std::time::Instant::now();
    let setting = ImageSetting::standard();
    let ds = ImageDataset::generate(setting.dataset.clone());
    let groups = setting.vgg.groups;

    let mut rng = SeededRng::new(2500);
    let mut model = Vgg::new(&setting.vgg, &mut rng);
    // Probe the second-stage conv (low-level) and a third-stage conv
    // (high-level), mirroring the paper's conv3/conv5 probes.
    let probe_names = ["s1c0.gn.gamma", "s2c1.gn.gamma"];
    let mut history: Vec<Vec<Vec<f64>>> = vec![Vec::new(); probe_names.len()];
    {
        let history = &mut history;
        train_image_model(
            &mut model,
            &ds,
            &setting,
            SchedulerKind::r_weighted_3(&setting.rates),
            2501,
            |_, net| {
                // Collect γ snapshots by name.
                let mut snaps: Vec<(String, Vec<f32>)> = Vec::new();
                net.visit_params(&mut |p| {
                    if p.name.ends_with(".gamma") {
                        snaps.push((p.name.clone(), p.value.data().to_vec()));
                    }
                });
                for (pi, pname) in probe_names.iter().enumerate() {
                    if let Some((_, g)) = snaps.iter().find(|(n, _)| n == pname) {
                        history[pi].push(group_means(g, groups));
                    }
                }
            },
        );
    }

    println!(
        "\nFigure 6 — per-group mean |γ| over training epochs (rows = groups, cols = epochs)\n"
    );
    for (pi, pname) in probe_names.iter().enumerate() {
        let matrix = &history[pi];
        let max = matrix.iter().flatten().cloned().fold(0.0f64, f64::max);
        println!("probe layer {pname}:");
        for g in 0..groups {
            let row: String = matrix
                .iter()
                .map(|epoch| heat_char(epoch[g], max))
                .collect();
            let last = matrix.last().map(|e| e[g]).unwrap_or(0.0);
            println!("  G{:<2} |{}| final {:.3}", g + 1, row, last);
        }
        // The stratification check: base group vs last group at the end.
        if let Some(last_epoch) = matrix.last() {
            println!(
                "  stratification (G1 mean / G{} mean): {:.2}\n",
                groups,
                last_epoch[0] / last_epoch[groups - 1].max(1e-9)
            );
        }
    }
    println!("elapsed: {:.1}s", start.elapsed().as_secs_f64());

    write_results(
        "fig6",
        &Fig6Results {
            probes: probe_names
                .iter()
                .zip(history)
                .map(|(n, h)| (n.to_string(), h))
                .collect(),
        },
    );
}
