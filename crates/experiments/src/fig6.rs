//! Figure 6: evolution of GroupNorm scale factors γ during model-slicing
//! training — the group-residual-learning visualisation.
//!
//! Trains the VGG analogue with model slicing, snapshotting per-group mean
//! |γ| of two probe layers (an early conv and a late conv) after every
//! epoch, and prints the heat matrices as text. Expected shape (paper
//! Fig. 6): a *stratified* pattern — the base groups (G1–G3) grow the
//! largest scales, later groups progressively smaller, because later groups
//! only learn residual refinements.

use crate::{scalar, Fmt, ImageSetting, ImageTrack, Item, Report, Run};
use ms_core::scheduler::SchedulerKind;
use ms_models::vgg::Vgg;
use ms_nn::slice::group_boundary;
use ms_tensor::SeededRng;

/// Runs Figure 6.
pub fn run(run: &Run) -> Report {
    let track = ImageTrack::new(ImageSetting::standard(run));
    let groups = track.setting.vgg.groups;
    let mut model = Vgg::new(&track.setting.vgg, &mut SeededRng::new(2500));
    // Probe the second-stage conv (low-level) and a third-stage conv
    // (high-level), mirroring the paper's conv3/conv5 probes.
    let probes = ["s1c0.gn.gamma", "s2c1.gn.gamma"];
    // Per probe, per group: mean |γ| after each epoch.
    let mut heat = vec![vec![Vec::new(); groups]; probes.len()];
    let kind = SchedulerKind::r_weighted_3(&track.setting.rates);
    track.train_with(&mut model, kind, true, 2501, |_, net| {
        net.visit_params(&mut |p| {
            let Some(pi) = probes.iter().position(|&n| n == p.name) else {
                return;
            };
            let gammas = p.value.data();
            for (g, row) in heat[pi].iter_mut().enumerate() {
                let lo = group_boundary(gammas.len(), groups, g);
                let hi = group_boundary(gammas.len(), groups, g + 1);
                let sum = gammas[lo..hi].iter().map(|&v| v.abs() as f64).sum::<f64>();
                row.push(sum / (hi - lo).max(1) as f64);
            }
        });
    });

    let mut report = Report::default();
    report
        .title("Figure 6 — per-group mean |γ| over training epochs (rows = groups, cols = epochs)");
    for (name, rows) in probes.iter().zip(heat) {
        // The stratification check: base group vs last group at the end.
        let last = |g: usize| rows[g].last().copied().unwrap_or(0.0);
        let ratio = last(0) / last(groups - 1).max(1e-9);
        report.line(&format!("probe layer {name}:"), vec![]);
        report.items.push(Item::Heat(rows));
        report.line(
            &format!("  stratification (G1 mean / G{groups} mean): {{}}\n"),
            vec![scalar("stratification", ratio, Fmt::Dec(2))],
        );
    }
    report
}
