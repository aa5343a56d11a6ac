//! Figure 2: accuracy vs inference FLOPs — model slicing against every
//! baseline family, on the ResNet track.
//!
//! Curves (paper legend → our implementation):
//! - Ensemble of ResNet (varying depth)  → fixed ResNets with 1…3 blocks
//!   per stage, trained independently.
//! - Ensemble of ResNet (varying width)  → fixed ResNets matching the
//!   sliced model's channel counts per rate, trained independently.
//! - ResNet with Multi-Classifiers       → early-exit trunk, joint training
//!   (also stands in for MSDNet — same early-exit family; DESIGN.md).
//! - ResNet with Model Slicing (deep-narrow / shallow-wide) → one run each.
//! - ResNet with Width Compression (Network Slimming) → L1-γ training,
//!   global pruning at several fractions, fine-tuning.
//! - ResNet with Dynamic Routing (SkipNet) → stochastic-depth trunk with
//!   inference-time block skipping.
//!
//! Expected shape: width ensembles beat depth ensembles; slicing the wide
//! model ≈ width ensemble; slicing the narrow model suffers at low rates
//! (its base has too few channels — the paper's §5.3.3 observation);
//! multi-classifier/SkipNet degrade fastest.

use crate::{eval_accuracy, sweep, Fmt, ImageSetting, ImageTrack, Report, Run, Table};
use ms_baselines::skipnet::{SkipNet, SkipNetConfig};
use ms_baselines::slimming;
use ms_core::scheduler::SchedulerKind;
use ms_core::slice_rate::SliceRate;
use ms_models::multi_classifier::{MultiClassifierConfig, MultiClassifierNet};
use ms_models::resnet::{ResNet, ResNetConfig};
use ms_nn::layer::{Layer, Mode};
use ms_nn::loss::CrossEntropy;
use ms_nn::slice::{active_groups, active_units};
use ms_tensor::{SeededRng, Tensor};

fn resnet_cfgs(classes: usize, groups: usize) -> (ResNetConfig, ResNetConfig) {
    let narrow = ResNetConfig {
        in_channels: 3,
        image_size: 12,
        stages: vec![(2, 8), (2, 16), (2, 24)],
        expansion: 2,
        num_classes: classes,
        groups,
        width_multiplier: 1.0,
    };
    let wide = ResNetConfig {
        stages: vec![(1, 16), (1, 32), (1, 48)],
        ..narrow.clone()
    };
    (narrow, wide)
}

fn fixed_resnet_cfg(base: &ResNetConfig, r: SliceRate) -> ResNetConfig {
    let g_act = base
        .stages
        .iter()
        .map(|&(_, w)| active_groups(w * base.expansion, base.groups, r))
        .min()
        .unwrap_or(1)
        .max(1);
    ResNetConfig {
        stages: base
            .stages
            .iter()
            .map(|&(n, w)| (n, active_units(w, base.groups, r).max(g_act)))
            .collect(),
        groups: g_act,
        ..base.clone()
    }
}

/// One batch's cross-entropy forward and backward.
fn classify_backward(net: &mut dyn Layer, x: &Tensor, y: &[usize]) {
    let logits = net.forward(x, Mode::Train);
    let (_, dlogits) = CrossEntropy.forward(&logits, y);
    let _ = net.backward(&dlogits);
}

/// A method's operating points: label, per-sample MACs, accuracy.
type Points = Vec<(String, u64, f64)>;

/// Runs Figure 2.
pub fn run(run: &Run) -> Report {
    let mut setting = ImageSetting::standard(run);
    // The ResNet family is stronger than the VGG track at this scale; raise
    // the dataset difficulty so the accuracy-vs-FLOPs curves separate
    // instead of saturating at the ceiling.
    setting.dataset.classes = 10;
    setting.dataset.noise = 0.9;
    setting.dataset.distractor = 0.8;
    let track = ImageTrack::new(setting);
    let (setting, test) = (&track.setting, &track.test);
    let classes = setting.dataset.classes;
    let (narrow_cfg, wide_cfg) = resnet_cfgs(classes, 8);
    let full_accuracy = |m: &mut dyn Layer| eval_accuracy(m, test, SliceRate::FULL);
    // A conventionally trained ResNet's operating point.
    let fixed = |cfg: &ResNetConfig, seeds: (u64, u64), label: String| {
        let mut m = ResNet::new(cfg, &mut SeededRng::new(seeds.0));
        track.train(&mut m, SchedulerKind::Fixed(1.0), seeds.1);
        (label, m.flops_per_sample(), full_accuracy(&mut m))
    };
    let mut methods: Vec<(&str, Points)> = Vec::new();

    // --- Ensemble of ResNet (varying width), matching the wide model. ---
    let mut width_pts = Vec::new();
    for (i, r) in setting.rates.iter().enumerate() {
        eprintln!("[fig2] width-ensemble member {:.3}…", r.get());
        let cfg = fixed_resnet_cfg(&wide_cfg, r);
        let seeds = (1000 + i as u64, 1100 + i as u64);
        width_pts.push(fixed(&cfg, seeds, format!("width {:.3}", r.get())));
    }
    methods.push(("Ensemble (varying width)", width_pts));

    // --- Ensemble of ResNet (varying depth). ---
    let mut depth_pts = Vec::new();
    for (i, blocks) in [1usize, 2, 3].into_iter().enumerate() {
        eprintln!("[fig2] depth-ensemble member {blocks} block(s)/stage…");
        let cfg = ResNetConfig {
            stages: wide_cfg.stages.iter().map(|&(_, w)| (blocks, w)).collect(),
            ..wide_cfg.clone()
        };
        let seeds = (1200 + i as u64, 1300 + i as u64);
        depth_pts.push(fixed(&cfg, seeds, format!("depth {blocks}")));
    }
    methods.push(("Ensemble (varying depth)", depth_pts));

    // --- Multi-classifier (early exit), one jointly trained model. ---
    eprintln!("[fig2] multi-classifier…");
    let mut mc = MultiClassifierNet::new(
        &MultiClassifierConfig {
            in_channels: 3,
            image_size: 12,
            stages: vec![(1, 16), (1, 32), (1, 48)],
            num_classes: classes,
        },
        &mut SeededRng::new(1400),
    );
    // Summed cross-entropy over every exit, equal weights averaged.
    let exits = mc.num_exits();
    track.train_sgd(&mut mc, setting.epochs, 1401, |net, x, y| {
        let outs = net.forward_exits(x, Mode::Train);
        let grads: Vec<Tensor> = outs
            .iter()
            .map(|logits| {
                let (_, mut g) = CrossEntropy.forward(logits, y);
                g.scale(1.0 / exits as f32);
                g
            })
            .collect();
        net.backward_exits(&grads);
    });
    let mut mc_pts = Vec::new();
    for exit in 0..exits {
        mc.set_exit(exit);
        mc_pts.push((
            format!("exit {exit}"),
            mc.flops_per_sample(),
            full_accuracy(&mut mc),
        ));
    }
    methods.push(("Multi-Classifiers (single model)", mc_pts));

    // --- Model slicing: deep-narrow and shallow-wide. ---
    for (name, cfg, seed) in [
        ("Model Slicing (deep-narrow)", &narrow_cfg, 1500u64),
        ("Model Slicing (shallow-wide)", &wide_cfg, 1600),
    ] {
        eprintln!("[fig2] {name}…");
        let mut m = ResNet::new(cfg, &mut SeededRng::new(seed));
        track.train(
            &mut m,
            SchedulerKind::r_weighted_3(&setting.rates),
            seed + 1,
        );
        let pts = sweep(&mut m, &setting.rates, |m, r| eval_accuracy(m, test, r))
            .into_iter()
            .map(|p| (format!("rate {:.3}", p.rate), p.flops, p.value))
            .collect();
        methods.push((name, pts));
    }

    // --- Network Slimming: L1 train, prune at fractions, finetune. ---
    eprintln!("[fig2] network slimming…");
    let mut slim_pts = Vec::new();
    for (i, frac) in [0.25f64, 0.5, 0.7].into_iter().enumerate() {
        let mut m = ResNet::new(&wide_cfg, &mut SeededRng::new(1700 + i as u64));
        // Sparsity training.
        track.train_sgd(&mut m, setting.epochs, 1710 + i as u64, |net, x, y| {
            classify_backward(net, x, y);
            slimming::add_gamma_l1(net, 1e-4);
        });
        let pruned = slimming::prune_by_gamma(&mut m, frac);
        // Fine-tune with the mask enforced.
        track.train_sgd(&mut m, setting.epochs / 3, 1720 + i as u64, |net, x, y| {
            classify_backward(net, x, y);
            slimming::apply_prune_mask(net, &pruned);
        });
        let flops = pruned.flops_estimate(m.flops_per_sample());
        slim_pts.push((format!("prune {frac:.2}"), flops, full_accuracy(&mut m)));
    }
    methods.push(("Width Compression (Network Slimming)", slim_pts));

    // --- SkipNet: stochastic-depth training, skip-fraction sweep. ---
    eprintln!("[fig2] skipnet…");
    let mut skip = SkipNet::new(
        &SkipNetConfig {
            in_channels: 3,
            image_size: 12,
            groups_cfg: vec![(2, 16), (2, 32), (2, 48)],
            num_classes: classes,
            drop_prob: 0.25,
        },
        &mut SeededRng::new(1800),
    );
    track.train(&mut skip, SchedulerKind::Fixed(1.0), 1801);
    let mut skip_pts = Vec::new();
    for f in [0.0f64, 0.5, 1.0] {
        skip.set_skip_fraction(f);
        skip_pts.push((
            format!("skip {f:.1}"),
            skip.flops_per_sample(),
            full_accuracy(&mut skip),
        ));
    }
    methods.push(("Dynamic Routing (SkipNet)", skip_pts));

    let mut report = Report::default();
    report.title("Figure 2 — accuracy vs inference FLOPs (ResNet, synthetic CIFAR)");
    for (name, pts) in methods {
        let table = Table::new("point", pts.iter().map(|p| p.0.clone()).collect())
            .titled(name)
            .col(
                "FLOPs",
                Fmt::Flops,
                pts.iter().map(|p| p.1 as f64).collect(),
            )
            .col("acc (%)", Fmt::Pct, pts.iter().map(|p| p.2).collect());
        report.table(table);
        report.line("", vec![]);
    }
    report
}
