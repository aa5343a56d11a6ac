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

use ms_baselines::skipnet::{SkipNet, SkipNetConfig};
use ms_baselines::slimming;
use ms_core::scheduler::SchedulerKind;
use ms_core::slice_rate::SliceRate;
use ms_data::synth_images::ImageDataset;
use ms_experiments::{
    accuracy_sweep, eval_accuracy, pct, print_table, telemetry_flusher, test_batches,
    train_image_manual, train_image_model, train_multi_classifier, write_results, ImageSetting,
};
use ms_models::multi_classifier::{MultiClassifierConfig, MultiClassifierNet};
use ms_models::resnet::{ResNet, ResNetConfig};
use ms_nn::layer::Layer;
use ms_nn::slice::{active_groups, active_units};
use ms_tensor::SeededRng;
use serde::Serialize;

/// One (FLOPs, accuracy) operating point of a method.
#[derive(Serialize, Clone)]
struct Point {
    flops: u64,
    accuracy: f64,
    label: String,
}

#[derive(Serialize)]
struct Fig2Results {
    methods: Vec<(String, Vec<Point>)>,
}

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
        in_channels: 3,
        image_size: 12,
        stages: vec![(1, 16), (1, 32), (1, 48)],
        expansion: 2,
        num_classes: classes,
        groups,
        width_multiplier: 1.0,
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

fn main() {
    let start = std::time::Instant::now();
    let _telemetry = telemetry_flusher("fig2");
    let mut setting = ImageSetting::standard();
    // The ResNet family is stronger than the VGG track at this scale; raise
    // the dataset difficulty so the accuracy-vs-FLOPs curves separate
    // instead of saturating at the ceiling.
    setting.dataset.classes = 10;
    setting.dataset.noise = 0.9;
    setting.dataset.distractor = 0.8;
    let ds = ImageDataset::generate(setting.dataset.clone());
    let test = test_batches(&ds, 128);
    let classes = setting.dataset.classes;
    let groups = 8usize;
    let (narrow_cfg, wide_cfg) = resnet_cfgs(classes, groups);
    let mut methods: Vec<(String, Vec<Point>)> = Vec::new();

    // --- Ensemble of ResNet (varying width), matching the wide model. ---
    let mut width_pts = Vec::new();
    for (i, r) in setting.rates.iter().enumerate() {
        eprintln!("[fig2] width-ensemble member {:.3}…", r.get());
        let cfg = fixed_resnet_cfg(&wide_cfg, r);
        let mut rng = SeededRng::new(1000 + i as u64);
        let mut m = ResNet::new(&cfg, &mut rng);
        train_image_model(
            &mut m,
            &ds,
            &setting,
            SchedulerKind::Fixed(1.0),
            1100 + i as u64,
            |_, _| {},
        );
        width_pts.push(Point {
            flops: m.flops_per_sample(),
            accuracy: eval_accuracy(&mut m, &test, SliceRate::FULL),
            label: format!("width {:.3}", r.get()),
        });
    }
    methods.push(("Ensemble (varying width)".into(), width_pts));

    // --- Ensemble of ResNet (varying depth). ---
    let mut depth_pts = Vec::new();
    for (i, blocks) in [1usize, 2, 3].into_iter().enumerate() {
        eprintln!("[fig2] depth-ensemble member {blocks} block(s)/stage…");
        let cfg = ResNetConfig {
            stages: wide_cfg.stages.iter().map(|&(_, w)| (blocks, w)).collect(),
            ..wide_cfg.clone()
        };
        let mut rng = SeededRng::new(1200 + i as u64);
        let mut m = ResNet::new(&cfg, &mut rng);
        train_image_model(
            &mut m,
            &ds,
            &setting,
            SchedulerKind::Fixed(1.0),
            1300 + i as u64,
            |_, _| {},
        );
        depth_pts.push(Point {
            flops: m.flops_per_sample(),
            accuracy: eval_accuracy(&mut m, &test, SliceRate::FULL),
            label: format!("depth {blocks}"),
        });
    }
    methods.push(("Ensemble (varying depth)".into(), depth_pts));

    // --- Multi-classifier (early exit), one jointly trained model. ---
    eprintln!("[fig2] multi-classifier…");
    let mut rng = SeededRng::new(1400);
    let mut mc = MultiClassifierNet::new(
        &MultiClassifierConfig {
            in_channels: 3,
            image_size: 12,
            stages: vec![(1, 16), (1, 32), (1, 48)],
            num_classes: classes,
        },
        &mut rng,
    );
    train_multi_classifier(&mut mc, &ds, &setting, 1401);
    let mut mc_pts = Vec::new();
    for exit in 0..mc.num_exits() {
        mc.set_exit(exit);
        mc_pts.push(Point {
            flops: mc.flops_per_sample(),
            accuracy: eval_accuracy(&mut mc, &test, SliceRate::FULL),
            label: format!("exit {exit}"),
        });
    }
    methods.push(("Multi-Classifiers (single model)".into(), mc_pts));

    // --- Model slicing: deep-narrow and shallow-wide. ---
    for (name, cfg, seed) in [
        ("Model Slicing (deep-narrow)", &narrow_cfg, 1500u64),
        ("Model Slicing (shallow-wide)", &wide_cfg, 1600),
    ] {
        eprintln!("[fig2] {name}…");
        let mut rng = SeededRng::new(seed);
        let mut m = ResNet::new(cfg, &mut rng);
        train_image_model(
            &mut m,
            &ds,
            &setting,
            SchedulerKind::r_weighted_3(&setting.rates),
            seed + 1,
            |_, _| {},
        );
        let pts = accuracy_sweep(&mut m, &test, &setting.rates)
            .into_iter()
            .map(|p| Point {
                flops: p.flops,
                accuracy: p.accuracy.unwrap_or(0.0),
                label: format!("rate {:.3}", p.rate),
            })
            .collect();
        methods.push((name.into(), pts));
    }

    // --- Network Slimming: L1 train, prune at fractions, finetune. ---
    eprintln!("[fig2] network slimming…");
    let mut slim_pts = Vec::new();
    for (i, frac) in [0.25f64, 0.5, 0.7].into_iter().enumerate() {
        let mut rng = SeededRng::new(1700 + i as u64);
        let mut m = ResNet::new(&wide_cfg, &mut rng);
        // Sparsity training.
        train_image_manual(
            &mut m,
            &ds,
            &setting,
            setting.epochs,
            1710 + i as u64,
            |net| slimming::add_gamma_l1(net, 1e-4),
            |_| {},
        );
        let report = slimming::prune_by_gamma(&mut m, frac);
        // Fine-tune with the mask enforced.
        let report2 = report.clone();
        train_image_manual(
            &mut m,
            &ds,
            &setting,
            setting.epochs / 3,
            1720 + i as u64,
            move |net| slimming::apply_prune_mask(net, &report2),
            |_| {},
        );
        let full_flops = m.flops_per_sample();
        slim_pts.push(Point {
            flops: report.flops_estimate(full_flops),
            accuracy: eval_accuracy(&mut m, &test, SliceRate::FULL),
            label: format!("prune {frac:.2}"),
        });
    }
    methods.push(("Width Compression (Network Slimming)".into(), slim_pts));

    // --- SkipNet: stochastic-depth training, skip-fraction sweep. ---
    eprintln!("[fig2] skipnet…");
    let mut rng = SeededRng::new(1800);
    let mut skip = SkipNet::new(
        &SkipNetConfig {
            in_channels: 3,
            image_size: 12,
            groups_cfg: vec![(2, 16), (2, 32), (2, 48)],
            num_classes: classes,
            drop_prob: 0.25,
        },
        &mut rng,
    );
    train_image_model(
        &mut skip,
        &ds,
        &setting,
        SchedulerKind::Fixed(1.0),
        1801,
        |_, _| {},
    );
    let mut skip_pts = Vec::new();
    for f in [0.0f64, 0.5, 1.0] {
        skip.set_skip_fraction(f);
        skip_pts.push(Point {
            flops: skip.flops_per_sample(),
            accuracy: eval_accuracy(&mut skip, &test, SliceRate::FULL),
            label: format!("skip {f:.1}"),
        });
    }
    skip.set_skip_fraction(0.0);
    methods.push(("Dynamic Routing (SkipNet)".into(), skip_pts));

    // Report.
    println!("\nFigure 2 — accuracy vs inference FLOPs (ResNet, synthetic CIFAR)\n");
    for (name, pts) in &methods {
        println!("{name}:");
        let rows: Vec<Vec<String>> = pts
            .iter()
            .map(|p| {
                vec![
                    p.label.clone(),
                    ms_data::metrics::format_flops(p.flops),
                    pct(p.accuracy),
                ]
            })
            .collect();
        print_table(&["point", "FLOPs", "acc (%)"], &rows);
        println!();
    }
    println!("elapsed: {:.1}s", start.elapsed().as_secs_f64());
    write_results("fig2", &Fig2Results { methods });
}
