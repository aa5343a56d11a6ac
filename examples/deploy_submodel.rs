//! Deployment extraction (paper §3.1): train once with model slicing, then
//! ship a *standalone* narrow model — bit-identical logits, a fraction of
//! the parameters — plus checkpoint save/load round-tripping.
//!
//! Run with: `cargo run --release --example deploy_submodel`

use modelslicing::models::mlp::{Mlp, MlpConfig};
use modelslicing::nn::checkpoint::Checkpoint;
use modelslicing::prelude::*;
use modelslicing::slicing::deploy::DeploySliced;
use modelslicing::slicing::trainer::Batch;

fn main() {
    let mut rng = SeededRng::new(77);

    // Train a sliceable MLP on a small synthetic task.
    let mut model = Mlp::new(
        &MlpConfig {
            input_dim: 8,
            hidden_dims: vec![48, 48],
            num_classes: 4,
            groups: 4,
            dropout: 0.0,
            input_rescale: true,
        },
        &mut rng,
    );
    let rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let scheduler = Scheduler::new(SchedulerKind::RandomMinMax, rates.clone(), &mut rng);
    let mut trainer = Trainer::new(scheduler, TrainerConfig::default());
    for _ in 0..25 {
        let batches: Vec<Batch> = (0..16)
            .map(|_| {
                let mut xs = Vec::with_capacity(32 * 8);
                let mut ys = Vec::with_capacity(32);
                for _ in 0..32 {
                    let cls = rng.below(4);
                    for d in 0..8 {
                        xs.push(
                            (cls as f32 - 1.5) * ((d % 3) as f32 + 0.5) * 0.4
                                + rng.normal(0.0, 0.5),
                        );
                    }
                    ys.push(cls);
                }
                Batch {
                    x: Tensor::from_vec([32, 8], xs).expect("batch"),
                    y: ys,
                }
            })
            .collect();
        trainer.train_epoch(&mut model, &batches);
    }

    // Checkpoint the trained parent.
    let dir = std::env::temp_dir().join("modelslicing-example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("parent.json");
    Checkpoint::capture(&mut model).save(&path).expect("save");
    println!("checkpointed parent to {}", path.display());

    // Extract standalone deployments at every width.
    let probe =
        Tensor::from_vec([1, 8], vec![0.2, -0.4, 0.9, 0.0, -0.7, 0.3, 0.5, -0.1]).expect("probe");
    model.set_slice_rate(SliceRate::FULL);
    let full_params = model.active_param_count();
    println!("\nwidth   params   vs-full   logits-match-parent");
    for r in rates.iter() {
        model.set_slice_rate(r);
        let want = model.forward(&probe, Mode::Infer);
        model.set_slice_rate(SliceRate::FULL);
        let mut small = model.deploy(r);
        let got = small.forward(&probe, Mode::Infer);
        let matches = want
            .data()
            .iter()
            .zip(got.data())
            .all(|(a, b)| (a - b).abs() < 1e-4);
        println!(
            "{:>5.2}  {:>7}   {:>6.1}%   {}",
            r.get(),
            small.active_param_count(),
            100.0 * small.active_param_count() as f64 / full_params as f64,
            if matches {
                "yes (bit-equivalent)"
            } else {
                "NO"
            },
        );
    }

    // Reload the checkpoint into a fresh parent and verify equivalence.
    let mut fresh = Mlp::new(model.config(), &mut rng);
    Checkpoint::load(&path)
        .expect("load")
        .apply(&mut fresh)
        .expect("apply");
    let a = model.forward(&probe, Mode::Infer);
    let b = fresh.forward(&probe, Mode::Infer);
    assert_eq!(a, b);
    println!("\ncheckpoint reload: logits identical ✓");
    let _ = std::fs::remove_file(&path);
}
