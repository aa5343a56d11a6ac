//! Checkpoint round-trip regression: a trained sliced model serialised to
//! JSON and reloaded into a freshly initialised network must produce
//! bitwise-equal logits at every candidate slice rate.

use modelslicing::models::mlp::{Mlp, MlpConfig};
use modelslicing::nn::checkpoint::Checkpoint;
use modelslicing::prelude::*;
use modelslicing::slicing::trainer::Batch;

fn mlp_config() -> MlpConfig {
    MlpConfig {
        input_dim: 10,
        hidden_dims: vec![24, 24],
        num_classes: 3,
        groups: 4,
        dropout: 0.0,
        input_rescale: true,
    }
}

/// A few Algorithm-1 steps on synthetic data, enough to move every
/// parameter well away from its initialisation.
fn train_briefly(model: &mut Mlp, rng: &mut SeededRng) {
    let rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let scheduler = Scheduler::new(SchedulerKind::Static, rates, rng);
    let mut trainer = Trainer::new(scheduler, TrainerConfig::default());
    for step in 0..20 {
        let x =
            Tensor::from_vec([16, 10], (0..160).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap();
        let y = (0..16).map(|i| (i + step) % 3).collect();
        trainer.step(model, &Batch { x, y });
    }
}

#[test]
fn reloaded_checkpoint_reproduces_logits_at_every_rate() {
    let mut rng = SeededRng::new(31);
    let mut trained = Mlp::new(&mlp_config(), &mut rng);
    train_briefly(&mut trained, &mut rng);

    let path = std::env::temp_dir().join(format!("ms_ckpt_roundtrip_{}.json", std::process::id()));
    Checkpoint::capture(&mut trained)
        .save(&path)
        .expect("save checkpoint");

    // A fresh model from a different seed: every weight starts different.
    let mut reloaded = Mlp::new(&mlp_config(), &mut SeededRng::new(777));
    Checkpoint::load(&path)
        .expect("load checkpoint")
        .apply(&mut reloaded)
        .expect("apply checkpoint");
    let _ = std::fs::remove_file(&path);

    let x = Tensor::from_vec([8, 10], (0..80).map(|i| (i as f32 * 0.713).sin()).collect()).unwrap();
    for &r in &[0.25f32, 0.5, 0.75, 1.0] {
        let rate = SliceRate::new(r);
        trained.set_slice_rate(rate);
        reloaded.set_slice_rate(rate);
        let a = trained.forward(&x, Mode::Infer);
        let b = reloaded.forward(&x, Mode::Infer);
        assert_eq!(a, b, "rate {r}: logits diverge after JSON round-trip");
    }
}
