//! Figure-8 prediction consistency, as an integration test.
//!
//! The paper's Fig. 8 observation: subnets of one model trained with
//! Algorithm 1 make *consistent* predictions — a narrow subnet mostly agrees
//! with the full network, and agreement grows with width. That property (not
//! raw accuracy) is what makes elastic serving safe: degrading the width
//! under load changes few answers, it does not swap in a different model.
//!
//! Here we train a small sliced MLP on separable synthetic clusters and
//! measure top-1 agreement between each subnet and the full network.

use modelslicing::models::mlp::{Mlp, MlpConfig};
use modelslicing::prelude::*;
use modelslicing::slicing::trainer::Batch;

const INPUT_DIM: usize = 16;
const CLASSES: usize = 4;

/// One random centre per class, drawn once and shared by the train and test
/// splits (both must sample the *same* clusters).
fn centres(rng: &mut SeededRng) -> Vec<Vec<f32>> {
    (0..CLASSES)
        .map(|_| (0..INPUT_DIM).map(|_| rng.uniform(-1.0, 1.0)).collect())
        .collect()
}

/// Gaussian-ish clusters: samples are centre + uniform noise. Separable
/// enough that the MLP learns it quickly, noisy enough that subnet decisions
/// are not all trivially equal.
fn dataset(
    centres: &[Vec<f32>],
    n: usize,
    noise: f32,
    rng: &mut SeededRng,
) -> (Tensor, Vec<usize>) {
    let mut data = Vec::with_capacity(n * INPUT_DIM);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let c = i % CLASSES;
        labels.push(c);
        for &centre in &centres[c][..INPUT_DIM] {
            data.push(centre + rng.uniform(-noise, noise));
        }
    }
    (Tensor::from_vec([n, INPUT_DIM], data).unwrap(), labels)
}

fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    let dims = logits.dims();
    assert_eq!(dims.len(), 2, "expected [N, C] logits, got {dims:?}");
    let (n, c) = (dims[0], dims[1]);
    (0..n)
        .map(|i| {
            (0..c)
                .max_by(|&a, &b| {
                    logits
                        .at(&[i, a])
                        .partial_cmp(&logits.at(&[i, b]))
                        .expect("finite logits")
                })
                .expect("nonempty row")
        })
        .collect()
}

#[test]
fn subnet_predictions_agree_with_full_net_and_agreement_grows_with_width() {
    let mut rng = SeededRng::new(21);
    let cs = centres(&mut rng);
    let (train_x, train_y) = dataset(&cs, 320, 1.4, &mut rng);
    let (test_x, test_y) = dataset(&cs, 240, 1.4, &mut rng);

    let mut model = Mlp::new(
        &MlpConfig {
            input_dim: INPUT_DIM,
            hidden_dims: vec![32, 32],
            num_classes: CLASSES,
            groups: 4,
            dropout: 0.0,
            input_rescale: true,
        },
        &mut rng,
    );

    // Algorithm 1 with the static scheme: every candidate rate trained each
    // step, so all subnets learn jointly from the same gradients.
    let rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let scheduler = Scheduler::new(SchedulerKind::Static, rates.clone(), &mut rng);
    let mut trainer = Trainer::new(scheduler, TrainerConfig::default());
    let batch = Batch {
        x: train_x,
        y: train_y,
    };
    for _ in 0..150 {
        trainer.step(&mut model, &batch);
    }

    model.set_slice_rate(SliceRate::FULL);
    let full_pred = argmax_rows(&model.forward(&test_x, Mode::Infer));

    let mut agreements = Vec::new();
    let mut accuracies = Vec::new();
    for r in rates.iter() {
        model.set_slice_rate(r);
        let pred = argmax_rows(&model.forward(&test_x, Mode::Infer));
        let agree =
            pred.iter().zip(&full_pred).filter(|(a, b)| a == b).count() as f64 / pred.len() as f64;
        let acc =
            pred.iter().zip(&test_y).filter(|(a, b)| a == b).count() as f64 / pred.len() as f64;
        agreements.push((r.get(), agree));
        accuracies.push((r.get(), acc));
    }

    // The model must actually have learned the task — otherwise agreement
    // between untrained subnets would be vacuous.
    for &(r, acc) in &accuracies {
        assert!(
            acc > 0.6,
            "rate {r}: accuracy {acc:.3} near chance: {accuracies:?}"
        );
    }

    // Full rate agrees with itself exactly.
    assert_eq!(agreements.last().unwrap().1, 1.0);
    // Every subnet is highly consistent with the full network…
    for &(r, a) in &agreements {
        assert!(
            a >= 0.85,
            "rate {r}: agreement {a:.3} too low: {agreements:?}"
        );
    }
    // …and consistency does not decrease as width grows (small tolerance
    // for individual flipped test points).
    for w in agreements.windows(2) {
        assert!(
            w[1].1 >= w[0].1 - 0.05,
            "agreement not monotone in width: {agreements:?}"
        );
    }
}
