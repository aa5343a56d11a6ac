//! Quickstart: train a small sliceable MLP with Algorithm 1, then serve it
//! at several widths and under an explicit FLOPs budget.
//!
//! Run with: `cargo run --release --example quickstart`

use modelslicing::prelude::*;
use modelslicing::slicing::inference::ElasticEngine;
use modelslicing::slicing::trainer::Batch;

fn main() {
    let mut rng = SeededRng::new(42);

    // A 2-class "two moons"-ish toy problem.
    let make_batch = |rng: &mut SeededRng, n: usize| -> Batch {
        let mut xs = Vec::with_capacity(n * 2);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.uniform(-1.0, 1.0);
            let b = rng.uniform(-1.0, 1.0);
            xs.push(a);
            xs.push(b);
            ys.push(usize::from(a * a + b * b > 0.5));
        }
        Batch {
            x: Tensor::from_vec([n, 2], xs).expect("batch"),
            y: ys,
        }
    };
    let train: Vec<Batch> = (0..32).map(|_| make_batch(&mut rng, 32)).collect();
    let test: Vec<Batch> = (0..8).map(|_| make_batch(&mut rng, 64)).collect();

    // 1. Build a sliceable model: hidden layers divided into 4 width groups.
    let mut model = modelslicing::models::mlp::Mlp::new(
        &modelslicing::models::mlp::MlpConfig {
            input_dim: 2,
            hidden_dims: vec![32, 32],
            num_classes: 2,
            groups: 4,
            dropout: 0.0,
            input_rescale: true,
        },
        &mut rng,
    );

    // 2. Train with Algorithm 1: the scheduler draws a list of slice rates
    //    per iteration; gradients accumulate across the scheduled subnets.
    let rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let scheduler = Scheduler::new(SchedulerKind::RandomMinMax, rates.clone(), &mut rng);
    let mut trainer = Trainer::new(scheduler, TrainerConfig::default());
    for epoch in 0..40 {
        let stats = trainer.train_epoch(&mut model, &train);
        if epoch % 10 == 0 {
            println!("epoch {epoch:>2}: mean subnet loss {:.4}", stats.mean_loss);
        }
    }

    // 3. One model, many widths: evaluate every subnet.
    println!("\naccuracy per slice rate:");
    for r in rates.iter() {
        let (_, acc) = trainer.evaluate(&mut model, &test, r);
        model.set_slice_rate(r);
        println!(
            "  rate {:.2}: accuracy {:.1}%  ({} MACs/sample, {} active params)",
            r.get(),
            acc * 100.0,
            model.flops_per_sample(),
            model.active_param_count()
        );
        model.set_slice_rate(SliceRate::FULL);
    }

    // 4. Budgeted inference (Eq. 3): give the engine a FLOPs budget and let
    //    it pick the widest affordable subnet per query.
    let cost = CostModel::measure(&mut model, rates);
    let engine = ElasticEngine::new(cost);
    let query = Tensor::from_vec([1, 2], vec![0.9, 0.1]).expect("query");
    for budget in [engine.cost().full_flops(), engine.cost().full_flops() / 4] {
        let (logits, used) = engine.predict_with_budget(&mut model, &query, FlopsBudget(budget));
        println!(
            "\nbudget {budget} MACs → served at rate {:.2}, logits {:?}",
            used.get(),
            logits.data()
        );
    }
}
