//! Elastic serving under a bursty workload (paper §4.1).
//!
//! Replays the paper's deployment story through the serving engine: a query
//! stream whose rate spikes 9×, a latency constraint `T`, batches formed
//! every `T/2`, and a controller that picks the slice rate per batch via
//! `n·r²·t ≤ T/2`. Compares against the coarse degradation policies the
//! paper criticises, and checks that slicing scores best.
//!
//! Run with: `cargo run --release --example elastic_serving`

use modelslicing::models::mlp::{Mlp, MlpConfig};
use modelslicing::serving::{
    AccuracyTable, Engine, EngineConfig, LatencyProfile, RatePolicy, SlaController, WorkloadConfig,
    WorkloadTrace,
};
use modelslicing::slicing::slice_rate::{SliceRate, SliceRateList};
use modelslicing::tensor::{SeededRng, Tensor};

fn main() {
    // Accuracy-per-width of a trained sliced model. These are the measured
    // numbers from the fig5_table4 experiment; substitute your own model's
    // sweep in a real deployment (see `crates/experiments`).
    let rates = SliceRateList::paper_cifar();
    let table = AccuracyTable::new(
        rates.clone(),
        vec![0.9375, 0.9525, 0.9725, 0.9900, 0.9925, 0.9950],
    );

    // Singles'-Day-style workload: diurnal swing plus 9× flash crowds.
    // Peaks land near the base subnet's capacity (≈ 7× the full model's) —
    // the §4.1 regime where fine-grained degradation shines. Beyond that
    // (say 16× spikes) even the base subnet overflows and an ultra-cheap
    // model swap wins on raw throughput; see tests/serving_sla.rs for that
    // boundary case.
    let trace = WorkloadTrace::generate(&WorkloadConfig {
        ticks: 2000,
        base_rate: 8.0,
        diurnal_amplitude: 2.0,
        diurnal_period: 400,
        spike_prob: 0.004,
        spike_multiplier: 9.0,
        spike_len: 30,
        seed: 7,
    });
    println!(
        "workload: {} queries, volatility {:.1}x",
        trace.total(),
        trace.volatility()
    );

    // Latency constraint 40 ms; the full model needs 1 ms per sample and a
    // slice at rate r costs r² of that (Eq. 3). Each policy replays the
    // trace through a small sliced MLP on the engine's virtual clock, where
    // a pass costs what that law says.
    let t_full = 1e-3;
    let law = LatencyProfile::quadratic(rates.clone(), t_full);
    // The swap to a cheap model (5 % of the cost, 72 % accuracy) is elastic
    // width over {r_min, 1}: the r_min pass stands in for the cheap model.
    let cheap = SliceRateList::from_rates(&[rates.min().get(), 1.0]);
    let swap = LatencyProfile::new(cheap.clone(), vec![0.05 * t_full, t_full], 0.0);
    let scored = AccuracyTable::new(cheap, vec![0.72, table.at(SliceRate::FULL)]);
    let fixed = RatePolicy::Fixed(SliceRate::FULL);
    let base = RatePolicy::FixedShedding(rates.min());
    let drop = RatePolicy::FixedShedding(SliceRate::FULL);
    let elastic = RatePolicy::Elastic;
    let mut accuracies = Vec::new();
    for (name, policy, profile, scores) in [
        ("fixed full-width model ", fixed, &law, &table),
        ("fixed base-width model ", base, &law, &table),
        ("swap to cheap model    ", elastic, &swap, &scored),
        ("drop excess candidates ", drop, &law, &table),
        ("model slicing (elastic)", elastic, &law, &table),
    ] {
        let replica = Mlp::new(
            &MlpConfig {
                input_dim: 16,
                hidden_dims: vec![48, 48],
                num_classes: 8,
                groups: 8,
                dropout: 0.0,
                input_rescale: true,
            },
            &mut SeededRng::new(11),
        );
        let engine = Engine::start_virtual(
            EngineConfig {
                latency: 0.04,
                headroom: 1.0,
                max_queue: usize::MAX / 2,
                refine: false,
            },
            SlaController::new(profile.clone(), policy),
            profile.clone(),
            vec![Box::new(replica)],
        );
        let r = engine.replay(&trace, |id| {
            Tensor::full([16], ((id % 31) as f32) * 0.06 - 0.9)
        });
        engine.shutdown();
        // Shed and late answers score 0.
        let accuracy = r.effective_accuracy(scores);
        println!(
            "{name}: served {:>6}/{:<6} shed {:>5} late {:>5}  eff-accuracy {:>5.1}%",
            r.served,
            r.arrived,
            r.shed,
            r.late,
            accuracy * 100.0
        );
        accuracies.push(accuracy);
    }
    // Model slicing, the last row, scores best.
    let (slicing, others) = accuracies.split_last().expect("five rows");
    assert!(others.iter().all(|a| a < slicing), "{accuracies:?}");
}
