//! Cross-thread determinism of the real serving engine.
//!
//! The engine's contract: replaying the same trace against the same weights
//! and the same (fixed) latency profile yields **bitwise-identical** logits
//! per request, regardless of how many worker threads execute the batches.
//! Three properties conspire to make this hold, and this test locks all of
//! them in at once:
//!
//! 1. batch composition is a pure function of the trace (one seal per tick),
//! 2. the SLA controller's rate choice is a pure function of `(n, budget)`,
//! 3. a GEMM output row depends only on its own input row and the weights,
//!    with fixed-order accumulation — a request's logits are independent of
//!    its batch companions and of which worker ran the batch.

use modelslicing::models::mlp::{Mlp, MlpConfig};
use modelslicing::nn::layer::Layer;
use modelslicing::nn::shared::SharedWeights;
use modelslicing::serving::engine::{Engine, EngineConfig, ReplayReport};
use modelslicing::serving::{LatencyProfile, SlaController, WorkloadConfig, WorkloadTrace};
use modelslicing::slicing::slice_rate::SliceRateList;
use modelslicing::tensor::{SeededRng, Tensor};

const INPUT_DIM: usize = 12;

fn mlp_config() -> MlpConfig {
    MlpConfig {
        input_dim: INPUT_DIM,
        hidden_dims: vec![32, 32],
        num_classes: 5,
        groups: 4,
        dropout: 0.0,
        input_rescale: true,
    }
}

/// A spiky trace that drives the controller through several widths.
fn trace() -> WorkloadTrace {
    WorkloadTrace::generate(&WorkloadConfig {
        ticks: 120,
        base_rate: 30.0,
        diurnal_amplitude: 2.5,
        diurnal_period: 40,
        spike_prob: 0.05,
        spike_multiplier: 16.0,
        spike_len: 8,
        seed: 42,
    })
}

/// Deterministic per-request input, derived only from the request id.
fn input_for(id: u64) -> Tensor {
    let data = (0..INPUT_DIM)
        .map(|j| (id as f32 * 0.7312 + j as f32 * 1.177).sin())
        .collect();
    Tensor::from_vec([INPUT_DIM], data).unwrap()
}

fn replay_with_workers(workers: usize, weights: &SharedWeights) -> ReplayReport {
    let replicas = (0..workers)
        .map(|i| {
            // Deliberately different init seeds per replica: hydration from
            // the shared snapshot must erase every trace of them.
            let mut rng = SeededRng::new(1000 + i as u64);
            let mut m = Mlp::new(&mlp_config(), &mut rng);
            weights.hydrate(&mut m);
            Box::new(m) as Box<dyn Layer + Send>
        })
        .collect();
    // A fixed analytic profile, NOT a calibrated one: calibration times real
    // hardware and would give the two engines different batching decisions.
    let profile =
        LatencyProfile::quadratic(SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]), 1e-4);
    // On the virtual clock a pass costs exactly what the plan says, so no
    // batch waits, dispatch-time binding moves nothing and every request
    // runs at its planned rate whatever the worker count.
    let engine = Engine::start_virtual(
        EngineConfig {
            latency: 0.02,
            headroom: 1.0,
            max_queue: usize::MAX / 2,
            refine: false,
        },
        SlaController::elastic(profile.clone()),
        profile,
        replicas,
    );
    let report = engine.replay(&trace(), input_for);
    engine.shutdown();
    report
}

#[test]
fn one_worker_and_four_workers_produce_bitwise_identical_logits() {
    let mut rng = SeededRng::new(7);
    let mut proto = Mlp::new(&mlp_config(), &mut rng);
    let weights = SharedWeights::capture(&mut proto);

    let solo = replay_with_workers(1, &weights);
    let pool = replay_with_workers(4, &weights);

    // Nothing late and nothing rebound on either pool…
    for r in [&solo, &pool] {
        assert_eq!((r.late, r.counters.rebound), (0, 0));
    }
    // …identical admission decisions…
    assert_eq!(solo.served, pool.served);
    assert_eq!(solo.shed, pool.shed);
    assert!(solo.served > 0, "trace produced no served requests");

    // …and bitwise-identical results per request.
    assert_eq!(solo.responses.len(), pool.responses.len());
    for (a, b) in solo.responses.iter().zip(&pool.responses) {
        assert_eq!(a.id, b.id);
        assert_eq!(
            a.rate, b.rate,
            "request {} served at different widths",
            a.id
        );
        assert_eq!(a.batch_seq, b.batch_seq);
        assert_eq!(
            a.logits, b.logits,
            "request {} logits differ across worker counts",
            a.id
        );
    }

    // The trace must actually have exercised elasticity, or the test proves
    // nothing about rate-dependent batching.
    let widths = pool.counters.rate_histogram.len();
    assert!(
        widths >= 2,
        "trace only used {widths} width(s): {:?}",
        pool.counters.rate_histogram
    );
}
