//! An engine worker's buffer pool holds only what the worker draws.
//!
//! Request tensors are the submitter's storage (a decoded frame, a caller's
//! `Vec`), not anything a pool lent: the engine drops them when a batch is
//! done or shed. Recycled into the worker's pool instead, they would fill
//! it with a size it never draws and evict once per request. This binary
//! runs alone so the process-wide `tensor_pool_evictions_total` counter
//! and `tensor_pool_bytes` gauge see only this engine and this thread.

use ms_core::slice_rate::SliceRateList;
use ms_models::mlp::{Mlp, MlpConfig};
use ms_serving::engine::{Engine, EngineConfig};
use ms_serving::profile::LatencyProfile;
use ms_serving::SlaController;
use ms_tensor::{pool, SeededRng, Tensor};
use std::time::Duration;

const DIM: usize = 64;

#[test]
fn serving_two_hundred_requests_evicts_nothing_from_any_pool() {
    pool::stats(); // registers the pool's series under their own help
    let reg = ms_telemetry::global();
    let evictions = reg.counter("tensor_pool_evictions_total", "");
    let pooled = reg.gauge("tensor_pool_bytes", "");
    let before = evictions.get();

    let mut rng = SeededRng::new(3);
    let net = Mlp::new(
        &MlpConfig {
            input_dim: DIM,
            hidden_dims: vec![64],
            num_classes: 8,
            groups: 4,
            dropout: 0.0,
            input_rescale: true,
        },
        &mut rng,
    );
    let profile =
        LatencyProfile::quadratic(SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]), 1e-6);
    let engine = Engine::start(
        EngineConfig {
            latency: 0.5,
            headroom: 1.0,
            max_queue: 1024,
            refine: false,
        },
        SlaController::elastic(profile),
        vec![Box::new(net)],
    );

    // Batches of 1, 2, …, 20: 210 requests, every batch a new size record.
    let mut served = 0;
    for batch in 1..=20 {
        for _ in 0..batch {
            let x = Tensor::from_vec([DIM], (0..DIM).map(|_| rng.uniform(-1.0, 1.0)).collect());
            engine.submit(x.unwrap()).expect("the queue has room");
        }
        engine.seal();
        let mut got = 0;
        while got < batch {
            let (responses, shed) = engine.wait_events(Duration::from_secs(10));
            assert!(shed.is_empty(), "shed {shed:?}");
            assert!(!responses.is_empty(), "no response in 10 s");
            got += responses.len();
        }
        served += got;
    }
    assert!(served >= 200);
    // Joining the worker publishes its pool's last counts and takes its
    // free list out of the gauge; `stats` publishes this thread's.
    engine.shutdown();
    pool::stats();

    assert_eq!(
        evictions.get(),
        before,
        "a pool evicted while the engine served {served} requests"
    );
    assert_eq!(pooled.get(), pool::pooled_bytes() as f64);
}
