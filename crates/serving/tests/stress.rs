//! Soak test: hammer the engine from many producer threads while a sealer
//! thread closes batches, and verify the engine neither deadlocks nor loses
//! a request — every submission is either served or counted as shed.
//!
//! Ignored by default (it runs for several wall-clock seconds); run with
//! `cargo test -p ms-serving --test stress -- --ignored`.

use ms_core::slice_rate::SliceRateList;
use ms_nn::layer::Layer;
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::sequential::Sequential;
use ms_nn::shared::SharedWeights;
use ms_serving::engine::{Engine, EngineConfig};
use ms_serving::profile::LatencyProfile;
use ms_serving::SlaController;
use ms_tensor::{SeededRng, Tensor};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 16;
const PRODUCERS: usize = 8;
const WORKERS: usize = 4;
const SOAK: Duration = Duration::from_secs(5);

fn replica_proto() -> Box<dyn Layer + Send> {
    let mut rng = SeededRng::new(1);
    Box::new(
        Sequential::new("soak")
            .push(Linear::new(
                "fc1",
                LinearConfig {
                    in_dim: DIM,
                    out_dim: 64,
                    in_groups: None,
                    out_groups: Some(4),
                    bias: true,
                    input_rescale: true,
                },
                &mut rng,
            ))
            .push(Linear::new(
                "fc2",
                LinearConfig {
                    in_dim: 64,
                    out_dim: 8,
                    in_groups: Some(4),
                    out_groups: None,
                    bias: true,
                    input_rescale: true,
                },
                &mut rng,
            )),
    )
}

fn replica(weights: &SharedWeights) -> Box<dyn Layer + Send> {
    let mut net = replica_proto();
    weights.hydrate(net.as_mut());
    net
}

#[test]
#[ignore = "multi-second soak; run explicitly with -- --ignored"]
fn eight_producers_five_seconds_no_deadlock_no_lost_requests() {
    let weights = {
        let mut proto = replica_proto();
        SharedWeights::capture(proto.as_mut())
    };
    let profile =
        LatencyProfile::quadratic(SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]), 2e-6);
    let engine = Arc::new(Engine::start(
        EngineConfig {
            latency: 4e-3,
            headroom: 0.8,
            max_queue: 2048,
            refine: false,
        },
        SlaController::elastic(profile),
        (0..WORKERS).map(|_| replica(&weights)).collect(),
    ));

    let stop = Arc::new(AtomicBool::new(false));
    let offered = Arc::new(AtomicU64::new(0));

    // Producers: submit as fast as the engine accepts, count every offer.
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let offered = Arc::clone(&offered);
            std::thread::spawn(move || {
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = (p as f32 + local as f32 * 0.001).sin();
                    let _ = engine.submit(Tensor::full([DIM], v));
                    local += 1;
                    if local.is_multiple_of(256) {
                        std::thread::yield_now();
                    }
                }
                offered.fetch_add(local, Ordering::Relaxed);
            })
        })
        .collect();

    // Sealer: close a batch every ~1 ms and keep the response log drained so
    // memory stays bounded over the soak.
    let responded = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut responded = 0u64;
            while !stop.load(Ordering::Relaxed) {
                engine.seal();
                for r in engine.wait_events(Duration::ZERO).0 {
                    r.logits.recycle();
                    responded += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            responded
        })
    };

    let t0 = Instant::now();
    std::thread::sleep(SOAK);
    stop.store(true, Ordering::Relaxed);
    for p in producers {
        p.join().expect("producer panicked");
    }
    let mut responded = responded.join().expect("sealer panicked");

    // Flush what is still queued, then reconcile the books.
    engine.seal();
    engine.drain();
    responded += engine.wait_events(Duration::ZERO).0.len() as u64;
    let c = engine.counters();
    assert_eq!(
        c.submitted,
        offered.load(Ordering::Relaxed),
        "engine missed submissions"
    );
    assert_eq!(
        c.served + c.shed,
        c.submitted,
        "requests lost: served {} + shed {} != submitted {}",
        c.served,
        c.shed,
        c.submitted
    );
    assert_eq!(c.served, responded, "served counter vs responses taken");
    assert!(c.batches > 0 && c.served > 0, "engine did no work");
    assert!(
        t0.elapsed() < SOAK + Duration::from_secs(30),
        "drain took pathologically long — likely a livelock"
    );
    Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("engine still referenced"))
        .shutdown();
}
