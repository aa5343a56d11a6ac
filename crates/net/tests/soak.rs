//! Multi-client soak: clients hammer one two-replica server concurrently,
//! then every correlation id must be answered exactly once, the server's
//! delivered count must equal the requests sent, and every wire logit must
//! be bitwise identical to an in-process [`Engine::replay`] of the same
//! inputs at the same rates. Four clients × 50 requests run by default
//! (the root package runs this file too, as `net_soak`, so the tier-1
//! suite exercises the server's rendezvous); the 16 × 250 soak is ignored
//! (`cargo test -p ms-net -- --ignored`).
//!
//! Why bitwise equality is a fair demand: each client blocks on its own
//! response, so at most 16 requests are outstanding and no server batch
//! exceeds 16 rows. At these sizes every layer's matmul stays on the
//! per-row small-GEMM path, whose accumulation order for row `i` depends
//! only on row `i` — so a request's logits are independent of its batch
//! companions, and the wire moves f32s as bit patterns. Any discrepancy
//! is a real bug (lost frame, payload corruption, id mix-up), not noise.

use ms_core::slice_rate::SliceRateList;
use ms_net::protocol::InferOutcome;
use ms_net::{Client, Router, Server, ServerConfig};
use ms_nn::layer::Layer;
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::sequential::Sequential;
use ms_nn::shared::SharedWeights;
use ms_serving::controller::{RatePolicy, SlaController};
use ms_serving::engine::{Engine, EngineConfig};
use ms_serving::profile::LatencyProfile;
use ms_serving::workload::WorkloadTrace;
use ms_tensor::{SeededRng, Tensor};
use std::collections::HashMap;
use std::time::Duration;

const IN_DIM: usize = 8;

fn net(seed: u64) -> Box<dyn Layer + Send> {
    let mut rng = SeededRng::new(seed);
    Box::new(
        Sequential::new("net")
            .push(Linear::new(
                "fc1",
                LinearConfig {
                    in_dim: IN_DIM,
                    out_dim: 32,
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
                    in_dim: 32,
                    out_dim: 4,
                    in_groups: Some(4),
                    out_groups: None,
                    bias: true,
                    input_rescale: true,
                },
                &mut rng,
            )),
    )
}

fn profile() -> LatencyProfile {
    LatencyProfile::quadratic(SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]), 1e-5)
}

/// A live engine for the server, or (`replayed`) the same engine on the
/// virtual clock for the in-process reference.
fn engine(weights: &SharedWeights, policy: RatePolicy, replayed: bool) -> Engine {
    let mut m = net(400);
    weights.hydrate(m.as_mut());
    let config = EngineConfig {
        // Wide window: the soak is about correctness under concurrency,
        // not tight SLAs, so capacity comfortably exceeds the load and
        // nothing sheds.
        latency: 0.05,
        headroom: 1.0,
        max_queue: 1_000_000,
        refine: false,
    };
    let controller = SlaController::new(profile(), policy);
    if replayed {
        Engine::start_virtual(config, controller, profile(), vec![m])
    } else {
        Engine::start(config, controller, vec![m])
    }
}

fn input_for(correlation_id: u64) -> Tensor {
    Tensor::full([IN_DIM], ((correlation_id % 251) as f32) * 0.008 - 1.0)
}

#[test]
fn four_clients_lose_nothing_and_match_replay_bitwise() {
    soak(4, 50);
}

#[test]
#[ignore = "multi-second soak; run with cargo test -p ms-net -- --ignored"]
fn sixteen_clients_lose_nothing_and_match_replay_bitwise() {
    soak(16, 250);
}

/// `clients` blocking clients send `per_client` requests each (at most 16
/// clients: see the module docs) through a server sealing every 1 ms.
fn soak(clients: u64, per_client: u64) {
    let mut proto = net(7);
    let weights = SharedWeights::capture(proto.as_mut());
    let engines = (0..2)
        .map(|_| engine(&weights, RatePolicy::Elastic, false))
        .collect();
    let server = Server::start(
        "127.0.0.1:0",
        Router::new(engines),
        ServerConfig {
            seal_interval: Some(Duration::from_millis(1)),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Each client has a disjoint correlation-id block. Blocking clients
    // self-clock the load: ≤ 16 outstanding ⇒ batches ≤ 16 rows.
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut got: Vec<(u64, f32, Vec<f32>)> = Vec::with_capacity(per_client as usize);
                for seq in 0..per_client {
                    let id = c * 1_000_000 + seq;
                    // Every other request carries an explicit (loose)
                    // deadline, exercising the per-request SLA field.
                    let deadline_micros = if seq % 2 == 0 { 0 } else { 200_000 };
                    let r = client
                        .infer(id, deadline_micros, &input_for(id))
                        .expect("infer");
                    assert_eq!(r.correlation_id, id, "response for the wrong request");
                    match r.outcome {
                        InferOutcome::Logits { data, .. } => got.push((id, r.rate_used, data)),
                        InferOutcome::Shed(reason) => {
                            panic!("unexpected shed {reason:?} for id {id}")
                        }
                    }
                }
                got
            })
        })
        .collect();

    let mut by_id: HashMap<u64, (f32, Vec<f32>)> = HashMap::new();
    for (c, w) in workers.into_iter().enumerate() {
        let got = w.join().expect("client thread");
        assert_eq!(got.len(), per_client as usize);
        for (id, rate, logits) in got {
            assert_eq!(id / 1_000_000, c as u64, "id from the wrong client block");
            assert!(
                by_id.insert(id, (rate, logits)).is_none(),
                "duplicate response for id {id}"
            );
        }
    }
    let total = (clients * per_client) as usize;
    assert_eq!(by_id.len(), total, "lost correlation ids");
    let delivered = server.drain();
    assert_eq!(
        delivered as usize, total,
        "delivered count vs requests sent"
    );

    // Reference: group by the rate the server actually used, then replay
    // each group's inputs through a fresh in-process engine fixed at that
    // rate, in ticks no larger than the server's batches (≤ 16 rows) so
    // both runs stay on the batch-independent small-GEMM path.
    let mut groups: HashMap<u32, Vec<u64>> = HashMap::new();
    for (&id, &(rate, _)) in &by_id {
        groups.entry(rate.to_bits()).or_default().push(id);
    }
    let rates = profile().list().clone();
    for (rate_bits, mut ids) in groups {
        let rate = f32::from_bits(rate_bits);
        let sr = rates
            .iter()
            .find(|sr| sr.get() == rate)
            .unwrap_or_else(|| panic!("server used rate {rate} not in the profile list"));
        ids.sort_unstable();
        let reference = engine(&weights, RatePolicy::Fixed(sr), true);
        let arrivals: Vec<usize> = ids.chunks(16).map(|c| c.len()).collect();
        let trace = WorkloadTrace {
            rates: arrivals.iter().map(|&n| n as f64).collect(),
            arrivals,
        };
        let ids_for_replay = ids.clone();
        let report = reference.replay(&trace, move |replay_id| {
            input_for(ids_for_replay[replay_id as usize])
        });
        reference.shutdown();
        assert_eq!(report.served, ids.len());
        for resp in &report.responses {
            assert_eq!(resp.rate, rate);
            let wire = &by_id[&ids[resp.id as usize]].1;
            let wire_bits: Vec<u32> = wire.iter().map(|x| x.to_bits()).collect();
            let ref_bits: Vec<u32> = resp.logits.data().iter().map(|x| x.to_bits()).collect();
            assert_eq!(
                wire_bits, ref_bits,
                "logits differ from in-process replay for id {} at rate {rate}",
                ids[resp.id as usize]
            );
        }
    }
}
