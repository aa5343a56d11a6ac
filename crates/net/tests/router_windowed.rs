//! Satellite-1 regression: the router's health score must be windowed,
//! not lifetime-cumulative.
//!
//! The original `health_score` read `counters().p99_service` — the
//! lifetime percentile of the service histogram — so a replica that
//! served one slow era scored unhealthy *forever*: no amount of fast
//! recent batches could dilute an hour of bad history out of a
//! cumulative p99. With the windowed-delta tracker the score reflects
//! only batches served since the previous refresh, and placement adapts
//! within one refresh window of a load shift.

use ms_core::slice_rate::SliceRateList;
use ms_net::{Router, RouterConfig};
use ms_nn::layer::Layer;
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::shared::SharedWeights;
use ms_serving::controller::{RatePolicy, SlaController};
use ms_serving::engine::{Engine, EngineConfig};
use ms_serving::profile::LatencyProfile;
use ms_tensor::{SeededRng, Tensor};
use std::time::Duration;

const IN_DIM: usize = 8;

fn engine(weights: &SharedWeights) -> Engine {
    let profile =
        LatencyProfile::quadratic(SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]), 1e-5);
    let mut m: Box<dyn Layer + Send> = Box::new(Linear::new(
        "fc",
        LinearConfig {
            in_dim: IN_DIM,
            out_dim: 4,
            in_groups: None,
            out_groups: None,
            bias: true,
            input_rescale: true,
        },
        &mut SeededRng::new(7),
    ));
    weights.hydrate(m.as_mut());
    Engine::start(
        EngineConfig {
            latency: 2e-3,
            headroom: 1.0,
            max_queue: 10_000,
            refine: false,
        },
        SlaController::new(profile, RatePolicy::Elastic),
        vec![m],
    )
}

fn router() -> Router {
    let mut proto: Box<dyn Layer + Send> = Box::new(Linear::new(
        "fc",
        LinearConfig {
            in_dim: IN_DIM,
            out_dim: 4,
            in_groups: None,
            out_groups: None,
            bias: true,
            input_rescale: true,
        },
        &mut SeededRng::new(7),
    ));
    let weights = SharedWeights::capture(proto.as_mut());
    Router::with_config(
        vec![engine(&weights), engine(&weights)],
        RouterConfig {
            p99_weight: 32.0,
            // Refresh on every placement so "one window" is one call.
            p99_refresh_every: 1,
        },
    )
}

fn input() -> Tensor {
    Tensor::full([IN_DIM], 0.25)
}

/// A slow era must stop repelling traffic once it leaves the window.
#[test]
fn health_score_recovers_within_one_window_after_load_shift() {
    let r = router();

    // Poison replica 0 with a slow era recorded into its service
    // histogram (as if its batches had been missing the budget).
    let h0 = r.engine(0).service_histogram();
    for _ in 0..100 {
        h0.record(1.0);
    }
    let poisoned = r.health_score(0);
    // p99 term: 32 · 1.0 / 1e-3 window — enormous versus an empty queue.
    assert!(poisoned > 1_000.0, "poisoned score {poisoned}");

    // Load shifts: the replica now serves fast batches. One refresh
    // window later the score must be back near healthy — under the old
    // lifetime p99 it would still be >1000 here (100 slow samples pin a
    // cumulative p99 at 1.0 s until ~10k fast ones dilute them).
    for _ in 0..50 {
        h0.record(1e-4);
    }
    let recovered = r.health_score(0);
    assert!(
        recovered < poisoned / 100.0,
        "score did not recover within one window: {recovered} (was {poisoned})"
    );

    // And with no traffic at all, empty windows decay the cache toward
    // zero instead of freezing the last bad value.
    let mut last = recovered;
    for _ in 0..8 {
        let s = r.health_score(0);
        assert!(s <= last + 1e-9, "decay not monotone: {s} after {last}");
        last = s;
    }
    assert!(
        last < recovered.max(1e-6),
        "stale p99 never decayed: {last}"
    );
}

/// Placement follows the shift: traffic avoids the slow replica, then
/// returns to it when the slowness moves to the other one.
#[test]
fn placement_adapts_after_load_shift() {
    let r = router();
    let place = |n: usize| -> (usize, usize) {
        let mut counts = (0, 0);
        for _ in 0..n {
            let (i, _id) = r.route(input()).expect("route");
            match i {
                0 => counts.0 += 1,
                _ => counts.1 += 1,
            }
        }
        r.drain_all();
        for i in 0..r.replicas() {
            let _ = r.engine(i).wait_events(Duration::ZERO);
        }
        counts
    };

    // Era 1: replica 0 is slow.
    let h0 = r.engine(0).service_histogram();
    let h1 = r.engine(1).service_histogram();
    for _ in 0..100 {
        h0.record(1.0);
    }
    let (to0, to1) = place(20);
    assert!(
        to1 > to0,
        "era 1 placement ({to0}, {to1}) ignored slow replica 0"
    );

    // Era 2: the load shifts — replica 0 recovers, replica 1 turns slow.
    for _ in 0..100 {
        h0.record(1e-4);
    }
    for _ in 0..100 {
        h1.record(1.0);
    }
    let (to0, to1) = place(20);
    assert!(
        to0 > to1,
        "era 2 placement ({to0}, {to1}) did not adapt to the shift"
    );
}
