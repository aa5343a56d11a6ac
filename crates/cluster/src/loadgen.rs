//! Open-loop load generator: drives the front router at a fixed arrival
//! schedule and measures what a *client* would measure.
//!
//! Open-loop means arrivals do not wait for completions — tick `t`'s
//! requests go out at `t0 + t·tick` whether or not earlier ones have
//! settled, exactly like real traffic. (A closed-loop generator slows
//! down when the system does, which hides overload — coordinated
//! omission.) The generator judges deadline hits client-side from its
//! own send timestamps, not from what the server claims, and accounts
//! every correlation id: delivered, shed (with cause), or — the failure
//! the report would expose — lost.

use crate::cluster::Cluster;
use ms_net::protocol::{InferOutcome, InferResponse, WireShedReason};
use ms_serving::workload::WorkloadTrace;
use ms_tensor::Tensor;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Wall-clock length of one trace tick (one batching window, T/2).
    pub tick: Duration,
    /// Per-request wire deadline (0 = the shard's configured SLA).
    pub deadline_micros: u64,
    /// Client-judged deadline: a delivered response whose send→settle
    /// latency is within this counts as a hit. Deliberately generous
    /// relative to the SLA — it charges queueing, the wire, and failover
    /// disruption, not scheduler jitter.
    pub client_deadline: Duration,
    /// Run one cluster control tick every this many trace ticks.
    pub control_every: usize,
    /// How long to wait for stragglers after the last arrival.
    pub settle_timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            tick: Duration::from_millis(10),
            deadline_micros: 0,
            client_deadline: Duration::from_millis(250),
            control_every: 25,
            settle_timeout: Duration::from_secs(5),
        }
    }
}

/// What one trace run did, client-judged.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests dispatched (one per trace arrival).
    pub sent: u64,
    /// Requests that came back with logits.
    pub delivered: u64,
    /// Delivered within the client deadline.
    pub deadline_hits: u64,
    /// Shed by a shard (admission/backpressure/drain causes).
    pub shed: u64,
    /// Settled as `Shed(Failover)` — orphaned by a shard death.
    pub failover_shed: u64,
    /// Sent but never settled: always 0 unless accounting is broken.
    pub lost: u64,
    /// Fleet core-seconds consumed (shard-process-seconds × replicas).
    pub core_seconds: f64,
    /// Wall-clock seconds from first arrival to last settlement.
    pub wall_s: f64,
    /// Largest fleet size observed during the run.
    pub peak_shards: usize,
}

impl LoadgenReport {
    /// The headline: client-judged deadline hits per core-second. An
    /// elastic fleet wins by spending cores only while they buy hits.
    pub fn hits_per_core_second(&self) -> f64 {
        if self.core_seconds <= 0.0 {
            return 0.0;
        }
        self.deadline_hits as f64 / self.core_seconds
    }
}

/// Runs `trace` against `cluster` open-loop and returns the report.
/// `chaos` is called once per trace tick (with the tick index) before
/// that tick's arrivals — the hook the kill-a-shard test uses; pass
/// `|_| {}` for a plain run.
pub fn run_trace(
    cluster: &mut Cluster,
    trace: &WorkloadTrace,
    cfg: &LoadgenConfig,
    mut chaos: impl FnMut(&mut Cluster, usize),
) -> LoadgenReport {
    assert!(cfg.control_every > 0);
    let input = probe_input(cluster.input_dim());
    let mut in_flight: HashMap<u64, Instant> = HashMap::new();
    let mut next_id: u64 = 1;
    let mut report = LoadgenReport {
        sent: 0,
        delivered: 0,
        deadline_hits: 0,
        shed: 0,
        failover_shed: 0,
        lost: 0,
        core_seconds: 0.0,
        wall_s: 0.0,
        peak_shards: cluster.shard_count(),
    };
    let mut settle = |resp: InferResponse, in_flight: &mut HashMap<u64, Instant>| {
        let Some(sent_at) = in_flight.remove(&resp.correlation_id) else {
            return; // duplicate or stale — never counted twice
        };
        match resp.outcome {
            InferOutcome::Logits { .. } => {
                report.delivered += 1;
                if sent_at.elapsed() <= cfg.client_deadline {
                    report.deadline_hits += 1;
                }
            }
            InferOutcome::Shed(WireShedReason::Failover) => report.failover_shed += 1,
            InferOutcome::Shed(_) => report.shed += 1,
        }
    };

    let t0 = Instant::now();
    for (t, &n) in trace.arrivals.iter().enumerate() {
        chaos(cluster, t);
        if t % cfg.control_every == 0 {
            cluster.control_tick();
            report.peak_shards = report.peak_shards.max(cluster.shard_count());
        }
        // Open loop: wait for this tick's scheduled instant, pumping
        // completions while we wait (never pushing the schedule back).
        let due = t0 + cfg.tick * t as u32;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            for resp in cluster
                .router_mut()
                .pump((due - now).min(Duration::from_millis(2)))
            {
                settle(resp, &mut in_flight);
            }
        }
        for _ in 0..n {
            let id = next_id;
            next_id += 1;
            report.sent += 1;
            in_flight.insert(id, Instant::now());
            if let Some(shed) = cluster
                .router_mut()
                .dispatch(id, cfg.deadline_micros, &input)
            {
                settle(shed, &mut in_flight);
            }
        }
        cluster.router_mut().flush();
        for resp in cluster.router_mut().pump(Duration::ZERO) {
            settle(resp, &mut in_flight);
        }
    }

    // Settle phase: everything sent must come back, one way or another.
    let deadline = Instant::now() + cfg.settle_timeout;
    while !in_flight.is_empty() && Instant::now() < deadline {
        cluster.control_tick(); // a shard dying *now* must still fail over
        for resp in cluster.router_mut().pump(Duration::from_millis(20)) {
            settle(resp, &mut in_flight);
        }
    }

    report.lost = in_flight.len() as u64;
    report.wall_s = t0.elapsed().as_secs_f64();
    report.core_seconds = cluster.core_seconds();
    report
}

/// A fixed probe input: classification outcome is irrelevant to the
/// cluster metrics, so every request carries the same vector.
fn probe_input(dim: usize) -> Tensor {
    let data: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
    Tensor::from_vec(vec![dim], data).expect("probe input")
}
