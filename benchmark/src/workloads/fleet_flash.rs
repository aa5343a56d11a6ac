//! `fleet_flash`: a flash crowd against two real shard processes.
//!
//! Open loop from `WorkloadTrace::flash_crowd` (10 ms ticks, arrivals spread
//! evenly inside a tick); the benchmark's own loop over
//! `FrontRouter::dispatch/flush/pump` plus `Cluster::control_tick` against
//! `ClusterConfig::fixed(spec, 2)` `shard_server` processes. The shards use
//! `ShardSpec::small`: an 8-32-4 MLP planning against a synthetic quadratic
//! profile, so compute is ~0 and planned capacity is machine-independent.
//! `ms-cluster` and the `ms-net` process boundary do nearly all the work:
//! the mirror image of `infer_ladder`, on which a kernel change must show
//! nothing.
//!
//! The fleet is fixed at two shards. An autoscaled fleet reacts on
//! wall-clock burn windows, too noisy to gate on; the cost of scaling out
//! is measured per layer (spawn and retire probes) instead.

use crate::harness::{repeat_setup, Args, Outcome};
use crate::loadgen::{self, Target, SERVE_RATES};
use crate::record::Loop;
use crate::{models, spans, sys};
use ms_cluster::{Cluster, ClusterConfig, ShardSpec};
use ms_models::mlp::{Mlp, MlpConfig};
use ms_net::protocol::InferResponse;
use ms_net::Client;
use ms_serving::workload::WorkloadTrace;
use ms_tensor::{SeededRng, Tensor};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

pub const SHARDS: usize = 2;
pub const TICK_S: f64 = 0.010;
/// Mean arrivals per tick outside the flash: 600/s, 0.6 of the 1000/s the
/// two shards plan to serve at full width (5 per 10 ms window each).
pub const BASE_PER_TICK: f64 = 6.0;
/// The flash multiplies arrivals to 6000/s: six times full-width capacity,
/// inside the 16 000/s the fleet plans at r = 0.25, so slicing absorbs it
/// and nothing needs to be shed.
pub const FLASH_MULTIPLIER: f64 = 10.0;
/// Share of the timed section the flash lasts, centred.
pub const FLASH_SHARE: f64 = 0.4;
/// Frozen so the seed scores 0.90–0.99 on time (requests wait up to one
/// 10 ms batching window before they are served).
pub const CLIENT_DEADLINE_MS: f64 = 10.0;
/// Seconds between control-plane ticks, run on the dispatching thread.
const CONTROL_EVERY_S: f64 = 0.25;
/// Refusals above this share are remarked on.
const MAX_REFUSED_FRAC: f64 = 0.005;
const WARMUP_REQUESTS: u64 = 32;
/// p95 for the reason given in `wire_staircase`.
const TAIL_Q: f64 = 0.95;

pub fn spec(bin: &Path) -> ShardSpec {
    ShardSpec::small(bin.to_path_buf())
}

/// The shard's model, rebuilt here from the spec it was spawned with.
pub fn replica(spec: &ShardSpec) -> Mlp {
    Mlp::new(
        &MlpConfig {
            input_dim: spec.input_dim,
            hidden_dims: spec.hidden.clone(),
            num_classes: spec.classes,
            groups: spec.groups,
            dropout: 0.0,
            input_rescale: true,
        },
        &mut SeededRng::new(spec.seed),
    )
}

/// Spawns the fleet and pushes one burst through it.
pub fn setup(bin: &Path) -> Cluster {
    let spec = spec(bin);
    let warm = Tensor::zeros([spec.input_dim]);
    // Shard processes inherit the system CPUs; the router's reader threads,
    // created with the connections below, would too, but they are few and
    // idle except when a response arrives.
    let cpus = sys::CpuSplit::get();
    cpus.enter_system();
    let mut cluster = Cluster::start(ClusterConfig::fixed(spec, SHARDS))
        .unwrap_or_else(|e| panic!("spawn {} shards from {}: {e}", SHARDS, bin.display()));
    cpus.enter_generator();
    let router = cluster.router_mut();
    for id in 0..WARMUP_REQUESTS {
        assert!(
            router.dispatch(u64::MAX - id, 0, &warm).is_none(),
            "warm-up refused"
        );
    }
    router.flush();
    let mut back = 0;
    while back < WARMUP_REQUESTS as usize {
        let got = router.pump(Duration::from_secs(10));
        assert!(!got.is_empty(), "warm-up responses missing");
        back += got.len();
    }
    cluster
}

fn shard_pids(cluster: &Cluster) -> Vec<u32> {
    cluster
        .supervisor()
        .shards()
        .iter()
        .map(|s| s.pid)
        .collect()
}

pub struct FleetTarget<'a> {
    pub cluster: &'a mut Cluster,
    pids: Vec<u32>,
    next_control_s: f64,
}

impl<'a> FleetTarget<'a> {
    pub fn new(cluster: &'a mut Cluster) -> Self {
        let pids = shard_pids(cluster);
        FleetTarget {
            cluster,
            pids,
            next_control_s: CONTROL_EVERY_S,
        }
    }

    fn shard_cpu_seconds(&self) -> f64 {
        self.pids.iter().map(|&p| sys::cpu_seconds_of(p)).sum()
    }
}

impl Target for FleetTarget<'_> {
    fn send(&mut self, id: u64, input: &Tensor) -> Option<InferResponse> {
        let _s = spans::span("cluster.dispatch", id);
        self.cluster.router_mut().dispatch(id, 0, input)
    }

    fn flush(&mut self) {
        let _s = spans::span("cluster.flush", 0);
        self.cluster.router_mut().flush();
    }

    fn poll(&mut self, wait: Duration, sink: &mut dyn FnMut(InferResponse)) {
        let _s = spans::span("cluster.pump", 0);
        for resp in self.cluster.router_mut().pump(wait) {
            sink(resp);
        }
    }

    fn housekeeping(&mut self, now_s: f64) {
        if now_s >= self.next_control_s {
            self.next_control_s += CONTROL_EVERY_S;
            let _s = spans::span("cluster.control_tick", 0);
            self.cluster.control_tick();
        }
    }

    fn cpu_seconds(&self) -> f64 {
        sys::cpu_seconds_self() + self.shard_cpu_seconds()
    }
}

pub fn run(args: &Args, bin: &Path) -> Outcome {
    let (mut cluster, setup_s) = repeat_setup(args.trace, || setup(bin));
    let spec = spec(bin);
    let ticks = (args.seconds / TICK_S).round() as usize;
    let flash_ticks = (ticks as f64 * FLASH_SHARE).round() as usize;
    let trace = WorkloadTrace::flash_crowd(
        ticks,
        BASE_PER_TICK,
        FLASH_MULTIPLIER,
        1,
        flash_ticks,
        args.seed,
    );
    let due = loadgen::spread_ticks(&trace.arrivals, TICK_S);
    let inputs = loadgen::input_pool(args.seed, spec.input_dim);
    let mut net = replica(&spec);
    let macs = models::macs_at_rates(&mut net, SERVE_RATES);

    let pids_before = shard_pids(&cluster);
    let mut target = FleetTarget::new(&mut cluster);
    let shard_cpu_before = target.shard_cpu_seconds();
    let run = loadgen::drive(
        &mut target,
        &due,
        &inputs,
        args.seconds,
        CLIENT_DEADLINE_MS,
        &macs,
    );
    let shard_cpu_s = target.shard_cpu_seconds() - shard_cpu_before;

    let mut errors = Vec::new();
    let mut checks = run.check_accounts(due.len(), MAX_REFUSED_FRAC, &mut errors);
    checks += run.verify_kept(&mut net, &inputs, &mut errors);
    if shard_pids(&cluster) != pids_before || cluster.restarts() != 0 {
        errors.push(format!(
            "fleet changed under load: {} restarts",
            cluster.restarts()
        ));
    }

    let mut layer = BTreeMap::new();
    if args.trace {
        // The flash is the middle of the run; report it as five equal steps.
        run.layer_metrics(args.seconds / 5.0, &mut layer);
        layer.insert("cluster.shard_cpu_s", shard_cpu_s);
        layer.insert(
            "cluster.shard_rss_mb",
            shard_pids(&cluster).iter().map(|&p| sys::rss_mb(p)).sum(),
        );
        layer.insert("cluster.failover_shed", run.failover_shed as f64);
        layer.insert("cluster.restarts", cluster.restarts() as f64);
        let served: Vec<f64> = cluster
            .supervisor()
            .shards()
            .iter()
            .filter_map(|s| Client::connect(s.addr).ok()?.health().ok())
            .map(|h| h.replicas.iter().map(|r| r.served as f64).sum())
            .collect();
        if served.len() == SHARDS && served.iter().all(|s| *s > 0.0) {
            let max = served.iter().cloned().fold(0.0, f64::max);
            let min = served.iter().cloned().fold(f64::INFINITY, f64::min);
            layer.insert("cluster.jsq_imbalance", max / min);
        }
    }
    eprintln!(
        "fleet_flash: sent {} delivered {} shed {} lost {} · on time {:.4} · shard CPU {:.2} s",
        run.sent,
        run.delivered,
        run.sent - run.delivered - run.lost,
        run.lost,
        run.recs.iter().filter(|r| r.good).count() as f64 / run.sent.max(1) as f64,
        shard_cpu_s,
    );
    drop(cluster);
    Outcome {
        attempted: run.sent + checks + 1,
        failed: run.failed() + errors.len() as u64,
        errors,
        setup_s,
        recs: run.recs,
        lp: Loop::Open,
        marks: run.marks,
        tail_q: TAIL_Q,
        layer,
    }
}
