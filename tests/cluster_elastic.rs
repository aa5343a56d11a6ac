//! End-to-end elastic cluster: real shard *processes*, a real spike, and
//! the headline claim of the cluster control plane — an autoscaled fleet
//! beats every fixed fleet on client-judged deadline hits per
//! core-second, and a shard killed mid-run fails over losslessly.
//!
//! Every shard plans against the same deterministic quadratic latency
//! profile (`t_full = 2 ms` at `T = 20 ms`), so planned capacity per
//! 10 ms window is 5 requests at full width and 80 at the r = 0.25
//! floor — machine-independent numbers the trace is sized against. The
//! spike runs ~228 requests/tick: ~2.9× one shard's floor capacity, so a
//! single shard must shed most of it, three shards absorb it, and the
//! elastic fleet earns its margin by paying for three shards only while
//! the spike lasts.
//!
//! Accounting is absolute: every correlation id ever sent must settle —
//! delivered, shed with a cause, or failover-shed — in every run. `lost`
//! is asserted to be exactly zero everywhere.

use modelslicing::cluster::{
    run_trace, AutoscalerConfig, Cluster, ClusterConfig, LoadgenConfig, LoadgenReport, ShardSpec,
};
use modelslicing::serving::workload::WorkloadTrace;
use std::sync::Mutex;
use std::time::Duration;

/// Wall-clock pacing against real processes: no other test in this
/// binary may compete for the CPU while one runs.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The spec of the shards to spawn, or `None` (after saying so) when there
/// is no `shard_server` to spawn: the binary belongs to `ms-net`, and a plain
/// `cargo test` of the root package does not build other packages' bins.
fn shard_spec() -> Option<ShardSpec> {
    let bin = ShardSpec::discover_bin();
    if bin.is_none() {
        eprintln!(
            "skipped: shard_server not built (set MS_SHARD_BIN or \
             `cargo build -p ms-net --bin shard_server`)"
        );
    }
    bin.map(ShardSpec::small)
}

fn loadgen_cfg() -> LoadgenConfig {
    LoadgenConfig {
        tick: Duration::from_millis(10),
        deadline_micros: 0, // use each shard's configured 20 ms SLA
        client_deadline: Duration::from_millis(250),
        control_every: 25, // 250 ms control cadence
        settle_timeout: Duration::from_secs(10),
    }
}

/// Calm → spike → calm. 200 calm ticks (2 s) at 3/tick, 350 spike ticks
/// (3.5 s) at 228/tick, 400 calm ticks (4 s) to watch scale-in.
fn spike_trace() -> WorkloadTrace {
    WorkloadTrace::spike(950, 3.0, 76.0, 200, 350, 41)
}

fn autoscaled() -> AutoscalerConfig {
    AutoscalerConfig {
        min_shards: 1,
        max_shards: 3,
        // Judge idleness on queue depth and controller rate: the wire
        // burns are 60 s-window figures and cannot decay inside this
        // test's 4 s post-spike calm.
        idle_burn: f64::INFINITY,
        idle_queue: 8.0,
        r_high: 0.9,
        idle_hold: 4, // 1 s of sustained idle before each retirement
        cooldown: 1,
        ..AutoscalerConfig::default()
    }
}

fn run(cfg: ClusterConfig, label: &str) -> LoadgenReport {
    let mut cluster = Cluster::start(cfg).expect("start cluster");
    let report = run_trace(&mut cluster, &spike_trace(), &loadgen_cfg(), |_, _| {});
    eprintln!(
        "DIAG {label}: sent={} delivered={} hits={} shed={} failover={} lost={} \
         core_s={:.2} peak_shards={} eff={:.1} scale_outs={} scale_ins={}",
        report.sent,
        report.delivered,
        report.deadline_hits,
        report.shed,
        report.failover_shed,
        report.lost,
        report.core_seconds,
        report.peak_shards,
        report.hits_per_core_second(),
        cluster.scale_outs(),
        cluster.scale_ins(),
    );
    assert_eq!(report.lost, 0, "{label}: lost correlation ids");
    assert_eq!(
        report.sent,
        report.delivered + report.shed + report.failover_shed,
        "{label}: every id settles as delivered or explicitly shed"
    );
    report
}

fn compare_fleets(spec: &ShardSpec) {
    let elastic = run(
        ClusterConfig::new(spec.clone(), autoscaled()),
        "elastic(1..=3)",
    );
    assert_eq!(
        elastic.peak_shards, 3,
        "elastic fleet never reached 3 shards"
    );
    let elastic_eff = elastic.hits_per_core_second();
    for n in 1..=3 {
        let fixed = run(
            ClusterConfig::fixed(spec.clone(), n),
            &format!("fixed({n})"),
        );
        assert_eq!(fixed.peak_shards, n);
        assert!(
            elastic_eff > fixed.hits_per_core_second(),
            "elastic ({elastic_eff:.1} hits/core-s) must beat fixed({n}) ({:.1})",
            fixed.hits_per_core_second()
        );
    }
}

#[test]
fn elastic_fleet_beats_every_fixed_fleet_on_hits_per_core_second() {
    let _serial = serial();
    let Some(spec) = shard_spec() else { return };
    // Real processes paced against the wall clock: a scheduler stall can
    // sink one attempt for reasons unrelated to the control plane, so one
    // failed attempt earns one retry. Two failures in a row is real.
    if let Err(e) = std::panic::catch_unwind(|| compare_fleets(&spec)) {
        let msg = e
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| e.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        eprintln!("first attempt failed ({msg}); retrying once");
        compare_fleets(&spec);
    }
}

fn kill_one_shard(spec: &ShardSpec) {
    let mut cluster = Cluster::start(ClusterConfig::fixed(spec.clone(), 2)).expect("start cluster");
    // Flat 60/tick: ~30/tick/shard forces r = 0.25 serving with one to
    // two windows of queue, so the victim holds orphans when it dies.
    let trace = WorkloadTrace::from_rate_fn(300, 43, |_| 60.0);
    let mut victim = None;
    let report = run_trace(&mut cluster, &trace, &loadgen_cfg(), |c, t| {
        if t == 150 {
            let id = c.serving_ids()[0];
            victim = Some(id);
            c.kill_shard(id).expect("kill shard");
        }
    });
    eprintln!(
        "DIAG kill-failover: sent={} delivered={} hits={} shed={} failover={} lost={} restarts={}",
        report.sent,
        report.delivered,
        report.deadline_hits,
        report.shed,
        report.failover_shed,
        report.lost,
        cluster.restarts(),
    );
    let victim = victim.expect("chaos hook ran");
    // Lossless accounting: every id settled, orphans explicitly shed.
    assert_eq!(report.lost, 0, "lost correlation ids across the kill");
    assert_eq!(
        report.sent,
        report.delivered + report.shed + report.failover_shed
    );
    assert!(
        report.failover_shed >= 1,
        "a shard killed under load must orphan at least one in-flight request"
    );
    // The supervisor restarted the victim under a bumped generation and
    // the fleet is back at strength.
    assert_eq!(cluster.restarts(), 1);
    assert_eq!(cluster.shard_count(), 2);
    assert!(
        cluster
            .supervisor()
            .shards()
            .iter()
            .any(|s| s.id == victim && s.generation == 2),
        "victim shard must be re-spawned as generation 2"
    );
    // Failover is a blip, not an outage: the overwhelming majority of
    // traffic is still delivered on time.
    assert!(
        report.deadline_hits as f64 >= 0.90 * report.sent as f64,
        "hits {} of sent {}",
        report.deadline_hits,
        report.sent
    );
}

#[test]
fn killed_shard_fails_over_and_restarts_losslessly() {
    let _serial = serial();
    let Some(spec) = shard_spec() else { return };
    if let Err(e) = std::panic::catch_unwind(|| kill_one_shard(&spec)) {
        let msg = e
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| e.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        eprintln!("first attempt failed ({msg}); retrying once");
        kill_one_shard(&spec);
    }
}
