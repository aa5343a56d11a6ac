//! Elastic-cluster demo: watch the fleet breathe through a flash crowd.
//!
//! Spawns an autoscaled fleet of `shard_server` processes (1..=3
//! shards), drives the deterministic spike trace through the front
//! router open-loop, and narrates every scale event. Build the shard
//! binary first — `cargo run` of this bin alone does not build ms-net's
//! bins:
//!
//! ```text
//! cargo build --release --workspace
//! cargo run --release -p ms-bench --bin cluster_demo
//! ```

use ms_cluster::{run_trace, AutoscalerConfig, Cluster, ClusterConfig, LoadgenConfig, ShardSpec};
use ms_serving::workload::WorkloadTrace;
use std::time::Duration;

fn main() {
    let bin = ShardSpec::discover_bin()
        .expect("shard_server binary not found — run `cargo build --release --workspace` first");
    let spec = ShardSpec::small(bin);
    eprintln!(
        "spawning elastic fleet: 1..=3 shards of {} ({} replica/shard, T = {} ms)",
        spec.bin.display(),
        spec.replicas,
        spec.latency_us as f64 / 1e3,
    );
    let mut cluster = Cluster::start(ClusterConfig::new(
        spec,
        AutoscalerConfig {
            min_shards: 1,
            max_shards: 3,
            idle_burn: f64::INFINITY, // sub-minute demo: judge idle by queue + rate
            idle_queue: 8.0,
            r_high: 0.9,
            idle_hold: 4,
            cooldown: 1,
            ..AutoscalerConfig::default()
        },
    ))
    .expect("start cluster");

    // 2 s calm, 3.5 s spike at ~228 req/tick (~2.9x one shard's floor
    // capacity), 4 s calm to watch the fleet contract again.
    let trace = WorkloadTrace::spike(950, 3.0, 76.0, 200, 350, 41);
    let cfg = LoadgenConfig {
        tick: Duration::from_millis(10),
        deadline_micros: 0,
        client_deadline: Duration::from_millis(250),
        control_every: 25,
        settle_timeout: Duration::from_secs(10),
    };
    let mut last = (cluster.shard_count(), 0u64, 0u64, 0u64);
    let report = run_trace(&mut cluster, &trace, &cfg, |c, t| {
        let now = (c.shard_count(), c.scale_outs(), c.scale_ins(), c.restarts());
        if now != last {
            eprintln!(
                "t={:>5.2}s  shards={} (scale-outs {}, scale-ins {}, restarts {})",
                t as f64 * 0.01,
                now.0,
                now.1,
                now.2,
                now.3
            );
            last = now;
        }
    });
    eprintln!(
        "\nsent {} | delivered {} | deadline hits {} | shed {} | failover {} | lost {}",
        report.sent,
        report.delivered,
        report.deadline_hits,
        report.shed,
        report.failover_shed,
        report.lost
    );
    eprintln!(
        "core-seconds {:.2} (peak {} shards) -> {:.0} deadline hits per core-second",
        report.core_seconds,
        report.peak_shards,
        report.hits_per_core_second()
    );
}
