//! The control loop that ties supervisor, front router and autoscaler
//! into one elastic fleet.
//!
//! [`Cluster::control_tick`] is the whole control plane, run at a fixed
//! cadence by whoever owns the cluster (the load generator, a bench, a
//! demo bin): reap process exits (restarting crashes under a bumped
//! generation), scrape every serving shard's wire health, feed the
//! digests to the autoscaler, and apply at most one scale step. Fixed
//! fleets are the degenerate configuration `min_shards == max_shards`
//! run through the *same* path — the elastic-vs-fixed comparison in the
//! e2e and bench differs only in those two numbers.

use crate::autoscaler::{Autoscaler, AutoscalerConfig, ScaleDecision, ShardObservation};
use crate::front::FrontRouter;
use crate::supervisor::{ExitKind, ShardSpec, Supervisor};
use ms_net::PipelinedClient;
use std::io;
use std::time::Duration;

/// Cluster-level knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// How each shard process is spawned.
    pub spec: ShardSpec,
    /// The fleet-sizing policy.
    pub autoscaler: AutoscalerConfig,
}

/// How long a retiring shard gets to drain-and-exit before SIGKILL.
const RETIRE_TIMEOUT: Duration = Duration::from_secs(5);
/// Per-shard health scrape timeout.
const HEALTH_TIMEOUT: Duration = Duration::from_secs(1);

impl ClusterConfig {
    pub fn new(spec: ShardSpec, autoscaler: AutoscalerConfig) -> Self {
        ClusterConfig { spec, autoscaler }
    }

    /// A fixed fleet of exactly `n` shards: same spec, same control
    /// loop, autoscaler clamped so it can never act.
    pub fn fixed(spec: ShardSpec, n: usize) -> Self {
        Self::new(
            spec,
            AutoscalerConfig {
                min_shards: n,
                max_shards: n,
                ..AutoscalerConfig::default()
            },
        )
    }
}

/// An elastic fleet of shard processes behind one front router.
pub struct Cluster {
    supervisor: Supervisor,
    router: FrontRouter,
    autoscaler: Autoscaler,
    scale_outs: u64,
    scale_ins: u64,
    restarts: u64,
    shards_gauge: ms_telemetry::Gauge,
    scale_out_events: ms_telemetry::Counter,
    scale_in_events: ms_telemetry::Counter,
    restarts_total: ms_telemetry::Counter,
}

impl Cluster {
    /// Spawns `min_shards` shards and connects the router to each.
    pub fn start(cfg: ClusterConfig) -> io::Result<Cluster> {
        let reg = ms_telemetry::global();
        let mut c = Cluster {
            autoscaler: Autoscaler::new(cfg.autoscaler),
            supervisor: Supervisor::new(cfg.spec),
            router: FrontRouter::new(),
            scale_outs: 0,
            scale_ins: 0,
            restarts: 0,
            shards_gauge: reg.gauge("cluster_shards", "live shard processes in the fleet"),
            scale_out_events: reg.counter_with(
                "cluster_scale_events_total",
                &[("direction", "out")],
                "autoscaler scale steps applied",
            ),
            scale_in_events: reg.counter_with(
                "cluster_scale_events_total",
                &[("direction", "in")],
                "autoscaler scale steps applied",
            ),
            restarts_total: reg.counter(
                "cluster_restarts_total",
                "crashed shards restarted by the supervisor",
            ),
        };
        for _ in 0..c.autoscaler.config().min_shards {
            c.add_shard()?;
        }
        c.shards_gauge.set(c.supervisor.len() as f64);
        Ok(c)
    }

    fn add_shard(&mut self) -> io::Result<()> {
        let (id, addr) = self.supervisor.spawn_shard()?;
        self.router.add_shard(id, 1, addr)
    }

    /// Reaps exited shard processes: a retirement just detaches; a crash
    /// settles its orphans as `Failover` sheds and respawns the shard
    /// under `generation + 1`.
    fn reap_exits(&mut self) {
        for exit in self.supervisor.poll_exits() {
            self.router.remove_shard(exit.id);
            if exit.kind == ExitKind::Crashed {
                self.restarts += 1;
                self.restarts_total.inc();
                if let Ok(addr) = self.supervisor.restart_shard(exit.id, exit.generation) {
                    let _ = self.router.add_shard(exit.id, exit.generation + 1, addr);
                }
            }
        }
    }

    /// One control-plane evaluation: reap, scrape, decide, apply.
    pub fn control_tick(&mut self) {
        self.reap_exits();
        let mut observations = Vec::new();
        let targets: Vec<_> = self.supervisor.serving().map(|s| s.addr).collect();
        for addr in targets {
            // Fresh connection per scrape: a hung or dying shard costs
            // one bounded timeout, never a poisoned persistent client.
            let Ok(mut client) = PipelinedClient::connect(addr) else {
                continue; // dying shard; the next reap handles it
            };
            if let Ok(h) = client.health(HEALTH_TIMEOUT) {
                observations.push(ShardObservation::from_health(&h));
            }
        }
        match self.autoscaler.evaluate(&observations) {
            ScaleDecision::ScaleOut => {
                if self.add_shard().is_ok() {
                    self.scale_outs += 1;
                    self.scale_out_events.inc();
                }
            }
            ScaleDecision::ScaleIn => {
                // Retire the newest serving shard: oldest shards have the
                // warmest history, and last-in-first-out keeps the fleet
                // composition simple to reason about.
                if let Some(id) = self.supervisor.serving().map(|s| s.id).max() {
                    self.router.stop_accepting(id);
                    let _ = self.supervisor.retire(id, RETIRE_TIMEOUT);
                    self.scale_ins += 1;
                    self.scale_in_events.inc();
                    self.reap_exits();
                }
            }
            ScaleDecision::Hold => {}
        }
        self.shards_gauge.set(self.supervisor.len() as f64);
    }

    /// Chaos hook: SIGKILL shard `id` (the crash surfaces on the next
    /// [`Cluster::control_tick`], which restarts it).
    pub fn kill_shard(&mut self, id: u32) -> io::Result<()> {
        self.supervisor.kill(id)
    }

    /// Live shard processes.
    pub fn shard_count(&self) -> usize {
        self.supervisor.len()
    }

    /// ids of the currently serving shards.
    pub fn serving_ids(&self) -> Vec<u32> {
        self.supervisor.serving().map(|s| s.id).collect()
    }

    /// Fleet core-seconds so far (shard-process-seconds × replicas).
    pub fn core_seconds(&self) -> f64 {
        self.supervisor.core_seconds()
    }

    /// The model input width shards were spawned with.
    pub fn input_dim(&self) -> usize {
        self.supervisor.spec().input_dim
    }

    pub fn router_mut(&mut self) -> &mut FrontRouter {
        &mut self.router
    }

    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// Scale-out steps applied so far.
    pub fn scale_outs(&self) -> u64 {
        self.scale_outs
    }

    /// Scale-in (retire) steps applied so far.
    pub fn scale_ins(&self) -> u64 {
        self.scale_ins
    }

    /// Crash-restarts performed so far.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }
}
