//! The shard supervisor: spawns engine processes, detects exits,
//! restarts crashes, and retires shards losslessly through the wire
//! drain.
//!
//! Each shard is one `shard_server` process (ms-net) configured entirely
//! through `MS_SHARD_*` environment variables. The spawn handshake is a
//! single `MS_SHARD_ADDR=<ip:port> wire=<version>` line on the child's
//! stdout: the child binds an ephemeral port, so the supervisor never has
//! to guess free ports or race other processes for them, and a shard
//! built for another wire version is refused at spawn instead of failing
//! every request mid-run. Retirement reuses the wire `Drain` protocol —
//! the shard flushes every in-flight request, acks, and *exits*, which
//! turns "retired losslessly" into an ordinary observable process exit.
//! Any exit the supervisor did not ask for is a crash, and
//! [`Supervisor::poll_exits`] reports it so the control loop can restart
//! the shard under a bumped generation.

use ms_net::protocol::VERSION;
use ms_net::{NetError, PipelinedClient};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Everything needed to spawn one shard process. Mirrors the
/// `MS_SHARD_*` environment contract of the `shard_server` bin.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Path to the `shard_server` binary.
    pub bin: PathBuf,
    /// Engine replicas (threads) inside each shard process.
    pub replicas: usize,
    /// Model input width.
    pub input_dim: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Output classes.
    pub classes: usize,
    /// Slice groups per hidden layer.
    pub groups: usize,
    /// SLA `T` in microseconds.
    pub latency_us: u64,
    /// Quadratic-profile full-width µs per sample; 0 calibrates the real
    /// model instead (slower startup, machine-dependent capacity).
    pub t_full_us: u64,
    /// Engine admission queue cap.
    pub max_queue: usize,
    /// SLO sampler cadence in milliseconds.
    pub sample_ms: u64,
    /// Weight-init seed (shared by every shard: one logical model).
    pub seed: u64,
}

impl ShardSpec {
    /// A small, fast-starting spec with a deterministic quadratic
    /// latency profile — the configuration the cluster tests and bench
    /// use. `t_full_us = 2000` at `latency_us = 20000` plans ~5 samples
    /// per window at full width and ~80 at the r=0.25 floor.
    pub fn small(bin: PathBuf) -> Self {
        ShardSpec {
            bin,
            replicas: 1,
            input_dim: 8,
            hidden: vec![32],
            classes: 4,
            groups: 4,
            latency_us: 20_000,
            t_full_us: 2_000,
            max_queue: 100_000,
            sample_ms: 250,
            seed: 17,
        }
    }

    /// Locates the `shard_server` binary for the current build profile:
    /// the `MS_SHARD_BIN` env var when set, else a walk up from the
    /// current executable (test binaries live in `target/<profile>/deps`,
    /// bins in `target/<profile>`).
    pub fn discover_bin() -> Option<PathBuf> {
        if let Ok(p) = std::env::var("MS_SHARD_BIN") {
            let p = PathBuf::from(p);
            return p.is_file().then_some(p);
        }
        let exe = std::env::current_exe().ok()?;
        let name = format!("shard_server{}", std::env::consts::EXE_SUFFIX);
        let mut dir = exe.parent();
        while let Some(d) = dir {
            let candidate = d.join(&name);
            if candidate.is_file() {
                return Some(candidate);
            }
            dir = d.parent();
        }
        None
    }
}

/// One live (or retiring) shard process.
#[derive(Debug)]
pub struct ShardProcess {
    /// Supervisor-assigned id, stable across restarts.
    pub id: u32,
    /// Incarnation counter: 1 on first spawn, +1 per restart.
    pub generation: u32,
    /// OS pid of the current incarnation.
    pub pid: u32,
    /// The shard's listening address.
    pub addr: SocketAddr,
    child: Child,
    started: Instant,
    /// Set once [`Supervisor::retire`] has begun draining this shard, so
    /// its exit is expected rather than a crash.
    retiring: bool,
}

/// Why a shard process exited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// Exit after a supervisor-initiated drain: expected, lossless.
    Retired,
    /// Any exit the supervisor did not ask for.
    Crashed,
}

/// One harvested shard exit.
#[derive(Debug, Clone, Copy)]
pub struct ShardExit {
    pub id: u32,
    pub generation: u32,
    pub kind: ExitKind,
}

/// Spawns, tracks, restarts and retires shard processes.
pub struct Supervisor {
    spec: ShardSpec,
    shards: Vec<ShardProcess>,
    next_id: u32,
    /// Process-seconds accumulated by shards that have already exited.
    completed_shard_seconds: f64,
}

impl Supervisor {
    pub fn new(spec: ShardSpec) -> Self {
        assert!(spec.replicas > 0);
        Supervisor {
            spec,
            shards: Vec::new(),
            next_id: 0,
            completed_shard_seconds: 0.0,
        }
    }

    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Live (non-exited) shards, including any still draining.
    pub fn shards(&self) -> &[ShardProcess] {
        &self.shards
    }

    /// Live shards that are serving (not retiring).
    pub fn serving(&self) -> impl Iterator<Item = &ShardProcess> {
        self.shards.iter().filter(|s| !s.retiring)
    }

    pub fn len(&self) -> usize {
        self.shards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    fn spawn(&mut self, id: u32, generation: u32) -> io::Result<&ShardProcess> {
        let s = &self.spec;
        let hidden = s
            .hidden
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut child = Command::new(&s.bin)
            .env("MS_SHARD_ID", id.to_string())
            .env("MS_SHARD_GENERATION", generation.to_string())
            .env("MS_SHARD_BIND", "127.0.0.1:0")
            .env("MS_SHARD_REPLICAS", s.replicas.to_string())
            .env("MS_SHARD_INPUT_DIM", s.input_dim.to_string())
            .env("MS_SHARD_HIDDEN", hidden)
            .env("MS_SHARD_CLASSES", s.classes.to_string())
            .env("MS_SHARD_GROUPS", s.groups.to_string())
            .env("MS_SHARD_LATENCY_US", s.latency_us.to_string())
            .env("MS_SHARD_T_FULL_US", s.t_full_us.to_string())
            .env("MS_SHARD_MAX_QUEUE", s.max_queue.to_string())
            .env("MS_SHARD_SAMPLE_MS", s.sample_ms.to_string())
            .env("MS_SHARD_SEED", s.seed.to_string())
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()?;
        // Handshake: block on the one MS_SHARD_ADDR line. Binding is
        // fast (ephemeral port); model construction happens before the
        // print, so a successful read means the shard is serving. A child
        // that fails the handshake is killed, never left running.
        let stdout = child.stdout.take().expect("piped stdout");
        let addr = match read_handshake(BufReader::new(stdout), &s.bin) {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let pid = child.id();
        self.shards.push(ShardProcess {
            id,
            generation,
            pid,
            addr,
            child,
            started: Instant::now(),
            retiring: false,
        });
        Ok(self.shards.last().unwrap())
    }

    /// Spawns a brand-new shard (fresh id, generation 1) and returns its
    /// id and address once the handshake completes.
    pub fn spawn_shard(&mut self) -> io::Result<(u32, SocketAddr)> {
        let id = self.next_id;
        self.next_id += 1;
        let p = self.spawn(id, 1)?;
        Ok((p.id, p.addr))
    }

    /// Respawns a crashed shard under the same id with `generation + 1`.
    /// The caller supplies the generation the crashed incarnation had
    /// (from its [`ShardExit`]).
    pub fn restart_shard(&mut self, id: u32, old_generation: u32) -> io::Result<SocketAddr> {
        let p = self.spawn(id, old_generation + 1)?;
        Ok(p.addr)
    }

    /// Harvests exited children without blocking. Retiring shards exit
    /// as [`ExitKind::Retired`]; anything else is a crash for the control
    /// loop to restart.
    pub fn poll_exits(&mut self) -> Vec<ShardExit> {
        let mut exits = Vec::new();
        let mut i = 0;
        while i < self.shards.len() {
            match self.shards[i].child.try_wait() {
                Ok(Some(_status)) => {
                    let mut p = self.shards.remove(i);
                    self.completed_shard_seconds += p.started.elapsed().as_secs_f64();
                    let _ = p.child.wait();
                    exits.push(ShardExit {
                        id: p.id,
                        generation: p.generation,
                        kind: if p.retiring {
                            ExitKind::Retired
                        } else {
                            ExitKind::Crashed
                        },
                    });
                }
                _ => i += 1,
            }
        }
        exits
    }

    /// Retires a shard losslessly: sends the wire `Drain`, waits up to
    /// `timeout` for the `DrainAck` (every in-flight response is flushed
    /// first — the server orders them before the ack), then up to
    /// `timeout` for the process to exit. A shard that fails either step
    /// is SIGKILLed, so a wedged shard holds neither the caller nor a
    /// process slot. Returns the shard's lifetime delivered count, or the
    /// drain's error once the shard is killed.
    pub fn retire(&mut self, id: u32, timeout: Duration) -> io::Result<u64> {
        let shard = self
            .shards
            .iter_mut()
            .find(|s| s.id == id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such shard"))?;
        shard.retiring = true;
        let drained = PipelinedClient::connect(shard.addr).and_then(|mut client| {
            client.drain_server(timeout).map_err(|e| match e {
                NetError::Io(e) => e,
                e => io::Error::other(format!("drain: {e}")),
            })
        });
        // The ack is queued before the shard's stop flag rises; give the
        // process a bounded window to notice and exit on its own.
        let deadline = Instant::now() + timeout;
        loop {
            match shard.child.try_wait() {
                Ok(Some(_)) => break,
                _ if drained.is_err() || Instant::now() >= deadline => {
                    let _ = shard.child.kill();
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        drained
    }

    /// Chaos hook: SIGKILL a shard process outright, simulating a crash.
    /// The death surfaces through [`Supervisor::poll_exits`] like any
    /// other.
    pub fn kill(&mut self, id: u32) -> io::Result<()> {
        let shard = self
            .shards
            .iter_mut()
            .find(|s| s.id == id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such shard"))?;
        shard.child.kill()
    }

    /// Total core-seconds consumed by the fleet so far: process-seconds
    /// (completed + live) × replicas per process. The denominator of the
    /// cluster's efficiency headline.
    pub fn core_seconds(&self) -> f64 {
        let live: f64 = self
            .shards
            .iter()
            .map(|s| s.started.elapsed().as_secs_f64())
            .sum();
        (self.completed_shard_seconds + live) * self.spec.replicas as f64
    }

    /// id → (generation, addr) of every live shard, for routing layers.
    pub fn addrs(&self) -> HashMap<u32, (u32, SocketAddr)> {
        self.shards
            .iter()
            .map(|s| (s.id, (s.generation, s.addr)))
            .collect()
    }
}

/// Reads the child's `MS_SHARD_ADDR=<ip:port> wire=<version>` line and
/// refuses a shard that speaks another wire version than this build.
fn read_handshake(mut reader: impl BufRead, bin: &Path) -> io::Result<SocketAddr> {
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "shard exited before printing MS_SHARD_ADDR",
            ));
        }
        let Some(rest) = line.trim().strip_prefix("MS_SHARD_ADDR=") else {
            continue;
        };
        return match rest.split_once(" wire=") {
            Some((addr, wire)) if wire == VERSION.to_string() => addr.parse().map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad shard addr: {e}"))
            }),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} answered the spawn handshake with {:?}, not wire={VERSION}: \
                     rebuild it with `cargo build -p ms-net --bin shard_server`",
                    bin.display(),
                    line.trim()
                ),
            )),
        };
    }
}

impl Drop for Supervisor {
    /// No orphan processes: whatever is still running dies with the
    /// supervisor.
    fn drop(&mut self) {
        for s in &mut self.shards {
            let _ = s.child.kill();
        }
        for s in &mut self.shards {
            let _ = s.child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in `shard_server`: a script that prints `line` on stdout
    /// and sleeps.
    #[cfg(unix)]
    fn script_shard(name: &str, line: &str) -> PathBuf {
        use std::os::unix::fs::PermissionsExt;
        let script = std::env::temp_dir().join(format!("{name}_{}.sh", std::process::id()));
        let body = format!("#!/bin/sh\necho '{line}'\nexec sleep 30\n");
        std::fs::write(&script, body).unwrap();
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
        script
    }

    /// A `shard_server` left in `target/` by a build of another wire
    /// version is refused at spawn, with the binary and the rebuild
    /// command in the error.
    #[cfg(unix)]
    #[test]
    fn spawn_refuses_a_shard_of_another_wire_version() {
        for (i, line) in [
            "MS_SHARD_ADDR=127.0.0.1:9",
            "MS_SHARD_ADDR=127.0.0.1:9 wire=2",
        ]
        .iter()
        .enumerate()
        {
            let script = script_shard(&format!("ms_stale_shard_{i}"), line);
            let err = Supervisor::new(ShardSpec::small(script.clone()))
                .spawn_shard()
                .unwrap_err();
            let _ = std::fs::remove_file(&script);
            let msg = err.to_string();
            assert!(msg.contains(&script.display().to_string()), "{msg}");
            assert!(
                msg.contains("cargo build -p ms-net --bin shard_server"),
                "{msg}"
            );
        }
    }

    /// A shard that accepts the drain connection and never answers is
    /// killed once the drain times out; `retire` returns instead of
    /// blocking the control loop.
    #[cfg(unix)]
    #[test]
    fn retire_kills_a_shard_that_never_acks_the_drain() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let silent = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let script = script_shard(
            "ms_wedged_shard",
            &format!("MS_SHARD_ADDR={addr} wire={VERSION}"),
        );
        let mut sup = Supervisor::new(ShardSpec::small(script.clone()));
        let spawned = sup.spawn_shard();
        let _ = std::fs::remove_file(&script);
        let (id, _) = spawned.unwrap();
        let err = sup.retire(id, Duration::from_millis(200)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        let _held = silent.join().unwrap().unwrap();
        // Killed, so it exits: as a retirement, since it was asked to go.
        let exits = (0..2000)
            .map(|_| {
                std::thread::sleep(Duration::from_millis(5));
                sup.poll_exits()
            })
            .find(|e| !e.is_empty())
            .expect("the wedged shard was not killed");
        assert_eq!(exits[0].kind, ExitKind::Retired);
    }
}
