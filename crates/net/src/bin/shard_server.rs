//! One cluster shard: an elastic serving engine behind a TCP front-end,
//! run as a child process by the `ms-cluster` supervisor.
//!
//! All configuration arrives through `MS_SHARD_*` environment variables
//! (a child process's argv is visible to every user on the box; its
//! environment is not, and env vars keep the supervisor's spawn code
//! trivial). The process binds an ephemeral port, prints exactly one
//! `MS_SHARD_ADDR=<ip:port> wire=<version>` line on stdout for the
//! supervisor to read (it refuses a shard built for another wire version),
//! and serves until a wire `Drain` completes — at which point it exits 0
//! so drain-initiated retirement and process exit are one observable
//! event. A crash (or `kill`) is the other way out, and the supervisor
//! treats any exit without a preceding drain as a crash to restart.
//!
//! | variable                | default       | meaning                               |
//! |-------------------------|---------------|---------------------------------------|
//! | `MS_SHARD_ID`           | `0`           | supervisor-assigned shard id          |
//! | `MS_SHARD_GENERATION`   | `1`           | incarnation counter (bumped on restart)|
//! | `MS_SHARD_BIND`         | `127.0.0.1:0` | listen address                        |
//! | `MS_SHARD_REPLICAS`     | `1`           | engine replicas behind the router     |
//! | `MS_SHARD_INPUT_DIM`    | `8`           | model input width                     |
//! | `MS_SHARD_HIDDEN`       | `32`          | comma-separated hidden widths         |
//! | `MS_SHARD_CLASSES`      | `4`           | model output classes                  |
//! | `MS_SHARD_GROUPS`       | `4`           | slice groups per hidden layer         |
//! | `MS_SHARD_LATENCY_US`   | `20000`       | SLA `T` in microseconds               |
//! | `MS_SHARD_T_FULL_US`    | `0`           | quadratic profile: full-width µs per  |
//! |                         |               | sample; `0` calibrates the real model |
//! | `MS_SHARD_MAX_QUEUE`    | `100000`      | engine admission queue cap            |
//! | `MS_SHARD_SAMPLE_MS`    | `250`         | SLO sampler cadence                   |
//! | `MS_SHARD_SEED`         | `17`          | weight init seed (every replica       |
//! |                         |               | shares the one init's weights)        |

use ms_core::slice_rate::SliceRateList;
use ms_models::mlp::{Mlp, MlpConfig};
use ms_net::protocol::{ShardIdentity, VERSION};
use ms_net::{Router, Server, ServerConfig};
use ms_nn::layer::Layer;
use ms_serving::controller::{RatePolicy, SlaController};
use ms_serving::engine::{Engine, EngineConfig};
use ms_serving::profile::LatencyProfile;
use ms_tensor::SeededRng;
use std::io::Write;
use std::time::Duration;

fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    match std::env::var(key) {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{key}: unparseable value {v:?}")),
        Err(_) => default,
    }
}

fn main() {
    let shard_id: u32 = env_or("MS_SHARD_ID", 0);
    let generation: u32 = env_or("MS_SHARD_GENERATION", 1);
    let bind = std::env::var("MS_SHARD_BIND").unwrap_or_else(|_| "127.0.0.1:0".to_string());
    let replicas: usize = env_or("MS_SHARD_REPLICAS", 1);
    let input_dim: usize = env_or("MS_SHARD_INPUT_DIM", 8);
    let hidden: Vec<usize> = std::env::var("MS_SHARD_HIDDEN")
        .unwrap_or_else(|_| "32".to_string())
        .split(',')
        .map(|s| s.trim().parse().expect("MS_SHARD_HIDDEN: bad width"))
        .collect();
    let classes: usize = env_or("MS_SHARD_CLASSES", 4);
    let groups: usize = env_or("MS_SHARD_GROUPS", 4);
    let latency = env_or("MS_SHARD_LATENCY_US", 20_000u64) as f64 * 1e-6;
    let t_full = env_or("MS_SHARD_T_FULL_US", 0u64) as f64 * 1e-6;
    let max_queue: usize = env_or("MS_SHARD_MAX_QUEUE", 100_000);
    let sample_ms: u64 = env_or("MS_SHARD_SAMPLE_MS", 250);
    let seed: u64 = env_or("MS_SHARD_SEED", 17);
    assert!(replicas > 0, "MS_SHARD_REPLICAS must be positive");

    let cfg = MlpConfig {
        input_dim,
        hidden_dims: hidden,
        num_classes: classes,
        groups,
        dropout: 0.0,
        input_rescale: true,
    };
    let rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    // One init, shared by every replica: the shard serves one model, N
    // threads deep — and with a quadratic profile the planned capacity is
    // identical across restarts of the same spec, which the cluster e2e
    // tests lean on.
    let proto = Mlp::new(&cfg, &mut SeededRng::new(seed));
    let profile = if t_full > 0.0 {
        LatencyProfile::quadratic(rates, t_full)
    } else {
        LatencyProfile::calibrate(&mut proto.replica(), rates, &[input_dim], 256, 3)
    };
    let engines: Vec<Engine> = (0..replicas)
        .map(|_| {
            let m = proto.replica();
            Engine::start(
                EngineConfig {
                    latency,
                    headroom: 1.0,
                    max_queue,
                    refine: false,
                },
                SlaController::new(profile.clone(), RatePolicy::Elastic),
                vec![Box::new(m) as Box<dyn Layer + Send>],
            )
        })
        .collect();

    let server = Server::start(
        &bind as &str,
        Router::new(engines),
        ServerConfig {
            sample_interval: Duration::from_millis(sample_ms.max(1)),
            shard: Some(ShardIdentity {
                shard_id,
                pid: std::process::id(),
                generation,
            }),
            ..ServerConfig::default()
        },
    )
    .expect("bind shard server");

    // The one line the supervisor waits for, with the wire version this
    // build speaks. Line-buffered stdout would also work, but an explicit
    // flush makes the handshake unambiguous.
    println!("MS_SHARD_ADDR={} wire={VERSION}", server.local_addr());
    std::io::stdout().flush().expect("flush addr line");

    // Serve until a wire Drain finishes (stop goes up only after the
    // flush completed and the ack is queued), then join and exit. The
    // poll cadence bounds retirement latency, not request latency.
    while !server.is_stopped() {
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}
