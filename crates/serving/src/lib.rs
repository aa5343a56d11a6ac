//! Dynamic-workload serving (paper §4.1).
//!
//! The paper's deployment story: queries arrive as a stream with a dynamic
//! latency constraint `T`; the server builds a mini-batch every `T/2` and
//! spends the remaining `T/2` processing it, choosing the slice rate `r`
//! with `n·r²·t ≤ T/2` so every sample meets its deadline and no compute is
//! wasted. This crate simulates that loop and the baselines it replaces:
//!
//! - [`workload`] — arrival processes with diurnal cycles and flash-crowd
//!   spikes up to ≥16× the base rate (the Singles'-Day scenario of §1).
//! - [`controller`] — slice-rate selection policies, including the paper's
//!   elastic policy and the coarse degradation baselines (fixed model,
//!   model swap, candidate dropping).
//! - [`simulator`] — a discrete-time loop (one tick = one `T/2` mini-batch
//!   interval) producing per-batch latency, width, shed-rate and
//!   accuracy-proxy traces.
//!
//! Beyond the simulation, the crate now hosts the *real* serving path:
//!
//! - [`profile`] — measured per-rate latency profiles calibrated on the live
//!   network at startup (the measured replacement for the synthetic cost
//!   column).
//! - [`engine`] — a multi-threaded worker-pool engine running actual sliced
//!   forward passes, with SLA-driven batching, admission control and
//!   backpressure shedding. It reads one clock, chosen at construction: the
//!   wall for live serving, or a virtual one on which a pass costs what a
//!   truth profile says — there `Engine::replay` runs a workload trace
//!   through the same worker code as pure arithmetic, which makes it the
//!   backlog-aware simulator too (queries queue behind a slow batch instead
//!   of being shed: the fixed-width server's backlog snowballs through a
//!   spike while the elastic one slices itself down and drains).

pub mod controller;
pub mod engine;
pub mod profile;
pub mod simulator;
pub mod workload;

pub use controller::{AccuracyTable, Policy, RatePolicy, SlaController, SlaDecision};
pub use engine::{Engine, EngineConfig, EngineCounters, EngineResponse, ReplayReport, ShedReason};
pub use profile::LatencyProfile;
pub use simulator::{SimConfig, SimReport, Simulator};
pub use workload::{WorkloadConfig, WorkloadTrace};
