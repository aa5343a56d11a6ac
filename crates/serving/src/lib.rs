//! Dynamic-workload serving (paper §4.1).
//!
//! The paper's deployment story: queries arrive as a stream with a dynamic
//! latency constraint `T`; the server builds a mini-batch every `T/2` and
//! spends the remaining `T/2` processing it, choosing the slice rate `r`
//! with `n·r²·t ≤ T/2` so every sample meets its deadline and no compute is
//! wasted. This crate is that server:
//!
//! - [`workload`] — arrival processes with diurnal cycles and flash-crowd
//!   spikes up to ≥16× the base rate (the Singles'-Day scenario of §1).
//! - [`LatencyProfile`] — per-rate service times, `ms_core`'s cost surface
//!   in seconds: calibrated on the live network at startup, or an assumed
//!   law such as Eq. 3's quadratic.
//! - [`controller`] — the SLA controller that picks each batch's rate and
//!   admission from a profile, and the accuracy table answers are scored by.
//! - [`engine`] — a multi-threaded worker-pool engine running actual sliced
//!   forward passes, with SLA-driven batching, admission control and
//!   backpressure shedding. It reads one clock, chosen at construction: the
//!   wall for live serving, or a virtual one on which a pass costs what a
//!   truth profile says. There `Engine::replay` runs a workload trace through
//!   the same worker code as pure arithmetic; the §4.1 comparison of slicing
//!   against coarse degradation (fixed model, dropped candidates, a swap to a
//!   cheap model) is a set of such replays.
//!   Late batches delay the ones behind them, so an inelastic server's
//!   backlog snowballs through a spike while the elastic one slices itself
//!   down and drains.

pub mod controller;
pub mod engine;
/// `LatencyProfile` under its former path.
pub mod profile;
pub mod workload;

pub use controller::{AccuracyTable, RatePolicy, SlaController, SlaDecision};
pub use engine::{
    Engine, EngineConfig, EngineCounters, EngineRequest, EngineResponse, ReplayReport, ShedReason,
};
pub use profile::LatencyProfile;
pub use workload::{WorkloadConfig, WorkloadTrace};
