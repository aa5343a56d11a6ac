//! # modelslicing
//!
//! A Rust reproduction of *“Model Slicing for Supporting Complex Analytics
//! with Elastic Inference Cost and Resource Constraints”* (Cai, Chen, Ooi,
//! Gao — PVLDB 13(2), VLDB 2019).
//!
//! Model slicing trains **one** neural network that is executable at many
//! widths: each layer's components are partitioned into ordered groups, every
//! forward pass activates a prefix of those groups selected by a single
//! scalar *slice rate* `r`, and training schedules `r` stochastically so all
//! subnets learn jointly. At inference time the width — and therefore the
//! (roughly quadratic-in-`r`) compute cost — is chosen per query to meet a
//! latency or FLOPs budget.
//!
//! This facade crate re-exports the subsystem crates:
//!
//! - [`tensor`] — dense f32 tensors, GEMM with leading dimensions, im2col
//!   convolution, pooling, initialisers ([`ms_tensor`]).
//! - [`nn`] — sliceable layers with hand-derived backprop, losses,
//!   optimisers ([`ms_nn`]).
//! - [`slicing`] — the paper's contribution: slice plans, scheduling schemes,
//!   the Algorithm-1 trainer, the cost model and the elastic inference engine
//!   ([`ms_core`]).
//! - [`models`] — VGG-style CNNs, pre-activation ResNets, the NNLM language
//!   model, the multi-classifier baseline ([`ms_models`]).
//! - [`baselines`] — fixed-width ensembles, Network Slimming, SkipNet,
//!   SlimmableNet, cascades ([`ms_baselines`]).
//! - [`data`] — synthetic image/text datasets, loaders and metrics
//!   ([`ms_data`]).
//! - [`serving`] — the Section-4.1 application: dynamic-workload serving
//!   by the elastic engine ([`ms_serving`]); cascade ranking is scored in
//!   [`baselines`].
//! - [`net`] — serving over TCP: the length-prefixed wire protocol, the
//!   epoll reactor front-end, blocking/pipelined clients and the
//!   deadline-aware multi-engine router ([`ms_net`]).
//! - [`telemetry`] — zero-cost observability: the global metrics registry,
//!   feature-gated span tracing and Prometheus/JSON exposition
//!   ([`ms_telemetry`]).
//! - [`cluster`] — the elastic fleet: shard supervisor over `shard_server`
//!   processes, SLO-burn-driven autoscaler (scale-out → slice-down → shed),
//!   hard-failover front router and open-loop load generator
//!   ([`ms_cluster`]).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the short version:
//!
//! ```
//! use modelslicing::prelude::*;
//!
//! // A sliceable MLP with 4 width groups per hidden layer.
//! let mut rng = SeededRng::new(0);
//! let mut model = ms_models::mlp::Mlp::new(&ms_models::mlp::MlpConfig {
//!     input_dim: 8,
//!     hidden_dims: vec![32, 32],
//!     num_classes: 4,
//!     groups: 4,
//!     dropout: 0.0,
//!     input_rescale: true,
//! }, &mut rng);
//!
//! // Slice it to half width and run a forward pass.
//! model.set_slice_rate(SliceRate::new(0.5));
//! let x = Tensor::zeros([2, 8]);
//! let logits = model.forward(&x, Mode::Infer);
//! assert_eq!(logits.dims(), &[2, 4]);
//! ```

pub use ms_baselines as baselines;
pub use ms_cluster as cluster;
pub use ms_core as slicing;
pub use ms_data as data;
pub use ms_models as models;
pub use ms_net as net;
pub use ms_nn as nn;
pub use ms_serving as serving;
pub use ms_telemetry as telemetry;
pub use ms_tensor as tensor;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use ms_core::cost::{CostModel, FlopsBudget};
    pub use ms_core::scheduler::{Scheduler, SchedulerKind};
    pub use ms_core::slice_rate::{SliceRate, SliceRateList};
    pub use ms_core::trainer::{Trainer, TrainerConfig};
    pub use ms_nn::layer::{Layer, Mode, Network};
    pub use ms_tensor::{SeededRng, Shape, Tensor};
}
