//! Dense `f32` tensor substrate for the model-slicing reproduction.
//!
//! This crate provides the numeric kernels that the neural-network layers in
//! `ms-nn` are built on: a row-major dense [`Tensor`], blocked matrix
//! multiplication with explicit leading dimensions (so sliced sub-blocks of a
//! weight matrix can be multiplied in place, which is the mechanism behind
//! model slicing), im2col convolution, pooling, activations and reductions,
//! and seeded weight initialisers.
//!
//! Everything is CPU-only and deterministic: the paper's contribution is a
//! *training scheme*, not a kernel library, so the kernels here favour
//! clarity, exact reproducibility and zero per-call allocation in hot paths
//! over absolute throughput. Every kernel runs on the thread that calls it;
//! [`par`] is the one place a second thread comes from (a training step's
//! fixed two-part split), and results do not depend on whether it did.

pub mod conv;
pub mod error;
pub mod init;
mod kernel;
pub mod matmul;
pub mod ops;
pub mod panels;
pub mod par;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod tensor;

pub use error::TensorError;
/// The span tracer's `span!`, re-exported so the layer crates built on this
/// one can mark spans without a telemetry dependency of their own.
pub use ms_telemetry::span;
pub use rng::SeededRng;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
