//! Sliceable neural-network layers with hand-derived backpropagation.
//!
//! Every layer in this crate implements [`layer::Layer`] and, where it has a
//! width dimension, understands *model slicing* (Cai et al., VLDB 2019): its
//! components (neurons / channels / recurrent units) are partitioned into `G`
//! contiguous groups and a [`slice::SliceRate`] activates a prefix of those
//! groups for both the forward and the backward pass. Gradients only flow
//! into the active prefix, which ties the parameters of all subnets together
//! exactly as Algorithm 1 of the paper requires.
//!
//! Backward passes are derived by hand and validated against finite
//! differences (see [`gradcheck`] and each layer's tests) — there is no
//! autograd tape; layers cache what they need during a `Train`-mode forward.

pub mod activation;
pub mod checkpoint;
pub mod conv2d;
pub mod depthwise;
pub mod dropout;
pub mod embedding;
pub mod flatten;
pub mod gradcheck;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod norm;
pub mod optim;
pub mod pool;
pub mod rnn;
pub mod sequential;
pub mod shared;
pub mod slice;
pub mod workspace;

pub use layer::{Layer, Mode, Param};
pub use sequential::Sequential;
pub use shared::SharedWeights;
pub use slice::SliceRate;
