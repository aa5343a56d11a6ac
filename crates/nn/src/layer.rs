//! The [`Layer`] trait, trainable [`Param`]s and execution [`Mode`].

use crate::slice::SliceRate;
use ms_tensor::{Shape, Tensor};
use std::sync::Arc;

/// Whether a forward pass is part of training (caches activations, applies
/// dropout, updates batch-norm statistics) or inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: layers cache whatever their backward pass needs.
    Train,
    /// Inference: no caches, no stochastic regularisation.
    Infer,
}

/// A trainable parameter: value, gradient accumulator and optimiser state.
///
/// The value is shared, copy-on-write storage. Cloning a `Param`, capturing
/// a [`Checkpoint`](crate::checkpoint::Checkpoint) or hydrating a replica
/// from [`SharedWeights`](crate::shared::SharedWeights) bumps a refcount, so
/// every holder reads one buffer. A write goes through [`Param::value_mut`]
/// (`Arc::make_mut`): it copies the tensor only while another holder still
/// shares it, and a net that owns its weights writes them in place.
///
/// The gradient is allocated the first time something writes it (a
/// backward, [`Param::zero_grad`], the optimiser), so a net that only serves
/// holds none.
#[derive(Debug, Clone)]
pub struct Param {
    /// Human-readable name, used in diagnostics and weight dumps.
    pub name: String,
    /// The parameter tensor, shared copy-on-write (see the type docs).
    pub value: Arc<Tensor>,
    /// Gradient accumulator, same shape as `value`, allocated on first
    /// write. Layers always *accumulate* (`+=`) and the optimiser only reads
    /// it, so whoever starts an accumulation zeroes it first (the trainer,
    /// at the top of each step).
    pub grad: Grad,
    /// Momentum buffer, lazily allocated by SGD on first use.
    pub velocity: Option<Tensor>,
    /// Whether weight decay applies (true for weights, false for biases and
    /// normalisation affine parameters, per common practice).
    pub decay: bool,
}

impl Param {
    /// Creates a parameter that owns `value` and has no gradient yet.
    pub fn new(name: impl Into<String>, value: Tensor, decay: bool) -> Self {
        let grad = Grad::new(value.shape().clone());
        Param {
            name: name.into(),
            value: Arc::new(value),
            grad,
            velocity: None,
            decay,
        }
    }

    /// A parameter that shares this one's value (a refcount moves) and has
    /// no gradient or momentum of its own: what a serving replica holds.
    pub fn share(&self) -> Param {
        Param {
            name: self.name.clone(),
            value: Arc::clone(&self.value),
            grad: Grad::new(self.value.shape().clone()),
            velocity: None,
            decay: self.decay,
        }
    }

    /// The value for writing: copied first if another holder shares it.
    pub fn value_mut(&mut self) -> &mut Tensor {
        Arc::make_mut(&mut self.value)
    }

    /// Zeroes the gradient accumulator (allocating it on first use).
    pub fn zero_grad(&mut self) {
        self.grad.get_mut().fill_zero();
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.numel()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.value.numel() == 0
    }
}

/// A parameter's gradient accumulator, allocated zeroed on first write.
#[derive(Debug, Clone)]
pub struct Grad {
    shape: Shape,
    acc: Option<Tensor>,
}

impl Grad {
    fn new(shape: Shape) -> Self {
        Grad { shape, acc: None }
    }

    /// The accumulated gradient; `None` until something wrote one.
    pub fn get(&self) -> Option<&Tensor> {
        self.acc.as_ref()
    }

    /// The accumulator for writing, allocated zeroed on the first call.
    pub fn get_mut(&mut self) -> &mut Tensor {
        let shape = &self.shape;
        self.acc.get_or_insert_with(|| Tensor::zeros(shape.clone()))
    }

    /// Squared L2 norm; 0 before the first write.
    pub fn sq_norm(&self) -> f64 {
        self.acc.as_ref().map_or(0.0, Tensor::sq_norm)
    }

    /// Largest absolute entry; 0 before the first write.
    pub fn max_abs(&self) -> f32 {
        self.acc.as_ref().map_or(0.0, Tensor::max_abs)
    }
}

/// A neural-network layer (or container of layers) with hand-written
/// forward/backward and optional model-slicing support.
///
/// Contract:
/// - `backward` must be called after a `Mode::Train` forward with the same
///   slice rate still set, and consumes the cache that forward created.
/// - Parameter gradients are *accumulated*; callers zero them between
///   optimiser steps (the Algorithm-1 trainer relies on accumulation across
///   several subnet passes).
/// - `set_slice_rate` reconfigures the active widths; layers that do not
///   slice ignore it.
/// - Every pass has a borrowed entry (`forward`, `backward`) and an owned
///   one (`forward_owned`, `backward_owned`) that compute the same bits.
///   The owned entry takes its input by value: the callee may overwrite it
///   (an elementwise layer writes its output there), keep it (a `Train`
///   cache *is* the input that flowed forward) or recycle it, and the caller
///   recycles nothing it handed over. Containers hand each intermediate to
///   the next child this way, so activations move through the stack instead
///   of being copied at every boundary. A layer that works in place
///   implements the owned entry, and its borrowed entry is one pooled copy
///   followed by it.
pub trait Layer {
    /// Forward pass. `Train` mode caches activations for `backward`.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor;

    /// Backward pass: takes `dL/dy`, accumulates parameter gradients and
    /// returns `dL/dx`.
    fn backward(&mut self, dy: &Tensor) -> Tensor;

    /// [`Layer::forward`] on an input the layer owns from here on (see the
    /// trait docs). Default: the borrowed forward, then `x` is recycled.
    fn forward_owned(&mut self, x: Tensor, mode: Mode) -> Tensor {
        let y = self.forward(&x, mode);
        x.recycle();
        y
    }

    /// [`Layer::backward`] on a gradient the layer owns from here on; it may
    /// write `dL/dx` over `dy`. Default: the borrowed backward, then `dy` is
    /// recycled.
    fn backward_owned(&mut self, dy: Tensor) -> Tensor {
        let dx = self.backward(&dy);
        dy.recycle();
        dx
    }

    /// Visits every trainable parameter (used by optimisers and serialisers).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Applies a slice rate. Default: no-op (layer has no width dimension).
    fn set_slice_rate(&mut self, _r: SliceRate) {}

    /// Anytime prefix forward: computes the output at slice rate `to`,
    /// reusing the prefix computed by a previous `forward_prefix` call at
    /// rate `from` on the **same input** when `from` is `Some`.
    ///
    /// Contract (inference only — no backward cache):
    /// - `x` is the layer input at width `to` (containers feed each child
    ///   the previous child's `to`-width output).
    /// - With `from = None` the call starts a fresh prefix pass; with
    ///   `from = Some(r₁)` it refines the pass that last ran at `r₁`, and
    ///   the result is **bitwise-identical** to a fresh pass at `to`.
    /// - The layer is left at slice rate `to`.
    ///
    /// The default recomputes from scratch at `to` — a pure function of
    /// `(x, to)`, so the bitwise guarantee holds trivially. Layers override
    /// this only to make refinement *cheaper* (delta groups only), never to
    /// change its value.
    fn forward_prefix(&mut self, x: &Tensor, from: Option<SliceRate>, to: SliceRate) -> Tensor {
        let _ = from;
        self.set_slice_rate(to);
        self.forward(x, Mode::Infer)
    }

    /// Packs persistent GEMM panels for the current weights (idempotent;
    /// cheap when already packed) and returns whether this call packed
    /// anything. Layers without weight panels ignore it and return `false`.
    ///
    /// A `Conv2d` and the recurrent driver behind `Lstm` and `Gru` multiply
    /// off their panels instead of re-packing the weight per call. Any
    /// `visit_params` pass — an optimiser step, weight hydration, even a
    /// read-only walk — marks them stale, and the layer packs again on first
    /// use after the weight change, in any mode, its backward panels
    /// included. A `Linear` has no panels: it multiplies its weight where it
    /// lies, so it holds one copy of it and sees a write on the next
    /// forward.
    fn prepack(&mut self) -> bool {
        false
    }

    /// Frees the persistent panels (they cost about as much memory as the
    /// weights they mirror). Inference stays correct and keeps its bits: a
    /// layer packs again on first use. For holders of a net that packed it
    /// only temporarily, e.g. a calibration prototype.
    fn release_panels(&mut self) {}

    /// A copy of this layer for another thread to serve: the same structure
    /// and slice setting, every parameter [`Param::share`]d, and no cache of
    /// a pass in flight. `None` (the default) for a layer that offers none;
    /// the dense stack (`Linear`, `Relu`, `Dropout`, a `Sequential` of them)
    /// does.
    fn replica(&self) -> Option<BoxedLayer> {
        None
    }

    /// Multiply–add operations per sample under the *current* slice setting.
    /// Containers sum their children. Default 0 (parameter-free glue).
    fn flops_per_sample(&self) -> u64 {
        0
    }

    /// Scalar parameters active under the current slice setting.
    fn active_param_count(&self) -> u64 {
        0
    }

    /// Layer name for diagnostics.
    fn name(&self) -> &str;
}

/// Convenience alias used throughout the workspace for owned dynamic layers.
///
/// The `Send` bound is deliberate: every concrete layer is plain owned data
/// (tensors, configs, seeded RNGs), so trait objects stay transferable to
/// worker threads — the property the multi-threaded serving engine relies on
/// to give each worker its own model replica.
pub type BoxedLayer = Box<dyn Layer + Send>;

/// A network is anything layer-shaped; models in `ms-models` implement this
/// same trait so trainers and serving code are architecture-agnostic.
pub trait Network: Layer {
    /// Total parameter count at full width.
    fn full_param_count(&mut self) -> u64 {
        let mut n = 0u64;
        self.visit_params(&mut |p| n += p.len() as u64);
        n
    }

    /// Zeroes all parameter gradients.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Global gradient L2 norm (used for clipping diagnostics).
    fn grad_norm(&mut self) -> f64 {
        let mut acc = 0.0f64;
        self.visit_params(&mut |p| acc += p.grad.sq_norm());
        acc.sqrt()
    }
}

impl<T: Layer + ?Sized> Network for T {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy {
        p: Param,
    }

    impl Layer for Dummy {
        fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, dy: &Tensor) -> Tensor {
            dy.clone()
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.p);
        }
        fn name(&self) -> &str {
            "dummy"
        }
    }

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new("w", Tensor::full([2, 2], 1.0), true);
        assert!(p.grad.get().is_none(), "a new parameter holds no gradient");
        assert_eq!(p.grad.sq_norm(), 0.0);
        p.grad.get_mut().fill(3.0);
        p.zero_grad();
        assert!(p.grad.get().unwrap().data().iter().all(|&v| v == 0.0));
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn network_helpers() {
        let mut d = Dummy {
            p: Param::new("w", Tensor::full([3], 1.0), true),
        };
        assert_eq!(d.full_param_count(), 3);
        d.p.grad.get_mut().fill(2.0);
        assert!((d.grad_norm() - (12.0f64).sqrt()).abs() < 1e-9);
        d.zero_grads();
        assert_eq!(d.grad_norm(), 0.0);
    }
}
