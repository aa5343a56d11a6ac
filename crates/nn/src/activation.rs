//! Parameter-free activation layers.

use crate::layer::{BoxedLayer, Layer, Mode, Param};
use ms_tensor::{ops, Tensor};

/// ReLU activation, in place on the tensor it is handed.
#[derive(Default)]
pub struct Relu {
    /// One bit per element of the last Train forward's input, set where the
    /// gradient passes (`!(x <= 0)`, so a NaN keeps its gradient); grow-only.
    mask: Vec<u64>,
    /// Elements `mask` covers, until `backward` consumes it.
    masked: Option<usize>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

/// Clamps `x` in place (`v < 0 → 0`) and records, 64 elements a word of
/// `mask` (which has exactly enough words), where the gradient passes.
fn clamp_and_mask(x: &mut [f32], mask: &mut [u64]) {
    let mut chunks = x.chunks_exact_mut(64);
    for (chunk, word) in chunks.by_ref().zip(mask.iter_mut()) {
        *word = clamp_word(chunk);
    }
    let rest = chunks.into_remainder();
    if !rest.is_empty() {
        mask[mask.len() - 1] = clamp_word(rest);
    }
}

/// Clamps up to 64 elements in place; returns the bits of those where
/// `!(v <= 0)` — `v > 0` or NaN — held before the clamp. Inlined into whole 64-float chunks,
/// where both loops vectorise.
#[inline(always)]
fn clamp_word(x: &mut [f32]) -> u64 {
    let mut bits = 0u64;
    for (i, v) in x.iter().enumerate() {
        bits |= u64::from(*v > 0.0 || v.is_nan()) << i;
    }
    for v in x.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    bits
}

/// Zeroes `dy` in place wherever `mask`'s bit is clear.
fn apply_mask(dy: &mut [f32], mask: &[u64]) {
    for (chunk, &word) in dy.chunks_mut(64).zip(mask) {
        for (i, g) in chunk.iter_mut().enumerate() {
            if word >> i & 1 == 0 {
                *g = 0.0;
            }
        }
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward_owned(x.pooled_clone(), mode)
    }

    fn forward_owned(&mut self, mut x: Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Infer {
            ops::relu_inplace(x.data_mut());
            return x;
        }
        let _span = ms_tensor::span!("ops.relu");
        let words = x.numel().div_ceil(64);
        if self.mask.len() < words {
            self.mask.resize(words, 0);
        }
        clamp_and_mask(x.data_mut(), &mut self.mask[..words]);
        self.masked = Some(x.numel());
        x
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_owned(dy.pooled_clone())
    }

    fn backward_owned(&mut self, mut dy: Tensor) -> Tensor {
        let n = self.masked.take().expect("backward before Train forward");
        debug_assert_eq!(dy.numel(), n);
        apply_mask(dy.data_mut(), &self.mask[..n.div_ceil(64)]);
        dy
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn replica(&self) -> Option<BoxedLayer> {
        Some(Box::new(Relu::new()))
    }

    fn name(&self) -> &str {
        "relu"
    }
}

/// Tanh activation, in place on the tensor it is handed.
#[derive(Default)]
pub struct Tanh {
    cache: Option<Tensor>, // forward *output*
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Tanh { cache: None }
    }
}

impl Layer for Tanh {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward_owned(x.pooled_clone(), mode)
    }

    fn forward_owned(&mut self, mut x: Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Infer {
            x.map_inplace(f32::tanh);
            return x;
        }
        // The output is both returned and cached: one pass writes both.
        let mut y = Tensor::pooled_stale(x.shape().clone());
        for (v, c) in x.data_mut().iter_mut().zip(y.data_mut()) {
            *v = v.tanh();
            *c = *v;
        }
        self.cache = Some(y);
        x
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_owned(dy.pooled_clone())
    }

    fn backward_owned(&mut self, mut dy: Tensor) -> Tensor {
        let y = self.cache.take().expect("backward before Train forward");
        for (g, &t) in dy.data_mut().iter_mut().zip(y.data()) {
            *g *= ops::tanh_grad_from_output(t);
        }
        y.recycle();
        dy
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &str {
        "tanh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_grads;
    use ms_tensor::SeededRng;

    #[test]
    fn relu_forward() {
        let mut l = Relu::new();
        let y = l.forward(&Tensor::from_slice(&[-1.0, 2.0]), Mode::Infer);
        assert_eq!(y.data(), &[0.0, 2.0]);
    }

    /// The bit mask passes the gradient exactly where the forward input was
    /// not `<= 0`: a NaN keeps it, `-0.0` and negatives lose it, across a
    /// 64-element word boundary.
    #[test]
    fn relu_mask_matches_the_input_test() {
        let mut x: Vec<f32> = (0..70).map(|i| i as f32 - 35.0).collect();
        x[3] = f32::NAN;
        x[40] = -0.0;
        x[65] = f32::NAN;
        let x = Tensor::from_vec([70], x).unwrap();
        let mut l = Relu::new();
        let y = l.forward(&x, Mode::Train);
        let dx = l.backward(&Tensor::full([70], 1.0));
        for ((&v, &o), &g) in x.data().iter().zip(y.data()).zip(dx.data()) {
            let want_y = if v < 0.0 { 0.0 } else { v };
            assert_eq!(o.to_bits(), want_y.to_bits(), "forward at {v}");
            assert_eq!(g, if v <= 0.0 { 0.0 } else { 1.0 }, "backward at {v}");
        }
    }

    #[test]
    fn relu_grads() {
        let mut rng = SeededRng::new(1);
        let x =
            Tensor::from_vec([2, 5], (0..10).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap();
        assert_grads(&mut Relu::new(), &x, &mut rng);
    }

    #[test]
    fn tanh_grads() {
        let mut rng = SeededRng::new(2);
        let x =
            Tensor::from_vec([2, 5], (0..10).map(|_| rng.uniform(-2.0, 2.0)).collect()).unwrap();
        assert_grads(&mut Tanh::new(), &x, &mut rng);
    }
}
