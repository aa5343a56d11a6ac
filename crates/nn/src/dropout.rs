//! Inverted dropout.
//!
//! Train-mode forward zeroes each element with probability `p` and scales
//! survivors by `1/(1-p)`, so inference is a plain identity. The mask is
//! drawn from a layer-owned seeded RNG stream, keeping whole-experiment
//! determinism.

use crate::layer::{Layer, Mode, Param};
use ms_tensor::{SeededRng, Tensor};

/// Inverted-dropout layer.
pub struct Dropout {
    p: f64,
    rng: SeededRng,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p ∈ [0, 1)`.
    pub fn new(p: f64, rng: &mut SeededRng) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0,1), got {p}"
        );
        Dropout {
            p,
            rng: rng.fork(0xD20),
            mask: None,
        }
    }

    /// The drop probability.
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Infer || self.p == 0.0 {
            self.mask = None;
            return x.pooled_clone();
        }
        let keep = 1.0 / (1.0 - self.p) as f32;
        let mask_data: Vec<f32> = (0..x.numel())
            .map(|_| if self.rng.chance(self.p) { 0.0 } else { keep })
            .collect();
        let mask = Tensor::from_vec(x.shape().clone(), mask_data).expect("mask shape");
        let y = x.mul(&mask);
        self.mask = Some(mask);
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        match self.mask.take() {
            Some(mask) => dy.mul(&mask),
            None => dy.clone(), // p == 0 path
        }
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &str {
        "dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_is_identity() {
        let mut rng = SeededRng::new(1);
        let mut l = Dropout::new(0.5, &mut rng);
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(l.forward(&x, Mode::Infer), x);
    }

    #[test]
    fn train_scales_survivors() {
        let mut rng = SeededRng::new(2);
        let mut l = Dropout::new(0.5, &mut rng);
        let x = Tensor::full([1000], 1.0);
        let y = l.forward(&x, Mode::Train);
        let survivors = y.data().iter().filter(|&&v| v != 0.0).count();
        assert!((300..700).contains(&survivors), "{survivors}");
        assert!(y.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        // Expected value preserved.
        assert!((y.mean() - 1.0).abs() < 0.1);
    }

    #[test]
    fn backward_reuses_mask() {
        let mut rng = SeededRng::new(3);
        let mut l = Dropout::new(0.3, &mut rng);
        let x = Tensor::full([100], 1.0);
        let y = l.forward(&x, Mode::Train);
        let dy = Tensor::full([100], 1.0);
        let dx = l.backward(&dy);
        // dx must be zero exactly where y is zero and scaled elsewhere.
        for (a, b) in y.data().iter().zip(dx.data()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn zero_p_is_identity_in_train() {
        let mut rng = SeededRng::new(4);
        let mut l = Dropout::new(0.0, &mut rng);
        let x = Tensor::from_slice(&[5.0, -2.0]);
        assert_eq!(l.forward(&x, Mode::Train), x);
        assert_eq!(l.backward(&x), x);
    }
}
