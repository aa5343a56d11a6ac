//! Weight initialisers.
//!
//! Kaiming/He initialisation is the default for ReLU networks (convs and
//! dense layers), Xavier/Glorot for tanh/sigmoid gates (LSTM). Fan-in is
//! always the *full* fan-in of the layer, not the sliced fan-in: model
//! slicing's input rescaling (see `ms-nn`) keeps activations scale-stable
//! across slice rates, so initialising for the full width is correct for
//! every subnet.

use crate::{SeededRng, Shape, Tensor};

/// Kaiming-normal initialisation: `N(0, sqrt(2 / fan_in))`.
pub fn kaiming_normal(shape: impl Into<Shape>, fan_in: usize, rng: &mut SeededRng) -> Tensor {
    let shape = shape.into();
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    let mut data = vec![0.0; shape.numel()];
    rng.fill_normal(&mut data, 0.0, std);
    Tensor::from_vec(shape, data).expect("generated buffer matches shape")
}

/// Xavier-uniform initialisation: `U(-a, a)` with `a = sqrt(6/(fan_in+fan_out))`.
pub fn xavier_uniform(
    shape: impl Into<Shape>,
    fan_in: usize,
    fan_out: usize,
    rng: &mut SeededRng,
) -> Tensor {
    let a = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
    uniform(shape, a, rng)
}

/// Uniform initialisation in `[-a, a]`, the classic LM embedding init.
pub fn uniform(shape: impl Into<Shape>, a: f32, rng: &mut SeededRng) -> Tensor {
    let shape = shape.into();
    let mut data = vec![0.0; shape.numel()];
    rng.fill_uniform(&mut data, -a, a);
    Tensor::from_vec(shape, data).expect("generated buffer matches shape")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kaiming_std_tracks_fan_in() {
        let mut rng = SeededRng::new(1);
        let t = kaiming_normal([64, 128], 128, &mut rng);
        let var = t.sq_norm() / t.numel() as f64;
        let expect = 2.0 / 128.0;
        assert!(
            (var - expect).abs() < expect * 0.15,
            "var {var} vs {expect}"
        );
    }

    #[test]
    fn xavier_bounds_hold() {
        let mut rng = SeededRng::new(2);
        let t = xavier_uniform([32, 32], 32, 32, &mut rng);
        let a = (6.0f32 / 64.0).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= a));
        // Not degenerate:
        assert!(t.max_abs() > a * 0.5);
    }

    #[test]
    fn uniform_bounds_hold() {
        let mut rng = SeededRng::new(3);
        let t = uniform([100], 0.1, &mut rng);
        assert!(t.data().iter().all(|v| v.abs() <= 0.1));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = kaiming_normal([4, 4], 4, &mut SeededRng::new(7));
        let b = kaiming_normal([4, 4], 4, &mut SeededRng::new(7));
        assert_eq!(a, b);
    }
}
