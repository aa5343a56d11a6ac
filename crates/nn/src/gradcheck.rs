//! Finite-difference gradient checking.
//!
//! This is the load-bearing correctness tool for a hand-written backprop
//! stack: every layer's tests call [`check_layer`] with a handful of shapes
//! and slice rates, and the integration suite re-runs it over random
//! configurations via proptest.
//!
//! The check builds the scalar loss `L = Σ (y ⊙ s)` for a fixed random seed
//! tensor `s`, obtains analytic gradients from one forward/backward pair and
//! compares them element-by-element (sampled for large tensors) against
//! central differences in f32.

use crate::layer::{Layer, Mode};
use ms_tensor::{SeededRng, Tensor};

/// Tolerances and sampling for a gradient check.
#[derive(Debug, Clone, Copy)]
pub struct CheckOpts {
    /// Central-difference step.
    pub eps: f32,
    /// Accepted |analytic − numeric| ≤ `tol_abs + tol_rel·|numeric|`.
    pub tol_abs: f32,
    /// Relative tolerance component.
    pub tol_rel: f32,
    /// Maximum elements probed per tensor (strided sampling above this).
    pub max_probes: usize,
}

impl Default for CheckOpts {
    fn default() -> Self {
        CheckOpts {
            eps: 5e-3,
            tol_abs: 2e-3,
            tol_rel: 2e-2,
            max_probes: 160,
        }
    }
}

fn loss_of(layer: &mut dyn Layer, x: &Tensor, seed: &Tensor) -> f64 {
    let y = layer.forward(x, Mode::Train);
    y.data()
        .iter()
        .zip(seed.data())
        .map(|(a, b)| (a * b) as f64)
        .sum()
}

fn probe_indices(len: usize, max: usize) -> Vec<usize> {
    if len <= max {
        (0..len).collect()
    } else {
        let stride = len / max;
        (0..max).map(|i| i * stride).collect()
    }
}

/// The central difference at `eps / 2` of the loss `loss_at(delta)` around
/// `l0 = loss_at(0)`, or `None` when the probe sits on a kink.
///
/// Piecewise-linear activations (ReLU, max-pool) make the loss non-smooth; a
/// probe that crosses a kink produces a garbage central difference. Two
/// tests must both hold for the probe to count. The central differences at
/// two step sizes must agree — which catches a kink only one of them
/// reaches. And the forward and backward one-sided differences at `eps` must
/// agree — which catches a kink so close to the probe point that both step
/// sizes straddle it and the two central differences agree with each other
/// on the same wrong slope (a ReLU behind a one-channel-per-group GroupNorm
/// amplifies the step enough to do this on most of its probes).
fn numeric_grad(eps: f32, l0: f64, mut loss_at: impl FnMut(f32) -> f64) -> Option<f32> {
    let smooth =
        |d1: f32, d2: f32| -> bool { (d1 - d2).abs() <= 0.05 * (d1.abs() + d2.abs()) + 5e-3 };
    let h = eps as f64;
    let (lp, lm) = (loss_at(eps), loss_at(-eps));
    let forward = ((lp - l0) / h) as f32;
    let backward = ((l0 - lm) / h) as f32;
    let full = ((lp - lm) / (2.0 * h)) as f32;
    let half = ((loss_at(0.5 * eps) - loss_at(-0.5 * eps)) / h) as f32;
    (smooth(forward, backward) && smooth(full, half)).then_some(half)
}

/// Checks the input gradient and every parameter gradient of `layer` at `x`.
///
/// Returns `Err` with a human-readable description of the first mismatch.
/// The layer must be deterministic across repeated `Train` forwards (disable
/// dropout or set its probability to zero when checking).
pub fn check_layer(
    layer: &mut dyn Layer,
    x: &Tensor,
    rng: &mut SeededRng,
    opts: &CheckOpts,
) -> Result<(), String> {
    // Shape discovery + seed tensor.
    let y0 = layer.forward(x, Mode::Train);
    let seed_data: Vec<f32> = (0..y0.numel()).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let seed = Tensor::from_vec(y0.shape().clone(), seed_data).expect("seed shape");

    // Analytic pass.
    layer.visit_params(&mut |p| p.zero_grad());
    let _ = layer.forward(x, Mode::Train);
    let dx = layer.backward(&seed);
    if dx.shape() != x.shape() {
        return Err(format!(
            "backward returned shape {} for input shape {}",
            dx.shape(),
            x.shape()
        ));
    }

    // Snapshot analytic parameter gradients.
    let mut param_grads: Vec<(String, Vec<f32>)> = Vec::new();
    layer.visit_params(&mut |p| {
        let g = p.grad.get().expect("zeroed above");
        param_grads.push((p.name.clone(), g.data().to_vec()))
    });

    let agree = |analytic: f32, numeric: f32| -> bool {
        (analytic - numeric).abs() <= opts.tol_abs + opts.tol_rel * numeric.abs()
    };

    // Input gradient.
    let l0 = loss_of(layer, x, &seed);
    for i in probe_indices(x.numel(), opts.max_probes) {
        let numeric = numeric_grad(opts.eps, l0, |delta| {
            let mut xd = x.clone();
            xd.data_mut()[i] += delta;
            loss_of(layer, &xd, &seed)
        });
        let Some(numeric) = numeric else {
            continue; // kink crossing: numeric estimate unreliable
        };
        let analytic = dx.data()[i];
        if !agree(analytic, numeric) {
            return Err(format!(
                "input grad mismatch at {i}: analytic {analytic}, numeric {numeric}"
            ));
        }
    }

    // Parameter gradients: perturb the (param_idx, elem) entry through
    // visit_params with a counter.
    let perturb = |layer: &mut dyn Layer, pi: usize, ei: usize, delta: f32| {
        let mut idx = 0usize;
        layer.visit_params(&mut |p| {
            if idx == pi {
                p.value_mut().data_mut()[ei] += delta;
            }
            idx += 1;
        });
    };

    for (pi, (pname, grads)) in param_grads.iter().enumerate() {
        for ei in probe_indices(grads.len(), opts.max_probes) {
            let numeric = numeric_grad(opts.eps, l0, |delta| {
                perturb(layer, pi, ei, delta);
                let l = loss_of(layer, x, &seed);
                perturb(layer, pi, ei, -delta); // restore
                l
            });
            let Some(numeric) = numeric else {
                continue;
            };
            let analytic = grads[ei];
            if !agree(analytic, numeric) {
                return Err(format!(
                    "param '{pname}' grad mismatch at {ei}: analytic {analytic}, numeric {numeric}"
                ));
            }
        }
    }

    Ok(())
}

/// Asserts a gradient check, panicking with the mismatch description.
pub fn assert_grads(layer: &mut dyn Layer, x: &Tensor, rng: &mut SeededRng) {
    check_layer(layer, x, rng, &CheckOpts::default())
        .unwrap_or_else(|e| panic!("gradient check failed for {}: {e}", layer.name()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Param;

    /// y = w ⊙ x, an elementwise layer with one parameter.
    struct Scale {
        w: Param,
        cache: Option<Tensor>,
    }

    impl Layer for Scale {
        fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
            self.cache = Some(x.clone());
            x.mul(&self.w.value)
        }
        fn backward(&mut self, dy: &Tensor) -> Tensor {
            let x = self.cache.take().expect("forward first");
            self.w.grad.get_mut().add_assign(&dy.mul(&x));
            dy.mul(&self.w.value)
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.w);
        }
        fn name(&self) -> &str {
            "scale"
        }
    }

    /// Deliberately wrong backward (factor 2) to prove the checker catches it.
    struct BrokenScale(Scale);
    impl Layer for BrokenScale {
        fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
            self.0.forward(x, mode)
        }
        fn backward(&mut self, dy: &Tensor) -> Tensor {
            let mut dx = self.0.backward(dy);
            dx.scale(2.0);
            dx
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            self.0.visit_params(f);
        }
        fn name(&self) -> &str {
            "broken-scale"
        }
    }

    #[test]
    fn accepts_correct_gradients() {
        let mut rng = SeededRng::new(1);
        let mut layer = Scale {
            w: Param::new("w", Tensor::from_slice(&[0.5, -1.5, 2.0, 0.1]), true),
            cache: None,
        };
        let x = Tensor::from_slice(&[1.0, 2.0, -0.5, 3.0]);
        assert_grads(&mut layer, &x, &mut rng);
    }

    #[test]
    fn rejects_wrong_gradients() {
        let mut rng = SeededRng::new(1);
        let mut layer = BrokenScale(Scale {
            w: Param::new("w", Tensor::from_slice(&[0.5, -1.5, 2.0, 0.1]), true),
            cache: None,
        });
        let x = Tensor::from_slice(&[1.0, 2.0, -0.5, 3.0]);
        let err = check_layer(&mut layer, &x, &mut rng, &CheckOpts::default());
        assert!(err.is_err());
        assert!(err.unwrap_err().contains("input grad mismatch"));
    }

    #[test]
    fn kink_probes_are_skipped_and_wrong_gradients_still_caught() {
        // Two inputs sit within eps/4 of ReLU's kink: both step sizes
        // straddle it, so the two central differences agree with each other
        // on a slope (~0.6) that is neither side's derivative. Only the
        // one-sided test tells them from a smooth probe.
        let eps = CheckOpts::default().eps;
        let x = Tensor::from_slice(&[0.1 * eps, 1.0, -0.8, -0.125 * eps]);
        let mut rng = SeededRng::new(1);
        let mut relu = crate::activation::Relu::new();
        check_layer(&mut relu, &x, &mut rng, &CheckOpts::default())
            .expect("probes on a kink are skipped, the smooth ones agree");

        let mut broken = BrokenScale(Scale {
            w: Param::new("w", Tensor::from_slice(&[0.5, -1.5, 2.0, 0.1]), true),
            cache: None,
        });
        let err = check_layer(&mut broken, &x, &mut rng, &CheckOpts::default());
        assert!(err.unwrap_err().contains("input grad mismatch"));
    }
}
