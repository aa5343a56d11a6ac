//! SGD with momentum, weight decay and global-norm gradient clipping.
//!
//! The paper trains every model with SGD (§5.2.2 and §5.3.2); the NNLM path
//! additionally clips gradients, the standard recipe for LSTM language
//! models.

use crate::layer::{Layer, Param};
use ms_tensor::Tensor;
use std::sync::Arc;

/// SGD hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct SgdConfig {
    /// Learning rate (mutable through [`Sgd::set_lr`] by schedules).
    pub lr: f32,
    /// Classical momentum coefficient (0 disables the velocity buffer).
    pub momentum: f32,
    /// L2 weight decay, applied only to params with `decay == true`.
    pub weight_decay: f32,
    /// Global-norm clip threshold; `None` disables clipping.
    pub clip_norm: Option<f32>,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 5e-4,
            clip_norm: None,
        }
    }
}

/// Stochastic gradient descent.
pub struct Sgd {
    cfg: SgdConfig,
}

impl Sgd {
    /// Creates the optimiser.
    pub fn new(cfg: SgdConfig) -> Self {
        assert!(cfg.lr > 0.0 && cfg.momentum >= 0.0 && cfg.weight_decay >= 0.0);
        Sgd { cfg }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.cfg.lr
    }

    /// Updates the learning rate (called by schedules).
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0);
        self.cfg.lr = lr;
    }

    /// Applies one update to every parameter of `net` from its accumulated
    /// gradients. The gradients are left as they are: whoever starts the
    /// next accumulation zeroes them first, as Algorithm 1 does at the top
    /// of each iteration. Returns the pre-clip global gradient norm (useful
    /// for diagnostics).
    pub fn step(&mut self, net: &mut dyn Layer) -> f64 {
        // Pass 1: global norm (only needed when clipping, but cheap and a
        // useful training diagnostic either way).
        let mut sq = 0.0f64;
        net.visit_params(&mut |p| sq += p.grad.sq_norm());
        let norm = sq.sqrt();
        let clip_scale = match self.cfg.clip_norm {
            Some(c) if norm > c as f64 && norm > 0.0 => (c as f64 / norm) as f32,
            _ => 1.0,
        };

        let cfg = self.cfg;
        net.visit_params(&mut |p: &mut Param| {
            // d = clip·grad + wd·value
            // v = μ·v + d ; value -= lr·v        (classical momentum)
            if cfg.momentum > 0.0 && p.velocity.is_none() {
                p.velocity = Some(Tensor::zeros(p.value.shape().clone()));
            }
            let decay = if p.decay { cfg.weight_decay } else { 0.0 };
            let (w, g) = (Arc::make_mut(&mut p.value), p.grad.get_mut());
            match &mut p.velocity {
                Some(vel) => {
                    for ((v, g), w) in vel.data_mut().iter_mut().zip(g.data()).zip(w.data_mut()) {
                        let d = clip_scale * g + decay * *w;
                        *v = cfg.momentum * *v + d;
                        *w -= cfg.lr * *v;
                    }
                }
                None => {
                    for (g, w) in g.data().iter().zip(w.data_mut()) {
                        let d = clip_scale * g + decay * *w;
                        *w -= cfg.lr * d;
                    }
                }
            }
        });
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Mode, Param};
    use ms_tensor::Tensor;

    /// Quadratic bowl: y = w ⊙ x with loss fed through grads directly.
    struct One {
        p: Param,
    }
    impl Layer for One {
        fn forward(&mut self, x: &Tensor, _m: Mode) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, dy: &Tensor) -> Tensor {
            dy.clone()
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.p);
        }
        fn name(&self) -> &str {
            "one"
        }
    }

    fn param(v: f32) -> One {
        One {
            p: Param::new("w", Tensor::from_slice(&[v]), true),
        }
    }

    #[test]
    fn plain_sgd_descends() {
        let mut net = param(1.0);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            clip_norm: None,
        });
        // grad of f(w) = w²/2 is w.
        for _ in 0..50 {
            let w = net.p.value.data()[0];
            net.p.grad.get_mut().data_mut()[0] = w;
            opt.step(&mut net);
        }
        assert!(net.p.value.data()[0].abs() < 0.01);
    }

    #[test]
    fn momentum_accelerates() {
        let run = |momentum: f32| {
            let mut net = param(1.0);
            let mut opt = Sgd::new(SgdConfig {
                lr: 0.02,
                momentum,
                weight_decay: 0.0,
                clip_norm: None,
            });
            for _ in 0..30 {
                let w = net.p.value.data()[0];
                net.p.grad.get_mut().data_mut()[0] = w;
                opt.step(&mut net);
            }
            net.p.value.data()[0].abs()
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn clipping_limits_update() {
        let mut net = param(0.0);
        let mut opt = Sgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.0,
            weight_decay: 0.0,
            clip_norm: Some(1.0),
        });
        net.p.grad.get_mut().data_mut()[0] = 100.0;
        let norm = opt.step(&mut net);
        assert!((norm - 100.0).abs() < 1e-6);
        // Update magnitude capped at lr * clip = 1.
        assert!((net.p.value.data()[0] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut net = param(1.0);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.5,
            clip_norm: None,
        });
        // zero task gradient: only decay acts.
        opt.step(&mut net);
        assert!((net.p.value.data()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn step_reads_the_gradient_and_leaves_it() {
        let mut net = param(1.0);
        let mut opt = Sgd::new(SgdConfig::default());
        net.p.grad.get_mut().data_mut()[0] = 3.0;
        opt.step(&mut net);
        assert_eq!(net.p.grad.get().unwrap().data()[0], 3.0);
    }
}
