//! Conventional Batch Normalization (Ioffe & Szegedy 2015).
//!
//! Used by the *fixed-width* baseline models and as the building block of
//! [`crate::norm::switchable::SwitchableBatchNorm`]. This layer does **not**
//! slice: the paper's point (§3.2) is precisely that one set of BN running
//! estimates cannot serve multiple widths, so sliced models use GroupNorm
//! instead and SlimmableNet-style models keep one BN per width.

use crate::layer::{Layer, Mode, Param};
use ms_tensor::Tensor;

/// Batch normalisation over `[B, C, H, W]` or `[B, C]`.
pub struct BatchNorm {
    name: String,
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    /// Running mean (inference statistics).
    pub running_mean: Vec<f32>,
    /// Running variance (inference statistics).
    pub running_var: Vec<f32>,
    cache: Option<Cache>,
}

struct Cache {
    xhat: Tensor,
    inv_std: Vec<f32>, // per channel
    hw: usize,
    batch: usize,
}

impl BatchNorm {
    /// Creates a batch-norm layer over `channels` channels.
    pub fn new(name: impl Into<String>, channels: usize) -> Self {
        let name = name.into();
        BatchNorm {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new(
                format!("{name}.gamma"),
                Tensor::full([channels], 1.0),
                false,
            ),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros([channels]), false),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: None,
            name,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    fn stats_dims(&self, x: &Tensor) -> (usize, usize) {
        let dims = x.dims();
        assert!(dims.len() == 2 || dims.len() == 4, "{}: rank", self.name);
        assert_eq!(dims[1], self.channels, "{}: channels", self.name);
        let hw: usize = dims[2..].iter().product::<usize>().max(1);
        (dims[0], hw)
    }
}

impl Layer for BatchNorm {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let (batch, hw) = self.stats_dims(x);
        let c = self.channels;
        let mut y = x.clone();
        let mut xhat = x.clone();
        let mut inv_stds = vec![0.0f32; c];
        #[allow(clippy::needless_range_loop)] // ch indexes x, y and stats together
        for ch in 0..c {
            let (mean, var) = if mode == Mode::Train {
                // Batch statistics over B × HW for this channel.
                let mut sum = 0.0f64;
                let mut sq = 0.0f64;
                for s in 0..batch {
                    let base = (s * c + ch) * hw;
                    for &v in &x.data()[base..base + hw] {
                        sum += v as f64;
                        sq += (v as f64) * (v as f64);
                    }
                }
                let n = (batch * hw) as f64;
                let mean = (sum / n) as f32;
                let var = ((sq / n) - (sum / n) * (sum / n)).max(0.0) as f32;
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean[ch], self.running_var[ch])
            };
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds[ch] = inv_std;
            let gamma = self.gamma.value.data()[ch];
            let beta = self.beta.value.data()[ch];
            for s in 0..batch {
                let base = (s * c + ch) * hw;
                for k in 0..hw {
                    let xh = (x.data()[base + k] - mean) * inv_std;
                    xhat.data_mut()[base + k] = xh;
                    y.data_mut()[base + k] = gamma * xh + beta;
                }
            }
        }
        if mode == Mode::Train {
            self.cache = Some(Cache {
                xhat,
                inv_std: inv_stds,
                hw,
                batch,
            });
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward before Train forward");
        let (batch, hw) = (cache.batch, cache.hw);
        let c = self.channels;
        let n = (batch * hw) as f32;
        let mut dx = Tensor::zeros(dy.shape().clone());
        for ch in 0..c {
            let gamma = self.gamma.value.data()[ch];
            let inv_std = cache.inv_std[ch];
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for s in 0..batch {
                let base = (s * c + ch) * hw;
                for k in 0..hw {
                    let d = dy.data()[base + k];
                    sum_dy += d;
                    sum_dy_xhat += d * cache.xhat.data()[base + k];
                }
            }
            self.gamma.grad.get_mut().data_mut()[ch] += sum_dy_xhat;
            self.beta.grad.get_mut().data_mut()[ch] += sum_dy;
            let mean_dy = sum_dy / n;
            let mean_dy_xhat = sum_dy_xhat / n;
            for s in 0..batch {
                let base = (s * c + ch) * hw;
                for k in 0..hw {
                    let d = dy.data()[base + k];
                    let xh = cache.xhat.data()[base + k];
                    dx.data_mut()[base + k] = gamma * inv_std * (d - mean_dy - xh * mean_dy_xhat);
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn flops_per_sample(&self) -> u64 {
        2 * self.channels as u64
    }

    fn active_param_count(&self) -> u64 {
        2 * self.channels as u64
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_grads;
    use ms_tensor::SeededRng;

    #[test]
    fn train_normalises_batch() {
        let mut rng = SeededRng::new(1);
        let mut bn = BatchNorm::new("bn", 3);
        let x = Tensor::from_vec(
            [4, 3, 2, 2],
            (0..48).map(|_| rng.uniform(-3.0, 3.0)).collect(),
        )
        .unwrap();
        let y = bn.forward(&x, Mode::Train);
        for ch in 0..3 {
            let vals: Vec<f32> = (0..4)
                .flat_map(|s| (0..4).map(move |k| (s, k)))
                .map(|(s, k)| y.at(&[s, ch, k / 2, k % 2]))
                .collect();
            let (m, v) = ms_tensor::ops::mean_var(&vals);
            assert!(m.abs() < 1e-4);
            assert!((v - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn running_stats_converge_to_distribution() {
        let mut rng = SeededRng::new(2);
        let mut bn = BatchNorm::new("bn", 1);
        for _ in 0..200 {
            let x =
                Tensor::from_vec([8, 1], (0..8).map(|_| rng.normal(5.0, 2.0)).collect()).unwrap();
            let _ = bn.forward(&x, Mode::Train);
        }
        assert!(
            (bn.running_mean[0] - 5.0).abs() < 0.5,
            "{}",
            bn.running_mean[0]
        );
        assert!(
            (bn.running_var[0] - 4.0).abs() < 1.5,
            "{}",
            bn.running_var[0]
        );
        // Inference uses running stats: a batch at the distribution mean maps
        // near zero.
        let x = Tensor::from_vec([1, 1], vec![5.0]).unwrap();
        let y = bn.forward(&x, Mode::Infer);
        assert!(y.data()[0].abs() < 0.3);
    }

    #[test]
    fn gradients() {
        let mut rng = SeededRng::new(3);
        let mut bn = BatchNorm::new("bn", 4);
        let x = Tensor::from_vec(
            [3, 4, 2, 2],
            (0..48).map(|_| rng.uniform(-2.0, 2.0)).collect(),
        )
        .unwrap();
        assert_grads(&mut bn, &x, &mut rng);
    }
}
