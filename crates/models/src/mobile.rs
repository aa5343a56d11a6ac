//! MobileNet-style separable convolution network — the §3.5 suitability
//! claim at model level: "the group residual learning mechanism of model
//! slicing is ideally suited for networks with layer transformation of
//! multiple branches, e.g. … depth-wise convolution".
//!
//! Each block is `depthwise 3×3 → GN → ReLU → pointwise 1×1 → GN → ReLU`.
//! Depthwise cost is *linear* in the active width and pointwise quadratic,
//! so the whole model's cost exponent sits between 1 and 2 — flatter than
//! plain convs, which makes narrow subnets comparatively cheaper to buy
//! accuracy with.

use ms_nn::activation::Relu;
use ms_nn::conv2d::{Conv2d, Conv2dConfig};
use ms_nn::depthwise::{DepthwiseConv2d, DepthwiseConv2dConfig};
use ms_nn::layer::{Layer, Mode, Param};
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::norm::GroupNorm;
use ms_nn::pool::{GlobalAvgPool, MaxPool2d};
use ms_nn::sequential::Sequential;
use ms_nn::slice::SliceRate;
use ms_tensor::{SeededRng, Tensor};
use serde::{Deserialize, Serialize};

/// Configuration for a [`MobileNetStyle`] model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MobileConfig {
    /// Input channels.
    pub in_channels: usize,
    /// Input spatial size (square).
    pub image_size: usize,
    /// Separable blocks per stage and stage width; 2×2 pool after each
    /// stage.
    pub stages: Vec<(usize, usize)>,
    /// Output classes.
    pub num_classes: usize,
    /// Slicing groups.
    pub groups: usize,
}

/// Sliceable depthwise-separable CNN.
pub struct MobileNetStyle {
    cfg: MobileConfig,
    net: Sequential,
}

impl MobileNetStyle {
    /// Builds the network. The stem is a plain conv (image input unsliced);
    /// every separable block slices both of its convolutions.
    pub fn new(cfg: &MobileConfig, rng: &mut SeededRng) -> Self {
        assert!(!cfg.stages.is_empty());
        let mut net = Sequential::new("mobile");
        let mut hw = cfg.image_size;
        let first_width = cfg.stages[0].1;
        net.add(Box::new(Conv2d::new(
            "stem",
            Conv2dConfig {
                in_ch: cfg.in_channels,
                out_ch: first_width,
                kernel: 3,
                stride: 1,
                pad: 1,
                h: hw,
                w: hw,
                in_groups: None,
                out_groups: Some(cfg.groups),
                bias: false,
            },
            rng,
        )));
        net.add(Box::new(GroupNorm::new("stem.gn", first_width, cfg.groups)));
        net.add(Box::new(Relu::new()));
        let mut in_ch = first_width;
        for (si, &(blocks, width)) in cfg.stages.iter().enumerate() {
            for bi in 0..blocks {
                // Depthwise operates on the *incoming* width.
                net.add(Box::new(DepthwiseConv2d::new(
                    format!("s{si}b{bi}.dw"),
                    DepthwiseConv2dConfig {
                        channels: in_ch,
                        kernel: 3,
                        stride: 1,
                        pad: 1,
                        h: hw,
                        w: hw,
                        groups: Some(cfg.groups.min(in_ch)),
                    },
                    rng,
                )));
                net.add(Box::new(GroupNorm::new(
                    format!("s{si}b{bi}.dw.gn"),
                    in_ch,
                    cfg.groups.min(in_ch),
                )));
                net.add(Box::new(Relu::new()));
                // Pointwise expands/projects to the stage width.
                net.add(Box::new(Conv2d::new(
                    format!("s{si}b{bi}.pw"),
                    Conv2dConfig {
                        in_ch,
                        out_ch: width,
                        kernel: 1,
                        stride: 1,
                        pad: 0,
                        h: hw,
                        w: hw,
                        in_groups: Some(cfg.groups.min(in_ch)),
                        out_groups: Some(cfg.groups),
                        bias: false,
                    },
                    rng,
                )));
                net.add(Box::new(GroupNorm::new(
                    format!("s{si}b{bi}.pw.gn"),
                    width,
                    cfg.groups,
                )));
                net.add(Box::new(Relu::new()));
                in_ch = width;
            }
            net.add(Box::new(MaxPool2d::new(2, 2)));
            hw /= 2;
        }
        net.add(Box::new(GlobalAvgPool::new()));
        net.add(Box::new(Linear::new(
            "head",
            LinearConfig {
                in_dim: in_ch,
                out_dim: cfg.num_classes,
                in_groups: Some(cfg.groups),
                out_groups: None,
                bias: true,
                input_rescale: true,
            },
            rng,
        )));
        MobileNetStyle {
            cfg: cfg.clone(),
            net,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MobileConfig {
        &self.cfg
    }
}

impl Layer for MobileNetStyle {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.net.forward(x, mode)
    }
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.net.backward(dy)
    }
    fn forward_prefix(&mut self, x: &Tensor, from: Option<SliceRate>, to: SliceRate) -> Tensor {
        self.net.forward_prefix(x, from, to)
    }
    fn prepack(&mut self) -> bool {
        self.net.prepack()
    }
    fn release_panels(&mut self) {
        self.net.release_panels();
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.net.visit_params(f);
    }
    fn set_slice_rate(&mut self, r: SliceRate) {
        self.net.set_slice_rate(r);
    }
    fn flops_per_sample(&self) -> u64 {
        self.net.flops_per_sample()
    }
    fn active_param_count(&self) -> u64 {
        self.net.active_param_count()
    }
    fn name(&self) -> &str {
        "mobile"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MobileConfig {
        MobileConfig {
            in_channels: 3,
            image_size: 8,
            stages: vec![(1, 8), (1, 16)],
            num_classes: 4,
            groups: 4,
        }
    }

    #[test]
    fn forward_shapes_full_and_sliced() {
        let mut rng = SeededRng::new(1);
        let mut m = MobileNetStyle::new(&tiny(), &mut rng);
        let x = Tensor::zeros([2, 3, 8, 8]);
        assert_eq!(m.forward(&x, Mode::Infer).dims(), &[2, 4]);
        for r in [0.25f32, 0.5, 0.75] {
            m.set_slice_rate(SliceRate::new(r));
            assert_eq!(m.forward(&x, Mode::Infer).dims(), &[2, 4]);
        }
    }

    #[test]
    fn cost_exponent_below_plain_conv() {
        // The separable model's cost ratio at half width should be *larger*
        // than a plain conv net's (depthwise part scales linearly, not
        // quadratically) — i.e. flatter cost curve.
        let mut rng = SeededRng::new(2);
        let mut mobile = MobileNetStyle::new(&tiny(), &mut rng);
        let full = mobile.flops_per_sample() as f64;
        mobile.set_slice_rate(SliceRate::new(0.5));
        let half_ratio = mobile.flops_per_sample() as f64 / full;
        assert!(half_ratio > 0.25, "separable ratio {half_ratio}");
        // And still clearly below 1 — it does get cheaper.
        assert!(half_ratio < 0.6);
    }

    #[test]
    fn train_backward_roundtrip() {
        let mut rng = SeededRng::new(3);
        let mut m = MobileNetStyle::new(&tiny(), &mut rng);
        m.set_slice_rate(SliceRate::new(0.5));
        let x = Tensor::full([2, 3, 8, 8], 0.2);
        let y = m.forward(&x, Mode::Train);
        let dx = m.backward(&Tensor::full(y.shape().clone(), 1.0));
        assert_eq!(dx.dims(), x.dims());
        let mut nonzero = 0;
        m.visit_params(&mut |p| {
            if p.grad.max_abs() > 0.0 {
                nonzero += 1;
            }
        });
        assert!(nonzero > 5, "{nonzero} params with grad");
    }

    #[test]
    fn learns_a_toy_task() {
        use ms_nn::layer::Network;
        use ms_nn::loss::CrossEntropy;
        use ms_nn::optim::{Sgd, SgdConfig};
        let mut rng = SeededRng::new(4);
        let mut m = MobileNetStyle::new(&tiny(), &mut rng);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
            clip_norm: Some(5.0),
        });
        // Two trivially separable classes: bright vs dark images.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..16 {
            let v = if i % 2 == 0 { 1.0 } else { -1.0 };
            xs.extend(std::iter::repeat_n(v, 192));
            ys.push(usize::from(i % 2 == 0));
        }
        let x = Tensor::from_vec([16, 3, 8, 8], xs).unwrap();
        let mut last = f64::INFINITY;
        for _ in 0..30 {
            m.zero_grads();
            let logits = m.forward(&x, Mode::Train);
            let (loss, dl) = CrossEntropy.forward(&logits, &ys);
            let _ = m.backward(&dl);
            opt.step(&mut m);
            last = loss;
        }
        assert!(last < 0.1, "loss {last}");
    }
}
