//! Pre-activation bottleneck ResNet (He et al. 2016b) — the Table-3 ResNet
//! family (ResNet-164, ResNet-56-2, ResNet-50 analogues).
//!
//! Each block computes `x + conv1×1(relu(gn(conv3×3(relu(gn(conv1×1(relu(gn(x))))))))`
//! with a projection shortcut whenever the channel count or stride changes.
//! All convolutions and GroupNorms are sliced with a shared group count, so
//! the identity shortcut stays shape-consistent at every slice rate (both
//! ends of the skip activate the same channel prefix). The paper notes the
//! group residual mechanism is "ideally suited" for such multi-branch
//! transformations (§3.5).

use ms_nn::activation::Relu;
use ms_nn::conv2d::{Conv2d, Conv2dConfig};
use ms_nn::layer::{Layer, Mode, Param};
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::norm::GroupNorm;
use ms_nn::pool::GlobalAvgPool;
use ms_nn::sequential::Sequential;
use ms_nn::slice::SliceRate;
use ms_tensor::{SeededRng, Tensor};
use serde::{Deserialize, Serialize};

/// Configuration for a [`ResNet`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResNetConfig {
    /// Input channels.
    pub in_channels: usize,
    /// Input spatial size (square).
    pub image_size: usize,
    /// Stages: `(blocks, bottleneck base width)`. Stage `i > 0` halves the
    /// spatial size in its first block.
    pub stages: Vec<(usize, usize)>,
    /// Output channels of a block = `expansion × base width`.
    pub expansion: usize,
    /// Output classes.
    pub num_classes: usize,
    /// Slicing groups (shared with every GroupNorm).
    pub groups: usize,
    /// Width multiplier (the `-k` of wide ResNets, Table 3's ResNet-56-2).
    pub width_multiplier: f32,
}

impl ResNetConfig {
    /// Deep-narrow analogue of ResNet-164: many cheap bottlenecks.
    pub fn deep_narrow(num_classes: usize, groups: usize) -> Self {
        ResNetConfig {
            in_channels: 3,
            image_size: 16,
            stages: vec![(2, 8), (2, 16), (2, 32)],
            expansion: 2,
            num_classes,
            groups,
            width_multiplier: 1.0,
        }
    }

    /// Shallow-wide analogue of ResNet-56-2.
    pub fn shallow_wide(num_classes: usize, groups: usize) -> Self {
        ResNetConfig {
            in_channels: 3,
            image_size: 16,
            stages: vec![(1, 16), (1, 32), (1, 64)],
            expansion: 2,
            num_classes,
            groups,
            width_multiplier: 1.0,
        }
    }

    fn scaled(&self, w: usize) -> usize {
        let g = self.groups;
        let w = (w as f32 * self.width_multiplier).round() as usize;
        (w.div_ceil(g) * g).max(g)
    }
}

/// One pre-activation bottleneck block.
struct PreActBottleneck {
    name: String,
    gn1: GroupNorm,
    relu1: Relu,
    conv1: Conv2d,
    gn2: GroupNorm,
    relu2: Relu,
    conv2: Conv2d,
    gn3: GroupNorm,
    relu3: Relu,
    conv3: Conv2d,
    shortcut: Option<Conv2d>,
}

impl PreActBottleneck {
    #[allow(clippy::too_many_arguments)]
    fn new(
        name: String,
        c_in: usize,
        base: usize,
        c_out: usize,
        stride: usize,
        hw: usize,
        groups: usize,
        in_groups: Option<usize>,
        rng: &mut SeededRng,
    ) -> Self {
        let gn1 = GroupNorm::new(
            format!("{name}.gn1"),
            c_in,
            in_groups.unwrap_or(1).max(1).min(c_in),
        );
        let conv1 = Conv2d::new(
            format!("{name}.conv1"),
            Conv2dConfig {
                in_ch: c_in,
                out_ch: base,
                kernel: 1,
                stride: 1,
                pad: 0,
                h: hw,
                w: hw,
                in_groups,
                out_groups: Some(groups),
                bias: false,
            },
            rng,
        );
        let gn2 = GroupNorm::new(format!("{name}.gn2"), base, groups);
        let conv2 = Conv2d::new(
            format!("{name}.conv2"),
            Conv2dConfig {
                in_ch: base,
                out_ch: base,
                kernel: 3,
                stride,
                pad: 1,
                h: hw,
                w: hw,
                in_groups: Some(groups),
                out_groups: Some(groups),
                bias: false,
            },
            rng,
        );
        let out_hw = hw / stride;
        let gn3 = GroupNorm::new(format!("{name}.gn3"), base, groups);
        let conv3 = Conv2d::new(
            format!("{name}.conv3"),
            Conv2dConfig {
                in_ch: base,
                out_ch: c_out,
                kernel: 1,
                stride: 1,
                pad: 0,
                h: out_hw,
                w: out_hw,
                in_groups: Some(groups),
                out_groups: Some(groups),
                bias: false,
            },
            rng,
        );
        let needs_projection = c_in != c_out || stride != 1;
        let shortcut = needs_projection.then(|| {
            Conv2d::new(
                format!("{name}.proj"),
                Conv2dConfig {
                    in_ch: c_in,
                    out_ch: c_out,
                    kernel: 1,
                    stride,
                    pad: 0,
                    h: hw,
                    w: hw,
                    in_groups,
                    out_groups: Some(groups),
                    bias: false,
                },
                rng,
            )
        });
        PreActBottleneck {
            name,
            gn1,
            relu1: Relu::new(),
            conv1,
            gn2,
            relu2: Relu::new(),
            conv2,
            gn3,
            relu3: Relu::new(),
            conv3,
            shortcut,
        }
    }
}

impl Layer for PreActBottleneck {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let t = self.relu1.forward(&self.gn1.forward(x, mode), mode);
        let mut y = self.conv1.forward(&t, mode);
        y = self.relu2.forward(&self.gn2.forward(&y, mode), mode);
        y = self.conv2.forward(&y, mode);
        y = self.relu3.forward(&self.gn3.forward(&y, mode), mode);
        y = self.conv3.forward(&y, mode);
        let sc = match &mut self.shortcut {
            Some(proj) => proj.forward(&t, mode),
            None => x.clone(),
        };
        y.add_assign(&sc);
        y
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let mut d = self.conv3.backward(dout);
        d = self.gn3.backward(&self.relu3.backward(&d));
        d = self.conv2.backward(&d);
        d = self.gn2.backward(&self.relu2.backward(&d));
        d = self.conv1.backward(&d); // gradient at t from the main branch
        match &mut self.shortcut {
            Some(proj) => {
                let dt = d.add(&proj.backward(dout));
                self.gn1.backward(&self.relu1.backward(&dt))
            }
            None => {
                let dx_main = self.gn1.backward(&self.relu1.backward(&d));
                dx_main.add(dout) // identity skip passes dout straight through
            }
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.gn1.visit_params(f);
        self.conv1.visit_params(f);
        self.gn2.visit_params(f);
        self.conv2.visit_params(f);
        self.gn3.visit_params(f);
        self.conv3.visit_params(f);
        if let Some(proj) = &mut self.shortcut {
            proj.visit_params(f);
        }
    }

    fn set_slice_rate(&mut self, r: SliceRate) {
        self.gn1.set_slice_rate(r);
        self.conv1.set_slice_rate(r);
        self.gn2.set_slice_rate(r);
        self.conv2.set_slice_rate(r);
        self.gn3.set_slice_rate(r);
        self.conv3.set_slice_rate(r);
        if let Some(proj) = &mut self.shortcut {
            proj.set_slice_rate(r);
        }
    }

    fn flops_per_sample(&self) -> u64 {
        let mut f = self.conv1.flops_per_sample()
            + self.conv2.flops_per_sample()
            + self.conv3.flops_per_sample()
            + self.gn1.flops_per_sample()
            + self.gn2.flops_per_sample()
            + self.gn3.flops_per_sample();
        if let Some(proj) = &self.shortcut {
            f += proj.flops_per_sample();
        }
        f
    }

    fn active_param_count(&self) -> u64 {
        let mut p = self.conv1.active_param_count()
            + self.conv2.active_param_count()
            + self.conv3.active_param_count()
            + self.gn1.active_param_count()
            + self.gn2.active_param_count()
            + self.gn3.active_param_count();
        if let Some(proj) = &self.shortcut {
            p += proj.active_param_count();
        }
        p
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Sliceable pre-activation ResNet.
pub struct ResNet {
    cfg: ResNetConfig,
    net: Sequential,
}

impl ResNet {
    /// Builds the network.
    pub fn new(cfg: &ResNetConfig, rng: &mut SeededRng) -> Self {
        assert!(!cfg.stages.is_empty() && cfg.expansion >= 1);
        let mut net = Sequential::new("resnet");
        let stem_width = cfg.scaled(cfg.stages[0].1);
        let mut hw = cfg.image_size;
        net.add(Box::new(Conv2d::new(
            "stem",
            Conv2dConfig {
                in_ch: cfg.in_channels,
                out_ch: stem_width,
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
        let mut c_in = stem_width;
        for (si, &(blocks, base)) in cfg.stages.iter().enumerate() {
            let base = cfg.scaled(base);
            let c_out = base * cfg.expansion;
            for bi in 0..blocks {
                let stride = if si > 0 && bi == 0 { 2 } else { 1 };
                net.add(Box::new(PreActBottleneck::new(
                    format!("s{si}b{bi}"),
                    c_in,
                    base,
                    c_out,
                    stride,
                    hw,
                    cfg.groups,
                    Some(cfg.groups),
                    rng,
                )));
                hw /= stride;
                c_in = c_out;
            }
        }
        net.add(Box::new(GroupNorm::new("tail.gn", c_in, cfg.groups)));
        net.add(Box::new(Relu::new()));
        net.add(Box::new(GlobalAvgPool::new()));
        net.add(Box::new(Linear::new(
            "head",
            LinearConfig {
                in_dim: c_in,
                out_dim: cfg.num_classes,
                in_groups: Some(cfg.groups),
                out_groups: None,
                bias: true,
                input_rescale: true,
            },
            rng,
        )));
        ResNet {
            cfg: cfg.clone(),
            net,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ResNetConfig {
        &self.cfg
    }

    /// Number of weighted layers (convs + classifier), the `L` of
    /// `ResNet-L`.
    pub fn depth(&self) -> usize {
        2 + self
            .cfg
            .stages
            .iter()
            .map(|&(blocks, _)| blocks * 3)
            .sum::<usize>()
    }
}

impl Layer for ResNet {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.net.forward(x, mode)
    }
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.net.backward(dy)
    }
    // `forward_prefix` stays on the trait default (recompute at `to`): the
    // bottleneck blocks have no prefix forward of their own, so their output
    // channels move with the rate, and chaining the container's refine would
    // let the head resume partial sums over columns that changed
    // (`resnet_refine_is_bitwise_identical` in tests/prefix_refine.rs).
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
        "resnet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_nn::gradcheck::{check_layer, CheckOpts};

    fn tiny() -> ResNetConfig {
        ResNetConfig {
            in_channels: 3,
            image_size: 8,
            stages: vec![(1, 4), (1, 8)],
            expansion: 2,
            num_classes: 4,
            groups: 4,
            width_multiplier: 1.0,
        }
    }

    #[test]
    fn forward_shapes_full_and_sliced() {
        let mut rng = SeededRng::new(1);
        let mut r = ResNet::new(&tiny(), &mut rng);
        let x = Tensor::zeros([2, 3, 8, 8]);
        assert_eq!(r.forward(&x, Mode::Infer).dims(), &[2, 4]);
        for rate in [0.25f32, 0.5, 0.75] {
            r.set_slice_rate(SliceRate::new(rate));
            assert_eq!(r.forward(&x, Mode::Infer).dims(), &[2, 4]);
        }
    }

    #[test]
    fn block_gradients_full_width() {
        let mut rng = SeededRng::new(2);
        let mut block = PreActBottleneck::new("b".into(), 4, 4, 8, 1, 4, 4, Some(4), &mut rng);
        let x = Tensor::from_vec(
            [2, 4, 4, 4],
            (0..128).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        check_layer(&mut block, &x, &mut rng, &CheckOpts::default())
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn identity_block_gradients() {
        let mut rng = SeededRng::new(3);
        // c_in == c_out, stride 1 → identity shortcut path.
        let mut block = PreActBottleneck::new("b".into(), 8, 4, 8, 1, 4, 4, Some(4), &mut rng);
        let x = Tensor::from_vec(
            [1, 8, 4, 4],
            (0..128).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        check_layer(&mut block, &x, &mut rng, &CheckOpts::default())
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn sliced_block_gradients() {
        let mut rng = SeededRng::new(4);
        let mut block = PreActBottleneck::new("b".into(), 8, 8, 8, 1, 4, 4, Some(4), &mut rng);
        block.set_slice_rate(SliceRate::new(0.5));
        let x = Tensor::from_vec(
            [1, 4, 4, 4],
            (0..64).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        check_layer(&mut block, &x, &mut rng, &CheckOpts::default())
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn depth_counts_weighted_layers() {
        let mut rng = SeededRng::new(5);
        let r = ResNet::new(&tiny(), &mut rng);
        assert_eq!(r.depth(), 2 + 6);
    }

    #[test]
    fn downsampling_halves_spatial_dims() {
        let mut rng = SeededRng::new(6);
        let mut r = ResNet::new(&tiny(), &mut rng);
        // End-to-end train pass to exercise strided blocks.
        let x = Tensor::zeros([1, 3, 8, 8]);
        let y = r.forward(&x, Mode::Train);
        let _ = r.backward(&Tensor::zeros(y.shape().clone()));
    }
}
