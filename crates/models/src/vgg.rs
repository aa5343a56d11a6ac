//! VGG-style plain convolutional network (Table 3, left panel).
//!
//! Structure per stage: `[conv3×3 → GroupNorm → ReLU] × n` followed by
//! 2×2 max-pooling; after the last stage a global average pool feeds the
//! classifier. Matches the paper's CIFAR VGG-13 shape at a configurable
//! scale. Every hidden conv is sliced on both sides; the stem conv keeps
//! its image input unsliced and the classifier keeps its class outputs
//! unsliced (§5.1.1).

use ms_nn::activation::Relu;
use ms_nn::conv2d::{Conv2d, Conv2dConfig};
use ms_nn::layer::{Layer, Mode, Param};
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::norm::GroupNorm;
use ms_nn::pool::{GlobalAvgPool, MaxPool2d};
use ms_nn::sequential::Sequential;
use ms_nn::slice::SliceRate;
use ms_tensor::{SeededRng, Tensor};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration for a [`Vgg`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VggConfig {
    /// Input channels (3 for the CIFAR analogue).
    pub in_channels: usize,
    /// Input spatial size (square).
    pub image_size: usize,
    /// Stages: `(convs per stage, channel width)`. Each stage ends with a
    /// 2×2 stride-2 max pool.
    pub stages: Vec<(usize, usize)>,
    /// Output classes.
    pub num_classes: usize,
    /// Slicing groups per layer (also the GroupNorm group count).
    pub groups: usize,
    /// Multiply every stage width by this factor (width-multiplier
    /// baselines build the fixed-model ensemble this way).
    pub width_multiplier: f32,
}

impl VggConfig {
    /// The scaled VGG-13 analogue used throughout the experiments: three
    /// stages on 16×16 inputs.
    pub fn vgg13_scaled(num_classes: usize, groups: usize) -> Self {
        VggConfig {
            in_channels: 3,
            image_size: 16,
            stages: vec![(2, 16), (2, 32), (2, 64)],
            num_classes,
            groups,
            width_multiplier: 1.0,
        }
    }

    /// Effective width of a stage after the multiplier, rounded to a
    /// multiple of the group count so slicing boundaries stay aligned.
    pub fn stage_width(&self, stage: usize) -> usize {
        let w = (self.stages[stage].1 as f32 * self.width_multiplier).round() as usize;
        let g = self.groups;
        (w.div_ceil(g) * g).max(g)
    }
}

/// Sliceable VGG-style network.
pub struct Vgg {
    cfg: VggConfig,
    net: Sequential,
}

impl Vgg {
    /// Builds the network (classifier input rescaling on — the default).
    pub fn new(cfg: &VggConfig, rng: &mut SeededRng) -> Self {
        Vgg::new_with_head_rescale(cfg, true, rng)
    }

    /// Builds the network with explicit control of the classifier's input
    /// rescaling — the ablation knob for the dense-layer scale-stability
    /// device (§5.2.2; see `--bin ablation`).
    pub fn new_with_head_rescale(cfg: &VggConfig, head_rescale: bool, rng: &mut SeededRng) -> Self {
        assert!(!cfg.stages.is_empty());
        let mut net = Sequential::new("vgg");
        let mut in_ch = cfg.in_channels;
        let mut in_groups: Option<usize> = None; // stem input: image, unsliced
        let mut hw = cfg.image_size;
        for (si, &(n_convs, _)) in cfg.stages.iter().enumerate() {
            let width = cfg.stage_width(si);
            for ci in 0..n_convs {
                net.add(Box::new(Conv2d::new(
                    format!("s{si}c{ci}"),
                    Conv2dConfig {
                        in_ch,
                        out_ch: width,
                        kernel: 3,
                        stride: 1,
                        pad: 1,
                        h: hw,
                        w: hw,
                        in_groups,
                        out_groups: Some(cfg.groups),
                        bias: false,
                    },
                    rng,
                )));
                net.add(Box::new(GroupNorm::new(
                    format!("s{si}c{ci}.gn"),
                    width,
                    cfg.groups,
                )));
                net.add(Box::new(Relu::new()));
                in_ch = width;
                in_groups = Some(cfg.groups);
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
                in_groups,
                out_groups: None,
                bias: true,
                // Pooled conv features are GroupNorm-stabilised, but the
                // *sum* into each logit still shrinks with fewer inputs;
                // rescale keeps logit scale width-invariant.
                input_rescale: head_rescale,
            },
            rng,
        )));
        Vgg {
            cfg: cfg.clone(),
            net,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &VggConfig {
        &self.cfg
    }

    /// `(layer name, γ values)` of every GroupNorm layer in network order —
    /// the Figure-6 probes. Takes `&mut self` because parameter traversal
    /// is mutable; nothing is modified.
    pub fn gamma_snapshots(&mut self) -> Vec<(String, Vec<f32>)> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| {
            if p.name.ends_with(".gamma") {
                out.push((p.name.clone(), p.value.data().to_vec()));
            }
        });
        out
    }
}

impl Layer for Vgg {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.net.forward(x, mode)
    }
    fn forward_owned(&mut self, x: Tensor, mode: Mode) -> Tensor {
        self.net.forward_owned(x, mode)
    }
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.net.backward(dy)
    }
    fn backward_owned(&mut self, dy: Tensor) -> Tensor {
        self.net.backward_owned(dy)
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
        "vgg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> VggConfig {
        VggConfig {
            in_channels: 3,
            image_size: 8,
            stages: vec![(1, 8), (1, 16)],
            num_classes: 4,
            groups: 4,
            width_multiplier: 1.0,
        }
    }

    #[test]
    fn forward_shapes() {
        let mut rng = SeededRng::new(1);
        let mut v = Vgg::new(&tiny(), &mut rng);
        let x = Tensor::zeros([2, 3, 8, 8]);
        assert_eq!(v.forward(&x, Mode::Infer).dims(), &[2, 4]);
        v.set_slice_rate(SliceRate::new(0.5));
        assert_eq!(v.forward(&x, Mode::Infer).dims(), &[2, 4]);
    }

    #[test]
    fn train_mode_backward_runs() {
        let mut rng = SeededRng::new(2);
        let mut v = Vgg::new(&tiny(), &mut rng);
        let x = Tensor::zeros([2, 3, 8, 8]);
        let y = v.forward(&x, Mode::Train);
        let _ = v.backward(&Tensor::zeros(y.shape().clone()));
    }

    #[test]
    fn width_multiplier_scales_and_aligns() {
        let mut cfg = tiny();
        cfg.width_multiplier = 0.55;
        // 8 * 0.55 = 4.4 → rounded to 4, multiple of groups=4.
        assert_eq!(cfg.stage_width(0), 4);
        cfg.width_multiplier = 2.0;
        assert_eq!(cfg.stage_width(0), 16);
    }

    #[test]
    fn gamma_snapshots_cover_every_gn() {
        let mut rng = SeededRng::new(5);
        let mut v = Vgg::new(&tiny(), &mut rng);
        let snaps = v.gamma_snapshots();
        assert_eq!(snaps.len(), 2); // one GN per conv
        assert_eq!(snaps[0].1.len(), 8);
        assert_eq!(snaps[1].1.len(), 16);
        assert!(snaps.iter().all(|(_, g)| g.iter().all(|&v| v == 1.0)));
    }

    #[test]
    fn flops_quadratic_between_hidden_stages() {
        let mut rng = SeededRng::new(3);
        let mut v = Vgg::new(&tiny(), &mut rng);
        let full = v.flops_per_sample();
        v.set_slice_rate(SliceRate::new(0.5));
        let half = v.flops_per_sample();
        // Dominated by the hidden convs: cost should drop well below half.
        assert!(
            (half as f64) < (full as f64) * 0.45,
            "half {half} vs full {full}"
        );
    }
}

impl ms_core::deploy::DeploySliced for Vgg {
    type Deployed = Vgg;

    /// Extracts a standalone fixed-width VGG equivalent to `self` sliced at
    /// `rate`: conv weights keep the active row/column-prefix blocks (the
    /// im2col layout makes sliced input channels a contiguous column
    /// prefix), GroupNorm keeps the active γ/β prefix with the active group
    /// count, and the classifier bakes in the parent's rescale factor.
    fn deploy(&mut self, rate: ms_nn::slice::SliceRate) -> Vgg {
        use ms_core::deploy::{copy_block, copy_prefix};
        use ms_nn::slice::{active_groups, active_units};

        // Deployed config: active widths, active group count (so GroupNorm
        // statistics match the parent's sliced statistics exactly).
        let g_act = self
            .cfg
            .stages
            .iter()
            .map(|&(_, w)| active_groups(w, self.cfg.groups, rate))
            .min()
            .unwrap_or(1)
            .max(1);
        let deployed_cfg = VggConfig {
            in_channels: self.cfg.in_channels,
            image_size: self.cfg.image_size,
            stages: self
                .cfg
                .stages
                .iter()
                .map(|&(n, w)| (n, active_units(w, self.cfg.groups, rate)))
                .collect(),
            num_classes: self.cfg.num_classes,
            groups: g_act,
            width_multiplier: 1.0,
        };
        let mut rng = ms_tensor::SeededRng::new(0); // overwritten below
        let mut out = Vgg::new(&deployed_cfg, &mut rng);

        // Parent parameter snapshot.
        let mut parent: Vec<(String, Arc<Tensor>)> = Vec::new();
        self.visit_params(&mut |p| parent.push((p.name.clone(), Arc::clone(&p.value))));
        let find = |name: &str| -> &Tensor {
            &parent
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing param {name}"))
                .1
        };

        // Per-layer active channel plan, walking the stages like `new` does.
        let k2 = 9usize; // 3×3 convs throughout
        let mut copies: Vec<(String, Tensor)> = Vec::new();
        let mut in_full = self.cfg.in_channels;
        let mut in_act = self.cfg.in_channels; // stem input never sliced
        let mut last_act = in_act;
        for (si, &(n_convs, w_full)) in self.cfg.stages.iter().enumerate() {
            let w_act = active_units(w_full, self.cfg.groups, rate);
            for ci in 0..n_convs {
                let w = find(&format!("s{si}c{ci}.weight"));
                // Rows: active out channels; cols: active in channels × k².
                copies.push((
                    format!("s{si}c{ci}.weight"),
                    copy_block(w, w_act, in_act * k2),
                ));
                let _ = in_full;
                copies.push((
                    format!("s{si}c{ci}.gn.gamma"),
                    copy_prefix(find(&format!("s{si}c{ci}.gn.gamma")), w_act),
                ));
                copies.push((
                    format!("s{si}c{ci}.gn.beta"),
                    copy_prefix(find(&format!("s{si}c{ci}.gn.beta")), w_act),
                ));
                in_full = w_full;
                in_act = w_act;
                last_act = w_act;
            }
        }
        // Classifier: bake the parent's rescale factor (full/active of the
        // last conv width) into the copied weight.
        let last_full = self.cfg.stages.last().expect("stages").1;
        let scale = if last_act < last_full {
            last_full as f32 / last_act as f32
        } else {
            1.0
        };
        let mut head_w = copy_block(find("head.weight"), self.cfg.num_classes, last_act);
        head_w.scale(scale);
        copies.push(("head.weight".into(), head_w));
        copies.push(("head.bias".into(), find("head.bias").clone()));

        out.visit_params(&mut |p| {
            let at = copies
                .iter()
                .position(|(n, _)| *n == p.name)
                .unwrap_or_else(|| panic!("no copy for {}", p.name));
            let (_, value) = copies.swap_remove(at);
            assert_eq!(p.value.shape(), value.shape(), "{}", p.name);
            p.value = Arc::new(value);
        });
        out
    }
}

#[cfg(test)]
mod deploy_tests {
    use super::*;
    use ms_core::deploy::DeploySliced;

    #[test]
    fn deployed_vgg_matches_sliced_parent() {
        let mut rng = SeededRng::new(71);
        let cfg = VggConfig {
            in_channels: 3,
            image_size: 8,
            stages: vec![(1, 8), (2, 16)],
            num_classes: 5,
            groups: 4,
            width_multiplier: 1.0,
        };
        let mut parent = Vgg::new(&cfg, &mut rng);
        // Give the head a non-trivial bias so the copy path is exercised.
        parent.visit_params(&mut |p| {
            if p.name == "head.bias" {
                for (i, v) in p.value_mut().data_mut().iter_mut().enumerate() {
                    *v = i as f32 * 0.1;
                }
            }
        });
        let x = Tensor::from_vec(
            [2, 3, 8, 8],
            (0..384)
                .map(|i| ((i * 13) % 17) as f32 * 0.1 - 0.8)
                .collect(),
        )
        .unwrap();
        for &r in &[0.25f32, 0.5, 0.75, 1.0] {
            let rate = SliceRate::new(r);
            parent.set_slice_rate(rate);
            let want = parent.forward(&x, Mode::Infer);
            parent.set_slice_rate(SliceRate::FULL);
            let mut small = parent.deploy(rate);
            let got = small.forward(&x, Mode::Infer);
            for (a, b) in want.data().iter().zip(got.data()) {
                assert!((a - b).abs() < 1e-4, "rate {r}: {a} vs {b}");
            }
            // Storage shrinks.
            parent.set_slice_rate(rate);
            assert_eq!(small.active_param_count(), parent.active_param_count());
            parent.set_slice_rate(SliceRate::FULL);
        }
    }
}
