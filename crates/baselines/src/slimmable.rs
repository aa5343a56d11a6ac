//! SlimmableNet (Yu et al., ICLR 2019) — the closest related work, compared
//! in Table 1 as "Slimmable".
//!
//! Differences from model slicing, both reproduced here: (1) *static*
//! scheduling — every declared width trains on every batch (handled by
//! running the trainer with `SchedulerKind::Static`); (2) scale stability
//! via **switchable batch-norm** — one BN per declared width — instead of a
//! single sliced GroupNorm.

use ms_models::vgg::VggConfig;
use ms_nn::activation::Relu;
use ms_nn::conv2d::{Conv2d, Conv2dConfig};
use ms_nn::layer::{Layer, Mode, Param};
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::norm::SwitchableBatchNorm;
use ms_nn::pool::{GlobalAvgPool, MaxPool2d};
use ms_nn::sequential::Sequential;
use ms_nn::slice::SliceRate;
use ms_tensor::{SeededRng, Tensor};

/// VGG-style network with switchable batch-norm: the SlimmableNet
/// counterpart of [`ms_models::vgg::Vgg`]. Widths are sliced exactly like
/// the GroupNorm variant; only the normalisation differs.
pub struct SlimmableVgg {
    net: Sequential,
    rates: Vec<f32>,
}

impl SlimmableVgg {
    /// Builds the network for the declared width `rates`.
    pub fn new(cfg: &VggConfig, rates: &[f32], rng: &mut SeededRng) -> Self {
        assert!(!rates.is_empty());
        let mut net = Sequential::new("slimmable-vgg");
        let mut in_ch = cfg.in_channels;
        let mut in_groups: Option<usize> = None;
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
                net.add(Box::new(SwitchableBatchNorm::new(
                    format!("s{si}c{ci}.sbn"),
                    width,
                    cfg.groups,
                    rates,
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
                input_rescale: true,
            },
            rng,
        )));
        SlimmableVgg {
            net,
            rates: rates.to_vec(),
        }
    }

    /// The declared width rates.
    pub fn rates(&self) -> &[f32] {
        &self.rates
    }
}

impl Layer for SlimmableVgg {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.net.forward(x, mode)
    }
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.net.backward(dy)
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
        "slimmable-vgg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build() -> SlimmableVgg {
        let mut rng = SeededRng::new(1);
        SlimmableVgg::new(
            &VggConfig {
                in_channels: 3,
                image_size: 8,
                stages: vec![(1, 8), (1, 16)],
                num_classes: 4,
                groups: 4,
                width_multiplier: 1.0,
            },
            &[0.25, 0.5, 0.75, 1.0],
            &mut rng,
        )
    }

    #[test]
    fn forwards_at_every_declared_width() {
        let mut net = build();
        let x = Tensor::zeros([2, 3, 8, 8]);
        for &r in &[0.25f32, 0.5, 0.75, 1.0] {
            net.set_slice_rate(SliceRate::new(r));
            assert_eq!(net.forward(&x, Mode::Infer).dims(), &[2, 4]);
        }
    }

    #[test]
    fn bn_banks_multiply_norm_params() {
        let mut net = build();
        let mut bn_params = 0usize;
        net.visit_params(&mut |p| {
            if p.name.contains(".sbn") {
                bn_params += p.len();
            }
        });
        // Widths 2,4,6,8 for the 8-wide conv and 4,8,12,16 for the 16-wide:
        // (2+4+6+8 + 4+8+12+16) × 2 (γ and β) = 120 — 4× the single-GN cost.
        assert_eq!(bn_params, 120);
    }

    #[test]
    fn train_backward_roundtrip_sliced() {
        let mut net = build();
        net.set_slice_rate(SliceRate::new(0.5));
        let x = Tensor::full([2, 3, 8, 8], 0.1);
        let y = net.forward(&x, Mode::Train);
        let dx = net.backward(&Tensor::full(y.shape().clone(), 1.0));
        assert_eq!(dx.dims(), x.dims());
    }
}
