//! Sliceable multi-layer perceptron.
//!
//! The exposition model of §3.1 (Figure 1 is literally a dense layer), and
//! the model used to demonstrate standalone sub-model deployment: its
//! [`DeploySliced`] implementation copies only the active weight blocks into
//! a fresh, smaller `Mlp` that produces bit-identical logits.

use ms_core::deploy::{copy_block, copy_prefix, DeploySliced};
use ms_nn::activation::Relu;
use ms_nn::dropout::Dropout;
use ms_nn::layer::{BoxedLayer, Layer, Mode, Param};
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::sequential::Sequential;
use ms_nn::slice::{active_units, SliceRate};
use ms_tensor::{SeededRng, Tensor};
use std::sync::Arc;

/// Configuration for a sliceable [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Input feature dimension (never sliced).
    pub input_dim: usize,
    /// Hidden layer widths (each sliced with `groups` groups).
    pub hidden_dims: Vec<usize>,
    /// Output classes (never sliced).
    pub num_classes: usize,
    /// Slicing group count per hidden layer.
    pub groups: usize,
    /// Dropout probability after each hidden activation (0 disables).
    pub dropout: f64,
    /// Rescale pre-activations when inputs are sliced (the dense-layer
    /// scale-stability device).
    pub input_rescale: bool,
}

/// Sliceable MLP: `input → [Linear, ReLU, Dropout?]* → Linear`.
pub struct Mlp {
    cfg: MlpConfig,
    net: Sequential,
}

impl Mlp {
    /// Builds the MLP.
    pub fn new(cfg: &MlpConfig, rng: &mut SeededRng) -> Self {
        assert!(
            !cfg.hidden_dims.is_empty(),
            "need at least one hidden layer"
        );
        for &h in &cfg.hidden_dims {
            assert!(cfg.groups >= 1 && cfg.groups <= h, "groups vs width {h}");
        }
        let mut net = Sequential::new("mlp");
        let mut in_dim = cfg.input_dim;
        let mut in_groups = None; // input layer: never slice the input side
        for (i, &h) in cfg.hidden_dims.iter().enumerate() {
            net.add(Box::new(Linear::new(
                format!("fc{i}"),
                LinearConfig {
                    in_dim,
                    out_dim: h,
                    in_groups,
                    out_groups: Some(cfg.groups),
                    bias: true,
                    input_rescale: cfg.input_rescale,
                },
                rng,
            )));
            net.add(Box::new(Relu::new()));
            if cfg.dropout > 0.0 {
                net.add(Box::new(Dropout::new(cfg.dropout, rng)));
            }
            in_dim = h;
            in_groups = Some(cfg.groups);
        }
        net.add(Box::new(Linear::new(
            "head",
            LinearConfig {
                in_dim,
                out_dim: cfg.num_classes,
                in_groups,
                out_groups: None, // output layer: never slice the classes
                bias: true,
                input_rescale: cfg.input_rescale,
            },
            rng,
        )));
        Mlp {
            cfg: cfg.clone(),
            net,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MlpConfig {
        &self.cfg
    }

    /// A copy for another thread to serve ([`Layer::replica`]): it shares
    /// every weight with `self`, so it costs no init and no second copy.
    pub fn replica(&self) -> Mlp {
        Mlp {
            cfg: self.cfg.clone(),
            net: self.net.replica().expect("an MLP's layers all offer one"),
        }
    }
}

impl Layer for Mlp {
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
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.net.visit_params(f);
    }
    fn replica(&self) -> Option<BoxedLayer> {
        Some(Box::new(Mlp::replica(self)))
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
        "mlp"
    }
}

impl DeploySliced for Mlp {
    type Deployed = Mlp;

    fn deploy(&mut self, rate: SliceRate) -> Mlp {
        // Build a structurally smaller MLP whose full width equals the
        // active width of `self` at `rate`, then copy the active blocks.
        let hidden: Vec<usize> = self
            .cfg
            .hidden_dims
            .iter()
            .map(|&h| active_units(h, self.cfg.groups, rate))
            .collect();
        let deployed_cfg = MlpConfig {
            input_dim: self.cfg.input_dim,
            hidden_dims: hidden.clone(),
            num_classes: self.cfg.num_classes,
            // One group: the deployed model is fixed-width.
            groups: 1,
            dropout: 0.0,
            // The parent applies rescale factors full/active at `rate`; bake
            // them into the copied weights instead so the deployed model
            // needs no rescaling.
            input_rescale: false,
        };
        let mut rng = SeededRng::new(0); // weights are overwritten below
        let mut out = Mlp::new(&deployed_cfg, &mut rng);

        // Collect (name → value) of the parent's params.
        let mut parent: Vec<(String, Arc<Tensor>)> = Vec::new();
        self.visit_params(&mut |p| parent.push((p.name.clone(), Arc::clone(&p.value))));

        let scale_for = |layer_idx: usize| -> f32 {
            if !self.cfg.input_rescale || layer_idx == 0 {
                return 1.0;
            }
            let full = self.cfg.hidden_dims[layer_idx - 1];
            let act = hidden[layer_idx - 1];
            full as f32 / act as f32
        };

        let find = |name: &str| -> &Tensor {
            &parent
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing param {name}"))
                .1
        };

        let n_layers = self.cfg.hidden_dims.len();
        let mut dims_in = self.cfg.input_dim;
        let mut copies: Vec<(String, Tensor)> = Vec::new();
        #[allow(clippy::needless_range_loop)] // i indexes names and widths together
        for i in 0..n_layers {
            let w = find(&format!("fc{i}.weight"));
            let b = find(&format!("fc{i}.bias"));
            let rows = hidden[i];
            let mut wb = copy_block(w, rows, dims_in);
            wb.scale(scale_for(i));
            copies.push((format!("fc{i}.weight"), wb));
            copies.push((format!("fc{i}.bias"), copy_prefix(b, rows)));
            dims_in = rows;
        }
        let mut wb = copy_block(find("head.weight"), self.cfg.num_classes, dims_in);
        wb.scale(scale_for(n_layers));
        copies.push(("head.weight".into(), wb));
        copies.push(("head.bias".into(), find("head.bias").clone()));

        out.visit_params(&mut |p: &mut Param| {
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
mod tests {
    use super::*;

    fn mlp(rng: &mut SeededRng) -> Mlp {
        Mlp::new(
            &MlpConfig {
                input_dim: 6,
                hidden_dims: vec![16, 16],
                num_classes: 3,
                groups: 4,
                dropout: 0.0,
                input_rescale: true,
            },
            rng,
        )
    }

    #[test]
    fn a_replica_shares_every_weight_and_serves_the_same_bits() {
        let mut rng = SeededRng::new(7);
        let mut m = mlp(&mut rng);
        let mut r = m.replica();
        let mut values = Vec::new();
        m.visit_params(&mut |p| values.push(Arc::clone(&p.value)));
        let mut seen = 0;
        r.visit_params(&mut |p| {
            assert!(Arc::ptr_eq(&p.value, &values[seen]), "{} copied", p.name);
            assert!(p.grad.get().is_none());
            seen += 1;
        });
        assert_eq!(seen, values.len());
        let x = Tensor::from_vec([2, 6], (0..12).map(|v| v as f32 * 0.1 - 0.5).collect()).unwrap();
        for rate in [0.5, 1.0].map(SliceRate::new) {
            m.set_slice_rate(rate);
            r.set_slice_rate(rate);
            assert_eq!(m.forward(&x, Mode::Infer), r.forward(&x, Mode::Infer));
        }
    }

    #[test]
    fn forward_shapes_full_and_sliced() {
        let mut rng = SeededRng::new(1);
        let mut m = mlp(&mut rng);
        let x = Tensor::zeros([2, 6]);
        assert_eq!(m.forward(&x, Mode::Infer).dims(), &[2, 3]);
        m.set_slice_rate(SliceRate::new(0.5));
        assert_eq!(m.forward(&x, Mode::Infer).dims(), &[2, 3]);
    }

    #[test]
    fn flops_shrink_quadratically_in_hidden_block() {
        let mut rng = SeededRng::new(2);
        let mut m = mlp(&mut rng);
        let full = m.flops_per_sample();
        m.set_slice_rate(SliceRate::new(0.5));
        let half = m.flops_per_sample();
        // fc0 (in fixed) + head (out fixed) shrink linearly, fc1 quadratically.
        let expect = (6 * 8) + (8 * 8) + (8 * 3);
        assert_eq!(half, expect as u64);
        assert!(half < full);
    }

    #[test]
    fn deployed_model_matches_sliced_parent_exactly() {
        let mut rng = SeededRng::new(3);
        let mut m = mlp(&mut rng);
        let rate = SliceRate::new(0.5);
        m.set_slice_rate(rate);
        let x = Tensor::from_vec([4, 6], (0..24).map(|v| v as f32 * 0.1).collect()).unwrap();
        let want = m.forward(&x, Mode::Infer);
        let mut small = m.deploy(rate);
        let got = small.forward(&x, Mode::Infer);
        assert_eq!(want.dims(), got.dims());
        for (a, b) in want.data().iter().zip(got.data()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        // And it genuinely stores fewer parameters.
        let small_params = small.active_param_count();
        m.set_slice_rate(SliceRate::FULL);
        let full_params = m.active_param_count();
        assert!(small_params < full_params);
    }
}
