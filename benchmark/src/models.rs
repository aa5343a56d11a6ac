//! The three networks the workloads run and the seeded inputs they are fed.
//!
//! Weights come from fixed seeds: `--seed` drives arrivals and inputs only,
//! so every run of every commit multiplies the same matrices.

use ms_core::slice_rate::SliceRate;
use ms_models::mlp::{Mlp, MlpConfig};
use ms_models::nnlm::{Nnlm, NnlmConfig};
use ms_models::vgg::{Vgg, VggConfig};
use ms_nn::layer::Layer;
use ms_tensor::{SeededRng, Tensor};

/// Samples per batch in every closed-loop cell and ladder rung.
pub const BATCH: usize = 32;
/// Slice rates of the closed-loop cells and the refine ladder (g = 8).
pub const RATES: [f32; 4] = [0.375, 0.5, 0.75, 1.0];
/// Metric-name suffix of each entry of [`RATES`].
pub const RATE_TAGS: [&str; 4] = ["r038", "r050", "r075", "r100"];
/// Slice groups of all three networks.
pub const GROUPS: usize = 8;

pub const MLP_INPUT: usize = 64;
pub const MLP_HIDDEN: usize = 2048;
pub const CLASSES: usize = 10;
pub const VOCAB: usize = 200;
/// Tokens per NNLM sequence.
pub const SEQ_LEN: usize = 16;

const WEIGHT_SEED: u64 = 41;

pub fn rates() -> [SliceRate; 4] {
    RATES.map(SliceRate::new)
}

/// MLP 64-2048-2048-8: two 2048-wide hidden layers make compute dominate
/// every boundary it is pushed through.
pub fn mlp_config() -> MlpConfig {
    MlpConfig {
        input_dim: MLP_INPUT,
        hidden_dims: vec![MLP_HIDDEN, MLP_HIDDEN],
        num_classes: 8,
        groups: GROUPS,
        dropout: 0.0,
        input_rescale: true,
    }
}

pub fn mlp() -> Mlp {
    Mlp::new(&mlp_config(), &mut SeededRng::new(WEIGHT_SEED))
}

pub fn vgg() -> Vgg {
    Vgg::new(
        &VggConfig::vgg13_scaled(CLASSES, GROUPS),
        &mut SeededRng::new(WEIGHT_SEED + 1),
    )
}

/// Dropout is off: the closed-loop cells compare logits across code paths.
pub fn nnlm() -> Nnlm {
    let cfg = NnlmConfig {
        dropout: 0.0,
        ..NnlmConfig::scaled(VOCAB, GROUPS)
    };
    Nnlm::new(&cfg, &mut SeededRng::new(WEIGHT_SEED + 2))
}

/// Which of the three networks a cell or probe runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Mlp,
    Vgg,
    Nnlm,
}

impl Model {
    pub const ALL: [Model; 3] = [Model::Mlp, Model::Vgg, Model::Nnlm];

    pub fn tag(self) -> &'static str {
        match self {
            Model::Mlp => "mlp",
            Model::Vgg => "vgg",
            Model::Nnlm => "nnlm",
        }
    }

    pub fn build(self) -> Box<dyn Layer + Send> {
        match self {
            Model::Mlp => Box::new(mlp()),
            Model::Vgg => Box::new(vgg()),
            Model::Nnlm => Box::new(nnlm()),
        }
    }

    /// One seeded sample: `[64]` features, a `[3,16,16]` image, or `[16]`
    /// token ids.
    pub fn sample(self, rng: &mut SeededRng) -> Tensor {
        let (dims, n): (&[usize], usize) = match self {
            Model::Mlp => (&[MLP_INPUT], MLP_INPUT),
            Model::Vgg => (&[3, 16, 16], 3 * 16 * 16),
            Model::Nnlm => (&[SEQ_LEN], SEQ_LEN),
        };
        let data = (0..n)
            .map(|_| match self {
                Model::Nnlm => rng.below(VOCAB) as f32,
                _ => rng.uniform(-1.0, 1.0),
            })
            .collect();
        Tensor::from_vec(dims, data).expect("sample shape")
    }

    pub fn batch(self, rng: &mut SeededRng) -> Vec<Tensor> {
        (0..BATCH).map(|_| self.sample(rng)).collect()
    }
}

/// Multiply-adds per sample of `net` at each of `rates`; the network is left
/// at full width.
pub fn macs_at_rates(net: &mut dyn Layer, rates: [f32; 4]) -> [f64; 4] {
    let out = rates.map(|r| {
        net.set_slice_rate(SliceRate::new(r));
        net.flops_per_sample() as f64
    });
    net.set_slice_rate(SliceRate::FULL);
    out
}
