//! Criterion microbenchmarks live in `benches/`; this library hosts shared
//! builders so bench targets stay small, and the determinism probe that the
//! `determinism_probe` bin prints and the root package's golden test diffs.

pub mod probe;

use ms_models::nnlm::{Nnlm, NnlmConfig};
use ms_models::vgg::{Vgg, VggConfig};
use ms_tensor::SeededRng;

/// The standard bench-scale VGG (matches the experiment setting).
pub fn bench_vgg() -> Vgg {
    let mut rng = SeededRng::new(1);
    Vgg::new(
        &VggConfig {
            in_channels: 3,
            image_size: 12,
            stages: vec![(1, 8), (1, 16), (2, 32)],
            num_classes: 8,
            groups: 8,
            width_multiplier: 1.0,
        },
        &mut rng,
    )
}

/// The standard bench-scale NNLM.
pub fn bench_nnlm() -> Nnlm {
    let mut rng = SeededRng::new(2);
    Nnlm::new(
        &NnlmConfig {
            vocab: 64,
            embed_dim: 32,
            hidden_dim: 32,
            groups: 8,
            dropout: 0.0,
            cell: ms_models::nnlm::RnnCell::Lstm,
        },
        &mut rng,
    )
}
