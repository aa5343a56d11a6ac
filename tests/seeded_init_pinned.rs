//! Seeded construction is pinned bit for bit: the weights of the
//! benchmark's three networks (at its weight seeds) and one generated image
//! dataset hash to fixed values, and so does the draw that follows each, so
//! a change to how the stream is drawn or turned into floats cannot move a
//! weight, a pixel or the stream position unnoticed.

use modelslicing::data::synth_images::{ImageDataset, ImageDatasetConfig};
use modelslicing::models::mlp::{Mlp, MlpConfig};
use modelslicing::models::nnlm::{Nnlm, NnlmConfig};
use modelslicing::models::vgg::{Vgg, VggConfig};
use modelslicing::prelude::*;

/// FNV-1a over 64 bits: stable across Rust releases, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Every parameter's name, shape and bits in visit order, then the next
/// draw of the stream that built the net.
fn net_hash(net: &mut dyn Layer, rng: &mut SeededRng) -> u64 {
    let mut h = Fnv::new();
    net.visit_params(&mut |p| {
        h.bytes(p.name.as_bytes());
        for &d in p.value.dims() {
            h.bytes(&(d as u64).to_le_bytes());
        }
        h.floats(p.value.data());
    });
    h.bytes(&rng.next_u64().to_le_bytes());
    h.0
}

#[test]
fn heavy_mlp_weights_are_pinned() {
    let cfg = MlpConfig {
        input_dim: 64,
        hidden_dims: vec![2048, 2048],
        num_classes: 8,
        groups: 8,
        dropout: 0.0,
        input_rescale: true,
    };
    let mut rng = SeededRng::new(41);
    let mut mlp = Mlp::new(&cfg, &mut rng);
    assert_eq!(net_hash(&mut mlp, &mut rng), 0x5a25_6e12_a5b4_59c8);
}

#[test]
fn vgg_and_nnlm_weights_are_pinned() {
    let mut rng = SeededRng::new(42);
    let mut vgg = Vgg::new(&VggConfig::vgg13_scaled(10, 8), &mut rng);
    assert_eq!(net_hash(&mut vgg, &mut rng), 0x00e3_38c1_41f4_cc88);

    let cfg = NnlmConfig {
        dropout: 0.0,
        ..NnlmConfig::scaled(200, 8)
    };
    let mut rng = SeededRng::new(43);
    let mut nnlm = Nnlm::new(&cfg, &mut rng);
    assert_eq!(net_hash(&mut nnlm, &mut rng), 0x9433_3f90_5085_936a);
}

#[test]
fn generated_images_are_pinned() {
    let ds = ImageDataset::generate(ImageDatasetConfig::default());
    let mut h = Fnv::new();
    h.floats(&ds.train_x);
    h.floats(&ds.test_x);
    for &y in ds.train_y.iter().chain(&ds.test_y) {
        h.bytes(&(y as u64).to_le_bytes());
    }
    assert_eq!(h.0, 0x9235_3643_e818_d341);
}
