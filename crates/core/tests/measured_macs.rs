//! A [`CostModel`] reads back the MACs it measured. The surface stores
//! `f64`s clamped monotone in rate; on the benchmark's three networks (the
//! heavy MLP 64-2048-2048-8, the scaled VGG-13 and the scaled NNLM, eight
//! slice groups each) the clamp must change nothing and the round trip
//! through `f64` must be exact, so `flops_at` equals the network's own
//! `flops_per_sample()` at every rate a group boundary allows.

use ms_core::cost::CostModel;
use ms_core::slice_rate::{SliceRate, SliceRateList};
use ms_models::mlp::{Mlp, MlpConfig};
use ms_models::nnlm::{Nnlm, NnlmConfig};
use ms_models::vgg::{Vgg, VggConfig};
use ms_nn::layer::Layer;
use ms_tensor::SeededRng;

fn assert_reads_back(name: &str, net: &mut dyn Layer) {
    let list = SliceRateList::with_granularity(0.125, 0.125);
    let cost = CostModel::measure(net, list.clone());
    for r in list.iter() {
        net.set_slice_rate(r);
        assert_eq!(
            cost.flops_at(r),
            net.flops_per_sample(),
            "{name} at r = {r}"
        );
    }
    net.set_slice_rate(SliceRate::FULL);
    assert_eq!(
        cost.full_flops(),
        net.flops_per_sample(),
        "{name} at full width"
    );
}

#[test]
fn flops_at_is_flops_per_sample_on_the_benchmark_networks() {
    let mut mlp = Mlp::new(
        &MlpConfig {
            input_dim: 64,
            hidden_dims: vec![2048, 2048],
            num_classes: 8,
            groups: 8,
            dropout: 0.0,
            input_rescale: true,
        },
        &mut SeededRng::new(41),
    );
    assert_reads_back("mlp", &mut mlp);
    let mut vgg = Vgg::new(&VggConfig::vgg13_scaled(10, 8), &mut SeededRng::new(42));
    assert_reads_back("vgg", &mut vgg);
    let mut nnlm = Nnlm::new(
        &NnlmConfig {
            dropout: 0.0,
            ..NnlmConfig::scaled(200, 8)
        },
        &mut SeededRng::new(43),
    );
    assert_reads_back("nnlm", &mut nnlm);
}
