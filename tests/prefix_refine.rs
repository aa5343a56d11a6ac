//! Property tests for the anytime-refinement contract: for any network in
//! the zoo and any pair of rates `r₁ < r₂`, refining a prefix pass from
//! `r₁` up to `r₂` is **bitwise identical** to a direct prefix pass at
//! `r₂`. This is the invariant that lets the serving engine climb the
//! ladder mid-flight without changing a single logit bit.
//!
//! Shapes are deliberately awkward (dims not divisible by the group
//! count) so the canonical-prefix-width bookkeeping is exercised at group
//! boundaries that land off the obvious multiples.

use modelslicing::models::mlp::{Mlp, MlpConfig};
use modelslicing::models::mobile::{MobileConfig, MobileNetStyle};
use modelslicing::models::resnet::{ResNet, ResNetConfig};
use modelslicing::models::vgg::{Vgg, VggConfig};
use modelslicing::nn::activation::Relu;
use modelslicing::nn::conv2d::{Conv2d, Conv2dConfig};
use modelslicing::nn::embedding::Embedding;
use modelslicing::nn::layer::{Layer, Mode};
use modelslicing::nn::linear::{Linear, LinearConfig};
use modelslicing::nn::norm::GroupNorm;
use modelslicing::nn::rnn::gru::{Gru, GruConfig};
use modelslicing::nn::rnn::lstm::{Lstm, LstmConfig};
use modelslicing::nn::sequential::Sequential;
use modelslicing::nn::slice::SliceRate;
use modelslicing::tensor::{SeededRng, Tensor};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Uniform input in [-1, 1) with the given dims, deterministic in `seed`.
fn input(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = SeededRng::new(seed);
    let n: usize = dims.iter().product();
    Tensor::from_vec(
        dims.to_vec(),
        (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect(),
    )
    .expect("input tensor")
}

/// Asserts the refinement contract on one network family: a fresh net
/// refined `r₁ → r₂` must produce bit-for-bit the logits of a fresh net
/// driven straight to `r₂`. `build` must be deterministic in its seed.
fn assert_refine_bitwise(
    build: impl Fn() -> Box<dyn Layer>,
    x: &Tensor,
    r1: SliceRate,
    r2: SliceRate,
) -> Result<(), TestCaseError> {
    let mut direct_net = build();
    let direct = direct_net.forward_prefix(x, None, r2);

    let mut refined_net = build();
    let base = refined_net.forward_prefix(x, None, r1);
    let refined = refined_net.forward_prefix(x, Some(r1), r2);

    prop_assert_eq!(direct.dims(), refined.dims());
    let direct_bits: Vec<u32> = direct.data().iter().map(|v| v.to_bits()).collect();
    let refined_bits: Vec<u32> = refined.data().iter().map(|v| v.to_bits()).collect();
    prop_assert_eq!(direct_bits, refined_bits, "refine {}→{} diverged", r1, r2);
    base.recycle();
    refined.recycle();
    direct.recycle();
    Ok(())
}

/// Builds `r₁ < r₂` from a 64-step grid: `lo` keeps the pair well above
/// rate ~0 and `bump` steps strictly upward, capped at full width.
fn rate_pair(lo: u32, bump: u32) -> (SliceRate, SliceRate) {
    let hi = (lo + bump).min(64);
    (
        SliceRate::new(lo as f32 / 64.0),
        SliceRate::new(hi as f32 / 64.0),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// MLP with prime-ish dims: 13 → 21 → 14 → 7 in 3 groups.
    #[test]
    fn mlp_refine_is_bitwise_identical(
        lo in 8u32..64,
        bump in 1u32..16,
        batch in 1usize..5,
        seed in any::<u64>(),
    ) {
        let (r1, r2) = rate_pair(lo, bump);
        let cfg = MlpConfig {
            input_dim: 13,
            hidden_dims: vec![21, 14],
            num_classes: 7,
            groups: 3,
            dropout: 0.0,
            input_rescale: true,
        };
        let x = input(&[batch, 13], seed);
        assert_refine_bitwise(
            || Box::new(Mlp::new(&cfg, &mut SeededRng::new(5))),
            &x, r1, r2,
        )?;
    }

    /// Conv → GroupNorm → ReLU → Conv with 9 channels in 3 groups; the
    /// head conv is output-pinned, so only the interior is sliced.
    #[test]
    fn conv_groupnorm_refine_is_bitwise_identical(
        lo in 8u32..64,
        bump in 1u32..16,
        batch in 1usize..4,
        seed in any::<u64>(),
    ) {
        let (r1, r2) = rate_pair(lo, bump);
        let build = || -> Box<dyn Layer> {
            let mut rng = SeededRng::new(7);
            let mut net = Sequential::new("convnet");
            net.add(Box::new(Conv2d::new(
                "c1",
                Conv2dConfig {
                    in_ch: 2, out_ch: 9, kernel: 3, stride: 1, pad: 1,
                    h: 5, w: 5, in_groups: None, out_groups: Some(3),
                    bias: true,
                },
                &mut rng,
            )));
            net.add(Box::new(GroupNorm::new("gn", 9, 3)));
            net.add(Box::new(Relu::new()));
            net.add(Box::new(Conv2d::new(
                "head",
                Conv2dConfig {
                    in_ch: 9, out_ch: 4, kernel: 3, stride: 1, pad: 1,
                    h: 5, w: 5, in_groups: Some(3), out_groups: None,
                    bias: true,
                },
                &mut rng,
            )));
            Box::new(net)
        };
        let x = input(&[batch, 2, 5, 5], seed);
        assert_refine_bitwise(build, &x, r1, r2)?;
    }

    /// Depthwise-separable stack (depthwise → GN → pointwise → pool →
    /// classifier), the §3.5 multi-branch case.
    #[test]
    fn mobile_refine_is_bitwise_identical(
        lo in 8u32..64,
        bump in 1u32..16,
        batch in 1usize..3,
        seed in any::<u64>(),
    ) {
        let (r1, r2) = rate_pair(lo, bump);
        let cfg = MobileConfig {
            in_channels: 2,
            image_size: 6,
            stages: vec![(1, 6)],
            num_classes: 5,
            groups: 3,
        };
        let x = input(&[batch, 2, 6, 6], seed);
        assert_refine_bitwise(
            || Box::new(MobileNetStyle::new(&cfg, &mut SeededRng::new(9))),
            &x, r1, r2,
        )?;
    }

    /// VGG (conv → GroupNorm → ReLU → pool stages, pooled classifier): every
    /// layer's output is prefix-stable, so the container-level refine the
    /// model forwards to computes only the delta and still matches.
    #[test]
    fn vgg_refine_is_bitwise_identical(
        lo in 8u32..64,
        bump in 1u32..16,
        batch in 1usize..3,
        seed in any::<u64>(),
    ) {
        let (r1, r2) = rate_pair(lo, bump);
        let cfg = VggConfig {
            in_channels: 2,
            image_size: 8,
            stages: vec![(1, 6), (2, 9)],
            num_classes: 5,
            groups: 3,
            width_multiplier: 1.0,
        };
        let x = input(&[batch, 2, 8, 8], seed);
        assert_refine_bitwise(
            || Box::new(Vgg::new(&cfg, &mut SeededRng::new(11))),
            &x, r1, r2,
        )?;
    }

    /// ResNet: the bottleneck blocks have no prefix forward, so their output
    /// channels move with the rate and the model must refine by recomputing
    /// (the trait default). Forwarding `forward_prefix` to its `Sequential`
    /// fails this test — the head would resume stale partial sums.
    #[test]
    fn resnet_refine_is_bitwise_identical(
        lo in 8u32..64,
        bump in 1u32..16,
        batch in 1usize..3,
        seed in any::<u64>(),
    ) {
        let (r1, r2) = rate_pair(lo, bump);
        let cfg = ResNetConfig {
            in_channels: 2,
            image_size: 8,
            stages: vec![(1, 4), (1, 8)],
            expansion: 2,
            num_classes: 5,
            groups: 4,
            width_multiplier: 1.0,
        };
        let x = input(&[batch, 2, 8, 8], seed);
        assert_refine_bitwise(
            || Box::new(ResNet::new(&cfg, &mut SeededRng::new(12))),
            &x, r1, r2,
        )?;
    }

    /// LSTM with full-width input and 3 hidden groups over 9 units.
    #[test]
    fn lstm_refine_is_bitwise_identical(
        lo in 8u32..64,
        bump in 1u32..16,
        batch in 1usize..4,
        steps in 1usize..4,
        seed in any::<u64>(),
    ) {
        let (r1, r2) = rate_pair(lo, bump);
        let cfg = LstmConfig {
            in_dim: 5,
            hidden_dim: 9,
            in_groups: None,
            out_groups: Some(3),
            input_rescale: true,
        };
        let x = input(&[batch, steps, 5], seed);
        assert_refine_bitwise(
            || Box::new(Lstm::new("lstm", cfg.clone(), &mut SeededRng::new(13))),
            &x, r1, r2,
        )?;
    }

    /// GRU with the same edge geometry as the LSTM case.
    #[test]
    fn gru_refine_is_bitwise_identical(
        lo in 8u32..64,
        bump in 1u32..16,
        batch in 1usize..4,
        steps in 1usize..4,
        seed in any::<u64>(),
    ) {
        let (r1, r2) = rate_pair(lo, bump);
        let cfg = GruConfig {
            in_dim: 5,
            hidden_dim: 9,
            in_groups: None,
            out_groups: Some(3),
            input_rescale: true,
        };
        let x = input(&[batch, steps, 5], seed);
        assert_refine_bitwise(
            || Box::new(Gru::new("gru", cfg.clone(), &mut SeededRng::new(13))),
            &x, r1, r2,
        )?;
    }
}

/// The NNLM's layers chained through their prefix forwards, as wiring
/// `Nnlm::forward_prefix` would chain them: `embedding → rnn1 → rnn2 →
/// decoder` at the `NnlmConfig::scaled` geometry (64-d, 8 groups).
struct NnlmPrefixChain {
    embedding: Embedding,
    rnn1: Lstm,
    rnn2: Lstm,
    decoder: Linear,
}

impl NnlmPrefixChain {
    fn new() -> Self {
        let (vocab, dim, groups) = (200, 64, 8);
        let rng = &mut SeededRng::new(43);
        let lstm = |name: &str, in_groups, rng: &mut SeededRng| {
            Lstm::new(
                name,
                LstmConfig {
                    in_dim: dim,
                    hidden_dim: dim,
                    in_groups,
                    out_groups: Some(groups),
                    input_rescale: true,
                },
                rng,
            )
        };
        NnlmPrefixChain {
            embedding: Embedding::new("embed", vocab, dim, rng),
            rnn1: lstm("rnn1", None, rng),
            rnn2: lstm("rnn2", Some(groups), rng),
            decoder: Linear::new(
                "decoder",
                LinearConfig {
                    in_dim: dim,
                    out_dim: vocab,
                    in_groups: Some(groups),
                    out_groups: None,
                    bias: true,
                    input_rescale: true,
                },
                rng,
            ),
        }
    }

    /// One rung; the net is reset to full width afterwards, as every caller
    /// of a model-level prefix pass does (`refine_batched_forward`'s guard,
    /// `slicebench`'s runner).
    fn rung(&mut self, ids: &Tensor, from: Option<SliceRate>, to: SliceRate) -> Tensor {
        let (b, t) = (ids.dims()[0], ids.dims()[1]);
        let e = self.embedding.forward(ids, Mode::Infer);
        let h1 = self.rnn1.forward_prefix(&e, from, to);
        let h2 = self.rnn2.forward_prefix(&h1, from, to);
        let width = *h2.dims().last().expect("rank 3");
        let flat = h2.reshaped([b * t, width]).expect("same numel");
        let y = self.decoder.forward_prefix(&flat, from, to);
        for l in [
            &mut self.rnn1 as &mut dyn Layer,
            &mut self.rnn2,
            &mut self.decoder,
        ] {
            l.set_slice_rate(SliceRate::FULL);
        }
        y
    }
}

/// Why `Nnlm` does not forward `forward_prefix`/`prepack` yet (ROADMAP
/// 4(vii)): climbing the slicebench ladder through the chained prefix
/// forwards does not reproduce a fresh `from = None` pass bit for bit from
/// r = 0.5 upward. Both LSTMs refine correctly on their own, but a recurrent
/// layer's hidden state is not prefix-stable — the leading columns of `h` at
/// a wider rate differ from `h` at the narrower one, since every unit feeds
/// back into every other — while the decoder's refine keeps the partial sums
/// it accumulated over those columns at the previous rung. (Resetting to
/// full width between rungs, as every caller does, is not the cause: the
/// rungs differ with or without it.) Un-ignore when a classifier behind a
/// recurrent layer recomputes instead of resuming; only then may the NNLM be
/// wired like the other models.
#[test]
#[ignore = "known failure: decoder refine resumes partial sums over LSTM columns that changed with the rate (ROADMAP 4(vii))"]
fn nnlm_chain_refine_is_bitwise_identical() {
    let rates = [0.375f32, 0.5, 0.75, 1.0].map(SliceRate::new);
    let mut rng = SeededRng::new(7);
    let ids = Tensor::from_vec(
        vec![4, 16],
        (0..64).map(|_| rng.below(200) as f32).collect(),
    )
    .expect("token ids");
    let mut climbing = NnlmPrefixChain::new();
    let mut fresh = NnlmPrefixChain::new();
    let mut from = None;
    for r in rates {
        let climbed = climbing.rung(&ids, from, r);
        let direct = fresh.rung(&ids, None, r);
        let same = climbed
            .data()
            .iter()
            .zip(direct.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same && climbed.dims() == direct.dims(),
            "rung {r}: refined logits are not bitwise a fresh prefix pass"
        );
        from = Some(r);
    }
}
