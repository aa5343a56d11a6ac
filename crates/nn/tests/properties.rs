//! Property-based tests over the sliceable layers: subsumption, gradient
//! confinement and scale stability across random configurations.

use ms_nn::conv2d::{Conv2d, Conv2dConfig};
use ms_nn::gradcheck::{check_layer, CheckOpts};
use ms_nn::layer::{Layer, Mode};
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::norm::GroupNorm;
use ms_nn::rnn::gru::{Gru, GruConfig};
use ms_nn::rnn::lstm::{Lstm, LstmConfig};
use ms_nn::slice::{active_units, SliceRate};
use ms_tensor::{SeededRng, Tensor};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn random_tensor(rng: &mut SeededRng, dims: Vec<usize>) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec(dims, (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()).expect("tensor")
}

/// Batches the packed-vs-`gemm` properties draw from (1 … 64).
const BATCHES: [usize; 6] = [1, 2, 7, 24, 32, 64];

/// Both recurrent cells at one `(D, H)` with eight slice groups on each side.
fn recurrent_pair(d: usize, h: usize, rescale: bool, seed: u64) -> [Box<dyn Layer>; 2] {
    let lstm = LstmConfig {
        in_dim: d,
        hidden_dim: h,
        in_groups: Some(8),
        out_groups: Some(8),
        input_rescale: rescale,
    };
    let gru = GruConfig {
        in_dim: d,
        hidden_dim: h,
        in_groups: Some(8),
        out_groups: Some(8),
        input_rescale: rescale,
    };
    [
        Box::new(Lstm::new("lstm", lstm, &mut SeededRng::new(seed))),
        Box::new(Gru::new("gru", gru, &mut SeededRng::new(seed))),
    ]
}

fn assert_close(got: &Tensor, want: &Tensor, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.dims(), want.dims());
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        prop_assert!(
            (g - w).abs() <= 1e-5 * w.abs().max(1.0),
            "{what}: element {i}: packed {g} vs gemm {w}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conv subsumption: with the input unsliced, the sliced conv's output
    /// equals the first channels of the full conv's output for any
    /// geometry and rate.
    #[test]
    fn conv_prefix_subsumption(
        out_ch_groups in 1usize..4, // out_ch = 4 * this
        hw in 3usize..7,
        kernel in 1usize..4,
        rate_idx in 1usize..4,
        seed in any::<u64>(),
    ) {
        let out_ch = 4 * out_ch_groups;
        prop_assume!(hw >= kernel);
        let mut rng = SeededRng::new(seed);
        let mut conv = Conv2d::new(
            "c",
            Conv2dConfig {
                in_ch: 3,
                out_ch,
                kernel,
                stride: 1,
                pad: kernel / 2,
                h: hw,
                w: hw,
                in_groups: None,
                out_groups: Some(4),
                bias: true,
            },
            &mut rng,
        );
        let x = random_tensor(&mut rng, vec![1, 3, hw, hw]);
        let full = conv.forward(&x, Mode::Infer);
        let rate = SliceRate::new(rate_idx as f32 / 4.0);
        conv.set_slice_rate(rate);
        let sliced = conv.forward(&x, Mode::Infer);
        let a_out = active_units(out_ch, 4, rate);
        prop_assert_eq!(sliced.dims()[1], a_out);
        let plane = full.dims()[2] * full.dims()[3];
        for c in 0..a_out {
            for k in 0..plane {
                let a = sliced.data()[c * plane + k];
                let b = full.data()[c * plane + k];
                prop_assert!((a - b).abs() < 1e-4, "ch {c} px {k}: {a} vs {b}");
            }
        }
    }

    /// The packed direct path is the same function as the `gemm` path: a
    /// prepacked `Linear`'s `forward(Infer)` agrees with an un-packed twin
    /// within 1e-5 relative over awkward group geometry (dims not divisible
    /// by the group count), every rate, rescaling on and off, and batches
    /// from one row to several `A` blocks.
    #[test]
    fn packed_direct_forward_matches_gemm_path(
        in_dim in 5usize..70,
        out_dim in 5usize..70,
        in_groups in 0usize..5,  // 0 = side pinned at full width
        out_groups in 0usize..5,
        rescale in any::<bool>(),
        rate_idx in 1u32..=16,
        batch_idx in 0usize..6,
        seed in any::<u64>(),
    ) {
        let batch = [1usize, 5, 32, 73, 120, 200][batch_idx];
        let cfg = LinearConfig {
            in_dim,
            out_dim,
            in_groups: (in_groups > 0).then_some(in_groups),
            out_groups: (out_groups > 0).then_some(out_groups),
            bias: true,
            input_rescale: rescale,
        };
        let mut plain = Linear::new("fc", cfg.clone(), &mut SeededRng::new(seed));
        let mut packed = Linear::new("fc", cfg, &mut SeededRng::new(seed));
        prop_assert!(packed.prepack());
        let rate = SliceRate::new(rate_idx as f32 / 16.0);
        plain.set_slice_rate(rate);
        packed.set_slice_rate(rate);
        let (a_in, a_out) = plain.active_dims();
        let x = random_tensor(&mut SeededRng::new(seed ^ 0x9e37), vec![batch, a_in]);
        let want = plain.forward(&x, Mode::Infer);
        let got = packed.forward(&x, Mode::Infer);
        prop_assert_eq!(got.dims(), &[batch, a_out][..]);
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            prop_assert!(
                (g - w).abs() <= 1e-5 * w.abs().max(1.0),
                "element {i}: packed {g} vs gemm {w} ({in_dim}x{out_dim} rate {rate} batch {batch})"
            );
        }
    }

    /// Weight-stationary conv inference (`gemm_packed_a` on the persistent
    /// panels) agrees with the per-call-packing `gemm` path at every rate of
    /// g = 8, batches 1…64, strided and padded geometry, bias on.
    #[test]
    fn packed_conv_forward_matches_gemm_path(
        in_mult in 1usize..4,
        out_mult in 1usize..4,
        side in 3usize..9,
        kernel in 1usize..=3,
        stride in 1usize..=2,
        pad in 0usize..=1,
        rate_idx in 1u32..=8,
        batch_idx in 0usize..BATCHES.len(),
        seed in any::<u64>(),
    ) {
        let cfg = Conv2dConfig {
            in_ch: 8 * in_mult,
            out_ch: 8 * out_mult,
            kernel,
            stride,
            pad,
            h: side,
            w: side,
            in_groups: Some(8),
            out_groups: Some(8),
            bias: true,
        };
        let mut plain = Conv2d::new("c", cfg.clone(), &mut SeededRng::new(seed));
        let mut packed = Conv2d::new("c", cfg, &mut SeededRng::new(seed));
        prop_assert!(packed.prepack());
        let rate = SliceRate::new(rate_idx as f32 / 8.0);
        plain.set_slice_rate(rate);
        packed.set_slice_rate(rate);
        let dims = vec![BATCHES[batch_idx], plain.active_channels().0, side, side];
        let x = random_tensor(&mut SeededRng::new(seed ^ 0x9e37), dims);
        let want = plain.forward(&x, Mode::Infer);
        let got = packed.forward(&x, Mode::Infer);
        assert_close(&got, &want, "conv")?;
    }

    /// The same for both recurrent cells: panels for the hoisted input
    /// projection and for every step's recurrent product.
    #[test]
    fn packed_recurrent_forward_matches_gemm_path(
        d_mult in 1usize..4,
        h_mult in 1usize..4,
        steps in 1usize..6,
        rescale in any::<bool>(),
        rate_idx in 1u32..=8,
        batch_idx in 0usize..BATCHES.len(),
        seed in any::<u64>(),
    ) {
        let rate = SliceRate::new(rate_idx as f32 / 8.0);
        let a_d = active_units(8 * d_mult, 8, rate);
        let x = random_tensor(
            &mut SeededRng::new(seed ^ 0x9e37),
            vec![BATCHES[batch_idx], steps, a_d],
        );
        let plain = recurrent_pair(8 * d_mult, 8 * h_mult, rescale, seed);
        let packed = recurrent_pair(8 * d_mult, 8 * h_mult, rescale, seed);
        for (mut plain, mut packed) in plain.into_iter().zip(packed) {
            prop_assert!(packed.prepack());
            plain.set_slice_rate(rate);
            packed.set_slice_rate(rate);
            let want = plain.forward(&x, Mode::Infer);
            let got = packed.forward(&x, Mode::Infer);
            assert_close(&got, &want, packed.name())?;
        }
    }

    /// Training and inference run one forward: on an un-packed cell the two
    /// modes write the same bits (a model is served with the arithmetic it
    /// was trained with; only what is kept for `backward` differs).
    #[test]
    fn recurrent_train_and_infer_forwards_agree_bitwise(
        h_mult in 1usize..4,
        steps in 1usize..6,
        rescale in any::<bool>(),
        rate_idx in 1u32..=8,
        batch in 1usize..9,
        seed in any::<u64>(),
    ) {
        let rate = SliceRate::new(rate_idx as f32 / 8.0);
        let a_d = active_units(16, 8, rate);
        let x = random_tensor(&mut SeededRng::new(seed ^ 0x51), vec![batch, steps, a_d]);
        for mut cell in recurrent_pair(16, 8 * h_mult, rescale, seed) {
            cell.set_slice_rate(rate);
            let train = cell.forward(&x, Mode::Train);
            let infer = cell.forward(&x, Mode::Infer);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&train), bits(&infer), "{} at rate {}", cell.name(), rate);
        }
    }

    /// GroupNorm scale stability: the normalised output distribution of the
    /// active prefix is unchanged by how many groups are active.
    #[test]
    fn group_norm_prefix_invariance(
        groups in 2usize..6,
        ch_per_group in 1usize..4,
        active in 1usize..6,
        seed in any::<u64>(),
    ) {
        let channels = groups * ch_per_group;
        let active = active.min(groups);
        let mut rng = SeededRng::new(seed);
        let mut gn = GroupNorm::new("g", channels, groups);
        let x_full = random_tensor(&mut rng, vec![2, channels, 2, 2]);
        let full = gn.forward(&x_full, Mode::Infer);
        // Slice input to the first `active` groups.
        let keep = active * ch_per_group;
        let mut x_small = Tensor::zeros([2, keep, 2, 2]);
        for s in 0..2 {
            let src = &x_full.row(s)[..keep * 4];
            x_small.row_mut(s).copy_from_slice(src);
        }
        gn.set_slice_rate(SliceRate::new(active as f32 / groups as f32));
        let sliced = gn.forward(&x_small, Mode::Infer);
        for s in 0..2 {
            for i in 0..keep * 4 {
                let a = sliced.row(s)[i];
                let b = full.row(s)[i];
                prop_assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    /// Sliced conv gradients never leak outside the active block, for any
    /// rate and kernel size.
    #[test]
    fn conv_gradient_confinement(
        rate_idx in 1usize..4,
        kernel in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = SeededRng::new(seed);
        let mut conv = Conv2d::new(
            "c",
            Conv2dConfig {
                in_ch: 8,
                out_ch: 8,
                kernel,
                stride: 1,
                pad: kernel / 2,
                h: 5,
                w: 5,
                in_groups: Some(4),
                out_groups: Some(4),
                bias: false,
            },
            &mut rng,
        );
        let rate = SliceRate::new(rate_idx as f32 / 4.0);
        conv.set_slice_rate(rate);
        let a = active_units(8, 4, rate);
        let x = random_tensor(&mut rng, vec![1, a, 5, 5]);
        let y = conv.forward(&x, Mode::Train);
        let _ = conv.backward(&Tensor::full(y.shape().clone(), 1.0));
        let k2 = kernel * kernel;
        let mut leaked = false;
        conv.visit_params(&mut |p| {
            for o in 0..8 {
                for idx in 0..8 * k2 {
                    let v = p.grad.at(&[o, idx]);
                    let active_cell = o < a && idx < a * k2;
                    if !active_cell && v != 0.0 {
                        leaked = true;
                    }
                }
            }
        });
        prop_assert!(!leaked, "gradient leaked outside active block");
    }

    /// LSTM gradcheck across random widths and rates.
    #[test]
    fn lstm_gradcheck_random_configs(
        hidden_groups in 1usize..3, // hidden = 4 * this
        rate_idx in 2usize..5,      // rate in {0.5, 0.75, 1.0}
        rescale in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let hidden = 4 * hidden_groups;
        let mut rng = SeededRng::new(seed);
        let mut lstm = Lstm::new(
            "l",
            LstmConfig {
                in_dim: 4,
                hidden_dim: hidden,
                in_groups: None,
                out_groups: Some(4),
                input_rescale: rescale,
            },
            &mut rng,
        );
        let rate = SliceRate::new(rate_idx as f32 / 4.0);
        lstm.set_slice_rate(rate);
        let x = random_tensor(&mut rng, vec![2, 2, 4]);
        let res = check_layer(&mut lstm, &x, &mut rng, &CheckOpts::default());
        prop_assert!(res.is_ok(), "{:?}", res.err());
    }
}
