//! Finite-difference gradient checks over layer *compositions* — the
//! combinations the unit tests of individual layers cannot cover
//! (normalisation feeding activations feeding convolutions, at several
//! slice rates).
use ms_nn::activation::Relu;
use ms_nn::conv2d::{Conv2d, Conv2dConfig};
use ms_nn::gradcheck::{check_layer, CheckOpts};
use ms_nn::norm::GroupNorm;
use ms_nn::sequential::Sequential;
use ms_tensor::{SeededRng, Tensor};

fn conv(name: &str, c_in: usize, c_out: usize, k: usize, hw: usize, rng: &mut SeededRng) -> Conv2d {
    Conv2d::new(
        name,
        Conv2dConfig {
            in_ch: c_in,
            out_ch: c_out,
            kernel: k,
            stride: 1,
            pad: if k == 3 { 1 } else { 0 },
            h: hw,
            w: hw,
            in_groups: Some(4.min(c_in)),
            out_groups: Some(4.min(c_out)),
            bias: false,
        },
        rng,
    )
}

#[test]
fn gn_relu() {
    let mut rng = SeededRng::new(1);
    let mut net = Sequential::new("t")
        .push(GroupNorm::new("gn", 4, 4))
        .push(Relu::new());
    let x = Tensor::from_vec(
        [2, 4, 4, 4],
        (0..128).map(|_| rng.uniform(-1.0, 1.0)).collect(),
    )
    .unwrap();
    check_layer(&mut net, &x, &mut rng, &CheckOpts::default()).unwrap();
}

#[test]
fn gn_relu_conv() {
    let mut rng = SeededRng::new(2);
    let mut net = Sequential::new("t")
        .push(GroupNorm::new("gn", 4, 4))
        .push(Relu::new())
        .push(conv("c1", 4, 4, 1, 4, &mut rng));
    let x = Tensor::from_vec(
        [2, 4, 4, 4],
        (0..128).map(|_| rng.uniform(-1.0, 1.0)).collect(),
    )
    .unwrap();
    check_layer(&mut net, &x, &mut rng, &CheckOpts::default()).unwrap();
}

#[test]
fn two_gn_stack() {
    let mut rng = SeededRng::new(3);
    let mut net = Sequential::new("t")
        .push(GroupNorm::new("gn1", 4, 4))
        .push(Relu::new())
        .push(conv("c1", 4, 4, 1, 4, &mut rng))
        .push(GroupNorm::new("gn2", 4, 4))
        .push(Relu::new())
        .push(conv("c2", 4, 4, 3, 4, &mut rng));
    let x = Tensor::from_vec(
        [2, 4, 4, 4],
        (0..128).map(|_| rng.uniform(-1.0, 1.0)).collect(),
    )
    .unwrap();
    check_layer(&mut net, &x, &mut rng, &CheckOpts::default()).unwrap();
}
