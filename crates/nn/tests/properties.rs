//! Property-based tests over the sliceable layers: subsumption, gradient
//! confinement and scale stability across random configurations.

use ms_nn::activation::{Relu, Tanh};
use ms_nn::conv2d::{Conv2d, Conv2dConfig};
use ms_nn::dropout::Dropout;
use ms_nn::flatten::Flatten;
use ms_nn::gradcheck::{check_layer, CheckOpts};
use ms_nn::layer::{Layer, Mode};
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::norm::GroupNorm;
use ms_nn::pool::MaxPool2d;
use ms_nn::rnn::gru::{Gru, GruConfig};
use ms_nn::rnn::lstm::{Lstm, LstmConfig};
use ms_nn::sequential::Sequential;
use ms_nn::slice::{active_units, SliceRate};
use ms_tensor::conv::{im2col, ConvGeom};
use ms_tensor::matmul::{gemm, gemm_reference, Trans};
use ms_tensor::{par, SeededRng, Tensor};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::mpsc;
use std::thread;

fn random_tensor(rng: &mut SeededRng, dims: Vec<usize>) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec(dims, (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()).expect("tensor")
}

/// Batches the packed-vs-reference properties draw from (1 … 64).
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
            "{what}: element {i}: packed {g} vs reference {w}"
        );
    }
    Ok(())
}

/// Values of a layer's parameters, in `visit_params` order.
fn param_values(layer: &mut dyn Layer) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push(p.value.data().to_vec()));
    out
}

/// Gradients of a layer's parameters, in `visit_params` order.
fn param_grads(layer: &mut dyn Layer) -> Vec<(String, Vec<f32>)> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push((p.name.clone(), p.grad.get().unwrap().data().to_vec())));
    out
}

fn assert_slices_close(
    got: &[f32],
    want: &[f64],
    tol: f64,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: length", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            (f64::from(*g) - w).abs() <= tol * w.abs().max(1.0),
            "{what}: element {i}: layer {g} vs reference {w}"
        );
    }
    Ok(())
}

/// Batches the two-part split is exercised at: no second part, equal parts,
/// unequal parts, and one past a whole conv chunk per part.
const SPLIT_BATCHES: [usize; 5] = [1, 2, 3, 5, 33];

/// Claims the fork-join helper for the calling thread, waiting out other
/// holders.
fn hold_helper() -> par::Team {
    loop {
        let team = par::enter();
        if team.holds_helper() {
            return team;
        }
        thread::yield_now();
    }
}

/// Runs `f` while another thread holds the helper, so every `join` that `f`
/// issues runs inline.
fn with_helper_held_elsewhere<R>(f: impl FnOnce() -> R) -> R {
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    thread::scope(|scope| {
        scope.spawn(move || {
            let _team = hold_helper();
            held_tx.send(()).expect("the test thread waits for this");
            // Released by the sender being dropped.
            let _ = release_rx.recv();
        });
        held_rx.recv().expect("the holder reports before exiting");
        let out = f();
        drop(release_tx);
        out
    })
}

/// One `forward(Train)` + `backward`: output, input gradient and parameter
/// gradients (accumulated on top of what the layer already holds).
fn train_pass(layer: &mut dyn Layer, x: &Tensor, dy: &Tensor) -> (Tensor, Tensor, Vec<Vec<f32>>) {
    let y = layer.forward(x, Mode::Train);
    let dx = layer.backward(dy);
    let grads = param_grads(layer).into_iter().map(|(_, g)| g).collect();
    (y, dx, grads)
}

/// A `Linear` of `cfg` and seed `seed` in three states: never packed, after
/// `prepack()`, and built from another seed with `seed`'s weights then
/// written into it through `visit_params`.
fn linear_in_three_states(cfg: &LinearConfig, seed: u64) -> [Linear; 3] {
    let plain = Linear::new("fc", cfg.clone(), &mut SeededRng::new(seed));
    let mut packed = Linear::new("fc", cfg.clone(), &mut SeededRng::new(seed));
    packed.prepack();
    let mut written = Linear::new("fc", cfg.clone(), &mut SeededRng::new(seed ^ 0x5eed));
    let mut values = param_values(&mut Linear::new(
        "fc",
        cfg.clone(),
        &mut SeededRng::new(seed),
    ));
    values.reverse();
    written.visit_params(&mut |p| {
        p.value_mut()
            .data_mut()
            .copy_from_slice(&values.pop().expect("one value per parameter"))
    });
    [plain, packed, written]
}

/// What `gemm` and a bias add compute for `layer`'s forward of `x` at its
/// current rate: `scale · x · W_activeᵀ + b`.
fn linear_by_gemm(layer: &mut Linear, cfg: &LinearConfig, x: &Tensor) -> Vec<f32> {
    let ((a_in, a_out), p) = (layer.active_dims(), param_values(layer));
    let batch = x.numel() / a_in;
    let scale = if cfg.input_rescale && a_in < cfg.in_dim {
        cfg.in_dim as f32 / a_in as f32
    } else {
        1.0
    };
    let mut y = vec![f32::NAN; batch * a_out];
    let (w, ld) = (&p[0], cfg.in_dim);
    gemm(
        Trans::No,
        Trans::Yes,
        batch,
        a_out,
        a_in,
        scale,
        x.data(),
        a_in,
        w,
        ld,
        0.0,
        &mut y,
        a_out,
    );
    if let Some(b) = p.get(1) {
        ms_tensor::ops::add_bias_rows(&mut y, b, a_out, a_out);
    }
    y
}

/// Each of a `Linear`'s three states ([`linear_in_three_states`]) forwards
/// `x` in `Infer` and in `Train` to the bits of [`linear_by_gemm`].
fn check_linear_is_gemm(
    cfg: &LinearConfig,
    rate: SliceRate,
    batch: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    for (state, mut layer) in ["never packed", "prepacked", "written"]
        .into_iter()
        .zip(linear_in_three_states(cfg, seed))
    {
        layer.set_slice_rate(rate);
        let (a_in, a_out) = layer.active_dims();
        let x = random_tensor(&mut SeededRng::new(seed ^ 0x9e37), vec![batch, a_in]);
        let want = linear_by_gemm(&mut layer, cfg, &x);
        for mode in [Mode::Infer, Mode::Train] {
            let got = layer.forward(&x, mode);
            prop_assert_eq!(got.dims(), &[batch, a_out][..]);
            prop_assert_eq!(
                bits(got.data()),
                bits(&want),
                "{} {:?}: {}x{}x{} at rate {}",
                state,
                mode,
                batch,
                a_in,
                a_out,
                rate
            );
        }
    }
    Ok(())
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Sample `s` of a batch-leading tensor, as a batch of one.
fn sample_of(t: &Tensor, s: usize) -> Tensor {
    let per = t.numel() / t.dims()[0];
    let mut dims = t.dims().to_vec();
    dims[0] = 1;
    Tensor::from_vec(dims, t.data()[s * per..(s + 1) * per].to_vec()).expect("one sample")
}

/// Runs a layer's borrowed entries on one twin and its owned entries on
/// another, at r = 0.5 and r = 1: a `forward(Infer)`, then a
/// `forward(Train)` and `backward`. Outputs, input gradients and every
/// parameter gradient must agree bit for bit. `in_dims` gives the input
/// shape at a rate.
fn assert_owned_matches_borrowed(
    make: impl Fn() -> Box<dyn Layer>,
    in_dims: impl Fn(SliceRate) -> Vec<usize>,
) {
    for rate in [SliceRate::new(0.5), SliceRate::FULL] {
        let (mut borrowed, mut owned) = (make(), make());
        borrowed.set_slice_rate(rate);
        owned.set_slice_rate(rate);
        let what = format!("{} at {rate}", borrowed.name());
        let mut rng = SeededRng::new(71);
        let x = random_tensor(&mut rng, in_dims(rate));
        for mode in [Mode::Infer, Mode::Train] {
            let want = borrowed.forward(&x, mode);
            let got = owned.forward_owned(x.clone(), mode);
            assert_eq!(got.dims(), want.dims(), "{what}: {mode:?} output shape");
            assert_eq!(
                bits(got.data()),
                bits(want.data()),
                "{what}: {mode:?} output"
            );
        }
        let dy = random_tensor(&mut rng, borrowed.forward(&x, Mode::Train).dims().to_vec());
        owned.forward_owned(x.clone(), Mode::Train).recycle();
        let want = borrowed.backward(&dy);
        let got = owned.backward_owned(dy.clone());
        assert_eq!(got.dims(), want.dims(), "{what}: dx shape");
        assert_eq!(bits(got.data()), bits(want.data()), "{what}: dx");
        let want = param_grads(borrowed.as_mut());
        for ((name, got), (_, want)) in param_grads(owned.as_mut()).iter().zip(&want) {
            assert_eq!(bits(got), bits(want), "{what}: gradient of {name}");
        }
    }
}

fn sigmoid(v: f64) -> f64 {
    1.0 / (1.0 + (-v).exp())
}

/// Geometry of one recurrent reference pass: full and active widths, the
/// `full/active` rescale factors (1 when rescaling is off), batch, steps.
struct Recurrence {
    d: usize,
    h: usize,
    a_d: usize,
    a_h: usize,
    sx: f64,
    sh: f64,
    batch: usize,
    steps: usize,
}

impl Recurrence {
    /// `s · Σ_j w[(gate·H + k)·ld + j] · v[j]` over the first `v.len()` columns.
    fn gate_product(&self, w: &[f32], ld: usize, gate: usize, k: usize, v: &[f64], s: f64) -> f64 {
        let row = &w[(gate * self.h + k) * ld..];
        s * v
            .iter()
            .zip(row)
            .map(|(a, b)| a * f64::from(*b))
            .sum::<f64>()
    }

    fn x_at(&self, x: &Tensor, b: usize, t: usize) -> Vec<f64> {
        let at = (b * self.steps + t) * self.a_d;
        x.data()[at..at + self.a_d]
            .iter()
            .map(|v| f64::from(*v))
            .collect()
    }
}

/// What a reference pass returns: the output `y`, `dx` and the parameter
/// gradients in `visit_params` order, full-size with zeros outside the
/// active block.
type RefPass = (Vec<f64>, Vec<f64>, Vec<Vec<f64>>);

/// A reference pass: [`lstm_reference`] or [`gru_reference`].
type Reference = fn(&Recurrence, &[Vec<f32>], &Tensor, &Tensor) -> RefPass;

/// Per-timestep BPTT through a sliced LSTM, one sample and one step at a
/// time, in `f64`: the textbook form the whole-sequence backward replaced.
fn lstm_reference(geo: &Recurrence, p: &[Vec<f32>], x: &Tensor, dy: &Tensor) -> RefPass {
    let Recurrence {
        d,
        h,
        a_d,
        a_h,
        sx,
        sh,
        batch,
        steps,
    } = *geo;
    let (w_x, w_h, bias) = (&p[0], &p[1], &p[2]);
    let mut y = vec![0.0; batch * steps * a_h];
    let mut dx = vec![0.0; batch * steps * a_d];
    let (mut dw_x, mut dw_h, mut db) =
        (vec![0.0; 4 * h * d], vec![0.0; 4 * h * h], vec![0.0; 4 * h]);
    for b in 0..batch {
        // Forward, keeping every step.
        let (mut hs, mut cs) = (vec![vec![0.0; a_h]], vec![vec![0.0; a_h]]);
        let mut gates = Vec::new();
        for t in 0..steps {
            let xv = geo.x_at(x, b, t);
            let (hp, cp) = (&hs[t], &cs[t]);
            let mut g = [
                vec![0.0; a_h],
                vec![0.0; a_h],
                vec![0.0; a_h],
                vec![0.0; a_h],
            ];
            for (gate, act) in g.iter_mut().enumerate() {
                for k in 0..a_h {
                    let z = geo.gate_product(w_x, d, gate, k, &xv, sx)
                        + geo.gate_product(w_h, h, gate, k, hp, sh)
                        + f64::from(bias[gate * h + k]);
                    act[k] = if gate == 2 { z.tanh() } else { sigmoid(z) };
                }
            }
            let c: Vec<f64> = (0..a_h)
                .map(|k| g[1][k] * cp[k] + g[0][k] * g[2][k])
                .collect();
            let hn: Vec<f64> = (0..a_h).map(|k| g[3][k] * c[k].tanh()).collect();
            y[(b * steps + t) * a_h..][..a_h].copy_from_slice(&hn);
            hs.push(hn);
            cs.push(c);
            gates.push(g);
        }
        // Backward, newest step first.
        let (mut dh_next, mut dc_next) = (vec![0.0; a_h], vec![0.0; a_h]);
        for t in (0..steps).rev() {
            let xv = geo.x_at(x, b, t);
            let [i, f, g, o] = &gates[t];
            let mut dz = [
                vec![0.0; a_h],
                vec![0.0; a_h],
                vec![0.0; a_h],
                vec![0.0; a_h],
            ];
            for k in 0..a_h {
                let dh = f64::from(dy.data()[(b * steps + t) * a_h + k]) + dh_next[k];
                let tc = cs[t + 1][k].tanh();
                let dc = dc_next[k] + dh * o[k] * (1.0 - tc * tc);
                dz[0][k] = dc * g[k] * i[k] * (1.0 - i[k]);
                dz[1][k] = dc * cs[t][k] * f[k] * (1.0 - f[k]);
                dz[2][k] = dc * i[k] * (1.0 - g[k] * g[k]);
                dz[3][k] = dh * tc * o[k] * (1.0 - o[k]);
                dc_next[k] = dc * f[k];
            }
            dh_next = vec![0.0; a_h];
            for (gate, dz_g) in dz.iter().enumerate() {
                for (k, &dz_k) in dz_g.iter().enumerate() {
                    let row = gate * h + k;
                    db[row] += dz_k;
                    for j in 0..a_d {
                        dw_x[row * d + j] += sx * dz_k * xv[j];
                        dx[(b * steps + t) * a_d + j] += sx * dz_k * f64::from(w_x[row * d + j]);
                    }
                    for j in 0..a_h {
                        dw_h[row * h + j] += sh * dz_k * hs[t][j];
                        dh_next[j] += sh * dz_k * f64::from(w_h[row * h + j]);
                    }
                }
            }
        }
    }
    (y, dx, vec![dw_x, dw_h, db])
}

/// The same for the GRU (`r, z, n` blocks, separate recurrent bias, the
/// candidate's `r ⊙ (U_n h + b_u)` form).
fn gru_reference(geo: &Recurrence, p: &[Vec<f32>], x: &Tensor, dy: &Tensor) -> RefPass {
    let Recurrence {
        d,
        h,
        a_d,
        a_h,
        sx,
        sh,
        batch,
        steps,
    } = *geo;
    let (w_x, w_h, b_x, b_h) = (&p[0], &p[1], &p[2], &p[3]);
    let mut y = vec![0.0; batch * steps * a_h];
    let mut dx = vec![0.0; batch * steps * a_d];
    let (mut dw_x, mut dw_h) = (vec![0.0; 3 * h * d], vec![0.0; 3 * h * h]);
    let (mut db_x, mut db_h) = (vec![0.0; 3 * h], vec![0.0; 3 * h]);
    for b in 0..batch {
        let mut hs = vec![vec![0.0; a_h]];
        let mut kept = Vec::new(); // per step: r, z, n, u_n
        for t in 0..steps {
            let xv = geo.x_at(x, b, t);
            let hp = &hs[t];
            let side = |gate: usize, k: usize| {
                let from_x =
                    geo.gate_product(w_x, d, gate, k, &xv, sx) + f64::from(b_x[gate * h + k]);
                let from_h =
                    geo.gate_product(w_h, h, gate, k, hp, sh) + f64::from(b_h[gate * h + k]);
                (from_x, from_h)
            };
            let squash = |gate: usize| -> Vec<f64> {
                (0..a_h)
                    .map(|k| sigmoid(side(gate, k).0 + side(gate, k).1))
                    .collect()
            };
            let (r, z) = (squash(0), squash(1));
            let u_n: Vec<f64> = (0..a_h).map(|k| side(2, k).1).collect();
            let n: Vec<f64> = (0..a_h)
                .map(|k| (side(2, k).0 + r[k] * u_n[k]).tanh())
                .collect();
            let hn: Vec<f64> = (0..a_h)
                .map(|k| (1.0 - z[k]) * n[k] + z[k] * hp[k])
                .collect();
            y[(b * steps + t) * a_h..][..a_h].copy_from_slice(&hn);
            hs.push(hn);
            kept.push([r, z, n, u_n]);
        }
        let mut dh_next = vec![0.0; a_h];
        for t in (0..steps).rev() {
            let xv = geo.x_at(x, b, t);
            let [r, z, n, u_n] = &kept[t];
            let hp = &hs[t];
            // Pre-activation gradients as the input side (`gx`) and the
            // recurrent side (`gh`) see them.
            let mut gx = [vec![0.0; a_h], vec![0.0; a_h], vec![0.0; a_h]];
            let mut gh = gx.clone();
            let mut direct = vec![0.0; a_h];
            for k in 0..a_h {
                let dh = f64::from(dy.data()[(b * steps + t) * a_h + k]) + dh_next[k];
                let dn = dh * (1.0 - z[k]) * (1.0 - n[k] * n[k]);
                let dr = dn * u_n[k] * r[k] * (1.0 - r[k]);
                let dz = dh * (hp[k] - n[k]) * z[k] * (1.0 - z[k]);
                (gx[0][k], gx[1][k], gx[2][k]) = (dr, dz, dn);
                (gh[0][k], gh[1][k], gh[2][k]) = (dr, dz, dn * r[k]);
                direct[k] = dh * z[k];
            }
            dh_next = direct;
            for gate in 0..3 {
                for k in 0..a_h {
                    let row = gate * h + k;
                    db_x[row] += gx[gate][k];
                    db_h[row] += gh[gate][k];
                    for j in 0..a_d {
                        dw_x[row * d + j] += sx * gx[gate][k] * xv[j];
                        dx[(b * steps + t) * a_d + j] +=
                            sx * gx[gate][k] * f64::from(w_x[row * d + j]);
                    }
                    for j in 0..a_h {
                        dw_h[row * h + j] += sh * gh[gate][k] * hp[j];
                        dh_next[j] += sh * gh[gate][k] * f64::from(w_h[row * h + j]);
                    }
                }
            }
        }
    }
    (y, dx, vec![dw_x, dw_h, db_x, db_h])
}

/// A sliced conv's inference the long way: each sample's columns written
/// out by `im2col`, multiplied by the active weight block with `f64` sums
/// (`gemm_reference`), the bias added.
fn conv_reference(cfg: &Conv2dConfig, p: &[Vec<f32>], x: &Tensor, a_out: usize) -> Tensor {
    let geom = ConvGeom {
        h: cfg.h,
        w: cfg.w,
        kh: cfg.kernel,
        kw: cfg.kernel,
        stride: cfg.stride,
        pad: cfg.pad,
    };
    let (batch, a_in, taps) = (x.dims()[0], x.dims()[1], cfg.kernel * cfg.kernel);
    let (k, out_len) = (a_in * taps, geom.out_len());
    let mut col = vec![0.0f32; k * out_len];
    let mut y = Tensor::zeros([batch, a_out, geom.out_h(), geom.out_w()]);
    for s in 0..batch {
        im2col(x.row(s), a_in, &geom, &mut col, out_len, 0);
        let (ys, no, ld_w) = (y.row_mut(s), Trans::No, cfg.in_ch * taps);
        gemm_reference(
            no, no, a_out, out_len, k, 1.0, &p[0], ld_w, &col, out_len, 0.0, ys, out_len,
        );
        for (row, &b) in ys.chunks_exact_mut(out_len).zip(&p[1]) {
            row.iter_mut().for_each(|v| *v += b);
        }
    }
    y
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

    /// The direct forward is `gemm`, whatever was packed: a `Linear` never
    /// packed, one after `prepack()` and one whose weights were written
    /// through `visit_params` each compute, bit for bit, what `gemm` and a
    /// bias add compute, in `Infer` and in `Train`, over awkward group
    /// geometry (dims not divisible by the group count), every rate,
    /// rescaling on and off, and batches from one row to several `A`
    /// blocks.
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
        check_linear_is_gemm(&cfg, SliceRate::new(rate_idx as f32 / 16.0), batch, seed)?;
    }

    /// Weight-stationary conv inference (`conv_packed_a_stepped` on the
    /// persistent panels) agrees with per-sample `im2col` and an `f64` GEMM
    /// at every rate of g = 8, batches 1…64, strided and padded geometry,
    /// bias on; and an un-packed twin's `forward(Infer)`, which packs on first
    /// use, has the prepacked layer's bits.
    #[test]
    fn packed_conv_forward_matches_the_reference(
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
        let mut packed = Conv2d::new("c", cfg.clone(), &mut SeededRng::new(seed));
        prop_assert!(packed.prepack());
        let rate = SliceRate::new(rate_idx as f32 / 8.0);
        plain.set_slice_rate(rate);
        packed.set_slice_rate(rate);
        let (a_in, a_out) = packed.active_channels();
        let dims = vec![BATCHES[batch_idx], a_in, side, side];
        let x = random_tensor(&mut SeededRng::new(seed ^ 0x9e37), dims);
        let got = packed.forward(&x, Mode::Infer);
        let twin = plain.forward(&x, Mode::Infer);
        prop_assert_eq!(bits(twin.data()), bits(got.data()), "un-packed twin");
        let want = conv_reference(&cfg, &param_values(&mut packed), &x, a_out);
        assert_close(&got, &want, "conv")?;
    }

    /// The same for both recurrent cells — panels for the hoisted input
    /// projection and for every step's recurrent product — against a forward
    /// of the `f64` per-timestep references.
    #[test]
    fn packed_recurrent_forward_matches_the_reference(
        d_mult in 1usize..4,
        h_mult in 1usize..4,
        steps in 1usize..6,
        rescale in any::<bool>(),
        rate_idx in 1u32..=8,
        batch_idx in 0usize..BATCHES.len(),
        seed in any::<u64>(),
    ) {
        let rate = SliceRate::new(rate_idx as f32 / 8.0);
        let (d, h, batch) = (8 * d_mult, 8 * h_mult, BATCHES[batch_idx]);
        let (a_d, a_h) = (active_units(d, 8, rate), active_units(h, 8, rate));
        let scale = |full: usize, active: usize| {
            if rescale && active < full { full as f64 / active as f64 } else { 1.0 }
        };
        let geo = Recurrence {
            d, h, a_d, a_h, sx: scale(d, a_d), sh: scale(h, a_h), batch, steps,
        };
        let x = random_tensor(&mut SeededRng::new(seed ^ 0x9e37), vec![batch, steps, a_d]);
        let dy = Tensor::zeros([batch, steps, a_h]);
        let plain = recurrent_pair(d, h, rescale, seed);
        let packed = recurrent_pair(d, h, rescale, seed);
        let references: [Reference; 2] = [lstm_reference, gru_reference];
        for ((mut plain, mut packed), reference) in plain.into_iter().zip(packed).zip(references) {
            prop_assert!(packed.prepack());
            plain.set_slice_rate(rate);
            packed.set_slice_rate(rate);
            let got = packed.forward(&x, Mode::Infer);
            let twin = plain.forward(&x, Mode::Infer);
            let name = packed.name().to_string();
            prop_assert_eq!(bits(twin.data()), bits(got.data()), "{} un-packed twin", &name);
            let (want, _, _) = reference(&geo, &param_values(packed.as_mut()), &x, &dy);
            assert_slices_close(got.data(), &want, 1e-5, &name)?;
        }
    }

    /// Training and inference run one forward: the two modes write the same
    /// bits (a model is served with the arithmetic it was trained with; only
    /// what is kept for `backward` differs). The `Train` pass packs the
    /// cell's panels and the `Infer` pass after it reads them.
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
            prop_assert_eq!(bits(train.data()), bits(infer.data()), "{} at rate {}", cell.name(), rate);
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
                    let v = p.grad.get().unwrap().at(&[o, idx]);
                    let active_cell = o < a && idx < a * k2;
                    if !active_cell && v != 0.0 {
                        leaked = true;
                    }
                }
            }
        });
        prop_assert!(!leaked, "gradient leaked outside active block");
    }

    /// The whole-sequence backward of both cells (elementwise step and
    /// `dh_prev` in the time loop, every product with the inputs as one GEMM
    /// per gate over all `T·B` rows) computes what per-timestep BPTT does:
    /// `dx` and every parameter gradient within 1e-5 relative of an `f64`
    /// reference that walks one sample and one step at a time, at all four
    /// rates, rescaling on and off.
    #[test]
    fn whole_sequence_backward_matches_per_timestep_reference(
        d_mult in 1usize..=4,
        h_mult in 1usize..=4,
        batch in 1usize..=4,
        steps in 1usize..=6,
        rescale in any::<bool>(),
        rate_idx in 1u32..=4,
        seed in any::<u64>(),
    ) {
        let (d, h) = (4 * d_mult, 4 * h_mult);
        let rate = SliceRate::new(rate_idx as f32 / 4.0);
        let (a_d, a_h) = (active_units(d, 4, rate), active_units(h, 4, rate));
        let scale = |full: usize, active: usize| {
            if rescale && active < full { full as f64 / active as f64 } else { 1.0 }
        };
        let geo = Recurrence {
            d, h, a_d, a_h, sx: scale(d, a_d), sh: scale(h, a_h), batch, steps,
        };
        let mut rng = SeededRng::new(seed ^ 0xb977);
        let x = random_tensor(&mut rng, vec![batch, steps, a_d]);
        let dy = random_tensor(&mut rng, vec![batch, steps, a_h]);
        let lstm = LstmConfig {
            in_dim: d, hidden_dim: h, in_groups: Some(4), out_groups: Some(4), input_rescale: rescale,
        };
        let gru = GruConfig {
            in_dim: d, hidden_dim: h, in_groups: Some(4), out_groups: Some(4), input_rescale: rescale,
        };
        let cells: [(Box<dyn Layer>, Reference); 2] = [
            (Box::new(Lstm::new("lstm", lstm, &mut SeededRng::new(seed))), lstm_reference),
            (Box::new(Gru::new("gru", gru, &mut SeededRng::new(seed))), gru_reference),
        ];
        for (mut cell, reference) in cells {
            cell.set_slice_rate(rate);
            let (_, want_dx, want_grads) = reference(&geo, &param_values(cell.as_mut()), &x, &dy);
            cell.forward(&x, Mode::Train).recycle();
            let dx = cell.backward(&dy);
            assert_slices_close(dx.data(), &want_dx, 1e-5, &format!("{} dx", cell.name()))?;
            for ((name, got), want) in param_grads(cell.as_mut()).iter().zip(&want_grads) {
                assert_slices_close(got, want, 1e-5, name)?;
            }
        }
    }

    /// The chunked training path (several samples side by side in one
    /// column matrix, one GEMM per chunk) against the per-sample path (the
    /// same layer fed one sample at a time, where a chunk is one sample):
    /// the forward bit for bit, `dx` within 1e-5 relative, `dW` and `db`
    /// (`f32` sums of `B·OH·OW` cancelling terms taken in two orders) within
    /// 1e-4, for batches that are not a multiple of the chunk.
    #[test]
    fn chunked_conv_training_matches_the_per_sample_path(
        in_mult in 1usize..3,
        out_mult in 1usize..3,
        side in 5usize..9,
        kernel in 1usize..=3,
        stride in 1usize..=2,
        pad in 0usize..=1,
        rate_idx in 1u32..=4,
        extra in 1usize..4,
        seed in any::<u64>(),
    ) {
        let cfg = Conv2dConfig {
            in_ch: 4 * in_mult,
            out_ch: 4 * out_mult,
            kernel,
            stride,
            pad,
            h: side,
            w: side,
            in_groups: Some(4),
            out_groups: Some(4),
            bias: true,
        };
        let mut chunked = Conv2d::new("c", cfg.clone(), &mut SeededRng::new(seed));
        let mut single = Conv2d::new("c", cfg, &mut SeededRng::new(seed));
        let rate = SliceRate::new(rate_idx as f32 / 4.0);
        chunked.set_slice_rate(rate);
        single.set_slice_rate(rate);
        let (a_in, a_out) = chunked.active_channels();
        // Two full chunks and a ragged third: a chunk is 512 columns' worth
        // of samples, five or more at these sizes.
        let out_side = (side + 2 * pad - kernel) / stride + 1;
        let batch = 2 * (512 / (out_side * out_side)) + extra;
        let mut rng = SeededRng::new(seed ^ 0x51ce);
        let x = random_tensor(&mut rng, vec![batch, a_in, side, side]);
        let dy = random_tensor(&mut rng, vec![batch, a_out, out_side, out_side]);

        let y = chunked.forward(&x, Mode::Train);
        let dx = chunked.backward(&dy);
        let (per_x, per_y) = (a_in * side * side, a_out * out_side * out_side);
        let sample = |t: &Tensor, s: usize, dims: [usize; 4]| {
            let per: usize = dims.iter().product();
            Tensor::from_vec(dims, t.data()[s * per..(s + 1) * per].to_vec()).expect("one sample")
        };
        for s in 0..batch {
            let y_s = single.forward(&sample(&x, s, [1, a_in, side, side]), Mode::Train);
            prop_assert_eq!(bits(y_s.data()), bits(&y.data()[s * per_y..(s + 1) * per_y]), "y of sample {}", s);
            let dx_s = single.backward(&sample(&dy, s, [1, a_out, out_side, out_side]));
            let want: Vec<f64> = dx_s.data().iter().map(|v| f64::from(*v)).collect();
            assert_slices_close(&dx.data()[s * per_x..(s + 1) * per_x], &want, 1e-5, "dx")?;
        }
        let want = param_grads(&mut single);
        for ((name, got), (_, want)) in param_grads(&mut chunked).iter().zip(&want) {
            let want: Vec<f64> = want.iter().map(|v| f64::from(*v)).collect();
            assert_slices_close(got, &want, 1e-4, name)?;
        }
    }

    /// The six layers whose training pass runs as two fixed parts of the
    /// batch: the forward output, `dx` and every parameter gradient have the
    /// same bits whether the second part ran on the helper thread or inline
    /// after the first. Against the un-split reference — the same layer fed
    /// one sample at a time, where there is no second part — the output is
    /// bit for bit, `dx` bit for bit where no GEMM is involved and within
    /// 1e-5 elsewhere, the parameter gradients (sums over the batch, taken
    /// in another order) within 1e-4.
    #[test]
    fn split_passes_do_not_depend_on_who_runs_the_parts(
        batch_idx in 0usize..SPLIT_BATCHES.len(),
        rate_idx in 1u32..=4,
        rescale in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let batch = SPLIT_BATCHES[batch_idx];
        let rate = SliceRate::new(rate_idx as f32 / 4.0);
        let (ch, side, steps) = (8, 6, 4);
        let a_ch = active_units(ch, 4, rate);
        let conv = Conv2dConfig {
            in_ch: ch, out_ch: 2 * ch, kernel: 3, stride: 1, pad: 1, h: side, w: side,
            in_groups: Some(4), out_groups: Some(4), bias: true,
        };
        // `Linear` cuts a pass by its shape: not at all while a half is too
        // small to be worth the handoff (the narrow rates here), by task
        // where the weights are the long side (`wide` at batch 33), by rows
        // where the batch is (`square` at batch 33).
        let dense = |out_dim| LinearConfig {
            in_dim: 4 * ch, out_dim, in_groups: Some(4), out_groups: Some(4),
            bias: true, input_rescale: rescale,
        };
        let (wide, square) = (dense(8 * ch), dense(4 * ch));
        let lstm = LstmConfig {
            in_dim: ch, hidden_dim: 2 * ch, in_groups: Some(4), out_groups: Some(4),
            input_rescale: rescale,
        };
        let gru = GruConfig {
            in_dim: ch, hidden_dim: 2 * ch, in_groups: Some(4), out_groups: Some(4),
            input_rescale: rescale,
        };
        // (builder, input dims, output exact vs the reference, dx exact).
        type Build = Box<dyn Fn() -> Box<dyn Layer>>;
        let image = vec![batch, a_ch, side, side];
        let cases: Vec<(Build, Vec<usize>, bool, bool)> = vec![
            (Box::new(move || Box::new(Conv2d::new("conv", conv.clone(), &mut SeededRng::new(seed)))), image.clone(), true, false),
            (Box::new(move || Box::new(GroupNorm::new("gn", ch, 4))), image.clone(), true, true),
            (Box::new(|| Box::new(MaxPool2d::new(2, 2))), image, true, true),
            (Box::new(move || Box::new(Linear::new("wide", wide.clone(), &mut SeededRng::new(seed)))), vec![batch, 4 * a_ch], true, false),
            (Box::new(move || Box::new(Linear::new("square", square.clone(), &mut SeededRng::new(seed)))), vec![batch, 4 * a_ch], true, false),
            (Box::new(move || Box::new(Lstm::new("lstm", lstm.clone(), &mut SeededRng::new(seed)))), vec![batch, steps, a_ch], true, false),
            (Box::new(move || Box::new(Gru::new("gru", gru.clone(), &mut SeededRng::new(seed)))), vec![batch, steps, a_ch], true, false),
        ];
        let parallel = thread::available_parallelism().map_or(1, usize::from) > 1;
        for (build, x_dims, y_exact, dx_exact) in cases {
            let fresh = || {
                let mut layer = build();
                layer.set_slice_rate(rate);
                layer
            };
            let mut rng = SeededRng::new(seed ^ 0x5917);
            let x = random_tensor(&mut rng, x_dims);
            let y_dims = fresh().forward(&x, Mode::Infer).dims().to_vec();
            let dy = random_tensor(&mut rng, y_dims);

            let mut layer = fresh();
            let name = layer.name().to_string();
            let (y, dx, grads) = if parallel {
                let on_helper = {
                    let _team = hold_helper();
                    train_pass(layer.as_mut(), &x, &dy)
                };
                let inline = with_helper_held_elsewhere(|| train_pass(fresh().as_mut(), &x, &dy));
                prop_assert_eq!(bits(on_helper.0.data()), bits(inline.0.data()), "{} y", &name);
                prop_assert_eq!(bits(on_helper.1.data()), bits(inline.1.data()), "{} dx", &name);
                for (a, b) in on_helper.2.iter().zip(&inline.2) {
                    prop_assert_eq!(bits(a), bits(b), "{} gradient", &name);
                }
                on_helper
            } else {
                train_pass(layer.as_mut(), &x, &dy)
            };

            let mut single = fresh();
            let (per_y, per_x) = (y.numel() / batch, x.numel() / batch);
            let mut want_grads = Vec::new();
            for s in 0..batch {
                let (y_s, dx_s, g) = train_pass(single.as_mut(), &sample_of(&x, s), &sample_of(&dy, s));
                let (got_y, got_dx) = (&y.data()[s * per_y..][..per_y], &dx.data()[s * per_x..][..per_x]);
                let as_f64 = |t: &Tensor| t.data().iter().map(|v| f64::from(*v)).collect::<Vec<_>>();
                if y_exact {
                    prop_assert_eq!(bits(got_y), bits(y_s.data()), "{} y of sample {}", &name, s);
                } else {
                    assert_slices_close(got_y, &as_f64(&y_s), 1e-5, &format!("{name} y"))?;
                }
                if dx_exact {
                    prop_assert_eq!(bits(got_dx), bits(dx_s.data()), "{} dx of sample {}", &name, s);
                } else {
                    assert_slices_close(got_dx, &as_f64(&dx_s), 1e-5, &format!("{name} dx"))?;
                }
                want_grads = g;
            }
            for (got, want) in grads.iter().zip(&want_grads) {
                let want: Vec<f64> = want.iter().map(|v| f64::from(*v)).collect();
                assert_slices_close(got, &want, 1e-4, &format!("{name} gradient"))?;
            }
        }
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

/// The bits rule at the shapes where the two orientations of the product
/// part ways: output widths that are not a multiple of 8, batches that are
/// not a multiple of the tile or the transpose block (1, 7, 31, 33, 53),
/// and products from inside one tile to several — every state of
/// [`linear_in_three_states`], both modes, `gemm`'s bits.
#[test]
fn linear_forward_is_gemm_in_every_state() {
    for (in_dim, out_dim) in [(3, 13), (24, 5), (24, 37), (150, 13), (150, 70), (300, 37)] {
        for grouped in [false, true] {
            let cfg = LinearConfig {
                in_dim,
                out_dim,
                in_groups: grouped.then_some(3),
                out_groups: grouped.then_some(4),
                bias: true,
                input_rescale: true,
            };
            for batch in [1, 7, 31, 33, 53] {
                for rate in [0.375, 1.0] {
                    let rate = SliceRate::new(rate);
                    check_linear_is_gemm(&cfg, rate, batch, (in_dim * out_dim + batch) as u64)
                        .unwrap();
                }
            }
        }
    }
}

#[test]
fn owned_entries_match_borrowed_ones_bitwise() {
    let dense = |_| vec![3, 10];
    assert_owned_matches_borrowed(|| Box::new(Relu::new()), dense);
    assert_owned_matches_borrowed(|| Box::new(Tanh::new()), dense);
    assert_owned_matches_borrowed(
        || Box::new(Dropout::new(0.3, &mut SeededRng::new(72))),
        dense,
    );
    let channels = |rate| vec![3, active_units(8, 4, rate), 4, 4];
    assert_owned_matches_borrowed(|| Box::new(GroupNorm::new("gn", 8, 4)), channels);
    let conv = |in_ch, in_groups| Conv2dConfig {
        in_ch,
        out_ch: 8,
        kernel: 3,
        stride: 1,
        pad: 1,
        h: 4,
        w: 4,
        in_groups,
        out_groups: Some(4),
        bias: true,
    };
    assert_owned_matches_borrowed(
        || {
            Box::new(Conv2d::new(
                "conv",
                conv(8, Some(4)),
                &mut SeededRng::new(73),
            ))
        },
        channels,
    );
    let linear = LinearConfig {
        in_dim: 16,
        out_dim: 12,
        in_groups: Some(4),
        out_groups: Some(4),
        bias: true,
        input_rescale: true,
    };
    assert_owned_matches_borrowed(
        || Box::new(Linear::new("fc", linear.clone(), &mut SeededRng::new(74))),
        |rate| vec![5, active_units(16, 4, rate)],
    );
    // conv → GN → ReLU → max-pool → linear, the head reading the pooled
    // `[C, 2, 2]` maps flattened (a channel prefix is a column prefix).
    let head = LinearConfig {
        in_dim: 32,
        out_dim: 5,
        in_groups: Some(4),
        out_groups: None,
        bias: true,
        input_rescale: true,
    };
    assert_owned_matches_borrowed(
        || {
            let mut rng = SeededRng::new(75);
            Box::new(
                Sequential::new("seq")
                    .push(Conv2d::new("conv", conv(3, None), &mut rng))
                    .push(GroupNorm::new("gn", 8, 4))
                    .push(Relu::new())
                    .push(MaxPool2d::new(2, 2))
                    .push(Flatten::new())
                    .push(Linear::new("head", head.clone(), &mut rng)),
            )
        },
        |_| vec![3, 3, 4, 4],
    );
}
