//! The LSTM cell — paper §3.3 — for the [`Recurrent`] driver.
//!
//! Gate equations (input `i`, forget `f`, candidate `g`, output `o`):
//!
//! ```text
//! i_t = σ(W_i x_t + U_i h_{t-1} + b_i)
//! f_t = σ(W_f x_t + U_f h_{t-1} + b_f)
//! g_t = tanh(W_g x_t + U_g h_{t-1} + b_g)
//! o_t = σ(W_o x_t + U_o h_{t-1} + b_o)
//! c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t
//! h_t = o_t ⊙ tanh(c_t)
//! ```
//!
//! Gate blocks are ordered `i, f, g, o`, with one bias `bias: [4H]`. The
//! cell carries `c` beside `h` and saves `tanh c` per step.

use super::{gates, gates_mut, Cell, GateCols, Recurrent, RecurrentConfig, StepGrads};
use crate::layer::Param;
use ms_tensor::ops::{sigmoid_cols, sigmoid_grad_from_output, tanh_cols, tanh_grad_from_output};
use ms_tensor::Tensor;

/// Configuration for a [`Lstm`] layer.
pub type LstmConfig = RecurrentConfig;

/// Sliceable LSTM over `[B, T, D_active] → [B, T, H_active]`.
pub type Lstm = Recurrent<LstmCell, 4>;

/// The LSTM's gate arithmetic and its bias.
pub struct LstmCell {
    bias: Param, // [4H]
}

impl Cell<4> for LstmCell {
    const STATE: usize = 1; // c
    const SAVED: usize = 1; // tanh c
    const BIASES: usize = 1;
    type BiasGrads<'a> = &'a mut [f32];

    fn new(name: &str, h: usize) -> Self {
        // Forget-gate bias at 1.0 eases early-training gradient flow.
        let mut bias = Tensor::zeros([4 * h]);
        bias.data_mut()[h..2 * h].fill(1.0);
        LstmCell {
            bias: Param::new(format!("{name}.bias"), bias, false),
        }
    }

    fn input_bias(&self) -> &Tensor {
        &self.bias.value
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.bias);
    }

    fn forward_step(
        l: &Lstm,
        rows: usize,
        z: &mut [f32],
        h: &mut [f32],
        c: &mut [f32],
        tc: &mut [f32],
    ) {
        l.step_product(rows, h, z);
        let (a_h, width) = (l.active_h, 4 * l.active_h);
        sigmoid_cols(z, width, 0..2 * a_h);
        tanh_cols(z, width, 2 * a_h..3 * a_h);
        sigmoid_cols(z, width, 3 * a_h..width);

        for (row, c) in z.chunks_exact(width).zip(c.chunks_exact_mut(a_h)) {
            let [zi, zf, zg, _] = gates(row, a_h);
            for (((cv, &i), &f), &g) in c.iter_mut().zip(zi).zip(zf).zip(zg) {
                *cv = f * *cv + i * g;
            }
        }
        tc.copy_from_slice(c);
        tanh_cols(tc, tc.len(), 0..tc.len());
        let rows = z.chunks_exact(width).zip(tc.chunks_exact(a_h));
        for ((row, tc), h) in rows.zip(h.chunks_exact_mut(a_h)) {
            let zo = row[3 * a_h..].iter().zip(tc);
            h.iter_mut().zip(zo).for_each(|(hv, (o, t))| *hv = o * t);
        }
    }

    fn scratch_slabs(_steps: usize) -> usize {
        1 // dL/dc, carried from step to step
    }

    fn backward_step(l: &Lstm, s: StepGrads<'_>) {
        let (dh, dc, dz, c, tc) = (s.dh, s.scratch, s.dz, s.state_prev, s.saved);
        let (a_h, width) = (l.active_h, 4 * l.active_h);
        let rows = s.z.chunks_exact(width).zip(dz.chunks_exact_mut(width));
        let grads = dh.chunks_exact(a_h).zip(dc.chunks_exact_mut(a_h));
        let kept = c.chunks_exact(a_h).zip(tc.chunks_exact(a_h));
        for (((z, dz), (dh, dc)), (c, tc)) in rows.zip(grads).zip(kept) {
            row_grads(z, dz, dh, dc, c, tc);
        }
        if s.t == 0 {
            return; // h before step 0 is the zero state: nothing to pass on
        }
        // dh_prev = s_h·Σ_g dz_g·W_h[g]: h_prev reaches h through the gates only.
        for gate in 0..4 {
            let beta = if gate == 0 { 0.0 } else { 1.0 };
            l.recurrent_grad(gate, &dz[gate * a_h..], width, beta, dh);
        }
    }

    fn split_bias_grads(&mut self, at: usize) -> (&mut [f32], &mut [f32]) {
        self.bias.grad.get_mut().data_mut().split_at_mut(at)
    }

    fn add_bias_grads(db: &mut &mut [f32], at: usize, dz: GateCols, _dz_h: GateCols) {
        dz.sum_into(&mut db[at..]);
    }

    fn backward_span() -> impl Sized {
        ms_tensor::span!("nn.lstm_bwd")
    }
}

/// One row of a step's gate gradients: `z` and `dz` the row's gates, the
/// rest the row's `a_h` floats of each. Its own function so that the
/// compiler may take the slices for disjoint and vectorise the loop.
fn row_grads(z: &[f32], dz: &mut [f32], dh: &[f32], dc: &mut [f32], c: &[f32], tc: &[f32]) {
    let a_h = dh.len();
    let ([zi, zf, zg, zo], [dzi, dzf, dzg, dzo]) = (gates(z, a_h), gates_mut(dz, a_h));
    for k in 0..a_h {
        let d_o = dh[k] * tc[k];
        let d_c = dc[k] + dh[k] * zo[k] * tanh_grad_from_output(tc[k]);
        dzi[k] = d_c * zg[k] * sigmoid_grad_from_output(zi[k]);
        dzf[k] = d_c * c[k] * sigmoid_grad_from_output(zf[k]);
        dzg[k] = d_c * zi[k] * tanh_grad_from_output(zg[k]);
        dzo[k] = d_o * sigmoid_grad_from_output(zo[k]);
        dc[k] = d_c * zf[k];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer, CheckOpts};
    use crate::layer::{Layer, Mode};
    use crate::slice::SliceRate;
    use ms_tensor::SeededRng;

    fn lstm(in_dim: usize, hidden: usize, rescale: bool) -> Lstm {
        let mut rng = SeededRng::new(31);
        Lstm::new(
            "lstm",
            LstmConfig {
                in_dim,
                hidden_dim: hidden,
                in_groups: Some(in_dim.min(4)),
                out_groups: Some(hidden.min(4)),
                input_rescale: rescale,
            },
            &mut rng,
        )
    }

    fn random_input(rng: &mut SeededRng, dims: [usize; 3]) -> Tensor {
        let n = dims.iter().product();
        Tensor::from_vec(dims, (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap()
    }

    #[test]
    fn forward_shapes() {
        let mut l = lstm(4, 8, false);
        let x = Tensor::zeros([2, 5, 4]);
        let y = l.forward(&x, Mode::Infer);
        assert_eq!(y.dims(), &[2, 5, 8]);
    }

    #[test]
    fn slicing_shrinks_hidden() {
        let mut l = lstm(8, 8, true);
        l.set_slice_rate(SliceRate::new(0.5));
        assert_eq!(l.active_dims(), (4, 4));
        let x = Tensor::zeros([1, 3, 4]);
        let y = l.forward(&x, Mode::Infer);
        assert_eq!(y.dims(), &[1, 3, 4]);
        // FLOPs quadratic in rate.
        let half = l.flops_per_sample();
        l.set_slice_rate(SliceRate::FULL);
        assert_eq!(l.flops_per_sample(), half * 4);
    }

    #[test]
    fn gradients_full_width() {
        let mut rng = SeededRng::new(32);
        let mut l = lstm(3, 4, false);
        let x = random_input(&mut rng, [2, 3, 3]);
        check_layer(&mut l, &x, &mut rng, &CheckOpts::default()).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn gradients_sliced_with_rescale() {
        let mut rng = SeededRng::new(33);
        let mut l = lstm(8, 8, true);
        l.set_slice_rate(SliceRate::new(0.5));
        let x = random_input(&mut rng, [2, 3, 4]);
        check_layer(&mut l, &x, &mut rng, &CheckOpts::default()).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn prefix_forward_matches_plain_forward_numerically() {
        // A prefix pass is the plain forward at `to`, and a refine is a
        // fresh prefix pass, bit for bit.
        let mut rng = SeededRng::new(34);
        let x = random_input(&mut rng, [2, 4, 8]);
        for &(r1, r2) in &[(0.25f32, 0.5f32), (0.5, 1.0)] {
            let (r1, r2) = (SliceRate::new(r1), SliceRate::new(r2));
            let mut l = lstm(8, 8, true);
            l.set_slice_rate(r2);
            let a_d = l.active_dims().0;
            let x2 = {
                let data = (0..2)
                    .flat_map(|s| (0..4).flat_map(move |t| (s * 4 + t) * 8..(s * 4 + t) * 8 + a_d))
                    .map(|i| x.data()[i])
                    .collect();
                Tensor::from_vec([2, 4, a_d], data).unwrap()
            };
            let plain = l.forward(&x2, Mode::Infer);
            let fresh = l.forward_prefix(&x2, None, r2);
            assert_eq!(plain.dims(), fresh.dims());
            for (a, b) in plain.data().iter().zip(fresh.data()) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
            let refined = l.forward_prefix(&x2, Some(r1), r2);
            let fb: Vec<u32> = fresh.data().iter().map(|v| v.to_bits()).collect();
            let rb: Vec<u32> = refined.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(fb, rb, "lstm refine {r1}→{r2} not bitwise");
        }
    }

    #[test]
    fn state_resets_between_forwards() {
        let mut l = lstm(4, 4, false);
        let x = Tensor::full([1, 2, 4], 0.5);
        let y1 = l.forward(&x, Mode::Infer);
        let y2 = l.forward(&x, Mode::Infer);
        assert_eq!(y1, y2);
    }

    #[test]
    fn sliced_grads_confined_to_active_rows() {
        let mut l = lstm(8, 8, false);
        l.set_slice_rate(SliceRate::new(0.5)); // a_d = a_h = 4
        let x = Tensor::full([1, 2, 4], 0.3);
        let _ = l.forward(&x, Mode::Train);
        let _ = l.backward(&Tensor::full([1, 2, 4], 1.0));
        // Rows 4..8 of every gate block in w_x must be untouched, as must
        // columns 4..8 of active rows.
        for gate in 0..4 {
            for row in 0..8 {
                for col in 0..8 {
                    let v = l.w_x.grad.get().unwrap().at(&[gate * 8 + row, col]);
                    if row >= 4 || col >= 4 {
                        assert_eq!(v, 0.0, "w_x leak at gate {gate} ({row},{col})");
                    }
                }
            }
        }
    }
}
