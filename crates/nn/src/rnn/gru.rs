//! The GRU cell (Cho et al. 2014) — paper §3.3 — for the [`Recurrent`]
//! driver.
//!
//! Gate equations (reset `r`, update `z`, candidate `n`):
//!
//! ```text
//! r_t = σ(W_r x_t + U_r h_{t-1} + b_r)
//! z_t = σ(W_z x_t + U_z h_{t-1} + b_z)
//! n_t = tanh(W_n x_t + r_t ⊙ (U_n h_{t-1} + b_u))
//! h_t = (1 − z_t) ⊙ n_t + z_t ⊙ h_{t-1}
//! ```
//!
//! Gate blocks are ordered `r, z, n`, with biases `b_x: [3H]` and
//! `b_h: [3H]` (a separate recurrent bias, so the candidate's
//! `r ⊙ (U_n h + b_u)` form is exact). The state is `h` alone; a step saves
//! `U_n h + b_u`.

use super::{gates, gates_mut, Cell, GateCols, Recurrent, RecurrentConfig, StepGrads};
use crate::layer::Param;
use ms_tensor::ops::{sigmoid_cols, sigmoid_grad_from_output, tanh_cols, tanh_grad_from_output};
use ms_tensor::Tensor;

/// Configuration for a [`Gru`] layer.
pub type GruConfig = RecurrentConfig;

/// Sliceable GRU over `[B, T, D_active] → [B, T, H_active]`.
pub type Gru = Recurrent<GruCell, 3>;

/// The GRU's gate arithmetic and its biases.
pub struct GruCell {
    b_x: Param, // [3H]
    b_h: Param, // [3H]
}

impl Cell<3> for GruCell {
    const STATE: usize = 0;
    const SAVED: usize = 1; // U_n·h_prev + b_u, before reset gating
    const BIASES: usize = 2;
    type BiasGrads<'a> = [&'a mut [f32]; 2];

    fn new(name: &str, h: usize) -> Self {
        GruCell {
            b_x: Param::new(format!("{name}.b_x"), Tensor::zeros([3 * h]), false),
            b_h: Param::new(format!("{name}.b_h"), Tensor::zeros([3 * h]), false),
        }
    }

    fn input_bias(&self) -> &Tensor {
        &self.b_x.value
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.b_x);
        f(&mut self.b_h);
    }

    fn forward_step(
        l: &Gru,
        rows: usize,
        z: &mut [f32],
        h: &mut [f32],
        _state: &mut [f32],
        u: &mut [f32],
    ) {
        let (a_h, width) = (l.active_h, 3 * l.active_h);
        // The candidate keeps U_n·h apart from W_n·x: park W_n·x + b_n in
        // `u` and let the step's product fill a cleared n block.
        for (row, u) in z.chunks_exact_mut(width).zip(u.chunks_exact_mut(a_h)) {
            u.copy_from_slice(&row[2 * a_h..]);
            row[2 * a_h..].fill(0.0);
        }
        l.step_product(rows, h, z);
        l.add_gate_bias(z, &l.cell.b_h.value);
        sigmoid_cols(z, width, 0..2 * a_h);
        // Candidate: tanh(W_n x + b_n  +  r ⊙ (U_n h + b_u)); `u` keeps
        // U_n h + b_u.
        for (row, u) in z.chunks_exact_mut(width).zip(u.chunks_exact_mut(a_h)) {
            let [r, _, n] = gates_mut(row, a_h);
            for ((uv, nv), &rv) in u.iter_mut().zip(n).zip(&*r) {
                (*uv, *nv) = (*nv, *uv + rv * *nv);
            }
        }
        tanh_cols(z, width, 2 * a_h..width);

        // h_t = (1 − z) ⊙ n + z ⊙ h_prev.
        for (row, h) in z.chunks_exact(width).zip(h.chunks_exact_mut(a_h)) {
            let [_, z, n] = gates(row, a_h);
            for ((hv, &zv), &nv) in h.iter_mut().zip(z).zip(n) {
                *hv = (1.0 - zv) * nv + zv * *hv;
            }
        }
    }

    fn scratch_slabs(steps: usize) -> usize {
        steps // du of every step: the gradient at `U_n h + b_u`
    }

    fn backward_step(l: &Gru, s: StepGrads<'_>) {
        let (a_h, width) = (l.active_h, 3 * l.active_h);
        let (dh, dg) = (s.dh, s.dz);
        let du = &mut s.scratch[s.t * dh.len()..][..dh.len()];
        let rows = s.z.chunks_exact(width).zip(dg.chunks_exact_mut(width));
        let grads = dh.chunks_exact_mut(a_h).zip(du.chunks_exact_mut(a_h));
        let kept = s.saved.chunks_exact(a_h).zip(s.h_prev.chunks_exact(a_h));
        for (((g, dg), (dh, du)), (u, h)) in rows.zip(grads).zip(kept) {
            row_grads(g, dg, dh, du, u, h);
        }
        if s.t == 0 {
            return; // h before step 0 is the zero state: nothing to pass on
        }
        // dh_prev += s_h · Σ_g (recurrent-side gradient)_g · W_h[g]
        l.recurrent_grad(0, dg, width, 1.0, dh);
        l.recurrent_grad(1, &dg[a_h..], width, 1.0, dh);
        l.recurrent_grad(2, du, a_h, 1.0, dh);
    }

    /// The recurrent side sees `r` and `z` as the input side does and, in
    /// place of `n`, `du`.
    fn recurrent_rows<'a>(gate: usize, dz: GateCols<'a>, scratch: &'a [f32]) -> GateCols<'a> {
        if gate == 2 {
            GateCols::new(scratch, dz.width, 0, dz.width)
        } else {
            dz
        }
    }

    fn split_bias_grads(&mut self, at: usize) -> ([&mut [f32]; 2], [&mut [f32]; 2]) {
        let (x0, x1) = self.b_x.grad.get_mut().data_mut().split_at_mut(at);
        let (h0, h1) = self.b_h.grad.get_mut().data_mut().split_at_mut(at);
        ([x0, h0], [x1, h1])
    }

    fn add_bias_grads(db: &mut [&mut [f32]; 2], at: usize, dz: GateCols, dz_h: GateCols) {
        let [dbx, dbh] = db;
        dz.sum_into(&mut dbx[at..]);
        dz_h.sum_into(&mut dbh[at..]);
    }

    fn backward_span() -> impl Sized {
        ms_tensor::span!("nn.gru_bwd")
    }
}

/// One row of a step's gate gradients: `g` and `dg` the row's gates, the
/// rest the row's `a_h` floats of each. Its own function so that the
/// compiler may take the slices for disjoint and vectorise the loop.
fn row_grads(g: &[f32], dg: &mut [f32], dh: &mut [f32], du: &mut [f32], u: &[f32], h: &[f32]) {
    let a_h = dh.len();
    let ([r, z, n], [dr, dz, dn]) = (gates(g, a_h), gates_mut(dg, a_h));
    for k in 0..a_h {
        let d_n = dh[k] * (1.0 - z[k]) * tanh_grad_from_output(n[k]);
        dz[k] = dh[k] * (h[k] - n[k]) * sigmoid_grad_from_output(z[k]);
        dn[k] = d_n;
        du[k] = d_n * r[k];
        dr[k] = d_n * u[k] * sigmoid_grad_from_output(r[k]);
        dh[k] *= z[k]; // the direct path into h_prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer, CheckOpts};
    use crate::layer::{Layer, Mode};
    use crate::slice::SliceRate;
    use ms_tensor::SeededRng;

    fn gru(in_dim: usize, hidden: usize, rescale: bool) -> Gru {
        let mut rng = SeededRng::new(41);
        Gru::new(
            "gru",
            GruConfig {
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
    fn forward_shapes_full_and_sliced() {
        let mut g = gru(4, 8, false);
        let x = Tensor::zeros([2, 5, 4]);
        assert_eq!(g.forward(&x, Mode::Infer).dims(), &[2, 5, 8]);
        g.set_slice_rate(SliceRate::new(0.5));
        assert_eq!(g.active_dims(), (2, 4));
        let x = Tensor::zeros([2, 5, 2]);
        assert_eq!(g.forward(&x, Mode::Infer).dims(), &[2, 5, 4]);
    }

    #[test]
    fn zero_input_keeps_zero_state() {
        // With zero weights-biases-input, h stays 0 (z = 0.5, n = 0).
        let mut g = gru(3, 4, false);
        g.visit_params(&mut |p| p.value_mut().fill_zero());
        let y = g.forward(&Tensor::zeros([1, 3, 3]), Mode::Infer);
        assert!(y.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn prefix_forward_matches_plain_forward_numerically() {
        let mut rng = SeededRng::new(44);
        let x = random_input(&mut rng, [2, 4, 8]);
        for &(r1, r2) in &[(0.25f32, 0.5f32), (0.5, 1.0)] {
            let (r1, r2) = (SliceRate::new(r1), SliceRate::new(r2));
            let mut g = gru(8, 8, true);
            g.set_slice_rate(r2);
            let a_d = g.active_dims().0;
            let x2 = {
                let data = (0..2)
                    .flat_map(|s| (0..4).flat_map(move |t| (s * 4 + t) * 8..(s * 4 + t) * 8 + a_d))
                    .map(|i| x.data()[i])
                    .collect();
                Tensor::from_vec([2, 4, a_d], data).unwrap()
            };
            let plain = g.forward(&x2, Mode::Infer);
            let fresh = g.forward_prefix(&x2, None, r2);
            assert_eq!(plain.dims(), fresh.dims());
            for (a, b) in plain.data().iter().zip(fresh.data()) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
            let refined = g.forward_prefix(&x2, Some(r1), r2);
            let fb: Vec<u32> = fresh.data().iter().map(|v| v.to_bits()).collect();
            let rb: Vec<u32> = refined.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(fb, rb, "gru refine {r1}→{r2} not bitwise");
        }
    }

    #[test]
    fn gradients_full_width() {
        let mut rng = SeededRng::new(42);
        let mut g = gru(3, 4, false);
        let x = random_input(&mut rng, [2, 3, 3]);
        check_layer(&mut g, &x, &mut rng, &CheckOpts::default()).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn gradients_sliced_with_rescale() {
        let mut rng = SeededRng::new(43);
        let mut g = gru(8, 8, true);
        g.set_slice_rate(SliceRate::new(0.5));
        let x = random_input(&mut rng, [2, 3, 4]);
        check_layer(&mut g, &x, &mut rng, &CheckOpts::default()).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn flops_quadratic_in_rate() {
        let mut g = gru(8, 8, false);
        let full = g.flops_per_sample();
        g.set_slice_rate(SliceRate::new(0.5));
        assert_eq!(g.flops_per_sample() * 4, full);
    }

    #[test]
    fn sliced_grads_confined_to_active_rows() {
        let mut g = gru(8, 8, false);
        g.set_slice_rate(SliceRate::new(0.5));
        let x = Tensor::full([1, 2, 4], 0.3);
        let _ = g.forward(&x, Mode::Train);
        let _ = g.backward(&Tensor::full([1, 2, 4], 1.0));
        for gate in 0..3 {
            for row in 0..8 {
                for col in 0..8 {
                    let v = g.w_x.grad.get().unwrap().at(&[gate * 8 + row, col]);
                    if row >= 4 || col >= 4 {
                        assert_eq!(v, 0.0, "w_x leak at gate {gate} ({row},{col})");
                    }
                }
            }
        }
    }
}
