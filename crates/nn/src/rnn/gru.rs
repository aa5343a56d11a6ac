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

use super::{Cell, Recurrent, RecurrentConfig, StepGrads};
use crate::layer::Param;
use ms_tensor::ops::{
    add_bias_rows, sigmoid_grad_from_output, sigmoid_inplace, sum_rows_into, tanh_grad_from_output,
    tanh_inplace,
};
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
        [r, z, n]: [&mut [f32]; 3],
        h: &mut [f32],
        _state: &mut [f32],
        u: &mut [f32],
    ) {
        let a_h = l.active_h;
        let b_h = |gate: usize| &l.cell.b_h.value.data()[gate * l.cfg.hidden_dim..];
        // r and z gates: add the recurrent side, then squash.
        for (gate, zg) in [&mut *r, &mut *z].into_iter().enumerate() {
            l.recurrent_gemm(gate, rows, h, zg);
            add_bias_rows(zg, b_h(gate), a_h, a_h);
            sigmoid_inplace(zg);
        }
        // Candidate: tanh(W_n x + b_n  +  r ⊙ (U_n h + b_u)).
        u.fill(0.0);
        l.recurrent_gemm(2, rows, h, u);
        add_bias_rows(u, b_h(2), a_h, a_h);
        for (k, nv) in n.iter_mut().enumerate() {
            *nv += r[k] * u[k];
        }
        tanh_inplace(n);

        // h_t = (1 − z) ⊙ n + z ⊙ h_prev.
        for (k, hv) in h.iter_mut().enumerate() {
            *hv = (1.0 - z[k]) * n[k] + z[k] * *hv;
        }
    }

    fn scratch_slabs(steps: usize) -> usize {
        steps // du of every step: the gradient at `U_n h + b_u`
    }

    fn backward_step(l: &Gru, s: StepGrads<'_, 3>) {
        let ([r, z, n], [dr, dz, dn]) = (s.z, s.dz);
        let (u_n, h_prev, dh) = (s.saved, s.h_prev, s.dh);
        let slab = dh.len();
        let du = &mut s.scratch[s.t * slab..][..slab];
        for k in 0..slab {
            let d_n = dh[k] * (1.0 - z[k]) * tanh_grad_from_output(n[k]);
            dz[k] = dh[k] * (h_prev[k] - n[k]) * sigmoid_grad_from_output(z[k]);
            dn[k] = d_n;
            du[k] = d_n * r[k];
            dr[k] = d_n * u_n[k] * sigmoid_grad_from_output(r[k]);
            dh[k] *= z[k]; // the direct path into h_prev
        }
        if s.t == 0 {
            return; // h before step 0 is the zero state: nothing to pass on
        }
        // dh_prev += s_h · Σ_g (recurrent-side gradient)_g · W_h[g]
        for (gate, g_h) in [&*dr, dz, du].into_iter().enumerate() {
            l.recurrent_grad(gate, s.rows, g_h, 1.0, dh);
        }
    }

    /// The recurrent side sees `r` and `z` as the input side does and, in
    /// place of `n`, `du`.
    fn recurrent_rows<'a>(gate: usize, dz: &'a [f32], scratch: &'a [f32]) -> &'a [f32] {
        if gate == 2 {
            scratch
        } else {
            dz
        }
    }

    fn split_bias_grads(&mut self, at: usize) -> ([&mut [f32]; 2], [&mut [f32]; 2]) {
        let (x0, x1) = self.b_x.grad.data_mut().split_at_mut(at);
        let (h0, h1) = self.b_h.grad.data_mut().split_at_mut(at);
        ([x0, h0], [x1, h1])
    }

    fn add_bias_grads(db: &mut [&mut [f32]; 2], at: usize, a_h: usize, dz: &[f32], dz_h: &[f32]) {
        let [dbx, dbh] = db;
        sum_rows_into(dz, a_h, &mut dbx[at..]);
        sum_rows_into(dz_h, a_h, &mut dbh[at..]);
    }

    fn backward_span() -> impl Sized {
        ms_tensor::span!("nn.gru_bwd")
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
        g.visit_params(&mut |p| p.value.fill_zero());
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
                    .flat_map(|s| {
                        (0..4).flat_map(move |t| ((s * 4 + t) * 8..(s * 4 + t) * 8 + a_d))
                    })
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
                    let v = g.w_x.grad.at(&[gate * 8 + row, col]);
                    if row >= 4 || col >= 4 {
                        assert_eq!(v, 0.0, "w_x leak at gate {gate} ({row},{col})");
                    }
                }
            }
        }
    }
}
