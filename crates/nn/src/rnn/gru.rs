//! The sliceable GRU layer (Cho et al. 2014) — paper §3.3: "Model slicing
//! for recurrent layers of RNN variants such as GRU and LSTM works
//! similarly. Dynamic slicing is applied to all input and output sets,
//! including hidden/memory states and various gates."
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
//! Weight layout mirrors the LSTM: `w_x: [3H, D]`, `w_h: [3H, H]`, biases
//! `b_x: [3H]` and `b_h: [3H]` (separate recurrent bias so the candidate's
//! `r ⊙ (U_n h + b_u)` form is exact), gate blocks ordered `r, z, n`.

use super::{gate_gemm, project_inputs, store_step, to_time_major};
use crate::layer::{Layer, Mode, Param};
use crate::slice::{active_units, SliceRate};
use crate::workspace::{Role, Workspace};
use ms_tensor::matmul::{gemm, Trans};
use ms_tensor::ops::{
    add_bias_rows, sigmoid_grad_from_output, sigmoid_inplace, tanh_grad_from_output, tanh_inplace,
};
use ms_tensor::panels::PackedB;
use ms_tensor::{init, SeededRng, Tensor};

const GATES: usize = 3; // r, z, n

/// Configuration for a [`Gru`] layer.
#[derive(Debug, Clone)]
pub struct GruConfig {
    /// Full input dimension `D`.
    pub in_dim: usize,
    /// Full hidden dimension `H`.
    pub hidden_dim: usize,
    /// Input-side group count; `None` pins the input at full width.
    pub in_groups: Option<usize>,
    /// Hidden-side group count; `None` pins hidden/gates at full width.
    pub out_groups: Option<usize>,
    /// Rescale sliced contributions by `full/active`.
    pub input_rescale: bool,
}

struct StepCache {
    x: Tensor,      // [B, a_d]
    h_prev: Tensor, // [B, a_h]
    r: Tensor,      // [B, a_h]
    z: Tensor,      // [B, a_h]
    n: Tensor,      // [B, a_h]
    u_n: Tensor,    // [B, a_h] — U_n·h_prev + b_u (pre reset-gating)
}

impl StepCache {
    fn recycle(self) {
        self.x.recycle();
        self.h_prev.recycle();
        self.r.recycle();
        self.z.recycle();
        self.n.recycle();
        self.u_n.recycle();
    }
}

/// Sliceable GRU over `[B, T, D_active] → [B, T, H_active]`.
pub struct Gru {
    cfg: GruConfig,
    name: String,
    w_x: Param, // [3H, D]
    w_h: Param, // [3H, H]
    b_x: Param, // [3H]
    b_h: Param, // [3H]
    active_in: usize,
    active_h: usize,
    ws: Workspace,
    cache: Vec<StepCache>,
    packed_x: PackedB, // [D, 3H] panels of w_xᵀ
    packed_h: PackedB, // [H, 3H] panels of w_hᵀ
}

impl Gru {
    /// Creates a GRU with Xavier-uniform weights.
    pub fn new(name: impl Into<String>, cfg: GruConfig, rng: &mut SeededRng) -> Self {
        assert!(cfg.in_dim > 0 && cfg.hidden_dim > 0);
        if let Some(g) = cfg.in_groups {
            assert!(g >= 1 && g <= cfg.in_dim);
        }
        if let Some(g) = cfg.out_groups {
            assert!(g >= 1 && g <= cfg.hidden_dim);
        }
        let name = name.into();
        let (d, h) = (cfg.in_dim, cfg.hidden_dim);
        Gru {
            w_x: Param::new(
                format!("{name}.w_x"),
                init::xavier_uniform([GATES * h, d], d, h, rng),
                true,
            ),
            w_h: Param::new(
                format!("{name}.w_h"),
                init::xavier_uniform([GATES * h, h], h, h, rng),
                true,
            ),
            b_x: Param::new(format!("{name}.b_x"), Tensor::zeros([GATES * h]), false),
            b_h: Param::new(format!("{name}.b_h"), Tensor::zeros([GATES * h]), false),
            active_in: d,
            active_h: h,
            cfg,
            name,
            ws: Workspace::new(),
            cache: Vec::new(),
            packed_x: PackedB::new(),
            packed_h: PackedB::new(),
        }
    }

    /// Packs both weight matrices into persistent B-side panels (no-op when
    /// already valid).
    fn ensure_packed(&mut self) -> bool {
        let (d, h) = (self.cfg.in_dim, self.cfg.hidden_dim);
        let stale = !(self.packed_x.is_valid() && self.packed_h.is_valid());
        if !self.packed_x.is_valid() {
            self.packed_x
                .pack(Trans::Yes, self.w_x.value.data(), d, d, GATES * h);
        }
        if !self.packed_h.is_valid() {
            self.packed_h
                .pack(Trans::Yes, self.w_h.value.data(), h, h, GATES * h);
        }
        stale
    }

    /// Currently active `(input, hidden)` widths.
    pub fn active_dims(&self) -> (usize, usize) {
        (self.active_in, self.active_h)
    }

    fn scale_x(&self) -> f32 {
        if self.cfg.input_rescale && self.active_in < self.cfg.in_dim {
            self.cfg.in_dim as f32 / self.active_in as f32
        } else {
            1.0
        }
    }

    fn scale_h(&self) -> f32 {
        if self.cfg.input_rescale && self.active_h < self.cfg.hidden_dim {
            self.cfg.hidden_dim as f32 / self.active_h as f32
        } else {
            1.0
        }
    }
}

impl Layer for Gru {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 3, "{}: expect [B, T, D]", self.name);
        let (batch, steps, d) = (dims[0], dims[1], dims[2]);
        assert_eq!(d, self.active_in, "{}: input width", self.name);
        let (a_h, h_full) = (self.active_h, self.cfg.hidden_dim);
        let (sx, sh) = (self.scale_x(), self.scale_h());
        let rows = steps * batch; // time-major: row t·B + b
        let slab = batch * a_h; // one gate of one step

        for step in self.cache.drain(..) {
            step.recycle();
        }
        // Inference on a prepacked layer reads the weights off the panels
        // (see `Linear`); training and un-packed nets go through `gemm`.
        let on_panels = mode == Mode::Infer && self.packed_x.is_valid() && self.packed_h.is_valid();
        let (px, ph) = (
            on_panels.then_some(&self.packed_x),
            on_panels.then_some(&self.packed_h),
        );
        let b_h = |gate: usize| &self.b_h.value.data()[gate * h_full..];

        // Input projection of every step at once: zx[g] = s_x·X·W_x[g]ᵀ +
        // b_x[g], gate-major `[gate][t][b][unit]`.
        let mut xt = self.ws.take(Role::StepInput, rows * d);
        to_time_major(x.data(), batch, steps, d, &mut xt);
        let mut zx = self.ws.take(Role::Preact, GATES * rows * a_h);
        let (w_x, b_x) = (&self.w_x.value, &self.b_x.value);
        project_inputs(w_x, px, b_x, h_full, a_h, sx, rows, d, &xt, &mut zx);

        let mut h = Tensor::pooled_zeros([batch, a_h]);
        let mut u_n = self.ws.take(Role::Aux1, slab);
        let mut out = Tensor::pooled_zeros([batch, steps, a_h]);
        // Offset of gate `g`'s step-`t` slab in `zx`.
        let at = |gate: usize, t: usize| (gate * rows + t * batch) * a_h;
        for t in 0..steps {
            // r and z gates: add the recurrent side, then squash.
            for gate in 0..2 {
                let zg = &mut zx[at(gate, t)..][..slab];
                gate_gemm(
                    &self.w_h.value,
                    ph,
                    h_full,
                    gate,
                    a_h,
                    sh,
                    batch,
                    a_h,
                    h.data(),
                    zg,
                );
                add_bias_rows(zg, b_h(gate), a_h, a_h);
                sigmoid_inplace(zg);
            }
            // Candidate: tanh(W_n x + b_n  +  r ⊙ (U_n h + b_u)).
            u_n.fill(0.0);
            gate_gemm(
                &self.w_h.value,
                ph,
                h_full,
                2,
                a_h,
                sh,
                batch,
                a_h,
                h.data(),
                &mut u_n,
            );
            add_bias_rows(&mut u_n, b_h(2), a_h, a_h);
            let (rz, n) = zx.split_at_mut(at(2, 0));
            let n = &mut n[t * slab..][..slab];
            let (r, z) = (&rz[at(0, t)..][..slab], &rz[at(1, t)..][..slab]);
            for (k, nv) in n.iter_mut().enumerate() {
                *nv += r[k] * u_n[k];
            }
            tanh_inplace(n);

            // h_t = (1 − z) ⊙ n + z ⊙ h_prev.
            let h_prev = (mode == Mode::Train).then(|| h.pooled_clone());
            for (k, hv) in h.data_mut().iter_mut().enumerate() {
                *hv = (1.0 - z[k]) * n[k] + z[k] * *hv;
            }
            store_step(h.data(), t, steps, a_h, out.data_mut());

            if let Some(h_prev) = h_prev {
                let kept = |src: &[f32], width: usize| {
                    let mut copy = Tensor::pooled_zeros([batch, width]);
                    copy.data_mut().copy_from_slice(src);
                    copy
                };
                self.cache.push(StepCache {
                    x: kept(&xt[t * batch * d..][..batch * d], d),
                    h_prev,
                    r: kept(r, a_h),
                    z: kept(z, a_h),
                    n: kept(n, a_h),
                    u_n: kept(&u_n, a_h),
                });
            }
        }
        self.ws.put(Role::StepInput, xt);
        self.ws.put(Role::Preact, zx);
        self.ws.put(Role::Aux1, u_n);
        h.recycle();
        out
    }

    fn forward_prefix(&mut self, x: &Tensor, from: Option<SliceRate>, to: SliceRate) -> Tensor {
        // Full recompute at `to` on the panels. The recurrence threads every
        // hidden group through every timestep, so a per-group delta would
        // need per-group frozen-prefix recurrence state — future work.
        // Ignoring `from` keeps the output a pure function of (x, to), which
        // preserves the refine-equals-direct bitwise contract.
        let _ = from;
        self.set_slice_rate(to);
        self.ensure_packed();
        self.forward(x, Mode::Infer)
    }

    fn prepack(&mut self) -> bool {
        self.ensure_packed()
    }

    fn release_panels(&mut self) {
        self.packed_x = PackedB::new();
        self.packed_h = PackedB::new();
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        assert!(!self.cache.is_empty(), "backward before Train forward");
        let steps = self.cache.len();
        let a_h = self.active_h;
        let a_d = self.active_in;
        let (d_full, h_full) = (self.cfg.in_dim, self.cfg.hidden_dim);
        let batch = self.cache[0].x.dims()[0];
        let (sx, sh) = (self.scale_x(), self.scale_h());

        let mut dx = Tensor::pooled_zeros([batch, steps, a_d]);
        let mut dh_next = Tensor::pooled_zeros([batch, a_h]);
        for t in (0..steps).rev() {
            let step = self.cache.pop().expect("cache per step");
            // dh_t = dy_t + recurrent contribution (dh_next is spent after
            // this, so take it over instead of cloning).
            let mut dh = dh_next;
            for s in 0..batch {
                let src = &dy.data()[(s * steps + t) * a_h..(s * steps + t + 1) * a_h];
                for (v, &g) in dh.row_mut(s).iter_mut().zip(src) {
                    *v += g;
                }
            }
            // Elementwise gate gradients.
            let mut dzr = Tensor::pooled_zeros([batch, a_h]); // pre-act dz
            let mut drr = Tensor::pooled_zeros([batch, a_h]); // pre-act dr
            let mut dnr = Tensor::pooled_zeros([batch, a_h]); // pre-act dn
            let mut du_n = Tensor::pooled_zeros([batch, a_h]); // grad at (U_n h + b_u)
            let mut dh_prev = Tensor::pooled_zeros([batch, a_h]);
            for i in 0..batch * a_h {
                let dhv = dh.data()[i];
                let (z, n, hp, r, un) = (
                    step.z.data()[i],
                    step.n.data()[i],
                    step.h_prev.data()[i],
                    step.r.data()[i],
                    step.u_n.data()[i],
                );
                let dz = dhv * (hp - n);
                let dn = dhv * (1.0 - z);
                dzr.data_mut()[i] = dz * sigmoid_grad_from_output(z);
                let dn_pre = dn * tanh_grad_from_output(n);
                dnr.data_mut()[i] = dn_pre;
                du_n.data_mut()[i] = dn_pre * r;
                drr.data_mut()[i] = dn_pre * un * sigmoid_grad_from_output(r);
                dh_prev.data_mut()[i] = dhv * z;
            }

            // Parameter and input gradients per gate.
            // Gate 0 (r): inputs x (W_x) and h (W_h), pre-act grad drr.
            // Gate 1 (z): likewise with dzr.
            // Gate 2 (n): x side uses dnr; h side uses du_n.
            let gate_grads = [(&drr, &drr), (&dzr, &dzr), (&dnr, &du_n)];
            for (gate, (gx, gh)) in gate_grads.iter().enumerate() {
                // dW_x[gate] += s_x · gxᵀ · x
                gemm(
                    Trans::Yes,
                    Trans::No,
                    a_h,
                    a_d,
                    batch,
                    sx,
                    gx.data(),
                    a_h,
                    step.x.data(),
                    a_d,
                    1.0,
                    &mut self.w_x.grad.data_mut()[gate * h_full * d_full..],
                    d_full,
                );
                // dW_h[gate] += s_h · ghᵀ · h_prev
                gemm(
                    Trans::Yes,
                    Trans::No,
                    a_h,
                    a_h,
                    batch,
                    sh,
                    gh.data(),
                    a_h,
                    step.h_prev.data(),
                    a_h,
                    1.0,
                    &mut self.w_h.grad.data_mut()[gate * h_full * h_full..],
                    h_full,
                );
                // Bias gradients.
                for s in 0..batch {
                    let bx = &mut self.b_x.grad.data_mut()[gate * h_full..gate * h_full + a_h];
                    for (b, &v) in bx.iter_mut().zip(gx.row(s)) {
                        *b += v;
                    }
                    let bh = &mut self.b_h.grad.data_mut()[gate * h_full..gate * h_full + a_h];
                    for (b, &v) in bh.iter_mut().zip(gh.row(s)) {
                        *b += v;
                    }
                }
                // dx_t += s_x · gx · W_x[gate]
                for s in 0..batch {
                    gemm(
                        Trans::No,
                        Trans::No,
                        1,
                        a_d,
                        a_h,
                        sx,
                        gx.row(s),
                        a_h,
                        &self.w_x.value.data()[gate * h_full * d_full..],
                        d_full,
                        1.0,
                        &mut dx.data_mut()[(s * steps + t) * a_d..(s * steps + t + 1) * a_d],
                        a_d,
                    );
                }
                // dh_prev += s_h · gh · W_h[gate]
                gemm(
                    Trans::No,
                    Trans::No,
                    batch,
                    a_h,
                    a_h,
                    sh,
                    gh.data(),
                    a_h,
                    &self.w_h.value.data()[gate * h_full * h_full..],
                    h_full,
                    1.0,
                    dh_prev.data_mut(),
                    a_h,
                );
            }
            dh.recycle();
            dzr.recycle();
            drr.recycle();
            dnr.recycle();
            du_n.recycle();
            step.recycle();
            dh_next = dh_prev;
        }
        dh_next.recycle();
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w_x);
        f(&mut self.w_h);
        f(&mut self.b_x);
        f(&mut self.b_h);
        // The visitor may have rewritten weights; repack lazily on next use.
        self.packed_x.invalidate();
        self.packed_h.invalidate();
    }

    fn set_slice_rate(&mut self, r: SliceRate) {
        self.active_in = match self.cfg.in_groups {
            Some(g) => active_units(self.cfg.in_dim, g, r),
            None => self.cfg.in_dim,
        };
        self.active_h = match self.cfg.out_groups {
            Some(g) => active_units(self.cfg.hidden_dim, g, r),
            None => self.cfg.hidden_dim,
        };
    }

    fn flops_per_sample(&self) -> u64 {
        (GATES * (self.active_h * self.active_in + self.active_h * self.active_h)) as u64
    }

    fn active_param_count(&self) -> u64 {
        (GATES * (self.active_h * self.active_in + self.active_h * self.active_h)
            + 2 * GATES * self.active_h) as u64
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer, CheckOpts};

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
