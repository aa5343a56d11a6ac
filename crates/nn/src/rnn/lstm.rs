//! The sliceable LSTM layer — paper §3.3.
//!
//! Both input sets of the recurrence (`x_t` and `h_{t-1}`) are sliced
//! *separately*, each regulated by the same slice rate: the input dimension
//! follows the producing layer's group structure, and the hidden/memory
//! state plus all four gates follow this layer's own groups. With fewer
//! active inputs the pre-activations are rescaled by `full/active` (the
//! paper's output-rescaling device for dense layers, §5.2.2), keeping gate
//! saturation behaviour width-invariant.
//!
//! Weight layout: `w_x: [4H, D]`, `w_h: [4H, H]`, `bias: [4H]`, with the
//! gate blocks ordered `i, f, g, o` in chunks of `H` rows. Slicing the
//! hidden width to `a_h` activates the first `a_h` rows *of each block*, so
//! each gate runs four small sub-block GEMMs.
//!
//! State (`h`, `c`) is zero-initialised per forward call: the trainer uses
//! truncated BPTT with state reset at batch boundaries (a documented
//! simplification — see DESIGN.md §2).

use super::{gate_gemm, project_inputs, store_step, to_time_major};
use crate::layer::{Layer, Mode, Param};
use crate::slice::{active_units, SliceRate};
use crate::workspace::{Role, Workspace};
use ms_tensor::matmul::{gemm, Trans};
use ms_tensor::ops::{
    sigmoid_grad_from_output, sigmoid_inplace, tanh_grad_from_output, tanh_inplace,
};
use ms_tensor::panels::PackedB;
use ms_tensor::{init, SeededRng, Tensor};

const GATES: usize = 4; // i, f, g, o

/// Configuration for a [`Lstm`] layer.
#[derive(Debug, Clone)]
pub struct LstmConfig {
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

/// Per-timestep cache for BPTT.
struct StepCache {
    x: Tensor,      // [B, a_d]
    h_prev: Tensor, // [B, a_h]
    c_prev: Tensor, // [B, a_h]
    gates: Tensor,  // [B, 4*a_h] post-activation (i, f, g, o)
    tanh_c: Tensor, // [B, a_h]
}

/// Sliceable LSTM over `[B, T, D_active] → [B, T, H_active]`.
pub struct Lstm {
    cfg: LstmConfig,
    name: String,
    w_x: Param,  // [4H, D]
    w_h: Param,  // [4H, H]
    bias: Param, // [4H]
    active_in: usize,
    active_h: usize,
    ws: Workspace,
    cache: Vec<StepCache>,
    packed_x: PackedB, // persistent panels of W_xᵀ
    packed_h: PackedB, // persistent panels of W_hᵀ
}

impl StepCache {
    fn recycle(self) {
        self.x.recycle();
        self.h_prev.recycle();
        self.c_prev.recycle();
        self.gates.recycle();
        self.tanh_c.recycle();
    }
}

impl Lstm {
    /// Creates an LSTM with Xavier-uniform weights and forget-gate bias 1.0.
    pub fn new(name: impl Into<String>, cfg: LstmConfig, rng: &mut SeededRng) -> Self {
        assert!(cfg.in_dim > 0 && cfg.hidden_dim > 0);
        if let Some(g) = cfg.in_groups {
            assert!(g >= 1 && g <= cfg.in_dim);
        }
        if let Some(g) = cfg.out_groups {
            assert!(g >= 1 && g <= cfg.hidden_dim);
        }
        let name = name.into();
        let (d, h) = (cfg.in_dim, cfg.hidden_dim);
        let w_x = Param::new(
            format!("{name}.w_x"),
            init::xavier_uniform([GATES * h, d], d, h, rng),
            true,
        );
        let w_h = Param::new(
            format!("{name}.w_h"),
            init::xavier_uniform([GATES * h, h], h, h, rng),
            true,
        );
        // Forget-gate bias at 1.0 eases early-training gradient flow.
        let mut bias_t = Tensor::zeros([GATES * h]);
        for v in &mut bias_t.data_mut()[h..2 * h] {
            *v = 1.0;
        }
        let bias = Param::new(format!("{name}.bias"), bias_t, false);
        Lstm {
            active_in: d,
            active_h: h,
            cfg,
            name,
            w_x,
            w_h,
            bias,
            ws: Workspace::new(),
            cache: Vec::new(),
            packed_x: PackedB::new(),
            packed_h: PackedB::new(),
        }
    }

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

impl Layer for Lstm {
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

        // Input projection of every step at once: z[g] = s_x·X·W_x[g]ᵀ + b[g],
        // gate-major `[gate][t][b][unit]`.
        let mut xt = self.ws.take(Role::StepInput, rows * d);
        to_time_major(x.data(), batch, steps, d, &mut xt);
        let mut z = self.ws.take(Role::Preact, GATES * rows * a_h);
        let (w_x, bias) = (&self.w_x.value, &self.bias.value);
        project_inputs(w_x, px, bias, h_full, a_h, sx, rows, d, &xt, &mut z);

        let mut h = Tensor::pooled_zeros([batch, a_h]);
        let mut c = Tensor::pooled_zeros([batch, a_h]);
        let mut tanh_c = self.ws.take(Role::Cell, slab);
        let mut out = Tensor::pooled_zeros([batch, steps, a_h]);
        // Offset of gate `g`'s step-`t` slab in `z`.
        let at = |gate: usize, t: usize| (gate * rows + t * batch) * a_h;
        for t in 0..steps {
            for gate in 0..GATES {
                let zg = &mut z[at(gate, t)..][..slab];
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
            }
            sigmoid_inplace(&mut z[at(0, t)..][..slab]); // i
            sigmoid_inplace(&mut z[at(1, t)..][..slab]); // f
            tanh_inplace(&mut z[at(2, t)..][..slab]); // g
            sigmoid_inplace(&mut z[at(3, t)..][..slab]); // o
            let gate = |g: usize| &z[at(g, t)..][..slab];
            let (zi, zf, zg, zo) = (gate(0), gate(1), gate(2), gate(3));

            // What backward needs from before the state update.
            let prev = (mode == Mode::Train).then(|| (h.pooled_clone(), c.pooled_clone()));
            for (k, cv) in c.data_mut().iter_mut().enumerate() {
                *cv = zf[k] * *cv + zi[k] * zg[k];
            }
            tanh_c.copy_from_slice(c.data());
            tanh_inplace(&mut tanh_c);
            for (k, hv) in h.data_mut().iter_mut().enumerate() {
                *hv = zo[k] * tanh_c[k];
            }
            store_step(h.data(), t, steps, a_h, out.data_mut());

            if let Some((h_prev, c_prev)) = prev {
                let mut x_t = Tensor::pooled_zeros([batch, d]);
                x_t.data_mut()
                    .copy_from_slice(&xt[t * batch * d..][..batch * d]);
                // Backward reads the gates row-major: [B, (i f g o)·a_h].
                let mut gates = Tensor::pooled_zeros([batch, GATES * a_h]);
                for (b, row) in gates.data_mut().chunks_exact_mut(GATES * a_h).enumerate() {
                    for (g, dst) in row.chunks_exact_mut(a_h).enumerate() {
                        dst.copy_from_slice(&gate(g)[b * a_h..][..a_h]);
                    }
                }
                let mut tc = Tensor::pooled_zeros([batch, a_h]);
                tc.data_mut().copy_from_slice(&tanh_c);
                self.cache.push(StepCache {
                    x: x_t,
                    h_prev,
                    c_prev,
                    gates,
                    tanh_c: tc,
                });
            }
        }
        self.ws.put(Role::StepInput, xt);
        self.ws.put(Role::Preact, z);
        self.ws.put(Role::Cell, tanh_c);
        h.recycle();
        c.recycle();
        out
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        assert!(!self.cache.is_empty(), "backward before Train forward");
        let steps = self.cache.len();
        let a_h = self.active_h;
        let a_d = self.active_in;
        let (d_full, h_full) = (self.cfg.in_dim, self.cfg.hidden_dim);
        let batch = self.cache[0].x.dims()[0];
        debug_assert_eq!(dy.dims(), &[batch, steps, a_h]);

        let mut dx = Tensor::pooled_zeros([batch, steps, a_d]);
        let mut dh_next = Tensor::pooled_zeros([batch, a_h]);
        let mut dc_next = Tensor::pooled_zeros([batch, a_h]);
        let (sx, sh) = (self.scale_x(), self.scale_h());

        for t in (0..steps).rev() {
            let step = self.cache.pop().expect("cache per step");
            // dh_t = dy_t + recurrent dh_next (dh_next is spent after this,
            // so take it over instead of cloning).
            let mut dh = dh_next;
            for s in 0..batch {
                let src = &dy.data()[(s * steps + t) * a_h..(s * steps + t + 1) * a_h];
                for (v, &g) in dh.row_mut(s).iter_mut().zip(src) {
                    *v += g;
                }
            }
            // Per-element gate gradients → dz [B, 4*a_h].
            let mut dz = Tensor::pooled_zeros([batch, GATES * a_h]);
            let mut dc_prev = Tensor::pooled_zeros([batch, a_h]);
            for s in 0..batch {
                let g = step.gates.row(s);
                let tc = step.tanh_c.row(s);
                let cp = step.c_prev.row(s);
                let dzr = dz.row_mut(s);
                let dhr = dh.row(s);
                let dcn = dc_next.row(s);
                let dcp = dc_prev.row_mut(s);
                for k in 0..a_h {
                    let (i, f, gg, o) = (g[k], g[a_h + k], g[2 * a_h + k], g[3 * a_h + k]);
                    let do_ = dhr[k] * tc[k];
                    let dc = dcn[k] + dhr[k] * o * tanh_grad_from_output(tc[k]);
                    let di = dc * gg;
                    let dg = dc * i;
                    let df = dc * cp[k];
                    dcp[k] = dc * f;
                    dzr[k] = di * sigmoid_grad_from_output(i);
                    dzr[a_h + k] = df * sigmoid_grad_from_output(f);
                    dzr[2 * a_h + k] = dg * tanh_grad_from_output(gg);
                    dzr[3 * a_h + k] = do_ * sigmoid_grad_from_output(o);
                }
            }
            dc_next.recycle();
            dc_next = dc_prev;

            // Parameter gradients and input/recurrent gradients per gate.
            let mut dh_prev = Tensor::pooled_zeros([batch, a_h]);
            for gate in 0..GATES {
                // Views of dz for this gate: column slab [B, a_h] at offset.
                // dW_x[gate] += s_x * dz_g^T · x
                gemm(
                    Trans::Yes,
                    Trans::No,
                    a_h,
                    a_d,
                    batch,
                    sx,
                    &dz.data()[gate * a_h..],
                    GATES * a_h,
                    step.x.data(),
                    a_d,
                    1.0,
                    &mut self.w_x.grad.data_mut()[gate * h_full * d_full..],
                    d_full,
                );
                // dW_h[gate] += s_h * dz_g^T · h_prev
                gemm(
                    Trans::Yes,
                    Trans::No,
                    a_h,
                    a_h,
                    batch,
                    sh,
                    &dz.data()[gate * a_h..],
                    GATES * a_h,
                    step.h_prev.data(),
                    a_h,
                    1.0,
                    &mut self.w_h.grad.data_mut()[gate * h_full * h_full..],
                    h_full,
                );
                // db[gate] += colsum(dz_g)
                for s in 0..batch {
                    let base = s * GATES * a_h + gate * a_h;
                    let dzs = &dz.data()[base..base + a_h];
                    let bg = &mut self.bias.grad.data_mut()[gate * h_full..gate * h_full + a_h];
                    for (b, &v) in bg.iter_mut().zip(dzs) {
                        *b += v;
                    }
                }
                // dx_t += s_x * dz_g · W_x[gate]
                for s in 0..batch {
                    let dzs_off = s * GATES * a_h + gate * a_h;
                    let dst = &mut dx.data_mut()[(s * steps + t) * a_d..(s * steps + t + 1) * a_d];
                    gemm(
                        Trans::No,
                        Trans::No,
                        1,
                        a_d,
                        a_h,
                        sx,
                        &dz.data()[dzs_off..dzs_off + a_h],
                        a_h,
                        &self.w_x.value.data()[gate * h_full * d_full..],
                        d_full,
                        1.0,
                        dst,
                        a_d,
                    );
                }
                // dh_prev += s_h * dz_g · W_h[gate]
                gemm(
                    Trans::No,
                    Trans::No,
                    batch,
                    a_h,
                    a_h,
                    sh,
                    &dz.data()[gate * a_h..],
                    GATES * a_h,
                    &self.w_h.value.data()[gate * h_full * h_full..],
                    h_full,
                    1.0,
                    dh_prev.data_mut(),
                    a_h,
                );
            }
            dh.recycle();
            dz.recycle();
            step.recycle();
            dh_next = dh_prev;
        }
        dh_next.recycle();
        dc_next.recycle();
        dx
    }

    fn forward_prefix(&mut self, x: &Tensor, from: Option<SliceRate>, to: SliceRate) -> Tensor {
        // The recurrence threads every hidden group through every timestep,
        // so a per-group delta would need per-group frozen-prefix recurrence
        // state — future work. Instead this recomputes at `to` on the panels
        // (a pure function of (x, to), preserving the bitwise refine
        // guarantee).
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

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w_x);
        f(&mut self.w_h);
        f(&mut self.bias);
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
        // Per timestep: 4 gates × (a_h·a_d + a_h·a_h) MACs; callers multiply
        // by sequence length themselves (we report per token).
        (GATES * (self.active_h * self.active_in + self.active_h * self.active_h)) as u64
    }

    fn active_param_count(&self) -> u64 {
        (GATES * (self.active_h * self.active_in + self.active_h * self.active_h)
            + GATES * self.active_h) as u64
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer, CheckOpts};
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
        // The panel path reorders no per-element math but takes the blocked
        // GEMM route unconditionally, so it agrees with the plain forward to
        // rounding — and with itself exactly.
        let mut rng = SeededRng::new(34);
        let x = random_input(&mut rng, [2, 4, 8]);
        for &(r1, r2) in &[(0.25f32, 0.5f32), (0.5, 1.0)] {
            let (r1, r2) = (SliceRate::new(r1), SliceRate::new(r2));
            let mut l = lstm(8, 8, true);
            l.set_slice_rate(r2);
            let a_d = l.active_dims().0;
            let x2 = {
                let data = (0..2)
                    .flat_map(|s| {
                        (0..4).flat_map(move |t| ((s * 4 + t) * 8..(s * 4 + t) * 8 + a_d))
                    })
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
                    let v = l.w_x.grad.at(&[gate * 8 + row, col]);
                    if row >= 4 || col >= 4 {
                        assert_eq!(v, 0.0, "w_x leak at gate {gate} ({row},{col})");
                    }
                }
            }
        }
    }
}
