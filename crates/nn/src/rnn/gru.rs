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

use super::{
    add_step, from_time_major, gate_gemm, pack_gate_blocks, project_inputs, recurrent_grad,
    split_gates, split_gates_ref, store_step, to_time_major,
};
use crate::layer::{Layer, Mode, Param};
use crate::slice::{active_units, SliceRate};
use crate::workspace::{Role, Workspace};
use ms_tensor::matmul::{gemm, Trans};
use ms_tensor::ops::{
    add_bias_rows, sigmoid_grad_from_output, sigmoid_inplace, sum_rows_into, tanh_grad_from_output,
    tanh_inplace,
};
use ms_tensor::panels::PackedB;
use ms_tensor::{init, par, SeededRng, Tensor};
use std::ops::Range;

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

/// What a `Train` forward keeps for `backward`: the whole sequence,
/// part-major (see the module docs of [`super`]), in the buffers the forward
/// computed it in.
struct SeqCache {
    batch: usize,
    steps: usize,
    xt: Vec<f32>,  // [T·B, a_d] input (workspace `StepInput`)
    zx: Vec<f32>,  // activated r, z, n, `[gate][part][t][b][unit]` (workspace `Preact`)
    h: Tensor,     // per part T+1 blocks of [b, a_h]: block t is h before step t, block 0 zero
    u_n: Vec<f32>, // per part T blocks of [b, a_h]: U_n·h_prev + b_u, pre reset-gating (workspace `Aux1`)
}

/// The buffers of one part of a forward pass: `rows` batch rows.
struct ForwardPart<'a> {
    rows: usize,
    x: &'a [f32],               // [rows, T, a_d]
    xt: &'a mut [f32],          // [T, rows, a_d]
    zx: [&'a mut [f32]; GATES], // each [T, rows, a_h]
    h: &'a mut [f32],           // T+1 state blocks (training) or one (inference)
    u_n: &'a mut [f32],         // T blocks (training) or one (inference)
    out: &'a mut [f32],         // [rows, T, a_h]
}

/// The buffers of one part of a backward pass's time loop.
struct BackwardPart<'a> {
    rows: usize,
    dy: &'a [f32],          // [rows, T, a_h]
    zx: [&'a [f32]; GATES], // the forward's activated gates
    h: &'a [f32],
    u_n: &'a [f32],
    dg: [&'a mut [f32]; GATES], // each [T, rows, a_h]
    du: &'a mut [f32],          // [T, rows, a_h]
    dh: &'a mut [f32],          // [rows, a_h]
    dxt: &'a mut [f32],         // [T, rows, a_d]
    dx: &'a mut [f32],          // [rows, T, a_d]
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
    cache: Option<SeqCache>,
    packed_x: PackedB, // [D, 3H] panels of w_xᵀ
    packed_h: PackedB, // [H, 3H] panels of w_hᵀ
    // Training panels of each gate's W_h[g] as stored, for `dh_prev`.
    packed_dh: [PackedB; GATES],
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
            cache: None,
            packed_x: PackedB::new(),
            packed_h: PackedB::new(),
            packed_dh: Default::default(),
        }
    }

    /// Hands a sequence cache's buffers back to where they came from.
    fn release(&mut self, cache: SeqCache) {
        self.ws.put(Role::StepInput, cache.xt);
        self.ws.put(Role::Preact, cache.zx);
        cache.h.recycle();
        self.ws.put(Role::Aux1, cache.u_n);
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

    /// The forward of one part: input projection of all its steps, then the
    /// recurrence over its batch rows.
    fn forward_part(&self, train: bool, steps: usize, mut p: ForwardPart<'_>) {
        let (a_h, h_full, d) = (self.active_h, self.cfg.hidden_dim, self.active_in);
        let (sx, sh) = (self.scale_x(), self.scale_h());
        let slab = p.rows * a_h; // one gate of one step
        let ph = &self.packed_h;
        let b_h = |gate: usize| &self.b_h.value.data()[gate * h_full..];

        // zx[g] = s_x·X·W_x[g]ᵀ + b_x[g] for every step at once.
        to_time_major(p.x, p.rows, steps, d, p.xt);
        let (px, b_x) = (&self.packed_x, &self.b_x.value);
        let rows = steps * p.rows;
        project_inputs(px, b_x, h_full, a_h, sx, rows, d, p.xt, &mut p.zx);

        // State blocks: training keeps every step's (block t + 1 is the
        // state after step t), inference updates block 0 in place.
        let keep = if train { slab } else { 0 };
        for t in 0..steps {
            let (prev, next) = (t * keep, (t + 1) * keep);
            let h_prev = &p.h[prev..][..slab];
            let [r, z, n] = p.zx.each_mut().map(|g| &mut g[t * slab..][..slab]);
            // r and z gates: add the recurrent side, then squash.
            for (gate, zg) in [&mut *r, &mut *z].into_iter().enumerate() {
                gate_gemm(ph, h_full, gate, a_h, sh, p.rows, a_h, h_prev, zg);
                add_bias_rows(zg, b_h(gate), a_h, a_h);
                sigmoid_inplace(zg);
            }
            // Candidate: tanh(W_n x + b_n  +  r ⊙ (U_n h + b_u)).
            let u_t = &mut p.u_n[prev..][..slab];
            u_t.fill(0.0);
            gate_gemm(ph, h_full, 2, a_h, sh, p.rows, a_h, h_prev, u_t);
            add_bias_rows(u_t, b_h(2), a_h, a_h);
            for (k, nv) in n.iter_mut().enumerate() {
                *nv += r[k] * u_t[k];
            }
            tanh_inplace(n);

            // h_t = (1 − z) ⊙ n + z ⊙ h_prev.
            p.h.copy_within(prev..prev + slab, next);
            let h_t = &mut p.h[next..][..slab];
            for (k, hv) in h_t.iter_mut().enumerate() {
                *hv = (1.0 - z[k]) * n[k] + z[k] * *hv;
            }
            store_step(h_t, t, steps, a_h, p.out);
        }
    }

    /// The time loop of `backward` for one part — the elementwise step and
    /// `dh_prev` — and, once all of the part's rows of `dg` exist, its rows
    /// of `dX`.
    fn backward_part(&self, steps: usize, p: BackwardPart<'_>) {
        let (a_h, a_d) = (self.active_h, self.active_in);
        let (d_full, h_full) = (self.cfg.in_dim, self.cfg.hidden_dim);
        let (sx, sh) = (self.scale_x(), self.scale_h());
        let slab = p.rows * a_h;
        let BackwardPart {
            dg: mut dg_all,
            du,
            dh,
            ..
        } = p;
        for t in (0..steps).rev() {
            add_step(p.dy, t, steps, a_h, dh);
            let [r, z, n] = p.zx.map(|g| &g[t * slab..][..slab]);
            let u_n = &p.u_n[t * slab..][..slab];
            let h_prev = &p.h[t * slab..][..slab];
            let [dr, dz, dn] = dg_all.each_mut().map(|g| &mut g[t * slab..][..slab]);
            let du_t = &mut du[t * slab..][..slab];
            for k in 0..slab {
                let d_n = dh[k] * (1.0 - z[k]) * tanh_grad_from_output(n[k]);
                dz[k] = dh[k] * (h_prev[k] - n[k]) * sigmoid_grad_from_output(z[k]);
                dn[k] = d_n;
                du_t[k] = d_n * r[k];
                dr[k] = d_n * u_n[k] * sigmoid_grad_from_output(r[k]);
                dh[k] *= z[k]; // the direct path into h_prev
            }
            if t == 0 {
                break; // h before step 0 is the zero state: nothing to pass on
            }
            // dh_prev += s_h · Σ_g (recurrent-side gradient)_g · W_h[g]
            for (gate, g_h) in [&*dr, dz, du_t].into_iter().enumerate() {
                let panels = &self.packed_dh[gate];
                recurrent_grad(&self.w_h.value, panels, gate, a_h, sh, p.rows, g_h, 1.0, dh);
            }
        }
        // dX = s_x · Σ_g g_x · W_x[g] over all of the part's T·rows rows.
        for (gate, g_x) in dg_all.iter().enumerate() {
            let w_x = &self.w_x.value.data()[gate * h_full * d_full..];
            let beta = if gate == 0 { 0.0 } else { 1.0 };
            gemm(
                Trans::No,
                Trans::No,
                steps * p.rows,
                a_d,
                a_h,
                sx,
                g_x,
                a_h,
                w_x,
                d_full,
                beta,
                p.dxt,
                a_d,
            );
        }
        from_time_major(p.dxt, p.rows, steps, a_d, p.dx);
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
        let a_h = self.active_h;
        let rows = steps * batch;
        let slab = batch * a_h; // one gate of one step

        // A Train forward that no backward followed still holds its cache.
        if let Some(stale) = self.cache.take() {
            self.release(stale);
        }
        // Both modes read the panels, packed on first use after a weight
        // change (see `Lstm::forward`).
        self.ensure_packed();
        let train = mode == Mode::Train;

        // Training keeps every step's state (T + 1 blocks, block 0 zero) and
        // `U_n h`; inference one block of each, updated in place.
        let kept = if train { steps } else { 0 };
        let mut xt = self.ws.take(Role::StepInput, rows * d);
        let mut zx = self.ws.take(Role::Preact, GATES * rows * a_h);
        let mut h = Tensor::pooled_zeros([(kept + 1) * slab]);
        let mut u_n = self.ws.take(Role::Aux1, kept.max(1) * slab);
        let mut out = Tensor::pooled_zeros([batch, steps, a_h]);

        // Training runs the two fixed parts of the batch, inference the
        // whole batch as one; every buffer is cut at the same batch row.
        let mid = if train { par::mid(batch) } else { batch };
        let (x0, x1) = x.data().split_at(mid * steps * d);
        let (xt0, xt1) = xt.split_at_mut(steps * mid * d);
        let (zx0, zx1) = split_gates(&mut zx, rows * a_h, steps * mid * a_h);
        let (h0, h1) = h.data_mut().split_at_mut((kept + 1) * mid * a_h);
        let (u0, u1) = u_n.split_at_mut(kept.max(1) * mid * a_h);
        let (out0, out1) = out.data_mut().split_at_mut(mid * steps * a_h);
        let part0 = ForwardPart {
            rows: mid,
            x: x0,
            xt: xt0,
            zx: zx0,
            h: h0,
            u_n: u0,
            out: out0,
        };
        let part1 = ForwardPart {
            rows: batch - mid,
            x: x1,
            xt: xt1,
            zx: zx1,
            h: h1,
            u_n: u1,
            out: out1,
        };
        let this = &*self;
        if mid < batch {
            par::join(
                || this.forward_part(train, steps, part0),
                || this.forward_part(train, steps, part1),
            );
        } else {
            this.forward_part(train, steps, part0);
        }
        let cache = SeqCache {
            batch,
            steps,
            xt,
            zx,
            h,
            u_n,
        };
        if train {
            self.cache = Some(cache);
        } else {
            self.release(cache);
        }
        out
    }

    // `forward_prefix` is the trait's recompute at `to` (see `Lstm`).

    fn prepack(&mut self) -> bool {
        self.ensure_packed()
    }

    fn release_panels(&mut self) {
        self.packed_x = PackedB::new();
        self.packed_h = PackedB::new();
        self.packed_dh = Default::default();
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let _span = ms_tensor::span!("nn.gru_bwd");
        let cache = self.cache.take().expect("backward before Train forward");
        let (batch, steps) = (cache.batch, cache.steps);
        let (a_h, a_d) = (self.active_h, self.active_in);
        let (d_full, h_full) = (self.cfg.in_dim, self.cfg.hidden_dim);
        let (sx, sh) = (self.scale_x(), self.scale_h());
        let rows = steps * batch;
        let slab = batch * a_h;
        debug_assert_eq!(dy.dims(), &[batch, steps, a_h]);
        // `dh_prev`'s weights, packed once per optimiser step (see
        // `Lstm::backward`).
        pack_gate_blocks(&self.w_h.value, h_full, &mut self.packed_dh);

        // Pre-activation gradients of the whole sequence, laid out like the
        // gates: `dg` for r, z, n as the input side sees them; the recurrent
        // side sees the same r and z and, in place of n, `du` — the gradient
        // at `U_n h + b_u`. Only the elementwise step and `dh_prev` run in
        // the time loop (see `Lstm::backward`).
        let mut dg = Tensor::pooled_zeros([GATES * rows * a_h]);
        let mut du = Tensor::pooled_zeros([rows * a_h]);
        let mut dh = Tensor::pooled_zeros([slab]); // dL/dh_t, recurrent part first
        let mut dxt = Tensor::pooled_zeros([rows * a_d]);
        let mut dx = Tensor::pooled_zeros([batch, steps, a_d]);

        // First join: the time loop and `dX`, the two fixed parts of the
        // batch on the cuts the forward made.
        let mid = par::mid(batch);
        {
            let (dy0, dy1) = dy.data().split_at(mid * steps * a_h);
            let (zx0, zx1) = split_gates_ref(&cache.zx, rows * a_h, steps * mid * a_h);
            let (h0, h1) = cache.h.data().split_at((steps + 1) * mid * a_h);
            let (u0, u1) = cache.u_n.split_at(steps * mid * a_h);
            let (dg0, dg1) = split_gates(dg.data_mut(), rows * a_h, steps * mid * a_h);
            let (du0, du1) = du.data_mut().split_at_mut(steps * mid * a_h);
            let (dh0, dh1) = dh.data_mut().split_at_mut(mid * a_h);
            let (dxt0, dxt1) = dxt.data_mut().split_at_mut(steps * mid * a_d);
            let (dx0, dx1) = dx.data_mut().split_at_mut(mid * steps * a_d);
            let part0 = BackwardPart {
                rows: mid,
                dy: dy0,
                zx: zx0,
                h: h0,
                u_n: u0,
                dg: dg0,
                du: du0,
                dh: dh0,
                dxt: dxt0,
                dx: dx0,
            };
            let part1 = BackwardPart {
                rows: batch - mid,
                dy: dy1,
                zx: zx1,
                h: h1,
                u_n: u1,
                dg: dg1,
                du: du1,
                dh: dh1,
                dxt: dxt1,
                dx: dx1,
            };
            let this = &*self;
            par::join(
                || this.backward_part(steps, part0),
                || this.backward_part(steps, part1),
            );
        }

        // Second join: the parameter gradients, one GEMM per gate over all
        // T·B rows, split over the gates (see `Lstm::backward`): r and z to
        // part 0, n to part 1.
        let gate_mid = par::mid(GATES);
        let (dwx0, dwx1) = self
            .w_x
            .grad
            .data_mut()
            .split_at_mut(gate_mid * h_full * d_full);
        let (dwh0, dwh1) = self
            .w_h
            .grad
            .data_mut()
            .split_at_mut(gate_mid * h_full * h_full);
        let (dbx0, dbx1) = self.b_x.grad.data_mut().split_at_mut(gate_mid * h_full);
        let (dbh0, dbh1) = self.b_h.grad.data_mut().split_at_mut(gate_mid * h_full);
        let part_rows = [(0, steps * mid), (steps * mid, rows)];
        let h_prev = [0, (steps + 1) * mid * a_h].map(|at| &cache.h.data()[at..]);
        let (dg_rows, du_rows, xt) = (dg.data(), du.data(), &cache.xt);
        let grads = |gates: Range<usize>,
                     dwx: &mut [f32],
                     dwh: &mut [f32],
                     dbx: &mut [f32],
                     dbh: &mut [f32]| {
            for (i, gate) in gates.enumerate() {
                let g_x = &dg_rows[gate * rows * a_h..][..rows * a_h];
                let g_h = if gate == 2 { du_rows } else { g_x };
                // dW_x[gate] += s_x · g_xᵀ · X
                gemm(
                    Trans::Yes,
                    Trans::No,
                    a_h,
                    a_d,
                    rows,
                    sx,
                    g_x,
                    a_h,
                    xt,
                    a_d,
                    1.0,
                    &mut dwx[i * h_full * d_full..],
                    d_full,
                );
                // dW_h[gate] += s_h · g_hᵀ · H_prev
                for ((first, end), h_prev) in part_rows.into_iter().zip(h_prev) {
                    gemm(
                        Trans::Yes,
                        Trans::No,
                        a_h,
                        a_h,
                        end - first,
                        sh,
                        &g_h[first * a_h..],
                        a_h,
                        h_prev,
                        a_h,
                        1.0,
                        &mut dwh[i * h_full * h_full..],
                        h_full,
                    );
                }
                // Bias gradients.
                sum_rows_into(g_x, a_h, &mut dbx[i * h_full..]);
                sum_rows_into(g_h, a_h, &mut dbh[i * h_full..]);
            }
        };
        par::join(
            || grads(0..gate_mid, dwx0, dwh0, dbx0, dbh0),
            || grads(gate_mid..GATES, dwx1, dwh1, dbx1, dbh1),
        );
        dxt.recycle();
        dg.recycle();
        du.recycle();
        dh.recycle();
        self.release(cache);
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
        self.packed_dh.iter_mut().for_each(PackedB::invalidate);
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
