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

use super::{
    add_step, from_time_major, gate_gemm, pack_gate_blocks, project_inputs, recurrent_grad,
    split_gates, split_gates_ref, store_step, to_time_major,
};
use crate::layer::{Layer, Mode, Param};
use crate::slice::{active_units, SliceRate};
use crate::workspace::{Role, Workspace};
use ms_tensor::matmul::{gemm, Trans};
use ms_tensor::ops::{
    sigmoid_grad_from_output, sigmoid_inplace, sum_rows_into, tanh_grad_from_output, tanh_inplace,
};
use ms_tensor::panels::PackedB;
use ms_tensor::{init, par, SeededRng, Tensor};
use std::ops::Range;

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

/// What a `Train` forward keeps for `backward`: the whole sequence,
/// part-major (see the module docs of [`super`]), in the buffers the forward
/// computed it in.
struct SeqCache {
    batch: usize,
    steps: usize,
    xt: Vec<f32>,     // [T·B, a_d] input (workspace `StepInput`)
    z: Vec<f32>,      // activated gates, `[gate][part][t][b][unit]` (workspace `Preact`)
    h: Tensor,        // per part T+1 blocks of [b, a_h]: block t is h before step t, block 0 zero
    c: Tensor,        // likewise the cell state
    tanh_c: Vec<f32>, // per part T blocks of [b, a_h] (workspace `Cell`)
}

/// The buffers of one part of a forward pass: `rows` batch rows.
struct ForwardPart<'a> {
    rows: usize,
    x: &'a [f32],              // [rows, T, a_d]
    xt: &'a mut [f32],         // [T, rows, a_d]
    z: [&'a mut [f32]; GATES], // each [T, rows, a_h]
    h: &'a mut [f32],          // T+1 state blocks (training) or one (inference)
    c: &'a mut [f32],          // likewise
    tanh_c: &'a mut [f32],     // T blocks (training) or one (inference)
    out: &'a mut [f32],        // [rows, T, a_h]
}

/// The buffers of one part of a backward pass's time loop.
struct BackwardPart<'a> {
    rows: usize,
    dy: &'a [f32],         // [rows, T, a_h]
    z: [&'a [f32]; GATES], // the forward's activated gates
    c: &'a [f32],
    tanh_c: &'a [f32],
    dz: [&'a mut [f32]; GATES], // each [T, rows, a_h]
    dh: &'a mut [f32],          // [rows, a_h]
    dc: &'a mut [f32],          // [rows, a_h]
    dxt: &'a mut [f32],         // [T, rows, a_d]
    dx: &'a mut [f32],          // [rows, T, a_d]
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
    cache: Option<SeqCache>,
    packed_x: PackedB, // persistent panels of W_xᵀ
    packed_h: PackedB, // persistent panels of W_hᵀ
    // Training panels of each gate's W_h[g] as stored, for `dh_prev`.
    packed_dh: [PackedB; GATES],
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
            cache: None,
            packed_x: PackedB::new(),
            packed_h: PackedB::new(),
            packed_dh: Default::default(),
        }
    }

    /// Hands a sequence cache's buffers back to where they came from.
    fn release(&mut self, cache: SeqCache) {
        self.ws.put(Role::StepInput, cache.xt);
        self.ws.put(Role::Preact, cache.z);
        cache.h.recycle();
        cache.c.recycle();
        self.ws.put(Role::Cell, cache.tanh_c);
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

    /// The forward of one part: input projection of all its steps, then the
    /// recurrence over its batch rows.
    fn forward_part(&self, train: bool, steps: usize, mut p: ForwardPart<'_>) {
        let (a_h, h_full, d) = (self.active_h, self.cfg.hidden_dim, self.active_in);
        let (sx, sh) = (self.scale_x(), self.scale_h());
        let slab = p.rows * a_h; // one gate of one step
        let ph = &self.packed_h;

        // z[g] = s_x·X·W_x[g]ᵀ + b[g] for every step at once.
        to_time_major(p.x, p.rows, steps, d, p.xt);
        let (px, bias) = (&self.packed_x, &self.bias.value);
        let rows = steps * p.rows;
        project_inputs(px, bias, h_full, a_h, sx, rows, d, p.xt, &mut p.z);

        // State blocks: training keeps every step's (block t + 1 is the
        // state after step t), inference updates block 0 in place.
        let keep = if train { slab } else { 0 };
        for t in 0..steps {
            let (prev, next) = (t * keep, (t + 1) * keep);
            let h_prev = &p.h[prev..][..slab];
            for (gate, zg) in p.z.iter_mut().enumerate() {
                let zg = &mut zg[t * slab..][..slab];
                gate_gemm(ph, h_full, gate, a_h, sh, p.rows, a_h, h_prev, zg);
            }
            let [zi, zf, zg, zo] = p.z.each_mut().map(|g| &mut g[t * slab..][..slab]);
            sigmoid_inplace(zi);
            sigmoid_inplace(zf);
            tanh_inplace(zg);
            sigmoid_inplace(zo);

            p.c.copy_within(prev..prev + slab, next);
            let c_t = &mut p.c[next..][..slab];
            for (k, cv) in c_t.iter_mut().enumerate() {
                *cv = zf[k] * *cv + zi[k] * zg[k];
            }
            let tc = &mut p.tanh_c[prev..][..slab];
            tc.copy_from_slice(c_t);
            tanh_inplace(tc);
            let h_t = &mut p.h[next..][..slab];
            for (k, hv) in h_t.iter_mut().enumerate() {
                *hv = zo[k] * tc[k];
            }
            store_step(h_t, t, steps, a_h, p.out);
        }
    }

    /// The time loop of `backward` for one part — the elementwise gate
    /// gradient and `dh_prev = s_h·Σ_g dz_g·W_h[g]` — and, once all of the
    /// part's rows of `dz` exist, its rows of `dX`.
    fn backward_part(&self, steps: usize, p: BackwardPart<'_>) {
        let (a_h, a_d) = (self.active_h, self.active_in);
        let (d_full, h_full) = (self.cfg.in_dim, self.cfg.hidden_dim);
        let (sx, sh) = (self.scale_x(), self.scale_h());
        let slab = p.rows * a_h;
        let BackwardPart {
            dz: mut dz_all,
            dh,
            dc,
            ..
        } = p;
        for t in (0..steps).rev() {
            add_step(p.dy, t, steps, a_h, dh);
            let [zi, zf, zg, zo] = p.z.map(|g| &g[t * slab..][..slab]);
            let tc = &p.tanh_c[t * slab..][..slab];
            let c_prev = &p.c[t * slab..][..slab];
            let [dzi, dzf, dzg, dzo] = dz_all.each_mut().map(|g| &mut g[t * slab..][..slab]);
            for k in 0..slab {
                let d_o = dh[k] * tc[k];
                let d_c = dc[k] + dh[k] * zo[k] * tanh_grad_from_output(tc[k]);
                dzi[k] = d_c * zg[k] * sigmoid_grad_from_output(zi[k]);
                dzf[k] = d_c * c_prev[k] * sigmoid_grad_from_output(zf[k]);
                dzg[k] = d_c * zi[k] * tanh_grad_from_output(zg[k]);
                dzo[k] = d_o * sigmoid_grad_from_output(zo[k]);
                dc[k] = d_c * zf[k];
            }
            if t == 0 {
                break; // h before step 0 is the zero state: nothing to pass on
            }
            for (gate, dz_g) in [&*dzi, dzf, dzg, dzo].into_iter().enumerate() {
                let (panels, beta) = (&self.packed_dh[gate], if gate == 0 { 0.0 } else { 1.0 });
                recurrent_grad(
                    &self.w_h.value,
                    panels,
                    gate,
                    a_h,
                    sh,
                    p.rows,
                    dz_g,
                    beta,
                    dh,
                );
            }
        }
        // dX = s_x · Σ_g dz_g · W_x[g] over all of the part's T·rows rows.
        for (gate, dz_g) in dz_all.iter().enumerate() {
            let w_x = &self.w_x.value.data()[gate * h_full * d_full..];
            let beta = if gate == 0 { 0.0 } else { 1.0 };
            gemm(
                Trans::No,
                Trans::No,
                steps * p.rows,
                a_d,
                a_h,
                sx,
                dz_g,
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

impl Layer for Lstm {
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
        // change: in training once per optimiser step (every update walks
        // `visit_params`, which marks them stale), and every gate of every
        // timestep of every scheduled rate reads that packing.
        self.ensure_packed();
        let train = mode == Mode::Train;

        // Training keeps every step's state (T + 1 blocks, block 0 zero) and
        // `tanh c`; inference one block of each, updated in place.
        let kept = if train { steps } else { 0 };
        let mut xt = self.ws.take(Role::StepInput, rows * d);
        let mut z = self.ws.take(Role::Preact, GATES * rows * a_h);
        let mut h = Tensor::pooled_zeros([(kept + 1) * slab]);
        let mut c = Tensor::pooled_zeros([(kept + 1) * slab]);
        let mut tanh_c = self.ws.take(Role::Cell, kept.max(1) * slab);
        let mut out = Tensor::pooled_zeros([batch, steps, a_h]);

        // Training runs the two fixed parts of the batch, inference the
        // whole batch as one; every buffer is cut at the same batch row.
        let mid = if train { par::mid(batch) } else { batch };
        let (x0, x1) = x.data().split_at(mid * steps * d);
        let (xt0, xt1) = xt.split_at_mut(steps * mid * d);
        let (z0, z1) = split_gates(&mut z, rows * a_h, steps * mid * a_h);
        let (h0, h1) = h.data_mut().split_at_mut((kept + 1) * mid * a_h);
        let (c0, c1) = c.data_mut().split_at_mut((kept + 1) * mid * a_h);
        let (tc0, tc1) = tanh_c.split_at_mut(kept.max(1) * mid * a_h);
        let (out0, out1) = out.data_mut().split_at_mut(mid * steps * a_h);
        let part0 = ForwardPart {
            rows: mid,
            x: x0,
            xt: xt0,
            z: z0,
            h: h0,
            c: c0,
            tanh_c: tc0,
            out: out0,
        };
        let part1 = ForwardPart {
            rows: batch - mid,
            x: x1,
            xt: xt1,
            z: z1,
            h: h1,
            c: c1,
            tanh_c: tc1,
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
            z,
            h,
            c,
            tanh_c,
        };
        if train {
            self.cache = Some(cache);
        } else {
            self.release(cache);
        }
        out
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let _span = ms_tensor::span!("nn.lstm_bwd");
        let cache = self.cache.take().expect("backward before Train forward");
        let (batch, steps) = (cache.batch, cache.steps);
        let (a_h, a_d) = (self.active_h, self.active_in);
        let (d_full, h_full) = (self.cfg.in_dim, self.cfg.hidden_dim);
        let (sx, sh) = (self.scale_x(), self.scale_h());
        let rows = steps * batch;
        let slab = batch * a_h;
        debug_assert_eq!(dy.dims(), &[batch, steps, a_h]);
        // `dh_prev`'s weights, packed once per optimiser step like the
        // forward's (the update's `visit_params` marks both stale).
        pack_gate_blocks(&self.w_h.value, h_full, &mut self.packed_dh);

        // Pre-activation gradients of the whole sequence, laid out like the
        // gates. Only what the recurrence needs runs in the time loop; every
        // product with the inputs waits until all `T·B` rows of `dz_g` exist.
        let mut dz = Tensor::pooled_zeros([GATES * rows * a_h]);
        let mut dh = Tensor::pooled_zeros([slab]); // dL/dh_t, recurrent part first
        let mut dc = Tensor::pooled_zeros([slab]); // dL/dc_t from step t + 1
        let mut dxt = Tensor::pooled_zeros([rows * a_d]);
        let mut dx = Tensor::pooled_zeros([batch, steps, a_d]);

        // First join: the time loop and `dX`, the two fixed parts of the
        // batch on the cuts the forward made.
        let mid = par::mid(batch);
        {
            let (dy0, dy1) = dy.data().split_at(mid * steps * a_h);
            let (z0, z1) = split_gates_ref(&cache.z, rows * a_h, steps * mid * a_h);
            let (c0, c1) = cache.c.data().split_at((steps + 1) * mid * a_h);
            let (tc0, tc1) = cache.tanh_c.split_at(steps * mid * a_h);
            let (dz0, dz1) = split_gates(dz.data_mut(), rows * a_h, steps * mid * a_h);
            let (dh0, dh1) = dh.data_mut().split_at_mut(mid * a_h);
            let (dc0, dc1) = dc.data_mut().split_at_mut(mid * a_h);
            let (dxt0, dxt1) = dxt.data_mut().split_at_mut(steps * mid * a_d);
            let (dx0, dx1) = dx.data_mut().split_at_mut(mid * steps * a_d);
            let part0 = BackwardPart {
                rows: mid,
                dy: dy0,
                z: z0,
                c: c0,
                tanh_c: tc0,
                dz: dz0,
                dh: dh0,
                dc: dc0,
                dxt: dxt0,
                dx: dx0,
            };
            let part1 = BackwardPart {
                rows: batch - mid,
                dy: dy1,
                z: z1,
                c: c1,
                tanh_c: tc1,
                dz: dz1,
                dh: dh1,
                dc: dc1,
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
        // T·B rows. They sum over the batch, so they split over the *gates*
        // instead: each part reduces every row into its own gates' blocks
        // of the gradients, no operand is packed twice, and nothing is added
        // up afterwards.
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
        let (db0, db1) = self.bias.grad.data_mut().split_at_mut(gate_mid * h_full);
        // `h` keeps T + 1 blocks per part, so the rows of `H_prev` that line
        // up with a part's rows of `dz` start at the part's first block.
        let part_rows = [(0, steps * mid), (steps * mid, rows)];
        let h_prev = [0, (steps + 1) * mid * a_h].map(|at| &cache.h.data()[at..]);
        let (dz_rows, xt) = (dz.data(), &cache.xt);
        let grads = |gates: Range<usize>, dwx: &mut [f32], dwh: &mut [f32], db: &mut [f32]| {
            for (i, gate) in gates.enumerate() {
                let dz_g = &dz_rows[gate * rows * a_h..][..rows * a_h];
                // dW_x[gate] += s_x · dz_gᵀ · X
                gemm(
                    Trans::Yes,
                    Trans::No,
                    a_h,
                    a_d,
                    rows,
                    sx,
                    dz_g,
                    a_h,
                    xt,
                    a_d,
                    1.0,
                    &mut dwx[i * h_full * d_full..],
                    d_full,
                );
                // dW_h[gate] += s_h · dz_gᵀ · H_prev
                for ((first, end), h_prev) in part_rows.into_iter().zip(h_prev) {
                    gemm(
                        Trans::Yes,
                        Trans::No,
                        a_h,
                        a_h,
                        end - first,
                        sh,
                        &dz_g[first * a_h..],
                        a_h,
                        h_prev,
                        a_h,
                        1.0,
                        &mut dwh[i * h_full * h_full..],
                        h_full,
                    );
                }
                // db[gate] += colsum(dz_g)
                sum_rows_into(dz_g, a_h, &mut db[i * h_full..]);
            }
        };
        par::join(
            || grads(0..gate_mid, dwx0, dwh0, db0),
            || grads(gate_mid..GATES, dwx1, dwh1, db1),
        );
        dxt.recycle();
        dz.recycle();
        dh.recycle();
        dc.recycle();
        self.release(cache);
        dx
    }

    // `forward_prefix` is the trait's recompute at `to`: the recurrence
    // threads every hidden group through every timestep, so a per-group
    // delta would need per-group frozen-prefix recurrence state.

    fn prepack(&mut self) -> bool {
        self.ensure_packed()
    }

    fn release_panels(&mut self) {
        self.packed_x = PackedB::new();
        self.packed_h = PackedB::new();
        self.packed_dh = Default::default();
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w_x);
        f(&mut self.w_h);
        f(&mut self.bias);
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
