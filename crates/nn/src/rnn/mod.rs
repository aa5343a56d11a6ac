//! Recurrent layers — paper §3.3: "model slicing for recurrent layers of RNN
//! variants such as GRU and LSTM works similarly … applied to all input and
//! output sets, including hidden/memory states and various gates".
//!
//! One sequence driver, [`Recurrent`], runs every cell; a [`Cell`]
//! ([`lstm::LstmCell`], [`gru::GruCell`]) keeps only its gate arithmetic.
//!
//! # The driver
//!
//! A layer with `G` gates holds `w_x: [G·H, D]` and `w_h: [G·H, H]`, gate
//! blocks of `H` rows each. Both input sets of the recurrence (`x_t` and
//! `h_{t-1}`) are sliced *separately*, each regulated by the same slice rate:
//! the input dimension follows the producing layer's group structure, and the
//! hidden state and every gate follow this layer's own groups, so slicing the
//! hidden width to `a_h` activates the first `a_h` rows *of each block*. With
//! fewer active inputs the products are rescaled by `full/active` (the
//! paper's output-rescaling device for dense layers, §5.2.2), keeping gate
//! saturation behaviour width-invariant. State is zero-initialised per
//! forward call: the trainer uses truncated BPTT with state reset at batch
//! boundaries (a documented simplification — see DESIGN.md §2).
//!
//! Training and inference run one forward, and it makes one product per
//! part for the input projection and one per timestep for the recurrence,
//! whatever `G` is. The pre-activations are *gate-adjacent rows*: a part's
//! buffer is `[t][b][G·a_h]`, gate `g` of a row at columns
//! `[g·a_h, (g+1)·a_h)`. The input projection `X·W_xᵀ` does not depend on
//! the recurrence, so it is hoisted out of the time loop into one
//! `T·rows × G·a_h × a_d` GEMM over a time-major copy of the input; each
//! step adds its `rows × G·a_h × a_h` product with `h_{t-1}` into the step's
//! rows, and the cell activates each gate block of the step in one call of
//! the vectorised `sigmoid_cols`/`tanh_cols` kernels of `ms_tensor::ops`.
//! Both products read the weights off *per-width panels*: for each active
//! hidden width `a_h` the layer has run at, one `PackedB` pair of `W_xᵀ`
//! and `W_hᵀ` whose columns are rows `g·H + u` (`u < a_h`) of the weight,
//! stacked in the rows' column order. They are packed straight from the
//! weights on first use at a width after a weight change, and kept
//! (invalidated, not dropped) across repacks; there are at most as many as
//! the layer has hidden groups, and at full width the panel is the whole
//! weight. An output element's `k` range, `KC` split and micro-kernel are
//! those of one product per gate, so the bits are too. The backward keeps
//! one product per gate on the same `k` ranges, reading gate `g` of `dz`
//! (laid out like the forward's rows) with leading dimension `G·a_h`. The
//! driver also owns `dX`, the parameter gradients and the panels; a cell
//! adds its step forward and backward, the state it carries beside `h`, the
//! slabs a step saves, its biases and which gradient rows feed `dW_h`.
//!
//! # State blocks
//!
//! The state — `h`, and whatever the cell carries beside it — lives in
//! *blocks*: training keeps `T + 1` of them for `backward` (block 0 the zero
//! state, block `t + 1` the state after step `t`), inference one, updated in
//! place. A step's saved slabs are kept per step in training and in one
//! block in inference.
//!
//! # Parts
//!
//! A sample's recurrence never reads another sample's, so a training pass
//! runs the two fixed halves of the batch (`ms_tensor::par::mid`) as two
//! independent sub-batches, one `par::join` for the whole sequence. To make
//! every buffer of a part one contiguous slice, the sequence buffers are
//! *part-major*: a buffer of `n` time blocks with `w` floats per batch row
//! holds part 0's `[n][rows of part 0][w]` and then part 1's
//! `[n][rows of part 1][w]`. Inference runs the whole batch as a single
//! part, for which this is plain time-major.

pub mod gru;
pub mod lstm;

pub use gru::{Gru, GruConfig};
pub use lstm::{Lstm, LstmConfig};

use crate::layer::{Layer, Mode, Param};
use crate::slice::{active_units, SliceRate};
use crate::workspace::take_zeroed;
use ms_tensor::matmul::{gemm, Trans};
use ms_tensor::ops::sum_cols_into;
use ms_tensor::panels::{gemm_packed_b, PackedB};
use ms_tensor::{init, par, SeededRng, Tensor};
use std::ops::Range;

/// Configuration for a [`Recurrent`] layer.
#[derive(Debug, Clone)]
pub struct RecurrentConfig {
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

/// The gate arithmetic of a recurrent cell with `G` gates, run by
/// [`Recurrent`]. A step's gates come as its part's `rows` gate-adjacent
/// rows of `G·a_h` floats; state and saved slabs as `rows × a_h` floats each.
pub trait Cell<const G: usize>: Sized + Send + Sync {
    /// Slabs of state the cell carries from step to step beside `h`.
    const STATE: usize;
    /// Slabs a step saves for `backward`.
    const SAVED: usize;
    /// Bias vectors of `G·H` floats the cell owns.
    const BIASES: usize;
    /// Writable halves of the bias gradients, cut at a gate.
    type BiasGrads<'a>: Send
    where
        Self: 'a;

    /// The cell's biases for a layer called `name` with hidden width `h`.
    fn new(name: &str, h: usize) -> Self;

    /// The bias the input projection adds.
    fn input_bias(&self) -> &Tensor;

    /// Visits the biases.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// One step: `z` holds the step's input projections, `h` and `state`
    /// the state before it; leaves the state after it there and fills
    /// `saved`.
    fn forward_step(
        l: &Recurrent<Self, G>,
        rows: usize,
        z: &mut [f32],
        h: &mut [f32],
        state: &mut [f32],
        saved: &mut [f32],
    );

    /// Slabs of backward scratch a part of a `steps`-long sequence needs.
    fn scratch_slabs(steps: usize) -> usize;

    /// One step of the time loop: the pre-activation gradients `dz` from
    /// `dh` (which already holds `dy` at the step), then `dh` for the step
    /// before, unless this is step 0.
    fn backward_step(l: &Recurrent<Self, G>, s: StepGrads<'_>);

    /// The rows, over the whole batch, that multiply `H_prev` into
    /// `dW_h[gate]`, given the gate's columns of `dz` and the backward
    /// scratch (`a_h` floats a row): by default the gate's `dz`.
    fn recurrent_rows<'a>(_gate: usize, dz: GateCols<'a>, _scratch: &'a [f32]) -> GateCols<'a> {
        dz
    }

    /// The bias gradients, cut at float `at`.
    fn split_bias_grads(&mut self, at: usize) -> (Self::BiasGrads<'_>, Self::BiasGrads<'_>);

    /// Adds a gate's column sums at float `at` of `db`: `dz`'s for the input
    /// side, `dz_h`'s (its [`Cell::recurrent_rows`]) for the recurrent one.
    fn add_bias_grads(db: &mut Self::BiasGrads<'_>, at: usize, dz: GateCols, dz_h: GateCols);

    /// Opens the cell's backward span (`span!` declares one static per call
    /// site, so each cell opens its own).
    fn backward_span() -> impl Sized;
}

/// Step `t` of a backward part, as [`Cell::backward_step`] sees it.
pub struct StepGrads<'a> {
    t: usize,
    z: &'a [f32],           // the forward's activated gates, gate-adjacent rows
    h_prev: &'a [f32],      // `h` of state block t
    state_prev: &'a [f32],  // the cell's slabs of state block t
    saved: &'a [f32],       // what step t saved
    dz: &'a mut [f32],      // laid out like `z`
    dh: &'a mut [f32],      // dL/dh_t in, dL/dh_{t-1} out
    scratch: &'a mut [f32], // the part's backward scratch
}

/// One gate's columns of a row-major buffer: `width` floats from column
/// `first` of every `ld`-float row of `buf`.
#[derive(Clone, Copy)]
pub struct GateCols<'a> {
    buf: &'a [f32],
    ld: usize,
    first: usize,
    width: usize,
}

impl<'a> GateCols<'a> {
    fn new(buf: &'a [f32], ld: usize, first: usize, width: usize) -> Self {
        GateCols {
            buf,
            ld,
            first,
            width,
        }
    }

    /// The gate from row `row` on (none past the last): a GEMM operand of
    /// leading dimension `ld`.
    fn from(&self, row: usize) -> &'a [f32] {
        self.buf.get(row * self.ld + self.first..).unwrap_or(&[])
    }

    /// Adds the gate's column sums to `out[..width]`, rows in order.
    fn sum_into(&self, out: &mut [f32]) {
        sum_cols_into(self.buf, self.ld, self.first, &mut out[..self.width]);
    }
}

/// What a `Train` forward keeps for `backward`: the whole sequence,
/// part-major, in the buffers the forward computed it in.
struct SeqCache {
    batch: usize,
    steps: usize,
    xt: Vec<f32>,    // [T·B, a_d] input
    z: Vec<f32>,     // activated gates, `[part][t][b][G·a_h]`
    h: Tensor,       // per part T + 1 state blocks of [b, a_h]
    state: Tensor,   // likewise, STATE slabs each
    saved: Vec<f32>, // per part T blocks of SAVED slabs
}

/// The buffers of one part of a forward pass: `rows` batch rows.
struct ForwardPart<'a> {
    rows: usize,
    x: &'a [f32],         // [rows, T, a_d]
    xt: &'a mut [f32],    // [T, rows, a_d]
    z: &'a mut [f32],     // [T, rows, G·a_h]
    h: &'a mut [f32],     // T + 1 state blocks (training) or one (inference)
    state: &'a mut [f32], // likewise
    saved: &'a mut [f32], // T blocks (training) or one (inference)
    out: &'a mut [f32],   // [rows, T, a_h]
}

/// The buffers of one part of a backward pass's time loop.
struct BackwardPart<'a> {
    rows: usize,
    dy: &'a [f32], // [rows, T, a_h]
    z: &'a [f32],
    h: &'a [f32],
    state: &'a [f32],
    saved: &'a [f32],
    dz: &'a mut [f32], // [T, rows, G·a_h]
    dh: &'a mut [f32], // [rows, a_h]
    scratch: &'a mut [f32],
    dxt: &'a mut [f32], // [T, rows, a_d]
    dx: &'a mut [f32],  // [rows, T, a_d]
}

/// The panels of one active hidden width `a_h`: `W_xᵀ` over every input and
/// `W_hᵀ` over the first `a_h`, each with the first `a_h` rows of every
/// gate block side by side — the column order of the gate-adjacent rows.
struct WidthPanels {
    a_h: usize,
    x: PackedB,
    h: PackedB,
}

/// Sliceable recurrent layer over `[B, T, D_active] → [B, T, H_active]`.
pub struct Recurrent<C: Cell<G>, const G: usize> {
    cfg: RecurrentConfig,
    name: String,
    w_x: Param, // [G·H, D]
    w_h: Param, // [G·H, H]
    cell: C,
    active_in: usize,
    active_h: usize,
    // Grow-only scratch a forward moves into its `SeqCache` and `release`
    // moves back.
    xt: Vec<f32>,
    z: Vec<f32>,
    saved: Vec<f32>,
    cache: Option<SeqCache>,
    // One pair per width run at, at most one per hidden group.
    panels: Vec<WidthPanels>,
    // Training panels of each gate's W_h[g] as stored, for `dh_prev`.
    packed_dh: [PackedB; G],
}

impl<C: Cell<G>, const G: usize> Recurrent<C, G> {
    /// Creates a layer with Xavier-uniform weights and the cell's biases.
    pub fn new(name: impl Into<String>, cfg: RecurrentConfig, rng: &mut SeededRng) -> Self {
        assert!(cfg.in_dim > 0 && cfg.hidden_dim > 0);
        if let Some(g) = cfg.in_groups {
            assert!(g >= 1 && g <= cfg.in_dim);
        }
        if let Some(g) = cfg.out_groups {
            assert!(g >= 1 && g <= cfg.hidden_dim);
        }
        let name = name.into();
        let (d, h) = (cfg.in_dim, cfg.hidden_dim);
        let w_x = init::xavier_uniform([G * h, d], d, h, rng);
        let w_h = init::xavier_uniform([G * h, h], h, h, rng);
        Recurrent {
            w_x: Param::new(format!("{name}.w_x"), w_x, true),
            w_h: Param::new(format!("{name}.w_h"), w_h, true),
            cell: C::new(&name, h),
            active_in: d,
            active_h: h,
            cfg,
            name,
            xt: Vec::new(),
            z: Vec::new(),
            saved: Vec::new(),
            cache: None,
            panels: Vec::new(),
            packed_dh: std::array::from_fn(|_| PackedB::new()),
        }
    }

    /// Currently active `(input, hidden)` widths.
    pub fn active_dims(&self) -> (usize, usize) {
        (self.active_in, self.active_h)
    }

    /// Hands a sequence cache's buffers back to where they came from.
    fn release(&mut self, cache: SeqCache) {
        self.xt = cache.xt;
        self.z = cache.z;
        cache.h.recycle();
        cache.state.recycle();
        self.saved = cache.saved;
    }

    /// Packs the active width's panels unless they are valid; whether it did.
    fn ensure_packed(&mut self) -> bool {
        let (d, h, a_h) = (self.cfg.in_dim, self.cfg.hidden_dim, self.active_h);
        if !self.panels.iter().any(|p| p.a_h == a_h) {
            let (x, h) = (PackedB::new(), PackedB::new());
            self.panels.push(WidthPanels { a_h, x, h });
        }
        let mut panels = self.panels.iter_mut();
        let p = panels.find(|p| p.a_h == a_h).expect("pushed above");
        if p.x.is_valid() {
            return false;
        }
        p.x.pack_row_blocks(self.w_x.value.data(), d, d, (G, h), a_h);
        p.h.pack_row_blocks(self.w_h.value.data(), h, a_h, (G, h), a_h);
        true
    }

    /// The active width's panels, packed by the forward that reads them.
    fn width_panels(&self) -> &WidthPanels {
        let p = self.panels.iter().find(|p| p.a_h == self.active_h);
        p.expect("the forward packs its width's panels first")
    }

    /// `z += s_h · h_prev · W_hᵀ` for `rows` batch rows: a step's recurrent
    /// product, every gate at once, off the width's panels.
    fn step_product(&self, rows: usize, h_prev: &[f32], z: &mut [f32]) {
        let (a_h, width) = (self.active_h, G * self.active_h);
        let (sh, ph) = (self.scale_h(), &self.width_panels().h);
        gemm_packed_b(rows, 0, a_h, 0, width, sh, h_prev, a_h, ph, 1.0, z, width);
    }

    /// Adds gate `g`'s first `a_h` biases of `bias` (`G` blocks of `H`) to
    /// gate `g`'s columns of every gate-adjacent row of `z`.
    fn add_gate_bias(&self, z: &mut [f32], bias: &Tensor) {
        let (a_h, h_full) = (self.active_h, self.cfg.hidden_dim);
        let biases = bias.data().chunks_exact(h_full);
        for row in z.chunks_exact_mut(G * a_h) {
            for (zg, bg) in row.chunks_exact_mut(a_h).zip(biases.clone()) {
                zg.iter_mut().zip(bg).for_each(|(v, &b)| *v += b);
            }
        }
    }

    /// `dh = s_h · g · W_h[gate][0..a_h, 0..a_h] + beta · dh` for the rows of
    /// `dh` (`g` of leading dimension `ld`): a gate's share of `dh_prev`, off
    /// the gate's `packed_dh` panels, with the bits of packing `W_h[gate]`
    /// per call.
    fn recurrent_grad(&self, gate: usize, g: &[f32], ld: usize, beta: f32, dh: &mut [f32]) {
        let (a_h, sh, pb) = (self.active_h, self.scale_h(), &self.packed_dh[gate]);
        let rows = dh.len() / a_h;
        gemm_packed_b(rows, 0, a_h, 0, a_h, sh, g, ld, pb, beta, dh, a_h);
    }

    /// The forward of one part: input projection of all its steps, then the
    /// recurrence over its batch rows.
    fn forward_part(&self, train: bool, steps: usize, p: ForwardPart<'_>) {
        let (a_h, d) = (self.active_h, self.active_in);
        let (slab, width) = (p.rows * a_h, G * a_h); // one gate of one step; one row

        // z = s_x·X·W_xᵀ + b for every step and gate at once.
        to_time_major(p.x, p.rows, steps, d, p.xt);
        let (m, sx, px) = (steps * p.rows, self.scale_x(), &self.width_panels().x);
        gemm_packed_b(m, 0, d, 0, width, sx, p.xt, d, px, 1.0, p.z, width);
        self.add_gate_bias(p.z, self.cell.input_bias());

        // Training keeps every step's state and saved slabs, inference one
        // block of each, updated in place.
        let (state_len, saved_len) = (C::STATE * slab, C::SAVED * slab);
        for t in 0..steps {
            let (prev, next) = if train { (t, t + 1) } else { (0, 0) };
            if train {
                p.h.copy_within(prev * slab..next * slab, next * slab);
                let (from, to) = (prev * state_len, next * state_len);
                p.state.copy_within(from..to, to);
            }
            let z = &mut p.z[t * p.rows * width..][..p.rows * width];
            let h = &mut p.h[next * slab..][..slab];
            let state = &mut p.state[next * state_len..][..state_len];
            let saved = &mut p.saved[prev * saved_len..][..saved_len];
            C::forward_step(self, p.rows, z, h, state, saved);
            store_step(h, t, steps, a_h, p.out);
        }
    }

    /// The time loop of `backward` for one part and, once all of the part's
    /// rows of `dz` exist, its rows of `dX`.
    fn backward_part(&self, steps: usize, p: BackwardPart<'_>) {
        let (a_h, a_d) = (self.active_h, self.active_in);
        let (d_full, h_full) = (self.cfg.in_dim, self.cfg.hidden_dim);
        let (slab, width) = (p.rows * a_h, G * a_h);
        let (state_len, saved_len) = (C::STATE * slab, C::SAVED * slab);
        if p.rows == 0 {
            return; // the empty part of a one-sample batch
        }
        let (dz, dh, scratch) = (p.dz, p.dh, p.scratch);
        for t in (0..steps).rev() {
            add_step(p.dy, t, steps, a_h, dh);
            let s = StepGrads {
                t,
                z: &p.z[t * p.rows * width..][..p.rows * width],
                h_prev: &p.h[t * slab..][..slab],
                state_prev: &p.state[t * state_len..][..state_len],
                saved: &p.saved[t * saved_len..][..saved_len],
                dz: &mut dz[t * p.rows * width..][..p.rows * width],
                dh: &mut *dh,
                scratch: &mut *scratch,
            };
            C::backward_step(self, s);
        }
        // dX = s_x · Σ_g dz_g · W_x[g] over all of the part's T·rows rows.
        let (m, sx) = (steps * p.rows, self.scale_x());
        for gate in 0..G {
            let w_x = &self.w_x.value.data()[gate * h_full * d_full..];
            let beta = if gate == 0 { 0.0 } else { 1.0 };
            gemm(
                Trans::No,
                Trans::No,
                m,
                a_d,
                a_h,
                sx,
                &dz[gate * a_h..],
                width,
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

impl<C: Cell<G>, const G: usize> Layer for Recurrent<C, G> {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 3, "{}: expect [B, T, D]", self.name);
        let (batch, steps, d) = (dims[0], dims[1], dims[2]);
        assert_eq!(d, self.active_in, "{}: input width", self.name);
        let (a_h, rows) = (self.active_h, steps * batch);
        let slab = batch * a_h; // one gate of one step

        // A Train forward that no backward followed still holds its cache.
        if let Some(stale) = self.cache.take() {
            self.release(stale);
        }
        // Both modes read the width's panels, packed on first use at the
        // width after a weight change: in training once per optimiser step
        // and scheduled rate (every update walks `visit_params`, which marks
        // them stale), and every step of every sequence reads that packing.
        self.ensure_packed();
        let train = mode == Mode::Train;

        let kept = if train { steps } else { 0 };
        let mut xt = take_zeroed(&mut self.xt, rows * d);
        let mut z = take_zeroed(&mut self.z, G * rows * a_h);
        let mut h = Tensor::pooled_zeros([(kept + 1) * slab]);
        let mut state = Tensor::pooled_zeros([(kept + 1) * C::STATE * slab]);
        let mut saved = take_zeroed(&mut self.saved, kept.max(1) * C::SAVED * slab);
        // Every step stores its `h` into its rows of `out`.
        let mut out = Tensor::pooled_stale([batch, steps, a_h]);

        // Training runs the two fixed parts of the batch, inference the
        // whole batch as one; every buffer is cut at the same batch row.
        let mid = if train { par::mid(batch) } else { batch };
        let (x0, x1) = x.data().split_at(mid * steps * d);
        let (xt0, xt1) = xt.split_at_mut(steps * mid * d);
        let (z0, z1) = z.split_at_mut(steps * mid * G * a_h);
        let (h0, h1) = h.data_mut().split_at_mut((kept + 1) * mid * a_h);
        let at = (kept + 1) * C::STATE * mid * a_h;
        let (st0, st1) = state.data_mut().split_at_mut(at);
        let (s0, s1) = saved.split_at_mut(kept.max(1) * C::SAVED * mid * a_h);
        let (out0, out1) = out.data_mut().split_at_mut(mid * steps * a_h);
        let part0 = ForwardPart {
            rows: mid,
            x: x0,
            xt: xt0,
            z: z0,
            h: h0,
            state: st0,
            saved: s0,
            out: out0,
        };
        let part1 = ForwardPart {
            rows: batch - mid,
            x: x1,
            xt: xt1,
            z: z1,
            h: h1,
            state: st1,
            saved: s1,
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
            state,
            saved,
        };
        if train {
            self.cache = Some(cache);
        } else {
            self.release(cache);
        }
        out
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let _span = C::backward_span();
        let cache = self.cache.take().expect("backward before Train forward");
        let (batch, steps) = (cache.batch, cache.steps);
        let (a_h, a_d) = (self.active_h, self.active_in);
        let (d_full, h_full) = (self.cfg.in_dim, self.cfg.hidden_dim);
        let (sx, sh) = (self.scale_x(), self.scale_h());
        let (rows, width, slab) = (steps * batch, G * a_h, batch * a_h);
        debug_assert_eq!(dy.dims(), &[batch, steps, a_h]);
        // `dh_prev`'s weights, each gate's block of `w_h` as stored, packed
        // once per optimiser step like the forward's (the update's
        // `visit_params` marks both stale).
        for (gate, pb) in self.packed_dh.iter_mut().enumerate() {
            if !pb.is_valid() {
                let block = &self.w_h.value.data()[gate * h_full * h_full..];
                pb.pack(Trans::No, block, h_full, h_full, h_full);
            }
        }

        // Pre-activation gradients of the whole sequence, laid out like the
        // gates. Only what the recurrence needs runs in the time loop; every
        // product with the inputs waits until all `T·B` rows of `dz` exist.
        // Every step writes its rows of `dz` in full, the first gate's `dX`
        // product overwrites `dxt` and `dx` is `dxt` reordered, so those
        // three are drawn stale; `dh` and the cell's scratch are added into.
        let scratch_slabs = C::scratch_slabs(steps);
        let mut dz = Tensor::pooled_stale([rows * width]);
        let mut dh = Tensor::pooled_zeros([slab]); // dL/dh_t, recurrent part first
        let mut scratch = Tensor::pooled_zeros([scratch_slabs * slab]);
        let mut dxt = Tensor::pooled_stale([rows * a_d]);
        let mut dx = Tensor::pooled_stale([batch, steps, a_d]);

        // First join: the time loop and `dX`, the two fixed parts of the
        // batch on the cuts the forward made.
        let mid = par::mid(batch);
        {
            let (dy0, dy1) = dy.data().split_at(mid * steps * a_h);
            let (z0, z1) = cache.z.split_at(steps * mid * width);
            let (h0, h1) = cache.h.data().split_at((steps + 1) * mid * a_h);
            let at = (steps + 1) * C::STATE * mid * a_h;
            let (st0, st1) = cache.state.data().split_at(at);
            let (s0, s1) = cache.saved.split_at(steps * C::SAVED * mid * a_h);
            let (dz0, dz1) = dz.data_mut().split_at_mut(steps * mid * width);
            let (dh0, dh1) = dh.data_mut().split_at_mut(mid * a_h);
            let (sc0, sc1) = scratch.data_mut().split_at_mut(scratch_slabs * mid * a_h);
            let (dxt0, dxt1) = dxt.data_mut().split_at_mut(steps * mid * a_d);
            let (dx0, dx1) = dx.data_mut().split_at_mut(mid * steps * a_d);
            let part0 = BackwardPart {
                rows: mid,
                dy: dy0,
                z: z0,
                h: h0,
                state: st0,
                saved: s0,
                dz: dz0,
                dh: dh0,
                scratch: sc0,
                dxt: dxt0,
                dx: dx0,
            };
            let part1 = BackwardPart {
                rows: batch - mid,
                dy: dy1,
                z: z1,
                h: h1,
                state: st1,
                saved: s1,
                dz: dz1,
                dh: dh1,
                scratch: sc1,
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
        let gate_mid = par::mid(G);
        let at = gate_mid * h_full; // the second part's first weight row
        let (dwx0, dwx1) = self.w_x.grad.get_mut().data_mut().split_at_mut(at * d_full);
        let (dwh0, dwh1) = self.w_h.grad.get_mut().data_mut().split_at_mut(at * h_full);
        let (db0, db1) = self.cell.split_bias_grads(at);
        // `h` keeps T + 1 blocks per part, so the rows of `H_prev` that line
        // up with a part's rows of `dz` start at the part's first block.
        let part_rows = [(0, steps * mid), (steps * mid, rows)];
        let h_prev = [0, (steps + 1) * mid * a_h].map(|at| &cache.h.data()[at..]);
        let (dz_rows, scratch_rows, xt) = (dz.data(), scratch.data(), &cache.xt);
        let grads = |gates: Range<usize>, dwx: &mut [f32], dwh: &mut [f32], mut db| {
            for (i, gate) in gates.enumerate() {
                let dz_g = GateCols::new(dz_rows, width, gate * a_h, a_h);
                let dz_h = C::recurrent_rows(gate, dz_g, scratch_rows);
                // dW_x[gate] += s_x · dz_gᵀ · X
                let dwx = &mut dwx[i * h_full * d_full..];
                gemm(
                    Trans::Yes,
                    Trans::No,
                    a_h,
                    a_d,
                    rows,
                    sx,
                    dz_g.from(0),
                    width,
                    xt,
                    a_d,
                    1.0,
                    dwx,
                    d_full,
                );
                // dW_h[gate] += s_h · dz_hᵀ · H_prev
                for ((first, end), h_prev) in part_rows.into_iter().zip(h_prev) {
                    let (dwh, g) = (&mut dwh[i * h_full * h_full..], dz_h.from(first));
                    let k = end - first;
                    gemm(
                        Trans::Yes,
                        Trans::No,
                        a_h,
                        a_h,
                        k,
                        sh,
                        g,
                        dz_h.ld,
                        h_prev,
                        a_h,
                        1.0,
                        dwh,
                        h_full,
                    );
                }
                C::add_bias_grads(&mut db, i * h_full, dz_g, dz_h);
            }
        };
        par::join(
            || grads(0..gate_mid, dwx0, dwh0, db0),
            || grads(gate_mid..G, dwx1, dwh1, db1),
        );
        dxt.recycle();
        dz.recycle();
        dh.recycle();
        scratch.recycle();
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
        self.panels = Vec::new();
        self.packed_dh = std::array::from_fn(|_| PackedB::new());
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w_x);
        f(&mut self.w_h);
        self.cell.visit_params(f);
        for p in &mut self.panels {
            p.x.invalidate();
            p.h.invalidate();
        }
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
        // Per timestep: G gates × (a_h·a_d + a_h·a_h) MACs; callers multiply
        // by sequence length themselves (we report per token).
        (G * (self.active_h * self.active_in + self.active_h * self.active_h)) as u64
    }

    fn active_param_count(&self) -> u64 {
        (G * (self.active_h * self.active_in + self.active_h * self.active_h)
            + C::BIASES * G * self.active_h) as u64
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The `G` gate blocks of one gate-adjacent row, `a_h` floats each.
fn gates<const G: usize>(row: &[f32], a_h: usize) -> [&[f32]; G] {
    let mut blocks = row.chunks_exact(a_h);
    std::array::from_fn(|_| blocks.next().expect("G gate blocks"))
}

/// [`gates`], writable.
fn gates_mut<const G: usize>(row: &mut [f32], a_h: usize) -> [&mut [f32]; G] {
    let mut blocks = row.chunks_exact_mut(a_h);
    std::array::from_fn(|_| blocks.next().expect("G gate blocks"))
}

/// Copies `x: [B, T, D]` into `xt: [T, B, D]` (time-major rows `t·B + b`).
fn to_time_major(x: &[f32], batch: usize, steps: usize, d: usize, xt: &mut [f32]) {
    for (b, sample) in x.chunks_exact(steps * d).enumerate().take(batch) {
        for (t, row) in sample.chunks_exact(d).enumerate() {
            xt[(t * batch + b) * d..][..d].copy_from_slice(row);
        }
    }
}

/// The inverse of [`to_time_major`]: `xt: [T, B, D]` back into `x: [B, T, D]`.
fn from_time_major(xt: &[f32], batch: usize, steps: usize, d: usize, x: &mut [f32]) {
    for (b, sample) in x.chunks_exact_mut(steps * d).enumerate().take(batch) {
        for (t, row) in sample.chunks_exact_mut(d).enumerate() {
            row.copy_from_slice(&xt[(t * batch + b) * d..][..d]);
        }
    }
}

/// Adds step `t` of `dy: [B, T, a_h]` to `dh: [B, a_h]`.
fn add_step(dy: &[f32], t: usize, steps: usize, a_h: usize, dh: &mut [f32]) {
    for (b, row) in dh.chunks_exact_mut(a_h).enumerate() {
        for (v, &g) in row.iter_mut().zip(&dy[(b * steps + t) * a_h..][..a_h]) {
            *v += g;
        }
    }
}

/// Writes the step-`t` hidden state `h: [B, a_h]` into `out: [B, T, a_h]`.
fn store_step(h: &[f32], t: usize, steps: usize, a_h: usize, out: &mut [f32]) {
    for (b, row) in h.chunks_exact(a_h).enumerate() {
        out[(b * steps + t) * a_h..][..a_h].copy_from_slice(row);
    }
}
