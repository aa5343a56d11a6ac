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
//! Training and inference run one forward. The input projection `X·W_xᵀ`
//! does not depend on the recurrence, so it is hoisted out of the time loop
//! into one `[T·B, D]` GEMM per gate over a time-major copy of the input; the
//! pre-activations live gate-major (`[gate][t][b][unit]`), which makes one
//! gate of one step a contiguous `B × a_h` *slab* that the cell's recurrent
//! GEMMs accumulate into and the vectorised `sigmoid`/`tanh` slab kernels of
//! `ms_tensor::ops` activate in place. Every GEMM reads the weights off the
//! layer's packed panels, packed on first use after a weight change. The
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
//! `[n][rows of part 1][w]` — inside a gate's block, for the gate-major
//! ones. Inference runs the whole batch as a single part, for which this is
//! plain time-major.

pub mod gru;
pub mod lstm;

pub use gru::{Gru, GruConfig};
pub use lstm::{Lstm, LstmConfig};

use crate::layer::{Layer, Mode, Param};
use crate::slice::{active_units, SliceRate};
use crate::workspace::take_zeroed;
use ms_tensor::matmul::{gemm, Trans, SMALL_GEMM_CUTOFF};
use ms_tensor::ops::add_bias_rows;
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
/// [`Recurrent`]. Slices handed to a step are slabs of the step's part:
/// `rows × a_h` floats each.
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
        z: [&mut [f32]; G],
        h: &mut [f32],
        state: &mut [f32],
        saved: &mut [f32],
    );

    /// Slabs of backward scratch a part of a `steps`-long sequence needs.
    fn scratch_slabs(steps: usize) -> usize;

    /// One step of the time loop: the pre-activation gradients `dz` from
    /// `dh` (which already holds `dy` at the step), then `dh` for the step
    /// before, unless this is step 0.
    fn backward_step(l: &Recurrent<Self, G>, s: StepGrads<'_, G>);

    /// The rows, over the whole batch, that multiply `H_prev` into
    /// `dW_h[gate]`, given the gate's `dz` and the backward scratch.
    fn recurrent_rows<'a>(gate: usize, dz: &'a [f32], scratch: &'a [f32]) -> &'a [f32];

    /// The bias gradients, cut at float `at`.
    fn split_bias_grads(&mut self, at: usize) -> (Self::BiasGrads<'_>, Self::BiasGrads<'_>);

    /// Adds a gate's column sums at float `at` of `db`: `dz`'s for the input
    /// side, `dz_h`'s (its [`Cell::recurrent_rows`]) for the recurrent one.
    fn add_bias_grads(
        db: &mut Self::BiasGrads<'_>,
        at: usize,
        a_h: usize,
        dz: &[f32],
        dz_h: &[f32],
    );

    /// Opens the cell's backward span (`span!` declares one static per call
    /// site, so each cell opens its own).
    fn backward_span() -> impl Sized;
}

/// Step `t` of a backward part, as [`Cell::backward_step`] sees it.
pub struct StepGrads<'a, const G: usize> {
    t: usize,
    rows: usize,
    z: [&'a [f32]; G],     // the forward's activated gates
    h_prev: &'a [f32],     // `h` of state block t
    state_prev: &'a [f32], // the cell's slabs of state block t
    saved: &'a [f32],      // what step t saved
    dz: [&'a mut [f32]; G],
    dh: &'a mut [f32],      // dL/dh_t in, dL/dh_{t-1} out
    scratch: &'a mut [f32], // the part's backward scratch
}

/// What a `Train` forward keeps for `backward`: the whole sequence,
/// part-major, in the buffers the forward computed it in.
struct SeqCache {
    batch: usize,
    steps: usize,
    xt: Vec<f32>,    // [T·B, a_d] input
    z: Vec<f32>,     // activated gates, `[gate][part][t][b][unit]`
    h: Tensor,       // per part T + 1 state blocks of [b, a_h]
    state: Tensor,   // likewise, STATE slabs each
    saved: Vec<f32>, // per part T blocks of SAVED slabs
}

/// The buffers of one part of a forward pass: `rows` batch rows.
struct ForwardPart<'a, const G: usize> {
    rows: usize,
    x: &'a [f32],          // [rows, T, a_d]
    xt: &'a mut [f32],     // [T, rows, a_d]
    z: [&'a mut [f32]; G], // each [T, rows, a_h]
    h: &'a mut [f32],      // T + 1 state blocks (training) or one (inference)
    state: &'a mut [f32],  // likewise
    saved: &'a mut [f32],  // T blocks (training) or one (inference)
    out: &'a mut [f32],    // [rows, T, a_h]
}

/// The buffers of one part of a backward pass's time loop.
struct BackwardPart<'a, const G: usize> {
    rows: usize,
    dy: &'a [f32], // [rows, T, a_h]
    z: [&'a [f32]; G],
    h: &'a [f32],
    state: &'a [f32],
    saved: &'a [f32],
    dz: [&'a mut [f32]; G], // each [T, rows, a_h]
    dh: &'a mut [f32],      // [rows, a_h]
    scratch: &'a mut [f32],
    dxt: &'a mut [f32], // [T, rows, a_d]
    dx: &'a mut [f32],  // [rows, T, a_d]
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
    packed_x: PackedB, // persistent panels of W_xᵀ
    packed_h: PackedB, // persistent panels of W_hᵀ
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
            packed_x: PackedB::new(),
            packed_h: PackedB::new(),
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

    fn ensure_packed(&mut self) -> bool {
        let (d, h) = (self.cfg.in_dim, self.cfg.hidden_dim);
        let stale = !(self.packed_x.is_valid() && self.packed_h.is_valid());
        if !self.packed_x.is_valid() {
            self.packed_x
                .pack(Trans::Yes, self.w_x.value.data(), d, d, G * h);
        }
        if !self.packed_h.is_valid() {
            self.packed_h
                .pack(Trans::Yes, self.w_h.value.data(), h, h, G * h);
        }
        stale
    }

    /// `z += s_h · h_prev · W_h[gate][0..a_h, 0..a_h]ᵀ` for `rows` batch rows:
    /// a gate's recurrent product, off the panels.
    fn recurrent_gemm(&self, gate: usize, rows: usize, h_prev: &[f32], z: &mut [f32]) {
        let (a_h, row0) = (self.active_h, gate * self.cfg.hidden_dim);
        let (sh, ph) = (self.scale_h(), &self.packed_h);
        gemm_packed_b(
            rows,
            0,
            a_h,
            row0,
            row0 + a_h,
            sh,
            h_prev,
            a_h,
            ph,
            1.0,
            z,
            a_h,
        );
    }

    /// `dh = s_h · g · W_h[gate][0..a_h, 0..a_h] + beta · dh` for `rows` batch
    /// rows: a gate's share of `dh_prev`, off the gate's `packed_dh` panels —
    /// except where `gemm` would take its small loops, which sum in another
    /// order: there it is still `gemm` on `w_h`. Either way the bits are those
    /// of packing `W_h[gate]` per call.
    fn recurrent_grad(&self, gate: usize, rows: usize, g: &[f32], beta: f32, dh: &mut [f32]) {
        let (a_h, h_full, sh) = (self.active_h, self.cfg.hidden_dim, self.scale_h());
        if rows * a_h * a_h > SMALL_GEMM_CUTOFF {
            let panels = &self.packed_dh[gate];
            gemm_packed_b(rows, 0, a_h, 0, a_h, sh, g, a_h, panels, beta, dh, a_h);
            return;
        }
        let block = &self.w_h.value.data()[gate * h_full * h_full..];
        gemm(
            Trans::No,
            Trans::No,
            rows,
            a_h,
            a_h,
            sh,
            g,
            a_h,
            block,
            h_full,
            beta,
            dh,
            a_h,
        );
    }

    /// The forward of one part: input projection of all its steps, then the
    /// recurrence over its batch rows.
    fn forward_part(&self, train: bool, steps: usize, mut p: ForwardPart<'_, G>) {
        let (a_h, h_full, d) = (self.active_h, self.cfg.hidden_dim, self.active_in);
        let slab = p.rows * a_h; // one gate of one step

        // z[g] = s_x·X·W_x[g]ᵀ + b[g] for every step at once.
        to_time_major(p.x, p.rows, steps, d, p.xt);
        let (rows, sx, bias) = (steps * p.rows, self.scale_x(), self.cell.input_bias());
        for (gate, zg) in p.z.iter_mut().enumerate() {
            let (row0, px) = (gate * h_full, &self.packed_x);
            gemm_packed_b(rows, 0, d, row0, row0 + a_h, sx, p.xt, d, px, 1.0, zg, a_h);
            add_bias_rows(zg, &bias.data()[row0..], a_h, a_h);
        }

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
            let z = p.z.each_mut().map(|g| &mut g[t * slab..][..slab]);
            let h = &mut p.h[next * slab..][..slab];
            let state = &mut p.state[next * state_len..][..state_len];
            let saved = &mut p.saved[prev * saved_len..][..saved_len];
            C::forward_step(self, p.rows, z, h, state, saved);
            store_step(h, t, steps, a_h, p.out);
        }
    }

    /// The time loop of `backward` for one part and, once all of the part's
    /// rows of `dz` exist, its rows of `dX`.
    fn backward_part(&self, steps: usize, p: BackwardPart<'_, G>) {
        let (a_h, a_d) = (self.active_h, self.active_in);
        let (d_full, h_full) = (self.cfg.in_dim, self.cfg.hidden_dim);
        let slab = p.rows * a_h;
        let (state_len, saved_len) = (C::STATE * slab, C::SAVED * slab);
        let BackwardPart {
            mut dz,
            dh,
            scratch,
            ..
        } = p;
        for t in (0..steps).rev() {
            add_step(p.dy, t, steps, a_h, dh);
            let s = StepGrads {
                t,
                rows: p.rows,
                z: p.z.map(|g| &g[t * slab..][..slab]),
                h_prev: &p.h[t * slab..][..slab],
                state_prev: &p.state[t * state_len..][..state_len],
                saved: &p.saved[t * saved_len..][..saved_len],
                dz: dz.each_mut().map(|g| &mut g[t * slab..][..slab]),
                dh: &mut *dh,
                scratch: &mut *scratch,
            };
            C::backward_step(self, s);
        }
        // dX = s_x · Σ_g dz_g · W_x[g] over all of the part's T·rows rows.
        let (m, sx) = (steps * p.rows, self.scale_x());
        for (gate, dz_g) in dz.iter().enumerate() {
            let w_x = &self.w_x.value.data()[gate * h_full * d_full..];
            let beta = if gate == 0 { 0.0 } else { 1.0 };
            gemm(
                Trans::No,
                Trans::No,
                m,
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

impl<C: Cell<G>, const G: usize> Layer for Recurrent<C, G> {
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

        let kept = if train { steps } else { 0 };
        let mut xt = take_zeroed(&mut self.xt, rows * d);
        let mut z = take_zeroed(&mut self.z, G * rows * a_h);
        let mut h = Tensor::pooled_zeros([(kept + 1) * slab]);
        let mut state = Tensor::pooled_zeros([(kept + 1) * C::STATE * slab]);
        let mut saved = take_zeroed(&mut self.saved, kept.max(1) * C::SAVED * slab);
        let mut out = Tensor::pooled_zeros([batch, steps, a_h]);

        // Training runs the two fixed parts of the batch, inference the
        // whole batch as one; every buffer is cut at the same batch row.
        let mid = if train { par::mid(batch) } else { batch };
        let (x0, x1) = x.data().split_at(mid * steps * d);
        let (xt0, xt1) = xt.split_at_mut(steps * mid * d);
        let (z0, z1) = split_gates(&mut z, rows * a_h, steps * mid * a_h);
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
        let rows = steps * batch;
        let slab = batch * a_h;
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
        // product with the inputs waits until all `T·B` rows of `dz_g` exist.
        let scratch_slabs = C::scratch_slabs(steps);
        let mut dz = Tensor::pooled_zeros([G * rows * a_h]);
        let mut dh = Tensor::pooled_zeros([slab]); // dL/dh_t, recurrent part first
        let mut scratch = Tensor::pooled_zeros([scratch_slabs * slab]);
        let mut dxt = Tensor::pooled_zeros([rows * a_d]);
        let mut dx = Tensor::pooled_zeros([batch, steps, a_d]);

        // First join: the time loop and `dX`, the two fixed parts of the
        // batch on the cuts the forward made.
        let mid = par::mid(batch);
        {
            let (dy0, dy1) = dy.data().split_at(mid * steps * a_h);
            let (z0, z1) = split_gates_ref(&cache.z, rows * a_h, steps * mid * a_h);
            let (h0, h1) = cache.h.data().split_at((steps + 1) * mid * a_h);
            let at = (steps + 1) * C::STATE * mid * a_h;
            let (st0, st1) = cache.state.data().split_at(at);
            let (s0, s1) = cache.saved.split_at(steps * C::SAVED * mid * a_h);
            let (dz0, dz1) = split_gates(dz.data_mut(), rows * a_h, steps * mid * a_h);
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
        let (db0, db1) = self.cell.split_bias_grads(gate_mid * h_full);
        // `h` keeps T + 1 blocks per part, so the rows of `H_prev` that line
        // up with a part's rows of `dz` start at the part's first block.
        let part_rows = [(0, steps * mid), (steps * mid, rows)];
        let h_prev = [0, (steps + 1) * mid * a_h].map(|at| &cache.h.data()[at..]);
        let (dz_rows, scratch_rows, xt) = (dz.data(), scratch.data(), &cache.xt);
        let grads = |gates: Range<usize>, dwx: &mut [f32], dwh: &mut [f32], mut db| {
            for (i, gate) in gates.enumerate() {
                let dz_g = &dz_rows[gate * rows * a_h..][..rows * a_h];
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
                    dz_g,
                    a_h,
                    xt,
                    a_d,
                    1.0,
                    dwx,
                    d_full,
                );
                // dW_h[gate] += s_h · dz_hᵀ · H_prev
                for ((first, end), h_prev) in part_rows.into_iter().zip(h_prev) {
                    let (dwh, g) = (&mut dwh[i * h_full * h_full..], &dz_h[first * a_h..]);
                    let k = end - first;
                    gemm(
                        Trans::Yes,
                        Trans::No,
                        a_h,
                        a_h,
                        k,
                        sh,
                        g,
                        a_h,
                        h_prev,
                        a_h,
                        1.0,
                        dwh,
                        h_full,
                    );
                }
                C::add_bias_grads(&mut db, i * h_full, a_h, dz_g, dz_h);
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
        self.packed_x = PackedB::new();
        self.packed_h = PackedB::new();
        self.packed_dh = std::array::from_fn(|_| PackedB::new());
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w_x);
        f(&mut self.w_h);
        self.cell.visit_params(f);
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

/// Cuts every gate's block of a gate-major buffer (`G` blocks of `block`
/// floats) at `at`: the leading and the trailing piece of each gate.
fn split_gates<const G: usize>(
    buf: &mut [f32],
    block: usize,
    at: usize,
) -> ([&mut [f32]; G], [&mut [f32]; G]) {
    let mut lo: [&mut [f32]; G] = std::array::from_fn(|_| &mut [][..]);
    let mut hi: [&mut [f32]; G] = std::array::from_fn(|_| &mut [][..]);
    for (gate, chunk) in buf.chunks_exact_mut(block.max(1)).take(G).enumerate() {
        (lo[gate], hi[gate]) = chunk.split_at_mut(at);
    }
    (lo, hi)
}

/// [`split_gates`] over a shared buffer.
fn split_gates_ref<const G: usize>(
    buf: &[f32],
    block: usize,
    at: usize,
) -> ([&[f32]; G], [&[f32]; G]) {
    (
        std::array::from_fn(|gate| &buf[gate * block..][..at]),
        std::array::from_fn(|gate| &buf[gate * block + at..(gate + 1) * block]),
    )
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
