//! The sliceable 2-D convolution layer — paper §3.2, Eq. 4.
//!
//! Channels play the role neurons play in dense layers: the weight tensor is
//! stored `[N, C·KH·KW]` row-major with the input-channel index outermost in
//! the row, so slicing input channels selects a contiguous column prefix and
//! slicing output channels a contiguous row prefix — a sliced convolution is
//! a sub-block GEMM over the im2col buffer with zero data movement.
//!
//! Convolutions are expected to be followed by a sliced GroupNorm for scale
//! stability (§3.2); they therefore default to having no bias and no input
//! rescaling.

use crate::layer::{Layer, Mode, Param};
use crate::slice::{active_groups, active_units, group_boundary, prefix_input_width, SliceRate};
use crate::workspace::PrefixCache;
use ms_tensor::conv::{col2im, transpose_flipped, ConvGeom, Im2col};
use ms_tensor::matmul::{gemm_operands, Operand, Trans};
use ms_tensor::panels::{conv_packed_a_stepped, PackedA};
use ms_tensor::{init, par, SeededRng, Tensor};
use std::cell::RefCell;
use std::ops::Range;

/// Columns one backward GEMM covers: as many whole samples as fit (at least
/// one), so the small feature maps of the late stages still give the
/// weight-gradient GEMM a long `k`, and `dW` is read and written once per
/// chunk instead of once per sample.
const CHUNK_COLS: usize = 512;

/// Backward scratch of the conv layers: `out`, the column gradient a strided
/// conv's `col2im` scatters (`[a_in·K², samples·positions]`), and `partial`.
///
/// One set per thread, shared by every conv layer — a layer only needs it
/// between entering and leaving its own `backward` — and sized by the
/// largest layer that ran; per-layer copies would hold a network's worth of
/// the largest buffers the training step has. `out` is fully overwritten
/// before it is read, so it is never cleared; it also holds the flipped,
/// transposed weights a layer packs its backward panels from.
///
/// `partial` is where the second part of a split `backward` sums its share
/// of `dW` (compact, `[a_out, a_in·K²]`) and `db` (behind it): the caller
/// lends its own thread's buffer to whichever thread runs that part, and
/// adds it to `Param::grad` after the join.
#[derive(Default)]
struct ChunkScratch {
    out: Vec<f32>,
    partial: Vec<f32>,
}

thread_local! {
    static CHUNK: RefCell<ChunkScratch> = RefCell::new(ChunkScratch::default());
}

/// Grows `buf` to at least `len` and returns its first `len` elements,
/// holding whatever the last user left there.
fn stale(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Adds `bias[ch]` to channel `ch` of every sample of the sample-major `y`,
/// whose samples start `stride` floats apart: the `+` the per-sample path
/// applies after its GEMM.
fn add_bias(y: &mut [f32], stride: usize, out_len: usize, bias: Option<&[f32]>) {
    let Some(bias) = bias else { return };
    for sample in y.chunks_mut(stride) {
        for (row, &bv) in sample.chunks_exact_mut(out_len).zip(bias) {
            row.iter_mut().for_each(|v| *v += bv);
        }
    }
}

/// Configuration for a [`Conv2d`] layer. Input spatial size is fixed at
/// construction so FLOPs are known without running the layer.
#[derive(Debug, Clone)]
pub struct Conv2dConfig {
    /// Full input channel count `C`.
    pub in_ch: usize,
    /// Full output channel count `N`.
    pub out_ch: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
    /// Input spatial height.
    pub h: usize,
    /// Input spatial width.
    pub w: usize,
    /// Input-side group count; `None` pins the input at full width.
    pub in_groups: Option<usize>,
    /// Output-side group count; `None` pins the output at full width.
    pub out_groups: Option<usize>,
    /// Whether to include a per-output-channel bias.
    pub bias: bool,
}

/// Sliceable convolution layer.
pub struct Conv2d {
    cfg: Conv2dConfig,
    name: String,
    geom: ConvGeom,
    weight: Param, // [out_ch, in_ch * k * k]
    bias: Option<Param>,
    active_in: usize,
    active_out: usize,
    cache: Option<Tensor>,
    packed: PackedA,     // persistent panels of W (the GEMM A operand)
    prefix: PrefixCache, // full-stride output of the last prefix pass
    // Where `dX` is a convolution of `dY` (stride 1, pad < K): its geometry
    // and the training panels of its weights, `W` transposed to
    // `[in_ch, out_ch·K²]` and flipped in space.
    geom_t: Option<ConvGeom>,
    packed_t: PackedA,
    // Prefix-pass geometry, fixed by the config: output-channel boundary of
    // every output group (`out_groups + 1` entries) and the im2col rows
    // (`k`) each group's canonical input width spans.
    group_rows: Vec<usize>,
    group_k: Vec<usize>,
}

impl Conv2d {
    /// Creates the layer with Kaiming-normal weights (fan-in `C·K²`).
    pub fn new(name: impl Into<String>, cfg: Conv2dConfig, rng: &mut SeededRng) -> Self {
        let name = name.into();
        let geom = ConvGeom {
            h: cfg.h,
            w: cfg.w,
            kh: cfg.kernel,
            kw: cfg.kernel,
            stride: cfg.stride,
            pad: cfg.pad,
        };
        assert!(geom.is_valid(), "{name}: invalid conv geometry {geom:?}");
        if let Some(g) = cfg.in_groups {
            assert!(g >= 1 && g <= cfg.in_ch);
        }
        if let Some(g) = cfg.out_groups {
            assert!(g >= 1 && g <= cfg.out_ch);
        }
        let k2 = cfg.kernel * cfg.kernel;
        let fan_in = cfg.in_ch * k2;
        let weight = Param::new(
            format!("{name}.weight"),
            init::kaiming_normal([cfg.out_ch, fan_in], fan_in, rng),
            true,
        );
        let bias = cfg
            .bias
            .then(|| Param::new(format!("{name}.bias"), Tensor::zeros([cfg.out_ch]), false));
        let (active_in, active_out) = (cfg.in_ch, cfg.out_ch);
        let (group_rows, group_k) = match cfg.out_groups {
            Some(go) => (
                (0..=go)
                    .map(|g| group_boundary(cfg.out_ch, go, g))
                    .collect(),
                (1..=go)
                    .map(|g| prefix_input_width(cfg.in_ch, cfg.in_groups, cfg.out_ch, go, g) * k2)
                    .collect(),
            ),
            None => (Vec::new(), Vec::new()),
        };
        Conv2d {
            cfg,
            name,
            geom,
            weight,
            bias,
            active_in,
            active_out,
            cache: None,
            packed: PackedA::new(),
            prefix: PrefixCache::default(),
            geom_t: geom.transposed(),
            packed_t: PackedA::new(),
            group_rows,
            group_k,
        }
    }

    /// Currently active `(in, out)` channel counts.
    pub fn active_channels(&self) -> (usize, usize) {
        (self.active_in, self.active_out)
    }

    /// Output spatial size `(OH, OW)`.
    pub fn out_hw(&self) -> (usize, usize) {
        (self.geom.out_h(), self.geom.out_w())
    }

    /// Immutable weight access (deployment/extraction, pruning baselines).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable weight access (pruning baselines reorder channels).
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    fn k2(&self) -> usize {
        self.cfg.kernel * self.cfg.kernel
    }

    /// Samples whose columns one backward GEMM covers.
    fn samples_per_gemm(&self, batch: usize) -> usize {
        (CHUNK_COLS / self.geom.out_len().max(1)).clamp(1, batch.max(1))
    }

    /// The column matrix of `samples` of `x` (at the active input width),
    /// which the GEMM drivers read straight from the image.
    fn columns<'a>(&self, x: &'a Tensor, samples: Range<usize>) -> Im2col<'a> {
        let per_x = self.active_in * self.geom.h * self.geom.w;
        Im2col {
            input: &x.data()[samples.start * per_x..samples.end * per_x],
            channels: self.active_in,
            geom: self.geom,
            samples: samples.len(),
        }
    }

    /// The output of `samples` of `x` at the active widths into `y` (their
    /// rows, sample-major), the bias added: the active block of the panels —
    /// their top-left corner — times the samples' columns, read or packed
    /// straight from the image ([`conv_packed_a_stepped`]).
    fn forward_samples(&self, x: &Tensor, samples: Range<usize>, y: &mut [f32]) {
        let (out_len, a_out) = (self.geom.out_len(), self.active_out);
        let k_rows = self.active_in * self.k2();
        let cols = self.columns(x, samples);
        conv_packed_a_stepped(
            &[0, a_out],
            &[k_rows],
            &self.packed,
            cols,
            y,
            a_out * out_len,
        );
        let bias = self.bias.as_ref().map(|b| b.value.data());
        add_bias(y, a_out * out_len, out_len, bias);
    }

    /// Checks that `x` is a `[B, C, H, W]` batch at the active input width.
    fn check_input(&self, x: &Tensor) {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "{}: expect [B,C,H,W]", self.name);
        assert_eq!(dims[1], self.active_in, "{}: input channels", self.name);
        let hw = (dims[2], dims[3]);
        assert_eq!(hw, (self.geom.h, self.geom.w), "{}: spatial", self.name);
    }

    /// A pooled output for `batch` samples at the active width, stale: the
    /// GEMM drivers write every element ([`conv_packed_a_stepped`]
    /// overwrites `C`) before the bias is added.
    fn output(&self, batch: usize) -> Tensor {
        let (oh, ow) = self.out_hw();
        Tensor::pooled_stale([batch, self.active_out, oh, ow])
    }

    /// `forward(Train)` off panels packed once per optimiser step (every
    /// update walks `visit_params`, which marks them stale). The two fixed
    /// parts of the batch ([`par::mid`]) each run their own samples into
    /// their own rows of `y`. `x` becomes the backward's cache.
    fn forward_train(&mut self, x: Tensor) -> Tensor {
        self.check_input(&x);
        self.ensure_train_panels();
        let batch = x.dims()[0];
        let mut y = self.output(batch);
        let mid = par::mid(batch);
        let (y0, y1) = y
            .data_mut()
            .split_at_mut(mid * self.active_out * self.geom.out_len());
        let this = &*self;
        par::join(
            || this.forward_samples(&x, 0..mid, y0),
            || this.forward_samples(&x, mid..batch, y1),
        );
        self.cache = Some(x);
        y
    }

    /// `forward(Infer)`, weight-stationary (see `Linear`) on the panels
    /// `prepack` made, or this call packs after a weight change.
    fn forward_infer(&mut self, x: &Tensor) -> Tensor {
        self.check_input(x);
        self.ensure_packed();
        let batch = x.dims()[0];
        let mut y = self.output(batch);
        self.forward_samples(x, 0..batch, y.data_mut());
        y
    }

    /// Packs the panels unless they are valid; returns whether it packed.
    fn ensure_packed(&mut self) -> bool {
        if self.packed.is_valid() {
            return false;
        }
        let full_k = self.cfg.in_ch * self.k2();
        self.packed.pack(
            Trans::No,
            self.weight.value.data(),
            full_k,
            self.cfg.out_ch,
            full_k,
        );
        true
    }

    /// [`Conv2d::ensure_packed`], and where `dX` is a convolution of `dY`
    /// the backward's panels of the flipped, transposed weights beside them
    /// — packed once per optimiser step too (inference does not read them).
    /// Their active block is rows `0..a_in` × `k` `0..a_out·K²`, a prefix,
    /// because `k` runs output channel by output channel.
    fn ensure_train_panels(&mut self) {
        self.ensure_packed();
        if self.geom_t.is_none() || self.packed_t.is_valid() {
            return;
        }
        let (in_ch, out_ch, k2) = (self.cfg.in_ch, self.cfg.out_ch, self.k2());
        let w = self.weight.value.data();
        CHUNK.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let wt = stale(&mut scratch.out, in_ch * out_ch * k2);
            transpose_flipped(w, in_ch * k2, out_ch, in_ch, k2, wt);
            self.packed_t
                .pack(Trans::No, wt, out_ch * k2, in_ch, out_ch * k2);
        });
    }
}

/// The samples of `t` (`[samples, channels, H, W]`) side by side,
/// `[channels, samples·H·W]`, as a GEMM operand: the column matrix of a 1×1
/// window.
fn side_by_side(t: &[f32], channels: usize, (h, w): (usize, usize), samples: usize) -> Operand<'_> {
    let geom = ConvGeom {
        h,
        w,
        kh: 1,
        kw: 1,
        stride: 1,
        pad: 0,
    };
    let input = &t[..samples * channels * h * w];
    Operand::Im2col(
        Trans::No,
        Im2col {
            input,
            channels,
            geom,
            samples,
        },
    )
}

/// What both parts of a split `backward` read.
struct BackwardPass<'a> {
    geom: &'a ConvGeom,
    /// Where `dX` is a convolution of `dY`: its geometry and weight panels.
    transposed: Option<(ConvGeom, &'a PackedA)>,
    w: &'a [f32],
    full_k: usize,
    a_in: usize,
    a_out: usize,
    per_gemm: usize,
    x: &'a Tensor,
    dy: &'a Tensor,
}

impl BackwardPass<'_> {
    /// The chunk loop of `backward` over `samples`, on the executing thread's
    /// chunk scratch: `dx` holds exactly those samples' rows and is
    /// overwritten; `dw` (leading dimension `ldw`) and `db` are added to.
    ///
    /// No operand is written out: `dW += dY · colsᵀ` packs `dY`'s rows and
    /// the transposed columns straight from the two tensors, and `dX` is the
    /// convolution of `dY` with the flipped, transposed weights
    /// ([`ConvGeom::transposed`]) — one FMA chain per element over
    /// `(output channel, tap)`, through the forward's conv multiply. A
    /// strided conv (or `pad ≥ K`) has no such convolution; it scatters
    /// `Wᵀ · dY` back with `col2im`.
    fn run(
        &self,
        samples: Range<usize>,
        dx: &mut [f32],
        dw: &mut [f32],
        ldw: usize,
        mut db: Option<&mut [f32]>,
    ) {
        let (a_in, a_out, geom) = (self.a_in, self.a_out, self.geom);
        let (out_len, taps) = (geom.out_len(), geom.kh * geom.kw);
        let (per_x, per_y) = (a_in * geom.h * geom.w, a_out * out_len);
        CHUNK.with(|scratch| {
            let out = &mut scratch.borrow_mut().out;
            for first in samples.clone().step_by(self.per_gemm) {
                let n = self.per_gemm.min(samples.end - first);
                let ld = n * out_len;
                let x = &self.x.data()[first * per_x..][..n * per_x];
                let dy = &self.dy.data()[first * per_y..][..n * per_y];
                let dy_rows = side_by_side(dy, a_out, (geom.out_h(), geom.out_w()), n);
                // dW += dY · colsᵀ over the whole chunk (k = samples·OH·OW).
                let cols = Im2col {
                    input: x,
                    channels: a_in,
                    geom: *geom,
                    samples: n,
                };
                let cols_t = Operand::Im2col(Trans::Yes, cols);
                gemm_operands(a_out, a_in * taps, ld, 1.0, dy_rows, cols_t, 1.0, dw, ldw);
                // db += per-channel sums, each one chain over the chunk.
                if let Some(db) = &mut db {
                    for (ch, g) in db.iter_mut().take(a_out).enumerate() {
                        let rows = dy
                            .chunks_exact(per_y)
                            .map(|s| &s[ch * out_len..][..out_len]);
                        *g += rows.flatten().sum::<f32>();
                    }
                }
                let chunk_dx = &mut dx[(first - samples.start) * per_x..][..n * per_x];
                let Some((geom_t, panels)) = self.transposed else {
                    // dcol = Wᵀ · dY; dx_s = col2im(dcol's columns of sample s)
                    let dcol = stale(out, a_in * taps * ld);
                    let w_t = Operand::Matrix(Trans::Yes, self.w, self.full_k);
                    gemm_operands(a_in * taps, ld, a_out, 1.0, w_t, dy_rows, 0.0, dcol, ld);
                    for (i, sample_dx) in chunk_dx.chunks_exact_mut(per_x).enumerate() {
                        col2im(dcol, a_in, geom, sample_dx, ld, i * out_len);
                    }
                    continue;
                };
                // dX = W' ⋆ dY.
                let dy_cols = Im2col {
                    input: dy,
                    channels: a_out,
                    geom: geom_t,
                    samples: n,
                };
                let k_t = a_out * taps;
                conv_packed_a_stepped(&[0, a_in], &[k_t], panels, dy_cols, chunk_dx, per_x);
            }
        });
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        // Inference reads `x` where it is; training keeps a copy.
        match mode {
            Mode::Train => self.forward_owned(x.pooled_clone(), mode),
            Mode::Infer => self.forward_infer(x),
        }
    }

    fn forward_owned(&mut self, x: Tensor, mode: Mode) -> Tensor {
        match mode {
            Mode::Train => self.forward_train(x),
            Mode::Infer => {
                let y = self.forward_infer(&x);
                x.recycle();
                y
            }
        }
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let _span = ms_tensor::span!("nn.conv_bwd");
        let x = self.cache.take().expect("backward before Train forward");
        let batch = x.dims()[0];
        let (a_in, a_out) = (self.active_in, self.active_out);
        let k_rows = a_in * self.k2();
        let full_k = self.cfg.in_ch * self.k2();
        debug_assert_eq!(dy.dims()[1], a_out);
        // Valid since the forward unless a parameter walk came in between.
        self.ensure_train_panels();

        // The transposed conv overwrites every sample's rows of `dx`;
        // `col2im` adds into them.
        let mut dx = match self.geom_t {
            Some(_) => Tensor::pooled_stale(x.shape().clone()),
            None => Tensor::pooled_zeros(x.shape().clone()),
        };
        let mid = par::mid(batch);
        let (dx0, dx1) = dx
            .data_mut()
            .split_at_mut(mid * a_in * self.geom.h * self.geom.w);
        let pass = BackwardPass {
            geom: &self.geom,
            transposed: self.geom_t.map(|g| (g, &self.packed_t)),
            w: self.weight.value.data(),
            full_k,
            a_in,
            a_out,
            per_gemm: self.samples_per_gemm(batch),
            x: &x,
            dy,
        };
        // `dW`/`db` are sums over samples, the one reduction that crosses the
        // split: part 0 adds its chunks to `Param::grad` as the whole batch
        // used to, part 1 sums into the zeroed partial, and the partial is
        // added once both are done — the same order whoever ran part 1.
        let dw = self.weight.grad.get_mut().data_mut();
        let mut db = self.bias.as_mut().map(|b| b.grad.get_mut().data_mut());
        let mut partial = CHUNK.with(|s| std::mem::take(&mut s.borrow_mut().partial));
        let (dw1, db1) = stale(&mut partial, a_out * k_rows + a_out).split_at_mut(a_out * k_rows);
        par::join(
            || pass.run(0..mid, dx0, dw, full_k, db.as_deref_mut()),
            || {
                dw1.fill(0.0);
                db1.fill(0.0);
                pass.run(mid..batch, dx1, dw1, k_rows, Some(db1));
            },
        );
        if mid < batch {
            for (row, part) in dw.chunks_mut(full_k).zip(dw1.chunks_exact(k_rows)) {
                row.iter_mut().zip(part).for_each(|(g, p)| *g += p);
            }
            if let Some(db) = db {
                db.iter_mut().zip(&*db1).for_each(|(g, p)| *g += p);
            }
        }
        CHUNK.with(|s| s.borrow_mut().partial = partial);
        x.recycle();
        dx
    }

    fn forward_prefix(&mut self, x: &Tensor, from: Option<SliceRate>, to: SliceRate) -> Tensor {
        // Only an output-grouped conv can be refined per group; anything
        // else recomputes from scratch (still a pure function of (x, to),
        // so the bitwise refine guarantee is preserved).
        let Some(go) = self.cfg.out_groups else {
            self.set_slice_rate(to);
            return self.forward(x, Mode::Infer);
        };
        if let Some(f) = from {
            debug_assert!(f.get() <= to.get(), "refine must go upward: {f} → {to}");
        }
        self.set_slice_rate(to);
        self.ensure_packed();
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "{}: expect [B,C,H,W]", self.name);
        let (batch, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.active_in, "{}: input channels", self.name);
        assert_eq!((h, w), (self.geom.h, self.geom.w), "{}: spatial", self.name);

        let out_len = self.geom.out_len();
        let out_ch = self.cfg.out_ch;
        let g_from = from.map_or(0, |r| active_groups(out_ch, go, r));
        let g_to = self
            .group_rows
            .iter()
            .position(|&b| b == self.active_out)
            .expect("active_out must sit on a group boundary");
        match from {
            None => self.prefix.begin(batch, out_ch * out_len),
            Some(_) => {
                let done = self.group_rows[g_from];
                self.prefix
                    .resume(batch, out_ch * out_len, done, &self.name);
            }
        }
        if g_to > g_from {
            let (c0, c1) = (self.group_rows[g_from], self.group_rows[g_to]);
            let bias = self.bias.as_ref().map(|b| &b.value.data()[c0..c1]);
            // The column matrix is a pure function of the input-channel
            // prefix, so reading it at any width reproduces the rows a
            // narrower pass saw, bit for bit. One sweep over the delta
            // groups, each with its canonical `k` extent: the columns are
            // read (or packed) once, not once a group.
            let (rows, k_ext) = (&self.group_rows[g_from..=g_to], &self.group_k[g_from..g_to]);
            let (cols, lds) = (self.columns(x, 0..batch), out_ch * out_len);
            let buf = &mut self.prefix.buf[c0 * out_len..];
            conv_packed_a_stepped(rows, k_ext, &self.packed, cols, buf, lds);
            add_bias(buf, lds, out_len, bias);
        }
        self.prefix.done = self.group_rows[g_to];
        let mut y =
            Tensor::pooled_zeros([batch, self.active_out, self.geom.out_h(), self.geom.out_w()]);
        let per_sample = self.active_out * out_len;
        for s in 0..batch {
            y.row_mut(s)
                .copy_from_slice(&self.prefix.buf[s * out_ch * out_len..][..per_sample]);
        }
        y
    }

    fn prepack(&mut self) -> bool {
        self.ensure_packed()
    }

    fn release_panels(&mut self) {
        self.packed = PackedA::new();
        self.packed_t = PackedA::new();
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
        self.packed.invalidate();
        self.packed_t.invalidate();
    }

    fn set_slice_rate(&mut self, r: SliceRate) {
        self.active_in = match self.cfg.in_groups {
            Some(g) => active_units(self.cfg.in_ch, g, r),
            None => self.cfg.in_ch,
        };
        self.active_out = match self.cfg.out_groups {
            Some(g) => active_units(self.cfg.out_ch, g, r),
            None => self.cfg.out_ch,
        };
    }

    fn flops_per_sample(&self) -> u64 {
        (self.active_out * self.active_in * self.k2() * self.geom.out_len()) as u64
    }

    fn active_param_count(&self) -> u64 {
        let w = (self.active_out * self.active_in * self.k2()) as u64;
        let b = if self.bias.is_some() {
            self.active_out as u64
        } else {
            0
        };
        w + b
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_grads;
    use ms_tensor::conv::im2col;
    use ms_tensor::matmul::gemm;
    use ms_tensor::panels::gemm_packed_a_stepped;

    fn conv(in_ch: usize, out_ch: usize, h: usize, bias: bool) -> Conv2d {
        let mut rng = SeededRng::new(21);
        Conv2d::new(
            "conv",
            Conv2dConfig {
                in_ch,
                out_ch,
                kernel: 3,
                stride: 1,
                pad: 1,
                h,
                w: h,
                in_groups: Some(in_ch.min(4)),
                out_groups: Some(out_ch.min(4)),
                bias,
            },
            &mut rng,
        )
    }

    #[test]
    fn forward_shape() {
        let mut l = conv(4, 8, 6, false);
        let y = l.forward(&Tensor::zeros([2, 4, 6, 6]), Mode::Infer);
        assert_eq!(y.dims(), &[2, 8, 6, 6]);
    }

    #[test]
    fn strided_geometry() {
        let mut rng = SeededRng::new(5);
        let mut l = Conv2d::new(
            "s2",
            Conv2dConfig {
                in_ch: 2,
                out_ch: 3,
                kernel: 2,
                stride: 2,
                pad: 0,
                h: 4,
                w: 4,
                in_groups: None,
                out_groups: None,
                bias: true,
            },
            &mut rng,
        );
        let y = l.forward(&Tensor::zeros([1, 2, 4, 4]), Mode::Infer);
        assert_eq!(y.dims(), &[1, 3, 2, 2]);
    }

    #[test]
    fn slicing_shrinks_channels_and_flops() {
        let mut l = conv(8, 8, 4, false);
        let full_flops = l.flops_per_sample();
        l.set_slice_rate(SliceRate::new(0.5));
        assert_eq!(l.active_channels(), (4, 4));
        let y = l.forward(&Tensor::zeros([1, 4, 4, 4]), Mode::Infer);
        assert_eq!(y.dims(), &[1, 4, 4, 4]);
        // Quadratic cost: half width → quarter FLOPs.
        assert_eq!(l.flops_per_sample() * 4, full_flops);
    }

    /// A training forward multiplies into thread-local scratch that is never
    /// cleared, with `beta = 0`: what an earlier batch left there — NaN from
    /// a diverged baseline included — must not reach a later output.
    #[test]
    fn a_nan_batch_leaves_nothing_in_the_threads_scratch() {
        let x = ms_tensor::init::uniform([4, 4, 6, 6], 1.0, &mut SeededRng::new(8));
        let on_fresh_thread = {
            let x = x.clone();
            std::thread::spawn(move || conv(4, 8, 6, true).forward(&x, Mode::Train))
                .join()
                .expect("fresh-thread forward")
        };
        let mut l = conv(4, 8, 6, true);
        let poisoned = l.forward(&Tensor::full([4, 4, 6, 6], f32::NAN), Mode::Train);
        assert!(poisoned.data().iter().all(|v| v.is_nan()));
        let y = l.forward(&x, Mode::Train);
        assert!(y.data().iter().all(|v| v.is_finite()));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y), bits(&on_fresh_thread));
    }

    /// The per-sample panel path the chunked forwards replaced, kept as their
    /// oracle: each sample's column matrix written out by `im2col`, one
    /// stepped panel GEMM over output rows `rows` with extents `k_ext` on it,
    /// then the bias added. Returns `[batch, rows, OH·OW]`.
    fn per_sample_reference(
        l: &mut Conv2d,
        x: &Tensor,
        rows: &[usize],
        k_ext: &[usize],
    ) -> Vec<f32> {
        l.ensure_packed();
        let out_len = l.geom.out_len();
        let (r0, r1) = (rows[0], rows[rows.len() - 1]);
        let mut col = vec![0.0f32; l.active_in * l.k2() * out_len];
        let mut y = vec![f32::NAN; x.dims()[0] * (r1 - r0) * out_len];
        for (s, ys) in y.chunks_exact_mut((r1 - r0) * out_len).enumerate() {
            im2col(x.row(s), l.active_in, &l.geom, &mut col, out_len, 0);
            let b = Operand::Matrix(Trans::No, &col, out_len);
            gemm_packed_a_stepped(rows, k_ext, out_len, 1.0, &l.packed, b, 0.0, ys, out_len);
            if let Some(bias) = &l.bias {
                for (row, &bv) in ys.chunks_exact_mut(out_len).zip(&bias.value.data()[r0..r1]) {
                    row.iter_mut().for_each(|v| *v += bv);
                }
            }
        }
        y
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Claims the fork-join helper for this thread, so the second part of
    /// every split pass runs on it; `None` on a machine that has none (or if
    /// other tests keep it busy), where every part runs inline anyway.
    fn hold_helper() -> Option<par::Team> {
        (0..10_000).find_map(|_| {
            let team = par::enter();
            if team.holds_helper() {
                return Some(team);
            }
            std::thread::yield_now();
            None
        })
    }

    /// The leading `channels` channels of every sample of `x`.
    fn channel_prefix(x: &Tensor, channels: usize) -> Tensor {
        let (batch, plane) = (x.dims()[0], x.dims()[2] * x.dims()[3]);
        let data = (0..batch)
            .flat_map(|s| x.row(s)[..channels * plane].to_vec())
            .collect();
        Tensor::from_vec([batch, channels, x.dims()[2], x.dims()[3]], data).unwrap()
    }

    /// Chunking samples side by side and packing their columns from the
    /// image changes no bit: `forward(Infer)` on the panels, the prefix pass
    /// from `None` and refined from every lower rate, and `forward(Train)`
    /// with the helper held and free each equal the per-sample path — every
    /// rate of g = 8, batches that give one chunk, an uneven last chunk and
    /// many, bias on and off, "same", strided and pointwise geometry.
    #[test]
    fn chunked_forwards_are_bitwise_the_per_sample_path() {
        // (in, out, kernel, stride, pad, side)
        let geometries = [
            (16, 32, 3, 1, 1, 4),
            (8, 16, 3, 1, 1, 8),
            (8, 24, 3, 2, 1, 7),
            (24, 8, 1, 1, 0, 5),
        ];
        let rates: Vec<SliceRate> = (1..=8).map(|i| SliceRate::new(i as f32 / 8.0)).collect();
        for (gi, &(in_ch, out_ch, kernel, stride, pad, side)) in geometries.iter().enumerate() {
            for bias in [false, true] {
                let cfg = Conv2dConfig {
                    in_ch,
                    out_ch,
                    kernel,
                    stride,
                    pad,
                    h: side,
                    w: side,
                    in_groups: Some(8),
                    out_groups: Some(8),
                    bias,
                };
                let layer = || Conv2d::new("c", cfg.clone(), &mut SeededRng::new(gi as u64));
                for batch in [1, 3, 33] {
                    let dims = [batch, in_ch, side, side];
                    let x_full = ms_tensor::init::uniform(dims, 1.0, &mut SeededRng::new(7));
                    let mut l = layer();
                    l.prepack();
                    for (ri, &r) in rates.iter().enumerate() {
                        let case = format!("geometry {gi} bias {bias} batch {batch} rate {r}");
                        l.set_slice_rate(r);
                        let (a_in, a_out) = l.active_channels();
                        let x = channel_prefix(&x_full, a_in);
                        let k_rows = a_in * l.k2();
                        let direct = per_sample_reference(&mut l, &x, &[0, a_out], &[k_rows]);
                        let y = l.forward(&x, Mode::Infer);
                        assert_eq!(bits(y.data()), bits(&direct), "Infer, {case}");
                        for held in [false, true] {
                            let _team = held.then(hold_helper);
                            let y = l.forward(&x, Mode::Train);
                            assert_eq!(bits(y.data()), bits(&direct), "Train held {held}, {case}");
                        }

                        let g_to = ri + 1;
                        let steps = (l.group_rows[..=g_to].to_vec(), l.group_k[..g_to].to_vec());
                        let prefix = per_sample_reference(&mut l, &x, &steps.0, &steps.1);
                        let y = l.forward_prefix(&x, None, r);
                        assert_eq!(bits(y.data()), bits(&prefix), "prefix from None, {case}");
                        for &from in &rates[..ri] {
                            let mut climbing = layer();
                            climbing.set_slice_rate(from);
                            let x_from = channel_prefix(&x_full, climbing.active_channels().0);
                            climbing.forward_prefix(&x_from, None, from).recycle();
                            let y = climbing.forward_prefix(&x, Some(from), r);
                            assert_eq!(bits(y.data()), bits(&prefix), "prefix from {from}, {case}");
                        }
                    }
                }
            }
        }
    }

    /// The backward the column-free one replaced, kept as its oracle: per
    /// chunk, each sample's columns written by `im2col` and `dY` copied side
    /// by side, `dW += dY · colsᵀ` by `gemm`, `db` summed per row, `Wᵀ · dY`
    /// by `gemm` scattered back by `col2im`; the batch cut in the layer's two
    /// parts, the second summed into a zeroed partial added after. Returns
    /// `dx` and the full-size `dW`, `db` of a layer whose gradients were zero.
    fn backward_reference(l: &Conv2d, x: &Tensor, dy: &Tensor) -> [Vec<f32>; 3] {
        let (a_in, a_out, g) = (l.active_in, l.active_out, l.geom);
        let (batch, out_len) = (x.dims()[0], g.out_len());
        let (k_rows, full_k) = (a_in * l.k2(), l.cfg.in_ch * l.k2());
        let per_x = a_in * g.h * g.w;
        let mut dx = vec![0.0f32; batch * per_x];
        let (mut dw, mut db) = (vec![0.0f32; l.cfg.out_ch * full_k], vec![0.0; l.cfg.out_ch]);
        let (mut dw1, mut db1) = (vec![0.0f32; a_out * k_rows], vec![0.0; a_out]);
        let (mid, per) = (par::mid(batch), l.samples_per_gemm(batch));
        let parts = [
            (0..mid, &mut dw, full_k, &mut db),
            (mid..batch, &mut dw1, k_rows, &mut db1),
        ];
        for (part, dw, ldw, db) in parts {
            for first in part.clone().step_by(per) {
                let n = per.min(part.end - first);
                let ld = n * out_len;
                let (mut col, mut dyc) = (vec![0.0f32; k_rows * ld], vec![0.0f32; a_out * ld]);
                for i in 0..n {
                    im2col(x.row(first + i), a_in, &g, &mut col, ld, i * out_len);
                    for (ch, row) in dy.row(first + i).chunks_exact(out_len).enumerate() {
                        dyc[ch * ld + i * out_len..][..out_len].copy_from_slice(row);
                    }
                }
                let (no, yes) = (Trans::No, Trans::Yes);
                gemm(
                    no, yes, a_out, k_rows, ld, 1.0, &dyc, ld, &col, ld, 1.0, dw, ldw,
                );
                for (g, row) in db.iter_mut().zip(dyc.chunks_exact(ld)) {
                    *g += row.iter().sum::<f32>();
                }
                let w = l.weight.value.data();
                let mut dcol = vec![0.0f32; k_rows * ld];
                gemm(
                    yes, no, k_rows, ld, a_out, 1.0, w, full_k, &dyc, ld, 0.0, &mut dcol, ld,
                );
                for i in 0..n {
                    let dx_s = &mut dx[(first + i) * per_x..][..per_x];
                    col2im(&dcol, a_in, &g, dx_s, ld, i * out_len);
                }
            }
        }
        if mid < batch {
            for (row, part) in dw.chunks_mut(full_k).zip(dw1.chunks_exact(k_rows)) {
                row.iter_mut().zip(part).for_each(|(g, p)| *g += p);
            }
            db.iter_mut().zip(&db1).for_each(|(g, p)| *g += p);
        }
        [dx, dw, db]
    }

    /// The backward writes no column matrix and changes no bit of `dW` or
    /// `db`: against the `im2col` + `gemm` + `col2im` oracle, bitwise, and
    /// `dX` bitwise where it is still scattered by `col2im` (strided, and
    /// `pad ≥ K`) and within 1e-5 where it is the convolution of `dY` with
    /// the flipped weights ("same" and pointwise), which sums it in another
    /// order. Every rate of g = 8, batches of one chunk, of an uneven last
    /// chunk and of many, the helper held and free, bias on.
    #[test]
    fn column_free_backward_matches_the_written_columns() {
        // (in, out, kernel, stride, pad, side, dX a convolution of dY)
        let geometries = [
            (16, 32, 3, 1, 1, 4, true),
            (8, 16, 3, 1, 1, 8, true),
            (24, 8, 1, 1, 0, 5, true),
            (8, 24, 3, 2, 1, 7, false),
            (8, 16, 1, 1, 1, 5, false),
        ];
        for (gi, &(in_ch, out_ch, kernel, stride, pad, side, transposed)) in
            geometries.iter().enumerate()
        {
            let cfg = Conv2dConfig {
                in_ch,
                out_ch,
                kernel,
                stride,
                pad,
                h: side,
                w: side,
                in_groups: Some(8),
                out_groups: Some(8),
                bias: true,
            };
            let mut l = Conv2d::new("c", cfg, &mut SeededRng::new(gi as u64));
            assert_eq!(l.geom_t.is_some(), transposed, "geometry {gi}");
            let (oh, ow) = l.out_hw();
            for batch in [1, 3, 33] {
                let dims = [batch, in_ch, side, side];
                let x_full = ms_tensor::init::uniform(dims, 1.0, &mut SeededRng::new(7));
                let dy_full =
                    ms_tensor::init::uniform([batch, out_ch, oh, ow], 1.0, &mut SeededRng::new(8));
                for r in (1..=8).map(|i| SliceRate::new(i as f32 / 8.0)) {
                    l.set_slice_rate(r);
                    let (a_in, a_out) = l.active_channels();
                    let (x, dy) = (
                        channel_prefix(&x_full, a_in),
                        channel_prefix(&dy_full, a_out),
                    );
                    let [want_dx, want_dw, want_db] = backward_reference(&l, &x, &dy);
                    for held in [false, true] {
                        let case = format!("geometry {gi} batch {batch} rate {r} held {held}");
                        let _team = held.then(hold_helper);
                        l.visit_params(&mut |p| p.zero_grad());
                        l.forward(&x, Mode::Train).recycle();
                        let dx = l.backward(&dy);
                        assert_eq!(
                            bits(l.weight.grad.get().unwrap().data()),
                            bits(&want_dw),
                            "dW, {case}"
                        );
                        let db = l.bias.as_ref().expect("bias").grad.get().unwrap().data();
                        assert_eq!(bits(db), bits(&want_db), "db, {case}");
                        if !transposed {
                            assert_eq!(bits(dx.data()), bits(&want_dx), "dX, {case}");
                        }
                        for (i, (&got, &want)) in dx.data().iter().zip(&want_dx).enumerate() {
                            let close = (got - want).abs() <= 1e-5 * want.abs().max(1.0);
                            assert!(close, "dX[{i}] {got} vs {want}, {case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sliced_output_is_prefix_of_full() {
        // Input not sliced, output sliced: first channels must match the
        // full forward exactly (subsumption property).
        let mut rng = SeededRng::new(6);
        let mut l = Conv2d::new(
            "c",
            Conv2dConfig {
                in_ch: 3,
                out_ch: 8,
                kernel: 3,
                stride: 1,
                pad: 1,
                h: 5,
                w: 5,
                in_groups: None,
                out_groups: Some(4),
                bias: true,
            },
            &mut rng,
        );
        let x = Tensor::from_vec(
            [1, 3, 5, 5],
            (0..75).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        let full = l.forward(&x, Mode::Infer);
        l.set_slice_rate(SliceRate::new(0.5));
        let half = l.forward(&x, Mode::Infer);
        assert_eq!(half.dims(), &[1, 4, 5, 5]);
        for c in 0..4 {
            for i in 0..5 {
                for j in 0..5 {
                    assert!((half.at(&[0, c, i, j]) - full.at(&[0, c, i, j])).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn prefix_refine_matches_fresh_pass_bitwise() {
        let mut data_rng = SeededRng::new(61);
        let x_full = Tensor::from_vec(
            [2, 8, 4, 4],
            (0..256).map(|_| data_rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        let channel_prefix = |width: usize| {
            let data = (0..2)
                .flat_map(|s| x_full.data()[s * 128..s * 128 + width * 16].to_vec())
                .collect();
            Tensor::from_vec([2, width, 4, 4], data).unwrap()
        };
        for &(r1, r2) in &[(0.25f32, 0.5f32), (0.25, 1.0), (0.5, 0.75), (0.75, 1.0)] {
            let (r1, r2) = (SliceRate::new(r1), SliceRate::new(r2));
            let mut direct = conv(8, 8, 4, true);
            direct.set_slice_rate(r2);
            let x2 = channel_prefix(direct.active_channels().0);
            let want = direct.forward_prefix(&x2, None, r2);
            let mut refined = conv(8, 8, 4, true);
            refined.set_slice_rate(r1);
            let x1 = channel_prefix(refined.active_channels().0);
            let _ = refined.forward_prefix(&x1, None, r1);
            let got = refined.forward_prefix(&x2, Some(r1), r2);
            assert_eq!(want.dims(), got.dims());
            let wb: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(wb, gb, "conv refine {r1}→{r2} not bitwise");
        }
    }

    #[test]
    fn gradients_full_width() {
        let mut rng = SeededRng::new(7);
        let mut l = conv(3, 4, 4, true);
        let x = Tensor::from_vec(
            [2, 3, 4, 4],
            (0..96).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        assert_grads(&mut l, &x, &mut rng);
    }

    #[test]
    fn gradients_sliced() {
        let mut rng = SeededRng::new(8);
        let mut l = conv(4, 8, 4, false);
        l.set_slice_rate(SliceRate::new(0.5));
        let x = Tensor::from_vec(
            [2, 2, 4, 4],
            (0..64).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        assert_grads(&mut l, &x, &mut rng);
    }

    #[test]
    fn sliced_backward_confined_to_active_block() {
        let mut l = conv(4, 4, 3, false);
        l.set_slice_rate(SliceRate::new(0.25)); // 1 in-ch, 1 out-ch
        let x = Tensor::full([1, 1, 3, 3], 1.0);
        let _ = l.forward(&x, Mode::Train);
        let _ = l.backward(&Tensor::full([1, 1, 3, 3], 1.0));
        let g = l.weight.grad.get().unwrap();
        let k2 = 9;
        for o in 0..4 {
            for idx in 0..4 * k2 {
                let v = g.at(&[o, idx]);
                if o == 0 && idx < k2 {
                    assert!(v != 0.0, "active ({o},{idx}) should receive grad");
                } else {
                    assert_eq!(v, 0.0, "inactive ({o},{idx}) leaked grad");
                }
            }
        }
    }
}
