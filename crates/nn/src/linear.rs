//! The sliceable dense (fully-connected) layer — paper §3.1, Figure 1.
//!
//! The weight is stored once at full size `[N, M]` row-major. Under a slice
//! rate `r` the layer multiplies only the top-left `a_out × a_in` block
//! (leading dimension `M`, so no copy), adds the first `a_out` bias entries,
//! and — when `input_rescale` is set — multiplies by `M / a_in` to keep
//! pre-activation magnitudes slice-invariant (the paper's "output rescaling"
//! used for dense/recurrent layers, §5.2.2; convolutional stacks rely on
//! sliced GroupNorm instead).
//!
//! The weight is the one copy of itself the layer holds: every forward
//! multiplies it where it lies, as the GEMM's left operand
//! ([`linear_in_place`], [`gemm_in_place_a`]: `yᵀ = scale · W_active·xᵀ`,
//! transposed into `y` with the bias). There are no panels to pack,
//! invalidate or release, and a weight write is seen by the next forward
//! in any mode. A forward computes what `gemm` computes on the same
//! operands — its small-problem loops at or below `SMALL_GEMM_CUTOFF`, its
//! packed kernel above — whatever was packed or written before it; the
//! prefix passes stay on the packed kernel at every size, so the refine
//! ladder's bits do not depend on the batch.

use crate::layer::{BoxedLayer, Layer, Mode, Param};
use crate::slice::{active_groups, active_units, group_boundary, prefix_input_width, SliceRate};
use crate::workspace::PrefixCache;
use ms_tensor::matmul::{gemm, Operand, Trans, SMALL_GEMM_CUTOFF};
use ms_tensor::panels::{gemm_in_place_a, linear_in_place, store_out_major};
use ms_tensor::{init, par, SeededRng, Tensor};
use std::ops::Range;

/// Configuration for a [`Linear`] layer.
#[derive(Debug, Clone)]
pub struct LinearConfig {
    /// Full input dimension `M`.
    pub in_dim: usize,
    /// Full output dimension `N`.
    pub out_dim: usize,
    /// Input-side group count; `None` pins the input at full width
    /// (first layer of a network).
    pub in_groups: Option<usize>,
    /// Output-side group count; `None` pins the output at full width
    /// (classifier/decoder layers).
    pub out_groups: Option<usize>,
    /// Whether to include a bias vector.
    pub bias: bool,
    /// Rescale pre-activations by `M / a_in` when the input is sliced.
    pub input_rescale: bool,
}

impl LinearConfig {
    /// A plain un-sliced dense layer.
    pub fn dense(in_dim: usize, out_dim: usize) -> Self {
        LinearConfig {
            in_dim,
            out_dim,
            in_groups: None,
            out_groups: None,
            bias: true,
            input_rescale: false,
        }
    }
}

/// Sliceable dense layer `y = scale · (x · W_activeᵀ) + b`.
pub struct Linear {
    cfg: LinearConfig,
    name: String,
    weight: Param, // [out_dim, in_dim]
    bias: Option<Param>,
    active_in: usize,
    active_out: usize,
    cache: Option<Tensor>, // input of the last Train forward
    prefix: PrefixCache,   // out-major product of the last prefix pass
}

impl Linear {
    /// Creates the layer with Kaiming-normal weights (fan-in = full `M`).
    pub fn new(name: impl Into<String>, cfg: LinearConfig, rng: &mut SeededRng) -> Self {
        assert!(cfg.in_dim > 0 && cfg.out_dim > 0);
        if let Some(g) = cfg.in_groups {
            assert!(g >= 1 && g <= cfg.in_dim, "in_groups {g} vs {}", cfg.in_dim);
        }
        if let Some(g) = cfg.out_groups {
            assert!(g >= 1 && g <= cfg.out_dim);
        }
        let name = name.into();
        let weight = Param::new(
            format!("{name}.weight"),
            init::kaiming_normal([cfg.out_dim, cfg.in_dim], cfg.in_dim, rng),
            true,
        );
        let bias = cfg
            .bias
            .then(|| Param::new(format!("{name}.bias"), Tensor::zeros([cfg.out_dim]), false));
        let active_in = cfg.in_dim;
        let active_out = cfg.out_dim;
        Linear {
            cfg,
            name,
            weight,
            bias,
            active_in,
            active_out,
            cache: None,
            prefix: PrefixCache::default(),
        }
    }

    /// Currently active `(in, out)` widths.
    pub fn active_dims(&self) -> (usize, usize) {
        (self.active_in, self.active_out)
    }

    /// Immutable weight access (deployment/extraction).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Immutable bias access.
    pub fn bias(&self) -> Option<&Param> {
        self.bias.as_ref()
    }

    fn rescale(&self) -> f32 {
        self.rescale_at(self.active_in)
    }

    /// The canonical rescale of a prefix computed from `k` input units.
    fn rescale_at(&self, k: usize) -> f32 {
        if self.cfg.input_rescale && k < self.cfg.in_dim {
            self.cfg.in_dim as f32 / k as f32
        } else {
            1.0
        }
    }

    /// The first `units` bias entries, if the layer has a bias.
    fn bias_prefix(&self, units: usize) -> Option<&[f32]> {
        self.bias.as_ref().map(|b| &b.value.data()[..units])
    }

    /// `xᵀ` as the right-hand operand of a product with the weight on the
    /// left: column `i` of it is row `i` of `x`.
    fn x_t<'x>(&self, x: &'x Tensor) -> Operand<'x> {
        Operand::Matrix(Trans::Yes, x.data(), self.active_in)
    }

    /// `y = scale · S + b` for an out-major prefix sum `S` (`units` rows of
    /// the cached batch), written row-major into a fresh `[batch, units]`.
    fn read_out(&self, units: usize, scale: f32) -> Tensor {
        let (batch, bias) = (self.prefix.batch, self.bias_prefix(units));
        let mut y = Tensor::pooled_stale([batch, units]);
        let (sums, out) = (&self.prefix.buf, y.data_mut());
        store_out_major(sums, batch, units, batch, scale, bias, out, units);
        y
    }

    /// Where a training pass over `batch` rows is cut: the `(batch rows,
    /// output units)` that part 0 takes, part 1 taking the rest.
    ///
    /// * A pass too small for its halves to stay on `gemm`'s packed kernel
    ///   is not cut at all — `(batch, a_out)`: a piece that small is not
    ///   worth a handoff, and pieces that do stay on the packed kernel
    ///   produce, element for element, the bits of the uncut multiply. (The
    ///   three GEMMs of a pass all multiply `batch · a_in · a_out` terms, so
    ///   one test covers them.)
    /// * When the batch is the long side, both are halved ([`par::mid`]):
    ///   each part takes half the rows of `y` and `dx` and half the rows of
    ///   `dW`.
    /// * When the weights are (a wide layer at a small batch), halving the
    ///   rows would make both parts stream (the forward) or pack (`dx`) the
    ///   whole weight matrix, the dominant cost. The forward then stays
    ///   whole and the backward splits
    ///   by *task* instead — `(batch, 0)`: part 0 computes all of `dx`,
    ///   part 1 all of `dW` and `db`, each the very GEMM the uncut pass
    ///   runs.
    fn cut(&self, batch: usize) -> (usize, usize) {
        let (a_in, a_out) = (self.active_in, self.active_out);
        let smallest_half = (batch / 2 * a_out).min(a_out / 2 * batch) * a_in;
        if smallest_half <= SMALL_GEMM_CUTOFF {
            (batch, a_out)
        } else if batch >= a_in.max(a_out) {
            (par::mid(batch), par::mid(a_out))
        } else {
            (batch, 0)
        }
    }

    /// `y = scale · x · W_activeᵀ + b` for the rows `x` holds (`y` zeroed or
    /// not: it is overwritten), with `gemm`'s bits; the active block is the
    /// top-left corner of the weight, read in place.
    fn forward_rows(&self, x: &[f32], y: &mut [f32]) {
        let (a_in, a_out, scale) = (self.active_in, self.active_out, self.rescale());
        let (w, ld) = (self.weight.value.data(), self.cfg.in_dim);
        let (rows, bias) = (x.len() / a_in, self.bias_prefix(a_out));
        linear_in_place(rows, a_in, a_out, scale, x, a_in, w, ld, bias, y, a_out);
    }

    /// `y = scale · x · W_activeᵀ + b` over the whole batch `x`, leading
    /// dimensions kept: the training pass runs the two fixed parts of the
    /// batch, inference all rows at once. Caches nothing.
    fn forward_pass(&self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(
            dims.last().copied(),
            Some(self.active_in),
            "{}: input width {:?} != active_in {}",
            self.name,
            dims.last(),
            self.active_in
        );
        let batch = x.numel() / self.active_in;
        // Every element is written (`beta = 0`) before the bias is added.
        let mut y = Tensor::pooled_stale([batch, self.active_out]);
        let row_mid = if mode == Mode::Train {
            self.cut(batch).0
        } else {
            batch
        };
        if row_mid < batch {
            let (x0, x1) = x.data().split_at(row_mid * self.active_in);
            let (y0, y1) = y.data_mut().split_at_mut(row_mid * self.active_out);
            par::join(|| self.forward_rows(x0, y0), || self.forward_rows(x1, y1));
        } else {
            self.forward_rows(x.data(), y.data_mut());
        }
        // Preserve leading dims, replacing the trailing one.
        if dims.len() > 2 {
            y.reshape(x.shape().with_last_dim(self.active_out))
                .expect("same numel")
        } else {
            y
        }
    }

    /// Prefix pass when the output side is grouped: each output group `h`
    /// is computed from its canonical input width `k(h)` with its canonical
    /// rescale `M / k(h)` — pure functions of `h`, so a refined group runs
    /// exactly the ops a fresh pass would run.
    fn prefix_out_grouped(&mut self, x: &Tensor, from: Option<SliceRate>, go: usize) -> Tensor {
        let (in_dim, out_dim) = (self.cfg.in_dim, self.cfg.out_dim);
        let batch = x.numel() / self.active_in;
        let g_from = from.map_or(0, |r| active_groups(out_dim, go, r));
        // active_out is a group boundary by construction; recover the index.
        let g_to = (1..=go)
            .find(|&h| group_boundary(out_dim, go, h) == self.active_out)
            .expect("active_out must sit on a group boundary");
        match from {
            None => self.prefix.begin(batch, out_dim),
            Some(_) => {
                let done = group_boundary(out_dim, go, g_from);
                self.prefix.resume(batch, out_dim, done, &self.name);
            }
        }
        let (w, x_t) = (self.weight.value.data(), self.x_t(x));
        for h in (g_from + 1)..=g_to {
            let c0 = group_boundary(out_dim, go, h - 1);
            let c1 = group_boundary(out_dim, go, h);
            let k_h = prefix_input_width(in_dim, self.cfg.in_groups, out_dim, go, h);
            let (alpha, c) = (self.rescale_at(k_h), &mut self.prefix.buf[c0 * batch..]);
            gemm_in_place_a(c0..c1, 0..k_h, batch, alpha, w, in_dim, x_t, 0.0, c, batch);
        }
        self.prefix.done = group_boundary(out_dim, go, g_to);
        self.read_out(self.active_out, 1.0)
    }

    /// Prefix pass for classifier-shaped layers (grouped input, full-width
    /// output): the cache holds the **unscaled** running sum over input
    /// groups, each group's `k` range added in a call of its own; the
    /// readout `y = scale · S + b` is recomputed per call at the current
    /// rate's rescale.
    fn prefix_in_grouped(&mut self, x: &Tensor, from: Option<SliceRate>, gi: usize) -> Tensor {
        let (in_dim, out_dim) = (self.cfg.in_dim, self.cfg.out_dim);
        let batch = x.numel() / self.active_in;
        let j_from = from.map_or(0, |r| active_groups(in_dim, gi, r));
        let j_to = (1..=gi)
            .find(|&j| group_boundary(in_dim, gi, j) == self.active_in)
            .expect("active_in must sit on a group boundary");
        match from {
            None => self.prefix.begin(batch, out_dim),
            Some(_) => {
                let done = group_boundary(in_dim, gi, j_from);
                self.prefix.resume(batch, out_dim, done, &self.name);
            }
        }
        let (w, x_t) = (self.weight.value.data(), self.x_t(x));
        for j in (j_from + 1)..=j_to {
            let k0 = group_boundary(in_dim, gi, j - 1);
            let k1 = group_boundary(in_dim, gi, j);
            let c = &mut self.prefix.buf;
            gemm_in_place_a(
                0..out_dim,
                k0..k1,
                batch,
                1.0,
                w,
                in_dim,
                x_t,
                1.0,
                c,
                batch,
            );
        }
        self.prefix.done = group_boundary(in_dim, gi, j_to);
        self.read_out(out_dim, self.rescale())
    }

    /// Prefix pass for a fully dense layer (no grouped side): one canonical
    /// computation, cached whole and reused on refine.
    fn prefix_dense(&mut self, x: &Tensor, from: Option<SliceRate>) -> Tensor {
        let (in_dim, out_dim) = (self.cfg.in_dim, self.cfg.out_dim);
        let batch = x.numel() / in_dim;
        match from {
            None => {
                self.prefix.begin(batch, out_dim);
                let (w, c) = (self.weight.value.data(), &mut self.prefix.buf);
                let x_t = Operand::Matrix(Trans::Yes, x.data(), in_dim);
                gemm_in_place_a(
                    0..out_dim,
                    0..in_dim,
                    batch,
                    1.0,
                    w,
                    in_dim,
                    x_t,
                    0.0,
                    c,
                    batch,
                );
                self.prefix.done = out_dim;
            }
            Some(_) => self.prefix.resume(batch, out_dim, out_dim, &self.name),
        }
        self.read_out(out_dim, 1.0)
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        // Inference reads `x` where it is; training keeps a copy.
        match mode {
            Mode::Train => self.forward_owned(x.pooled_clone(), mode),
            Mode::Infer => self.forward_pass(x, mode),
        }
    }

    fn forward_owned(&mut self, x: Tensor, mode: Mode) -> Tensor {
        let y = self.forward_pass(&x, mode);
        match mode {
            Mode::Train => self.cache = Some(x),
            Mode::Infer => x.recycle(),
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let input = self.cache.take().expect("backward before Train forward");
        let (a_in, a_out, in_dim) = (self.active_in, self.active_out, self.cfg.in_dim);
        let batch = input.numel() / a_in;
        debug_assert_eq!(dy.numel(), batch * a_out);
        let scale = self.rescale();
        // Every row of `dx` is one part's `beta = 0` product.
        let mut dx = Tensor::pooled_stale(input.shape().clone());

        // Two fixed parts (see `cut`). `dx` splits over the batch rows like
        // the forward. `dW` and `db` sum over the batch, so they split over
        // *output* rows instead: each part reduces all samples into its own
        // rows of the gradient, and nothing is added up afterwards.
        let (row_mid, out_mid) = self.cut(batch);
        let (dx0, dx1) = dx.data_mut().split_at_mut(row_mid * a_in);
        let (dw0, dw1) = self
            .weight
            .grad
            .get_mut()
            .data_mut()
            .split_at_mut(out_mid * in_dim);
        let (db0, db1) = match &mut self.bias {
            Some(b) => {
                let (lo, hi) = b.grad.get_mut().data_mut()[..a_out].split_at_mut(out_mid);
                (Some(lo), Some(hi))
            }
            None => (None, None),
        };
        let (w, x, dy) = (self.weight.value.data(), input.data(), dy.data());
        let part = |rows: Range<usize>,
                    outs: Range<usize>,
                    dx: &mut [f32],
                    dw: &mut [f32],
                    db: Option<&mut [f32]>| {
            // dW[outs, 0..a_in] += scale * dy[:, outs]^T · x
            gemm(
                Trans::Yes,
                Trans::No,
                outs.len(),
                a_in,
                batch,
                scale,
                &dy[outs.start..],
                a_out,
                x,
                a_in,
                1.0,
                dw,
                in_dim,
            );
            if let Some(db) = db {
                ms_tensor::ops::sum_cols_into(dy, a_out, outs.start, db);
            }
            // dx[rows] = scale * dy[rows] · W[0..a_out, 0..a_in]
            gemm(
                Trans::No,
                Trans::No,
                rows.len(),
                a_in,
                a_out,
                scale,
                &dy[rows.start * a_out..],
                a_out,
                w,
                in_dim,
                0.0,
                dx,
                a_in,
            );
        };
        if row_mid < batch || out_mid < a_out {
            par::join(
                || part(0..row_mid, 0..out_mid, dx0, dw0, db0),
                || part(row_mid..batch, out_mid..a_out, dx1, dw1, db1),
            );
        } else {
            part(0..batch, 0..a_out, dx0, dw0, db0);
        }
        input.recycle();
        dx
    }

    fn forward_prefix(&mut self, x: &Tensor, from: Option<SliceRate>, to: SliceRate) -> Tensor {
        if let Some(f) = from {
            debug_assert!(f.get() <= to.get(), "refine must go upward: {f} → {to}");
        }
        self.set_slice_rate(to);
        let dims = x.dims();
        assert_eq!(
            dims.last().copied(),
            Some(self.active_in),
            "{}: prefix input width {:?} != active_in {}",
            self.name,
            dims.last(),
            self.active_in
        );
        let y = match (self.cfg.out_groups, self.cfg.in_groups) {
            (Some(go), _) => self.prefix_out_grouped(x, from, go),
            (None, Some(gi)) => self.prefix_in_grouped(x, from, gi),
            (None, None) => self.prefix_dense(x, from),
        };
        if dims.len() > 2 {
            y.reshape(x.shape().with_last_dim(self.active_out))
                .expect("same numel")
        } else {
            y
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn replica(&self) -> Option<BoxedLayer> {
        Some(Box::new(Linear {
            cfg: self.cfg.clone(),
            name: self.name.clone(),
            weight: self.weight.share(),
            bias: self.bias.as_ref().map(Param::share),
            active_in: self.active_in,
            active_out: self.active_out,
            cache: None,
            prefix: PrefixCache::default(),
        }))
    }

    fn set_slice_rate(&mut self, r: SliceRate) {
        self.active_in = match self.cfg.in_groups {
            Some(g) => active_units(self.cfg.in_dim, g, r),
            None => self.cfg.in_dim,
        };
        self.active_out = match self.cfg.out_groups {
            Some(g) => active_units(self.cfg.out_dim, g, r),
            None => self.cfg.out_dim,
        };
    }

    fn flops_per_sample(&self) -> u64 {
        (self.active_in * self.active_out) as u64
    }

    fn active_param_count(&self) -> u64 {
        let w = (self.active_in * self.active_out) as u64;
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

    fn layer(in_dim: usize, out_dim: usize, rescale: bool) -> Linear {
        let mut rng = SeededRng::new(11);
        Linear::new(
            "fc",
            LinearConfig {
                in_dim,
                out_dim,
                in_groups: Some(4),
                out_groups: Some(4),
                bias: true,
                input_rescale: rescale,
            },
            &mut rng,
        )
    }

    #[test]
    fn forward_shape_full_width() {
        let mut l = layer(8, 12, false);
        let x = Tensor::zeros([5, 8]);
        let y = l.forward(&x, Mode::Infer);
        assert_eq!(y.dims(), &[5, 12]);
    }

    #[test]
    fn slicing_changes_active_dims_and_shapes() {
        let mut l = layer(8, 12, false);
        l.set_slice_rate(SliceRate::new(0.5));
        assert_eq!(l.active_dims(), (4, 6));
        let x = Tensor::zeros([3, 4]);
        let y = l.forward(&x, Mode::Infer);
        assert_eq!(y.dims(), &[3, 6]);
        assert_eq!(l.flops_per_sample(), 24);
        assert_eq!(l.active_param_count(), 24 + 6);
    }

    #[test]
    fn sliced_output_matches_prefix_of_full_output() {
        // Without input slicing and rescaling, the first a_out outputs of the
        // sliced layer equal the same outputs of the full layer — the
        // prefix/subsumption property of §3.1.
        let mut rng = SeededRng::new(3);
        let mut l = Linear::new(
            "fc",
            LinearConfig {
                in_dim: 6,
                out_dim: 8,
                in_groups: None,
                out_groups: Some(4),
                bias: true,
                input_rescale: false,
            },
            &mut rng,
        );
        let x = Tensor::from_vec([2, 6], (0..12).map(|v| v as f32 * 0.1).collect()).unwrap();
        let full = l.forward(&x, Mode::Infer);
        l.set_slice_rate(SliceRate::new(0.5));
        let half = l.forward(&x, Mode::Infer);
        assert_eq!(half.dims(), &[2, 4]);
        for b in 0..2 {
            for j in 0..4 {
                assert!((half.at(&[b, j]) - full.at(&[b, j])).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn rescale_keeps_magnitude() {
        // With all-ones weights and inputs, a sliced+rescaled layer produces
        // the same outputs as the full layer.
        let mut rng = SeededRng::new(4);
        let mut l = Linear::new(
            "fc",
            LinearConfig {
                in_dim: 8,
                out_dim: 4,
                in_groups: Some(4),
                out_groups: None,
                bias: false,
                input_rescale: true,
            },
            &mut rng,
        );
        l.weight.value_mut().fill(1.0);
        let x_full = Tensor::full([1, 8], 1.0);
        let y_full = l.forward(&x_full, Mode::Infer);
        l.set_slice_rate(SliceRate::new(0.5));
        let x_half = Tensor::full([1, 4], 1.0);
        let y_half = l.forward(&x_half, Mode::Infer);
        for j in 0..4 {
            assert!((y_full.at(&[0, j]) - y_half.at(&[0, j])).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_full_width() {
        let mut rng = SeededRng::new(5);
        let mut l = layer(6, 5, false);
        let x =
            Tensor::from_vec([3, 6], (0..18).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap();
        assert_grads(&mut l, &x, &mut rng);
    }

    #[test]
    fn gradients_sliced_with_rescale() {
        let mut rng = SeededRng::new(6);
        let mut l = layer(8, 8, true);
        l.set_slice_rate(SliceRate::new(0.5));
        let x =
            Tensor::from_vec([3, 4], (0..12).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap();
        assert_grads(&mut l, &x, &mut rng);
    }

    #[test]
    fn sliced_backward_touches_only_active_block() {
        let mut l = layer(8, 8, false);
        l.set_slice_rate(SliceRate::new(0.5));
        let x = Tensor::full([2, 4], 1.0);
        let _ = l.forward(&x, Mode::Train);
        let dy = Tensor::full([2, 4], 1.0);
        let _ = l.backward(&dy);
        // Rows 4..8 and columns 4..8 of the weight grad must stay zero.
        for i in 0..8 {
            for j in 0..8 {
                let g = l.weight.grad.get().unwrap().at(&[i, j]);
                if i >= 4 || j >= 4 {
                    assert_eq!(g, 0.0, "grad leaked to inactive ({i},{j})");
                } else {
                    assert!(g != 0.0);
                }
            }
        }
        // Bias grad beyond a_out stays zero.
        let bg = l.bias.as_ref().unwrap().grad.get().unwrap().data();
        assert!(bg[..4].iter().all(|&v| v != 0.0));
        assert!(bg[4..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn higher_rank_inputs_keep_leading_dims() {
        let mut l = layer(8, 12, false);
        let x = Tensor::zeros([2, 3, 8]);
        let y = l.forward(&x, Mode::Infer);
        assert_eq!(y.dims(), &[2, 3, 12]);
    }

    /// Slices rows of a full-width input down to the active prefix width.
    fn prefix_input(full: &Tensor, width: usize) -> Tensor {
        let full_w = *full.dims().last().unwrap();
        let batch = full.numel() / full_w;
        let data = (0..batch)
            .flat_map(|i| full.data()[i * full_w..i * full_w + width].to_vec())
            .collect();
        Tensor::from_vec([batch, width], data).unwrap()
    }

    fn assert_bitwise(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.dims(), b.dims(), "{what}: shape");
        let ab: Vec<u32> = a.data().iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u32> = b.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb, "{what}: bits differ");
    }

    /// refine(r₁→r₂) must equal a fresh prefix pass at r₂ bit for bit, for
    /// every layer shape class (out-grouped, classifier, dense).
    #[test]
    fn prefix_refine_matches_fresh_pass_bitwise() {
        let cases = [
            (Some(3), Some(4), true), // hidden layer, ragged groups
            (Some(4), None, true),    // classifier head
            (None, Some(4), false),   // first layer (full-width input)
            (None, None, false),      // plain dense
        ];
        for (case_id, &(in_groups, out_groups, rescale)) in cases.iter().enumerate() {
            let mk = || {
                Linear::new(
                    "fc",
                    LinearConfig {
                        in_dim: 13,
                        out_dim: 11,
                        in_groups,
                        out_groups,
                        bias: true,
                        input_rescale: rescale,
                    },
                    &mut SeededRng::new(77),
                )
            };
            let mut data_rng = SeededRng::new(5 + case_id as u64);
            let x_full = Tensor::from_vec(
                [3, 13],
                (0..39).map(|_| data_rng.uniform(-1.0, 1.0)).collect(),
            )
            .unwrap();
            for &(r1, r2) in &[(0.3f32, 0.7f32), (0.3, 1.0), (0.7, 1.0), (0.5, 0.5)] {
                let (r1, r2) = (SliceRate::new(r1), SliceRate::new(r2));
                // Direct: fresh prefix pass at r2.
                let mut direct = mk();
                direct.set_slice_rate(r2);
                let x2 = prefix_input(&x_full, direct.active_dims().0);
                let want = direct.forward_prefix(&x2, None, r2);
                // Refined: base at r1, then refine to r2.
                let mut refined = mk();
                refined.set_slice_rate(r1);
                let x1 = prefix_input(&x_full, refined.active_dims().0);
                let _ = refined.forward_prefix(&x1, None, r1);
                let got = refined.forward_prefix(&x2, Some(r1), r2);
                assert_bitwise(&want, &got, &format!("case {case_id} {r1}→{r2}"));
            }
        }
    }

    /// A weight write through `visit_params` is seen by the next prefix
    /// pass, bit for bit what a layer built with those weights computes.
    #[test]
    fn prefix_passes_see_weight_updates() {
        let mut l = layer(8, 8, false);
        let x = Tensor::full([2, 8], 0.5);
        let before = l.forward_prefix(&x, None, SliceRate::FULL);
        l.visit_params(&mut |p| {
            if p.name.ends_with("weight") {
                p.value_mut().fill(0.25);
            }
        });
        let after = l.forward_prefix(&x, None, SliceRate::FULL);
        assert!(before.data() != after.data(), "old weights answered");
        let mut fresh = layer(8, 8, false);
        fresh.visit_params(&mut |p| {
            if p.name.ends_with("weight") {
                p.value_mut().fill(0.25);
            }
        });
        let want = fresh.forward_prefix(&x, None, SliceRate::FULL);
        assert_bitwise(&want, &after, "rewritten weights");
    }

    /// A weight write is seen bit for bit by the next forward, in every
    /// mode, with nothing to pack: `Infer`, `Train` and a prefix pass after
    /// a `visit_params` write equal a never-written layer built with the new
    /// weights — at a product under `gemm`'s small-problem cutoff and at one
    /// over it — and the layer has no panels to pack or release.
    #[test]
    fn a_weight_write_is_seen_bit_for_bit_by_the_next_forward() {
        let rewrite = |l: &mut Linear| {
            let mut rng = SeededRng::new(31);
            l.visit_params(&mut |p| {
                if p.name.ends_with("weight") {
                    p.value_mut()
                        .data_mut()
                        .iter_mut()
                        .for_each(|v| *v = rng.uniform(-1.0, 1.0));
                }
            })
        };
        for (batch, dim) in [(2, 8), (9, 48)] {
            let mut l = layer(dim, dim, true);
            assert!(!l.prepack(), "a Linear has no panels to pack");
            let x = Tensor::full([batch, dim], 0.5);
            let mut fresh = layer(dim, dim, true);
            rewrite(&mut fresh);
            let before = l.forward(&x, Mode::Infer);
            let _ = l.forward(&x, Mode::Train);
            let _ = l.forward_prefix(&x, None, SliceRate::FULL);
            rewrite(&mut l);
            let after = l.forward(&x, Mode::Infer);
            assert!(before.data() != after.data(), "old weights answered");
            for mode in [Mode::Infer, Mode::Train] {
                let what = format!("{batch}x{dim}x{dim} {mode:?}");
                assert_bitwise(&fresh.forward(&x, mode), &l.forward(&x, mode), &what);
            }
            let (want, got) = (
                fresh.forward_prefix(&x, None, SliceRate::FULL),
                l.forward_prefix(&x, None, SliceRate::FULL),
            );
            assert_bitwise(&want, &got, &format!("{batch}x{dim}x{dim} prefix"));
            l.release_panels();
            assert_bitwise(&l.forward(&x, Mode::Infer), &after, "after release_panels");
        }
    }

    /// A refine against a cache from a different batch must panic loudly,
    /// not corrupt logits.
    #[test]
    #[should_panic(expected = "stale prefix cache")]
    fn prefix_refine_rejects_stale_cache() {
        let mut l = layer(8, 8, false);
        let x1 = Tensor::full([2, 4], 1.0);
        let _ = l.forward_prefix(&x1, None, SliceRate::new(0.5));
        let x2 = Tensor::full([3, 8], 1.0);
        let _ = l.forward_prefix(&x2, Some(SliceRate::new(0.5)), SliceRate::FULL);
    }
}
