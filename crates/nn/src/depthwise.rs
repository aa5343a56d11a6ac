//! Sliceable depthwise convolution — the §3.5 claim that group residual
//! learning "is ideally suited for networks with layer transformation of
//! multiple branches, e.g. … depth-wise convolution" (the MobileNet op).
//!
//! A depthwise conv applies one spatial kernel per channel (`y_c = k_c ∗
//! x_c`); because channel `c`'s output depends only on channel `c`'s input,
//! slicing is trivial and *exactly* quadratic-free: cost is linear in the
//! active channel count, and the active prefix is independent of the
//! inactive channels by construction. Combined with a sliced 1×1 pointwise
//! conv (a [`crate::conv2d::Conv2d`] with kernel 1) this gives the
//! MobileNet-style separable block at any width.

use crate::layer::{Layer, Mode, Param};
use crate::slice::{active_units, SliceRate};
use crate::workspace::PrefixCache;
use ms_tensor::conv::ConvGeom;
use ms_tensor::{init, SeededRng, Tensor};

/// Configuration for a [`DepthwiseConv2d`].
#[derive(Debug, Clone)]
pub struct DepthwiseConv2dConfig {
    /// Channel count (input == output for depthwise).
    pub channels: usize,
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
    /// Slicing groups; `None` pins the layer at full width.
    pub groups: Option<usize>,
}

/// Depthwise (per-channel) convolution.
pub struct DepthwiseConv2d {
    cfg: DepthwiseConv2dConfig,
    name: String,
    geom: ConvGeom,
    weight: Param, // [channels, k*k]
    bias: Param,   // [channels]
    active: usize,
    cache: Option<Tensor>,
    prefix: PrefixCache, // per-channel outputs of the last prefix pass
}

impl DepthwiseConv2d {
    /// Creates the layer (Kaiming init with fan-in `k²`).
    pub fn new(name: impl Into<String>, cfg: DepthwiseConv2dConfig, rng: &mut SeededRng) -> Self {
        let name = name.into();
        let geom = ConvGeom {
            h: cfg.h,
            w: cfg.w,
            kh: cfg.kernel,
            kw: cfg.kernel,
            stride: cfg.stride,
            pad: cfg.pad,
        };
        assert!(geom.is_valid(), "{name}: invalid geometry {geom:?}");
        if let Some(g) = cfg.groups {
            assert!(g >= 1 && g <= cfg.channels);
        }
        let k2 = cfg.kernel * cfg.kernel;
        DepthwiseConv2d {
            weight: Param::new(
                format!("{name}.weight"),
                init::kaiming_normal([cfg.channels, k2], k2, rng),
                true,
            ),
            bias: Param::new(format!("{name}.bias"), Tensor::zeros([cfg.channels]), false),
            active: cfg.channels,
            geom,
            cfg,
            name,
            cache: None,
            prefix: PrefixCache::default(),
        }
    }

    /// Currently active channel count.
    pub fn active_channels(&self) -> usize {
        self.active
    }

    /// The output of the batch `x`; caches nothing. Every output plane is
    /// set to its bias before the kernel accumulates into it.
    fn forward_pass(&self, x: &Tensor) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "{}: expect [B,C,H,W]", self.name);
        let (batch, c) = (dims[0], dims[1]);
        assert_eq!(c, self.active, "{}: channels", self.name);
        let (oh, ow) = (self.geom.out_h(), self.geom.out_w());
        let out_len = oh * ow;
        let in_len = self.geom.h * self.geom.w;
        let mut y = Tensor::pooled_stale([batch, c, oh, ow]);
        for s in 0..batch {
            for ch in 0..c {
                let plane = &x.row(s)[ch * in_len..(ch + 1) * in_len];
                let kernel = self.weight.value.row(ch);
                let bias = self.bias.value.data()[ch];
                let out = &mut y.row_mut(s)[ch * out_len..(ch + 1) * out_len];
                out.iter_mut().for_each(|v| *v = bias);
                conv_plane(&self.geom, plane, kernel, out);
            }
        }
        y
    }
}

/// Convolves one channel plane with one kernel, accumulating into `out`.
fn conv_plane(g: &ConvGeom, plane: &[f32], kernel: &[f32], out: &mut [f32]) {
    let (oh, ow) = (g.out_h(), g.out_w());
    for oy in 0..oh {
        for ox in 0..ow {
            let mut acc = 0.0f32;
            for ki in 0..g.kh {
                let iy = (oy * g.stride + ki) as isize - g.pad as isize;
                if iy < 0 || iy as usize >= g.h {
                    continue;
                }
                for kj in 0..g.kw {
                    let ix = (ox * g.stride + kj) as isize - g.pad as isize;
                    if ix < 0 || ix as usize >= g.w {
                        continue;
                    }
                    acc += kernel[ki * g.kw + kj] * plane[iy as usize * g.w + ix as usize];
                }
            }
            out[oy * ow + ox] += acc;
        }
    }
}

/// Correlates dy with the input plane to get kernel gradients, and
/// scatters dy through the kernel to get the input-plane gradient.
fn backward_plane(
    g: &ConvGeom,
    plane: &[f32],
    kernel: &[f32],
    dy: &[f32],
    dkernel: &mut [f32],
    dplane: &mut [f32],
) {
    let (oh, ow) = (g.out_h(), g.out_w());
    for oy in 0..oh {
        for ox in 0..ow {
            let gout = dy[oy * ow + ox];
            if gout == 0.0 {
                continue;
            }
            for ki in 0..g.kh {
                let iy = (oy * g.stride + ki) as isize - g.pad as isize;
                if iy < 0 || iy as usize >= g.h {
                    continue;
                }
                for kj in 0..g.kw {
                    let ix = (ox * g.stride + kj) as isize - g.pad as isize;
                    if ix < 0 || ix as usize >= g.w {
                        continue;
                    }
                    let flat = iy as usize * g.w + ix as usize;
                    dkernel[ki * g.kw + kj] += gout * plane[flat];
                    dplane[flat] += gout * kernel[ki * g.kw + kj];
                }
            }
        }
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        // Inference reads `x` where it is; training keeps a copy.
        match mode {
            Mode::Train => self.forward_owned(x.pooled_clone(), mode),
            Mode::Infer => self.forward_pass(x),
        }
    }

    fn forward_owned(&mut self, x: Tensor, mode: Mode) -> Tensor {
        let y = self.forward_pass(&x);
        match mode {
            Mode::Train => self.cache = Some(x),
            Mode::Infer => x.recycle(),
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.cache.take().expect("backward before Train forward");
        let (batch, c) = (x.dims()[0], x.dims()[1]);
        let out_len = self.geom.out_len();
        let in_len = self.geom.h * self.geom.w;
        let mut dx = Tensor::pooled_zeros(x.shape().clone());
        let w = &mut self.weight;
        for s in 0..batch {
            for ch in 0..c {
                let plane = &x.row(s)[ch * in_len..(ch + 1) * in_len];
                let dys = &dy.row(s)[ch * out_len..(ch + 1) * out_len];
                self.bias.grad.get_mut().data_mut()[ch] += dys.iter().sum::<f32>();
                // `value` and `grad` are disjoint fields, so the kernel can
                // be read while its gradient row is written — no copies.
                let kernel = w.value.row(ch);
                let dkernel = w.grad.get_mut().row_mut(ch);
                let dplane = &mut dx.row_mut(s)[ch * in_len..(ch + 1) * in_len];
                backward_plane(&self.geom, plane, kernel, dys, dkernel, dplane);
            }
        }
        x.recycle();
        dx
    }

    fn forward_prefix(&mut self, x: &Tensor, from: Option<SliceRate>, to: SliceRate) -> Tensor {
        // Channels are independent, so the delta is *exact*: refining only
        // convolves the channels the narrower pass skipped. No panels needed
        // — each channel is already a self-contained unit of work.
        let Some(g) = self.cfg.groups else {
            self.set_slice_rate(to);
            return self.forward(x, Mode::Infer);
        };
        if let Some(f) = from {
            debug_assert!(f.get() <= to.get(), "refine must go upward: {f} → {to}");
        }
        self.set_slice_rate(to);
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "{}: expect [B,C,H,W]", self.name);
        let (batch, c) = (dims[0], dims[1]);
        assert_eq!(c, self.active, "{}: channels", self.name);
        let channels = self.cfg.channels;
        let out_len = self.geom.out_len();
        let in_len = self.geom.h * self.geom.w;
        let c_from = from.map_or(0, |r| active_units(channels, g, r));
        match from {
            None => self.prefix.begin(batch, channels * out_len),
            Some(_) => self
                .prefix
                .resume(batch, channels * out_len, c_from, &self.name),
        }
        for s in 0..batch {
            for ch in c_from..self.active {
                let plane = &x.row(s)[ch * in_len..(ch + 1) * in_len];
                let kernel = self.weight.value.row(ch);
                let bias = self.bias.value.data()[ch];
                let out = &mut self.prefix.buf[s * channels * out_len + ch * out_len..][..out_len];
                out.iter_mut().for_each(|v| *v = bias);
                conv_plane(&self.geom, plane, kernel, out);
            }
        }
        self.prefix.done = self.active;
        let mut y =
            Tensor::pooled_zeros([batch, self.active, self.geom.out_h(), self.geom.out_w()]);
        for s in 0..batch {
            y.row_mut(s).copy_from_slice(
                &self.prefix.buf[s * channels * out_len..][..self.active * out_len],
            );
        }
        y
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn set_slice_rate(&mut self, r: SliceRate) {
        self.active = match self.cfg.groups {
            Some(g) => active_units(self.cfg.channels, g, r),
            None => self.cfg.channels,
        };
    }

    fn flops_per_sample(&self) -> u64 {
        // Linear in active channels — the separable-conv efficiency story.
        (self.active * self.cfg.kernel * self.cfg.kernel * self.geom.out_len()) as u64
    }

    fn active_param_count(&self) -> u64 {
        (self.active * (self.cfg.kernel * self.cfg.kernel + 1)) as u64
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_grads;

    fn layer(channels: usize, hw: usize) -> DepthwiseConv2d {
        let mut rng = SeededRng::new(51);
        DepthwiseConv2d::new(
            "dw",
            DepthwiseConv2dConfig {
                channels,
                kernel: 3,
                stride: 1,
                pad: 1,
                h: hw,
                w: hw,
                groups: Some(channels.min(4)),
            },
            &mut rng,
        )
    }

    #[test]
    fn forward_shape_and_channel_independence() {
        let mut l = layer(4, 5);
        // Perturbing channel 3 must not affect channel 0's output.
        let x0 = Tensor::zeros([1, 4, 5, 5]);
        let y0 = l.forward(&x0, Mode::Infer);
        assert_eq!(y0.dims(), &[1, 4, 5, 5]);
        let mut x1 = x0.clone();
        for v in &mut x1.row_mut(0)[3 * 25..4 * 25] {
            *v = 9.0;
        }
        let y1 = l.forward(&x1, Mode::Infer);
        assert_eq!(&y0.data()[..25], &y1.data()[..25]);
        assert_ne!(&y0.data()[3 * 25..], &y1.data()[3 * 25..]);
    }

    #[test]
    fn slicing_is_linear_in_cost() {
        let mut l = layer(8, 4);
        let full = l.flops_per_sample();
        l.set_slice_rate(SliceRate::new(0.5));
        assert_eq!(l.active_channels(), 4);
        assert_eq!(l.flops_per_sample() * 2, full);
    }

    #[test]
    fn sliced_output_is_prefix_of_full() {
        let mut rng = SeededRng::new(52);
        let mut l = layer(8, 4);
        let x = Tensor::from_vec(
            [1, 8, 4, 4],
            (0..128).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        let full = l.forward(&x, Mode::Infer);
        l.set_slice_rate(SliceRate::new(0.5));
        let x_half = Tensor::from_vec([1, 4, 4, 4], x.data()[..64].to_vec()).unwrap();
        let half = l.forward(&x_half, Mode::Infer);
        for i in 0..64 {
            assert!((half.data()[i] - full.data()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn prefix_refine_matches_fresh_pass_bitwise() {
        let mut rng = SeededRng::new(55);
        let x_full = Tensor::from_vec(
            [2, 8, 4, 4],
            (0..256).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        let channel_prefix = |width: usize| {
            let data = (0..2)
                .flat_map(|s| x_full.data()[s * 128..s * 128 + width * 16].to_vec())
                .collect();
            Tensor::from_vec([2, width, 4, 4], data).unwrap()
        };
        for &(r1, r2) in &[(0.25f32, 0.5f32), (0.25, 1.0), (0.5, 1.0)] {
            let (r1, r2) = (SliceRate::new(r1), SliceRate::new(r2));
            let mut direct = layer(8, 4);
            direct.set_slice_rate(r2);
            let x2 = channel_prefix(direct.active_channels());
            let want = direct.forward_prefix(&x2, None, r2);
            let mut refined = layer(8, 4);
            refined.set_slice_rate(r1);
            let x1 = channel_prefix(refined.active_channels());
            let _ = refined.forward_prefix(&x1, None, r1);
            let got = refined.forward_prefix(&x2, Some(r1), r2);
            assert_eq!(want.dims(), got.dims());
            let wb: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(wb, gb, "depthwise refine {r1}→{r2} not bitwise");
        }
    }

    #[test]
    fn gradients_full_and_sliced() {
        let mut rng = SeededRng::new(53);
        let mut l = layer(4, 4);
        let x = Tensor::from_vec(
            [2, 4, 4, 4],
            (0..128).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        assert_grads(&mut l, &x, &mut rng);
        l.set_slice_rate(SliceRate::new(0.5));
        let x = Tensor::from_vec(
            [2, 2, 4, 4],
            (0..64).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        assert_grads(&mut l, &x, &mut rng);
    }

    #[test]
    fn strided_downsampling() {
        let mut rng = SeededRng::new(54);
        let mut l = DepthwiseConv2d::new(
            "dw",
            DepthwiseConv2dConfig {
                channels: 2,
                kernel: 3,
                stride: 2,
                pad: 1,
                h: 6,
                w: 6,
                groups: None,
            },
            &mut rng,
        );
        let y = l.forward(&Tensor::zeros([1, 2, 6, 6]), Mode::Infer);
        assert_eq!(y.dims(), &[1, 2, 3, 3]);
    }
}
