//! Convolution lowering (im2col/col2im) and pooling kernels.
//!
//! Layout conventions: a single sample is `[C, H, W]` row-major. The im2col
//! buffer is `[C·KH·KW, OH·OW]` row-major with the channel index *outermost*
//! in the row dimension — this is load-bearing for model slicing: the first
//! `c_act` input channels occupy the first `c_act·KH·KW` rows, i.e. a
//! contiguous prefix, so a sliced convolution is a plain sub-block GEMM (see
//! `crate::matmul`) with no data movement.

/// Geometry of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeom {
    /// Output height.
    #[inline]
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad).saturating_sub(self.kh) / self.stride + 1
    }

    /// Output width.
    #[inline]
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad).saturating_sub(self.kw) / self.stride + 1
    }

    /// Number of spatial output positions.
    #[inline]
    pub fn out_len(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Whether the geometry is valid (kernel fits in the padded input).
    pub fn is_valid(&self) -> bool {
        self.stride > 0
            && self.kh > 0
            && self.kw > 0
            && self.h + 2 * self.pad >= self.kh
            && self.w + 2 * self.pad >= self.kw
    }
}

/// Output positions `[lo, hi)` along one axis whose input coordinate
/// `o·stride + k_off − pad` lands inside `[0, len_in)`; everything outside
/// the span reads zero padding.
#[inline]
fn valid_span(
    len_in: usize,
    len_out: usize,
    k_off: usize,
    stride: usize,
    pad: usize,
) -> (usize, usize) {
    let lo = pad.saturating_sub(k_off).div_ceil(stride).min(len_out);
    let hi = if len_in + pad > k_off {
        ((len_in - 1 + pad - k_off) / stride + 1).min(len_out)
    } else {
        0
    };
    (lo, hi.max(lo))
}

/// Lowers `channels` input channels of a `[C, H, W]` sample into columns
/// `[col_off, col_off + OH·OW)` of the im2col matrix `col`, which is
/// `[channels·KH·KW, ld]` row-major.
///
/// One sample fills a matrix of its own with `ld = OH·OW` and `col_off = 0`;
/// a wider `ld` lays several samples side by side, so one GEMM covers all of
/// them. The sample's columns are fully overwritten and nothing else is
/// touched. Each `(c, ki, kj, oy)` output row is one contiguous
/// copy of the valid input span plus a zero fill of the padded edges (a
/// strided gather only when `stride > 1`) — no per-element bounds test; in
/// "same" geometry the rows of a tap fuse into a single copy.
pub fn im2col(
    input: &[f32],
    channels: usize,
    geom: &ConvGeom,
    col: &mut [f32],
    ld: usize,
    col_off: usize,
) {
    let _span = ms_telemetry::span!("conv.im2col");
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let out_len = oh * ow;
    let (h, w, stride, pad) = (geom.h, geom.w, geom.stride, geom.pad);
    debug_assert!(geom.is_valid(), "invalid conv geometry {geom:?}");
    debug_assert!(input.len() >= channels * h * w);
    if out_len == 0 || channels == 0 {
        return;
    }
    debug_assert!(col_off + out_len <= ld);
    debug_assert!(col.len() >= (channels * geom.kh * geom.kw - 1) * ld + col_off + out_len);

    // "Same" geometry (stride 1, output as wide as the input): the output
    // rows of one tap are adjacent in `col` and their sources adjacent in the
    // plane, so the whole valid block is one run at a fixed offset.
    let dense = stride == 1 && ow == w;
    let mut row = 0;
    for c in 0..channels {
        let plane = &input[c * h * w..(c + 1) * h * w];
        for ki in 0..geom.kh {
            let (oy_lo, oy_hi) = valid_span(h, oh, ki, stride, pad);
            for kj in 0..geom.kw {
                let (ox_lo, ox_hi) = valid_span(w, ow, kj, stride, pad);
                let dst = &mut col[row * ld + col_off..][..out_len];
                row += 1;
                if oy_lo == oy_hi || ox_lo == ox_hi {
                    dst.fill(0.0); // the tap only ever sees padding
                    continue;
                }
                dst[..oy_lo * ow].fill(0.0);
                dst[oy_hi * ow..].fill(0.0);
                // First valid input column; the span's last one is in range
                // by `valid_span`.
                let ix0 = ox_lo * stride + kj - pad;
                if dense {
                    let (d0, d1) = (oy_lo * ow + ox_lo, (oy_hi - 1) * ow + ox_hi);
                    let s0 = (oy_lo + ki - pad) * w + ix0;
                    dst[d0..d1].copy_from_slice(&plane[s0..s0 + (d1 - d0)]);
                    // The run wrapped the padding columns in from the
                    // neighbouring rows; they are few, so clear them down
                    // the column rather than row by row.
                    for ox in (0..ox_lo).chain(ox_hi..ow) {
                        for oy in oy_lo..oy_hi {
                            dst[oy * ow + ox] = 0.0;
                        }
                    }
                    continue;
                }
                for oy in oy_lo..oy_hi {
                    let src = &plane[(oy * stride + ki - pad) * w..][..w];
                    let out = &mut dst[oy * ow..(oy + 1) * ow];
                    out[..ox_lo].fill(0.0);
                    out[ox_hi..].fill(0.0);
                    let span = &mut out[ox_lo..ox_hi];
                    if stride == 1 {
                        span.copy_from_slice(&src[ix0..ix0 + span.len()]);
                    } else {
                        for (v, &x) in span.iter_mut().zip(src[ix0..].iter().step_by(stride)) {
                            *v = x;
                        }
                    }
                }
            }
        }
    }
}

/// Scatter-adds columns `[col_off, col_off + OH·OW)` of an im2col-layout
/// gradient (`[channels·KH·KW, ld]`, as [`im2col`] lays it out) back to the
/// input gradient (`dinput`, `[channels, H, W]`, accumulated — caller
/// zeroes it first). Walks the same valid spans as [`im2col`].
pub fn col2im(
    col: &[f32],
    channels: usize,
    geom: &ConvGeom,
    dinput: &mut [f32],
    ld: usize,
    col_off: usize,
) {
    let _span = ms_telemetry::span!("conv.col2im");
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let out_len = oh * ow;
    let (h, w, stride, pad) = (geom.h, geom.w, geom.stride, geom.pad);
    debug_assert!(dinput.len() >= channels * h * w);
    if out_len == 0 || channels == 0 {
        return;
    }
    debug_assert!(col_off + out_len <= ld);
    debug_assert!(col.len() >= (channels * geom.kh * geom.kw - 1) * ld + col_off + out_len);

    let mut row = 0;
    for c in 0..channels {
        let plane = &mut dinput[c * h * w..(c + 1) * h * w];
        for ki in 0..geom.kh {
            let (oy_lo, oy_hi) = valid_span(h, oh, ki, stride, pad);
            for kj in 0..geom.kw {
                let (ox_lo, ox_hi) = valid_span(w, ow, kj, stride, pad);
                let src = &col[row * ld + col_off..][..out_len];
                row += 1;
                if ox_lo == ox_hi {
                    continue;
                }
                let ix0 = ox_lo * stride + kj - pad;
                for oy in oy_lo..oy_hi {
                    let dst = &mut plane[(oy * stride + ki - pad) * w..][..w];
                    let span = &src[oy * ow + ox_lo..oy * ow + ox_hi];
                    if stride == 1 {
                        for (d, &g) in dst[ix0..ix0 + span.len()].iter_mut().zip(span) {
                            *d += g;
                        }
                    } else {
                        for (d, &g) in dst[ix0..].iter_mut().step_by(stride).zip(span) {
                            *d += g;
                        }
                    }
                }
            }
        }
    }
}

/// Max-pooling over one `[C, H, W]` sample. Writes the pooled output and,
/// when `argmax` is given (training), the flat index into the input plane of
/// each output cell's maximum for the backward pass; inference passes `None`.
/// The 2×2 / stride-2 / unpadded window every model here uses takes a
/// bounds-check-free loop either way; the output bits (and the indices) are
/// those of the general loop.
pub fn maxpool_forward(
    input: &[f32],
    channels: usize,
    geom: &ConvGeom,
    output: &mut [f32],
    mut argmax: Option<&mut [u32]>,
) {
    let _span = ms_telemetry::span!("pool.max");
    let (oh, ow) = (geom.out_h(), geom.out_w());
    debug_assert_eq!(output.len(), channels * oh * ow);
    debug_assert!(argmax.as_ref().is_none_or(|a| a.len() == output.len()));
    let halving = geom.kh == 2 && geom.kw == 2 && geom.stride == 2 && geom.pad == 0;
    for c in 0..channels {
        let plane = &input[c * geom.h * geom.w..(c + 1) * geom.h * geom.w];
        let out_plane = &mut output[c * oh * ow..(c + 1) * oh * ow];
        let arg_plane = argmax
            .as_deref_mut()
            .map(|a| &mut a[c * oh * ow..(c + 1) * oh * ow]);
        match (arg_plane, halving) {
            (Some(arg), true) => {
                maxpool_halve_plane(plane, geom.w, out_plane, ow, |cell, flat| arg[cell] = flat)
            }
            (Some(arg), false) => {
                maxpool_plane(plane, geom, out_plane, |cell, flat| arg[cell] = flat)
            }
            (None, true) => maxpool_halve_plane(plane, geom.w, out_plane, ow, |_, _| {}),
            (None, false) => maxpool_plane(plane, geom, out_plane, |_, _| {}),
        }
    }
}

/// General max-pool of one plane; `note(cell, flat)` receives each output
/// cell's argmax (first maximum in window scan order).
fn maxpool_plane(
    plane: &[f32],
    geom: &ConvGeom,
    out_plane: &mut [f32],
    mut note: impl FnMut(usize, u32),
) {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    for oy in 0..oh {
        for ox in 0..ow {
            let mut best = f32::NEG_INFINITY;
            let mut best_idx = 0u32;
            for ki in 0..geom.kh {
                let iy = (oy * geom.stride + ki) as isize - geom.pad as isize;
                if iy < 0 || iy as usize >= geom.h {
                    continue;
                }
                for kj in 0..geom.kw {
                    let ix = (ox * geom.stride + kj) as isize - geom.pad as isize;
                    if ix < 0 || ix as usize >= geom.w {
                        continue;
                    }
                    let flat = iy as usize * geom.w + ix as usize;
                    let v = plane[flat];
                    if v > best {
                        best = v;
                        best_idx = flat as u32;
                    }
                }
            }
            out_plane[oy * ow + ox] = best;
            note(oy * ow + ox, best_idx);
        }
    }
}

/// 2×2 / stride-2 / unpadded max-pool of one plane: the same `v > best`
/// chain over the window in the same order as [`maxpool_plane`] (so the same
/// argmax, index 0 for a window of NaNs included), on slices whose lengths
/// the compiler can see.
fn maxpool_halve_plane(
    plane: &[f32],
    w: usize,
    out_plane: &mut [f32],
    ow: usize,
    mut note: impl FnMut(usize, u32),
) {
    if ow == 0 {
        return;
    }
    let rows = out_plane
        .chunks_exact_mut(ow)
        .zip(plane.chunks_exact(2 * w));
    for (oy, (out_row, pair)) in rows.enumerate() {
        let (top, bottom) = pair.split_at(w);
        let windows = top.chunks_exact(2).zip(bottom.chunks_exact(2));
        for (ox, (o, (t, b))) in out_row.iter_mut().zip(windows).enumerate() {
            let at = 2 * oy * w + 2 * ox; // flat index of the window's corner
            let mut best = f32::NEG_INFINITY;
            let mut best_idx = 0;
            for (v, flat) in [
                (t[0], at),
                (t[1], at + 1),
                (b[0], at + w),
                (b[1], at + w + 1),
            ] {
                if v > best {
                    best = v;
                    best_idx = flat;
                }
            }
            *o = best;
            note(oy * ow + ox, best_idx as u32);
        }
    }
}

/// Max-pooling backward: routes each output gradient to its argmax input
/// cell (accumulating into `dinput`; caller zeroes it first).
pub fn maxpool_backward(
    doutput: &[f32],
    argmax: &[u32],
    channels: usize,
    geom: &ConvGeom,
    dinput: &mut [f32],
) {
    let _span = ms_telemetry::span!("pool.max_bwd");
    let out_len = geom.out_len();
    debug_assert_eq!(doutput.len(), channels * out_len);
    for c in 0..channels {
        let dplane = &mut dinput[c * geom.h * geom.w..(c + 1) * geom.h * geom.w];
        let dout = &doutput[c * out_len..(c + 1) * out_len];
        let args = &argmax[c * out_len..(c + 1) * out_len];
        for (&g, &a) in dout.iter().zip(args) {
            dplane[a as usize] += g;
        }
    }
}

/// Global average pooling: `[C, H, W] → [C]`.
pub fn global_avgpool_forward(input: &[f32], channels: usize, hw: usize, output: &mut [f32]) {
    let _span = ms_telemetry::span!("pool.global_avg");
    debug_assert_eq!(input.len(), channels * hw);
    debug_assert!(output.len() >= channels);
    let inv = 1.0 / hw as f32;
    for (c, out) in output.iter_mut().enumerate().take(channels) {
        let plane = &input[c * hw..(c + 1) * hw];
        *out = plane.iter().sum::<f32>() * inv;
    }
}

/// Global average pooling backward: spreads each channel gradient uniformly.
pub fn global_avgpool_backward(doutput: &[f32], channels: usize, hw: usize, dinput: &mut [f32]) {
    debug_assert!(doutput.len() >= channels);
    debug_assert_eq!(dinput.len(), channels * hw);
    let inv = 1.0 / hw as f32;
    for c in 0..channels {
        let g = doutput[c] * inv;
        for v in &mut dinput[c * hw..(c + 1) * hw] {
            *v += g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;
    use proptest::prelude::*;

    fn geom(h: usize, w: usize, k: usize, stride: usize, pad: usize) -> ConvGeom {
        ConvGeom {
            h,
            w,
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    /// The per-element loops the span-copy kernels replaced, kept as the
    /// oracle: a bounds test per tap, nothing clever.
    fn im2col_reference(input: &[f32], channels: usize, geom: &ConvGeom, col: &mut [f32]) {
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let mut idx = 0usize;
        for c in 0..channels {
            let plane = &input[c * geom.h * geom.w..(c + 1) * geom.h * geom.w];
            for ki in 0..geom.kh {
                for kj in 0..geom.kw {
                    for oy in 0..oh {
                        let iy = (oy * geom.stride + ki) as isize - geom.pad as isize;
                        for ox in 0..ow {
                            let ix = (ox * geom.stride + kj) as isize - geom.pad as isize;
                            let inside = iy >= 0
                                && (iy as usize) < geom.h
                                && ix >= 0
                                && (ix as usize) < geom.w;
                            col[idx] = if inside {
                                plane[iy as usize * geom.w + ix as usize]
                            } else {
                                0.0
                            };
                            idx += 1;
                        }
                    }
                }
            }
        }
    }

    fn col2im_reference(col: &[f32], channels: usize, geom: &ConvGeom, dinput: &mut [f32]) {
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let mut idx = 0usize;
        for c in 0..channels {
            let plane = &mut dinput[c * geom.h * geom.w..(c + 1) * geom.h * geom.w];
            for ki in 0..geom.kh {
                for kj in 0..geom.kw {
                    for oy in 0..oh {
                        let iy = (oy * geom.stride + ki) as isize - geom.pad as isize;
                        for ox in 0..ow {
                            let ix = (ox * geom.stride + kj) as isize - geom.pad as isize;
                            if iy >= 0
                                && (iy as usize) < geom.h
                                && ix >= 0
                                && (ix as usize) < geom.w
                            {
                                plane[iy as usize * geom.w + ix as usize] += col[idx];
                            }
                            idx += 1;
                        }
                    }
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Span-copy `im2col` is byte-identical to the per-element loop, and
        /// `col2im` both matches its own reference bitwise and stays the
        /// adjoint of `im2col`, over kernels wider than the image, strides
        /// that skip the last columns and padding on every side.
        #[test]
        fn lowering_matches_the_per_element_reference(
            c in 1usize..4, h in 1usize..9, w in 1usize..9,
            k in 1usize..=5, stride in 1usize..=3, pad in 0usize..=2,
            seed in any::<u64>(),
        ) {
            let g = geom(h, w, k, stride, pad);
            prop_assume!(g.is_valid());
            let mut rng = SeededRng::new(seed);
            let x: Vec<f32> = (0..c * h * w).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let col_len = c * k * k * g.out_len();
            let mut want = vec![7.0f32; col_len];
            let mut got = vec![-7.0f32; col_len];
            im2col_reference(&x, c, &g, &mut want);
            im2col(&x, c, &g, &mut got, g.out_len(), 0);
            prop_assert_eq!(bits(&got), bits(&want));

            let y: Vec<f32> = (0..col_len).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut back_want = x.clone();
            let mut back = x.clone();
            col2im_reference(&y, c, &g, &mut back_want);
            col2im(&y, c, &g, &mut back, g.out_len(), 0);
            prop_assert_eq!(bits(&back), bits(&back_want));

            // <im2col(x), y> == <x, col2im(y)> with col2im from zero.
            let mut adj = vec![0.0f32; x.len()];
            col2im(&y, c, &g, &mut adj, g.out_len(), 0);
            let lhs: f64 = got.iter().zip(&y).map(|(a, b)| (a * b) as f64).sum();
            let rhs: f64 = x.iter().zip(&adj).map(|(a, b)| (a * b) as f64).sum();
            prop_assert!((lhs - rhs).abs() < 1e-3, "{} vs {}", lhs, rhs);
        }

        /// A sample lowered into columns `[off, off + L)` of a wider matrix
        /// (`ld > L`, the chunked conv's layout) holds the bits of its own
        /// contiguous matrix, leaves its neighbours' columns alone, and
        /// `col2im` reads back exactly those columns.
        #[test]
        fn strided_lowering_matches_the_contiguous_form(
            c in 1usize..4, h in 1usize..9, w in 1usize..9,
            k in 1usize..=3, stride in 1usize..=2, pad in 0usize..=1,
            before in 0usize..3, after in 0usize..3,
            seed in any::<u64>(),
        ) {
            let g = geom(h, w, k, stride, pad);
            prop_assume!(g.is_valid());
            let len = g.out_len();
            let (ld, off) = (before * len + len + after + 1, before * len);
            let rows = c * k * k;
            let mut rng = SeededRng::new(seed);
            let x: Vec<f32> = (0..c * h * w).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut tight = vec![0.0f32; rows * len];
            im2col(&x, c, &g, &mut tight, len, 0);
            let mut wide = vec![f32::NAN; rows * ld];
            im2col(&x, c, &g, &mut wide, ld, off);
            for (r, row) in wide.chunks_exact(ld).enumerate() {
                prop_assert_eq!(bits(&row[off..off + len]), bits(&tight[r * len..(r + 1) * len]));
                prop_assert!(row[..off].iter().chain(&row[off + len..]).all(|v| v.is_nan()));
            }

            let y: Vec<f32> = (0..rows * len).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut y_wide = vec![f32::NAN; rows * ld];
            for (r, row) in y_wide.chunks_exact_mut(ld).enumerate() {
                row[off..off + len].copy_from_slice(&y[r * len..(r + 1) * len]);
            }
            let (mut back, mut back_wide) = (x.clone(), x.clone());
            col2im(&y, c, &g, &mut back, len, 0);
            col2im(&y_wide, c, &g, &mut back_wide, ld, off);
            prop_assert_eq!(bits(&back_wide), bits(&back));
        }

        /// The 2×2 / stride-2 loop with the argmax equals the general loop
        /// in output bits and in every index — ties (first maximum wins),
        /// −0.0 against 0.0, NaN cells and all-NaN windows included, odd
        /// sizes that leave a row and a column unpooled too.
        #[test]
        fn halving_argmax_path_matches_the_general_loop(
            c in 1usize..3, h in 2usize..10, w in 2usize..10,
            seed in any::<u64>(),
        ) {
            let g = geom(h, w, 2, 2, 0);
            let mut rng = SeededRng::new(seed);
            // A few distinct values, so most windows hold a tie.
            let x: Vec<f32> = (0..c * h * w)
                .map(|_| [f32::NAN, -0.0, 0.0, 0.5, 0.5, -1.0, f32::NEG_INFINITY][rng.below(7)])
                .collect();
            let n = c * g.out_len();
            let (mut fast, mut slow) = (vec![7.0f32; n], vec![-7.0f32; n]);
            let (mut fast_arg, mut slow_arg) = (vec![u32::MAX; n], vec![u32::MAX; n]);
            maxpool_forward(&x, c, &g, &mut fast, Some(&mut fast_arg));
            for ch in 0..c {
                let span = ch * g.out_len()..(ch + 1) * g.out_len();
                let arg = &mut slow_arg[span.clone()];
                maxpool_plane(&x[ch * h * w..(ch + 1) * h * w], &g, &mut slow[span], |cell, flat| {
                    arg[cell] = flat
                });
            }
            prop_assert_eq!(bits(&fast), bits(&slow));
            prop_assert_eq!(fast_arg, slow_arg);
        }

        /// Pooling without the argmax (the 2×2 fast loop included) writes the
        /// same bits as pooling with it, NaN and −0.0 cells included.
        #[test]
        fn maxpool_output_does_not_depend_on_argmax(
            c in 1usize..3, h in 2usize..9, w in 2usize..9,
            k in 1usize..=3, stride in 1usize..=3,
            seed in any::<u64>(),
        ) {
            let g = geom(h, w, k, stride, 0);
            prop_assume!(g.is_valid());
            let mut rng = SeededRng::new(seed);
            let x: Vec<f32> = (0..c * h * w)
                .map(|i| match i % 11 {
                    0 => f32::NAN,
                    1 => -0.0,
                    _ => rng.uniform(-1.0, 1.0),
                })
                .collect();
            let n = c * g.out_len();
            let (mut with, mut without) = (vec![0.0f32; n], vec![1.0f32; n]);
            let mut arg = vec![0u32; n];
            maxpool_forward(&x, c, &g, &mut with, Some(&mut arg));
            maxpool_forward(&x, c, &g, &mut without, None);
            prop_assert_eq!(bits(&with), bits(&without));
        }
    }

    #[test]
    fn output_shape_math() {
        let g = geom(4, 4, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (4, 4));
        let g = geom(4, 4, 2, 2, 0);
        assert_eq!((g.out_h(), g.out_w()), (2, 2));
        let g = geom(5, 5, 3, 2, 1);
        assert_eq!((g.out_h(), g.out_w()), (3, 3));
        assert!(!geom(2, 2, 5, 1, 0).is_valid());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: col == input.
        let input: Vec<f32> = (0..8).map(|v| v as f32).collect(); // 2 ch, 2x2
        let g = geom(2, 2, 1, 1, 0);
        let mut col = vec![0.0; 2 * 4]; // 2 ch × (1·1 kernel) × 4 positions
        im2col(&input, 2, &g, &mut col, 4, 0);
        assert_eq!(col, input);
    }

    #[test]
    fn im2col_padding_produces_zeros() {
        let input = vec![1.0f32; 4]; // 1 ch, 2x2 of ones
        let g = geom(2, 2, 3, 1, 1);
        let mut col = vec![7.0; 9 * 4];
        im2col(&input, 1, &g, &mut col, 4, 0);
        // Centre tap (ki=1,kj=1) row must be all ones; corner tap (0,0) row
        // sees padding for output (0,0).
        let out_len = 4;
        let centre = &col[(3 + 1) * out_len..(3 + 2) * out_len];
        assert_eq!(centre, &[1.0, 1.0, 1.0, 1.0]);
        let corner = &col[0..out_len];
        assert_eq!(corner, &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property that makes the conv backward pass correct.
        let mut rng = SeededRng::new(3);
        let g = geom(5, 4, 3, 2, 1);
        let c = 3;
        let x: Vec<f32> = (0..c * 20).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let col_len = c * 9 * g.out_len();
        let y: Vec<f32> = (0..col_len).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut col = vec![0.0; col_len];
        im2col(&x, c, &g, &mut col, g.out_len(), 0);
        let lhs: f64 = col.iter().zip(&y).map(|(a, b)| (a * b) as f64).sum();
        let mut xback = vec![0.0; x.len()];
        col2im(&y, c, &g, &mut xback, g.out_len(), 0);
        let rhs: f64 = x.iter().zip(&xback).map(|(a, b)| (a * b) as f64).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn maxpool_roundtrip() {
        let input = vec![
            1.0, 2.0, //
            3.0, 4.0, //
        ];
        let g = geom(2, 2, 2, 2, 0);
        let mut out = vec![0.0; 1];
        let mut arg = vec![0u32; 1];
        maxpool_forward(&input, 1, &g, &mut out, Some(&mut arg));
        assert_eq!(out, vec![4.0]);
        assert_eq!(arg, vec![3]);
        let mut dx = vec![0.0; 4];
        maxpool_backward(&[10.0], &arg, 1, &g, &mut dx);
        assert_eq!(dx, vec![0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn global_avgpool_roundtrip() {
        let input = vec![1.0, 3.0, 5.0, 7.0, 2.0, 2.0, 2.0, 2.0]; // 2ch 2x2
        let mut out = vec![0.0; 2];
        global_avgpool_forward(&input, 2, 4, &mut out);
        assert_eq!(out, vec![4.0, 2.0]);
        let mut dx = vec![0.0; 8];
        global_avgpool_backward(&[4.0, 8.0], 2, 4, &mut dx);
        assert_eq!(dx, vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }
}
