//! Convolution lowering (im2col/col2im) and pooling kernels.
//!
//! Layout conventions: a single sample is `[C, H, W]` row-major. The im2col
//! buffer is `[C·KH·KW, OH·OW]` row-major with the channel index *outermost*
//! in the row dimension — this is load-bearing for model slicing: the first
//! `c_act` input channels occupy the first `c_act·KH·KW` rows, i.e. a
//! contiguous prefix, so a sliced convolution is a plain sub-block GEMM (see
//! `crate::matmul`) with no data movement.
//!
//! No pass on packed weight panels writes that buffer out: [`Im2col`]
//! describes the column matrix of a run of samples. Where
//! [`ConvGeom::direct`] holds, the micro-kernel multiplies it straight from
//! the image; elsewhere, and for its transpose (the weight gradient's
//! `colsᵀ`), the GEMM drivers pack it from the image one panel at a time.
//! [`im2col`] itself writes the matrix out for the tests that check those
//! packers, and [`col2im`] is left to the backward of a strided
//! convolution, whose input gradient is not a convolution of its output
//! gradient ([`ConvGeom::transposed`]).

use crate::kernel::{store_transposed, LG, TB};
use std::cell::RefCell;

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

    /// Whether the micro-kernel multiplies this geometry's columns straight
    /// from the image ([`crate::panels::conv_packed_a_stepped`]): stride 1
    /// and output rows as wide as the input's, so tap `(ki, kj)` of every
    /// position reads the plane `ki·w + kj − pad·(w+1)` floats on; and
    /// `OH·OW` a whole number of 16-lane groups, so none straddles two
    /// samples.
    pub fn direct(&self) -> bool {
        self.is_valid()
            && self.stride == 1
            && self.out_w() == self.w
            && self.out_len().is_multiple_of(LG)
    }

    /// The geometry whose convolution of the output gradient, with the
    /// weights of [`transpose_flipped`], is the input gradient:
    /// `{h: OH, w: OW, K, stride 1, pad: K−1−pad}`, which gives `H×W` back
    /// (and is "same" again when `pad = (K−1)/2`). It exists for a stride-1
    /// square window with `pad ≤ K−1`; a strided one would have to read a
    /// zero-inserted gradient.
    pub fn transposed(&self) -> Option<ConvGeom> {
        let square = self.kh == self.kw;
        (self.stride == 1 && square && self.pad < self.kh).then(|| ConvGeom {
            h: self.out_h(),
            w: self.out_w(),
            kh: self.kh,
            kw: self.kw,
            stride: 1,
            pad: self.kh - 1 - self.pad,
        })
    }
}

/// The weights of the convolution [`ConvGeom::transposed`] describes:
/// `w` holds `[out_ch, in_ch·taps]` (row stride `ldw`), and `wt` gets
/// `[in_ch, out_ch·taps]` with `wt[ci][co·taps + t] = w[co][ci·taps +
/// taps−1−t]` — transposed, and flipped in space (reversing the tap index
/// reverses both axes). Every element of `wt[..in_ch·out_ch·taps]` is
/// written.
pub fn transpose_flipped(
    w: &[f32],
    ldw: usize,
    out_ch: usize,
    in_ch: usize,
    taps: usize,
    wt: &mut [f32],
) {
    debug_assert!(ldw >= in_ch * taps && wt.len() >= in_ch * out_ch * taps);
    for (ci, row) in wt.chunks_exact_mut(out_ch * taps).take(in_ch).enumerate() {
        for (co, dst) in row.chunks_exact_mut(taps).enumerate() {
            let src = &w[co * ldw + ci * taps..][..taps];
            for (d, &v) in dst.iter_mut().zip(src.iter().rev()) {
                *d = v;
            }
        }
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

/// The im2col matrix of `samples` consecutive `[channels, H, W]` samples laid
/// side by side — `[channels·KH·KW, samples·OH·OW]`, column `s·OH·OW + q`
/// holding output position `q` of sample `s`, as [`im2col`] fills a wide
/// matrix — as a GEMM operand that is never materialised: the drivers pack
/// it (`matmul::Operand::Im2col`) panel by panel from the image into their
/// strip layout, byte for byte what `im2col` and the matrix packers leave, so
/// the micro-kernel computes the same bits. With its rows across the lanes it
/// is the transposed `colsᵀ` of a weight gradient; with a 1×1 window it is
/// the samples' planes side by side, as an output gradient's rows are read.
#[derive(Debug, Clone, Copy)]
pub struct Im2col<'a> {
    /// The samples, `[samples, channels, H, W]` row-major.
    pub input: &'a [f32],
    /// Channels per sample (all of them are lowered).
    pub channels: usize,
    /// Window geometry.
    pub geom: ConvGeom,
    /// Samples side by side.
    pub samples: usize,
}

/// How a packer reads a row of the column matrix (one channel, one tap)
/// from its plane.
#[derive(Clone, Copy)]
enum Reads<'m> {
    /// A 1×1 window, stride 1, no padding: position `q` reads the plane at
    /// `q`, so a row is the plane itself.
    Plain,
    /// "Same" geometry (stride 1, output as wide as the input: every conv of
    /// the zoo but ResNet's strided ones): position `q` of tap `(ki, kj)`
    /// reads the plane `ki·w + kj − pad·(w+1)` floats on from `q` when it is
    /// valid, so a row is one contiguous read ANDed with the tap's
    /// keep-masks (this table, see [`KeepMasks`]), which zero every lane that
    /// falls on padding: off the top or bottom of the plane (the read runs
    /// into the neighbouring plane) or wrapped in from the neighbouring row.
    Masked(&'m [u32]),
    /// Any other geometry: output row by output row through [`tap_rows`].
    Gather,
}

impl Im2col<'_> {
    /// Rows of the column matrix, `channels·KH·KW`.
    pub(crate) fn rows(&self) -> usize {
        self.channels * self.geom.kh * self.geom.kw
    }

    /// Columns of the column matrix, `samples·OH·OW`.
    pub(crate) fn cols(&self) -> usize {
        self.samples * self.geom.out_len()
    }

    fn sample_len(&self) -> usize {
        self.channels * self.geom.h * self.geom.w
    }

    /// Runs `f` with the way this geometry's rows are read; a "same" one's
    /// keep-masks come from the thread's table.
    fn with_reads<R>(&self, f: impl FnOnce(Reads) -> R) -> R {
        let g = &self.geom;
        debug_assert!(g.is_valid(), "invalid conv geometry {g:?}");
        debug_assert!(self.input.len() >= self.samples * self.sample_len());
        if g.kh * g.kw == 1 && g.stride == 1 && g.pad == 0 {
            return f(Reads::Plain);
        }
        if g.stride != 1 || g.out_w() != g.w {
            return f(Reads::Gather);
        }
        KEEP.with(|table| f(Reads::Masked(table.borrow_mut().of(g))))
    }

    /// Packs rows `[pc, pc + kc)` × columns `[jc, jc + nc)` with the columns
    /// (positions) across the `L` lanes, the way `matmul::pack_b_into` packs
    /// a row-major `B` (`L = NR`) and `pack_a_into` a transposed `A` (`L = MR`):
    /// `nc.div_ceil(L)` strips of `L` columns, each `kc`-major, lanes past
    /// `nc` zero, which is all of `panel`.
    pub(crate) fn pack_cols<const L: usize>(
        &self,
        pc: usize,
        kc: usize,
        jc: usize,
        nc: usize,
        panel: &mut [f32],
    ) {
        // No clear: every lane is written below, padding included.
        debug_assert_eq!(panel.len(), nc.div_ceil(L) * kc * L);
        debug_assert!(pc + kc <= self.rows() && jc + nc <= self.cols());
        let (out_len, sample_len) = (self.geom.out_len(), self.sample_len());
        self.with_reads(|reads| {
            for (t, strip) in panel.chunks_exact_mut(kc * L).enumerate() {
                let (cols, mut lane) = (L.min(nc - t * L), 0);
                if cols < L {
                    strip.fill(0.0);
                }
                // A strip's columns may run from one sample into the next:
                // pack it one sample's segment at a time.
                while lane < cols {
                    let j = jc + t * L + lane;
                    let (s, q0) = (j / out_len, j % out_len);
                    let len = (out_len - q0).min(cols - lane);
                    let (at, strip) = (s * sample_len, &mut strip[lane..]);
                    self.pack_segment::<L>(reads, at, pc, kc, q0, len, strip);
                    lane += len;
                }
            }
        });
    }

    /// Packs rows `[r0, r0 + rows)` × columns `[pc, pc + kc)` with the rows
    /// across the `L` lanes and the columns (positions) along `k`: what
    /// `matmul::pack_b_into(Trans::Yes)` makes of the written-out matrix
    /// (`L = NR`: the `colsᵀ` of `dW = dY·colsᵀ`) and `pack_a_into(Trans::No)`
    /// (`L = MR`: an output gradient's rows, read through a 1×1 window).
    /// `rows.div_ceil(L)` strips of `L ≤ 2·TB` rows, each `kc`-major, lanes
    /// past `rows` zero, which is all of `panel`.
    ///
    /// A strip goes `TB` positions at a time: each lane's run read as a row
    /// (one masked read in "same" geometry), then the `lanes × TB` block
    /// stored transposed ([`store_transposed`]).
    pub(crate) fn pack_rows<const L: usize>(
        &self,
        r0: usize,
        rows: usize,
        pc: usize,
        kc: usize,
        panel: &mut [f32],
    ) {
        const { assert!(L <= 2 * TB) };
        // No clear: every lane is written below, padding included.
        debug_assert_eq!(panel.len(), rows.div_ceil(L) * kc * L);
        debug_assert!(r0 + rows <= self.rows() && pc + kc <= self.cols());
        let (out_len, sample_len) = (self.geom.out_len(), self.sample_len());
        self.with_reads(|reads| {
            let Tile(tile) = &mut Tile([[0.0; TB]; 2 * TB]);
            for (t, strip) in panel.chunks_exact_mut(kc * L).enumerate() {
                let lanes = L.min(rows - t * L);
                if lanes < L {
                    strip.fill(0.0);
                }
                let mut at = [RowAt::default(); L];
                for (at, row) in at.iter_mut().zip(self.rows_from(r0 + t * L)).take(lanes) {
                    *at = row;
                }
                let mut p = 0;
                while p < kc {
                    // A block stays inside one sample.
                    let (at_s, q) = ((pc + p) / out_len * sample_len, (pc + p) % out_len);
                    let len = (out_len - q).min(kc - p).min(TB);
                    for (row, at) in tile.iter_mut().zip(&at).take(lanes) {
                        if len == TB {
                            // At a length the compiler knows.
                            self.read_row(reads, at_s, *at, q, row);
                        } else {
                            self.read_row(reads, at_s, *at, q, &mut row[..len]);
                        }
                    }
                    let block = &mut strip[p * L..][..len * L];
                    if len == TB {
                        for l0 in (0..lanes).step_by(TB) {
                            let src = tile[l0..].as_flattened();
                            store_transposed(
                                src,
                                TB,
                                TB.min(lanes - l0),
                                TB,
                                &mut block[l0..],
                                L,
                                None,
                            );
                        }
                    } else {
                        for (i, dst) in block.chunks_exact_mut(L).enumerate() {
                            for (d, row) in dst.iter_mut().zip(&tile[..lanes]) {
                                *d = row[i];
                            }
                        }
                    }
                    p += len;
                }
            }
        });
    }

    /// Where rows `p`, `p + 1`, … of the column matrix read a sample, one
    /// step of the window at a time rather than a division per row.
    fn rows_from(&self, p: usize) -> impl Iterator<Item = RowAt> {
        let g = self.geom;
        let (taps, plane_len, out_len) = (g.kh * g.kw, g.h * g.w, g.out_len());
        let tap = p % taps;
        let first = RowAt {
            plane: p / taps * plane_len,
            ki: tap / g.kw,
            kj: tap % g.kw,
            masks: tap * out_len,
            shift: shift(&g, tap),
        };
        std::iter::successors(Some(first), move |&row| {
            let mut next = RowAt {
                kj: row.kj + 1,
                masks: row.masks + out_len,
                shift: row.shift + 1,
                ..row
            };
            if next.kj == g.kw {
                (next.kj, next.ki, next.shift) =
                    (0, row.ki + 1, next.shift + g.w as isize - g.kw as isize);
            }
            if next.ki == g.kh {
                next = RowAt {
                    plane: row.plane + plane_len,
                    shift: shift(&g, 0),
                    ..RowAt::default()
                };
            }
            Some(next)
        })
    }

    /// Positions `[q0, q0 + dst.len())` of the row `row` locates, of the
    /// sample at `input[at..]`.
    #[inline(always)]
    fn read_row(&self, reads: Reads, at: usize, row: RowAt, q0: usize, dst: &mut [f32]) {
        let g = &self.geom;
        let plane = at + row.plane;
        match reads {
            Reads::Plain => dst.copy_from_slice(&self.input[plane + q0..][..dst.len()]),
            Reads::Masked(keep) => {
                let first = (plane + q0) as isize + row.shift;
                let keep = &keep[row.masks + q0..][..dst.len()];
                masked_read(self.input, first, keep, dst);
            }
            Reads::Gather => {
                let plane = &self.input[plane..][..g.h * g.w];
                tap_rows(plane, g, (row.ki, row.kj), q0, dst);
            }
        }
    }

    /// Positions `[q0, q0 + len)` of the sample at `input[at..]` for rows
    /// `[pc, pc + kc)`: row `p` goes to `strip[(p - pc)·L..][..len]`.
    #[allow(clippy::too_many_arguments)]
    fn pack_segment<const L: usize>(
        &self,
        reads: Reads,
        at: usize,
        pc: usize,
        kc: usize,
        q0: usize,
        len: usize,
        strip: &mut [f32],
    ) {
        let g = &self.geom;
        let (taps, plane_len, out_len) = (g.kh * g.kw, g.h * g.w, g.out_len());
        let Reads::Masked(keep) = reads else {
            let rows = strip.chunks_mut(L).take(kc).map(|row| &mut row[..len]);
            for (row, dst) in self.rows_from(pc).zip(rows) {
                self.read_row(reads, at, row, q0, dst);
            }
            return;
        };
        // Tap by tap, so a tap's masks stay in registers across the channels.
        let (c0, tap0) = (pc / taps, pc % taps);
        let (c1, tap1) = ((pc + kc) / taps, (pc + kc) % taps);
        for tap in 0..taps {
            let keep = &keep[tap * out_len + q0..][..len];
            let shift = shift(g, tap);
            for c in c0 + usize::from(tap < tap0)..c1 + usize::from(tap < tap1) {
                let dst = &mut strip[(c * taps + tap - pc) * L..][..len];
                let first = (at + c * plane_len + q0) as isize + shift;
                // A whole strip, the common case, or a 4×4 plane, at a length
                // the compiler knows.
                if len == L {
                    masked_read(self.input, first, &keep[..L], &mut dst[..L]);
                } else if len == TB {
                    masked_read(self.input, first, &keep[..TB], &mut dst[..TB]);
                } else {
                    masked_read(self.input, first, keep, dst);
                }
            }
        }
    }
}

/// `TB` positions of up to `2·TB` rows, each row a cache line of its own.
#[repr(align(64))]
struct Tile([[f32; TB]; 2 * TB]);

/// Where a row of the column matrix reads a sample: the offset of its
/// channel's plane, its tap `(ki, kj)`, where the tap's keep-masks start in
/// a "same" geometry's table, and the tap's [`shift`].
#[derive(Clone, Copy, Default)]
struct RowAt {
    plane: usize,
    ki: usize,
    kj: usize,
    masks: usize,
    shift: isize,
}

/// Where tap `tap` of output position `q` reads a "same" geometry's plane:
/// this many floats on from `q`.
#[inline(always)]
fn shift(g: &ConvGeom, tap: usize) -> isize {
    (tap / g.kw * g.w + tap % g.kw) as isize - (g.pad * (g.w + 1)) as isize
}

/// `dst[i] = input[first + i]` masked by `keep[i]` ([`and_mask`]). A read
/// that would leave the input is cut to it: the lanes it loses are padding
/// (their masks are zero), so the row is cleared and the rest masked in.
#[inline(always)]
fn masked_read(input: &[f32], first: isize, keep: &[u32], dst: &mut [f32]) {
    let len = dst.len();
    let src = usize::try_from(first)
        .ok()
        .and_then(|f| input.get(f..f + len));
    if let Some(src) = src {
        and_mask(dst, src, keep);
        return;
    }
    let lo = (-first).clamp(0, len as isize) as usize;
    let hi = (input.len() as isize - first).clamp(lo as isize, len as isize) as usize;
    dst.fill(0.0);
    if lo < hi {
        let from = (first + lo as isize) as usize;
        and_mask(
            &mut dst[lo..hi],
            &input[from..from + (hi - lo)],
            &keep[lo..hi],
        );
    }
}

/// The keep-masks of one "same" conv geometry (stride 1, output as wide as
/// the input): `masks[t·OH·OW + q]` is all ones where output position `q` of
/// tap `t` reads the plane and zero where it reads padding. A segment of a
/// strip reads its lanes' masks off the table, so packing does no per-lane
/// geometry.
#[derive(Debug, Default)]
struct KeepMasks {
    geom: Option<ConvGeom>,
    masks: Vec<u32>,
}

impl KeepMasks {
    /// The table of `g`, built unless it is the last one built (grow-only).
    fn of(&mut self, g: &ConvGeom) -> &[u32] {
        if self.geom != Some(*g) {
            let (oh, ow) = (g.out_h(), g.out_w());
            self.masks.clear();
            self.masks.resize(g.kh * g.kw * oh * ow, 0);
            for (tap, masks) in self.masks.chunks_exact_mut(oh * ow).enumerate() {
                let (y_lo, y_hi) = valid_span(g.h, oh, tap / g.kw, g.stride, g.pad);
                let (x_lo, x_hi) = valid_span(g.w, ow, tap % g.kw, g.stride, g.pad);
                for row in masks.chunks_exact_mut(ow).take(y_hi).skip(y_lo) {
                    // `lo <= ox < hi` without a branch (or a `memset` call
                    // per row), so the loop vectorises.
                    for (ox, k) in (0u32..).zip(row) {
                        let valid = ox.wrapping_sub(x_lo as u32) < (x_hi - x_lo) as u32;
                        *k = 0u32.wrapping_sub(u32::from(valid));
                    }
                }
            }
            self.geom = Some(*g);
        }
        &self.masks
    }
}

thread_local! {
    /// The keep-masks of the last "same" geometry this thread packed: the
    /// convs of a stage share one, so a forward builds a table per stage —
    /// and a "same" conv's transposed geometry is its own, so its backward
    /// reads the input and the output gradient through the same table.
    static KEEP: RefCell<KeepMasks> = RefCell::new(KeepMasks::default());
}

/// `dst = src` on the lanes `keep` sets (all ones), `+0.0` on the others
/// (all zeros): bit operations only, so every value keeps its exact bits.
/// Sixteen lanes at a time go through arrays, which the compiler turns into
/// a few vector operations; the same loop over the slices stays one scalar
/// `and` per lane.
#[inline(always)]
fn and_mask(dst: &mut [f32], src: &[f32], keep: &[u32]) {
    let mut dst = dst.chunks_exact_mut(16);
    let (mut src, mut keep) = (src.chunks_exact(16), keep.chunks_exact(16));
    for ((d, s), k) in (&mut dst).zip(&mut src).zip(&mut keep) {
        let (s, k): (&[f32; 16], &[u32; 16]) = (
            s.try_into().expect("a chunk of 16"),
            k.try_into().expect("a chunk of 16"),
        );
        let bits: [u32; 16] = std::array::from_fn(|i| s[i].to_bits() & k[i]);
        d.copy_from_slice(&bits.map(f32::from_bits));
    }
    let rest = dst.into_remainder().iter_mut().zip(src.remainder());
    for ((d, &v), &k) in rest.zip(keep.remainder()) {
        *d = f32::from_bits(v.to_bits() & k);
    }
}

/// Positions `[q0, q0 + dst.len())` of the im2col row of one tap `(ki, kj)`
/// over one plane, in any geometry: one output row at a time, zero outside
/// the valid spans, the span copied (or gathered, `stride > 1`).
fn tap_rows(plane: &[f32], g: &ConvGeom, (ki, kj): (usize, usize), q0: usize, dst: &mut [f32]) {
    let (oh, ow) = (g.out_h(), g.out_w());
    let (oy_lo, oy_hi) = valid_span(g.h, oh, ki, g.stride, g.pad);
    let (ox_lo, ox_hi) = valid_span(g.w, ow, kj, g.stride, g.pad);
    let (mut q, mut rest) = (q0, dst);
    while !rest.is_empty() {
        let (oy, ox0) = (q / ow, q % ow);
        let ox1 = (ox0 + rest.len()).min(ow);
        let (out, tail) = std::mem::take(&mut rest).split_at_mut(ox1 - ox0);
        rest = tail;
        q += out.len();
        if !(oy_lo..oy_hi).contains(&oy) {
            out.fill(0.0);
            continue;
        }
        let (a, b) = (ox_lo.clamp(ox0, ox1), ox_hi.clamp(ox0, ox1));
        out[..a - ox0].fill(0.0);
        out[b - ox0..].fill(0.0);
        if a == b {
            continue;
        }
        let src = &plane[(oy * g.stride + ki - g.pad) * g.w..][..g.w];
        let ix0 = a * g.stride + kj - g.pad;
        let span = &mut out[a - ox0..b - ox0];
        if g.stride == 1 {
            span.copy_from_slice(&src[ix0..ix0 + span.len()]);
        } else {
            for (v, &x) in span.iter_mut().zip(src[ix0..].iter().step_by(g.stride)) {
                *v = x;
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
    use crate::matmul::{gemm, Operand, Trans, KC, NR};
    use crate::panels::{gemm_packed_a_stepped, PackedA};
    use crate::rng::SeededRng;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

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

    /// Windows `(start, len)` of `0..n` to pack: the whole range (when it is
    /// at most `cap` long; else every `cap` block of it), one that starts
    /// mid-strip, one that straddles two samples of `len` positions, random
    /// ones — none longer than `cap`.
    fn windows(rng: &mut SeededRng, n: usize, len: usize, cap: usize) -> Vec<(usize, usize)> {
        let mut windows: Vec<_> = (0..n).step_by(cap).map(|p| (p, cap.min(n - p))).collect();
        let mid = NR / 2 % n;
        windows.push((mid, cap.min(n - mid)));
        if n > len {
            windows.push((len - 1, 2));
        }
        for _ in 0..3 {
            let start = rng.below(n);
            windows.push((start, 1 + rng.below(cap.min(n - start))));
        }
        windows
    }

    /// Packs the column matrix of the first `c_pre` channels of `samples`
    /// samples from the image, in all four orientations, over windows of its
    /// rows and columns (every `KC` block along `k`, windows that start
    /// mid-strip or straddle two samples, random ones), into buffers poisoned
    /// with NaN, and demands the bytes `im2col` + `pack_b_into` /
    /// `pack_a_into` leave: the forward's `B` (columns across the lanes), the
    /// weight gradient's `colsᵀ` (rows across the lanes, positions along `k`)
    /// and the two `A` sides the same ways round.
    fn check_packing(
        g: &ConvGeom,
        c: usize,
        c_pre: usize,
        samples: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut rng = SeededRng::new(seed);
        let (len, taps) = (g.out_len(), g.kh * g.kw);
        let n = samples * len;
        let x: Vec<f32> = (0..samples * c * g.h * g.w)
            .map(|_| rng.uniform(-1.0, 1.0))
            .collect();
        let mut col = vec![f32::NAN; c * taps * n];
        for (s, sample) in x.chunks_exact(c * g.h * g.w).enumerate() {
            im2col(sample, c, g, &mut col, n, s * len);
        }
        let cols = Im2col {
            input: &x,
            channels: c,
            geom: *g,
            samples,
        };
        prop_assert_eq!((cols.rows(), cols.cols()), (c * taps, n));
        let k = c_pre * taps;
        let (row_windows, col_windows) =
            (windows(&mut rng, k, len, KC), windows(&mut rng, n, len, KC));
        let (row_any, col_any) = (windows(&mut rng, k, len, k), windows(&mut rng, n, len, n));
        // (side, orientation, windows along `k`, windows across the lanes)
        let cases = [
            ('B', Trans::No, &row_windows, &col_any),
            ('B', Trans::Yes, &col_windows, &row_any),
            ('A', Trans::No, &col_windows, &row_any),
            ('A', Trans::Yes, &row_windows, &col_any),
        ];
        for (side, trans, along, across) in cases {
            let op = Operand::Im2col(trans, cols);
            for &(pc, kc) in along {
                for &(jc, nc) in across {
                    let (mut want, written) = (Vec::new(), Operand::Matrix(trans, &col, n));
                    let want = match side {
                        'B' => written.pack_as_b(pc, kc, jc, nc, &mut want),
                        _ => written.pack_as_a(jc, nc, pc, kc, &mut want),
                    };
                    // Poisoned, with room for the panel at any alignment.
                    let mut got = vec![f32::NAN; want.len() + 16];
                    let got = match side {
                        'B' => op.pack_as_b(pc, kc, jc, nc, &mut got),
                        _ => op.pack_as_a(jc, nc, pc, kc, &mut got),
                    };
                    prop_assert_eq!(
                        bits(got),
                        bits(want),
                        "{}{:?} of {:?} c {}/{} x{} k {}+{} lanes {}+{}",
                        side,
                        trans,
                        g,
                        c_pre,
                        c,
                        samples,
                        pc,
                        kc,
                        jc,
                        nc
                    );
                }
            }
        }
        Ok(())
    }

    /// The input gradient of `samples` samples as the backward computes it
    /// — the convolution of `dY` with the flipped, transposed weights over
    /// [`ConvGeom::transposed`], `dY` packed from the image — against
    /// `Wᵀ · dY` scattered back with `col2im`, sample by sample: within 1e-5
    /// (relative, absolute below 1). `c_pre` of the `c_out` output channels
    /// are active, as on a sliced layer.
    fn check_transposed_conv(
        g: &ConvGeom,
        c_in: usize,
        (c_out, c_pre): (usize, usize),
        samples: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let gt = g.transposed().expect("a stride-1 geometry with pad < K");
        prop_assert_eq!((gt.out_h(), gt.out_w()), (g.h, g.w));
        let mut rng = SeededRng::new(seed);
        let (taps, len, plane) = (g.kh * g.kw, g.out_len(), g.h * g.w);
        // Weights at the scale of a Kaiming init over the `c_out·taps` terms
        // an input gradient sums, so that it is of order one.
        let scale = 1.0 / ((c_out * taps) as f32).sqrt();
        let mut fill = |n: usize, s: f32| (0..n).map(|_| s * rng.uniform(-1.0, 1.0)).collect();
        let (w, dy): (Vec<f32>, Vec<f32>) = (
            fill(c_out * c_in * taps, scale),
            fill(samples * c_pre * len, 1.0),
        );
        let mut want = vec![0.0f32; samples * c_in * plane];
        let mut dcol = vec![f32::NAN; c_in * taps * len];
        for (dy_s, dx_s) in dy
            .chunks_exact(c_pre * len)
            .zip(want.chunks_exact_mut(c_in * plane))
        {
            let k_rows = c_in * taps;
            let (a, b) = (&w, dy_s);
            gemm(
                Trans::Yes,
                Trans::No,
                k_rows,
                len,
                c_pre,
                1.0,
                a,
                k_rows,
                b,
                len,
                0.0,
                &mut dcol,
                len,
            );
            col2im(&dcol, c_in, g, dx_s, len, 0);
        }

        let mut wt = vec![f32::NAN; c_in * c_out * taps];
        transpose_flipped(&w, c_in * taps, c_out, c_in, taps, &mut wt);
        let mut panels = PackedA::new();
        panels.pack(Trans::No, &wt, c_out * taps, c_in, c_out * taps);
        let ld = samples * plane;
        let mut got = vec![f32::NAN; c_in * ld];
        let dy_cols = Im2col {
            input: &dy,
            channels: c_pre,
            geom: gt,
            samples,
        };
        let b = Operand::Im2col(Trans::No, dy_cols);
        let (rows, k_ext) = ([0, c_in], [c_pre * taps]);
        gemm_packed_a_stepped(&rows, &k_ext, ld, 1.0, &panels, b, 0.0, &mut got, ld);
        for (s, want_s) in want.chunks_exact(c_in * plane).enumerate() {
            for (ci, want_c) in want_s.chunks_exact(plane).enumerate() {
                let got_c = &got[ci * ld + s * plane..][..plane];
                for (q, (&a, &b)) in got_c.iter().zip(want_c).enumerate() {
                    prop_assert!(
                        (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                        "{:?} sample {} channel {} position {}: {} vs {}",
                        g,
                        s,
                        ci,
                        q,
                        a,
                        b
                    );
                }
            }
        }
        Ok(())
    }

    /// The zoo's geometries, with enough channels for several `KC` blocks:
    /// VGG's three 3×3 "same" stages, ResNet's stride-2 3×3 and 1×1, the
    /// pointwise 1×1 of MobileNet and ResNet, and a "same" 5×5 — in every
    /// orientation; and the input gradient of each stride-1 one.
    #[test]
    fn packing_from_the_image_matches_on_the_zoos_geometries() {
        let zoo = [
            (geom(16, 16, 3, 1, 1), 32),
            (geom(8, 8, 3, 1, 1), 64),
            (geom(4, 4, 3, 1, 1), 64),
            (geom(16, 16, 3, 2, 1), 40),
            (geom(8, 8, 3, 2, 1), 32),
            (geom(16, 16, 1, 2, 0), 300),
            (geom(8, 8, 1, 1, 0), 520),
            (geom(16, 16, 5, 1, 2), 12),
        ];
        for (i, (g, c)) in zoo.into_iter().enumerate() {
            for samples in 1..=5 {
                let seed = (i * 10 + samples) as u64;
                for c_pre in [c, c / 2 + 1] {
                    check_packing(&g, c, c_pre, samples, seed).unwrap();
                    if g.transposed().is_some() {
                        check_transposed_conv(&g, c / 2 + 1, (c, c_pre), samples, seed).unwrap();
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Packing the column matrix from the image is byte for byte
        /// `im2col` + `pack_b_into` (or `pack_a_into`), in all four
        /// orientations: every geometry `im2col` takes (kernels wider than
        /// the image, strides that skip columns, padding on every side,
        /// non-square planes), one to five samples, channel prefixes, rows
        /// and positions past one `KC` block.
        #[test]
        fn packing_from_the_image_is_im2col_then_pack_b(
            c in 1usize..13, h in 1usize..9, w in 1usize..9,
            k in 1usize..=5, stride in 1usize..=3, pad in 0usize..=2,
            samples in 1usize..=5, prefix in 0usize..13,
            seed in any::<u64>(),
        ) {
            let g = ConvGeom { h, w, kh: k, kw: k, stride, pad };
            prop_assume!(g.is_valid());
            check_packing(&g, c, 1 + prefix % c, samples, seed)?;
        }

        /// The output gradient read through the transposed geometry packs
        /// into the bytes of its written-out im2col, and the input gradient
        /// convolved from it is `col2im` of `Wᵀ · dY` within 1e-5: every
        /// stride-1 geometry with `pad < K`, non-square planes, one to five
        /// samples, a prefix of the output channels.
        #[test]
        fn the_input_gradient_is_a_convolution_of_the_output_gradient(
            c_in in 1usize..9, c_out in 1usize..9, prefix in 0usize..9,
            h in 1usize..9, w in 1usize..9, k in 1usize..=5, pad in 0usize..=4,
            samples in 1usize..=5, seed in any::<u64>(),
        ) {
            let g = ConvGeom { h, w, kh: k, kw: k, stride: 1, pad };
            prop_assume!(g.is_valid() && pad < k);
            let (gt, c_pre) = (g.transposed().expect("pad < K"), 1 + prefix % c_out);
            prop_assume!(gt.is_valid());
            check_packing(&gt, c_out, c_pre, samples, seed)?;
            check_transposed_conv(&g, c_in, (c_out, c_pre), samples, seed)?;
        }

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
