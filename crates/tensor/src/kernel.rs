//! The register-tile micro-kernel under the one blocked GEMM loop — behind
//! [`crate::matmul::gemm`] and the panel entry points of [`crate::panels`] —
//! and the tile shape its operands are packed for.
//!
//! One call multiplies an `MR`-row strip of packed `op(A)` with an
//! `NR`-column strip of packed `op(B)` over `kc` steps and writes a window of
//! the resulting `MR×NR` tile into `C`. Every lane computes
//! `acc = fma(a_ip, b_pj, acc)` for `p` ascending, then `C = fma(alpha, acc,
//! C)` — or, storing, `C = fma(alpha, acc, +0.0)` — whichever body runs and
//! whichever window is asked for: a lane's bits depend on the strips and `kc`
//! alone, never on the tile shape, the vector width or the window. That is
//! what the prefix-refine path's bitwise guarantee, the thread-count
//! invariance of a training step and the `x86-64-v3` pass of
//! `scripts/perfcheck.sh` rest on.
//!
//! There are two bodies and the build target picks one, the way the generic
//! body's `fmadd` picks FMA — a `cfg`, no runtime detection:
//!
//! * with AVX-512F, `avx512`: `MR × NR/16` accumulators held in `zmm`
//!   registers from the first FMA to the store into `C`, the column window a
//!   lane mask. LLVM's tuning for the current Xeons prefers 256-bit vectors,
//!   so plain loops never reach the 512-bit FMA units; the intrinsics do, at
//!   about twice the rate. This module holds all of the crate's `unsafe`
//!   outside `par.rs`.
//! * otherwise, `generic`: constant-bound loops the autovectoriser turns
//!   into whatever the target offers. On AVX-512 builds it is compiled for
//!   tests only, as the oracle the intrinsics are compared against bit for
//!   bit.
//!
//! The `A` strip need not be packed: [`AStrip::Rows`] reads the tile's rows
//! of a row-major matrix where they lie, through its row stride — a dense
//! layer's weight, multiplied as the left operand without a copy. Step `p`
//! of row `i` is the element the packer would have stored at `p·MR + i`, so
//! the FMA chain, and every bit, is the packed strip's.
//!
//! The packers need the vector unit once more: a strip whose lanes are rows
//! of a matrix stored the other way round (a weight gradient's `dY` and
//! `colsᵀ`) is a transpose, and [`store_transposed`] does up to `TB × TB` of
//! it at a time — sixteen masked loads, 64 shuffles and sixteen masked
//! stores with AVX-512F, a plain loop elsewhere. It moves bits and computes
//! nothing; a dense layer's out-major product reaches its output through it.
//!
//! A stride-1 convolution needs no packed `B` strip at all: [`direct_tile`]
//! is the same tile with each `LG`-lane group of the strip loaded straight
//! from its sample's plane, at the tap's offset and under the tap's lane
//! mask ([`TapMasks`]), and written back through its own `C` pointer — the
//! values the packer would have stored, the same FMA chain, the same bits.

use crate::conv::ConvGeom;
use std::ops::Range;

/// Side of the square block [`store_transposed`] transposes.
pub(crate) const TB: usize = 16;

/// Stores the block whose row `l` is `src[l·lds..][..width]` transposed:
/// element `i` of row `l` to `dst[i·ld + l]`, for the first `lanes ≤ TB`
/// rows and `width ≤ TB` elements, through `post` if there is one; nothing
/// else of `src` is read and nothing else of `dst` touched.
#[inline(always)]
pub(crate) fn store_transposed(
    src: &[f32],
    lds: usize,
    lanes: usize,
    width: usize,
    dst: &mut [f32],
    ld: usize,
    post: Option<Affine>,
) {
    #[cfg(target_feature = "avx512f")]
    avx512::store_transposed(src, lds, lanes, width, dst, ld, post);
    #[cfg(not(target_feature = "avx512f"))]
    generic::store_transposed(src, lds, lanes, width, dst, ld, post);
}

/// What [`store_transposed`] makes of row `l`'s element on its way out:
/// `scale · v + add[l]`, the product and the sum each rounded, the product
/// left out at `scale = 1` and the sum where `add` is `None`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Affine<'a> {
    pub(crate) scale: f32,
    pub(crate) add: Option<&'a [f32]>,
}

/// The `MR` rows of `op(A)` one tile multiplies, over its `kc` steps.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AStrip<'p> {
    /// Packed: step `p` of row `i` at `[p·MR + i]`, `kc`-major, the padding
    /// rows of an edge strip zero.
    Packed(&'p [f32]),
    /// Read where they lie, through the row stride `ld`: step `p` of the
    /// window's row `i` at `[(i − rows.start)·ld + p]`. A tile row outside
    /// the window reads the window row nearest to it, so no row past the
    /// ones that exist is read; it is computed and never written.
    Rows(&'p [f32], usize),
}

/// Where [`AStrip::Rows`] finds tile row `i` of the window `rows`.
#[inline(always)]
fn row_at(i: usize, rows: &Range<usize>, ld: usize) -> usize {
    (i.clamp(rows.start, rows.end - 1) - rows.start) * ld
}

/// Tile rows. With AVX-512F, 16 of the 32 `zmm` registers hold the
/// accumulator (8 rows × two 16-lane vectors: sixteen independent FMA chains
/// against a latency × throughput product of eight), two the `B` row, and
/// the `A` elements are broadcast from memory by the FMA itself — ten loads
/// for sixteen FMAs. Eight divides the batches a serving engine seals (32,
/// 64, 120) and the channel counts of the conv zoo; `forward_profile` prints
/// the fill per GEMM shape, and DESIGN.md §8.1 the tiles this one was
/// measured against.
#[cfg(target_feature = "avx512f")]
pub const MR: usize = 8;
/// Tile columns: two `zmm` vectors.
#[cfg(target_feature = "avx512f")]
pub const NR: usize = 32;
/// Tile rows. With sixteen vector registers, 12 hold the accumulator (6 rows
/// × two 8-lane vectors), leaving room for the `B` row vectors and the
/// broadcast `A` element.
#[cfg(not(target_feature = "avx512f"))]
pub const MR: usize = 6;
/// Tile columns: two 8-lane vectors.
#[cfg(not(target_feature = "avx512f"))]
pub const NR: usize = 16;

/// Multiplies the strips `a` (`kc × MR`) and `bp` (packed, `kc × NR`) and
/// writes rows `rows` and columns `cols` of the tile to
/// `c[c_off + (i - rows.start) * ldc + (j - cols.start)]`: added to what `C`
/// holds as `fma(alpha, acc, C)`, or with `store` written over it — NaN
/// included — with the bits adding to a zeroed `C` would leave. A full tile
/// is the window `0..MR × 0..NR`; an edge tile `0..mr × 0..nr`, the padded
/// lanes of the strips being zero and never written.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn micro_kernel(
    kc: usize,
    alpha: f32,
    a: AStrip,
    bp: &[f32],
    c: &mut [f32],
    c_off: usize,
    ldc: usize,
    rows: Range<usize>,
    cols: Range<usize>,
    store: bool,
) {
    #[cfg(target_feature = "avx512f")]
    avx512::tile(kc, alpha, a, bp, c, c_off, ldc, rows, cols, store);
    #[cfg(not(target_feature = "avx512f"))]
    generic::tile(kc, alpha, a, bp, c, c_off, ldc, rows, cols, store);
}

/// Lanes of a *lane group* of [`direct_tile`]: `LG` consecutive output
/// positions of one sample, one `zmm` load.
pub(crate) const LG: usize = 16;
/// Lane groups per `NR`-column strip.
pub(crate) const GROUPS: usize = NR / LG;
const _: () = assert!(NR.is_multiple_of(LG));

/// How the taps of a convolution [`ConvGeom::direct`] admits read a plane:
/// tap `t` of output position `q` reads it `shifts[t] = ki·w + kj −
/// pad·(w+1)` floats on from `q`, and bit `l` of `masks[col·taps + t]` is
/// set exactly where position `col·LG + l` reads inside the plane rather
/// than padding; row `col = groups`, past the last lane group, is zero, for
/// a strip's padding groups. That is the invariant every load of the direct
/// body rests on: a set bit addresses `[0, H·W)` of its channel's plane.
#[derive(Debug, Default)]
pub(crate) struct TapMasks {
    geom: Option<ConvGeom>,
    taps: usize,
    plane: usize,
    groups: usize,
    shifts: Vec<isize>,
    masks: Vec<u16>,
}

impl TapMasks {
    /// The table of `g`, built unless it is the one held (grow-only).
    pub(crate) fn of(&mut self, g: &ConvGeom) -> &TapMasks {
        assert!(g.direct(), "no direct convolution over {g:?}");
        if self.geom != Some(*g) {
            let (h, w, pad) = (g.h as isize, g.w as isize, g.pad as isize);
            let (taps, out_len) = (g.kh * g.kw, g.out_len());
            let tap_at = |t: usize| ((t / g.kw) as isize, (t % g.kw) as isize);
            self.shifts.clear();
            self.shifts.extend(
                (0..taps)
                    .map(tap_at)
                    .map(|(ki, kj)| ki * w + kj - pad * (w + 1)),
            );
            self.masks.clear();
            for q0 in (0..out_len).step_by(LG) {
                for (ki, kj) in (0..taps).map(tap_at) {
                    let reads = |l: usize| {
                        let (oy, ox) = (((q0 + l) / g.w) as isize, ((q0 + l) % g.w) as isize);
                        (0..h).contains(&(oy + ki - pad)) && (0..w).contains(&(ox + kj - pad))
                    };
                    self.masks
                        .push((0..LG).filter(|&l| reads(l)).fold(0, |m, l| m | 1 << l));
                }
            }
            self.masks.resize(self.masks.len() + taps, 0);
            (self.taps, self.plane, self.groups) = (taps, g.h * g.w, out_len / LG);
            self.geom = Some(*g);
        }
        self
    }

    /// The masks of lane group `col` (`groups`: a padding group's), by tap.
    #[inline(always)]
    fn row(&self, col: usize) -> &[u16] {
        &self.masks[col * self.taps..][..self.taps]
    }

    /// Where `k` step `p` reads: tap `p % taps` of the channel whose plane
    /// starts `(p / taps)·H·W` floats into the sample.
    #[inline(always)]
    fn step(&self, p: usize) -> (usize, usize) {
        (p / self.taps * self.plane, p % self.taps)
    }

    /// The step after `(chan, tap)`: the next tap, or the next channel's
    /// first.
    #[inline(always)]
    fn next(&self, (chan, tap): (usize, usize)) -> (usize, usize) {
        if tap + 1 == self.taps {
            (chan + self.plane, 0)
        } else {
            (chan, tap + 1)
        }
    }
}

/// One lane group of a [`direct_tile`] strip: positions `col·LG ..
/// (col+1)·LG` of the sample whose planes start at `image[sample..]`, and
/// where its lanes of the window's first row go in `C`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneGroup {
    pub(crate) sample: usize,
    pub(crate) col: usize,
    pub(crate) c_at: usize,
}

/// [`micro_kernel`] with the `NR`-column strip of `B` read in place: `k`
/// step `p` of `p0..p0 + kc` (channel-major, tap-minor, as a conv weight
/// row runs) loads lane `l` of group `v` from
/// `image[sample + (p / taps)·H·W + col·LG + l + shifts[p % taps]]` where the
/// tap's mask sets its bit and `+0.0` elsewhere — the bytes
/// `Im2col::pack_cols` packs — and rows `rows` of the group go to
/// `c[c_at + (i - rows.start)·ldc ..][..LG]`, stored or accumulated as
/// [`micro_kernel`] does with `alpha = 1`. A `None` group is padding: zeros,
/// never written.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn direct_tile(
    p0: usize,
    kc: usize,
    ap: &[f32],
    image: &[f32],
    taps: &TapMasks,
    groups: &[Option<LaneGroup>; GROUPS],
    c: &mut [f32],
    ldc: usize,
    rows: Range<usize>,
    store: bool,
) {
    #[cfg(target_feature = "avx512f")]
    avx512::direct_tile(p0, kc, ap, image, taps, groups, c, ldc, rows, store);
    #[cfg(not(target_feature = "avx512f"))]
    generic::direct_tile(p0, kc, ap, image, taps, groups, c, ldc, rows, store);
}

#[cfg(any(test, not(target_feature = "avx512f")))]
mod generic {
    use super::{row_at, AStrip, Affine, LaneGroup, TapMasks, GROUPS, LG, MR, NR};
    use std::ops::Range;

    /// Fused multiply-add `a * b + c` on hardware FMA; plain `a * b + c`
    /// when the target lacks it (where `f32::mul_add` would be a slow libm
    /// call).
    #[inline(always)]
    fn fmadd(a: f32, b: f32, c: f32) -> f32 {
        #[cfg(target_feature = "fma")]
        {
            a.mul_add(b, c)
        }
        #[cfg(not(target_feature = "fma"))]
        {
            a * b + c
        }
    }

    #[inline(always)]
    pub(super) fn store_transposed(
        src: &[f32],
        lds: usize,
        lanes: usize,
        width: usize,
        dst: &mut [f32],
        ld: usize,
        post: Option<Affine>,
    ) {
        for (i, out) in dst.chunks_mut(ld).take(width).enumerate() {
            for (l, d) in out[..lanes].iter_mut().enumerate() {
                let mut v = src[l * lds + i];
                if let Some(Affine { scale, add }) = post {
                    if scale != 1.0 {
                        v *= scale;
                    }
                    if let Some(add) = add {
                        v += add[l];
                    }
                }
                *d = v;
            }
        }
    }

    /// One tile of partial products, aligned so that a row is exactly one
    /// cache line: behind the aligned wrapper the accumulators stay in
    /// registers for the whole FMA loop and are spilled once, with aligned
    /// stores, after it; a bare array is kept current in the caller's frame,
    /// one unaligned store per FMA.
    #[repr(align(64))]
    struct Tile([[f32; NR]; MR]);

    /// One `k` step of the tile. Constant bounds let the autovectoriser emit
    /// one FMA chain per row and vector.
    #[inline(always)]
    fn fma_step(acc: &mut [[f32; NR]; MR], a_col: &[f32], b_row: &[f32; NR]) {
        let a_col: &[f32; MR] = a_col.try_into().expect("MR-wide chunk");
        for i in 0..MR {
            let aip = a_col[i];
            for j in 0..NR {
                acc[i][j] = fmadd(aip, b_row[j], acc[i][j]);
            }
        }
    }

    /// The accumulator loop.
    #[inline(always)]
    fn accumulate(kc: usize, ap: &[f32], bp: &[f32]) -> Tile {
        let mut acc = [[0.0f32; NR]; MR];
        for (a_col, b_row) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
            fma_step(&mut acc, a_col, b_row.try_into().expect("NR-wide chunk"));
        }
        Tile(acc)
    }

    /// The accumulator loop over rows read in place ([`AStrip::Rows`]).
    #[inline(always)]
    fn accumulate_rows(kc: usize, a: &[f32], ld: usize, rows: &Range<usize>, bp: &[f32]) -> Tile {
        let at: [usize; MR] = std::array::from_fn(|i| row_at(i, rows, ld));
        let mut acc = [[0.0f32; NR]; MR];
        for (p, b_row) in bp.chunks_exact(NR).take(kc).enumerate() {
            let a_col: [f32; MR] = std::array::from_fn(|i| a[at[i] + p]);
            fma_step(&mut acc, &a_col, b_row.try_into().expect("NR-wide chunk"));
        }
        Tile(acc)
    }

    /// `C = fma(alpha, acc, C)`, or over `+0.0` when storing, lane by lane.
    #[inline(always)]
    fn write_back(c_row: &mut [f32], acc: &[f32], alpha: f32, store: bool) {
        for (cv, &av) in c_row.iter_mut().zip(acc) {
            let base = if store { 0.0 } else { *cv };
            *cv = fmadd(alpha, av, base);
        }
    }

    /// The `B` row of tap `tap` of the channel at plane offset `chan`: each
    /// group's lanes read from the image where the tap's mask sets them,
    /// `+0.0` elsewhere.
    #[inline(always)]
    fn direct_row(
        (chan, tap): (usize, usize),
        image: &[f32],
        taps: &TapMasks,
        groups: &[Option<LaneGroup>; GROUPS],
    ) -> [f32; NR] {
        let mut b_row = [0.0f32; NR];
        for (lanes, g) in b_row.chunks_exact_mut(LG).zip(groups) {
            let Some(g) = g else { continue };
            let bits = taps.row(g.col)[tap];
            let first = (g.sample + chan + g.col * LG) as isize + taps.shifts[tap];
            for (l, b) in lanes.iter_mut().enumerate() {
                if bits >> l & 1 == 1 {
                    *b = image[(first + l as isize) as usize];
                }
            }
        }
        b_row
    }

    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) fn direct_tile(
        p0: usize,
        kc: usize,
        ap: &[f32],
        image: &[f32],
        taps: &TapMasks,
        groups: &[Option<LaneGroup>; GROUPS],
        c: &mut [f32],
        ldc: usize,
        rows: Range<usize>,
        store: bool,
    ) {
        assert!(ap.len() / MR >= kc, "A strip {} for kc {kc}", ap.len());
        let (mut acc, mut step) = (Tile([[0.0f32; NR]; MR]), taps.step(p0));
        for a_col in ap.chunks_exact(MR).take(kc) {
            fma_step(&mut acc.0, a_col, &direct_row(step, image, taps, groups));
            step = taps.next(step);
        }
        for (i, acc_row) in rows.clone().zip(&acc.0[rows.clone()]) {
            for (lanes, g) in acc_row.chunks_exact(LG).zip(groups) {
                let Some(g) = g else { continue };
                let c_row = &mut c[g.c_at + (i - rows.start) * ldc..][..LG];
                write_back(c_row, lanes, 1.0, store);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) fn tile(
        kc: usize,
        alpha: f32,
        a: AStrip,
        bp: &[f32],
        c: &mut [f32],
        c_off: usize,
        ldc: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        store: bool,
    ) {
        if rows.is_empty() || cols.is_empty() {
            return;
        }
        let Tile(acc) = match a {
            AStrip::Packed(ap) => accumulate(kc, ap, bp),
            AStrip::Rows(a, ld) => accumulate_rows(kc, a, ld, &rows, bp),
        };
        if rows == (0..MR) && cols == (0..NR) {
            // Full tile: constant-bound write-back.
            for (i, acc_row) in acc.iter().enumerate() {
                let row = &mut c[c_off + i * ldc..c_off + i * ldc + NR];
                for j in 0..NR {
                    let base = if store { 0.0 } else { row[j] };
                    row[j] = fmadd(alpha, acc_row[j], base);
                }
            }
        } else {
            for (acc_row, c_row) in acc[rows].iter().zip(c[c_off..].chunks_mut(ldc)) {
                write_back(c_row, &acc_row[cols.clone()], alpha, store);
            }
        }
    }
}

#[cfg(target_feature = "avx512f")]
mod avx512 {
    use super::{row_at, AStrip, Affine, LaneGroup, TapMasks, GROUPS, LG, MR, NR, TB};
    use std::arch::x86_64::{
        __m512, __mmask16, _mm512_add_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps,
        _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_shuffle_f32x4, _mm512_shuffle_ps, _mm512_unpackhi_ps, _mm512_unpacklo_ps,
    };
    use std::ops::Range;

    /// `zmm` vectors per tile row.
    const NV: usize = NR / 16;
    // The accumulator, one row of `B` and a scratch register fit the file.
    const _: () = assert!(NR.is_multiple_of(16) && MR * NV + NV < 32);
    // A block row, and a lane group, is one `zmm` vector.
    const _: () = assert!(TB == 16 && LG == 16 && GROUPS == NV);

    #[inline(always)]
    pub(super) fn store_transposed(
        src: &[f32],
        lds: usize,
        lanes: usize,
        width: usize,
        dst: &mut [f32],
        ld: usize,
        post: Option<Affine>,
    ) {
        if lanes == 0 || width == 0 {
            return;
        }
        let add = post.and_then(|p| p.add);
        // One past the last element of `rows` rows of `len` at `stride`.
        let past = |rows: usize, stride: usize, len: usize| {
            (rows - 1)
                .checked_mul(stride)
                .and_then(|v| v.checked_add(len))
        };
        assert!(
            lanes <= TB
                && width <= TB
                && past(lanes, lds, width).is_some_and(|end| end <= src.len())
                && past(width, ld, lanes).is_some_and(|end| end <= dst.len())
                && add.is_none_or(|add| add.len() >= lanes),
            "{lanes} rows of {width} at stride {lds} ({}) into {lanes} lanes at stride {ld} ({})",
            src.len(),
            dst.len()
        );
        let scale = post.map_or(1.0, |p| p.scale);
        let add = add.map(|add| add.as_ptr());
        // SAFETY: the cfg on this module says the target has AVX-512F, and
        // the assert puts elements `0..width` of rows `0..lanes` at stride
        // `lds` inside `src`, lanes `0..lanes` of rows `0..width` at stride
        // `ld` inside `dst`, which is borrowed mutably for the call, and
        // `lanes` floats behind `add`.
        unsafe {
            let (src, dst) = (src.as_ptr(), dst.as_mut_ptr());
            transpose_unchecked(src, lds, lanes, width, dst, ld, scale, add)
        }
    }

    /// The 16×16 transpose in four rounds of shuffles: row pairs
    /// interleaved, then 2×2 blocks of pairs, then the 128-bit quarters
    /// twice over — after which vector `i` holds column `i`, scaled unless
    /// `scale` is 1 and plus `add` unless it is null. Rows past `lanes` and
    /// elements past `width` are masked off: never read, never written.
    ///
    /// # Safety
    /// The target has AVX-512F; `src + l·lds` points at `width` readable
    /// floats for every `l < lanes`; `dst + i·ld` at `lanes` floats this
    /// call may write for every `i < width`; `add`, unless null, at `lanes`
    /// readable floats; `lanes, width ≤ TB`. A masked access touches only
    /// the lanes of its mask; no other address is accessed.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn transpose_unchecked(
        src: *const f32,
        lds: usize,
        lanes: usize,
        width: usize,
        dst: *mut f32,
        ld: usize,
        scale: f32,
        add: Option<*const f32>,
    ) {
        let (read, mask) = (lane_mask(&(0..width), 0), lane_mask(&(0..lanes), 0));
        let mut r = [_mm512_setzero_ps(); TB];
        for (l, v) in r.iter_mut().enumerate() {
            let read = if l < lanes { read } else { 0 };
            // SAFETY: the elements `read` sets of row `l`, which the caller
            // vouches for; none past row `lanes`.
            *v = unsafe { _mm512_maskz_loadu_ps(read, src.wrapping_add(l * lds)) };
        }
        let mut t = [_mm512_setzero_ps(); TB];
        for k in (0..TB).step_by(2) {
            t[k] = _mm512_unpacklo_ps(r[k], r[k + 1]);
            t[k + 1] = _mm512_unpackhi_ps(r[k], r[k + 1]);
        }
        // `r[4g + j]`: column `4q + j` of rows `4g..4g+4` in quarter `q`.
        for b in (0..TB).step_by(4) {
            r[b] = _mm512_shuffle_ps::<0x44>(t[b], t[b + 2]);
            r[b + 1] = _mm512_shuffle_ps::<0xEE>(t[b], t[b + 2]);
            r[b + 2] = _mm512_shuffle_ps::<0x44>(t[b + 1], t[b + 3]);
            r[b + 3] = _mm512_shuffle_ps::<0xEE>(t[b + 1], t[b + 3]);
        }
        for b in (0..TB).step_by(8) {
            for j in 0..4 {
                t[b + j] = _mm512_shuffle_f32x4::<0x88>(r[b + j], r[b + 4 + j]);
                t[b + 4 + j] = _mm512_shuffle_f32x4::<0xDD>(r[b + j], r[b + 4 + j]);
            }
        }
        for j in 0..TB / 2 {
            r[j] = _mm512_shuffle_f32x4::<0x88>(t[j], t[TB / 2 + j]);
            r[TB / 2 + j] = _mm512_shuffle_f32x4::<0xDD>(t[j], t[TB / 2 + j]);
        }
        if scale != 1.0 {
            r = r.map(|column| _mm512_mul_ps(column, _mm512_set1_ps(scale)));
        }
        if let Some(add) = add {
            // SAFETY: the `lanes` floats behind `add`, which the caller
            // vouches for.
            let add = unsafe { _mm512_maskz_loadu_ps(mask, add) };
            r = r.map(|column| _mm512_add_ps(column, add));
        }
        for (i, column) in r.iter().enumerate() {
            let mask = if i < width { mask } else { 0 };
            // SAFETY: the lanes `mask` sets of row `i`, which the caller
            // vouches for; none past row `width`.
            unsafe { _mm512_mask_storeu_ps(dst.wrapping_add(i * ld), mask, *column) };
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) fn tile(
        kc: usize,
        alpha: f32,
        a: AStrip,
        bp: &[f32],
        c: &mut [f32],
        c_off: usize,
        ldc: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        store: bool,
    ) {
        if rows.is_empty() || cols.is_empty() {
            return;
        }
        // The `A` strip holds `kc` steps of every row the window reads.
        let (a_ok, a_len) = match a {
            AStrip::Packed(ap) => (ap.len() / MR >= kc, ap.len()),
            AStrip::Rows(a, ld) => {
                let end = (rows.len() - 1)
                    .checked_mul(ld)
                    .and_then(|v| v.checked_add(kc));
                (end.is_some_and(|end| end <= a.len()), a.len())
            }
        };
        assert!(
            rows.end <= MR && cols.end <= NR && a_ok && bp.len() / NR >= kc,
            "window {rows:?} x {cols:?} of a {MR}x{NR} tile, strips {a_len}/{} for kc {kc}",
            bp.len()
        );
        // One past the last element of the window, which is its last row's
        // last column.
        let end = (rows.len() - 1)
            .checked_mul(ldc)
            .and_then(|v| v.checked_add(c_off))
            .and_then(|v| v.checked_add(cols.len()));
        assert!(
            end.is_some_and(|end| end <= c.len()),
            "window {rows:?} x {cols:?} at {c_off} (ld {ldc}) leaves C ({})",
            c.len()
        );
        // Lane 0 of the window's first row: `cols.start` floats before the
        // first element written, so possibly before `c` itself — computed
        // with wrapping arithmetic and only ever accessed under the mask.
        let origin = c.as_mut_ptr().wrapping_add(c_off).wrapping_sub(cols.start);
        let b = bp.as_ptr();
        // SAFETY: the cfg on this module says the target has AVX-512F. The
        // asserts above give `kc` readable steps of every row the `A` strip
        // reads — `kc * MR` floats behind a packed one; `kc` floats from
        // each of the window's rows, which are all a strip read in place
        // addresses (`row_at`) — `kc * NR` floats behind `bp`, a window
        // inside the `MR×NR` tile, and every element `origin + (i -
        // rows.start) * ldc + j` for `i` in `rows`, `j` in `cols` inside
        // `c`, which is borrowed mutably for the call.
        unsafe {
            match a {
                AStrip::Packed(ap) => {
                    let a = Packed(ap.as_ptr());
                    tile_unchecked(kc, alpha, a, b, origin, ldc, rows, cols, store)
                }
                AStrip::Rows(a, ld) => {
                    let at = std::array::from_fn(|i| a.as_ptr().wrapping_add(row_at(i, &rows, ld)));
                    tile_unchecked(kc, alpha, InPlace(at, 0), b, origin, ldc, rows, cols, store)
                }
            }
        }
    }

    /// How [`tile_unchecked`] walks its `A` strip: one `k` step's `MR`
    /// broadcasts into the accumulator, then on to the next step.
    trait AWalk {
        /// # Safety
        /// The target has AVX-512F and the current step's `MR` elements are
        /// readable.
        unsafe fn step(&mut self, acc: &mut [[__m512; NV]; MR], b_row: &[__m512; NV]);
    }

    /// A packed strip: the step's `MR` elements side by side.
    struct Packed(*const f32);

    impl AWalk for Packed {
        #[inline(always)]
        unsafe fn step(&mut self, acc: &mut [[__m512; NV]; MR], b_row: &[__m512; NV]) {
            // SAFETY: the step's `MR` floats, which the caller vouches for;
            // the next step is at most one past the end of the strip.
            unsafe {
                fma_step(acc, self.0, b_row);
                self.0 = self.0.add(MR);
            }
        }
    }

    /// Rows read in place: tile row `i` from its own first element, all of
    /// them at the current step `p`.
    struct InPlace([*const f32; MR], usize);

    impl AWalk for InPlace {
        #[inline(always)]
        unsafe fn step(&mut self, acc: &mut [[__m512; NV]; MR], b_row: &[__m512; NV]) {
            let p = self.1;
            for (acc_row, row) in acc.iter_mut().zip(&self.0) {
                // SAFETY: row `i`'s element of the step, which the caller
                // vouches for.
                let a_ip = _mm512_set1_ps(unsafe { *row.add(p) });
                for (lane, bv) in acc_row.iter_mut().zip(b_row) {
                    *lane = _mm512_fmadd_ps(a_ip, *bv, *lane);
                }
            }
            self.1 = p + 1;
        }
    }

    /// The lanes of a row's `v`-th vector that `cols` covers.
    #[inline(always)]
    fn lane_mask(cols: &Range<usize>, v: usize) -> __mmask16 {
        let bit = |j: usize| 1u32 << j.saturating_sub(16 * v).min(16);
        (bit(cols.end) - bit(cols.start)) as __mmask16
    }

    /// # Safety
    /// The target has AVX-512F; `a` walks `kc` readable steps and `b` points
    /// at `kc * NR` readable floats; `rows` and `cols` are non-empty windows
    /// of `0..MR` and `0..NR`; and for every `i` in `rows` and `j` in
    /// `cols`, `origin + (i - rows.start) * ldc + j` is a float this call
    /// may read and write. No other address is accessed.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn tile_unchecked(
        kc: usize,
        alpha: f32,
        mut a: impl AWalk,
        mut b: *const f32,
        origin: *mut f32,
        ldc: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        store: bool,
    ) {
        let mut acc = [[_mm512_setzero_ps(); NV]; MR];
        for _ in 0..kc {
            let mut b_row = [_mm512_setzero_ps(); NV];
            for (v, bv) in b_row.iter_mut().enumerate() {
                // SAFETY: inside the `kc * NR` floats behind `b`.
                *bv = unsafe { _mm512_loadu_ps(b.add(16 * v)) };
            }
            // SAFETY: one of the `kc` steps `a` walks.
            unsafe { a.step(&mut acc, &b_row) };
            // SAFETY: at most one past the end of the strip.
            b = unsafe { b.add(NR) };
        }
        let masks: [__mmask16; NV] = std::array::from_fn(|v| lane_mask(&cols, v));
        // Every row by its constant index, so the accumulators stay in
        // registers; the window skips the rest.
        for (i, acc_row) in acc.iter().enumerate() {
            if !rows.contains(&i) {
                continue;
            }
            let row = origin.wrapping_add((i - rows.start) * ldc);
            let at = std::array::from_fn(|v| row.wrapping_add(16 * v));
            // SAFETY: the lanes `masks` set at `at` are columns `cols` of
            // row `i`, which the caller vouches for.
            unsafe { write_back(acc_row, alpha, at, &masks, store) };
        }
    }

    /// One `k` step of the tile: `acc[i][v] = fma(a[i], b_row[v], acc[i][v])`.
    ///
    /// # Safety
    /// The target has AVX-512F and `a` points at `MR` readable floats.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn fma_step(acc: &mut [[__m512; NV]; MR], a: *const f32, b_row: &[__m512; NV]) {
        for (i, acc_row) in acc.iter_mut().enumerate() {
            // SAFETY: inside the `MR` floats behind `a`.
            let a_ip = _mm512_set1_ps(unsafe { *a.add(i) });
            for (lane, bv) in acc_row.iter_mut().zip(b_row) {
                *lane = _mm512_fmadd_ps(a_ip, *bv, *lane);
            }
        }
    }

    /// One tile row's write-back: vector `v` of `acc_row` to `at[v]` under
    /// `masks[v]`, as `fma(alpha, acc, C)` or, storing, over `+0.0`.
    ///
    /// # Safety
    /// The target has AVX-512F, and for every `v` the lanes `masks[v]` sets
    /// at `at[v]` are floats this call may read and write. A masked access
    /// touches only the lanes of its mask; no other address is accessed.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn write_back(
        acc_row: &[__m512; NV],
        alpha: f32,
        at: [*mut f32; NV],
        masks: &[__mmask16; NV],
        store: bool,
    ) {
        let alpha = _mm512_set1_ps(alpha);
        for ((&lane, &mask), at) in acc_row.iter().zip(masks).zip(at) {
            // SAFETY: the lanes of `mask` at `at`, which the caller vouches
            // for.
            unsafe {
                let base: __m512 = if store {
                    _mm512_setzero_ps()
                } else {
                    _mm512_maskz_loadu_ps(mask, at)
                };
                _mm512_mask_storeu_ps(at, mask, _mm512_fmadd_ps(alpha, lane, base));
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) fn direct_tile(
        p0: usize,
        kc: usize,
        ap: &[f32],
        image: &[f32],
        taps: &TapMasks,
        groups: &[Option<LaneGroup>; GROUPS],
        c: &mut [f32],
        ldc: usize,
        rows: Range<usize>,
        store: bool,
    ) {
        if rows.is_empty() {
            return;
        }
        assert!(
            rows.end <= MR && ap.len() / MR >= kc,
            "window {rows:?} of {MR} rows, A strip {} for kc {kc}",
            ap.len()
        );
        // The planes of a sample that steps `p0..p0 + kc` read.
        let planes = (p0 + kc).div_ceil(taps.taps);
        let mut lanes = Lanes {
            base: [image.as_ptr(); NV],
            masks: [taps.row(taps.groups); NV],
            origin: [c.as_mut_ptr(); NV],
            live: [0; NV],
        };
        for (v, g) in groups.iter().enumerate() {
            let Some(g) = g else { continue };
            let reads = planes
                .checked_mul(taps.plane)
                .and_then(|len| len.checked_add(g.sample));
            assert!(
                g.col < taps.groups && reads.is_some_and(|end| end <= image.len()),
                "lane group {g:?} reads {planes} planes of {} past the image ({})",
                taps.plane,
                image.len()
            );
            // One past the last element written: lane `LG - 1` of the
            // window's last row.
            let end = (rows.len() - 1)
                .checked_mul(ldc)
                .and_then(|v| v.checked_add(g.c_at))
                .and_then(|v| v.checked_add(LG));
            assert!(
                end.is_some_and(|end| end <= c.len()),
                "lane group {g:?}, window {rows:?} (ld {ldc}) leaves C ({})",
                c.len()
            );
            lanes.base[v] = image.as_ptr().wrapping_add(g.sample + g.col * LG);
            lanes.masks[v] = taps.row(g.col);
            lanes.origin[v] = c.as_mut_ptr().wrapping_add(g.c_at);
            lanes.live[v] = !0;
        }
        // SAFETY: the cfg on this module says the target has AVX-512F. The
        // asserts above give `kc * MR` readable floats behind `ap`, a window
        // inside the `MR` rows, and for every live group `v`: its own row of
        // masks, `planes` planes of the sample `base[v]` points into inside
        // `image` — so every lane a tap's mask sets, which lies in `[0, H·W)`
        // of its plane (`TapMasks`' invariant), is readable — and `LG` lanes
        // of every window row from `origin[v]` on inside `c`, which is
        // borrowed mutably for the call. A padding group's masks are the
        // table's zero row and `live` zero: it touches nothing.
        unsafe { direct_unchecked(p0, kc, ap.as_ptr(), taps, &lanes, ldc, rows, store) }
    }

    /// Where the lane groups of a [`direct_tile`] strip read and write: the
    /// group's first position in channel 0 of its sample, its masks by tap,
    /// its first window row in `C`, and whether it is written at all.
    struct Lanes<'t> {
        base: [*const f32; NV],
        masks: [&'t [u16]; NV],
        origin: [*mut f32; NV],
        live: [__mmask16; NV],
    }

    /// # Safety
    /// The target has AVX-512F; `a` points at `kc * MR` readable floats;
    /// `rows` is a non-empty window of `0..MR`; and for every group `v`: a
    /// lane `l` that `lanes.masks[v][t]` sets reads
    /// `base[v] + (p / taps)·plane + shifts[t] + l`, which for every step `p`
    /// of `p0..p0 + kc` (tap `t = p % taps`) is a float this call may read;
    /// and where `lanes.live[v]` is set, `origin[v] + (i - rows.start)·ldc +
    /// l` is one it may read and write for every `i` in `rows` and `l < LG`.
    /// No other address is accessed.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn direct_unchecked(
        p0: usize,
        kc: usize,
        mut a: *const f32,
        taps: &TapMasks,
        lanes: &Lanes,
        ldc: usize,
        rows: Range<usize>,
        store: bool,
    ) {
        let (mut acc, mut step) = ([[_mm512_setzero_ps(); NV]; MR], taps.step(p0));
        for _ in 0..kc {
            let (chan, tap) = step;
            // SAFETY: `tap < taps.taps`, the length of `shifts` and of every
            // row of masks (`TapMasks::row`).
            let at = chan as isize + unsafe { *taps.shifts.get_unchecked(tap) };
            let mut b_row = [_mm512_setzero_ps(); NV];
            for (v, bv) in b_row.iter_mut().enumerate() {
                // SAFETY: the lanes the tap's mask sets, which the caller
                // vouches for; a masked load touches no other.
                *bv = unsafe {
                    let mask = *lanes.masks[v].get_unchecked(tap);
                    _mm512_maskz_loadu_ps(mask, lanes.base[v].wrapping_offset(at))
                };
            }
            // SAFETY: inside the `kc * MR` floats behind `a`.
            unsafe { fma_step(&mut acc, a, &b_row) };
            // SAFETY: at most one past the end of the strip.
            a = unsafe { a.add(MR) };
            step = taps.next(step);
        }
        for (i, acc_row) in acc.iter().enumerate() {
            if !rows.contains(&i) {
                continue;
            }
            let at = lanes.origin.map(|o| o.wrapping_add((i - rows.start) * ldc));
            // SAFETY: `LG` lanes of row `i` of each live group, which the
            // caller vouches for.
            unsafe { write_back(acc_row, 1.0, at, &lanes.live, store) };
        }
    }
}

#[cfg(all(test, target_feature = "avx512f"))]
mod tests {
    use super::{avx512, generic, AStrip, Affine, LaneGroup, TapMasks, GROUPS, LG, MR, NR, TB};
    use crate::conv::ConvGeom;
    use crate::matmul::KC;
    use crate::rng::SeededRng;
    use std::ops::Range;

    /// A quiet NaN no arithmetic here produces: what `C` holds wherever a
    /// window must not write.
    const POISON: u32 = 0x7fc0_dead;
    const LDC: usize = NR + 3;
    const C_OFF: usize = 5;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs both bodies on one window, the `A` strip packed and read in
    /// place from rows that hold the same values, and checks that all four
    /// leave the generic packed body's bits everywhere and the poison
    /// everywhere outside the window. The rows read in place are exactly the
    /// window's: a read past them panics in the generic body and fails the
    /// assert before the intrinsics.
    fn check_window(
        rng: &mut SeededRng,
        kc: usize,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
        alpha: f32,
        store: bool,
    ) {
        let ap: Vec<f32> = (0..kc * MR).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let bp: Vec<f32> = (0..kc * NR).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut start = vec![f32::from_bits(POISON); C_OFF + MR * LDC];
        let inside = |at: usize| {
            at >= C_OFF && (at - C_OFF) / LDC < rows.len() && (at - C_OFF) % LDC < cols.len()
        };
        for (at, v) in start.iter_mut().enumerate() {
            if inside(at) {
                // A stored window may hold anything; an accumulated one is read.
                *v = if store {
                    f32::NAN
                } else {
                    rng.uniform(-1.0, 1.0)
                };
            }
        }
        // The window's rows of `ap`, row-major at a stride past `kc`.
        let ld = kc + 3;
        let mut in_rows = vec![f32::NAN; (rows.len() - 1) * ld + kc];
        for (i, row) in rows.clone().zip(in_rows.chunks_mut(ld)) {
            for (p, v) in row[..kc].iter_mut().enumerate() {
                *v = ap[p * MR + i];
            }
        }
        let mut want = start.clone();
        let (r, c) = (rows.clone(), cols.clone());
        let packed = AStrip::Packed(&ap);
        generic::tile(kc, alpha, packed, &bp, &mut want, C_OFF, LDC, r, c, store);
        let in_place = AStrip::Rows(&in_rows, ld);
        for (zmm, a, what) in [
            (true, packed, "zmm packed"),
            (true, in_place, "zmm in place"),
            (false, in_place, "generic in place"),
        ] {
            let (mut got, r, c) = (start.clone(), rows.clone(), cols.clone());
            if zmm {
                avx512::tile(kc, alpha, a, &bp, &mut got, C_OFF, LDC, r, c, store);
            } else {
                generic::tile(kc, alpha, a, &bp, &mut got, C_OFF, LDC, r, c, store);
            }
            let case = || {
                format!("{what}: kc {kc} rows {rows:?} cols {cols:?} alpha {alpha} store {store}")
            };
            assert_eq!(bits(&got), bits(&want), "{}", case());
            for (at, v) in got.iter().enumerate() {
                assert_eq!(
                    v.to_bits() == POISON,
                    !inside(at),
                    "{}: element {at}",
                    case()
                );
            }
        }
    }

    /// The intrinsics body is the generic body bit for bit, and a strip read
    /// in place is the packed strip: every window of the tile, storing and
    /// accumulating, `alpha` one and not, at short `kc`; then random windows
    /// at `kc` up to a whole `KC` block.
    #[test]
    fn the_zmm_body_is_bitwise_the_generic_body_on_every_window() {
        let mut rng = SeededRng::new(53);
        for i0 in 0..MR {
            for i1 in i0 + 1..=MR {
                for j0 in 0..NR {
                    for j1 in j0 + 1..=NR {
                        let kc = 1 + rng.below(6);
                        for (alpha, store) in
                            [(1.0, true), (0.37, true), (1.0, false), (0.37, false)]
                        {
                            check_window(&mut rng, kc, i0..i1, j0..j1, alpha, store);
                        }
                    }
                }
            }
        }
        for case in 0..96 {
            let kc = if case % 8 == 0 { KC } else { 1 + rng.below(KC) };
            let (i0, j0) = (rng.below(MR), rng.below(NR));
            let (i1, j1) = (i0 + 1 + rng.below(MR - i0), j0 + 1 + rng.below(NR - j0));
            let alpha = if case % 2 == 0 { 1.0 } else { 0.37 };
            check_window(&mut rng, kc, i0..i1, j0..j1, alpha, case % 4 < 2);
        }
        check_window(&mut rng, KC, 0..MR, 0..NR, 0.37, true);
        check_window(&mut rng, KC, 0..MR, 0..NR, 1.0, false);
    }

    fn same(h: usize, w: usize, k: usize) -> ConvGeom {
        let pad = (k - 1) / 2;
        ConvGeom {
            h,
            w,
            kh: k,
            kw: k,
            stride: 1,
            pad,
        }
    }

    /// Runs both bodies of the direct tile on one strip of three samples —
    /// each live group at a random sample and column, side by side in `C` —
    /// from a random `k` step for up to a `KC` block, and checks that they
    /// leave the same bits everywhere and the poison wherever no live
    /// group's window reaches. The image holds NaN and `-0.0`, so the loads
    /// must move bits, not values.
    fn check_direct_strip(
        rng: &mut SeededRng,
        g: &ConvGeom,
        channels: usize,
        live: [bool; GROUPS],
        rows: Range<usize>,
        store: bool,
    ) {
        let (samples, plane, k) = (3, g.h * g.w, channels * g.kh * g.kw);
        let image: Vec<f32> = (0..samples * channels * plane)
            .map(|i| match i % 29 {
                0 => f32::NAN,
                1 => -0.0,
                _ => rng.uniform(-1.0, 1.0),
            })
            .collect();
        let p0 = rng.below(k);
        let kc = 1 + rng.below((k - p0).min(KC));
        let ap: Vec<f32> = (0..kc * MR).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let groups: [Option<LaneGroup>; GROUPS] = std::array::from_fn(|v| {
            live[v].then(|| LaneGroup {
                sample: rng.below(samples) * channels * plane,
                col: rng.below(g.out_len() / LG),
                c_at: C_OFF + v * LG,
            })
        });
        let mut table = TapMasks::default();
        let taps = table.of(g);
        let inside = |at: usize| {
            at >= C_OFF
                && (at - C_OFF) / LDC < rows.len()
                && live.get((at - C_OFF) % LDC / LG) == Some(&true)
        };
        let mut start = vec![f32::from_bits(POISON); C_OFF + MR * LDC];
        for (at, v) in start.iter_mut().enumerate() {
            if inside(at) {
                *v = if store {
                    f32::NAN
                } else {
                    rng.uniform(-1.0, 1.0)
                };
            }
        }
        let (mut want, mut got) = (start.clone(), start);
        let r = rows.clone();
        generic::direct_tile(p0, kc, &ap, &image, taps, &groups, &mut want, LDC, r, store);
        let r = rows.clone();
        avx512::direct_tile(p0, kc, &ap, &image, taps, &groups, &mut got, LDC, r, store);
        let case =
            || format!("{g:?} c {channels} p {p0}+{kc} {groups:?} rows {rows:?} store {store}");
        assert_eq!(bits(&got), bits(&want), "{}", case());
        for (at, v) in got.iter().enumerate() {
            assert_eq!(
                v.to_bits() == POISON,
                !inside(at),
                "{}: element {at}",
                case()
            );
        }
    }

    /// The direct body is the generic one bit for bit: "same" 1×1, 3×3 and
    /// 5×5 windows over square and flat planes, channel counts whose `k`
    /// passes a `KC` block, every pattern of live and padding lane groups,
    /// every row window, storing and accumulating.
    #[test]
    fn the_zmm_direct_body_is_bitwise_the_generic_body() {
        let mut rng = SeededRng::new(55);
        let geometries = [
            (same(4, 4, 3), 40),
            (same(8, 8, 3), 7),
            (same(16, 16, 3), 3),
            (same(4, 4, 1), 300),
            (same(8, 8, 5), 12),
            (same(2, 8, 3), 30),
        ];
        for (g, channels) in geometries {
            for live in 0..1u32 << GROUPS {
                let live = std::array::from_fn(|v| live >> v & 1 == 1);
                for i0 in 0..MR {
                    let i1 = i0 + 1 + rng.below(MR - i0);
                    for store in [true, false] {
                        check_direct_strip(&mut rng, &g, channels, live, i0..i1, store);
                    }
                }
            }
        }
    }

    /// A lane group that would read past the image is refused before any
    /// pointer is formed.
    #[test]
    #[should_panic(expected = "past the image")]
    fn a_lane_group_past_the_image_panics() {
        let g = same(4, 4, 3);
        let (image, ap) = (vec![0.0f32; 2 * 16], vec![0.0f32; 9 * MR]);
        let mut table = TapMasks::default();
        // Nine taps of the third channel: one plane more than the image has.
        let groups = std::array::from_fn(|v| {
            (v == 0).then_some(LaneGroup {
                sample: 0,
                col: 0,
                c_at: 0,
            })
        });
        let mut c = vec![0.0f32; MR * NR];
        let taps = table.of(&g);
        avx512::direct_tile(18, 9, &ap, &image, taps, &groups, &mut c, NR, 0..MR, true);
    }

    /// A window that leaves `C` is refused before any pointer is formed.
    #[test]
    #[should_panic(expected = "leaves C")]
    fn a_window_past_the_end_of_c_panics() {
        let (ap, bp) = (vec![0.0f32; MR], vec![0.0f32; NR]);
        let mut c = vec![0.0f32; 2 * LDC];
        let a = AStrip::Packed(&ap);
        avx512::tile(1, 1.0, a, &bp, &mut c, 0, LDC, 0..3, 0..NR, true);
    }

    /// Rows read in place that end before the window's last step are
    /// refused before any pointer is formed.
    #[test]
    #[should_panic(expected = "strips")]
    fn rows_short_of_the_window_panic() {
        let (a, bp) = (vec![0.0f32; 2 * 5 + 3], vec![0.0f32; 4 * NR]);
        let mut c = vec![0.0f32; MR * LDC];
        // Three rows at stride 5 need 2·5 + 4 floats for four steps.
        let a = AStrip::Rows(&a, 5);
        avx512::tile(4, 1.0, a, &bp, &mut c, 0, LDC, 2..5, 0..NR, true);
    }

    /// The shuffle transpose moves the bits the generic loop moves — NaN
    /// payloads and signed zeros included — for every lane count and
    /// width, no lanes and no width among them, and a few source and
    /// destination strides, reads only the `lanes × width` block (the source
    /// ends with it) and writes nothing else; and scaled and biased on the
    /// way out, it computes what the generic loop computes.
    #[test]
    fn the_zmm_transpose_is_bitwise_the_generic_loop() {
        let mut rng = SeededRng::new(54);
        for (lanes, width) in (0..=TB).flat_map(|l| (0..=TB).map(move |w| (l, w))) {
            let (l1, w1) = (lanes.max(1), width.max(1));
            for (lds, ld) in [(TB, TB), (TB + 3, 2 * TB), (2 * TB, l1), (w1, 37)] {
                // Sized for the block, or for one element where it is empty.
                let src: Vec<f32> = (0..(l1 - 1) * lds + w1)
                    .map(|i| match i % 7 {
                        0 => f32::from_bits(0x7fc0_0000 | i as u32),
                        1 => -0.0,
                        _ => rng.uniform(-1.0, 1.0),
                    })
                    .collect();
                let start = vec![f32::from_bits(POISON); (w1 - 1) * ld + l1];
                let add: Vec<f32> = (0..lanes).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let affine = Affine {
                    scale: 0.37,
                    add: Some(&add),
                };
                let (mut want, mut got) = (start.clone(), start.clone());
                generic::store_transposed(&src, lds, lanes, width, &mut want, ld, Some(affine));
                avx512::store_transposed(&src, lds, lanes, width, &mut got, ld, Some(affine));
                let case = format!("{lanes} lanes of {width}, strides {lds}/{ld}");
                assert_eq!(bits(&got), bits(&want), "{case}, scaled and biased");
                let (mut want, mut got) = (start.clone(), start);
                generic::store_transposed(&src, lds, lanes, width, &mut want, ld, None);
                avx512::store_transposed(&src, lds, lanes, width, &mut got, ld, None);
                assert_eq!(bits(&got), bits(&want), "{case}");
                for (at, v) in got.iter().enumerate() {
                    let inside = at / ld < width && at % ld < lanes;
                    assert_eq!(v.to_bits() != POISON, inside, "element {at}, {case}");
                    if inside {
                        let (i, l) = (at / ld, at % ld);
                        assert_eq!(v.to_bits(), src[l * lds + i].to_bits());
                    }
                }
            }
        }
    }
}
