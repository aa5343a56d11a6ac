//! The register-tile micro-kernel under [`crate::matmul::gemm`] and the two
//! panel drivers of [`crate::panels`], and the tile shape they pack for.
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
//! There are two bodies and the build target picks one, the way
//! [`fmadd`](crate::matmul::fmadd) picks FMA — a `cfg`, no runtime detection:
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
//! The packers need the vector unit once more: a strip whose lanes are rows
//! of a matrix stored the other way round (a weight gradient's `dY` and
//! `colsᵀ`) is a transpose, and [`store_transposed`] does `TB × TB` of it at
//! a time — sixteen loads, 64 shuffles and sixteen stores with AVX-512F, a
//! plain loop elsewhere. It moves bits and computes nothing.

use std::ops::Range;

/// Side of the square block [`store_transposed`] transposes.
pub(crate) const TB: usize = 16;

/// Stores the `TB × TB` block whose row `l` is `src[l·lds..][..TB]`
/// transposed: element `i` of row `l` to `dst[i·ld + l]`, for the first
/// `lanes ≤ TB` rows; nothing else of `dst` is touched.
#[inline(always)]
pub(crate) fn store_transposed(src: &[f32], lds: usize, lanes: usize, dst: &mut [f32], ld: usize) {
    #[cfg(target_feature = "avx512f")]
    avx512::store_transposed(src, lds, lanes, dst, ld);
    #[cfg(not(target_feature = "avx512f"))]
    generic::store_transposed(src, lds, lanes, dst, ld);
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

/// Multiplies the packed strips `ap` (`kc × MR`) and `bp` (`kc × NR`) and
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
    ap: &[f32],
    bp: &[f32],
    c: &mut [f32],
    c_off: usize,
    ldc: usize,
    rows: Range<usize>,
    cols: Range<usize>,
    store: bool,
) {
    #[cfg(target_feature = "avx512f")]
    avx512::tile(kc, alpha, ap, bp, c, c_off, ldc, rows, cols, store);
    #[cfg(not(target_feature = "avx512f"))]
    generic::tile(kc, alpha, ap, bp, c, c_off, ldc, rows, cols, store);
}

#[cfg(any(test, not(target_feature = "avx512f")))]
mod generic {
    use super::{MR, NR, TB};
    use crate::matmul::fmadd;
    use std::ops::Range;

    #[inline(always)]
    pub(super) fn store_transposed(
        src: &[f32],
        lds: usize,
        lanes: usize,
        dst: &mut [f32],
        ld: usize,
    ) {
        for (i, out) in dst.chunks_mut(ld).take(TB).enumerate() {
            for (l, d) in out[..lanes].iter_mut().enumerate() {
                *d = src[l * lds + i];
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

    /// The accumulator loop. Constant bounds let the autovectoriser emit one
    /// FMA chain per row and vector.
    #[inline(always)]
    fn accumulate(kc: usize, ap: &[f32], bp: &[f32]) -> Tile {
        let mut acc = [[0.0f32; NR]; MR];
        for (a_col, b_row) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
            let a_col: &[f32; MR] = a_col.try_into().expect("MR-wide chunk");
            let b_row: &[f32; NR] = b_row.try_into().expect("NR-wide chunk");
            for i in 0..MR {
                let aip = a_col[i];
                for j in 0..NR {
                    acc[i][j] = fmadd(aip, b_row[j], acc[i][j]);
                }
            }
        }
        Tile(acc)
    }

    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) fn tile(
        kc: usize,
        alpha: f32,
        ap: &[f32],
        bp: &[f32],
        c: &mut [f32],
        c_off: usize,
        ldc: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        store: bool,
    ) {
        let Tile(acc) = accumulate(kc, ap, bp);
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
                for (cv, &av) in c_row.iter_mut().zip(&acc_row[cols.clone()]) {
                    let base = if store { 0.0 } else { *cv };
                    *cv = fmadd(alpha, av, base);
                }
            }
        }
    }
}

#[cfg(target_feature = "avx512f")]
mod avx512 {
    use super::{MR, NR, TB};
    use std::arch::x86_64::{
        __m512, __mmask16, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_mask_storeu_ps,
        _mm512_maskz_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_shuffle_f32x4,
        _mm512_shuffle_ps, _mm512_unpackhi_ps, _mm512_unpacklo_ps,
    };
    use std::ops::Range;

    /// `zmm` vectors per tile row.
    const NV: usize = NR / 16;
    // The accumulator, one row of `B` and a scratch register fit the file.
    const _: () = assert!(NR.is_multiple_of(16) && MR * NV + NV < 32);
    // A block row is one `zmm` vector.
    const _: () = assert!(TB == 16);

    #[inline(always)]
    pub(super) fn store_transposed(
        src: &[f32],
        lds: usize,
        lanes: usize,
        dst: &mut [f32],
        ld: usize,
    ) {
        if lanes == 0 {
            return;
        }
        // One past the last element read (element `TB - 1` of row `TB - 1`)
        // and written (lane `lanes - 1` of row `TB - 1`).
        let past = |stride: usize, width: usize| {
            (TB - 1)
                .checked_mul(stride)
                .and_then(|v| v.checked_add(width))
        };
        assert!(
            lanes <= TB
                && past(lds, TB).is_some_and(|end| end <= src.len())
                && past(ld, lanes).is_some_and(|end| end <= dst.len()),
            "{TB} rows at stride {lds} ({}) into {lanes} lanes at stride {ld} ({})",
            src.len(),
            dst.len()
        );
        // SAFETY: the cfg on this module says the target has AVX-512F, and
        // the assert puts rows `0..TB` at stride `lds` inside `src` and
        // lanes `0..lanes` of rows `0..TB` at stride `ld` inside `dst`,
        // which is borrowed mutably for the call.
        unsafe {
            let mask = lane_mask(&(0..lanes), 0);
            transpose_unchecked(src.as_ptr(), lds, mask, dst.as_mut_ptr(), ld)
        }
    }

    /// The 16×16 transpose in four rounds of shuffles: row pairs
    /// interleaved, then 2×2 blocks of pairs, then the 128-bit quarters
    /// twice over — after which vector `i` holds column `i`.
    ///
    /// # Safety
    /// The target has AVX-512F; `src + l·lds` points at `TB` readable
    /// floats for every `l < TB`; and `dst + i·ld + l` is a float this call
    /// may write for every `i < TB` and every lane `l` that `mask` sets. No
    /// other address is accessed.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn transpose_unchecked(
        src: *const f32,
        lds: usize,
        mask: __mmask16,
        dst: *mut f32,
        ld: usize,
    ) {
        let mut r = [_mm512_setzero_ps(); TB];
        for (l, v) in r.iter_mut().enumerate() {
            // SAFETY: row `l`, which the caller vouches for.
            *v = unsafe { _mm512_loadu_ps(src.add(l * lds)) };
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
        for (i, column) in r.iter().enumerate() {
            // SAFETY: the lanes `mask` sets of row `i`, which the caller
            // vouches for.
            unsafe { _mm512_mask_storeu_ps(dst.wrapping_add(i * ld), mask, *column) };
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) fn tile(
        kc: usize,
        alpha: f32,
        ap: &[f32],
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
        assert!(
            rows.end <= MR && cols.end <= NR && ap.len() / MR >= kc && bp.len() / NR >= kc,
            "window {rows:?} x {cols:?} of a {MR}x{NR} tile, strips {}/{} for kc {kc}",
            ap.len(),
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
        // SAFETY: the cfg on this module says the target has AVX-512F. The
        // asserts above give `kc * MR` readable floats behind `ap` and
        // `kc * NR` behind `bp`, a window inside the `MR×NR` tile, and every
        // element `origin + (i - rows.start) * ldc + j` for `i` in `rows`,
        // `j` in `cols` inside `c`, which is borrowed mutably for the call.
        unsafe {
            tile_unchecked(
                kc,
                alpha,
                ap.as_ptr(),
                bp.as_ptr(),
                origin,
                ldc,
                rows,
                cols,
                store,
            )
        }
    }

    /// The lanes of a row's `v`-th vector that `cols` covers.
    #[inline(always)]
    fn lane_mask(cols: &Range<usize>, v: usize) -> __mmask16 {
        let bit = |j: usize| 1u32 << j.saturating_sub(16 * v).min(16);
        (bit(cols.end) - bit(cols.start)) as __mmask16
    }

    /// # Safety
    /// The target has AVX-512F; `a` and `b` point at `kc * MR` and `kc * NR`
    /// readable floats; `rows` and `cols` are non-empty windows of `0..MR`
    /// and `0..NR`; and for every `i` in `rows` and `j` in `cols`,
    /// `origin + (i - rows.start) * ldc + j` is a float this call may read
    /// and write. No other address is accessed.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn tile_unchecked(
        kc: usize,
        alpha: f32,
        mut a: *const f32,
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
            for (i, acc_row) in acc.iter_mut().enumerate() {
                // SAFETY: inside the `kc * MR` floats behind `a`.
                let a_ip = _mm512_set1_ps(unsafe { *a.add(i) });
                for (lane, bv) in acc_row.iter_mut().zip(&b_row) {
                    *lane = _mm512_fmadd_ps(a_ip, *bv, *lane);
                }
            }
            // SAFETY: at most one past the end of either strip.
            (a, b) = unsafe { (a.add(MR), b.add(NR)) };
        }

        let alpha = _mm512_set1_ps(alpha);
        let mut masks = [0 as __mmask16; NV];
        for (v, m) in masks.iter_mut().enumerate() {
            *m = lane_mask(&cols, v);
        }
        for (i, acc_row) in acc.iter().enumerate() {
            if !rows.contains(&i) {
                continue;
            }
            let row = origin.wrapping_add((i - rows.start) * ldc);
            for (v, (&lane, &mask)) in acc_row.iter().zip(&masks).enumerate() {
                let at = row.wrapping_add(16 * v);
                // SAFETY: a masked access touches only the lanes of its
                // mask, columns `cols` of row `i`, which the caller vouches
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
    }
}

#[cfg(all(test, target_feature = "avx512f"))]
mod tests {
    use super::{avx512, generic, MR, NR, TB};
    use crate::matmul::KC;
    use crate::rng::SeededRng;

    /// A quiet NaN no arithmetic here produces: what `C` holds wherever a
    /// window must not write.
    const POISON: u32 = 0x7fc0_dead;
    const LDC: usize = NR + 3;
    const C_OFF: usize = 5;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs both bodies on one window and checks that they leave the same
    /// bits everywhere and the poison everywhere outside the window.
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
        let (mut want, mut got) = (start.clone(), start);
        let (r, c) = (rows.clone(), cols.clone());
        generic::tile(kc, alpha, &ap, &bp, &mut want, C_OFF, LDC, r, c, store);
        let (r, c) = (rows.clone(), cols.clone());
        avx512::tile(kc, alpha, &ap, &bp, &mut got, C_OFF, LDC, r, c, store);
        let case = || format!("kc {kc} rows {rows:?} cols {cols:?} alpha {alpha} store {store}");
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

    /// The intrinsics body is the generic body bit for bit: every window of
    /// the tile, storing and accumulating, `alpha` one and not, at short `kc`;
    /// then random windows at `kc` up to a whole `KC` block.
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

    /// A window that leaves `C` is refused before any pointer is formed.
    #[test]
    #[should_panic(expected = "leaves C")]
    fn a_window_past_the_end_of_c_panics() {
        let (ap, bp) = (vec![0.0f32; MR], vec![0.0f32; NR]);
        let mut c = vec![0.0f32; 2 * LDC];
        avx512::tile(1, 1.0, &ap, &bp, &mut c, 0, LDC, 0..3, 0..NR, true);
    }

    /// The shuffle transpose moves the bits the generic loop moves — NaN
    /// payloads and signed zeros included — for every lane count and a
    /// few source and destination strides, and writes nothing else.
    #[test]
    fn the_zmm_transpose_is_bitwise_the_generic_loop() {
        let mut rng = SeededRng::new(54);
        for lanes in 0..=TB {
            for (lds, ld) in [(TB, TB), (TB + 3, 2 * TB), (2 * TB, lanes.max(1)), (TB, 37)] {
                let src: Vec<f32> = (0..(TB - 1) * lds + TB)
                    .map(|i| match i % 7 {
                        0 => f32::from_bits(0x7fc0_0000 | i as u32),
                        1 => -0.0,
                        _ => rng.uniform(-1.0, 1.0),
                    })
                    .collect();
                let start = vec![f32::from_bits(POISON); (TB - 1) * ld + TB + 5];
                let (mut want, mut got) = (start.clone(), start);
                generic::store_transposed(&src, lds, lanes, &mut want, ld);
                avx512::store_transposed(&src, lds, lanes, &mut got, ld);
                assert_eq!(bits(&got), bits(&want), "{lanes} lanes, strides {lds}/{ld}");
                for (at, v) in got.iter().enumerate() {
                    let inside = at / ld < TB && at % ld < lanes;
                    assert_eq!(v.to_bits() != POISON, inside, "element {at}, {lanes} lanes");
                    if inside {
                        let (i, l) = (at / ld, at % ld);
                        assert_eq!(v.to_bits(), src[l * lds + i].to_bits());
                    }
                }
            }
        }
    }
}
