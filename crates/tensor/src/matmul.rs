//! Row-major GEMM with explicit leading dimensions.
//!
//! The leading-dimension parameters are what make model slicing cheap: a
//! sliced dense layer multiplies the top-left `n_active × m_active` block of
//! its `N × M` weight matrix *in place* by passing `ld = M`, so no weight
//! copy is ever made when the slice rate changes (paper §3.1, Figure 1).
//!
//! # Kernel structure
//!
//! Every multiply above `SMALL_GEMM_CUTOFF` runs one BLIS-style blocked loop
//! (`packed_product`): `k` is cut into blocks at absolute multiples of
//! `KC`, each block of either operand is read in the micro-kernel's strip
//! layout — `MR`-row strips of `op(A)`, `NR`-column strips of `op(B)`, each
//! `kc`-major and zero-padded — and the register-tile micro-kernel runs on
//! every tile window. An operand reaches the loop from one of two sources:
//! its persistent panels ([`PackedA`]/[`PackedB`], a weight packed once
//! between optimiser steps), or an [`Operand`] packed one block at a time
//! into thread-local, grow-only buffers — `MC` rows of `op(A)` (`PANEL_MC`
//! against panels) or `NC` columns of `op(B)` per block — so steady-state
//! calls do no heap allocation. [`gemm`] packs both operands on every call,
//! which is right when both move (every backward); the entry points in
//! [`crate::panels`] read the weight side from its panels. All four transpose cases, and an
//! im2col operand packed straight from the images (so a convolution's
//! backward, [`gemm_operands`], writes no column matrix), differ only in the
//! packers; the micro-kernel and every output bit cannot tell them apart.
//! Problems at or below `SMALL_GEMM_CUTOFF` use `gemm_accumulate_unblocked`,
//! whose per-case loops beat packing overhead at tiny sizes.
//!
//! # Determinism
//!
//! An element's accumulation order is a pure function of its own `k` range
//! and `KC` — not of the call's shape, its windows or where either operand
//! came from — so results are bitwise reproducible run to run (they are not
//! bitwise-identical to the pre-packing kernel, which accumulated in a
//! different order). `fmadd` compiles to hardware FMA when the target has
//! it (`.cargo/config.toml` sets `target-cpu=native`) and to `a * b + c`
//! otherwise — each build is internally consistent, and any two builds with
//! FMA agree bit for bit whatever their vector width.
//!
//! Every call runs on the calling thread; parallelism comes from above (one
//! model replica per engine worker, one shard process per core). The
//! register tile and its two bodies — `zmm` intrinsics where the build target
//! has AVX-512F, constant-bound loops for the autovectoriser elsewhere — live
//! in `kernel.rs`; the tile is `8×32` on the first kind of target and
//! `6×16` on the second, and nothing here or in [`crate::panels`] spells
//! either number. The block constants are not tuned to one machine's caches
//! beyond "a `B` strip fits L1, an `A` block fits L2". All functions panic
//! (debug-assert) on inconsistent dimensions; they are internal hot paths,
//! not the validation boundary.

use std::cell::RefCell;
use std::ops::Range;

use crate::conv::Im2col;
use crate::kernel::micro_kernel;
pub use crate::kernel::{MR, NR};
use crate::panels::{PackedA, PackedB, PANEL_MC};

/// Whether an operand is logically transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the matrix as stored.
    No,
    /// Use the transpose of the stored matrix.
    Yes,
}

/// Rows of `op(A)` packed per `KC` block where both operands are packed per
/// call (a multiple of `MR` on every target; ≈ 72 KiB at `KC = 256`, sized
/// for L2). 240 rows measured 2–4 % slower here on the layer-shaped GEMMs of
/// the `kernels` bench; against panels the block is [`PANEL_MC`] rows.
const MC: usize = 72;
/// Shared dimension per panel: the micro-kernel streams `KC·(MR+NR)` packed
/// floats per tile, sized so a `B` strip stays cache-resident.
pub const KC: usize = 256;
/// Columns of `op(B)` packed per `KC` block where `B` is packed per call
/// (multiple of `NR`).
pub(crate) const NC: usize = 1024;
/// Problems with `m·n·k` at or below this use the unblocked kernel: packing
/// costs `O(mk + kn)` and only pays off once each packed element is reused
/// across several tiles. The two kernels sum in different orders, so a
/// caller that cuts one multiply into several and wants the bits of the
/// whole keeps every piece on the same side of this line.
pub const SMALL_GEMM_CUTOFF: usize = 8192;
const _: () = assert!(MC.is_multiple_of(MR) && NC.is_multiple_of(NR));

thread_local! {
    /// Grow-only pack buffers (`op(A)` panel, `op(B)` panel), reused across
    /// calls so steady-state GEMM performs zero heap allocations.
    static PACK_BUFS: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` with the thread-local pack buffers (shared with [`gemm`] and the
/// prepacked-panel entry points in [`crate::panels`]).
pub(crate) fn with_pack_bufs<R>(f: impl FnOnce(&mut Vec<f32>, &mut Vec<f32>) -> R) -> R {
    PACK_BUFS.with(|bufs| {
        let (ref mut apack, ref mut bpack) = *bufs.borrow_mut();
        f(apack, bpack)
    })
}

/// Fused multiply-add `a * b + c` on hardware FMA; plain `a * b + c` when
/// the target lacks it (where `f32::mul_add` would be a slow libm call).
#[inline(always)]
pub(crate) fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

/// General matrix multiply: `C = alpha * op(A) * op(B) + beta * C`.
///
/// `op(A)` is `m×k`, `op(B)` is `k×n`, `C` is `m×n`; all matrices are
/// row-major with leading dimensions (row strides) `lda`, `ldb`, `ldc`.
/// When `trans_a == Trans::No`, `A` is stored `m×k` with `lda >= k`;
/// when transposed it is stored `k×m` with `lda >= m` (likewise for `B`).
///
/// `beta = 0` overwrites: `C` may hold anything on entry (NaN included) and
/// none of it survives. Any other `beta` pre-scales `C`, then
/// `alpha * op(A)·op(B)` is accumulated.
///
/// # Panics
/// Debug-asserts ([`gemm_operands`]) that every buffer is large enough for
/// its `(rows, cols, ld)` description.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    trans_a: Trans,
    trans_b: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    let (a, b) = (
        Operand::Matrix(trans_a, a, lda),
        Operand::Matrix(trans_b, b, ldb),
    );
    gemm_operands(m, n, k, alpha, a, b, beta, c, ldc);
}

/// A GEMM operand `op(X)` as the drivers see it. Whatever it is, they pack
/// it one panel at a time into their strip layout, so the micro-kernel — and
/// every output bit — cannot tell the kinds apart.
#[derive(Debug, Clone, Copy)]
pub enum Operand<'a> {
    /// A row-major matrix and its row stride, used as stored (`Trans::No`)
    /// or transposed.
    Matrix(Trans, &'a [f32], usize),
    /// The im2col matrix of a run of samples (`Trans::No`: a convolution's
    /// columns, `[channels·K², samples·OH·OW]`) or its transpose
    /// (`Trans::Yes`: the `colsᵀ` of a weight gradient `dY·colsᵀ`), packed
    /// straight from the images — no column matrix is written.
    Im2col(Trans, Im2col<'a>),
}

impl<'a> Operand<'a> {
    /// Whether `op(X)` holds `rows × cols`.
    pub(crate) fn covers(&self, rows: usize, cols: usize) -> bool {
        let stored = |r: usize, c: usize, x: &[f32], ld: usize| {
            ld >= c.max(1) && (r == 0 || c == 0 || x.len() >= (r - 1) * ld + c)
        };
        match *self {
            Operand::Matrix(Trans::No, x, ld) => stored(rows, cols, x, ld),
            Operand::Matrix(Trans::Yes, x, ld) => stored(cols, rows, x, ld),
            Operand::Im2col(Trans::No, cols_of) => rows <= cols_of.rows() && cols <= cols_of.cols(),
            Operand::Im2col(Trans::Yes, cols_of) => {
                rows <= cols_of.cols() && cols <= cols_of.rows()
            }
        }
    }

    /// Packs rows `[ic, ic + mc)` × columns `[pc, pc + kc)` of `op(X)` the
    /// way [`pack_a_into`] packs a left-hand operand, into `buf` at its first
    /// cache-line boundary ([`aligned`]), and returns the panel.
    pub(crate) fn pack_as_a<'b>(
        &self,
        ic: usize,
        mc: usize,
        pc: usize,
        kc: usize,
        buf: &'b mut Vec<f32>,
    ) -> &'b [f32] {
        // No clear: every packer writes every lane, padding included.
        let panel = aligned(buf, mc.div_ceil(MR) * kc * MR);
        match *self {
            Operand::Matrix(trans, x, ld) => pack_a_into(trans, x, ld, ic, mc, pc, kc, panel),
            Operand::Im2col(Trans::No, cols) => cols.pack_rows::<MR>(ic, mc, pc, kc, panel),
            Operand::Im2col(Trans::Yes, cols) => cols.pack_cols::<MR>(pc, kc, ic, mc, panel),
        }
        panel
    }

    /// Packs rows `[pc, pc + kc)` × columns `[jc, jc + nc)` of `op(X)` the
    /// way [`pack_b_into`] packs a right-hand operand, as [`Operand::pack_as_a`]
    /// does, and returns the panel.
    pub(crate) fn pack_as_b<'b>(
        &self,
        pc: usize,
        kc: usize,
        jc: usize,
        nc: usize,
        buf: &'b mut Vec<f32>,
    ) -> &'b [f32] {
        let panel = aligned(buf, nc.div_ceil(NR) * kc * NR);
        match *self {
            Operand::Matrix(trans, x, ld) => pack_b_into(trans, x, ld, pc, kc, jc, nc, panel),
            Operand::Im2col(Trans::No, cols) => cols.pack_cols::<NR>(pc, kc, jc, nc, panel),
            Operand::Im2col(Trans::Yes, cols) => cols.pack_rows::<NR>(jc, nc, pc, kc, panel),
        }
        panel
    }

    /// `op(X)` as a stored matrix `(trans, x, ld)`: a matrix as it is, an
    /// im2col matrix written out into `buf`.
    fn written<'b>(self, buf: &'b mut Vec<f32>) -> (Trans, &'b [f32], usize)
    where
        'a: 'b,
    {
        match self {
            Operand::Matrix(trans, x, ld) => (trans, x, ld),
            Operand::Im2col(trans, cols) => (trans, cols.write(buf), cols.cols()),
        }
    }
}

/// [`gemm`] on [`Operand`]s: `C = alpha · op(A) · op(B) + beta · C`, `op(A)`
/// `m×k` and `op(B)` `k×n`, through the same loops, so an im2col operand
/// gives the bits of its written-out matrix. The small problems `gemm` hands
/// to its unblocked loops are the one place such an operand is written out
/// (at most `SMALL_GEMM_CUTOFF` floats, into the pack buffers).
#[allow(clippy::too_many_arguments)]
pub fn gemm_operands(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: Operand,
    b: Operand,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    debug_assert!(a.covers(m, k), "A operand smaller than {m}x{k}");
    debug_assert!(b.covers(k, n), "B operand smaller than {k}x{n}");
    debug_assert!(ldc >= n.max(1) && (m == 0 || c.len() >= (m - 1) * ldc + n));
    if m == 0 || n == 0 {
        return;
    }
    let packed = k > 0 && alpha != 0.0 && m * n * k > SMALL_GEMM_CUTOFF;
    apply_beta(beta, packed, c, ldc, m, n);
    if k == 0 || alpha == 0.0 {
        return;
    }

    if !packed {
        let _span = ms_telemetry::span!("gemm.small");
        with_pack_bufs(|abuf, bbuf| {
            let ((ta, a, lda), (tb, b, ldb)) = (a.written(abuf), b.written(bbuf));
            gemm_accumulate_unblocked(ta, tb, m, n, k, alpha, a, lda, b, ldb, c, ldc);
        });
        return;
    }

    let _span = ms_telemetry::span!("gemm.packed");
    let (a, b) = (Source::Packs(a), Source::Packs(b));
    packed_product(&[0, m], &[k], 0, 0..n, alpha, a, b, beta, c, ldc);
}

/// Where [`packed_product`] reads one operand from: its persistent panels,
/// or an [`Operand`] it packs one block at a time into the thread's buffers.
pub(crate) enum Source<'a, P> {
    /// A weight packed once, every `KC` block of it in the strip layout.
    Panels(&'a P),
    /// Packed per block: `MC` (against panels `PANEL_MC`) rows of `op(A)`,
    /// `NC` columns of `op(B)`.
    Packs(Operand<'a>),
}

/// One `KC` block of an operand as the micro-kernel reads it, `R` lanes per
/// strip, from its first requested `k` step on: strip `s` — counted from row
/// (or column) 0 of the operand — begins at `buf[(s - first) · stride]`.
pub(crate) struct Block<'p, const R: usize> {
    pub(crate) buf: &'p [f32],
    pub(crate) first: usize,
    pub(crate) stride: usize,
}

impl<'p, const R: usize> Block<'p, R> {
    /// The first `kc` steps of strip `s`.
    #[inline(always)]
    pub(crate) fn strip(&self, s: usize, kc: usize) -> &'p [f32] {
        &self.buf[(s - self.first) * self.stride..][..kc * R]
    }
}

impl<'a> Source<'a, PackedA> {
    /// Rows `[ic, ic + mc)` × steps `[pc, pc + kc)` of `op(A)`.
    fn block(
        &self,
        ic: usize,
        mc: usize,
        pc: usize,
        kc: usize,
        buf: &'a mut Vec<f32>,
    ) -> Block<'a, MR> {
        match *self {
            Source::Panels(pa) => pa.block(pc),
            Source::Packs(a) => {
                let _s = ms_telemetry::span!("gemm.pack_a");
                let (buf, first, stride) = (a.pack_as_a(ic, mc, pc, kc, buf), ic / MR, kc * MR);
                Block { buf, first, stride }
            }
        }
    }
}

impl<'a> Source<'a, PackedB> {
    /// Steps `[pc, pc + kc)` × columns `[jc, jc + nc)` of `op(B)`.
    fn block(
        &self,
        pc: usize,
        kc: usize,
        jc: usize,
        nc: usize,
        buf: &'a mut Vec<f32>,
    ) -> Block<'a, NR> {
        match *self {
            Source::Panels(pb) => pb.block(pc),
            Source::Packs(b) => {
                let _s = ms_telemetry::span!("gemm.pack_b");
                let (buf, first, stride) = (b.pack_as_b(pc, kc, jc, nc, buf), jc / NR, kc * NR);
                Block { buf, first, stride }
            }
        }
    }
}

/// The lanes of strip `s` (`R` wide, at absolute multiples of `R`) that fall
/// inside `[lo, hi)`, for a strip that `[lo, hi)` reaches into. Written so
/// the compiler sees the window inside `0..R`.
#[inline(always)]
pub(crate) fn lanes<const R: usize>(s: usize, lo: usize, hi: usize) -> Range<usize> {
    lo.saturating_sub(s * R).min(R)..(hi - s * R).min(R)
}

/// The steps of a stepped sweep that multiply in the `KC` block of `kc`
/// steps from `pc`: each step's rows and how many of those steps it takes.
pub(crate) fn live_steps<'s>(
    rows: &'s [usize],
    k_ext: &'s [usize],
    pc: usize,
    kc: usize,
) -> impl Iterator<Item = (Range<usize>, usize)> + 's {
    let steps = rows.windows(2).zip(k_ext);
    let live = steps.filter(move |&(r, &k1)| k1 > pc && r[0] < r[1]);
    live.map(move |(r, &k1)| (r[0]..r[1], kc.min(k1 - pc)))
}

/// The one blocked loop under every packed product: step `i` of the sweep
/// accumulates `alpha · op(A)[rows[i]..rows[i+1], k0..k_ext[i]) ·
/// op(B)[k0..k_ext[i], cols]` into `C`, whose element `(i, j)` lives at
/// `c[(i − rows[0]) · ldc + (j − cols.start)]`; with `beta = 0` the first
/// block is stored over what `C` held rather than added to it (the caller's
/// [`apply_beta`] does the rest).
///
/// `k` splits at absolute multiples of `KC`, strips sit at absolute
/// multiples of `MR`/`NR`, and every tile gets the first `kc` steps of its
/// two strips, so an element's bits are a function of its own `k` range —
/// not of the window, the steps around it or which source either operand
/// came from. The source is asked for once per block: a panel set is read
/// whole (one row block of the window, one column block), an operand packed
/// `MC` rows (`PANEL_MC` against panels) or `NC` columns at a time from row
/// or column 0. `rows` and `cols` are not empty.
#[allow(clippy::too_many_arguments)]
pub(crate) fn packed_product(
    rows: &[usize],
    k_ext: &[usize],
    k0: usize,
    cols: Range<usize>,
    alpha: f32,
    a: Source<PackedA>,
    b: Source<PackedB>,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    let (m0, m1) = (rows[0], rows[rows.len() - 1]);
    let k1 = k_ext.iter().copied().max().unwrap_or(0);
    let mc_block = match (&a, &b) {
        (Source::Panels(_), _) => m1 - m0,
        (Source::Packs(_), Source::Panels(_)) => PANEL_MC,
        (Source::Packs(_), Source::Packs(_)) => MC,
    };
    let nc_block = match b {
        Source::Panels(_) => cols.len(),
        Source::Packs(_) => NC,
    };
    debug_assert!(matches!(a, Source::Panels(_)) || m0 == 0);
    debug_assert!(matches!(b, Source::Panels(_)) || cols.start == 0);
    with_pack_bufs(|apack, bpack| {
        for jc in cols.clone().step_by(nc_block) {
            let nc = nc_block.min(cols.end - jc);
            let mut pc = k0;
            while pc < k1 {
                let kc = (pc - pc % KC + KC).min(k1) - pc;
                let store = beta == 0.0 && pc == k0;
                let bb = b.block(pc, kc, jc, nc, bpack);
                for ic in (m0..m1).step_by(mc_block) {
                    let ab = a.block(ic, mc_block.min(m1 - ic), pc, kc, apack);
                    for (r, kc) in live_steps(rows, k_ext, pc, kc) {
                        let (r0, r1) = (r.start.max(ic), r.end.min(ic + mc_block));
                        for t in jc / NR..(jc + nc).div_ceil(NR) {
                            let (sj, bp) = (lanes::<NR>(t, jc, jc + nc), bb.strip(t, kc));
                            let c = &mut c[t * NR + sj.start - cols.start..];
                            column(kc, alpha, &ab, bp, r0..r1, m0, sj, c, ldc, store);
                        }
                    }
                }
                pc += kc;
            }
        }
    });
}

/// The tiles of one `NR`-column strip `bp` of a block against the `A` strips
/// of rows `rows`, into `c` from the strip's first column. Out of line on
/// purpose: inlined into [`packed_product`]'s nest, the tile's accumulators
/// and the nest's state compete for registers and the nest spills around
/// every tile (products of a few tiles, the recurrent steps', measured
/// 1–2 % slower).
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn column(
    kc: usize,
    alpha: f32,
    ab: &Block<MR>,
    bp: &[f32],
    rows: Range<usize>,
    m0: usize,
    sj: Range<usize>,
    c: &mut [f32],
    ldc: usize,
    store: bool,
) {
    for s in rows.start / MR..rows.end.div_ceil(MR) {
        let (si, ap) = (lanes::<MR>(s, rows.start, rows.end), ab.strip(s, kc));
        let at = (s * MR + si.start - m0) * ldc;
        micro_kernel(kc, alpha, ap, bp, c, at, ldc, si, sj.clone(), store);
    }
}

/// What every GEMM entry point does to `C` before it multiplies: nothing
/// for `beta = 1`; for `beta = 0` nothing either when `stored` — the first
/// `KC` block of every element is then written over whatever `C` held, NaN
/// included — and a clear otherwise; any other `beta` scales.
pub(crate) fn apply_beta(
    beta: f32,
    stored: bool,
    c: &mut [f32],
    ldc: usize,
    rows: usize,
    cols: usize,
) {
    if beta == 1.0 || (beta == 0.0 && stored) {
        return;
    }
    for row in c.chunks_mut(ldc).take(rows) {
        if beta == 0.0 {
            row[..cols].fill(0.0);
        } else {
            row[..cols].iter_mut().for_each(|v| *v *= beta);
        }
    }
}

/// Floats in a 64-byte cache line.
const LINE: usize = 16;

/// The first `len` floats of `buf` from its first cache-line boundary on,
/// holding whatever they held (`buf` grows as needed, and only grows). A
/// panel packed there has every strip row start where it would in an
/// aligned buffer, so its vector stores and the micro-kernel's loads split
/// no more cache lines than the layout makes them.
pub(crate) fn aligned(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len + LINE {
        buf.resize(len + LINE, 0.0);
    }
    // `align_offset` may decline to answer; the panel is right either way.
    let off = buf.as_ptr().align_offset(4 * LINE);
    let off = if off < LINE { off } else { 0 };
    &mut buf[off..off + len]
}

/// Packs the `mc×kc` panel of `op(A)` starting at `(ic, pc)` into `buf`,
/// exactly `mc.div_ceil(MR) * kc * MR` floats: strips of `MR` rows, each
/// laid out `kc`-major so the micro-kernel reads `MR` consecutive floats per
/// `p` step. Every lane is written, the padding rows of an edge strip as
/// zeros, so what an earlier call left in `buf` never shows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_a_into(
    trans_a: Trans,
    a: &[f32],
    lda: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    buf: &mut [f32],
) {
    let strips = mc.div_ceil(MR);
    debug_assert_eq!(buf.len(), strips * kc * MR);
    for (s, strip) in buf.chunks_exact_mut(kc * MR).enumerate() {
        let i_base = ic + s * MR;
        let rows = MR.min(mc - s * MR);
        if rows < MR {
            strip.fill(0.0);
        }
        match trans_a {
            // A full strip gathers its `MR` source rows and stores one
            // contiguous `MR`-wide column per `p`; walking a row at a time
            // (the edge arm below) stores with a stride of `MR` floats.
            Trans::No if rows == MR => {
                let src: [&[f32]; MR] =
                    std::array::from_fn(|ii| &a[(i_base + ii) * lda + pc..][..kc]);
                for (p, dst) in strip.chunks_exact_mut(MR).enumerate() {
                    for (d, row) in dst.iter_mut().zip(&src) {
                        *d = row[p];
                    }
                }
            }
            Trans::No => {
                for ii in 0..rows {
                    let src = &a[(i_base + ii) * lda + pc..][..kc];
                    for (p, &v) in src.iter().enumerate() {
                        strip[p * MR + ii] = v;
                    }
                }
            }
            Trans::Yes => {
                for (p, dst) in strip.chunks_exact_mut(MR).enumerate() {
                    dst[..rows].copy_from_slice(&a[(pc + p) * lda + i_base..][..rows]);
                }
            }
        }
    }
}

/// Packs the `kc×nc` panel of `op(B)` starting at `(pc, jc)` into `buf`,
/// exactly `nc.div_ceil(NR) * kc * NR` floats: strips of `NR` columns, each
/// `kc`-major so the micro-kernel loads one `NR`-wide row vector per `p`
/// step, the padding columns of an edge strip zero.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_b_into(
    trans_b: Trans,
    b: &[f32],
    ldb: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    buf: &mut [f32],
) {
    let strips = nc.div_ceil(NR);
    debug_assert_eq!(buf.len(), strips * kc * NR);
    for (t, strip) in buf.chunks_exact_mut(kc * NR).enumerate() {
        let j_base = jc + t * NR;
        let cols = NR.min(nc - t * NR);
        if cols < NR {
            strip.fill(0.0);
        }
        match trans_b {
            // A full strip copies rows of a length the compiler knows (a few
            // vector moves); the generic arm would call `memcpy` per row.
            Trans::No if cols == NR => {
                for (p, dst) in strip.chunks_exact_mut(NR).enumerate() {
                    let src: &[f32; NR] = b[(pc + p) * ldb + j_base..][..NR]
                        .try_into()
                        .expect("NR-wide row");
                    dst.copy_from_slice(src);
                }
            }
            Trans::No => {
                for (p, dst) in strip.chunks_exact_mut(NR).enumerate() {
                    dst[..cols].copy_from_slice(&b[(pc + p) * ldb + j_base..][..cols]);
                }
            }
            // The mirror image of `pack_a_into`'s gather: `NR` source rows, one
            // contiguous `NR`-wide store per `p`.
            Trans::Yes if cols == NR => {
                let src: [&[f32]; NR] =
                    std::array::from_fn(|jj| &b[(j_base + jj) * ldb + pc..][..kc]);
                for (p, dst) in strip.chunks_exact_mut(NR).enumerate() {
                    for (d, row) in dst.iter_mut().zip(&src) {
                        *d = row[p];
                    }
                }
            }
            Trans::Yes => {
                for jj in 0..cols {
                    let src = &b[(j_base + jj) * ldb + pc..][..kc];
                    for (p, &v) in src.iter().enumerate() {
                        strip[p * NR + jj] = v;
                    }
                }
            }
        }
    }
}

/// `C += alpha * op(A)·op(B)` with one contiguous-inner-loop strategy per
/// transpose case: the pre-packing kernel, kept as [`gemm`]'s small-problem
/// path, where per-case contiguous loops beat packing overhead.
#[allow(clippy::too_many_arguments)]
fn gemm_accumulate_unblocked(
    trans_a: Trans,
    trans_b: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    match (trans_a, trans_b) {
        // C[i,:] += alpha * A[i,p] * B[p,:]  — contiguous inner loop over B rows.
        (Trans::No, Trans::No) => {
            for i in 0..m {
                let a_row = &a[i * lda..i * lda + k];
                let c_row = &mut c[i * ldc..i * ldc + n];
                for (p, &aip) in a_row.iter().enumerate() {
                    if aip == 0.0 {
                        continue;
                    }
                    let s = alpha * aip;
                    let b_row = &b[p * ldb..p * ldb + n];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                        *cv = fmadd(s, bv, *cv);
                    }
                }
            }
        }
        // C[i,j] += alpha * dot(A[i,:], B[j,:]) — both rows contiguous.
        (Trans::No, Trans::Yes) => {
            for i in 0..m {
                let a_row = &a[i * lda..i * lda + k];
                let c_row = &mut c[i * ldc..i * ldc + n];
                for (j, cv) in c_row.iter_mut().enumerate() {
                    let b_row = &b[j * ldb..j * ldb + k];
                    *cv = fmadd(alpha, dot(a_row, b_row), *cv);
                }
            }
        }
        // C[i,:] += alpha * A[p,i] * B[p,:] — stream both A and B by rows of p.
        (Trans::Yes, Trans::No) => {
            for p in 0..k {
                let a_row = &a[p * lda..p * lda + m];
                let b_row = &b[p * ldb..p * ldb + n];
                for (i, &api) in a_row.iter().enumerate() {
                    if api == 0.0 {
                        continue;
                    }
                    let s = alpha * api;
                    let c_row = &mut c[i * ldc..i * ldc + n];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                        *cv = fmadd(s, bv, *cv);
                    }
                }
            }
        }
        // C[i,j] += alpha * sum_p A[p,i] * B[j,p] — B row contiguous, A strided.
        (Trans::Yes, Trans::Yes) => {
            for i in 0..m {
                for j in 0..n {
                    let b_row = &b[j * ldb..j * ldb + k];
                    let mut acc = 0.0f32;
                    for (p, &bv) in b_row.iter().enumerate() {
                        acc = fmadd(a[p * lda + i], bv, acc);
                    }
                    c[i * ldc + j] = fmadd(alpha, acc, c[i * ldc + j]);
                }
            }
        }
    }
}

/// Dot product with 8 independent partial sums (one AVX2 FMA chain per
/// lane group; the fixed reduction tree keeps results run-to-run
/// deterministic).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    let (a8, a_rest) = a.split_at(chunks * 8);
    let (b8, b_rest) = b.split_at(chunks * 8);
    for (ac, bc) in a8.chunks_exact(8).zip(b8.chunks_exact(8)) {
        for l in 0..8 {
            acc[l] = fmadd(ac[l], bc[l], acc[l]);
        }
    }
    let mut s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (x, y) in a_rest.iter().zip(b_rest) {
        s = fmadd(*x, *y, s);
    }
    s
}

/// Reference (naive, unblocked, f64-accumulating) GEMM used by tests to
/// validate the kernels.
#[allow(clippy::too_many_arguments)]
pub fn gemm_reference(
    trans_a: Trans,
    trans_b: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    let at = |i: usize, p: usize| match trans_a {
        Trans::No => a[i * lda + p],
        Trans::Yes => a[p * lda + i],
    };
    let bt = |p: usize, j: usize| match trans_b {
        Trans::No => b[p * ldb + j],
        Trans::Yes => b[j * ldb + p],
    };
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += at(i, p) as f64 * bt(p, j) as f64;
            }
            c[i * ldc + j] = alpha * acc as f32 + beta * c[i * ldc + j];
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rng::SeededRng;

    fn random_buf(rng: &mut SeededRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn check_case_ab(
        trans_a: Trans,
        trans_b: Trans,
        m: usize,
        n: usize,
        k: usize,
        pad: usize,
        alpha: f32,
        beta: f32,
    ) {
        let mut rng = SeededRng::new(42);
        let (ar, ac) = match trans_a {
            Trans::No => (m, k),
            Trans::Yes => (k, m),
        };
        let (br, bc) = match trans_b {
            Trans::No => (k, n),
            Trans::Yes => (n, k),
        };
        let lda = ac + pad;
        let ldb = bc + pad;
        let ldc = n + pad;
        let a = random_buf(&mut rng, ar * lda);
        let b = random_buf(&mut rng, br * ldb);
        let c0 = random_buf(&mut rng, m * ldc);
        let mut c_fast = c0.clone();
        let mut c_ref = c0.clone();
        gemm(
            trans_a,
            trans_b,
            m,
            n,
            k,
            alpha,
            &a,
            lda,
            &b,
            ldb,
            beta,
            &mut c_fast,
            ldc,
        );
        gemm_reference(
            trans_a, trans_b, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_ref, ldc,
        );
        // Scale tolerance with k: the kernel accumulates in f32 while the
        // reference uses f64.
        let tol = 1e-4 * (1.0 + (k as f32).sqrt() * 0.1);
        for (i, (x, y)) in c_fast.iter().zip(c_ref.iter()).enumerate() {
            assert!(
                (x - y).abs() < tol,
                "mismatch at {i}: {x} vs {y} \
                 ({trans_a:?},{trans_b:?} m={m} n={n} k={k} pad={pad} a={alpha} b={beta})"
            );
        }
    }

    /// Every `(m, n, k)` with one row or column, a tile less one and plus
    /// one, two tiles and one — against one step, a `KC` block less one, a
    /// block, and more. Shared with the panel entry points' tests.
    pub(crate) fn tile_and_block_edges() -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::new();
        for m in [1, MR - 1, MR + 1, 2 * MR + 1] {
            for n in [1, NR - 1, NR + 1, 2 * NR + 1] {
                for k in [1, KC - 1, KC, KC + 1, 2 * KC + 3] {
                    shapes.push((m, n, k));
                }
            }
        }
        shapes
    }

    fn check_case(trans_a: Trans, trans_b: Trans, m: usize, n: usize, k: usize, pad: usize) {
        check_case_ab(trans_a, trans_b, m, n, k, pad, 0.7, 0.3);
    }

    #[test]
    fn all_transpose_cases_match_reference() {
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 7), (8, 8, 8), (13, 2, 9), (2, 17, 4)] {
            for &pad in &[0usize, 3] {
                check_case(Trans::No, Trans::No, m, n, k, pad);
                check_case(Trans::No, Trans::Yes, m, n, k, pad);
                check_case(Trans::Yes, Trans::No, m, n, k, pad);
                check_case(Trans::Yes, Trans::Yes, m, n, k, pad);
            }
        }
    }

    /// Shapes chosen to land on every packed-path boundary: partial MR/NR
    /// edge tiles, multiple KC blocks, multiple MC panels, and (with `pad`)
    /// leading dimensions larger than the logical width.
    #[test]
    fn packed_path_blocking_boundaries_match_reference() {
        let mut cases = vec![
            (MC + 3, NR, 40),             // two MC panels
            (2 * MR, 3 * NR + 7, KC - 1), // full strips + ragged N edge
            (33, 47, 65),                 // nothing aligned at all
        ];
        cases.extend(tile_and_block_edges());
        for &(m, n, k) in &cases {
            for &pad in &[0usize, 5] {
                check_case(Trans::No, Trans::No, m, n, k, pad);
                check_case(Trans::No, Trans::Yes, m, n, k, pad);
                check_case(Trans::Yes, Trans::No, m, n, k, pad);
                check_case(Trans::Yes, Trans::Yes, m, n, k, pad);
            }
        }
    }

    #[test]
    fn alpha_beta_grid_matches_reference() {
        for &alpha in &[0.0f32, 0.5, 1.0] {
            for &beta in &[0.0f32, 0.5, 1.0] {
                // One small (unblocked) and one packed-path shape each.
                check_case_ab(Trans::No, Trans::Yes, 5, 6, 7, 2, alpha, beta);
                check_case_ab(Trans::Yes, Trans::No, 25, 33, 41, 3, alpha, beta);
            }
        }
    }

    #[test]
    fn unblocked_kernel_matches_reference() {
        // Shapes under SMALL_GEMM_CUTOFF, so `gemm` takes the unblocked path.
        for &(m, n, k) in &[(3, 5, 7), (13, 2, 9), (19, 17, 23)] {
            assert!(m * n * k <= SMALL_GEMM_CUTOFF);
            for &pad in &[0usize, 3] {
                for &(ta, tb) in &[
                    (Trans::No, Trans::No),
                    (Trans::No, Trans::Yes),
                    (Trans::Yes, Trans::No),
                    (Trans::Yes, Trans::Yes),
                ] {
                    check_case_ab(ta, tb, m, n, k, pad, 0.7, 0.3);
                }
            }
        }
    }

    #[test]
    fn sliced_block_multiplication() {
        // Multiply only the top-left 2x3 block of a 4x5 matrix by passing ld=5,
        // which is exactly how sliced dense layers use the kernel.
        let w: Vec<f32> = (0..20).map(|v| v as f32).collect(); // 4x5
        let x = vec![1.0f32, 1.0, 1.0]; // 3-vector
        let mut y = vec![0.0f32; 2];
        // y = W[0..2, 0..3] * x
        gemm(
            Trans::No,
            Trans::No,
            2,
            1,
            3,
            1.0,
            &w,
            5,
            &x,
            1,
            0.0,
            &mut y,
            1,
        );
        assert_eq!(y, vec![0. + 1. + 2., 5. + 6. + 7.]);
    }

    #[test]
    fn sliced_packed_block_multiplication() {
        // Same in-place sub-block contract on the packed path: top-left
        // 60x60 block of a 100x100 matrix via ld=100.
        let full = 100usize;
        let m = 60usize;
        let mut rng = SeededRng::new(17);
        let a = random_buf(&mut rng, full * full);
        let b = random_buf(&mut rng, full * full);
        let mut c_fast = vec![0.0f32; m * m];
        let mut c_ref = vec![0.0f32; m * m];
        gemm(
            Trans::No,
            Trans::Yes,
            m,
            m,
            m,
            1.0,
            &a,
            full,
            &b,
            full,
            0.0,
            &mut c_fast,
            m,
        );
        gemm_reference(
            Trans::No,
            Trans::Yes,
            m,
            m,
            m,
            1.0,
            &a,
            full,
            &b,
            full,
            0.0,
            &mut c_ref,
            m,
        );
        for (x, y) in c_fast.iter().zip(&c_ref) {
            assert!((x - y).abs() < 2e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_is_deterministic_run_to_run() {
        let mut rng = SeededRng::new(23);
        let (m, n, k) = (70, 50, 300); // multiple KC blocks + edge tiles
        let a = random_buf(&mut rng, m * k);
        let b = random_buf(&mut rng, k * n);
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            &a,
            k,
            &b,
            n,
            0.0,
            &mut c1,
            n,
        );
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            &a,
            k,
            &b,
            n,
            0.0,
            &mut c2,
            n,
        );
        assert_eq!(c1, c2, "bitwise reproducibility");
    }

    /// `beta = 0` overwrites on both paths: nothing `C` held — NaN, which
    /// `0 × NaN` would keep, included — survives, and the packed path writes
    /// the bits it would add to a zeroed `C`.
    #[test]
    fn beta_zero_overwrites_garbage() {
        let mut rng = SeededRng::new(19);
        // Unblocked; packed with edge tiles; packed over two KC blocks.
        for &(m, n, k) in &[(2usize, 2usize, 2usize), (13, 35, 40), (7, 18, KC + 9)] {
            let a = random_buf(&mut rng, m * k);
            let b = random_buf(&mut rng, k * n);
            let mut dirty = vec![f32::NAN; m * n];
            let mut zeroed = vec![0.0f32; m * n];
            for c in [&mut dirty, &mut zeroed] {
                gemm(Trans::No, Trans::No, m, n, k, 0.7, &a, k, &b, n, 0.0, c, n);
            }
            assert_eq!(
                dirty.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                zeroed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{m}x{n}x{k}"
            );
        }
    }

    #[test]
    fn dot_matches_naive() {
        let mut rng = SeededRng::new(7);
        for len in [0usize, 1, 3, 4, 5, 8, 9, 17, 64, 100] {
            let a = random_buf(&mut rng, len);
            let b = random_buf(&mut rng, len);
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!((dot(&a, &b) - naive).abs() < 1e-4, "len {len}");
        }
    }

    #[test]
    fn dot_is_deterministic() {
        let mut rng = SeededRng::new(29);
        let a = random_buf(&mut rng, 1000);
        let b = random_buf(&mut rng, 1000);
        assert_eq!(dot(&a, &b), dot(&a, &b));
    }

    #[test]
    fn empty_dims_are_noops() {
        let a: Vec<f32> = vec![];
        let b: Vec<f32> = vec![];
        let mut c: Vec<f32> = vec![];
        gemm(
            Trans::No,
            Trans::No,
            0,
            0,
            0,
            1.0,
            &a,
            1,
            &b,
            1,
            1.0,
            &mut c,
            1,
        );
    }

    /// The packing loops before the store-contiguous arms: one source row
    /// (or column) at a time, strided stores. Kept as the oracle.
    fn pack_a_reference(
        ta: Trans,
        a: &[f32],
        lda: usize,
        ic: usize,
        mc: usize,
        pc: usize,
        kc: usize,
    ) -> Vec<f32> {
        let mut buf = vec![0.0f32; mc.div_ceil(MR) * kc * MR];
        for i in 0..mc {
            for p in 0..kc {
                let v = match ta {
                    Trans::No => a[(ic + i) * lda + pc + p],
                    Trans::Yes => a[(pc + p) * lda + ic + i],
                };
                buf[(i / MR) * kc * MR + p * MR + i % MR] = v;
            }
        }
        buf
    }

    fn pack_b_reference(
        tb: Trans,
        b: &[f32],
        ldb: usize,
        pc: usize,
        kc: usize,
        jc: usize,
        nc: usize,
    ) -> Vec<f32> {
        let mut buf = vec![0.0f32; nc.div_ceil(NR) * kc * NR];
        for j in 0..nc {
            for p in 0..kc {
                let v = match tb {
                    Trans::No => b[(pc + p) * ldb + jc + j],
                    Trans::Yes => b[(jc + j) * ldb + pc + p],
                };
                buf[(j / NR) * kc * NR + p * NR + j % NR] = v;
            }
        }
        buf
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Every arm of `pack_a_into`/`pack_b_into` — full strips, edge
        /// strips, both transposes, `ld` wider than the panel, a panel that
        /// starts inside the matrix — lays out the bytes the per-element
        /// loops do, and leaves nothing of a dirty buffer behind.
        #[test]
        fn packing_arms_match_the_per_element_layout(
            rows in 1usize..40, kc in 1usize..70, pad in 0usize..5,
            i0 in 0usize..4, p0 in 0usize..4,
            trans in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let t = if trans { Trans::Yes } else { Trans::No };
            let mut rng = SeededRng::new(seed);
            // A: (i0+rows) x (p0+kc) as stored under `t`; B mirrors it.
            let (ar, ac) = if trans { (p0 + kc, i0 + rows) } else { (i0 + rows, p0 + kc) };
            let lda = ac + pad;
            let a = random_buf(&mut rng, ar * lda);
            let mut got = vec![f32::NAN; rows.div_ceil(MR) * kc * MR];
            pack_a_into(t, &a, lda, i0, rows, p0, kc, &mut got);
            proptest::prop_assert_eq!(bits(&got), bits(&pack_a_reference(t, &a, lda, i0, rows, p0, kc)));

            let (br, bc) = if trans { (i0 + rows, p0 + kc) } else { (p0 + kc, i0 + rows) };
            let ldb = bc + pad;
            let b = random_buf(&mut rng, br * ldb);
            let mut got = vec![f32::NAN; rows.div_ceil(NR) * kc * NR];
            pack_b_into(t, &b, ldb, p0, kc, i0, rows, &mut got);
            proptest::prop_assert_eq!(bits(&got), bits(&pack_b_reference(t, &b, ldb, p0, kc, i0, rows)));
        }
    }
}
