//! Persistent pre-packed GEMM panels for slice-aware weights.
//!
//! [`crate::matmul::gemm`] packs its operands on every call; for a serving
//! engine that holds weights fixed and only moves the slice rate, that means
//! re-gathering the same `op(B)` strips (a strided, cache-hostile walk for
//! the `Trans::Yes` dense-layer case) thousands of times per second. The
//! types here pack a weight matrix **once**, in exactly the strip layout the
//! micro-kernel consumes. The entry points run `gemm`'s own blocked loop
//! with the weight read from its panels and the other operand packed one
//! block at a time: [`gemm_packed_b`] over an arbitrary contiguous column
//! range and `k` range, [`gemm_packed_a_stepped`] over row ranges each with
//! its own `k` extent — the shapes a per-group prefix forward needs.
//! [`conv_packed_a_stepped`], the conv multiply, keeps a direct sweep of its
//! own where it reads the columns straight from the image.
//!
//! # Layout
//!
//! The packed buffer is segmented by `KC` block along `k`. Block `p` holds
//! rows `[p·KC, p·KC + kc)` of `op(B)` as `n.div_ceil(NR)` strips of `NR`
//! columns, each strip `kc`-major ([`PackedB`]); [`PackedA`] is the mirror
//! image with `MR`-row strips for a persistent left operand. Strip
//! membership is **absolute**: column `j` always lives in strip `j / NR` at
//! lane `j % NR`, regardless of which range a caller later requests, so the
//! value computed for an output element is independent of the requested
//! range boundaries.
//!
//! # Determinism
//!
//! For fixed `(m, k0, k1, n0, n1)` the blocking, packing and accumulation
//! order of [`gemm_packed_b`] / [`gemm_packed_a_stepped`] are pure functions
//! of those bounds (k splits at absolute multiples of `KC`, tiles at absolute
//! multiples of `NR`/`MR`). Two calls that cover the same element with the
//! same `k` range produce bitwise-identical contributions — the foundation
//! of the anytime prefix-refine path in `ms-nn`.

use crate::conv::Im2col;
use crate::kernel::{direct_tile, LaneGroup, TapMasks, GROUPS, LG, MR, NR};
use crate::matmul::{
    apply_beta, lanes, live_steps, pack_a_into, pack_b_into, packed_product, Block, Operand,
    Source, Trans, KC, NC,
};
use std::cell::RefCell;

thread_local! {
    /// The tap table of the last geometry this thread multiplied straight
    /// from the image: the convs of a stage share one, and a "same" conv's
    /// input gradient reads its output gradient through its own.
    static TAPS: RefCell<TapMasks> = RefCell::new(TapMasks::default());
    /// The product of one chunk of samples side by side where the columns
    /// are packed, before it is scattered sample-major. Grow-only.
    static CHUNK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Columns one GEMM covers where a conv's columns are packed, in whole
/// samples: enough that small planes fill whole register tiles, few enough
/// that the packed `B` panel stays small where few output channels make
/// packing most of the work (at 512, a stride-2 16-channel conv at batch 32
/// ran 3 % slower).
const CHUNK_COLS: usize = 128;

/// Rows of `op(A)` packed per `KC` block against [`PackedB`] panels (a
/// multiple of `MR`). Every batch a serving engine seals fits one block, so
/// each `B` strip is streamed from the panels once per call and stays in L1
/// while the row strips of the `A` block (240 KiB at `KC = 256`,
/// L2-resident) pass under it; 72 rows would re-read the whole `kc×n`
/// weight block once per 72 rows.
pub(crate) const PANEL_MC: usize = 240;
const _: () = assert!(PANEL_MC.is_multiple_of(MR));

/// A persistently packed `k×n` right-hand operand `op(B)`.
#[derive(Debug, Default, Clone)]
pub struct PackedB {
    k: usize,
    n: usize,
    buf: Vec<f32>,
    valid: bool,
}

/// A persistently packed `m×k` left-hand operand `op(A)`.
#[derive(Debug, Default, Clone)]
pub struct PackedA {
    m: usize,
    k: usize,
    buf: Vec<f32>,
    valid: bool,
}

/// The layout both panel types share, `width` floats per `k` step (strips ×
/// lanes): the `KC` block that starts at `start` holds `KC.min(k − start)`
/// steps of every strip and begins `width · start` floats in.
fn block_at(width: usize, k: usize, start: usize) -> (usize, usize) {
    (width * start, KC.min(k - start))
}

/// Sizes `buf` for `k` steps of `strips` strips of `R` lanes and fills each
/// `KC` block with `fill(pc, kc, block)`. Grow-only, and no clear: the
/// packers write every lane, padding included.
fn pack_blocks<const R: usize>(
    buf: &mut Vec<f32>,
    strips: usize,
    k: usize,
    mut fill: impl FnMut(usize, usize, &mut [f32]),
) {
    buf.resize(strips * R * k, 0.0);
    for pc in (0..k).step_by(KC) {
        let (at, kc) = block_at(strips * R, k, pc);
        fill(pc, kc, &mut buf[at..][..strips * R * kc]);
    }
}

/// The block of a panel set that holds step `pc`, read from `pc` on.
fn block_of<const R: usize>(buf: &[f32], strips: usize, k: usize, pc: usize) -> Block<'_, R> {
    let start = pc - pc % KC;
    let (at, block_kc) = block_at(strips * R, k, start);
    let (buf, first, stride) = (&buf[at + (pc - start) * R..], 0, block_kc * R);
    Block { buf, first, stride }
}

impl PackedB {
    /// An empty (invalid) panel set; call [`PackedB::pack`] before use.
    pub fn new() -> Self {
        PackedB::default()
    }

    /// Whether the panels reflect the last packed weight values.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Marks the panels stale (weights may have changed); the next `pack`
    /// reuses the buffers, so re-validation allocates nothing at steady
    /// state.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Packed `op(B)` row count `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Packed `op(B)` column count `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Packs the full `k×n` `op(B)` from `b` (leading dimension `ldb`,
    /// transposed per `trans_b`). Grow-only: repacking the same shape reuses
    /// the buffer.
    pub fn pack(&mut self, trans_b: Trans, b: &[f32], ldb: usize, k: usize, n: usize) {
        assert!(k > 0 && n > 0, "cannot pack an empty {k}x{n} operand");
        pack_blocks::<NR>(&mut self.buf, n.div_ceil(NR), k, |pc, kc, block| {
            pack_b_into(trans_b, b, ldb, pc, kc, 0, n, block)
        });
        self.k = k;
        self.n = n;
        self.valid = true;
    }

    /// The `KC` block holding step `pc`, from `pc` on.
    pub(crate) fn block(&self, pc: usize) -> Block<'_, NR> {
        block_of(&self.buf, self.n.div_ceil(NR), self.k, pc)
    }
}

impl PackedA {
    /// An empty (invalid) panel set; call [`PackedA::pack`] before use.
    pub fn new() -> Self {
        PackedA::default()
    }

    /// Whether the panels reflect the last packed weight values.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Marks the panels stale (weights may have changed).
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Packed `op(A)` row count `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Packed `op(A)` column count `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Packs the full `m×k` `op(A)` from `a` (leading dimension `lda`,
    /// transposed per `trans_a`). Grow-only.
    pub fn pack(&mut self, trans_a: Trans, a: &[f32], lda: usize, m: usize, k: usize) {
        assert!(m > 0 && k > 0, "cannot pack an empty {m}x{k} operand");
        pack_blocks::<MR>(&mut self.buf, m.div_ceil(MR), k, |pc, kc, block| {
            pack_a_into(trans_a, a, lda, 0, m, pc, kc, block)
        });
        self.m = m;
        self.k = k;
        self.valid = true;
    }

    /// The `KC` block holding step `pc`, from `pc` on.
    pub(crate) fn block(&self, pc: usize) -> Block<'_, MR> {
        block_of(&self.buf, self.m.div_ceil(MR), self.k, pc)
    }
}

/// `C[0..m, n0..n1) = alpha · A[:, k0..k1) · op(B)[k0..k1, n0..n1) + beta · C`
/// with `op(B)` prepacked.
///
/// `a` is indexed by **absolute** `k`: element `(i, p)` lives at
/// `a[i * lda + p]` for `p ∈ [k0, k1)`. `c` holds only the requested column
/// window: element `(i, j)` lives at `c[i * ldc + (j - n0)]`. The `A` side
/// is packed per call, [`PANEL_MC`] rows per `KC` block, into the shared
/// thread-local buffers (it is the activation, different every call); `B`
/// is read straight from the panels, each strip once per row block.
///
/// The per-call `m·n·k` small-problem dispatch of [`crate::matmul::gemm`] is
/// deliberately absent: every call takes the packed path, so an output
/// element's accumulation order depends only on its own `(k0, k1)` range —
/// never on how large the enclosing call happened to be.
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_b(
    m: usize,
    k0: usize,
    k1: usize,
    n0: usize,
    n1: usize,
    alpha: f32,
    a: &[f32],
    lda: usize,
    pb: &PackedB,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    assert!(pb.valid, "gemm_packed_b on invalid panels");
    assert!(
        k0 <= k1 && k1 <= pb.k,
        "k range {k0}..{k1} vs packed {}",
        pb.k
    );
    assert!(
        n0 <= n1 && n1 <= pb.n,
        "col range {n0}..{n1} vs packed {}",
        pb.n
    );
    if m == 0 {
        return;
    }
    let ncols = n1 - n0;
    debug_assert!(ldc >= ncols.max(1) && c.len() >= (m - 1) * ldc + ncols);
    let multiplies = k0 < k1 && ncols > 0 && alpha != 0.0;
    apply_beta(beta, multiplies, c, ldc, m, ncols);
    if !multiplies {
        return;
    }
    debug_assert!(lda >= 1 && a.len() >= (m - 1) * lda + k1);

    let _span = ms_telemetry::span!("gemm.panel_b");
    let a = Source::Packs(Operand::Matrix(Trans::No, a, lda));
    let b = Source::Panels(pb);
    packed_product(&[0, m], &[k1], k0, n0..n1, alpha, a, b, beta, c, ldc);
}

/// Stepped-`k` sweep over a prepacked `op(A)`: step `i` covers rows
/// `[rows[i], rows[i+1])` and multiplies them with `k ∈ [0, k_ext[i])`,
///
/// `C[rows[i]..rows[i+1], 0..n) = alpha · op(A)[.., 0..k_ext[i]) · op(B)[0..k_ext[i], :] + beta · C`.
///
/// `rows` is ascending (`k_ext.len() + 1` boundaries); `c` holds the swept
/// row window, row `rows[0]` first. `b` is indexed by absolute `k` and must
/// hold the largest extent; whatever kind of [`Operand`] it is, it is packed
/// one `KC × NC` panel at a time into the same strip layout. This is the
/// shape of a per-group convolution prefix pass — output group `g` sees the
/// input channels of groups `≤ g` — and the reason it is one call: each
/// `KC × NC` panel of `B` (the im2col matrix of the input, packed from the
/// image) is packed **once** and every step reads the leading rows it needs
/// from that packing. A step's `k`
/// still splits at absolute multiples of `KC` and its tiles run in the same
/// order, so each output element is bitwise what a single-step call over its
/// own rows and extent produces.
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_a_stepped(
    rows: &[usize],
    k_ext: &[usize],
    n: usize,
    alpha: f32,
    pa: &PackedA,
    b: Operand,
    beta: f32,
    c: &mut [f32],
    ldc: usize,
) {
    assert!(pa.valid, "gemm_packed_a_stepped on invalid panels");
    assert_eq!(rows.len(), k_ext.len() + 1, "one k extent per row step");
    assert!(
        rows.is_sorted() && rows.last().is_some_and(|&m| m <= pa.m),
        "row steps {rows:?} vs packed {}",
        pa.m
    );
    let k_max = k_ext.iter().copied().max().unwrap_or(0);
    assert!(k_max <= pa.k, "k extent {k_max} vs packed {}", pa.k);
    let (m0, m1) = (rows[0], rows[rows.len() - 1]);
    let mrows = m1 - m0;
    if mrows == 0 {
        return;
    }
    debug_assert!(ldc >= n.max(1) && c.len() >= (mrows - 1) * ldc + n);
    // A step stores its rows in the first `KC` block, unless it has none.
    for (step, &k1) in k_ext.iter().enumerate() {
        let (r0, r1) = (rows[step], rows[step + 1]);
        if r0 < r1 {
            let stored = k1 > 0 && alpha != 0.0;
            apply_beta(beta, stored, &mut c[(r0 - m0) * ldc..], ldc, r1 - r0, n);
        }
    }
    if k_max == 0 || n == 0 || alpha == 0.0 {
        return;
    }
    debug_assert!(b.covers(k_max, n), "B operand smaller than {k_max}x{n}");

    let _span = ms_telemetry::span!("gemm.panel_a");
    let (a, b) = (Source::Panels(pa), Source::Packs(b));
    packed_product(rows, k_ext, 0, 0..n, alpha, a, b, beta, c, ldc);
}

/// The one conv multiply: [`gemm_packed_a_stepped`] with `alpha = 1`,
/// `beta = 0` and `B` the column matrix `cols`, the product written
/// sample-major, the way a layer lays out its output: row `i` of sample `s`
/// at output position `q` goes to `c[s·lds + (i − rows[0])·OH·OW + q]`.
///
/// Where [`ConvGeom::direct`](crate::conv::ConvGeom::direct) admits the
/// geometry the micro-kernel reads the columns straight from the image
/// (`kernel::direct_tile`) and writes each lane group into its own sample's
/// rows: nothing is packed or copied. Elsewhere (strided or shrinking
/// windows, planes that are not whole lane groups) chunks of
/// ⌈128 / OH·OW⌉ samples go side by side through [`gemm_packed_a_stepped`],
/// their columns packed from the image, and each chunk's product is
/// scattered sample-major.
///
/// `C` is overwritten; a step with `k_ext = 0` clears its rows. Each element
/// gets the bits [`gemm_packed_a_stepped`] gives it over
/// `Operand::Im2col(Trans::No, cols)`: the same `A` strips, the same `B`
/// values (`+0.0` where a tap reads padding), the same absolute `KC` blocks
/// and the same FMA chain; only where it lands differs.
pub fn conv_packed_a_stepped(
    rows: &[usize],
    k_ext: &[usize],
    pa: &PackedA,
    cols: Im2col,
    c: &mut [f32],
    lds: usize,
) {
    assert!(pa.valid, "conv_packed_a_stepped on invalid panels");
    assert_eq!(rows.len(), k_ext.len() + 1, "one k extent per row step");
    assert!(
        rows.is_sorted() && rows.last().is_some_and(|&m| m <= pa.m),
        "row steps {rows:?} vs packed {}",
        pa.m
    );
    let k_max = k_ext.iter().copied().max().unwrap_or(0);
    assert!(
        k_max <= pa.k.min(cols.rows()),
        "k extent {k_max} vs packed {} and columns {}",
        pa.k,
        cols.rows()
    );
    let (m0, m1) = (rows[0], rows[rows.len() - 1]);
    let (n, out_len) = (cols.cols(), cols.geom.out_len());
    if m0 == m1 || n == 0 {
        return;
    }
    debug_assert!(lds >= (m1 - m0) * out_len && c.len() >= (cols.samples - 1) * lds);
    if !cols.geom.direct() {
        return conv_by_chunks(rows, k_ext, pa, cols, c, lds);
    }
    for (step, &k1) in k_ext.iter().enumerate() {
        let (r0, r1) = (rows[step] - m0, rows[step + 1] - m0);
        if r0 < r1 && k1 == 0 {
            for sample in c.chunks_mut(lds).take(cols.samples) {
                sample[r0 * out_len..r1 * out_len].fill(0.0);
            }
        }
    }
    if k_max == 0 {
        return;
    }

    let _span = ms_telemetry::span!("gemm.panel_conv");
    let sample_len = cols.channels * cols.geom.h * cols.geom.w;
    TAPS.with(|table| {
        let mut table = table.borrow_mut();
        let taps = table.of(&cols.geom);
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            // The lane groups of the block's strips (at absolute multiples of
            // `NR`), each inside one sample because `LG` divides `OH·OW`;
            // where in `C` is counted from the window's first row.
            let mut strips = [[None; GROUPS]; NC / NR];
            for (t, strip) in strips.iter_mut().enumerate() {
                for (v, group) in strip.iter_mut().enumerate() {
                    let j = jc + t * NR + v * LG;
                    *group = (j < jc + nc).then(|| LaneGroup {
                        sample: j / out_len * sample_len,
                        col: j % out_len / LG,
                        c_at: j / out_len * lds + j % out_len,
                    });
                }
            }
            let strips = &strips[..nc.div_ceil(NR)];
            for pc in (0..k_max).step_by(KC) {
                let (ab, store) = (pa.block(pc), pc == 0);
                for (r, kc) in live_steps(rows, k_ext, pc, KC.min(k_max - pc)) {
                    for s in r.start / MR..r.end.div_ceil(MR) {
                        let si = lanes::<MR>(s, r.start, r.end);
                        let (ap, image) = (ab.strip(s, kc), cols.input);
                        let c = &mut c[(s * MR + si.start - m0) * out_len..];
                        for groups in strips {
                            let rows = si.clone();
                            direct_tile(pc, kc, ap, image, taps, groups, c, out_len, rows, store);
                        }
                    }
                }
            }
        }
    });
}

/// [`conv_packed_a_stepped`] where the columns are packed: one
/// [`gemm_packed_a_stepped`] per chunk of samples side by side, into the
/// thread's chunk buffer, then [`scatter`]ed into `c`.
fn conv_by_chunks(
    rows: &[usize],
    k_ext: &[usize],
    pa: &PackedA,
    cols: Im2col,
    c: &mut [f32],
    lds: usize,
) {
    let (window, out_len) = (rows[rows.len() - 1] - rows[0], cols.geom.out_len());
    let per = CHUNK_COLS.div_ceil(out_len);
    let sample_len = cols.channels * cols.geom.h * cols.geom.w;
    CHUNK.with(|chunk| {
        let chunk = &mut *chunk.borrow_mut();
        for first in (0..cols.samples).step_by(per) {
            let samples = per.min(cols.samples - first);
            let ld = samples * out_len;
            if chunk.len() < window * ld {
                chunk.resize(window * ld, 0.0);
            }
            let out = &mut chunk[..window * ld];
            let input = &cols.input[first * sample_len..][..samples * sample_len];
            let b = Operand::Im2col(
                Trans::No,
                Im2col {
                    input,
                    samples,
                    ..cols
                },
            );
            gemm_packed_a_stepped(rows, k_ext, ld, 1.0, pa, b, 0.0, out, ld);
            scatter(out, out_len, samples, &mut c[first * lds..], lds);
        }
    });
}

/// Copies a chunk's product — each row holding `samples` samples side by
/// side, `[rows, samples·OH·OW]` — to the sample-major `c`, where sample
/// `s`'s first row starts at `s · lds`.
fn scatter(out: &[f32], out_len: usize, samples: usize, c: &mut [f32], lds: usize) {
    for (row, out_row) in out.chunks_exact(samples * out_len).enumerate() {
        for (s, src) in out_row.chunks_exact(out_len).enumerate() {
            c[s * lds + row * out_len..][..out_len].copy_from_slice(src);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ConvGeom;
    use crate::matmul::gemm_reference;
    use crate::SeededRng;
    use proptest::test_runner::TestCaseError;
    use proptest::{prop_assert, prop_assert_eq};

    fn filled(rng: &mut SeededRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn mat(b: &[f32], ldb: usize) -> Operand<'_> {
        Operand::Matrix(Trans::No, b, ldb)
    }

    /// `shapes` plus the tile- and block-edge grid `gemm` is tested on, as
    /// `(m, k, n)`.
    fn with_tile_and_block_edges(shapes: &[(usize, usize, usize)]) -> Vec<(usize, usize, usize)> {
        let edges = crate::matmul::tests::tile_and_block_edges();
        let mut all = shapes.to_vec();
        all.extend(edges.into_iter().map(|(m, n, k)| (m, k, n)));
        all
    }

    #[allow(clippy::too_many_arguments)]
    fn reference_range_b(
        m: usize,
        (k0, k1): (usize, usize),
        (n0, n1): (usize, usize),
        alpha: f32,
        a: &[f32],
        lda: usize,
        bt: &[f32], // op(B) stored k×n row-major
        n_full: usize,
        beta: f32,
        c: &mut [f32],
        ldc: usize,
    ) {
        for i in 0..m {
            for j in n0..n1 {
                let mut acc = 0.0f64;
                for p in k0..k1 {
                    acc += a[i * lda + p] as f64 * bt[p * n_full + j] as f64;
                }
                let cv = &mut c[i * ldc + (j - n0)];
                *cv = (beta as f64 * *cv as f64 + alpha as f64 * acc) as f32;
            }
        }
    }

    /// Ranged panel GEMM agrees with an f64 reference over the whole operand
    /// and random ranges of it, both transpose packings, and edge
    /// (non-multiple) shapes.
    #[test]
    fn packed_b_matches_reference_over_ranges() {
        let mut rng = SeededRng::new(41);
        let shapes = [
            (1usize, 7usize, 5usize),
            (MR, NR, NR),
            (13, 33, 29),
            (64, 300, 270),
        ];
        for (m, k, n) in with_tile_and_block_edges(&shapes) {
            // op(B) as k×n (Trans::No) and its transposed storage n×k.
            let bt = filled(&mut rng, k * n);
            let b_trans: Vec<f32> = (0..n * k).map(|i| bt[(i % k) * n + i / k]).collect();
            let a = filled(&mut rng, m * k);
            for trans in [Trans::No, Trans::Yes] {
                let mut pb = PackedB::new();
                match trans {
                    Trans::No => pb.pack(Trans::No, &bt, n, k, n),
                    Trans::Yes => pb.pack(Trans::Yes, &b_trans, k, k, n),
                }
                for case in 0..8 {
                    let k0 = rng.uniform(0.0, k as f32) as usize % k;
                    let k1 = k0 + 1 + (rng.uniform(0.0, (k - k0) as f32) as usize).min(k - k0 - 1);
                    let n0 = rng.uniform(0.0, n as f32) as usize % n;
                    let n1 = n0 + 1 + (rng.uniform(0.0, (n - n0) as f32) as usize).min(n - n0 - 1);
                    let (k0, k1, n0, n1) = if case == 0 {
                        (0, k, 0, n)
                    } else {
                        (k0, k1, n0, n1)
                    };
                    let (alpha, beta) = if case % 2 == 0 {
                        (1.0, 0.0)
                    } else {
                        (1.7, 1.0)
                    };
                    let ldc = (n1 - n0) + (case % 3);
                    let mut c = filled(&mut rng, m * ldc);
                    let mut want = c.clone();
                    gemm_packed_b(m, k0, k1, n0, n1, alpha, &a, k, &pb, beta, &mut c, ldc);
                    reference_range_b(
                        m,
                        (k0, k1),
                        (n0, n1),
                        alpha,
                        &a,
                        k,
                        &bt,
                        n,
                        beta,
                        &mut want,
                        ldc,
                    );
                    for (got, want) in c.iter().zip(&want) {
                        assert!(
                            (got - want).abs() <= 2e-4 * want.abs().max(1.0),
                            "m={m} k={k0}..{k1} n={n0}..{n1}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    /// Two half-range calls produce bitwise the same bytes as one covering
    /// call when the split is at any column boundary — the refine guarantee.
    #[test]
    fn packed_b_column_split_is_bitwise_invariant() {
        let mut rng = SeededRng::new(42);
        let (m, k, n) = (9usize, 70usize, 2 * NR + 13);
        let w = filled(&mut rng, n * k); // n×k storage, used Trans::Yes
        let a = filled(&mut rng, m * k);
        let mut pb = PackedB::new();
        pb.pack(Trans::Yes, &w, k, k, n);
        let mut whole = vec![0.0f32; m * n];
        gemm_packed_b(m, 0, k, 0, n, 1.3, &a, k, &pb, 0.0, &mut whole, n);
        for split in [1, 7, NR, NR + 1, 2 * NR, n - 1] {
            let mut parts = vec![0.0f32; m * n];
            gemm_packed_b(m, 0, k, 0, split, 1.3, &a, k, &pb, 0.0, &mut parts, n);
            // Second call writes its own window; stitch via offset slice.
            let mut tail = vec![0.0f32; m * (n - split)];
            gemm_packed_b(
                m,
                0,
                k,
                split,
                n,
                1.3,
                &a,
                k,
                &pb,
                0.0,
                &mut tail,
                n - split,
            );
            for i in 0..m {
                parts[i * n + split..(i + 1) * n]
                    .copy_from_slice(&tail[i * (n - split)..(i + 1) * (n - split)]);
            }
            assert_eq!(
                whole.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                parts.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "split at {split} changed bits"
            );
        }
    }

    /// A row's bits do not depend on how many rows share its call: batches
    /// past `gemm`'s 72-row `MC` and past `PANEL_MC` equal the same rows
    /// computed in ≤72-row calls — what keeps a request's logits independent
    /// of its batch companions on the packed direct path.
    #[test]
    fn packed_b_row_blocking_is_bitwise_invariant() {
        let mut rng = SeededRng::new(47);
        let (k, n) = (KC + 19, 37usize);
        let w = filled(&mut rng, n * k);
        let mut pb = PackedB::new();
        pb.pack(Trans::Yes, &w, k, k, n);
        for m in [73usize, 120, 200, PANEL_MC + 1, 2 * PANEL_MC + 5] {
            let a = filled(&mut rng, m * k);
            let mut whole = vec![0.0f32; m * n];
            gemm_packed_b(m, 0, k, 0, n, 0.7, &a, k, &pb, 0.0, &mut whole, n);
            let mut parts = vec![0.0f32; m * n];
            for i0 in (0..m).step_by(72) {
                let rows = 72.min(m - i0);
                let (a_rows, c_rows) = (&a[i0 * k..], &mut parts[i0 * n..]);
                gemm_packed_b(rows, 0, k, 0, n, 0.7, a_rows, k, &pb, 0.0, c_rows, n);
            }
            assert_eq!(
                whole.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                parts.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "m = {m}: row blocking changed bits"
            );
        }
    }

    /// Same k range ⇒ same bits, regardless of where previous calls stopped:
    /// k splits at absolute KC multiples.
    #[test]
    fn packed_b_k_prefix_accumulation_is_canonical() {
        let mut rng = SeededRng::new(43);
        let (m, k, n) = (4usize, 2 * KC + 37, 24usize);
        let w = filled(&mut rng, n * k);
        let a = filled(&mut rng, m * k);
        let mut pb = PackedB::new();
        pb.pack(Trans::Yes, &w, k, k, n);
        // One shot over [0, k) vs two k-chunks [0, c) + [c, k) accumulated.
        let mut whole = vec![0.0f32; m * n];
        gemm_packed_b(m, 0, k, 0, n, 1.0, &a, k, &pb, 0.0, &mut whole, n);
        for cut in [KC, 2 * KC] {
            // Cuts at KC boundaries preserve the block structure exactly.
            let mut two = vec![0.0f32; m * n];
            gemm_packed_b(m, 0, cut, 0, n, 1.0, &a, k, &pb, 0.0, &mut two, n);
            gemm_packed_b(m, cut, k, 0, n, 1.0, &a, k, &pb, 1.0, &mut two, n);
            assert_eq!(
                whole.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                two.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "k cut at {cut} changed bits"
            );
        }
    }

    #[test]
    fn packed_a_matches_reference_over_row_ranges() {
        let mut rng = SeededRng::new(44);
        let shapes = [(5usize, 9usize, 8usize), (16, 40, 33), (70, 260, 50)];
        for (m, k, n) in with_tile_and_block_edges(&shapes) {
            let a = filled(&mut rng, m * k);
            let b = filled(&mut rng, k * n);
            let mut pa = PackedA::new();
            pa.pack(Trans::No, &a, k, m, k);
            for case in 0..6 {
                let m0 = rng.uniform(0.0, m as f32) as usize % m;
                let m1 = m0 + 1 + (rng.uniform(0.0, (m - m0) as f32) as usize).min(m - m0 - 1);
                let k1 = 1 + (rng.uniform(0.0, k as f32) as usize).min(k - 1);
                let (m0, m1, k1) = if case == 0 { (0, m, k) } else { (m0, m1, k1) };
                let mut c = vec![0.0f32; (m1 - m0) * n];
                let b_op = mat(&b, n);
                gemm_packed_a_stepped(&[m0, m1], &[k1], n, 1.0, &pa, b_op, 0.0, &mut c, n);
                let mut want = vec![0.0f32; m * n];
                gemm_reference(
                    Trans::No,
                    Trans::No,
                    m,
                    n,
                    k1,
                    1.0,
                    &a,
                    k,
                    &b,
                    n,
                    0.0,
                    &mut want,
                    n,
                );
                for i in m0..m1 {
                    for j in 0..n {
                        let got = c[(i - m0) * n + j];
                        let w = want[i * n + j];
                        assert!(
                            (got - w).abs() <= 2e-4 * w.abs().max(1.0),
                            "rows {m0}..{m1} k1={k1} at ({i},{j}): {got} vs {w}"
                        );
                    }
                }
            }
        }
    }

    /// Row-split calls agree bitwise with one covering call (the conv
    /// per-output-group decomposition).
    #[test]
    fn packed_a_row_split_is_bitwise_invariant() {
        let mut rng = SeededRng::new(45);
        let (m, k, n) = (31usize, 90usize, 40usize);
        let a = filled(&mut rng, m * k);
        let b = filled(&mut rng, k * n);
        let mut pa = PackedA::new();
        pa.pack(Trans::No, &a, k, m, k);
        let one_step = |m0: usize, m1: usize, c: &mut [f32]| {
            gemm_packed_a_stepped(&[m0, m1], &[k], n, 1.0, &pa, mat(&b, n), 0.0, c, n);
        };
        let mut whole = vec![0.0f32; m * n];
        one_step(0, m, &mut whole);
        for split in [1, MR - 1, MR, 2 * MR, 30] {
            let mut parts = vec![0.0f32; m * n];
            one_step(0, split, &mut parts);
            one_step(split, m, &mut parts[split * n..]);
            assert_eq!(
                whole.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                parts.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "row split at {split} changed bits"
            );
        }
    }

    /// One stepped sweep (columns packed once per `KC` block) writes the
    /// bits of the one-step calls it replaces: random group
    /// boundaries, non-monotone `k` extents, extents on both sides of `KC`
    /// block edges, empty steps.
    #[test]
    fn packed_a_stepped_sweep_is_bitwise_the_per_step_calls() {
        let mut rng = SeededRng::new(48);
        let mut pick = |lo: usize, hi: usize| lo + rng.below(hi - lo + 1);
        for case in 0..24 {
            let (m, k, n) = (pick(1, 50), pick(1, 2 * KC + 40), pick(1, 70));
            let mut data = SeededRng::new(100 + case);
            let a = filled(&mut data, m * k);
            let b = filled(&mut data, k * n);
            let mut pa = PackedA::new();
            pa.pack(Trans::No, &a, k, m, k);
            let steps = pick(1, 8);
            let mut rows: Vec<usize> = (0..=steps).map(|_| pick(0, m)).collect();
            rows.sort_unstable();
            let k_ext: Vec<usize> = (0..steps)
                .map(|i| match (case + i as u64) % 4 {
                    0 => KC.min(k),
                    1 => (KC + 1).min(k),
                    _ => pick(0, k),
                })
                .collect();
            let window = rows[steps] - rows[0];
            let (alpha, beta) = if case % 2 == 0 {
                (1.0, 0.0)
            } else {
                (0.6, 1.0)
            };
            let start = filled(&mut data, window * n);
            let mut swept = start.clone();
            gemm_packed_a_stepped(
                &rows,
                &k_ext,
                n,
                alpha,
                &pa,
                mat(&b, n),
                beta,
                &mut swept,
                n,
            );
            let mut parts = start.clone();
            for i in 0..steps {
                let c = &mut parts[(rows[i] - rows[0]) * n..];
                let (step, b) = (&rows[i..i + 2], mat(&b, n));
                gemm_packed_a_stepped(step, &k_ext[i..=i], n, alpha, &pa, b, beta, c, n);
            }
            assert_eq!(
                swept.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                parts.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "case {case}: rows {rows:?} k {k_ext:?} of {m}x{k}x{n}"
            );
        }
    }

    /// `beta = 0` overwrites on the `B`-panel driver as it does on `gemm`:
    /// nothing `C` held — NaN, which `0 × NaN` would keep, included —
    /// survives, over ranged column and `k` windows, one `KC` block and
    /// several, and a call that multiplies nothing.
    #[test]
    fn packed_b_beta_zero_overwrites_garbage() {
        let mut rng = SeededRng::new(49);
        let (m, k, n) = (2 * MR + 1, 2 * KC + 9, 2 * NR + 5);
        let w = filled(&mut rng, n * k);
        let a = filled(&mut rng, m * k);
        let mut pb = PackedB::new();
        pb.pack(Trans::Yes, &w, k, k, n);
        for (k0, k1, n0, n1, alpha) in [
            (0, k, 0, n, 0.7),
            (3, KC - 2, 5, NR + 2, 0.7),
            (KC - 1, 2 * KC + 1, NR, n, 1.0),
            (7, 7, 2, n - 1, 0.7),
            (0, k, 1, n, 0.0),
        ] {
            let ldc = (n1 - n0) + 2;
            let mut dirty = vec![f32::NAN; m * ldc];
            let mut zeroed = vec![0.0f32; m * ldc];
            for c in [&mut dirty, &mut zeroed] {
                gemm_packed_b(m, k0, k1, n0, n1, alpha, &a, k, &pb, 0.0, c, ldc);
            }
            for (d, z) in dirty.chunks(ldc).zip(zeroed.chunks(ldc)) {
                assert_eq!(
                    bits(&d[..n1 - n0]),
                    bits(&z[..n1 - n0]),
                    "k {k0}..{k1} n {n0}..{n1}"
                );
                assert!(
                    d[n1 - n0..].iter().all(|v| v.is_nan()),
                    "row padding written"
                );
            }
        }
    }

    /// The same on the stepped `A`-panel driver: steps on both sides of a
    /// `KC` edge, an empty step, and a step with `k_ext = 0`, whose rows come
    /// out zero.
    #[test]
    fn packed_a_stepped_beta_zero_overwrites_garbage() {
        let mut rng = SeededRng::new(50);
        let (m, k, n) = (3 * MR + 2, KC + 40, NR + 7);
        let a = filled(&mut rng, m * k);
        let b = filled(&mut rng, k * n);
        let mut pa = PackedA::new();
        pa.pack(Trans::No, &a, k, m, k);
        let rows = [1, MR - 1, MR - 1, 2 * MR + 1, 2 * MR + 4, m];
        let k_ext = [KC + 3, 17, 0, KC, k];
        for alpha in [0.7, 0.0] {
            let window = rows[rows.len() - 1] - rows[0];
            let mut dirty = vec![f32::NAN; window * n];
            let mut zeroed = vec![0.0f32; window * n];
            for c in [&mut dirty, &mut zeroed] {
                gemm_packed_a_stepped(&rows, &k_ext, n, alpha, &pa, mat(&b, n), 0.0, c, n);
            }
            assert_eq!(bits(&dirty), bits(&zeroed), "alpha {alpha}");
            let cleared = &dirty[(rows[2] - rows[0]) * n..(rows[3] - rows[0]) * n];
            assert!(
                cleared.iter().all(|v| v.to_bits() == 0),
                "k_ext = 0 rows must be +0"
            );
        }
        let mut c = vec![f32::NAN; MR * n];
        gemm_packed_a_stepped(&[0, MR], &[k], n, 1.0, &pa, mat(&b, n), 0.0, &mut c, n);
        assert!(c.iter().all(|v| v.is_finite()));
    }

    /// A quiet NaN no arithmetic here produces: what `C` holds wherever the
    /// conv driver must not write.
    const POISON: u32 = 0x7fc0_beef;

    /// The conv driver over `samples` images of `channels` channels and a
    /// stepped sweep `(rows, k_ext)` of an `m`-row weight, against one
    /// `gemm_packed_a_stepped` over the same columns of every sample packed
    /// from the image (`[rows, samples·OH·OW]`), then copied sample-major:
    /// bit for bit, into output poisoned with NaN whose sample stride leaves
    /// a gap that must stay poisoned.
    #[allow(clippy::too_many_arguments)]
    fn check_conv(
        g: &ConvGeom,
        channels: usize,
        samples: usize,
        m: usize,
        rows: &[usize],
        k_ext: &[usize],
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut rng = SeededRng::new(seed);
        let (k, out_len) = (channels * g.kh * g.kw, g.out_len());
        let w = filled(&mut rng, m * k);
        let image = filled(&mut rng, samples * channels * g.h * g.w);
        let mut pa = PackedA::new();
        pa.pack(Trans::No, &w, k, m, k);
        let cols = Im2col {
            input: &image,
            channels,
            geom: *g,
            samples,
        };
        let (m0, m1, n) = (rows[0], rows[rows.len() - 1], samples * out_len);
        let mut chunk = vec![f32::from_bits(POISON); (m1 - m0) * n];
        let b = Operand::Im2col(Trans::No, cols);
        gemm_packed_a_stepped(rows, k_ext, n, 1.0, &pa, b, 0.0, &mut chunk, n);
        let lds = (m1 - m0 + 1) * out_len;
        let mut want = vec![f32::from_bits(POISON); samples * lds];
        for (i, row) in chunk.chunks_exact(n).enumerate() {
            for (s, src) in row.chunks_exact(out_len).enumerate() {
                want[s * lds + i * out_len..][..out_len].copy_from_slice(src);
            }
        }
        let mut got = vec![f32::from_bits(POISON); samples * lds];
        conv_packed_a_stepped(rows, k_ext, &pa, cols, &mut got, lds);
        prop_assert_eq!(
            bits(&got),
            bits(&want),
            "{:?} x{} channels {} rows {:?} k {:?}",
            g,
            samples,
            channels,
            rows,
            k_ext
        );
        let written = |at: usize| at % lds < (m1 - m0) * out_len;
        for (at, v) in got.iter().enumerate() {
            prop_assert_eq!(v.to_bits() != POISON, written(at), "element {}", at);
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Multiplying a convolution's columns straight from the image gives
        /// the bits of packing them: kernels 1, 3 and 5 with "same" padding
        /// (which is also the transposed padding of a "same" conv, whose
        /// input gradient this driver computes), 4×4 / 8×8 / 16×16 planes,
        /// 1–70 channels (so `k` crosses one and two `KC` boundaries in the
        /// middle of a channel), 1–8 samples, stepped row windows that start
        /// mid-tile with canonical (non-decreasing) `k` extents, one of
        /// which may be zero or end mid-channel.
        #[test]
        fn the_direct_kernel_is_bitwise_the_packed_columns(
            kernel in proptest::sample::select(vec![1usize, 3, 5]),
            side in proptest::sample::select(vec![4usize, 8, 16]),
            channels in 1usize..=70, samples in 1usize..=8,
            m in 1usize..=3 * MR + 2, start in 0usize..MR,
            cuts in proptest::collection::vec(0usize..=3 * MR + 2, 0..4),
            widths in proptest::collection::vec(0usize..=70, 4),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let pad = (kernel - 1) / 2;
            let g = ConvGeom { h: side, w: side, kh: kernel, kw: kernel, stride: 1, pad };
            proptest::prop_assert_eq!(g.transposed(), Some(g));
            prop_assert!(g.direct());
            let taps = kernel * kernel;
            let mut rows: Vec<usize> = cuts.iter().map(|&r| r.clamp(start.min(m), m)).collect();
            rows.extend([start.min(m), m]);
            rows.sort_unstable();
            let mut widths: Vec<usize> = widths.iter().map(|&c| c.min(channels)).collect();
            widths.sort_unstable();
            // One step in four reads a `k` that ends mid-channel.
            let k_ext: Vec<usize> = (0..rows.len() - 1)
                .map(|i| match widths[i] * taps {
                    k if i == 3 && k > 0 => k - 1,
                    k => k,
                })
                .collect();
            check_conv(&g, channels, samples, m, &rows, &k_ext, seed)?;
        }
    }

    /// Geometries the micro-kernel cannot read in place — stride 2 with and
    /// without padding, a 7×7 plane, a padded 1×1 window — go through their
    /// packed columns chunk by chunk to the same bits: batches of one sample,
    /// of exactly one chunk and of an uneven third chunk, one step over all
    /// of `k` (past a `KC` edge for the 3×3 windows) and a stepped sweep with
    /// a mid-channel and a zero extent.
    #[test]
    fn the_columns_path_matches_across_chunks() {
        let (channels, m) = (40, 20);
        for (i, (side, kernel, stride, pad)) in
            [(8, 3, 2, 1), (14, 3, 2, 0), (7, 3, 1, 1), (5, 1, 1, 1)]
                .into_iter()
                .enumerate()
        {
            let g = ConvGeom {
                h: side,
                w: side,
                kh: kernel,
                kw: kernel,
                stride,
                pad,
            };
            assert!(!g.direct(), "{g:?}");
            let (k, per) = (channels * kernel * kernel, CHUNK_COLS.div_ceil(g.out_len()));
            for samples in [1, per, 2 * per + 3] {
                let seed = i as u64;
                check_conv(&g, channels, samples, m, &[0, m], &[k], seed).unwrap();
                let (rows, k_ext) = ([3, 9, 12, 17, m], [k - 1, 0, 5, k]);
                check_conv(&g, channels, samples, m, &rows, &k_ext, seed).unwrap();
            }
        }
    }

    /// The zoo's "same" convolutions at batch 32 and at full width: every
    /// VGG stage and a pointwise conv, past one `NC` block of columns.
    #[test]
    fn the_direct_kernel_matches_on_the_zoos_geometries() {
        for (i, (side, kernel, channels, m)) in [
            (16, 3, 3, 16),
            (16, 3, 16, 16),
            (8, 3, 32, 32),
            (4, 3, 64, 64),
            (8, 1, 24, 40),
        ]
        .into_iter()
        .enumerate()
        {
            let pad = (kernel - 1) / 2;
            let g = ConvGeom {
                h: side,
                w: side,
                kh: kernel,
                kw: kernel,
                stride: 1,
                pad,
            };
            let k = channels * kernel * kernel;
            check_conv(&g, channels, 32, m, &[0, m], &[k], i as u64).unwrap();
        }
    }

    #[test]
    fn repack_reuses_capacity() {
        let mut rng = SeededRng::new(46);
        let w = filled(&mut rng, 64 * 48);
        let mut pb = PackedB::new();
        pb.pack(Trans::Yes, &w, 48, 48, 64);
        let cap = pb.buf.capacity();
        pb.invalidate();
        assert!(!pb.is_valid());
        pb.pack(Trans::Yes, &w, 48, 48, 64);
        assert!(pb.is_valid());
        assert_eq!(pb.buf.capacity(), cap, "repack must not grow the buffer");
        assert_eq!((pb.k(), pb.n()), (48, 64));
    }
}
