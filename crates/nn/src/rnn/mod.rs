//! Recurrent layers.
//!
//! Both cells run one forward for training and inference. The input
//! projection `X·W_xᵀ` does not depend on the recurrence, so it is hoisted
//! out of the time loop into one `[T·B, D]` GEMM per gate over a time-major
//! copy of the input; the pre-activations live gate-major
//! (`[gate][t][b][unit]`), which makes one gate of one step a contiguous
//! `B × a_h` slab that the recurrent GEMM accumulates into and the
//! vectorised `sigmoid`/`tanh` slab kernels of `ms_tensor::ops` activate in
//! place. Both read the weights off the layer's packed panels
//! ([`gate_gemm`]), packing them first after a weight change; the modes
//! differ only in what they keep for `backward` and in how many *parts* the
//! batch runs as.
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

use ms_tensor::matmul::{gemm, Trans, SMALL_GEMM_CUTOFF};
use ms_tensor::ops::add_bias_rows;
use ms_tensor::panels::{gemm_packed_b, PackedB};
use ms_tensor::Tensor;

/// Packs every gate's block of `w_h: [G·h_full, h_full]`, as stored, into
/// its panels — the `B` side of the backward's `dh_prev` GEMMs — unless they
/// are valid. Grow-only, like every panel set.
fn pack_gate_blocks(w_h: &Tensor, h_full: usize, panels: &mut [PackedB]) {
    for (gate, pb) in panels.iter_mut().enumerate() {
        if !pb.is_valid() {
            let block = &w_h.data()[gate * h_full * h_full..];
            pb.pack(Trans::No, block, h_full, h_full, h_full);
        }
    }
}

/// `dh = scale · g · W_h[gate][0..a_h, 0..a_h] + beta · dh` for `rows` batch
/// rows: a gate's share of `dh_prev`, off the gate's panels
/// ([`pack_gate_blocks`]) — except where `gemm` would take its small loops,
/// which sum in another order: there it is still `gemm` on `w_h`. Either
/// way the bits are those of packing `W_h[gate]` per call.
#[allow(clippy::too_many_arguments)]
fn recurrent_grad(
    w_h: &Tensor,
    panels: &PackedB,
    gate: usize,
    a_h: usize,
    scale: f32,
    rows: usize,
    g: &[f32],
    beta: f32,
    dh: &mut [f32],
) {
    if rows * a_h * a_h > SMALL_GEMM_CUTOFF {
        gemm_packed_b(rows, 0, a_h, 0, a_h, scale, g, a_h, panels, beta, dh, a_h);
        return;
    }
    let h_full = w_h.dims()[1];
    let block = &w_h.data()[gate * h_full * h_full..];
    gemm(
        Trans::No,
        Trans::No,
        rows,
        a_h,
        a_h,
        scale,
        g,
        a_h,
        block,
        h_full,
        beta,
        dh,
        a_h,
    );
}

/// `c[m, a_h] += scale · a[m, k] · W_g[0..a_h, 0..k]ᵀ`, where `W_g` is gate
/// block `gate` (rows `gate·h_full ..`) of the weight `panels` hold packed
/// as `Wᵀ`, read in place.
#[allow(clippy::too_many_arguments)]
fn gate_gemm(
    panels: &PackedB,
    h_full: usize,
    gate: usize,
    a_h: usize,
    scale: f32,
    m: usize,
    k: usize,
    a: &[f32],
    c: &mut [f32],
) {
    let row0 = gate * h_full;
    gemm_packed_b(m, 0, k, row0, row0 + a_h, scale, a, k, panels, 1.0, c, a_h);
}

/// The input projection of every step of one part at once:
/// `z[g] = scale · X · W_x[g]ᵀ + bias[g]` for each gate's `[rows, a_h]` block
/// (`rows = T·B` of the part, `xt` time-major, `z` zeroed by the caller).
#[allow(clippy::too_many_arguments)]
fn project_inputs(
    panels: &PackedB,
    bias: &Tensor,
    h_full: usize,
    a_h: usize,
    scale: f32,
    rows: usize,
    d: usize,
    xt: &[f32],
    z: &mut [&mut [f32]],
) {
    for (gate, zg) in z.iter_mut().enumerate() {
        gate_gemm(panels, h_full, gate, a_h, scale, rows, d, xt, zg);
        add_bias_rows(zg, &bias.data()[gate * h_full..], a_h, a_h);
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
