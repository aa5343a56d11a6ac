//! Elementwise activations, row-wise softmax and small reductions.
//!
//! Sigmoid and tanh gradients are taken from the *forward output*, which is
//! what the layer caches store; the ReLU layer keeps a bit mask of its own
//! (`ms_nn::activation::Relu`).

use std::ops::Range;

/// ReLU forward, in place.
pub fn relu_inplace(x: &mut [f32]) {
    let _span = ms_telemetry::span!("ops.relu");
    for v in x {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

// Cephes-style `expf` constants: `LN2_HI` has nine significant bits, so
// `n · LN2_HI` is exact for every `|n| ≤ 128` and the two-step reduction
// `x − n·LN2_HI − n·LN2_LO` loses nothing without an FMA.
const LOG2_E: f32 = std::f32::consts::LOG2_E;
const LN2_HI: f32 = 0.693_359_4; // = 0.693359375 exactly
const LN2_LO: f32 = -2.121_944_4e-4;
/// `1.5 · 2²³`: adding it to `|v| < 2²²` rounds `v` to the nearest integer
/// and leaves that integer in the low mantissa bits of the sum.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `exp` argument bound: `e^±87` stays a normal `f32`.
const EXP_ARG_MAX: f32 = 87.0;

/// `eˣ` for `x` clamped to `[-87, 87]`: round-to-nearest range reduction and
/// a degree-6 polynomial, no branch, no table, no libm call — the loop over a
/// slab autovectorises. Relative error ≤ 2e-7 (< 2 ulp); NaN propagates.
///
/// Every gate activation of the recurrent layers is built on this one
/// kernel, in training and in inference alike, so the two modes agree bit
/// for bit and a model is served with the arithmetic it was trained with.
#[inline(always)]
fn exp_clamped(x: f32) -> f32 {
    let x = x.clamp(-EXP_ARG_MAX, EXP_ARG_MAX);
    let shifted = x * LOG2_E + ROUND_MAGIC;
    let n = shifted - ROUND_MAGIC;
    let r = x - n * LN2_HI - n * LN2_LO;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 0.5;
    let e = p * (r * r) + r + 1.0;
    // 2ⁿ assembled from the integer left in `shifted`'s mantissa. A NaN
    // input yields a garbage scale, but `e` is NaN then and stays NaN.
    let n_int = (shifted.to_bits() as i32).wrapping_sub(ROUND_MAGIC.to_bits() as i32);
    e * f32::from_bits((n_int.wrapping_add(127) << 23) as u32)
}

/// Logistic sigmoid `1 / (1 + e⁻ˣ)`, within 5e-7 absolute of the exact value
/// (worst seen on [−30, 30]: 9e-8); saturates to exactly 1 above and to `≈ 1.6e-38` below,
/// `sigmoid(0) == 0.5`, NaN propagates.
#[inline]
pub fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + exp_clamped(-v))
}

/// Hyperbolic tangent as `sign(x) · (1 − 2 / (e^{2|x|} + 1))`: exactly odd,
/// within 5e-7 absolute of the exact value (worst seen: 1.1e-7), saturating
/// to exactly ±1.
#[inline]
pub fn tanh(v: f32) -> f32 {
    let t = 1.0 - 2.0 / (exp_clamped(2.0 * v.abs()) + 1.0);
    t.copysign(v)
}

/// [`sigmoid`] over columns `on` of every `cols`-float row of `x`, in place
/// (a slab is one row): a step's gate blocks of gate-adjacent rows in one
/// call. Bitwise-equal to the scalar form.
pub fn sigmoid_cols(x: &mut [f32], cols: usize, on: Range<usize>) {
    let _span = ms_telemetry::span!("ops.gate_activation");
    map_cols(x, cols, on, sigmoid);
}

/// [`tanh`] over columns `on` of every `cols`-float row of `x`, in place,
/// like [`sigmoid_cols`].
pub fn tanh_cols(x: &mut [f32], cols: usize, on: Range<usize>) {
    let _span = ms_telemetry::span!("ops.gate_activation");
    map_cols(x, cols, on, tanh);
}

#[inline(always)]
fn map_cols(x: &mut [f32], cols: usize, on: Range<usize>, f: impl Fn(f32) -> f32) {
    debug_assert!(x.len().is_multiple_of(cols.max(1)) && on.end <= cols);
    for row in x.chunks_exact_mut(cols.max(1)) {
        for v in &mut row[on.clone()] {
            *v = f(*v);
        }
    }
}

/// Sigmoid derivative from the forward *output* `s`: `s * (1 - s)`.
#[inline]
pub fn sigmoid_grad_from_output(s: f32) -> f32 {
    s * (1.0 - s)
}

/// Tanh derivative from the forward *output* `t`: `1 - t²`.
#[inline]
pub fn tanh_grad_from_output(t: f32) -> f32 {
    1.0 - t * t
}

/// `Σ f(v)` over a row with eight independent partial sums: the lanes
/// vectorise (a sequential `f32` sum cannot) and the fixed reduction tree
/// keeps the result a pure function of the row.
#[inline(always)]
fn lane_sum(row: &[f32], f: impl Fn(f32) -> f32) -> f32 {
    let mut acc = [0.0f32; 8];
    let chunks = row.chunks_exact(8);
    let rest = chunks.remainder();
    for chunk in chunks {
        for l in 0..8 {
            acc[l] += f(chunk[l]);
        }
    }
    let sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    rest.iter().fold(sum, |s, &v| s + f(v))
}

fn row_max(row: &[f32]) -> f32 {
    row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v))
}

/// Row-wise softmax over a `rows × cols` row-major buffer, in place.
/// Max-subtraction for stability, then two vectorisable passes on the
/// branch-free `exp_clamped` of the gate activations: exponentiate, sum.
/// (A logit more than 87 below its row's maximum gets `e⁻⁸⁷ ≈ 1.6e-38`
/// rather than an exact 0.)
pub fn softmax_rows_inplace(x: &mut [f32], cols: usize) {
    debug_assert!(cols > 0 && x.len().is_multiple_of(cols));
    for row in x.chunks_exact_mut(cols) {
        let max = row_max(row);
        for v in row.iter_mut() {
            *v = exp_clamped(*v - max);
        }
        let inv = 1.0 / lane_sum(row, |e| e);
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Row-wise log-softmax, in place (the `exp` of [`softmax_rows_inplace`]).
pub fn log_softmax_rows_inplace(x: &mut [f32], cols: usize) {
    debug_assert!(cols > 0 && x.len().is_multiple_of(cols));
    for row in x.chunks_exact_mut(cols) {
        let max = row_max(row);
        let log_sum = lane_sum(row, |v| exp_clamped(v - max)).ln() + max;
        for v in row.iter_mut() {
            *v -= log_sum;
        }
    }
}

/// Index of the maximum element of a row (first on ties).
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in row.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Adds a bias vector to every row of a `rows × cols` buffer.
/// Only the first `active` bias components are used — the sliced path.
pub fn add_bias_rows(x: &mut [f32], bias: &[f32], cols: usize, active: usize) {
    debug_assert!(active <= cols && active <= bias.len());
    for row in x.chunks_exact_mut(cols) {
        for (v, &b) in row[..active].iter_mut().zip(&bias[..active]) {
            *v += b;
        }
    }
}

/// Sums of the columns `[first, first + out.len())` of a `rows × cols`
/// buffer into `out` (accumulating), rows in order: a bias gradient, or a
/// column range of one, each sum bit for bit what the whole-width call
/// gives.
pub fn sum_cols_into(x: &[f32], cols: usize, first: usize, out: &mut [f32]) {
    debug_assert!(x.len().is_multiple_of(cols) && first + out.len() <= cols);
    for row in x.chunks_exact(cols) {
        for (o, &v) in out.iter_mut().zip(&row[first..]) {
            *o += v;
        }
    }
}

/// [`lane_sum`] in `f64`: `Σ f(v)` over eight lanes, which vectorise (one
/// serial chain does not), then the lanes in order and the remainder — a
/// fixed order. (A pairwise tree over the lanes makes the compiler split the
/// accumulator into narrower vectors, a third slower.)
#[inline(always)]
fn lane_sum_f64(row: &[f32], f: impl Fn(f64) -> f64) -> f64 {
    let mut acc = [0.0f64; 8];
    let chunks = row.chunks_exact(8);
    let rest = chunks.remainder();
    for chunk in chunks {
        let chunk: &[f32; 8] = chunk.try_into().expect("8-wide chunk");
        for l in 0..8 {
            acc[l] += f(f64::from(chunk[l]));
        }
    }
    let sum: f64 = acc.iter().sum();
    rest.iter().fold(sum, |s, &v| s + f(f64::from(v)))
}

/// Mean and (population) variance of a slice from `f64` sums of `v` and
/// `v²`, each its own eight-lane pass over the (cache-resident) slice: one
/// pass computing both is paired lane by lane into two-wide vectors by the
/// compiler, at under half the speed. A pure function of the slice; `v²`
/// of an `f32` is exact in `f64`, so a build that fuses the square into the
/// add computes the same bits as one that does not.
pub fn mean_var(x: &[f32]) -> (f32, f32) {
    if x.is_empty() {
        return (0.0, 0.0);
    }
    let n = x.len() as f64;
    let (sum, sq) = (lane_sum_f64(x, |v| v), lane_sum_f64(x, |v| v * v));
    let mean = sum / n;
    let var = (sq / n - mean * mean).max(0.0);
    (mean as f32, var as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut x = vec![-1.0, 0.0, 2.0];
        relu_inplace(&mut x);
        assert_eq!(x, vec![0.0, 0.0, 2.0]);
    }

    /// Grid over [-30, 30] in steps of 2⁻¹⁰.
    fn grid() -> impl Iterator<Item = f32> {
        (-30 * 1024..=30 * 1024).map(|i| i as f32 / 1024.0)
    }

    #[test]
    fn sigmoid_and_tanh_track_the_f64_reference() {
        let (mut worst_s, mut worst_t) = (0.0f64, 0.0f64);
        for x in grid() {
            let xd = x as f64;
            worst_s = worst_s.max((sigmoid(x) as f64 - 1.0 / (1.0 + (-xd).exp())).abs());
            worst_t = worst_t.max((tanh(x) as f64 - xd.tanh()).abs());
        }
        assert!(worst_s <= 5e-7, "sigmoid off by {worst_s:e}");
        assert!(worst_t <= 5e-7, "tanh off by {worst_t:e}");
    }

    #[test]
    fn sigmoid_and_tanh_are_monotone_on_the_grid() {
        let (mut prev_s, mut prev_t) = (0.0f32, -1.0f32);
        for x in grid() {
            let (s, t) = (sigmoid(x), tanh(x));
            assert!(s >= prev_s, "sigmoid dips at {x}: {prev_s} → {s}");
            assert!(t >= prev_t, "tanh dips at {x}: {prev_t} → {t}");
            (prev_s, prev_t) = (s, t);
        }
    }

    #[test]
    fn sigmoid_and_tanh_fixed_points_and_saturation() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(tanh(0.0), 0.0);
        for x in [88.0f32, 1e30, f32::INFINITY] {
            assert_eq!(sigmoid(x), 1.0);
            assert_eq!(tanh(x), 1.0);
            assert_eq!(tanh(-x), -1.0);
            let low = sigmoid(-x);
            assert!((0.0..1e-37).contains(&low), "sigmoid({}) = {low:e}", -x);
        }
        assert!(sigmoid(f32::NAN).is_nan() && tanh(f32::NAN).is_nan());
        for x in grid() {
            assert_eq!(
                tanh(-x).to_bits(),
                (-tanh(x)).to_bits(),
                "tanh not odd at {x}"
            );
        }
        let s = sigmoid(0.3);
        assert!((sigmoid_grad_from_output(s) - s * (1.0 - s)).abs() < 1e-7);
    }

    #[test]
    fn slab_activations_equal_the_scalar_forms_bitwise() {
        let xs: Vec<f32> = grid()
            .step_by(7)
            .chain([f32::INFINITY, f32::NEG_INFINITY, 88.0, -88.0, 0.0, -0.0])
            .collect();
        let (mut s, mut t) = (xs.clone(), xs.clone());
        let n = xs.len();
        sigmoid_cols(&mut s, n, 0..n);
        tanh_cols(&mut t, n, 0..n);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(s[i].to_bits(), sigmoid(x).to_bits(), "sigmoid slab at {x}");
            assert_eq!(t[i].to_bits(), tanh(x).to_bits(), "tanh slab at {x}");
        }
        // Columns 2..5 of 7-float rows; the others untouched.
        let (mut s, mut t) = (xs.clone(), xs.clone());
        let rows = n / 7 * 7;
        sigmoid_cols(&mut s[..rows], 7, 2..5);
        tanh_cols(&mut t[..rows], 7, 2..5);
        for (i, &x) in xs.iter().enumerate() {
            let on = i < rows && (2..5).contains(&(i % 7));
            let (ws, wt) = if on { (sigmoid(x), tanh(x)) } else { (x, x) };
            assert_eq!(s[i].to_bits(), ws.to_bits(), "sigmoid column at {i}");
            assert_eq!(t[i].to_bits(), wt.to_bits(), "tanh column at {i}");
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut x = vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0];
        softmax_rows_inplace(&mut x, 3);
        let s0: f32 = x[..3].iter().sum();
        let s1: f32 = x[3..].iter().sum();
        assert!((s0 - 1.0).abs() < 1e-5);
        assert!((s1 - 1.0).abs() < 1e-5);
        assert!(x[2] > x[1] && x[1] > x[0]);
        assert!((x[3] - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let x0 = vec![0.5, -1.0, 2.0, 0.0];
        let mut ls = x0.clone();
        log_softmax_rows_inplace(&mut ls, 4);
        let mut sm = x0.clone();
        softmax_rows_inplace(&mut sm, 4);
        for (a, b) in ls.iter().zip(sm.iter()) {
            assert!((a.exp() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 0.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }

    #[test]
    fn bias_ops_respect_active_prefix() {
        let mut x = vec![0.0; 6]; // 2 rows x 3 cols
        add_bias_rows(&mut x, &[1.0, 2.0, 3.0], 3, 2);
        assert_eq!(x, vec![1.0, 2.0, 0.0, 1.0, 2.0, 0.0]);
        let mut out = vec![0.0; 3];
        sum_cols_into(&x, 3, 0, &mut out);
        assert_eq!(out, vec![2.0, 4.0, 0.0]);
    }

    #[test]
    fn mean_var_matches_definition() {
        let (m, v) = mean_var(&[1.0, 2.0, 3.0, 4.0]);
        assert!((m - 2.5).abs() < 1e-6);
        assert!((v - 1.25).abs() < 1e-6);
        assert_eq!(mean_var(&[]), (0.0, 0.0));
    }

    /// The single serial `f64` chain the eight-lane form replaced.
    fn mean_var_serial(x: &[f32]) -> (f32, f32) {
        let n = x.len() as f64;
        let (mut sum, mut sq) = (0.0f64, 0.0f64);
        for &v in x {
            sum += v as f64;
            sq += (v as f64) * (v as f64);
        }
        let mean = sum / n;
        (mean as f32, (sq / n - mean * mean).max(0.0) as f32)
    }

    /// Distance in units in the last place between two finite `f32`s of the
    /// same sign (or zero).
    fn ulps(a: f32, b: f32) -> u32 {
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs() as u32
    }

    /// Mean and variance stay within one ulp of the serial chain over the
    /// slab lengths GroupNorm sees (a group of 1…8 channels of 1×1 to 16×16
    /// planes, remainders included) and activation-like data: zero-centred,
    /// shifted by up to two standard deviations, scaled over six decades.
    #[test]
    fn mean_var_is_within_an_ulp_of_the_serial_chain() {
        let mut rng = crate::SeededRng::new(31);
        for case in 0..2000 {
            let len = 1 + rng.below(2048);
            let scale = 10f32.powi(rng.below(7) as i32 - 3);
            let shift = rng.uniform(-2.0, 2.0) * scale;
            let x: Vec<f32> = (0..len)
                .map(|_| rng.uniform(-1.7, 1.7) * scale + shift)
                .collect();
            let (m, v) = mean_var(&x);
            let (ms, vs) = mean_var_serial(&x);
            let close = |a: f32, b: f32| a == b || (a.signum() == b.signum() && ulps(a, b) <= 1);
            assert!(close(m, ms), "case {case}, len {len}: mean {m:e} vs {ms:e}");
            assert!(close(v, vs), "case {case}, len {len}: var {v:e} vs {vs:e}");
        }
    }
}
