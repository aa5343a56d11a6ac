//! Incremental-width evaluation — the computation-reuse consequence of the
//! group residual structure (paper §3.5, Eq. 9).
//!
//! For one dense layer with block structure
//!
//! ```text
//! [ ỹ_a ]   [ W_a  B ] [ x_a ]   [ W_a·x_a + B·x_b ]
//! [ y_b ] = [ C    D ] [ x_b ] = [ C·x_a  + D·x_b  ]
//! ```
//!
//! upgrading a cached `y_a = W_a·x_a` (width `a`) to the width-`b` output
//! needs only `B·x_b` and `[C D]·x` — the dominant `W_a·x_a` product is
//! reused. Within a single layer the upgrade is *exact*; across stacked
//! layers the paper's `ỹ_a ≈ y_a` approximation applies (each layer's
//! upgraded prefix feeds the next layer's cached path). Both the exact
//! single-layer form and the FLOPs accounting are implemented here; the
//! cascade-ranking application uses it to re-score survivors cheaply.
//!
//! Rescaled layers (`input_rescale = true`) change the scale of the shared
//! block between widths, breaking additivity, so incremental evaluation
//! applies to non-rescaled (GroupNorm-stabilised) layers.

use crate::slice_rate::SliceRate;
use ms_tensor::matmul::{gemm, Trans};
use ms_tensor::Tensor;

/// Result of an incremental upgrade.
#[derive(Debug, Clone)]
pub struct Upgrade {
    /// The width-`b` pre-activation `[batch, out_b]`.
    pub y: Tensor,
    /// MACs actually spent by the upgrade.
    pub flops_spent: u64,
    /// MACs a from-scratch width-`b` evaluation would have spent.
    pub flops_full: u64,
}

/// Incrementally evaluates a dense layer `weight: [N, M]` at widths
/// `(in_b, out_b)` given the cached width-`(in_a, out_a)` output `y_a`.
///
/// - `x`: the width-`b` input `[batch, in_b]` (its first `in_a` columns are
///   the width-`a` input).
/// - `y_a`: cached `[batch, out_a]` output of the narrow pass.
///
/// # Panics
/// If widths are not nested (`in_a ≤ in_b`, `out_a ≤ out_b`) or exceed the
/// weight dimensions.
pub fn upgrade_linear(
    weight: &Tensor,
    x: &Tensor,
    y_a: &Tensor,
    in_a: usize,
    in_b: usize,
    out_a: usize,
    out_b: usize,
) -> Upgrade {
    let dims = weight.dims();
    assert_eq!(dims.len(), 2);
    let (n, m) = (dims[0], dims[1]);
    assert!(
        in_a <= in_b && in_b <= m,
        "input widths {in_a} ≤ {in_b} ≤ {m}"
    );
    assert!(out_a <= out_b && out_b <= n, "output widths");
    let batch = x.numel() / in_b;
    assert_eq!(x.dims().last().copied(), Some(in_b));
    assert_eq!(y_a.numel(), batch * out_a);

    let mut y = Tensor::zeros([batch, out_b]);
    // Seed the top block with the cached narrow output.
    for s in 0..batch {
        y.row_mut(s)[..out_a].copy_from_slice(y_a.row(s));
    }
    // Top block residual: y[:, :out_a] += x[:, in_a..in_b] · Bᵀ where
    // B = W[0..out_a, in_a..in_b].
    let dx = in_b - in_a;
    if dx > 0 && out_a > 0 {
        // Strided A (x columns in_a..in_b) and strided C (y columns 0..out_a).
        for s in 0..batch {
            let xs = &x.row(s)[in_a..in_b];
            let ys = &mut y.row_mut(s)[..out_a];
            gemm(
                Trans::No,
                Trans::Yes,
                1,
                out_a,
                dx,
                1.0,
                xs,
                dx,
                &weight.data()[in_a..],
                m,
                1.0,
                ys,
                out_a,
            );
        }
    }
    // New rows: y[:, out_a..out_b] = x[:, :in_b] · W[out_a..out_b, :in_b]ᵀ.
    let new_rows = out_b - out_a;
    if new_rows > 0 {
        for s in 0..batch {
            let ys = &mut y.row_mut(s)[out_a..out_b];
            gemm(
                Trans::No,
                Trans::Yes,
                1,
                new_rows,
                in_b,
                1.0,
                x.row(s),
                in_b,
                &weight.data()[out_a * m..],
                m,
                1.0,
                ys,
                new_rows,
            );
        }
    }

    let flops_spent = (batch * (out_a * dx + new_rows * in_b)) as u64;
    let flops_full = (batch * out_b * in_b) as u64;
    Upgrade {
        y,
        flops_spent,
        flops_full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_tensor::SeededRng;

    fn random(rng: &mut SeededRng, dims: [usize; 2]) -> Tensor {
        let n = dims[0] * dims[1];
        Tensor::from_vec(dims, (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap()
    }

    /// Plain full-width reference: y = x · W[0..out, 0..in]ᵀ.
    fn reference(weight: &Tensor, x: &Tensor, in_w: usize, out_w: usize) -> Tensor {
        let m = weight.dims()[1];
        let batch = x.numel() / in_w;
        let mut y = Tensor::zeros([batch, out_w]);
        gemm(
            Trans::No,
            Trans::Yes,
            batch,
            out_w,
            in_w,
            1.0,
            x.data(),
            in_w,
            weight.data(),
            m,
            0.0,
            y.data_mut(),
            out_w,
        );
        y
    }

    #[test]
    fn upgrade_is_exact_for_single_layer() {
        let mut rng = SeededRng::new(1);
        let w = random(&mut rng, [8, 6]);
        let x = random(&mut rng, [3, 6]); // width-b input, in_b = 6
        let (in_a, in_b, out_a, out_b) = (3usize, 6usize, 4usize, 8usize);
        // Narrow pass on the prefix columns.
        let mut x_a = Tensor::zeros([3, in_a]);
        for s in 0..3 {
            x_a.row_mut(s).copy_from_slice(&x.row(s)[..in_a]);
        }
        let y_a = reference(&w, &x_a, in_a, out_a);
        let up = upgrade_linear(&w, &x, &y_a, in_a, in_b, out_a, out_b);
        let want = reference(&w, &x, in_b, out_b);
        for (a, b) in up.y.data().iter().zip(want.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn upgrade_saves_flops() {
        let mut rng = SeededRng::new(2);
        let w = random(&mut rng, [16, 16]);
        let x = random(&mut rng, [1, 16]);
        let mut x_a = Tensor::zeros([1, 8]);
        x_a.row_mut(0).copy_from_slice(&x.row(0)[..8]);
        let y_a = reference(&w, &x_a, 8, 8);
        let up = upgrade_linear(&w, &x, &y_a, 8, 16, 8, 16);
        assert!(up.flops_spent < up.flops_full, "{up:?}");
        // Spent = out_a·dx + new·in_b = 8·8 + 8·16 = 192 < 256.
        assert_eq!(up.flops_spent, 192);
        assert_eq!(up.flops_full, 256);
    }

    #[test]
    fn degenerate_same_width_is_free() {
        let mut rng = SeededRng::new(3);
        let w = random(&mut rng, [4, 4]);
        let x = random(&mut rng, [2, 4]);
        let y_a = reference(&w, &x, 4, 4);
        let up = upgrade_linear(&w, &x, &y_a, 4, 4, 4, 4);
        assert_eq!(up.flops_spent, 0);
        for (a, b) in up.y.data().iter().zip(y_a.data()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "input widths")]
    fn rejects_non_nested_widths() {
        let w = Tensor::zeros([4, 4]);
        let x = Tensor::zeros([1, 2]);
        let y_a = Tensor::zeros([1, 2]);
        let _ = upgrade_linear(&w, &x, &y_a, 3, 2, 2, 2);
    }
}

/// A stack of dense layers (ReLU between them) evaluated incrementally
/// across widths — the *multi-layer* form of Eq. 9 with the paper's
/// `ỹ_a ≈ y_a` approximation: each layer reuses its cached narrow
/// pre-activation for the shared block and computes only the `B·x_b` /
/// `[C D]·x` terms. Exact for the first layer; downstream layers incur the
/// approximation error, which §3.5 argues (and §5.5.1 visualises) is small
/// for trained networks because later groups learn *residual* corrections.
pub struct IncrementalStack {
    /// Full weight matrices `[N_l, M_l]`, layer order.
    weights: Vec<Tensor>,
    /// Full bias vectors `[N_l]`.
    biases: Vec<Tensor>,
}

/// Cached per-layer state of a narrow pass.
pub struct StackCache {
    /// Widths `(in, out)` used per layer.
    widths: Vec<(usize, usize)>,
    /// Per-layer *pre-activation* outputs at the narrow width `[batch, out]`.
    preacts: Vec<Tensor>,
}

/// Outcome of a stack evaluation or upgrade.
pub struct StackResult {
    /// Final post-activation output (no activation after the last layer).
    pub y: Tensor,
    /// MACs spent.
    pub flops_spent: u64,
    /// MACs a from-scratch pass at the target widths would spend.
    pub flops_full: u64,
    /// Cache for a further upgrade.
    pub cache: StackCache,
}

fn relu(t: &Tensor) -> Tensor {
    t.map(|v| if v > 0.0 { v } else { 0.0 })
}

impl IncrementalStack {
    /// Builds from `(weight, bias)` pairs. Consecutive full dimensions must
    /// chain: `weights[l+1].cols == weights[l].rows`.
    pub fn new(layers: Vec<(Tensor, Tensor)>) -> Self {
        assert!(!layers.is_empty());
        for w in layers.windows(2) {
            assert_eq!(
                w[1].0.dims()[1],
                w[0].0.dims()[0],
                "layer dimensions must chain"
            );
        }
        for (w, b) in &layers {
            assert_eq!(w.dims().len(), 2);
            assert_eq!(b.numel(), w.dims()[0]);
        }
        let (weights, biases) = layers.into_iter().unzip();
        IncrementalStack { weights, biases }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the stack is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Widths per layer at `rate` with `groups` groups: the input of layer 0
    /// is never sliced; the final output is never sliced (classifier).
    pub fn widths_at(&self, rate: SliceRate, groups: usize) -> Vec<(usize, usize)> {
        use ms_nn::slice::active_units;
        let n = self.len();
        (0..n)
            .map(|l| {
                let m = self.weights[l].dims()[1];
                let k = self.weights[l].dims()[0];
                let in_w = if l == 0 {
                    m
                } else {
                    active_units(m, groups, rate)
                };
                let out_w = if l == n - 1 {
                    k
                } else {
                    active_units(k, groups, rate)
                };
                (in_w, out_w)
            })
            .collect()
    }

    /// Evaluates the stack from scratch at the given per-layer widths.
    pub fn forward_at(&self, x: &Tensor, widths: &[(usize, usize)]) -> StackResult {
        assert_eq!(widths.len(), self.len());
        let batch = x.dims()[0];
        assert_eq!(x.dims()[1], widths[0].0, "input width");
        let mut flops = 0u64;
        let mut preacts = Vec::with_capacity(self.len());
        let mut cur = x.clone();
        for (l, &(in_w, out_w)) in widths.iter().enumerate() {
            assert_eq!(cur.dims()[1], in_w);
            let m = self.weights[l].dims()[1];
            let mut z = Tensor::zeros([batch, out_w]);
            gemm(
                Trans::No,
                Trans::Yes,
                batch,
                out_w,
                in_w,
                1.0,
                cur.data(),
                in_w,
                self.weights[l].data(),
                m,
                0.0,
                z.data_mut(),
                out_w,
            );
            for s in 0..batch {
                for (v, &bv) in z.row_mut(s).iter_mut().zip(self.biases[l].data()) {
                    *v += bv;
                }
            }
            flops += (batch * out_w * in_w) as u64;
            preacts.push(z.clone());
            cur = if l + 1 < self.len() { relu(&z) } else { z };
        }
        StackResult {
            y: cur,
            flops_spent: flops,
            flops_full: flops,
            cache: StackCache {
                widths: widths.to_vec(),
                preacts,
            },
        }
    }

    /// Upgrades a cached narrow pass to wider per-layer widths using the
    /// Eq.-9 block decomposition with `ỹ_a ≈ y_a` (pre-activation reuse).
    /// `x` must be the *wide* input (its prefix is the narrow input).
    pub fn upgrade(
        &self,
        x: &Tensor,
        cache: &StackCache,
        widths: &[(usize, usize)],
    ) -> StackResult {
        assert_eq!(widths.len(), self.len());
        let batch = x.dims()[0];
        let mut flops = 0u64;
        let mut flops_full = 0u64;
        let mut preacts = Vec::with_capacity(self.len());
        let mut cur = x.clone();
        for (l, &(in_b, out_b)) in widths.iter().enumerate() {
            let (in_a, out_a) = cache.widths[l];
            assert!(in_a <= in_b && out_a <= out_b, "widths must widen");
            let up = upgrade_linear(
                &self.weights[l],
                &cur,
                &cache.preacts[l],
                in_a,
                in_b,
                out_a,
                out_b,
            );
            let mut z = up.y;
            // New output entries need the bias (the cached prefix already
            // includes it).
            for s in 0..batch {
                for (k, v) in z.row_mut(s)[out_a..out_b].iter_mut().enumerate() {
                    *v += self.biases[l].data()[out_a + k];
                }
            }
            flops += up.flops_spent;
            flops_full += up.flops_full;
            preacts.push(z.clone());
            cur = if l + 1 < self.len() { relu(&z) } else { z };
        }
        StackResult {
            y: cur,
            flops_spent: flops,
            flops_full,
            cache: StackCache {
                widths: widths.to_vec(),
                preacts,
            },
        }
    }
}

#[cfg(test)]
mod stack_tests {
    use super::*;
    use ms_tensor::SeededRng;

    fn stack(dims: &[usize], rng: &mut SeededRng) -> IncrementalStack {
        let layers = dims
            .windows(2)
            .map(|w| {
                let (m, n) = (w[0], w[1]);
                (
                    ms_tensor::init::kaiming_normal([n, m], m, rng),
                    ms_tensor::init::uniform([n], 0.1, rng),
                )
            })
            .collect();
        IncrementalStack::new(layers)
    }

    fn widen_input(x_narrow: &Tensor, wide: usize, rng: &mut SeededRng) -> Tensor {
        let batch = x_narrow.dims()[0];
        let narrow = x_narrow.dims()[1];
        let mut x = Tensor::zeros([batch, wide]);
        for s in 0..batch {
            x.row_mut(s)[..narrow].copy_from_slice(x_narrow.row(s));
            for v in &mut x.row_mut(s)[narrow..] {
                *v = rng.uniform(-1.0, 1.0);
            }
        }
        x
    }

    #[test]
    fn single_layer_upgrade_is_exact() {
        let mut rng = SeededRng::new(1);
        let st = stack(&[6, 8], &mut rng);
        let x = ms_tensor::init::uniform([3, 6], 1.0, &mut rng);
        let narrow = st.forward_at(&x, &[(6, 4)]);
        let up = st.upgrade(&x, &narrow.cache, &[(6, 8)]);
        let want = st.forward_at(&x, &[(6, 8)]);
        for (a, b) in up.y.data().iter().zip(want.y.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert!(up.flops_spent < want.flops_spent);
    }

    #[test]
    fn multi_layer_upgrade_saves_flops_and_prefix_matches_cached() {
        let mut rng = SeededRng::new(2);
        let st = stack(&[8, 16, 16, 4], &mut rng);
        let x = ms_tensor::init::uniform([2, 8], 1.0, &mut rng);
        let narrow_widths = st.widths_at(SliceRate::new(0.5), 4);
        let wide_widths = st.widths_at(SliceRate::FULL, 4);
        let narrow = st.forward_at(&x, &narrow_widths);
        let up = st.upgrade(&x, &narrow.cache, &wide_widths);
        assert!(
            up.flops_spent < up.flops_full,
            "{} vs {}",
            up.flops_spent,
            up.flops_full
        );
        // The upgraded run produces the full output dimensionality.
        assert_eq!(up.y.dims(), &[2, 4]);
    }

    #[test]
    fn approximation_error_is_zero_when_residual_blocks_are_zero() {
        // If the off-diagonal blocks (B, C) and the new rows (D) are zero,
        // the approximation is exact at every depth: widening adds nothing.
        let mut rng = SeededRng::new(3);
        let mut st = stack(&[4, 8, 8, 3], &mut rng);
        for w in &mut st.weights[1..] {
            // Zero all columns beyond the narrow width and rows beyond the
            // narrow width, leaving only the W_a block.
            let (n, m) = (w.dims()[0], w.dims()[1]);
            for i in 0..n {
                for j in 0..m {
                    if i >= n / 2 || j >= m / 2 {
                        *w.at_mut(&[i, j]) = 0.0;
                    }
                }
            }
        }
        let x = ms_tensor::init::uniform([2, 4], 1.0, &mut rng);
        let narrow = st.forward_at(&x, &[(4, 4), (4, 4), (4, 3)]);
        let up = st.upgrade(&x, &narrow.cache, &[(4, 8), (8, 8), (8, 3)]);
        let want = st.forward_at(&x, &[(4, 8), (8, 8), (8, 3)]);
        for (a, b) in up.y.data().iter().zip(want.y.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn two_layer_error_is_bounded_and_localised() {
        // With a nonlinearity the multi-layer upgrade is approximate; the
        // error must stay bounded relative to the activations' scale (it is
        // the product of two residual blocks, not a blow-up).
        let mut rng = SeededRng::new(4);
        let st = stack(&[6, 12, 5], &mut rng);
        let x = ms_tensor::init::uniform([4, 6], 1.0, &mut rng);
        let narrow = st.forward_at(&x, &[(6, 6), (6, 5)]);
        let up = st.upgrade(&x, &narrow.cache, &[(6, 12), (12, 5)]);
        let want = st.forward_at(&x, &[(6, 12), (12, 5)]);
        let err: f32 =
            up.y.data()
                .iter()
                .zip(want.y.data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max);
        let scale = want.y.max_abs().max(1.0);
        assert!(err / scale < 1.5, "relative error {err} vs scale {scale}");
    }

    #[test]
    #[should_panic(expected = "layer dimensions must chain")]
    fn rejects_non_chaining_layers() {
        let mut rng = SeededRng::new(5);
        let _ = IncrementalStack::new(vec![
            (
                ms_tensor::init::kaiming_normal([4, 6], 6, &mut rng),
                Tensor::zeros([4]),
            ),
            (
                ms_tensor::init::kaiming_normal([3, 5], 5, &mut rng),
                Tensor::zeros([3]),
            ),
        ]);
    }

    #[test]
    fn widths_at_pins_input_and_output_layers() {
        let mut rng = SeededRng::new(6);
        let st = stack(&[10, 8, 8, 3], &mut rng);
        let w = st.widths_at(SliceRate::new(0.5), 4);
        assert_eq!(w[0], (10, 4)); // input stays 10
        assert_eq!(w[2], (4, 3)); // classes stay 3
        let _ = widen_input(&Tensor::zeros([1, 4]), 8, &mut rng); // helper exercised
    }
}
