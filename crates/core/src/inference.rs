//! Elastic inference: per-query width selection under a budget.
//!
//! The engine is deliberately stateless with respect to the network (it
//! borrows it per call), so one trained model can serve many concurrent
//! policies. Rate selection is Eq. 3, the measured [`CostModel`]'s
//! [`rate_within`](crate::cost::CostSurface::rate_within) at a FLOPs
//! budget; the §4.1 latency rule `n·t(r) ≤ T/2` is the same inversion of a
//! [`LatencyProfile`](crate::cost::LatencyProfile), which `ms-serving`'s
//! `SlaController` plans against.

use crate::cost::{CostModel, FlopsBudget};
use crate::slice_rate::SliceRate;
use ms_nn::layer::{Layer, Mode};
use ms_tensor::Tensor;

/// Elastic inference engine over a sliced network.
#[derive(Debug, Clone)]
pub struct ElasticEngine {
    cost: CostModel,
}

impl ElasticEngine {
    /// Creates an engine from a measured cost model.
    pub fn new(cost: CostModel) -> Self {
        ElasticEngine { cost }
    }

    /// The underlying cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Runs `net` at exactly `rate`, restoring full width afterwards — even
    /// when the forward pass panics (the restore rides an RAII guard).
    pub fn predict_at(&self, net: &mut dyn Layer, x: &Tensor, rate: SliceRate) -> Tensor {
        let guard = FullRateGuard::new(net, rate);
        guard.net.forward(x, Mode::Infer)
    }

    /// Selects the widest affordable subnet for a per-sample FLOPs budget
    /// and predicts; the base subnet when nothing fits (the serving layer
    /// decides whether to queue or shed instead). Returns the prediction and
    /// the rate used.
    pub fn predict_with_budget(
        &self,
        net: &mut dyn Layer,
        x: &Tensor,
        budget: FlopsBudget,
    ) -> (Tensor, SliceRate) {
        let rate = self
            .cost
            .rate_within(1, budget.0 as f64)
            .unwrap_or_else(|| self.cost.list().min());
        (self.predict_at(net, x, rate), rate)
    }

    /// Anytime prediction (§2.1 discussion): predictions at every candidate
    /// rate, cheapest first, so a caller can stop consuming whenever its
    /// deadline fires and keep the best prediction produced so far.
    pub fn anytime_predictions(&self, net: &mut dyn Layer, x: &Tensor) -> Vec<(SliceRate, Tensor)> {
        let rates: Vec<SliceRate> = self.cost.list().iter().collect();
        let mut out = Vec::with_capacity(rates.len());
        for r in rates {
            out.push((r, self.predict_at(net, x, r)));
        }
        out
    }
}

/// RAII guard that pins a network at a slice rate for the duration of a
/// forward pass and restores full width on drop — **including when the pass
/// panics**. Without it, a caught panic (e.g. a poisoned batch behind
/// `catch_unwind`) would leave the shared network sliced, silently truncating
/// every subsequent full-width caller.
struct FullRateGuard<'a> {
    net: &'a mut dyn Layer,
}

impl<'a> FullRateGuard<'a> {
    fn new(net: &'a mut dyn Layer, rate: SliceRate) -> Self {
        net.set_slice_rate(rate);
        FullRateGuard { net }
    }
}

impl Drop for FullRateGuard<'_> {
    fn drop(&mut self) {
        self.net.set_slice_rate(SliceRate::FULL);
    }
}

/// Runs one forward pass over a whole group of same-shaped single-sample
/// inputs at `rate` — the serving engine's hot path: requests batched by
/// selected slice rate share one GEMM per layer instead of paying a
/// per-request pass each.
///
/// Each input is a *sample* tensor (e.g. `[d]` features or `[c, h, w]`
/// images); they are stacked into a `[n, …]` batch, run once, and the logits
/// are split back out per request. Row `i` of a fixed-order GEMM depends only
/// on row `i` of the input and the weights, so a request's logits are
/// bitwise-independent of its batch companions — the property the
/// cross-thread determinism guarantee rests on.
///
/// All intermediates come from the thread-local buffer pool and the batch
/// shape lives on the stack; in steady state (same `n`, same shapes) the
/// stack → forward → split cycle allocates nothing beyond the returned `Vec`
/// once callers [`Tensor::recycle`] the returned logits. Use
/// [`batched_sliced_forward_into`] with a reused buffer for a fully
/// allocation-free steady state.
///
/// The network is left at full width afterwards.
///
/// # Panics
/// If `inputs` is empty or the samples disagree on shape.
pub fn batched_sliced_forward(
    net: &mut dyn Layer,
    inputs: &[Tensor],
    rate: SliceRate,
) -> Vec<Tensor> {
    let mut out = Vec::with_capacity(inputs.len());
    batched_sliced_forward_into(net, inputs, rate, &mut out);
    out
}

/// [`batched_sliced_forward`] writing its per-request logits into a
/// caller-owned buffer (cleared first). With a warm buffer pool and a reused
/// `out` of sufficient capacity, a steady-state call performs **zero** heap
/// allocations regardless of batch size or tensor width — the property
/// `crates/core/tests/zero_alloc_batched.rs` pins with a counting allocator.
pub fn batched_sliced_forward_into(
    net: &mut dyn Layer,
    inputs: &[Tensor],
    rate: SliceRate,
    out: &mut Vec<Tensor>,
) {
    out.clear();
    let x = stack_inputs(inputs);
    // The guard — not a trailing statement — restores full width, so a
    // panicking forward (caught upstream) can't leave the net sliced. The
    // net borrows the batch (its first layer reads it in place): handing it
    // over recycles it a layer sooner, which is enough to move the glibc
    // heap step over a process's 16 MiB weights (DESIGN.md §8.2).
    let y = {
        let guard = FullRateGuard::new(net, rate);
        guard.net.forward(&x, Mode::Infer)
    };
    x.recycle();
    split_rows(&y, inputs.len(), out);
    y.recycle();
}

/// Refinement twin of [`batched_sliced_forward_into`]: runs the batch through
/// [`Layer::forward_prefix`], computing only the weight panels between `from`
/// and `to` and reusing each layer's cached prefix activations.
///
/// Call it first with `from = None` to establish the prefix at the base rate,
/// then with `from = Some(prev)` and the **same net and inputs** to refine
/// upward; each layer checks its cache watermark and panics on a stale or
/// mismatched resume. The refined logits are bitwise-identical to a direct
/// `from = None` pass at `to` — the anytime-inference contract
/// `tests/prefix_refine.rs` pins across layer types.
///
/// Shares the zero-alloc steady-state contract of its twin (warm pool +
/// reused `out` ⇒ no heap allocations), which
/// `crates/core/tests/zero_alloc_refine.rs` pins with a counting allocator.
/// The network is left at full width afterwards, panics included.
pub fn refine_batched_forward(
    net: &mut dyn Layer,
    inputs: &[Tensor],
    from: Option<SliceRate>,
    to: SliceRate,
    out: &mut Vec<Tensor>,
) {
    out.clear();
    let x = stack_inputs(inputs);
    let y = {
        let guard = FullRateGuard::new(net, to);
        guard.net.forward_prefix(&x, from, to)
    };
    x.recycle();
    split_rows(&y, inputs.len(), out);
    y.recycle();
}

/// Stacks same-shaped sample tensors into one pooled `[n, …]` batch.
///
/// # Panics
/// If `inputs` is empty or the samples disagree on shape (`ragged batch`).
fn stack_inputs(inputs: &[Tensor]) -> Tensor {
    assert!(!inputs.is_empty(), "empty batch");
    let sample = inputs[0].dims();
    let stride = inputs[0].numel();
    let mut batch_dims = [0usize; ms_tensor::shape::MAX_RANK];
    batch_dims[0] = inputs.len();
    batch_dims[1..=sample.len()].copy_from_slice(sample);
    // Each sample's rows are copied in: the zero fill would be overwritten.
    let mut x = Tensor::pooled_stale(&batch_dims[..=sample.len()]);
    for (i, input) in inputs.iter().enumerate() {
        assert_eq!(input.dims(), sample, "ragged batch at row {i}");
        x.data_mut()[i * stride..(i + 1) * stride].copy_from_slice(input.data());
    }
    x
}

/// Splits a `[n, …]` batch output into `n` pooled per-request rows.
fn split_rows(y: &Tensor, n: usize, out: &mut Vec<Tensor>) {
    let out_stride = y.numel() / n;
    for i in 0..n {
        let mut row = Tensor::pooled_stale(&y.dims()[1..]);
        row.data_mut()
            .copy_from_slice(&y.data()[i * out_stride..(i + 1) * out_stride]);
        out.push(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice_rate::SliceRateList;
    use ms_nn::linear::{Linear, LinearConfig};
    use ms_nn::sequential::Sequential;
    use ms_tensor::SeededRng;

    fn engine_and_net() -> (ElasticEngine, Sequential) {
        let mut rng = SeededRng::new(17);
        let mut net = Sequential::new("net")
            .push(Linear::new(
                "fc1",
                LinearConfig {
                    in_dim: 8,
                    out_dim: 16,
                    in_groups: None,
                    out_groups: Some(4),
                    bias: true,
                    input_rescale: true,
                },
                &mut rng,
            ))
            .push(Linear::new(
                "fc2",
                LinearConfig {
                    in_dim: 16,
                    out_dim: 4,
                    in_groups: Some(4),
                    out_groups: None,
                    bias: true,
                    input_rescale: true,
                },
                &mut rng,
            ));
        let cost = CostModel::measure(&mut net, SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]));
        (ElasticEngine::new(cost), net)
    }

    #[test]
    fn budget_prediction_uses_affordable_rate() {
        let (eng, mut net) = engine_and_net();
        let x = Tensor::zeros([2, 8]);
        let full = eng.cost().full_flops();
        let (y, r) = eng.predict_with_budget(&mut net, &x, FlopsBudget(full));
        assert!(r.is_full());
        assert_eq!(y.dims(), &[2, 4]);
        let half_cost = eng.cost().flops_at(SliceRate::new(0.5));
        let (_, r) = eng.predict_with_budget(&mut net, &x, FlopsBudget(half_cost));
        assert_eq!(r.get(), 0.5);
    }

    #[test]
    fn anytime_predictions_ascend_in_cost() {
        let (eng, mut net) = engine_and_net();
        let x = Tensor::zeros([1, 8]);
        let preds = eng.anytime_predictions(&mut net, &x);
        assert_eq!(preds.len(), 4);
        assert_eq!(preds[0].0.get(), 0.25);
        assert!(preds[3].0.is_full());
        for (_, y) in &preds {
            assert_eq!(y.dims(), &[1, 4]);
        }
    }

    #[test]
    fn predict_at_restores_full_width() {
        let (eng, mut net) = engine_and_net();
        let x = Tensor::zeros([1, 8]);
        let _ = eng.predict_at(&mut net, &x, SliceRate::new(0.25));
        assert_eq!(net.flops_per_sample(), (8 * 16 + 16 * 4) as u64);
    }

    #[test]
    fn batched_forward_matches_stacked_forward_bitwise() {
        let (_, mut net) = engine_and_net();
        let mut rng = SeededRng::new(41);
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| {
                Tensor::from_vec([8], (0..8).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap()
            })
            .collect();
        for &r in &[0.25f32, 0.5, 1.0] {
            let rate = SliceRate::new(r);
            let rows = batched_sliced_forward(&mut net, &inputs, rate);
            assert_eq!(rows.len(), 5);
            // Reference: one stacked forward through the same net.
            let mut x = Tensor::zeros([5, 8]);
            for (i, input) in inputs.iter().enumerate() {
                x.row_mut(i).copy_from_slice(input.data());
            }
            net.set_slice_rate(rate);
            let want = net.forward(&x, Mode::Infer);
            net.set_slice_rate(SliceRate::FULL);
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(row.dims(), &[4]);
                assert_eq!(row.data(), want.row(i), "rate {r} row {i}");
            }
        }
    }

    #[test]
    fn batched_forward_rows_are_independent_of_companions() {
        // A request's logits must not depend on which other requests share
        // its batch — the bitwise guarantee the engine's determinism test
        // builds on.
        let (_, mut net) = engine_and_net();
        let mut rng = SeededRng::new(42);
        let inputs: Vec<Tensor> = (0..6)
            .map(|_| {
                Tensor::from_vec([8], (0..8).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap()
            })
            .collect();
        let rate = SliceRate::new(0.5);
        let all = batched_sliced_forward(&mut net, &inputs, rate);
        let solo = batched_sliced_forward(&mut net, &inputs[2..3], rate);
        assert_eq!(all[2].data(), solo[0].data());
        let pair = batched_sliced_forward(&mut net, &inputs[4..6], rate);
        assert_eq!(all[4].data(), pair[0].data());
        assert_eq!(all[5].data(), pair[1].data());
    }

    #[test]
    #[should_panic(expected = "ragged batch")]
    fn batched_forward_rejects_ragged_inputs() {
        let (_, mut net) = engine_and_net();
        let inputs = vec![Tensor::zeros([8]), Tensor::zeros([4])];
        let _ = batched_sliced_forward(&mut net, &inputs, SliceRate::FULL);
    }

    /// A layer whose forward panics, recording every rate it is set to — the
    /// probe for the RAII restore guarantee.
    struct PanickyLayer {
        rates: std::rc::Rc<std::cell::RefCell<Vec<f32>>>,
    }

    impl Layer for PanickyLayer {
        fn forward(&mut self, _x: &Tensor, _m: Mode) -> Tensor {
            panic!("poisoned batch");
        }
        fn backward(&mut self, dy: &Tensor) -> Tensor {
            dy.clone()
        }
        fn visit_params(&mut self, _f: &mut dyn FnMut(&mut ms_nn::layer::Param)) {}
        fn set_slice_rate(&mut self, r: SliceRate) {
            self.rates.borrow_mut().push(r.get());
        }
        fn flops_per_sample(&self) -> u64 {
            1
        }
        fn name(&self) -> &str {
            "panicky"
        }
    }

    #[test]
    fn panicking_forward_still_restores_full_width() {
        // Regression: before the RAII guard, a panic between set_slice_rate
        // and the restore left the shared net sliced for the next caller.
        let rates = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut net = PanickyLayer {
            rates: rates.clone(),
        };
        let inputs = vec![Tensor::zeros([8])];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = Vec::new();
            batched_sliced_forward_into(&mut net, &inputs, SliceRate::new(0.5), &mut out);
        }));
        assert!(caught.is_err(), "forward should have panicked");
        // The last rate the net saw must be the full-width restore, not the
        // sliced rate the panicking pass ran at.
        assert_eq!(*rates.borrow(), vec![0.5, 1.0]);
    }

    #[test]
    fn refine_batched_forward_matches_direct_prefix_pass_bitwise() {
        let mut rng = SeededRng::new(43);
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| {
                Tensor::from_vec([8], (0..8).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap()
            })
            .collect();
        for &(r1, r2) in &[(0.25f32, 0.5f32), (0.25, 1.0), (0.5, 0.75)] {
            let (r1, r2) = (SliceRate::new(r1), SliceRate::new(r2));
            // Direct pass at r2 on a fresh net.
            let (_, mut direct) = engine_and_net();
            let mut want = Vec::new();
            refine_batched_forward(&mut direct, &inputs, None, r2, &mut want);
            // Base pass at r1, then refine to r2, on an identical net.
            let (_, mut refined) = engine_and_net();
            let mut rows = Vec::new();
            refine_batched_forward(&mut refined, &inputs, None, r1, &mut rows);
            refine_batched_forward(&mut refined, &inputs, Some(r1), r2, &mut rows);
            for (i, (w, g)) in want.iter().zip(&rows).enumerate() {
                assert_eq!(w.data(), g.data(), "refine {r1}→{r2} row {i}");
            }
            // The net ends restored at full width.
            assert_eq!(refined.flops_per_sample(), (8 * 16 + 16 * 4) as u64);
        }
    }
}
