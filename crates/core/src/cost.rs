//! The cost surface and its one inversion (paper Eq. 3).
//!
//! Eq. 3 picks the widest slice rate whose cost fits a FLOPs budget `C_t`;
//! §4.1 applies the same rule to a latency budget (`n·t(r) ≤ T/2`). Both
//! read one rate-keyed [`CostSurface`], in MACs ([`CostModel`], measured off
//! the network) or in seconds ([`LatencyProfile`], calibrated on the served
//! path or assumed). Cost is only roughly quadratic in `r` (input and output
//! layers do not slice), so the table is measured and
//! [`CostSurface::rate_within`] searches it rather than solving `r²`.

use crate::inference::batched_sliced_forward;
use crate::slice_rate::{SliceRate, SliceRateList};
use ms_nn::layer::Layer;
use ms_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::marker::PhantomData;
use std::time::Instant;

/// A per-sample computational budget in multiply–add operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlopsBudget(pub u64);

/// Unit of a [`CostModel`]: multiply–adds per sample.
#[derive(Debug, Clone, Copy)]
pub enum Macs {}

/// Unit of a [`LatencyProfile`]: seconds.
#[derive(Debug, Clone, Copy)]
pub enum Seconds {}

/// Per-sample MACs at every candidate rate (no per-batch overhead).
pub type CostModel = CostSurface<Macs>;

/// Seconds per sample at every candidate rate plus a per-batch overhead:
/// the service-time model the SLA controller plans against.
pub type LatencyProfile = CostSurface<Seconds>;

/// One rate-keyed cost table in unit `U`:
/// `predict(n, r) = overhead + n · per_sample[r]`. The unit keeps a MACs
/// table from the latency controller and a seconds table from the elastic
/// engine.
///
/// Its two readings agree one way: whenever [`rate_within`](Self::rate_within)`(n, b)`
/// picks `r`, [`max_batch`](Self::max_batch)`(r, b) ≥ n`, so a batch the
/// controller sized by one never overfills the capacity the engine reads
/// off the other. The converse does not hold: `max_batch` adds a relative
/// `1e-12` so that `0.010 / 0.001` counts as 10, and so may admit a batch
/// whose `predict` overruns `b` by that much. The implication needs the
/// overhead within about 10³ batch costs: `overhead + n·per_sample` rounds
/// to the overhead's ulp, and `max_batch` subtracts it again.
#[derive(Debug, Clone)]
pub struct CostSurface<U> {
    list: SliceRateList,
    /// Cost per sample at each candidate rate (ascending with the list,
    /// made monotone non-decreasing at construction).
    per_sample: Vec<f64>,
    /// Fixed cost per batch (dispatch, stacking, splitting).
    overhead: f64,
    unit: PhantomData<U>,
}

impl<U> CostSurface<U> {
    /// Builds a surface from explicit figures; `per_sample[i]` corresponds
    /// to `list.at(i)`. Values are clamped monotone non-decreasing in rate
    /// (a narrower subnet is never planned as dearer than a wider one —
    /// measurement noise on tiny networks can otherwise invert neighbours
    /// and break the controller's monotonicity contract).
    pub fn new(list: SliceRateList, per_sample: Vec<f64>, overhead: f64) -> Self {
        assert_eq!(list.len(), per_sample.len());
        assert!(per_sample.iter().all(|&t| t > 0.0), "non-positive cost");
        assert!(overhead >= 0.0);
        let mut mono = per_sample;
        for i in 1..mono.len() {
            mono[i] = mono[i].max(mono[i - 1]);
        }
        CostSurface {
            list,
            per_sample: mono,
            overhead,
            unit: PhantomData,
        }
    }

    /// The candidate rate list.
    pub fn list(&self) -> &SliceRateList {
        &self.list
    }

    fn at(&self, r: SliceRate) -> f64 {
        let idx = self.list.index_of(r).expect("rate in candidate list");
        self.per_sample[idx]
    }

    /// Predicted cost of a batch of `n` at rate `r`.
    pub fn predict(&self, n: usize, r: SliceRate) -> f64 {
        self.overhead + n as f64 * self.at(r)
    }

    /// Eq. 3: the widest candidate rate whose predicted cost for `n`
    /// samples fits `budget`, or `None` if even the base rate overruns.
    pub fn rate_within(&self, n: usize, budget: f64) -> Option<SliceRate> {
        let mut best = None;
        for r in self.list.iter() {
            if self.predict(n, r) <= budget {
                best = Some(r);
            }
        }
        best
    }

    /// The largest batch size serviceable at `r` within `budget`.
    pub fn max_batch(&self, r: SliceRate, budget: f64) -> usize {
        let room = budget - self.overhead;
        if room <= 0.0 {
            return 0;
        }
        // Relative epsilon: `0.010 / 0.001` computes as 9.999…, which must
        // still count as a capacity of 10.
        (room / self.at(r) * (1.0 + 1e-12)).floor() as usize
    }
}

impl CostSurface<Macs> {
    /// Probes `net`'s `flops_per_sample()` at every rate in `list`. The
    /// network is left at full width afterwards.
    pub fn measure(net: &mut dyn Layer, list: SliceRateList) -> Self {
        let mut flops = Vec::with_capacity(list.len());
        for r in list.iter() {
            net.set_slice_rate(r);
            flops.push(net.flops_per_sample() as f64);
        }
        net.set_slice_rate(SliceRate::FULL);
        CostSurface::new(list, flops, 0.0)
    }

    /// Per-sample MACs at a candidate rate (exact below 2⁵³).
    ///
    /// # Panics
    /// If `r` is not in the list.
    pub fn flops_at(&self, r: SliceRate) -> u64 {
        self.at(r) as u64
    }

    /// Full-network cost `C0` (per-sample MACs).
    pub fn full_flops(&self) -> u64 {
        self.flops_at(self.list.max())
    }
}

impl CostSurface<Seconds> {
    /// The analytic quadratic law `t(r) = t_full · r²` — the deterministic
    /// stand-in for tests and property checks.
    pub fn quadratic(list: SliceRateList, t_full: f64) -> Self {
        let per_sample = list
            .iter()
            .map(|r| t_full * r.get() as f64 * r.get() as f64)
            .collect();
        CostSurface::new(list, per_sample, 0.0)
    }

    /// Seconds per sample at a candidate rate.
    pub fn per_sample(&self, r: SliceRate) -> f64 {
        self.at(r)
    }

    /// Measures the profile on the live network: for every candidate rate,
    /// runs `reps` batched forward passes of `probe_batch` samples shaped
    /// `sample_dims` and keeps the fastest (least-interfered) run. The first
    /// pass per rate is a discarded warm-up that also populates the buffer
    /// pool and layer workspaces, so the kept timings reflect the
    /// zero-allocation steady state the engine runs in.
    ///
    /// The engine serves its convs and recurrent layers off packed weight
    /// panels ([`Layer::prepack`], which `Engine::start` calls on every
    /// replica; a `Linear` has none, it reads its weight in place), so that
    /// is the path timed here: `net` is packed for the duration. Panels this
    /// call had to pack are released again before it returns — a prototype
    /// that is only calibrated and then dropped or used for training should
    /// not keep a second copy of its weights alive; a net that arrived
    /// packed stays so.
    pub fn calibrate(
        net: &mut dyn Layer,
        list: SliceRateList,
        sample_dims: &[usize],
        probe_batch: usize,
        reps: usize,
    ) -> Self {
        assert!(probe_batch > 0 && reps > 0);
        let inputs: Vec<Tensor> = (0..probe_batch)
            .map(|_| Tensor::zeros(sample_dims))
            .collect();
        let packed_here = net.prepack();
        let mut per_sample = Vec::with_capacity(list.len());
        for r in list.iter() {
            // The per-request rows are dropped, not recycled: a serving
            // worker's leave with its responses, and a probe batch larger
            // than the pool would evict once per row.
            drop(batched_sliced_forward(net, &inputs, r)); // warm-up pass
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                let outs = batched_sliced_forward(net, &inputs, r);
                best = best.min(t0.elapsed().as_secs_f64());
                drop(outs);
            }
            per_sample.push((best / probe_batch as f64).max(1e-9));
        }
        if packed_here {
            net.release_panels();
        }
        CostSurface::new(list, per_sample, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_nn::layer::Mode;
    use ms_nn::linear::{Linear, LinearConfig};
    use ms_nn::sequential::Sequential;
    use ms_tensor::SeededRng;
    use proptest::prelude::*;

    fn list() -> SliceRateList {
        SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0])
    }

    fn sliced_net() -> Sequential {
        let mut rng = SeededRng::new(9);
        Sequential::new("net")
            .push(Linear::new(
                "fc1",
                LinearConfig {
                    in_dim: 16,
                    out_dim: 32,
                    in_groups: None,
                    out_groups: Some(4),
                    bias: false,
                    input_rescale: true,
                },
                &mut rng,
            ))
            .push(Linear::new(
                "fc2",
                LinearConfig {
                    in_dim: 32,
                    out_dim: 32,
                    in_groups: Some(4),
                    out_groups: Some(4),
                    bias: false,
                    input_rescale: true,
                },
                &mut rng,
            ))
    }

    fn model() -> CostModel {
        CostModel::measure(&mut sliced_net(), list())
    }

    #[test]
    fn measurement_restores_full_width() {
        let mut net = sliced_net();
        let _ = CostModel::measure(&mut net, list());
        let y = net.forward(&Tensor::zeros([1, 16]), Mode::Infer);
        assert_eq!(y.dims(), &[1, 32]);
    }

    #[test]
    fn cost_is_monotone_and_roughly_quadratic() {
        let m = model();
        let c0 = m.full_flops() as f64;
        let c_half = m.flops_at(SliceRate::new(0.5)) as f64;
        // fc1 slices only its output (linear in r), fc2 both sides
        // (quadratic); overall between linear and quadratic.
        assert!(c_half / c0 > 0.25 - 1e-9 && c_half / c0 < 0.5 + 1e-9);
        let mut prev = 0;
        for r in m.list().iter() {
            let f = m.flops_at(r);
            assert!(f > prev);
            prev = f;
        }
    }

    #[test]
    fn budget_solver_picks_largest_affordable() {
        let m = model();
        let full = m.full_flops() as f64;
        assert!(m.rate_within(1, full).unwrap().is_full());
        let half_cost = m.flops_at(SliceRate::new(0.5)) as f64;
        assert_eq!(m.rate_within(1, half_cost).unwrap().get(), 0.5);
        assert_eq!(m.rate_within(1, half_cost - 1.0).unwrap().get(), 0.25);
        // Starvation budget: nothing fits.
        assert!(m.rate_within(1, 1.0).is_none());
    }

    #[test]
    fn quadratic_profile_matches_eq3() {
        let p = LatencyProfile::quadratic(list(), 1e-3);
        assert!((p.predict(100, SliceRate::new(0.5)) - 0.025).abs() < 1e-12);
        // 100 queries, 25ms budget → r² ≤ 0.25 → r = 0.5.
        assert_eq!(p.rate_within(100, 0.025).unwrap().get(), 0.5);
        // Loose budget → full width; impossible budget → None.
        assert!(p.rate_within(1, 1.0).unwrap().is_full());
        assert!(p.rate_within(10_000, 0.0001).is_none());
    }

    #[test]
    fn max_batch_inverts_predict() {
        let p = LatencyProfile::quadratic(list(), 1e-3);
        let r = SliceRate::new(0.25);
        let m = p.max_batch(r, 0.02);
        assert!(p.predict(m, r) <= 0.02 + 1e-12);
        assert!(p.predict(m + 1, r) > 0.02);
        assert_eq!(p.max_batch(r, 0.0), 0);
    }

    #[test]
    fn construction_enforces_monotone_per_sample() {
        // A noisy measurement where 0.5 came out "faster" than 0.25.
        let p = LatencyProfile::new(list(), vec![2e-3, 1e-3, 3e-3, 4e-3], 0.0);
        assert_eq!(p.per_sample(SliceRate::new(0.5)), 2e-3);
        assert_eq!(p.per_sample(SliceRate::new(0.75)), 3e-3);
    }

    #[test]
    fn overhead_counts_once_per_batch() {
        let p = LatencyProfile::new(list(), vec![1e-3; 4], 5e-3);
        assert!((p.predict(10, SliceRate::FULL) - 0.015).abs() < 1e-12);
        assert_eq!(p.max_batch(SliceRate::FULL, 0.015), 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The two readings of one surface: a batch of `n` that
        /// `rate_within` fits at `r` is within `max_batch(r, ·)`, at the
        /// exact fit of some rate, one ulp either side of it, and a budget
        /// scaled off it. The table over four rates is a log-uniform base
        /// cost (`1e-9` to `1e9`: seconds or MACs per sample) times
        /// non-decreasing steps, and the overhead 0 or up to 10³ base costs.
        #[test]
        fn a_fitted_rate_has_room_for_the_batch(
            exp in -9.0f64..9.0,
            steps in proptest::collection::vec(1.0f64..4.0, 3),
            overhead in proptest::sample::select(vec![0.0, 1.0]),
            over in 0.0f64..1e3,
            n in 1usize..=10_000,
            at in 0usize..4,
            scale in 0.5f64..2.0,
        ) {
            let mut per_sample = vec![10f64.powf(exp)];
            for s in steps {
                per_sample.push(per_sample[per_sample.len() - 1] * s);
            }
            let overhead = overhead * over * per_sample[0];
            let p = LatencyProfile::new(list(), per_sample, overhead);
            let exact = p.predict(n, p.list().at(at));
            let budgets = [
                exact,
                f64::from_bits(exact.to_bits() - 1),
                f64::from_bits(exact.to_bits() + 1),
                exact * scale,
            ];
            for b in budgets {
                if let Some(r) = p.rate_within(n, b) {
                    prop_assert!(
                        p.max_batch(r, b) >= n,
                        "rate_within({n}, {b:e}) = {r} but max_batch = {}",
                        p.max_batch(r, b)
                    );
                }
            }
        }
    }

    #[test]
    fn calibration_rows_do_not_churn_the_pool() {
        use ms_tensor::pool;
        let mut net = Linear::new(
            "fc",
            LinearConfig {
                in_dim: 4,
                out_dim: 8,
                in_groups: None,
                out_groups: Some(4),
                bias: true,
                input_rescale: true,
            },
            &mut SeededRng::new(3),
        );
        let before = pool::stats().evictions;
        // 256 rows per pass, four times the pool's capacity.
        let _ = LatencyProfile::calibrate(&mut net, list(), &[4], 256, 2);
        assert_eq!(pool::stats().evictions, before);
    }

    #[test]
    fn calibration_produces_a_usable_profile() {
        use ms_nn::conv2d::{Conv2d, Conv2dConfig};
        use ms_nn::pool::GlobalAvgPool;
        let mut rng = SeededRng::new(7);
        // A conv holds panels; the `Linear` reads its weight in place.
        let mut net = Sequential::new("net")
            .push(Conv2d::new(
                "conv",
                Conv2dConfig {
                    in_ch: 2,
                    out_ch: 16,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    h: 4,
                    w: 4,
                    in_groups: None,
                    out_groups: Some(4),
                    bias: true,
                },
                &mut rng,
            ))
            .push(GlobalAvgPool::new())
            .push(Linear::new(
                "fc",
                LinearConfig {
                    in_dim: 16,
                    out_dim: 8,
                    in_groups: Some(4),
                    out_groups: None,
                    bias: true,
                    input_rescale: true,
                },
                &mut rng,
            ));
        let p = LatencyProfile::calibrate(&mut net, list(), &[2, 4, 4], 16, 3);
        // Times are positive, monotone, and the base subnet is no slower
        // than the full one (exact ratios are machine-dependent).
        assert!(p.per_sample(SliceRate::new(0.25)) > 0.0);
        assert!(p.per_sample(SliceRate::FULL) >= p.per_sample(SliceRate::new(0.25)));
        assert!(p.predict(8, SliceRate::FULL) > p.predict(4, SliceRate::FULL));
        // The net arrived un-packed, so the panels calibration packed are
        // gone again; a net that arrives packed keeps them.
        assert!(net.prepack(), "calibration left its panels alive");
        let _ = LatencyProfile::calibrate(&mut net, list(), &[2, 4, 4], 16, 1);
        assert!(
            !net.prepack(),
            "calibration released panels it did not pack"
        );
    }
}
