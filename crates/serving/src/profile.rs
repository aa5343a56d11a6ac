//! Per-rate latency profiles.
//!
//! A [`LatencyProfile`] holds seconds-per-sample figures at every candidate
//! rate, which the SLA controller plans against. Live serving measures them:
//! at startup the engine times the *actual* sliced network at every rate
//! (Eq. 3 with measured coefficients instead of the analytic `r²`). A replay
//! on the virtual clock may instead assume a law: [`LatencyProfile::quadratic`]
//! is Eq. 3 itself, the deterministic profile of the §4.1 comparison, the
//! tests and the property suite that checks the controller against the
//! Eq. 3 bound.

use ms_core::inference::batched_sliced_forward;
use ms_core::slice_rate::{SliceRate, SliceRateList};
use ms_nn::layer::Layer;
use ms_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Per-rate service-time model: `predict(n, r) = overhead + n · per_sample[r]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyProfile {
    list: SliceRateList,
    /// Seconds per sample at each candidate rate (ascending with the list,
    /// made monotone non-decreasing at construction).
    per_sample: Vec<f64>,
    /// Fixed per-batch overhead in seconds (dispatch, stacking, splitting).
    overhead: f64,
}

impl LatencyProfile {
    /// Builds a profile from explicit measurements; `per_sample[i]`
    /// corresponds to `list.at(i)`. Values are clamped monotone
    /// non-decreasing in rate (a narrower subnet is never planned as slower
    /// than a wider one — measurement noise on tiny networks can otherwise
    /// invert neighbours and break the controller's monotonicity contract).
    pub fn new(list: SliceRateList, per_sample: Vec<f64>, overhead: f64) -> Self {
        assert_eq!(list.len(), per_sample.len());
        assert!(per_sample.iter().all(|&t| t > 0.0), "non-positive time");
        assert!(overhead >= 0.0);
        let mut mono = per_sample;
        for i in 1..mono.len() {
            mono[i] = mono[i].max(mono[i - 1]);
        }
        LatencyProfile {
            list,
            per_sample: mono,
            overhead,
        }
    }

    /// The analytic quadratic law `t(r) = t_full · r²` — the deterministic
    /// stand-in for tests and property checks.
    pub fn quadratic(list: SliceRateList, t_full: f64) -> Self {
        let per_sample = list
            .iter()
            .map(|r| t_full * r.get() as f64 * r.get() as f64)
            .collect();
        LatencyProfile::new(list, per_sample, 0.0)
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
        LatencyProfile::new(list, per_sample, 0.0)
    }

    /// The candidate rate list.
    pub fn list(&self) -> &SliceRateList {
        &self.list
    }

    /// Seconds per sample at a candidate rate.
    pub fn per_sample(&self, r: SliceRate) -> f64 {
        let idx = self.list.index_of(r).expect("rate in candidate list");
        self.per_sample[idx]
    }

    /// Predicted service time for a batch of `n` at rate `r`.
    pub fn predict(&self, n: usize, r: SliceRate) -> f64 {
        self.overhead + n as f64 * self.per_sample(r)
    }

    /// The widest candidate rate whose predicted service time for `n`
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
        (room / self.per_sample(r) * (1.0 + 1e-12)).floor() as usize
    }

    /// Speed ratio full-rate vs base-rate — the elasticity the profile
    /// actually measured (≈ the paper's quadratic ratio for deep nets,
    /// flatter for nets dominated by unsliced input/output layers).
    pub fn elasticity(&self) -> f64 {
        self.per_sample.last().expect("nonempty") / self.per_sample[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list() -> SliceRateList {
        SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0])
    }

    #[test]
    fn quadratic_profile_matches_eq3() {
        let p = LatencyProfile::quadratic(list(), 1e-3);
        assert!((p.predict(100, SliceRate::new(0.5)) - 0.025).abs() < 1e-12);
        assert!((p.elasticity() - 16.0).abs() < 1e-9);
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

    #[test]
    fn calibration_rows_do_not_churn_the_pool() {
        use ms_nn::linear::{Linear, LinearConfig};
        use ms_tensor::{pool, SeededRng};
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
        use ms_nn::linear::{Linear, LinearConfig};
        use ms_nn::pool::GlobalAvgPool;
        use ms_nn::sequential::Sequential;
        use ms_tensor::SeededRng;
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
        assert!(p.elasticity() >= 1.0);
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
