//! The cost model and budget→rate solver (paper Eq. 3).
//!
//! Computation of a sliced network is roughly quadratic in the slice rate:
//! `C(r) ≈ r²·C0`, and Eq. 3 inverts this — `r ≤ min(√(C_t/C0), 1)`.
//! Because "roughly quadratic" is an approximation (input/output layers do
//! not slice), the model is *measured*: it probes the network's
//! `flops_per_sample()` at every candidate rate once at construction, and
//! the solver picks the largest candidate rate whose measured cost fits the
//! budget.

use crate::slice_rate::{SliceRate, SliceRateList};
use ms_nn::layer::Layer;
use serde::{Deserialize, Serialize};

/// A per-sample computational budget in multiply–add operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlopsBudget(pub u64);

/// Measured cost table of a sliced network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    list: SliceRateList,
    /// Per-sample MACs at each candidate rate (ascending with the list).
    flops: Vec<u64>,
    /// Active parameter counts at each candidate rate.
    params: Vec<u64>,
}

impl CostModel {
    /// Probes `net` at every rate in `list`. The network is left at full
    /// width afterwards.
    pub fn measure(net: &mut dyn Layer, list: SliceRateList) -> Self {
        let mut flops = Vec::with_capacity(list.len());
        let mut params = Vec::with_capacity(list.len());
        for r in list.iter() {
            net.set_slice_rate(r);
            flops.push(net.flops_per_sample());
            params.push(net.active_param_count());
        }
        net.set_slice_rate(SliceRate::FULL);
        CostModel {
            list,
            flops,
            params,
        }
    }

    /// The candidate rate list.
    pub fn list(&self) -> &SliceRateList {
        &self.list
    }

    /// Full-network cost `C0` (per-sample MACs).
    pub fn full_flops(&self) -> u64 {
        *self.flops.last().expect("nonempty list")
    }

    /// Measured per-sample MACs at a candidate rate.
    ///
    /// # Panics
    /// If `r` is not in the list.
    pub fn flops_at(&self, r: SliceRate) -> u64 {
        let idx = self.list.index_of(r).expect("rate not in candidate list");
        self.flops[idx]
    }

    /// Active parameter count at a candidate rate.
    pub fn params_at(&self, r: SliceRate) -> u64 {
        let idx = self.list.index_of(r).expect("rate not in candidate list");
        self.params[idx]
    }

    /// Remaining fraction of computation at `r` (the `Ct` rows of
    /// Tables 2 and 4).
    pub fn remaining_fraction(&self, r: SliceRate) -> f64 {
        self.flops_at(r) as f64 / self.full_flops() as f64
    }

    /// Measured-table solver: the largest candidate rate whose *measured*
    /// cost fits the budget. Falls back to the base network when nothing
    /// fits (the serving layer decides whether to queue or shed instead).
    pub fn rate_for_budget(&self, budget: FlopsBudget) -> SliceRate {
        let mut best = self.list.min();
        for (i, r) in self.list.iter().enumerate() {
            if self.flops[i] <= budget.0 {
                best = r;
            }
        }
        best
    }

    /// Whether even the base network exceeds the budget.
    pub fn budget_infeasible(&self, budget: FlopsBudget) -> bool {
        self.flops[0] > budget.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_nn::layer::Mode;
    use ms_nn::linear::{Linear, LinearConfig};
    use ms_nn::sequential::Sequential;
    use ms_tensor::SeededRng;

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
        let mut net = sliced_net();
        CostModel::measure(&mut net, SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]))
    }

    #[test]
    fn measurement_restores_full_width() {
        let mut net = sliced_net();
        let _ = CostModel::measure(&mut net, SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]));
        let y = net.forward(&ms_tensor::Tensor::zeros([1, 16]), Mode::Infer);
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
        let full = m.full_flops();
        assert!(m.rate_for_budget(FlopsBudget(full)).is_full());
        let half_cost = m.flops_at(SliceRate::new(0.5));
        assert_eq!(m.rate_for_budget(FlopsBudget(half_cost)).get(), 0.5);
        assert_eq!(m.rate_for_budget(FlopsBudget(half_cost - 1)).get(), 0.25);
        // Starvation budget: base network + infeasibility flag.
        assert_eq!(m.rate_for_budget(FlopsBudget(1)).get(), 0.25);
        assert!(m.budget_infeasible(FlopsBudget(1)));
        assert!(!m.budget_infeasible(FlopsBudget(full)));
    }

    #[test]
    fn params_shrink_with_rate() {
        let m = model();
        assert!(
            m.params_at(SliceRate::new(0.25)) < m.params_at(SliceRate::new(1.0)),
            "sliced deployment must store fewer parameters"
        );
        assert!(m.remaining_fraction(SliceRate::new(0.25)) < 0.3);
    }
}
