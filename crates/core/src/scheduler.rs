//! Slice-rate scheduling schemes (paper §3.4, evaluated in Table 1).
//!
//! Each training iteration draws a list `L_t` of slice rates; Algorithm 1
//! then runs one forward/backward per rate. Three families are provided:
//!
//! - **Random** — `k` draws per iteration from a categorical distribution
//!   over the rate list: uniform, explicitly weighted, or the Eq.-8
//!   discretisation of a continuous distribution (each candidate rate gets
//!   the probability mass of its half-open neighbourhood under the CDF).
//! - **Static** — every candidate rate, every iteration (SlimmableNet's
//!   scheme; compute grows linearly with the list length).
//! - **Random-static** — the important subnets (base and/or full network)
//!   are always scheduled and one more is drawn uniformly from the rest:
//!   `R-min`, `R-max`, `R-min-max`. Table 1 finds `R-min-max` and weighted
//!   random the best performers, reflecting that the base and full network
//!   matter most.

use crate::slice_rate::{SliceRate, SliceRateList};
use ms_tensor::SeededRng;
use serde::{Deserialize, Serialize};

/// A continuous distribution over rates, discretised per Eq. 8.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ContinuousDist {
    /// Uniform over `[lo, hi]`.
    Uniform {
        /// Lower support.
        lo: f32,
        /// Upper support.
        hi: f32,
    },
    /// Normal with the given mean and standard deviation.
    Normal {
        /// Mean.
        mean: f32,
        /// Standard deviation (> 0).
        std: f32,
    },
}

impl ContinuousDist {
    /// Cumulative distribution function.
    fn cdf(&self, x: f32) -> f64 {
        match *self {
            ContinuousDist::Uniform { lo, hi } => {
                if x <= lo {
                    0.0
                } else if x >= hi {
                    1.0
                } else {
                    ((x - lo) / (hi - lo)) as f64
                }
            }
            ContinuousDist::Normal { mean, std } => {
                let z = ((x - mean) / (std * std::f32::consts::SQRT_2)) as f64;
                0.5 * (1.0 + erf(z))
            }
        }
    }
}

/// Abramowitz–Stegun 7.1.26 rational approximation of erf (|ε| < 1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Discretises a continuous distribution onto an ordered rate list (Eq. 8):
/// `p(r_i)` is the CDF mass between the midpoints of `r_i`'s neighbours,
/// with the end rates absorbing the tails.
fn discretize(dist: &ContinuousDist, list: &SliceRateList) -> Vec<f64> {
    let r = list.rates();
    let g = r.len();
    if g == 1 {
        return vec![1.0];
    }
    let mut p = Vec::with_capacity(g);
    for i in 0..g {
        let hi = if i + 1 < g {
            dist.cdf((r[i] + r[i + 1]) / 2.0)
        } else {
            1.0
        };
        let lo = if i > 0 {
            dist.cdf((r[i - 1] + r[i]) / 2.0)
        } else {
            0.0
        };
        p.push((hi - lo).max(0.0));
    }
    let total: f64 = p.iter().sum();
    if total > 0.0 {
        for v in &mut p {
            *v /= total;
        }
    } else {
        // Degenerate distribution entirely outside the list's span: fall
        // back to uniform.
        p.iter_mut().for_each(|v| *v = 1.0 / g as f64);
    }
    p
}

/// The scheduling scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Always the same single rate: conventional (non-sliced) training when
    /// the rate is 1.0, or an individually-trained narrow model otherwise.
    Fixed(f32),
    /// Every candidate rate every iteration (SlimmableNet-style).
    Static,
    /// `k` distinct uniform draws per iteration (`R-uniform-k`).
    RandomUniform {
        /// Rates per iteration.
        k: usize,
    },
    /// `k` distinct draws from explicit probabilities (`R-weighted-k`);
    /// `weights` aligns with the ascending rate list.
    RandomWeighted {
        /// Unnormalised sampling weights, ascending-rate order.
        weights: Vec<f64>,
        /// Rates per iteration.
        k: usize,
    },
    /// `k` distinct draws from an Eq.-8 discretised continuous distribution.
    RandomDistribution {
        /// The continuous distribution to discretise.
        dist: ContinuousDist,
        /// Rates per iteration.
        k: usize,
    },
    /// Base network + one uniform draw from the rest (`R-min`).
    RandomMin,
    /// Full network + one uniform draw from the rest (`R-max`).
    RandomMax,
    /// Base + full network + one uniform draw from the middle (`R-min-max`).
    RandomMinMax,
}

impl SchedulerKind {
    /// The paper's reporting configuration for small datasets: weighted
    /// random with 3 rates per pass, weights (0.5, …uniform…, 0.25) putting
    /// half the mass on the full network and a quarter on the base network
    /// (§5.1.2 uses (0.5, 0.125, 0.125, 0.25) for a 4-rate list, ascending
    /// order: base=0.5? — the paper lists weights for (1.0,0.75,0.5,0.25);
    /// we store ascending, so base gets 0.25 and full 0.5).
    pub fn r_weighted_3(list: &SliceRateList) -> SchedulerKind {
        let g = list.len();
        assert!(g >= 2);
        let mut weights = vec![0.25 / (g - 2).max(1) as f64; g];
        weights[0] = 0.25; // base network
        weights[g - 1] = 0.5; // full network
        SchedulerKind::RandomWeighted { weights, k: 3 }
    }
}

/// Draws rate lists for Algorithm 1.
pub struct Scheduler {
    kind: SchedulerKind,
    list: SliceRateList,
    rng: SeededRng,
    probs: Option<Vec<f64>>, // cached categorical for the random kinds
}

impl Scheduler {
    /// Creates a scheduler over `list` with its own RNG stream.
    pub fn new(kind: SchedulerKind, list: SliceRateList, rng: &mut SeededRng) -> Self {
        let probs = match &kind {
            SchedulerKind::RandomUniform { .. } => Some(vec![1.0; list.len()]),
            SchedulerKind::RandomWeighted { weights, .. } => {
                assert_eq!(
                    weights.len(),
                    list.len(),
                    "weights must align with the rate list"
                );
                assert!(weights.iter().all(|&w| w >= 0.0));
                Some(weights.clone())
            }
            SchedulerKind::RandomDistribution { dist, .. } => Some(discretize(dist, &list)),
            _ => None,
        };
        Scheduler {
            kind,
            list,
            rng: rng.fork(0x5CED),
            probs,
        }
    }

    /// The candidate rate list.
    pub fn list(&self) -> &SliceRateList {
        &self.list
    }

    /// Draws `k` *distinct* indices from the categorical `probs`.
    fn draw_distinct(&mut self, k: usize) -> Vec<usize> {
        let probs = self.probs.as_ref().expect("categorical kinds only");
        let mut remaining: Vec<f64> = probs.clone();
        let mut picked = Vec::with_capacity(k);
        for _ in 0..k.min(self.list.len()) {
            if remaining.iter().sum::<f64>() <= 0.0 {
                break;
            }
            let idx = self.rng.weighted_index(&remaining);
            remaining[idx] = 0.0;
            picked.push(idx);
        }
        picked
    }

    /// Produces the next iteration's rate list `L_t`.
    ///
    /// The returned list is ordered descending (full network first), which
    /// matters for the in-place knowledge-distillation view: the largest
    /// subnet's pass happens first in each accumulation group.
    pub fn next_rates(&mut self) -> Vec<SliceRate> {
        let g = self.list.len();
        let mut idxs: Vec<usize> = match &self.kind {
            SchedulerKind::Fixed(r) => {
                return vec![SliceRate::new(*r)];
            }
            SchedulerKind::Static => (0..g).collect(),
            SchedulerKind::RandomUniform { k }
            | SchedulerKind::RandomWeighted { k, .. }
            | SchedulerKind::RandomDistribution { k, .. } => {
                let k = *k;
                self.draw_distinct(k)
            }
            SchedulerKind::RandomMin => {
                let mut v = vec![0usize];
                if g > 1 {
                    v.push(1 + self.rng.below(g - 1));
                }
                v
            }
            SchedulerKind::RandomMax => {
                let mut v = vec![g - 1];
                if g > 1 {
                    v.push(self.rng.below(g - 1));
                }
                v
            }
            SchedulerKind::RandomMinMax => {
                let mut v = vec![0usize];
                if g > 1 {
                    v.push(g - 1);
                }
                if g > 2 {
                    v.push(1 + self.rng.below(g - 2));
                }
                v
            }
        };
        idxs.sort_unstable();
        idxs.dedup();
        idxs.reverse(); // descending rates: full network first
        idxs.into_iter().map(|i| self.list.at(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list4() -> SliceRateList {
        SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0])
    }

    #[test]
    fn fixed_always_returns_its_rate() {
        let mut rng = SeededRng::new(1);
        let mut s = Scheduler::new(SchedulerKind::Fixed(0.5), list4(), &mut rng);
        for _ in 0..5 {
            let r = s.next_rates();
            assert_eq!(r.len(), 1);
            assert_eq!(r[0].get(), 0.5);
        }
    }

    #[test]
    fn static_schedules_everything_descending() {
        let mut rng = SeededRng::new(2);
        let mut s = Scheduler::new(SchedulerKind::Static, list4(), &mut rng);
        let r: Vec<f32> = s.next_rates().iter().map(|r| r.get()).collect();
        assert_eq!(r, vec![1.0, 0.75, 0.5, 0.25]);
    }

    #[test]
    fn uniform_draws_are_distinct_and_cover_the_list() {
        let mut rng = SeededRng::new(3);
        let mut s = Scheduler::new(SchedulerKind::RandomUniform { k: 2 }, list4(), &mut rng);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let rates = s.next_rates();
            assert_eq!(rates.len(), 2);
            assert!(rates[0] > rates[1], "descending order");
            for r in rates {
                seen[((r.get() - 0.25) / 0.25).round() as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn weighted_draws_follow_weights() {
        let mut rng = SeededRng::new(4);
        let mut s = Scheduler::new(
            SchedulerKind::RandomWeighted {
                weights: vec![0.25, 0.125, 0.125, 0.5],
                k: 1,
            },
            list4(),
            &mut rng,
        );
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            let r = s.next_rates()[0];
            counts[((r.get() - 0.25) / 0.25).round() as usize] += 1;
        }
        // Full network sampled about twice as often as the base network.
        let ratio = counts[3] as f64 / counts[0] as f64;
        assert!((ratio - 2.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn min_max_variants_pin_their_anchors() {
        let mut rng = SeededRng::new(5);
        let mut s = Scheduler::new(SchedulerKind::RandomMinMax, list4(), &mut rng);
        for _ in 0..50 {
            let rates = s.next_rates();
            assert_eq!(rates.len(), 3);
            assert_eq!(rates[0].get(), 1.0);
            assert_eq!(rates[2].get(), 0.25);
            assert!(rates[1].get() == 0.5 || rates[1].get() == 0.75);
        }
        let mut s = Scheduler::new(SchedulerKind::RandomMin, list4(), &mut rng);
        for _ in 0..50 {
            let rates = s.next_rates();
            assert_eq!(*rates.last().unwrap(), SliceRate::new(0.25));
        }
        let mut s = Scheduler::new(SchedulerKind::RandomMax, list4(), &mut rng);
        for _ in 0..50 {
            assert_eq!(s.next_rates()[0], SliceRate::new(1.0));
        }
    }

    #[test]
    fn eq8_uniform_discretisation_weights_interior_by_spacing() {
        // Uniform over [0,1] on rates (.25,.5,.75,1.0): interior rates get
        // mass .25 each; ends absorb the tails.
        let p = discretize(&ContinuousDist::Uniform { lo: 0.0, hi: 1.0 }, &list4());
        assert!((p[0] - 0.375).abs() < 1e-6, "{p:?}"); // tail 0..0.375
        assert!((p[1] - 0.25).abs() < 1e-6);
        assert!((p[2] - 0.25).abs() < 1e-6);
        assert!((p[3] - 0.125).abs() < 1e-6);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eq8_normal_concentrates_near_mean() {
        let p = discretize(
            &ContinuousDist::Normal {
                mean: 0.75,
                std: 0.1,
            },
            &list4(),
        );
        let max_idx = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(max_idx, 2); // rate 0.75
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0) - 0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-5);
    }
}

#[cfg(test)]
mod distribution_tests {
    use super::*;

    #[test]
    fn scheduler_with_eq8_distribution_samples_accordingly() {
        let mut rng = SeededRng::new(77);
        let list = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
        let mut s = Scheduler::new(
            SchedulerKind::RandomDistribution {
                dist: ContinuousDist::Normal {
                    mean: 1.0,
                    std: 0.2,
                },
                k: 1,
            },
            list,
            &mut rng,
        );
        let mut counts = [0usize; 4];
        for _ in 0..2000 {
            let r = s.next_rates()[0];
            counts[((r.get() - 0.25) / 0.25).round() as usize] += 1;
        }
        // Mass concentrated near 1.0, decreasing toward 0.25.
        assert!(counts[3] > counts[2]);
        assert!(counts[2] > counts[1]);
        assert!(counts[3] > 1000, "{counts:?}");
    }

    #[test]
    fn uniform_distribution_is_not_uniform_categorical() {
        // Eq. 8 assigns the *end* rates their CDF tails, so a Uniform(0,1)
        // distribution over the (0.25,…,1.0) list overweights the base
        // rate relative to interior rates — a subtle property worth pinning.
        let p = discretize(
            &ContinuousDist::Uniform { lo: 0.0, hi: 1.0 },
            &SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]),
        );
        assert!(p[0] > p[1] && p[0] > p[3]);
    }

    #[test]
    fn degenerate_distribution_falls_back_to_uniform() {
        let p = discretize(
            &ContinuousDist::Uniform { lo: 5.0, hi: 6.0 }, // outside the list
            &SliceRateList::from_rates(&[0.25, 0.5]),
        );
        // CDF puts mass only in the top tail bucket — which absorbs it all;
        // verify the result is still a valid distribution.
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn single_rate_list_always_samples_it() {
        let mut rng = SeededRng::new(78);
        let list = SliceRateList::from_rates(&[1.0]);
        let mut s = Scheduler::new(
            SchedulerKind::RandomDistribution {
                dist: ContinuousDist::Uniform { lo: 0.0, hi: 1.0 },
                k: 2,
            },
            list,
            &mut rng,
        );
        let rates = s.next_rates();
        assert_eq!(rates.len(), 1);
        assert!(rates[0].is_full());
    }
}
