//! Slice-rate selection policies and the accuracy table they are scored by.
//!
//! Two generations live here: [`Policy`] scores degradation strategies inside
//! the synthetic [`crate::simulator`], while [`SlaController`] makes the same
//! decision for the real [`crate::engine`] against a *measured*
//! [`LatencyProfile`] instead of the assumed quadratic cost law.

use crate::profile::LatencyProfile;
use ms_core::slice_rate::{SliceRate, SliceRateList};
use serde::{Deserialize, Serialize};

/// Measured accuracy per candidate slice rate (ascending with the list),
/// produced by evaluating the trained model once per rate. The simulator
/// scores policies against this table instead of re-running the network per
/// batch, keeping the simulation cheap without changing the comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccuracyTable {
    list: SliceRateList,
    accuracy: Vec<f64>,
}

impl AccuracyTable {
    /// Creates the table; `accuracy[i]` corresponds to `list.at(i)`.
    pub fn new(list: SliceRateList, accuracy: Vec<f64>) -> Self {
        assert_eq!(list.len(), accuracy.len());
        assert!(accuracy.iter().all(|&a| (0.0..=1.0).contains(&a)));
        AccuracyTable { list, accuracy }
    }

    /// The candidate rate list.
    pub fn list(&self) -> &SliceRateList {
        &self.list
    }

    /// Accuracy at a candidate rate.
    pub fn at(&self, r: SliceRate) -> f64 {
        let idx = self.list.index_of(r).expect("rate in candidate list");
        self.accuracy[idx]
    }

    /// Accuracy of the full model.
    pub fn full(&self) -> f64 {
        *self.accuracy.last().expect("nonempty")
    }

    /// Accuracy of the base (smallest) model.
    pub fn base(&self) -> f64 {
        self.accuracy[0]
    }
}

/// What the server does with a batch of `n` queries given `budget` seconds
/// of processing time and the full-model per-sample time `t_full`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// Always run the full model; queries that do not fit the budget are
    /// shed (the crash/overflow regime of §1).
    FixedFull,
    /// Always run the base-width model: meets load but wastes accuracy in
    /// off-peak hours.
    FixedBase,
    /// Coarse degradation (the "naive approach" of §1): run the full model
    /// while it fits; when overloaded, swap the whole batch to a cheap
    /// model whose relative cost and accuracy are given.
    ModelSwap {
        /// Cheap model cost relative to the full model (e.g. 0.05 ≈ GBDT).
        rel_cost: f64,
        /// Cheap model accuracy (absolute).
        accuracy: f64,
    },
    /// Coarse degradation: run the full model on the first `k` queries that
    /// fit the budget, shed the rest ("reduce the size of the candidate
    /// items").
    DropCandidates,
    /// The paper's elastic policy: largest rate with `n·r²·t_full ≤ budget`.
    ModelSlicing,
}

/// Outcome of one batch decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Queries actually processed.
    pub served: usize,
    /// Queries shed.
    pub shed: usize,
    /// Processing time consumed (seconds).
    pub time_spent: f64,
    /// Mean accuracy over *all* queries in the batch, counting shed queries
    /// as wrong (a shed query returns no / a default answer).
    pub effective_accuracy: f64,
    /// Width used, when a sliced/full model ran.
    pub rate: Option<f32>,
}

impl Policy {
    /// Decides how to process a batch of `n` queries.
    pub fn decide(&self, n: usize, t_full: f64, budget: f64, table: &AccuracyTable) -> Decision {
        if n == 0 {
            return Decision {
                served: 0,
                shed: 0,
                time_spent: 0.0,
                effective_accuracy: 1.0,
                rate: None,
            };
        }
        let nf = n as f64;
        match *self {
            Policy::FixedFull => {
                let fit = ((budget / t_full).floor() as usize).min(n);
                Decision {
                    served: fit,
                    shed: n - fit,
                    time_spent: fit as f64 * t_full,
                    effective_accuracy: table.full() * fit as f64 / nf,
                    rate: Some(1.0),
                }
            }
            Policy::FixedBase => {
                let r = table.list().min();
                let per = t_full * (r.get() as f64) * (r.get() as f64);
                let fit = ((budget / per).floor() as usize).min(n);
                Decision {
                    served: fit,
                    shed: n - fit,
                    time_spent: fit as f64 * per,
                    effective_accuracy: table.base() * fit as f64 / nf,
                    rate: Some(r.get()),
                }
            }
            Policy::ModelSwap { rel_cost, accuracy } => {
                // Full model if the whole batch fits, else the cheap model.
                if nf * t_full <= budget {
                    Decision {
                        served: n,
                        shed: 0,
                        time_spent: nf * t_full,
                        effective_accuracy: table.full(),
                        rate: Some(1.0),
                    }
                } else {
                    let per = t_full * rel_cost;
                    let fit = ((budget / per).floor() as usize).min(n);
                    Decision {
                        served: fit,
                        shed: n - fit,
                        time_spent: fit as f64 * per,
                        effective_accuracy: accuracy * fit as f64 / nf,
                        rate: None,
                    }
                }
            }
            Policy::DropCandidates => {
                let fit = ((budget / t_full).floor() as usize).min(n);
                Decision {
                    served: fit,
                    shed: n - fit,
                    time_spent: fit as f64 * t_full,
                    effective_accuracy: table.full() * fit as f64 / nf,
                    rate: Some(1.0),
                }
            }
            Policy::ModelSlicing => {
                // Largest rate with n·r²·t ≤ budget, clamped to the base
                // rate; if even the base overflows, shed the excess at the
                // base rate.
                let r2 = budget / (nf * t_full);
                let r = table.list().snap_down(r2.max(0.0).sqrt() as f32);
                let per = t_full * (r.get() as f64) * (r.get() as f64);
                let fit = ((budget / per).floor() as usize).min(n);
                Decision {
                    served: fit,
                    shed: n - fit,
                    time_spent: fit as f64 * per,
                    effective_accuracy: table.at(r) * fit as f64 / nf,
                    rate: Some(r.get()),
                }
            }
        }
    }
}

/// What width a real serving engine runs each batch at.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RatePolicy {
    /// The paper's elastic policy against the *measured* profile: widest
    /// rate whose predicted service time fits the budget; when even the
    /// base rate cannot serve the whole batch, admit as many as fit at the
    /// base rate and shed the rest — never violate the deadline.
    Elastic,
    /// A conventional inelastic server: run everything at this width and
    /// accept whatever latency results (the overload/crash regime of §1 —
    /// batches overrun the budget and the backlog snowballs).
    Fixed(SliceRate),
    /// A fixed-width server with admission control: run admitted queries at
    /// this width, shed what does not fit the budget.
    FixedShedding(SliceRate),
}

/// Outcome of one admission decision over a formed batch of `n` queries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlaDecision {
    /// Width the admitted queries run at.
    pub rate: SliceRate,
    /// Queries admitted (a prefix of the batch, arrival order).
    pub admit: usize,
    /// Queries shed.
    pub shed: usize,
}

/// Maps batch size → (rate, admission) through a measured latency profile:
/// the SLA-driven replacement for the synthetic [`Policy`]. Decisions are a
/// pure function of `(n, budget)`, which is what makes engine replays
/// deterministic regardless of worker count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlaController {
    profile: LatencyProfile,
    policy: RatePolicy,
}

impl SlaController {
    /// Creates a controller.
    pub fn new(profile: LatencyProfile, policy: RatePolicy) -> Self {
        if let RatePolicy::Fixed(r) | RatePolicy::FixedShedding(r) = policy {
            assert!(
                profile.list().index_of(r).is_some(),
                "fixed rate {r} not in the calibrated list"
            );
        }
        SlaController { profile, policy }
    }

    /// Elastic controller (the default serving configuration).
    pub fn elastic(profile: LatencyProfile) -> Self {
        SlaController::new(profile, RatePolicy::Elastic)
    }

    /// The latency profile decisions are planned against.
    pub fn profile(&self) -> &LatencyProfile {
        &self.profile
    }

    /// The configured policy.
    pub fn policy(&self) -> RatePolicy {
        self.policy
    }

    /// Decides width and admission for a batch of `n` given `budget` seconds
    /// of processing time.
    pub fn decide(&self, n: usize, budget: f64) -> SlaDecision {
        let full = self.profile.list().max();
        if n == 0 {
            return SlaDecision {
                rate: full,
                admit: 0,
                shed: 0,
            };
        }
        match self.policy {
            RatePolicy::Elastic => match self.profile.rate_within(n, budget) {
                Some(rate) => SlaDecision {
                    rate,
                    admit: n,
                    shed: 0,
                },
                None => {
                    let r_min = self.profile.list().min();
                    let admit = self.profile.max_batch(r_min, budget).min(n);
                    SlaDecision {
                        rate: r_min,
                        admit,
                        shed: n - admit,
                    }
                }
            },
            RatePolicy::Fixed(rate) => SlaDecision {
                rate,
                admit: n,
                shed: 0,
            },
            RatePolicy::FixedShedding(rate) => {
                let admit = self.profile.max_batch(rate, budget).min(n);
                SlaDecision {
                    rate,
                    admit,
                    shed: n - admit,
                }
            }
        }
    }

    /// Dispatch-time binding: the rate a sealed batch of `n` admitted
    /// queries runs at when its compute starts with `budget_left` planning
    /// seconds before its window closes.
    ///
    /// [`SlaController::decide`] plans at seal time as if the batch started
    /// at once; behind a backlog it starts later, and the plan no longer
    /// fits. Under [`RatePolicy::Elastic`] the batch is re-fitted to what is
    /// left — the widest rate the profile predicts inside `budget_left`, the
    /// base rate when nothing fits (`budget_left ≤ 0` included) — but never
    /// wider than `planned`, so the admission made at seal still holds. The
    /// fixed policies run what they pinned. A pure function of its
    /// arguments: the caller reads the clock.
    pub fn rebind(&self, n: usize, planned: SliceRate, budget_left: f64) -> SliceRate {
        match self.policy {
            RatePolicy::Elastic => {
                let fits = self
                    .profile
                    .rate_within(n, budget_left)
                    .unwrap_or_else(|| self.profile.list().min());
                if fits < planned {
                    fits
                } else {
                    planned
                }
            }
            RatePolicy::Fixed(_) | RatePolicy::FixedShedding(_) => planned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> AccuracyTable {
        AccuracyTable::new(
            SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]),
            vec![0.90, 0.93, 0.94, 0.95],
        )
    }

    #[test]
    fn slicing_serves_everything_within_latency() {
        let t = table();
        // 100 queries, 1ms each full, 25ms budget → r² ≤ 0.25 → r = 0.5,
        // per-query 0.25ms → all 100 fit exactly.
        let d = Policy::ModelSlicing.decide(100, 0.001, 0.025, &t);
        assert_eq!(d.served, 100);
        assert_eq!(d.shed, 0);
        assert_eq!(d.rate, Some(0.5));
        assert!((d.effective_accuracy - 0.93).abs() < 1e-12);
        assert!(d.time_spent <= 0.025 + 1e-12);
    }

    #[test]
    fn fixed_full_sheds_under_load() {
        let t = table();
        let d = Policy::FixedFull.decide(100, 0.001, 0.025, &t);
        assert_eq!(d.served, 25);
        assert_eq!(d.shed, 75);
        assert!(d.effective_accuracy < 0.25);
    }

    #[test]
    fn fixed_full_wins_when_idle() {
        let t = table();
        let d_full = Policy::FixedFull.decide(5, 0.001, 0.025, &t);
        let d_slice = Policy::ModelSlicing.decide(5, 0.001, 0.025, &t);
        // Low load: slicing also picks the full model — no accuracy loss.
        assert_eq!(d_full.effective_accuracy, d_slice.effective_accuracy);
        assert_eq!(d_slice.rate, Some(1.0));
    }

    #[test]
    fn swap_degrades_to_cheap_model() {
        let t = table();
        let p = Policy::ModelSwap {
            rel_cost: 0.05,
            accuracy: 0.85,
        };
        let d = p.decide(100, 0.001, 0.025, &t);
        assert_eq!(d.served, 100);
        assert!((d.effective_accuracy - 0.85).abs() < 1e-12);
        // But under light load it serves at full accuracy.
        let d = p.decide(5, 0.001, 0.025, &t);
        assert_eq!(d.effective_accuracy, 0.95);
    }

    #[test]
    fn slicing_beats_coarse_policies_under_surge() {
        let t = table();
        let budget = 0.025;
        let n = 200; // extreme spike
        let slice = Policy::ModelSlicing.decide(n, 0.001, budget, &t);
        let full = Policy::FixedFull.decide(n, 0.001, budget, &t);
        let drop = Policy::DropCandidates.decide(n, 0.001, budget, &t);
        assert!(slice.effective_accuracy > full.effective_accuracy);
        assert!(slice.effective_accuracy > drop.effective_accuracy);
    }

    #[test]
    fn empty_batch_is_free() {
        let t = table();
        let d = Policy::ModelSlicing.decide(0, 0.001, 0.025, &t);
        assert_eq!(d.time_spent, 0.0);
        assert_eq!(d.served, 0);
    }

    fn quad_controller(policy: RatePolicy) -> SlaController {
        SlaController::new(
            LatencyProfile::quadratic(SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]), 1e-3),
            policy,
        )
    }

    #[test]
    fn sla_elastic_matches_the_synthetic_policy_on_the_quadratic_law() {
        let c = quad_controller(RatePolicy::Elastic);
        // Same setting as `slicing_serves_everything_within_latency`.
        let d = c.decide(100, 0.025);
        assert_eq!(d.rate.get(), 0.5);
        assert_eq!(d.admit, 100);
        assert_eq!(d.shed, 0);
        // Idle → full width.
        assert!(c.decide(5, 0.025).rate.is_full());
    }

    #[test]
    fn sla_elastic_sheds_rather_than_violating_the_deadline() {
        let c = quad_controller(RatePolicy::Elastic);
        // 1000 queries: even r_min (0.25² ms each) cannot fit 25 ms.
        let d = c.decide(1000, 0.025);
        assert_eq!(d.rate.get(), 0.25);
        assert_eq!(d.admit, 400);
        assert_eq!(d.shed, 600);
        assert!(c.profile().predict(d.admit, d.rate) <= 0.025 + 1e-12);
    }

    #[test]
    fn sla_fixed_never_sheds_and_fixed_shedding_never_overruns() {
        let full = SliceRate::FULL;
        let d = quad_controller(RatePolicy::Fixed(full)).decide(1000, 0.025);
        assert_eq!((d.admit, d.shed), (1000, 0));
        let c = quad_controller(RatePolicy::FixedShedding(full));
        let d = c.decide(1000, 0.025);
        assert_eq!((d.admit, d.shed), (25, 975));
        assert!(c.profile().predict(d.admit, d.rate) <= 0.025 + 1e-12);
    }

    #[test]
    #[should_panic(expected = "not in the calibrated list")]
    fn sla_rejects_uncalibrated_fixed_rate() {
        quad_controller(RatePolicy::Fixed(SliceRate::new(0.33)));
    }
}
