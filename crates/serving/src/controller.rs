//! Slice-rate selection and the accuracy table answers are scored by.
//!
//! [`SlaController`] decides width and admission for each batch the
//! [`crate::engine`] seals, planning against a [`LatencyProfile`]: measured
//! on the machine when serving live, or the quadratic law (or any other
//! assumed cost) when a trace is replayed on the virtual clock. The §4.1
//! baselines are [`RatePolicy`] values on such profiles: a fixed width with
//! or without admission control, and a swap to a cheap model as elastic
//! width over a two-rate profile whose narrow rate costs what the cheap model
//! does. [`ReplayReport::effective_accuracy`](crate::engine::ReplayReport::effective_accuracy)
//! scores each of them.

use crate::profile::LatencyProfile;
use ms_core::slice_rate::{SliceRate, SliceRateList};
use serde::{Deserialize, Serialize};

/// Measured accuracy per candidate slice rate (ascending with the list),
/// produced by evaluating the trained model once per rate. A replay scores
/// each answer by the rate it ran at against this table, so the logits of a
/// replayed request need not be labelled.
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

    /// Accuracy at a candidate rate.
    pub fn at(&self, r: SliceRate) -> f64 {
        let idx = self.list.index_of(r).expect("rate in candidate list");
        self.accuracy[idx]
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

/// Maps batch size → (rate, admission) through a latency profile. Decisions
/// are a pure function of `(n, budget)`, which is what makes engine replays
/// deterministic regardless of worker count.
#[derive(Debug, Clone)]
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

    fn quad_controller(policy: RatePolicy) -> SlaController {
        SlaController::new(
            LatencyProfile::quadratic(SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]), 1e-3),
            policy,
        )
    }

    #[test]
    fn sla_elastic_matches_the_synthetic_policy_on_the_quadratic_law() {
        let c = quad_controller(RatePolicy::Elastic);
        // 100 queries, 1 ms each at full width, 25 ms budget → r² ≤ 0.25.
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
