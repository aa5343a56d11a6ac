//! Property tests for slice-rate selection: the [`SlaController`] must
//! respect the Eq. 3 bound — the chosen width's cost never exceeds the
//! budget — and degrade
//! monotonically: more load never buys a *wider* network, and when even the
//! base rate cannot carry the batch the controller sheds instead of serving
//! late. The dispatch-time binding (`SlaController::rebind`) is checked the
//! same way, as the pure function it is: no clock anywhere in this file.

use ms_core::slice_rate::SliceRateList;
use ms_serving::controller::{RatePolicy, SlaController};
use ms_serving::profile::LatencyProfile;
use proptest::prelude::*;

fn rate_list() -> SliceRateList {
    SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0])
}

/// Quadratic-law profile for a given model speed and per-batch overhead.
fn profile_of(t_full: f64, overhead: f64) -> LatencyProfile {
    let list = rate_list();
    let per_sample = list
        .iter()
        .map(|r| t_full * r.get() as f64 * r.get() as f64)
        .collect();
    LatencyProfile::new(list, per_sample, overhead)
}

/// Slack for the controller's floating-point capacity arithmetic.
fn eps(budget: f64) -> f64 {
    budget * 1e-9 + 1e-12
}

proptest! {
    /// Elastic admission never plans past the budget: whatever it admits is
    /// predicted to finish in time (the Eq. 3 bound with measured
    /// coefficients), and admission accounts for every query.
    #[test]
    fn elastic_decisions_respect_the_budget(
        t_full in 1e-6f64..1e-2,
        overhead in 0f64..1e-3,
        n in 0usize..20_000,
        budget in 1e-6f64..1.0,
    ) {
        let c = SlaController::elastic(profile_of(t_full, overhead));
        let d = c.decide(n, budget);
        prop_assert_eq!(d.admit + d.shed, n);
        prop_assert!(c.profile().list().index_of(d.rate).is_some());
        if d.admit > 0 {
            let predicted = c.profile().predict(d.admit, d.rate);
            prop_assert!(
                predicted <= budget + eps(budget),
                "admitted {} at rate {} predicted {} > budget {}",
                d.admit, d.rate, predicted, budget
            );
        }
    }

    /// More load never widens the network: the chosen rate is non-increasing
    /// in batch size at a fixed budget.
    #[test]
    fn elastic_rate_is_monotone_in_load(
        t_full in 1e-6f64..1e-2,
        overhead in 0f64..1e-3,
        n in 1usize..10_000,
        extra in 1usize..10_000,
        budget in 1e-6f64..1.0,
    ) {
        let c = SlaController::elastic(profile_of(t_full, overhead));
        let light = c.decide(n, budget);
        let heavy = c.decide(n + extra, budget);
        prop_assert!(
            heavy.rate.get() <= light.rate.get(),
            "load {} chose {}, heavier load {} chose {}",
            n, light.rate, n + extra, heavy.rate
        );
    }

    /// Shedding is the last resort and is exact: the controller sheds only
    /// at the base rate, only when the full batch cannot fit, and never
    /// sheds a query that would have fit.
    #[test]
    fn elastic_sheds_only_when_the_base_rate_saturates(
        t_full in 1e-6f64..1e-2,
        overhead in 0f64..1e-3,
        n in 1usize..20_000,
        budget in 1e-6f64..1.0,
    ) {
        let c = SlaController::elastic(profile_of(t_full, overhead));
        let d = c.decide(n, budget);
        if d.shed > 0 {
            let r_min = c.profile().list().min();
            prop_assert_eq!(d.rate, r_min);
            // The whole batch really did not fit at the base rate…
            prop_assert!(c.profile().predict(n, r_min) > budget);
            // …and one more admitted query would overrun.
            let one_more = c.profile().predict(d.admit + 1, d.rate);
            prop_assert!(
                one_more > budget - eps(budget),
                "shed {} but admit+1 predicted {} fits budget {}",
                d.shed, one_more, budget
            );
        }
    }

    /// The fixed-width comparators: `Fixed` admits everything (it models the
    /// inelastic server that goes late), `FixedShedding` stays within budget
    /// like elastic but at its pinned width.
    #[test]
    fn fixed_policies_hold_their_contracts(
        t_full in 1e-6f64..1e-2,
        overhead in 0f64..1e-3,
        n in 0usize..20_000,
        budget in 1e-6f64..1.0,
        rate_idx in 0usize..4,
    ) {
        let profile = profile_of(t_full, overhead);
        let rate = rate_list().at(rate_idx);
        let fixed = SlaController::new(profile.clone(), RatePolicy::Fixed(rate)).decide(n, budget);
        prop_assert_eq!((fixed.admit, fixed.shed), (n, 0));
        prop_assert_eq!(fixed.rate, rate);

        let shedding =
            SlaController::new(profile.clone(), RatePolicy::FixedShedding(rate)).decide(n, budget);
        prop_assert_eq!(shedding.admit + shedding.shed, n);
        prop_assert_eq!(shedding.rate, rate);
        if shedding.admit > 0 {
            prop_assert!(profile.predict(shedding.admit, rate) <= budget + eps(budget));
        }
    }

    /// Dispatch-time binding only ever narrows: whatever budget is left, the
    /// bound rate is a candidate rate no wider than the seal-time plan, and
    /// a narrowed batch is either predicted to fit what is left or already
    /// at the base rate.
    #[test]
    fn rebind_never_widens_and_fits_what_is_left(
        t_full in 1e-6f64..1e-2,
        overhead in 0f64..1e-3,
        n in 1usize..20_000,
        budget in 1e-6f64..1.0,
        left_frac in -0.5f64..2.0,
    ) {
        let c = SlaController::elastic(profile_of(t_full, overhead));
        let d = c.decide(n, budget);
        prop_assume!(d.admit > 0);
        let left = budget * left_frac;
        let bound = c.rebind(d.admit, d.rate, left);
        prop_assert!(c.profile().list().index_of(bound).is_some());
        prop_assert!(bound <= d.rate, "bound {} wider than planned {}", bound, d.rate);
        if bound < d.rate {
            let r_min = c.profile().list().min();
            prop_assert!(
                bound == r_min || c.profile().predict(d.admit, bound) <= left + eps(budget),
                "bound {} predicted {} > left {}",
                bound, c.profile().predict(d.admit, bound), left
            );
        }
    }

    /// A batch that starts with at least the budget it was planned against
    /// runs at its planned rate: an idle engine is untouched by the binding.
    #[test]
    fn rebind_keeps_the_plan_when_the_planning_budget_is_left(
        t_full in 1e-6f64..1e-2,
        overhead in 0f64..1e-3,
        n in 1usize..20_000,
        budget in 1e-6f64..1.0,
        extra in 0f64..1.0,
    ) {
        let c = SlaController::elastic(profile_of(t_full, overhead));
        let d = c.decide(n, budget);
        prop_assume!(d.admit > 0);
        prop_assert_eq!(c.rebind(d.admit, d.rate, budget + extra), d.rate);
    }

    /// Less time left never buys a wider network, and nothing left means the
    /// base rate.
    #[test]
    fn rebind_is_monotone_in_time_left_and_bottoms_out_at_r_min(
        t_full in 1e-6f64..1e-2,
        overhead in 0f64..1e-3,
        n in 1usize..20_000,
        planned_idx in 0usize..4,
        left in 0f64..1.0,
        more in 0f64..1.0,
        overdue in 0f64..1.0,
    ) {
        let c = SlaController::elastic(profile_of(t_full, overhead));
        let planned = rate_list().at(planned_idx);
        let tight = c.rebind(n, planned, left);
        let loose = c.rebind(n, planned, left + more);
        prop_assert!(tight <= loose, "left {} chose {}, left {} chose {}", left, tight, left + more, loose);
        let r_min = c.profile().list().min();
        prop_assert_eq!(c.rebind(n, planned, 0.0), r_min);
        prop_assert_eq!(c.rebind(n, planned, -overdue), r_min);
    }

    /// The fixed policies run what they pinned, however late the batch is.
    #[test]
    fn rebind_leaves_fixed_policies_untouched(
        t_full in 1e-6f64..1e-2,
        n in 1usize..20_000,
        rate_idx in 0usize..4,
        left in -1f64..1.0,
    ) {
        let rate = rate_list().at(rate_idx);
        for policy in [RatePolicy::Fixed(rate), RatePolicy::FixedShedding(rate)] {
            let c = SlaController::new(profile_of(t_full, 0.0), policy);
            prop_assert_eq!(c.rebind(n, rate, left), rate);
        }
    }
}
