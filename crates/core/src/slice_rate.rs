//! Candidate slice-rate lists (paper §5.1.1 and §5.1.3).
//!
//! Networks are trained and evaluated over a finite list of rates
//! `(r_1, …, r_G)` between a lower bound `lb` and `1.0` at a fixed
//! granularity (`1/4`, `1/8` or `1/16` in the paper). The lower bound is the
//! base network's width; Eq. 3 translates a run-time budget into the largest
//! listed rate that satisfies it.

pub use ms_nn::slice::{active_units, group_boundary, SliceRate};
use serde::{Deserialize, Serialize};

/// An ordered (ascending) list of candidate slice rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SliceRateList {
    rates: Vec<f32>,
}

impl SliceRateList {
    /// Builds the list `lb, lb+step, …, 1.0` (paper §5.1.1: `r_i` ranges from
    /// the lower bound to 1.0 in multiples of the granularity).
    ///
    /// # Panics
    /// If `lb ∉ (0, 1]` or `step <= 0`.
    pub fn with_granularity(lb: f32, step: f32) -> Self {
        assert!(lb > 0.0 && lb <= 1.0, "lower bound {lb}");
        assert!(step > 0.0, "step {step}");
        let mut rates = Vec::new();
        // Walk down from 1.0 so the top rate is exactly 1.0 regardless of
        // whether (1 - lb) is a multiple of step.
        let mut r = 1.0f32;
        while r > lb + 1e-6 {
            rates.push(r);
            r -= step;
        }
        rates.push(lb);
        rates.reverse();
        SliceRateList { rates }
    }

    /// Builds a list from explicit rates (deduplicated, sorted ascending).
    pub fn from_rates(rates: &[f32]) -> Self {
        assert!(!rates.is_empty(), "empty rate list");
        let mut rates: Vec<f32> = rates.to_vec();
        rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
        rates.dedup_by(|a, b| (*a - *b).abs() < 1e-6);
        for &r in &rates {
            assert!(r > 0.0 && r <= 1.0, "rate {r} out of (0,1]");
        }
        SliceRateList { rates }
    }

    /// The paper's small-dataset evaluation list: 0.375 … 1.0 step 1/8.
    pub fn paper_cifar() -> Self {
        SliceRateList::with_granularity(0.375, 0.125)
    }

    /// The paper's large-dataset list: 0.25 … 1.0 step 1/4.
    pub fn paper_imagenet() -> Self {
        SliceRateList::with_granularity(0.25, 0.25)
    }

    /// Number of candidate rates.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether the list is empty (never true for a constructed list).
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Ascending raw rates.
    pub fn rates(&self) -> &[f32] {
        &self.rates
    }

    /// The lower bound `r_1` (the base network).
    pub fn min(&self) -> SliceRate {
        SliceRate::new(self.rates[0])
    }

    /// The full-width rate `r_G`.
    pub fn max(&self) -> SliceRate {
        SliceRate::new(*self.rates.last().expect("nonempty"))
    }

    /// Rate at `idx` (ascending).
    pub fn at(&self, idx: usize) -> SliceRate {
        SliceRate::new(self.rates[idx])
    }

    /// Iterates rates ascending.
    pub fn iter(&self) -> impl Iterator<Item = SliceRate> + '_ {
        self.rates.iter().map(|&r| SliceRate::new(r))
    }

    /// Index of `r` in the list, if present.
    pub fn index_of(&self, r: SliceRate) -> Option<usize> {
        self.rates.iter().position(|&c| (c - r.get()).abs() < 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_lists_match_paper() {
        let l = SliceRateList::paper_cifar();
        assert_eq!(l.rates(), &[0.375, 0.5, 0.625, 0.75, 0.875, 1.0]);
        let l = SliceRateList::paper_imagenet();
        assert_eq!(l.rates(), &[0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn endpoints_are_exact() {
        let l = SliceRateList::with_granularity(0.25, 0.125);
        assert_eq!(l.min().get(), 0.25);
        assert_eq!(l.max().get(), 1.0);
        assert_eq!(l.len(), 7);
    }

    #[test]
    fn from_rates_sorts_and_dedups() {
        let l = SliceRateList::from_rates(&[1.0, 0.25, 0.5, 0.5]);
        assert_eq!(l.rates(), &[0.25, 0.5, 1.0]);
    }

    #[test]
    fn index_of_roundtrips() {
        let l = SliceRateList::paper_cifar();
        for (i, r) in l.iter().enumerate() {
            assert_eq!(l.index_of(r), Some(i));
        }
        assert_eq!(l.index_of(SliceRate::new(0.33)), None);
    }
}
