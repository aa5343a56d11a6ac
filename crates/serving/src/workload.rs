//! Arrival-process generation.
//!
//! Query arrivals are Poisson with a time-varying rate composed of a base
//! level, a diurnal sinusoid and flash-crowd spikes — the "peak workload 10×
//! higher than average, with unpredictable extreme cases" setting that
//! motivates the paper (§1). The trace is a per-tick arrival count.

use crate::profile::LatencyProfile;
use ms_tensor::SeededRng;
use serde::{Deserialize, Serialize};

/// Workload shape parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of ticks to generate (one tick = one batching interval, T/2).
    pub ticks: usize,
    /// Mean arrivals per tick at the base level.
    pub base_rate: f64,
    /// Peak-to-base multiplier of the diurnal sinusoid (≥ 1).
    pub diurnal_amplitude: f64,
    /// Ticks per diurnal period.
    pub diurnal_period: usize,
    /// Probability that a flash-crowd spike starts at any tick.
    pub spike_prob: f64,
    /// Multiplier applied during a spike (the "10×–16×" of §1).
    pub spike_multiplier: f64,
    /// Spike duration in ticks.
    pub spike_len: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            ticks: 2000,
            base_rate: 8.0,
            diurnal_amplitude: 3.0,
            diurnal_period: 500,
            spike_prob: 0.004,
            spike_multiplier: 16.0,
            spike_len: 40,
            seed: 23,
        }
    }
}

/// A generated arrival trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadTrace {
    /// Arrivals per tick.
    pub arrivals: Vec<usize>,
    /// The latent rate per tick (for plotting / diagnostics).
    pub rates: Vec<f64>,
}

impl WorkloadTrace {
    /// Generates the trace.
    pub fn generate(cfg: &WorkloadConfig) -> Self {
        assert!(cfg.ticks > 0 && cfg.base_rate > 0.0 && cfg.diurnal_amplitude >= 1.0);
        let mut rng = SeededRng::new(cfg.seed);
        let mut arrivals = Vec::with_capacity(cfg.ticks);
        let mut rates = Vec::with_capacity(cfg.ticks);
        let mut spike_left = 0usize;
        for t in 0..cfg.ticks {
            if spike_left == 0 && rng.chance(cfg.spike_prob) {
                spike_left = cfg.spike_len;
            }
            let phase = 2.0 * std::f64::consts::PI * (t % cfg.diurnal_period) as f64
                / cfg.diurnal_period as f64;
            // Sinusoid in [1, amplitude].
            let diurnal = 1.0 + (cfg.diurnal_amplitude - 1.0) * 0.5 * (1.0 - phase.cos());
            let spike = if spike_left > 0 {
                spike_left -= 1;
                cfg.spike_multiplier
            } else {
                1.0
            };
            let rate = cfg.base_rate * diurnal * spike;
            rates.push(rate);
            arrivals.push(poisson(rate, &mut rng));
        }
        WorkloadTrace { arrivals, rates }
    }

    /// Generates a trace from an explicit per-tick latent rate function —
    /// the building block of the named shapes below. Arrivals stay
    /// Poisson; only the rate schedule is caller-defined.
    pub fn from_rate_fn(ticks: usize, seed: u64, rate_at: impl Fn(usize) -> f64) -> Self {
        assert!(ticks > 0);
        let mut rng = SeededRng::new(seed);
        let mut arrivals = Vec::with_capacity(ticks);
        let mut rates = Vec::with_capacity(ticks);
        for t in 0..ticks {
            let rate = rate_at(t);
            assert!(rate >= 0.0, "negative rate at tick {t}");
            rates.push(rate);
            arrivals.push(poisson(rate, &mut rng));
        }
        WorkloadTrace { arrivals, rates }
    }

    /// Diurnal shape: a pure sinusoid between `base_rate` and
    /// `base_rate × amplitude` with period `period` ticks — the slow
    /// day/night swing an autoscaler should follow without flapping.
    pub fn diurnal(ticks: usize, base_rate: f64, amplitude: f64, period: usize, seed: u64) -> Self {
        assert!(base_rate > 0.0 && amplitude >= 1.0 && period > 0);
        Self::from_rate_fn(ticks, seed, |t| {
            let phase = 2.0 * std::f64::consts::PI * (t % period) as f64 / period as f64;
            base_rate * (1.0 + (amplitude - 1.0) * 0.5 * (1.0 - phase.cos()))
        })
    }

    /// Spike shape: flat `base_rate` except one deterministic window
    /// `[spike_start, spike_start + spike_len)` at `base_rate ×
    /// multiplier` — the single-event overload the cluster e2e and bench
    /// drive, placed deterministically so fleet comparisons see the
    /// identical schedule.
    pub fn spike(
        ticks: usize,
        base_rate: f64,
        multiplier: f64,
        spike_start: usize,
        spike_len: usize,
        seed: u64,
    ) -> Self {
        assert!(base_rate > 0.0 && multiplier >= 1.0);
        let window = spike_start..spike_start.saturating_add(spike_len);
        Self::from_rate_fn(ticks, seed, |t| {
            if window.contains(&t) {
                base_rate * multiplier
            } else {
                base_rate
            }
        })
    }

    /// Flash-crowd shape: `crowds` evenly spaced spikes of `crowd_len`
    /// ticks at `base_rate × multiplier` (the paper's "10×–16× with
    /// unpredictable extreme cases", §1, made repeatable).
    pub fn flash_crowd(
        ticks: usize,
        base_rate: f64,
        multiplier: f64,
        crowds: usize,
        crowd_len: usize,
        seed: u64,
    ) -> Self {
        assert!(base_rate > 0.0 && multiplier >= 1.0 && crowds > 0);
        let stride = (ticks / crowds).max(1);
        Self::from_rate_fn(ticks, seed, |t| {
            // Each crowd occupies the middle of its stride so the trace
            // starts and ends calm.
            let offset = t % stride;
            let start = stride.saturating_sub(crowd_len) / 2;
            if offset >= start && offset < start + crowd_len {
                base_rate * multiplier
            } else {
                base_rate
            }
        })
    }

    /// Two flash crowds sized from a latency profile, exact counts instead
    /// of Poisson draws: calm ticks at 70 % of what the full network serves
    /// within `budget`, and `crowd_len`-tick crowds starting a quarter and
    /// two thirds of the way in at 3× what even the base rate serves — so
    /// an elastic engine runs full width, then must shed, whatever machine
    /// (or analytic law) the profile came from.
    pub fn two_crowds(
        profile: &LatencyProfile,
        budget: f64,
        ticks: usize,
        crowd_len: usize,
    ) -> Self {
        let list = profile.list();
        let calm = (profile.max_batch(list.max(), budget) * 7 / 10).max(1);
        let overload = profile.max_batch(list.min(), budget) * 3;
        let arrivals: Vec<usize> = (0..ticks)
            .map(|t| {
                let crowded = [ticks / 4, ticks * 2 / 3]
                    .iter()
                    .any(|&start| (start..start + crowd_len).contains(&t));
                if crowded {
                    overload
                } else {
                    calm
                }
            })
            .collect();
        let rates = arrivals.iter().map(|&n| n as f64).collect();
        WorkloadTrace { arrivals, rates }
    }

    /// Peak-to-mean ratio of the latent rate — the volatility figure.
    pub fn volatility(&self) -> f64 {
        let mean = self.rates.iter().sum::<f64>() / self.rates.len() as f64;
        let peak = self.rates.iter().cloned().fold(0.0f64, f64::max);
        peak / mean
    }

    /// Total arrivals.
    pub fn total(&self) -> usize {
        self.arrivals.iter().sum()
    }
}

/// Knuth Poisson sampler for small rates; normal approximation above 64.
fn poisson(rate: f64, rng: &mut SeededRng) -> usize {
    if rate > 64.0 {
        let v = rng.normal(rate as f32, rate.sqrt() as f32);
        return v.round().max(0.0) as usize;
    }
    let l = (-rate).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.uniform(0.0, 1.0) as f64;
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // numerical guard; unreachable for sane rates
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_and_sized() {
        let cfg = WorkloadConfig::default();
        let a = WorkloadTrace::generate(&cfg);
        let b = WorkloadTrace::generate(&cfg);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.arrivals.len(), cfg.ticks);
    }

    #[test]
    fn poisson_mean_tracks_rate() {
        let mut rng = SeededRng::new(1);
        for &rate in &[0.5f64, 4.0, 20.0, 100.0] {
            let n = 3000;
            let mean: f64 = (0..n).map(|_| poisson(rate, &mut rng) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - rate).abs() < rate.max(1.0) * 0.12,
                "rate {rate}: mean {mean}"
            );
        }
    }

    #[test]
    fn volatility_reaches_configured_peaks() {
        let cfg = WorkloadConfig {
            ticks: 5000,
            spike_prob: 0.002, // ~8 % of ticks inside a spike
            ..WorkloadConfig::default()
        };
        let t = WorkloadTrace::generate(&cfg);
        // Peak includes diurnal max × spike multiplier; mean is much lower.
        assert!(t.volatility() > 8.0, "volatility {}", t.volatility());
    }

    #[test]
    fn named_shapes_are_deterministic_and_shaped() {
        let d = WorkloadTrace::diurnal(1000, 4.0, 3.0, 250, 7);
        assert_eq!(
            d.arrivals,
            WorkloadTrace::diurnal(1000, 4.0, 3.0, 250, 7).arrivals
        );
        let dmax = d.rates.iter().cloned().fold(0.0f64, f64::max);
        let dmin = d.rates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((dmax - 12.0).abs() < 1e-6 && (dmin - 4.0).abs() < 1e-6);

        let s = WorkloadTrace::spike(100, 2.0, 10.0, 30, 20, 7);
        for (t, &r) in s.rates.iter().enumerate() {
            let expect = if (30..50).contains(&t) { 20.0 } else { 2.0 };
            assert_eq!(r, expect, "tick {t}");
        }

        let f = WorkloadTrace::flash_crowd(300, 2.0, 8.0, 3, 10, 7);
        let hot = f.rates.iter().filter(|&&r| r > 2.0).count();
        assert_eq!(hot, 30, "3 crowds x 10 ticks");
        // Starts and ends calm.
        assert_eq!(f.rates[0], 2.0);
        assert_eq!(*f.rates.last().unwrap(), 2.0);
    }

    #[test]
    fn two_crowds_are_sized_from_the_profile() {
        use ms_core::slice_rate::SliceRateList;
        // 1 ms a full-width sample, 20 ms budget: 20 fit at full width, 320
        // at the base rate.
        let p = LatencyProfile::quadratic(SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]), 1e-3);
        let t = WorkloadTrace::two_crowds(&p, 0.02, 60, 5);
        for (tick, &n) in t.arrivals.iter().enumerate() {
            let crowded = (15..20).contains(&tick) || (40..45).contains(&tick);
            assert_eq!(n, if crowded { 960 } else { 14 }, "tick {tick}");
        }
    }

    #[test]
    fn no_spikes_means_bounded_range() {
        let cfg = WorkloadConfig {
            spike_prob: 0.0,
            diurnal_amplitude: 2.0,
            ..WorkloadConfig::default()
        };
        let t = WorkloadTrace::generate(&cfg);
        let max = t.rates.iter().cloned().fold(0.0f64, f64::max);
        let min = t.rates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max <= cfg.base_rate * 2.0 + 1e-9);
        assert!(min >= cfg.base_rate - 1e-9);
    }
}
