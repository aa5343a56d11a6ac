//! Seeded random number generation.
//!
//! Every stochastic component in the system (weight init, data synthesis,
//! slice-rate scheduling, dropout, workload arrival) draws from a
//! [`SeededRng`] so that experiments are bit-reproducible run to run.

use rand::distributions::Distribution;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic RNG with the sampling helpers the codebase needs.
///
/// Wraps ChaCha8 (fast, portable, identical streams on every platform —
/// unlike `StdRng`, whose algorithm is unspecified across `rand` versions).
#[derive(Debug, Clone)]
pub struct SeededRng {
    inner: ChaCha8Rng,
}

impl SeededRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SeededRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child stream. Used to give each subsystem
    /// (data, init, scheduler, …) its own stream so adding draws to one does
    /// not perturb the others.
    pub fn fork(&mut self, label: u64) -> SeededRng {
        let seed = self.inner.gen::<u64>() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SeededRng::new(seed)
    }

    /// Uniform sample in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        self.inner.gen_range(lo..hi)
    }

    /// Standard normal sample (Box–Muller; two uniforms per call, second
    /// discarded for simplicity — init and noise paths are not hot).
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        let u1: f32 = self.inner.gen_range(f32::EPSILON..1.0);
        let u2: f32 = self.inner.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        mean + std * z
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Samples an index from unnormalised non-negative weights.
    ///
    /// # Panics
    /// If `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_index: empty weights");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted_index: zero total weight");
        let mut u = self.inner.gen_range(0.0..total);
        for (i, &w) in weights.iter().enumerate() {
            if u < w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Samples from any `rand` distribution.
    pub fn sample<T, D: Distribution<T>>(&mut self, dist: &D) -> T {
        dist.sample(&mut self.inner)
    }

    /// Raw u64 draw (for deriving seeds).
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeededRng::new(123);
        let mut b = SeededRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_consumption_order() {
        let mut a = SeededRng::new(5);
        let mut fork1 = a.fork(1);
        let x = fork1.next_u64();
        let mut b = SeededRng::new(5);
        let mut fork1b = b.fork(1);
        assert_eq!(x, fork1b.next_u64());
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SeededRng::new(9);
        for _ in 0..1000 {
            let v = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = SeededRng::new(10);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal(1.0, 2.0)).collect();
        let mean: f64 = samples.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
        let var: f64 = samples
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.06, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn weighted_index_tracks_weights() {
        let mut rng = SeededRng::new(11);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SeededRng::new(12);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>()); // overwhelmingly likely
    }

    #[test]
    #[should_panic(expected = "empty weights")]
    fn weighted_index_rejects_empty() {
        SeededRng::new(1).weighted_index(&[]);
    }
}
