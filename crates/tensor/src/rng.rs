//! Seeded random number generation.
//!
//! Every stochastic component in the system (weight init, data synthesis,
//! slice-rate scheduling, dropout, workload arrival) draws from a
//! [`SeededRng`] so that experiments are bit-reproducible run to run.

use rand::distributions::Distribution;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Elements per round of a bulk fill: its scratch lives on the stack.
const FILL_CHUNK: usize = 256;

/// `2π`, as `normal` has always computed it (`2.0 * PI`, exact in `f32`).
const TURN: f32 = 2.0 * std::f32::consts::PI;

/// The `f32` in `[lo, hi)` that the vendored `rand`'s `gen_range(lo..hi)`
/// makes of the word it draws: the top 24 bits as a unit float, scaled, and
/// a result that rounds up to `hi` mapped to `lo`. Every uniform and normal
/// of [`SeededRng`], one at a time or in bulk, goes through it.
#[inline(always)]
fn in_range(word: u32, lo: f32, hi: f32) -> f32 {
    let unit = (word >> 8) as f32 * (1.0 / (1u32 << 24) as f32);
    let v = lo + (hi - lo) * unit;
    if v >= hi {
        lo
    } else {
        v
    }
}

/// The Box–Muller variate from `ln u₁` and `cos 2πu₂`.
#[inline(always)]
fn box_muller(ln_u1: f32, cos_u2: f32, mean: f32, std: f32) -> f32 {
    mean + std * ((-2.0 * ln_u1).sqrt() * cos_u2)
}

/// `cos` of every angle of `theta` (each in `[0, 2π)`) in place, called
/// path by path. glibc's `cosf` takes one path below 0.75 and, above it,
/// one of two by the parity of the nearest multiple of π/2: on random angles
/// its branches are coin tosses. Called on one path's angles after the
/// other's, they are predicted, which halves the cost of the calls. Only
/// the order of the calls changes.
fn cos_by_path(theta: &mut [f32]) {
    use std::f32::consts::FRAC_PI_4;
    // One bit per angle and path, 64 angles to a word.
    let mut paths = [[0u64; FILL_CHUNK / 64]; 3];
    for (w, angles) in theta.chunks(64).enumerate() {
        let (mut small, mut odd) = (0u64, 0u64);
        for (j, &t) in angles.iter().enumerate() {
            small |= u64::from(t < 0.75) << j;
            let odd_quadrant = (FRAC_PI_4..3.0 * FRAC_PI_4).contains(&t)
                | (5.0 * FRAC_PI_4..7.0 * FRAC_PI_4).contains(&t);
            odd |= u64::from(odd_quadrant) << j;
        }
        paths[0][w] = small;
        paths[1][w] = u64::MAX >> (64 - angles.len()) & !small & !odd;
        paths[2][w] = odd;
    }
    for path in &paths {
        for (w, &bits) in path.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let t = &mut theta[w * 64 + bits.trailing_zeros() as usize];
                *t = t.cos();
                bits &= bits - 1;
            }
        }
    }
}

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
        assert!(lo < hi, "cannot sample empty range");
        in_range(self.inner.next_u32(), lo, hi)
    }

    /// Fills `out` with what as many [`uniform`](Self::uniform) calls would
    /// return, in order, drawing the stream in bulk.
    pub fn fill_uniform(&mut self, out: &mut [f32], lo: f32, hi: f32) {
        let mut words = [0u32; FILL_CHUNK];
        for chunk in out.chunks_mut(FILL_CHUNK) {
            assert!(lo < hi, "cannot sample empty range");
            let words = &mut words[..chunk.len()];
            self.inner.fill_u32(words);
            for (v, &w) in chunk.iter_mut().zip(words.iter()) {
                *v = in_range(w, lo, hi);
            }
        }
    }

    /// Normal sample by Box–Muller: two uniforms per call, the second
    /// variate discarded. Weight init draws millions of these
    /// ([`fill_normal`](Self::fill_normal)), the rest of the codebase few.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        let u1 = in_range(self.inner.next_u32(), f32::EPSILON, 1.0);
        let u2 = in_range(self.inner.next_u32(), 0.0, 1.0);
        box_muller(u1.ln(), (TURN * u2).cos(), mean, std)
    }

    /// Fills `out` with what as many [`normal`](Self::normal) calls would
    /// return, in order, bit for bit. Per chunk: the uniforms are drawn in
    /// bulk in the order `normal` takes them (u₁ then u₂ per element), `ln`
    /// runs over the chunk, then `cos` grouped by the branch libm's `cosf`
    /// takes (`cos_by_path`), and `box_muller` combines them. Every
    /// element goes through the same `logf` and `cosf` on the same argument
    /// as in `normal`; only the order of the calls differs.
    pub fn fill_normal(&mut self, out: &mut [f32], mean: f32, std: f32) {
        let mut words = [0u32; 2 * FILL_CHUNK];
        let mut ln_u1 = [0f32; FILL_CHUNK];
        let mut cos_u2 = [0f32; FILL_CHUNK];
        for chunk in out.chunks_mut(FILL_CHUNK) {
            let n = chunk.len();
            let (words, ln_u1, cos_u2) = (&mut words[..2 * n], &mut ln_u1[..n], &mut cos_u2[..n]);
            self.inner.fill_u32(words);
            for ((pair, l), c) in words
                .chunks_exact(2)
                .zip(ln_u1.iter_mut())
                .zip(cos_u2.iter_mut())
            {
                *l = in_range(pair[0], f32::EPSILON, 1.0);
                *c = TURN * in_range(pair[1], 0.0, 1.0);
            }
            for l in ln_u1.iter_mut() {
                *l = l.ln();
            }
            cos_by_path(cos_u2);
            for ((v, &l), &c) in chunk.iter_mut().zip(ln_u1.iter()).zip(cos_u2.iter()) {
                *v = box_muller(l, c, mean, std);
            }
        }
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
