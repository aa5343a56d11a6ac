//! Inverted dropout, in place on the tensor it is handed.
//!
//! Train-mode forward zeroes each element with probability `p` and scales
//! survivors by `1/(1-p)`, so inference is a plain identity. The mask is
//! never stored: each call draws one 64-bit key from a layer-owned seeded
//! RNG stream (keeping whole-experiment determinism) and element `i`'s fate
//! is a counter-based function of `(key, i)`, which `backward` recomputes
//! from the key.

use crate::layer::{BoxedLayer, Layer, Mode, Param};
use ms_tensor::{SeededRng, Tensor};

/// Inverted-dropout layer.
pub struct Dropout {
    p: f64,
    rng: SeededRng,
    /// Mask key of the last Train forward, until `backward` consumes it.
    key: Option<u64>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p ∈ [0, 1)`.
    pub fn new(p: f64, rng: &mut SeededRng) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0,1), got {p}"
        );
        Dropout {
            p,
            rng: rng.fork(0xD20),
            key: None,
        }
    }

    /// The drop probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Multiplies `x` by the mask of `key`, in place: elements `2j` and
    /// `2j + 1` take the low and high 32 bits of `splitmix64(key + j)` and
    /// are dropped when their lane falls below `p·2³²`.
    fn apply_mask(&self, key: u64, x: &mut [f32]) {
        let _span = ms_tensor::span!("nn.dropout");
        let threshold = (self.p * 4_294_967_296.0) as u64;
        let keep = 1.0 / (1.0 - self.p) as f32;
        let scale = |lane: u64| if lane < threshold { 0.0 } else { keep };
        let mut pairs = x.chunks_exact_mut(2);
        let mut counter = key;
        for pair in pairs.by_ref() {
            let bits = splitmix64(counter);
            pair[0] *= scale(bits & 0xFFFF_FFFF);
            pair[1] *= scale(bits >> 32);
            counter = counter.wrapping_add(1);
        }
        if let [last] = pairs.into_remainder() {
            *last *= scale(splitmix64(counter) & 0xFFFF_FFFF);
        }
    }
}

/// The splitmix64 output function (Steele, Lea & Flood 2014): a bijective
/// mixer whose outputs over consecutive inputs pass BigCrush.
#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward_owned(x.pooled_clone(), mode)
    }

    fn forward_owned(&mut self, mut x: Tensor, mode: Mode) -> Tensor {
        self.key = None;
        if mode == Mode::Train && self.p > 0.0 {
            let key = self.rng.next_u64();
            self.apply_mask(key, x.data_mut());
            self.key = Some(key);
        }
        x
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_owned(dy.pooled_clone())
    }

    fn backward_owned(&mut self, mut dy: Tensor) -> Tensor {
        // No key: the `p == 0` identity.
        if let Some(key) = self.key.take() {
            self.apply_mask(key, dy.data_mut());
        }
        dy
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn replica(&self) -> Option<BoxedLayer> {
        Some(Box::new(Dropout {
            p: self.p,
            rng: self.rng.clone(),
            key: None,
        }))
    }

    fn name(&self) -> &str {
        "dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_is_identity() {
        let mut rng = SeededRng::new(1);
        let mut l = Dropout::new(0.5, &mut rng);
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(l.forward(&x, Mode::Infer), x);
    }

    #[test]
    fn train_scales_survivors() {
        let mut rng = SeededRng::new(2);
        let mut l = Dropout::new(0.5, &mut rng);
        let x = Tensor::full([1000], 1.0);
        let y = l.forward(&x, Mode::Train);
        let survivors = y.data().iter().filter(|&&v| v != 0.0).count();
        assert!((300..700).contains(&survivors), "{survivors}");
        assert!(y.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        // Expected value preserved.
        assert!((y.mean() - 1.0).abs() < 0.1);
    }

    /// `backward` keeps no mask tensor: it rebuilds the forward's mask from
    /// the key alone, odd lengths included.
    #[test]
    fn backward_regenerates_the_mask_from_the_key() {
        let mut rng = SeededRng::new(3);
        let mut l = Dropout::new(0.3, &mut rng);
        let x = Tensor::full([101], 1.0);
        let y = l.forward(&x, Mode::Train);
        let dy = Tensor::full([101], 1.0);
        let dx = l.backward(&dy);
        // dx must be zero exactly where y is zero and scaled elsewhere.
        assert!(y.data().contains(&0.0) && y.data().iter().any(|&v| v != 0.0));
        for (a, b) in y.data().iter().zip(dx.data()) {
            assert_eq!(a, b);
        }
        assert!(l.key.is_none(), "backward consumes the key");
    }

    #[test]
    fn same_seed_same_masks_and_consecutive_calls_differ() {
        let x = Tensor::full([256], 1.0);
        let mut layers = [7u64, 7].map(|seed| Dropout::new(0.5, &mut SeededRng::new(seed)));
        let [first_a, second_a] = [0, 1].map(|_| layers[0].forward(&x, Mode::Train));
        let [first_b, second_b] = [0, 1].map(|_| layers[1].forward(&x, Mode::Train));
        assert_eq!(first_a, first_b);
        assert_eq!(second_a, second_b);
        assert_ne!(first_a, second_a, "each call draws a fresh key");
    }

    /// Drops are Bernoulli(p): over 1e5 elements the kept share is within
    /// three standard deviations of `1 − p`.
    #[test]
    fn keep_rate_is_within_three_sigma() {
        let n = 100_000usize;
        let x = Tensor::full([n], 1.0);
        for (seed, p) in [(11u64, 0.1f64), (12, 0.3), (13, 0.5)] {
            let mut l = Dropout::new(p, &mut SeededRng::new(seed));
            let y = l.forward(&x, Mode::Train);
            let kept = y.data().iter().filter(|&&v| v != 0.0).count() as f64;
            let sigma = (n as f64 * p * (1.0 - p)).sqrt();
            let expect = n as f64 * (1.0 - p);
            assert!(
                (kept - expect).abs() <= 3.0 * sigma,
                "p = {p}: kept {kept}, expected {expect} ± {:.0}",
                3.0 * sigma
            );
        }
    }

    #[test]
    fn zero_p_is_identity_in_train() {
        let mut rng = SeededRng::new(4);
        let mut l = Dropout::new(0.0, &mut rng);
        let x = Tensor::from_slice(&[5.0, -2.0]);
        assert_eq!(l.forward(&x, Mode::Train), x);
        assert_eq!(l.backward(&x), x);
    }
}
