//! Procedural class-conditional image dataset — the CIFAR-10 stand-in.
//!
//! Each class is defined by a *prototype*: per-channel sinusoidal gratings
//! with class-specific orientation, frequency and phase, plus a class colour
//! bias. A sample blends its class prototype with additive Gaussian noise, a
//! random spatial shift of the grating phase, per-sample contrast jitter,
//! and a distractor grating from a random *other* class at low amplitude.
//!
//! Why this preserves the paper's behaviour: accuracy on this task is
//! capacity-bound the same way natural-image accuracy is — very narrow
//! models can separate the coarse colour statistics (so the base network is
//! useful), while fine class distinctions need enough channels to match
//! multiple orientation/frequency detectors (so wider subnets keep
//! improving). That yields the monotone, saturating accuracy-vs-width curve
//! every experiment in §5.3 is built on.

use ms_tensor::{SeededRng, Tensor};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic image dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ImageDatasetConfig {
    /// Number of classes.
    pub classes: usize,
    /// Channels (3 for the CIFAR analogue).
    pub channels: usize,
    /// Image side length (square images).
    pub size: usize,
    /// Training samples.
    pub train: usize,
    /// Test samples.
    pub test: usize,
    /// Additive noise standard deviation (difficulty knob).
    pub noise: f32,
    /// Amplitude of the distractor grating from another class.
    pub distractor: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ImageDatasetConfig {
    fn default() -> Self {
        ImageDatasetConfig {
            classes: 10,
            channels: 3,
            size: 16,
            train: 2000,
            test: 500,
            noise: 0.35,
            distractor: 0.35,
            seed: 7,
        }
    }
}

/// Per-class generative parameters.
#[derive(Debug, Clone)]
struct ClassProto {
    /// Per channel: (orientation cos, orientation sin, frequency, phase).
    gratings: Vec<(f32, f32, f32, f32)>,
    /// Per channel colour bias.
    bias: Vec<f32>,
}

/// A generated dataset, split into train and test.
#[derive(Debug, Clone)]
pub struct ImageDataset {
    cfg: ImageDatasetConfig,
    protos: Vec<ClassProto>,
    /// Flattened train images `[n, C·S·S]` and labels.
    pub train_x: Vec<f32>,
    /// Train labels.
    pub train_y: Vec<usize>,
    /// Flattened test images.
    pub test_x: Vec<f32>,
    /// Test labels.
    pub test_y: Vec<usize>,
}

impl ImageDataset {
    /// Generates the dataset deterministically from the config seed.
    pub fn generate(cfg: ImageDatasetConfig) -> Self {
        assert!(cfg.classes >= 2 && cfg.channels >= 1 && cfg.size >= 4);
        let mut rng = SeededRng::new(cfg.seed);
        let mut proto_rng = rng.fork(1);
        let protos: Vec<ClassProto> = (0..cfg.classes)
            .map(|k| {
                // Orientations spread around the circle with jitter so
                // classes are distinct but not axis-aligned.
                let base_angle = std::f32::consts::PI * k as f32 / cfg.classes as f32;
                let gratings = (0..cfg.channels)
                    .map(|_| {
                        let angle = base_angle + proto_rng.uniform(-0.15, 0.15);
                        let freq = proto_rng.uniform(1.0, 3.0) * 2.0 * std::f32::consts::PI
                            / cfg.size as f32;
                        let phase = proto_rng.uniform(0.0, std::f32::consts::TAU);
                        (angle.cos(), angle.sin(), freq, phase)
                    })
                    .collect();
                let bias = (0..cfg.channels)
                    .map(|_| proto_rng.uniform(-0.4, 0.4))
                    .collect();
                ClassProto { gratings, bias }
            })
            .collect();

        let mut train_rng = rng.fork(2);
        let mut test_rng = rng.fork(3);
        let mut ds = ImageDataset {
            protos,
            train_x: Vec::with_capacity(cfg.train * cfg.channels * cfg.size * cfg.size),
            train_y: Vec::with_capacity(cfg.train),
            test_x: Vec::with_capacity(cfg.test * cfg.channels * cfg.size * cfg.size),
            test_y: Vec::with_capacity(cfg.test),
            cfg,
        };
        for i in 0..ds.cfg.train {
            let label = i % ds.cfg.classes;
            let img = ds.render(label, &mut train_rng);
            ds.train_x.extend_from_slice(&img);
            ds.train_y.push(label);
        }
        for i in 0..ds.cfg.test {
            let label = i % ds.cfg.classes;
            let img = ds.render(label, &mut test_rng);
            ds.test_x.extend_from_slice(&img);
            ds.test_y.push(label);
        }
        ds
    }

    /// The configuration used.
    pub fn config(&self) -> &ImageDatasetConfig {
        &self.cfg
    }

    /// Elements per image (`C·S·S`).
    pub fn image_len(&self) -> usize {
        self.cfg.channels * self.cfg.size * self.cfg.size
    }

    /// Renders one sample of `label`.
    fn render(&self, label: usize, rng: &mut SeededRng) -> Vec<f32> {
        let cfg = &self.cfg;
        let s = cfg.size;
        let mut img = vec![0.0f32; cfg.channels * s * s];
        let proto = &self.protos[label];
        let shift_x = rng.uniform(0.0, std::f32::consts::TAU);
        let shift_y = rng.uniform(0.0, std::f32::consts::TAU);
        let contrast = rng.uniform(0.8, 1.2);
        // Distractor class (any other).
        let other = {
            let o = rng.below(cfg.classes - 1);
            if o >= label {
                o + 1
            } else {
                o
            }
        };
        let distractor = &self.protos[other];
        // The noise is the image's last draw, one normal per pixel in
        // layout order, so one bulk fill draws the same values; the
        // gratings are added on top of it.
        rng.fill_normal(&mut img, 0.0, cfg.noise);
        for c in 0..cfg.channels {
            let (dx, dy, f, phase) = proto.gratings[c];
            let (ddx, ddy, df, dphase) = distractor.gratings[c];
            let bias = proto.bias[c];
            let plane = &mut img[c * s * s..(c + 1) * s * s];
            for y in 0..s {
                for x in 0..s {
                    let u = x as f32;
                    let v = y as f32;
                    let main = (f * (dx * u + dy * v) + phase + shift_x).sin() * contrast;
                    let distract =
                        (df * (ddx * u + ddy * v) + dphase + shift_y).sin() * cfg.distractor;
                    plane[y * s + x] += main + distract + bias;
                }
            }
        }
        img
    }

    /// Copies test images `[n, C, S, S]` into a tensor (no augmentation).
    pub fn test_tensor(&self) -> (Tensor, Vec<usize>) {
        let n = self.test_y.len();
        let t = Tensor::from_vec(
            [n, self.cfg.channels, self.cfg.size, self.cfg.size],
            self.test_x.clone(),
        )
        .expect("test buffer shape");
        (t, self.test_y.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ImageDatasetConfig {
        ImageDatasetConfig {
            classes: 4,
            channels: 3,
            size: 8,
            train: 80,
            test: 40,
            noise: 0.2,
            distractor: 0.2,
            seed: 1,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ImageDataset::generate(small());
        let b = ImageDataset::generate(small());
        assert_eq!(a.train_x, b.train_x);
        assert_eq!(a.test_y, b.test_y);
    }

    #[test]
    fn sizes_and_label_balance() {
        let ds = ImageDataset::generate(small());
        assert_eq!(ds.train_y.len(), 80);
        assert_eq!(ds.train_x.len(), 80 * ds.image_len());
        // Round-robin labels → perfectly balanced.
        for k in 0..4 {
            assert_eq!(ds.train_y.iter().filter(|&&y| y == k).count(), 20);
        }
    }

    #[test]
    fn classes_are_statistically_distinct() {
        // Mean image of one class must differ from another class's mean far
        // more than within-class sampling noise — the signal a classifier
        // learns from.
        let ds = ImageDataset::generate(small());
        let len = ds.image_len();
        let mean_of = |k: usize| -> Vec<f32> {
            let mut acc = vec![0.0f32; len];
            let mut n = 0;
            for (i, &y) in ds.train_y.iter().enumerate() {
                if y == k {
                    for (a, &v) in acc.iter_mut().zip(&ds.train_x[i * len..(i + 1) * len]) {
                        *a += v;
                    }
                    n += 1;
                }
            }
            acc.iter_mut().for_each(|v| *v /= n as f32);
            acc
        };
        let m0 = mean_of(0);
        let m1 = mean_of(1);
        let dist: f32 = m0
            .iter()
            .zip(&m1)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(dist > 1.0, "class means too close: {dist}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = ImageDataset::generate(small());
        let mut cfg = small();
        cfg.seed = 2;
        let b = ImageDataset::generate(cfg);
        assert_ne!(a.train_x, b.train_x);
    }

    #[test]
    fn test_tensor_shape() {
        let ds = ImageDataset::generate(small());
        let (t, y) = ds.test_tensor();
        assert_eq!(t.dims(), &[40, 3, 8, 8]);
        assert_eq!(y.len(), 40);
    }
}
