//! Batch loaders: shuffling image batches with crop/flip augmentation, and
//! the language-modelling batchifier (PTB convention: the stream is cut into
//! `B` parallel substreams and windows of `T` steps are consumed in order).

use crate::synth_images::ImageDataset;
use ms_tensor::{SeededRng, Tensor};

/// Shuffling mini-batch iterator over an [`ImageDataset`]'s training split
/// with the standard CIFAR augmentation (pad-4 + random crop, horizontal
/// flip) scaled to the synthetic image size (pad = size/8).
pub struct ImageBatcher<'a> {
    ds: &'a ImageDataset,
    batch_size: usize,
    augment: bool,
    rng: SeededRng,
}

impl<'a> ImageBatcher<'a> {
    /// Creates the batcher with its own RNG stream.
    pub fn new(
        ds: &'a ImageDataset,
        batch_size: usize,
        augment: bool,
        rng: &mut SeededRng,
    ) -> Self {
        assert!(batch_size > 0);
        ImageBatcher {
            ds,
            batch_size,
            augment,
            rng: rng.fork(0xBA7C),
        }
    }

    /// Produces one epoch of `(x, labels)` batches in a fresh shuffled order.
    pub fn epoch(&mut self) -> Vec<(Tensor, Vec<usize>)> {
        let n = self.ds.train_y.len();
        let mut order: Vec<usize> = (0..n).collect();
        self.rng.shuffle(&mut order);
        let cfg = self.ds.config();
        let (c, s) = (cfg.channels, cfg.size);
        let img_len = self.ds.image_len();
        let pad = (s / 8).max(1);

        let mut batches = Vec::with_capacity(n.div_ceil(self.batch_size));
        for chunk in order.chunks(self.batch_size) {
            let bs = chunk.len();
            let mut xs = vec![0.0f32; bs * img_len];
            let mut ys = Vec::with_capacity(bs);
            for (bi, &idx) in chunk.iter().enumerate() {
                let src = &self.ds.train_x[idx * img_len..(idx + 1) * img_len];
                let dst = &mut xs[bi * img_len..(bi + 1) * img_len];
                if self.augment {
                    let dy = self.rng.below(2 * pad + 1) as isize - pad as isize;
                    let dx = self.rng.below(2 * pad + 1) as isize - pad as isize;
                    let flip = self.rng.chance(0.5);
                    augment_into(src, dst, c, s, dy, dx, flip);
                } else {
                    dst.copy_from_slice(src);
                }
                ys.push(self.ds.train_y[idx]);
            }
            let x = Tensor::from_vec([bs, c, s, s], xs).expect("batch shape");
            batches.push((x, ys));
        }
        batches
    }
}

/// Shift-by-(dy,dx) with zero fill (equivalent to pad+crop) and optional
/// horizontal flip.
fn augment_into(
    src: &[f32],
    dst: &mut [f32],
    channels: usize,
    size: usize,
    dy: isize,
    dx: isize,
    flip: bool,
) {
    for c in 0..channels {
        let sp = &src[c * size * size..(c + 1) * size * size];
        let dp = &mut dst[c * size * size..(c + 1) * size * size];
        for y in 0..size {
            let sy = y as isize + dy;
            for x in 0..size {
                let sx0 = if flip { size - 1 - x } else { x };
                let sx = sx0 as isize + dx;
                dp[y * size + x] =
                    if sy >= 0 && (sy as usize) < size && sx >= 0 && (sx as usize) < size {
                        sp[sy as usize * size + sx as usize]
                    } else {
                        0.0
                    };
            }
        }
    }
}

/// PTB-style LM batchifier: cuts a token stream into `batch_size` parallel
/// substreams, then yields `(x: [B, T], y: [B·T])` windows where `y` is the
/// next-token target aligned row-major with `x`.
pub struct TextBatcher {
    /// `[B, stream_len]` token matrix.
    streams: Vec<Vec<usize>>,
    seq_len: usize,
}

impl TextBatcher {
    /// Builds the batchifier. Drops the tail tokens that do not fill the
    /// `B × L` matrix (standard convention).
    pub fn new(tokens: &[usize], batch_size: usize, seq_len: usize) -> Self {
        assert!(batch_size > 0 && seq_len > 0);
        let stream_len = tokens.len() / batch_size;
        assert!(
            stream_len > seq_len,
            "stream too short: {} tokens / batch {batch_size} vs seq {seq_len}",
            tokens.len()
        );
        let streams = (0..batch_size)
            .map(|b| tokens[b * stream_len..(b + 1) * stream_len].to_vec())
            .collect();
        TextBatcher { streams, seq_len }
    }

    /// Number of `(x, y)` windows per epoch.
    pub fn windows(&self) -> usize {
        (self.streams[0].len() - 1) / self.seq_len
    }

    /// Produces all windows of one epoch, in stream order.
    pub fn epoch(&self) -> Vec<(Tensor, Vec<usize>)> {
        let b = self.streams.len();
        let t = self.seq_len;
        let mut out = Vec::with_capacity(self.windows());
        for w in 0..self.windows() {
            let start = w * t;
            let mut xs = Vec::with_capacity(b * t);
            let mut ys = Vec::with_capacity(b * t);
            for stream in &self.streams {
                for i in 0..t {
                    xs.push(stream[start + i] as f32);
                    ys.push(stream[start + i + 1]);
                }
            }
            let x = Tensor::from_vec([b, t], xs).expect("window shape");
            out.push((x, ys));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth_images::{ImageDataset, ImageDatasetConfig};

    fn ds() -> ImageDataset {
        ImageDataset::generate(ImageDatasetConfig {
            classes: 4,
            channels: 3,
            size: 8,
            train: 50,
            test: 10,
            noise: 0.1,
            distractor: 0.1,
            seed: 2,
        })
    }

    #[test]
    fn image_epoch_covers_everything_once() {
        let ds = ds();
        let mut rng = SeededRng::new(1);
        let mut b = ImageBatcher::new(&ds, 16, false, &mut rng);
        let batches = b.epoch();
        assert_eq!(batches.len(), 4); // 16+16+16+2
        let total: usize = batches.iter().map(|(_, y)| y.len()).sum();
        assert_eq!(total, 50);
        let mut label_counts = [0usize; 4];
        for (_, ys) in &batches {
            for &y in ys {
                label_counts[y] += 1;
            }
        }
        assert_eq!(label_counts.iter().sum::<usize>(), 50);
    }

    #[test]
    fn unaugmented_batches_reproduce_source_rows() {
        let ds = ds();
        let mut rng = SeededRng::new(2);
        let mut b = ImageBatcher::new(&ds, 10, false, &mut rng);
        let batches = b.epoch();
        let img_len = ds.image_len();
        // Every emitted row must be byte-identical to some source image.
        let (x0, y0) = &batches[0];
        let row = &x0.data()[..img_len];
        let found = (0..ds.train_y.len())
            .any(|i| ds.train_y[i] == y0[0] && &ds.train_x[i * img_len..(i + 1) * img_len] == row);
        assert!(found);
    }

    #[test]
    fn augmentation_changes_pixels_but_not_labels() {
        let ds = ds();
        let mut rng = SeededRng::new(3);
        let mut plain = ImageBatcher::new(&ds, 50, false, &mut rng);
        let mut rng2 = SeededRng::new(3);
        let mut aug = ImageBatcher::new(&ds, 50, true, &mut rng2);
        let (px, py) = &plain.epoch()[0];
        let (ax, ay) = &aug.epoch()[0];
        assert_eq!(py, ay); // same RNG stream → same shuffle order
        assert_ne!(px.data(), ax.data());
    }

    #[test]
    fn flip_is_involutive() {
        let src: Vec<f32> = (0..9).map(|v| v as f32).collect();
        let mut once = vec![0.0; 9];
        augment_into(&src, &mut once, 1, 3, 0, 0, true);
        let mut twice = vec![0.0; 9];
        augment_into(&once, &mut twice, 1, 3, 0, 0, true);
        assert_eq!(src, twice);
    }

    #[test]
    fn text_windows_align_targets() {
        let tokens: Vec<usize> = (0..100).map(|i| i % 7).collect();
        let tb = TextBatcher::new(&tokens, 2, 5);
        let wins = tb.epoch();
        assert_eq!(wins.len(), tb.windows());
        let (x, y) = &wins[0];
        assert_eq!(x.dims(), &[2, 5]);
        assert_eq!(y.len(), 10);
        // Target of position (b, i) is the stream's next token.
        for b in 0..2 {
            for i in 0..4 {
                // within the window, y[b*5+i] == x[b, i+1]
                assert_eq!(y[b * 5 + i], x.at(&[b, i + 1]) as usize);
            }
        }
    }

    #[test]
    #[should_panic(expected = "stream too short")]
    fn text_batcher_rejects_tiny_streams() {
        let tokens = vec![0usize; 10];
        let _ = TextBatcher::new(&tokens, 4, 5);
    }
}
