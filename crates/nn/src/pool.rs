//! Pooling layers. Channel-count agnostic, so they need no slicing logic —
//! they simply process however many channels the sliced producer emitted.

use crate::layer::{Layer, Mode, Param};
use ms_tensor::conv::{
    global_avgpool_backward, global_avgpool_forward, maxpool_backward, maxpool_forward, ConvGeom,
};
use ms_tensor::{par, Tensor};
use std::ops::Range;

/// 2-D max pooling with square window and stride.
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    cache: Option<(ms_tensor::Shape, ConvGeom)>,
    /// Argmax of the last Train forward (grow-only; inference never fills it).
    argmax: Vec<u32>,
}

impl MaxPool2d {
    /// Creates a max-pool layer (`kernel`, `stride`), no padding.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0);
        MaxPool2d {
            kernel,
            stride,
            cache: None,
            argmax: Vec::new(),
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "maxpool expects [B,C,H,W]");
        let (batch, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let geom = ConvGeom {
            h,
            w,
            kh: self.kernel,
            kw: self.kernel,
            stride: self.stride,
            pad: 0,
        };
        assert!(geom.is_valid(), "maxpool window larger than input");
        let per_sample = c * geom.out_len();
        let mut y = Tensor::pooled_zeros([batch, c, geom.out_h(), geom.out_w()]);
        if mode == Mode::Train {
            self.argmax.resize(batch * per_sample, 0);
            self.cache = Some((x.shape().clone(), geom));
        }
        if mode == Mode::Train {
            // Two fixed parts of the batch, each into its own rows.
            let mid = par::mid(batch);
            let (y0, y1) = y.data_mut().split_at_mut(mid * per_sample);
            let (arg0, arg1) = self.argmax.split_at_mut(mid * per_sample);
            let pool = |samples: Range<usize>, y: &mut [f32], argmax: &mut [u32]| {
                let rows = y
                    .chunks_exact_mut(per_sample)
                    .zip(argmax.chunks_exact_mut(per_sample));
                for (s, (y, argmax)) in samples.zip(rows) {
                    maxpool_forward(x.row(s), c, &geom, y, Some(argmax));
                }
            };
            par::join(|| pool(0..mid, y0, arg0), || pool(mid..batch, y1, arg1));
        } else {
            for s in 0..batch {
                maxpool_forward(x.row(s), c, &geom, y.row_mut(s), None);
            }
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (shape, geom) = self.cache.take().expect("backward before Train forward");
        let batch = shape.dim(0);
        let c = shape.dim(1);
        let out_len = geom.out_len();
        let mut dx = Tensor::pooled_zeros(shape);
        let mid = par::mid(batch);
        let (dx0, dx1) = dx.data_mut().split_at_mut(mid * c * geom.h * geom.w);
        let argmax = &self.argmax;
        let scatter = |samples: Range<usize>, dx: &mut [f32]| {
            for (s, dx) in samples.zip(dx.chunks_exact_mut(c * geom.h * geom.w)) {
                let argmax = &argmax[s * c * out_len..(s + 1) * c * out_len];
                maxpool_backward(dy.row(s), argmax, c, &geom, dx);
            }
        };
        par::join(|| scatter(0..mid, dx0), || scatter(mid..batch, dx1));
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &str {
        "maxpool2d"
    }
}

/// Global average pooling: `[B, C, H, W] → [B, C]`.
#[derive(Default)]
pub struct GlobalAvgPool {
    cache: Option<(ms_tensor::Shape, usize)>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { cache: None }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 4, "global avgpool expects [B,C,H,W]");
        let (batch, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let hw = h * w;
        let mut y = Tensor::pooled_zeros([batch, c]);
        for s in 0..batch {
            global_avgpool_forward(x.row(s), c, hw, y.row_mut(s));
        }
        if mode == Mode::Train {
            self.cache = Some((x.shape().clone(), hw));
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (shape, hw) = self.cache.take().expect("backward before Train forward");
        let batch = shape.dim(0);
        let c = shape.dim(1);
        let mut dx = Tensor::pooled_zeros(shape);
        for s in 0..batch {
            global_avgpool_backward(dy.row(s), c, hw, dx.row_mut(s));
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &str {
        "global_avgpool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_grads;
    use ms_tensor::SeededRng;

    #[test]
    fn maxpool_shapes_and_grads() {
        let mut rng = SeededRng::new(1);
        let mut l = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            [2, 3, 4, 4],
            (0..96).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        let y = l.forward(&x, Mode::Infer);
        assert_eq!(y.dims(), &[2, 3, 2, 2]);
        assert_grads(&mut l, &x, &mut rng);
    }

    #[test]
    fn global_avgpool_shapes_and_grads() {
        let mut rng = SeededRng::new(2);
        let mut l = GlobalAvgPool::new();
        let x = Tensor::from_vec(
            [2, 4, 3, 3],
            (0..72).map(|_| rng.uniform(-1.0, 1.0)).collect(),
        )
        .unwrap();
        let y = l.forward(&x, Mode::Infer);
        assert_eq!(y.dims(), &[2, 4]);
        assert_grads(&mut l, &x, &mut rng);
    }
}
