//! Flatten: `[B, …] → [B, prod(…)]`.

use crate::layer::{Layer, Mode, Param};
use ms_tensor::Tensor;

/// Flattens everything after the batch axis. Shape bookkeeping only — the
/// buffer is shared layout-wise, so this is a reshape.
#[derive(Default)]
pub struct Flatten {
    in_shape: Option<ms_tensor::Shape>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { in_shape: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward_owned(x.pooled_clone(), mode)
    }

    fn forward_owned(&mut self, x: Tensor, mode: Mode) -> Tensor {
        let batch = x.dims().first().copied().unwrap_or(1);
        let rest = x.numel() / batch.max(1);
        if mode == Mode::Train {
            self.in_shape = Some(x.shape().clone());
        }
        x.reshape([batch, rest]).expect("same numel")
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_owned(dy.pooled_clone())
    }

    fn backward_owned(&mut self, dy: Tensor) -> Tensor {
        let shape = self.in_shape.take().expect("backward before Train forward");
        dy.reshape(shape).expect("same numel")
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut l = Flatten::new();
        let x = Tensor::zeros([2, 3, 4, 5]);
        let y = l.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 60]);
        let dx = l.backward(&y);
        assert_eq!(dx.dims(), &[2, 3, 4, 5]);
    }
}
