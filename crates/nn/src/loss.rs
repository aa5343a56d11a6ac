//! Loss functions.
//!
//! [`CrossEntropy`] fuses log-softmax and negative log-likelihood; its
//! gradient `softmax(z) − onehot(y)` is returned alongside the scalar loss,
//! already divided by the batch size (mean reduction), so callers feed it
//! straight into `Layer::backward`. Given the logits by value
//! ([`CrossEntropy::forward_owned`]), it writes that gradient over them.

use ms_tensor::{ops, Tensor};

/// Mean cross-entropy over a batch of logits.
#[derive(Debug, Default, Clone, Copy)]
pub struct CrossEntropy;

impl CrossEntropy {
    /// Computes `(mean_loss, dlogits)` for `logits: [B, K]` (or `[B·T, K]`)
    /// and integer class `targets` (length `B`).
    ///
    /// # Panics
    /// If `targets.len()` does not divide the logits or a target is out of
    /// range.
    pub fn forward(&self, logits: &Tensor, targets: &[usize]) -> (f64, Tensor) {
        self.forward_owned(logits.pooled_clone(), targets)
    }

    /// [`CrossEntropy::forward`] on logits it owns: the gradient is written
    /// over them.
    pub fn forward_owned(&self, logits: Tensor, targets: &[usize]) -> (f64, Tensor) {
        let k = *logits.dims().last().expect("rank >= 1");
        let rows = logits.numel() / k;
        assert_eq!(rows, targets.len(), "target count vs logit rows");

        let _span = ms_tensor::span!("loss.xent");
        let mut grad = logits;
        ops::softmax_rows_inplace(grad.data_mut(), k);

        // grad = (softmax - onehot) / rows
        let mut loss = 0.0f64;
        for (row, &t) in grad.data_mut().chunks_exact_mut(k).zip(targets) {
            assert!(t < k, "target {t} out of range for {k} classes");
            loss -= (row[t].max(1e-12) as f64).ln();
            row[t] -= 1.0;
        }
        grad.scale(1.0 / rows as f32);
        (loss / rows as f64, grad)
    }

    /// Loss only (evaluation path, no gradient allocation).
    pub fn loss_only(&self, logits: &Tensor, targets: &[usize]) -> f64 {
        let k = *logits.dims().last().expect("rank >= 1");
        let rows = logits.numel() / k;
        assert_eq!(rows, targets.len());
        let mut scratch = vec![0.0f32; k];
        let mut loss = 0.0f64;
        for (row, &t) in targets.iter().enumerate() {
            scratch.copy_from_slice(&logits.data()[row * k..(row + 1) * k]);
            ops::log_softmax_rows_inplace(&mut scratch, k);
            loss -= scratch[t] as f64;
        }
        loss / rows as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_tensor::SeededRng;

    #[test]
    fn uniform_logits_give_log_k() {
        let logits = Tensor::zeros([4, 10]);
        let (loss, _) = CrossEntropy.forward(&logits, &[0, 3, 5, 9]);
        assert!((loss - (10.0f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = Tensor::zeros([1, 3]);
        logits.data_mut()[1] = 20.0;
        let (loss, _) = CrossEntropy.forward(&logits, &[1]);
        assert!(loss < 1e-6);
        let (loss_wrong, _) = CrossEntropy.forward(&logits, &[0]);
        assert!(loss_wrong > 10.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = SeededRng::new(1);
        let logits =
            Tensor::from_vec([3, 4], (0..12).map(|_| rng.uniform(-2.0, 2.0)).collect()).unwrap();
        let targets = [2usize, 0, 3];
        let (_, grad) = CrossEntropy.forward(&logits, &targets);
        let eps = 1e-3f32;
        for i in 0..12 {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let (loss_p, _) = CrossEntropy.forward(&lp, &targets);
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let (loss_m, _) = CrossEntropy.forward(&lm, &targets);
            let numeric = ((loss_p - loss_m) / (2.0 * eps as f64)) as f32;
            assert!(
                (grad.data()[i] - numeric).abs() < 1e-3,
                "at {i}: {} vs {numeric}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn loss_only_matches_forward() {
        let mut rng = SeededRng::new(2);
        let logits =
            Tensor::from_vec([5, 7], (0..35).map(|_| rng.uniform(-3.0, 3.0)).collect()).unwrap();
        let targets = [0usize, 6, 3, 2, 1];
        let (loss, _) = CrossEntropy.forward(&logits, &targets);
        assert!((loss - CrossEntropy.loss_only(&logits, &targets)).abs() < 1e-6);
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        let mut rng = SeededRng::new(3);
        let logits =
            Tensor::from_vec([2, 5], (0..10).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap();
        let (_, grad) = CrossEntropy.forward(&logits, &[1, 4]);
        for row in 0..2 {
            let s: f32 = grad.data()[row * 5..(row + 1) * 5].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }
}
