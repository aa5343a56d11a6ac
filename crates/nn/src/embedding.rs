//! Token embedding lookup.
//!
//! The embedding is the *input layer* of the NNLM and is therefore never
//! sliced (§5.1.1: slicing applies to hidden layers only). Token ids arrive
//! as `f32` values in a `[B, T]` tensor — exact for any realistic vocabulary
//! (integers below 2²⁴ are representable) and keeps the single-dtype tensor
//! substrate simple.

use crate::layer::{Layer, Mode, Param};
use ms_tensor::shape::MAX_RANK;
use ms_tensor::{init, SeededRng, Tensor};

/// Embedding table `[vocab, dim]` with lookup forward and scatter-add
/// backward.
pub struct Embedding {
    name: String,
    vocab: usize,
    dim: usize,
    weight: Param,
    /// Flattened token ids of the last Train forward (grow-only storage;
    /// `cached` says whether a backward may consume them).
    ids: Vec<usize>,
    cached: bool,
}

impl Embedding {
    /// Creates an embedding with `U(-0.1, 0.1)` init (the classic LM choice).
    pub fn new(name: impl Into<String>, vocab: usize, dim: usize, rng: &mut SeededRng) -> Self {
        assert!(vocab > 0 && dim > 0);
        let name = name.into();
        Embedding {
            weight: Param::new(
                format!("{name}.weight"),
                init::uniform([vocab, dim], 0.1, rng),
                false,
            ),
            vocab,
            dim,
            ids: Vec::new(),
            cached: false,
            name,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    fn id_of(&self, v: f32) -> usize {
        let id = v as usize;
        assert!(
            v >= 0.0 && v.fract() == 0.0 && id < self.vocab,
            "{}: invalid token id {v} for vocab {}",
            self.name,
            self.vocab
        );
        id
    }
}

impl Layer for Embedding {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let rank = x.dims().len();
        let mut out_dims = [0usize; MAX_RANK];
        out_dims[..rank].copy_from_slice(x.dims());
        out_dims[rank] = self.dim;
        // Every row is a copy of a table row.
        let mut y = Tensor::pooled_stale(&out_dims[..=rank]);
        if mode == Mode::Train {
            self.ids.clear();
            self.cached = true;
        }
        for (&v, dst) in x.data().iter().zip(y.data_mut().chunks_exact_mut(self.dim)) {
            let id = self.id_of(v);
            dst.copy_from_slice(self.weight.value.row(id));
            if mode == Mode::Train {
                self.ids.push(id);
            }
        }
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        assert!(self.cached, "backward before Train forward");
        self.cached = false;
        debug_assert_eq!(dy.numel(), self.ids.len() * self.dim);
        for (&id, src) in self.ids.iter().zip(dy.data().chunks_exact(self.dim)) {
            for (d, &s) in self.weight.grad.get_mut().row_mut(id).iter_mut().zip(src) {
                *d += s;
            }
        }
        // Token ids are not differentiable; return a zero gradient of the
        // id-tensor shape to keep the Layer contract.
        let id_dims = &dy.dims()[..dy.dims().len() - 1];
        Tensor::pooled_zeros(id_dims)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
    }

    fn flops_per_sample(&self) -> u64 {
        0 // lookup, no arithmetic
    }

    fn active_param_count(&self) -> u64 {
        (self.vocab * self.dim) as u64
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_scatter() {
        let mut rng = SeededRng::new(1);
        let mut emb = Embedding::new("emb", 5, 3, &mut rng);
        let x = Tensor::from_vec([2, 2], vec![0.0, 4.0, 4.0, 1.0]).unwrap();
        let y = emb.forward(&x, Mode::Train);
        assert_eq!(y.dims(), &[2, 2, 3]);
        // Rows equal the table rows.
        assert_eq!(&y.data()[0..3], emb.weight.value.row(0));
        assert_eq!(&y.data()[3..6], emb.weight.value.row(4));

        let dy = Tensor::full([2, 2, 3], 1.0);
        let dx = emb.backward(&dy);
        assert_eq!(dx.dims(), &[2, 2]);
        // Token 4 appeared twice → grad 2, tokens 0 and 1 once → 1, others 0.
        let grad = emb.weight.grad.get().expect("backward wrote it");
        assert!(grad.row(4).iter().all(|&v| v == 2.0));
        assert!(grad.row(0).iter().all(|&v| v == 1.0));
        assert!(grad.row(1).iter().all(|&v| v == 1.0));
        assert!(grad.row(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "invalid token id")]
    fn rejects_out_of_vocab() {
        let mut rng = SeededRng::new(2);
        let mut emb = Embedding::new("emb", 3, 2, &mut rng);
        let x = Tensor::from_vec([1], vec![3.0]).unwrap();
        let _ = emb.forward(&x, Mode::Infer);
    }
}
