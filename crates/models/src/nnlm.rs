//! Neural-network language model (paper §5.2).
//!
//! `embedding → dropout → LSTM → dropout → LSTM → dropout → decoder`, the
//! Zaremba-style NNLM the paper trains on Penn Tree Bank. Slicing applies to
//! the recurrent layers and the output dense layer with input rescaling
//! ("output rescaling", §5.2.2); the embedding (input layer) and the
//! decoder's vocabulary dimension (output layer) are never sliced.
//!
//! Forward maps `[B, T]` token ids to `[B·T, V]` logits, aligned row-major
//! with the target layout of `ms_core::trainer::Batch`.

use ms_nn::dropout::Dropout;
use ms_nn::embedding::Embedding;
use ms_nn::layer::{Layer, Mode, Param};
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::rnn::gru::{Gru, GruConfig};
use ms_nn::rnn::lstm::{Lstm, LstmConfig};
use ms_nn::slice::SliceRate;
use ms_tensor::{SeededRng, Tensor};
use serde::{Deserialize, Serialize};

/// Recurrent cell family (§3.3: model slicing applies to LSTM and GRU
/// alike).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RnnCell {
    /// Long short-term memory (the paper's NNLM).
    Lstm,
    /// Gated recurrent unit.
    Gru,
}

/// A recurrent layer of either family.
fn recurrent(
    cell: RnnCell,
    name: &str,
    in_dim: usize,
    hidden_dim: usize,
    in_groups: Option<usize>,
    out_groups: Option<usize>,
    rng: &mut SeededRng,
) -> Box<dyn Layer + Send> {
    match cell {
        RnnCell::Lstm => Box::new(Lstm::new(
            name,
            LstmConfig {
                in_dim,
                hidden_dim,
                in_groups,
                out_groups,
                input_rescale: true,
            },
            rng,
        )),
        RnnCell::Gru => Box::new(Gru::new(
            name,
            GruConfig {
                in_dim,
                hidden_dim,
                in_groups,
                out_groups,
                input_rescale: true,
            },
            rng,
        )),
    }
}

/// Configuration for the [`Nnlm`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NnlmConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Embedding dimension (unsliced).
    pub embed_dim: usize,
    /// LSTM hidden width (sliced).
    pub hidden_dim: usize,
    /// Slicing groups for the recurrent/hidden dimensions.
    pub groups: usize,
    /// Dropout probability (paper: 0.5 after embedding and each LSTM).
    pub dropout: f64,
    /// Recurrent cell family.
    pub cell: RnnCell,
}

impl NnlmConfig {
    /// Scaled-down analogue of the paper's PTB model (650-d embedding,
    /// 640-unit LSTMs).
    pub fn scaled(vocab: usize, groups: usize) -> Self {
        NnlmConfig {
            vocab,
            embed_dim: 64,
            hidden_dim: 64,
            groups,
            dropout: 0.3,
            cell: RnnCell::Lstm,
        }
    }
}

/// The sliceable NNLM.
pub struct Nnlm {
    cfg: NnlmConfig,
    embedding: Embedding,
    drop_e: Dropout,
    lstm1: Box<dyn Layer + Send>,
    drop1: Dropout,
    lstm2: Box<dyn Layer + Send>,
    drop2: Dropout,
    decoder: Linear,
    /// `(B, T)` of the last Train forward, for backward reshapes.
    last_bt: Option<(usize, usize)>,
}

impl Nnlm {
    /// Builds the model.
    pub fn new(cfg: &NnlmConfig, rng: &mut SeededRng) -> Self {
        assert!(cfg.groups >= 1 && cfg.groups <= cfg.hidden_dim);
        let embedding = Embedding::new("embed", cfg.vocab, cfg.embed_dim, rng);
        // rnn1's input comes from the embedding (unsliced input layer);
        // rnn2's input is rnn1's sliced hidden state.
        let lstm1 = recurrent(
            cfg.cell,
            "rnn1",
            cfg.embed_dim,
            cfg.hidden_dim,
            None,
            Some(cfg.groups),
            rng,
        );
        let lstm2 = recurrent(
            cfg.cell,
            "rnn2",
            cfg.hidden_dim,
            cfg.hidden_dim,
            Some(cfg.groups),
            Some(cfg.groups),
            rng,
        );
        let decoder = Linear::new(
            "decoder",
            LinearConfig {
                in_dim: cfg.hidden_dim,
                out_dim: cfg.vocab,
                in_groups: Some(cfg.groups),
                out_groups: None, // vocabulary: unsliced output layer
                bias: true,
                input_rescale: true,
            },
            rng,
        );
        Nnlm {
            cfg: cfg.clone(),
            embedding,
            drop_e: Dropout::new(cfg.dropout, rng),
            lstm1,
            drop1: Dropout::new(cfg.dropout, rng),
            lstm2,
            drop2: Dropout::new(cfg.dropout, rng),
            decoder,
            last_bt: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NnlmConfig {
        &self.cfg
    }

    /// The backward from the decoder's input gradient `d: [B·T, H]` down,
    /// each gradient handed to the layer below.
    fn backward_below_decoder(&mut self, d: Tensor) -> Tensor {
        let (b, t) = self.last_bt.take().expect("backward before Train forward");
        let hidden = d.dims()[1];
        let d = d.reshape([b, t, hidden]).expect("same numel");
        let chain: [&mut dyn Layer; 5] = [
            &mut self.drop2,
            self.lstm2.as_mut(),
            &mut self.drop1,
            self.lstm1.as_mut(),
            &mut self.drop_e,
        ];
        let d = chain
            .into_iter()
            .fold(d, |d, layer| layer.backward_owned(d));
        self.embedding.backward_owned(d)
    }
}

impl Layer for Nnlm {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 2, "nnlm expects [B, T] token ids");
        let (b, t) = (dims[0], dims[1]);
        if mode == Mode::Train {
            self.last_bt = Some((b, t));
        }
        // Each intermediate is handed to the next layer, which overwrites,
        // keeps or recycles it, so a warm pass allocates nothing.
        let h = self.embedding.forward(x, mode); // [B, T, E]
        let chain: [&mut dyn Layer; 5] = [
            &mut self.drop_e,
            self.lstm1.as_mut(),
            &mut self.drop1,
            self.lstm2.as_mut(),
            &mut self.drop2,
        ];
        let h = chain
            .into_iter()
            .fold(h, |h, layer| layer.forward_owned(h, mode));
        let hidden = *h.dims().last().expect("rank 3");
        let flat = h.reshape([b * t, hidden]).expect("same numel");
        self.decoder.forward_owned(flat, mode) // [B·T, V]
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let d = self.decoder.backward(dy);
        self.backward_below_decoder(d)
    }

    fn backward_owned(&mut self, dy: Tensor) -> Tensor {
        let d = self.decoder.backward_owned(dy);
        self.backward_below_decoder(d)
    }

    // `forward_prefix` stays the trait default (a recompute at `to`): the
    // decoder must not resume partial sums over LSTM columns that changed
    // with the rate — see `nnlm_chain_refine_is_bitwise_identical` in
    // tests/prefix_refine.rs. The panels are independent of that; the
    // decoder, a `Linear`, has none.
    fn prepack(&mut self) -> bool {
        // `|`, not `||`: every layer must be packed, whatever came before.
        self.lstm1.prepack() | self.lstm2.prepack()
    }

    fn release_panels(&mut self) {
        self.lstm1.release_panels();
        self.lstm2.release_panels();
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.embedding.visit_params(f);
        self.lstm1.visit_params(f);
        self.lstm2.visit_params(f);
        self.decoder.visit_params(f);
    }

    fn set_slice_rate(&mut self, r: SliceRate) {
        self.lstm1.set_slice_rate(r);
        self.lstm2.set_slice_rate(r);
        self.decoder.set_slice_rate(r);
    }

    fn flops_per_sample(&self) -> u64 {
        // Per token: both LSTMs plus the decoder projection.
        self.lstm1.flops_per_sample()
            + self.lstm2.flops_per_sample()
            + self.decoder.flops_per_sample()
    }

    fn active_param_count(&self) -> u64 {
        self.embedding.active_param_count()
            + self.lstm1.active_param_count()
            + self.lstm2.active_param_count()
            + self.decoder.active_param_count()
    }

    fn name(&self) -> &str {
        "nnlm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NnlmConfig {
        NnlmConfig {
            vocab: 12,
            embed_dim: 8,
            hidden_dim: 8,
            groups: 4,
            dropout: 0.0,
            cell: RnnCell::Lstm,
        }
    }

    fn ids(b: usize, t: usize, vocab: usize) -> Tensor {
        let data: Vec<f32> = (0..b * t).map(|i| ((i * 5) % vocab) as f32).collect();
        Tensor::from_vec([b, t], data).unwrap()
    }

    #[test]
    fn forward_shapes_full_and_sliced() {
        let mut rng = SeededRng::new(1);
        let mut m = Nnlm::new(&tiny(), &mut rng);
        let x = ids(2, 5, 12);
        assert_eq!(m.forward(&x, Mode::Infer).dims(), &[10, 12]);
        m.set_slice_rate(SliceRate::new(0.5));
        assert_eq!(m.forward(&x, Mode::Infer).dims(), &[10, 12]);
    }

    #[test]
    fn gradients_flow_end_to_end() {
        let mut rng = SeededRng::new(2);
        let mut m = Nnlm::new(&tiny(), &mut rng);
        let x = ids(2, 3, 12);
        let y = m.forward(&x, Mode::Train);
        let dy = Tensor::full(y.shape().clone(), 0.1);
        let _ = m.backward(&dy);
        let mut nonzero = 0usize;
        m.visit_params(&mut |p| {
            if p.grad.max_abs() > 0.0 {
                nonzero += 1;
            }
        });
        // embedding, 2 × (w_x, w_h, b), decoder (w, b) = 9 params total.
        assert_eq!(nonzero, 9);
    }

    #[test]
    fn flops_shrink_quadratically_in_recurrent_core() {
        let mut rng = SeededRng::new(3);
        let mut m = Nnlm::new(&tiny(), &mut rng);
        let full = m.flops_per_sample();
        m.set_slice_rate(SliceRate::new(0.5));
        let half = m.flops_per_sample();
        // lstm2 is fully quadratic; lstm1 input side and decoder output side
        // are pinned, so overall between 0.25 and 0.5 of full.
        let ratio = half as f64 / full as f64;
        assert!(ratio > 0.25 && ratio < 0.55, "ratio {ratio}");
    }

    #[test]
    fn training_reduces_loss_on_repetitive_stream() {
        use ms_nn::layer::Network;
        use ms_nn::loss::CrossEntropy;
        use ms_nn::optim::{Sgd, SgdConfig};
        let mut rng = SeededRng::new(4);
        let mut m = Nnlm::new(&tiny(), &mut rng);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.5,
            momentum: 0.9,
            weight_decay: 0.0,
            clip_norm: Some(5.0),
        });
        // Deterministic cycle 0,1,2,…,11,0,… is perfectly predictable.
        let x = Tensor::from_vec([1, 24], (0..24).map(|i| (i % 12) as f32).collect()).unwrap();
        let y: Vec<usize> = (1..25).map(|i| i % 12).collect();
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            m.zero_grads();
            let logits = m.forward(&x, Mode::Train);
            let (loss, dl) = CrossEntropy.forward(&logits, &y);
            let _ = m.backward(&dl);
            opt.step(&mut m);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(
            last < first.unwrap() * 0.5,
            "loss {last} vs {}",
            first.unwrap()
        );
    }
}

#[cfg(test)]
mod gru_tests {
    use super::*;

    fn tiny_gru() -> NnlmConfig {
        NnlmConfig {
            vocab: 12,
            embed_dim: 8,
            hidden_dim: 8,
            groups: 4,
            dropout: 0.0,
            cell: RnnCell::Gru,
        }
    }

    #[test]
    fn gru_nnlm_forward_and_slice() {
        let mut rng = SeededRng::new(61);
        let mut m = Nnlm::new(&tiny_gru(), &mut rng);
        let x = Tensor::from_vec([2, 4], vec![0.0, 3.0, 7.0, 11.0, 1.0, 2.0, 5.0, 9.0]).unwrap();
        assert_eq!(m.forward(&x, Mode::Infer).dims(), &[8, 12]);
        m.set_slice_rate(SliceRate::new(0.5));
        assert_eq!(m.forward(&x, Mode::Infer).dims(), &[8, 12]);
        // GRU has 3 gates vs LSTM's 4: cheaper per token at equal width.
        let gru_flops = {
            m.set_slice_rate(SliceRate::FULL);
            m.flops_per_sample()
        };
        let mut lstm = Nnlm::new(
            &NnlmConfig {
                cell: RnnCell::Lstm,
                ..tiny_gru()
            },
            &mut SeededRng::new(61),
        );
        assert!(gru_flops < lstm.flops_per_sample());
        let _ = lstm.forward(&x, Mode::Infer);
    }

    #[test]
    fn gru_nnlm_learns_a_cycle() {
        use ms_nn::layer::Network;
        use ms_nn::loss::CrossEntropy;
        use ms_nn::optim::{Sgd, SgdConfig};
        let mut rng = SeededRng::new(62);
        let mut m = Nnlm::new(&tiny_gru(), &mut rng);
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.5,
            momentum: 0.9,
            weight_decay: 0.0,
            clip_norm: Some(5.0),
        });
        let x = Tensor::from_vec([1, 24], (0..24).map(|i| (i % 12) as f32).collect()).unwrap();
        let y: Vec<usize> = (1..25).map(|i| i % 12).collect();
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            m.zero_grads();
            let logits = m.forward(&x, Mode::Train);
            let (loss, dl) = CrossEntropy.forward(&logits, &y);
            let _ = m.backward(&dl);
            opt.step(&mut m);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < first.unwrap() * 0.5, "loss {last} vs {:?}", first);
    }
}
