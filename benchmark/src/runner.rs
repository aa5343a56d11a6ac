//! One network with its seeded batches, driven the two ways the stack
//! offers: a direct sliced forward, and the anytime refine ladder.

use crate::models::{self, Model, BATCH};
use ms_core::inference::{batched_sliced_forward_into, refine_batched_forward};
use ms_core::slice_rate::SliceRate;
use ms_nn::layer::{Layer, Mode};
use ms_tensor::{SeededRng, Tensor};

/// One batch, as per-request rows and, for the NNLM, already stacked.
#[derive(Clone)]
pub struct BatchInput {
    pub rows: Vec<Tensor>,
    stacked: Tensor,
}

fn stack(rows: &[Tensor]) -> Tensor {
    let mut dims = vec![rows.len()];
    dims.extend_from_slice(rows[0].dims());
    let data = rows.iter().flat_map(|r| r.data().iter().copied()).collect();
    Tensor::from_vec(dims, data).expect("stacked batch shape")
}

pub struct Runner {
    pub model: Model,
    pub net: Box<dyn Layer + Send>,
    pub batches: Vec<BatchInput>,
    /// Logits of the last call, one tensor per request (one `[B·T, V]`
    /// tensor for the NNLM).
    pub out: Vec<Tensor>,
    /// Multiply-adds per sample at each of [`models::RATES`].
    pub macs: [f64; 4],
}

impl Runner {
    /// Builds the network, packs its weight panels and draws `n_batches`
    /// batches from `rng`.
    pub fn new(model: Model, n_batches: usize, rng: &mut SeededRng) -> Runner {
        let batches = (0..n_batches)
            .map(|_| {
                let rows = model.batch(rng);
                let stacked = stack(&rows);
                BatchInput { rows, stacked }
            })
            .collect();
        Runner::with_batches(model, batches)
    }

    pub fn with_batches(model: Model, batches: Vec<BatchInput>) -> Runner {
        let mut net = model.build();
        net.prepack();
        let mut macs = models::macs_at_rates(net.as_mut(), models::RATES);
        if model == Model::Nnlm {
            // The NNLM counts per token; a sample is a whole sequence.
            macs = macs.map(|m| m * models::SEQ_LEN as f64);
        }
        Runner {
            model,
            net,
            batches,
            out: Vec::with_capacity(BATCH),
            macs,
        }
    }

    fn recycle_out(&mut self) {
        for t in self.out.drain(..) {
            t.recycle();
        }
    }

    /// A direct pass of batch `b` at `rate`.
    ///
    /// The MLP and VGG go through `batched_sliced_forward_into`. That
    /// function splits logits one row per request, which a `[B·T, V]`
    /// language-model output does not fit, so the NNLM is driven through
    /// `Layer::forward` on the stacked batch instead.
    pub fn direct(&mut self, b: usize, rate: SliceRate) {
        self.recycle_out();
        let net = self.net.as_mut();
        match self.model {
            Model::Nnlm => {
                net.set_slice_rate(rate);
                let y = net.forward(&self.batches[b].stacked, Mode::Infer);
                net.set_slice_rate(SliceRate::FULL);
                self.out.push(y);
            }
            _ => batched_sliced_forward_into(net, &self.batches[b].rows, rate, &mut self.out),
        }
    }

    /// One rung of the refine ladder on batch `b`: `from = None` starts a
    /// prefix pass at `to`, `Some(r)` widens the pass that last ran at `r`.
    pub fn refine(&mut self, b: usize, from: Option<SliceRate>, to: SliceRate) {
        self.recycle_out();
        let net = self.net.as_mut();
        match self.model {
            Model::Nnlm => {
                let y = net.forward_prefix(&self.batches[b].stacked, from, to);
                net.set_slice_rate(SliceRate::FULL);
                self.out.push(y);
            }
            _ => refine_batched_forward(net, &self.batches[b].rows, from, to, &mut self.out),
        }
    }

    /// Climbs the whole ladder on batch `b`, calling `rung(i)` after rung `i`.
    pub fn ladder(&mut self, b: usize, mut rung: impl FnMut(&mut Runner, usize)) {
        let mut from = None;
        for (i, r) in models::rates().into_iter().enumerate() {
            self.refine(b, from, r);
            rung(self, i);
            from = Some(r);
        }
    }

    /// The last call's logits flattened request by request.
    pub fn out_flat(&self) -> Vec<f32> {
        self.out
            .iter()
            .flat_map(|t| t.data().iter().copied())
            .collect()
    }
}
