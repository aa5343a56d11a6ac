//! A serving thread's buffer pool holds what its largest batch needs, not
//! one buffer for every batch size it has seen.
//!
//! An engine worker under a bursty load serves every batch size from 1 to
//! the peak, in whatever order the load brings them. Each size draws its
//! activations from the thread's pool; a batch larger than any before
//! misses and allocates. This test serves the heavy MLP at batch sizes
//! 1, 2, …, 160 in ascending order, the order that sets a new size record
//! on every batch, and then in a shuffled order, and holds the thread's
//! pooled bytes to at most twice what one batch of 160 leaves pooled. It
//! serves at a quarter width, where a loaded engine serves its largest
//! batches: the buffers scale with the width, the pool's rule does not.

use ms_core::inference::batched_sliced_forward_into;
use ms_core::slice_rate::SliceRate;
use ms_models::mlp::{Mlp, MlpConfig};
use ms_tensor::{pool, SeededRng, Tensor};

const PEAK: usize = 160;
const RATE: f32 = 0.25;

fn serve(net: &mut Mlp, inputs: &[Tensor], batch: usize, out: &mut Vec<Tensor>) {
    batched_sliced_forward_into(net, &inputs[..batch], SliceRate::new(RATE), out);
    // The rows stay on this thread here; a worker hands them to the wire.
    out.drain(..).for_each(Tensor::recycle);
}

#[test]
fn pooled_bytes_stay_within_twice_the_peak_batch_whatever_the_order() {
    let mut rng = SeededRng::new(44);
    let mut net = Mlp::new(
        &MlpConfig {
            input_dim: 64,
            hidden_dims: vec![2048, 2048],
            num_classes: 8,
            groups: 8,
            dropout: 0.0,
            input_rescale: true,
        },
        &mut rng,
    );
    let inputs: Vec<Tensor> = (0..PEAK)
        .map(|_| Tensor::from_vec([64], (0..64).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap())
        .collect();
    let mut out = Vec::with_capacity(PEAK);

    pool::clear();
    serve(&mut net, &inputs, PEAK, &mut out);
    serve(&mut net, &inputs, PEAK, &mut out);
    let peak = pool::pooled_bytes();
    assert!(peak > 0, "a served batch leaves its activations pooled");

    pool::clear();
    for batch in 1..=PEAK {
        serve(&mut net, &inputs, batch, &mut out);
    }
    let ascending = pool::pooled_bytes();
    assert!(
        ascending <= 2 * peak,
        "ascending sizes left {ascending} bytes pooled; one batch of {PEAK} leaves {peak}"
    );

    let mut sizes: Vec<usize> = (1..=PEAK).collect();
    rng.shuffle(&mut sizes);
    for batch in sizes {
        serve(&mut net, &inputs, batch, &mut out);
    }
    let shuffled = pool::pooled_bytes();
    assert!(
        shuffled <= 2 * peak,
        "shuffled sizes left {shuffled} bytes pooled; one batch of {PEAK} leaves {peak}"
    );
}
