//! Thread-safe sharing of frozen weights.
//!
//! A trained network is mutable state (`forward` takes `&mut self` for
//! slice-rate bookkeeping and workspaces), so worker threads cannot share one
//! model instance. What they *can* share is the immutable thing: the trained
//! parameter values. [`SharedWeights`] captures one `Arc`-backed snapshot of
//! every named parameter; each worker builds a cheap structural replica of
//! the model (from its config, with throwaway init) and hydrates it from the
//! shared snapshot. The snapshot itself is never copied between threads —
//! only the `Arc` is cloned — and hydration copies each tensor exactly once
//! into the replica that will own it.

use crate::checkpoint::Checkpoint;
use crate::layer::Layer;
use std::sync::Arc;

/// An immutable, `Arc`-shared snapshot of a network's trained parameters:
/// a [`Checkpoint`] behind an `Arc`.
///
/// Cloning is O(1) (an `Arc` bump); the underlying tensors are frozen.
#[derive(Debug, Clone)]
pub struct SharedWeights {
    snapshot: Arc<Checkpoint>,
}

impl SharedWeights {
    /// Captures the current parameter values of `net`.
    pub fn capture(net: &mut dyn Layer) -> Self {
        SharedWeights {
            snapshot: Arc::new(Checkpoint::capture(net)),
        }
    }

    /// Hydrates a structural replica: every parameter of `net` is overwritten
    /// with the snapshot value of the same name.
    ///
    /// # Panics
    /// If `net` has a parameter the snapshot lacks, or shapes differ — a
    /// replica built from the same config can never trip this.
    pub fn hydrate(&self, net: &mut dyn Layer) {
        if let Err(e) = self.snapshot.apply(net) {
            panic!("shared weights: {e}");
        }
    }

    /// Number of named parameters in the snapshot.
    pub fn param_count(&self) -> usize {
        self.snapshot.params.len()
    }

    /// Total scalars in the snapshot.
    pub fn scalar_count(&self) -> usize {
        self.snapshot.scalar_count()
    }

    /// Number of live handles to this snapshot (diagnostic: one per worker
    /// plus the owner while an engine is running).
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use crate::linear::{Linear, LinearConfig};
    use crate::sequential::Sequential;
    use ms_tensor::{SeededRng, Tensor};

    fn net(seed: u64) -> Sequential {
        let mut rng = SeededRng::new(seed);
        Sequential::new("net")
            .push(Linear::new("fc1", LinearConfig::dense(4, 8), &mut rng))
            .push(Linear::new("fc2", LinearConfig::dense(8, 2), &mut rng))
    }

    #[test]
    fn hydrated_replica_matches_source_bitwise() {
        let mut a = net(1);
        let shared = SharedWeights::capture(&mut a);
        let mut b = net(2); // different init, same structure
        shared.hydrate(&mut b);
        let x = Tensor::full([3, 4], 0.25);
        assert_eq!(a.forward(&x, Mode::Infer), b.forward(&x, Mode::Infer));
        assert_eq!(shared.param_count(), 4);
        assert_eq!(shared.scalar_count(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn clone_shares_storage() {
        let mut a = net(3);
        let shared = SharedWeights::capture(&mut a);
        let before = shared.handle_count();
        let c1 = shared.clone();
        let c2 = shared.clone();
        assert_eq!(shared.handle_count(), before + 2);
        drop((c1, c2));
        assert_eq!(shared.handle_count(), before);
    }

    #[test]
    fn snapshots_cross_threads() {
        let mut a = net(4);
        let shared = SharedWeights::capture(&mut a);
        let x = Tensor::full([1, 4], -0.5);
        let want = a.forward(&x, Mode::Infer);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let s = shared.clone();
                std::thread::spawn(move || {
                    let mut replica = net(100 + i);
                    s.hydrate(&mut replica);
                    replica.forward(&Tensor::full([1, 4], -0.5), Mode::Infer)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), want);
        }
    }

    #[test]
    #[should_panic(expected = "missing parameter")]
    fn hydrate_rejects_structural_mismatch() {
        let mut a = net(5);
        let shared = SharedWeights::capture(&mut a);
        let mut rng = SeededRng::new(6);
        let mut other =
            Sequential::new("net").push(Linear::new("odd", LinearConfig::dense(4, 8), &mut rng));
        shared.hydrate(&mut other);
    }
}
