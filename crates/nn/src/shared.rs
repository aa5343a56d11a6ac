//! Thread-safe sharing of frozen weights.
//!
//! A trained network is mutable state (`forward` takes `&mut self` for
//! slice-rate bookkeeping and workspaces), so worker threads cannot share one
//! model instance. What they *can* share is the immutable thing: the trained
//! parameter values. [`SharedWeights`] captures one `Arc`-backed snapshot of
//! every named parameter; each worker builds a structural replica of the
//! model (from its config, with throwaway init) and hydrates it from the
//! shared snapshot. Neither step copies a weight: a [`Param`]'s value is
//! `Arc`-shared copy-on-write storage, so capture and hydration move
//! refcounts, and the snapshot, its source net and every replica read one
//! buffer per tensor. A replica that only serves never writes it (and never
//! allocates a gradient); one that trains copies a tensor on its first
//! write, leaving the snapshot and the other replicas as they were.
//!
//! [`Param`]: crate::layer::Param

use crate::checkpoint::Checkpoint;
use crate::layer::Layer;
use std::sync::Arc;

/// An immutable, `Arc`-shared snapshot of a network's trained parameters:
/// a [`Checkpoint`] behind an `Arc`.
///
/// Cloning is O(1) (an `Arc` bump); the underlying tensors are frozen, and
/// shared with every net hydrated from them.
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

    /// Hydrates a structural replica: every parameter of `net` now shares
    /// the snapshot value of the same name (its own init is dropped).
    ///
    /// # Panics
    /// If `net` has a parameter the snapshot lacks, or shapes differ — a
    /// replica built from the same config can never trip this.
    pub fn hydrate(&self, net: &mut dyn Layer) {
        if let Err(e) = self.snapshot.apply(net) {
            panic!("shared weights: {e}");
        }
    }

    /// Total scalars in the snapshot.
    pub fn scalar_count(&self) -> usize {
        self.snapshot.scalar_count()
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
        assert_eq!(shared.snapshot.params.len(), 4);
        assert_eq!(shared.scalar_count(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn clone_shares_storage() {
        let mut a = net(3);
        let shared = SharedWeights::capture(&mut a);
        let handles = || Arc::strong_count(&shared.snapshot);
        let before = handles();
        let c1 = shared.clone();
        let c2 = shared.clone();
        assert_eq!(handles(), before + 2);
        drop((c1, c2));
        assert_eq!(handles(), before);
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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn storage(net: &mut Sequential) -> Vec<*const f32> {
        let mut out = Vec::new();
        net.visit_params(&mut |p| out.push(p.value.data().as_ptr()));
        out
    }

    #[test]
    fn replicas_and_the_snapshot_read_one_buffer() {
        let mut a = net(6);
        let shared = SharedWeights::capture(&mut a);
        let (mut b, mut c) = (net(7), net(8));
        shared.hydrate(&mut b);
        shared.hydrate(&mut c);
        let snapshot: Vec<*const f32> = shared
            .snapshot
            .params
            .iter()
            .map(|(_, t)| t.data().as_ptr())
            .collect();
        assert_eq!(storage(&mut a), snapshot);
        assert_eq!(storage(&mut b), snapshot);
        assert_eq!(storage(&mut c), snapshot);
        let mut grads = 0;
        b.visit_params(&mut |p| grads += p.grad.get().is_some() as usize);
        assert_eq!(grads, 0, "a hydrated replica holds no gradient");
    }

    #[test]
    fn a_write_to_one_replica_leaves_the_others_and_the_snapshot_alone() {
        let mut a = net(9);
        let shared = SharedWeights::capture(&mut a);
        let (mut b, mut c) = (net(10), net(11));
        shared.hydrate(&mut b);
        shared.hydrate(&mut c);
        let x = Tensor::full([3, 4], 0.25);
        let c_before = bits(&c.forward(&x, Mode::Infer));
        let snapshot_before: Vec<Vec<u32>> = shared
            .snapshot
            .params
            .iter()
            .map(|(_, t)| bits(t))
            .collect();

        let rewrite = |n: &mut Sequential| {
            let mut k = 0u32;
            n.visit_params(&mut |p| {
                for v in p.value_mut().data_mut() {
                    k += 1;
                    *v = (k % 7) as f32 * 0.1 - 0.3;
                }
            })
        };
        rewrite(&mut b);
        let mut owned = net(12);
        rewrite(&mut owned);

        assert_eq!(
            bits(&b.forward(&x, Mode::Infer)),
            bits(&owned.forward(&x, Mode::Infer))
        );
        assert_eq!(bits(&c.forward(&x, Mode::Infer)), c_before);
        let snapshot_after: Vec<Vec<u32>> = shared
            .snapshot
            .params
            .iter()
            .map(|(_, t)| bits(t))
            .collect();
        assert_eq!(snapshot_after, snapshot_before);
        let snapshot: Vec<*const f32> = shared
            .snapshot
            .params
            .iter()
            .map(|(_, t)| t.data().as_ptr())
            .collect();
        assert_eq!(storage(&mut c), snapshot);
        assert!(storage(&mut b).iter().zip(&snapshot).all(|(b, s)| b != s));
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
