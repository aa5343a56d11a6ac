//! Sequential container.

use crate::layer::{BoxedLayer, Layer, Mode, Param};
use crate::slice::SliceRate;
use ms_tensor::Tensor;

/// A chain of layers executed in order; the workhorse container for MLPs and
/// VGG-style models. Slice rates propagate to every child.
pub struct Sequential {
    name: String,
    layers: Vec<BoxedLayer>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new(name: impl Into<String>) -> Self {
        Sequential {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + Send + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn add(&mut self, layer: BoxedLayer) {
        self.layers.push(layer);
    }

    /// Number of child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Borrow a child layer.
    pub fn layer(&self, idx: usize) -> &dyn Layer {
        self.layers[idx].as_ref()
    }

    /// Mutably borrow a child layer.
    pub fn layer_mut(&mut self, idx: usize) -> &mut BoxedLayer {
        &mut self.layers[idx]
    }

    /// [`Layer::replica`] as a `Sequential`: `None` unless every child
    /// offers one.
    pub fn replica(&self) -> Option<Sequential> {
        Some(Sequential {
            name: self.name.clone(),
            layers: self
                .layers
                .iter()
                .map(|l| l.replica())
                .collect::<Option<_>>()?,
        })
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        // The first layer reads the caller's tensor; every later one owns
        // what the layer before it returned.
        let mut iter = self.layers.iter_mut();
        let Some(first) = iter.next() else {
            return x.pooled_clone();
        };
        let y = first.forward(x, mode);
        iter.fold(y, |cur, layer| layer.forward_owned(cur, mode))
    }

    fn forward_owned(&mut self, x: Tensor, mode: Mode) -> Tensor {
        // Each intermediate is handed to the next layer, which overwrites,
        // keeps or recycles it: a steady-state pass allocates nothing.
        self.layers
            .iter_mut()
            .fold(x, |cur, layer| layer.forward_owned(cur, mode))
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut iter = self.layers.iter_mut().rev();
        let Some(last) = iter.next() else {
            return dy.pooled_clone();
        };
        let dx = last.backward(dy);
        iter.fold(dx, |cur, layer| layer.backward_owned(cur))
    }

    fn backward_owned(&mut self, dy: Tensor) -> Tensor {
        self.layers
            .iter_mut()
            .rev()
            .fold(dy, |cur, layer| layer.backward_owned(cur))
    }

    fn forward_prefix(&mut self, x: &Tensor, from: Option<SliceRate>, to: SliceRate) -> Tensor {
        // Intermediates are recycled as soon as the next layer has read
        // them; every child sees the same (from, to) pair, so each refines
        // its own cached prefix.
        let mut iter = self.layers.iter_mut();
        let Some(first) = iter.next() else {
            return x.pooled_clone();
        };
        let mut cur = first.forward_prefix(x, from, to);
        for layer in iter {
            let next = layer.forward_prefix(&cur, from, to);
            cur.recycle();
            cur = next;
        }
        cur
    }

    fn prepack(&mut self) -> bool {
        // `|`, not `||`: every child must be packed, whatever came before.
        self.layers
            .iter_mut()
            .fold(false, |packed, layer| layer.prepack() | packed)
    }

    fn release_panels(&mut self) {
        for layer in &mut self.layers {
            layer.release_panels();
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn set_slice_rate(&mut self, r: SliceRate) {
        for layer in &mut self.layers {
            layer.set_slice_rate(r);
        }
    }

    fn replica(&self) -> Option<BoxedLayer> {
        Some(Box::new(Sequential::replica(self)?))
    }

    fn flops_per_sample(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_per_sample()).sum()
    }

    fn active_param_count(&self) -> u64 {
        self.layers.iter().map(|l| l.active_param_count()).sum()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::gradcheck::assert_grads;
    use crate::linear::{Linear, LinearConfig};
    use ms_tensor::SeededRng;

    fn mlp(rng: &mut SeededRng) -> Sequential {
        Sequential::new("mlp")
            .push(Linear::new(
                "fc1",
                LinearConfig {
                    in_dim: 6,
                    out_dim: 8,
                    in_groups: None,
                    out_groups: Some(4),
                    bias: true,
                    input_rescale: true,
                },
                rng,
            ))
            .push(Relu::new())
            .push(Linear::new(
                "fc2",
                LinearConfig {
                    in_dim: 8,
                    out_dim: 3,
                    in_groups: Some(4),
                    out_groups: None,
                    bias: true,
                    input_rescale: true,
                },
                rng,
            ))
    }

    #[test]
    fn chains_forward_and_slices_children() {
        let mut rng = SeededRng::new(1);
        let mut net = mlp(&mut rng);
        let x = Tensor::zeros([2, 6]);
        assert_eq!(net.forward(&x, Mode::Infer).dims(), &[2, 3]);
        net.set_slice_rate(SliceRate::new(0.5));
        assert_eq!(net.forward(&x, Mode::Infer).dims(), &[2, 3]);
        // FLOPs shrink when sliced.
        let sliced = net.flops_per_sample();
        net.set_slice_rate(SliceRate::FULL);
        assert!(net.flops_per_sample() > sliced);
    }

    #[test]
    fn end_to_end_gradients_full_and_sliced() {
        let mut rng = SeededRng::new(2);
        let mut net = mlp(&mut rng);
        let x =
            Tensor::from_vec([3, 6], (0..18).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap();
        assert_grads(&mut net, &x, &mut rng);
        net.set_slice_rate(SliceRate::new(0.5));
        assert_grads(&mut net, &x, &mut rng);
    }

    #[test]
    fn prefix_refine_chain_matches_fresh_pass_bitwise() {
        let x =
            Tensor::from_vec([3, 6], (0..18).map(|v| (v as f32 * 0.37).sin()).collect()).unwrap();
        for &(r1, r2) in &[(0.25f32, 0.5f32), (0.25, 1.0), (0.5, 0.75), (0.75, 1.0)] {
            let (r1, r2) = (SliceRate::new(r1), SliceRate::new(r2));
            let mut direct = mlp(&mut SeededRng::new(9));
            direct.prepack();
            let want = direct.forward_prefix(&x, None, r2);
            let mut refined = mlp(&mut SeededRng::new(9));
            let _ = refined.forward_prefix(&x, None, r1);
            let got = refined.forward_prefix(&x, Some(r1), r2);
            assert_eq!(want.dims(), got.dims());
            let wb: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(wb, gb, "chain refine {r1}→{r2} not bitwise");
        }
    }

    #[test]
    fn param_visit_covers_all_children() {
        let mut rng = SeededRng::new(3);
        let mut net = mlp(&mut rng);
        let mut names = Vec::new();
        net.visit_params(&mut |p| names.push(p.name.clone()));
        assert_eq!(
            names,
            vec!["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]
        );
    }
}
