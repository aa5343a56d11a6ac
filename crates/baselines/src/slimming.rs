//! Network Slimming (Liu et al., ICCV 2017) — the width-compression
//! baseline of Figure 2 ("ResNet with Width Compression").
//!
//! Pipeline: (1) train with an L1 penalty on normalisation scale factors γ,
//! (2) prune the channels with the globally smallest |γ|, (3) fine-tune.
//!
//! Substitution note (DESIGN.md): pruning here *masks* channels (zeroing
//! their γ/β and freezing them) rather than physically rebuilding a smaller
//! network — accuracy effects are identical; the FLOPs of the pruned model
//! are computed analytically from per-layer surviving channel counts, which
//! is what a physical rebuild would cost. Unlike model slicing, the pruned
//! channel pattern is fixed at prune time: no inference-time control
//! (the paper's §2.2 criticism, which Fig. 2 visualises).

use ms_nn::layer::{Layer, Param};
use std::sync::Arc;

/// Adds `λ · sign(γ)` to the gradient of every normalisation scale
/// parameter (params named `*.gamma`). Call between `backward` and the
/// optimiser step.
pub fn add_gamma_l1(net: &mut dyn Layer, lambda: f32) {
    net.visit_params(&mut |p: &mut Param| {
        if p.name.ends_with(".gamma") {
            for (g, &v) in p.grad.get_mut().data_mut().iter_mut().zip(p.value.data()) {
                *g += lambda * v.signum();
            }
        }
    });
}

/// Global |γ| threshold that prunes `frac` of all normalisation channels.
pub fn gamma_threshold(net: &mut dyn Layer, frac: f64) -> f32 {
    assert!((0.0..1.0).contains(&frac));
    let mut gammas: Vec<f32> = Vec::new();
    net.visit_params(&mut |p: &mut Param| {
        if p.name.ends_with(".gamma") {
            gammas.extend(p.value.data().iter().map(|v| v.abs()));
        }
    });
    assert!(!gammas.is_empty(), "network has no gamma parameters");
    gammas.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let k = ((gammas.len() as f64) * frac) as usize;
    if k == 0 {
        0.0
    } else {
        gammas[k - 1]
    }
}

/// Result of a pruning pass.
#[derive(Debug, Clone)]
pub struct PruneReport {
    /// `(layer gamma name, surviving channels, total channels)` per layer.
    pub layers: Vec<(String, usize, usize)>,
    /// Total channels pruned.
    pub pruned: usize,
    /// Total channels before pruning.
    pub total: usize,
}

impl PruneReport {
    /// Surviving-channel fraction of layer `i`.
    pub fn survival(&self, i: usize) -> f64 {
        let (_, live, total) = &self.layers[i];
        *live as f64 / *total as f64
    }

    /// Analytic FLOPs estimate for the pruned model given the unpruned
    /// per-layer costs: each conv's cost scales with
    /// `survival(in-layer) × survival(out-layer)` (quadratic, like width
    /// slicing, but with a pattern frozen at prune time).
    pub fn flops_estimate(&self, full_flops: u64) -> u64 {
        if self.layers.is_empty() {
            return full_flops;
        }
        // Without per-layer cost attribution, use the chained survival
        // product: cost ≈ Σ_i s_{i-1}·s_i · c_i ≈ mean(s_{i-1}·s_i) · C0.
        let mut acc = 0.0f64;
        for i in 0..self.layers.len() {
            let s_in = if i == 0 { 1.0 } else { self.survival(i - 1) };
            acc += s_in * self.survival(i);
        }
        let mean = acc / self.layers.len() as f64;
        (full_flops as f64 * mean) as u64
    }
}

/// Prunes the `frac` globally-smallest-|γ| channels by zeroing their γ and β.
/// Returns which channels survive per layer. Combine with
/// [`apply_prune_mask`] after every fine-tuning step to keep them dead.
pub fn prune_by_gamma(net: &mut dyn Layer, frac: f64) -> PruneReport {
    let threshold = gamma_threshold(net, frac);
    let mut layers = Vec::new();
    let mut pruned = 0usize;
    let mut total = 0usize;
    // First pass: γ — record masks; second pass inside: β zeroed by name.
    let mut masks: Vec<(String, Vec<bool>)> = Vec::new();
    net.visit_params(&mut |p: &mut Param| {
        if p.name.ends_with(".gamma") {
            let mut live = 0usize;
            let mask: Vec<bool> = p
                .value
                .data()
                .iter()
                .map(|&v| v.abs() > threshold)
                .collect();
            for (v, &keep) in p.value_mut().data_mut().iter_mut().zip(&mask) {
                if keep {
                    live += 1;
                } else {
                    *v = 0.0;
                }
            }
            // Keep at least one channel alive per layer: a fully-dead layer
            // kills the network (physical slimming would do the same).
            if live == 0 {
                p.value_mut().data_mut()[0] = threshold.max(1e-3);
            }
            let total_ch = mask.len();
            pruned += total_ch - live.max(1);
            total += total_ch;
            layers.push((p.name.clone(), live.max(1), total_ch));
            masks.push((p.name.trim_end_matches(".gamma").to_string(), mask));
        }
    });
    // Zero matching β entries.
    net.visit_params(&mut |p: &mut Param| {
        if let Some(base) = p.name.strip_suffix(".beta") {
            if let Some((_, mask)) = masks.iter().find(|(b, _)| b == base) {
                for (v, &keep) in p.value_mut().data_mut().iter_mut().zip(mask) {
                    if !keep {
                        *v = 0.0;
                    }
                }
            }
        }
    });
    PruneReport {
        layers,
        pruned,
        total,
    }
}

/// Re-zeroes pruned γ/β (and their gradients) after a fine-tuning step so
/// pruned channels stay dead. `report` comes from [`prune_by_gamma`].
pub fn apply_prune_mask(net: &mut dyn Layer, report: &PruneReport) {
    // A channel is dead iff its γ is exactly 0.0 after pruning; freezing is
    // implemented by clearing the gradient before the next optimiser step
    // and re-zeroing values drifted by weight decay.
    let _ = report;
    let mut dead_masks: Vec<(String, Vec<bool>)> = Vec::new();
    net.visit_params(&mut |p: &mut Param| {
        if p.name.ends_with(".gamma") {
            let mask: Vec<bool> = p.value.data().iter().map(|&v| v == 0.0).collect();
            let (value, grad) = (Arc::make_mut(&mut p.value), p.grad.get_mut());
            for ((v, g), &dead) in value.data_mut().iter_mut().zip(grad.data_mut()).zip(&mask) {
                if dead {
                    *v = 0.0;
                    *g = 0.0;
                }
            }
            dead_masks.push((p.name.trim_end_matches(".gamma").to_string(), mask));
        }
    });
    net.visit_params(&mut |p: &mut Param| {
        if let Some(base) = p.name.strip_suffix(".beta") {
            if let Some((_, mask)) = dead_masks.iter().find(|(b, _)| b == base) {
                let (value, grad) = (Arc::make_mut(&mut p.value), p.grad.get_mut());
                for ((v, g), &dead) in value.data_mut().iter_mut().zip(grad.data_mut()).zip(mask) {
                    if dead {
                        *v = 0.0;
                        *g = 0.0;
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_models::vgg::{Vgg, VggConfig};
    use ms_nn::layer::{Mode, Network};
    use ms_tensor::{SeededRng, Tensor};

    fn vgg() -> Vgg {
        let mut rng = SeededRng::new(1);
        Vgg::new(
            &VggConfig {
                in_channels: 3,
                image_size: 8,
                stages: vec![(1, 8), (1, 8)],
                num_classes: 4,
                groups: 4,
                width_multiplier: 1.0,
            },
            &mut rng,
        )
    }

    #[test]
    fn l1_pushes_gamma_gradients_toward_zero() {
        let mut v = vgg();
        v.zero_grads();
        add_gamma_l1(&mut v, 0.01);
        let mut saw = 0;
        v.visit_params(&mut |p| {
            let grad = p.grad.get().expect("zeroed above").data();
            if p.name.ends_with(".gamma") {
                // γ init is 1.0 → grad += λ·1.
                assert!(grad.iter().all(|&g| (g - 0.01).abs() < 1e-7));
                saw += 1;
            } else {
                assert!(grad.iter().all(|&g| g == 0.0));
            }
        });
        assert_eq!(saw, 2);
    }

    #[test]
    fn pruning_zeroes_smallest_gammas() {
        let mut v = vgg();
        // Spread γ values so the threshold is meaningful.
        let mut i = 0;
        v.visit_params(&mut |p| {
            if p.name.ends_with(".gamma") {
                for g in p.value_mut().data_mut() {
                    i += 1;
                    *g = i as f32 * 0.1;
                }
            }
        });
        let report = prune_by_gamma(&mut v, 0.5);
        assert_eq!(report.total, 16);
        assert!(
            report.pruned >= 7 && report.pruned <= 8,
            "{}",
            report.pruned
        );
        // First layer holds the smallest values → prunes more.
        assert!(report.layers[0].1 <= report.layers[1].1);
        // Network still forwards.
        let y = v.forward(&Tensor::zeros([1, 3, 8, 8]), Mode::Infer);
        assert_eq!(y.dims(), &[1, 4]);
    }

    #[test]
    fn flops_estimate_shrinks_quadratically() {
        let mut v = vgg();
        let mut i = 0;
        v.visit_params(&mut |p| {
            if p.name.ends_with(".gamma") {
                for g in p.value_mut().data_mut() {
                    i += 1;
                    *g = if i % 2 == 0 { 1.0 } else { 0.01 };
                }
            }
        });
        let report = prune_by_gamma(&mut v, 0.5);
        let est = report.flops_estimate(1000);
        // Half survival in both layers → in·out ≈ 0.5·0.5 for layer 2,
        // 1.0·0.5 for layer 1 → mean 0.375.
        assert!(est < 500, "est {est}");
    }

    #[test]
    fn mask_keeps_pruned_channels_dead_through_updates() {
        let mut v = vgg();
        let report = prune_by_gamma(&mut v, 0.9); // prune almost everything
                                                  // Simulate a fine-tune step perturbing all params.
        v.visit_params(&mut |p| {
            for g in p.grad.get_mut().data_mut() {
                *g = 0.5;
            }
        });
        apply_prune_mask(&mut v, &report);
        v.visit_params(&mut |p| {
            if p.name.ends_with(".gamma") {
                for (v, g) in p.value.data().iter().zip(p.grad.get().unwrap().data()) {
                    if *v == 0.0 {
                        assert_eq!(*g, 0.0, "dead channel received gradient");
                    }
                }
            }
        });
    }
}
