//! Sliced Group Normalization (Wu & He 2018), as adapted by model slicing.
//!
//! Channels are divided into the *same* `G` groups used for slicing, and the
//! mean/variance of each group are computed per sample over
//! `channels-in-group × H × W` (Eq. 5/6 of the paper). Because statistics
//! never cross group boundaries, slicing off trailing groups leaves the
//! distribution of every remaining channel untouched — the property that
//! lets one set of affine parameters serve every subnet.
//!
//! The per-channel scale `γ` is also the signal visualised in Figure 6 (the
//! stratified "group residual" pattern) and the pruning criterion for the
//! Network Slimming baseline; [`GroupNorm::gammas`] exposes it.

use crate::layer::{Layer, Mode, Param};
use crate::slice::{active_groups, group_boundary, SliceRate};
use crate::workspace::take_zeroed;
use ms_tensor::{ops, par, Tensor};
use std::ops::Range;

/// Sliced group normalisation over `[B, C_active, H, W]` or `[B, C_active]`.
pub struct GroupNorm {
    name: String,
    channels: usize,
    groups: usize,
    eps: f32,
    gamma: Param,
    beta: Param,
    active_groups: usize,
    /// Grow-only scratch: the Train forward's `1/σ` per (sample, group),
    /// and the backward's second-part `dγ`/`dβ` partial sums.
    inv_std: Vec<f32>,
    partial: Vec<f32>,
    cache: Option<Cache>,
}

struct Cache {
    /// Normalised activations x̂ (same shape as input).
    xhat: Tensor,
    /// 1/√(σ²+ε) per (sample, group).
    inv_std: Vec<f32>,
    /// Spatial size of the input (H·W; 1 for dense inputs).
    hw: usize,
    batch: usize,
}

impl GroupNorm {
    /// Creates a group-norm layer over `channels` channels in `groups`
    /// groups. `groups` must match the slicing group count of the
    /// convolution it follows.
    pub fn new(name: impl Into<String>, channels: usize, groups: usize) -> Self {
        assert!(groups >= 1 && groups <= channels);
        let name = name.into();
        GroupNorm {
            channels,
            groups,
            eps: 1e-5,
            gamma: Param::new(
                format!("{name}.gamma"),
                Tensor::full([channels], 1.0),
                false,
            ),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros([channels]), false),
            active_groups: groups,
            inv_std: Vec::new(),
            partial: Vec::new(),
            cache: None,
            name,
        }
    }

    /// Per-channel scale factors γ (Figure 6 probe, slimming criterion).
    pub fn gammas(&self) -> &[f32] {
        self.gamma.value.data()
    }

    /// Channel range `[lo, hi)` of group `i` (0-based).
    fn group_range(&self, i: usize) -> (usize, usize) {
        (
            group_boundary(self.channels, self.groups, i),
            group_boundary(self.channels, self.groups, i + 1),
        )
    }

    /// Number of channels active under the current slice setting.
    pub fn active_channels(&self) -> usize {
        group_boundary(self.channels, self.groups, self.active_groups)
    }

    /// The `Train` forward of some samples: `y` holds their inputs on entry
    /// and their outputs on return, `xhat` (stale on entry) and `inv_stds`
    /// receive what `backward` needs.
    fn normalise_train(&self, hw: usize, y: &mut [f32], xhat: &mut [f32], inv_stds: &mut [f32]) {
        let per_sample = self.active_channels() * hw;
        let samples = y
            .chunks_exact_mut(per_sample)
            .zip(xhat.chunks_exact_mut(per_sample))
            .zip(inv_stds.chunks_exact_mut(self.active_groups));
        let (gammas, betas) = (self.gamma.value.data(), self.beta.value.data());
        for ((y, xhat), inv_stds) in samples {
            for (g, inv_std_out) in inv_stds.iter_mut().enumerate() {
                let (lo, hi) = self.group_range(g);
                let span = lo * hw..hi * hw;
                let (mean, var) = ops::mean_var(&y[span.clone()]);
                let inv_std = 1.0 / (var + self.eps).sqrt();
                *inv_std_out = inv_std;
                // x̂ = (x − μ)·σ⁻¹ from x (which `y` holds on entry), then
                // y = γ·x̂ + β over it, per channel over slices.
                let channels = y[span.clone()]
                    .chunks_exact_mut(hw)
                    .zip(xhat[span].chunks_exact_mut(hw))
                    .zip(gammas[lo..hi].iter().zip(&betas[lo..hi]));
                for ((y, xh), (&gamma, &beta)) in channels {
                    for (y, xh) in y.iter_mut().zip(xh) {
                        *xh = (*y - mean) * inv_std;
                        *y = gamma * *xh + beta;
                    }
                }
            }
        }
    }

    /// The `Infer` forward of one sample in place: `y` holds its input on
    /// entry and its output on return.
    fn normalise_infer(&self, hw: usize, y: &mut [f32]) {
        let (gammas, betas) = (self.gamma.value.data(), self.beta.value.data());
        for g in 0..self.active_groups {
            let (lo, hi) = self.group_range(g);
            let group = &mut y[lo * hw..hi * hw];
            let (mean, var) = ops::mean_var(group);
            let inv_std = 1.0 / (var + self.eps).sqrt();
            let channels = group
                .chunks_exact_mut(hw)
                .zip(gammas[lo..hi].iter().zip(&betas[lo..hi]));
            for (row, (&gamma, &beta)) in channels {
                for v in row {
                    *v = gamma * (*v - mean) * inv_std + beta;
                }
            }
        }
    }
}

/// What both parts of a split `backward` read.
struct BackwardPass<'a> {
    /// Group geometry: `group_boundary(channels, groups, g)` bounds group `g`.
    channels: usize,
    groups: usize,
    active_groups: usize,
    hw: usize,
    gamma: &'a [f32],
    xhat: &'a [f32],
    inv_std: &'a [f32],
}

impl BackwardPass<'_> {
    /// `backward` over `samples`: `dx` holds exactly those samples' rows of
    /// `dy` on entry and their `dx` on return, each group read in full
    /// before it is overwritten; `dgamma` and `dbeta` are added to.
    fn run(&self, samples: Range<usize>, dx: &mut [f32], dgamma: &mut [f32], dbeta: &mut [f32]) {
        let hw = self.hw;
        let c_act = group_boundary(self.channels, self.groups, self.active_groups);
        for (s, dx) in samples.zip(dx.chunks_exact_mut(c_act * hw)) {
            let sample_off = s * c_act * hw;
            for g in 0..self.active_groups {
                let lo = group_boundary(self.channels, self.groups, g);
                let hi = group_boundary(self.channels, self.groups, g + 1);
                let n = ((hi - lo) * hw) as f32;
                let xh = &self.xhat[sample_off + lo * hw..sample_off + hi * hw];
                let dxv = &mut dx[lo * hw..hi * hw];
                let inv_std = self.inv_std[s * self.active_groups + g];

                // Affine grads + dx̂ statistics in one pass.
                let mut sum_dxhat = 0.0f32;
                let mut sum_dxhat_xhat = 0.0f32;
                for (ch_idx, ch) in (lo..hi).enumerate() {
                    let gamma = self.gamma[ch];
                    let base = ch_idx * hw;
                    let mut dg = 0.0f32;
                    let mut db = 0.0f32;
                    for k in 0..hw {
                        let d = dxv[base + k];
                        let xv = xh[base + k];
                        dg += d * xv;
                        db += d;
                        let dxhat = d * gamma;
                        sum_dxhat += dxhat;
                        sum_dxhat_xhat += dxhat * xv;
                    }
                    dgamma[ch] += dg;
                    dbeta[ch] += db;
                }
                let mean_dxhat = sum_dxhat / n;
                let mean_dxhat_xhat = sum_dxhat_xhat / n;

                for (ch_idx, ch) in (lo..hi).enumerate() {
                    let gamma = self.gamma[ch];
                    let base = ch_idx * hw;
                    for k in 0..hw {
                        let dxhat = dxv[base + k] * gamma;
                        dxv[base + k] =
                            inv_std * (dxhat - mean_dxhat - xh[base + k] * mean_dxhat_xhat);
                    }
                }
            }
        }
    }
}

impl Layer for GroupNorm {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward_owned(x.pooled_clone(), mode)
    }

    /// Writes `y` over `x`.
    fn forward_owned(&mut self, mut x: Tensor, mode: Mode) -> Tensor {
        let _span = ms_tensor::span!("nn.groupnorm");
        let dims = x.dims();
        assert!(
            dims.len() == 2 || dims.len() == 4,
            "{}: expect [B,C] or [B,C,H,W]",
            self.name
        );
        let batch = dims[0];
        let c_act = dims[1];
        assert_eq!(
            c_act,
            self.active_channels(),
            "{}: input channels vs active slice",
            self.name
        );
        let hw: usize = dims[2..].iter().product::<usize>().max(1);

        if mode == Mode::Train {
            let mut xhat = Tensor::pooled_stale(x.shape().clone());
            let mut inv_stds = take_zeroed(&mut self.inv_std, batch * self.active_groups);
            // Statistics are per (sample, group): the two fixed parts of the
            // batch normalise their own samples.
            let mid = par::mid(batch);
            let (y0, y1) = x.data_mut().split_at_mut(mid * c_act * hw);
            let (xhat0, xhat1) = xhat.data_mut().split_at_mut(mid * c_act * hw);
            let (inv0, inv1) = inv_stds.split_at_mut(mid * self.active_groups);
            let this = &*self;
            par::join(
                || this.normalise_train(hw, y0, xhat0, inv0),
                || this.normalise_train(hw, y1, xhat1, inv1),
            );
            self.cache = Some(Cache {
                xhat,
                inv_std: inv_stds,
                hw,
                batch,
            });
        } else {
            // Inference needs no x̂ cache: normalise and apply the affine in
            // a single in-place pass.
            for sample in x.data_mut().chunks_exact_mut(c_act * hw) {
                self.normalise_infer(hw, sample);
            }
        }
        x
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_owned(dy.pooled_clone())
    }

    /// Writes `dx` over `dy`.
    fn backward_owned(&mut self, mut dy: Tensor) -> Tensor {
        let _span = ms_tensor::span!("nn.groupnorm_bwd");
        let cache = self.cache.take().expect("backward before Train forward");
        let c_act = self.active_channels();
        let mid = par::mid(cache.batch);
        let (dx0, dx1) = dy.data_mut().split_at_mut(mid * c_act * cache.hw);
        let pass = BackwardPass {
            channels: self.channels,
            groups: self.groups,
            active_groups: self.active_groups,
            hw: cache.hw,
            gamma: self.gamma.value.data(),
            xhat: cache.xhat.data(),
            inv_std: &cache.inv_std,
        };
        // `dγ`/`dβ` are sums over samples: part 0 adds to `Param::grad`,
        // part 1 to a zeroed partial that is added once both are done.
        let (dgamma, dbeta) = (
            self.gamma.grad.get_mut().data_mut(),
            self.beta.grad.get_mut().data_mut(),
        );
        let mut partial = take_zeroed(&mut self.partial, 2 * c_act);
        let (dgamma1, dbeta1) = partial.split_at_mut(c_act);
        par::join(
            || pass.run(0..mid, dx0, dgamma, dbeta),
            || pass.run(mid..cache.batch, dx1, dgamma1, dbeta1),
        );
        if mid < cache.batch {
            dgamma.iter_mut().zip(&*dgamma1).for_each(|(g, p)| *g += p);
            dbeta.iter_mut().zip(&*dbeta1).for_each(|(g, p)| *g += p);
        }
        self.partial = partial;
        cache.xhat.recycle();
        self.inv_std = cache.inv_std;
        dy
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn set_slice_rate(&mut self, r: SliceRate) {
        self.active_groups = active_groups(self.channels, self.groups, r);
    }

    fn flops_per_sample(&self) -> u64 {
        // Two passes over active elements; count as one MAC each.
        2 * self.active_channels() as u64
    }

    fn active_param_count(&self) -> u64 {
        2 * self.active_channels() as u64
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_grads;
    use ms_tensor::SeededRng;

    fn random_input(rng: &mut SeededRng, dims: [usize; 4]) -> Tensor {
        let n = dims.iter().product();
        Tensor::from_vec(dims, (0..n).map(|_| rng.uniform(-2.0, 2.0)).collect()).unwrap()
    }

    #[test]
    fn normalises_per_group() {
        let mut rng = SeededRng::new(1);
        let mut gn = GroupNorm::new("gn", 8, 4);
        let x = random_input(&mut rng, [2, 8, 3, 3]);
        let y = gn.forward(&x, Mode::Infer);
        // γ=1, β=0 ⇒ each (sample, group) slab has ~zero mean, ~unit var.
        for s in 0..2 {
            for g in 0..4 {
                let slab: Vec<f32> = (2 * g..2 * g + 2)
                    .flat_map(|c| (0..9).map(move |k| (c, k)))
                    .map(|(c, k)| y.at(&[s, c, k / 3, k % 3]))
                    .collect();
                let (m, v) = ms_tensor::ops::mean_var(&slab);
                assert!(m.abs() < 1e-4, "mean {m}");
                assert!((v - 1.0).abs() < 1e-2, "var {v}");
            }
        }
    }

    #[test]
    fn slice_invariance_of_leading_groups() {
        // The defining property: outputs of the active prefix are identical
        // whether or not later groups are active.
        let mut rng = SeededRng::new(2);
        let mut gn = GroupNorm::new("gn", 8, 4);
        let x_full = random_input(&mut rng, [1, 8, 2, 2]);
        let full = gn.forward(&x_full, Mode::Infer);
        gn.set_slice_rate(SliceRate::new(0.5));
        // Slice the input to its first 4 channels.
        let x_half = Tensor::from_vec([1, 4, 2, 2], x_full.data()[..16].to_vec()).unwrap();
        let half = gn.forward(&x_half, Mode::Infer);
        for c in 0..4 {
            for i in 0..2 {
                for j in 0..2 {
                    assert!((half.at(&[0, c, i, j]) - full.at(&[0, c, i, j])).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn gradients_full_and_sliced() {
        let mut rng = SeededRng::new(3);
        let mut gn = GroupNorm::new("gn", 8, 4);
        let x = random_input(&mut rng, [2, 8, 2, 2]);
        assert_grads(&mut gn, &x, &mut rng);
        gn.set_slice_rate(SliceRate::new(0.5));
        let x = random_input(&mut rng, [2, 4, 2, 2]);
        assert_grads(&mut gn, &x, &mut rng);
    }

    #[test]
    fn dense_rank2_inputs_supported() {
        let mut rng = SeededRng::new(4);
        let mut gn = GroupNorm::new("gn", 8, 2);
        let x =
            Tensor::from_vec([3, 8], (0..24).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap();
        let y = gn.forward(&x, Mode::Infer);
        assert_eq!(y.dims(), &[3, 8]);
        assert_grads(&mut gn, &x, &mut rng);
    }

    #[test]
    fn inactive_gamma_receives_no_grad() {
        let mut rng = SeededRng::new(5);
        let mut gn = GroupNorm::new("gn", 8, 4);
        gn.set_slice_rate(SliceRate::new(0.25));
        let x = random_input(&mut rng, [1, 2, 2, 2]);
        let _ = gn.forward(&x, Mode::Train);
        let _ = gn.backward(&Tensor::full([1, 2, 2, 2], 1.0));
        assert!(gn.gamma.grad.get().unwrap().data()[2..]
            .iter()
            .all(|&v| v == 0.0));
        assert!(gn.beta.grad.get().unwrap().data()[2..]
            .iter()
            .all(|&v| v == 0.0));
    }
}
