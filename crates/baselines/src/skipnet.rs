//! Budgeted layer skipping — the dynamic-routing baseline of Figure 2
//! ("ResNet with Dynamic Routing (SkipNet)").
//!
//! Substitution note (DESIGN.md): SkipNet learns a per-input gating policy
//! with reinforcement learning; reproducing the RL machinery is out of scope
//! and irrelevant to the comparison, which only needs a *depth-elastic*
//! comparator whose accuracy/FLOPs trade-off comes from skipping residual
//! blocks. This module provides exactly that: a residual conv trunk trained
//! with stochastic depth (random block drops, which is what makes skipping
//! survivable — the same property SkipNet's policy exploits), plus an
//! inference-time knob that skips a chosen fraction of blocks.

use ms_nn::activation::Relu;
use ms_nn::conv2d::{Conv2d, Conv2dConfig};
use ms_nn::layer::{Layer, Mode, Param};
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::norm::GroupNorm;
use ms_nn::pool::{GlobalAvgPool, MaxPool2d};
use ms_tensor::{SeededRng, Tensor};

/// One skippable residual unit: `x + conv3×3(relu(gn(x)))`, same channels.
struct SkipBlock {
    gn: GroupNorm,
    relu: Relu,
    conv: Conv2d,
    /// Whether the last Train forward executed this block (stochastic depth).
    executed: bool,
}

impl SkipBlock {
    fn new(name: &str, channels: usize, hw: usize, rng: &mut SeededRng) -> Self {
        SkipBlock {
            gn: GroupNorm::new(format!("{name}.gn"), channels, channels.min(4)),
            relu: Relu::new(),
            conv: Conv2d::new(
                format!("{name}.conv"),
                Conv2dConfig {
                    in_ch: channels,
                    out_ch: channels,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    h: hw,
                    w: hw,
                    in_groups: None,
                    out_groups: None,
                    bias: false,
                },
                rng,
            ),
            executed: true,
        }
    }

    fn forward(&mut self, x: &Tensor, mode: Mode, execute: bool) -> Tensor {
        self.executed = execute;
        if !execute {
            return x.clone();
        }
        let t = self.relu.forward(&self.gn.forward(x, mode), mode);
        let mut y = self.conv.forward(&t, mode);
        y.add_assign(x);
        y
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        if !self.executed {
            return dout.clone();
        }
        let d = self.conv.backward(dout);
        let dx_branch = self.gn.backward(&self.relu.backward(&d));
        dx_branch.add(dout)
    }

    fn flops(&self) -> u64 {
        self.conv.flops_per_sample() + self.gn.flops_per_sample()
    }
}

/// Configuration for [`SkipNet`].
#[derive(Debug, Clone)]
pub struct SkipNetConfig {
    /// Input channels.
    pub in_channels: usize,
    /// Input spatial size.
    pub image_size: usize,
    /// `(skippable blocks, channels)` per group; a 2×2 pool follows each.
    pub groups_cfg: Vec<(usize, usize)>,
    /// Output classes.
    pub num_classes: usize,
    /// Training-time drop probability per block (stochastic depth).
    pub drop_prob: f64,
}

/// Depth-elastic residual network.
pub struct SkipNet {
    stems: Vec<Conv2d>,
    blocks: Vec<Vec<SkipBlock>>,
    pools: Vec<MaxPool2d>,
    pool_out: GlobalAvgPool,
    head: Linear,
    drop_prob: f64,
    /// Inference-time fraction of skippable blocks to skip.
    skip_fraction: f64,
    rng: SeededRng,
}

impl SkipNet {
    /// Builds the network.
    pub fn new(cfg: &SkipNetConfig, rng: &mut SeededRng) -> Self {
        assert!(!cfg.groups_cfg.is_empty());
        let mut stems = Vec::new();
        let mut blocks = Vec::new();
        let mut pools = Vec::new();
        let mut in_ch = cfg.in_channels;
        let mut hw = cfg.image_size;
        for (gi, &(n_blocks, width)) in cfg.groups_cfg.iter().enumerate() {
            stems.push(Conv2d::new(
                format!("stem{gi}"),
                Conv2dConfig {
                    in_ch,
                    out_ch: width,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                    h: hw,
                    w: hw,
                    in_groups: None,
                    out_groups: None,
                    bias: false,
                },
                rng,
            ));
            blocks.push(
                (0..n_blocks)
                    .map(|bi| SkipBlock::new(&format!("g{gi}b{bi}"), width, hw, rng))
                    .collect(),
            );
            pools.push(MaxPool2d::new(2, 2));
            hw /= 2;
            in_ch = width;
        }
        let head = Linear::new("head", LinearConfig::dense(in_ch, cfg.num_classes), rng);
        SkipNet {
            stems,
            blocks,
            pools,
            pool_out: GlobalAvgPool::new(),
            head,
            drop_prob: cfg.drop_prob,
            skip_fraction: 0.0,
            rng: rng.fork(0x5F1B),
        }
    }

    /// Sets the inference-time skip fraction `∈ [0, 1]` (0 = run everything).
    pub fn set_skip_fraction(&mut self, f: f64) {
        assert!((0.0..=1.0).contains(&f));
        self.skip_fraction = f;
    }

    /// Total skippable blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.iter().map(|g| g.len()).sum()
    }

    /// Which blocks run at the current skip fraction: the *last* `k` blocks
    /// of each group are skipped (later blocks refine, earlier ones carry
    /// the representation — skipping from the back degrades most gently).
    fn execute_plan(&self) -> Vec<Vec<bool>> {
        self.blocks
            .iter()
            .map(|g| {
                let n = g.len();
                let skip = (self.skip_fraction * n as f64).round() as usize;
                (0..n).map(|i| i < n - skip.min(n)).collect()
            })
            .collect()
    }
}

impl Layer for SkipNet {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let plan = self.execute_plan();
        let mut cur = x.clone();
        #[allow(clippy::needless_range_loop)] // gi indexes stems, blocks and plan
        for gi in 0..self.stems.len() {
            cur = self.stems[gi].forward(&cur, mode);
            for (bi, block) in self.blocks[gi].iter_mut().enumerate() {
                let execute = if mode == Mode::Train {
                    // Stochastic depth: drop independently during training.
                    !self.rng.chance(self.drop_prob)
                } else {
                    plan[gi][bi]
                };
                cur = block.forward(&cur, mode, execute);
            }
            cur = self.pools[gi].forward(&cur, mode);
        }
        let pooled = self.pool_out.forward(&cur, mode);
        self.head.forward(&pooled, mode)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut d = self.head.backward(dy);
        d = self.pool_out.backward(&d);
        for gi in (0..self.stems.len()).rev() {
            d = self.pools[gi].backward(&d);
            for block in self.blocks[gi].iter_mut().rev() {
                d = block.backward(&d);
            }
            d = self.stems[gi].backward(&d);
        }
        d
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for s in &mut self.stems {
            s.visit_params(f);
        }
        for g in &mut self.blocks {
            for b in g {
                b.gn.visit_params(f);
                b.conv.visit_params(f);
            }
        }
        self.head.visit_params(f);
    }

    fn flops_per_sample(&self) -> u64 {
        let plan = self.execute_plan();
        let mut f: u64 = self.stems.iter().map(|s| s.flops_per_sample()).sum();
        for (gi, g) in self.blocks.iter().enumerate() {
            for (bi, b) in g.iter().enumerate() {
                if plan[gi][bi] {
                    f += b.flops();
                }
            }
        }
        f + self.head.flops_per_sample()
    }

    fn active_param_count(&self) -> u64 {
        let mut p: u64 = self.stems.iter().map(|s| s.active_param_count()).sum();
        for g in &self.blocks {
            for b in g {
                p += b.conv.active_param_count() + b.gn.active_param_count();
            }
        }
        p + self.head.active_param_count()
    }

    fn name(&self) -> &str {
        "skipnet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SkipNetConfig {
        SkipNetConfig {
            in_channels: 3,
            image_size: 8,
            groups_cfg: vec![(2, 8), (2, 16)],
            num_classes: 4,
            drop_prob: 0.0,
        }
    }

    #[test]
    fn forward_shapes_any_skip_fraction() {
        let mut rng = SeededRng::new(1);
        let mut net = SkipNet::new(&cfg(), &mut rng);
        let x = Tensor::zeros([2, 3, 8, 8]);
        for f in [0.0, 0.5, 1.0] {
            net.set_skip_fraction(f);
            assert_eq!(net.forward(&x, Mode::Infer).dims(), &[2, 4]);
        }
    }

    #[test]
    fn skipping_reduces_flops_monotonically() {
        let mut rng = SeededRng::new(2);
        let mut net = SkipNet::new(&cfg(), &mut rng);
        let mut prev = u64::MAX;
        for f in [0.0, 0.5, 1.0] {
            net.set_skip_fraction(f);
            let fl = net.flops_per_sample();
            assert!(fl < prev, "flops not decreasing at {f}");
            prev = fl;
        }
    }

    #[test]
    fn full_skip_equals_stem_only_path() {
        let mut rng = SeededRng::new(3);
        let mut net = SkipNet::new(&cfg(), &mut rng);
        net.set_skip_fraction(1.0);
        // All residual blocks skipped: identity passthrough, still valid.
        let y = net.forward(&Tensor::full([1, 3, 8, 8], 0.3), Mode::Infer);
        assert_eq!(y.dims(), &[1, 4]);
    }

    #[test]
    fn gradients_flow_with_blocks_skipped() {
        let mut rng = SeededRng::new(4);
        let mut cfg = cfg();
        cfg.drop_prob = 0.5; // stochastic depth active
        let mut net = SkipNet::new(&cfg, &mut rng);
        let x = Tensor::full([1, 3, 8, 8], 0.2);
        let y = net.forward(&x, Mode::Train);
        let dx = net.backward(&Tensor::full(y.shape().clone(), 1.0));
        assert_eq!(dx.dims(), x.dims());
        // Head always receives gradient.
        let mut head_grad = 0.0f32;
        net.visit_params(&mut |p| {
            if p.name == "head.weight" {
                head_grad = p.grad.max_abs();
            }
        });
        assert!(head_grad > 0.0);
    }

    #[test]
    fn skipped_blocks_get_no_gradient() {
        let mut rng = SeededRng::new(5);
        let mut net = SkipNet::new(&cfg(), &mut rng);
        net.set_skip_fraction(1.0);
        // Infer-mode plan applies in Train too when drop_prob = 0? No —
        // training uses stochastic drops only. Emulate by forcing plan via
        // drop_prob = 1.0.
        net.drop_prob = 1.0;
        let x = Tensor::full([1, 3, 8, 8], 0.2);
        let y = net.forward(&x, Mode::Train);
        let _ = net.backward(&Tensor::full(y.shape().clone(), 1.0));
        net.visit_params(&mut |p| {
            if p.name.contains("b0.conv") || p.name.contains("b1.conv") {
                assert_eq!(p.grad.max_abs(), 0.0, "{} got gradient", p.name);
            }
        });
    }
}
