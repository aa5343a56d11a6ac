//! Algorithm 1: training with model slicing.
//!
//! Per iteration: draw the rate list `L_t` from the scheduling scheme, run
//! one forward/backward per scheduled subnet *accumulating* gradients into
//! the shared parameters, then apply a single optimiser update. Subnets are
//! processed full-network-first (the scheduler orders descending), matching
//! the knowledge-distillation intuition of §3.1: the base network always
//! trains inside gradients that also reflect the larger subnets.

use crate::scheduler::Scheduler;
use crate::slice_rate::SliceRate;
use ms_nn::layer::{Layer, Mode, Network};
use ms_nn::loss::CrossEntropy;
use ms_nn::optim::{Sgd, SgdConfig};
use ms_telemetry::{Counter, Gauge, Histogram};
use ms_tensor::{ops, Tensor};
use std::time::Instant;

/// Registry handles for the Algorithm-1 loop. Registered once per trainer
/// (idempotent — every trainer in the process shares the same global
/// series); per-rate subnet timing histograms are added lazily the first
/// time a rate is scheduled, then cached so the steady-state iteration
/// records through pre-resolved handles without allocating.
struct TrainerMetrics {
    steps: Counter,
    loss: Gauge,
    grad_norm: Gauge,
    loss_hist: Histogram,
    grad_norm_hist: Histogram,
    subnet_seconds: Vec<(SliceRate, Histogram)>,
}

impl TrainerMetrics {
    fn new() -> TrainerMetrics {
        let reg = ms_telemetry::global();
        TrainerMetrics {
            steps: reg.counter("trainer_steps_total", "Algorithm-1 optimiser steps"),
            loss: reg.gauge(
                "trainer_loss",
                "cross-entropy of the most recent subnet pass",
            ),
            grad_norm: reg.gauge(
                "trainer_grad_norm",
                "pre-clip global gradient norm of the most recent step",
            ),
            loss_hist: reg.histogram(
                "trainer_subnet_loss",
                "cross-entropy per scheduled subnet pass",
            ),
            grad_norm_hist: reg.histogram(
                "trainer_grad_norm_hist",
                "pre-clip global gradient norm per step",
            ),
            subnet_seconds: Vec::new(),
        }
    }

    fn subnet_seconds(&mut self, r: SliceRate) -> &Histogram {
        if let Some(i) = self.subnet_seconds.iter().position(|(rr, _)| *rr == r) {
            return &self.subnet_seconds[i].1;
        }
        let h = ms_telemetry::global().histogram_with(
            "trainer_subnet_seconds",
            &[("rate", &format!("{r}"))],
            "forward+backward wall seconds per scheduled subnet pass",
        );
        self.subnet_seconds.push((r, h));
        &self.subnet_seconds.last().expect("just pushed").1
    }
}

/// One training batch: inputs plus integer class/token targets.
///
/// For classification `x: [B, …]` and `y.len() == B`; for language modelling
/// `x: [B, T]` token ids and `y.len() == B·T` (next-token targets, row-major
/// over `[B, T]`).
#[derive(Debug, Clone)]
pub struct Batch {
    /// Input tensor.
    pub x: Tensor,
    /// Targets, one per logit row produced by the network.
    pub y: Vec<usize>,
}

/// Trainer configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainerConfig {
    /// Optimiser hyper-parameters.
    pub sgd: SgdConfig,
    /// Divide accumulated gradients by `|L_t|`. Algorithm 1 sums; averaging
    /// keeps the effective step size comparable across scheduling schemes
    /// (useful for the Table-1 ablation, where `|L_t|` varies 1–4).
    pub average_subnet_grads: bool,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            sgd: SgdConfig::default(),
            average_subnet_grads: true,
        }
    }
}

/// Statistics of one Algorithm-1 step.
#[derive(Debug, Clone)]
pub struct StepStats {
    /// `(rate, cross-entropy)` per scheduled subnet, descending rate order.
    pub subnet_losses: Vec<(SliceRate, f64)>,
    /// Pre-clip global gradient norm.
    pub grad_norm: f64,
}

/// Statistics of a full epoch.
#[derive(Debug, Clone, Default)]
pub struct EpochStats {
    /// Mean loss over all scheduled subnet passes.
    pub mean_loss: f64,
    /// Number of optimiser steps taken.
    pub steps: usize,
}

/// The Algorithm-1 trainer.
pub struct Trainer {
    scheduler: Scheduler,
    optimizer: Sgd,
    average: bool,
    criterion: CrossEntropy,
    metrics: TrainerMetrics,
}

impl Trainer {
    /// Creates a trainer from a scheduler and config.
    pub fn new(scheduler: Scheduler, cfg: TrainerConfig) -> Self {
        Trainer {
            scheduler,
            optimizer: Sgd::new(cfg.sgd),
            average: cfg.average_subnet_grads,
            criterion: CrossEntropy,
            metrics: TrainerMetrics::new(),
        }
    }

    /// Mutable optimiser access (LR schedules).
    pub fn optimizer_mut(&mut self) -> &mut Sgd {
        &mut self.optimizer
    }

    /// The scheduler in use.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// One Algorithm-1 iteration on `batch`.
    ///
    /// The step zeroes every gradient before the scheduled subnets'
    /// backward passes accumulate into them, so what a stray backward left
    /// behind never reaches the update.
    ///
    /// The step claims the process's fork-join helper if it is free, so the
    /// two fixed parts every split layer pass runs in go to two cores; with
    /// the helper taken (another trainer's step) or absent (one core) the
    /// same parts run one after the other, to the same bits.
    pub fn step(&mut self, net: &mut dyn Layer, batch: &Batch) -> StepStats {
        let _span = ms_telemetry::span!("trainer.step");
        let _team = ms_tensor::par::enter();
        let rates = self.scheduler.next_rates();
        net.zero_grads();
        let mut subnet_losses = Vec::with_capacity(rates.len());
        for &r in &rates {
            let t0 = Instant::now();
            net.set_slice_rate(r);
            // The logits become their own gradient, and the gradient flows
            // down the stack layer by layer: nothing is copied on the way.
            let logits = net.forward(&batch.x, Mode::Train);
            let (loss, dlogits) = self.criterion.forward_owned(logits, &batch.y);
            net.backward_owned(dlogits).recycle();
            self.metrics
                .subnet_seconds(r)
                .record(t0.elapsed().as_secs_f64());
            self.metrics.loss.set(loss);
            self.metrics.loss_hist.record(loss);
            subnet_losses.push((r, loss));
        }
        if self.average && rates.len() > 1 {
            let _span = ms_telemetry::span!("trainer.average");
            let inv = 1.0 / rates.len() as f32;
            net.visit_params(&mut |p| p.grad.get_mut().scale(inv));
        }
        let grad_norm = {
            let _span = ms_telemetry::span!("optim.sgd");
            self.optimizer.step(net)
        };
        self.metrics.steps.inc();
        self.metrics.grad_norm.set(grad_norm);
        self.metrics.grad_norm_hist.record(grad_norm);
        // Leave the network at full width between steps.
        net.set_slice_rate(SliceRate::FULL);
        StepStats {
            subnet_losses,
            grad_norm,
        }
    }

    /// One pass over `batches`.
    pub fn train_epoch(&mut self, net: &mut dyn Layer, batches: &[Batch]) -> EpochStats {
        let mut total = 0.0f64;
        let mut count = 0usize;
        for batch in batches {
            let stats = self.step(net, batch);
            for (_, l) in &stats.subnet_losses {
                total += l;
                count += 1;
            }
        }
        EpochStats {
            mean_loss: if count > 0 { total / count as f64 } else { 0.0 },
            steps: batches.len(),
        }
    }

    /// Evaluates `(mean cross-entropy, accuracy)` of `net` sliced at `rate`
    /// ([`evaluate`]). The network is restored to full width afterwards.
    pub fn evaluate(&self, net: &mut dyn Layer, batches: &[Batch], rate: SliceRate) -> (f64, f64) {
        evaluate(net, batches, rate)
    }
}

/// Runs every batch of `batches` through `net` sliced at `rate` in
/// inference mode and hands each batch with its logits to `visit`; the
/// network is restored to full width afterwards. The one evaluation loop of
/// the workspace: [`evaluate`] and the experiments' predictions run on it.
pub fn infer_batches(
    net: &mut dyn Layer,
    batches: &[Batch],
    rate: SliceRate,
    mut visit: impl FnMut(&Batch, &Tensor),
) {
    net.set_slice_rate(rate);
    for batch in batches {
        let logits = net.forward(&batch.x, Mode::Infer);
        visit(batch, &logits);
        logits.recycle();
    }
    net.set_slice_rate(SliceRate::FULL);
}

/// `(mean cross-entropy, accuracy)` over every item of `batches` with `net`
/// sliced at `rate`; `(0, 0)` on no items.
pub fn evaluate(net: &mut dyn Layer, batches: &[Batch], rate: SliceRate) -> (f64, f64) {
    let mut loss = 0.0f64;
    let mut correct = 0usize;
    let mut total = 0usize;
    infer_batches(net, batches, rate, |batch, logits| {
        loss += CrossEntropy.loss_only(logits, &batch.y) * batch.y.len() as f64;
        let k = *logits.dims().last().expect("rank");
        for (row, &t) in batch.y.iter().enumerate() {
            if ops::argmax(&logits.data()[row * k..(row + 1) * k]) == t {
                correct += 1;
            }
        }
        total += batch.y.len();
    });
    if total == 0 {
        return (0.0, 0.0);
    }
    (loss / total as f64, correct as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerKind;
    use crate::slice_rate::SliceRateList;
    use ms_nn::activation::Relu;
    use ms_nn::linear::{Linear, LinearConfig};
    use ms_nn::sequential::Sequential;
    use ms_tensor::SeededRng;

    fn toy_net(rng: &mut SeededRng) -> Sequential {
        Sequential::new("toy")
            .push(Linear::new(
                "fc1",
                LinearConfig {
                    in_dim: 2,
                    out_dim: 32,
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
                    in_dim: 32,
                    out_dim: 2,
                    in_groups: Some(4),
                    out_groups: None,
                    bias: true,
                    input_rescale: true,
                },
                rng,
            ))
    }

    /// XOR-ish separable toy data.
    fn toy_batches(rng: &mut SeededRng, n_batches: usize, bs: usize) -> Vec<Batch> {
        (0..n_batches)
            .map(|_| {
                let mut xs = Vec::with_capacity(bs * 2);
                let mut ys = Vec::with_capacity(bs);
                for _ in 0..bs {
                    let a = rng.uniform(-1.0, 1.0);
                    let b = rng.uniform(-1.0, 1.0);
                    xs.push(a);
                    xs.push(b);
                    ys.push(usize::from(a * b > 0.0));
                }
                Batch {
                    x: Tensor::from_vec([bs, 2], xs).unwrap(),
                    y: ys,
                }
            })
            .collect()
    }

    fn trainer(kind: SchedulerKind, rng: &mut SeededRng) -> Trainer {
        let list = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
        let scheduler = Scheduler::new(kind, list, rng);
        Trainer::new(
            scheduler,
            TrainerConfig {
                sgd: SgdConfig {
                    lr: 0.1,
                    momentum: 0.9,
                    weight_decay: 1e-4,
                    clip_norm: None,
                },
                average_subnet_grads: true,
            },
        )
    }

    #[test]
    fn step_reports_one_loss_per_scheduled_subnet() {
        let mut rng = SeededRng::new(1);
        let mut net = toy_net(&mut rng);
        let mut t = trainer(SchedulerKind::Static, &mut rng);
        let batch = &toy_batches(&mut rng, 1, 8)[0];
        let stats = t.step(&mut net, batch);
        assert_eq!(stats.subnet_losses.len(), 4);
        assert!(stats.grad_norm > 0.0);
        // Descending order.
        assert!(stats.subnet_losses[0].0 > stats.subnet_losses[3].0);
    }

    #[test]
    fn training_reduces_loss_for_all_subnets() {
        let mut rng = SeededRng::new(2);
        let mut net = toy_net(&mut rng);
        let mut t = trainer(SchedulerKind::Static, &mut rng);
        let train = toy_batches(&mut rng, 16, 32);
        let test = toy_batches(&mut rng, 4, 32);

        let before: Vec<f64> = [0.25, 0.5, 1.0]
            .iter()
            .map(|&r| t.evaluate(&mut net, &test, SliceRate::new(r)).0)
            .collect();
        for _ in 0..80 {
            t.train_epoch(&mut net, &train);
        }
        for (i, &r) in [0.25, 0.5, 1.0].iter().enumerate() {
            let (loss, acc) = t.evaluate(&mut net, &test, SliceRate::new(r));
            assert!(
                loss < before[i],
                "subnet {r}: loss {loss} not below initial {}",
                before[i]
            );
            assert!(acc > 0.8, "subnet {r}: accuracy {acc}");
        }
    }

    #[test]
    fn fixed_full_training_leaves_subnets_untrained() {
        // Conventional training (Fixed 1.0) then slicing collapses — the
        // Table-4 `lb-1.0` phenomenon, here in miniature.
        let mut rng = SeededRng::new(3);
        let mut net = toy_net(&mut rng);
        let mut t = trainer(SchedulerKind::Fixed(1.0), &mut rng);
        let train = toy_batches(&mut rng, 16, 32);
        let test = toy_batches(&mut rng, 4, 32);
        for _ in 0..30 {
            t.train_epoch(&mut net, &train);
        }
        let (_, acc_full) = t.evaluate(&mut net, &test, SliceRate::FULL);
        let (_, acc_quarter) = t.evaluate(&mut net, &test, SliceRate::new(0.25));
        assert!(acc_full > 0.85, "full net should fit the task: {acc_full}");
        assert!(
            acc_quarter < acc_full - 0.1,
            "sliced conventional net should degrade: {acc_quarter} vs {acc_full}"
        );
    }

    #[test]
    fn network_restored_to_full_width_after_step() {
        let mut rng = SeededRng::new(4);
        let mut net = toy_net(&mut rng);
        let mut t = trainer(SchedulerKind::RandomMin, &mut rng);
        let batch = &toy_batches(&mut rng, 1, 4)[0];
        let _ = t.step(&mut net, batch);
        let y = net.forward(&batch.x, Mode::Infer);
        assert_eq!(y.dims(), &[4, 2]);
        assert_eq!(net.flops_per_sample(), 2 * 32 + 32 * 2);
    }

    #[test]
    fn a_step_owns_its_gradients_from_zero() {
        // Two identical nets and trainers; one net first runs a stray
        // backward at a narrow width, which leaves gradients behind. The
        // step zeroes before it accumulates, so both land on the same bits.
        let steps = |stray: bool| {
            let mut rng = SeededRng::new(5);
            let mut net = toy_net(&mut rng);
            let mut t = trainer(SchedulerKind::RandomMinMax, &mut rng);
            let batch = &toy_batches(&mut rng, 1, 8)[0];
            if stray {
                net.set_slice_rate(SliceRate::new(0.5));
                let y = net.forward(&batch.x, Mode::Train);
                let _ = net.backward(&y);
                net.set_slice_rate(SliceRate::FULL);
            }
            let norms: Vec<u64> = (0..2)
                .map(|_| t.step(&mut net, batch).grad_norm.to_bits())
                .collect();
            let mut bits = Vec::new();
            net.visit_params(&mut |p| bits.extend(p.value.data().iter().map(|v| v.to_bits())));
            (norms, bits)
        };
        assert_eq!(steps(true), steps(false));
    }
}
