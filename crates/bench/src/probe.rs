//! Bit-exact inference/training fingerprints, pinned by a golden file.
//!
//! [`determinism_probe`] returns FNV-1a hashes over the raw IEEE-754 bits of
//! GEMM outputs, sliced MLP logits at every rate, Algorithm-1 training
//! losses, and the same three for the benchmark's VGG (direct logits, the
//! refine ladder, two training steps' losses and gradient norm) and NNLM, on
//! LSTM and on GRU cells (direct logits, three training steps), one line
//! each. `tests/golden/determinism_probe.txt` holds those lines; the root
//! package's `determinism_golden` test recomputes them and diffs, and
//! `scripts/perfcheck.sh` diffs the `determinism_probe` bin's stdout against
//! the same file from a default build, a `--features telemetry-spans` build
//! (the span tracer must not perturb a single bit of any numeric path) and
//! an `x86-64-v3` build (nor may the micro-kernel's vector width). A change
//! that moves bits on purpose updates the golden in the same diff.
//!
//! Nothing configuration-dependent may appear in the lines (in particular
//! not `ms_telemetry::spans_compiled()`), or the diff would trip on the
//! label rather than the numerics.

use ms_core::inference::{batched_sliced_forward, refine_batched_forward};
use ms_core::scheduler::{Scheduler, SchedulerKind};
use ms_core::slice_rate::{SliceRate, SliceRateList};
use ms_core::trainer::{Batch, StepStats, Trainer, TrainerConfig};
use ms_models::mlp::{Mlp, MlpConfig};
use ms_models::nnlm::{Nnlm, NnlmConfig, RnnCell};
use ms_models::vgg::{Vgg, VggConfig};
use ms_nn::layer::{Layer, Mode};
use ms_nn::optim::SgdConfig;
use ms_tensor::matmul::{gemm, Trans};
use ms_tensor::{SeededRng, Tensor};

/// FNV-1a over the bit patterns of a float slice: any single-bit change in
/// any element changes the digest.
fn fingerprint(xs: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn mlp_config() -> MlpConfig {
    MlpConfig {
        input_dim: 24,
        hidden_dims: vec![64, 64],
        num_classes: 6,
        groups: 4,
        dropout: 0.0,
        input_rescale: true,
    }
}

/// The probe's lines, in print order.
pub fn determinism_probe() -> Vec<String> {
    let mut out = Vec::new();
    // 1. Raw GEMM through the one blocked loop at three sizes, from a
    // handful of micro-tiles to rows that span several row blocks.
    for (m, n, k) in [(7, 9, 11), (64, 48, 56), (160, 144, 152)] {
        let mut rng = SeededRng::new(41);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut c = vec![0.0f32; m * n];
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            1.0,
            &a,
            k,
            &b,
            n,
            0.0,
            &mut c,
            n,
        );
        out.push(format!("gemm {m}x{n}x{k}: {:016x}", fingerprint(&c)));
    }

    // 2. Sliced batched forwards at every rate the paper's Eq. 3 slices.
    let mut rng = SeededRng::new(42);
    let cfg = mlp_config();
    let mut net = Mlp::new(&cfg, &mut rng);
    let inputs: Vec<Tensor> = (0..16)
        .map(|i| Tensor::full([cfg.input_dim], (i as f32) * 0.11 - 0.8))
        .collect();
    for r in [0.25f32, 0.5, 0.75, 1.0] {
        let rows = batched_sliced_forward(&mut net, &inputs, SliceRate::new(r));
        let flat: Vec<f32> = rows.iter().flat_map(|t| t.data().to_vec()).collect();
        out.push(format!("forward rate {r}: {:016x}", fingerprint(&flat)));
    }

    // 3. Algorithm-1 training: per-epoch mean loss, printed as raw bits.
    let rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let mut rng = SeededRng::new(43);
    let mut net = Mlp::new(&mlp_config(), &mut rng);
    let scheduler = Scheduler::new(SchedulerKind::Static, rates, &mut rng);
    let mut trainer = Trainer::new(
        scheduler,
        TrainerConfig {
            sgd: SgdConfig {
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
                clip_norm: None,
            },
            average_subnet_grads: true,
        },
    );
    let batches: Vec<Batch> = (0..4)
        .map(|_| {
            let bs = 8;
            let xs: Vec<f32> = (0..bs * mlp_config().input_dim)
                .map(|_| rng.uniform(-1.0, 1.0))
                .collect();
            let ys: Vec<usize> = (0..bs).map(|_| rng.below(6)).collect();
            Batch {
                x: Tensor::from_vec([bs, mlp_config().input_dim], xs).unwrap(),
                y: ys,
            }
        })
        .collect();
    for epoch in 0..3 {
        let stats = trainer.train_epoch(&mut net, &batches);
        out.push(format!(
            "train epoch {epoch}: loss bits {:016x}",
            (stats.mean_loss).to_bits()
        ));
    }

    // 4. Flight recorder on vs off: recording per-request lifecycle events
    // around the forwards must not perturb a single bit of the numerics.
    // Both fingerprints are printed (the pair is identical across builds,
    // so the perfcheck stdout diff still holds) and compared in-process.
    let fp_with_recorder = |on: bool, trace_base: u64| {
        let mut rng = SeededRng::new(44);
        let cfg = mlp_config();
        let mut net = Mlp::new(&cfg, &mut rng);
        let inputs: Vec<Tensor> = (0..16)
            .map(|i| Tensor::full([cfg.input_dim], (i as f32) * 0.07 - 0.4))
            .collect();
        ms_telemetry::flight::set_recording(on);
        let mut flat = Vec::new();
        for (i, r) in [0.25f32, 0.5, 0.75, 1.0].iter().enumerate() {
            let trace = trace_base + i as u64;
            ms_telemetry::flight::wire_decoded(trace, 1_000);
            ms_telemetry::flight::enqueued(trace);
            let rows = batched_sliced_forward(&mut net, &inputs, SliceRate::new(*r));
            ms_telemetry::flight::compute_done(trace);
            ms_telemetry::flight::delivered(trace);
            flat.extend(rows.iter().flat_map(|t| t.data().to_vec()));
        }
        ms_telemetry::flight::set_recording(false);
        fingerprint(&flat)
    };
    let fp_off = fp_with_recorder(false, 0x9D00);
    let fp_on = fp_with_recorder(true, 0x9D10);
    assert_eq!(
        fp_off, fp_on,
        "flight recorder must be numerically invisible"
    );
    out.push(format!("flight off: {fp_off:016x}"));
    out.push(format!("flight on:  {fp_on:016x}"));

    // 5. The benchmark's VGG — conv, GroupNorm, ReLU and pooling bits, which
    // nothing above touches: direct logits at its four rates off the
    // prepacked panels, the four-rung refine ladder, and two Algorithm-1
    // steps (every subnet's loss and the gradient norm). Twelve images, so
    // the conv chunks of every stage come out uneven.
    let mut rng = SeededRng::new(45);
    let mut vgg = Vgg::new(&VggConfig::vgg13_scaled(10, 8), &mut rng);
    let images: Vec<Tensor> = (0..12)
        .map(|_| {
            let pixels = (0..3 * 16 * 16).map(|_| rng.uniform(-1.0, 1.0)).collect();
            Tensor::from_vec([3, 16, 16], pixels).unwrap()
        })
        .collect();
    let flat =
        |rows: &[Tensor]| -> Vec<f32> { rows.iter().flat_map(|t| t.data().to_vec()).collect() };
    vgg.prepack();
    let rates = [0.375f32, 0.5, 0.75, 1.0];
    for r in rates {
        let rows = batched_sliced_forward(&mut vgg, &images, SliceRate::new(r));
        out.push(format!(
            "vgg forward rate {r}: {:016x}",
            fingerprint(&flat(&rows))
        ));
    }
    let (mut rows, mut from) = (Vec::new(), None);
    for r in rates.map(SliceRate::new) {
        refine_batched_forward(&mut vgg, &images, from, r, &mut rows);
        out.push(format!(
            "vgg ladder rung {r}: {:016x}",
            fingerprint(&flat(&rows))
        ));
        from = Some(r);
    }
    let rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let scheduler = Scheduler::new(SchedulerKind::Static, rates, &mut rng);
    let mut trainer = Trainer::new(
        scheduler,
        TrainerConfig {
            sgd: SgdConfig {
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 5e-4,
                clip_norm: Some(5.0),
            },
            average_subnet_grads: true,
        },
    );
    let batch = Batch {
        x: Tensor::from_vec([images.len(), 3, 16, 16], flat(&images)).unwrap(),
        y: (0..images.len()).map(|i| i % 10).collect(),
    };
    for step in 0..2 {
        let stats = trainer.step(&mut vgg, &batch);
        out.push(format!("vgg train step {step}: {}", step_bits(&stats)));
    }

    // 6. The NNLM — embedding, LSTM, dropout and decoder bits: direct logits
    // at four rates off the prepacked panels, then three Algorithm-1 steps
    // with dropout on, as it is trained. Thirty-two sentences, so each half
    // of a training pass has sixteen rows and the backward's recurrent
    // GEMMs take the packed kernel at every rate but the narrowest.
    let mut rng = SeededRng::new(46);
    let (vocab, words) = (200, 8);
    let mut nnlm = Nnlm::new(&NnlmConfig::scaled(vocab, 8), &mut rng);
    let sentences = 32;
    let ids = (0..sentences * words)
        .map(|_| rng.below(vocab) as f32)
        .collect();
    let x = Tensor::from_vec([sentences, words], ids).unwrap();
    nnlm.prepack();
    for r in [0.375f32, 0.5, 0.75, 1.0] {
        nnlm.set_slice_rate(SliceRate::new(r));
        let logits = nnlm.forward(&x, Mode::Infer);
        out.push(format!(
            "nnlm forward rate {r}: {:016x}",
            fingerprint(logits.data())
        ));
    }
    let rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let scheduler = Scheduler::new(SchedulerKind::Static, rates, &mut rng);
    let mut trainer = Trainer::new(
        scheduler,
        TrainerConfig {
            sgd: SgdConfig {
                lr: 1.0,
                momentum: 0.0,
                weight_decay: 0.0,
                clip_norm: Some(1.0),
            },
            average_subnet_grads: true,
        },
    );
    let batch = Batch {
        x,
        y: (0..sentences * words).map(|_| rng.below(vocab)).collect(),
    };
    for step in 0..3 {
        let stats = trainer.step(&mut nnlm, &batch);
        out.push(format!("nnlm train step {step}: {}", step_bits(&stats)));
    }

    // 7. The same NNLM on GRU cells: direct logits at four rates and three
    // steps with dropout, on thirty-two sentences as above, so both parts of
    // a training pass run and `dh_prev` takes the packed kernel.
    let mut rng = SeededRng::new(47);
    let cfg = NnlmConfig {
        cell: RnnCell::Gru,
        ..NnlmConfig::scaled(vocab, 8)
    };
    let mut gru_lm = Nnlm::new(&cfg, &mut rng);
    let ids = (0..sentences * words)
        .map(|_| rng.below(vocab) as f32)
        .collect();
    let x = Tensor::from_vec([sentences, words], ids).unwrap();
    gru_lm.prepack();
    for r in [0.375f32, 0.5, 0.75, 1.0] {
        gru_lm.set_slice_rate(SliceRate::new(r));
        let logits = gru_lm.forward(&x, Mode::Infer);
        out.push(format!(
            "gru lm forward rate {r}: {:016x}",
            fingerprint(logits.data())
        ));
    }
    let rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let scheduler = Scheduler::new(SchedulerKind::Static, rates, &mut rng);
    let mut trainer = Trainer::new(
        scheduler,
        TrainerConfig {
            sgd: SgdConfig {
                lr: 1.0,
                momentum: 0.0,
                weight_decay: 0.0,
                clip_norm: Some(1.0),
            },
            average_subnet_grads: true,
        },
    );
    let batch = Batch {
        x,
        y: (0..sentences * words).map(|_| rng.below(vocab)).collect(),
    };
    for step in 0..3 {
        let stats = trainer.step(&mut gru_lm, &batch);
        out.push(format!("gru lm train step {step}: {}", step_bits(&stats)));
    }
    out
}

/// A training step's subnet losses and gradient norm, as raw bits.
fn step_bits(stats: &StepStats) -> String {
    let losses: Vec<String> = stats
        .subnet_losses
        .iter()
        .map(|(_, loss)| format!("{:016x}", loss.to_bits()))
        .collect();
    format!(
        "losses {} grad norm {:016x}",
        losses.join(" "),
        stats.grad_norm.to_bits()
    )
}
