//! Where a forward pass's and a training step's time goes, per network, from
//! the span tracer.
//!
//! ```text
//! cargo run --release -p ms-bench --features telemetry-spans --bin forward_profile
//! ```
//!
//! Two tables on the VGG and NNLM the benchmark runs
//! (`Vgg::vgg13_scaled(10, 8)`, `NnlmConfig::scaled(200, 8)` over 16 tokens),
//! batch 32. The first is inference on the prepacked nets at
//! r ∈ {0.375, 1.0}: GEMM, im2col, activations, pooling, normalisation. The
//! second is one Algorithm-1 `Trainer::step` over the static rate list
//! {0.25, 0.5, 0.75, 1.0} (NNLM dropout on, as trained): GEMM kernel, operand
//! packing, im2col + col2im, pooling, normalisation, dropout, loss, and the
//! elementwise work of activations and backward bodies. Each column is the
//! summed *self* time of the spans in that bucket; `other` is what no span
//! claims (bias adds, the embedding, the optimiser, buffer-pool traffic).
//!
//! A step runs on two threads (`ms_tensor::par`: the second part of every
//! split layer pass goes to the fork-join helper), so its buckets are summed
//! over both and add up to `2-thread` — the caller's wall time plus the
//! helper's busy time — not to `wall`; `join wait` is the caller blocked on
//! the helper's part. A last line times the bare handoff: 10 000 joins with
//! nothing to do back to back (the helper polling) and 10 000 after a pause
//! long enough for it to park. Without the feature the spans compile to nothing
//! and only the totals are printed. DESIGN.md §8 records a run of both
//! tables.

use ms_core::scheduler::{Scheduler, SchedulerKind};
use ms_core::slice_rate::SliceRateList;
use ms_core::trainer::{Batch, Trainer, TrainerConfig};
use ms_models::nnlm::{Nnlm, NnlmConfig};
use ms_models::vgg::{Vgg, VggConfig};
use ms_nn::layer::{Layer, Mode};
use ms_nn::optim::SgdConfig;
use ms_nn::slice::SliceRate;
use ms_telemetry::spans::{self, SpanStats};
use ms_tensor::{par, SeededRng, Tensor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const BATCH: usize = 32;
const PASSES: u32 = 50;
const STEPS: u32 = 30;

/// A table column: its heading and the span-name prefixes it sums.
type Column = (&'static str, &'static [&'static str]);

const FORWARD_COLUMNS: [Column; 5] = [
    ("gemm", &["gemm."]),
    ("im2col", &["conv.im2col"]),
    ("activ.", &["ops.gate_activation", "ops.relu"]),
    ("pooling", &["pool."]),
    ("norm", &["nn.groupnorm"]),
];

/// `kernel` is everything of a GEMM that is not operand packing: the
/// micro-kernel loops of the three packed drivers and the unblocked small
/// path. `elemwise` is the activations plus what the conv and recurrent
/// backward bodies do themselves, outside any GEMM: the gate gradients of
/// the time loop, layout shuffles, bias sums.
const STEP_COLUMNS: [Column; 9] = [
    (
        "kernel",
        &["gemm.kernel", "gemm.panel_", "gemm.small", "gemm.packed"],
    ),
    ("pack", &["gemm.pack_"]),
    ("im+col2im", &["conv.im2col", "conv.col2im"]),
    ("pooling", &["pool."]),
    ("norm", &["nn.groupnorm"]),
    ("dropout", &["nn.dropout"]),
    ("loss", &["loss.xent"]),
    (
        "elemwise",
        &[
            "ops.gate_activation",
            "ops.relu",
            "nn.conv_bwd",
            "nn.lstm_bwd",
            "nn.gru_bwd",
        ],
    ),
    ("join wait", &["par.join_wait"]),
];

fn self_ns(stats: &[SpanStats], prefixes: &[&str]) -> u64 {
    stats
        .iter()
        .filter(|s| prefixes.iter().any(|p| s.name.starts_with(p)))
        .map(|s| s.self_ns)
        .sum()
}

/// Prints one row: the leading figures as given (µs per repetition), then
/// each column's share of the span time recorded between the two snapshots,
/// then what of the last leading figure no column claims.
fn print_row(
    label: &str,
    leading: &[f64],
    reps: u32,
    columns: &[Column],
    before: &[SpanStats],
    after: &[SpanStats],
) {
    print!("{label}");
    for us in leading {
        print!(" {us:>9.0}");
    }
    let mut claimed = 0.0;
    for (_, prefixes) in columns {
        let ns = self_ns(after, prefixes) - self_ns(before, prefixes);
        let us = ns as f64 / 1e3 / f64::from(reps);
        claimed += us;
        print!(" {us:>9.0}");
    }
    let budget_us = leading.last().copied().unwrap_or(0.0);
    println!(" {:>9.0}", budget_us - claimed);
}

fn print_header(first: &str, leading: &[&str], columns: &[Column]) {
    print!("{first}");
    for column in leading
        .iter()
        .chain(columns.iter().map(|(column, _)| column))
    {
        print!(" {column:>9}");
    }
    println!(" {:>9}", "other");
}

/// One Algorithm-1 step over all four rates, `STEPS` times.
fn profile_step(name: &str, net: &mut dyn Layer, sgd: SgdConfig, batch: &Batch) {
    let list = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
    let scheduler = Scheduler::new(SchedulerKind::Static, list, &mut SeededRng::new(5));
    let mut trainer = Trainer::new(
        scheduler,
        TrainerConfig {
            sgd,
            average_subnet_grads: true,
        },
    );
    for _ in 0..3 {
        trainer.step(net, batch);
    }
    let before = spans::snapshot();
    let t = Instant::now();
    for _ in 0..STEPS {
        trainer.step(net, batch);
    }
    let wall_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(STEPS);
    let after = spans::snapshot();
    // The helper is busy whenever it is not in its idle span; no idle span
    // at all means no helper, or no span tracer.
    let idle = &["par.helper_idle"];
    let idle_us = (self_ns(&after, idle) - self_ns(&before, idle)) as f64 / 1e3 / f64::from(STEPS);
    let busy_us = if idle_us > 0.0 {
        (wall_us - idle_us).max(0.0)
    } else {
        0.0
    };
    print_row(
        &format!("{name:<5}"),
        &[wall_us, wall_us + busy_us],
        STEPS,
        &STEP_COLUMNS,
        &before,
        &after,
    );
}

/// Times `n` joins with nothing to do, each after `pause`; returns
/// `(p50, p99)` in µs. The first half ends when the second has started, so
/// the helper really runs it (a caller that is done first takes its job
/// back) and the time is post → pick-up → run → signal → seen.
fn handoff_us(n: usize, pause: Option<Duration>) -> (f64, f64) {
    let mut us: Vec<f64> = (0..n)
        .map(|_| {
            if let Some(pause) = pause {
                std::thread::sleep(pause);
            }
            let started = AtomicBool::new(false);
            let t = Instant::now();
            par::join(
                || {
                    while !started.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                },
                || started.store(true, Ordering::Release),
            );
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    (us[n / 2], us[n * 99 / 100])
}

/// One line: the round trip of a bare handoff to the helper and back.
fn print_handoff() {
    const JOINS: usize = 10_000;
    let team = par::enter();
    if !team.holds_helper() {
        println!("# no fork-join helper on this machine: every join runs inline");
        return;
    }
    let (spin50, spin99) = handoff_us(JOINS, None);
    // Twice the helper's polling interval: it has parked by then.
    let (park50, park99) = handoff_us(JOINS, Some(Duration::from_micros(400)));
    println!(
        "# handoff round trip over {JOINS} joins, µs p50/p99: helper polling {spin50:.2}/{spin99:.2}, \
         helper parked {park50:.1}/{park99:.1}"
    );
}

fn profile(name: &str, net: &mut dyn Layer, x: &Tensor) {
    net.prepack();
    for rate in [0.375f32, 1.0] {
        net.set_slice_rate(SliceRate::new(rate));
        for _ in 0..5 {
            net.forward(x, Mode::Infer).recycle();
        }
        let before = spans::snapshot();
        let t = Instant::now();
        for _ in 0..PASSES {
            net.forward(x, Mode::Infer).recycle();
        }
        let total_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(PASSES);
        let after = spans::snapshot();
        let label = format!("{name:<5} {rate:>6.3}");
        print_row(
            &label,
            &[total_us],
            PASSES,
            &FORWARD_COLUMNS,
            &before,
            &after,
        );
    }
}

fn main() {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown cpu".into());
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("# {cpu}, {cores} logical cores; batch {BATCH}, µs per pass over {PASSES} passes");
    if !cfg!(feature = "telemetry-spans") {
        println!("# built without --features telemetry-spans: only `total` is measured");
    }
    print_header(
        &format!("{:<5} {:>6}", "model", "rate"),
        &["total"],
        &FORWARD_COLUMNS,
    );

    let mut rng = SeededRng::new(7);
    let mut vgg = Vgg::new(&VggConfig::vgg13_scaled(10, 8), &mut SeededRng::new(42));
    let n = BATCH * 3 * 16 * 16;
    let images = Tensor::from_vec(
        [BATCH, 3, 16, 16],
        (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect(),
    )
    .expect("image batch");
    profile("vgg", &mut vgg, &images);

    let cfg = NnlmConfig {
        dropout: 0.0,
        ..NnlmConfig::scaled(200, 8)
    };
    let mut nnlm = Nnlm::new(&cfg, &mut SeededRng::new(43));
    let ids = Tensor::from_vec(
        [BATCH, 16],
        (0..BATCH * 16).map(|_| rng.below(200) as f32).collect(),
    )
    .expect("token batch");
    profile("nnlm", &mut nnlm, &ids);

    println!(
        "# one Trainer::step over rates {{0.25, 0.5, 0.75, 1.0}}, µs per step over {STEPS} steps"
    );
    print_header(
        &format!("{:<5}", "model"),
        &["wall", "2-thread"],
        &STEP_COLUMNS,
    );
    let mut vgg = Vgg::new(&VggConfig::vgg13_scaled(10, 8), &mut SeededRng::new(42));
    let vision = SgdConfig {
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 5e-4,
        clip_norm: Some(5.0),
    };
    let labelled = Batch {
        x: images,
        y: (0..BATCH).map(|i| i % 10).collect(),
    };
    profile_step("vgg", &mut vgg, vision, &labelled);
    let mut nnlm = Nnlm::new(&NnlmConfig::scaled(200, 8), &mut SeededRng::new(43));
    let text = SgdConfig {
        lr: 1.0,
        momentum: 0.0,
        weight_decay: 0.0,
        clip_norm: Some(1.0),
    };
    let next_tokens = Batch {
        x: ids,
        y: (0..BATCH * 16).map(|i| (i * 7) % 200).collect(),
    };
    profile_step("nnlm", &mut nnlm, text, &next_tokens);
    print_handoff();
}
