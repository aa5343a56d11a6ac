//! Where a forward pass's time goes: GEMM, im2col, activations, pooling and
//! normalisation, per network and slice rate, from the span tracer.
//!
//! ```text
//! cargo run --release -p ms-bench --features telemetry-spans --bin forward_profile
//! ```
//!
//! Batch-32 inference on the prepacked VGG and NNLM the benchmark serves
//! (`Vgg::vgg13_scaled(10, 8)`, `NnlmConfig::scaled(200, 8)` over 16 tokens)
//! at r ∈ {0.375, 1.0}. Each column is the summed *self* time of the spans in
//! that bucket per pass; `other` is what no span claims (ReLU copies, bias
//! adds, state updates, buffer-pool traffic). Without the feature the spans
//! compile to nothing and only the totals are printed. DESIGN.md §8 records a
//! run of this table.

use ms_models::nnlm::{Nnlm, NnlmConfig};
use ms_models::vgg::{Vgg, VggConfig};
use ms_nn::layer::{Layer, Mode};
use ms_nn::slice::SliceRate;
use ms_telemetry::spans::{self, SpanStats};
use ms_tensor::{SeededRng, Tensor};
use std::time::Instant;

const BATCH: usize = 32;
const PASSES: u32 = 50;

/// Table columns and the span-name prefixes each one sums.
const COLUMNS: [(&str, &[&str]); 5] = [
    ("gemm", &["gemm."]),
    ("im2col", &["conv.im2col"]),
    ("activ.", &["ops.gate_activation", "ops.relu"]),
    ("pooling", &["pool."]),
    ("norm", &["nn.groupnorm"]),
];

fn self_ns(stats: &[SpanStats], prefixes: &[&str]) -> u64 {
    stats
        .iter()
        .filter(|s| prefixes.iter().any(|p| s.name.starts_with(p)))
        .map(|s| s.self_ns)
        .sum()
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
        print!("{name:<5} {rate:>6.3} {total_us:>9.0}");
        let mut claimed = 0.0;
        for (_, prefixes) in COLUMNS {
            let ns = self_ns(&after, prefixes) - self_ns(&before, prefixes);
            let us = ns as f64 / 1e3 / f64::from(PASSES);
            claimed += us;
            print!(" {us:>8.0}");
        }
        println!(" {:>8.0}", total_us - claimed);
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
    print!("{:<5} {:>6} {:>9}", "model", "rate", "total");
    for (column, _) in COLUMNS {
        print!(" {column:>8}");
    }
    println!(" {:>8}", "other");

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
}
