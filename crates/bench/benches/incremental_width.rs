//! Eq.-9 computation reuse: upgrading a cached narrow activation to a wider
//! one versus re-evaluating the wide layer from scratch. The upgrade should
//! cost strictly less (it skips the W_a·x_a block).

use criterion::{criterion_group, criterion_main, Criterion};
use ms_core::residual::upgrade_linear;
use ms_tensor::matmul::{gemm, Trans};
use ms_tensor::{SeededRng, Tensor};

fn incremental_vs_full(c: &mut Criterion) {
    let mut rng = SeededRng::new(3);
    let n = 512usize;
    let batch = 16usize;
    let w = Tensor::from_vec([n, n], (0..n * n).map(|_| rng.uniform(-1.0, 1.0)).collect())
        .expect("weight");
    let x = Tensor::from_vec(
        [batch, n],
        (0..batch * n).map(|_| rng.uniform(-1.0, 1.0)).collect(),
    )
    .expect("input");
    let half = n / 2;
    // Cached narrow output.
    let mut y_a = Tensor::zeros([batch, half]);
    gemm(
        Trans::No,
        Trans::Yes,
        batch,
        half,
        half,
        1.0,
        x.data(),
        n,
        w.data(),
        n,
        0.0,
        y_a.data_mut(),
        half,
    );
    // Narrow input view for the upgrade (contiguous copy once, outside the
    // timed region — serving systems keep activations per width anyway).
    let x_b = x.clone();

    c.bench_function("linear_full_reeval_512", |b| {
        let mut y = Tensor::zeros([batch, n]);
        b.iter(|| {
            gemm(
                Trans::No,
                Trans::Yes,
                batch,
                n,
                n,
                1.0,
                x.data(),
                n,
                w.data(),
                n,
                0.0,
                y.data_mut(),
                n,
            )
        })
    });
    c.bench_function("linear_incremental_upgrade_256_to_512", |b| {
        b.iter(|| upgrade_linear(&w, &x_b, &y_a, half, n, half, n))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(30);
    targets = incremental_vs_full
}
criterion_main!(benches);
