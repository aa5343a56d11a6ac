//! Steady-state allocation instrumentation.
//!
//! A counting global allocator verifies the claim directly: after a short
//! warm-up (which populates the thread-local buffer pool and each layer's
//! workspace, and packs the panels a `Conv2d` or `Lstm` packs on first use),
//! Infer-mode forward passes through `Linear` (its weight read in place
//! over `gemm`'s cutoff, `gemm`'s loops under it, before and after a weight
//! write), `Conv2d` and `Lstm` perform **zero** heap allocations. The
//! counter is
//! thread-local so the test harness' own threads cannot pollute the
//! measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ms_nn::conv2d::{Conv2d, Conv2dConfig};
use ms_nn::layer::{Layer, Mode};
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::rnn::lstm::{Lstm, LstmConfig};
use ms_tensor::{pool, SeededRng, Tensor};

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` keeps the hook safe during TLS teardown.
        let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations(mut f: impl FnMut()) -> u64 {
    let before = ALLOC_COUNT.with(Cell::get);
    f();
    ALLOC_COUNT.with(Cell::get) - before
}

/// One test function (not several) so the per-thread counter, the
/// thread-local pool and the layer workspaces all live on a single thread.
#[test]
fn steady_state_infer_forward_allocates_nothing() {
    let mut rng = SeededRng::new(7);

    // --- Linear ------------------------------------------------------
    let mut fc = Linear::new(
        "fc",
        LinearConfig {
            in_dim: 64,
            out_dim: 64,
            in_groups: None,
            out_groups: Some(4),
            bias: true,
            input_rescale: true,
        },
        &mut rng,
    );
    let x = Tensor::zeros([8, 64]);
    for _ in 0..3 {
        fc.forward(&x, Mode::Infer).recycle();
    }
    let delta = allocations(|| {
        for _ in 0..10 {
            fc.forward(&x, Mode::Infer).recycle();
        }
    });
    assert_eq!(
        delta, 0,
        "Linear steady-state Infer forward allocated {delta}x"
    );
    // Same layer after a weight write, the way a serving engine holds it
    // (it used to drop the panels): nothing to pack, nothing re-grown; and
    // one row, under `gemm`'s cutoff, on `gemm`'s loops.
    assert!(!fc.prepack(), "a Linear has no panels to pack");
    fc.visit_params(&mut |p| p.value_mut().data_mut()[0] += 1.0);
    let x1 = Tensor::zeros([1, 64]);
    for x in [&x, &x1] {
        fc.forward(x, Mode::Infer).recycle();
    }
    pool::reset_stats();
    let delta = allocations(|| {
        for _ in 0..10 {
            fc.forward(&x, Mode::Infer).recycle();
            fc.forward(&x1, Mode::Infer).recycle();
        }
    });
    assert_eq!(
        delta, 0,
        "Linear Infer forward after a weight write allocated {delta}x"
    );
    assert_eq!(pool::stats().misses, 0, "pool misses after a weight write");

    // --- Conv2d ------------------------------------------------------
    let mut conv = Conv2d::new(
        "conv",
        Conv2dConfig {
            in_ch: 8,
            out_ch: 16,
            kernel: 3,
            stride: 1,
            pad: 1,
            h: 8,
            w: 8,
            in_groups: None,
            out_groups: Some(4),
            bias: true,
        },
        &mut rng,
    );
    // The first warm pass packs the panels.
    let xc = Tensor::zeros([2, 8, 8, 8]);
    for _ in 0..3 {
        conv.forward(&xc, Mode::Infer).recycle();
    }
    pool::reset_stats();
    let delta = allocations(|| {
        for _ in 0..10 {
            conv.forward(&xc, Mode::Infer).recycle();
        }
    });
    assert_eq!(
        delta, 0,
        "Conv2d steady-state Infer forward allocated {delta}x"
    );
    // Every pooled acquire in the loop was served from the pool.
    let stats = pool::stats();
    assert_eq!(stats.misses, 0, "pool misses in steady state: {stats:?}");
    assert!(stats.hits > 0, "expected pooled acquires: {stats:?}");

    // --- Lstm --------------------------------------------------------
    let mut lstm = Lstm::new(
        "lstm",
        LstmConfig {
            in_dim: 16,
            hidden_dim: 16,
            in_groups: None,
            out_groups: Some(4),
            input_rescale: true,
        },
        &mut rng,
    );
    let xl = Tensor::zeros([2, 4, 16]);
    for _ in 0..3 {
        lstm.forward(&xl, Mode::Infer).recycle();
    }
    let delta = allocations(|| {
        for _ in 0..10 {
            lstm.forward(&xl, Mode::Infer).recycle();
        }
    });
    assert_eq!(
        delta, 0,
        "Lstm steady-state Infer forward allocated {delta}x"
    );
}
