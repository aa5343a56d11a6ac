//! Steady-state allocation instrumentation for the anytime-refinement hot
//! path.
//!
//! A refining engine worker runs [`refine_batched_forward`] once per sealed
//! batch and then once per ladder step. A counting global allocator
//! verifies that after a short warm-up (buffer pool, layer workspaces,
//! per-layer prefix caches and weight panels all populated) a full base +
//! refine ladder performs **zero** heap allocations — climbing the ladder
//! is pure delta-panel compute, with no allocator traffic. Checked on the
//! MLP stack, on a prepacked VGG and on the NNLM.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ms_core::inference::refine_batched_forward;
use ms_core::slice_rate::SliceRate;
use ms_models::nnlm::{Nnlm, NnlmConfig};
use ms_models::vgg::{Vgg, VggConfig};
use ms_nn::layer::Layer;
use ms_nn::linear::{Linear, LinearConfig};
use ms_nn::sequential::Sequential;
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

fn net() -> Sequential {
    let mut rng = SeededRng::new(5);
    Sequential::new("net")
        .push(Linear::new(
            "fc1",
            LinearConfig {
                in_dim: 32,
                out_dim: 64,
                in_groups: None,
                out_groups: Some(4),
                bias: true,
                input_rescale: true,
            },
            &mut rng,
        ))
        .push(Linear::new(
            "fc2",
            LinearConfig {
                in_dim: 64,
                out_dim: 8,
                in_groups: Some(4),
                out_groups: None,
                bias: true,
                input_rescale: true,
            },
            &mut rng,
        ))
}

/// Runs one full anytime ladder — base pass at the narrowest rate, then
/// one refine step per wider rate — recycling each superseded response.
fn ladder(net: &mut dyn Layer, inputs: &[Tensor], rates: &[SliceRate], out: &mut Vec<Tensor>) {
    refine_batched_forward(net, inputs, None, rates[0], out);
    for w in rates.windows(2) {
        for t in out.drain(..) {
            t.recycle();
        }
        refine_batched_forward(net, inputs, Some(w[0]), w[1], out);
    }
    for t in out.drain(..) {
        t.recycle();
    }
}

/// Warms `ladder` up (pool, each layer's workspace and prefix cache: the base
/// pass and every delta step have differently shaped intermediates), then
/// asserts that ten more ladders neither allocate nor miss the buffer pool.
fn assert_warm_ladders_allocate_nothing(what: &str, mut ladder: impl FnMut()) {
    for _ in 0..3 {
        ladder();
    }
    pool::reset_stats();
    let delta = allocations(|| {
        for _ in 0..10 {
            ladder();
        }
    });
    assert_eq!(
        delta, 0,
        "steady-state {what} allocated {delta}x across 10 ladders"
    );
    // Every pooled acquire in the loop was served from the pool.
    let stats = pool::stats();
    assert_eq!(
        stats.misses, 0,
        "{what}: pool misses in steady state: {stats:?}"
    );
    assert!(
        stats.hits > 0,
        "{what}: expected pooled acquires: {stats:?}"
    );
}

fn random_inputs(n: usize, dims: &[usize], seed: u64) -> Vec<Tensor> {
    let mut rng = SeededRng::new(seed);
    let len = dims.iter().product();
    (0..n)
        .map(|_| {
            Tensor::from_vec(dims, (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()).unwrap()
        })
        .collect()
}

const RATES: [f32; 4] = [0.25, 0.5, 0.75, 1.0];

/// One test function per network so its per-thread counter, thread-local
/// pool and layer workspaces all live on a single thread.
#[test]
fn steady_state_refine_ladder_allocates_nothing() {
    let mut net = net();
    let inputs = random_inputs(24, &[32], 6);
    let rates = RATES.map(SliceRate::new);

    // Pack the weight panels up front, exactly as an engine worker does at
    // weight-load time; the first ladder would otherwise pack lazily.
    net.prepack();

    // Reused response buffer, exactly as a warm engine worker would hold one.
    let mut out = Vec::with_capacity(inputs.len());
    assert_warm_ladders_allocate_nothing("refine ladder", || {
        ladder(&mut net, &inputs, &rates, &mut out)
    });
}

#[test]
fn steady_state_vgg_refine_ladder_allocates_nothing() {
    let mut net = Vgg::new(&VggConfig::vgg13_scaled(10, 8), &mut SeededRng::new(7));
    net.prepack();
    let inputs = random_inputs(8, &[3, 16, 16], 8);
    let rates = RATES.map(SliceRate::new);
    let mut out = Vec::with_capacity(inputs.len());
    assert_warm_ladders_allocate_nothing("VGG refine ladder", || {
        ladder(&mut net, &inputs, &rates, &mut out)
    });
}

#[test]
fn steady_state_nnlm_refine_ladder_allocates_nothing() {
    let cfg = NnlmConfig {
        dropout: 0.0,
        ..NnlmConfig::scaled(50, 8)
    };
    let mut net = Nnlm::new(&cfg, &mut SeededRng::new(9));
    net.prepack();
    // `[B, T]` token ids, driven through `forward_prefix` directly: the
    // `[B·T, V]` logits do not split one row per request.
    let mut rng = SeededRng::new(10);
    let ids = Tensor::from_vec([4, 6], (0..24).map(|_| rng.below(50) as f32).collect()).unwrap();
    assert_warm_ladders_allocate_nothing("NNLM refine ladder", || {
        let mut from = None;
        for r in RATES.map(SliceRate::new) {
            net.forward_prefix(&ids, from, r).recycle();
            from = Some(r);
        }
    });
}
