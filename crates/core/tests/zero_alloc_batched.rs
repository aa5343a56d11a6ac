//! Steady-state allocation instrumentation for the serving hot path.
//!
//! The engine's workers run [`batched_sliced_forward_into`] once per sealed
//! batch. A counting global allocator verifies that after a short warm-up
//! (buffer pool + layer workspaces populated, output buffer at capacity) a
//! stack → forward → split cycle performs **zero** heap allocations at every
//! candidate slice rate, on a dense net as built and after the `prepack` an
//! engine replica gets (a no-op there: a `Linear` multiplies its weight in
//! place) — so a worker's per-batch cost is pure compute, with no allocator
//! traffic to serialise threads against each other. The same holds for
//! whole networks: a prepacked VGG (conv, GroupNorm, pooling) and the NNLM
//! (embedding, LSTMs, decoder).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ms_core::inference::{batched_sliced_forward, batched_sliced_forward_into};
use ms_core::slice_rate::SliceRate;
use ms_models::nnlm::{Nnlm, NnlmConfig};
use ms_models::vgg::{Vgg, VggConfig};
use ms_nn::layer::{Layer, Mode};
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

/// Warms `pass` up at every rate (pool, GEMM pack buffers, layer workspaces:
/// narrow subnets use differently-shaped intermediates), then asserts that
/// ten more rounds neither allocate nor miss the buffer pool.
fn assert_warm_passes_allocate_nothing(what: &str, mut pass: impl FnMut(SliceRate)) {
    let rates = [0.25f32, 0.5, 0.75, 1.0].map(SliceRate::new);
    for _ in 0..3 {
        rates.into_iter().for_each(&mut pass);
    }
    pool::reset_stats();
    let delta = allocations(|| {
        for _ in 0..10 {
            rates.into_iter().for_each(&mut pass);
        }
    });
    assert_eq!(
        delta, 0,
        "steady-state {what} allocated {delta}x across 40 batches"
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

/// One test function per network so its per-thread counter, thread-local
/// pool and layer workspaces all live on a single thread.
#[test]
fn steady_state_batched_forward_allocates_nothing() {
    let mut net = net();
    let inputs = random_inputs(24, &[32], 6);

    // Reused response buffer, exactly as a warm engine worker would hold one.
    let mut out = Vec::with_capacity(inputs.len());

    // Once as built, once after the `prepack` `Engine::start` gives every
    // replica: a dense net has no panels, and serves the same path.
    for packed in [false, true] {
        if packed {
            assert!(!net.prepack(), "a Linear-only net has no panels to pack");
        }
        assert_warm_passes_allocate_nothing(&format!("batched forward (packed: {packed})"), |r| {
            batched_sliced_forward_into(&mut net, &inputs, r, &mut out);
            for t in out.drain(..) {
                t.recycle();
            }
        });
    }

    // The allocating convenience wrapper costs exactly its output Vec.
    let delta = allocations(|| {
        for t in batched_sliced_forward(&mut net, &inputs, SliceRate::FULL) {
            t.recycle();
        }
    });
    assert!(
        delta <= 1,
        "wrapper should only allocate its output Vec, saw {delta} allocations"
    );
}

#[test]
fn steady_state_vgg_forward_allocates_nothing() {
    let mut net = Vgg::new(&VggConfig::vgg13_scaled(10, 8), &mut SeededRng::new(7));
    assert!(net.prepack(), "the net arrives un-packed");
    let inputs = random_inputs(8, &[3, 16, 16], 8);
    let mut out = Vec::with_capacity(inputs.len());
    assert_warm_passes_allocate_nothing("prepacked VGG forward", |r| {
        batched_sliced_forward_into(&mut net, &inputs, r, &mut out);
        for t in out.drain(..) {
            t.recycle();
        }
    });
}

#[test]
fn steady_state_nnlm_forward_allocates_nothing() {
    let cfg = NnlmConfig {
        dropout: 0.0,
        ..NnlmConfig::scaled(50, 8)
    };
    let mut net = Nnlm::new(&cfg, &mut SeededRng::new(9));
    assert!(net.prepack(), "the net arrives un-packed");
    // `[B, T]` token ids: a language model's logits are `[B·T, V]`, not one
    // row per request, so it is driven through `Layer::forward` directly.
    let mut rng = SeededRng::new(10);
    let ids = Tensor::from_vec([4, 6], (0..24).map(|_| rng.below(50) as f32).collect()).unwrap();
    assert_warm_passes_allocate_nothing("prepacked NNLM forward", |r| {
        net.set_slice_rate(r);
        net.forward(&ids, Mode::Infer).recycle();
    });
}
