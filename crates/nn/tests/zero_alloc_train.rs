//! Steady-state allocation instrumentation of the write side.
//!
//! The counting allocator of `zero_alloc.rs`, pointed at training: once the
//! buffer pool, the layer workspaces, the shared conv chunk scratch and the
//! train-time weight panels are warm, a `forward(Train)` + `backward` of
//! `Lstm`, `Gru`, `Conv2d`, `GroupNorm`, `Dropout` and `MaxPool2d` performs
//! **zero** heap allocations — at a fixed slice rate, and across the four
//! rates an Algorithm-1 step cycles through once one lap has sized
//! everything — inline, and with the second part of every pass on the
//! fork-join helper. The counter counts the two threads a pass runs on, the
//! test thread and the helper, each flagged by the test itself; the test
//! harness's own threads allocate when they please (one did, 4 times, inside
//! a counted section on a loaded machine) and are not the layers' doing.
//! The file holds a single test, so that no other test shares the helper.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ms_nn::conv2d::{Conv2d, Conv2dConfig};
use ms_nn::dropout::Dropout;
use ms_nn::layer::{Layer, Mode};
use ms_nn::norm::GroupNorm;
use ms_nn::pool::MaxPool2d;
use ms_nn::rnn::gru::{Gru, GruConfig};
use ms_nn::rnn::lstm::{Lstm, LstmConfig};
use ms_nn::slice::{active_units, SliceRate};
use ms_tensor::{par, pool, SeededRng, Tensor};

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count: set on the test thread and
    /// on the fork-join helper.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` keeps the hook safe during TLS teardown.
        if COUNTED.try_with(Cell::get).unwrap_or(false) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations(mut f: impl FnMut()) -> u64 {
    let before = ALLOC_COUNT.load(Ordering::Relaxed);
    f();
    ALLOC_COUNT.load(Ordering::Relaxed) - before
}

const RATES: [f32; 4] = [0.25, 0.5, 0.75, 1.0];
const GROUPS: usize = 4;

/// One training pass: forward, then backward on a gradient shaped like the
/// output (the output itself), everything handed back to the pool, then the
/// optimiser's walk over the parameters — which marks the weight panels
/// stale, so the next pass repacks them (into the storage they hold).
fn train_pass(layer: &mut dyn Layer, x: &Tensor) {
    let y = layer.forward(x, Mode::Train);
    layer.backward(&y).recycle();
    y.recycle();
    layer.visit_params(&mut |_| {});
}

/// Asserts the two steady states on `layer`; `input(rate)` builds the input
/// the layer expects at that rate (built outside the counted sections).
fn assert_warm_training_allocates_nothing(
    layer: &mut dyn Layer,
    input: impl Fn(SliceRate) -> Tensor,
) {
    // Start each layer from an empty pool, as if it trained alone.
    pool::clear();
    let rates = RATES.map(SliceRate::new);
    let inputs = rates.map(&input);

    // Fixed rate (full width).
    layer.set_slice_rate(rates[3]);
    for _ in 0..3 {
        train_pass(layer, &inputs[3]);
    }
    let delta = allocations(|| {
        for _ in 0..10 {
            train_pass(layer, &inputs[3]);
        }
    });
    assert_eq!(
        delta,
        0,
        "{}: warm train passes at a fixed rate allocated {delta}x",
        layer.name()
    );

    // One lap over the rates sizes every buffer; the laps after it are free.
    let lap = |layer: &mut dyn Layer| {
        for (rate, x) in rates.iter().zip(&inputs) {
            layer.set_slice_rate(*rate);
            train_pass(layer, x);
        }
    };
    lap(layer);
    let delta = allocations(|| {
        for _ in 0..3 {
            lap(layer);
        }
    });
    assert_eq!(
        delta,
        0,
        "{}: laps over the four rates allocated {delta}x after the first",
        layer.name()
    );
}

/// One test function (not several): the pool and the chunk scratch are
/// thread-local, and the counter sees every thread of the process.
#[test]
fn warm_train_forward_and_backward_allocate_nothing() {
    COUNTED.set(true);
    let mut rng = SeededRng::new(7);
    let (batch, steps, dim) = (4, 6, 16);
    let sequence = |rate| Tensor::zeros([batch, steps, active_units(dim, GROUPS, rate)]);

    let lstm_cfg = LstmConfig {
        in_dim: dim,
        hidden_dim: dim,
        in_groups: Some(GROUPS),
        out_groups: Some(GROUPS),
        input_rescale: true,
    };
    let mut lstm = Lstm::new("lstm", lstm_cfg.clone(), &mut rng);
    assert_warm_training_allocates_nothing(&mut lstm, sequence);

    let mut gru = Gru::new(
        "gru",
        GruConfig {
            in_dim: dim,
            hidden_dim: dim,
            in_groups: Some(GROUPS),
            out_groups: Some(GROUPS),
            input_rescale: true,
        },
        &mut rng,
    );
    assert_warm_training_allocates_nothing(&mut gru, sequence);

    // 8×8 maps: a chunk is 512 / 64 = 8 samples, so a batch of 11 runs one
    // full and one ragged chunk.
    let images = |rate| Tensor::zeros([11, active_units(8, GROUPS, rate), 8, 8]);
    let conv_cfg = Conv2dConfig {
        in_ch: 8,
        out_ch: 16,
        kernel: 3,
        stride: 1,
        pad: 1,
        h: 8,
        w: 8,
        in_groups: Some(GROUPS),
        out_groups: Some(GROUPS),
        bias: true,
    };
    let mut conv = Conv2d::new("conv", conv_cfg.clone(), &mut rng);
    assert_warm_training_allocates_nothing(&mut conv, images);

    // The keyed mask: no mask tensor, no per-element RNG state.
    let mut dropout = Dropout::new(0.3, &mut rng);
    assert_warm_training_allocates_nothing(&mut dropout, images);

    let mut maxpool = MaxPool2d::new(2, 2);
    assert_warm_training_allocates_nothing(&mut maxpool, images);

    let wide_images = |rate| Tensor::zeros([11, active_units(16, GROUPS, rate), 8, 8]);
    let mut gn = GroupNorm::new("gn", 16, GROUPS);
    assert_warm_training_allocates_nothing(&mut gn, wide_images);

    // The same with this thread holding the fork-join helper (nothing else
    // in this binary competes for it; a one-core machine has none and runs
    // inline again). A part gets only slices of buffers this thread drew, so
    // what is left to size is each thread's own chunk scratch and pack
    // buffers. This thread's have seen every part above. The helper's are
    // sized, and the helper flagged as counted, by running whole passes of
    // twin layers *on* it — the first half
    // of the join returns only once the second has started, so the helper
    // has it — because which thread runs a given second half afterwards is a
    // matter of timing (a caller that is done first takes its job back), and
    // a warm pass must allocate on neither thread either way.
    let team = par::enter();
    if team.holds_helper() {
        let started = AtomicBool::new(false);
        par::join(
            || {
                while !started.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            },
            || {
                COUNTED.set(true);
                started.store(true, Ordering::Release);
                let mut rng = SeededRng::new(8);
                let full = SliceRate::new(1.0);
                let mut conv = Conv2d::new("conv", conv_cfg.clone(), &mut rng);
                let mut lstm = Lstm::new("lstm", lstm_cfg.clone(), &mut rng);
                let mut gn = GroupNorm::new("gn", 16, GROUPS);
                train_pass(&mut conv, &images(full));
                train_pass(&mut lstm, &sequence(full));
                train_pass(&mut gn, &wide_images(full));
            },
        );
    }
    assert_warm_training_allocates_nothing(&mut conv, images);
    assert_warm_training_allocates_nothing(&mut lstm, sequence);
    assert_warm_training_allocates_nothing(&mut gn, wide_images);
}
