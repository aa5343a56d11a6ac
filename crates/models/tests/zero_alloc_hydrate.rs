//! A served replica holds its weights once.
//!
//! A counting global allocator (bytes, per thread) checks what hydrating a
//! replica from [`SharedWeights`] costs: on the 64-2048-2048-8 MLP of the
//! `wire_staircase` workload (a 16 MiB first-layer weight) hydration and
//! one warm `Infer` forward allocate under 1 MiB in total, because the
//! replica shares the snapshot's tensors instead of copying them, and no
//! gradient exists afterwards, because a parameter allocates one only when
//! something writes it. Training a hydrated net copies a tensor on its
//! first write and gives the bits a net that owns its weights gives.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ms_core::scheduler::{Scheduler, SchedulerKind};
use ms_core::slice_rate::SliceRateList;
use ms_core::trainer::{Batch, Trainer, TrainerConfig};
use ms_models::mlp::{Mlp, MlpConfig};
use ms_nn::layer::{Layer, Mode};
use ms_nn::shared::SharedWeights;
use ms_tensor::{SeededRng, Tensor};

thread_local! {
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` keeps the hook safe during TLS teardown.
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocated_bytes(f: impl FnOnce()) -> u64 {
    let before = ALLOC_BYTES.with(Cell::get);
    f();
    ALLOC_BYTES.with(Cell::get) - before
}

fn gradients(net: &mut dyn Layer) -> usize {
    let mut n = 0;
    net.visit_params(&mut |p| n += p.grad.get().is_some() as usize);
    n
}

fn bits(net: &mut dyn Layer) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    net.visit_params(&mut |p| out.push(p.value.data().iter().map(|v| v.to_bits()).collect()));
    out
}

#[test]
fn hydrating_the_heavy_mlp_and_serving_allocates_no_weight_and_no_gradient() {
    let cfg = MlpConfig {
        input_dim: 64,
        hidden_dims: vec![2048, 2048],
        num_classes: 8,
        groups: 8,
        dropout: 0.0,
        input_rescale: true,
    };
    let mut proto = Mlp::new(&cfg, &mut SeededRng::new(1));
    let shared = SharedWeights::capture(&mut proto);
    let mut replica = Mlp::new(&cfg, &mut SeededRng::new(2));
    let x = Tensor::full([32, 64], 0.1);
    // Warm the pool on this thread.
    replica.forward(&x, Mode::Infer).recycle();

    let mut y = None;
    let bytes = allocated_bytes(|| {
        shared.hydrate(&mut replica);
        y = Some(replica.forward(&x, Mode::Infer));
    });
    assert!(
        bytes < 1 << 20,
        "hydrate + warm forward allocated {bytes} bytes"
    );
    assert_eq!(
        gradients(&mut replica),
        0,
        "a serving replica allocated gradients"
    );
    assert_eq!(gradients(&mut proto), 0);
    assert_eq!(y, Some(proto.forward(&x, Mode::Infer)));
}

#[test]
fn a_trainer_step_on_a_hydrated_net_gives_the_bits_of_an_owning_one() {
    let cfg = MlpConfig {
        input_dim: 10,
        hidden_dims: vec![24, 24],
        num_classes: 3,
        groups: 4,
        dropout: 0.0,
        input_rescale: true,
    };
    // Same seed: `owned` holds the weights `shared` snapshots, alone.
    let mut owned = Mlp::new(&cfg, &mut SeededRng::new(3));
    let shared = SharedWeights::capture(&mut Mlp::new(&cfg, &mut SeededRng::new(3)));
    let mut hydrated = Mlp::new(&cfg, &mut SeededRng::new(4));
    shared.hydrate(&mut hydrated);
    assert_eq!(bits(&mut hydrated), bits(&mut owned));

    let trainer = || {
        let rates = SliceRateList::from_rates(&[0.25, 0.5, 0.75, 1.0]);
        let scheduler = Scheduler::new(SchedulerKind::Static, rates, &mut SeededRng::new(5));
        Trainer::new(scheduler, TrainerConfig::default())
    };
    let (mut a, mut b) = (trainer(), trainer());
    let mut rng = SeededRng::new(6);
    for step in 0..3 {
        let x = Tensor::from_vec([8, 10], (0..80).map(|_| rng.uniform(-1.0, 1.0)).collect())
            .expect("batch shape");
        let y: Vec<usize> = (0..8).map(|i| (i + step) % 3).collect();
        let batch = Batch { x, y };
        let sa = a.step(&mut owned, &batch);
        let sb = b.step(&mut hydrated, &batch);
        assert_eq!(
            sa.grad_norm.to_bits(),
            sb.grad_norm.to_bits(),
            "step {step}"
        );
        assert_eq!(bits(&mut hydrated), bits(&mut owned), "step {step}");
    }
}
