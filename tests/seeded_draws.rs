//! Bulk draws are the per-call draws: `ChaCha8Rng::fill_u32` yields the
//! words, and leaves the state, of as many `next_u32` calls; the
//! `SeededRng` bulk fills return what their per-call twins return; and the
//! weight initialisers that fill through them equal a per-element oracle.

use modelslicing::tensor::{init, SeededRng};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// `offset` words already taken from the current block (so the bulk draw
/// starts mid-buffer), then `len` words in bulk on one copy and one by one
/// on another; the two copies must then continue identically.
fn check_bulk_words(rng: &ChaCha8Rng, len: usize) {
    let mut bulk = rng.clone();
    let mut single = rng.clone();
    let mut got = vec![0u32; len];
    bulk.fill_u32(&mut got);
    let want: Vec<u32> = (0..len).map(|_| single.next_u32()).collect();
    assert_eq!(got, want, "len {len}");
    for _ in 0..40 {
        assert_eq!(bulk.next_u32(), single.next_u32(), "after len {len}");
    }
}

#[test]
fn fill_u32_equals_next_u32_at_every_length_and_offset() {
    for offset in 0..16 {
        let mut rng = ChaCha8Rng::seed_from_u64(offset as u64);
        for _ in 0..offset {
            rng.next_u32();
        }
        for len in 0..=600 {
            check_bulk_words(&rng, len);
        }
    }
}

#[test]
fn fill_u32_chains_and_survives_a_mid_buffer_clone() {
    let mut bulk = ChaCha8Rng::seed_from_u64(99);
    let mut single = bulk.clone();
    // Odd lengths walk the start of each fill through every buffer offset.
    for len in [1, 7, 300, 16, 255, 257, 513, 3, 0, 1000] {
        let mut got = vec![0u32; len];
        bulk.fill_u32(&mut got);
        let want: Vec<u32> = (0..len).map(|_| single.next_u32()).collect();
        assert_eq!(got, want, "len {len}");
        // A clone taken wherever the last fill stopped draws on alike.
        check_bulk_words(&bulk, 280);
    }
}

#[test]
fn fill_uniform_and_fill_normal_equal_their_per_call_twins() {
    for offset in 0..16 {
        for len in (0..=600).step_by(23).chain([255, 256, 257, 512]) {
            let mut bulk = SeededRng::new(1000 + offset);
            for _ in 0..offset {
                bulk.uniform(0.0, 1.0);
            }
            let mut single = bulk.clone();

            let mut got = vec![0.0f32; len];
            bulk.fill_uniform(&mut got, -0.3, 0.7);
            let want: Vec<f32> = (0..len).map(|_| single.uniform(-0.3, 0.7)).collect();
            assert_eq!(bits(&got), bits(&want), "uniform len {len} offset {offset}");

            bulk.fill_normal(&mut got, 0.5, 2.0);
            let want: Vec<f32> = (0..len).map(|_| single.normal(0.5, 2.0)).collect();
            assert_eq!(bits(&got), bits(&want), "normal len {len} offset {offset}");

            assert_eq!(bulk.next_u64(), single.next_u64());
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The initialisers drawn one element at a time, in order: the reference
/// the bulk fills must equal.
mod oracle {
    use super::SeededRng;

    pub fn kaiming_normal(n: usize, fan_in: usize, rng: &mut SeededRng) -> Vec<f32> {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        (0..n).map(|_| rng.normal(0.0, std)).collect()
    }

    pub fn xavier_uniform(
        n: usize,
        fan_in: usize,
        fan_out: usize,
        rng: &mut SeededRng,
    ) -> Vec<f32> {
        let a = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
        (0..n).map(|_| rng.uniform(-a, a)).collect()
    }

    pub fn uniform(n: usize, a: f32, rng: &mut SeededRng) -> Vec<f32> {
        (0..n).map(|_| rng.uniform(-a, a)).collect()
    }
}

#[test]
fn initialisers_equal_the_per_element_oracle() {
    let shapes: [&[usize]; 5] = [&[1], &[8], &[33, 7], &[64, 3, 3, 3], &[300, 257]];
    for seed in [0u64, 7, 41] {
        for dims in shapes {
            let n: usize = dims.iter().product();
            let (fan_in, fan_out) = (dims[dims.len() - 1], dims[0]);
            let mut rng = SeededRng::new(seed);
            let mut want_rng = rng.clone();

            let t = init::kaiming_normal(dims, fan_in, &mut rng);
            let want = oracle::kaiming_normal(n, fan_in, &mut want_rng);
            assert_eq!(bits(t.data()), bits(&want), "kaiming {dims:?} seed {seed}");

            let t = init::xavier_uniform(dims, fan_in, fan_out, &mut rng);
            let want = oracle::xavier_uniform(n, fan_in, fan_out, &mut want_rng);
            assert_eq!(bits(t.data()), bits(&want), "xavier {dims:?} seed {seed}");

            let t = init::uniform(dims, 0.1, &mut rng);
            let want = oracle::uniform(n, 0.1, &mut want_rng);
            assert_eq!(bits(t.data()), bits(&want), "uniform {dims:?} seed {seed}");

            assert_eq!(rng.next_u64(), want_rng.next_u64());
        }
    }
}
