//! Log-linear bucketed histogram with atomic, allocation-free recording.
//!
//! Values are non-negative `f64`s (seconds, losses, norms). The positive
//! range `[2^MIN_EXP, 2^MAX_EXP)` is split into octaves, each subdivided
//! linearly into [`SUBS`] sub-buckets taken straight from the top mantissa
//! bits — so `bucket_index` is a couple of shifts on the IEEE-754 bits,
//! no `log2` call. Everything below the range (including zero, negatives
//! and NaN) lands in the underflow bucket; everything at or above the top
//! in the overflow bucket.
//!
//! Percentile queries walk a relaxed snapshot of the bucket counts and
//! return the *upper bound* of the bucket holding the requested rank.
//! Because the exact nearest-rank percentile of the recorded samples lies
//! inside that same bucket, the answer is always within one bucket width
//! of the true sorted-vector percentile (property-tested in
//! `tests/percentile_prop.rs`). With 16 sub-buckets per octave the bucket
//! width is at most ~6.25 % of the value.

use crate::registry::{Desc, PaddedAtomicU64};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Linear sub-buckets per power-of-two octave.
pub const SUBS: usize = 16;
/// Smallest representable exponent: values below `2^MIN_EXP` underflow.
/// `2^-30 ≈ 0.93 ns` — finer than any duration we time.
pub const MIN_EXP: i32 = -30;
/// Largest exponent: values at or above `2^MAX_EXP ≈ 1.05e6` overflow.
pub const MAX_EXP: i32 = 20;
/// Total bucket count: underflow + octaves·SUBS + overflow.
pub const NBUCKETS: usize = 2 + ((MAX_EXP - MIN_EXP) as usize) * SUBS;

/// Lower edge of the covered range.
fn min_value() -> f64 {
    (MIN_EXP as f64).exp2()
}

/// Upper edge of the covered range.
fn max_value() -> f64 {
    (MAX_EXP as f64).exp2()
}

/// Maps a sample to its bucket index.
#[inline]
pub fn bucket_index(v: f64) -> usize {
    // `!(v >= min)` also catches NaN, negatives and zero.
    if !(v >= min_value()) {
        return 0;
    }
    if v >= max_value() {
        return NBUCKETS - 1;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let sub = ((bits >> 48) & 0xf) as usize; // top log2(SUBS) mantissa bits
    1 + ((exp - MIN_EXP) as usize) * SUBS + sub
}

/// `[lower, upper)` bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (f64, f64) {
    assert!(i < NBUCKETS);
    if i == 0 {
        return (0.0, min_value());
    }
    if i == NBUCKETS - 1 {
        return (max_value(), f64::INFINITY);
    }
    let j = i - 1;
    let base = ((MIN_EXP + (j / SUBS) as i32) as f64).exp2();
    let s = (j % SUBS) as f64;
    (
        base * (1.0 + s / SUBS as f64),
        base * (1.0 + (s + 1.0) / SUBS as f64),
    )
}

pub(crate) struct HistogramCell {
    pub(crate) desc: Desc,
    buckets: Box<[AtomicU64]>,
    // Padded like the counter/gauge cells: the CAS'd sum is the one field
    // of this cell written per record, and must not share a line with a
    // neighbouring cell's hot atomic.
    sum_bits: PaddedAtomicU64,
    // Exemplar: the largest sample recorded with a trace id attached, so a
    // scrape can jump from "p99 moved" straight to the flight-recorder
    // chain that moved it. `exemplar_id == 0` means none yet.
    exemplar_bits: AtomicU64,
    exemplar_id: AtomicU64,
}

/// A cloneable handle to one registered histogram. Recording is a bucket
/// `fetch_add` plus a CAS-loop float add to the running sum — lock-free
/// and allocation-free.
#[derive(Clone)]
pub struct Histogram(pub(crate) Arc<HistogramCell>);

impl Histogram {
    pub(crate) fn new_cell(desc: Desc) -> Histogram {
        Histogram(Arc::new(HistogramCell {
            desc,
            buckets: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: PaddedAtomicU64::new(0f64.to_bits()),
            exemplar_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            exemplar_id: AtomicU64::new(0),
        }))
    }

    /// A free-standing histogram not attached to any registry. For tests
    /// and ad-hoc measurement.
    pub fn detached(name: &str) -> Histogram {
        Histogram::new_cell(Desc::new(name, &[], ""))
    }

    /// Metric name.
    pub fn name(&self) -> &str {
        &self.0.desc.name
    }

    /// Label pairs.
    pub fn labels(&self) -> &[(String, String)] {
        &self.0.desc.labels
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: f64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // Float sum via CAS: lock-free, and precise enough for means.
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records one sample and, if it is the largest traced sample so far,
    /// remembers `trace_id` as this histogram's exemplar. `trace_id == 0`
    /// degrades to a plain [`Histogram::record`].
    pub fn record_traced(&self, v: f64, trace_id: u64) {
        self.record(v);
        if trace_id == 0 {
            return;
        }
        let mut cur = self.0.exemplar_bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.exemplar_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // Racing writers may pair a slightly older id with the
                    // max value; exemplars are a debugging hint, not an
                    // exact max, so last-writer-wins is fine.
                    self.0.exemplar_id.store(trace_id, Ordering::Relaxed);
                    return;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// `(value, trace_id)` of the largest traced sample, if any.
    pub fn exemplar(&self) -> Option<(f64, u64)> {
        let id = self.0.exemplar_id.load(Ordering::Relaxed);
        if id == 0 {
            return None;
        }
        Some((
            f64::from_bits(self.0.exemplar_bits.load(Ordering::Relaxed)),
            id,
        ))
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`), resolved to the upper
    /// bound of the bucket holding rank `round((n-1)·q)`. Returns 0 when
    /// empty. Matches the exact sorted-vector percentile to within one
    /// bucket width for in-range samples.
    pub fn percentile(&self, q: f64) -> f64 {
        let mut counts = [0u64; NBUCKETS];
        self.snapshot_counts_into(&mut counts);
        percentile_from_counts(&counts, q)
    }

    /// Copies a relaxed snapshot of the per-bucket counts into `out`
    /// (length [`NBUCKETS`]) without allocating. This is the primitive the
    /// time-series sampler differences: `snapshot(t₂) − snapshot(t₁)` is
    /// the bucket distribution of exactly the samples recorded in
    /// `(t₁, t₂]`, from which [`percentile_from_counts`] yields *windowed*
    /// percentiles instead of lifetime-cumulative ones.
    pub fn snapshot_counts_into(&self, out: &mut [u64]) {
        assert_eq!(out.len(), NBUCKETS, "snapshot buffer must hold NBUCKETS");
        for (slot, b) in out.iter_mut().zip(self.0.buckets.iter()) {
            *slot = b.load(Ordering::Relaxed);
        }
    }

    /// `(upper_bound, cumulative_count)` for every non-empty bucket, in
    /// ascending bound order — the shape Prometheus `_bucket{le=…}` wants.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                cum += c;
                let (lo, hi) = bucket_bounds(i);
                out.push((if hi.is_finite() { hi } else { lo }, cum));
            }
        }
        out
    }
}

/// Nearest-rank percentile over an explicit bucket-count array (length
/// [`NBUCKETS`]) — the same resolution contract as
/// [`Histogram::percentile`], but usable on a *delta* of two snapshots
/// taken with [`Histogram::snapshot_counts_into`]. Returns 0 when the
/// counts sum to zero. Allocation-free.
pub fn percentile_from_counts(counts: &[u64], q: f64) -> f64 {
    assert_eq!(counts.len(), NBUCKETS, "counts must hold NBUCKETS entries");
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let rank = ((n - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cum += c;
        if cum > rank {
            let (lo, hi) = bucket_bounds(i);
            // The overflow bucket has no finite upper bound; its lower
            // bound is the least-wrong finite answer.
            return if hi.is_finite() { hi } else { lo };
        }
    }
    unreachable!("rank below total count");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        for v in [1e-9, 3.7e-6, 0.001, 0.5, 1.0, 1.5, 123.0, 9.9e5] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi}) (bucket {i})");
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(2e6), NBUCKETS - 1);
    }

    #[test]
    fn adjacent_buckets_share_edges() {
        for i in 1..NBUCKETS - 2 {
            let (_, hi) = bucket_bounds(i);
            let (lo, _) = bucket_bounds(i + 1);
            assert!(
                (hi - lo).abs() < hi * 1e-12,
                "gap between bucket {i} and {}",
                i + 1
            );
        }
    }

    #[test]
    fn percentile_of_known_distribution() {
        let h = Histogram::detached("t");
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3); // 1ms .. 1s
        }
        assert_eq!(h.count(), 1000);
        assert!((h.sum() - 500.5).abs() < 1e-9);
        let p50 = h.percentile(0.50);
        assert!((p50 - 0.5).abs() < 0.5 * 0.07, "p50 {p50}");
        let p99 = h.percentile(0.99);
        assert!((p99 - 0.99).abs() < 0.99 * 0.07, "p99 {p99}");
        assert!(h.percentile(0.99) >= h.percentile(0.50));
    }

    #[test]
    fn empty_percentile_is_zero() {
        assert_eq!(Histogram::detached("t").percentile(0.99), 0.0);
    }

    #[test]
    fn snapshot_delta_isolates_a_window() {
        let h = Histogram::detached("t");
        // Epoch 1: slow samples around 1s.
        for _ in 0..100 {
            h.record(1.0);
        }
        let mut before = [0u64; NBUCKETS];
        h.snapshot_counts_into(&mut before);
        // Epoch 2: fast samples around 1ms.
        for _ in 0..100 {
            h.record(1e-3);
        }
        let mut after = [0u64; NBUCKETS];
        h.snapshot_counts_into(&mut after);

        let mut delta = [0u64; NBUCKETS];
        for i in 0..NBUCKETS {
            delta[i] = after[i] - before[i];
        }
        // Lifetime p99 still sees epoch 1; the windowed delta does not.
        assert!(h.percentile(0.99) > 0.9);
        let windowed = percentile_from_counts(&delta, 0.99);
        assert!(windowed < 2e-3, "windowed p99 {windowed}");
        assert_eq!(delta.iter().sum::<u64>(), 100);
        assert_eq!(percentile_from_counts(&[0u64; NBUCKETS], 0.5), 0.0);
    }

    #[test]
    fn exemplar_tracks_the_slowest_traced_sample() {
        let h = Histogram::detached("t");
        assert_eq!(h.exemplar(), None);
        h.record_traced(0.010, 0); // untraced: counted but no exemplar
        assert_eq!(h.count(), 1);
        assert_eq!(h.exemplar(), None);
        h.record_traced(0.020, 41);
        h.record_traced(0.005, 42); // faster: does not displace
        assert_eq!(h.exemplar(), Some((0.020, 41)));
        h.record_traced(0.500, 43);
        assert_eq!(h.exemplar(), Some((0.500, 43)));
        assert_eq!(h.count(), 4);
    }
}
