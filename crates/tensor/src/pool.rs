//! Thread-local recycling pool for `f32` buffers.
//!
//! Layer forwards and backwards produce output tensors every call. Without
//! reuse, each call heap-allocates those outputs, and the steady-state cost
//! of Algorithm-1 multi-subnet training is dominated by allocator traffic
//! for large activations. The pool closes that loop: a tensor that is no
//! longer needed is [`release`]d back to the thread's free list, and the
//! next [`acquire`] of a compatible size reuses its storage instead of
//! allocating.
//!
//! Design points:
//!
//! - **Thread-local, lock-free.** Each thread owns its free list; buffers
//!   never migrate between threads, so no synchronisation is needed. A
//!   tensor whose storage no pool lent (a request decoded off the wire) is
//!   dropped where it dies, not released into that thread's list, which
//!   would never draw its size.
//! - **Best-fit with bounded slack.** `acquire(len)` picks the smallest
//!   free buffer whose capacity is `>= len` and at most `2 * len`, so a
//!   tiny request cannot pin a huge buffer.
//! - **Sized by the working set.** A miss retires the largest free buffer
//!   below `len` and more than half of it, mirroring the hit slack. A slot
//!   whose batch grows replaces its buffer instead of keeping the new one
//!   beside the old, so a thread that sees every batch size holds what its
//!   largest batch needs, not one buffer per size it has seen. A buffer of
//!   exactly half is kept: a size that doubles and comes back (a layer
//!   linear in the width, stepping from 0.25 to 0.5 and back) draws it
//!   again. A pool that hits in steady state never retires anything.
//! - **Bounded.** At most [`MAX_POOLED`] buffers are retained; releasing
//!   into a full pool drops the smallest entry (large activations are the
//!   expensive ones to reallocate).
//! - **Instrumented.** Hit/miss counters let tests assert that a warmed-up
//!   forward pass is served entirely from the pool; [`pooled_bytes`] and
//!   the `tensor_pool_bytes` gauge say how much memory the free lists hold.
//!
//! [`acquire`] returns buffers zero-filled to `len` — a drop-in
//! replacement for `vec![0.0; len]`. [`acquire_stale`] skips the fill, for
//! outputs whose every element is written before any is read; what it holds
//! on return is whatever its last user left there, never uninitialised
//! memory.
//!
//! The copies and zero fills are the traffic a layer stack can avoid, so
//! each carries a span: `tensor.pool_copy` ([`acquire_copy`]) and
//! `tensor.pool_zero` ([`acquire`]).

use std::cell::RefCell;
use std::sync::OnceLock;

/// Maximum number of buffers retained per thread.
pub const MAX_POOLED: usize = 64;

/// Process-wide pool series on the telemetry registry. The per-thread
/// [`PoolStats`] and [`pooled_bytes`] stay authoritative for tests (they are
/// exact per thread); these aggregate across every thread so the Prometheus
/// dumps and a metrics scrape can see total pool traffic, and the memory
/// the free lists hold, from outside the crate.
struct PoolMetrics {
    hits: ms_telemetry::Counter,
    misses: ms_telemetry::Counter,
    evictions: ms_telemetry::Counter,
    bytes: ms_telemetry::Gauge,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = ms_telemetry::global();
        PoolMetrics {
            hits: reg.counter(
                "tensor_pool_hits_total",
                "buffer-pool acquisitions served from pooled storage",
            ),
            misses: reg.counter(
                "tensor_pool_misses_total",
                "buffer-pool acquisitions that allocated fresh storage",
            ),
            evictions: reg.counter(
                "tensor_pool_evictions_total",
                "buffer-pool releases dropped because the pool was full",
            ),
            bytes: reg.gauge(
                "tensor_pool_bytes",
                "bytes of buffer capacity held in the pools' free lists",
            ),
        }
    })
}

/// Pool traffic counters for one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served by reusing a pooled buffer.
    pub hits: u64,
    /// Acquisitions that had to allocate fresh storage.
    pub misses: u64,
    /// Releases dropped because the pool was full.
    pub evictions: u64,
}

/// How many pool events a thread accumulates locally before publishing the
/// deltas to the global telemetry series, the byte gauge's with them. The
/// pool sits on the per-request hot path of the serving engine; a global
/// `fetch_add` per acquire would put every worker thread on the same
/// contended cache lines, so traffic is batched and the registry series lag
/// the thread-local truth by at most `FLUSH_EVERY - 1` events per live
/// thread (exact on thread exit).
const FLUSH_EVERY: u64 = 64;

struct Pool {
    free: Vec<Vec<f32>>,
    /// Bytes of capacity held in `free`.
    bytes: i64,
    stats: PoolStats,
    /// Deltas not yet published to the global registry counters.
    pending: PoolStats,
    /// Change of `bytes` not yet published to the byte gauge.
    pending_bytes: i64,
}

impl Pool {
    fn new() -> Pool {
        // Touch the registry cells now, while this thread is first setting
        // its pool up: registration allocates (name strings, the cell), and
        // deferring it to the first threshold flush would put that one-off
        // allocation inside a steady-state region the zero-alloc tests
        // measure.
        let _ = pool_metrics();
        Pool {
            free: Vec::new(),
            bytes: 0,
            stats: PoolStats::default(),
            pending: PoolStats::default(),
            pending_bytes: 0,
        }
    }

    fn push(&mut self, buf: Vec<f32>) {
        self.resize_by(bytes_of(&buf));
        self.free.push(buf);
    }

    fn swap_remove(&mut self, i: usize) -> Vec<f32> {
        let buf = self.free.swap_remove(i);
        self.resize_by(-bytes_of(&buf));
        buf
    }

    fn resize_by(&mut self, delta: i64) {
        self.bytes += delta;
        self.pending_bytes += delta;
    }

    fn flush_pending(&mut self) {
        let m = pool_metrics();
        if self.pending.hits > 0 {
            m.hits.add(self.pending.hits);
        }
        if self.pending.misses > 0 {
            m.misses.add(self.pending.misses);
        }
        if self.pending.evictions > 0 {
            m.evictions.add(self.pending.evictions);
        }
        if self.pending_bytes != 0 {
            m.bytes.add(self.pending_bytes as f64);
        }
        self.pending = PoolStats::default();
        self.pending_bytes = 0;
    }

    fn note_event(&mut self) {
        if self.pending.hits + self.pending.misses + self.pending.evictions >= FLUSH_EVERY {
            self.flush_pending();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // The free list goes with the thread.
        self.pending_bytes -= self.bytes;
        self.flush_pending();
    }
}

fn bytes_of(buf: &Vec<f32>) -> i64 {
    (buf.capacity() * std::mem::size_of::<f32>()) as i64
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::new());
}

/// Takes the best-fitting free buffer with room for `len` elements off
/// this thread's list (contents and capacity kept), counting the hit or
/// miss. A miss retires the largest free buffer in `(len / 2, len)`: the
/// caller is about to allocate its successor.
fn take(len: usize) -> Option<Vec<f32>> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let mut best: Option<(usize, usize)> = None;
        let mut outgrown: Option<(usize, usize)> = None;
        for (i, buf) in p.free.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && cap <= len.saturating_mul(2).max(len) {
                match best {
                    Some((_, best_cap)) if best_cap <= cap => {}
                    _ => best = Some((i, cap)),
                }
                if cap == len {
                    break;
                }
            } else if cap < len && cap.saturating_mul(2) > len {
                match outgrown {
                    Some((_, out_cap)) if out_cap >= cap => {}
                    _ => outgrown = Some((i, cap)),
                }
            }
        }
        match best {
            Some((i, _)) => {
                p.stats.hits += 1;
                p.pending.hits += 1;
                p.note_event();
                Some(p.swap_remove(i))
            }
            None => {
                if let Some((i, _)) = outgrown {
                    drop(p.swap_remove(i));
                }
                p.stats.misses += 1;
                p.pending.misses += 1;
                p.note_event();
                None
            }
        }
    })
}

/// Fetches a zero-filled buffer of exactly `len` elements, reusing pooled
/// storage when a suitable buffer is available.
pub fn acquire(len: usize) -> Vec<f32> {
    let buf = take(len);
    let _span = ms_telemetry::span!("tensor.pool_zero");
    match buf {
        Some(mut buf) => {
            buf.clear();
            buf.resize(len, 0.0);
            buf
        }
        None => vec![0.0; len],
    }
}

/// Fetches a buffer of exactly `len` elements like [`acquire`], without the
/// zero fill: a reused buffer keeps what its last user wrote (a fresh one,
/// or the part past what the last user wrote, is zeroed). Only for outputs
/// that are written in full before they are read.
pub fn acquire_stale(len: usize) -> Vec<f32> {
    match take(len) {
        Some(mut buf) => {
            buf.truncate(len);
            buf.resize(len, 0.0);
            buf
        }
        None => vec![0.0; len],
    }
}

/// Fetches a buffer holding a copy of `src`, reusing pooled storage like
/// [`acquire`] but without zero-filling what the copy overwrites.
pub fn acquire_copy(src: &[f32]) -> Vec<f32> {
    let buf = take(src.len());
    let _span = ms_telemetry::span!("tensor.pool_copy");
    let mut buf = buf.unwrap_or_else(|| Vec::with_capacity(src.len()));
    buf.clear();
    buf.extend_from_slice(src);
    buf
}

/// Returns a buffer to the pool for later reuse. Zero-capacity buffers are
/// dropped. When the pool is full, the smallest retained buffer is evicted
/// to make room if the newcomer is larger (otherwise the newcomer is
/// dropped).
pub fn release(buf: Vec<f32>) {
    if buf.capacity() == 0 {
        return;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.free.len() >= MAX_POOLED {
            let (min_i, min_cap) = p
                .free
                .iter()
                .enumerate()
                .map(|(i, b)| (i, b.capacity()))
                .min_by_key(|&(_, c)| c)
                .expect("pool is full, so non-empty");
            p.stats.evictions += 1;
            p.pending.evictions += 1;
            p.note_event();
            if buf.capacity() > min_cap {
                p.swap_remove(min_i);
            } else {
                return;
            }
        }
        p.push(buf);
    });
}

/// Snapshot of this thread's pool counters. Also publishes this thread's
/// pending deltas to the global registry counters, so a thread that reads
/// its own stats sees the registry caught up with itself.
pub fn stats() -> PoolStats {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        p.flush_pending();
        p.stats
    })
}

/// Bytes of buffer capacity this thread's free list holds.
pub fn pooled_bytes() -> usize {
    POOL.with(|p| p.borrow().bytes as usize)
}

/// Resets this thread's counters (the free list is kept).
pub fn reset_stats() {
    POOL.with(|p| p.borrow_mut().stats = PoolStats::default());
}

/// Drops every pooled buffer and resets counters. Mainly for tests that
/// need a cold pool.
pub fn clear() {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        let held = p.bytes;
        p.resize_by(-held);
        p.free.clear();
        p.stats = PoolStats::default();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_roundtrip_hits() {
        clear();
        let a = acquire(128);
        assert_eq!(a.len(), 128);
        assert!(a.iter().all(|&v| v == 0.0));
        release(a);
        let b = acquire(128);
        assert_eq!(stats().hits, 1);
        assert_eq!(stats().misses, 1);
        release(b);
    }

    #[test]
    fn reused_buffers_are_zeroed() {
        clear();
        let mut a = acquire(16);
        a.iter_mut().for_each(|v| *v = 7.0);
        release(a);
        let b = acquire(16);
        assert!(b.iter().all(|&v| v == 0.0));
        release(b);
    }

    #[test]
    fn stale_buffers_keep_what_was_written() {
        clear();
        release(vec![7.0; 16]);
        let b = acquire_stale(12);
        assert_eq!(b, vec![7.0; 12]);
        release(b);
        // Longer than what the last user wrote: the tail is zeroed.
        let c = acquire_stale(16);
        assert_eq!(&c[..12], &[7.0; 12]);
        assert_eq!(&c[12..], &[0.0; 4]);
        release(c);
        assert_eq!(stats().hits, 2);
    }

    #[test]
    fn oversized_buffers_are_not_matched() {
        clear();
        release(vec![0.0; 1000]);
        let small = acquire(8);
        // 1000 > 2 * 8, so the big buffer must not have been handed out.
        assert_eq!(stats().misses, 1);
        assert_eq!(stats().hits, 0);
        release(small);
    }

    #[test]
    fn best_fit_prefers_smallest_adequate() {
        clear();
        release(Vec::with_capacity(100));
        release(Vec::with_capacity(60));
        let got = acquire(50);
        assert_eq!(stats().hits, 1);
        assert!(got.capacity() >= 50 && got.capacity() <= 100);
        release(got);
    }

    #[test]
    fn a_miss_retires_the_largest_buffer_it_outgrew() {
        clear();
        release(Vec::with_capacity(50)); // exactly half of 100: kept
        release(Vec::with_capacity(60));
        release(Vec::with_capacity(70));
        assert_eq!(pooled_bytes(), 4 * 180);
        let grown = acquire(100);
        assert_eq!((stats().hits, stats().misses), (0, 1));
        // The 70 went; the 60, also in the band, waits for the next miss.
        assert_eq!(pooled_bytes(), 4 * 110);
        release(grown);
        assert_eq!(pooled_bytes(), 4 * 210);
        clear();
        assert_eq!(pooled_bytes(), 0);
    }

    #[test]
    fn a_hit_retires_nothing() {
        clear();
        release(Vec::with_capacity(60));
        release(Vec::with_capacity(100));
        let got = acquire(100);
        assert_eq!(stats().hits, 1);
        assert_eq!(pooled_bytes(), 4 * 60);
        release(got);
    }

    #[test]
    fn pool_is_bounded() {
        clear();
        for _ in 0..(MAX_POOLED + 10) {
            release(vec![0.0; 4]);
        }
        assert!(stats().evictions >= 10);
        clear();
    }
}
