//! Grow-only layer-owned buffers: scratch fields taken with
//! `take_zeroed` and put back by plain assignment, so after the first
//! call at a given batch size a layer's forward and backward touch the
//! allocator zero times; and the anytime forward's [`PrefixCache`].
//! Neither is ever drawn from the tensor pool (DESIGN.md §8.2).

/// Moves a scratch buffer out of its field, zero-filled to exactly `len`
/// elements. Move it back when done so its capacity is kept.
pub(crate) fn take_zeroed(field: &mut Vec<f32>, len: usize) -> Vec<f32> {
    let mut buf = std::mem::take(field);
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// Per-layer prefix-activation cache for the anytime forward
/// (`Layer::forward_prefix`).
///
/// Holds the layer's output, or the sum it is read out of, for every unit
/// at full width — a conv's sample-major (every row `out_dim` wide), a dense
/// layer's out-major (a row of the batch per unit) — prefix units filled,
/// the rest zero, plus a `done` watermark recording how many leading units
/// are valid. A refine pass `resume`s the cache,
/// computes only the delta groups, and advances the watermark; a fresh pass
/// `begin`s it. The buffer is grow-only, so steady-state refinement touches
/// the allocator zero times.
#[derive(Debug, Default)]
pub struct PrefixCache {
    /// Full-width storage, `batch × stride` floats.
    pub buf: Vec<f32>,
    /// Leading units per row that hold valid prefix activations.
    pub done: usize,
    /// Batch size the cache was filled at.
    pub batch: usize,
}

impl PrefixCache {
    /// Starts a fresh prefix pass: zero-fills to `batch · stride` elements
    /// and resets the watermark.
    pub fn begin(&mut self, batch: usize, stride: usize) {
        self.buf.clear();
        self.buf.resize(batch * stride, 0.0);
        self.done = 0;
        self.batch = batch;
    }

    /// Resumes a refine pass: asserts the cache really holds `expected_done`
    /// valid units for this `batch`/`stride`, panicking with the layer name
    /// otherwise (a refine against a stale cache would silently corrupt
    /// logits; the contract violation must be loud).
    pub fn resume(&mut self, batch: usize, stride: usize, expected_done: usize, name: &str) {
        assert!(
            self.batch == batch && self.buf.len() == batch * stride && self.done == expected_done,
            "{name}: refine against stale prefix cache \
             (cached batch {} × len {} done {}, expected batch {batch} × len {} done {expected_done})",
            self.batch,
            self.buf.len(),
            self.done,
            batch * stride,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_cache_begin_resets_and_resume_checks() {
        let mut c = PrefixCache::default();
        c.begin(2, 5);
        assert_eq!(c.buf.len(), 10);
        c.buf[3] = 7.0;
        c.done = 3;
        c.resume(2, 5, 3, "t");
        c.begin(2, 5);
        assert!(c.buf.iter().all(|&v| v == 0.0), "begin must zero-fill");
        assert_eq!(c.done, 0);
    }

    #[test]
    #[should_panic(expected = "stale prefix cache")]
    fn prefix_cache_resume_rejects_mismatched_watermark() {
        let mut c = PrefixCache::default();
        c.begin(2, 5);
        c.resume(2, 5, 3, "t");
    }
}
