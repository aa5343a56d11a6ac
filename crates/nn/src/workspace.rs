//! Grow-only scratch buffers for layer internals.
//!
//! Layers that need named intermediate storage (RNN gate pre-activations,
//! normalisation statistics, …) own a [`Workspace`] and
//! borrow buffers from it by [`Role`]. Buffers grow to the high-water mark
//! of the layer's workload and are then reused verbatim, so after the first
//! call at a given batch size the layer's forward and backward paths touch
//! the allocator zero times.
//!
//! The `take`/`put` protocol moves the `Vec` out of the workspace for the
//! duration of its use. That sidesteps aliasing restrictions when a layer
//! needs two scratch buffers at once (or needs `&self` methods while a
//! buffer is live), and it makes leaks loud: a buffer that is never `put`
//! back is re-grown on the next call and shows up in the `grows` counter.

use std::collections::HashMap;

/// What a scratch buffer is used for. One live buffer per role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Current-timestep input slice (RNNs).
    StepInput,
    /// Pre-activation buffer (gate pre-activations, linear pre-bias, …).
    Preact,
    /// Post-nonlinearity gate values (RNNs).
    Gates,
    /// A recurrent cell's saved state blocks (RNNs).
    Cell,
    /// Per-group statistics (normalisation layers).
    Stats,
    /// Free-form scratch.
    Aux1,
    /// Second free-form scratch.
    Aux2,
}

/// Workspace traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Total `take` calls.
    pub takes: u64,
    /// `take` calls that had to (re)allocate because the stored buffer was
    /// missing or too small. In steady state this stays flat.
    pub grows: u64,
}

/// A role-keyed set of grow-only `f32` scratch buffers.
#[derive(Debug, Default)]
pub struct Workspace {
    bufs: HashMap<Role, Vec<f32>>,
    stats: WorkspaceStats,
}

impl Workspace {
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Borrows the buffer for `role`, zero-filled to exactly `len`
    /// elements. The buffer is moved out of the workspace; return it with
    /// [`Workspace::put`] when done so the capacity is retained.
    pub fn take(&mut self, role: Role, len: usize) -> Vec<f32> {
        self.stats.takes += 1;
        let mut buf = self.bufs.remove(&role).unwrap_or_default();
        if buf.capacity() < len {
            self.stats.grows += 1;
        }
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer taken with [`Workspace::take`].
    pub fn put(&mut self, role: Role, buf: Vec<f32>) {
        self.bufs.insert(role, buf);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Resets counters (buffers are kept).
    pub fn reset_stats(&mut self) {
        self.stats = WorkspaceStats::default();
    }
}

/// Per-layer prefix-activation cache for the anytime forward
/// (`Layer::forward_prefix`).
///
/// Holds the layer's output at **full stride** (every row `out_dim` wide,
/// prefix columns filled, the rest zero) plus a `done` watermark recording
/// how many leading units are valid. A refine pass `resume`s the cache,
/// computes only the delta groups, and advances the watermark; a fresh pass
/// `begin`s it. The buffer is grow-only, so steady-state refinement touches
/// the allocator zero times.
#[derive(Debug, Default)]
pub struct PrefixCache {
    /// Full-stride activation storage, `batch × stride`.
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

    #[test]
    fn take_grows_once_then_reuses() {
        let mut ws = Workspace::new();
        let b = ws.take(Role::Stats, 100);
        assert_eq!(b.len(), 100);
        ws.put(Role::Stats, b);
        let b = ws.take(Role::Stats, 80);
        ws.put(Role::Stats, b);
        let b = ws.take(Role::Stats, 100);
        ws.put(Role::Stats, b);
        let s = ws.stats();
        assert_eq!(s.takes, 3);
        assert_eq!(s.grows, 1, "only the first take should allocate");
    }

    #[test]
    fn take_zero_fills() {
        let mut ws = Workspace::new();
        let mut b = ws.take(Role::Preact, 8);
        b.iter_mut().for_each(|v| *v = 3.0);
        ws.put(Role::Preact, b);
        let b = ws.take(Role::Preact, 8);
        assert!(b.iter().all(|&v| v == 0.0));
        ws.put(Role::Preact, b);
    }

    #[test]
    fn roles_are_independent() {
        let mut ws = Workspace::new();
        let a = ws.take(Role::Aux1, 4);
        let b = ws.take(Role::Aux2, 4);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 4);
        ws.put(Role::Aux1, a);
        ws.put(Role::Aux2, b);
        assert_eq!(ws.stats().grows, 2);
    }

    #[test]
    fn unreturned_buffer_regrows() {
        let mut ws = Workspace::new();
        let _leaked = ws.take(Role::Gates, 16);
        let b = ws.take(Role::Gates, 16);
        assert_eq!(ws.stats().grows, 2);
        ws.put(Role::Gates, b);
    }
}
