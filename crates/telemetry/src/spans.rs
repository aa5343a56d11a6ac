//! Feature-gated span tracer.
//!
//! Each `span!("name")` call site owns one static [`SpanSite`]. On first
//! entry the site claims a slot in a fixed global table of span cells
//! (registration takes a mutex once per site); every later entry is a
//! thread-local stack push and every exit three relaxed `fetch_add`s —
//! call count, total nanoseconds, and *self* nanoseconds (total minus time
//! spent in child spans, tracked via the per-thread stack).
//!
//! With the `telemetry-spans` feature **off** (the default), every type in
//! this module is a zero-sized shell, `enter` is an empty
//! `#[inline(always)]` function and the guard has no `Drop` impl: the
//! compiler erases the whole site. `tests/engine_determinism.rs` plus the
//! `determinism_probe` diff in `scripts/perfcheck.sh` pin that both builds
//! produce bitwise-identical inference outputs.

/// Aggregated statistics for one span site.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Site name as written at the `span!` call.
    pub name: &'static str,
    /// Completed enter/exit pairs.
    pub calls: u64,
    /// Total wall nanoseconds across calls (children included).
    pub total_ns: u64,
    /// Nanoseconds not attributed to child spans.
    pub self_ns: u64,
}

#[cfg(feature = "telemetry-spans")]
mod imp {
    use super::SpanStats;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    /// Maximum distinct span sites (one static per `span!` occurrence).
    pub const MAX_SITES: usize = 256;
    /// Maximum live nesting depth per thread; deeper spans are dropped.
    const MAX_DEPTH: usize = 64;
    /// `SpanSite::id` sentinel for "table full, never record".
    const DEAD: u32 = u32::MAX;

    struct SpanCell {
        name: &'static str,
        calls: AtomicU64,
        total_ns: AtomicU64,
        self_ns: AtomicU64,
    }

    static CELLS: [OnceLock<SpanCell>; MAX_SITES] = [const { OnceLock::new() }; MAX_SITES];
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    static REGISTER: Mutex<()> = Mutex::new(());

    /// One `span!` call site: a name plus its lazily claimed table slot.
    pub struct SpanSite {
        name: &'static str,
        /// 0 = unclaimed, `i + 1` = slot `i`, `DEAD` = table overflow.
        id: AtomicU32,
    }

    impl SpanSite {
        /// Const constructor used by the `span!` macro expansion.
        pub const fn new(name: &'static str) -> SpanSite {
            SpanSite {
                name,
                id: AtomicU32::new(0),
            }
        }

        fn resolve(&self) -> u32 {
            let id = self.id.load(Ordering::Acquire);
            if id != 0 {
                return id;
            }
            let _g = REGISTER.lock().expect("span registration lock");
            // Re-check: another thread may have registered while we waited.
            let id = self.id.load(Ordering::Acquire);
            if id != 0 {
                return id;
            }
            let idx = NEXT.load(Ordering::Relaxed);
            if idx >= MAX_SITES {
                self.id.store(DEAD, Ordering::Release);
                return DEAD;
            }
            CELLS[idx].get_or_init(|| SpanCell {
                name: self.name,
                calls: AtomicU64::new(0),
                total_ns: AtomicU64::new(0),
                self_ns: AtomicU64::new(0),
            });
            NEXT.store(idx + 1, Ordering::Release);
            let id = (idx + 1) as u32;
            self.id.store(id, Ordering::Release);
            id
        }
    }

    #[derive(Clone, Copy)]
    struct Frame {
        slot: u32,
        start: Instant,
        child_ns: u64,
    }

    thread_local! {
        static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    }

    /// RAII guard: records on drop. Must be dropped in LIFO order per
    /// thread — scope-bound `let _g = span!(…)` bindings guarantee it.
    #[must_use = "binding the guard to a scope is what times the span"]
    pub struct SpanGuard {
        active: bool,
    }

    impl SpanGuard {
        /// Enters `site`. No-op when the site table overflowed or nesting
        /// exceeds `MAX_DEPTH`.
        #[inline]
        pub fn enter(site: &SpanSite) -> SpanGuard {
            let id = site.resolve();
            if id == DEAD {
                return SpanGuard { active: false };
            }
            let pushed = STACK.with(|s| {
                let mut s = s.borrow_mut();
                if s.capacity() == 0 {
                    // One-time reserve keeps the steady state allocation-free.
                    s.reserve(MAX_DEPTH);
                }
                if s.len() >= MAX_DEPTH {
                    return false;
                }
                s.push(Frame {
                    slot: id - 1,
                    start: Instant::now(),
                    child_ns: 0,
                });
                true
            });
            SpanGuard { active: pushed }
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            if !self.active {
                return;
            }
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                let f = s.pop().expect("span stack underflow (non-LIFO guard drop)");
                let total = f.start.elapsed().as_nanos() as u64;
                let cell = CELLS[f.slot as usize].get().expect("registered span cell");
                cell.calls.fetch_add(1, Ordering::Relaxed);
                cell.total_ns.fetch_add(total, Ordering::Relaxed);
                cell.self_ns
                    .fetch_add(total.saturating_sub(f.child_ns), Ordering::Relaxed);
                if let Some(parent) = s.last_mut() {
                    parent.child_ns += total;
                }
            });
        }
    }

    /// Snapshot of every registered span site's aggregates.
    pub fn snapshot() -> Vec<SpanStats> {
        let n = NEXT.load(Ordering::Acquire).min(MAX_SITES);
        (0..n)
            .filter_map(|i| CELLS[i].get())
            .map(|c| SpanStats {
                name: c.name,
                calls: c.calls.load(Ordering::Relaxed),
                total_ns: c.total_ns.load(Ordering::Relaxed),
                self_ns: c.self_ns.load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(not(feature = "telemetry-spans"))]
mod imp {
    use super::SpanStats;

    /// Zero-sized stand-in: the feature is off, sites cost nothing.
    pub struct SpanSite;

    impl SpanSite {
        /// Const constructor used by the `span!` macro expansion.
        #[inline(always)]
        pub const fn new(_name: &'static str) -> SpanSite {
            SpanSite
        }
    }

    /// Zero-sized guard with no `Drop`: the optimizer erases the site.
    #[must_use = "binding the guard to a scope is what times the span"]
    pub struct SpanGuard;

    impl SpanGuard {
        /// No-op.
        #[inline(always)]
        pub fn enter(_site: &SpanSite) -> SpanGuard {
            SpanGuard
        }
    }

    /// Always empty without the feature.
    pub fn snapshot() -> Vec<SpanStats> {
        Vec::new()
    }
}

pub use imp::{snapshot, SpanGuard, SpanSite};

#[cfg(all(test, feature = "telemetry-spans"))]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_attribute_self_time_to_the_right_site() {
        {
            let _outer = crate::span!("spans_test.outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = crate::span!("spans_test.inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let snap = snapshot();
        let outer = snap
            .iter()
            .find(|s| s.name == "spans_test.outer")
            .expect("outer registered");
        let inner = snap
            .iter()
            .find(|s| s.name == "spans_test.inner")
            .expect("inner registered");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(outer.total_ns >= inner.total_ns);
        // Outer self time excludes the inner sleep.
        assert!(
            outer.self_ns <= outer.total_ns - inner.total_ns + outer.total_ns / 4,
            "outer self {} vs total {} inner {}",
            outer.self_ns,
            outer.total_ns,
            inner.total_ns
        );
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn repeated_entries_accumulate_calls() {
        for _ in 0..10 {
            let _g = crate::span!("spans_test.repeat");
        }
        let snap = snapshot();
        let s = snap
            .iter()
            .find(|s| s.name == "spans_test.repeat")
            .expect("registered");
        assert!(s.calls >= 10);
        assert!(s.total_ns >= s.self_ns || s.total_ns == 0);
    }
}
