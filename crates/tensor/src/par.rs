//! Fork-join over one helper thread: the second core of a training step.
//!
//! [`join`]`(a, b)` runs two closures and returns both results. A thread
//! that holds the process's single helper thread (it [`enter`]ed the team and
//! got it) runs `a` itself while the helper runs `b`; every other thread —
//! one that never entered, one that lost the try-lock, any thread of a
//! one-core process, and a part that joins again from inside a `join` — runs
//! `a` and then `b` inline. **Who executes a half never changes what it
//! computes**: callers partition their work by the shape of the input alone
//! ([`mid`]) and write disjoint outputs, so a result has the same bits with
//! the helper, without it, and on one core.
//!
//! The handoff spins. A layer pass is tens to hundreds of microseconds and a
//! training step makes a hundred-odd joins, so the helper polls for a bounded
//! interval after its last job ([`SPIN_FOR`]) before it parks, and the caller
//! polls for the helper's half when its own is done. Between steps, and under
//! a test binary's many concurrent trainers, the helper is parked and costs
//! nothing.
//!
//! The helper is a guest of the scheduler, and a small VM's scheduler may
//! leave it on the caller's own CPU for seconds at a time. Two rules keep
//! that case at the speed of the serial path instead of below it: a job the
//! helper has not picked up by the time the caller has finished its own half
//! is taken back and run inline, and the helper's poll loop yields its CPU
//! between batches of polls, so a caller it shares a CPU with is never kept
//! waiting by a helper that has nothing to do.
//!
//! There is one posted job at a time: the team is a mutex, and only its
//! holder posts.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long the helper polls for the next job after finishing one before it
/// parks: longer than the serial stretches between two joins of one step (the
/// longest is the NNLM's loss, ≈ 150 µs on the reference box — at 50 µs the
/// helper parked eleven times a step, at 200 µs about once), far shorter
/// than anything that separates two training runs.
const SPIN_FOR: Duration = Duration::from_micros(200);
/// Polls between two `yield_now`s — of the helper's idle loop, which also
/// reads the clock then, and of a caller waiting for the helper's half.
const POLLS_PER_CHECK: u32 = 256;

/// The second half of a `join`, lifetime-erased so it can sit in a static.
type Job = &'static mut (dyn FnMut() + Send);

/// What the team's holder and the helper share.
struct Shared {
    /// The posted half. Whoever takes it out runs it (or, unwinding, drops
    /// it): the helper, or the caller taking it back.
    slot: Mutex<Option<Job>>,
    /// Hint for the helper's poll loop that `slot` was filled.
    posted: AtomicBool,
    /// Set by the helper (Release) after its last use of a job it took;
    /// awaited (Acquire) and cleared by the caller that posted it.
    done: AtomicBool,
    /// The helper is parked, or about to be.
    parked: AtomicBool,
    /// Payload of a panic in a half the helper ran.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Held by the one thread that may post.
    team: Mutex<()>,
}

static SHARED: Shared = Shared {
    slot: Mutex::new(None),
    posted: AtomicBool::new(false),
    done: AtomicBool::new(false),
    parked: AtomicBool::new(false),
    panic: Mutex::new(None),
    team: Mutex::new(()),
};

thread_local! {
    /// This thread holds the team and is not inside a `join`.
    static MAY_POST: Cell<bool> = const { Cell::new(false) };
    static JOINS: Cell<u64> = const { Cell::new(0) };
}

/// Locks a mutex whose every update is a single assignment, so the data is
/// valid whether or not a holder panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The helper's handle; `None` on a one-core machine or if the spawn failed.
/// Spawned by the first [`enter`] and never joined: it lives as long as the
/// process, parked whenever no step is running, and a panic in a job is
/// caught and carried back to the caller, so there is no result to collect.
fn helper() -> Option<&'static Thread> {
    static HELPER: OnceLock<Option<Thread>> = OnceLock::new();
    HELPER
        .get_or_init(|| {
            if thread::available_parallelism().map_or(1, usize::from) < 2 {
                return None;
            }
            thread::Builder::new()
                .name("ms-par-helper".into())
                .spawn(helper_loop)
                .ok()
                .map(|handle| handle.thread().clone())
        })
        .as_ref()
}

fn helper_loop() {
    loop {
        let job = {
            let _idle = ms_telemetry::span!("par.helper_idle");
            next_job()
        };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job)) {
            *lock(&SHARED.panic) = Some(payload);
        }
        SHARED.done.store(true, Ordering::Release);
    }
}

/// Polls for a posted job; parks once nothing arrived for [`SPIN_FOR`].
fn next_job() -> Job {
    let s = &SHARED;
    let mut idle_since = Instant::now();
    loop {
        for _ in 0..POLLS_PER_CHECK {
            // The swap reads the poster's store or a later one, so the slot
            // it then locks is at least as new as the flag it consumed. A
            // set flag over an empty slot means the caller took the job back.
            if s.posted.load(Ordering::Relaxed) && s.posted.swap(false, Ordering::AcqRel) {
                if let Some(job) = lock(&s.slot).take() {
                    return job;
                }
            }
            std::hint::spin_loop();
        }
        // A no-op when this thread has a CPU to itself; when it shares the
        // caller's, this is what lets the caller run.
        thread::yield_now();
        if idle_since.elapsed() >= SPIN_FOR {
            // Either this load sees the poster's flag, or the poster's load
            // of `parked` (after its store of the flag) sees this store and
            // unparks: a token left before `park` makes it return at once.
            s.parked.store(true, Ordering::SeqCst);
            if !s.posted.load(Ordering::SeqCst) {
                thread::park();
            }
            s.parked.store(false, Ordering::SeqCst);
            idle_since = Instant::now();
        }
    }
}

/// A claim on the helper for as long as the value lives; see [`enter`].
pub struct Team {
    guard: Option<MutexGuard<'static, ()>>,
}

impl Team {
    /// Whether this claim got the helper. `false` when another thread holds
    /// it (or this thread already does, further up its stack) and when the
    /// process has no helper.
    pub fn holds_helper(&self) -> bool {
        self.guard.is_some()
    }
}

impl Drop for Team {
    fn drop(&mut self) {
        if self.guard.is_some() {
            MAY_POST.set(false);
        }
    }
}

/// Tries to claim the helper thread for the calling thread; never blocks.
/// While the returned [`Team`] lives and holds it, this thread's [`join`]s
/// run their second half on the helper. Entered by `Trainer::step` for the
/// duration of a step and by nothing on a serving path: an engine worker
/// already owns its core.
pub fn enter() -> Team {
    let guard = helper().and_then(|_| match SHARED.team.try_lock() {
        Ok(guard) => Some(guard),
        // The protected value is `()`: a holder that panicked broke nothing.
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    });
    if guard.is_some() {
        MAY_POST.set(true);
    }
    Team { guard }
}

/// The fixed two-part partition of `n` items: part 0 is `[0, mid(n))`,
/// part 1 is `[mid(n), n)`. A function of `n` alone.
pub fn mid(n: usize) -> usize {
    n.div_ceil(2)
}

/// Joins issued by the calling thread so far, whoever ran their halves.
pub fn joins() -> u64 {
    JOINS.get()
}

/// A job in flight: posted by [`join`], settled before `join` is left.
struct Posted {
    settled: bool,
}

impl Posted {
    /// Ends the helper's access to the posted job: takes the job back if the
    /// helper has not picked it up (returning it, not yet run), otherwise
    /// waits until the helper has made its last use of it.
    fn settle(&mut self) -> Option<Job> {
        let s = &SHARED;
        let job = lock(&s.slot).take();
        if job.is_none() {
            let _wait = ms_telemetry::span!("par.join_wait");
            let mut polls = 0u32;
            while !s.done.load(Ordering::Acquire) {
                polls += 1;
                if polls.is_multiple_of(POLLS_PER_CHECK) {
                    thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            s.done.store(false, Ordering::Relaxed);
        }
        self.settled = true;
        MAY_POST.set(true);
        job
    }
}

impl Drop for Posted {
    /// Reached unsettled only while the first half unwinds: the second half
    /// must still be out of the helper's hands before the frame it borrows
    /// from goes away. Its result — and its panic, if any — has no taker.
    fn drop(&mut self) {
        if !self.settled {
            let _ = self.settle();
            drop(lock(&SHARED.panic).take());
        }
    }
}

/// Runs `a` and `b` and returns both results. When the calling thread holds
/// the team `b` is posted to the helper thread and runs there while `a` runs
/// here — or here after `a`, if the helper had not started on it by then;
/// otherwise (no team, or inside either half of another `join`) `a` then `b`
/// run inline. The two must not depend on each other's effects. If either
/// half panics the panic resumes on the caller after both halves have
/// finished; `a`'s wins.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    JOINS.set(JOINS.get() + 1);
    if !MAY_POST.replace(false) {
        let ra = a();
        return (ra, b());
    }
    let helper = helper().expect("the team is only ever held in a process with a helper");
    let s = &SHARED;
    let (mut b, mut rb) = (Some(b), None);
    let mut run_b = || rb = Some((b.take().expect("a posted half runs once"))());
    let job: &mut (dyn FnMut() + Send) = &mut run_b;
    // SAFETY: the transmute only erases the lifetime of `job`, which borrows
    // `run_b` (and through it `b` and `rb`) from this frame. The reference
    // is used by whoever takes it out of `slot`, and by no one after
    // `Posted::settle` returns: either `settle` took it out itself, or the
    // helper did and `settle` waited for `done`, which the helper sets only
    // after its last use. `settle` runs before this frame is left on every
    // path — explicitly below, and from `Posted::drop` if `a` unwinds — and
    // this function does not touch `run_b`, `b` or `rb` in between.
    let job: Job = unsafe { std::mem::transmute(job) };
    *lock(&s.slot) = Some(job);
    let mut posted = Posted { settled: false };
    s.posted.store(true, Ordering::SeqCst);
    if s.parked.load(Ordering::SeqCst) {
        helper.unpark();
    }
    let ra = a();
    if let Some(job) = posted.settle() {
        job();
    }
    if let Some(payload) = lock(&s.panic).take() {
        panic::resume_unwind(payload);
    }
    (ra, rb.expect("the second half ran"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    /// Claims the helper, waiting out whichever test holds it; `None` on a
    /// machine without one.
    fn hold_helper() -> Option<Team> {
        helper()?;
        loop {
            let team = enter();
            if team.holds_helper() {
                return Some(team);
            }
            thread::yield_now();
        }
    }

    fn panic_message(payload: Box<dyn Any + Send>) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn both_halves_run_and_return_held_or_not() {
        let mut left = vec![0u32; 64];
        let mut right = vec![0u32; 64];
        for held in [false, true] {
            let _team = held.then(hold_helper);
            let counted = joins();
            let (a, b) = join(
                || {
                    left.iter_mut().for_each(|v| *v += 1);
                    left.len()
                },
                || {
                    right.iter_mut().for_each(|v| *v += 2);
                    right.len() + 1
                },
            );
            assert_eq!((a, b), (64, 65));
            assert_eq!(joins() - counted, 1);
        }
        assert!(left.iter().all(|&v| v == 2) && right.iter().all(|&v| v == 4));
    }

    fn wait_for(flag: &AtomicBool) {
        while !flag.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn the_helper_runs_a_second_half_its_holder_leaves_it() {
        let Some(_team) = hold_helper() else { return };
        // The first half does not end before the second has started, so the
        // second was not taken back.
        let started = AtomicBool::new(false);
        let ((), name) = join(
            || wait_for(&started),
            || {
                started.store(true, Ordering::Release);
                thread::current().name().map(str::to_owned)
            },
        );
        assert_eq!(name.as_deref(), Some("ms-par-helper"));
    }

    #[test]
    fn a_panic_in_either_half_resumes_on_the_caller_and_the_helper_survives() {
        let team = hold_helper();
        let parallel = team.is_some();

        // In the second half — on the helper when there is one: the first
        // half waits until it has started, and runs to its end regardless.
        let started = AtomicBool::new(false);
        let first_finished = AtomicBool::new(false);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            join(
                || {
                    if parallel {
                        wait_for(&started);
                    }
                    first_finished.store(true, Ordering::Release);
                },
                || {
                    started.store(true, Ordering::Release);
                    panic!("second half");
                },
            )
        }));
        assert_eq!(
            panic_message(caught.expect_err("must panic")),
            "second half"
        );
        assert!(first_finished.load(Ordering::Acquire));

        // In the first half, once the helper has started on the second: the
        // caller still waits for it. (Inline, the second is never started.)
        let started = AtomicBool::new(false);
        let second_finished = AtomicBool::new(false);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            join(
                || {
                    if parallel {
                        wait_for(&started);
                    }
                    panic!("first half")
                },
                || {
                    started.store(true, Ordering::Release);
                    thread::sleep(Duration::from_millis(5));
                    second_finished.store(true, Ordering::Release);
                },
            )
        }));
        assert_eq!(panic_message(caught.expect_err("must panic")), "first half");
        assert_eq!(second_finished.load(Ordering::Acquire), parallel);

        // The helper and the team are intact.
        assert_eq!(join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn a_join_inside_a_half_runs_inline() {
        let _team = hold_helper();
        let (a, b) = join(|| join(|| 1, || 2), || join(|| 3, || 4));
        assert_eq!((a, b), ((1, 2), (3, 4)));
        // The team is usable again afterwards.
        assert_eq!(join(|| 5, || 6), (5, 6));
    }

    #[test]
    fn concurrent_entrants_share_one_helper_one_at_a_time() {
        const THREADS: usize = 8;
        let holders = AtomicUsize::new(0);
        let held_at_all = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        let parallel = helper().is_some();
        thread::scope(|scope| {
            for id in 0..THREADS {
                let (holders, held_at_all, barrier) = (&holders, &held_at_all, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    // At least 200 rounds each, and on until one of the eight
                    // has held the helper (another test may hold it for now).
                    let mut round = 0;
                    while round < 200 || (parallel && held_at_all.load(Ordering::Relaxed) == 0) {
                        let team = enter();
                        if team.holds_helper() {
                            assert_eq!(holders.fetch_add(1, Ordering::SeqCst), 0, "two holders");
                            held_at_all.fetch_add(1, Ordering::Relaxed);
                        }
                        let base = id * 1000 + round % 1000;
                        let (a, b) = join(|| base + 1, || base + 2);
                        assert_eq!((a, b), (base + 1, base + 2));
                        if team.holds_helper() {
                            holders.fetch_sub(1, Ordering::SeqCst);
                        }
                        round += 1;
                    }
                });
            }
        });
    }

    #[test]
    fn the_partition_is_the_ceiling_half() {
        assert_eq!([0, 1, 2, 3, 5, 33].map(mid), [0, 1, 1, 2, 3, 17]);
    }
}
