//! The fork-join helper is one thread for the life of the process: ten
//! thousand joins leave `/proc/self/task` one entry longer than before the
//! team was first entered (none on a one-core machine), and every result is
//! right. Alone in its file so no other test's threads are counted.

use ms_tensor::par;
use std::sync::atomic::{AtomicBool, Ordering};

#[test]
fn ten_thousand_joins_add_one_thread() {
    let threads = || std::fs::read_dir("/proc/self/task").map(Iterator::count);
    let Ok(before) = threads() else {
        return; // no procfs: nothing to count
    };
    let team = par::enter();
    let mut sum = 0u64;
    for i in 0..10_000u64 {
        // Every so often the first half waits for the second to start, so
        // the helper (not the caller taking the job back) must have run it.
        let started = AtomicBool::new(false);
        let wait = team.holds_helper() && i % 100 == 0;
        let (a, b) = par::join(
            || {
                while wait && !started.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                i
            },
            || {
                started.store(true, Ordering::Release);
                2 * i
            },
        );
        sum += a + b;
    }
    assert_eq!(sum, 3 * (0..10_000u64).sum::<u64>());
    let after = threads().expect("procfs was readable a moment ago");
    assert_eq!(after, before + usize::from(team.holds_helper()));
}
